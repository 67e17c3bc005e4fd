//! Workflow persistence: save a captured [`EmWorkflow`] as a text artifact
//! and rebuild it in another process.
//!
//! §4.1: the development stage's output "is captured as a Python script"
//! that the production stage executes. The Rust equivalent is a
//! [`WorkflowSpec`] — pure data describing the blocker, the feature set,
//! the trained forest, the rule layer, the threshold, and the decision
//! plan — with a line-oriented, dependency-free text encoding. Only forest
//! matchers are persistable (they are what Falcon and the pipeline's
//! best-performing configurations produce); other matcher types must be
//! re-trained from the labeled data.
//!
//! Field separators are tabs; attribute and rule names may contain any
//! character except tab and newline (checked at save time).
//!
//! `workflow v1`, line by line:
//!
//! ```text
//! workflow v1
//! threshold <t>
//! blocker <kind>\t<fields...>         (rules: `brule`/`bpred` lines follow)
//! features <n>, then n × feature <kind>\t<l_attr>\t<r_attr>\t<name>
//! rules <n>, then per rule: rule <action> <k>\t<name>, k × cond <op> <t>\t<feature>
//! defer\t<feature>                    (decision plan: tested last; any number)
//! region <bound>\t<feature>           (decision plan: the certain-No box, in reading order)
//! matcher forest, then the `forest v1` text
//! ```
//!
//! The plan lines ([`DecisionPlan`]) name features by name. A box that
//! constrains no feature is one bare `region` line. A bound is written in
//! Rust's shortest round-trip form, so it reads back to the same bits. A
//! file with no plan lines — every file saved before the plan was part of
//! the workflow — loads with the empty plan: no deferral and no box, the
//! same matches. On load the plan is checked against the file's own forest
//! and threshold ([`DecisionPlan::check`]): a box that forest can score at
//! or above the threshold inside is refused, naming its first line.

use magellan_block::{
    AttrEquivalenceBlocker, Blocker, BlockingRule, HashBlocker, OverlapBlocker, Predicate,
    RuleBasedBlocker, SimFeature, SimJoinBlocker, SortedNeighborhoodBlocker, TokSpec,
};
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::persist::{read_forest, save_forest, stated_count, PersistError};
use magellan_ml::{Node, RandomForestClassifier};
use magellan_simjoin::SetSimMeasure;

use crate::exec::DecisionPlan;
use crate::rules::{Cmp, MatchRule, RuleAction, RuleLayer};
use crate::workflow::EmWorkflow;

/// A persistable blocker description.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockerSpec {
    /// [`AttrEquivalenceBlocker`].
    AttrEquivalence {
        /// Left attribute.
        l_attr: String,
        /// Right attribute.
        r_attr: String,
    },
    /// [`HashBlocker`].
    Hash {
        /// Left attribute.
        l_attr: String,
        /// Right attribute.
        r_attr: String,
        /// Bucket count.
        n_buckets: usize,
    },
    /// [`OverlapBlocker`].
    Overlap {
        /// Left attribute.
        l_attr: String,
        /// Right attribute.
        r_attr: String,
        /// Minimum shared tokens.
        overlap_size: usize,
        /// Q-gram size (`None` = word tokens).
        qgram: Option<usize>,
    },
    /// [`SimJoinBlocker`].
    SimJoin {
        /// Left attribute.
        l_attr: String,
        /// Right attribute.
        r_attr: String,
        /// Join measure.
        measure: SetSimMeasure,
        /// Q-gram size (`None` = word tokens).
        qgram: Option<usize>,
    },
    /// [`SortedNeighborhoodBlocker`].
    SortedNeighborhood {
        /// Left attribute.
        l_attr: String,
        /// Right attribute.
        r_attr: String,
        /// Window size.
        window: usize,
    },
    /// [`RuleBasedBlocker`].
    Rules(Vec<BlockingRule>),
}

impl BlockerSpec {
    /// Instantiate the blocker.
    pub fn build(&self) -> Box<dyn Blocker> {
        match self {
            BlockerSpec::AttrEquivalence { l_attr, r_attr } => Box::new(AttrEquivalenceBlocker {
                l_attr: l_attr.clone(),
                r_attr: r_attr.clone(),
            }),
            BlockerSpec::Hash {
                l_attr,
                r_attr,
                n_buckets,
            } => Box::new(HashBlocker {
                l_attr: l_attr.clone(),
                r_attr: r_attr.clone(),
                n_buckets: *n_buckets,
            }),
            BlockerSpec::Overlap {
                l_attr,
                r_attr,
                overlap_size,
                qgram,
            } => Box::new(OverlapBlocker {
                l_attr: l_attr.clone(),
                r_attr: r_attr.clone(),
                overlap_size: *overlap_size,
                qgram: *qgram,
                shards: 1,
            }),
            BlockerSpec::SimJoin {
                l_attr,
                r_attr,
                measure,
                qgram,
            } => Box::new(SimJoinBlocker {
                l_attr: l_attr.clone(),
                r_attr: r_attr.clone(),
                measure: *measure,
                qgram: *qgram,
                shards: 1,
            }),
            BlockerSpec::SortedNeighborhood {
                l_attr,
                r_attr,
                window,
            } => Box::new(SortedNeighborhoodBlocker {
                l_attr: l_attr.clone(),
                r_attr: r_attr.clone(),
                window: *window,
            }),
            BlockerSpec::Rules(rules) => Box::new(RuleBasedBlocker::new(rules.clone())),
        }
    }
}

/// A fully persistable workflow description.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    /// The blocking step.
    pub blocker: BlockerSpec,
    /// The feature set.
    pub features: Vec<Feature>,
    /// The trained forest matcher.
    pub forest: RandomForestClassifier,
    /// The post-prediction rule layer.
    pub rule_layer: RuleLayer,
    /// Match threshold.
    pub threshold: f64,
    /// The decision plan the development stage derived.
    pub plan: DecisionPlan,
}

impl WorkflowSpec {
    /// Instantiate a runnable workflow.
    pub fn build(self) -> EmWorkflow {
        EmWorkflow {
            blocker: self.blocker.build(),
            features: self.features,
            matcher: Box::new(self.forest),
            rule_layer: self.rule_layer,
            threshold: self.threshold,
            plan: self.plan,
        }
    }
}

fn check_name(s: &str) -> &str {
    debug_assert!(
        !s.contains('\t') && !s.contains('\n'),
        "names may not contain tabs or newlines: {s:?}"
    );
    s
}

fn tok_label(t: TokSpec) -> String {
    match t {
        TokSpec::Word => "word".to_owned(),
        TokSpec::Qgram(q) => format!("q{q}"),
    }
}

/// A q-gram size: at least 1, which the q-gram tokenizers assert.
fn parse_q(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&q| q >= 1)
}

fn parse_tok(s: &str, line: usize) -> Result<TokSpec, PersistError> {
    if s == "word" {
        Ok(TokSpec::Word)
    } else if let Some(q) = s.strip_prefix('q').and_then(parse_q) {
        Ok(TokSpec::Qgram(q))
    } else {
        Err(PersistError::at(line, format!("bad tokenizer spec `{s}`")))
    }
}

fn tokf_label(t: TokSpecF) -> String {
    match t {
        TokSpecF::Word => "word".to_owned(),
        TokSpecF::Qgram(q) => format!("q{q}"),
    }
}

fn parse_tokf(s: &str, line: usize) -> Result<TokSpecF, PersistError> {
    if s == "word" {
        Ok(TokSpecF::Word)
    } else if let Some(q) = s.strip_prefix('q').and_then(parse_q) {
        Ok(TokSpecF::Qgram(q))
    } else {
        Err(PersistError::at(line, format!("bad tokenizer spec `{s}`")))
    }
}

fn kind_label(kind: FeatureKind) -> String {
    match kind {
        FeatureKind::ExactMatch => "exact_match".into(),
        FeatureKind::LevSim => "lev_sim".into(),
        FeatureKind::Jaro => "jaro".into(),
        FeatureKind::JaroWinkler => "jaro_winkler".into(),
        FeatureKind::MongeElkanJw => "monge_elkan".into(),
        FeatureKind::Jaccard(t) => format!("jaccard:{}", tokf_label(t)),
        FeatureKind::Cosine(t) => format!("cosine:{}", tokf_label(t)),
        FeatureKind::Dice(t) => format!("dice:{}", tokf_label(t)),
        FeatureKind::OverlapCoeff(t) => format!("overlap_coeff:{}", tokf_label(t)),
        FeatureKind::ExactNum => "exact_num".into(),
        FeatureKind::AbsDiff => "abs_diff".into(),
        FeatureKind::RelDiff => "rel_diff".into(),
    }
}

fn parse_kind(s: &str, line: usize) -> Result<FeatureKind, PersistError> {
    let bad = || PersistError::at(line, format!("bad feature kind `{s}`"));
    Ok(match s {
        "exact_match" => FeatureKind::ExactMatch,
        "lev_sim" => FeatureKind::LevSim,
        "jaro" => FeatureKind::Jaro,
        "jaro_winkler" => FeatureKind::JaroWinkler,
        "monge_elkan" => FeatureKind::MongeElkanJw,
        "exact_num" => FeatureKind::ExactNum,
        "abs_diff" => FeatureKind::AbsDiff,
        "rel_diff" => FeatureKind::RelDiff,
        _ => {
            let (outer, tok) = s.split_once(':').ok_or_else(bad)?;
            let t = parse_tokf(tok, line)?;
            match outer {
                "jaccard" => FeatureKind::Jaccard(t),
                "cosine" => FeatureKind::Cosine(t),
                "dice" => FeatureKind::Dice(t),
                "overlap_coeff" => FeatureKind::OverlapCoeff(t),
                _ => return Err(bad()),
            }
        }
    })
}

fn sim_feature_label(f: SimFeature) -> String {
    match f {
        SimFeature::ExactMatch => "exact_match".into(),
        SimFeature::Jaccard(t) => format!("jaccard:{}", tok_label(t)),
        SimFeature::Cosine(t) => format!("cosine:{}", tok_label(t)),
        SimFeature::Dice(t) => format!("dice:{}", tok_label(t)),
    }
}

fn parse_sim_feature(s: &str, line: usize) -> Result<SimFeature, PersistError> {
    let bad = || PersistError::at(line, format!("bad blocking feature `{s}`"));
    Ok(match s {
        "exact_match" => SimFeature::ExactMatch,
        _ => {
            let (outer, tok) = s.split_once(':').ok_or_else(bad)?;
            let t = parse_tok(tok, line)?;
            match outer {
                "jaccard" => SimFeature::Jaccard(t),
                "cosine" => SimFeature::Cosine(t),
                "dice" => SimFeature::Dice(t),
                _ => return Err(bad()),
            }
        }
    })
}

/// Serialize a workflow spec.
pub fn save_workflow(spec: &WorkflowSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "workflow v1").unwrap();
    writeln!(out, "threshold {}", spec.threshold).unwrap();
    match &spec.blocker {
        BlockerSpec::AttrEquivalence { l_attr, r_attr } => writeln!(
            out,
            "blocker attr_equiv\t{}\t{}",
            check_name(l_attr),
            check_name(r_attr)
        )
        .unwrap(),
        BlockerSpec::Hash {
            l_attr,
            r_attr,
            n_buckets,
        } => writeln!(
            out,
            "blocker hash\t{}\t{}\t{n_buckets}",
            check_name(l_attr),
            check_name(r_attr)
        )
        .unwrap(),
        BlockerSpec::Overlap {
            l_attr,
            r_attr,
            overlap_size,
            qgram,
        } => writeln!(
            out,
            "blocker overlap\t{}\t{}\t{overlap_size}\t{}",
            check_name(l_attr),
            check_name(r_attr),
            qgram.map_or(-1i64, |q| q as i64)
        )
        .unwrap(),
        BlockerSpec::SimJoin {
            l_attr,
            r_attr,
            measure,
            qgram,
        } => {
            let m = match measure {
                SetSimMeasure::Jaccard(t) => format!("jaccard {t}"),
                SetSimMeasure::Cosine(t) => format!("cosine {t}"),
                SetSimMeasure::Dice(t) => format!("dice {t}"),
                SetSimMeasure::OverlapSize(c) => format!("overlap_size {c}"),
            };
            writeln!(
                out,
                "blocker simjoin\t{}\t{}\t{m}\t{}",
                check_name(l_attr),
                check_name(r_attr),
                qgram.map_or(-1i64, |q| q as i64)
            )
            .unwrap()
        }
        BlockerSpec::SortedNeighborhood {
            l_attr,
            r_attr,
            window,
        } => writeln!(
            out,
            "blocker sorted_neighborhood\t{}\t{}\t{window}",
            check_name(l_attr),
            check_name(r_attr)
        )
        .unwrap(),
        BlockerSpec::Rules(rules) => {
            writeln!(out, "blocker rules {}", rules.len()).unwrap();
            for rule in rules {
                writeln!(out, "brule {}", rule.predicates.len()).unwrap();
                for p in &rule.predicates {
                    writeln!(
                        out,
                        "bpred {} {}\t{}\t{}",
                        sim_feature_label(p.feature),
                        p.threshold,
                        check_name(&p.l_attr),
                        check_name(&p.r_attr)
                    )
                    .unwrap();
                }
            }
        }
    }
    writeln!(out, "features {}", spec.features.len()).unwrap();
    for f in &spec.features {
        writeln!(
            out,
            "feature {}\t{}\t{}\t{}",
            kind_label(f.kind),
            check_name(&f.l_attr),
            check_name(&f.r_attr),
            check_name(&f.name)
        )
        .unwrap();
    }
    writeln!(out, "rules {}", spec.rule_layer.rules.len()).unwrap();
    for rule in &spec.rule_layer.rules {
        let action = match rule.action {
            RuleAction::Accept => "accept",
            RuleAction::Reject => "reject",
        };
        writeln!(
            out,
            "rule {action} {}\t{}",
            rule.conditions.len(),
            check_name(&rule.name)
        )
        .unwrap();
        for (fname, op, t) in &rule.conditions {
            let op = match op {
                Cmp::Le => "le",
                Cmp::Lt => "lt",
                Cmp::Ge => "ge",
                Cmp::Gt => "gt",
                Cmp::Eq => "eq",
            };
            writeln!(out, "cond {op} {t}\t{}", check_name(fname)).unwrap();
        }
    }
    let name = |j: usize| check_name(&spec.features[j].name);
    for (j, _) in spec.plan.deferred.iter().enumerate().filter(|(_, &d)| d) {
        writeln!(out, "defer\t{}", name(j)).unwrap();
    }
    match &spec.plan.region {
        Some(dims) if dims.is_empty() => writeln!(out, "region").unwrap(),
        Some(dims) => {
            for &(j, bound) in dims {
                writeln!(out, "region {bound}\t{}", name(j)).unwrap();
            }
        }
        None => {}
    }
    writeln!(out, "matcher forest").unwrap();
    out.push_str(&save_forest(&spec.forest));
    out
}

struct LineReader<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    n_lines: usize,
}

impl<'a> LineReader<'a> {
    /// `n` entries of `what`, stated on line `ln`, if the lines after it
    /// can hold them.
    fn count(&self, n: usize, ln: usize, what: &str) -> Result<usize, PersistError> {
        stated_count(n, self.n_lines - ln, ln, what)
    }

    fn next(&mut self, what: &str) -> Result<(usize, &'a str), PersistError> {
        self.lines.next().map(|(i, l)| (i + 1, l)).ok_or_else(|| {
            PersistError::at(0, format!("unexpected end of input (expected {what})"))
        })
    }
}

fn expect_prefix<'a>(line: &'a str, prefix: &str, ln: usize) -> Result<&'a str, PersistError> {
    line.strip_prefix(prefix)
        .ok_or_else(|| PersistError::at(ln, format!("expected `{prefix}...`, got `{line}`")))
}

/// Parse a workflow saved by [`save_workflow`].
pub fn load_workflow(text: &str) -> Result<WorkflowSpec, PersistError> {
    let mut r = LineReader {
        lines: text.lines().enumerate(),
        n_lines: text.lines().count(),
    };
    let (ln, header) = r.next("header")?;
    if header != "workflow v1" {
        return Err(PersistError::at(
            ln,
            format!("expected `workflow v1`, got `{header}`"),
        ));
    }
    let (ln, tline) = r.next("threshold")?;
    let threshold: f64 = expect_prefix(tline, "threshold ", ln)?
        .parse()
        .map_err(|_| PersistError::at(ln, "bad threshold"))?;

    let (ln, bline) = r.next("blocker")?;
    let body = expect_prefix(bline, "blocker ", ln)?;
    let blocker = parse_blocker(body, ln, &mut r)?;

    let (ln, fline) = r.next("features")?;
    let n_features: usize = expect_prefix(fline, "features ", ln)?
        .parse()
        .map_err(|_| PersistError::at(ln, "bad feature count"))?;
    let mut features = Vec::with_capacity(r.count(n_features, ln, "features")?);
    for _ in 0..n_features {
        let (ln, line) = r.next("feature")?;
        let body = expect_prefix(line, "feature ", ln)?;
        let parts: Vec<&str> = body.splitn(4, '\t').collect();
        let [kind, l_attr, r_attr, name] = parts.as_slice() else {
            return Err(PersistError::at(
                ln,
                "feature needs kind, l_attr, r_attr, name",
            ));
        };
        features.push(Feature {
            name: (*name).to_owned(),
            l_attr: (*l_attr).to_owned(),
            r_attr: (*r_attr).to_owned(),
            kind: parse_kind(kind, ln)?,
        });
    }

    let (ln, rline) = r.next("rules")?;
    let n_rules: usize = expect_prefix(rline, "rules ", ln)?
        .parse()
        .map_err(|_| PersistError::at(ln, "bad rule count"))?;
    let mut rules = Vec::with_capacity(r.count(n_rules, ln, "rules")?);
    for _ in 0..n_rules {
        let (ln, line) = r.next("rule")?;
        let body = expect_prefix(line, "rule ", ln)?;
        let (head, name) = body
            .split_once('\t')
            .ok_or(PersistError::at(ln, "rule needs a name"))?;
        let mut head_parts = head.split(' ');
        let action = match head_parts.next() {
            Some("accept") => RuleAction::Accept,
            Some("reject") => RuleAction::Reject,
            _ => return Err(PersistError::at(ln, "rule action must be accept/reject")),
        };
        let n_conds: usize = head_parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(PersistError::at(ln, "bad condition count"))?;
        let mut conditions = Vec::with_capacity(r.count(n_conds, ln, "conditions")?);
        for _ in 0..n_conds {
            let (ln, line) = r.next("cond")?;
            let body = expect_prefix(line, "cond ", ln)?;
            let (head, fname) = body
                .split_once('\t')
                .ok_or(PersistError::at(ln, "cond needs a feature name"))?;
            let (op, thr) = head
                .split_once(' ')
                .ok_or(PersistError::at(ln, "cond needs op and threshold"))?;
            let op = match op {
                "le" => Cmp::Le,
                "lt" => Cmp::Lt,
                "ge" => Cmp::Ge,
                "gt" => Cmp::Gt,
                "eq" => Cmp::Eq,
                _ => return Err(PersistError::at(ln, format!("bad comparison `{op}`"))),
            };
            let thr: f64 = thr
                .parse()
                .map_err(|_| PersistError::at(ln, "bad condition threshold"))?;
            conditions.push((fname.to_owned(), op, thr));
        }
        rules.push(MatchRule {
            name: name.to_owned(),
            conditions,
            action,
        });
    }

    // The decision plan's lines, if any, up to the matcher.
    let feature = |name: &str, ln: usize| {
        features.iter().position(|f| f.name == name).ok_or_else(|| {
            PersistError::at(
                ln,
                format!("the plan names `{name}`, which is not a feature"),
            )
        })
    };
    let mut plan = DecisionPlan::default();
    let mut region_line = 0;
    let (ln, mline) = loop {
        let (ln, line) = r.next("matcher")?;
        if let Some(name) = line.strip_prefix("defer\t") {
            let j = feature(name, ln)?;
            plan.deferred.resize(features.len(), false);
            plan.deferred[j] = true;
        } else if line == "region" || line.starts_with("region ") {
            let dims = plan.region.get_or_insert_with(Vec::new);
            if region_line == 0 {
                region_line = ln;
            }
            if let Some(dim) = line.strip_prefix("region ") {
                let (bound, name) = dim
                    .split_once('\t')
                    .ok_or(PersistError::at(ln, "region needs a bound and a feature"))?;
                let bound: f64 = bound
                    .parse()
                    .map_err(|_| PersistError::at(ln, format!("bad region bound `{bound}`")))?;
                dims.push((feature(name, ln)?, bound));
            }
        } else {
            break (ln, line);
        }
    };
    if mline != "matcher forest" {
        return Err(PersistError::at(
            ln,
            format!("expected `matcher forest`, got `{mline}`"),
        ));
    }
    // The rest of the file is the forest.
    let forest = read_forest(&mut (&mut r.lines).map(|(i, l)| (i + 1, l)), r.n_lines)?;
    // The forest is read with the workflow's feature rows: a split on a
    // feature the workflow does not list would index past the row.
    for (t, tree) in forest.trees().iter().enumerate() {
        for node in tree.nodes() {
            if let Node::Split { feature, .. } = *node {
                if feature >= features.len() {
                    return Err(PersistError::at(0, format!("tree {t} splits on feature {feature}, but the workflow lists {} features", features.len())));
                }
            }
        }
    }

    plan.check(&forest, threshold, features.len())
        .map_err(|e| PersistError::at(region_line, e.to_string()))?;

    Ok(WorkflowSpec {
        blocker,
        features,
        forest,
        rule_layer: RuleLayer::new(rules),
        threshold,
        plan,
    })
}

fn parse_blocker(
    body: &str,
    ln: usize,
    r: &mut LineReader<'_>,
) -> Result<BlockerSpec, PersistError> {
    let bad = |msg: &str| PersistError::at(ln, msg);
    // `-1` for word tokens, else a q-gram size.
    let parse_qgram = |s: &str| -> Option<Option<usize>> {
        if s.parse::<i64>().ok()? < 0 {
            Some(None)
        } else {
            parse_q(s).map(Some)
        }
    };
    if let Some(rest) = body.strip_prefix("attr_equiv\t") {
        let (l, rr) = rest
            .split_once('\t')
            .ok_or_else(|| bad("attr_equiv needs two attrs"))?;
        Ok(BlockerSpec::AttrEquivalence {
            l_attr: l.to_owned(),
            r_attr: rr.to_owned(),
        })
    } else if let Some(rest) = body.strip_prefix("hash\t") {
        let parts: Vec<&str> = rest.split('\t').collect();
        let [l, rr, n] = parts.as_slice() else {
            return Err(bad("hash needs two attrs and a bucket count"));
        };
        Ok(BlockerSpec::Hash {
            l_attr: (*l).to_owned(),
            r_attr: (*rr).to_owned(),
            n_buckets: n
                .parse()
                .ok()
                .filter(|&n: &usize| n >= 1)
                .ok_or_else(|| bad("bad bucket count: the hash blocker needs at least one"))?,
        })
    } else if let Some(rest) = body.strip_prefix("overlap\t") {
        let parts: Vec<&str> = rest.split('\t').collect();
        let [l, rr, size, qgram] = parts.as_slice() else {
            return Err(bad("overlap needs attrs, size, qgram"));
        };
        Ok(BlockerSpec::Overlap {
            l_attr: (*l).to_owned(),
            r_attr: (*rr).to_owned(),
            overlap_size: size.parse().map_err(|_| bad("bad overlap size"))?,
            qgram: parse_qgram(qgram).ok_or_else(|| bad("bad qgram"))?,
        })
    } else if let Some(rest) = body.strip_prefix("simjoin\t") {
        let parts: Vec<&str> = rest.split('\t').collect();
        let [l, rr, m, qgram] = parts.as_slice() else {
            return Err(bad("simjoin needs attrs, measure, qgram"));
        };
        let (mname, mval) = m.split_once(' ').ok_or_else(|| bad("bad measure"))?;
        let measure = match mname {
            "jaccard" => SetSimMeasure::Jaccard(mval.parse().map_err(|_| bad("bad threshold"))?),
            "cosine" => SetSimMeasure::Cosine(mval.parse().map_err(|_| bad("bad threshold"))?),
            "dice" => SetSimMeasure::Dice(mval.parse().map_err(|_| bad("bad threshold"))?),
            "overlap_size" => {
                SetSimMeasure::OverlapSize(mval.parse().map_err(|_| bad("bad size"))?)
            }
            _ => return Err(bad("unknown measure")),
        };
        measure.check().map_err(|why| bad(&why))?;
        Ok(BlockerSpec::SimJoin {
            l_attr: (*l).to_owned(),
            r_attr: (*rr).to_owned(),
            measure,
            qgram: parse_qgram(qgram).ok_or_else(|| bad("bad qgram"))?,
        })
    } else if let Some(rest) = body.strip_prefix("sorted_neighborhood\t") {
        let parts: Vec<&str> = rest.split('\t').collect();
        let [l, rr, w] = parts.as_slice() else {
            return Err(bad("sorted_neighborhood needs attrs and a window"));
        };
        Ok(BlockerSpec::SortedNeighborhood {
            l_attr: (*l).to_owned(),
            r_attr: (*rr).to_owned(),
            window: w.parse().map_err(|_| bad("bad window"))?,
        })
    } else if let Some(rest) = body.strip_prefix("rules ") {
        let n_rules: usize = rest.parse().map_err(|_| bad("bad rule count"))?;
        if n_rules == 0 {
            return Err(bad("rule blocker needs at least one rule"));
        }
        let mut rules = Vec::with_capacity(r.count(n_rules, ln, "blocking rules")?);
        for _ in 0..n_rules {
            let (ln, line) = r.next("brule")?;
            let n_preds: usize = expect_prefix(line, "brule ", ln)?
                .parse()
                .map_err(|_| PersistError::at(ln, "bad predicate count"))?;
            let mut predicates = Vec::with_capacity(r.count(n_preds, ln, "predicates")?);
            for _ in 0..n_preds {
                let (ln, line) = r.next("bpred")?;
                let body = expect_prefix(line, "bpred ", ln)?;
                let parts: Vec<&str> = body.splitn(3, '\t').collect();
                let [head, l_attr, r_attr] = parts.as_slice() else {
                    return Err(PersistError::at(
                        ln,
                        "bpred needs feature+threshold, l_attr, r_attr",
                    ));
                };
                let (feat, thr) = head
                    .split_once(' ')
                    .ok_or(PersistError::at(ln, "bpred needs feature and threshold"))?;
                predicates.push(Predicate {
                    l_attr: (*l_attr).to_owned(),
                    r_attr: (*r_attr).to_owned(),
                    feature: parse_sim_feature(feat, ln)?,
                    threshold: thr
                        .parse()
                        .map_err(|_| PersistError::at(ln, "bad predicate threshold"))?,
                });
            }
            rules.push(BlockingRule { predicates });
        }
        Ok(BlockerSpec::Rules(rules))
    } else {
        Err(bad(&format!("unknown blocker spec `{body}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_ml::{Dataset, RandomForestLearner};

    fn forest() -> RandomForestClassifier {
        let d = Dataset::from_rows(
            &[
                vec![0.9, 0.1],
                vec![0.8, 0.2],
                vec![0.1, 0.9],
                vec![0.2, 0.8],
            ],
            &[true, true, false, false],
        );
        RandomForestLearner {
            n_trees: 3,
            ..Default::default()
        }
        .fit_forest(&d)
    }

    fn spec_with(blocker: BlockerSpec) -> WorkflowSpec {
        WorkflowSpec {
            blocker,
            features: vec![
                Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Qgram(3))),
                Feature::new("age", "age", FeatureKind::AbsDiff),
            ],
            forest: forest(),
            rule_layer: RuleLayer::new(vec![
                MatchRule::reject(
                    "weak name guard",
                    vec![("jaccard(3gram(A.name), 3gram(B.name))".into(), Cmp::Lt, 0.3)],
                ),
                MatchRule::accept(
                    "strong age",
                    vec![("abs_diff(A.age, B.age)".into(), Cmp::Ge, 0.95)],
                ),
            ]),
            threshold: 0.5,
            plan: DecisionPlan::default(),
        }
    }

    fn roundtrip(spec: &WorkflowSpec) -> WorkflowSpec {
        load_workflow(&save_workflow(spec)).expect("roundtrip")
    }

    #[test]
    fn every_blocker_spec_roundtrips() {
        let blockers = vec![
            BlockerSpec::AttrEquivalence {
                l_attr: "name".into(),
                r_attr: "full name".into(),
            },
            BlockerSpec::Hash {
                l_attr: "zip".into(),
                r_attr: "zip".into(),
                n_buckets: 512,
            },
            BlockerSpec::Overlap {
                l_attr: "title".into(),
                r_attr: "title".into(),
                overlap_size: 2,
                qgram: None,
            },
            BlockerSpec::Overlap {
                l_attr: "title".into(),
                r_attr: "title".into(),
                overlap_size: 4,
                qgram: Some(3),
            },
            BlockerSpec::SimJoin {
                l_attr: "title".into(),
                r_attr: "title".into(),
                measure: SetSimMeasure::Jaccard(0.42),
                qgram: Some(3),
            },
            BlockerSpec::SortedNeighborhood {
                l_attr: "name".into(),
                r_attr: "name".into(),
                window: 7,
            },
            BlockerSpec::Rules(vec![BlockingRule {
                predicates: vec![Predicate {
                    l_attr: "name".into(),
                    r_attr: "name".into(),
                    feature: SimFeature::Jaccard(TokSpec::Word),
                    threshold: 0.31,
                }],
            }]),
        ];
        for b in blockers {
            let spec = spec_with(b.clone());
            let back = roundtrip(&spec);
            assert_eq!(back.blocker, b);
            assert_eq!(back.features, spec.features);
            assert_eq!(back.threshold, spec.threshold);
            assert_eq!(back.rule_layer.rules.len(), 2);
        }
    }

    #[test]
    fn rebuilt_workflow_behaves_identically() {
        use magellan_table::{Dtype, Table};
        let a = Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![
                vec![
                    "a0".into(),
                    "dave smith".into(),
                    magellan_table::Value::Int(40),
                ],
                vec![
                    "a1".into(),
                    "joe wilson".into(),
                    magellan_table::Value::Int(30),
                ],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![vec![
                "b0".into(),
                "dave smith".into(),
                magellan_table::Value::Int(41),
            ]],
        )
        .unwrap();
        let spec = spec_with(BlockerSpec::Overlap {
            l_attr: "name".into(),
            r_attr: "name".into(),
            overlap_size: 1,
            qgram: None,
        });
        let original = spec.clone().build().execute(&a, &b).unwrap();
        let rebuilt = roundtrip(&spec).build().execute(&a, &b).unwrap();
        assert_eq!(original.candidates, rebuilt.candidates);
        assert_eq!(original.decisions, rebuilt.decisions);
    }

    #[test]
    fn rule_names_with_spaces_and_tabs_in_format_survive() {
        let spec = spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "name".into(),
            r_attr: "name".into(),
        });
        let back = roundtrip(&spec);
        assert_eq!(back.rule_layer.rules[0].name, "weak name guard");
        assert_eq!(
            back.rule_layer.rules[0].conditions[0].0,
            "jaccard(3gram(A.name), 3gram(B.name))"
        );
    }

    #[test]
    fn corrupt_workflows_are_rejected() {
        assert!(load_workflow("").is_err());
        assert!(load_workflow("workflow v2\n").is_err());
        let spec = spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "x".into(),
            r_attr: "x".into(),
        });
        let text = save_workflow(&spec);
        let truncated = &text[..text.len() / 2];
        assert!(load_workflow(truncated).is_err());
        let tampered = text.replacen("blocker attr_equiv", "blocker nonsense", 1);
        assert!(load_workflow(&tampered).is_err());
    }

    /// The forest is read from the lines after `matcher forest`, in place:
    /// a CRLF copy loads to the same spec, an attribute named `matcher
    /// forest` is only an attribute, and a bad tree line is named by its
    /// line in the workflow file.
    #[test]
    fn the_forest_is_read_from_the_workflows_own_lines() -> Result<(), PersistError> {
        for attr in ["name", "matcher forest"] {
            let text = save_workflow(&spec_with(BlockerSpec::AttrEquivalence {
                l_attr: attr.into(),
                r_attr: attr.into(),
            }));
            assert_eq!(save_workflow(&load_workflow(&text)?), text);
            assert_eq!(
                save_workflow(&load_workflow(&text.replace('\n', "\r\n"))?),
                text
            );
        }
        // The last node of a tree has no children, so the file ends on a leaf.
        let text = save_workflow(&spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "name".into(),
            r_attr: "name".into(),
        }));
        let mut lines: Vec<&str> = text.lines().collect();
        let leaf = lines.len() - 1;
        assert!(lines[leaf].starts_with("leaf "), "{}", lines[leaf]);
        lines[leaf] = "leaf 1 2";
        let err = load_workflow(&(lines.join("\n") + "\n")).expect_err("bad leaf");
        assert_eq!(err.line, leaf + 1, "{err}");
        assert!(err.message.contains("more positives"), "{err}");
        Ok(())
    }

    /// Blocker parameters the blocker would reject at run time (a panic
    /// in the join or the tokenizer, or a hash blocker's error naming the
    /// table) are rejected at load, naming the line.
    #[test]
    fn blocker_parameters_a_blocker_rejects_do_not_load() {
        let spec = spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "name".into(),
            r_attr: "name".into(),
        });
        let text = save_workflow(&spec);
        let blocker = text
            .lines()
            .position(|l| l.starts_with("blocker "))
            .unwrap();
        let bad_lines = [
            (
                "simjoin\tname\tname\tjaccard 1.5\t-1",
                "threshold must be in (0, 1]",
            ),
            (
                "simjoin\tname\tname\tcosine 0\t3",
                "threshold must be in (0, 1]",
            ),
            (
                "simjoin\tname\tname\tdice NaN\t-1",
                "threshold must be in (0, 1]",
            ),
            (
                "simjoin\tname\tname\toverlap_size 0\t-1",
                "overlap size must be at least 1",
            ),
            ("overlap\tname\tname\t1\t0", "bad qgram"),
            ("hash\tname\tname\t0", "at least one"),
        ];
        for (body, why) in bad_lines {
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            lines[blocker] = format!("blocker {body}");
            let err = load_workflow(&(lines.join("\n") + "\n")).expect_err(body);
            assert_eq!(err.line, blocker + 1, "{body}: {err}");
            assert!(err.message.contains(why), "{body}: {err}");
        }
        // A q-gram size of 0 in a rule predicate's or a feature's tokenizer too.
        assert!(parse_tok("q0", 1).is_err() && parse_tokf("q0", 1).is_err());
        assert_eq!(parse_tok("q3", 1).unwrap(), TokSpec::Qgram(3));
    }

    #[test]
    fn a_forest_splitting_past_the_feature_list_is_rejected() {
        // A forest trained on three features, saved with a workflow that
        // lists one: the executor would index its feature row with 2.
        let d = Dataset::from_rows(
            &[
                vec![0.0, 0.0, 0.9],
                vec![0.0, 0.0, 0.8],
                vec![0.0, 0.0, 0.1],
                vec![0.0, 0.0, 0.2],
            ],
            &[true, true, false, false],
        );
        let forest = RandomForestLearner {
            n_trees: 2,
            bootstrap: false,
            max_features: Some(3),
            ..Default::default()
        }
        .fit_forest(&d);
        let mut spec = spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "name".into(),
            r_attr: "name".into(),
        });
        spec.features.truncate(1);
        spec.rule_layer = RuleLayer::empty();
        spec.forest = forest;
        let err = load_workflow(&save_workflow(&spec)).expect_err("feature 2 of 1");
        assert!(err.message.contains("tree 0 splits on feature 2"), "{err}");
    }

    /// Each hostile plan line is refused, naming its line: a feature the
    /// workflow does not list (in a `defer` and in a `region` line), a
    /// bound that is not a number, a region line with no feature, and a
    /// box inside which the file's own forest can reach its threshold. So
    /// is each count no text can back (blocking rules, predicates,
    /// features, rules, conditions), before anything is allocated for it.
    #[test]
    fn hostile_plan_lines_are_refused_with_their_line() {
        let spec = spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "name".into(),
            r_attr: "name".into(),
        });
        let text = save_workflow(&spec);
        let matcher = text.lines().position(|l| l == "matcher forest").unwrap();
        let name = &spec.features[0].name;
        let hostile = [
            (
                vec!["defer\tno such feature".to_owned()],
                0,
                "`no such feature`",
            ),
            (
                vec!["region 0.5\tno such feature".to_owned()],
                0,
                "`no such feature`",
            ),
            (
                vec![format!("region abc\t{name}")],
                0,
                "bad region bound `abc`",
            ),
            (
                vec!["region 0.5".to_owned()],
                0,
                "needs a bound and a feature",
            ),
            // Unbounded on one feature: the forest's own maximum, which
            // clears 0.5. The box is named by its first line.
            (
                vec![format!("defer\t{name}"), format!("region inf\t{name}")],
                1,
                "not certain-No",
            ),
            (vec!["region".to_owned()], 0, "not certain-No"),
        ];
        for (plan_lines, at, why) in hostile {
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            lines.splice(matcher..matcher, plan_lines.iter().cloned());
            let err = load_workflow(&(lines.join("\n") + "\n")).expect_err(why);
            assert_eq!(err.line, matcher + at + 1, "{plan_lines:?}: {err}");
            assert!(err.message.contains(why), "{plan_lines:?}: {err}");
        }

        let text = save_workflow(&spec_with(BlockerSpec::Rules(vec![BlockingRule {
            predicates: vec![Predicate {
                l_attr: "name".into(),
                r_attr: "name".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: 0.31,
            }],
        }])));
        for (prefix, hostile) in [
            ("blocker rules ", "blocker rules 100000000000"),
            ("brule ", "brule 100000000000"),
            ("features ", "features 100000000000"),
            ("rules ", "rules 100000000000"),
            ("rule reject ", "rule reject 100000000000\tweak name guard"),
        ] {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = lines.iter().position(|l| l.starts_with(prefix)).unwrap();
            lines[at] = hostile;
            let err = load_workflow(&(lines.join("\n") + "\n")).expect_err(hostile);
            assert_eq!(err.line, at + 1, "{hostile}: {err}");
            assert!(err.message.contains("lines follow"), "{hostile}: {err}");
        }
    }

    /// A plan's mask and bounds read back to the same bits; a box that
    /// constrains no feature is a bare `region` line.
    #[test]
    fn plan_lines_round_trip_bit_for_bit() {
        let mut spec = spec_with(BlockerSpec::AttrEquivalence {
            l_attr: "name".into(),
            r_attr: "name".into(),
        });
        // Every leaf is below 1, so any box is certain-No at threshold 1.
        spec.threshold = 1.0;
        let bounds = [0.1 + 0.2, 5e-324, -0.0, f64::MAX, f64::INFINITY, f64::NAN];
        for region in [
            None,
            Some(Vec::new()),
            Some(
                bounds
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| (1 - i % 2, u))
                    .collect(),
            ),
        ] {
            for deferred in [Vec::new(), vec![false, true]] {
                spec.plan = DecisionPlan {
                    deferred: deferred.clone(),
                    region: region.clone(),
                };
                let back = roundtrip(&spec).plan;
                assert_eq!(back.deferred, deferred);
                let bits = |r: &Option<Vec<(usize, f64)>>| {
                    r.as_ref()
                        .map(|d| d.iter().map(|&(j, u)| (j, u.to_bits())).collect::<Vec<_>>())
                };
                assert_eq!(bits(&back.region), bits(&region));
            }
        }
    }

    /// A learner that keeps a copy of the last forest it fitted: the one
    /// the development stage chose.
    struct KeepForest(
        RandomForestLearner,
        std::sync::Mutex<Option<RandomForestClassifier>>,
    );

    impl magellan_ml::Learner for KeepForest {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn fit(&self, data: &Dataset) -> Box<dyn magellan_ml::Classifier> {
            let forest = self.0.fit_forest(data);
            *self.1.lock().unwrap() = Some(forest.clone());
            Box::new(forest)
        }

        fn ensemble_size(&self) -> usize {
            self.0.n_trees
        }
    }

    /// A development-stage workflow saved and loaded again runs exactly as
    /// the one in memory — the same matches, and the same pairs decided in
    /// the region, trees walked and features demanded — and the file with
    /// its plan lines removed gives the same matches with no pair decided
    /// in a region.
    #[test]
    fn a_development_stage_workflow_round_trips_with_its_plan() {
        use crate::exec::ProductionExecutor;
        use crate::labeling::OracleLabeler;
        use crate::pipeline::{run_development_stage, DevConfig};
        use magellan_block::OverlapBlocker;
        use magellan_datagen::domains::persons;
        use magellan_datagen::{DirtModel, ScenarioConfig};
        use magellan_features::generate_features;

        let s = persons(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            seed: 31,
        });
        let (a, b) = (&s.table_a, &s.table_b);
        let features = generate_features(a, b, &["id"]).unwrap();
        let learner = KeepForest(
            RandomForestLearner {
                n_trees: 12,
                ..Default::default()
            },
            Default::default(),
        );
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let cfg = DevConfig {
            sample_size: 300,
            ..Default::default()
        };
        let (wf, _) = run_development_stage(
            a,
            b,
            vec![Box::new(OverlapBlocker::words("name", 1))],
            features,
            &[&learner],
            &mut labeler,
            &cfg,
        )
        .unwrap();
        assert!(
            wf.plan.region.is_some(),
            "the stage found no box: {:?}",
            wf.plan
        );
        let spec = WorkflowSpec {
            blocker: BlockerSpec::Overlap {
                l_attr: "name".into(),
                r_attr: "name".into(),
                overlap_size: 1,
                qgram: None,
            },
            features: wf.features.clone(),
            forest: learner.1.lock().unwrap().take().unwrap(),
            rule_layer: RuleLayer::empty(),
            threshold: wf.threshold,
            plan: wf.plan.clone(),
        };
        let text = save_workflow(&spec);
        let loaded = load_workflow(&text).unwrap();
        assert_eq!(loaded.plan, wf.plan);

        let exec = ProductionExecutor::new(2);
        let counts = |wf: &EmWorkflow| {
            let rep = exec.run(wf, a, b).unwrap();
            let count = |what: &str| rep.obs.counter(&format!("magellan_core_{what}_total"));
            let demand = ["region_decided", "trees_walked", "features_demanded"].map(count);
            (rep.matches, demand)
        };
        let (matches, demand) = counts(&wf);
        assert!(demand[0] > 0, "no pair decided in the region: {demand:?}");
        assert_eq!(counts(&loaded.build()), (matches.clone(), demand));

        let bare: String = text
            .lines()
            .filter(|l| !l.starts_with("defer\t") && !l.starts_with("region"))
            .map(|l| format!("{l}\n"))
            .collect();
        let old = load_workflow(&bare).unwrap();
        assert_eq!(old.plan, DecisionPlan::default());
        let (old_matches, old_demand) = counts(&old.build());
        assert_eq!(old_matches, matches);
        assert_eq!(old_demand[0], 0);
    }
}
