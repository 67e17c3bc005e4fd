//! Rule-based blocking.
//!
//! A blocking rule is a conjunction of *low-similarity* predicates that
//! **drops** a pair when every predicate fires — exactly the shape Falcon
//! extracts from random-forest root→"No"-leaf paths (Fig. 4 of the paper):
//!
//! ```text
//! jaccard(3gram(A.isbn), 3gram(B.isbn)) <= 0.55 -> No
//! ```
//!
//! A pair *survives* a rule by violating at least one predicate, and
//! survives blocking by surviving **every** rule. Because the complement
//! of each predicate (`sim > t`) is a similarity join, a rule's survivor
//! set is a union of sim-joins and the overall candidate set an
//! intersection across rules — so rule blocking scales without touching
//! the cross product.

use std::collections::HashMap;

use magellan_simjoin::{join_tokenized, SetSimMeasure, TokenizedCollection};
use magellan_table::Table;
use magellan_textsim::tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};
use magellan_textsim::{intern, setsim, TokenInterner};

use crate::blockers::Blocker;
use crate::candidate::CandidateSet;

/// Tokenization spec for a rule feature (kept as plain data so rules are
/// cloneable and printable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokSpec {
    /// Lowercased alphanumeric word tokens.
    Word,
    /// Padded character q-grams (set semantics).
    Qgram(usize),
}

impl TokSpec {
    /// Materialize the tokenizer as a boxed trait object (for callers
    /// that need dynamic dispatch, e.g. the sim-join builder).
    pub fn tokenizer(&self) -> Box<dyn Tokenizer> {
        match self {
            TokSpec::Word => Box::new(AlphanumericTokenizer::as_set()),
            TokSpec::Qgram(q) => Box::new(QgramTokenizer::as_set(*q)),
        }
    }

    /// Set-semantics tokenization via a stack-constructed concrete
    /// tokenizer — no `Box<dyn Tokenizer>` allocation, so this is safe to
    /// call inside pair loops.
    pub fn tokenize_set(&self, s: &str) -> Vec<String> {
        match self {
            TokSpec::Word => AlphanumericTokenizer::as_set().tokenize(s),
            TokSpec::Qgram(q) => QgramTokenizer::as_set(*q).tokenize(s),
        }
    }

    /// [`TokSpec::tokenize_set`] straight into sorted deduplicated token
    /// ids (no `String` per token).
    fn intern_set(&self, interner: &mut TokenInterner, s: &str) -> Vec<u32> {
        match self {
            TokSpec::Word => interner.intern_tokens(&AlphanumericTokenizer::as_set(), s),
            TokSpec::Qgram(q) => interner.intern_tokens(&QgramTokenizer::as_set(*q), s),
        }
    }

    /// Display name used in printed rules (`word`, `3gram`).
    pub fn label(&self) -> String {
        match self {
            TokSpec::Word => "word".to_owned(),
            TokSpec::Qgram(q) => format!("{q}gram"),
        }
    }
}

/// The similarity feature a predicate thresholds on. Every variant's
/// complement is executable as a join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimFeature {
    /// Jaccard over the tokenization.
    Jaccard(TokSpec),
    /// Cosine over the tokenization.
    Cosine(TokSpec),
    /// Dice over the tokenization.
    Dice(TokSpec),
    /// Exact string equality (sim ∈ {0, 1}).
    ExactMatch,
}

impl SimFeature {
    /// Compute the similarity for one pair of (possibly missing) values.
    /// Missing values score 0 (a missing attribute cannot demonstrate
    /// similarity, so drop-rules fire on it).
    pub fn similarity(&self, a: Option<&str>, b: Option<&str>) -> f64 {
        let (Some(a), Some(b)) = (a, b) else { return 0.0 };
        match self {
            SimFeature::ExactMatch => f64::from(a.trim().to_lowercase() == b.trim().to_lowercase()),
            SimFeature::Jaccard(t) | SimFeature::Cosine(t) | SimFeature::Dice(t) => {
                // Stack-dispatched tokenization: no per-pair boxing.
                let ta = t.tokenize_set(a);
                let tb = t.tokenize_set(b);
                if ta.is_empty() || tb.is_empty() {
                    return 0.0;
                }
                match self {
                    SimFeature::Jaccard(_) => setsim::jaccard(&ta, &tb),
                    SimFeature::Cosine(_) => setsim::cosine(&ta, &tb),
                    SimFeature::Dice(_) => setsim::dice(&ta, &tb),
                    SimFeature::ExactMatch => unreachable!(),
                }
            }
        }
    }

    /// Display label (`jaccard(3gram(·))`).
    pub fn label(&self) -> String {
        match self {
            SimFeature::Jaccard(t) => format!("jaccard({})", t.label()),
            SimFeature::Cosine(t) => format!("cosine({})", t.label()),
            SimFeature::Dice(t) => format!("dice({})", t.label()),
            SimFeature::ExactMatch => "exact_match".to_owned(),
        }
    }
}

/// One predicate: fires (votes to drop) when
/// `sim(l_attr, r_attr) <= threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// The similarity feature.
    pub feature: SimFeature,
    /// Fires when similarity ≤ this value.
    pub threshold: f64,
}

impl Predicate {
    /// Does the predicate fire (drop-vote) on this value pair?
    pub fn fires(&self, a: Option<&str>, b: Option<&str>) -> bool {
        self.feature.similarity(a, b) <= self.threshold + 1e-12
    }

    /// Render like the paper's Fig. 4 rules.
    pub fn pretty(&self) -> String {
        format!(
            "{}(A.{}, B.{}) <= {:.3}",
            self.feature.label(),
            self.l_attr,
            self.r_attr,
            self.threshold
        )
    }
}

/// A conjunction of predicates; fires (drops the pair) when **all**
/// predicates fire.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingRule {
    /// The conjunction.
    pub predicates: Vec<Predicate>,
}

impl BlockingRule {
    /// Does the rule drop this pair?
    pub fn fires(&self, a: &Table, ra: usize, b: &Table, rb: usize) -> bool {
        self.predicates.iter().all(|p| {
            let va = a
                .value_by_name(ra, &p.l_attr)
                .ok()
                .and_then(|v| v.as_str().map(str::to_owned));
            let vb = b
                .value_by_name(rb, &p.r_attr)
                .ok()
                .and_then(|v| v.as_str().map(str::to_owned));
            p.fires(va.as_deref(), vb.as_deref())
        })
    }

    /// Render like Fig. 4: `p1 AND p2 -> No`.
    pub fn pretty(&self) -> String {
        let parts: Vec<String> = self.predicates.iter().map(Predicate::pretty).collect();
        format!("{} -> No", parts.join(" AND "))
    }
}

/// A set of blocking rules executed as sim-joins.
#[derive(Debug, Clone, Default)]
pub struct RuleBasedBlocker {
    /// The rules; a pair must survive all of them.
    pub rules: Vec<BlockingRule>,
}

impl RuleBasedBlocker {
    /// Blocker from a rule list. At least one rule is required — zero
    /// rules would mean "keep the entire cross product".
    pub fn new(rules: Vec<BlockingRule>) -> Self {
        assert!(!rules.is_empty(), "rule-based blocker needs at least one rule");
        RuleBasedBlocker { rules }
    }

    /// Build each distinct `(l_attr, r_attr, tokenization)` combination's
    /// [`TokenizedCollection`] exactly once, shared by every predicate of
    /// every rule through one [`TokenInterner`]. Before this cache, a rule
    /// set with *k* predicates over the same column pair re-tokenized both
    /// tables *k* times.
    fn build_collections(
        &self,
        a: &Table,
        b: &Table,
    ) -> magellan_table::Result<HashMap<(String, String, TokSpec), TokenizedCollection>> {
        let mut interner = TokenInterner::new();
        let mut collections = HashMap::new();
        for rule in &self.rules {
            for pred in &rule.predicates {
                let (SimFeature::Jaccard(ts)
                | SimFeature::Cosine(ts)
                | SimFeature::Dice(ts)) = pred.feature
                else {
                    continue;
                };
                let key = (pred.l_attr.clone(), pred.r_attr.clone(), ts);
                if collections.contains_key(&key) {
                    continue;
                }
                let la = a.column_strs(&pred.l_attr)?;
                let rb = b.column_strs(&pred.r_attr)?;
                let tok = ts.tokenizer();
                collections.insert(
                    key,
                    TokenizedCollection::build_with_interner(
                        &la,
                        &rb,
                        tok.as_ref(),
                        &mut interner,
                    ),
                );
            }
        }
        Ok(collections)
    }

    /// Survivors of one predicate's *complement* (`sim > threshold`),
    /// computed as a similarity join over the shared prebuilt collections.
    fn violators(
        pred: &Predicate,
        a: &Table,
        b: &Table,
        collections: &HashMap<(String, String, TokSpec), TokenizedCollection>,
    ) -> magellan_table::Result<CandidateSet> {
        match pred.feature {
            SimFeature::ExactMatch => {
                // sim > t for t < 1 means equality; for t >= 1 nothing
                // violates (sim can't exceed 1).
                if pred.threshold >= 1.0 {
                    return Ok(CandidateSet::default());
                }
                let blocker = crate::blockers::AttrEquivalenceBlocker {
                    l_attr: pred.l_attr.clone(),
                    r_attr: pred.r_attr.clone(),
                };
                blocker.block(a, b)
            }
            SimFeature::Jaccard(ts) | SimFeature::Cosine(ts) | SimFeature::Dice(ts) => {
                if pred.threshold >= 1.0 {
                    return Ok(CandidateSet::default());
                }
                let measure = match pred.feature {
                    SimFeature::Jaccard(_) => SetSimMeasure::Jaccard(pred.threshold.max(1e-6)),
                    SimFeature::Cosine(_) => SetSimMeasure::Cosine(pred.threshold.max(1e-6)),
                    SimFeature::Dice(_) => SetSimMeasure::Dice(pred.threshold.max(1e-6)),
                    SimFeature::ExactMatch => unreachable!(),
                };
                let key = (pred.l_attr.clone(), pred.r_attr.clone(), ts);
                let coll = collections
                    .get(&key)
                    .expect("collection prebuilt for every set predicate");
                let joined = join_tokenized(coll, measure);
                // The join returns sim >= threshold; the complement needs
                // the strict sim > threshold.
                Ok(joined
                    .into_iter()
                    .filter(|p| p.sim > pred.threshold + 1e-12)
                    .map(|p| (p.l as u32, p.r as u32))
                    .collect())
            }
        }
    }

    /// Apply the rules to an existing candidate set (exact, pairwise
    /// semantics — identical to evaluating [`BlockingRule::fires`] per
    /// pair, but each referenced record's attribute is tokenized and
    /// interned **once** instead of once per pair it appears in).
    pub fn refine(&self, cands: &CandidateSet, a: &Table, b: &Table) -> CandidateSet {
        let prep = PreparedRuleEval::build(&self.rules, cands, a, b);
        cands
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| {
                !(0..self.rules.len())
                    .any(|i| prep.rule_fires(&self.rules[i], i, ra as usize, rb as usize))
            })
            .collect()
    }

    /// Render all rules.
    pub fn pretty(&self) -> String {
        self.rules
            .iter()
            .map(BlockingRule::pretty)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl Blocker for RuleBasedBlocker {
    fn name(&self) -> String {
        format!("rule_based({} rules)", self.rules.len())
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        assert!(!self.rules.is_empty(), "rule-based blocker needs at least one rule");
        // Tokenize each referenced column pair once, shared across all
        // predicates of all rules.
        let collections = self.build_collections(a, b)?;
        // Survivors = ∩_rules ∪_predicates violators(predicate).
        let mut result: Option<CandidateSet> = None;
        for rule in &self.rules {
            let mut rule_survivors = CandidateSet::default();
            for pred in &rule.predicates {
                rule_survivors =
                    rule_survivors.union(&Self::violators(pred, a, b, &collections)?);
            }
            result = Some(match result {
                None => rule_survivors,
                Some(acc) => acc.intersect(&rule_survivors),
            });
        }
        Ok(result.unwrap_or_default())
    }
}

/// The shape a predicate needs an attribute prepared into for pairwise
/// refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RulePrep {
    /// Trimmed lowercased string (exact-match predicates).
    Lower,
    /// Sorted deduplicated interned id set of the **raw** string's tokens
    /// — [`SimFeature::similarity`] tokenizes the un-normalized value, so
    /// the prepared path must too.
    Set(TokSpec),
}

/// One prepared refinement cell. `None` at the record level means the
/// value was absent or not a string ([`magellan_table::ValueRef::as_str`]
/// returned `None`), which scores 0.0 exactly like the per-pair path.
#[derive(Debug, Clone)]
enum RuleCell {
    Lower(String),
    Ids(Vec<u32>),
}

/// Tokenize-once-per-record state for [`RuleBasedBlocker::refine`]: each
/// distinct `(side, attribute, shape)` combination referenced by any
/// predicate is prepared once per candidate record, and set predicates
/// then evaluate as interned merge intersections
/// ([`magellan_textsim::intern`]) — bit-identical to
/// [`SimFeature::similarity`] on the same values.
struct PreparedRuleEval {
    l_cols: Vec<Vec<Option<RuleCell>>>,
    r_cols: Vec<Vec<Option<RuleCell>>>,
    /// `slots[rule][pred] = (index into l_cols, index into r_cols)`.
    slots: Vec<Vec<(usize, usize)>>,
}

impl PreparedRuleEval {
    fn build(rules: &[BlockingRule], cands: &CandidateSet, a: &Table, b: &Table) -> Self {
        fn shape(f: SimFeature) -> RulePrep {
            match f {
                SimFeature::ExactMatch => RulePrep::Lower,
                SimFeature::Jaccard(t) | SimFeature::Cosine(t) | SimFeature::Dice(t) => {
                    RulePrep::Set(t)
                }
            }
        }
        // Resolve each predicate to a (left slot, right slot) pair,
        // deduplicating (attr, shape) combinations per side.
        let mut l_index: HashMap<(String, RulePrep), usize> = HashMap::new();
        let mut r_index: HashMap<(String, RulePrep), usize> = HashMap::new();
        let mut l_specs: Vec<(String, RulePrep)> = Vec::new();
        let mut r_specs: Vec<(String, RulePrep)> = Vec::new();
        let slots: Vec<Vec<(usize, usize)>> = rules
            .iter()
            .map(|rule| {
                rule.predicates
                    .iter()
                    .map(|p| {
                        let sh = shape(p.feature);
                        let li = *l_index
                            .entry((p.l_attr.clone(), sh))
                            .or_insert_with(|| {
                                l_specs.push((p.l_attr.clone(), sh));
                                l_specs.len() - 1
                            });
                        let ri = *r_index
                            .entry((p.r_attr.clone(), sh))
                            .or_insert_with(|| {
                                r_specs.push((p.r_attr.clone(), sh));
                                r_specs.len() - 1
                            });
                        (li, ri)
                    })
                    .collect()
            })
            .collect();

        // Which records do the candidates reference?
        let mut l_ref = vec![false; a.nrows()];
        let mut r_ref = vec![false; b.nrows()];
        for &(ra, rb) in cands.pairs() {
            l_ref[ra as usize] = true;
            r_ref[rb as usize] = true;
        }

        // One shared interner across both sides and all combinations.
        let mut interner = TokenInterner::new();
        let fill = |table: &Table,
                        referenced: &[bool],
                        specs: &[(String, RulePrep)],
                        interner: &mut TokenInterner|
         -> Vec<Vec<Option<RuleCell>>> {
            specs
                .iter()
                .map(|(attr, sh)| {
                    let mut cells: Vec<Option<RuleCell>> = vec![None; table.nrows()];
                    // Unknown attribute ⇒ every value is absent ⇒ sim 0.0,
                    // exactly like the `value_by_name(..).ok()` per-pair path.
                    let Ok(idx) = table.schema().try_index_of(attr) else {
                        return cells;
                    };
                    for (r, &wanted) in referenced.iter().enumerate() {
                        if !wanted {
                            continue;
                        }
                        let Some(s) = table.value(r, idx).as_str() else {
                            continue;
                        };
                        cells[r] = Some(match sh {
                            RulePrep::Lower => RuleCell::Lower(s.trim().to_lowercase()),
                            RulePrep::Set(ts) => RuleCell::Ids(ts.intern_set(interner, s)),
                        });
                    }
                    cells
                })
                .collect()
        };
        let l_cols = fill(a, &l_ref, &l_specs, &mut interner);
        let r_cols = fill(b, &r_ref, &r_specs, &mut interner);
        PreparedRuleEval {
            l_cols,
            r_cols,
            slots,
        }
    }

    /// Does this rule drop the pair? Mirrors [`BlockingRule::fires`] /
    /// [`Predicate::fires`] exactly (same thresholding epsilon, same
    /// missing-value and empty-tokenization conventions).
    fn rule_fires(&self, rule: &BlockingRule, rule_idx: usize, ra: usize, rb: usize) -> bool {
        rule.predicates.iter().enumerate().all(|(j, p)| {
            let (li, ri) = self.slots[rule_idx][j];
            let sim = match (&self.l_cols[li][ra], &self.r_cols[ri][rb]) {
                (Some(RuleCell::Lower(sa)), Some(RuleCell::Lower(sb))) => f64::from(sa == sb),
                (Some(RuleCell::Ids(ia)), Some(RuleCell::Ids(ib))) => {
                    if ia.is_empty() || ib.is_empty() {
                        0.0
                    } else {
                        match p.feature {
                            SimFeature::Jaccard(_) => intern::jaccard_ids(ia, ib),
                            SimFeature::Cosine(_) => intern::cosine_ids(ia, ib),
                            SimFeature::Dice(_) => intern::dice_ids(ia, ib),
                            SimFeature::ExactMatch => unreachable!(),
                        }
                    }
                }
                // Either side missing / non-string ⇒ 0.0 (drop-rules fire).
                _ => 0.0,
            };
            sim <= p.threshold + 1e-12
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::{Dtype, Value};

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str), ("isbn", Dtype::Str), ("title", Dtype::Str)],
            vec![
                vec!["a0".into(), "978-0262033848".into(), "introduction to algorithms".into()],
                vec!["a1".into(), "978-1491927083".into(), "programming rust".into()],
                vec!["a2".into(), Value::Null, "mystery book".into()],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str), ("isbn", Dtype::Str), ("title", Dtype::Str)],
            vec![
                vec!["b0".into(), "978-0262033848".into(), "intro to algorithms".into()],
                vec!["b1".into(), "978-3161484100".into(), "unrelated tome".into()],
                vec!["b2".into(), "978-1491927083".into(), "programming rust 2nd".into()],
            ],
        )
        .unwrap();
        (a, b)
    }

    fn isbn_rule() -> BlockingRule {
        BlockingRule {
            predicates: vec![Predicate {
                l_attr: "isbn".into(),
                r_attr: "isbn".into(),
                feature: SimFeature::ExactMatch,
                threshold: 0.5,
            }],
        }
    }

    #[test]
    fn exact_match_rule_keeps_only_equal_isbns() {
        let (a, b) = tables();
        let blocker = RuleBasedBlocker::new(vec![isbn_rule()]);
        let c = blocker.block(&a, &b).unwrap();
        assert_eq!(c.pairs(), &[(0, 0), (1, 2)]);
    }

    #[test]
    fn join_execution_equals_pairwise_refinement() {
        let (a, b) = tables();
        let rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "title".into(),
                r_attr: "title".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: 0.3,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let via_join = blocker.block(&a, &b).unwrap();
        // Reference: cross product refined pairwise.
        let all: CandidateSet = (0..a.nrows() as u32)
            .flat_map(|ra| (0..b.nrows() as u32).map(move |rb| (ra, rb)))
            .collect();
        let via_refine = blocker.refine(&all, &a, &b);
        assert_eq!(via_join, via_refine);
        assert!(via_join.contains((1, 2)), "programming rust pair survives");
    }

    #[test]
    fn conjunction_survives_by_violating_any_predicate() {
        let (a, b) = tables();
        // Drop only if BOTH isbn differs AND title jaccard low — i.e. keep
        // anything with equal isbn OR similar title.
        let rule = BlockingRule {
            predicates: vec![
                Predicate {
                    l_attr: "isbn".into(),
                    r_attr: "isbn".into(),
                    feature: SimFeature::ExactMatch,
                    threshold: 0.5,
                },
                Predicate {
                    l_attr: "title".into(),
                    r_attr: "title".into(),
                    feature: SimFeature::Jaccard(TokSpec::Word),
                    threshold: 0.3,
                },
            ],
        };
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let c = blocker.block(&a, &b).unwrap();
        // (0,0): isbn equal -> survives. (1,2): isbn equal AND title similar.
        assert!(c.contains((0, 0)));
        assert!(c.contains((1, 2)));
        // (0,1): different isbn, dissimilar title -> dropped.
        assert!(!c.contains((0, 1)));
    }

    #[test]
    fn multiple_rules_intersect() {
        let (a, b) = tables();
        let title_rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "title".into(),
                r_attr: "title".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: 0.2,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![isbn_rule(), title_rule]);
        let c = blocker.block(&a, &b).unwrap();
        // Must pass both: equal isbn AND title jaccard > 0.2.
        for &(ra, rb) in c.pairs() {
            let ia = a.value_by_name(ra as usize, "isbn").unwrap().display_string();
            let ib = b.value_by_name(rb as usize, "isbn").unwrap().display_string();
            assert_eq!(ia, ib);
        }
        assert!(c.contains((1, 2)));
    }

    #[test]
    fn null_attributes_fire_drop_rules() {
        let (a, b) = tables();
        let blocker = RuleBasedBlocker::new(vec![isbn_rule()]);
        let c = blocker.block(&a, &b).unwrap();
        // a2 has a null isbn: it can never survive an isbn-based rule.
        assert!(c.pairs().iter().all(|&(ra, _)| ra != 2));
    }

    #[test]
    fn pretty_renders_fig4_style() {
        let rule = BlockingRule {
            predicates: vec![
                Predicate {
                    l_attr: "isbn".into(),
                    r_attr: "isbn".into(),
                    feature: SimFeature::ExactMatch,
                    threshold: 0.5,
                },
                Predicate {
                    l_attr: "title".into(),
                    r_attr: "title".into(),
                    feature: SimFeature::Jaccard(TokSpec::Qgram(3)),
                    threshold: 0.31,
                },
            ],
        };
        let s = rule.pretty();
        assert!(s.contains("exact_match(A.isbn, B.isbn) <= 0.500"), "{s}");
        assert!(s.contains("jaccard(3gram)(A.title, B.title) <= 0.310"), "{s}");
        assert!(s.ends_with("-> No"));
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn empty_rule_list_panics() {
        RuleBasedBlocker::new(vec![]);
    }

    /// The interned prepared refine path is exactly the per-pair
    /// [`BlockingRule::fires`] evaluation, including null / non-string
    /// values, unknown attributes, and empty tokenizations.
    #[test]
    fn prepared_refine_matches_per_pair_fires() {
        let (a, b) = tables();
        let rules = vec![
            BlockingRule {
                predicates: vec![
                    Predicate {
                        l_attr: "isbn".into(),
                        r_attr: "isbn".into(),
                        feature: SimFeature::ExactMatch,
                        threshold: 0.5,
                    },
                    Predicate {
                        l_attr: "title".into(),
                        r_attr: "title".into(),
                        feature: SimFeature::Jaccard(TokSpec::Word),
                        threshold: 0.3,
                    },
                ],
            },
            BlockingRule {
                predicates: vec![
                    Predicate {
                        l_attr: "title".into(),
                        r_attr: "title".into(),
                        feature: SimFeature::Cosine(TokSpec::Qgram(3)),
                        threshold: 0.25,
                    },
                    Predicate {
                        // Unknown attribute: always scores 0.0.
                        l_attr: "nope".into(),
                        r_attr: "title".into(),
                        feature: SimFeature::Dice(TokSpec::Word),
                        threshold: 0.9,
                    },
                ],
            },
        ];
        let blocker = RuleBasedBlocker::new(rules);
        let all: CandidateSet = (0..a.nrows() as u32)
            .flat_map(|ra| (0..b.nrows() as u32).map(move |rb| (ra, rb)))
            .collect();
        let prepared = blocker.refine(&all, &a, &b);
        // Reference: direct per-pair rule evaluation.
        let reference: CandidateSet = all
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| {
                !blocker
                    .rules
                    .iter()
                    .any(|rule| rule.fires(&a, ra as usize, &b, rb as usize))
            })
            .collect();
        assert_eq!(prepared, reference);
    }

    /// Several predicates over the same column pair share one tokenized
    /// collection in the join path — output unchanged.
    #[test]
    fn shared_collections_across_predicates_keep_output() {
        let (a, b) = tables();
        // Two rules both thresholding word-jaccard on title (one shared
        // collection) at different cutoffs, plus a qgram predicate.
        let rule = |thr: f64| BlockingRule {
            predicates: vec![Predicate {
                l_attr: "title".into(),
                r_attr: "title".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: thr,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![rule(0.2), rule(0.4)]);
        let c = blocker.block(&a, &b).unwrap();
        // Reference: cross product refined pairwise.
        let all: CandidateSet = (0..a.nrows() as u32)
            .flat_map(|ra| (0..b.nrows() as u32).map(move |rb| (ra, rb)))
            .collect();
        assert_eq!(c, blocker.refine(&all, &a, &b));
    }

    #[test]
    fn threshold_at_one_drops_everything() {
        let (a, b) = tables();
        let rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "isbn".into(),
                r_attr: "isbn".into(),
                feature: SimFeature::ExactMatch,
                threshold: 1.0,
            }],
        };
        let c = RuleBasedBlocker::new(vec![rule]).block(&a, &b).unwrap();
        assert!(c.is_empty());
    }
}
