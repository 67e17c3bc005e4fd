//! The end-to-end Falcon workflow (Fig. 3 of the paper).
//!
//! Its last step is a production run. Once the matching forest is learned
//! on a pool drawn from the candidate set C, the run captures what it
//! found as an [`EmWorkflow`] — the blocker that produced C, the matching
//! features, the forest's vote layout at α — and hands it with C to the
//! production executor's matching pass
//! ([`ProductionExecutor::match_blocked`]). The pass decides each pair
//! lazily, so no candidate outside the pool has its full feature row
//! computed, and the report returns the workflow.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;

use magellan_block::{joinable, Blocker, CandidateSet, OverlapBlocker, RuleBasedBlocker};
use magellan_core::exec::{DecisionPlan, ProductionExecutor};
use magellan_core::labeling::Labeler;
use magellan_core::rules::RuleLayer;
use magellan_core::sample::{proxy, proxy_keys, stratify};
use magellan_core::EmWorkflow;
use magellan_features::{
    extract_with_prepared, generate_features, Feature, FeatureMatrix, PreparedPair,
};
use magellan_par::ParConfig;
use magellan_simjoin::{join_tokenized_topk, SetSimMeasure, Side, TokenizedCollection};
use magellan_table::{ColView, Dtype, Table, ValueRef};
use magellan_textsim::tokenize::AlphanumericTokenizer;
use magellan_textsim::TokenInterner;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::active::{active_learn, ActiveLearnConfig};
use crate::rules::{extract_blocking_rules, to_blocking_rule, ExtractedRule};

/// Falcon knobs.
#[derive(Debug, Clone)]
pub struct FalconConfig {
    /// Size of the initial pair sample `S` (Fig. 3 step 1).
    pub sample_size: usize,
    /// Active-learning config for the blocking stage (step 2).
    pub blocking_al: ActiveLearnConfig,
    /// Active-learning config for the matching stage (step 5).
    pub matching_al: ActiveLearnConfig,
    /// Vote-fraction threshold α: a pair matches when ≥ α·n trees agree.
    pub alpha: f64,
    /// Minimum precision for a blocking rule to be retained (step 3).
    pub min_rule_precision: f64,
    /// Maximum blocking rules retained.
    pub max_rules: usize,
    /// Fresh user questions spent verifying each extracted rule's
    /// precision (Fig. 3 step 3: "Falcon enlists the lay user to evaluate
    /// the extracted blocking rules"). Smurf skips this entirely.
    pub rule_verify_questions: usize,
    /// Cap on the matching-stage active-learning pool, drawn as
    /// [`biased_pool`] draws; doubled above 100 000 candidates, where the
    /// rounds of `matching_al` also grow to `2 * max_rounds + 10`. Only the
    /// pool's pairs are extracted. Prediction still covers the whole
    /// candidate set, lazily: the executor computes a pair's features only
    /// as the forest's trees ask for them.
    pub max_matching_pool: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FalconConfig {
    fn default() -> Self {
        FalconConfig {
            sample_size: 600,
            blocking_al: ActiveLearnConfig::default(),
            matching_al: ActiveLearnConfig {
                max_rounds: 15,
                ..Default::default()
            },
            alpha: 0.5,
            min_rule_precision: 0.95,
            max_rules: 4,
            rule_verify_questions: 15,
            max_matching_pool: 3000,
            seed: 7,
        }
    }
}

/// What Falcon did and found. The default is the report of a task with
/// nothing to sample: no question, no rule, no candidate, no match, no
/// workflow.
#[derive(Default)]
pub struct FalconReport {
    /// Questions asked in the blocking stage.
    pub questions_blocking: usize,
    /// Questions asked in the matching stage.
    pub questions_matching: usize,
    /// Pretty-printed retained blocking rules (Fig. 4 style).
    pub rules: Vec<String>,
    /// How many retained rules were join-executable.
    pub n_rules_executable: usize,
    /// Whether the fallback overlap blocker had to be used.
    pub used_fallback_blocker: bool,
    /// Candidate pairs after blocking (|C|).
    pub n_candidates: usize,
    /// Predicted matches.
    pub matches: CandidateSet,
    /// The captured workflow: the blocker that produced the candidate set,
    /// the matching features, the matching forest's vote layout at α, no
    /// match rules and the empty decision plan. Run on the same tables,
    /// [`ProductionExecutor::run`] returns `n_candidates` candidates and
    /// `matches`. `None` when the run learned no matcher: the sample or
    /// the candidate set was empty.
    pub workflow: Option<EmWorkflow>,
}

impl FalconReport {
    /// Total labeling questions (Table 2's "Questions" column).
    pub fn total_questions(&self) -> usize {
        self.questions_blocking + self.questions_matching
    }
}

/// Fig. 3 step 1: sample pairs — half *plausible* (the `n / 2` most
/// similar pairs, by word Jaccard over every non-key attribute, among those
/// at 0.2 or above — so the sample contains real matches at low match
/// density; ties by row ids) and half uniform random. With an empty table
/// there is nothing to draw from and the sample is empty.
pub fn sample_pairs(
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    n: usize,
    seed: u64,
) -> Vec<(u32, u32)> {
    let coll = sample_collection(a, b, a_key, b_key);
    let (plausible, _) =
        join_tokenized_topk(&coll, SetSimMeasure::Jaccard(0.2), n / 2, |_, _| true);
    let mut pairs: Vec<(u32, u32)> = plausible.iter().map(|p| (p.l as u32, p.r as u32)).collect();
    if a.is_empty() || b.is_empty() {
        return pairs;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<(u32, u32)> = pairs.iter().copied().collect();
    let mut guard = 0;
    while pairs.len() < n && guard < 20 * n {
        guard += 1;
        let p = (
            rng.gen_range(0..a.nrows()) as u32,
            rng.gen_range(0..b.nrows()) as u32,
        );
        if seen.insert(p) {
            pairs.push(p);
        }
    }
    pairs
}

/// The word sets [`sample_pairs`] joins: each record's non-key cells
/// tokenized alphanumerically straight into its set, nulls skipped. The
/// tokenizer never emits a token across a space, so this is
/// [`TokenizedCollection::build`] over the rows as
/// [`magellan_block::debugger::concat_columns`] formats them, without
/// formatting them.
fn sample_collection(a: &Table, b: &Table, a_key: &str, b_key: &str) -> TokenizedCollection {
    fn non_key<'t>(t: &'t Table, key: &str) -> Vec<ColView<'t>> {
        let fields = t.schema().fields();
        (0..fields.len())
            .filter(|&i| fields[i].name != key)
            .map(|i| t.col_view(i))
            .collect()
    }
    let cols = [non_key(a, a_key), non_key(b, b_key)];
    let mut text = String::new();
    TokenizedCollection::build_from_cells(
        [a.nrows(), b.nrows()],
        |side, r, cell| {
            for col in &cols[usize::from(side == Side::Right)] {
                match col.get(r) {
                    ValueRef::Null => {}
                    ValueRef::Str(s) => cell(s),
                    v => {
                        text.clear();
                        write!(text, "{v}").expect("writing to a String cannot fail");
                        cell(&text);
                    }
                }
            }
        },
        &AlphanumericTokenizer::as_set(),
        &mut TokenInterner::new(),
    )
}

/// Bound an active-learning pool to `cap` rows: half the slots go to the
/// highest-proxy (most plausibly matching) pairs, half to a uniform random
/// sample ([`stratify`] over [`proxy`]). A uniform-only subsample of a
/// large candidate set at EM's match densities would hand the learner a
/// pool with almost no positives. Falcon draws the same pool without the
/// full matrix (`FalconRun::matching_pool`); this is its reference.
pub fn biased_pool(matrix: &FeatureMatrix, cap: usize, seed: u64) -> FeatureMatrix {
    let keys: Vec<f64> = matrix
        .rows
        .iter()
        .map(|r| proxy(r.iter().copied()))
        .collect();
    matrix.subset(&stratify(&keys, cap, seed))
}

/// Feature kinds whose drop-direction rules execute as joins.
pub fn blocking_features(
    a: &Table,
    b: &Table,
    exclude: &[&str],
) -> magellan_table::Result<Vec<Feature>> {
    Ok(generate_features(a, b, exclude)?
        .into_iter()
        .filter(|f| joinable(f.kind))
        .collect())
}

/// The Falcon pipeline (Fig. 3) that [`run_falcon`] and
/// [`crate::smurf::run_smurf`] share. Step 1 opens a run, and steps 4–6
/// run on it with the blocker each builds from its rules (and from
/// [`FalconRun::overlap_blocker`]). The two differ only in how they learn
/// blocking rules from the sample S in between.
pub(crate) struct FalconRun<'t> {
    a: &'t Table,
    b: &'t Table,
    keys: [&'t str; 2],
    /// One record-preparation cache spans both stages and the production
    /// pass: the sample matrix, the pool's matrix and the matching pass
    /// share most (attribute, tokenizer) combinations, so records in all
    /// of them are normalized, tokenized and interned once.
    prepared: PreparedPair<'t>,
    /// Every feature the tables' non-key attributes generate: the matching
    /// stage's features.
    features: Vec<Feature>,
    /// The join-executable ones, which S is extracted over.
    pub(crate) bfeatures: Vec<Feature>,
    /// S's blocking-feature matrix.
    pub(crate) sample: FeatureMatrix,
}

impl<'t> FalconRun<'t> {
    /// Step 1: sample S and extract its blocking features. `None` when S
    /// is empty (an empty table, or a zero sample size): there is nothing
    /// to learn from, and the run's report is [`FalconReport::default`].
    pub(crate) fn sample(
        a: &'t Table,
        b: &'t Table,
        a_key: &'t str,
        b_key: &'t str,
        cfg: &FalconConfig,
    ) -> magellan_table::Result<Option<Self>> {
        let _span = magellan_obs::span("falcon_sample", 0);
        let mut prepared = PreparedPair::new(a, b);
        let pairs = sample_pairs(a, b, a_key, b_key, cfg.sample_size, cfg.seed);
        let features = generate_features(a, b, &[a_key, b_key])?;
        let bfeatures: Vec<Feature> = features
            .iter()
            .filter(|f| joinable(f.kind))
            .cloned()
            .collect();
        let (sample, _) =
            extract_with_prepared(&mut prepared, &pairs, &bfeatures, &ParConfig::serial())?;
        Ok((!sample.is_empty()).then_some(FalconRun {
            a,
            b,
            keys: [a_key, b_key],
            prepared,
            features,
            bfeatures,
            sample,
        }))
    }

    /// A word-overlap blocker needing `overlap` shared tokens on A's first
    /// text attribute that is not its key (the key when there is none):
    /// Falcon's fallback when no rule executes, Smurf's recall guard.
    pub(crate) fn overlap_blocker(&self, overlap: usize) -> OverlapBlocker {
        let fields = self.a.schema().fields();
        let attr = fields
            .iter()
            .find(|f| f.name != self.keys[0] && f.dtype == Dtype::Str)
            .map_or(self.keys[0], |f| f.name.as_str());
        OverlapBlocker::words(attr, overlap)
    }

    /// Steps 4–6: block with `blocker` into the candidate set C, draw and
    /// extract an active-learning pool of C ([`FalconRun::matching_pool`]),
    /// active-learn a matching forest on it, and decide all of C through
    /// the production executor's matching pass at α, on one worker, over
    /// the run's prepared records. Returns the matching stage's report:
    /// `questions_matching`, `n_candidates`, `matches` and `workflow`.
    pub(crate) fn match_candidates(
        &mut self,
        blocker: Box<dyn Blocker>,
        labeler: &mut dyn Labeler,
        cfg: &FalconConfig,
    ) -> magellan_table::Result<FalconReport> {
        let (a, b) = (self.a, self.b);
        let candidates = {
            let _span = magellan_obs::span("falcon_block", 0);
            blocker.block(a, b)?
        };
        // Very large candidate sets dilute the match density so far that
        // the default label budget cannot control the false-positive rate
        // at prediction time; scale the budget and pool with |C| (Table 2's
        // bigger tasks spend up to 1200 questions for the same reason).
        let mut matching_al = cfg.matching_al;
        let mut pool_cap = cfg.max_matching_pool;
        if candidates.len() > 100_000 {
            matching_al.max_rounds = matching_al.max_rounds * 2 + 10;
            pool_cap *= 2;
        }
        let features = self.features.clone();
        let pool = {
            let _span = magellan_obs::span("falcon_extract", 0);
            self.matching_pool(&features, &candidates, pool_cap, cfg.seed ^ 0xC0FFEE)?
        };
        if pool.is_empty() {
            return Ok(FalconReport::default());
        }

        let q0 = labeler.questions_asked();
        let outcome = {
            let _span = magellan_obs::span("falcon_al_matching", 0);
            active_learn(
                &pool,
                |i| {
                    let (ra, rb) = pool.pairs[i];
                    labeler.label(a, ra as usize, b, rb as usize).as_bool()
                },
                &matching_al,
            )
        };
        let questions_matching = labeler.questions_asked() - q0;

        let workflow = EmWorkflow {
            blocker,
            features,
            matcher: Box::new(outcome.forest.vote_layout().clone()),
            rule_layer: RuleLayer::empty(),
            threshold: cfg.alpha,
            plan: DecisionPlan::default(),
        };
        let matches = {
            let _span = magellan_obs::span("falcon_predict", 0);
            ProductionExecutor::new(1)
                .match_blocked(&workflow, &mut self.prepared, &candidates)
                .expect("the matching features plan on these tables, and the empty plan is valid")
        };
        Ok(FalconReport {
            questions_matching,
            n_candidates: candidates.len(),
            matches,
            workflow: Some(workflow),
            ..FalconReport::default()
        })
    }

    /// Step 5's pool: the pairs of `candidates` that [`biased_pool`] keeps
    /// of C's full matrix at `cap` and `seed`, with their rows over
    /// `features`. The draw's keys are read through the executor's scorer
    /// ([`proxy_keys`], one key per pair and no row), and only when C holds
    /// more than `cap` pairs; only the pool's rows are extracted.
    fn matching_pool(
        &mut self,
        features: &[Feature],
        candidates: &CandidateSet,
        cap: usize,
        seed: u64,
    ) -> magellan_table::Result<FeatureMatrix> {
        let pairs = candidates.pairs();
        let pool: Vec<(u32, u32)> = if pairs.len() <= cap {
            pairs.to_vec()
        } else {
            let plan = self.prepared.plan(features)?;
            self.prepared.prepare_for_pairs(&plan, pairs);
            let keys = proxy_keys(&self.prepared, &plan, pairs, &ParConfig::serial());
            stratify(&keys, cap, seed)
                .iter()
                .map(|&i| pairs[i])
                .collect()
        };
        Ok(extract_with_prepared(&mut self.prepared, &pool, features, &ParConfig::serial())?.0)
    }
}

/// Run Falcon end to end (Fig. 3): sample → active-learn forest → extract
/// + verify blocking rules → execute → active-learn matcher → predict at α.
///
/// Under a recorder each step is one span: `falcon_sample`,
/// `falcon_al_blocking`, `falcon_rule_verify`, `falcon_block`,
/// `falcon_extract` (the pool's draw and rows), `falcon_al_matching` and
/// `falcon_predict` (the last two only when blocking leaves a candidate).
/// `falcon_predict` wraps the production executor's `prepare` and `score`
/// spans. With an empty table there is no sample S: the run stops after
/// `falcon_sample` with an empty report.
pub fn run_falcon(
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    labeler: &mut dyn Labeler,
    cfg: &FalconConfig,
) -> magellan_table::Result<FalconReport> {
    // ---- Blocking stage (Fig. 3a) ----
    let Some(mut run) = FalconRun::sample(a, b, a_key, b_key, cfg)? else {
        return Ok(FalconReport::default());
    };
    let s_matrix = &run.sample;
    let q0 = labeler.questions_asked();
    let outcome = {
        let _span = magellan_obs::span("falcon_al_blocking", 0);
        active_learn(
            s_matrix,
            |i| {
                let (ra, rb) = s_matrix.pairs[i];
                labeler.label(a, ra as usize, b, rb as usize).as_bool()
            },
            &cfg.blocking_al,
        )
    };

    // Step 3: extract rules, then the lay user evaluates each candidate
    // rule on fresh pairs the rule would drop. A rule that drops even one
    // labeled match is rejected — this is where Falcon spends extra
    // questions that Smurf saves.
    let span = magellan_obs::span("falcon_rule_verify", 0);
    let (kept, _) = extract_blocking_rules(
        &outcome.forest,
        s_matrix,
        &outcome.labeled,
        &run.bfeatures,
        cfg.min_rule_precision,
        // Verify a wider candidate slate than will be kept: the user
        // evaluates each candidate rule (the expensive part), then the
        // best survivors are retained.
        cfg.max_rules * 4,
    );
    let known_negative: HashSet<usize> = outcome
        .labeled
        .iter()
        .filter_map(|&(i, y)| (!y).then_some(i))
        .collect();
    let mut verify_cache: HashMap<usize, bool> = outcome.labeled.iter().copied().collect();
    let mut verified: Vec<ExtractedRule> = kept
        .into_iter()
        .filter(|rule| {
            let (mut dropped_matches, mut asked) = (0, 0);
            // A second dropped match condemns the rule; a single one may
            // be annotator noise (crowd answers flip a few percent of the
            // time), which must not veto a good rule.
            for i in 0..s_matrix.len() {
                if asked >= cfg.rule_verify_questions || dropped_matches >= 2 {
                    break;
                }
                // A known negative adds no information here.
                if known_negative.contains(&i) || !rule.fires(&s_matrix.rows[i]) {
                    continue;
                }
                let y = *verify_cache.entry(i).or_insert_with(|| {
                    let (ra, rb) = s_matrix.pairs[i];
                    labeler.label(a, ra as usize, b, rb as usize).as_bool()
                });
                asked += 1;
                dropped_matches += usize::from(y);
            }
            dropped_matches < 2
        })
        .collect();
    verified.truncate(cfg.max_rules);
    drop(span);
    let questions_blocking = labeler.questions_asked() - q0;
    let rules: Vec<String> = verified.iter().map(|r| r.pretty(&s_matrix.names)).collect();
    let blocking_rules: Vec<magellan_block::BlockingRule> = verified
        .iter()
        .filter_map(|r| to_blocking_rule(r, &run.bfeatures))
        .collect();
    let n_rules_executable = blocking_rules.len();

    // Step 4 executes the rules (or falls back when none are executable);
    // then the matching stage (Fig. 3b).
    let used_fallback_blocker = blocking_rules.is_empty();
    let blocker: Box<dyn Blocker> = if used_fallback_blocker {
        Box::new(run.overlap_blocker(1))
    } else {
        Box::new(RuleBasedBlocker::new(blocking_rules))
    };
    Ok(FalconReport {
        questions_blocking,
        rules,
        n_rules_executable,
        used_fallback_blocker,
        ..run.match_candidates(blocker, labeler, cfg)?
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use magellan_core::evaluate::evaluate_matches;
    use magellan_core::labeling::OracleLabeler;
    use magellan_datagen::domains::{persons, products};
    use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
    use magellan_ml::Metrics;
    use magellan_table::Value;

    /// [`run_falcon`] or [`crate::smurf::run_smurf`].
    pub(crate) type Run = fn(
        &Table,
        &Table,
        &str,
        &str,
        &mut dyn Labeler,
        &FalconConfig,
    ) -> magellan_table::Result<FalconReport>;

    /// A lightly dirty `size` × `size` scenario of `domain`.
    pub(crate) fn scenario(
        domain: fn(&ScenarioConfig) -> EmScenario,
        size: usize,
        n_matches: usize,
        seed: u64,
    ) -> EmScenario {
        domain(&ScenarioConfig {
            size_a: size,
            size_b: size,
            n_matches,
            dirt: DirtModel::light(),
            seed,
        })
    }

    /// `f` over `s` with a perfect user, and the quality of its matches.
    pub(crate) fn run(f: Run, s: &EmScenario, cfg: &FalconConfig) -> (FalconReport, Metrics) {
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let (a, b) = (&s.table_a, &s.table_b);
        let report = f(a, b, "id", "id", &mut labeler, cfg).unwrap();
        let m = evaluate_matches(&report.matches, a, b, "id", "id", &s.gold).unwrap();
        (report, m)
    }

    #[test]
    fn falcon_matches_persons_with_high_accuracy_and_few_questions() {
        let s = scenario(persons, 400, 130, 51);
        let (report, m) = run(run_falcon, &s, &FalconConfig::default());
        assert!(report.n_candidates > 0);
        assert!(
            report.total_questions() <= 1200,
            "question budget blown: {}",
            report.total_questions()
        );
        assert!(m.precision() > 0.8, "{m}");
        assert!(m.recall() > 0.7, "{m}");
    }

    #[test]
    fn blocking_rules_shrink_the_cross_product() {
        let s = scenario(products, 300, 100, 52);
        let (report, _) = run(run_falcon, &s, &FalconConfig::default());
        let cross = s.table_a.nrows() * s.table_b.nrows();
        assert!(
            report.n_candidates * 4 < cross,
            "blocking barely reduced: {} of {cross}",
            report.n_candidates
        );
        assert!(!report.rules.is_empty() || report.used_fallback_blocker);
        for r in &report.rules {
            assert!(r.ends_with("-> No"), "{r}");
        }
    }

    #[test]
    fn alpha_one_is_stricter_than_alpha_half() {
        let s = scenario(persons, 200, 70, 53);
        let at = |alpha| {
            let cfg = FalconConfig {
                alpha,
                ..Default::default()
            };
            run(run_falcon, &s, &cfg).0.matches
        };
        let (loose, strict) = (at(0.5), at(1.0));
        assert!(
            strict.len() <= loose.len(),
            "unanimity produced more matches ({} > {})",
            strict.len(),
            loose.len()
        );
    }

    /// The pool Falcon extracts is the pool [`biased_pool`] draws from C's
    /// full matrix, the same pairs with the same row bits, whether C holds
    /// more pairs than the cap or not; the run's store, already holding S's
    /// records, is shared by every draw.
    #[test]
    fn the_pool_is_the_biased_pool_of_the_full_matrix() {
        let s = scenario(persons, 200, 70, 55);
        let (a, b) = (&s.table_a, &s.table_b);
        let cfg = FalconConfig::default();
        let mut run = FalconRun::sample(a, b, "id", "id", &cfg).unwrap().unwrap();
        let candidates = run.overlap_blocker(1).block(a, b).unwrap();
        let features = generate_features(a, b, &["id", "id"]).unwrap();
        let serial = ParConfig::serial();
        let full = extract_with_prepared(
            &mut PreparedPair::new(a, b),
            candidates.pairs(),
            &features,
            &serial,
        )
        .unwrap()
        .0;
        let bits = |m: &FeatureMatrix| -> Vec<Vec<u64>> {
            let row = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect();
            m.rows.iter().map(row).collect()
        };
        let n = candidates.len();
        assert!(n > 100, "{n} candidates");
        let seed = cfg.seed ^ 0xC0FFEE;
        for cap in [n / 10, n - 1, n, n + 7] {
            let want = biased_pool(&full, cap, seed);
            let got = run
                .matching_pool(&features, &candidates, cap, seed)
                .unwrap();
            assert_eq!(got.names, want.names);
            assert_eq!(got.pairs, want.pairs, "cap {cap} of {n}");
            assert_eq!(bits(&got), bits(&want), "cap {cap} of {n}");
        }
    }

    use proptest::prelude::*;

    /// A text cell: null, empty, words with punctuation, or non-ASCII
    /// words (`é`, `ß`, U+212A KELVIN SIGN, U+0130 dotted capital I).
    fn text() -> impl Strategy<Value = Value> {
        proptest::option::weighted(
            0.8,
            prop_oneof![
                1 => Just(String::new()),
                3 => "[a-zA-Z0-9 ,.'/&-]{0,14}",
                2 => "[a-z\u{e9}\u{df}\u{212a}\u{130} ]{1,9}",
            ],
        )
        .prop_map(|t| t.map_or(Value::Null, Value::Str))
    }

    fn nullable<T: Into<Value>>(v: impl Strategy<Value = T>) -> impl Strategy<Value = Value> {
        proptest::option::weighted(0.8, v).prop_map(|v| v.map_or(Value::Null, Into::into))
    }

    /// A float cell: any finite value, or one whose display is unusual.
    fn float() -> impl Strategy<Value = Value> {
        nullable(prop_oneof![
            3 => any::<f64>(),
            1 => Just(-0.0),
            1 => Just(1e21),
            1 => Just(2.5e-7),
            1 => Just(f64::NAN),
            1 => Just(f64::NEG_INFINITY),
        ])
    }

    /// A row of every cell type around the key `id`.
    fn row() -> impl Strategy<Value = Vec<Value>> {
        (
            text(),
            float(),
            nullable(-50i64..50),
            nullable(any::<bool>()),
            text(),
        )
            .prop_map(|(name, price, qty, flag, note)| vec![name, price, qty, flag, note])
    }

    /// A table keyed `key` at column `key_at`, holding `rows`.
    fn table(key: &str, key_at: usize, rows: Vec<Vec<Value>>) -> Table {
        let mut cols = vec![
            ("name", Dtype::Str),
            ("price", Dtype::Float),
            ("qty", Dtype::Int),
            ("flag", Dtype::Bool),
            ("note", Dtype::Str),
        ];
        cols.insert(key_at, (key, Dtype::Int));
        let rows = rows
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.insert(key_at, Value::Int(i as i64));
                r
            })
            .collect();
        Table::from_rows(key, &cols, rows).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Step 1's word sets, built from the cells, equal the build over
        /// each row's non-key cells formatted and joined by spaces
        /// (`concat_columns`, the reference): the same records, document
        /// frequencies and rarest-first ids, on nulls, empty strings,
        /// numbers, booleans, punctuation and non-ASCII text, whichever
        /// column the key is.
        #[test]
        fn the_sample_collection_is_built_from_the_cells(
            rows_a in proptest::collection::vec(row(), 0..14),
            rows_b in proptest::collection::vec(row(), 0..14),
            key_at in 0usize..6,
        ) {
            use magellan_block::debugger::concat_columns;
            let a = table("id", 0, rows_a);
            let b = table("rid", key_at, rows_b);
            let got = sample_collection(&a, &b, "id", "rid");
            let b_cols: Vec<usize> = (0..6).filter(|&i| i != key_at).collect();
            let want = TokenizedCollection::build(
                &concat_columns(&a, &[1, 2, 3, 4, 5]),
                &concat_columns(&b, &b_cols),
                &AlphanumericTokenizer::as_set(),
            );
            prop_assert_eq!(&got.left, &want.left);
            prop_assert_eq!(&got.right, &want.right);
            prop_assert_eq!(got.vocab_size, want.vocab_size);
        }
    }

    /// Under a pinned recorder each step of a Falcon run is one span, a
    /// Smurf run opens neither the AL-blocking nor the rule-verify span,
    /// and the recorder changes no match.
    #[test]
    fn each_step_is_one_span() {
        let s = scenario(persons, 200, 70, 54);
        let cfg = FalconConfig::default();
        for (f, asks_in_blocking) in [(run_falcon as Run, true), (crate::smurf::run_smurf, false)] {
            let obs = magellan_obs::Obs::pinned();
            let traced = {
                let _installed = obs.install();
                run(f, &s, &cfg).0
            };
            assert_eq!(traced.matches, run(f, &s, &cfg).0.matches);
            let snap = obs.snapshot();
            for (step, labelled) in [
                ("falcon_sample", false),
                ("falcon_al_blocking", true),
                ("falcon_rule_verify", true),
                ("falcon_block", false),
                ("falcon_extract", false),
                ("falcon_al_matching", false),
                ("falcon_predict", false),
            ] {
                let want = usize::from(asks_in_blocking || !labelled);
                assert_eq!(snap.spans_named(step).len(), want, "{step}");
            }
        }
    }
}
