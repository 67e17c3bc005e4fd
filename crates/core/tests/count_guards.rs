//! Count guards for what the matching pass saves per run of a left record
//! — exact counters on one fixed task, no timing — so that none of it can
//! be undone without a test saying so: the left string becomes an
//! edit-distance pattern and the left id sets are stamped once per *left
//! row*, not per pair; a pair's set measures share one intersection count
//! per slot pair, not one per feature; Monge–Elkan's token pairs are
//! mostly answered by the Jaro–Winkler memo; and a forest asks for the
//! sequence kernels last, so Monge–Elkan runs only on pairs the cheap
//! features leave open; and a pair inside the forest's certain-No region
//! is a No with no tree walked.
//!
//! One worker and one chunk, so the executor's scorer sees the candidate
//! list — sorted by `(l, r)` — whole: every left row is one run. Each run's
//! workflow carries the decision plan (deferral mask and certain-No
//! region) that `DecisionPlan::derive` gives over the run's own
//! candidates. The counts are read where they are published, in the obs
//! registry (`magellan_features_scorer_*_total`).
//!
//! Undone one at a time in `features::prepared`, each saving fails its
//! assertion: rebuilding the pattern (or restamping) whenever asked reads
//! one build per pair; counting the intersection per feature reads three
//! per pair, not two; without the memo 82 % of the token pairs are
//! evaluated (the rest are equal tokens), not 30 %; and a forest that tests
//! features in plain path order compares 3.0 % of the token pairs a
//! matcher reading every row does, not 2.0 %.

use std::collections::HashSet;

use magellan_block::{Blocker, OverlapBlocker};
use magellan_core::exec::{DecisionPlan, ProductionExecutor, ProductionReport};
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_features::{
    extract_feature_matrix, generate_features, Feature, FeatureKind, PreparedPair, Scorer,
};
use magellan_ml::model::ConstantClassifier;
use magellan_ml::{Classifier, Dataset, RandomForestClassifier, RandomForestLearner};
use magellan_table::Table;

/// The guards' fixed task.
fn scenario() -> EmScenario {
    persons(&ScenarioConfig {
        size_a: 400,
        size_b: 400,
        n_matches: 130,
        dirt: DirtModel::light(),
        seed: 1_907,
    })
}

fn blocker() -> OverlapBlocker {
    OverlapBlocker::words("name", 1)
}

/// One worker, one chunk: the executor's report for `matcher` on the task,
/// under the decision plan derived over the run's own candidates.
fn run(s: &EmScenario, features: &[Feature], matcher: Box<dyn Classifier>) -> ProductionReport {
    let (a, b) = (&s.table_a, &s.table_b);
    let candidates = blocker().block(a, b).expect("blocking");
    let mut prepared = PreparedPair::new(a, b);
    let feature_plan = prepared.plan(features).expect("plan");
    prepared.prepare_for_pairs(&feature_plan, candidates.pairs());
    let plan = DecisionPlan::derive(&*matcher, 0.5, &prepared, &feature_plan, candidates.pairs());
    let wf = EmWorkflow {
        blocker: Box::new(blocker()),
        features: features.to_vec(),
        matcher,
        rule_layer: RuleLayer::empty(),
        threshold: 0.5,
        plan,
    };
    ProductionExecutor::new(1)
        .with_chunk_size(usize::MAX)
        .run(&wf, &s.table_a, &s.table_b)
        .expect("run")
}

/// `magellan_features_scorer_{what}_total` of a run.
fn count(rep: &ProductionReport, what: &str) -> u64 {
    rep.obs
        .counter(&format!("magellan_features_scorer_{what}_total"))
}

#[test]
fn a_left_record_is_prepared_once_per_run_and_a_pair_intersects_once_per_slot_pair() {
    // The name's features only: the blocker admits a pair on a shared name
    // token, so no candidate has a null or token-free name, and a
    // classifier on the default `decide` reads the whole row, so every pair
    // computes every feature.
    let s = scenario();
    let features: Vec<Feature> = generate_features(&s.table_a, &s.table_b, &["id"])
        .expect("features")
        .into_iter()
        .filter(|f| f.l_attr == "name")
        .collect();
    let is_set = |f: &Feature| {
        matches!(
            f.kind,
            FeatureKind::Jaccard(_)
                | FeatureKind::Cosine(_)
                | FeatureKind::Dice(_)
                | FeatureKind::OverlapCoeff(_)
        )
    };
    let set_features = features.iter().filter(|f| is_set(f)).count() as u64;
    // jaccard and cosine over words share a slot pair; the 3-grams are the
    // other one.
    let set_slot_pairs = 2;
    assert_eq!(
        set_features, 3,
        "persons' name features changed: {features:?}"
    );
    assert!(features.iter().any(|f| f.kind == FeatureKind::LevSim));
    assert!(features.iter().any(|f| f.kind == FeatureKind::MongeElkanJw));

    let rep = run(&s, &features, Box::new(ConstantClassifier { proba: 1.0 }));
    let pairs = rep.n_candidates as u64;
    let left_rows = rep
        .matches
        .pairs()
        .iter()
        .map(|p| p.0)
        .collect::<HashSet<_>>()
        .len() as u64;
    assert_eq!(
        rep.matches.len() as u64,
        pairs,
        "the constant matcher keeps every candidate"
    );
    assert!(
        pairs > 10 * left_rows,
        "{pairs} pairs over {left_rows} left rows"
    );

    let count = |what: &str| count(&rep, what);
    assert_eq!(
        count("patterns_built"),
        left_rows,
        "one edit-distance pattern per left row ({pairs} pairs)"
    );
    assert_eq!(
        count("sets_stamped"),
        left_rows * set_slot_pairs,
        "one stamping per left row and set slot"
    );
    assert_eq!(
        count("intersections"),
        pairs * set_slot_pairs,
        "one intersection per pair and slot pair, not per set feature ({set_features})"
    );
    // Measured: 10 621 of 35 605 (29 070 without the memo). A left row has
    // 16 partners here; `match_heavy`'s 118 leave the memo far warmer.
    let (compared, evaluated) = (count("token_pairs"), count("jw_evals"));
    assert!(
        compared > pairs,
        "{compared} token pairs over {pairs} pairs"
    );
    assert!(
        evaluated * 3 <= compared,
        "Jaro-Winkler ran on {evaluated} of {compared} token pairs"
    );
}

#[test]
fn a_forest_asks_for_monge_elkan_only_where_the_cheap_features_leave_the_pair_open() {
    let s = scenario();
    let (a, b) = (&s.table_a, &s.table_b);
    // Every cheap feature and one kernel, the name's Monge-Elkan.
    let features: Vec<Feature> = generate_features(a, b, &["id"])
        .expect("features")
        .into_iter()
        .filter(|f| {
            !matches!(
                f.kind,
                FeatureKind::LevSim | FeatureKind::Jaro | FeatureKind::JaroWinkler
            )
        })
        .collect();
    let candidates = blocker().block(a, b).expect("blocking");
    let matrix = extract_feature_matrix(candidates.pairs(), a, b, &features).expect("extraction");
    let id = |t: &Table, r: u32| t.value(r as usize, 0).display_string();
    let mut data = Dataset::new(features.iter().map(|f| f.name.clone()).collect());
    for (row, &(ra, rb)) in matrix.rows.iter().zip(&matrix.pairs) {
        data.push(row, s.is_match(&id(a, ra), &id(b, rb)));
    }
    let forest = RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    }
    .fit_forest(&data);

    let every_pair = count(
        &run(&s, &features, Box::new(ConstantClassifier { proba: 1.0 })),
        "token_pairs",
    );
    let token_pairs = count(&run(&s, &features, Box::new(forest)), "token_pairs");
    // Measured: 710 of 35 605; 1 078 while the forest tested features in
    // path order.
    assert!(
        token_pairs * 40 <= every_pair,
        "the forest compared {token_pairs} token pairs, every pair {every_pair}"
    );
}

/// A 12-tree forest trained on every candidate of the task, gold-labelled.
fn twelve_trees(s: &EmScenario, features: &[Feature]) -> RandomForestClassifier {
    let (a, b) = (&s.table_a, &s.table_b);
    let candidates = blocker().block(a, b).expect("blocking");
    let matrix = extract_feature_matrix(candidates.pairs(), a, b, features).expect("extraction");
    let id = |t: &Table, r: u32| t.value(r as usize, 0).display_string();
    let mut data = Dataset::new(features.iter().map(|f| f.name.clone()).collect());
    for (row, &(ra, rb)) in matrix.rows.iter().zip(&matrix.pairs) {
        data.push(row, s.is_match(&id(a, ra), &id(b, rb)));
    }
    RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    }
    .fit_forest(&data)
}

#[test]
fn a_forest_walks_no_tree_for_a_pair_inside_its_certain_no_region() {
    let s = scenario();
    let (a, b) = (&s.table_a, &s.table_b);
    let features = generate_features(a, b, &["id"]).expect("features");
    let forest = twelve_trees(&s, &features);

    // Every candidate decided by the forest alone, reading a lazily filled
    // row with the sequence kernels last.
    let candidates = blocker().block(a, b).expect("blocking");
    let mut prepared = PreparedPair::new(a, b);
    let plan = prepared.plan(&features).expect("plan");
    prepared.prepare_for_pairs(&plan, candidates.pairs());
    let deferred = plan.deferred();
    let mut scorer = Scorer::new(&prepared, &plan);
    let (mut walked, mut matches) = (0, 0);
    for &(ra, rb) in candidates.pairs() {
        scorer.begin_pair(ra as usize, rb as usize);
        let mut feat = |j| scorer.feature(j);
        matches += usize::from(forest.decide(0.5, &deferred, &mut feat, &mut walked));
    }
    let demanded = scorer.computed();

    let rep = run(&s, &features, Box::new(forest));
    let count = |name: &str| rep.obs.counter(name);
    let exec_walked = count("magellan_core_trees_walked_total");
    let exec_demanded = count("magellan_core_features_demanded_total");
    let in_region = count("magellan_core_region_decided_total");
    assert_eq!(rep.matches.len(), matches);
    // Measured: 6 942 trees walked against 76 201, 38 509 features
    // demanded against 58 122; 5 238 of the 6 353 pairs lie inside the
    // region. With the region forced to `None` the executor walked 38 374
    // trees.
    assert!(
        exec_walked * 3 <= walked,
        "the executor walked {exec_walked} trees, the forest alone {walked} \
         ({in_region} of {} pairs inside the region)",
        rep.n_candidates
    );
    assert!(
        exec_demanded <= demanded,
        "the executor demanded {exec_demanded} features, the forest alone {demanded}"
    );
}
