//! Count guards for what the matching pass saves per run of a left record
//! — exact counters on one fixed task, no timing — so that none of it can
//! be undone without a test saying so: the left string becomes an
//! edit-distance pattern and the left id sets are stamped once per *left
//! row*, not per pair; a pair's set measures share one intersection count
//! per slot pair, not one per feature; and Monge–Elkan's token pairs are
//! mostly answered by the Jaro–Winkler memo.
//!
//! One worker and one chunk, so the executor's scorer sees the candidate
//! list — sorted by `(l, r)` — whole: every left row is one run. The
//! counts are read where they are published, in the obs registry
//! (`magellan_features_scorer_*_total`).
//!
//! Undone one at a time in `features::prepared`, each saving fails its
//! assertion: rebuilding the pattern (or restamping) whenever asked reads
//! one build per pair; counting the intersection per feature reads three
//! per pair, not two; and without the memo 82 % of the token pairs are
//! evaluated (the rest are equal tokens), not 30 %.

use std::collections::HashSet;

use magellan_block::OverlapBlocker;
use magellan_core::exec::ProductionExecutor;
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{generate_features, Feature, FeatureKind};
use magellan_ml::model::ConstantClassifier;

#[test]
fn a_left_record_is_prepared_once_per_run_and_a_pair_intersects_once_per_slot_pair() {
    let s = persons(&ScenarioConfig {
        size_a: 400,
        size_b: 400,
        n_matches: 130,
        dirt: DirtModel::light(),
        seed: 1_907,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    // The name's features only: the blocker below admits a pair on a shared
    // name token, so no candidate has a null or token-free name and every
    // pair computes every feature (a classifier on the default `decide`
    // reads the whole row).
    let features: Vec<Feature> = generate_features(a, b, &["id"])
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

    let wf = EmWorkflow {
        blocker: Box::new(OverlapBlocker::words("name", 1)),
        features,
        matcher: Box::new(ConstantClassifier { proba: 1.0 }),
        rule_layer: RuleLayer::empty(),
        threshold: 0.5,
    };
    let rep = ProductionExecutor::new(1)
        .with_chunk_size(usize::MAX)
        .run(&wf, a, b)
        .expect("run");
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

    let count = |what: &str| {
        rep.obs
            .counter(&format!("magellan_features_scorer_{what}_total"))
    };
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
