//! Lazy == eager, stated once.
//!
//! The production executor never builds the feature matrix: per candidate
//! pair the matcher decides through [`Classifier::decide`], which asks for
//! a feature only when a tree tests it and stops walking trees once the
//! rest cannot move the decision, and the rule layer reads the same lazily
//! filled row. The contract is that none of this is observable in the
//! output: the eager path — extract every feature, score every tree,
//! compare with the threshold, apply the rules ([`EmWorkflow::execute`]) —
//! is the oracle, and this suite pins the lazy path to it
//!
//! * per row, for seeded forests of 1–16 trees and depth 1–12, a single
//!   tree and a classifier on the default `decide`, over rows with NaNs,
//!   at thresholds 0.0, 1.0, 0.5, the calibrated one, NaN, and thresholds
//!   *equal to a score the forest attains* (and its two float neighbours),
//!   where an approximate early stop would flip the decision — and so
//!   under deferral masks (none, all, the sequence kernels, every other
//!   feature), where a masked decide asks for no deferred feature the
//!   unmasked one does not, and the unmasked one walks as the forest did
//!   before deferral;
//! * per run, for `ProductionExecutor::run` at 1/2/4/8 workers and
//!   `run_with_recovery` killed after blocking and resumed, under rule
//!   layers whose rules name features no tree tests, each forest and
//!   threshold under the decision plan `DecisionPlan::derive` gives it over
//!   the run's own candidates;
//! * per run, that *what is demanded* is pinned: the three demand counters
//!   equal recorded values ([`PARENT_DEMAND`]) at every worker count, and
//!   every pair is either walked or decided inside the certain-No region,
//!   as many inside at every worker count.

use magellan_block::{Blocker, OverlapBlocker};
use magellan_core::checkpoint::{MemStore, Phase};
use magellan_core::error::MagellanError;
use magellan_core::exec::{DecisionPlan, ProductionExecutor, RecoveryOptions};
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_core::rules::{Cmp, MatchRule, RuleLayer};
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_features::{
    extract_feature_matrix, generate_features, Feature, FeatureKind, PreparedPair,
};
use magellan_ml::{
    Classifier, Dataset, DecisionTreeClassifier, Learner, LogisticRegressionLearner, Node,
    RandomForestClassifier, RandomForestLearner,
};

fn scenario() -> EmScenario {
    persons(&ScenarioConfig {
        size_a: 220,
        size_b: 220,
        n_matches: 70,
        dirt: DirtModel::light(),
        seed: 91,
    })
}

fn blocker() -> Box<dyn Blocker> {
    Box::new(OverlapBlocker::words("name", 1))
}

/// The eager feature rows of every candidate with their gold labels.
fn training_rows(s: &EmScenario, features: &[Feature]) -> (Vec<Vec<f64>>, Vec<bool>) {
    let candidates = blocker().block(&s.table_a, &s.table_b).expect("blocking");
    let matrix = extract_feature_matrix(candidates.pairs(), &s.table_a, &s.table_b, features)
        .expect("extraction");
    let id = |t: &magellan_table::Table, r: u32| t.value(r as usize, 0).display_string();
    let labels = matrix
        .pairs
        .iter()
        .map(|&(ra, rb)| s.is_match(&id(&s.table_a, ra), &id(&s.table_b, rb)))
        .collect();
    (matrix.rows, labels)
}

/// Columns of features the forests below never get to test: city and
/// state equality and Jaro–Winkler on the city.
fn blind_columns(features: &[Feature]) -> Vec<usize> {
    let blind: Vec<usize> = features
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            (f.kind == FeatureKind::ExactMatch && f.l_attr != "name")
                || (f.kind == FeatureKind::JaroWinkler && f.l_attr == "city")
        })
        .map(|(j, _)| j)
        .collect();
    assert_eq!(blind.len(), 3, "persons features changed: {features:?}");
    blind
}

/// A forest of the given shape trained on `rows` with the `blind` columns
/// held constant, so that no tree splits on them.
fn forest(
    rows: &[Vec<f64>],
    labels: &[bool],
    blind: &[usize],
    n_trees: usize,
    max_depth: usize,
    seed: u64,
) -> RandomForestClassifier {
    let mut data = Dataset::with_dims(rows[0].len());
    for (row, &label) in rows.iter().zip(labels) {
        let mut row = row.clone();
        for &j in blind {
            row[j] = 0.0;
        }
        data.push(&row, label);
    }
    RandomForestLearner {
        n_trees,
        max_depth,
        seed,
        ..Default::default()
    }
    .fit_forest(&data)
}

/// The workflow the development stage captures for the scenario — a
/// forest and the threshold calibration picked for it.
fn calibrated_workflow(s: &EmScenario, features: &[Feature]) -> EmWorkflow {
    let learner = RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&learner];
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let cfg = DevConfig {
        sample_size: 300,
        ..Default::default()
    };
    run_development_stage(
        &s.table_a,
        &s.table_b,
        vec![blocker()],
        features.to_vec(),
        &learners,
        &mut labeler,
        &cfg,
    )
    .expect("development stage")
    .0
}

/// `rows` plus a copy of every third row with one feature knocked out.
fn with_missing_values(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out = rows.to_vec();
    for (i, row) in rows.iter().enumerate().step_by(3) {
        let mut row = row.clone();
        let j = i % row.len();
        row[j] = f64::NAN;
        out.push(row);
    }
    out
}

/// Assert `decide` over a lazily read `row`, with the `deferred` features
/// tested last, equals the eager comparison; returns the features it asked
/// for and the members it walked.
fn check_decide(
    clf: &dyn Classifier,
    row: &[f64],
    threshold: f64,
    deferred: &[bool],
) -> (Vec<usize>, u64) {
    assert_eq!(deferred.len(), row.len());
    let mut asked = Vec::new();
    let mut walked = 0;
    let lazy = clf.decide(
        threshold,
        deferred,
        &mut |j| {
            asked.push(j);
            row[j]
        },
        &mut walked,
    );
    let eager = clf.predict_proba(row) >= threshold;
    assert_eq!(
        lazy,
        eager,
        "decide {lazy} != predict_proba {} >= {threshold} on {row:?}, deferred {deferred:?}",
        clf.predict_proba(row)
    );
    (asked, walked)
}

/// The forest's `decide` before deferral, written out from the public tree
/// structure: every tree walked to its leaf in order, stopping once the
/// root leaf ranges of the trees left cannot move the decision. Returns
/// the features asked for and the trees walked.
fn undeferred_decide(
    forest: &RandomForestClassifier,
    row: &[f64],
    threshold: f64,
) -> (Vec<usize>, u64) {
    let leaf = |n: usize, n_pos: usize| (n_pos as f64 + 1.0) / (n as f64 + 2.0);
    let range = |tree: &DecisionTreeClassifier| {
        tree.nodes().iter().fold(
            (f64::INFINITY, f64::NEG_INFINITY),
            |(lo, hi), node| match *node {
                Node::Leaf { n, n_pos } => (lo.min(leaf(n, n_pos)), hi.max(leaf(n, n_pos))),
                Node::Split { .. } => (lo, hi),
            },
        )
    };
    let trees = forest.trees();
    let n = trees.len() as f64;
    let (mut asked, mut sum) = (Vec::new(), 0.0);
    for (k, tree) in trees.iter().enumerate() {
        let mut i = 0;
        while let Node::Split {
            feature,
            threshold,
            left,
            right,
        } = tree.nodes()[i]
        {
            asked.push(feature);
            let x = row[feature];
            i = if x.is_nan() || x <= threshold {
                left
            } else {
                right
            };
        }
        let Node::Leaf { n: count, n_pos } = tree.nodes()[i] else {
            unreachable!()
        };
        sum += leaf(count, n_pos);
        let (mut lo, mut hi) = (sum, sum);
        for rest in &trees[k + 1..] {
            let (min, max) = range(rest);
            lo += min;
            hi += max;
        }
        if lo / n >= threshold || hi / n < threshold {
            return (asked, k as u64 + 1);
        }
    }
    (asked, trees.len() as u64)
}

#[test]
fn decide_equals_the_eager_threshold_test_on_every_row() {
    let s = scenario();
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).expect("features");
    let (rows, labels) = training_rows(&s, &features);
    let blind = blind_columns(&features);
    let calibrated = calibrated_workflow(&s, &features).threshold;
    let probes = with_missing_values(&rows);
    assert!(probes.iter().flatten().any(|v| v.is_nan()));

    // Deferral masks: none, every feature, the sequence kernels (what the
    // executor passes), and every other feature.
    let width = features.len();
    let kernels: Vec<bool> = features
        .iter()
        .map(|f| f.kind.is_sequence_kernel())
        .collect();
    assert!(kernels.contains(&true) && kernels.contains(&false));
    let masks = [
        vec![false; width],
        vec![true; width],
        kernels,
        (0..width).map(|j| j % 2 == 1).collect(),
    ];

    for seed in 0..16u64 {
        let n_trees = 1 + (seed as usize * 7) % 16;
        let max_depth = 1 + (seed as usize * 5) % 12;
        let forest = forest(&rows, &labels, &blind, n_trees, max_depth, seed);

        // Thresholds the forest's score lands on exactly, and next to:
        // a few rows' scores, and the extreme ones — a row that reaches
        // every tree's largest (smallest) leaf sits exactly on the bound
        // the early stop compares with, after every tree.
        let scores: Vec<f64> = probes.iter().map(|row| forest.predict_proba(row)).collect();
        let mut attained: Vec<f64> = scores.iter().copied().step_by(scores.len() / 6).collect();
        attained.push(scores.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        attained.push(scores.iter().copied().fold(f64::INFINITY, f64::min));
        let mut thresholds = vec![0.0, 1.0, 0.5, calibrated, f64::NAN];
        for score in attained {
            thresholds.extend([score, score.next_up(), score.next_down()]);
        }

        let mut early_stops = 0;
        for &threshold in &thresholds {
            for row in &probes {
                let (asked, walked) = check_decide(&forest, row, threshold, &masks[0]);
                assert!((1..=n_trees as u64).contains(&walked));
                assert!(asked.iter().all(|j| !blind.contains(j)));
                assert_eq!(
                    (asked.clone(), walked),
                    undeferred_decide(&forest, row, threshold),
                    "with nothing deferred, decide walks as before deferral"
                );
                early_stops += u64::from(walked < n_trees as u64);
                for deferred in &masks[1..] {
                    let (masked, walked) = check_decide(&forest, row, threshold, deferred);
                    assert!((1..=n_trees as u64).contains(&walked));
                    assert!(
                        masked.iter().all(|&j| !deferred[j] || asked.contains(&j)),
                        "deferred features asked beyond the plain walk's: {masked:?} vs {asked:?}"
                    );
                }
                for deferred in &masks {
                    check_decide(&forest.trees()[0], row, threshold, deferred);
                }
            }
        }
        assert!(
            n_trees < 3 || early_stops > 0,
            "{n_trees} trees never stopped early"
        );
    }

    // A classifier without an override reads the whole row, once, whatever
    // the mask.
    let mut data = Dataset::with_dims(rows[0].len());
    for (row, &label) in rows.iter().zip(&labels) {
        data.push(row, label);
    }
    let linear = LogisticRegressionLearner::default().fit(&data);
    for row in probes.iter().take(50) {
        for deferred in &masks {
            let (asked, walked) = check_decide(linear.as_ref(), row, 0.5, deferred);
            assert_eq!(asked, (0..row.len()).collect::<Vec<_>>());
            assert_eq!(walked, 1);
        }
    }
}

/// Rule layers over features the forests never test (so only the rule
/// layer can demand them), a feature they do test, and a misspelt name.
fn rule_layers(features: &[Feature], blind: &[usize]) -> Vec<RuleLayer> {
    let name = |j: usize| features[j].name.clone();
    let tested = features
        .iter()
        .position(|f| f.kind == FeatureKind::LevSim && f.l_attr == "name")
        .expect("lev_sim(name)");
    vec![
        RuleLayer::empty(),
        RuleLayer::new(vec![
            MatchRule::reject("far city", vec![(name(blind[1]), Cmp::Lt, 0.55)]),
            MatchRule::accept(
                "same place, close name",
                vec![
                    (name(blind[0]), Cmp::Eq, 1.0),
                    (name(blind[2]), Cmp::Eq, 1.0),
                    (name(tested), Cmp::Ge, 0.6),
                ],
            ),
        ]),
        RuleLayer::new(vec![
            MatchRule::accept(
                "misspelt",
                vec![("lev_sim(A.nam, B.nam)".into(), Cmp::Ge, 0.0)],
            ),
            MatchRule::reject("other state", vec![(name(blind[2]), Cmp::Lt, 1.0)]),
        ]),
    ]
}

/// `(trees, rule layer, features demanded, features skipped, trees walked)`
/// at the calibrated threshold, recorded by this test's own loop. The
/// 5-, 12- and 16-tree values moved, by design, when the forest began to
/// test the sequence kernels last: a tree parked at a Levenshtein / Jaro /
/// Monge–Elkan split lets later trees be walked, and their cheap features
/// be demanded, before any kernel runs, and a parked tree counts once in
/// `trees walked`. On the 1-tree forest the decision plan, derived over
/// the run's own candidates, finds that deferral does not pay. Every `trees walked` then fell (1 743 → 156,
/// 3 729 → 449, 7 565 → 1 233, 12 887 → 1 708) and no `features demanded`
/// rose when the executor began to answer a pair inside the forest's
/// certain-No region with no tree walked.
const PARENT_DEMAND: [(usize, usize, u64, u64, u64); 12] = [
    (1, 0, 3574, 24314, 156),
    (1, 1, 5921, 21967, 156),
    (1, 2, 5317, 22571, 156),
    (5, 0, 2236, 25652, 449),
    (5, 1, 4540, 23348, 449),
    (5, 2, 3979, 23909, 449),
    (12, 0, 5982, 21906, 1233),
    (12, 1, 8282, 19606, 1233),
    (12, 2, 7725, 20163, 1233),
    (16, 0, 7586, 20302, 1708),
    (16, 1, 9887, 18001, 1708),
    (16, 2, 9329, 18559, 1708),
];

#[test]
fn executor_equals_the_eager_oracle() {
    let s = scenario();
    let (a, b) = (&s.table_a, &s.table_b);
    let features = generate_features(a, b, &["id"]).expect("features");
    let (rows, labels) = training_rows(&s, &features);
    let blind = blind_columns(&features);
    let mut wf = calibrated_workflow(&s, &features);
    let calibrated = wf.threshold;
    let n_features = features.len() as u64;
    // Each forest and threshold runs under the plan derived over the run's
    // own candidates.
    let candidates = blocker().block(a, b).expect("blocking");
    let mut prepared = PreparedPair::new(a, b);
    let feature_plan = prepared.plan(&features).expect("plan");
    prepared.prepare_for_pairs(&feature_plan, candidates.pairs());

    let mut rule_overrides = 0;
    let mut demand = Vec::new();
    for (n_trees, max_depth, seed) in [(1, 12, 3), (5, 2, 4), (12, 16, 5), (16, 7, 6)] {
        let forest = forest(&rows, &labels, &blind, n_trees, max_depth, seed);
        let attainable = forest.predict_proba(&rows[rows.len() / 2]);
        wf.matcher = Box::new(forest);
        for (t, threshold) in [0.0, 1.0, 0.5, calibrated, attainable]
            .into_iter()
            .enumerate()
        {
            wf.threshold = threshold;
            wf.plan = DecisionPlan::derive(
                &*wf.matcher,
                threshold,
                &prepared,
                &feature_plan,
                candidates.pairs(),
            );
            for (layer, rule_layer) in rule_layers(&features, &blind).into_iter().enumerate() {
                wf.rule_layer = RuleLayer::empty();
                let unruled = wf.execute(a, b).expect("oracle").matches();
                wf.rule_layer = rule_layer;
                let oracle = wf.execute(a, b).expect("oracle").matches();
                rule_overrides += usize::from(oracle != unruled);
                let what = format!(
                    "{n_trees} trees, depth {max_depth}, threshold {threshold}, {} rules",
                    wf.rule_layer.len()
                );

                let mut counts = None;
                for workers in [1, 2, 4, 8] {
                    let rep = ProductionExecutor::new(workers)
                        .run(&wf, a, b)
                        .expect("run");
                    assert_eq!(rep.matches, oracle, "{what}, {workers} workers");
                    // What was skipped is counted, and does not depend on
                    // who computed it.
                    let count = |name: &str| rep.obs.counter(name);
                    let demanded = count("magellan_core_features_demanded_total");
                    let skipped = count("magellan_core_features_skipped_total");
                    let walked = count("magellan_core_trees_walked_total");
                    let in_region = count("magellan_core_region_decided_total");
                    let pairs = rep.n_candidates as u64;
                    assert_eq!(demanded + skipped, pairs * n_features, "{what}");
                    assert!(pairs <= walked + in_region, "{what}");
                    assert!(walked <= pairs * n_trees as u64, "{what}");
                    assert_eq!(
                        *counts.get_or_insert((demanded, walked, in_region)),
                        (demanded, walked, in_region),
                        "{what}, {workers} workers"
                    );
                    if t == 3 && workers == 1 {
                        demand.push((n_trees, layer, demanded, skipped, walked));
                    }
                }

                let exec = ProductionExecutor::new(2);
                let mut store = MemStore::new();
                let kill = RecoveryOptions {
                    kill_after: Some(Phase::Blocking),
                    ..RecoveryOptions::default()
                };
                let err = exec
                    .run_with_recovery(&wf, a, b, &mut store, &kill)
                    .expect_err("killed after blocking");
                assert!(matches!(err, MagellanError::Killed { .. }), "{err}");
                let resumed = exec
                    .run_with_recovery(&wf, a, b, &mut store, &RecoveryOptions::default())
                    .expect("resumed run");
                assert_eq!(resumed.resumed_from, Some(Phase::Blocking));
                assert_eq!(resumed.matches, oracle, "{what}, resumed");
            }
        }
    }
    assert!(rule_overrides > 0, "no rule layer ever changed a decision");
    assert_eq!(demand, PARENT_DEMAND, "demand moved");
}
