//! Cross-crate integration: the full PyMatcher development + production
//! path, and the full Falcon path, on generated scenarios.

use magellan_block::{AttrEquivalenceBlocker, Blocker, OverlapBlocker};
use magellan_core::evaluate::evaluate_matches;
use magellan_core::exec::ProductionExecutor;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_core::rules::{Cmp, MatchRule, RuleLayer};
use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::{run_falcon, FalconConfig};
use magellan_features::generate_features;
use magellan_ml::{DecisionTreeLearner, Learner, RandomForestLearner};

fn scenario(name: &str, seed: u64) -> magellan_datagen::EmScenario {
    domains::by_name(
        name,
        &ScenarioConfig {
            size_a: 500,
            size_b: 500,
            n_matches: 160,
            dirt: DirtModel::light(),
            seed,
        },
    )
    .expect("known scenario")
}

#[test]
fn pymatcher_end_to_end_on_products() {
    let s = scenario("products", 1);
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let tree = DecisionTreeLearner::default();
    let forest = RandomForestLearner {
        n_trees: 10,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&tree, &forest];
    let blockers: Vec<Box<dyn Blocker>> = vec![
        Box::new(OverlapBlocker::words("title", 1)),
        Box::new(AttrEquivalenceBlocker::on("brand")),
    ];
    let (workflow, report) = run_development_stage(
        &s.table_a,
        &s.table_b,
        blockers,
        features,
        &learners,
        &mut labeler,
        &DevConfig::default(),
    )
    .unwrap();
    assert!(report.questions <= 400 + 60); // sample + calibration labels

    let out = workflow.execute(&s.table_a, &s.table_b).unwrap();
    let m = evaluate_matches(&out.matches(), &s.table_a, &s.table_b, "id", "id", &s.gold).unwrap();
    assert!(m.f1() > 0.75, "products end-to-end F1 {m}");
}

#[test]
fn production_executor_matches_workflow_execute() {
    let s = scenario("persons", 2);
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let forest = RandomForestLearner {
        n_trees: 8,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&forest];
    let (workflow, _) = run_development_stage(
        &s.table_a,
        &s.table_b,
        vec![Box::new(OverlapBlocker::words("name", 1))],
        features,
        &learners,
        &mut labeler,
        &DevConfig::default(),
    )
    .unwrap();

    let direct = workflow.execute(&s.table_a, &s.table_b).unwrap().matches();
    for workers in [1, 3, 7] {
        let prod = ProductionExecutor::new(workers)
            .run(&workflow, &s.table_a, &s.table_b)
            .unwrap();
        assert_eq!(
            prod.matches, direct,
            "worker count {workers} changed results"
        );
    }
}

#[test]
fn rule_layer_rescues_a_permissive_matcher() {
    // §6: "the most accurate EM workflows are likely to involve a
    // combination of ML and rules." Demonstrated in its clearest form: a
    // deliberately permissive matcher (accepts every candidate) plus a
    // hand-crafted reject rule. The rule layer must strictly improve
    // precision, and reject-only layers can never add false positives.
    let s = scenario("persons", 3);
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let mut workflow = magellan_core::EmWorkflow {
        blocker: Box::new(OverlapBlocker::words("name", 1)),
        features,
        matcher: Box::new(magellan_ml::model::ConstantClassifier { proba: 1.0 }),
        rule_layer: RuleLayer::empty(),
        threshold: 0.5,
        plan: Default::default(),
    };
    let plain = workflow.execute(&s.table_a, &s.table_b).unwrap().matches();
    let m_plain = evaluate_matches(&plain, &s.table_a, &s.table_b, "id", "id", &s.gold).unwrap();

    workflow.rule_layer = RuleLayer::new(vec![MatchRule::reject(
        "weak name guard",
        vec![("jaccard(word(A.name), word(B.name))".into(), Cmp::Lt, 0.4)],
    )]);
    let ruled = workflow.execute(&s.table_a, &s.table_b).unwrap().matches();
    let m_ruled = evaluate_matches(&ruled, &s.table_a, &s.table_b, "id", "id", &s.gold).unwrap();

    assert!(
        m_ruled.precision() > m_plain.precision() + 0.1,
        "rule layer should lift precision: {} -> {}",
        m_plain.precision(),
        m_ruled.precision()
    );
    // Reject-only layers shrink the predicted set: FPs cannot grow.
    assert!(m_ruled.fp <= m_plain.fp);
    assert!(ruled.len() <= plain.len());
}

#[test]
fn falcon_end_to_end_on_restaurants() {
    let s = scenario("restaurants", 4);
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let report = run_falcon(
        &s.table_a,
        &s.table_b,
        "id",
        "id",
        &mut labeler,
        &FalconConfig::default(),
    )
    .unwrap();
    let m = evaluate_matches(&report.matches, &s.table_a, &s.table_b, "id", "id", &s.gold).unwrap();
    assert!(m.f1() > 0.7, "falcon restaurants F1 {m}");
    assert!(report.total_questions() <= 1200, "paper's question ceiling");
}

#[test]
fn figure1_example_matches_recovered_by_falcon_features() {
    // The quickstart path, condensed: gold matches of the paper's Fig. 1
    // toy survive blocking and a trained tree.
    let s = domains::figure1_example();
    let blocker = OverlapBlocker::words("name", 1);
    let cands = blocker.block(&s.table_a, &s.table_b).unwrap();
    assert!(cands.contains((0, 0)) && cands.contains((2, 1)));
}

#[test]
fn single_table_dedup_end_to_end() {
    // §2: "matching tuples within a single table". Collapse a two-table
    // scenario into one table, dedup-block it, train on oracle labels,
    // and recover the duplicate pairs.
    let (t, gold) = scenario("persons", 6).into_dedup();
    let cands = magellan_block::dedup_block(&OverlapBlocker::words("name", 1), &t).unwrap();
    assert!(!cands.is_empty());
    // No self pairs, no mirrors.
    for &(x, y) in cands.pairs() {
        assert!(x < y);
    }

    let features = generate_features(&t, &t, &["id"]).unwrap();
    let matrix =
        magellan_features::extract_feature_matrix(cands.pairs(), &t, &t, &features).unwrap();
    let mut oracle = OracleLabeler::new(gold.clone(), "id", "id");
    use magellan_core::labeling::Labeler;
    let mut data = magellan_ml::Dataset::new(matrix.names.clone());
    for (row, &(ra, rb)) in matrix.rows.iter().zip(&matrix.pairs) {
        let y = oracle.label(&t, ra as usize, &t, rb as usize).as_bool();
        data.push(row, y);
    }
    let forest = RandomForestLearner {
        n_trees: 10,
        ..Default::default()
    }
    .fit_forest(&data);
    let predicted: magellan_block::CandidateSet = matrix
        .pairs
        .iter()
        .zip(&matrix.rows)
        .filter_map(|(&p, row)| magellan_ml::Classifier::predict(&forest, row).then_some(p))
        .collect();
    let m = evaluate_matches(&predicted, &t, &t, "id", "id", &gold).unwrap();
    assert!(m.f1() > 0.8, "dedup F1 {m}");
}

/// Golden end-to-end run: every number below is pinned on the fixed-seed
/// products scenario. Any change to datagen, blocking, feature extraction,
/// sampling, training, calibration, or the parallel executor that shifts
/// one of these values is a behavioural change — review it deliberately
/// and re-pin, never loosen the assertions to make the test pass.
///
/// The whole path is seeded and scheduling-free (the `magellan-par`
/// determinism contract), so the values are stable across processes and
/// worker counts; the test exercises both a serial and a parallel
/// production run to prove it.
#[test]
fn golden_pymatcher_products_run_is_pinned() {
    let s = scenario("products", 1);
    assert_eq!(s.gold.len(), 160, "datagen drifted: gold size");

    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let tree = DecisionTreeLearner::default();
    let forest = RandomForestLearner {
        n_trees: 10,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&tree, &forest];
    let blockers: Vec<Box<dyn Blocker>> = vec![
        Box::new(OverlapBlocker::words("title", 1)),
        Box::new(AttrEquivalenceBlocker::on("brand")),
    ];
    let (workflow, report) = run_development_stage(
        &s.table_a,
        &s.table_b,
        blockers,
        features,
        &learners,
        &mut labeler,
        &DevConfig::default(),
    )
    .unwrap();

    // Development stage: label budget, matcher selection, operating point.
    assert_eq!(report.questions, 460);
    assert_eq!(report.chosen_matcher, "random_forest");
    assert_eq!(workflow.threshold, 0.5);

    // Production stage: candidate volume and match quality, identical for
    // a serial and a parallel executor.
    for workers in [1, 4] {
        let prod = ProductionExecutor::new(workers)
            .run(&workflow, &s.table_a, &s.table_b)
            .unwrap();
        assert_eq!(prod.n_candidates, 43_353, "{workers} workers");
        assert_eq!(prod.matches.len(), 152, "{workers} workers");
        let m =
            evaluate_matches(&prod.matches, &s.table_a, &s.table_b, "id", "id", &s.gold).unwrap();
        assert_eq!((m.tp, m.fp, m.fn_), (152, 0, 8), "{workers} workers");
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 0.95);
        assert!(
            (m.f1() - 0.974_358_974_358_974_3).abs() < 1e-15,
            "F1 {}",
            m.f1()
        );
    }
}
