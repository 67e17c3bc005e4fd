//! The "Land Use" deployment (Appendix B of the paper): matching Brazilian
//! cattle-ranch records across two registries to trace deforestation
//! supply chains.
//!
//! ```text
//! cargo run --release --example land_use
//! ```
//!
//! The paper reports that PyMatcher achieved "much higher recall than the
//! company solution, while slightly reducing precision", which put it into
//! production. This example reproduces that comparison: an incumbent
//! exact-match-style rule pipeline vs. the PyMatcher development-stage
//! pipeline, on a synthetic ranch dataset whose two registries render
//! owner names in opposite orders (a dirt profile the incumbent cannot
//! survive).

use magellan_block::{AttrEquivalenceBlocker, Blocker, OverlapBlocker};
use magellan_core::evaluate::evaluate_matches;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_datagen::domains::ranches;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::generate_features;
use magellan_ml::{DecisionTreeLearner, Learner, LogisticRegressionLearner, RandomForestLearner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two registries of ranch records (CAR/GTA-style), moderate dirt.
    let scenario = ranches(&ScenarioConfig {
        size_a: 1500,
        size_b: 1500,
        n_matches: 500,
        dirt: DirtModel::moderate(),
        seed: 2018,
    });
    let (a, b) = (&scenario.table_a, &scenario.table_b);
    println!(
        "registries: {} x {} ranches, {} true cross-registry matches\n",
        a.nrows(),
        b.nrows(),
        scenario.gold.len()
    );

    // --- The incumbent "company solution": exact owner-name equality
    // within the same municipality. ---
    let by_owner = AttrEquivalenceBlocker::on("owner").block(a, b)?;
    let by_muni = AttrEquivalenceBlocker::on("municipality").block(a, b)?;
    let company = by_owner.intersect(&by_muni);
    let company_metrics = evaluate_matches(&company, a, b, "id", "id", &scenario.gold)?;
    println!("company solution (exact owner+municipality): {company_metrics}");

    // --- PyMatcher: the Fig. 2 development-stage pipeline. ---
    let features = generate_features(a, b, &["id"])?;
    let mut labeler = OracleLabeler::new(scenario.gold.clone(), "id", "id");
    let tree = DecisionTreeLearner::default();
    let forest = RandomForestLearner {
        n_trees: 15,
        ..Default::default()
    };
    let logit = LogisticRegressionLearner::default();
    let learners: Vec<&dyn Learner> = vec![&tree, &forest, &logit];
    let blockers: Vec<Box<dyn Blocker>> = vec![
        Box::new(OverlapBlocker::words("owner", 1)),
        Box::new(AttrEquivalenceBlocker::on("municipality")),
    ];
    let (workflow, report) = run_development_stage(
        a,
        b,
        blockers,
        features,
        &learners,
        &mut labeler,
        &DevConfig {
            sample_size: 500,
            ..Default::default()
        },
    )?;

    println!("\nPyMatcher development stage:");
    for c in &report.blocker_choices {
        println!(
            "  blocker {:45} candidates={:7} est.recall={:.2}",
            c.name, c.n_candidates, c.est_recall
        );
    }
    println!("  chose blocker: {}", report.chosen_blocker);
    for cv in &report.cv_reports {
        println!("  matcher {:22} CV F1 = {:.3}", cv.learner, cv.mean_f1());
    }
    println!(
        "  chose matcher: {} (labeled {} pairs; holdout {})",
        report.chosen_matcher, report.questions, report.holdout
    );

    // Production run of the captured workflow over the full registries.
    let exec = magellan_core::exec::ProductionExecutor::new(4);
    let prod = exec.run(&workflow, a, b)?;
    let py_metrics = evaluate_matches(&prod.matches, a, b, "id", "id", &scenario.gold)?;
    println!(
        "\nPyMatcher production run ({} workers, {:?} machine time): {py_metrics}",
        exec.n_workers,
        prod.timings.total()
    );

    println!(
        "\nRecall: company {:.1}% -> PyMatcher {:.1}%  (precision {:.1}% -> {:.1}%)",
        100.0 * company_metrics.recall(),
        100.0 * py_metrics.recall(),
        100.0 * company_metrics.precision(),
        100.0 * py_metrics.precision(),
    );
    assert!(
        py_metrics.recall() > company_metrics.recall() + 0.2,
        "PyMatcher should clearly beat the incumbent's recall"
    );
    Ok(())
}
