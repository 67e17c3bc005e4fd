//! Figure 2 — the development-stage how-to guide, narrated step by step.
//!
//! The figure's story: tables too big to iterate on are down-sampled
//! (1M → 100K in the paper; scaled here), the user experiments with
//! blockers X and Y and picks one, blocks, samples and labels, runs cross
//! validation over two learners (the figure shows F1 = 0.93 for the
//! winner), selects the matcher, predicts over C, and quality-checks.

use magellan_bench::score;
use magellan_block::{AttrEquivalenceBlocker, Blocker, OverlapBlocker};
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::generate_features;
use magellan_ml::{DecisionTreeLearner, Learner, RandomForestLearner};

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    // Scaled stand-in for the figure's two 1M-tuple tables.
    let s = persons(&ScenarioConfig {
        size_a: 8_000,
        size_b: 8_000,
        n_matches: 2_500,
        dirt: DirtModel::light(),
        seed: 42,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    magellan_obs::log!(info, "Fig. 2 walkthrough — development stage");
    magellan_obs::log!(
        info,
        "input tables A: {} tuples, B: {} tuples",
        a.nrows(),
        b.nrows()
    );

    let features = generate_features(a, b, &["id"]).expect("features");
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    // The figure's two matchers U and V.
    let u = DecisionTreeLearner::default();
    let v = RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&u, &v];
    // The figure's two blockers X and Y.
    let blockers: Vec<Box<dyn Blocker>> = vec![
        Box::new(OverlapBlocker::words("name", 1)),
        Box::new(AttrEquivalenceBlocker::on("city")),
    ];
    let cfg = DevConfig {
        down_sample_to: Some(2_000), // the "down sample" arrow of the figure
        sample_size: 500,            // |S| labeled pairs
        ..Default::default()
    };
    let (workflow, report) =
        run_development_stage(a, b, blockers, features, &learners, &mut labeler, &cfg)
            .expect("development stage");

    magellan_obs::log!(
        info,
        "\nstep 1  down sample: A' , B' = 2000-tuple working tables"
    );
    magellan_obs::log!(info, "step 2  blocker experiments:");
    for c in &report.blocker_choices {
        magellan_obs::log!(
            info,
            "        {:45} |C| = {:7}, est. recall {:.2}",
            c.name,
            c.n_candidates,
            c.est_recall
        );
    }
    magellan_obs::log!(info, "        selected blocker: {}", report.chosen_blocker);
    magellan_obs::log!(info, "step 3  blocked: |C| = {}", report.n_candidates);
    magellan_obs::log!(
        info,
        "step 4  sampled + labeled {} pairs ({:.0}% positive)",
        report.questions,
        100.0 * report.label_positive_rate
    );
    magellan_obs::log!(info, "step 5  cross validation:");
    for cv in &report.cv_reports {
        magellan_obs::log!(
            info,
            "        matcher {:20} F1 = {:.2} (P {:.2} / R {:.2})",
            cv.learner,
            cv.mean_f1(),
            cv.mean_precision(),
            cv.mean_recall()
        );
    }
    magellan_obs::log!(info, "        selected matcher: {}", report.chosen_matcher);
    magellan_obs::log!(info, "step 6  quality check on holdout: {}", report.holdout);

    // Production: run the captured workflow over the full tables.
    let exec = magellan_core::exec::ProductionExecutor::new(4);
    let prod = exec.run(&workflow, a, b).expect("production run");
    let m = score(&prod.matches, a, b, &s.gold);
    magellan_obs::log!(
        info,
        "\nproduction stage: {} candidates on full tables, {:?} machine time, {}",
        prod.n_candidates,
        prod.timings.total(),
        m
    );
    magellan_obs::log!(
        info,
        "\npaper shape: winning matcher CV F1 in the ~0.9 range; end-to-end P/R high."
    );
}
