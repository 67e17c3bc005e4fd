//! Pins what `run_development_stage` returns on two persons scenarios,
//! one per shape of the sampling step:
//!
//! * `|C| > 30 × sample_size` — the proxy-stratified sample is drawn out of
//!   a pre-sample larger than itself, so the pre-sample is scored and
//!   sorted by proxy before the sample is chosen;
//! * `|C| ≤ sample_size` — every candidate is sampled whatever the order,
//!   and the pre-sample is the sample.
//!
//! Per scenario it pins the report's candidate count, questions, label
//! positive rate, calibrated threshold and estimated precision (as bits),
//! holdout confusion counts and chosen matcher, and a digest of the
//! matches `ProductionExecutor::run` finds under the returned workflow. The
//! literals were recorded with the eager sampling step (a feature row per
//! pre-sampled pair, a proxy recomputed per comparison, an eager
//! calibration matrix); any rework of the stage must reproduce them
//! unedited.

use magellan_block::{Blocker, OverlapBlocker, SimJoinBlocker};
use magellan_core::exec::ProductionExecutor;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_features::generate_features;
use magellan_ml::{DecisionTreeLearner, Learner, RandomForestLearner};
use magellan_obs::fnv1a;
use magellan_simjoin::SetSimMeasure;

/// Everything pinned about one development-stage run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    n_candidates: usize,
    questions: usize,
    label_positive_rate_bits: u64,
    threshold_bits: u64,
    est_precision_bits: Option<u64>,
    /// `(tp, fp, tn, fn)` on the holdout.
    holdout: (usize, usize, usize, usize),
    chosen_matcher: String,
    /// `(matches, fnv1a of every matched row pair as little-endian u32s)`.
    production: (usize, u64),
}

fn scenario(size: usize, n_matches: usize, seed: u64) -> EmScenario {
    persons(&ScenarioConfig {
        size_a: size,
        size_b: size,
        n_matches,
        dirt: DirtModel::light(),
        seed,
    })
}

fn pin(s: &EmScenario, blocker: Box<dyn Blocker>, cfg: &DevConfig) -> Pin {
    let (a, b) = (&s.table_a, &s.table_b);
    let features = generate_features(a, b, &["id"]).expect("features");
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let tree = DecisionTreeLearner::default();
    let forest = RandomForestLearner {
        n_trees: 8,
        ..Default::default()
    };
    let learners: [&dyn Learner; 2] = [&tree, &forest];
    let (workflow, report) =
        run_development_stage(a, b, vec![blocker], features, &learners, &mut labeler, cfg)
            .expect("development stage");
    let matches = ProductionExecutor::new(2)
        .run(&workflow, a, b)
        .expect("production run")
        .matches;
    let bytes: Vec<u8> = matches
        .pairs()
        .iter()
        .flat_map(|&(l, r)| l.to_le_bytes().into_iter().chain(r.to_le_bytes()))
        .collect();
    let h = &report.holdout;
    Pin {
        n_candidates: report.n_candidates,
        questions: report.questions,
        label_positive_rate_bits: report.label_positive_rate.to_bits(),
        threshold_bits: report.threshold.to_bits(),
        est_precision_bits: report.est_precision.map(f64::to_bits),
        holdout: (h.tp, h.fp, h.tn, h.fn_),
        chosen_matcher: report.chosen_matcher,
        production: (matches.len(), fnv1a(&bytes)),
    }
}

/// A word-overlap blocker on `name` hands over far more candidates than
/// thirty samples' worth, so the sample is chosen out of a pre-sample
/// thirty times its size by proxy rank.
#[test]
fn pre_sampled_development_stage_is_pinned() {
    let s = scenario(400, 120, 31);
    let cfg = DevConfig {
        sample_size: 60,
        calibration_labels: 40,
        ..Default::default()
    };
    let got = pin(&s, Box::new(OverlapBlocker::words("name", 1)), &cfg);
    assert!(
        got.n_candidates > 30 * cfg.sample_size,
        "{} candidates do not exceed the pre-sample",
        got.n_candidates
    );
    assert_eq!(got, pre_sampled());
}

/// A Jaccard-0.5 join on `name` hands over fewer candidates than the
/// sample size, so every candidate is sampled and labelled.
#[test]
fn fully_sampled_development_stage_is_pinned() {
    let s = scenario(300, 100, 0);
    let cfg = DevConfig {
        sample_size: 400,
        calibration_labels: 40,
        ..Default::default()
    };
    let blocker = SimJoinBlocker {
        l_attr: "name".into(),
        r_attr: "name".into(),
        measure: SetSimMeasure::Jaccard(0.5),
        qgram: None,
        shards: 1,
    };
    let got = pin(&s, Box::new(blocker), &cfg);
    assert!(
        got.n_candidates <= cfg.sample_size,
        "{} candidates exceed the sample",
        got.n_candidates
    );
    assert_eq!(got, fully_sampled());
}

fn pre_sampled() -> Pin {
    Pin {
        n_candidates: 6_334,
        questions: 100,
        label_positive_rate_bits: 0x3fe0_0000_0000_0000, // 0.5
        threshold_bits: 0x3fe1_9999_9999_999a,           // 0.55
        est_precision_bits: Some(0x3fed_5555_5555_5555), // 0.9166…
        holdout: (8, 0, 8, 0),
        chosen_matcher: "random_forest".into(),
        production: (116, 0x1289_79f3_001e_9d16),
    }
}

fn fully_sampled() -> Pin {
    Pin {
        n_candidates: 151,
        questions: 191,
        label_positive_rate_bits: 0x3fdd_3eba_7d74_faea, // 69 / 151
        threshold_bits: 0x3fe0_0000_0000_0000,           // 0.5
        est_precision_bits: Some(0x3ff0_0000_0000_0000), // 1.0
        holdout: (17, 1, 20, 0),
        chosen_matcher: "random_forest".into(),
        production: (69, 0x395a_c6ce_2209_3f2b),
    }
}
