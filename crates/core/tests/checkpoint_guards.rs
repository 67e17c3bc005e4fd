//! Three guards on the production pass's checkpoints: a resumed checkpoint
//! must index rows of the tables it is resumed against, a run resumed from
//! a finished one publishes the counts a fresh run does, and
//! [`ProductionExecutor::run`], which has no store, builds no checkpoint.

use magellan_block::OverlapBlocker;
use magellan_core::checkpoint::{Checkpoint, CheckpointStore, MemStore, Phase};
use magellan_core::error::MagellanError;
use magellan_core::exec::{ProductionExecutor, ProductionReport, RecoveryOptions};
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::model::ConstantClassifier;
use magellan_obs::Obs;

fn scenario(n: usize, seed: u64) -> EmScenario {
    persons(&ScenarioConfig {
        size_a: n,
        size_b: n,
        n_matches: n / 3,
        dirt: DirtModel::light(),
        seed,
    })
}

fn workflow() -> EmWorkflow {
    EmWorkflow {
        blocker: Box::new(OverlapBlocker::words("name", 1)),
        features: vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
        ],
        matcher: Box::new(ConstantClassifier { proba: 1.0 }),
        rule_layer: RuleLayer::empty(),
        threshold: 0.5,
        plan: Default::default(),
    }
}

/// A well-formed `emckpt v3` checkpoint whose pairs reference rows past
/// either 50-row table is refused on resume with a fatal checkpoint error
/// that names the pair: a `Blocked` one does not index past the tables, a
/// `Done` one does not come back as a match.
#[test]
fn resume_refuses_a_checkpoint_past_the_tables() -> Result<(), MagellanError> {
    let s = scenario(50, 19);
    let resume = |ck: &Checkpoint| {
        let mut store = MemStore::new();
        store.save_bytes(&ck.to_bytes())?;
        ProductionExecutor::new(2).run_with_recovery(
            &workflow(),
            &s.table_a,
            &s.table_b,
            &mut store,
            &RecoveryOptions::default(),
        )
    };
    let past = [
        (vec![(3, 4), (5000, 7)], "(5000, 7)"),
        (vec![(9000, 9000)], "(9000, 9000)"),
        (vec![(50, 0)], "(50, 0)"),
        (vec![(0, 50)], "(0, 50)"),
    ];
    for (pairs, named) in past {
        for ck in [
            Checkpoint::Blocked {
                candidates: pairs.clone(),
            },
            Checkpoint::Done {
                matches: pairs,
                n_candidates: 2,
            },
        ] {
            match resume(&ck) {
                Err(MagellanError::Checkpoint {
                    message,
                    transient: false,
                }) if message.contains(named) => {}
                other => panic!("{ck:?} resumed to {other:?}"),
            }
        }
    }
    // The last row of each table is in range.
    let edge = resume(&Checkpoint::Done {
        matches: vec![(49, 49)],
        n_candidates: 1,
    })?;
    assert_eq!(edge.matches.pairs(), &[(49, 49)]);
    Ok(())
}

/// `run` has no store, so it builds no checkpoint: under a pinned recorder
/// its snapshot has no `ckpt_write` span and no checkpoint bytes, while a
/// fault-free `run_with_recovery` on a `MemStore` writes two checkpoints.
#[test]
fn run_builds_no_checkpoint() -> Result<(), MagellanError> {
    let s = scenario(120, 23);
    let (a, b, wf) = (&s.table_a, &s.table_b, workflow());
    let exec = ProductionExecutor::new(2);
    let pinned = |run: &mut dyn FnMut() -> Result<ProductionReport, MagellanError>| {
        let _g = Obs::pinned().install();
        run()
    };
    let mut store = MemStore::new();
    let plain = pinned(&mut || exec.run(&wf, a, b))?;
    let rec = pinned(&mut || {
        exec.run_with_recovery(&wf, a, b, &mut store, &RecoveryOptions::default())
    })?;
    assert!(plain.n_candidates > 0);
    assert_eq!(rec.matches, plain.matches);
    for (report, written) in [(&plain, 0), (&rec, 2)] {
        assert_eq!(report.obs.spans_named("ckpt_write").len(), written);
        assert_eq!(report.recovery.checkpoints_written as usize, written);
        let bytes = report.obs.counter("magellan_core_checkpoint_bytes_total");
        assert_eq!(bytes > 0, written > 0, "{bytes} checkpoint bytes");
    }
    Ok(())
}

/// A run resumed from a `Done` checkpoint publishes the candidate and match
/// counts of the run that wrote it, so its snapshot agrees with its report.
#[test]
fn a_resumed_run_publishes_the_fresh_runs_counts() -> Result<(), MagellanError> {
    let s = scenario(120, 23);
    let (a, b, wf) = (&s.table_a, &s.table_b, workflow());
    let exec = ProductionExecutor::new(2);
    let mut store = MemStore::new();
    let opts = RecoveryOptions::default();
    let fresh = exec.run_with_recovery(&wf, a, b, &mut store, &opts)?;
    let resumed = exec.run_with_recovery(&wf, a, b, &mut store, &opts)?;
    assert_eq!(resumed.recovery.resumed_from, Some(Phase::Matching));
    assert_eq!(resumed.matches, fresh.matches);
    assert!(!fresh.matches.is_empty());
    for name in ["magellan_core_candidates_total", "magellan_core_matches_total"] {
        assert_eq!(resumed.obs.counter(name), fresh.obs.counter(name), "{name}");
    }
    assert_eq!(
        resumed.obs.counter("magellan_core_matches_total"),
        resumed.matches.len() as u64
    );
    Ok(())
}
