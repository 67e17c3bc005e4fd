//! Four guards on the production pass's recovery: a resumed checkpoint
//! must index rows of the tables it is resumed against, a resumed run
//! counts what a fresh run counts,
//! [`ProductionExecutor::run`], which has no store, builds no checkpoint,
//! and a transient error retries its whole phase while a fatal one does
//! not.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use magellan_block::{Blocker, CandidateSet, OverlapBlocker};
use magellan_core::checkpoint::{Checkpoint, CheckpointStore, MemStore, Phase};
use magellan_core::error::MagellanError;
use magellan_core::exec::{DecisionPlan, ProductionExecutor, ProductionReport, RecoveryOptions};
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_faults::RetryPolicy;
use magellan_features::{Feature, FeatureKind, PreparedPair, TokSpec};
use magellan_ml::model::ConstantClassifier;
use magellan_ml::{Dataset, RandomForestLearner};
use magellan_obs::Obs;
use magellan_par::{ParConfig, ParStats};
use magellan_table::{Table, TableError};

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
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpec::Word)),
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
    let rec =
        pinned(&mut || exec.run_with_recovery(&wf, a, b, &mut store, &RecoveryOptions::default()))?;
    assert!(plain.n_candidates > 0);
    assert_eq!(rec.matches, plain.matches);
    for (report, written) in [(&plain, 0), (&rec, 2)] {
        assert_eq!(report.obs.spans_named("ckpt_write").len(), written);
        let ckpts = report
            .obs
            .counter("magellan_core_checkpoints_written_total");
        assert_eq!(ckpts as usize, written);
        let bytes = report.obs.counter("magellan_core_checkpoint_bytes_total");
        assert_eq!(bytes > 0, written > 0, "{bytes} checkpoint bytes");
    }
    Ok(())
}

/// A forest workflow over the two name features whose decision plan is
/// derived over the run's own candidates, so a run walks trees, decides
/// pairs inside the certain-No region and asks for features.
fn forest_workflow(a: &Table, b: &Table) -> EmWorkflow {
    let mut wf = workflow();
    let rows = [
        vec![0.9, 0.95],
        vec![0.8, 0.9],
        vec![0.6, 0.93],
        vec![0.5, 0.7],
        vec![0.2, 0.8],
        vec![0.1, 0.5],
        vec![0.3, 0.6],
        vec![0.0, 0.4],
    ];
    let labels = [true, true, true, false, false, false, false, false];
    let forest = RandomForestLearner {
        n_trees: 5,
        ..Default::default()
    }
    .fit_forest(&Dataset::from_rows(&rows, &labels));
    let candidates = wf.blocker.block(a, b).expect("blocking");
    let mut prepared = PreparedPair::new(a, b);
    let plan = prepared.plan(&wf.features).expect("feature plan");
    prepared.prepare_for_pairs(&plan, candidates.pairs());
    wf.plan = DecisionPlan::derive(&forest, wf.threshold, &prepared, &plan, candidates.pairs());
    wf.matcher = Box::new(forest);
    wf
}

/// A run resumed from a checkpoint publishes what a fresh run does, through
/// the same exit: resumed from `Blocked`, the run totals, the matcher's
/// demand counters and every pool counter of the scoring region; resumed
/// from `Done`, the run totals, so its snapshot agrees with its report.
/// Each run records into its own pinned recorder at a pinned chunk size.
#[test]
fn a_resumed_run_counts_what_a_fresh_run_counts() -> Result<(), MagellanError> {
    let s = scenario(120, 23);
    let (a, b) = (&s.table_a, &s.table_b);
    let wf = forest_workflow(a, b);
    let exec = ProductionExecutor::new(2).with_chunk_size(16);
    let mut store = MemStore::new();
    let run = |store: &mut MemStore, kill_after| {
        let _g = Obs::pinned().install();
        let opts = RecoveryOptions {
            kill_after,
            ..RecoveryOptions::default()
        };
        exec.run_with_recovery(&wf, a, b, store, &opts)
    };
    let fresh = run(&mut MemStore::new(), None)?;
    let killed = run(&mut store, Some(Phase::Blocking));
    assert!(
        matches!(killed, Err(MagellanError::Killed { .. })),
        "{killed:?}"
    );
    let from_blocked = run(&mut store, None)?;
    let from_done = run(&mut store, None)?;
    assert_eq!(fresh.resumed_from, None);
    assert_eq!(from_blocked.resumed_from, Some(Phase::Blocking));
    assert_eq!(from_done.resumed_from, Some(Phase::Matching));
    assert!(!fresh.matches.is_empty());

    let totals = [
        "magellan_core_candidates_total",
        "magellan_core_matches_total",
    ];
    let demand = [
        "magellan_core_features_demanded_total",
        "magellan_core_trees_walked_total",
        "magellan_core_region_decided_total",
    ];
    for name in demand {
        assert!(fresh.obs.counter(name) > 0, "{name} never moved");
    }
    let score = |r: &ProductionReport| -> Vec<(String, u64)> {
        let names = r.obs.metrics.keys();
        let names =
            names.filter(|k| k.starts_with("magellan_par_") && k.ends_with("{phase=\"score\"}"));
        names.map(|k| (k.clone(), r.obs.counter(k))).collect()
    };
    assert!(!score(&fresh).is_empty());
    assert_eq!(score(&from_blocked), score(&fresh));
    for name in totals.iter().chain(&demand) {
        assert_eq!(
            from_blocked.obs.counter(name),
            fresh.obs.counter(name),
            "{name}"
        );
    }
    for name in totals {
        assert_eq!(
            from_done.obs.counter(name),
            fresh.obs.counter(name),
            "{name}"
        );
    }
    for r in [&from_blocked, &from_done] {
        assert_eq!(r.matches, fresh.matches);
        assert_eq!(
            r.obs.counter("magellan_core_matches_total"),
            r.matches.len() as u64
        );
    }
    Ok(())
}

/// A user blocker whose `block_par` fails with `error()` on its first
/// `fail_first` calls, then blocks as `OverlapBlocker::words("name", 1)`.
struct FlakyBlocker {
    calls: Arc<AtomicU32>,
    fail_first: u32,
    error: fn() -> TableError,
}

impl Blocker for FlakyBlocker {
    fn name(&self) -> String {
        "flaky".into()
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
            return Err((self.error)());
        }
        OverlapBlocker::words("name", 1).block_par(a, b, cfg)
    }
}

/// No fault kind reaches the whole-phase retry, but a user blocker can
/// fail with a retryable I/O kind. One `Interrupted` failure is retried
/// once, sleeping the policy's first delay, to a fault-free run's
/// matches; a key violation is not retried and fails the phase as fatal.
#[test]
fn a_transient_blocker_error_retries_the_whole_phase() -> Result<(), MagellanError> {
    let s = scenario(120, 23);
    let (a, b) = (&s.table_a, &s.table_b);
    let exec = ProductionExecutor::new(2);
    let flaky = |fail_first, error| {
        let calls = Arc::new(AtomicU32::new(0));
        let blocker = FlakyBlocker {
            calls: Arc::clone(&calls),
            fail_first,
            error,
        };
        let wf = EmWorkflow {
            blocker: Box::new(blocker),
            ..workflow()
        };
        (wf, calls)
    };
    let clean = exec.run(&workflow(), a, b)?;
    assert!(!clean.matches.is_empty());

    let interrupted = || std::io::Error::new(std::io::ErrorKind::Interrupted, "blip").into();
    let (wf, calls) = flaky(1, interrupted);
    let retried = exec.run(&wf, a, b)?;
    assert_eq!(calls.load(Ordering::Relaxed), 2);
    assert_eq!(retried.matches, clean.matches);
    assert_eq!(retried.obs.counter("magellan_core_phase_retries_total"), 1);
    assert_eq!(
        retried.obs.gauge("magellan_core_sim_backoff_seconds"),
        RetryPolicy::default().delay_s(1)
    );

    let key_violation = || TableError::KeyViolation {
        table: "a".into(),
        attr: "id".into(),
        reason: "duplicate value".into(),
    };
    let (wf, calls) = flaky(u32::MAX, key_violation);
    let obs = Obs::pinned();
    let failed = {
        let _g = obs.install();
        exec.run(&wf, a, b)
    };
    assert!(
        matches!(
            failed,
            Err(MagellanError::Phase {
                phase: "blocking",
                transient: false,
                ..
            })
        ),
        "{failed:?}"
    );
    assert_eq!(calls.load(Ordering::Relaxed), 1);
    assert_eq!(
        obs.snapshot().counter("magellan_core_phase_retries_total"),
        0
    );
    Ok(())
}
