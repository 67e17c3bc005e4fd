//! Determinism contract for the v2 observability layer: the
//! [`ObsProfile`] collapsed-stack export and the flight-recorder dump
//! are **byte-identical at any worker count** under a pinned clock —
//! across the post-PR-5 tiers (stream sessions, the multi-tenant
//! service) and under injected faults, where the flight recorder must
//! leave a parseable post-mortem artifact.

use magellan_block::OverlapBlocker;
use magellan_core::checkpoint::MemStore;
use magellan_core::exec::{ProductionExecutor, RecoveryOptions};
use magellan_core::rules::RuleLayer;
use magellan_core::{EmWorkflow, StreamSession, TextGen};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_falcon::service::{
    MatchService, Priority, ServiceConfig, SyntheticTask, TenantQuota, TenantSpec,
    TenantSubmission, Workload,
};
use magellan_falcon::ScheduleRecoveryOptions;
use magellan_faults::{ArrivalPlan, FaultPlan, SimClock, StreamPlan};
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::model::ConstantClassifier;
use magellan_ml::{Dataset, FlatForest, RandomForestLearner};
use magellan_obs::{Obs, ObsSnapshot};
use magellan_par::ParConfig;
use magellan_simjoin::SetSimMeasure;

/// Chunk size pinned for every run: chunk spans must not depend on the
/// worker count (the default chunk size adapts to it).
const CHUNK: usize = 16;

fn par(workers: usize) -> ParConfig {
    let mut cfg = ParConfig::workers(workers);
    cfg.chunk_size = Some(CHUNK);
    cfg
}

// ---------------------------------------------------------------------
// Stream sessions
// ---------------------------------------------------------------------

fn stream_forest() -> FlatForest {
    let mut d = Dataset::with_dims(2);
    for i in 0..60 {
        let hi = i % 2 == 0;
        let base = if hi { 0.8 } else { 0.15 };
        d.push(&[base + 0.01 * (i % 7) as f64, base + 0.01 * ((i + 3) % 5) as f64], hi);
    }
    FlatForest::from_forest(
        &RandomForestLearner {
            n_trees: 5,
            ..Default::default()
        }
        .fit_forest(&d),
    )
}

/// Drive a seeded churn stream under a pinned recorder and export.
fn stream_pinned(workers: usize) -> ObsSnapshot {
    let obs = Obs::pinned();
    let _g = obs.install();
    let mut session = StreamSession::new(
        SetSimMeasure::Jaccard(0.4),
        vec![
            Feature::new("text", "text", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("text", "text", FeatureKind::Dice(TokSpecF::Word)),
        ],
        stream_forest(),
        0.5,
        par(workers),
    );
    let plan = StreamPlan::churn(7);
    let gen = TextGen {
        vocab: 12,
        min_tokens: 4,
        max_tokens: 7,
    };
    let mut clock = SimClock::new();
    for _ in 0..6 {
        session.run_plan_batch(&plan, &gen, 8, &mut clock, 1.0).expect("stream batch");
    }
    assert!(session.n_candidates() > 0, "fixture too sparse to exercise the stream");
    obs.snapshot()
}

#[test]
fn stream_session_pinned_exports_are_byte_identical_across_worker_counts() {
    let snap1 = stream_pinned(1);
    let prom1 = snap1.to_prometheus();
    let trace1 = snap1.to_chrome_trace();
    let prof1 = snap1.profile().to_collapsed();

    // The new StreamSession phase spans made it into the trace, and the
    // ingest profile attributes self-time to each phase.
    for name in ["delta_join", "mirror_mutations", "patch_candidates", "rescore_dirty"] {
        assert!(
            !snap1.spans_named(name).is_empty(),
            "missing stream phase span {name:?}"
        );
        assert!(prof1.contains(name), "profile lost stream phase {name:?}");
    }

    let snap8 = stream_pinned(8);
    assert_eq!(snap8.to_prometheus(), prom1, "stream Prometheus diverged at 8 workers");
    assert_eq!(snap8.to_chrome_trace(), trace1, "stream Chrome trace diverged at 8 workers");
    assert_eq!(snap8.profile().to_collapsed(), prof1, "stream profile diverged at 8 workers");
}

// ---------------------------------------------------------------------
// Service overload
// ---------------------------------------------------------------------

/// A seeded fleet packed far past the service's capacity, with an SLO
/// tight enough that violations are guaranteed — the flight recorder
/// must capture them.
fn overload_fleet(n: u32) -> Vec<TenantSubmission<'static>> {
    let plan = ArrivalPlan::poisson(17, n, 0.5);
    (0..n)
        .map(|i| TenantSubmission {
            tenant: TenantSpec {
                name: format!("t{i}"),
                arrival_s: plan.arrival_s(i),
                priority: Priority::from_class(plan.priority_class(i, 3)),
                weight: plan.weight(i, 4),
                quota: TenantQuota::unlimited(),
                task_seed: 0x5EED_0000 + u64::from(i),
            },
            workload: Workload::Synthetic(SyntheticTask {
                rows: (300 + 40 * (i as usize % 5), 300),
                questions_blocking: 30,
                questions_matching: 50,
                n_candidates: 4_000 + 500 * (i as usize % 6),
                crowd: i % 3 == 0,
                on_cloud: i % 2 == 0,
            }),
        })
        .collect()
}

fn service_pinned() -> (Obs, ObsSnapshot) {
    let obs = Obs::pinned();
    let snap = {
        let _g = obs.install();
        let cfg = ServiceConfig {
            batch_slots: 2,
            crowd_slots: 1,
            max_active_tenants: 4,
            max_queue: 24,
            slo_p99_ms: 1, // unmeetable: every accepted tenant violates
            recovery: ScheduleRecoveryOptions {
                faults: FaultPlan::seeded(4242),
                ..Default::default()
            },
            ..Default::default()
        };
        MatchService::new(cfg)
            .expect("service config")
            .run(&overload_fleet(24))
            .expect("service run");
        obs.snapshot()
    };
    (obs, snap)
}

#[test]
fn service_overload_pinned_exports_and_flight_dump_are_byte_identical() {
    let (obs1, snap1) = service_pinned();
    let prom1 = snap1.to_prometheus();
    let trace1 = snap1.to_chrome_trace();
    let dump1 = obs1.flight_dump_json();

    // SLO violations fired and were captured as flight failures.
    assert!(obs1.failure_count() > 0, "overload fleet produced no SLO violations");
    assert!(dump1.contains("slo_violation"), "flight dump lost the SLO failures");
    let parsed = magellan_obs::parse_json(&dump1).expect("flight dump parses");
    assert_eq!(parsed.get("magellan_flight").and_then(|v| v.as_f64()), Some(1.0));
    assert!(parsed.get("seed").is_some(), "dump must be keyed by seed");
    // Worker count keys the artifact *path*, never the body — the body
    // stays byte-identical across worker counts.
    assert!(parsed.get("workers").is_none());

    // The whole service run is a deterministic simulation: a second run
    // reproduces every export byte (the cross-run face of the contract;
    // the service itself holds no real threads to vary).
    let (obs2, snap2) = service_pinned();
    assert_eq!(snap2.to_prometheus(), prom1, "service Prometheus diverged across runs");
    assert_eq!(snap2.to_chrome_trace(), trace1, "service Chrome trace diverged across runs");
    assert_eq!(obs2.flight_dump_json(), dump1, "service flight dump diverged across runs");
}

/// The service's exported bytes, pinned as `(length, FNV-1a)` per
/// artifact: a change to how the service places fragments must move
/// none of them.
#[test]
fn service_overload_export_digests_are_pinned() {
    let (obs, snap) = service_pinned();
    let digest = |s: String| (s.len(), magellan_obs::fnv1a(s.as_bytes()));
    let got = [
        digest(snap.to_prometheus()),
        digest(snap.to_chrome_trace()),
        digest(obs.flight_dump_json()),
    ];
    assert_eq!(
        got,
        [
            (16612, 13706505008999654319),
            (43646, 4238898477438466989),
            (37514, 1321562135057017652),
        ]
    );
}

// ---------------------------------------------------------------------
// Profile + flight dump across worker counts, under injected faults
// ---------------------------------------------------------------------

fn scenario() -> EmScenario {
    persons(&ScenarioConfig {
        size_a: 160,
        size_b: 160,
        n_matches: 50,
        dirt: DirtModel::light(),
        seed: 33,
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

/// Fault-injected recovery run (plan stays inside the retry budget) under
/// a pinned recorder; returns the recorder for flight access plus the
/// snapshot.
fn run_pinned_faulted(workers: usize, s: &EmScenario) -> (Obs, ObsSnapshot) {
    magellan_core::par::silence_contained_panics();
    let obs = Obs::pinned();
    let snap = {
        let _g = obs.install();
        let mut store = MemStore::default();
        let opts = RecoveryOptions {
            faults: FaultPlan::seeded(99),
            ..RecoveryOptions::default()
        };
        let report = ProductionExecutor::new(workers)
            .with_chunk_size(CHUNK)
            .run_with_recovery(&workflow(), &s.table_a, &s.table_b, &mut store, &opts)
            .expect("recovery run");
        assert!(report.recovery.panics_contained > 0, "fault plan never fired");
        obs.snapshot()
    };
    (obs, snap)
}

#[test]
fn profile_and_flight_dump_are_byte_identical_at_1_2_4_8_workers() {
    let s = scenario();
    let (obs1, snap1) = run_pinned_faulted(1, &s);
    let folded1 = snap1.profile().to_collapsed();
    let dump1 = obs1.flight_dump_json();

    // Contained panics were captured as flight failures with their chunk
    // coordinates, and the profile attributes the retry level.
    assert!(obs1.failure_count() > 0);
    assert!(dump1.contains("panic_contained"));
    assert!(folded1.contains("retry"), "profile lost the retry level:\n{folded1}");
    // Collapsed lines are "path self_ns" and the tree roots at `run`.
    assert!(folded1.lines().all(|l| l.rsplit_once(' ').is_some()));
    assert!(folded1.starts_with("run "));

    for workers in [2, 4, 8] {
        let (obsw, snapw) = run_pinned_faulted(workers, &s);
        assert_eq!(
            snapw.profile().to_collapsed(),
            folded1,
            "collapsed profile diverged at {workers} workers"
        );
        assert_eq!(
            obsw.flight_dump_json(),
            dump1,
            "flight dump diverged at {workers} workers"
        );
    }
}

#[test]
fn flight_dump_file_is_keyed_by_seed_and_workers_in_the_path() {
    let s = scenario();
    let (obs, _snap) = run_pinned_faulted(4, &s);
    let dir = std::env::temp_dir().join(format!("magellan_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tmpl = dir.join("flight_{seed}_w{workers}.json");
    let path = obs
        .write_flight_dump(tmpl.to_str().expect("utf8 temp path"))
        .expect("flight dump writes");
    // The template placeholders resolved to the run context…
    assert!(path.contains("flight_99_w4.json"), "unexpected artifact path {path}");
    // …and the artifact body is the canonical dump, parseable as JSON.
    // (No byte-compare against a fresh `flight_dump_json` here: each dump
    // advances the counter-delta baseline, so a second dump legitimately
    // reports zero deltas.)
    let body = std::fs::read_to_string(&path).expect("artifact readable");
    let parsed = magellan_obs::parse_json(&body).expect("artifact parses");
    assert_eq!(parsed.get("magellan_flight").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(parsed.get("seed").and_then(|v| v.as_f64()), Some(99.0));
    assert!(parsed
        .get("failure_events")
        .and_then(|v| v.as_array())
        .is_some_and(|a| !a.is_empty()));
    let _ = std::fs::remove_dir_all(&dir);
}
