//! The observability determinism contract, enforced end to end:
//! under a **pinned clock** and a **fixed chunk size**, the
//! [`ObsSnapshot`] embedded in every [`ProductionReport`] exports
//! **byte-identical** Prometheus text and Chrome-trace JSON at any
//! worker count — including under an injected fault plan that stays
//! inside the retry budget — and the exported trace nests at least
//! four span levels (`run → phase → chunk → retry`).

use magellan_block::OverlapBlocker;
use magellan_core::checkpoint::MemStore;
use magellan_core::exec::{ProductionExecutor, ProductionReport, RecoveryOptions};
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_faults::FaultPlan;
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::model::ConstantClassifier;
use magellan_obs::{Obs, ObsSnapshot};

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

/// Chunk size pinned for every run: chunk spans and chunk counters must
/// not depend on the worker count.
const CHUNK: usize = 16;

/// Fault-free production run under a pinned recorder.
fn run_pinned(workers: usize, s: &EmScenario) -> (ProductionReport, ObsSnapshot) {
    let obs = Obs::pinned();
    let _g = obs.install();
    let report = ProductionExecutor::new(workers)
        .with_chunk_size(CHUNK)
        .run(&workflow(), &s.table_a, &s.table_b)
        .expect("production run");
    let snap = obs.snapshot();
    (report, snap)
}

/// Fault-injected recovery run under a pinned recorder. The seeded plan
/// stays inside the retry budget (`max_failures_per_site = 2` vs.
/// `chunk_retries = 3`), so every chunk heals in-worker and the fault
/// stream — keyed by `(region, chunk, attempt)` — is itself
/// worker-count-invariant.
fn run_pinned_faulted(workers: usize, s: &EmScenario) -> (ProductionReport, ObsSnapshot) {
    magellan_core::par::silence_contained_panics();
    let obs = Obs::pinned();
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
    let snap = obs.snapshot();
    (report, snap)
}

#[test]
fn pinned_exports_are_byte_identical_across_worker_counts() {
    let s = scenario();
    let (r1, snap1) = run_pinned(1, &s);
    let prom1 = snap1.to_prometheus();
    let trace1 = snap1.to_chrome_trace();
    assert!(!prom1.is_empty());
    assert!(!trace1.is_empty());

    for workers in [2, 8] {
        let (rw, snapw) = run_pinned(workers, &s);
        assert_eq!(rw.matches, r1.matches, "{workers} workers changed matches");
        assert_eq!(
            snapw.to_prometheus(),
            prom1,
            "Prometheus export diverged at {workers} workers"
        );
        assert_eq!(
            snapw.to_chrome_trace(),
            trace1,
            "Chrome trace diverged at {workers} workers"
        );
    }

    // Same worker count twice: identical too (no hidden wall-clock).
    let (_, again) = run_pinned(8, &s);
    assert_eq!(again.to_prometheus(), prom1);
    assert_eq!(again.to_chrome_trace(), trace1);
}

#[test]
fn report_snapshot_matches_ambient_recorder() {
    let s = scenario();
    let obs = Obs::pinned();
    let _g = obs.install();
    let report = ProductionExecutor::new(4)
        .with_chunk_size(CHUNK)
        .run(&workflow(), &s.table_a, &s.table_b)
        .expect("run");
    // The executor snapshots the ambient recorder into the report.
    assert_eq!(report.obs.to_prometheus(), obs.snapshot().to_prometheus());
    assert!(report.obs.counter("magellan_core_candidates_total") > 0);
    assert_eq!(
        report.obs.counter("magellan_core_matches_total"),
        report.matches.len() as u64
    );
    assert_eq!(
        report.obs.counter("magellan_par_items_total{phase=\"blocking\"}"),
        report.counters.blocking.items as u64
    );
}

#[test]
fn trace_nests_at_least_four_span_levels() {
    let s = scenario();
    let (_, snap) = run_pinned(4, &s);
    // run → matching → score → chunk is four levels even fault-free.
    assert!(
        snap.max_depth() >= 4,
        "expected ≥4 nested span levels, got {}",
        snap.max_depth()
    );
    for name in ["run", "blocking", "matching", "score", "chunk"] {
        assert!(
            !snap.spans_named(name).is_empty(),
            "missing {name:?} spans in the trace"
        );
    }
    // Chunk spans are parented under phases, and the Chrome export
    // carries every span name.
    let trace = snap.to_chrome_trace();
    for name in ["run", "blocking", "score", "chunk"] {
        assert!(trace.contains(&format!("\"name\":\"{name}\"")));
    }
    // The export is valid JSON with the trace_event envelope.
    let parsed = magellan_obs::parse_json(&trace).expect("trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() >= snap.spans.len());
}

#[test]
fn faulted_pinned_exports_are_byte_identical_and_show_retries() {
    let s = scenario();
    let (r1, snap1) = run_pinned_faulted(1, &s);
    let prom1 = snap1.to_prometheus();
    let trace1 = snap1.to_chrome_trace();

    // The plan actually fired and healed inside workers.
    assert!(r1.recovery.panics_contained > 0, "{:?}", r1.recovery);
    assert_eq!(r1.recovery.worker_deaths, 0, "plan must stay under budget");
    assert!(!snap1.spans_named("retry").is_empty(), "retry spans missing");
    assert!(!snap1.events_named("fault_injected").is_empty());
    assert!(!snap1.events_named("retry_scheduled").is_empty());
    assert!(!snap1.events_named("checkpoint_written").is_empty());
    // With retries the blocking path alone nests run → blocking → chunk
    // → retry; the matching path adds the score level.
    assert!(snap1.max_depth() >= 4, "depth {}", snap1.max_depth());

    for workers in [2, 8] {
        let (rw, snapw) = run_pinned_faulted(workers, &s);
        assert_eq!(rw.matches, r1.matches, "{workers} workers changed matches");
        assert_eq!(
            snapw.to_prometheus(),
            prom1,
            "faulted Prometheus export diverged at {workers} workers"
        );
        assert_eq!(
            snapw.to_chrome_trace(),
            trace1,
            "faulted Chrome trace diverged at {workers} workers"
        );
    }
}
