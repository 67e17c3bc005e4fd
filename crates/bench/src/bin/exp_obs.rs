//! Observability overhead + trace-validation experiment.
//!
//! Two modes:
//!
//! * **default** — measures the full production pipeline with no
//!   recorder installed (every obs call a thread-local-read no-op) vs.
//!   with a wall recorder installed and recording, verifies the
//!   pinned-clock byte-identity contract at 1 and 8 workers, guards the
//!   recording overhead, and writes `results/exp_obs.txt` plus
//!   `BENCH_obs.json` at the repo root.
//! * **`--validate <trace.json>`** — parses a Chrome trace exported via
//!   `MAGELLAN_TRACE` and asserts it carries the expected nested phase
//!   spans (CI's trace gate). Exits non-zero on any violation.

use std::fmt::Write as _;
use std::time::Instant;

use magellan_block::OverlapBlocker;
use magellan_core::exec::ProductionExecutor;
use magellan_core::par::ParConfig;
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::model::ConstantClassifier;
use magellan_obs::{log, Obs};

/// Recording must not cost more than this fraction of the untraced
/// pipeline (generous to absorb CI machine noise; local runs come in far
/// below it — the recorded figure lands in `BENCH_obs.json`).
const MAX_OVERHEAD: f64 = 0.50;

/// Phase spans every production trace must carry.
const REQUIRED_SPANS: [&str; 5] = ["run", "blocking", "matching", "score", "chunk"];

fn scenario(n: usize) -> EmScenario {
    persons(&ScenarioConfig {
        size_a: n,
        size_b: n,
        n_matches: n / 4,
        dirt: DirtModel::light(),
        seed: 23,
    })
}

fn workflow() -> EmWorkflow {
    EmWorkflow {
        blocker: Box::new(OverlapBlocker::words("name", 1)),
        features: vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
            Feature::new("city", "city", FeatureKind::ExactMatch),
        ],
        matcher: Box::new(ConstantClassifier { proba: 1.0 }),
        rule_layer: RuleLayer::empty(),
        threshold: 0.5,
        plan: Default::default(),
    }
}

fn time_secs(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `--validate <path>`: parse a `MAGELLAN_TRACE` export and assert the
/// production span hierarchy made it out intact.
fn validate(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read trace {path:?}: {e}"));
    let json = magellan_obs::parse_json(&text)
        .unwrap_or_else(|e| panic!("trace {path:?} is not valid JSON: {e}"));
    let events = json
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("trace {path:?} has no traceEvents array"));
    assert!(!events.is_empty(), "trace {path:?} is empty");

    let mut max_depth = 0u64;
    let mut names: Vec<&str> = Vec::new();
    for ev in events {
        let Some(name) = ev.get("name").and_then(|v| v.as_str()) else {
            continue;
        };
        if ev.get("ph").and_then(|v| v.as_str()) == Some("X") {
            names.push(name);
            if let Some(d) = ev.get("args").and_then(|a| a.get("depth")).and_then(|v| v.as_f64())
            {
                max_depth = max_depth.max(d as u64);
            }
        }
    }
    for want in REQUIRED_SPANS {
        assert!(
            names.iter().any(|n| *n == want),
            "trace {path:?} is missing {want:?} spans (has: {names:?})"
        );
    }
    assert!(
        max_depth >= 4,
        "trace {path:?} nests only {max_depth} span levels, expected ≥ 4"
    );
    log!(
        info,
        "trace {path} OK: {} complete spans, max depth {max_depth}, all of {REQUIRED_SPANS:?} present",
        names.len()
    );
}

/// `--validate-flight <path>`: parse a `MAGELLAN_FLIGHT_DUMP` artifact
/// and assert the post-mortem schema: version marker, seed keying, at
/// least one captured failure, and no worker count in the body (worker
/// count keys the artifact *path* only, so bodies stay byte-identical
/// across worker counts).
fn validate_flight(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read flight dump {path:?}: {e}"));
    let json = magellan_obs::parse_json(&text)
        .unwrap_or_else(|e| panic!("flight dump {path:?} is not valid JSON: {e}"));
    assert_eq!(
        json.get("magellan_flight").and_then(|v| v.as_f64()),
        Some(1.0),
        "flight dump {path:?} is missing the version marker"
    );
    assert!(json.get("seed").is_some(), "flight dump {path:?} is not keyed by seed");
    assert!(
        json.get("workers").is_none(),
        "flight dump {path:?} leaked the worker count into the body"
    );
    let failures = json
        .get("failure_events")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("flight dump {path:?} has no failure_events array"));
    assert!(!failures.is_empty(), "flight dump {path:?} captured no failures");
    for f in failures {
        assert!(
            f.get("reason").and_then(|v| v.as_str()).is_some(),
            "failure event without a reason in {path:?}"
        );
    }
    let spans = json.get("spans").and_then(|v| v.as_array()).map_or(0, <[_]>::len);
    log!(
        info,
        "flight dump {path} OK: {} failure event(s), {spans} recent span(s), seed {}",
        failures.len(),
        json.get("seed").and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
    );
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--validate") {
        let path = args.get(2).expect("--validate needs a trace path");
        validate(path);
        return;
    }
    if args.get(1).map(String::as_str) == Some("--validate-flight") {
        let path = args.get(2).expect("--validate-flight needs a dump path");
        validate_flight(path);
        return;
    }

    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let n = if smoke { 250 } else { 1200 };
    let reps = if smoke { 2 } else { 5 };
    let s = scenario(n);
    let wf = workflow();
    let exec = ProductionExecutor::new(4);

    // --- determinism smoke: pinned exports are byte-identical ----------
    let pinned_run = |workers: usize| {
        let obs = Obs::pinned();
        let _g = obs.install();
        ProductionExecutor::new(workers)
            .with_chunk_size(16)
            .run(&wf, &s.table_a, &s.table_b)
            .expect("pinned run");
        let snap = obs.snapshot();
        (snap.to_prometheus(), snap.to_chrome_trace())
    };
    let (prom1, trace1) = pinned_run(1);
    let (prom8, trace8) = pinned_run(8);
    assert_eq!(prom1, prom8, "pinned Prometheus export diverged across worker counts");
    assert_eq!(trace1, trace8, "pinned Chrome trace diverged across worker counts");

    // --- overhead: untraced (no recorder) vs. recording wall tracing ---
    // Time the raw phase calls, not the executor: the executor installs
    // its own recorder when none is ambient (its report always carries a
    // snapshot), whereas the library phases only record when a recorder
    // is installed — which is exactly the on/off contrast to measure.
    let cfg = ParConfig::workers(4);
    let run_phases = |wf: &EmWorkflow| {
        let (cands, _) = wf
            .blocker
            .block_par(&s.table_a, &s.table_b, &cfg)
            .expect("blocking");
        let pairs = cands.pairs();
        let (matrix, _) = magellan_features::extract_feature_matrix_par(
            pairs,
            &s.table_a,
            &s.table_b,
            &wf.features,
            &cfg,
        )
        .expect("extraction");
        let (predicted, _) = magellan_par::map_indexed(matrix.len(), &cfg, |i| {
            wf.matcher.predict_proba(&matrix.rows[i]) >= wf.threshold
        });
        std::hint::black_box((matrix.len(), predicted.len()));
    };
    run_phases(&wf); // warm-up: allocator + caches settle before timing
    // Interleave the two arms (off, on, off, on, ...) so slow machine-wide
    // drift — thermal throttling, page-cache churn, a neighbour process —
    // lands on both equally instead of biasing whichever arm ran second,
    // and take the min of reps: the minimum is the classic noise-floor
    // estimator (noise only ever adds time). Recording genuinely cannot
    // make the pipeline faster, so the ratio is clamped at zero — an
    // unclamped negative figure would just be residual measurement noise.
    let obs = Obs::wall();
    let mut t_off = f64::INFINITY;
    let mut t_on = f64::INFINITY;
    for _ in 0..reps {
        t_off = t_off.min(time_secs(|| run_phases(&wf)));
        t_on = t_on.min(time_secs(|| {
            let _g = obs.install();
            let _run = magellan_obs::span("run", 0);
            run_phases(&wf);
        }));
    }
    let overhead = if t_off > 0.0 { (t_on / t_off - 1.0).max(0.0) } else { 0.0 };

    // --- trace volume: one executor run on a fresh recorder -----------
    let vol = Obs::wall();
    let report = {
        let _g = vol.install();
        exec.run(&wf, &s.table_a, &s.table_b).expect("traced run")
    };
    let snap = report.obs;
    drop(vol);

    assert!(
        overhead < MAX_OVERHEAD,
        "observability overhead {:.1}% blew the {:.0}% guard (off {:.1} ms, on {:.1} ms)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0,
        t_off * 1e3,
        t_on * 1e3,
    );

    let mut txt = String::new();
    writeln!(
        txt,
        "Observability overhead — {n} x {n} tuples, 4 workers, {reps} interleaved reps"
    )
    .unwrap();
    writeln!(txt, "untraced run:  {:>9.2} ms (min of reps)", t_off * 1e3).unwrap();
    writeln!(txt, "traced run:    {:>9.2} ms (min of reps)", t_on * 1e3).unwrap();
    writeln!(txt, "overhead:      {:>8.1}% (guard {:.0}%)", overhead * 100.0, MAX_OVERHEAD * 100.0)
        .unwrap();
    writeln!(
        txt,
        "trace volume:  {} spans, {} events, {} metric families per run",
        snap.spans.len(),
        snap.events.len(),
        snap.metrics.len()
    )
    .unwrap();
    writeln!(txt, "pinned determinism: exports byte-identical at 1 and 8 workers").unwrap();
    log!(info, "{txt}");
    let _ = std::fs::create_dir_all("results");
    std::fs::write("results/exp_obs.txt", &txt).expect("write results/exp_obs.txt");

    if !smoke {
        let json = format!(
            "{{\n  \"experiment\": \"obs_overhead\",\n  \"workload\": {{\"rows_a\": {n}, \"rows_b\": {n}, \"workers\": 4, \"reps\": {reps}, \"smoke\": {smoke}, \"n_candidates\": {}}},\n  \"untraced_ms\": {:.3},\n  \"traced_ms\": {:.3},\n  \"overhead_pct\": {:.2},\n  \"guard_pct\": {:.0},\n  \"trace\": {{\"spans\": {}, \"events\": {}, \"metric_families\": {}, \"max_span_depth\": {}}},\n  \"pinned_byte_identical_workers\": [1, 8]\n}}\n",
            report.n_candidates,
            t_off * 1e3,
            t_on * 1e3,
            overhead * 100.0,
            MAX_OVERHEAD * 100.0,
            snap.spans.len(),
            snap.events.len(),
            snap.metrics.len(),
            snap.max_depth(),
        );
        std::fs::write("BENCH_obs.json", json).expect("write BENCH_obs.json");
        log!(info, "wrote results/exp_obs.txt and BENCH_obs.json");
    } else {
        log!(info, "smoke mode: wrote results/exp_obs.txt only");
    }
}
