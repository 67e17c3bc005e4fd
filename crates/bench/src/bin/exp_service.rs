//! Multi-tenant service-layer experiment: throughput, p99 fragment
//! latency, and shed rate of the CloudMatcher service core under a
//! seeded Poisson arrival storm.
//!
//! Two modes:
//!
//! * **default** — drives a synthetic tenant fleet through the service
//!   (admission control, fair-share scheduling, degradation policy),
//!   asserts the run is byte-deterministic before timing, and writes
//!   `results/exp_service.txt` plus `BENCH_service.json` at the repo
//!   root (only from a full run: not under `BENCH_SMOKE=1` or
//!   `--overload-smoke`).
//! * **`--overload-smoke`** — CI's service-chaos gate: concurrent
//!   demand is pinned at ≥ 2× service capacity, and the run must shed
//!   load deterministically (stable rejection set, solo-identical
//!   accepted outcomes) under a seeded fault plan.
//!
//! `BENCH_SMOKE=1` shrinks the fleet to seconds of work.

use std::fmt::Write as _;
use std::time::Instant;

use magellan_falcon::service::{
    MatchService, Priority, ServiceConfig, ServiceReport, SyntheticTask, TenantQuota, TenantSpec,
    TenantSubmission, Workload,
};
use magellan_falcon::ScheduleRecoveryOptions;
use magellan_faults::{ArrivalPlan, FaultPlan};
use magellan_obs::{log, MetricValue, Obs, ObsSnapshot};

/// Build a seeded synthetic tenant fleet. Every number is derived from
/// the arrival plan's seed, so the fleet (and therefore the whole run)
/// is replayable.
fn fleet(seed: u64, n_tenants: u32, mean_gap_s: f64) -> Vec<TenantSubmission<'static>> {
    let plan = ArrivalPlan::poisson(seed, n_tenants, mean_gap_s);
    (0..n_tenants)
        .map(|i| {
            let crowd = i % 3 == 0;
            let quota = if i % 7 == 6 {
                // Every 7th tenant under-budgets its labeling: the
                // admission controller must bounce it.
                TenantQuota {
                    label_dollars: 1.0,
                    ..TenantQuota::unlimited()
                }
            } else {
                TenantQuota::unlimited()
            };
            TenantSubmission {
                tenant: TenantSpec {
                    name: format!("t{i}"),
                    arrival_s: plan.arrival_s(i),
                    priority: Priority::from_class(plan.priority_class(i, 3)),
                    weight: plan.weight(i, 4),
                    quota,
                    task_seed: 0x5EED_0000 + u64::from(i),
                },
                workload: Workload::Synthetic(SyntheticTask {
                    rows: (300 + 40 * (i as usize % 5), 300),
                    questions_blocking: 30 + 5 * (i as usize % 4),
                    questions_matching: 50 + 10 * (i as usize % 3),
                    n_candidates: 4_000 + 500 * (i as usize % 6),
                    crowd,
                    on_cloud: i % 2 == 0,
                }),
            }
        })
        .collect()
}

fn config(faults: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        batch_slots: 4,
        crowd_slots: 2,
        max_active_tenants: 8,
        max_queue: 16,
        recovery: ScheduleRecoveryOptions {
            faults,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Run the fleet under a pinned-clock recorder; returns the report plus
/// the recorder's snapshot.
fn run_once(cfg: &ServiceConfig, subs: &[TenantSubmission<'_>]) -> (ServiceReport, ObsSnapshot) {
    let obs = Obs::pinned();
    let report = {
        let _g = obs.install();
        MatchService::new(cfg.clone())
            .expect("valid service config")
            .run(subs)
            .expect("service run")
    };
    (report, obs.snapshot())
}

/// The service-wide p99 fragment latency (ms) from the exported
/// histogram.
fn p99_ms(snap: &ObsSnapshot) -> u64 {
    match snap.metrics.get("magellan_service_fragment_latency_ms") {
        Some(MetricValue::Histogram(h)) => h.quantile(0.99),
        _ => 0,
    }
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let overload = std::env::args().any(|a| a == "--overload-smoke");
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");

    let n_tenants: u32 = if smoke { 64 } else { 512 };
    // Overload mode packs arrivals into a window far smaller than the
    // service can drain: ≥ 2× the 8 active + 16 queued it can hold.
    let mean_gap_s = if overload { 0.5 } else { 30.0 };
    let cfg = config(FaultPlan::seeded(4242));
    let subs = fleet(17, n_tenants, mean_gap_s);

    // --- determinism gate: identical bytes before any timing ----------
    let (r1, snap) = run_once(&cfg, &subs);
    let (r2, snap_b) = run_once(&cfg, &subs);
    let (p99_a, p99_b) = (p99_ms(&snap), p99_ms(&snap_b));
    assert_eq!(
        r1.rejection_set(),
        r2.rejection_set(),
        "rejection set must replay"
    );
    assert_eq!(
        r1.makespan_s.to_bits(),
        r2.makespan_s.to_bits(),
        "simulated makespan must replay bit for bit"
    );
    assert_eq!(p99_a, p99_b, "p99 fragment latency must replay");
    for (a, b) in r1.tenants.iter().zip(&r2.tenants) {
        assert_eq!(a.outcome, b.outcome, "tenant outcomes must replay");
    }

    if overload {
        let capacity = cfg.max_active_tenants + cfg.max_queue;
        assert!(
            n_tenants as usize >= 2 * capacity,
            "overload smoke needs demand >= 2x capacity ({n_tenants} vs {capacity})"
        );
        assert!(
            r1.rejection_set().iter().any(|(_, r)| r == "queue_full"),
            "an overloaded service must shed by queue_full"
        );
        assert!(
            r1.rejection_set()
                .iter()
                .any(|(_, r)| r.contains("label_dollars")),
            "under-budgeted tenants must be bounced by quota"
        );
        // Accepted tenants keep their solo outcomes even while the
        // service sheds their neighbors.
        let solo_cfg = config(FaultPlan::seeded(4242));
        let solo = MatchService::new(solo_cfg).expect("solo service");
        for (i, t) in r1.accepted().take(8) {
            let mut one = fleet(17, n_tenants, mean_gap_s).swap_remove(i);
            one.tenant.arrival_s = 0.0;
            let rep = solo.run(std::slice::from_ref(&one)).expect("solo run");
            assert_eq!(
                t.outcome, rep.tenants[0].outcome,
                "tenant {i}: overload must not leak into outcomes"
            );
        }
        log!(
            info,
            "overload smoke OK: {} rejected of {n_tenants}",
            r1.rejection_set().len()
        );
    }

    // --- timing: wall-clock throughput of the service simulator -------
    let reps = if smoke { 3 } else { 10 };
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let (r, _) = run_once(&cfg, &subs);
            std::hint::black_box(r.makespan_s);
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let wall_s = samples[samples.len() / 2];

    let tenants = |what: &str| snap.counter(&format!("magellan_service_tenants_{what}_total"));
    let (admitted, queued, rejected, completed) = (
        tenants("admitted"),
        tenants("queued"),
        tenants("rejected"),
        tenants("completed"),
    );
    let tenants_per_sec = if wall_s > 0.0 {
        completed as f64 / wall_s
    } else {
        0.0
    };
    let shed_rate = r1.shed_rate();

    let mut txt = String::new();
    writeln!(
        txt,
        "Multi-tenant service — {n_tenants} tenants, mean gap {mean_gap_s}s, {} active + {} queue slots",
        cfg.max_active_tenants, cfg.max_queue
    )
    .unwrap();
    writeln!(
        txt,
        "admitted/queued/rejected: {admitted}/{queued}/{rejected}"
    )
    .unwrap();
    writeln!(txt, "completed:        {completed:>8}").unwrap();
    writeln!(txt, "sim makespan:     {:>11.1} s", r1.makespan_s).unwrap();
    writeln!(
        txt,
        "wall per run:     {:>11.2} ms (median of {reps})",
        wall_s * 1e3
    )
    .unwrap();
    writeln!(txt, "tenants/sec:      {:>11.0} (wall)", tenants_per_sec).unwrap();
    writeln!(txt, "p99 frag latency: {:>8} ms (simulated)", p99_a).unwrap();
    writeln!(txt, "crowd shed rate:  {:>11.3}", shed_rate).unwrap();
    writeln!(
        txt,
        "determinism: two runs byte-identical (rejections, outcomes, makespan, p99)"
    )
    .unwrap();
    log!(info, "{txt}");
    // A smoke or overload run's figures are not the checked-in results.
    if smoke || overload {
        return;
    }
    // Best-effort writes (a read-only checkout is fine).
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/exp_service.txt", &txt);

    let json = format!(
        "{{\n  \"experiment\": \"service_layer\",\n  \"workload\": {{\"n_tenants\": {n_tenants}, \"mean_gap_s\": {mean_gap_s}, \"overload\": {overload}, \"smoke\": {smoke}}},\n  \"capacity\": {{\"batch_slots\": {}, \"crowd_slots\": {}, \"max_active_tenants\": {}, \"max_queue\": {}}},\n  \"admitted\": {},\n  \"queued\": {},\n  \"rejected\": {},\n  \"completed\": {},\n  \"sim_makespan_s\": {:.3},\n  \"wall_ms_median\": {:.3},\n  \"tenants_per_sec\": {:.1},\n  \"p99_fragment_latency_ms\": {},\n  \"shed_rate\": {:.4}\n}}\n",
        cfg.batch_slots,
        cfg.crowd_slots,
        cfg.max_active_tenants,
        cfg.max_queue,
        admitted,
        queued,
        rejected,
        completed,
        r1.makespan_s,
        wall_s * 1e3,
        tenants_per_sec,
        p99_a,
        shed_rate,
    );
    let _ = std::fs::write("BENCH_service.json", json);
    log!(info, "wrote results/exp_service.txt and BENCH_service.json");
}
