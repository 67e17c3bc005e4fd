//! The chaos suite: the determinism contract under fault injection.
//!
//! Each test drives the full EM production pipeline (blocking → feature
//! extraction → prediction → rule layer) under seeded
//! [`magellan_faults::FaultPlan`]s that inject chunk panics, transient
//! checkpoint I/O failures, fragment failures, and stragglers — and
//! asserts the **recovery contract**:
//!
//! 1. no panic escapes the executor;
//! 2. every run completes;
//! 3. the match set, candidate count, and P/R/F1 are **bit-identical**
//!    to the fault-free golden run;
//! 4. a run killed after any phase resumes from its checkpoint to an
//!    identical final report;
//! 5. worker count remains irrelevant under faults.
//!
//! The number of seeds defaults to 8 and can be raised with the
//! `CHAOS_SEEDS` environment variable (the CI chaos job sets it).

use std::collections::HashSet;

use magellan_block::OverlapBlocker;
use magellan_core::checkpoint::{Checkpoint, CheckpointStore, FlakyStore, MemStore, Phase};
use magellan_core::error::MagellanError;
use magellan_core::evaluate::evaluate_matches;
use magellan_core::exec::{ProductionExecutor, ProductionReport, RecoveryOptions};
use magellan_core::rules::{Cmp, MatchRule, RuleLayer};
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_faults::{FaultPlan, RetryPolicy};
use magellan_features::{Feature, FeatureKind, TokSpecF};
use magellan_ml::model::ConstantClassifier;

/// Fault seeds exercised per test: `CHAOS_SEEDS` (count) or 8.
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    (0..n.max(1)).map(|i| 1000 + 37 * i).collect()
}

fn scenario(seed: u64) -> EmScenario {
    persons(&ScenarioConfig {
        size_a: 300,
        size_b: 300,
        n_matches: 100,
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
            Feature::new("city", "city", FeatureKind::ExactMatch),
        ],
        matcher: Box::new(ConstantClassifier { proba: 1.0 }),
        rule_layer: RuleLayer::new(vec![MatchRule::reject(
            "weak",
            vec![(
                "jaccard(word(A.name), word(B.name))".into(),
                Cmp::Lt,
                0.5,
            )],
        )]),
        threshold: 0.5,
        plan: Default::default(),
    }
}

/// P/R/F1 of a report against the scenario's gold, for bit-identity
/// comparison between golden and chaos runs.
fn metrics(report: &ProductionReport, s: &EmScenario) -> (f64, f64, f64) {
    let gold: &HashSet<(String, String)> = &s.gold;
    let m = evaluate_matches(&report.matches, &s.table_a, &s.table_b, "id", "id", gold)
        .expect("evaluation");
    (m.precision(), m.recall(), m.f1())
}

#[test]
fn seeded_fault_plans_heal_to_bit_identical_results() {
    magellan_core::par::silence_contained_panics();
    let s = scenario(21);
    let wf = workflow();
    let exec = ProductionExecutor::new(4);
    let golden = exec.run(&wf, &s.table_a, &s.table_b).expect("golden run");
    let golden_prf = metrics(&golden, &s);
    assert!(golden_prf.2 > 0.0, "golden run should find matches");

    let mut any_panic_contained = false;
    let mut any_store_retry = false;
    for seed in seeds() {
        let plan = FaultPlan::seeded(seed);
        let mut store = FlakyStore::new(MemStore::new(), plan);
        let opts = RecoveryOptions {
            faults: plan,
            ..RecoveryOptions::default()
        };
        let rec = exec
            .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
            .unwrap_or_else(|e| panic!("chaos seed {seed} must complete, got: {e}"));
        assert_eq!(
            rec.matches, golden.matches,
            "seed {seed}: match set must be bit-identical"
        );
        assert_eq!(rec.n_candidates, golden.n_candidates, "seed {seed}");
        let prf = metrics(&rec, &s);
        assert_eq!(prf, golden_prf, "seed {seed}: P/R/F1 must be bit-identical");
        any_panic_contained |= rec.recovery.panics_contained > 0;
        any_store_retry |= rec.recovery.store_retries > 0;
        // The durable checkpoint reflects the finished run.
        let ck = loop {
            match store.load_bytes() {
                Ok(bytes) => break Checkpoint::from_bytes(&bytes.expect("checkpoint")).unwrap(),
                Err(e) => assert!(e.transient()),
            }
        };
        match ck {
            Checkpoint::Done {
                matches,
                n_candidates,
            } => {
                assert_eq!(n_candidates, golden.n_candidates);
                assert_eq!(matches, golden.matches.pairs().to_vec());
            }
            other => panic!("expected Done checkpoint, got {other:?}"),
        }
    }
    assert!(
        any_panic_contained,
        "across all seeds at least one chunk panic should have been injected"
    );
    assert!(
        any_store_retry,
        "across all seeds at least one checkpoint I/O blip should have been injected"
    );
}

#[test]
fn kill_and_resume_is_identical_under_faults() {
    magellan_core::par::silence_contained_panics();
    let s = scenario(22);
    let wf = workflow();
    let exec = ProductionExecutor::new(3);
    let golden = exec.run(&wf, &s.table_a, &s.table_b).expect("golden run");

    for seed in seeds().into_iter().take(4) {
        let plan = FaultPlan::seeded(seed);
        for kill_phase in [Phase::Blocking, Phase::Matching] {
            let mut store = FlakyStore::new(MemStore::new(), plan);
            let opts = RecoveryOptions {
                faults: plan,
                kill_after: Some(kill_phase),
                ..RecoveryOptions::default()
            };
            let err = exec
                .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
                .expect_err("kill hook must fire");
            let MagellanError::Killed { after_phase } = err else {
                panic!("seed {seed}: expected Killed, got {err}");
            };
            assert_eq!(after_phase, kill_phase.name());

            // The rerun resumes from the checkpoint the kill left behind
            // and finishes with a bit-identical report.
            let opts = RecoveryOptions {
                faults: plan,
                ..RecoveryOptions::default()
            };
            let resumed = exec
                .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}: resume must complete: {e}"));
            assert_eq!(resumed.recovery.resumed_from, Some(kill_phase));
            assert_eq!(
                resumed.matches, golden.matches,
                "seed {seed}: resumed matches must equal golden"
            );
            assert_eq!(resumed.n_candidates, golden.n_candidates);
        }
    }
}

#[test]
fn worker_count_is_irrelevant_under_faults() {
    magellan_core::par::silence_contained_panics();
    let s = scenario(23);
    let wf = workflow();
    let plan = FaultPlan::seeded(4242);

    let mut reference: Option<ProductionReport> = None;
    for n_workers in [1usize, 2, 4, 8] {
        let mut store = FlakyStore::new(MemStore::new(), plan);
        let opts = RecoveryOptions {
            faults: plan,
            ..RecoveryOptions::default()
        };
        let rec = ProductionExecutor::new(n_workers)
            .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
            .unwrap_or_else(|e| panic!("{n_workers} workers must complete: {e}"));
        match &reference {
            None => reference = Some(rec),
            Some(r) => {
                assert_eq!(
                    rec.matches, r.matches,
                    "{n_workers} workers: fault recovery must be worker-count invariant"
                );
                assert_eq!(rec.n_candidates, r.n_candidates);
            }
        }
    }
}

#[test]
fn heavy_panic_storms_are_contained() {
    // A panic-containment smoke: far denser injection than the standard
    // seeded plan, aggressive enough that every parallel region takes
    // multiple hits — and the pipeline still completes identically.
    magellan_core::par::silence_contained_panics();
    let s = scenario(24);
    let wf = workflow();
    let exec = ProductionExecutor::new(4);
    let golden = exec.run(&wf, &s.table_a, &s.table_b).expect("golden run");

    let plan = FaultPlan {
        chunk_panic_per_mille: 600,
        io_error_per_mille: 500,
        ..FaultPlan::seeded(7)
    };
    let mut store = FlakyStore::new(MemStore::new(), plan);
    let opts = RecoveryOptions {
        faults: plan,
        retry: RetryPolicy::default(),
        kill_after: None,
    };
    let rec = exec
        .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
        .expect("panic storm must be absorbed");
    assert_eq!(rec.matches, golden.matches);
    assert!(
        rec.recovery.panics_contained >= 5,
        "a 60% per-chunk panic rate should hit many chunks: {:?}",
        rec.recovery
    );
}

// ---------------------------------------------------------------------
// Multi-tenant service chaos: the bit-identity contract of the
// CloudMatcher service layer under overload, faults, and kills.
// ---------------------------------------------------------------------

use magellan_falcon::cloud::LabelingMode;
use magellan_falcon::service::{
    Admission, MatchService, Priority, ServiceConfig, SyntheticTask, TenantQuota, TenantSpec,
    TenantSubmission, Workload,
};
use magellan_falcon::{FalconConfig, ScheduleRecoveryOptions, TaskSpec};
use magellan_faults::ArrivalPlan;

/// Build the standing 10-tenant overload: a fixed seeded arrival plan
/// (independent of the fault seed, so admission is replayable), four
/// real EM workloads over the shared scenario, five synthetic tasks,
/// and one crowd tenant whose labeling estimate blows its quota.
/// Concurrent demand (10 tenants inside a ~10-simulated-second window)
/// is well over 2× what the service can hold (3 active + 4 queued).
fn service_submissions<'a>(s: &'a EmScenario, n_workers: usize) -> Vec<TenantSubmission<'a>> {
    let plan = ArrivalPlan::poisson(99, 10, 1.0);
    (0..10u32)
        .map(|i| {
            let tenant = TenantSpec {
                name: format!("t{i}"),
                arrival_s: plan.arrival_s(i),
                priority: Priority::from_class(plan.priority_class(i, 3)),
                weight: plan.weight(i, 4),
                quota: if i == 5 {
                    // The crowd tenant: 250-question sample × 5 votes ×
                    // $0.02 = $25 estimated, capped at $10.
                    TenantQuota { label_dollars: 10.0, ..TenantQuota::unlimited() }
                } else {
                    TenantQuota::unlimited()
                },
                task_seed: 7000 + u64::from(i),
            };
            let workload = if i % 3 == 0 {
                // Real EM workloads (tenants 0, 3, 6, 9).
                Workload::Em(TaskSpec {
                    name: format!("t{i}"),
                    table_a: &s.table_a,
                    table_b: &s.table_b,
                    a_key: "id".into(),
                    b_key: "id".into(),
                    gold: &s.gold,
                    labeling: LabelingMode::SingleUser { error_rate: 0.0 },
                    on_cloud: true,
                    falcon: FalconConfig {
                        sample_size: 250,
                        blocking_al: magellan_falcon::ActiveLearnConfig {
                            n_workers,
                            ..Default::default()
                        },
                        matching_al: magellan_falcon::ActiveLearnConfig {
                            max_rounds: 15,
                            n_workers,
                            ..Default::default()
                        },
                        seed: 7000 + u64::from(i),
                        ..Default::default()
                    },
                })
            } else {
                Workload::Synthetic(SyntheticTask {
                    rows: (400, 400),
                    questions_blocking: 50,
                    questions_matching: 80,
                    n_candidates: 8_000,
                    crowd: i == 5,
                    on_cloud: i % 2 == 0,
                })
            };
            TenantSubmission { tenant, workload }
        })
        .collect()
}

fn service_config(faults: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        batch_slots: 2,
        crowd_slots: 1,
        max_active_tenants: 3,
        max_queue: 4,
        recovery: ScheduleRecoveryOptions { faults, ..Default::default() },
        ..Default::default()
    }
}

/// Every field of a [`ServiceReport`] folded into one FNV-1a digest,
/// floats as their bit patterns.
fn service_report_digest(r: &magellan_falcon::ServiceReport) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    let mut text = String::new();
    for t in &r.tenants {
        text.push_str(&format!("{}|{:?}|", t.name, t.admission));
        if let Some(o) = &t.outcome {
            text.push_str(&o.name);
            words.extend([o.rows.0 as u64, o.rows.1 as u64, o.questions as u64]);
            words.extend([o.n_candidates as u64, o.crowd_no_shows as u64]);
            words.push(o.crowd_degraded_questions as u64);
            for f in [o.precision, o.recall, o.crowd_cost, o.compute_cost, o.label_time_s] {
                words.push(f.to_bits());
            }
            words.push(o.machine_time_s.to_bits());
        }
        for f in [t.arrival_s, t.start_s, t.finish_s, t.queue_wait_s, t.machine_spent_s] {
            words.push(f.to_bits());
        }
        words.extend([t.frag_p50_ms, t.frag_p99_ms, u64::from(t.shed_crowd_fragments)]);
        words.extend([u64::from(t.speculation_disabled), u64::from(t.priority_downgraded)]);
    }
    words.push(r.makespan_s.to_bits());
    for (e, b) in &r.busy {
        text.push_str(&format!("{e:?}|"));
        words.push(b.to_bits());
    }
    words.push(u64::from(r.crowd_served));
    let t = &r.telemetry;
    words.extend(
        [
            t.arrived,
            t.admitted,
            t.queued,
            t.rejected,
            t.completed,
            t.crowd_shed,
            t.speculation_disabled,
            t.priority_downgrades,
            t.tenant_retries,
            t.schedule.fragment_retries,
            t.schedule.fragments_timed_out,
            t.schedule.fragments_rerouted,
            t.schedule.speculative_launched,
            t.schedule.speculative_wins,
        ]
        .map(u64::from),
    );
    words.push(t.schedule.backoff_s.to_bits());
    let mut bytes = text.into_bytes();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    magellan_obs::fnv1a(&bytes)
}

#[test]
fn service_report_under_seeded_faults_is_pinned() {
    magellan_core::par::silence_contained_panics();
    let s = scenario(25);
    let report = MatchService::new(service_config(FaultPlan::seeded(4242)))
        .expect("service")
        .run(&service_submissions(&s, 1))
        .expect("service run");
    assert_eq!(service_report_digest(&report), 10257891631220348599);
}

#[test]
fn multi_tenant_overload_is_deterministic_across_workers_and_fault_seeds() {
    magellan_core::par::silence_contained_panics();
    let s = scenario(25);

    // Solo goldens: each tenant run alone (fault-free, one worker).
    // The contract: any accepted tenant's outcome in the overloaded,
    // fault-injected, N-worker service is byte-identical to this.
    let solo_cfg = service_config(FaultPlan::none());
    let solo = MatchService::new(solo_cfg).expect("solo service");
    let goldens: Vec<_> = service_submissions(&s, 1)
        .into_iter()
        .map(|sub| {
            let sub = TenantSubmission {
                tenant: TenantSpec { arrival_s: 0.0, ..sub.tenant },
                workload: sub.workload,
            };
            let rep = solo.run(std::slice::from_ref(&sub)).expect("solo run");
            rep.tenants[0].outcome.clone()
        })
        .collect();

    let mut reference_rejections: Option<Vec<(usize, String)>> = None;
    let mut reference_export: Option<String> = None;
    for n_workers in [1usize, 2, 4, 8] {
        let subs = service_submissions(&s, n_workers);
        let svc = MatchService::new(service_config(FaultPlan::seeded(4242))).expect("service");

        // Pinned clock: the obs export depends only on the simulated
        // timeline, so it must be byte-identical across worker counts.
        let obs = magellan_obs::Obs::pinned();
        let report = {
            let _g = obs.install();
            svc.run(&subs).expect("overloaded service must complete")
        };

        // Admission/rejection decisions are a pure function of
        // (arrival plan, quotas, capacity) — workers irrelevant.
        let rejections = report.rejection_set();
        assert!(
            rejections.iter().any(|(i, r)| *i == 5 && r.contains("label_dollars")),
            "the over-quota crowd tenant must be rejected: {rejections:?}"
        );
        assert!(
            rejections.len() >= 3,
            "10 tenants into 3+4 capacity must shed load: {rejections:?}"
        );
        match &reference_rejections {
            None => reference_rejections = Some(rejections),
            Some(r) => assert_eq!(&rejections, r, "{n_workers} workers changed admission"),
        }

        // Accepted outcomes: byte-identical to the solo goldens.
        for (i, t) in report.accepted() {
            assert_eq!(
                t.outcome, goldens[i],
                "tenant {i} at {n_workers} workers must match its solo run bit for bit"
            );
        }
        assert_eq!(
            report.telemetry.arrived, 10,
            "every submission must be seen"
        );

        // Per-tenant SLO histograms and gauges: byte-identical export.
        let export: String = obs
            .snapshot()
            .to_prometheus()
            .lines()
            .filter(|l| l.contains("magellan_service_"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            export.contains("magellan_service_fragment_latency_ms_count{tenant=\"t0\"}")
                && export.contains("magellan_service_fragment_latency_p99_ms{tenant=\"t0\"}")
                && export.contains("magellan_service_slo_ok{tenant=\"t0\"}"),
            "per-tenant SLO histograms and gauges must be exported:\n{export}"
        );
        match &reference_export {
            None => reference_export = Some(export),
            Some(r) => assert_eq!(&export, r, "{n_workers} workers changed the pinned export"),
        }
    }

    // Fault seeds shuffle failures, stragglers, and no-shows — never
    // admission (single-user labeling keeps outcomes fault-free too).
    let golden_rejections = reference_rejections.expect("reference set");
    for seed in seeds().into_iter().take(4) {
        let subs = service_submissions(&s, 2);
        let svc = MatchService::new(service_config(FaultPlan::seeded(seed))).expect("service");
        let report = svc.run(&subs).expect("fault-injected service must complete");
        assert_eq!(
            report.rejection_set(),
            golden_rejections,
            "seed {seed}: rejection set must be seed-stable"
        );
        for (i, t) in report.accepted() {
            assert_eq!(t.outcome, goldens[i], "seed {seed}: tenant {i} outcome drifted");
        }
    }
}

#[test]
fn service_kill_and_resume_mid_queue_is_bit_identical() {
    magellan_core::par::silence_contained_panics();
    let s = scenario(26);

    for seed in seeds().into_iter().take(3) {
        let plan = FaultPlan::seeded(seed);
        let golden = MatchService::new(service_config(plan))
            .expect("service")
            .run(&service_submissions(&s, 2))
            .expect("golden service run");

        // Kill after the second fresh workload run: later tenants are
        // still waiting in the admission queue at that point.
        let mut store = FlakyStore::new(MemStore::new(), plan);
        let killer = MatchService::new(ServiceConfig {
            kill_after_tenants: Some(2),
            ..service_config(plan)
        })
        .expect("service");
        let err = killer
            .run_with_checkpoint(&service_submissions(&s, 2), &mut store)
            .expect_err("kill hook must fire");
        let MagellanError::Killed { after_phase } = err else {
            panic!("seed {seed}: expected Killed, got {err}");
        };
        assert_eq!(after_phase, "service");

        // Resume against the flaky store: transparently retried I/O,
        // restored runs, and a report identical to the uninterrupted one.
        let resumed = MatchService::new(service_config(plan))
            .expect("service")
            .run_with_checkpoint(&service_submissions(&s, 2), &mut store)
            .unwrap_or_else(|e| panic!("seed {seed}: resume must complete: {e}"));
        assert_eq!(resumed.rejection_set(), golden.rejection_set(), "seed {seed}");
        assert_eq!(
            resumed.makespan_s.to_bits(),
            golden.makespan_s.to_bits(),
            "seed {seed}: resumed makespan must be bit-identical"
        );
        for (g, r) in golden.tenants.iter().zip(&resumed.tenants) {
            assert_eq!(g.outcome, r.outcome, "seed {seed}");
            assert_eq!(g.finish_s.to_bits(), r.finish_s.to_bits(), "seed {seed}");
            assert_eq!(g.frag_p99_ms, r.frag_p99_ms, "seed {seed}");
        }
        // At least one queued tenant proves the kill hit mid-queue.
        assert!(
            golden
                .tenants
                .iter()
                .any(|t| matches!(t.admission, Admission::AdmittedAfterQueue)),
            "seed {seed}: the overload must actually queue tenants"
        );
    }
}
