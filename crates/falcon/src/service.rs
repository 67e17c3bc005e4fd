//! The multi-tenant CloudMatcher service core.
//!
//! §5.1 and Table 2 of the paper describe CloudMatcher as a *self-service
//! cloud system*: 13 concurrent EM tasks from different users, each
//! decomposed into DAG fragments routed across the user-interaction,
//! crowd, and batch engines by a metamanager. [`crate::cloud`] reproduces
//! the per-workflow mechanics; this module makes the system *long-lived
//! and multi-tenant*:
//!
//! * **Admission control** (`service/admission.rs`) — every submission is
//!   estimated in the exact currencies of Table 2 (label $, compute $,
//!   machine time) and checked against the tenant's [`TenantQuota`].
//!   Under overload the service *queues* (bounded) or *rejects* (typed
//!   [`RejectReason`]) — deterministically: the decision is a pure
//!   function of `(seed, arrival plan, quotas, capacity)`.
//! * **Weighted fair-share + priority scheduling** (this file) — each
//!   tenant is a [`crate::schedule`] lane carrying its weight and
//!   priority; ready fragments compete for engine slots in the
//!   scheduler's one order (start, priority desc, virtual time asc,
//!   submission index). A tenant's virtual time advances by
//!   `service_seconds / weight`, so a weight-2 tenant receives twice the
//!   share of a saturated engine over time. Engine saturation is the
//!   backpressure signal: fragments wait, backlogs grow, and degradation
//!   reads those backlogs.
//! * **Graceful degradation in a fixed order** (this file) — the
//!   crowd→single-user fallback of [`crate::cloud`] generalized: shed
//!   crowd work first (`SHED_CROWD_BACKLOG` or a label-budget overrun),
//!   then disable speculative re-execution
//!   (`NO_SPECULATION_BATCH_BACKLOG`), then downgrade priority
//!   (`DOWNGRADE_MACHINE_SHARE`). Every decision is recorded as an obs
//!   event and counted in the obs registry.
//! * **Durable run log** (`service/runlog.rs`) — completed workloads are
//!   checkpointed as `emsvc v2`, so a killed service resumes to the same
//!   report.
//!
//! **Bit-identity contract.** An accepted tenant's [`TaskOutcome`] is
//! byte-identical to running that tenant alone, at any worker count,
//! under any seeded fault plan. This falls out of two rules: the
//! workload runs under the tenant's own `task_seed` (never service
//! state), and *machine time is simulated* from a deterministic
//! [`ServiceCostModel`] — the service never lets wall-clock feed an
//! outcome, an admission decision, or a pinned obs export.

mod admission;
mod runlog;

use std::cmp::Reverse;

use magellan_core::checkpoint::CheckpointStore;
use magellan_core::MagellanError;
use magellan_faults::Budget;
use magellan_obs::{EvVal, Histogram};

use admission::admit;
pub use admission::{estimate_workload, Admission, RejectReason, TenantQuota, WorkloadEstimate};
use runlog::RunLog;

use crate::cloud::{execute_labeling, CostModel, TaskOutcome, TaskSpec};
pub use crate::schedule::Priority;
use crate::schedule::{
    check_batch_slots, resolve_fragment, set_backoff_gauge, sim_ns, task_chain, Engine, Engines,
    Fragment, Lane, ScheduleRecoveryOptions,
};

/// One tenant of the service.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (also the `tenant` label on the SLO metrics, so keep
    /// it to plain identifier characters).
    pub name: String,
    /// Arrival time on the simulated clock, seconds.
    pub arrival_s: f64,
    /// Priority class.
    pub priority: Priority,
    /// Fair-share weight (≥ 1); a weight-2 tenant gets twice the share
    /// of a saturated engine.
    pub weight: u32,
    /// Budget caps.
    pub quota: TenantQuota,
    /// Seed for the tenant's own workload randomness. Two runs of the
    /// same tenant with the same seed produce byte-identical outcomes —
    /// alone or among any set of co-tenants.
    pub task_seed: u64,
}

/// A synthetic workload for scheduling-focused tests and benches: the
/// outcome is a cheap deterministic function of the task seed, so
/// thousands of tenants can be simulated without running Falcon.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticTask {
    /// |A|, |B| (drives the machine-time cost model).
    pub rows: (usize, usize),
    /// Questions the blocking stage asks.
    pub questions_blocking: usize,
    /// Questions the matching stage asks.
    pub questions_matching: usize,
    /// Candidate pairs examined (drives the machine-time cost model).
    pub n_candidates: usize,
    /// Crowd labeling (fees + crowd engine) vs. single-user.
    pub crowd: bool,
    /// Billed cloud compute vs. free local machine.
    pub on_cloud: bool,
}

/// What a tenant submitted.
pub enum Workload<'a> {
    /// A real EM task, run through the Falcon workflow.
    Em(TaskSpec<'a>),
    /// A synthetic task (scheduling tests and benches).
    Synthetic(SyntheticTask),
}

/// A tenant plus their workload.
pub struct TenantSubmission<'a> {
    /// Who.
    pub tenant: TenantSpec,
    /// What.
    pub workload: Workload<'a>,
}

/// Deterministic machine-time model: the service accounts compute in
/// *simulated* seconds derived from workload size, never wall-clock —
/// wall time would leak scheduling noise into outcomes, admission
/// decisions, and pinned obs exports, breaking the bit-identity
/// contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCostModel {
    /// Simulated machine seconds per input row (|A| + |B|).
    pub machine_s_per_row: f64,
    /// Simulated machine seconds per candidate pair examined.
    pub machine_s_per_candidate: f64,
}

impl Default for ServiceCostModel {
    fn default() -> Self {
        ServiceCostModel {
            machine_s_per_row: 0.01,
            machine_s_per_candidate: 0.0005,
        }
    }
}

impl ServiceCostModel {
    /// Simulated machine seconds for a task of the given shape.
    pub fn machine_s(&self, rows: (usize, usize), n_candidates: usize) -> f64 {
        self.machine_s_per_row * (rows.0 + rows.1) as f64
            + self.machine_s_per_candidate * n_candidates as f64
    }
}

/// Ready crowd fragments at which a tenant's crowd work is shed to its
/// own user (a label-budget overrun sheds it too).
const SHED_CROWD_BACKLOG: usize = 4;

/// Ready batch fragments at which a tenant stops launching speculative
/// backups for its stragglers.
const NO_SPECULATION_BATCH_BACKLOG: usize = 8;

/// Share of a finite machine-time quota left below which a tenant drops
/// to [`Priority::Low`] for the rest of its run.
const DOWNGRADE_MACHINE_SHARE: f64 = 0.25;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Batch-engine worker slots.
    pub batch_slots: usize,
    /// Crowd-engine slots (concurrent crowd campaigns the service will
    /// run). `0` means "no crowd": every crowd fragment is shed to the
    /// submitting user.
    pub crowd_slots: usize,
    /// Max tenants whose workflows are in flight at once.
    pub max_active_tenants: usize,
    /// Max tenants waiting in the admission queue; beyond this,
    /// submissions are rejected with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Fee/latency model shared with [`crate::cloud::CloudMatcher`].
    pub cost_model: CostModel,
    /// Deterministic machine-time model.
    pub svc_cost: ServiceCostModel,
    /// The seeded fault plan (tenant failures, fragment failures,
    /// stragglers, crowd no-shows), the backoff policy (tenant
    /// activation, fragment and checkpoint I/O retries), and the fragment
    /// recovery knobs — the options [`crate::schedule::schedule_fragments`]
    /// takes. Its `degrade_factor` also scales degradation-shed crowd
    /// fragments.
    pub recovery: ScheduleRecoveryOptions,
    /// Per-tenant SLO: p99 fragment latency at or under this many
    /// simulated milliseconds sets the tenant's `slo_ok` gauge to 1.
    pub slo_p99_ms: u64,
    /// Chaos hook: kill the service process (return
    /// [`MagellanError::Killed`]) right after this many tenant workloads
    /// have run *in this process* and been checkpointed.
    pub kill_after_tenants: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_slots: 4,
            crowd_slots: 2,
            max_active_tenants: 4,
            max_queue: 8,
            cost_model: CostModel::default(),
            svc_cost: ServiceCostModel::default(),
            recovery: ScheduleRecoveryOptions::default(),
            slo_p99_ms: 3_600_000, // one simulated hour
            kill_after_tenants: None,
        }
    }
}

/// What happened to one tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Admission decision.
    pub admission: Admission,
    /// The Table 2 row, for accepted tenants.
    pub outcome: Option<TaskOutcome>,
    /// Arrival time, simulated seconds.
    pub arrival_s: f64,
    /// Workflow activation time (accepted tenants).
    pub start_s: f64,
    /// Workflow completion time (accepted tenants).
    pub finish_s: f64,
    /// `start_s - arrival_s`: admission queueing plus activation
    /// retries.
    pub queue_wait_s: f64,
    /// p50 fragment latency, simulated ms (bucket upper bound).
    pub frag_p50_ms: u64,
    /// p99 fragment latency, simulated ms (bucket upper bound).
    pub frag_p99_ms: u64,
    /// Crowd fragments shed to this tenant's user.
    pub shed_crowd_fragments: u32,
    /// Degradation disabled speculation for this tenant.
    pub speculation_disabled: bool,
    /// Degradation downgraded this tenant to low priority.
    pub priority_downgraded: bool,
    /// Machine-time budget spent, simulated seconds.
    pub machine_spent_s: f64,
}

impl TenantReport {
    /// Did the tenant meet the p99 fragment-latency SLO?
    pub fn slo_ok(&self, slo_p99_ms: u64) -> bool {
        self.frag_p99_ms <= slo_p99_ms
    }
}

/// The service run summary.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-tenant reports, in submission order.
    pub tenants: Vec<TenantReport>,
    /// Simulated makespan of the whole run.
    pub makespan_s: f64,
    /// Busy seconds per engine.
    pub busy: Vec<(Engine, f64)>,
    /// Crowd fragments that actually ran on the crowd engine.
    pub crowd_served: u32,
    /// Crowd fragments shed to the submitting user by degradation (no-show
    /// reroutes are not counted here).
    pub crowd_shed: u32,
}

impl ServiceReport {
    /// `(submission index, reason)` for every rejected tenant — the set
    /// the determinism contract pins across worker counts and seeds.
    pub fn rejection_set(&self) -> Vec<(usize, String)> {
        self.tenants
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match &t.admission {
                Admission::Rejected(r) => Some((i, r.to_string())),
                _ => None,
            })
            .collect()
    }

    /// Reports of tenants whose workloads ran.
    pub fn accepted(&self) -> impl Iterator<Item = (usize, &TenantReport)> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.admission.accepted())
    }

    /// Fraction of crowd-bound fragments shed to users (0 when no crowd
    /// work was submitted).
    pub fn shed_rate(&self) -> f64 {
        let shed = f64::from(self.crowd_shed);
        let total = shed + f64::from(self.crowd_served);
        if total == 0.0 {
            0.0
        } else {
            shed / total
        }
    }
}

/// A tenant workload's deterministic execution result: the Table 2 row
/// (machine time simulated) plus the question split that shapes the
/// fragment chain.
#[derive(Debug, Clone)]
struct WorkloadRun {
    outcome: TaskOutcome,
    questions_blocking: usize,
    questions_matching: usize,
    label_engine: Engine,
}

fn unit64(x: u64) -> f64 {
    (magellan_obs::splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Run one tenant's workload. Pure in `(submission, cfg)` — notably
/// independent of co-tenants, scheduling, and wall-clock — which is the
/// whole bit-identity contract.
fn run_workload(
    sub: &TenantSubmission<'_>,
    cfg: &ServiceConfig,
) -> Result<WorkloadRun, MagellanError> {
    let cm = &cfg.cost_model;
    match &sub.workload {
        Workload::Em(spec) => {
            let run = execute_labeling(spec, sub.tenant.task_seed, cfg.recovery.faults, cm)?;
            let rows = (spec.table_a.nrows(), spec.table_b.nrows());
            let machine_time_s = cfg.svc_cost.machine_s(rows, run.report.n_candidates);
            Ok(WorkloadRun {
                outcome: run.outcome(spec, machine_time_s, cm)?,
                questions_blocking: run.report.questions_blocking,
                questions_matching: run.report.questions_matching,
                label_engine: run.label_engine,
            })
        }
        Workload::Synthetic(s) => {
            let seed = sub.tenant.task_seed;
            let questions = s.questions_blocking + s.questions_matching;
            let label_engine = if s.crowd {
                Engine::Crowd
            } else {
                Engine::UserInteraction
            };
            // A synthetic task spends exactly what admission estimates.
            let est = estimate_workload(sub, cfg);
            Ok(WorkloadRun {
                outcome: TaskOutcome {
                    name: sub.tenant.name.clone(),
                    rows: s.rows,
                    precision: 0.85 + 0.15 * unit64(seed ^ 0xA11CE),
                    recall: 0.75 + 0.25 * unit64(seed ^ 0xB0B5),
                    questions,
                    crowd_cost: est.label_dollars,
                    compute_cost: est.compute_dollars,
                    label_time_s: questions as f64 * cm.per_question_s(label_engine),
                    machine_time_s: est.machine_time_s,
                    n_candidates: s.n_candidates,
                    crowd_no_shows: 0,
                    crowd_degraded_questions: 0,
                },
                questions_blocking: s.questions_blocking,
                questions_matching: s.questions_matching,
                label_engine,
            })
        }
    }
}

// ---------------------------------------------------------------------
// The simulator
// ---------------------------------------------------------------------

/// One active tenant: its scheduling lane plus the service's own state.
struct Active {
    lane: Lane,
    chain: Vec<Fragment>,
    machine: Budget,
    label_overrun: bool,
    shed_all_crowd: bool,
    /// The next fragment, degraded and fault-resolved, plus extra
    /// batch busy-seconds from a speculative backup.
    pending: Option<(Fragment, f64)>,
    hist: Histogram,
}

impl Active {
    /// The engine the next unplaced fragment targets (`None` once the
    /// chain is exhausted).
    fn next_engine(&self) -> Option<Engine> {
        self.chain.get(self.lane.next).map(|f| f.engine)
    }
}

/// The multi-tenant CloudMatcher service.
#[derive(Debug, Clone)]
pub struct MatchService {
    /// Configuration (validated by [`MatchService::new`]).
    pub config: ServiceConfig,
}

impl MatchService {
    /// Validate the configuration. `batch_slots == 0` or
    /// `max_active_tenants == 0` can never schedule anything, and
    /// out-of-range recovery options would corrupt the simulated clock:
    /// all are typed [`MagellanError::Config`] errors, checked as
    /// [`crate::schedule::schedule_fragments`] checks them.
    pub fn new(config: ServiceConfig) -> Result<Self, MagellanError> {
        check_batch_slots(config.batch_slots)?;
        if config.max_active_tenants == 0 {
            return Err(MagellanError::Config {
                message: "max_active_tenants must be >= 1 (the service could never run anything)"
                    .into(),
            });
        }
        config.recovery.validate()?;
        Ok(MatchService { config })
    }

    /// Run the service over a set of submissions without checkpointing.
    pub fn run(&self, subs: &[TenantSubmission<'_>]) -> Result<ServiceReport, MagellanError> {
        self.run_inner(subs, None)
    }

    /// Run with durable checkpointing: each completed tenant workload is
    /// appended to an `emsvc v2` checkpoint in `store` (saved under the
    /// retry policy), and a fresh run against a store holding a prior
    /// checkpoint skips re-running those workloads — the resumed report
    /// is bit-identical to an uninterrupted run.
    pub fn run_with_checkpoint(
        &self,
        subs: &[TenantSubmission<'_>],
        store: &mut dyn CheckpointStore,
    ) -> Result<ServiceReport, MagellanError> {
        self.run_inner(subs, Some(store))
    }

    /// Activate tenant `i` at time `t` (on arrival or out of the queue):
    /// retry transient activation failures, fetch or run its workload,
    /// and open its lane.
    fn activate(
        &self,
        subs: &[TenantSubmission<'_>],
        i: usize,
        t: f64,
        log: &mut RunLog<'_>,
        report: &mut TenantReport,
    ) -> Result<Active, MagellanError> {
        let cfg = &self.config;
        let tenant = &subs[i].tenant;
        let _tenant_span =
            magellan_obs::span("tenant", magellan_obs::fnv1a(tenant.name.as_bytes()));
        // Tenant-level transient failures delay activation under the
        // retry policy (bounded per tenant, so this always converges).
        let retry = &cfg.recovery.retry;
        let mut delay = 0.0f64;
        let mut attempt = 0u32;
        while cfg.recovery.faults.tenant_fails(i as u64, attempt) && retry.allows(attempt + 1) {
            delay += retry.delay_s(attempt + 1);
            magellan_obs::counter_add("magellan_service_tenant_retries_total", 1);
            attempt += 1;
            magellan_obs::event_at(
                sim_ns(t + delay),
                "tenant_activation_retry",
                &[
                    ("tenant", EvVal::U(i as u64)),
                    ("attempt", EvVal::U(u64::from(attempt))),
                ],
            );
        }
        let t_act = t + delay;
        let run = log.get_or_run(i, subs, cfg)?;
        let chain = task_chain(
            run.label_engine,
            cfg.cost_model.per_question_s(run.label_engine),
            (run.questions_blocking, run.questions_matching),
            run.outcome.machine_time_s,
        );
        let label_overrun = run.outcome.crowd_cost > tenant.quota.label_dollars;
        report.start_s = t_act;
        report.queue_wait_s = t_act - tenant.arrival_s;
        report.outcome = Some(run.outcome);
        let tenant_ev = [("tenant", EvVal::U(i as u64))];
        magellan_obs::event_at(sim_ns(t_act), "tenant_activated", &tenant_ev);
        Ok(Active {
            lane: Lane::new(i, t_act, f64::from(tenant.weight), tenant.priority),
            chain,
            machine: Budget::seconds(tenant.quota.machine_time_s),
            label_overrun,
            shed_all_crowd: false,
            pending: None,
            hist: Histogram::default(),
        })
    }

    /// Degrade `a`'s next fragment as the backlogs and budgets ask, then
    /// resolve it under the fault plan into `a.pending`. `backlog` is the
    /// `(crowd, batch)` count of ready fragments; `report` carries which
    /// one-shot actions already fired for this tenant. A degradation shed adds
    /// 1 to `crowd_shed`, and the fault resolution's backoff is added to
    /// `backoff_s`.
    fn prepare(
        &self,
        a: &mut Active,
        mut frag: Fragment,
        backlog: (usize, usize),
        crowd_shed: &mut u32,
        backoff_s: &mut f64,
        report: &mut TenantReport,
    ) {
        let cfg = &self.config;
        let (i, ready) = (a.lane.id, a.lane.ready_s);
        let degrade = |action: &'static str, extra: &[(&'static str, EvVal)]| {
            let mut fields = vec![("tenant", EvVal::U(i as u64))];
            fields.extend_from_slice(extra);
            fields.push(("action", EvVal::S(action)));
            magellan_obs::event_at(sim_ns(ready), "service_degrade", &fields);
        };
        // Degradation, cheapest first: shed crowd work, then stop paying
        // for speculation, and only then touch the tenant's priority.
        if backlog.0 >= SHED_CROWD_BACKLOG || a.label_overrun {
            a.shed_all_crowd = true;
        }
        if backlog.1 >= NO_SPECULATION_BATCH_BACKLOG && !report.speculation_disabled {
            magellan_obs::counter_add("magellan_service_speculation_disabled_total", 1);
            report.speculation_disabled = true;
            degrade("disable_speculation", &[]);
        }
        let m = &a.machine;
        let low_on_machine = m.total_s.is_finite()
            && m.total_s > 0.0
            && m.remaining_s() / m.total_s < DOWNGRADE_MACHINE_SHARE;
        if low_on_machine && !report.priority_downgraded {
            a.lane.priority = Priority::Low;
            magellan_obs::counter_add("magellan_service_priority_downgrades_total", 1);
            report.priority_downgraded = true;
            degrade("downgrade_priority", &[]);
        }
        // Shed crowd fragments: backlog, label overrun, or no crowd
        // engine at all.
        if frag.engine == Engine::Crowd && (a.shed_all_crowd || cfg.crowd_slots == 0) {
            frag.engine = Engine::UserInteraction;
            frag.duration_s *= cfg.recovery.degrade_factor;
            *crowd_shed += 1;
            magellan_obs::counter_add("magellan_service_crowd_shed_total", 1);
            report.shed_crowd_fragments += 1;
            degrade(
                "shed_crowd_to_user",
                &[("fragment", EvVal::U(a.lane.next as u64))],
            );
        }
        // Fault resolution (failures, stragglers, timeouts, speculation)
        // — pure in (tenant, fragment, plan).
        let no_speculation;
        let opts = if !report.speculation_disabled {
            &cfg.recovery
        } else {
            no_speculation = ScheduleRecoveryOptions {
                speculate_threshold: f64::INFINITY,
                ..cfg.recovery
            };
            &no_speculation
        };
        let (resolved, extra) =
            resolve_fragment(i as u64, a.lane.next as u64, frag, opts, backoff_s);
        if frag.engine == Engine::Crowd && resolved.engine != Engine::Crowd {
            // resolve_fragment's own no-show rerouting.
            report.shed_crowd_fragments += 1;
        }
        a.pending = Some((resolved, extra));
    }

    fn run_inner(
        &self,
        subs: &[TenantSubmission<'_>],
        store: Option<&mut dyn CheckpointStore>,
    ) -> Result<ServiceReport, MagellanError> {
        let cfg = &self.config;
        for sub in subs {
            if sub.tenant.weight == 0 {
                return Err(MagellanError::Config {
                    message: format!(
                        "tenant `{}` has weight 0 (it would be starved forever)",
                        sub.tenant.name
                    ),
                });
            }
            if !sub.tenant.arrival_s.is_finite() || sub.tenant.arrival_s < 0.0 {
                return Err(MagellanError::Config {
                    message: format!(
                        "tenant `{}` has non-finite or negative arrival time",
                        sub.tenant.name
                    ),
                });
            }
        }
        let _svc_span = magellan_obs::span("service", 0);
        // Resume: restore completed workload runs from the store.
        let mut log = RunLog::open(store, subs, cfg)?;

        // Arrivals in (time, submission index) order.
        let mut order: Vec<usize> = (0..subs.len()).collect();
        order.sort_by(|&a, &b| {
            subs[a]
                .tenant
                .arrival_s
                .partial_cmp(&subs[b].tenant.arrival_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut arr_idx = 0usize;

        let mut reports: Vec<TenantReport> = subs
            .iter()
            .map(|s| TenantReport {
                name: s.tenant.name.clone(),
                admission: Admission::Rejected(RejectReason::QueueFull), // placeholder
                outcome: None,
                arrival_s: s.tenant.arrival_s,
                start_s: 0.0,
                finish_s: 0.0,
                queue_wait_s: 0.0,
                frag_p50_ms: 0,
                frag_p99_ms: 0,
                shed_crowd_fragments: 0,
                speculation_disabled: false,
                priority_downgraded: false,
                machine_spent_s: 0.0,
            })
            .collect();

        let mut active: Vec<Active> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        let mut engines = Engines::new(cfg.crowd_slots, cfg.batch_slots);
        let mut crowd_served: u32 = 0;
        let mut crowd_shed: u32 = 0;
        let mut backoff_s = 0.0f64;
        let mut makespan = 0.0f64;

        loop {
            // Resolve pending fragments (degradation + faults) in submission
            // order for determinism. Backlogs: ready fragments targeting
            // each engine.
            let crowd_backlog = active
                .iter()
                .filter(|a| a.next_engine() == Some(Engine::Crowd) && !a.shed_all_crowd)
                .count();
            let batch_backlog = active
                .iter()
                .filter(|a| a.next_engine() == Some(Engine::Batch))
                .count();
            let mut idxs: Vec<usize> = (0..active.len()).collect();
            idxs.sort_by_key(|&p| active[p].lane.id);
            for p in idxs {
                let a = &mut active[p];
                if a.pending.is_some() {
                    continue;
                }
                if let Some(&frag) = a.chain.get(a.lane.next) {
                    let report = &mut reports[a.lane.id];
                    let backlog = (crowd_backlog, batch_backlog);
                    self.prepare(a, frag, backlog, &mut crowd_shed, &mut backoff_s, report);
                }
            }

            // Next completion: an active tenant with an exhausted chain.
            let completion = active
                .iter()
                .enumerate()
                .filter(|(_, a)| a.next_engine().is_none())
                .min_by(|(_, x), (_, y)| {
                    x.lane
                        .ready_s
                        .partial_cmp(&y.lane.ready_s)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(x.lane.id.cmp(&y.lane.id))
                })
                .map(|(p, a)| (a.lane.ready_s, p));

            // Next arrival.
            let arrival = order.get(arr_idx).map(|&i| (subs[i].tenant.arrival_s, i));

            // Next placement, in the scheduler's one order.
            let placement = engines.pick(
                active
                    .iter()
                    .enumerate()
                    .filter_map(|(p, a)| a.pending.map(|(f, _)| (p, &a.lane, f.engine))),
            );

            // Pick the earliest event; completions free capacity before
            // arrivals are admitted, and both precede placements at the
            // same instant.
            let ta = arrival.map_or(f64::INFINITY, |(t, _)| t);
            let tp = placement.map_or(f64::INFINITY, |(t, _)| t);
            if let Some((tc, pos)) = completion.filter(|&(tc, _)| tc <= ta && tc <= tp) {
                let a = active.swap_remove(pos);
                let rep = &mut reports[a.lane.id];
                rep.finish_s = tc;
                rep.frag_p50_ms = a.hist.quantile(0.50);
                rep.frag_p99_ms = a.hist.quantile(0.99);
                rep.machine_spent_s = a.machine.spent_s;
                magellan_obs::counter_add("magellan_service_tenants_completed_total", 1);
                makespan = makespan.max(tc);
                magellan_obs::event_at(
                    sim_ns(tc),
                    "tenant_completed",
                    &[("tenant", EvVal::U(a.lane.id as u64))],
                );
                // A slot freed: activate the best queued tenant
                // (priority desc, then arrival order).
                if active.len() < cfg.max_active_tenants && !queue.is_empty() {
                    let qpos = (0..queue.len())
                        .min_by_key(|&q| (Reverse(subs[queue[q]].tenant.priority), q))
                        .unwrap_or(0);
                    let i = queue.remove(qpos);
                    let a = self.activate(subs, i, tc, &mut log, &mut reports[i])?;
                    active.push(a);
                }
            } else if let Some((t, i)) = arrival.filter(|&(ta, _)| ta <= tp) {
                arr_idx += 1;
                magellan_obs::counter_add("magellan_service_tenants_arrived_total", 1);
                makespan = makespan.max(t);
                let tenant_ev = [("tenant", EvVal::U(i as u64))];
                magellan_obs::event_at(sim_ns(t), "tenant_arrived", &tenant_ev);
                let est = estimate_workload(&subs[i], cfg);
                match admit(&est, &subs[i].tenant.quota, active.len(), queue.len(), cfg) {
                    Ok(true) => {
                        reports[i].admission = Admission::Admitted;
                        magellan_obs::counter_add("magellan_service_tenants_admitted_total", 1);
                        let a = self.activate(subs, i, t, &mut log, &mut reports[i])?;
                        active.push(a);
                    }
                    Ok(false) => {
                        reports[i].admission = Admission::AdmittedAfterQueue;
                        magellan_obs::counter_add("magellan_service_tenants_queued_total", 1);
                        queue.push(i);
                        magellan_obs::event_at(
                            sim_ns(t),
                            "tenant_queued",
                            &[("tenant", EvVal::U(i as u64))],
                        );
                    }
                    Err(reason) => {
                        let why: &'static str = match reason {
                            RejectReason::QueueFull => "queue_full",
                            RejectReason::Quota { currency } => currency,
                        };
                        magellan_obs::event_at(
                            sim_ns(t),
                            "tenant_rejected",
                            &[("tenant", EvVal::U(i as u64)), ("reason", EvVal::S(why))],
                        );
                        reports[i].admission = Admission::Rejected(reason);
                        magellan_obs::counter_add("magellan_service_tenants_rejected_total", 1);
                    }
                }
            } else if let Some((_, pos)) = placement {
                let a = &mut active[pos];
                // `pick` only offers lanes with a pending fragment.
                let Some((frag, extra)) = a.pending.take() else {
                    continue;
                };
                let ready = a.lane.ready_s;
                let finish = engines.place(&mut a.lane, frag, extra);
                if frag.engine == Engine::Crowd {
                    crowd_served += 1;
                }
                let latency_ms = ((finish - ready) * 1000.0).round().max(0.0) as u64;
                a.hist.record(latency_ms);
                magellan_obs::hist_record("magellan_service_fragment_latency_ms", latency_ms);
                magellan_obs::hist_record(
                    &format!(
                        "magellan_service_fragment_latency_ms{{tenant=\"{}\"}}",
                        subs[a.lane.id].tenant.name
                    ),
                    latency_ms,
                );
                if frag.engine == Engine::Batch {
                    a.machine.charge_s(frag.duration_s + extra);
                }
                makespan = makespan.max(finish);
            } else {
                break;
            }
        }

        debug_assert!(queue.is_empty(), "every queued tenant eventually activates");

        // Publish per-tenant SLO gauges and the service-wide backoff.
        for (i, rep) in reports.iter().enumerate() {
            if !rep.admission.accepted() {
                continue;
            }
            let tenant = &subs[i].tenant.name;
            magellan_obs::gauge_set(
                &format!("magellan_service_fragment_latency_p50_ms{{tenant=\"{tenant}\"}}"),
                rep.frag_p50_ms as f64,
            );
            magellan_obs::gauge_set(
                &format!("magellan_service_fragment_latency_p99_ms{{tenant=\"{tenant}\"}}"),
                rep.frag_p99_ms as f64,
            );
            let slo_ok = rep.slo_ok(cfg.slo_p99_ms);
            magellan_obs::gauge_set(
                &format!("magellan_service_slo_ok{{tenant=\"{tenant}\"}}"),
                if slo_ok { 1.0 } else { 0.0 },
            );
            if !slo_ok {
                // An SLO violation is a flight-recorder trigger: the dump
                // (written below, at end of scheduling, so its content is
                // a pure function of the final canonical snapshot) shows
                // which tenants blew their p99 and by how much.
                magellan_obs::flight_on_failure(
                    "slo_violation",
                    &[
                        ("tenant_idx", magellan_obs::EvVal::U(i as u64)),
                        ("p99_ms", magellan_obs::EvVal::U(rep.frag_p99_ms)),
                        ("slo_p99_ms", magellan_obs::EvVal::U(cfg.slo_p99_ms)),
                    ],
                );
            }
        }
        magellan_obs::gauge_set("magellan_service_makespan_seconds", makespan);
        set_backoff_gauge(backoff_s);
        if let Some(path) = magellan_obs::flight_autodump() {
            magellan_obs::log!(info, "flight-recorder dump written to {path}");
        }

        Ok(ServiceReport {
            tenants: reports,
            makespan_s: makespan,
            busy: engines.into_busy(),
            crowd_served,
            crowd_shed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_core::checkpoint::MemStore;
    use magellan_obs::{Obs, ObsSnapshot};

    /// Run `f` under a pinned recorder: its result and what it counted.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, ObsSnapshot) {
        let obs = Obs::pinned();
        let out = {
            let _g = obs.install();
            f()
        };
        (out, obs.snapshot())
    }

    pub(super) fn synth(
        i: usize,
        arrival_s: f64,
        crowd: bool,
        quota: TenantQuota,
    ) -> TenantSubmission<'static> {
        TenantSubmission {
            tenant: TenantSpec {
                name: format!("t{i}"),
                arrival_s,
                priority: Priority::Normal,
                weight: 1,
                quota,
                task_seed: 1000 + i as u64,
            },
            workload: Workload::Synthetic(SyntheticTask {
                rows: (200, 200),
                questions_blocking: 40,
                questions_matching: 60,
                n_candidates: 5_000,
                crowd,
                on_cloud: true,
            }),
        }
    }

    #[test]
    fn impossible_configurations_are_typed_errors() {
        let err = MatchService::new(ServiceConfig {
            batch_slots: 0,
            ..Default::default()
        })
        .err()
        .expect("zero batch slots must not construct");
        assert!(matches!(err, MagellanError::Config { .. }) && err.fatal());
        let err = MatchService::new(ServiceConfig {
            max_active_tenants: 0,
            ..Default::default()
        })
        .err()
        .expect("zero active tenants must not construct");
        assert!(matches!(err, MagellanError::Config { .. }));
        // Zero-weight tenants are rejected before any simulation.
        let svc = MatchService::new(ServiceConfig::default()).unwrap();
        let mut sub = synth(0, 0.0, false, TenantQuota::unlimited());
        sub.tenant.weight = 0;
        assert!(matches!(svc.run(&[sub]), Err(MagellanError::Config { .. })));
    }

    #[test]
    fn admission_rejects_over_quota_and_overload_deterministically() {
        // Crowd estimate: 100 questions × 5 votes × $0.02 = $10.
        let tight = TenantQuota {
            label_dollars: 5.0,
            ..TenantQuota::unlimited()
        };
        let cfg = ServiceConfig {
            max_active_tenants: 2,
            max_queue: 3,
            ..Default::default()
        };
        let svc = MatchService::new(cfg).unwrap();
        let mut subs: Vec<_> = (0..10)
            .map(|i| synth(i, 0.0, false, TenantQuota::unlimited()))
            .collect();
        subs[1] = synth(1, 0.0, true, tight);
        let (report, snap) = counted(|| svc.run(&subs).unwrap());
        let rej = report.rejection_set();
        // Tenant 1 is over quota; 0,2 activate; 3,4,5 queue; 6–9 shed.
        assert_eq!(
            rej,
            vec![
                (1, "quota_exceeded:label_dollars".to_string()),
                (6, "queue_full".to_string()),
                (7, "queue_full".to_string()),
                (8, "queue_full".to_string()),
                (9, "queue_full".to_string()),
            ]
        );
        let tenants = |what: &str| snap.counter(&format!("magellan_service_tenants_{what}_total"));
        assert_eq!(tenants("admitted"), 2);
        assert_eq!(tenants("queued"), 3);
        assert_eq!(tenants("rejected"), 5);
        assert_eq!(tenants("completed"), 5);
        assert!(matches!(
            report.tenants[4].admission,
            Admission::AdmittedAfterQueue
        ));
        assert!(report.tenants[4].queue_wait_s > 0.0);
        // The same submissions replay to the same decisions and makespan.
        let again = svc.run(&subs).unwrap();
        assert_eq!(again.rejection_set(), rej);
        assert_eq!(again.makespan_s.to_bits(), report.makespan_s.to_bits());
    }

    #[test]
    fn accepted_outcomes_are_bit_identical_to_solo_runs() {
        let cfg = ServiceConfig {
            max_active_tenants: 2,
            batch_slots: 2,
            max_queue: 8,
            ..Default::default()
        };
        let svc = MatchService::new(cfg).unwrap();
        let subs: Vec<_> = (0..6)
            .map(|i| synth(i, i as f64 * 2.0, i % 2 == 0, TenantQuota::unlimited()))
            .collect();
        let report = svc.run(&subs).unwrap();
        for (i, t) in report.accepted() {
            // Same tenant, alone, different arrival time and zero
            // contention: the outcome row must match bit for bit.
            let solo_sub = synth(i, 0.0, i % 2 == 0, TenantQuota::unlimited());
            let solo = svc.run(&[solo_sub]).unwrap();
            assert_eq!(
                t.outcome.as_ref().unwrap(),
                solo.tenants[0].outcome.as_ref().unwrap(),
                "tenant {i} outcome must not depend on co-tenants"
            );
        }
    }

    #[test]
    fn fair_share_prefers_high_priority_then_low_virtual_time() {
        let cfg = ServiceConfig {
            max_active_tenants: 4,
            batch_slots: 1,
            ..Default::default()
        };
        let svc = MatchService::new(cfg).unwrap();
        let mut hi = synth(0, 0.0, false, TenantQuota::unlimited());
        hi.tenant.priority = Priority::High;
        let mut lo = synth(1, 0.0, false, TenantQuota::unlimited());
        lo.tenant.priority = Priority::Low;
        let report = svc.run(&[hi, lo]).unwrap();
        assert!(
            report.tenants[0].finish_s < report.tenants[1].finish_s,
            "identical workloads contending for one batch slot: high priority finishes first"
        );
        // Weight asymmetry: the heavier tenant accumulates virtual time
        // slower, so it wins equal-priority ties for the shared slot.
        let mut heavy = synth(2, 0.0, false, TenantQuota::unlimited());
        heavy.tenant.weight = 4;
        let light = synth(3, 0.0, false, TenantQuota::unlimited());
        let report = svc.run(&[light, heavy]).unwrap();
        assert!(report.tenants[1].finish_s <= report.tenants[0].finish_s);
    }

    #[test]
    fn degradation_policy_sheds_crowd_and_disables_speculation() {
        // Twelve crowd tenants at once: the crowd backlog passes 4 while
        // they activate, and the shed ones reach their first batch
        // fragment together, so the batch backlog passes 8.
        let cfg = ServiceConfig {
            max_active_tenants: 12,
            crowd_slots: 1,
            ..Default::default()
        };
        let svc = MatchService::new(cfg).unwrap();
        let subs: Vec<_> = (0..12)
            .map(|i| synth(i, 0.0, true, TenantQuota::unlimited()))
            .collect();
        let (report, snap) = counted(|| svc.run(&subs).unwrap());
        assert!(report.crowd_shed > 0, "crowd backlog must trigger shedding");
        assert_eq!(
            snap.counter("magellan_service_crowd_shed_total"),
            u64::from(report.crowd_shed)
        );
        assert!(snap.counter("magellan_service_speculation_disabled_total") > 0);
        assert!(report.shed_rate() > 0.0 && report.shed_rate() <= 1.0);
        assert!(report.tenants.iter().any(|t| t.shed_crowd_fragments > 0));
        // Shedding reroutes schedule fragments, never touches outcomes.
        for (i, t) in report.accepted() {
            let solo = svc
                .run(&[synth(i, 0.0, true, TenantQuota::unlimited())])
                .unwrap();
            assert_eq!(
                t.outcome.as_ref().unwrap(),
                solo.tenants[0].outcome.as_ref().unwrap()
            );
        }
        // No crowd engine at all: every crowd fragment is shed.
        let no_crowd = MatchService::new(ServiceConfig {
            crowd_slots: 0,
            ..Default::default()
        })
        .unwrap();
        let report = no_crowd
            .run(&[synth(0, 0.0, true, TenantQuota::unlimited())])
            .unwrap();
        assert_eq!(report.crowd_served, 0);
        assert!(report.crowd_shed > 0);
    }

    #[test]
    fn label_spend_over_quota_sheds_every_crowd_fragment() {
        use crate::{cloud::LabelingMode, workflow::tests::scenario, workflow::FalconConfig};
        // Admission prices a crowd `Em` task at its sample size in
        // questions (40 × 5 votes × $0.02), but Falcon also asks rule
        // verification and matching questions: a label quota equal to the
        // estimate is admitted, then overrun.
        let s = scenario(magellan_datagen::domains::persons, 150, 50, 61);
        let mut sub = synth(0, 0.0, true, TenantQuota::unlimited());
        sub.workload = Workload::Em(TaskSpec {
            name: "crowd".into(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".into(),
            b_key: "id".into(),
            gold: &s.gold,
            labeling: LabelingMode::Crowd {
                worker_error_rate: 0.0,
            },
            on_cloud: false,
            falcon: FalconConfig {
                sample_size: 40,
                ..Default::default()
            },
        });
        let svc = MatchService::new(ServiceConfig::default()).unwrap();
        let report = svc.run(std::slice::from_ref(&sub)).unwrap();
        assert_eq!((report.crowd_served, report.crowd_shed), (2, 0));

        let quota = estimate_workload(&sub, &svc.config).label_dollars;
        assert_eq!(quota, 40.0 * 5.0 * 0.02);
        sub.tenant.quota.label_dollars = quota;
        let (report, snap) = counted(|| svc.run(&[sub]).unwrap());
        let t = &report.tenants[0];
        assert_eq!(t.admission, Admission::Admitted);
        assert!(t.outcome.as_ref().unwrap().crowd_cost > quota);
        // Both crowd fragments of the chain go to the user.
        let shed = (
            report.crowd_served,
            report.crowd_shed,
            t.shed_crowd_fragments,
        );
        assert_eq!(shed, (0, 2, 2));
        assert!(!t.speculation_disabled && !t.priority_downgraded);
        assert_eq!(snap.counter("magellan_service_crowd_shed_total"), 2);
        let action = ("action", EvVal::S("shed_crowd_to_user"));
        let degrades = snap.events_named("service_degrade");
        assert!(degrades.len() == 2 && degrades.iter().all(|e| e.fields.contains(&action)));
    }

    #[test]
    fn machine_budget_below_a_quarter_downgrades_priority_once() {
        // A synthetic tenant spends its estimate (6.5 s) exactly, half of
        // it by its third fragment, so without faults a quota at or above
        // the estimate never falls below a quarter. Here every batch
        // fragment straggles 8×: the first one's backup finishes it at
        // 2 × 3.25 s and holds a second slot for 3.25 s, which charges
        // 9.75 s against a 7 s quota before the third fragment is ready.
        let faults = magellan_faults::FaultPlan {
            straggler_per_mille: 1000,
            straggler_factor_x100: 800,
            ..magellan_faults::FaultPlan::none()
        };
        let recovery = ScheduleRecoveryOptions {
            faults,
            ..Default::default()
        };
        let svc = MatchService::new(ServiceConfig {
            recovery,
            ..Default::default()
        })
        .unwrap();
        let mut sub = synth(0, 0.0, false, TenantQuota::unlimited());
        sub.tenant.quota.machine_time_s = 7.0;
        assert_eq!(estimate_workload(&sub, &svc.config).machine_time_s, 6.5);

        let (report, snap) = counted(|| svc.run(&[sub]).unwrap());
        let t = &report.tenants[0];
        assert_eq!(t.admission, Admission::Admitted);
        assert!(t.priority_downgraded && !t.speculation_disabled);
        assert_eq!((t.shed_crowd_fragments, t.machine_spent_s), (0, 2.0 * 9.75));
        let action = ("action", EvVal::S("downgrade_priority"));
        let degrades = snap.events_named("service_degrade");
        assert!(degrades.len() == 1 && degrades[0].fields.contains(&action));
        let downgrades = snap.counter("magellan_service_priority_downgrades_total");
        assert_eq!(downgrades, 1);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_to_an_uninterrupted_run() {
        let subs = |n: usize| -> Vec<TenantSubmission<'static>> {
            (0..n)
                .map(|i| synth(i, i as f64, i % 2 == 1, TenantQuota::unlimited()))
                .collect()
        };
        let base = ServiceConfig {
            max_active_tenants: 2,
            max_queue: 8,
            ..Default::default()
        };
        let golden = MatchService::new(base.clone())
            .unwrap()
            .run(&subs(5))
            .unwrap();

        let mut store = MemStore::default();
        let killer = MatchService::new(ServiceConfig {
            kill_after_tenants: Some(2),
            ..base.clone()
        })
        .unwrap();
        let (err, killed) = counted(|| {
            killer
                .run_with_checkpoint(&subs(5), &mut store)
                .unwrap_err()
        });
        assert!(matches!(
            err,
            MagellanError::Killed {
                after_phase: "service"
            }
        ));
        // Counts are added as they happen, so the killed run leaves the
        // two arrivals it saw (tenants 0 and 1, killed after the second
        // workload ran) in its recorder.
        assert_eq!(killed.counter("magellan_service_tenants_arrived_total"), 2);
        assert_eq!(killed.counter("magellan_service_tenants_admitted_total"), 2);
        assert_eq!(
            killed.counter("magellan_service_tenants_completed_total"),
            0
        );

        let resumed = MatchService::new(base)
            .unwrap()
            .run_with_checkpoint(&subs(5), &mut store)
            .unwrap();
        assert_eq!(resumed.makespan_s.to_bits(), golden.makespan_s.to_bits());
        assert_eq!(resumed.rejection_set(), golden.rejection_set());
        for (g, r) in golden.tenants.iter().zip(&resumed.tenants) {
            assert_eq!(g.outcome, r.outcome);
            assert_eq!(g.finish_s.to_bits(), r.finish_s.to_bits());
            assert_eq!(g.frag_p99_ms, r.frag_p99_ms);
        }
    }

    #[test]
    fn estimates_and_policy_table_are_stable() {
        let sub = synth(0, 0.0, true, TenantQuota::unlimited());
        let cfg = ServiceConfig::default();
        let est = estimate_workload(&sub, &cfg);
        assert_eq!(est.label_dollars, 100.0 * 5.0 * 0.02);
        // machine: 0.01 × 400 rows + 0.0005 × 5000 candidates = 6.5 s
        assert_eq!(est.machine_time_s, 6.5);
        assert!(est.compute_dollars > 0.0);
        // The degradation table, now code.
        assert_eq!(SHED_CROWD_BACKLOG, 4);
        assert_eq!(NO_SPECULATION_BATCH_BACKLOG, 8);
        assert_eq!(DOWNGRADE_MACHINE_SHARE, 0.25);
    }
}
