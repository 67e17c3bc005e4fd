//! The multi-tenant CloudMatcher service core.
//!
//! §5.1 and Table 2 of the paper describe CloudMatcher as a *self-service
//! cloud system*: 13 concurrent EM tasks from different users, each
//! decomposed into DAG fragments routed across the user-interaction,
//! crowd, and batch engines by a metamanager. [`crate::cloud`] reproduces
//! the per-workflow mechanics; this module makes the system *long-lived
//! and multi-tenant*:
//!
//! * **Admission control** — every submission is estimated in the exact
//!   currencies of Table 2 (label $, compute $, machine time) and checked
//!   against the tenant's [`TenantQuota`] by a [`magellan_faults::Budget`]
//!   -backed controller. Under overload the service *queues* (bounded) or
//!   *rejects* (typed [`RejectReason`]) — deterministically: the decision
//!   is a pure function of `(seed, arrival plan, quotas, capacity)`.
//! * **Weighted fair-share + priority scheduling** — each tenant is a
//!   [`crate::schedule`] lane carrying its weight and priority; ready
//!   fragments compete for engine slots in the scheduler's one order
//!   (start, priority desc, virtual time asc, submission index). A
//!   tenant's virtual time advances by `service_seconds / weight`, so a
//!   weight-2 tenant receives twice the share of a saturated engine over
//!   time. Engine saturation is the backpressure signal: fragments wait,
//!   backlogs grow, and the degradation policy reads those backlogs.
//! * **Policy-driven graceful degradation** — the crowd→single-user
//!   fallback of PR 2 generalized into ordered, declarative
//!   [`DegradationRule`]s: shed crowd work first, then disable
//!   speculative re-execution, then downgrade priority. Every decision is
//!   recorded as an obs event and counted in the obs registry.
//!
//! **Bit-identity contract.** An accepted tenant's [`TaskOutcome`] is
//! byte-identical to running that tenant alone, at any worker count,
//! under any seeded fault plan. This falls out of two rules: the
//! workload runs under the tenant's own `task_seed` (never service
//! state), and *machine time is simulated* from a deterministic
//! [`ServiceCostModel`] — the service never lets wall-clock feed an
//! outcome, an admission decision, or a pinned obs export.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use magellan_core::checkpoint::CheckpointStore;
use magellan_core::MagellanError;
use magellan_faults::{run_with_retry, Budget, SimClock};
use magellan_obs::{EvVal, Histogram};
use magellan_table::segment::{self, SegmentError, SegmentReader};

use crate::cloud::{execute_labeling, CostModel, TaskOutcome, TaskSpec};
pub use crate::schedule::Priority;
use crate::schedule::{
    check_batch_slots, resolve_fragment, set_backoff_gauge, sim_ns, task_chain, Engine, Engines,
    Fragment, Lane, ScheduleRecoveryOptions,
};

/// Per-tenant quotas in the currencies of Table 2. `f64::INFINITY`
/// disables a cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Cap on labeling dollars (crowd fees).
    pub label_dollars: f64,
    /// Cap on metered compute dollars.
    pub compute_dollars: f64,
    /// Cap on machine time, simulated seconds.
    pub machine_time_s: f64,
}

impl TenantQuota {
    /// No caps.
    pub fn unlimited() -> Self {
        TenantQuota {
            label_dollars: f64::INFINITY,
            compute_dollars: f64::INFINITY,
            machine_time_s: f64::INFINITY,
        }
    }
}

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

/// What a degradation rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Reroute the tenant's crowd fragments to their own user at
    /// single-user speed (the paper's crowd→single-user fallback).
    ShedCrowdToUser,
    /// Stop launching speculative backup copies for this tenant's
    /// straggling batch fragments (saves batch slots under pressure).
    DisableSpeculation,
    /// Drop the tenant to [`Priority::Low`] for the rest of their run.
    DowngradePriority,
}

impl DegradeAction {
    /// Stable lowercase name for events and the policy table.
    pub fn name(self) -> &'static str {
        match self {
            DegradeAction::ShedCrowdToUser => "shed_crowd_to_user",
            DegradeAction::DisableSpeculation => "disable_speculation",
            DegradeAction::DowngradePriority => "downgrade_priority",
        }
    }
}

/// When a degradation rule fires. Backlogs count *ready* fragments
/// (their tenant's previous fragment finished) that target the engine —
/// i.e. actual backpressure, not projected load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradeTrigger {
    /// At least this many ready fragments waiting on the crowd engine.
    CrowdBacklogAtLeast(usize),
    /// At least this many ready fragments waiting on the batch engine.
    BatchBacklogAtLeast(usize),
    /// The tenant's actual labeling spend exceeded their label-$ quota
    /// (the admission estimate was optimistic).
    LabelBudgetOverrun,
    /// The tenant's remaining machine-time budget fell below this
    /// fraction of their quota.
    MachineBudgetBelow(f64),
}

impl DegradeTrigger {
    /// Human-readable condition for the policy table.
    pub fn describe(&self) -> String {
        match self {
            DegradeTrigger::CrowdBacklogAtLeast(k) => format!("crowd backlog >= {k}"),
            DegradeTrigger::BatchBacklogAtLeast(k) => format!("batch backlog >= {k}"),
            DegradeTrigger::LabelBudgetOverrun => "label $ spend > quota".to_string(),
            DegradeTrigger::MachineBudgetBelow(f) => {
                format!("machine budget remaining < {:.0}%", f * 100.0)
            }
        }
    }
}

/// One declarative degradation rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationRule {
    /// Condition.
    pub trigger: DegradeTrigger,
    /// Response.
    pub action: DegradeAction,
}

/// An ordered list of degradation rules, evaluated front to back each
/// time a tenant's next fragment becomes ready. Order *is* the policy:
/// the default sheds cheap-to-shed crowd work first, then stops paying
/// for speculation, and only then touches a tenant's priority.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPolicy {
    /// The rules, in evaluation order.
    pub rules: Vec<DegradationRule>,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            rules: vec![
                DegradationRule {
                    trigger: DegradeTrigger::CrowdBacklogAtLeast(4),
                    action: DegradeAction::ShedCrowdToUser,
                },
                DegradationRule {
                    trigger: DegradeTrigger::LabelBudgetOverrun,
                    action: DegradeAction::ShedCrowdToUser,
                },
                DegradationRule {
                    trigger: DegradeTrigger::BatchBacklogAtLeast(8),
                    action: DegradeAction::DisableSpeculation,
                },
                DegradationRule {
                    trigger: DegradeTrigger::MachineBudgetBelow(0.25),
                    action: DegradeAction::DowngradePriority,
                },
            ],
        }
    }
}

impl DegradationPolicy {
    /// A policy that never degrades anything.
    pub fn none() -> Self {
        DegradationPolicy { rules: Vec::new() }
    }

    /// Render the policy as a Markdown table (used in docs and the
    /// `exp_service` report).
    pub fn table(&self) -> String {
        let mut out = String::from("| # | trigger | action |\n|---|---------|--------|\n");
        for (i, r) in self.rules.iter().enumerate() {
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                i + 1,
                r.trigger.describe(),
                r.action.name()
            ));
        }
        out
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The workload estimate exceeds the named quota currency.
    Quota {
        /// `"label_dollars"`, `"compute_dollars"`, or `"machine_time_s"`.
        currency: &'static str,
    },
    /// Active set and admission queue are both full (overload shed).
    QueueFull,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Quota { currency } => write!(f, "quota_exceeded:{currency}"),
            RejectReason::QueueFull => write!(f, "queue_full"),
        }
    }
}

/// The admission controller's decision for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Activated on arrival.
    Admitted,
    /// Held in the bounded queue, activated when a slot freed up.
    AdmittedAfterQueue,
    /// Never ran.
    Rejected(RejectReason),
}

impl Admission {
    /// Did this tenant's workload run?
    pub fn accepted(&self) -> bool {
        !matches!(self, Admission::Rejected(_))
    }
}

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
    /// Degradation policy.
    pub policy: DegradationPolicy,
    /// The seeded fault plan (tenant failures, fragment failures,
    /// stragglers, crowd no-shows), the backoff policy (tenant
    /// activation, fragment and checkpoint I/O retries), and the fragment
    /// recovery knobs — the options [`crate::schedule::schedule_fragments`]
    /// takes. Its `degrade_factor` also scales policy-shed crowd
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
            policy: DegradationPolicy::default(),
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
    /// Policy disabled speculation for this tenant.
    pub speculation_disabled: bool,
    /// Policy downgraded this tenant to low priority.
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
    /// Crowd fragments shed to the submitting user by policy (no-show
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

/// The Table 2 currencies a workload is estimated to consume; what the
/// admission controller charges against the tenant's quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadEstimate {
    /// Estimated labeling dollars.
    pub label_dollars: f64,
    /// Estimated compute dollars.
    pub compute_dollars: f64,
    /// Estimated machine time, simulated seconds.
    pub machine_time_s: f64,
}

/// Estimate a workload without running it — a pure function of the
/// submission and the cost models, so admission decisions never depend
/// on execution state.
pub fn estimate_workload(sub: &TenantSubmission<'_>, cfg: &ServiceConfig) -> WorkloadEstimate {
    let cm = &cfg.cost_model;
    let (questions, crowd, rows, n_candidates, on_cloud) = match &sub.workload {
        Workload::Em(spec) => (
            spec.falcon.sample_size as f64,
            matches!(spec.labeling, crate::cloud::LabelingMode::Crowd { .. }),
            (spec.table_a.nrows(), spec.table_b.nrows()),
            0usize, // candidates unknown before blocking; the machine
            // budget covers the gap at run time via degradation
            spec.on_cloud,
        ),
        Workload::Synthetic(s) => (
            (s.questions_blocking + s.questions_matching) as f64,
            s.crowd,
            s.rows,
            s.n_candidates,
            s.on_cloud,
        ),
    };
    let machine_time_s = cfg.svc_cost.machine_s(rows, n_candidates);
    WorkloadEstimate {
        label_dollars: if crowd {
            cm.crowd_dollars(questions)
        } else {
            0.0
        },
        compute_dollars: cm.compute_dollars(machine_time_s, on_cloud),
        machine_time_s,
    }
}

/// Admission decision for one submission given current load — pure in
/// `(estimate, quota, active, queued, limits)`.
fn admit(
    est: &WorkloadEstimate,
    quota: &TenantQuota,
    active_now: usize,
    queued_now: usize,
    cfg: &ServiceConfig,
) -> Result<bool, RejectReason> {
    if est.label_dollars > quota.label_dollars {
        return Err(RejectReason::Quota {
            currency: "label_dollars",
        });
    }
    if est.compute_dollars > quota.compute_dollars {
        return Err(RejectReason::Quota {
            currency: "compute_dollars",
        });
    }
    if est.machine_time_s > quota.machine_time_s {
        return Err(RejectReason::Quota {
            currency: "machine_time_s",
        });
    }
    if active_now < cfg.max_active_tenants {
        Ok(true) // activate now
    } else if queued_now < cfg.max_queue {
        Ok(false) // queue
    } else {
        Err(RejectReason::QueueFull)
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
            let machine_time_s = cfg.svc_cost.machine_s(s.rows, s.n_candidates);
            Ok(WorkloadRun {
                outcome: TaskOutcome {
                    name: sub.tenant.name.clone(),
                    rows: s.rows,
                    precision: 0.85 + 0.15 * unit64(seed ^ 0xA11CE),
                    recall: 0.75 + 0.25 * unit64(seed ^ 0xB0B5),
                    questions,
                    crowd_cost: if s.crowd {
                        cm.crowd_dollars(questions as f64)
                    } else {
                        0.0
                    },
                    compute_cost: cm.compute_dollars(machine_time_s, s.on_cloud),
                    label_time_s: questions as f64 * cm.per_question_s(label_engine),
                    machine_time_s,
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
// Service checkpoint (`emsvc v2`)
// ---------------------------------------------------------------------

const SVC_MAGIC: &str = "emsvc v2";

/// One segment: `count:u64`, then per completed run its submission
/// index, eight integers and six IEEE-754 bit patterns (15 × u64).
const SEG_RUNS: u32 = 1;

const RUN_WORDS: usize = 15;

/// Serialize completed workload runs as `emsvc v2`. Floats are stored as
/// bit patterns so restoration is byte-identical.
fn runs_to_bytes(runs: &BTreeMap<usize, WorkloadRun>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + runs.len() * RUN_WORDS * 8);
    payload.extend_from_slice(&(runs.len() as u64).to_le_bytes());
    for (&i, r) in runs {
        let o = &r.outcome;
        let ints = [
            i,
            r.questions_blocking,
            r.questions_matching,
            o.questions,
            o.n_candidates,
            o.crowd_no_shows,
            o.crowd_degraded_questions,
            o.rows.0,
            o.rows.1,
        ];
        let floats = [
            o.precision,
            o.recall,
            o.crowd_cost,
            o.compute_cost,
            o.label_time_s,
            o.machine_time_s,
        ];
        for w in ints
            .map(|v| v as u64)
            .into_iter()
            .chain(floats.map(f64::to_bits))
        {
            payload.extend_from_slice(&w.to_le_bytes());
        }
    }
    segment::encode(SVC_MAGIC, &[(SEG_RUNS, &payload)])
}

fn svc_corrupt(msg: impl std::fmt::Display) -> MagellanError {
    MagellanError::Checkpoint {
        message: format!("corrupt service checkpoint: {msg}"),
        transient: false,
    }
}

/// Parse `emsvc v2` back into the completed-run map. Names and label
/// engines are reattached from the submissions at resume time, so only
/// the deterministic numbers are stored.
fn runs_from_bytes(
    data: &[u8],
    subs: &[TenantSubmission<'_>],
) -> Result<BTreeMap<usize, WorkloadRun>, MagellanError> {
    let read = || -> Result<Vec<u64>, SegmentError> {
        let mut file = SegmentReader::open(data, SVC_MAGIC)?;
        let mut f = file.expect(SEG_RUNS)?.fields();
        let n = f.count(RUN_WORDS * 8)? * RUN_WORDS;
        let words = (0..n).map(|_| f.u64()).collect::<Result<_, _>>()?;
        f.end()?;
        file.finish()?;
        Ok(words)
    };
    let mut runs = BTreeMap::new();
    for row in read().map_err(svc_corrupt)?.chunks_exact(RUN_WORDS) {
        let idx = row[0] as usize;
        // The writer emits strictly increasing indices; a repeat would
        // silently overwrite a run.
        if let Some((&last, _)) = runs.last_key_value() {
            if idx <= last {
                return Err(svc_corrupt(format!(
                    "run index {idx} does not follow {last}"
                )));
            }
        }
        let ints: Vec<usize> = row[1..9].iter().map(|&w| w as usize).collect();
        let bits = &row[9..];
        let sub = subs
            .get(idx)
            .ok_or_else(|| svc_corrupt(format!("run index {idx} out of range")))?;
        let crowd = match &sub.workload {
            Workload::Em(spec) => matches!(spec.labeling, crate::cloud::LabelingMode::Crowd { .. }),
            Workload::Synthetic(s) => s.crowd,
        };
        let name = match &sub.workload {
            Workload::Em(spec) => spec.name.clone(),
            Workload::Synthetic(_) => sub.tenant.name.clone(),
        };
        runs.insert(
            idx,
            WorkloadRun {
                outcome: TaskOutcome {
                    name,
                    rows: (ints[6], ints[7]),
                    precision: f64::from_bits(bits[0]),
                    recall: f64::from_bits(bits[1]),
                    questions: ints[2],
                    crowd_cost: f64::from_bits(bits[2]),
                    compute_cost: f64::from_bits(bits[3]),
                    label_time_s: f64::from_bits(bits[4]),
                    machine_time_s: f64::from_bits(bits[5]),
                    n_candidates: ints[3],
                    crowd_no_shows: ints[4],
                    crowd_degraded_questions: ints[5],
                },
                questions_blocking: ints[0],
                questions_matching: ints[1],
                label_engine: if crowd {
                    Engine::Crowd
                } else {
                    Engine::UserInteraction
                },
            },
        );
    }
    Ok(runs)
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
    /// The next fragment, policy-applied and fault-resolved, plus extra
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

/// Completed workload runs: restored from the `emsvc v2` checkpoint at
/// start, appended to it after every fresh run.
struct RunLog<'s> {
    runs: BTreeMap<usize, WorkloadRun>,
    store: Option<&'s mut dyn CheckpointStore>,
    io_clock: SimClock,
    /// Workloads run in this process (the chaos kill hook counts these).
    fresh: u32,
}

impl<'s> RunLog<'s> {
    fn open(
        mut store: Option<&'s mut dyn CheckpointStore>,
        subs: &[TenantSubmission<'_>],
        cfg: &ServiceConfig,
    ) -> Result<Self, MagellanError> {
        let mut io_clock = SimClock::new();
        let mut runs = BTreeMap::new();
        if let Some(s) = store.as_mut() {
            let loaded = run_with_retry(&cfg.recovery.retry, &mut io_clock, |_| s.load_bytes())?;
            if let Some(bytes) = loaded {
                runs = runs_from_bytes(&bytes, subs)?;
            }
        }
        if !runs.is_empty() {
            magellan_obs::event(
                "service_resumed",
                &[("restored_runs", EvVal::U(runs.len() as u64))],
            );
        }
        Ok(RunLog {
            runs,
            store,
            io_clock,
            fresh: 0,
        })
    }

    /// Tenant `i`'s run: restored, or run now and checkpointed — and the
    /// process killed here if the chaos hook says so.
    fn get_or_run(
        &mut self,
        i: usize,
        subs: &[TenantSubmission<'_>],
        cfg: &ServiceConfig,
    ) -> Result<WorkloadRun, MagellanError> {
        if let Some(r) = self.runs.get(&i) {
            return Ok(r.clone());
        }
        let r = run_workload(&subs[i], cfg)?;
        self.runs.insert(i, r.clone());
        self.fresh += 1;
        if let Some(s) = self.store.as_mut() {
            let bytes = runs_to_bytes(&self.runs);
            run_with_retry(&cfg.recovery.retry, &mut self.io_clock, |_| {
                s.save_bytes(&bytes)
            })?;
        }
        if cfg.kill_after_tenants == Some(self.fresh) {
            let after = EvVal::U(u64::from(self.fresh));
            magellan_obs::event("service_killed", &[("after_runs", after)]);
            return Err(MagellanError::Killed {
                after_phase: "service",
            });
        }
        Ok(r)
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

    /// Apply the degradation policy to `a`'s next fragment, then resolve
    /// it under the fault plan into `a.pending`. `backlog` is the
    /// `(crowd, batch)` count of ready fragments; `report` carries which
    /// one-shot actions already fired for this tenant. A policy shed adds
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
        // Policy pass, rules in declared order.
        for rule in &cfg.policy.rules {
            let fires = match rule.trigger {
                DegradeTrigger::CrowdBacklogAtLeast(k) => backlog.0 >= k,
                DegradeTrigger::BatchBacklogAtLeast(k) => backlog.1 >= k,
                DegradeTrigger::LabelBudgetOverrun => a.label_overrun,
                DegradeTrigger::MachineBudgetBelow(f) => {
                    a.machine.total_s.is_finite()
                        && a.machine.total_s > 0.0
                        && a.machine.remaining_s() / a.machine.total_s < f
                }
            };
            if !fires {
                continue;
            }
            match rule.action {
                DegradeAction::ShedCrowdToUser => a.shed_all_crowd = true,
                DegradeAction::DisableSpeculation if !report.speculation_disabled => {
                    magellan_obs::counter_add("magellan_service_speculation_disabled_total", 1);
                    report.speculation_disabled = true;
                    degrade("disable_speculation", &[]);
                }
                DegradeAction::DowngradePriority if !report.priority_downgraded => {
                    a.lane.priority = Priority::Low;
                    magellan_obs::counter_add("magellan_service_priority_downgrades_total", 1);
                    report.priority_downgraded = true;
                    degrade("downgrade_priority", &[]);
                }
                DegradeAction::DisableSpeculation | DegradeAction::DowngradePriority => {}
            }
        }
        // Shed crowd fragments: policy, label overrun, or no crowd
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
            // Resolve pending fragments (policy + faults) in submission
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

    fn synth(
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
            policy: DegradationPolicy::none(),
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
        let cfg = ServiceConfig {
            max_active_tenants: 4,
            crowd_slots: 1,
            policy: DegradationPolicy {
                rules: vec![
                    DegradationRule {
                        trigger: DegradeTrigger::CrowdBacklogAtLeast(2),
                        action: DegradeAction::ShedCrowdToUser,
                    },
                    DegradationRule {
                        trigger: DegradeTrigger::BatchBacklogAtLeast(1),
                        action: DegradeAction::DisableSpeculation,
                    },
                ],
            },
            ..Default::default()
        };
        let svc = MatchService::new(cfg).unwrap();
        let subs: Vec<_> = (0..4)
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
            policy: DegradationPolicy::none(),
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
    fn corrupt_service_checkpoints_are_fatal_not_half_parsed() {
        let subs = vec![synth(0, 0.0, false, TenantQuota::unlimited())];
        let svc = MatchService::new(ServiceConfig::default()).unwrap();
        let resume = |bytes: &[u8]| {
            let mut store = MemStore::default();
            store.save_bytes(bytes).unwrap();
            svc.run_with_checkpoint(&subs, &mut store).unwrap_err()
        };

        let mut runs = BTreeMap::new();
        runs.insert(0usize, run_workload(&subs[0], &svc.config).unwrap());
        let good = runs_to_bytes(&runs);
        assert!(runs_from_bytes(&good, &subs).is_ok());

        // A torn write: the runs segment cut before its checksum.
        let err = resume(&good[..good.len() - 24 - 8]);
        assert!(err.fatal() && err.to_string().contains("checksum"), "{err}");

        // The run index flipped under a stale checksum.
        let mut tampered = good.clone();
        tampered[16 + 16 + 8] = 9;
        let err = resume(&tampered);
        assert!(
            err.fatal() && err.to_string().contains("checksum mismatch"),
            "{err}"
        );

        // Re-sealed, the same edit reaches the range check.
        let payload = &good[16 + 16..good.len() - 24 - 8];
        let mut edited = payload.to_vec();
        edited[8] = 9;
        let err = resume(&segment::encode(SVC_MAGIC, &[(SEG_RUNS, &edited)]));
        assert!(
            err.to_string().contains("run index 9 out of range"),
            "{err}"
        );

        // Bad magic is diagnosed as such, naming what was found.
        let err = resume(b"emckpt v1\n");
        assert!(err.to_string().contains("bad magic"), "{err}");
        let err = resume(b"emsvc v1\nruns 0\nend\n");
        assert!(
            err.fatal() && err.to_string().contains("found `emsvc v1`"),
            "{err}"
        );
    }

    #[test]
    fn emsvc_restore_rejects_a_repeated_or_decreasing_run_index() {
        let subs: Vec<_> = (0..2)
            .map(|i| synth(i, 0.0, false, TenantQuota::unlimited()))
            .collect();
        let cfg = ServiceConfig::default();
        let mut runs = BTreeMap::new();
        for (i, sub) in subs.iter().enumerate() {
            runs.insert(i, run_workload(sub, &cfg).unwrap());
        }
        let good = runs_to_bytes(&runs);
        assert_eq!(runs_from_bytes(&good, &subs).unwrap().len(), 2);
        // Re-seal the runs segment with the indices rewritten, so only
        // the order check can object.
        let payload = &good[16 + 16..good.len() - 24 - 8];
        for (first, second, msg) in [
            (0u64, 0u64, "run index 0 does not follow 0"),
            (1, 0, "run index 0 does not follow 1"),
        ] {
            let mut edited = payload.to_vec();
            edited[8..16].copy_from_slice(&first.to_le_bytes());
            edited[8 + RUN_WORDS * 8..16 + RUN_WORDS * 8].copy_from_slice(&second.to_le_bytes());
            let resealed = segment::encode(SVC_MAGIC, &[(SEG_RUNS, &edited)]);
            let err = runs_from_bytes(&resealed, &subs).unwrap_err();
            assert!(err.fatal() && err.to_string().contains(msg), "{err}");
        }
    }

    #[test]
    fn service_checkpoints_roundtrip_float_bits_exactly() {
        let subs: Vec<_> = (0..3)
            .map(|i| synth(i, 0.0, i == 1, TenantQuota::unlimited()))
            .collect();
        let cfg = ServiceConfig::default();
        let mut runs = BTreeMap::new();
        for (i, sub) in subs.iter().enumerate() {
            runs.insert(i, run_workload(sub, &cfg).unwrap());
        }
        let bytes = runs_to_bytes(&runs);
        let back = runs_from_bytes(&bytes, &subs).unwrap();
        assert_eq!(back.len(), 3);
        for (i, r) in &runs {
            let b = &back[i];
            assert_eq!(b.outcome, r.outcome);
            assert_eq!(b.questions_blocking, r.questions_blocking);
            assert_eq!(b.questions_matching, r.questions_matching);
            assert_eq!(b.label_engine, r.label_engine);
        }
    }

    #[test]
    fn emsvc_bytes_are_pinned() {
        let subs: Vec<_> = (0..5)
            .map(|i| synth(i, 0.0, i % 2 == 1, TenantQuota::unlimited()))
            .collect();
        let cfg = ServiceConfig::default();
        let mut runs = BTreeMap::new();
        for i in [0, 1, 3, 4] {
            runs.insert(i, run_workload(&subs[i], &cfg).unwrap());
        }
        let bytes = runs_to_bytes(&runs);
        assert_eq!(
            (bytes.len(), magellan_obs::fnv1a(&bytes)),
            (552, 13993758644846044057)
        );
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
        let table = DegradationPolicy::default().table();
        assert!(table.contains("shed_crowd_to_user"));
        assert!(table.contains("disable_speculation"));
        assert!(table.contains("downgrade_priority"));
    }
}
