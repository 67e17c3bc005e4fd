//! # magellan-faults — deterministic chaos for the EM execution stack
//!
//! CloudMatcher routes DAG fragments to three *unreliable* engines: crowd
//! workers that are slow, wrong, or absent (Table 2's 22–36 h crowd
//! latencies), preemptible batch compute, and users who walk away. The
//! execution layer therefore needs a real failure model, not a happy path.
//! This crate provides the three primitives the rest of the workspace
//! builds recovery on:
//!
//! * [`FaultPlan`] — a *seeded, pure* description of which faults fire
//!   where. Every decision is a hash of `(seed, fault kind, site ids,
//!   attempt)`, so a plan is reproducible across runs, processes, and
//!   worker counts, and two sites never share a decision. Injected faults
//!   are **bounded per site** (at most [`FaultPlan::max_failures_per_site`]
//!   consecutive failures), which is what lets retrying executors prove
//!   convergence.
//! * [`RetryPolicy`] — exponential backoff with *deterministic* jitter and
//!   a max-attempt cap. Backoff time is simulated ([`SimClock`]) so chaos
//!   tests replay hours of crowd latency in microseconds.
//! * [`Budget`] — a simulated-time deadline/spend tracker that drives
//!   degradation decisions (e.g. crowd → single-user when the crowd's
//!   latency budget is exhausted).
//!
//! Nothing here touches wall-clock, global state, or threads: a
//! `FaultPlan` is plain `Copy` data that can ride inside any config
//! struct, which is how `magellan-par` threads chunk-level fault injection
//! through its work-stealing pool without breaking its determinism
//! contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use magellan_obs::splitmix64;

/// Mix a seed with a list of site identifiers into one decision word.
fn mix(seed: u64, ids: &[u64]) -> u64 {
    let mut h = splitmix64(seed);
    for &id in ids {
        h = splitmix64(h ^ id);
    }
    h
}

/// Uniform `[0, 1)` derived from a decision word.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The kinds of faults a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A parallel chunk panics mid-execution (worker crash).
    ChunkPanic,
    /// A DAG fragment fails before producing output (engine failure /
    /// batch preemption).
    FragmentFailure,
    /// A solicited crowd vote never arrives.
    CrowdNoShow,
    /// A fragment runs far longer than nominal (straggler).
    StragglerDelay,
    /// A transient I/O error (checkpoint write, table read).
    TransientIo,
    /// A whole tenant's workflow activation fails transiently (their
    /// session drops, their upload stalls) before any fragment runs.
    TenantFailure,
}

impl FaultKind {
    fn tag(self) -> u64 {
        match self {
            FaultKind::ChunkPanic => 0x01,
            FaultKind::FragmentFailure => 0x02,
            FaultKind::CrowdNoShow => 0x03,
            FaultKind::StragglerDelay => 0x04,
            FaultKind::TransientIo => 0x05,
            FaultKind::TenantFailure => 0x06,
        }
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Probabilities are per-mille (`137` ⇒ 13.7%). A probability of zero
/// disables that fault kind entirely; [`FaultPlan::none`] disables all of
/// them and is the implicit production configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed. Two plans with different seeds produce independent
    /// fault streams.
    pub seed: u64,
    /// Per-mille probability that a given site fails at all.
    pub chunk_panic_per_mille: u32,
    /// Per-mille probability a DAG fragment attempt fails.
    pub fragment_failure_per_mille: u32,
    /// Per-mille probability a solicited crowd vote never arrives.
    pub crowd_no_show_per_mille: u32,
    /// Per-mille probability a fragment straggles.
    pub straggler_per_mille: u32,
    /// Duration multiplier applied to straggling fragments (≥ 1).
    pub straggler_factor_x100: u32,
    /// Per-mille probability an I/O operation fails transiently.
    pub io_error_per_mille: u32,
    /// Per-mille probability a tenant's workflow activation fails
    /// transiently (retried by the service layer like any other
    /// transient fault).
    pub tenant_failure_per_mille: u32,
    /// Upper bound on *consecutive* injected failures at one site. A site
    /// that draws "faulty" fails attempts `0..k` for a per-site
    /// `k ≤ max_failures_per_site`, then succeeds forever — so any
    /// retrying executor with more than this many attempts converges.
    pub max_failures_per_site: u32,
}

impl FaultPlan {
    /// The no-fault plan (production default; every probability zero).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            chunk_panic_per_mille: 0,
            fragment_failure_per_mille: 0,
            crowd_no_show_per_mille: 0,
            straggler_per_mille: 0,
            straggler_factor_x100: 100,
            io_error_per_mille: 0,
            tenant_failure_per_mille: 0,
            max_failures_per_site: 0,
        }
    }

    /// The standard chaos mix used by the chaos suite: every fault kind
    /// enabled at a rate aggressive enough to fire many times per
    /// pipeline run, bounded at 2 consecutive failures per site.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            chunk_panic_per_mille: 150,
            fragment_failure_per_mille: 250,
            crowd_no_show_per_mille: 200,
            straggler_per_mille: 200,
            straggler_factor_x100: 800,
            io_error_per_mille: 150,
            tenant_failure_per_mille: 150,
            max_failures_per_site: 2,
        }
    }

    /// True when no fault kind can ever fire.
    pub fn is_none(&self) -> bool {
        self.chunk_panic_per_mille == 0
            && self.fragment_failure_per_mille == 0
            && self.crowd_no_show_per_mille == 0
            && self.straggler_per_mille == 0
            && self.io_error_per_mille == 0
            && self.tenant_failure_per_mille == 0
    }

    /// How many consecutive attempts fail at the site identified by `ids`
    /// for a fault kind with the given per-mille rate: `0` for healthy
    /// sites, otherwise `1..=max_failures_per_site`.
    fn site_failures(&self, kind: FaultKind, per_mille: u32, ids: &[u64]) -> u32 {
        if per_mille == 0 || self.max_failures_per_site == 0 {
            return 0;
        }
        let h = mix(self.seed ^ kind.tag().wrapping_mul(0xA24BAED4963EE407), ids);
        if unit(h) >= per_mille as f64 / 1000.0 {
            return 0;
        }
        // Faulty site: draw how many consecutive attempts fail.
        1 + (splitmix64(h) % self.max_failures_per_site as u64) as u32
    }

    /// Does attempt `attempt` (0-based) of chunk `chunk` in region
    /// `region` panic?
    pub fn chunk_panics(&self, region: u64, chunk: u64, attempt: u32) -> bool {
        attempt
            < self.site_failures(
                FaultKind::ChunkPanic,
                self.chunk_panic_per_mille,
                &[region, chunk],
            )
    }

    /// Does attempt `attempt` of fragment `frag` of task `task` fail?
    pub fn fragment_fails(&self, task: u64, frag: u64, attempt: u32) -> bool {
        attempt
            < self.site_failures(
                FaultKind::FragmentFailure,
                self.fragment_failure_per_mille,
                &[task, frag],
            )
    }

    /// Does the `vote`-th crowd vote for question `question` never show
    /// up? (No-shows are per-vote, not per-attempt: a replacement vote is
    /// a new `vote` id.)
    pub fn crowd_no_show(&self, question: u64, vote: u64) -> bool {
        self.crowd_no_show_per_mille > 0
            && unit(mix(
                self.seed ^ FaultKind::CrowdNoShow.tag().wrapping_mul(0xA24BAED4963EE407),
                &[question, vote],
            )) < self.crowd_no_show_per_mille as f64 / 1000.0
    }

    /// The *effective* duration of a fragment whose nominal duration is
    /// `nominal_s`: either `nominal_s` or `nominal_s × straggler_factor`
    /// when the straggler fault fires for this site. Attempt 0 only —
    /// re-executions (speculative or retried) run at nominal speed, which
    /// models rescheduling off the slow machine.
    pub fn straggler_duration_s(&self, task: u64, frag: u64, nominal_s: f64) -> f64 {
        if self.straggler_per_mille == 0 {
            return nominal_s;
        }
        let h = mix(
            self.seed ^ FaultKind::StragglerDelay.tag().wrapping_mul(0xA24BAED4963EE407),
            &[task, frag],
        );
        if unit(h) < self.straggler_per_mille as f64 / 1000.0 {
            nominal_s * (self.straggler_factor_x100.max(100) as f64 / 100.0)
        } else {
            nominal_s
        }
    }

    /// Does attempt `attempt` of I/O operation `op` fail transiently?
    pub fn io_fails(&self, op: u64, attempt: u32) -> bool {
        attempt < self.site_failures(FaultKind::TransientIo, self.io_error_per_mille, &[op])
    }

    /// Does attempt `attempt` of activating tenant `tenant`'s workflow
    /// fail transiently? Bounded per tenant like every other site, so a
    /// retrying service always converges.
    pub fn tenant_fails(&self, tenant: u64, attempt: u32) -> bool {
        attempt
            < self.site_failures(
                FaultKind::TenantFailure,
                self.tenant_failure_per_mille,
                &[tenant],
            )
    }

    /// The chunk-level slice of this plan for `region`, as the plain-data
    /// injector `magellan-par` carries inside its `ParConfig`.
    pub fn chunk_faults(&self, region: u64) -> ChunkFaults {
        ChunkFaults {
            seed: self.seed,
            region,
            per_mille: self.chunk_panic_per_mille,
            max_failures: self.max_failures_per_site,
        }
    }
}

/// The chunk-panic slice of a [`FaultPlan`]: pure `Copy` data a parallel
/// executor can carry in its config and consult per `(chunk, attempt)`.
/// Decisions depend only on `(seed, region, chunk, attempt)` — never on
/// which worker claims the chunk — so injection preserves any
/// scheduling-independence contract the executor offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkFaults {
    /// Plan seed.
    pub seed: u64,
    /// Identifier of the parallel region (so two regions in one pipeline
    /// draw independent faults).
    pub region: u64,
    /// Per-mille probability a chunk site is faulty.
    pub per_mille: u32,
    /// Max consecutive injected failures per chunk.
    pub max_failures: u32,
}

impl ChunkFaults {
    /// An injector that never fires.
    pub fn none() -> Self {
        ChunkFaults {
            seed: 0,
            region: 0,
            per_mille: 0,
            max_failures: 0,
        }
    }

    /// Should attempt `attempt` (0-based) of `chunk` panic?
    pub fn injects(&self, chunk: u64, attempt: u32) -> bool {
        FaultPlan {
            seed: self.seed,
            chunk_panic_per_mille: self.per_mille,
            max_failures_per_site: self.max_failures,
            ..FaultPlan::none()
        }
        .chunk_panics(self.region, chunk, attempt)
    }
}

/// A seeded, deterministic tenant arrival plan on the simulated clock.
///
/// CloudMatcher is a *multi-tenant* self-service system: Table 2 of the
/// paper reports 13 concurrent EM tasks in flight. The service layer
/// replays that traffic on a [`SimClock`] timeline, and this plan is the
/// pure description of it: tenant `i` arrives at `arrival_s(i)` (the
/// cumulative sum of seeded exponential-ish interarrival gaps), with a
/// seeded priority class and fair-share weight. Every draw is a hash of
/// `(seed, tag, tenant)`, so the plan is identical across runs,
/// processes, and worker counts — which is what makes the service's
/// admission/rejection set a pure function of `(seed, plan, quotas)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPlan {
    /// Master seed for all draws.
    pub seed: u64,
    /// Number of tenants the plan describes.
    pub n_tenants: u32,
    /// Mean interarrival gap, simulated seconds.
    pub mean_interarrival_s: f64,
}

impl ArrivalPlan {
    /// Domain-separation tag for arrival-gap draws.
    const GAP_TAG: u64 = 0xA221_7A1C_0FFE_E001;
    /// Domain-separation tag for priority-class draws.
    const PRIO_TAG: u64 = 0xA221_7A1C_0FFE_E002;
    /// Domain-separation tag for fair-share-weight draws.
    const WEIGHT_TAG: u64 = 0xA221_7A1C_0FFE_E003;

    /// A plan with `n_tenants` arrivals whose gaps average
    /// `mean_interarrival_s` simulated seconds.
    pub fn poisson(seed: u64, n_tenants: u32, mean_interarrival_s: f64) -> Self {
        ArrivalPlan {
            seed,
            n_tenants,
            mean_interarrival_s: mean_interarrival_s.max(0.0),
        }
    }

    /// The seeded interarrival gap *before* tenant `tenant`, simulated
    /// seconds: an inverse-CDF exponential draw, so gaps are memoryless
    /// like real self-service traffic but perfectly replayable.
    pub fn gap_s(&self, tenant: u32) -> f64 {
        let u = unit(mix(self.seed ^ Self::GAP_TAG, &[u64::from(tenant)]));
        // u ∈ [0, 1) ⇒ 1 - u ∈ (0, 1] ⇒ the log is finite and ≤ 0.
        -self.mean_interarrival_s * (1.0 - u).ln()
    }

    /// Arrival time of tenant `tenant` (0-based), simulated seconds:
    /// cumulative sum of the gaps up to and including theirs.
    pub fn arrival_s(&self, tenant: u32) -> f64 {
        (0..=tenant.min(self.n_tenants.saturating_sub(1)))
            .map(|i| self.gap_s(i))
            .sum()
    }

    /// All arrival times in tenant order (non-decreasing by construction).
    pub fn arrivals(&self) -> Vec<f64> {
        let mut t = 0.0;
        (0..self.n_tenants)
            .map(|i| {
                t += self.gap_s(i);
                t
            })
            .collect()
    }

    /// Seeded priority class for tenant `tenant` in `0..classes` (higher
    /// is more urgent). `classes == 0` always yields `0`.
    pub fn priority_class(&self, tenant: u32, classes: u32) -> u32 {
        if classes == 0 {
            return 0;
        }
        (mix(self.seed ^ Self::PRIO_TAG, &[u64::from(tenant)]) % u64::from(classes)) as u32
    }

    /// Seeded fair-share weight for tenant `tenant` in `1..=max_weight`
    /// (never zero — a zero weight would starve the tenant forever).
    pub fn weight(&self, tenant: u32, max_weight: u32) -> u32 {
        let m = max_weight.max(1);
        1 + (mix(self.seed ^ Self::WEIGHT_TAG, &[u64::from(tenant)]) % u64::from(m)) as u32
    }
}

/// Exponential backoff with deterministic jitter and a max-attempt cap.
///
/// `delay_s(attempt)` is a pure function of `(policy, attempt)`: the
/// jitter term is hashed from the seed, so a schedule can be pinned in a
/// test and replayed identically forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try + retries). `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry, simulated seconds.
    pub base_delay_s: f64,
    /// Multiplier applied per subsequent retry (≥ 1).
    pub multiplier: f64,
    /// Upper clamp on any single backoff delay, simulated seconds.
    pub max_delay_s: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_s: 0.5,
            multiplier: 2.0,
            max_delay_s: 60.0,
            jitter: 0.25,
            seed: 7,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// May attempt number `attempt` (0-based) run at all?
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_attempts.max(1)
    }

    /// Backoff delay *before* retry number `attempt` (1-based: the delay
    /// slept after attempt `attempt - 1` failed), in simulated seconds.
    pub fn delay_s(&self, attempt: u32) -> f64 {
        let attempt = attempt.max(1);
        let exp = (attempt - 1).min(62);
        let raw = self.base_delay_s * self.multiplier.max(1.0).powi(exp as i32);
        let clamped = raw.min(self.max_delay_s);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return clamped;
        }
        // Deterministic factor in [1 - jitter, 1 + jitter].
        let u = unit(mix(self.seed ^ 0xBAC0FF, &[attempt as u64]));
        clamped * (1.0 - jitter + 2.0 * jitter * u)
    }

    /// The full backoff schedule: delays before retries `1..max_attempts`.
    pub fn schedule(&self) -> Vec<f64> {
        (1..self.max_attempts.max(1)).map(|a| self.delay_s(a)).collect()
    }

    /// Worst-case total simulated time spent backing off.
    pub fn total_backoff_s(&self) -> f64 {
        self.schedule().iter().sum()
    }
}

/// A simulated-time clock: chaos tests replay crowd-scale latencies
/// without wall-clock cost. Time only moves when someone advances it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now_s: f64,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advance by `dt` seconds (negative advances are ignored).
    pub fn advance_s(&mut self, dt: f64) {
        if dt > 0.0 && dt.is_finite() {
            self.now_s += dt;
        }
    }
}

/// A simulated-time budget/deadline: tracks spend against a cap and
/// drives degradation decisions ("the crowd blew its latency budget —
/// fall back to the single user").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Total simulated seconds allowed (`f64::INFINITY` = unlimited).
    pub total_s: f64,
    /// Simulated seconds spent so far.
    pub spent_s: f64,
}

impl Budget {
    /// A budget capped at `total_s` simulated seconds.
    pub fn seconds(total_s: f64) -> Self {
        Budget {
            total_s: total_s.max(0.0),
            spent_s: 0.0,
        }
    }

    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget {
            total_s: f64::INFINITY,
            spent_s: 0.0,
        }
    }

    /// Seconds remaining (never negative).
    pub fn remaining_s(&self) -> f64 {
        (self.total_s - self.spent_s).max(0.0)
    }

    /// Has the budget been used up?
    pub fn exhausted(&self) -> bool {
        self.spent_s >= self.total_s
    }

    /// Charge `dt` seconds against the budget; returns `true` while the
    /// budget still holds *after* the charge.
    pub fn charge_s(&mut self, dt: f64) -> bool {
        if dt > 0.0 && dt.is_finite() {
            self.spent_s += dt;
        }
        !self.exhausted()
    }
}

/// Errors that can say whether retrying might help.
pub trait Transience {
    /// True when the failure is plausibly temporary (worth retrying).
    fn transient(&self) -> bool;
    /// True when retrying cannot help.
    fn fatal(&self) -> bool {
        !self.transient()
    }
}

/// Run `f` under `policy`, advancing `clock` by the backoff delay between
/// attempts. Retries only transient errors; the first fatal error — or
/// the last transient one once attempts are exhausted — is returned.
/// `f` receives the 0-based attempt number.
pub fn run_with_retry<T, E: Transience>(
    policy: &RetryPolicy,
    clock: &mut SimClock,
    mut f: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt = 0u32;
    loop {
        match f(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if e.fatal() || !policy.allows(attempt + 1) {
                    magellan_obs::event(
                        "retries_exhausted",
                        &[
                            ("attempt", magellan_obs::EvVal::U(u64::from(attempt))),
                            ("fatal", magellan_obs::EvVal::U(u64::from(e.fatal()))),
                        ],
                    );
                    magellan_obs::flight_on_failure(
                        "retries_exhausted",
                        &[("attempt", magellan_obs::EvVal::U(u64::from(attempt)))],
                    );
                    return Err(e);
                }
                let delay = policy.delay_s(attempt + 1);
                clock.advance_s(delay);
                magellan_obs::event(
                    "retry_scheduled",
                    &[("attempt", magellan_obs::EvVal::U(u64::from(attempt + 1)))],
                );
                // Mirror the simulated sleep onto a pinned obs clock and
                // log the `backoff_slept` event on the shared timeline.
                magellan_obs::on_backoff(delay);
                attempt += 1;
            }
        }
    }
}

/// One step of a seeded record stream: what the `step`-th mutation does,
/// abstractly. The plan decides *kind*, *side*, and *selector words*; the
/// streaming layer maps selectors onto its current alive population and
/// text generator, so the plan stays a pure leaf with no EM dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// Append a fresh record.
    Insert {
        /// Target the left collection (else right).
        left: bool,
    },
    /// Tombstone an existing record; `victim` is a raw selector word the
    /// caller reduces modulo its alive count.
    Delete {
        /// Target the left collection (else right).
        left: bool,
        /// Raw victim-selector word.
        victim: u64,
    },
    /// Rewrite an existing record's text in place.
    Update {
        /// Target the left collection (else right).
        left: bool,
        /// Raw victim-selector word.
        victim: u64,
    },
}

/// A seeded, pure description of an unbounded record-mutation stream —
/// the streaming analog of [`FaultPlan`]. Step `t`'s op is a hash of
/// `(seed, t)` alone, so a daemon killed at step `k` and resumed from a
/// checkpoint replays steps `k..` **identically**: determinism of the
/// incremental tier's live view reduces to determinism of this plan plus
/// the engine's own worker-invariance contract.
///
/// Kind probabilities are per-mille; whatever `insert + delete` leaves of
/// 1000 is the update rate. Mixes use distinct tag constants from every
/// [`FaultKind`] stream, so fault and stream plans sharing a seed stay
/// independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPlan {
    /// Master seed; different seeds give independent streams.
    pub seed: u64,
    /// Per-mille probability a step inserts a fresh record.
    pub insert_per_mille: u32,
    /// Per-mille probability a step deletes an existing record.
    pub delete_per_mille: u32,
    /// Per-mille probability a step targets the left collection.
    pub left_per_mille: u32,
}

/// Tag constants keeping the stream's three decision sub-streams (kind,
/// side, victim/text words) disjoint from each other and from fault
/// decisions.
const STREAM_KIND_TAG: u64 = 0x11;
const STREAM_SIDE_TAG: u64 = 0x12;
const STREAM_VICTIM_TAG: u64 = 0x13;
const STREAM_TEXT_TAG: u64 = 0x14;

impl StreamPlan {
    /// The standard churn mix used by the incremental suites: 30%
    /// inserts, 20% deletes, 50% in-place updates, sides balanced.
    pub fn churn(seed: u64) -> Self {
        StreamPlan {
            seed,
            insert_per_mille: 300,
            delete_per_mille: 200,
            left_per_mille: 500,
        }
    }

    /// An insert-only plan (pure growth — no tombstones, no compaction
    /// pressure); useful as the streaming baseline.
    pub fn insert_only(seed: u64) -> Self {
        StreamPlan {
            seed,
            insert_per_mille: 1000,
            delete_per_mille: 0,
            left_per_mille: 500,
        }
    }

    /// The `step`-th mutation of the stream (0-based), decided purely
    /// from `(seed, step)`.
    pub fn op(&self, step: u64) -> StreamOp {
        let left = unit(mix(self.seed ^ STREAM_SIDE_TAG.wrapping_mul(0xA24BAED4963EE407), &[step]))
            < self.left_per_mille as f64 / 1000.0;
        let kind =
            unit(mix(self.seed ^ STREAM_KIND_TAG.wrapping_mul(0xA24BAED4963EE407), &[step]));
        let insert_p = self.insert_per_mille as f64 / 1000.0;
        let delete_p = self.delete_per_mille as f64 / 1000.0;
        if kind < insert_p {
            StreamOp::Insert { left }
        } else if kind < insert_p + delete_p {
            StreamOp::Delete {
                left,
                victim: self.victim_word(step),
            }
        } else {
            StreamOp::Update {
                left,
                victim: self.victim_word(step),
            }
        }
    }

    /// The raw victim-selector word for `step` (callers reduce modulo the
    /// alive population at apply time).
    pub fn victim_word(&self, step: u64) -> u64 {
        mix(self.seed ^ STREAM_VICTIM_TAG.wrapping_mul(0xA24BAED4963EE407), &[step])
    }

    /// A per-step seed for generating the inserted/updated record text.
    pub fn text_seed(&self, step: u64) -> u64 {
        mix(self.seed ^ STREAM_TEXT_TAG.wrapping_mul(0xA24BAED4963EE407), &[step])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_plan_is_deterministic_and_mixes_kinds() {
        let p = StreamPlan::churn(42);
        let q = StreamPlan::churn(42);
        let mut inserts = 0;
        let mut deletes = 0;
        let mut updates = 0;
        let mut lefts = 0;
        for t in 0..1000 {
            assert_eq!(p.op(t), q.op(t), "same seed must replay identically");
            match p.op(t) {
                StreamOp::Insert { left } => {
                    inserts += 1;
                    lefts += usize::from(left);
                }
                StreamOp::Delete { left, victim } => {
                    deletes += 1;
                    lefts += usize::from(left);
                    assert_eq!(victim, p.victim_word(t));
                }
                StreamOp::Update { left, .. } => {
                    updates += 1;
                    lefts += usize::from(left);
                }
            }
        }
        // ~300/200/500 per mille with generous slack.
        assert!((200..400).contains(&inserts), "inserts={inserts}");
        assert!((100..300).contains(&deletes), "deletes={deletes}");
        assert!((400..600).contains(&updates), "updates={updates}");
        assert!((400..600).contains(&lefts), "lefts={lefts}");

        let r = StreamPlan::churn(43);
        let diverges = (0..100).any(|t| p.op(t) != r.op(t));
        assert!(diverges, "different seeds must give different streams");
    }

    #[test]
    fn insert_only_never_deletes_and_text_seeds_differ() {
        let p = StreamPlan::insert_only(7);
        for t in 0..200 {
            assert!(matches!(p.op(t), StreamOp::Insert { .. }));
        }
        assert_ne!(p.text_seed(0), p.text_seed(1));
        assert_ne!(p.text_seed(0), p.victim_word(0));
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(1);
        let c = FaultPlan::seeded(2);
        let sig = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|i| p.chunk_panics(3, i, 0))
                .chain((0..200).map(|i| p.fragment_fails(i, 1, 0)))
                .chain((0..200).map(|i| p.crowd_no_show(i, 0)))
                .collect()
        };
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&c));
        // And the rates are in a plausible band for 15–25% per-mille.
        let fired = sig(&a).iter().filter(|&&x| x).count();
        assert!(fired > 40 && fired < 250, "{fired} faults out of 600 draws");
    }

    #[test]
    fn injected_failures_are_bounded_per_site() {
        let p = FaultPlan::seeded(9);
        for chunk in 0..500u64 {
            // After max_failures_per_site attempts every site succeeds.
            assert!(!p.chunk_panics(0, chunk, p.max_failures_per_site));
            assert!(!p.fragment_fails(chunk, 0, p.max_failures_per_site));
            assert!(!p.io_fails(chunk, p.max_failures_per_site));
            // And failures are consecutive from attempt 0.
            let k = (0..=p.max_failures_per_site)
                .take_while(|&a| p.chunk_panics(0, chunk, a))
                .count() as u32;
            for a in 0..p.max_failures_per_site {
                assert_eq!(p.chunk_panics(0, chunk, a), a < k);
            }
        }
    }

    #[test]
    fn none_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for i in 0..100 {
            assert!(!p.chunk_panics(0, i, 0));
            assert!(!p.fragment_fails(i, 0, 0));
            assert!(!p.crowd_no_show(i, 0));
            assert!(!p.io_fails(i, 0));
            assert_eq!(p.straggler_duration_s(i, 0, 10.0), 10.0);
        }
        assert!(!FaultPlan::seeded(3).is_none());
    }

    #[test]
    fn chunk_faults_slice_matches_plan() {
        let p = FaultPlan::seeded(11);
        let cf = p.chunk_faults(5);
        for chunk in 0..300u64 {
            for attempt in 0..4 {
                assert_eq!(cf.injects(chunk, attempt), p.chunk_panics(5, chunk, attempt));
            }
        }
        assert!(!ChunkFaults::none().injects(0, 0));
    }

    #[test]
    fn stragglers_inflate_durations_deterministically() {
        let p = FaultPlan::seeded(4);
        let mut slow = 0;
        for frag in 0..1000u64 {
            let d = p.straggler_duration_s(1, frag, 10.0);
            assert_eq!(d, p.straggler_duration_s(1, frag, 10.0));
            assert!(d == 10.0 || (d - 80.0).abs() < 1e-9, "{d}");
            if d > 10.0 {
                slow += 1;
            }
        }
        // ~20% per-mille straggler rate.
        assert!(slow > 100 && slow < 350, "{slow} stragglers");
    }

    #[test]
    fn tenant_failures_are_bounded_and_seed_stable() {
        let p = FaultPlan::seeded(21);
        let q = FaultPlan::seeded(21);
        let mut faulty = 0;
        for t in 0..500u64 {
            assert_eq!(p.tenant_fails(t, 0), q.tenant_fails(t, 0));
            // Converges after max_failures_per_site attempts.
            assert!(!p.tenant_fails(t, p.max_failures_per_site));
            if p.tenant_fails(t, 0) {
                faulty += 1;
            }
        }
        // ~15% per-mille rate.
        assert!(faulty > 30 && faulty < 150, "{faulty} faulty tenants");
        assert!(!FaultPlan::none().tenant_fails(0, 0));
        // Enabling tenant failures alone makes the plan non-none.
        let only_tenants = FaultPlan {
            tenant_failure_per_mille: 100,
            max_failures_per_site: 1,
            ..FaultPlan::none()
        };
        assert!(!only_tenants.is_none());
    }

    #[test]
    fn arrival_plans_are_deterministic_monotone_and_seed_sensitive() {
        let a = ArrivalPlan::poisson(5, 16, 30.0);
        let b = ArrivalPlan::poisson(5, 16, 30.0);
        let c = ArrivalPlan::poisson(6, 16, 30.0);
        assert_eq!(a.arrivals(), b.arrivals());
        assert_ne!(a.arrivals(), c.arrivals());
        let ts = a.arrivals();
        assert_eq!(ts.len(), 16);
        for w in ts.windows(2) {
            assert!(w[1] >= w[0], "arrivals must be non-decreasing");
        }
        assert!(ts.iter().all(|t| t.is_finite() && *t >= 0.0));
        // Per-tenant accessor agrees with the bulk listing.
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(a.arrival_s(i as u32), *t);
        }
        // Mean gap lands in a plausible band around the configured mean.
        let mean = ts.last().unwrap() / 16.0;
        assert!(mean > 5.0 && mean < 120.0, "mean gap {mean}");
        // Priority and weight draws are in range and deterministic.
        for t in 0..16 {
            assert!(a.priority_class(t, 3) < 3);
            assert_eq!(a.priority_class(t, 3), b.priority_class(t, 3));
            let w = a.weight(t, 4);
            assert!((1..=4).contains(&w));
            assert_eq!(w, b.weight(t, 4));
        }
        assert_eq!(a.priority_class(0, 0), 0);
        assert!(a.weight(0, 0) >= 1);
    }

    #[test]
    fn backoff_schedule_is_pinned_per_seed() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay_s: 1.0,
            multiplier: 2.0,
            max_delay_s: 100.0,
            jitter: 0.25,
            seed: 42,
        };
        let s1 = p.schedule();
        let s2 = p.schedule();
        assert_eq!(s1, s2, "jitter must be deterministic");
        assert_eq!(s1.len(), 4);
        // Each delay is within ±25% of the nominal exponential step.
        for (i, d) in s1.iter().enumerate() {
            let nominal = 2f64.powi(i as i32);
            assert!(*d >= nominal * 0.75 - 1e-12 && *d <= nominal * 1.25 + 1e-12, "delay {i} = {d}");
        }
        // A different seed produces a different jitter stream.
        let other = RetryPolicy { seed: 43, ..p }.schedule();
        assert_ne!(s1, other);
        // Zero jitter gives the exact exponential schedule, clamped.
        let exact = RetryPolicy { jitter: 0.0, max_delay_s: 3.0, ..p }.schedule();
        assert_eq!(exact, vec![1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn retry_policy_caps_attempts() {
        let p = RetryPolicy { max_attempts: 3, ..Default::default() };
        assert!(p.allows(0) && p.allows(2) && !p.allows(3));
        assert!(RetryPolicy::no_retry().allows(0));
        assert!(!RetryPolicy::no_retry().allows(1));
        assert!(p.total_backoff_s() > 0.0);
    }

    #[derive(Debug)]
    struct TestErr(bool);
    impl Transience for TestErr {
        fn transient(&self) -> bool {
            self.0
        }
    }

    #[test]
    fn run_with_retry_recovers_from_transient_failures() {
        let policy = RetryPolicy {
            max_attempts: 4,
            jitter: 0.0,
            base_delay_s: 1.0,
            multiplier: 2.0,
            max_delay_s: 100.0,
            seed: 0,
        };
        let mut clock = SimClock::new();
        let r = run_with_retry(&policy, &mut clock, |attempt| {
            if attempt < 2 {
                Err(TestErr(true))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r.unwrap(), 2);
        // Two backoffs: 1s + 2s of *simulated* time.
        assert!((clock.now_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_with_retry_stops_on_fatal_and_exhaustion() {
        let policy = RetryPolicy { max_attempts: 3, ..Default::default() };
        let mut clock = SimClock::new();
        let mut calls = 0;
        let r: Result<(), TestErr> = run_with_retry(&policy, &mut clock, |_| {
            calls += 1;
            Err(TestErr(false))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1, "fatal errors must not be retried");
        assert_eq!(clock.now_s(), 0.0);

        let mut calls = 0;
        let r: Result<(), TestErr> = run_with_retry(&policy, &mut clock, |_| {
            calls += 1;
            Err(TestErr(true))
        });
        assert!(r.is_err());
        assert_eq!(calls, 3, "transient errors retry to the cap");
    }

    #[test]
    fn budget_tracks_spend_and_drives_degradation() {
        let mut b = Budget::seconds(10.0);
        assert!(!b.exhausted());
        assert!(b.charge_s(4.0));
        assert_eq!(b.remaining_s(), 6.0);
        assert!(!b.charge_s(7.0));
        assert!(b.exhausted());
        assert_eq!(b.remaining_s(), 0.0);
        let mut u = Budget::unlimited();
        assert!(u.charge_s(1e12));
        assert!(!u.exhausted());
    }

    #[test]
    fn sim_clock_only_moves_forward() {
        let mut c = SimClock::new();
        c.advance_s(2.5);
        c.advance_s(-10.0);
        c.advance_s(f64::NAN);
        assert_eq!(c.now_s(), 2.5);
    }
}
