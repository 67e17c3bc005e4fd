//! The one fragment scheduler: where and when a CloudMatcher DAG
//! fragment runs.
//!
//! §5.1 of the paper: CloudMatcher "break\[s\] each submitted EM workflow
//! into multiple DAG fragments, where each fragment performs only one
//! kind of task", and a *metamanager* routes them to the
//! user-interaction, crowd and batch engines. Both metamanagers in this
//! crate — [`crate::cloud::CloudMatcher::run_tasks`] and the multi-tenant
//! [`crate::service::MatchService`] — place fragments through this
//! module:
//!
//! * a `Lane` is one workflow's chain of fragments: the next fragment
//!   index, when it is ready, its fair-share virtual time, weight and
//!   priority;
//! * `Engines` holds per-engine slot free times and busy seconds. The
//!   user engine never contends (each workflow has its own user); crowd
//!   and batch fragments take the earliest-free slot;
//! * the placement order is earliest start, then priority descending,
//!   then virtual time ascending, then lane id;
//! * `resolve_fragment` decides a fragment's fate under a seeded
//!   [`FaultPlan`] (retries, timeouts, crowd→user degradation,
//!   speculative backups) before it is placed.
//!
//! [`schedule_fragments`] is the single public entry point: plain
//! CloudMatcher lanes (normal priority, weight 1, one crowd slot per
//! lane) under [`ScheduleRecoveryOptions`].

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeMap;

use magellan_core::MagellanError;
use magellan_faults::{FaultPlan, RetryPolicy};
use magellan_obs::EvVal;

/// The three CloudMatcher execution engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Interactive labeling by the submitting user.
    UserInteraction,
    /// Crowdsourced labeling (Mechanical Turk role).
    Crowd,
    /// Batch data processing (Hadoop/Spark role).
    Batch,
}

impl Engine {
    /// Static span name for a fragment on this engine.
    fn span_name(self) -> &'static str {
        match self {
            Engine::UserInteraction => "frag_user",
            Engine::Crowd => "frag_crowd",
            Engine::Batch => "frag_batch",
        }
    }
}

/// One engine-tagged fragment of a task's DAG, with its duration.
#[derive(Debug, Clone, Copy)]
pub struct Fragment {
    /// Engine the fragment runs on.
    pub engine: Engine,
    /// Duration in (simulated or measured) seconds.
    pub duration_s: f64,
}

/// A Falcon task's DAG as CloudMatcher runs it: label for blocking,
/// compute, label for matching, compute — the two labeling fragments on
/// `label` at `per_q_s` seconds a question, the machine time split
/// evenly between the two batch fragments.
pub(crate) fn task_chain(
    label: Engine,
    per_q_s: f64,
    (questions_blocking, questions_matching): (usize, usize),
    machine_s: f64,
) -> Vec<Fragment> {
    let label = |q: usize| Fragment {
        engine: label,
        duration_s: q as f64 * per_q_s,
    };
    let batch = Fragment {
        engine: Engine::Batch,
        duration_s: machine_s * 0.5,
    };
    vec![
        label(questions_blocking),
        batch,
        label(questions_matching),
        batch,
    ]
}

/// Priority classes for fair-share scheduling, lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort: scheduled only when nothing more urgent is ready.
    Low,
    /// The default class.
    Normal,
    /// Latency-sensitive: wins ties for engine slots.
    High,
}

impl Priority {
    /// Map a seeded class draw (e.g. [`magellan_faults::ArrivalPlan::priority_class`]
    /// with 3 classes) onto a priority.
    pub fn from_class(class: u32) -> Self {
        match class {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        }
    }

    /// Stable lowercase name for events and reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// The metamanager's schedule summary.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Seconds of running every task serially (sum of resolved fragments).
    pub serial_total_s: f64,
    /// Simulated makespan with fragment interleaving.
    pub interleaved_makespan_s: f64,
    /// Busy seconds per engine.
    pub busy: Vec<(Engine, f64)>,
    /// Batch-engine worker slots used in the simulation.
    pub batch_slots: usize,
}

impl ScheduleReport {
    /// serial / interleaved speedup.
    pub fn speedup(&self) -> f64 {
        if self.interleaved_makespan_s == 0.0 {
            1.0
        } else {
            self.serial_total_s / self.interleaved_makespan_s
        }
    }
}

/// How the metamanager absorbs a [`FaultPlan`]; the default is the
/// fault-free schedule.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleRecoveryOptions {
    /// Seeded fault source; [`FaultPlan::none`] schedules fault-free.
    pub faults: FaultPlan,
    /// Backoff schedule for failed fragment attempts.
    pub retry: RetryPolicy,
    /// Per-fragment budget in simulated seconds (> 0). A
    /// straggler-inflated attempt that would exceed it is killed at the
    /// budget mark and rerun at nominal speed (rescheduled off the slow
    /// machine). Nominal attempts are never killed, so the scheduler
    /// always converges. `f64::INFINITY` disables timeouts.
    pub fragment_timeout_s: f64,
    /// Duration multiplier (finite, > 0) when a crowd fragment degrades
    /// to the submitting user (default 1/15: a 6 s user answer vs. a 90 s
    /// crowd round-trip, per [`crate::cloud::CostModel::default`]).
    pub degrade_factor: f64,
    /// Launch a speculative backup when an attempt's effective duration
    /// exceeds `nominal × this` (clamped to ≥ 1). The backup starts at
    /// `t = nominal` and runs at nominal speed; the fragment finishes
    /// when either copy does.
    pub speculate_threshold: f64,
}

impl Default for ScheduleRecoveryOptions {
    fn default() -> Self {
        ScheduleRecoveryOptions {
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            fragment_timeout_s: f64::INFINITY,
            degrade_factor: 1.0 / 15.0,
            speculate_threshold: 1.5,
        }
    }
}

fn config_error(message: String) -> MagellanError {
    MagellanError::Config { message }
}

impl ScheduleRecoveryOptions {
    /// Reject options that would corrupt the simulated clock: a negative
    /// or NaN degrade factor turns busy seconds negative or NaN, and a
    /// non-positive timeout "finishes" stragglers before they start.
    pub(crate) fn validate(&self) -> Result<(), MagellanError> {
        if !(self.degrade_factor.is_finite() && self.degrade_factor > 0.0) {
            return Err(config_error(format!(
                "degrade_factor must be finite and > 0 (got {})",
                self.degrade_factor
            )));
        }
        if self.fragment_timeout_s.is_nan() || self.fragment_timeout_s <= 0.0 {
            return Err(config_error(format!(
                "fragment_timeout_s must be > 0, or infinite to disable timeouts (got {})",
                self.fragment_timeout_s
            )));
        }
        Ok(())
    }
}

/// There is no schedule for a batch engine with no workers.
pub(crate) fn check_batch_slots(batch_slots: usize) -> Result<(), MagellanError> {
    if batch_slots == 0 {
        return Err(config_error(
            "batch_slots must be >= 1 (the batch engine needs at least one worker)".into(),
        ));
    }
    Ok(())
}

/// Simulated seconds → trace nanoseconds (saturating, NaN/∞-safe).
pub(crate) fn sim_ns(s: f64) -> u64 {
    if s.is_finite() && s > 0.0 {
        (s * 1e9).round() as u64
    } else {
        0
    }
}

/// Resolve one fragment's fate under the fault plan: which engine it
/// ultimately runs on and how long it occupies the schedule, including
/// failed attempts, backoff, timeouts, degradation, and speculation.
/// Returns the resolved fragment plus extra batch busy-seconds burned by
/// a speculative backup copy. Each recovery is added to its
/// `magellan_falcon_*_total` counter as it happens, and each simulated
/// backoff to `backoff_s`, in call order.
pub(crate) fn resolve_fragment(
    task: u64,
    fid: u64,
    frag: Fragment,
    opts: &ScheduleRecoveryOptions,
    backoff_s: &mut f64,
) -> (Fragment, f64) {
    let plan = &opts.faults;
    let mut engine = frag.engine;
    let mut nominal = frag.duration_s;
    let mut total = 0.0f64;
    let mut extra_batch_busy = 0.0f64;

    // Crowd that never picks the fragment up: repost once (backoff), then
    // hand it to the submitting user at single-user speed.
    if engine == Engine::Crowd && plan.crowd_no_show(task, fid) {
        let repost = opts.retry.delay_s(1);
        total += repost;
        *backoff_s += repost;
        magellan_obs::counter_add("magellan_falcon_fragments_rerouted_total", 1);
        engine = Engine::UserInteraction;
        nominal *= opts.degrade_factor;
        magellan_obs::event(
            "fragment_degraded",
            &[
                ("task", EvVal::U(task)),
                ("fragment", EvVal::U(fid)),
                ("to", EvVal::S("user")),
            ],
        );
    }

    let spec_threshold = opts.speculate_threshold.max(1.0);
    let mut attempt: u32 = 0;
    loop {
        // Injected attempt failure: the fragment dies halfway, the
        // metamanager backs off and retries. Bounded per site, so the
        // loop always reaches a completing attempt.
        if plan.fragment_fails(task, fid, attempt) && opts.retry.allows(attempt + 1) {
            let backoff = opts.retry.delay_s(attempt + 1);
            magellan_obs::counter_add("magellan_falcon_fragment_retries_total", 1);
            *backoff_s += backoff;
            total += nominal * 0.5 + backoff;
            attempt += 1;
            magellan_obs::event(
                "fragment_retry_scheduled",
                &[
                    ("task", EvVal::U(task)),
                    ("fragment", EvVal::U(fid)),
                    ("attempt", EvVal::U(u64::from(attempt))),
                ],
            );
            continue;
        }
        // This attempt completes. Attempt 0 of a batch fragment may land
        // on a straggling machine; re-executions run at nominal speed.
        let dur = if engine == Engine::Batch && attempt == 0 {
            plan.straggler_duration_s(task, fid, nominal)
        } else {
            nominal
        };
        if dur > nominal && dur > opts.fragment_timeout_s {
            // The inflated attempt blows the fragment budget: kill it at
            // the budget mark and reschedule elsewhere.
            let backoff = opts.retry.delay_s(attempt + 1);
            magellan_obs::counter_add("magellan_falcon_fragments_timed_out_total", 1);
            *backoff_s += backoff;
            total += opts.fragment_timeout_s + backoff;
            attempt += 1;
            magellan_obs::event(
                "fragment_timed_out",
                &[
                    ("task", EvVal::U(task)),
                    ("fragment", EvVal::U(fid)),
                    ("budget_s", EvVal::F(opts.fragment_timeout_s)),
                ],
            );
            continue;
        }
        if dur > nominal * spec_threshold {
            // Straggler within budget: launch a backup at t = nominal
            // running at nominal speed; take whichever finishes first.
            magellan_obs::counter_add("magellan_falcon_speculative_launched_total", 1);
            let backup_finish = 2.0 * nominal;
            let effective = dur.min(backup_finish);
            if backup_finish < dur {
                magellan_obs::counter_add("magellan_falcon_speculative_wins_total", 1);
            }
            magellan_obs::event(
                "straggler_speculated",
                &[
                    ("task", EvVal::U(task)),
                    ("fragment", EvVal::U(fid)),
                    ("backup_won", EvVal::U(u64::from(backup_finish < dur))),
                ],
            );
            // The backup occupies a second batch slot from its launch
            // until the fragment resolves.
            extra_batch_busy += effective - nominal;
            total += effective;
            break;
        }
        total += dur;
        break;
    }
    (
        Fragment {
            engine,
            duration_s: total,
        },
        extra_batch_busy,
    )
}

/// Set the `magellan_falcon_backoff_seconds` gauge to a run's summed
/// simulated backoff, only when there was any.
pub(crate) fn set_backoff_gauge(backoff_s: f64) {
    if backoff_s > 0.0 {
        magellan_obs::gauge_set("magellan_falcon_backoff_seconds", backoff_s);
    }
}

/// One workflow's chain as the scheduler sees it.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    /// Chain index or submission index: the last tie-break, and the high
    /// half of the lane's fragment span keys.
    pub id: usize,
    /// Index of the next fragment to place.
    pub next: usize,
    /// When the next fragment may start (its predecessor's finish).
    pub ready_s: f64,
    /// Fair-share virtual time: placed seconds / weight.
    pub vtime: f64,
    /// Fair-share weight (> 0).
    pub weight: f64,
    /// Priority class.
    pub priority: Priority,
}

impl Lane {
    pub(crate) fn new(id: usize, ready_s: f64, weight: f64, priority: Priority) -> Self {
        Lane {
            id,
            next: 0,
            ready_s,
            vtime: 0.0,
            weight,
            priority,
        }
    }

    /// Same-start tie-break: higher priority, then lower virtual time
    /// (fair share), then lower id.
    fn wins_tie_over(&self, other: &Lane) -> bool {
        (Reverse(self.priority), self.vtime, self.id)
            < (Reverse(other.priority), other.vtime, other.id)
    }
}

/// The engines' occupancy: slot free times for the two contended
/// engines (crowd, batch), busy seconds for all three.
pub(crate) struct Engines {
    /// `[crowd, batch]` slot free times.
    free: [Vec<f64>; 2],
    /// Keyed by span name, so iteration — and the report — lists Batch,
    /// Crowd, UserInteraction, each only if it ran something.
    busy: BTreeMap<&'static str, (Engine, f64)>,
}

impl Engines {
    pub(crate) fn new(crowd_slots: usize, batch_slots: usize) -> Self {
        Engines {
            free: [vec![0.0; crowd_slots], vec![0.0; batch_slots]],
            busy: BTreeMap::new(),
        }
    }

    /// When a fragment on `engine` from a lane ready at `ready_s` can
    /// start, and the `[crowd, batch]` slot it takes: the earliest-free
    /// one, first of equals. The user engine never contends; a contended
    /// engine with no slots never frees up.
    fn start(&self, engine: Engine, ready_s: f64) -> (f64, Option<(usize, usize)>) {
        let k = match engine {
            Engine::UserInteraction => return (ready_s, None),
            Engine::Crowd => 0,
            Engine::Batch => 1,
        };
        let free = &self.free[k];
        let mut slot = 0usize;
        for (s, &t) in free.iter().enumerate() {
            if t < free[slot] {
                slot = s;
            }
        }
        match free.get(slot) {
            Some(&t) => (ready_s.max(t), Some((k, slot))),
            None => (f64::INFINITY, None),
        }
    }

    /// The placement order, over `(handle, lane, engine of its next
    /// fragment)`: earliest start, then [`Lane::wins_tie_over`]. Returns
    /// the winner's start and handle.
    pub(crate) fn pick<'l>(
        &self,
        candidates: impl IntoIterator<Item = (usize, &'l Lane, Engine)>,
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize, &Lane)> = None;
        for (handle, lane, engine) in candidates {
            let (start, _) = self.start(engine, lane.ready_s);
            let better = match best {
                None => true,
                Some((bs, _, b)) => match start.partial_cmp(&bs).unwrap_or(Ordering::Equal) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => lane.wins_tie_over(b),
                },
            };
            if better {
                best = Some((start, handle, lane));
            }
        }
        best.map(|(start, handle, _)| (start, handle))
    }

    /// Run `frag` as `lane`'s next fragment: occupy the earliest-free
    /// slot, account busy seconds (plus `extra_batch_s` a speculative
    /// backup burned), record the `frag_*` span at the simulated times,
    /// and advance the lane. Returns the finish time.
    pub(crate) fn place(&mut self, lane: &mut Lane, frag: Fragment, extra_batch_s: f64) -> f64 {
        let (start, slot) = self.start(frag.engine, lane.ready_s);
        let finish = start + frag.duration_s;
        if let Some((k, s)) = slot {
            self.free[k][s] = finish;
        }
        magellan_obs::record_span_at(
            None,
            frag.engine.span_name(),
            (lane.id as u64) << 32 | lane.next as u64,
            sim_ns(start),
            sim_ns(finish),
        );
        self.busy
            .entry(frag.engine.span_name())
            .or_insert((frag.engine, 0.0))
            .1 += frag.duration_s;
        if extra_batch_s > 0.0 {
            self.busy
                .entry(Engine::Batch.span_name())
                .or_insert((Engine::Batch, 0.0))
                .1 += extra_batch_s;
        }
        lane.vtime += frag.duration_s / lane.weight;
        lane.next += 1;
        lane.ready_s = finish;
        finish
    }

    /// Busy seconds per engine that ran anything.
    pub(crate) fn into_busy(self) -> Vec<(Engine, f64)> {
        self.busy.into_values().collect()
    }
}

/// CloudMatcher's metamanager: interleave task chains across the three
/// engines. Fragments within a chain run in order; chains share
/// `batch_slots` batch workers; the user engine never contends and the
/// crowd has one slot per chain, which is unbounded because a chain never
/// has two fragments in flight. Every fragment is first resolved under
/// `opts` — with the default [`FaultPlan::none`] nothing fails.
///
/// `batch_slots == 0` and out-of-range options are fatal
/// [`MagellanError::Config`] errors, never a panic.
///
/// When a [`magellan_obs`] recorder is installed, the simulated timeline
/// is mirrored into it: a `schedule` span with one
/// `frag_user`/`frag_crowd`/`frag_batch` child per placed fragment,
/// recorded at its simulated start/finish via
/// [`magellan_obs::record_span_at`] (key = `chain << 32 | index`), plus
/// `magellan_falcon_schedule_*` gauges on the report totals. Recoveries
/// are counted as they happen, each only when it happens (a fault-free
/// schedule adds no counter): `magellan_falcon_fragment_retries_total`,
/// `_fragments_timed_out_total`, `_fragments_rerouted_total`,
/// `_speculative_launched_total` and `_speculative_wins_total`. The
/// simulated backoff they cost is summed and set once on the
/// `magellan_falcon_backoff_seconds` gauge when it is non-zero.
pub fn schedule_fragments(
    chains: &[Vec<Fragment>],
    batch_slots: usize,
    opts: &ScheduleRecoveryOptions,
) -> Result<ScheduleReport, MagellanError> {
    check_batch_slots(batch_slots)?;
    opts.validate()?;
    let mut backoff_s = 0.0f64;
    let resolved: Vec<Vec<(Fragment, f64)>> = chains
        .iter()
        .enumerate()
        .map(|(c, chain)| {
            chain
                .iter()
                .enumerate()
                .map(|(i, f)| resolve_fragment(c as u64, i as u64, *f, opts, &mut backoff_s))
                .collect()
        })
        .collect();

    let sched_span = magellan_obs::span("schedule", 0);
    let serial_total: f64 = resolved
        .iter()
        .flat_map(|c| c.iter().map(|(f, _)| f.duration_s))
        .sum();
    let mut engines = Engines::new(chains.len(), batch_slots);
    let mut lanes: Vec<Lane> = (0..chains.len())
        .map(|c| Lane::new(c, 0.0, 1.0, Priority::Normal))
        .collect();
    let mut makespan = 0.0f64;
    while let Some((_, c)) = engines.pick(
        lanes
            .iter()
            .zip(&resolved)
            .enumerate()
            .filter_map(|(c, (lane, chain))| {
                chain.get(lane.next).map(|(f, _)| (c, lane, f.engine))
            }),
    ) {
        let (frag, extra) = resolved[c][lanes[c].next];
        makespan = makespan.max(engines.place(&mut lanes[c], frag, extra));
    }
    magellan_obs::gauge_set("magellan_falcon_schedule_serial_seconds", serial_total);
    magellan_obs::gauge_set("magellan_falcon_schedule_makespan_seconds", makespan);
    drop(sched_span);

    set_backoff_gauge(backoff_s);
    Ok(ScheduleReport {
        serial_total_s: serial_total,
        interleaved_makespan_s: makespan,
        busy: engines.into_busy(),
        batch_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{MatchService, ServiceConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn frag(engine: Engine, duration_s: f64) -> Fragment {
        Fragment { engine, duration_s }
    }

    /// Random chains over all three engines, with durations drawn from a
    /// small grid so that same-instant ties are common.
    fn random_chains(rng: &mut StdRng) -> Vec<Vec<Fragment>> {
        let engines = [Engine::UserInteraction, Engine::Crowd, Engine::Batch];
        (0..rng.gen_range(0..7usize))
            .map(|_| {
                (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        frag(
                            engines[rng.gen_range(0..3usize)],
                            rng.gen_range(0..5u32) as f64 * 10.0,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn random_faults(rng: &mut StdRng) -> FaultPlan {
        if rng.gen_bool(0.3) {
            FaultPlan::none()
        } else {
            FaultPlan::seeded(rng.next_u64())
        }
    }

    /// One placed fragment: `(engine span name, chain, index, start ns,
    /// finish ns)`.
    type Placed = (&'static str, u64, u64, u64, u64);

    /// A schedule's placements, recovered from the `frag_*` spans it
    /// records, and the names of the counters it added.
    fn placements(
        chains: &[Vec<Fragment>],
        slots: usize,
        opts: &ScheduleRecoveryOptions,
    ) -> (ScheduleReport, Vec<Placed>, Vec<String>) {
        let obs = magellan_obs::Obs::pinned();
        let rep = {
            let _g = obs.install();
            schedule_fragments(chains, slots, opts).unwrap()
        };
        let snap = obs.snapshot();
        let mut out = Vec::new();
        for name in ["frag_user", "frag_crowd", "frag_batch"] {
            for s in snap.spans_named(name) {
                out.push((name, s.key >> 32, s.key & 0xFFFF_FFFF, s.start_ns, s.end_ns));
            }
        }
        let counters = snap
            .metrics
            .iter()
            .filter(|(_, v)| matches!(v, magellan_obs::MetricValue::Counter(_)))
            .map(|(k, _)| k.clone())
            .collect();
        (rep, out, counters)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Capacity, precedence and makespan bounds hold for any chains,
        /// slot count and fault plan; default options are the fault-free
        /// schedule.
        #[test]
        fn schedules_respect_capacity_precedence_and_bounds(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let chains = random_chains(&mut rng);
            let slots = rng.gen_range(1..4usize);
            let faults = random_faults(&mut rng);
            let opts = ScheduleRecoveryOptions { faults, ..Default::default() };
            let (rep, spans, _) = placements(&chains, slots, &opts);

            // No engine runs more fragments at once than it has slots.
            for (name, cap) in [("frag_batch", slots), ("frag_crowd", chains.len())] {
                let on: Vec<_> = spans.iter().filter(|s| s.0 == name).collect();
                for s in &on {
                    let overlapping = on.iter().filter(|o| o.3 <= s.3 && s.3 < o.4).count();
                    prop_assert!(overlapping <= cap, "{} over capacity at {}", name, s.3);
                }
            }
            // Each fragment starts no earlier than its predecessor finishes.
            for s in &spans {
                if s.2 > 0 {
                    let prev = spans.iter().find(|p| p.1 == s.1 && p.2 == s.2 - 1).unwrap();
                    prop_assert!(s.3 >= prev.4, "chain {} fragment {} overtakes", s.1, s.2);
                }
            }
            // Makespan bounds: the longest chain and batch busy / slots on
            // the fault-free schedule; under faults, the batch seconds
            // actually placed (backups run beside, not on, the slots).
            let (fault_free, _, _) = placements(&chains, slots, &ScheduleRecoveryOptions::default());
            let longest = chains
                .iter()
                .map(|c| c.iter().map(|f| f.duration_s).sum::<f64>())
                .fold(0.0, f64::max);
            let batch = |r: &ScheduleReport| {
                r.busy.iter().filter(|(e, _)| *e == Engine::Batch).map(|(_, b)| b).sum::<f64>()
            };
            prop_assert!(fault_free.interleaved_makespan_s >= longest);
            prop_assert!(fault_free.interleaved_makespan_s * slots as f64 >= batch(&fault_free));
            let placed_ns: u64 =
                spans.iter().filter(|s| s.0 == "frag_batch").map(|s| s.4 - s.3).sum();
            let rounding_ns = spans.len() as u64;
            prop_assert!(sim_ns(rep.interleaved_makespan_s) * slots as u64 + rounding_ns >= placed_ns);

            // Default options are exactly `FaultPlan::none()`.
            let none = ScheduleRecoveryOptions { faults: FaultPlan::none(), ..Default::default() };
            let (explicit, explicit_spans, explicit_counters) = placements(&chains, slots, &none);
            let (_, default_spans, _) =
                placements(&chains, slots, &ScheduleRecoveryOptions::default());
            let bits = |r: &ScheduleReport| r.interleaved_makespan_s.to_bits();
            prop_assert_eq!(bits(&explicit), bits(&fault_free));
            prop_assert_eq!(explicit.busy, fault_free.busy);
            prop_assert!(explicit_counters.is_empty(), "fault-free counters: {:?}", explicit_counters);
            prop_assert_eq!(explicit_spans, default_spans);
        }
    }

    #[test]
    fn same_start_ties_go_to_the_lower_virtual_time() {
        // Chain 2 holds the one batch slot until t = 15. Chains 0 and 1
        // both wait for it, ready at 10 and 3: same start, and chain 1
        // has the lower virtual time (3 s placed vs. 10 s), so it goes
        // first although its index is higher.
        let chains = vec![
            vec![
                frag(Engine::UserInteraction, 10.0),
                frag(Engine::Batch, 20.0),
            ],
            vec![
                frag(Engine::UserInteraction, 3.0),
                frag(Engine::Batch, 20.0),
            ],
            vec![frag(Engine::Batch, 15.0)],
        ];
        let (rep, spans, _) = placements(&chains, 1, &ScheduleRecoveryOptions::default());
        let batch_start = |chain: u64| {
            spans
                .iter()
                .find(|s| s.0 == "frag_batch" && s.1 == chain)
                .unwrap()
                .3
        };
        assert_eq!(batch_start(2), 0);
        assert_eq!(batch_start(1), 15_000_000_000);
        assert_eq!(batch_start(0), 35_000_000_000);
        assert_eq!(rep.interleaved_makespan_s, 55.0);
    }

    /// `schedule_fragments` and `MatchService::new` both reject `opts`,
    /// naming `field`.
    fn assert_rejected(opts: ScheduleRecoveryOptions, field: &str) {
        let chains = vec![vec![frag(Engine::Crowd, 90.0), frag(Engine::Batch, 10.0)]];
        let err = schedule_fragments(&chains, 1, &opts).unwrap_err();
        assert!(
            matches!(err, MagellanError::Config { .. }) && err.fatal(),
            "{err}"
        );
        assert!(err.to_string().contains(field), "{err}");
        let cfg = ServiceConfig {
            crowd_slots: 0,
            recovery: opts,
            ..Default::default()
        };
        let err = MatchService::new(cfg).unwrap_err();
        assert!(matches!(err, MagellanError::Config { .. }), "{err}");
        assert!(err.to_string().contains(field), "{err}");
    }

    #[test]
    fn degrade_factor_must_be_finite_and_positive() {
        // A negative factor once reported negative user-engine busy
        // seconds, and NaN reported NaN.
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert_rejected(
                ScheduleRecoveryOptions {
                    degrade_factor: bad,
                    ..Default::default()
                },
                "degrade_factor",
            );
        }
    }

    #[test]
    fn fragment_timeout_must_be_positive() {
        // A negative budget once let a straggling 10 s batch fragment
        // "finish" in 5.43 s.
        for bad in [-5.0, 0.0, f64::NAN, f64::NEG_INFINITY] {
            assert_rejected(
                ScheduleRecoveryOptions {
                    fragment_timeout_s: bad,
                    ..Default::default()
                },
                "fragment_timeout_s",
            );
        }
        let opts = ScheduleRecoveryOptions {
            fragment_timeout_s: f64::INFINITY,
            ..Default::default()
        };
        assert!(schedule_fragments(&[], 1, &opts).is_ok());
        assert!(MatchService::new(ServiceConfig {
            recovery: opts,
            ..Default::default()
        })
        .is_ok());
    }
}
