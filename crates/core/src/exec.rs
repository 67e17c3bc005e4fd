//! The production-stage executor.
//!
//! §4.1: "We have developed tools that can execute these commands on a
//! multi-core single machine, using customized code or Dask." This module
//! is that Dask substitute: it runs a captured [`crate::EmWorkflow`] over
//! the full tables on the `magellan-par` work-stealing pool, and reports
//! per-phase wall-clock timings (the "Machine" time column of Table 2)
//! *and* per-phase executor counters — the [`ParStats`] of each phase
//! ([`PhaseCounters`]): pairs/sec, chunks stolen, per-worker busy time.
//!
//! The executor inherits the pool's determinism contract: a production run
//! produces **bit-identical matches for any worker count**, which is what
//! lets the lab stage (small samples, one core) hand a workflow to the
//! production stage (full tables, many cores) without re-validating it.
//!
//! ## Demand-driven matching
//!
//! The matching phase is one fused parallel pass: per
//! candidate pair the matcher decides through
//! [`magellan_ml::Classifier::decide`], which asks for a feature only when
//! a tree tests it and stops walking trees once the rest cannot move the
//! decision, then the rule layer reads the same lazily filled row. No
//! feature matrix is built. The decisions equal those of the eager
//! [`EmWorkflow::execute`] — extract every feature, score every tree —
//! which stays as the oracle the executor is tested against
//! (`crates/core/tests/lazy_eager.rs`; DESIGN.md §7.3).
//!
//! How the matcher decides — which features it tests last, and the box of
//! pairs it answers No without a walk — is the workflow's [`DecisionPlan`],
//! derived once by the development stage. A run reads it, checks it once
//! ([`DecisionPlan::check`]), and samples nothing.
//!
//! ## One pass, with or without a store
//!
//! [`ProductionExecutor::run`] and [`ProductionExecutor::run_with_recovery`]
//! run one phase sequence; `run` is `run_with_recovery` with no checkpoint
//! store, no fault plan and the default [`RetryPolicy`]. The sequence holds
//! four defenses:
//!
//! * **panic containment** — each parallel region runs with a seeded
//!   [`magellan_faults::FaultPlan`]'s chunk faults; contained panics,
//!   recovered chunks, and worker deaths surface in
//!   [`RecoveryTelemetry`];
//! * **retries with backoff** — transient phase and checkpoint-store
//!   failures retry under a [`RetryPolicy`] on a simulated clock;
//! * **phase checkpointing** — given a [`CheckpointStore`], the candidate
//!   set is durably saved after blocking and the match set when done;
//!   with none, no [`Checkpoint`] is built;
//! * **resume** — a rerun after a kill picks up from the last durable
//!   checkpoint and produces a **bit-identical** match set
//!   (`crates/core/tests/chaos.rs` enforces this across seeds); a
//!   checkpoint whose pairs lie past the tables is refused.

use std::time::{Duration, Instant};

use magellan_block::CandidateSet;
use magellan_faults::{run_with_retry, FaultPlan, RetryPolicy, SimClock};
use magellan_features::{FeaturePlan, PreparedPair, Scorer, ScorerCounts};
use magellan_ml::Classifier;
use magellan_obs::{EvVal, ObsSnapshot};
use magellan_par::{ChunkFaults, ParConfig, ParStats};
use magellan_table::Table;

use crate::checkpoint::{Checkpoint, CheckpointStore, Phase};
use crate::error::MagellanError;
use crate::workflow::EmWorkflow;

/// Stable region ids keying per-region chunk-fault streams, so a fault
/// plan injects independently into blocking and matching. The matching
/// pass keeps the id feature extraction had when it was a region of its
/// own; 3 (prediction) is retired.
const REGION_BLOCKING: u64 = 1;
const REGION_EXTRACT: u64 = 2;

/// Per-phase timings of a production run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Blocking wall-clock.
    pub blocking: Duration,
    /// Matching (record preparation + the fused scoring pass) wall-clock.
    pub matching: Duration,
}

impl PhaseTimings {
    /// Total machine time.
    pub fn total(&self) -> Duration {
        self.blocking + self.matching
    }
}

/// Per-phase executor counters of a production run: the [`ParStats`] of
/// every parallel region, folded per phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseCounters {
    /// Blocking-phase counters (candidate generation / sim-join probes).
    pub blocking: ParStats,
    /// Matching-phase counters (the fused scoring pass).
    pub matching: ParStats,
}

/// What the self-healing machinery did during a run: how much damage was
/// absorbed, and what it cost. All zeros for a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryTelemetry {
    /// Whole-phase retries after a transient failure.
    pub phase_retries: u32,
    /// Checkpoint-store operations retried after a transient I/O failure.
    pub store_retries: u32,
    /// Chunk panics contained by the parallel pool (injected or genuine).
    pub panics_contained: usize,
    /// Chunks whose output was recovered by retry or serial fallback.
    pub chunks_recovered: usize,
    /// Workers that died (exhausted in-worker retries) and were routed
    /// around by the serial fallback.
    pub worker_deaths: usize,
    /// Checkpoints durably written this run.
    pub checkpoints_written: u32,
    /// The phase whose checkpoint this run resumed from, if any.
    pub resumed_from: Option<Phase>,
    /// Total simulated backoff spent sleeping between retries, seconds.
    pub sim_backoff_s: f64,
}

impl RecoveryTelemetry {
    fn absorb_stats(&mut self, s: &ParStats) {
        self.panics_contained += s.panics_contained;
        self.chunks_recovered += s.chunks_recovered;
        self.worker_deaths += s.worker_deaths;
    }

    /// Note the backoff slept on `clock`, then publish the recovery
    /// counters into the ambient [`magellan_obs`] recorder. Worker deaths
    /// are scheduling-dependent, so they are only published on wall-clock
    /// recorders (same policy as [`ParStats::publish`]) — pinned snapshots
    /// stay byte-identical across worker counts.
    fn publish(&mut self, clock: &SimClock) {
        self.sim_backoff_s = clock.now_s();
        magellan_obs::counter_add(
            "magellan_core_phase_retries_total",
            u64::from(self.phase_retries),
        );
        magellan_obs::counter_add(
            "magellan_core_store_retries_total",
            u64::from(self.store_retries),
        );
        magellan_obs::counter_add(
            "magellan_core_checkpoints_written_total",
            u64::from(self.checkpoints_written),
        );
        magellan_obs::gauge_set("magellan_core_sim_backoff_seconds", self.sim_backoff_s);
        let wall = magellan_obs::current().map(|o| !o.is_pinned()).unwrap_or(false);
        if wall && self.worker_deaths > 0 {
            magellan_obs::counter_add(
                "magellan_core_worker_deaths_total",
                self.worker_deaths as u64,
            );
        }
    }
}

/// Result of a production run.
#[derive(Debug)]
pub struct ProductionReport {
    /// Predicted matches.
    pub matches: CandidateSet,
    /// Candidate pairs examined.
    pub n_candidates: usize,
    /// Wall-clock per phase.
    pub timings: PhaseTimings,
    /// Executor counters per phase.
    pub counters: PhaseCounters,
    /// Worker threads used.
    pub n_workers: usize,
    /// What the self-healing machinery absorbed (all zeros for a
    /// fault-free run with no checkpoint store).
    pub recovery: RecoveryTelemetry,
    /// The run's observability snapshot: `run → phase → chunk → retry`
    /// spans, the `magellan_*` metrics registry, and the discrete event
    /// log, exportable as Prometheus text or Chrome-trace JSON. Under a
    /// pinned-clock recorder and a fixed chunk size, both exports are
    /// byte-identical across worker counts
    /// (`crates/core/tests/obs_determinism.rs`).
    pub obs: ObsSnapshot,
}

/// Knobs for [`ProductionExecutor::run_with_recovery`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOptions {
    /// Backoff schedule for transient phase and checkpoint failures.
    pub retry: RetryPolicy,
    /// Seeded fault plan; [`FaultPlan::none`] for production.
    pub faults: FaultPlan,
    /// Test hook: die (return [`MagellanError::Killed`]) right after the
    /// named phase's checkpoint is durably written, modeling process
    /// death between phases. The next run resumes from that checkpoint.
    pub kill_after: Option<Phase>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            retry: RetryPolicy::default(),
            faults: FaultPlan::none(),
            kill_after: None,
        }
    }
}

/// Multi-core workflow executor.
#[derive(Debug, Clone, Copy)]
pub struct ProductionExecutor {
    /// Worker threads for every phase (≥ 1).
    pub n_workers: usize,
    /// Fixed items-per-chunk for every parallel region. `None` keeps the
    /// pool's adaptive default (`len / (8 · n_workers)`), which *varies
    /// with the worker count* — pin this when you need chunk spans and
    /// chunk counters to be identical across worker counts (the
    /// byte-identical-export contract).
    pub chunk_size: Option<usize>,
}

impl ProductionExecutor {
    /// Executor with the given parallelism.
    pub fn new(n_workers: usize) -> Self {
        ProductionExecutor {
            n_workers: n_workers.max(1),
            chunk_size: None,
        }
    }

    /// Pin the chunk size of every parallel region (see
    /// [`ProductionExecutor::chunk_size`]).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = Some(chunk.max(1));
        self
    }

    /// The pool configuration of a phase that injects `faults`.
    fn par_cfg(&self, faults: ChunkFaults) -> ParConfig {
        let cfg = ParConfig::workers(self.n_workers).with_faults(faults);
        match self.chunk_size {
            Some(c) => cfg.with_chunk_size(c),
            None => cfg,
        }
    }

    /// Snapshot the recorder into the report and honor the export env
    /// vars, best effort: `MAGELLAN_TRACE` (Chrome trace),
    /// `MAGELLAN_PROFILE` (collapsed-stack or `.json` profile), and
    /// `MAGELLAN_FLIGHT_DUMP` (flight-recorder dump, written only when
    /// the run noted a failure).
    fn finish_obs(obs: &magellan_obs::Obs) -> ObsSnapshot {
        let snap = obs.snapshot();
        if let Some(path) = magellan_obs::trace_export_path() {
            if let Err(e) = snap.write_chrome_trace(&path) {
                magellan_obs::log!(warn, "MAGELLAN_TRACE export to {path} failed: {e}");
            }
        }
        if let Some(path) = magellan_obs::profile_export_path() {
            if let Err(e) = snap.profile().write(&path) {
                magellan_obs::log!(warn, "MAGELLAN_PROFILE export to {path} failed: {e}");
            }
        }
        if let Some(path) = obs.flight_autodump() {
            magellan_obs::log!(info, "flight-recorder dump written to {path}");
        }
        snap
    }

    /// Run the workflow over full tables: [`ProductionExecutor::run_with_recovery`]
    /// with no checkpoint store, no fault plan and the default
    /// [`RetryPolicy`]. With no store no [`Checkpoint`] is built, so the
    /// candidates are neither copied nor encoded.
    ///
    /// Every phase runs on the `magellan-par` pool: blocking via
    /// [`magellan_block::Blocker::block_par`], matching via the fused
    /// demand-driven pass (see the module docs). The matches are
    /// identical for any `n_workers` (see
    /// `crates/core/tests/par_determinism.rs`). A failure is a
    /// [`MagellanError`]; one that escapes a phase names the phase.
    pub fn run(
        &self,
        workflow: &EmWorkflow,
        a: &Table,
        b: &Table,
    ) -> Result<ProductionReport, MagellanError> {
        self.run_phases(workflow, a, b, None, &RecoveryOptions::default())
    }

    /// Run the workflow with the full self-healing stack: fault-injected
    /// parallel regions with panic containment, phase-level retries with
    /// simulated backoff, checkpoint after every phase, and resume from
    /// the last durable checkpoint on rerun.
    ///
    /// The recovery contract is the determinism contract extended to
    /// chaos: for any fault plan the executor survives (bounded faults),
    /// the match set is **bit-identical** to a fault-free run, and a run
    /// killed after a phase resumes to an identical final match set. A
    /// checkpoint with a pair past either table is a fatal
    /// [`MagellanError::Checkpoint`] that names the pair.
    pub fn run_with_recovery(
        &self,
        workflow: &EmWorkflow,
        a: &Table,
        b: &Table,
        store: &mut dyn CheckpointStore,
        opts: &RecoveryOptions,
    ) -> Result<ProductionReport, MagellanError> {
        self.run_phases(workflow, a, b, Some(store), opts)
    }

    /// The one production pass behind both entry points, under the run's
    /// recorder; a fatal error also dumps the flight recorder.
    fn run_phases(
        &self,
        workflow: &EmWorkflow,
        a: &Table,
        b: &Table,
        store: Option<&mut dyn CheckpointStore>,
        opts: &RecoveryOptions,
    ) -> Result<ProductionReport, MagellanError> {
        // Use the ambient recorder if one is installed; otherwise install a
        // private wall-clock recorder for the duration of the run so the
        // report always carries a populated snapshot.
        let (obs, _own_guard) = match magellan_obs::current() {
            Some(obs) => (obs, None),
            None => {
                let obs = magellan_obs::Obs::wall();
                let guard = obs.install();
                (obs, Some(guard))
            }
        };
        obs.set_run_context(opts.faults.seed, self.n_workers as u64);
        let mut rec = Recovery {
            store,
            opts,
            clock: SimClock::new(),
            tel: RecoveryTelemetry::default(),
        };
        let out = self.phases(&obs, workflow, a, b, &mut rec);
        if let Err(e) = &out {
            // Fatal errors escape the report path, so the flight recorder
            // dumps here instead of in `finish_obs`.
            magellan_obs::flight_on_failure(
                "fatal_error",
                &[("error", EvVal::S(e.kind_name()))],
            );
            if let Some(path) = obs.flight_autodump() {
                magellan_obs::log!(info, "flight-recorder dump written to {path}");
            }
        }
        out
    }

    /// Check the workflow's decision plan; resume from the store's
    /// checkpoint, if any; block, unless resuming past blocking; match; and
    /// checkpoint after each phase.
    fn phases(
        &self,
        obs: &magellan_obs::Obs,
        workflow: &EmWorkflow,
        a: &Table,
        b: &Table,
        rec: &mut Recovery<'_, '_>,
    ) -> Result<ProductionReport, MagellanError> {
        let run_span = magellan_obs::span("run", 0);
        workflow.plan.check(
            &*workflow.matcher,
            workflow.threshold,
            workflow.features.len(),
        )?;
        let (candidates, blocking_stats, blocking) = match rec.resume(a, b)? {
            Some(Checkpoint::Done {
                matches,
                n_candidates,
            }) => {
                // The previous run finished; reconstitute its report.
                // Timings and counters are wall-clock artifacts of the dead
                // process and come back empty — only the *results* are
                // durable, and are published as a fresh run publishes them.
                publish_totals(n_candidates, matches.len());
                rec.tel.publish(&rec.clock);
                drop(run_span);
                return Ok(ProductionReport {
                    matches: CandidateSet::new(matches),
                    n_candidates,
                    timings: PhaseTimings::default(),
                    counters: PhaseCounters::default(),
                    n_workers: self.n_workers,
                    recovery: rec.tel,
                    obs: Self::finish_obs(obs),
                });
            }
            Some(Checkpoint::Blocked { candidates }) => (
                CandidateSet::new(candidates),
                ParStats::default(),
                Duration::ZERO,
            ),
            None => {
                let _phase = magellan_obs::span("blocking", 0);
                let cfg = self.par_cfg(rec.opts.faults.chunk_faults(REGION_BLOCKING));
                let t0 = Instant::now();
                let (c, stats) = rec.phase(Phase::Blocking, || {
                    workflow.blocker.block_par(a, b, &cfg).map_err(Into::into)
                })?;
                stats.publish("blocking");
                rec.tel.absorb_stats(&stats);
                let elapsed = t0.elapsed();
                record_phase_us(obs, Phase::Blocking, elapsed);
                rec.save(Phase::Blocking, || Checkpoint::Blocked {
                    candidates: c.pairs().to_vec(),
                })?;
                (c, stats, elapsed)
            }
        };

        let matching_span = magellan_obs::span("matching", 0);
        let cfg = self.par_cfg(rec.opts.faults.chunk_faults(REGION_EXTRACT));
        let t1 = Instant::now();
        let pairs = candidates.pairs();
        let (decisions, matching_stats) = rec.phase(Phase::Matching, || {
            match_candidates(workflow, a, b, pairs, &cfg).map_err(Into::into)
        })?;
        rec.tel.absorb_stats(&matching_stats);
        let matching = t1.elapsed();
        drop(matching_span);
        record_phase_us(obs, Phase::Matching, matching);
        rec.save(Phase::Matching, || Checkpoint::Done {
            matches: decisions.clone(),
            n_candidates: pairs.len(),
        })?;

        publish_totals(pairs.len(), decisions.len());
        rec.tel.publish(&rec.clock);
        drop(run_span);
        Ok(ProductionReport {
            matches: CandidateSet::new(decisions),
            n_candidates: pairs.len(),
            timings: PhaseTimings { blocking, matching },
            counters: PhaseCounters {
                blocking: blocking_stats,
                matching: matching_stats,
            },
            n_workers: self.n_workers,
            recovery: rec.tel,
            obs: Self::finish_obs(obs),
        })
    }
}

/// Publish a run's candidate and match counts.
fn publish_totals(candidates: usize, matches: usize) {
    magellan_obs::counter_add("magellan_core_candidates_total", candidates as u64);
    magellan_obs::counter_add("magellan_core_matches_total", matches as u64);
}

/// Record a phase's wall-clock, on a wall-clock recorder only: pinned
/// exports carry no wall-clock.
fn record_phase_us(obs: &magellan_obs::Obs, phase: Phase, took: Duration) {
    if !obs.is_pinned() {
        let name = format!("magellan_core_phase_us{{phase=\"{phase}\"}}");
        obs.hist_record(&name, took.as_micros() as u64);
    }
}

/// What one run recovers with: its checkpoint store, if any, its options,
/// the simulated clock retries sleep on, and what recovery did so far.
struct Recovery<'s, 'o> {
    store: Option<&'s mut dyn CheckpointStore>,
    opts: &'o RecoveryOptions,
    clock: SimClock,
    tel: RecoveryTelemetry,
}

impl Recovery<'_, '_> {
    /// The store's checkpoint, if there is a store and it holds one. A
    /// pair past either table is a fatal [`MagellanError::Checkpoint`]
    /// that names it.
    fn resume(&mut self, a: &Table, b: &Table) -> Result<Option<Checkpoint>, MagellanError> {
        let Some(store) = self.store.as_deref_mut() else {
            return Ok(None);
        };
        let loaded = retry(&self.opts.retry, &mut self.clock, &mut self.tel.store_retries, || {
            store.load_bytes()
        })?;
        let Some(bytes) = loaded else {
            return Ok(None);
        };
        let ck = Checkpoint::from_bytes(&bytes)?;
        let (Checkpoint::Blocked { candidates: pairs } | Checkpoint::Done { matches: pairs, .. }) =
            &ck;
        let (na, nb) = (a.nrows(), b.nrows());
        if let Some((l, r)) = pairs.iter().find(|&&(l, r)| l as usize >= na || r as usize >= nb) {
            return Err(MagellanError::Checkpoint {
                message: format!(
                    "{} checkpoint pair ({l}, {r}) is past the tables ({na} and {nb} rows)",
                    ck.phase()
                ),
                transient: false,
            });
        }
        self.tel.resumed_from = Some(ck.phase());
        magellan_obs::event("resumed", &[("phase", EvVal::S(ck.phase().name()))]);
        Ok(Some(ck))
    }

    /// Run a whole phase under the retry policy. An error that escapes it
    /// is tagged with the phase, unless it is already structured.
    fn phase<T>(
        &mut self,
        phase: Phase,
        f: impl FnMut() -> Result<T, MagellanError>,
    ) -> Result<T, MagellanError> {
        retry(&self.opts.retry, &mut self.clock, &mut self.tel.phase_retries, f).map_err(|e| {
            match e {
                e @ (MagellanError::Checkpoint { .. }
                | MagellanError::Killed { .. }
                | MagellanError::Timeout { .. }
                | MagellanError::Phase { .. }) => e,
                other => MagellanError::Phase {
                    phase: phase.name(),
                    message: other.to_string(),
                    transient: other.transient(),
                },
            }
        })
    }

    /// After `phase`: durably save the checkpoint `ck` builds — with no
    /// store none is built — then die if `kill_after` names the phase.
    fn save(&mut self, phase: Phase, ck: impl FnOnce() -> Checkpoint) -> Result<(), MagellanError> {
        let Some(store) = self.store.as_deref_mut() else {
            return Ok(());
        };
        let bytes = ck().to_bytes();
        retry(&self.opts.retry, &mut self.clock, &mut self.tel.store_retries, || {
            store.save_bytes(&bytes)
        })?;
        self.tel.checkpoints_written += 1;
        magellan_obs::event("checkpoint_written", &[("phase", EvVal::S(phase.name()))]);
        if self.opts.kill_after == Some(phase) {
            return Err(MagellanError::Killed {
                after_phase: phase.name(),
            });
        }
        Ok(())
    }
}

/// Run `f` under the retry policy, charging backoff to the simulated clock
/// and adding the retries it took to `retries`.
fn retry<T>(
    policy: &RetryPolicy,
    clock: &mut SimClock,
    retries: &mut u32,
    mut f: impl FnMut() -> Result<T, MagellanError>,
) -> Result<T, MagellanError> {
    let mut last = 0;
    let out = run_with_retry(policy, clock, |attempt| {
        last = attempt;
        f()
    });
    *retries += last;
    out
}

/// The matching phase of both entry points: prepare the records the
/// candidates reference (serially — interner ids are assigned in first-seen
/// order), then decide every pair in one parallel region and return the
/// matched pairs in candidate order.
///
/// Each chunk scores through one [`Scorer`], which holds the pair's memo —
/// a pair inside the workflow's certain-No region ([`DecisionPlan`]) is a
/// No after reading the region's features, any other pair is decided by
/// [`magellan_ml::Classifier::decide`], which asks for the features its
/// trees test, the sequence kernels only once the cheap ones leave the pair
/// open, then the bound rule layer asks for the features its conditions
/// reach, and a feature asked for twice is computed once —
/// and, the candidates being sorted by left row, the left record's side of
/// the work from one pair to the next. Every value is the one
/// [`PreparedPair::compute_row`] would have put in the eager matrix, so the
/// decisions equal [`EmWorkflow::execute`]'s. Each chunk's output is a pure
/// function of its pair range, which keeps the pool's determinism and
/// recovery contracts; the counters are sums over chunks taken after the
/// region (a retried chunk counts once), so they too are identical for any
/// worker count under a fixed chunk size, and the demand counters for any
/// chunk size.
fn match_candidates(
    workflow: &EmWorkflow,
    a: &Table,
    b: &Table,
    pairs: &[(u32, u32)],
    cfg: &ParConfig,
) -> magellan_table::Result<(Vec<(u32, u32)>, ParStats)> {
    let mut prepared = PreparedPair::new(a, b);
    let plan = prepared.plan(&workflow.features)?;
    let cache = prepared.prepare_counted(&plan, pairs);
    let names: Vec<&str> = workflow.features.iter().map(|f| f.name.as_str()).collect();
    let rules = workflow.rule_layer.bind(&names);
    let n_features = plan.len();
    let (matcher, threshold) = (&*workflow.matcher, workflow.threshold);

    let _region = magellan_obs::span("score", 0);
    let (chunks, mut stats) = magellan_par::chunk_map(pairs.len(), cfg, |range| {
        let mut scorer = Scorer::new(&prepared, &plan);
        let mut matched = Vec::new();
        let mut counts = DecideCounts::default();
        let chunk = &pairs[range];
        let keep = |i, predicted, scorer: &mut Scorer<'_>| {
            if rules.apply_lazy(|j| scorer.feature(j), predicted).0 {
                matched.push(chunk[i]);
            }
        };
        workflow.plan.decide_pairs(matcher, threshold, &mut scorer, chunk, &mut counts, keep);
        (matched, scorer.computed(), counts, scorer.counts())
    });

    let mut decisions = Vec::new();
    let mut demanded = 0u64;
    let mut counts = DecideCounts::default();
    let mut scored = ScorerCounts::default();
    for (matched, d, c, s) in chunks {
        decisions.extend(matched);
        demanded += d;
        counts.walked += c.walked;
        counts.in_region += c.in_region;
        scored += s;
    }
    let possible = (pairs.len() * n_features) as u64;
    magellan_obs::counter_add("magellan_core_features_demanded_total", demanded);
    magellan_obs::counter_add("magellan_core_features_skipped_total", possible - demanded);
    magellan_obs::counter_add("magellan_core_trees_walked_total", counts.walked);
    magellan_obs::counter_add("magellan_core_region_decided_total", counts.in_region);
    scored.publish();
    cache.publish();
    stats.cache = cache;
    stats.publish("score");
    Ok((decisions, stats))
}

/// Pairs a derivation decides, at most, to choose how a workflow decides
/// the rest ([`DecisionPlan::derive`]).
const PILOT: usize = 256;

/// How a workflow decides its pairs, beside its matcher and threshold: the
/// features the matcher tests last, and its *certain-No region* — a box
/// over the features it does not defer, inside which the matcher's largest
/// attainable score is below the threshold, so a pair inside it is a No
/// with no tree walked.
///
/// The plan belongs to the trained matcher and its threshold, not to a
/// run: the development stage derives it once ([`DecisionPlan::derive`]),
/// `workflow v1` carries it ([`crate::persist`]), and every run reads it.
/// Neither part can change a decision: the mask only orders a walk, and a
/// box is used only once [`DecisionPlan::check`] has found it certain-No.
/// The empty plan (`DecisionPlan::default()`) defers nothing and has no
/// box; hand-built workflows carry it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionPlan {
    /// Per feature, whether the matcher tests it last
    /// ([`Classifier::decide`]); empty when nothing is deferred.
    pub deferred: Vec<bool>,
    /// `(feature, upper bound)` of the box's constrained features, the
    /// most asked for first; `None` when the plan has no box.
    pub region: Option<Vec<(usize, f64)>>,
}

/// What deciding pairs cost: trees walked, and pairs decided inside the
/// certain-No region, with none walked.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DecideCounts {
    pub(crate) walked: u64,
    pub(crate) in_region: u64,
}

impl DecisionPlan {
    /// Decide a strided sample of at most [`PILOT`] of `pairs` to choose
    /// the deferral mask and the certain-No region of `matcher` at
    /// `threshold`, in one pass. The pairs' records must be prepared for
    /// `plan`.
    ///
    /// *The mask* is the plan's sequence kernels
    /// ([`magellan_features::FeaturePlan::deferred`]), unless testing them
    /// last does not pay on these pairs. Deferral saves every kernel of a
    /// pair the cheap features decide, and costs a longer walk — more
    /// trees, more cheap features — on a pair that needs a kernel anyway.
    /// So each sampled pair whose plain walk asks for a kernel is decided
    /// both ways; unless the deferred walk asks for none on at least half
    /// of them, no feature is deferred.
    ///
    /// *The region* ([`negative_box`]) has as dimensions the features the
    /// chosen walk does not defer and asks for on at least half of the
    /// sampled pairs, so testing a pair against it mostly computes what the
    /// walk would have: the cheap features when the kernels are deferred,
    /// and the kernels too when they are not, the walk then asking for them
    /// on nearly every pair. Its bounds come from the sampled pairs'
    /// values. A matcher with no [`Classifier::region_max`] has no region.
    ///
    /// Both read only the pairs, the matcher, the threshold and the plan.
    /// The development stage calls this once, over its calibration probe at
    /// the calibrated threshold; a test that builds a workflow by hand
    /// calls it over the run's own candidates.
    pub fn derive(
        matcher: &dyn Classifier,
        threshold: f64,
        prepared: &PreparedPair<'_>,
        plan: &FeaturePlan,
        pairs: &[(u32, u32)],
    ) -> Self {
        let kernels = plan.deferred();
        let defers = kernels.contains(&true);
        let bounded = matcher.region_max(&[]).is_some();
        let mut out = DecisionPlan::default();
        if !defers && !bounded {
            return out;
        }
        let n = kernels.len();
        let plain = vec![false; n];
        let mut scorer = Scorer::new(prepared, plan);
        // Per feature, the sampled pairs on which the plain (0) and the
        // deferred (1) walk asked for it, and its sampled values.
        let mut asked = [vec![0usize; n], vec![0usize; n]];
        let mut values = vec![Vec::new(); n];
        let mut seen = vec![false; n];
        // Decide the current pair under `mask`, marking what it asks for.
        let walk = |mask: &[bool], scorer: &mut Scorer<'_>, seen: &mut [bool]| {
            seen.fill(false);
            let mut feat = |j: usize| {
                seen[j] = true;
                scorer.feature(j)
            };
            matcher.decide(threshold, mask, &mut feat, &mut 0);
        };
        // Count what a walk asked for; did it ask for a kernel?
        let tally = |seen: &[bool], asked: &mut [usize]| {
            let mut kernel = false;
            for j in (0..n).filter(|&j| seen[j]) {
                asked[j] += 1;
                kernel |= kernels[j];
            }
            kernel
        };
        let (mut sampled, mut needing, mut saved) = (0, 0, 0);
        let stride = pairs.len().div_ceil(PILOT).max(1);
        for &(ra, rb) in pairs.iter().step_by(stride) {
            scorer.begin_pair(ra as usize, rb as usize);
            sampled += 1;
            walk(&plain, &mut scorer, &mut seen);
            let without = tally(&seen, &mut asked[0]);
            if bounded {
                // Every cheap feature, and the kernels the walk computed.
                for j in (0..n).filter(|&j| !kernels[j] || seen[j]) {
                    values[j].push(scorer.feature(j));
                }
            }
            // A walk that tests no kernel parks no tree, so the deferred
            // walk is the plain one unless the plain one asked for a kernel.
            if defers {
                if without {
                    walk(&kernels, &mut scorer, &mut seen);
                    needing += 1;
                }
                let with = tally(&seen, &mut asked[1]);
                saved += usize::from(without && !with);
            }
        }
        let defer = defers && saved * 2 >= needing;
        if bounded {
            let asked = &asked[usize::from(defer)];
            let mut dims: Vec<usize> = (0..n)
                .filter(|&j| !(defer && kernels[j]) && asked[j] * 2 >= sampled)
                .collect();
            dims.sort_by_key(|&j| std::cmp::Reverse(asked[j]));
            out.region = negative_box(matcher, threshold, n, &dims, &values);
        }
        if defer {
            out.deferred = kernels;
        }
        out
    }

    /// Refuse a plan `matcher` at `threshold` cannot run with over
    /// `n_features` features: a mask neither empty nor as long as the
    /// feature list, a box on a feature past the list, or a box inside
    /// which the matcher's [`Classifier::region_max`] is not below the
    /// threshold (or that a matcher with no bound carries). The executor
    /// calls this once per run and `load_workflow` once per file, so a
    /// stale or hand-edited plan can cost time but never a match.
    ///
    /// # Errors
    /// [`MagellanError::Config`] naming what is wrong.
    pub fn check(
        &self,
        matcher: &dyn Classifier,
        threshold: f64,
        n_features: usize,
    ) -> Result<(), MagellanError> {
        let refuse = |message: String| Err(MagellanError::Config { message });
        if !self.deferred.is_empty() && self.deferred.len() != n_features {
            return refuse(format!(
                "the plan's deferral mask covers {} features, the workflow lists {n_features}",
                self.deferred.len()
            ));
        }
        let Some(dims) = &self.region else {
            return Ok(());
        };
        let mut upper = vec![None; n_features];
        for &(j, bound) in dims {
            let Some(slot) = upper.get_mut(j) else {
                return refuse(format!(
                    "the plan's region bounds feature {j}, the workflow lists {n_features}"
                ));
            };
            *slot = Some(bound);
        }
        match matcher.region_max(&upper) {
            Some(max) if max < threshold => Ok(()),
            Some(max) => refuse(format!(
                "the plan's region is not certain-No: the matcher scores up to {max} inside it, \
                 at threshold {threshold}"
            )),
            None => refuse("the plan has a region, but the matcher cannot bound its score".into()),
        }
    }

    /// Decide each of `pairs` by `matcher` at `threshold` through `scorer`
    /// and hand the pair's position and decision to `then` with the scorer
    /// still on that pair, so it can read more of the same lazily filled
    /// row. A pair inside the certain-No region is a No; every other pair
    /// is decided by the matcher, asking only for the features its trees
    /// test, and for the deferred ones last ([`Classifier::decide`]).
    /// Shared by the production pass and the development stage's
    /// calibration probe; the plan must have passed
    /// [`DecisionPlan::check`] for this matcher and threshold.
    pub(crate) fn decide_pairs<'p>(
        &self,
        matcher: &dyn Classifier,
        threshold: f64,
        scorer: &mut Scorer<'p>,
        pairs: &[(u32, u32)],
        counts: &mut DecideCounts,
        mut then: impl FnMut(usize, bool, &mut Scorer<'p>),
    ) {
        let plain;
        let deferred = if self.deferred.is_empty() {
            plain = vec![false; scorer.width()];
            &plain
        } else {
            &self.deferred
        };
        for (i, &(ra, rb)) in pairs.iter().enumerate() {
            scorer.begin_pair(ra as usize, rb as usize);
            let predicted = if self.in_region(scorer) {
                counts.in_region += 1;
                false
            } else {
                let mut feat = |j| scorer.feature(j);
                matcher.decide(threshold, deferred, &mut feat, &mut counts.walked)
            };
            then(i, predicted, scorer);
        }
    }

    /// Does the scorer's pair lie in the certain-No region? Its features
    /// are read the most asked for first; a NaN or a value above its bound
    /// leaves the pair to the matcher, with what was read memoised.
    fn in_region(&self, scorer: &mut Scorer<'_>) -> bool {
        self.region
            .as_ref()
            .is_some_and(|dims| dims.iter().all(|&(j, upper)| scorer.feature(j) <= upper))
    }
}

/// The certain-No region over `dims` (feature indices, the most asked for
/// first) of an `n`-feature row: `(feature, bound)` pairs such that the
/// matcher's [`Classifier::region_max`] under those bounds is below
/// `threshold`, or `None` if no box built from the sampled `values` is.
///
/// Each bound is one of the feature's sampled values. First one common
/// quantile is binary-searched, the largest at which the box is valid; then
/// each dimension is widened, the least asked for first, in two rounds: the
/// first drops every dimension the box stays valid without, the second
/// binary-searches each remaining one's largest valid value. The validity
/// test is `region_max < threshold`, `decide`'s own stop (DESIGN §7.3), so
/// a pair inside the box is a No for the same bits; a NaN threshold never
/// gives a box.
fn negative_box(
    matcher: &dyn Classifier,
    threshold: f64,
    n: usize,
    dims: &[usize],
    values: &[Vec<f64>],
) -> Option<Vec<(usize, f64)>> {
    let sorted: Vec<Vec<f64>> = dims
        .iter()
        .map(|&j| {
            let mut v: Vec<f64> = values[j].iter().copied().filter(|x| !x.is_nan()).collect();
            v.sort_by(f64::total_cmp);
            v.dedup();
            v
        })
        .collect();
    // Per dimension, the index of its bound in `sorted`; `None` leaves it
    // unconstrained.
    let valid = |at: &[Option<usize>]| {
        let mut upper = vec![None; n];
        for ((&j, v), i) in dims.iter().zip(&sorted).zip(at) {
            upper[j] = i.map(|i| v[i]);
        }
        matcher
            .region_max(&upper)
            .is_some_and(|max| max < threshold)
    };
    let quantile = |k: usize| -> Vec<Option<usize>> {
        sorted
            .iter()
            .map(|v| (!v.is_empty()).then(|| k * (v.len() - 1) / PILOT))
            .collect()
    };
    if !valid(&quantile(0)) {
        return None;
    }
    let mut at = quantile(last_valid(0, PILOT, |k| valid(&quantile(k))));
    for d in (0..dims.len()).rev() {
        let bound = at[d].take();
        if !valid(&at) {
            at[d] = bound;
        }
    }
    for d in (0..dims.len()).rev() {
        if let Some(from) = at[d] {
            let widest = last_valid(from, sorted[d].len() - 1, |i| {
                let mut wider = at.clone();
                wider[d] = Some(i);
                valid(&wider)
            });
            at[d] = Some(widest);
        }
    }
    Some(
        dims.iter()
            .zip(&sorted)
            .zip(&at)
            .filter_map(|((&j, v), i)| i.map(|i| (j, v[i])))
            .collect(),
    )
}

/// The largest `k` in `lo..=hi` with `valid(k)`, for a `valid` that holds
/// at `lo` and, once false, stays false.
fn last_valid(mut lo: usize, mut hi: usize, mut valid: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if valid(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// A general parallel map over row chunks, exposed for workloads that
/// don't fit the workflow shape (e.g. per-row cleaning in the guide's
/// pre-processing step). `out[i] == f(i)` for every worker count.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(
    n: usize,
    n_workers: usize,
    f: F,
) -> Vec<T> {
    magellan_par::map_indexed(n, &ParConfig::workers(n_workers), f).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleLayer;
    use magellan_block::OverlapBlocker;
    use magellan_datagen::domains::persons;
    use magellan_datagen::{DirtModel, ScenarioConfig};
    use magellan_features::{Feature, FeatureKind, TokSpecF};
    use magellan_ml::model::ConstantClassifier;

    fn workflow() -> EmWorkflow {
        EmWorkflow {
            blocker: Box::new(OverlapBlocker::words("name", 1)),
            features: vec![
                Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
                Feature::new("name", "name", FeatureKind::JaroWinkler),
            ],
            matcher: Box::new(ConstantClassifier { proba: 1.0 }),
            rule_layer: RuleLayer::new(vec![crate::rules::MatchRule::reject(
                "weak",
                vec![(
                    "jaccard(word(A.name), word(B.name))".into(),
                    crate::rules::Cmp::Lt,
                    0.5,
                )],
            )]),
            threshold: 0.5,
            plan: DecisionPlan::default(),
        }
    }

    /// Every ratio on an all-zero (never-ran) counter block reports 0.0 —
    /// never NaN or ∞.
    #[test]
    fn zero_denominator_counters_are_finite() {
        let c = PhaseCounters::default();
        assert_eq!(c.matching.throughput(), 0.0);
        assert_eq!(c.matching.cache.hit_rate(), 0.0);
        assert_eq!(c.blocking.join.position_kill_rate(), 0.0);
        assert_eq!(c.blocking.chunks_stolen + c.matching.chunks_stolen, 0);
        for v in [
            c.matching.throughput(),
            c.matching.cache.hit_rate(),
            c.blocking.join.position_kill_rate(),
            c.blocking.throughput(),
            c.blocking.utilization(),
            c.matching.throughput(),
            c.matching.utilization(),
        ] {
            assert!(v.is_finite(), "ratio accessor produced {v}");
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let s = persons(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            seed: 21,
        });
        let wf = workflow();
        let serial = ProductionExecutor::new(1).run(&wf, &s.table_a, &s.table_b).unwrap();
        let parallel = ProductionExecutor::new(4).run(&wf, &s.table_a, &s.table_b).unwrap();
        assert_eq!(serial.matches, parallel.matches);
        assert_eq!(serial.n_candidates, parallel.n_candidates);
        assert_eq!(parallel.n_workers, 4);
        assert!(serial.timings.total() > Duration::ZERO);
    }

    #[test]
    fn report_surfaces_phase_counters() {
        let s = persons(&ScenarioConfig {
            size_a: 200,
            size_b: 200,
            n_matches: 60,
            dirt: DirtModel::light(),
            seed: 5,
        });
        let wf = workflow();
        let report = ProductionExecutor::new(3).run(&wf, &s.table_a, &s.table_b).unwrap();
        // Blocking counters reflect the probe loop over table A's rows.
        assert_eq!(report.counters.blocking.n_workers, 3);
        assert_eq!(report.counters.blocking.items, 200);
        assert!(report.counters.blocking.chunks_total >= 1);
        // The fused scoring pass walks every candidate pair once.
        assert_eq!(report.counters.matching.items, report.n_candidates);
        assert_eq!(report.counters.matching.worker_busy.len(), 3);
        assert!(report.counters.matching.throughput() >= 0.0);
        assert!(
            report.counters.blocking.chunks_stolen + report.counters.matching.chunks_stolen
                <= report.counters.blocking.chunks_total + report.counters.matching.chunks_total
        );
        let mut busy = report.counters.blocking.clone();
        busy.merge(&report.counters.matching);
        assert_eq!(busy.worker_busy.len(), 3);
        // Prepared-cache counters of the matching-phase extraction: the
        // workflow has one token feature (word jaccard on name), so
        // records were prepared, tokenize calls were spent (once per
        // referenced record), and — with pairs ≫ records — far more calls
        // were saved versus the per-pair scalar path.
        let cache = report.counters.matching.cache;
        assert!(cache.records_prepared > 0, "{cache:?}");
        assert!(cache.tokenize_calls > 0, "{cache:?}");
        assert!(cache.interner_tokens > 0, "{cache:?}");
        assert!(
            report.counters.matching.cache.tokenize_calls_saved > cache.tokenize_calls,
            "{cache:?}"
        );
        assert!(
            (0.0..=1.0).contains(&report.counters.matching.cache.hit_rate()),
            "{cache:?}"
        );
        // Join-cascade counters of the blocking-phase sim-join: probes
        // ran, candidates were generated, every candidate was either
        // killed by the positional filter or verified, and verification
        // accounts for suffix kills plus emitted pairs.
        let join = report.counters.blocking.join;
        assert!(join.probes > 0, "{join:?}");
        assert!(join.candidates > 0, "{join:?}");
        assert_eq!(
            join.candidates,
            join.killed_by_position + join.verified,
            "{join:?}"
        );
        assert_eq!(join.verified, join.killed_by_suffix + join.pairs, "{join:?}");
        assert!(
            (0.0..=1.0).contains(&report.counters.blocking.join.position_kill_rate()),
            "{join:?}"
        );
    }

    #[test]
    fn recovery_run_without_faults_matches_plain_run() {
        let s = persons(&ScenarioConfig {
            size_a: 200,
            size_b: 200,
            n_matches: 60,
            dirt: DirtModel::light(),
            seed: 11,
        });
        let wf = workflow();
        let plain = ProductionExecutor::new(2).run(&wf, &s.table_a, &s.table_b).unwrap();
        let mut store = crate::checkpoint::MemStore::new();
        let rec = ProductionExecutor::new(2)
            .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &RecoveryOptions::default())
            .unwrap();
        assert_eq!(plain.matches, rec.matches);
        assert_eq!(plain.n_candidates, rec.n_candidates);
        assert_eq!(rec.recovery.panics_contained, 0);
        assert_eq!(rec.recovery.checkpoints_written, 2);
        assert_eq!(rec.recovery.resumed_from, None);
        // The Done checkpoint is durable and parseable (binary v2).
        let ck = Checkpoint::from_bytes(store.raw_bytes().unwrap()).unwrap();
        assert_eq!(ck.phase(), Phase::Matching);
    }

    #[test]
    fn kill_after_blocking_resumes_to_identical_report() {
        let s = persons(&ScenarioConfig {
            size_a: 250,
            size_b: 250,
            n_matches: 80,
            dirt: DirtModel::light(),
            seed: 13,
        });
        let wf = workflow();
        let exec = ProductionExecutor::new(3);
        let golden = exec.run(&wf, &s.table_a, &s.table_b).unwrap();

        let mut store = crate::checkpoint::MemStore::new();
        let opts = RecoveryOptions {
            kill_after: Some(Phase::Blocking),
            ..RecoveryOptions::default()
        };
        let err = exec
            .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
            .unwrap_err();
        assert!(matches!(err, MagellanError::Killed { after_phase: "blocking" }));
        assert!(err.fatal());

        // Rerun with the same store: resumes past blocking, finishes.
        let resumed = exec
            .run_with_recovery(
                &wf,
                &s.table_a,
                &s.table_b,
                &mut store,
                &RecoveryOptions::default(),
            )
            .unwrap();
        assert_eq!(resumed.recovery.resumed_from, Some(Phase::Blocking));
        assert_eq!(resumed.matches, golden.matches);
        assert_eq!(resumed.n_candidates, golden.n_candidates);
        // Blocking was skipped, so its counters are empty.
        assert_eq!(resumed.counters.blocking.items, 0);

        // A third run resumes from Done and still reports identically.
        let done = exec
            .run_with_recovery(
                &wf,
                &s.table_a,
                &s.table_b,
                &mut store,
                &RecoveryOptions::default(),
            )
            .unwrap();
        assert_eq!(done.recovery.resumed_from, Some(Phase::Matching));
        assert_eq!(done.matches, golden.matches);
        assert_eq!(done.n_candidates, golden.n_candidates);
    }

    #[test]
    fn faulted_run_heals_to_bit_identical_matches() {
        magellan_par::silence_contained_panics();
        let s = persons(&ScenarioConfig {
            size_a: 250,
            size_b: 250,
            n_matches: 80,
            dirt: DirtModel::light(),
            seed: 17,
        });
        let wf = workflow();
        let exec = ProductionExecutor::new(4);
        let golden = exec.run(&wf, &s.table_a, &s.table_b).unwrap();

        let plan = FaultPlan::seeded(99);
        let mut store = crate::checkpoint::FlakyStore::new(
            crate::checkpoint::MemStore::new(),
            plan,
        );
        let opts = RecoveryOptions {
            faults: plan,
            ..RecoveryOptions::default()
        };
        let rec = exec
            .run_with_recovery(&wf, &s.table_a, &s.table_b, &mut store, &opts)
            .unwrap();
        assert_eq!(rec.matches, golden.matches, "recovery must be bit-identical");
        assert_eq!(rec.n_candidates, golden.n_candidates);
        assert!(
            rec.recovery.panics_contained > 0,
            "seeded plan should have injected at least one chunk panic"
        );
        assert!(rec.recovery.chunks_recovered >= 1, "contained panics imply recovered chunks");
        assert!(rec.recovery.chunks_recovered <= rec.recovery.panics_contained);
    }

    /// A plan the workflow's matcher and threshold cannot vouch for is a
    /// configuration error before any work, through the check
    /// `load_workflow` runs too; the empty plan runs.
    #[test]
    fn a_plan_the_matcher_cannot_vouch_for_is_refused() {
        use magellan_ml::{Dataset, RandomForestLearner};
        let s = persons(&ScenarioConfig {
            size_a: 60,
            size_b: 60,
            n_matches: 20,
            dirt: DirtModel::light(),
            seed: 3,
        });
        let d = Dataset::from_rows(
            &[vec![0.9, 0.1], vec![0.8, 0.2], vec![0.1, 0.9], vec![0.2, 0.8]],
            &[true, true, false, false],
        );
        let forest = RandomForestLearner {
            n_trees: 3,
            ..Default::default()
        }
        .fit_forest(&d);
        let refused = |wf: &EmWorkflow, why: &str| {
            let err = ProductionExecutor::new(2)
                .run(wf, &s.table_a, &s.table_b)
                .unwrap_err();
            assert!(matches!(err, MagellanError::Config { .. }), "{err}");
            assert!(err.to_string().contains(why), "{err}");
        };
        let mut wf = workflow();
        wf.plan.deferred = vec![true];
        refused(&wf, "covers 1 features, the workflow lists 2");
        wf.plan = DecisionPlan {
            deferred: Vec::new(),
            region: Some(Vec::new()),
        };
        refused(&wf, "cannot bound its score");
        wf.matcher = Box::new(forest);
        wf.plan.region = Some(vec![(2, 0.0)]);
        refused(&wf, "bounds feature 2");
        // Unbounded on the first feature: the forest's own maximum.
        wf.plan.region = Some(vec![(0, f64::INFINITY)]);
        refused(&wf, "not certain-No");
        wf.plan = DecisionPlan::default();
        assert!(ProductionExecutor::new(2).run(&wf, &s.table_a, &s.table_b).is_ok());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let out = parallel_map(3, 8, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        let empty: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(empty.is_empty());
    }
}
