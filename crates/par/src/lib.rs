//! # magellan-par — the shared work-stealing chunk executor
//!
//! The paper's production stage exists to "scale the resulting workflow out
//! on multiple cores" (§4.1, Table 2). This crate is the substrate every
//! Magellan hot path runs on: blocking, sim-joins, feature extraction,
//! forest training, batch prediction, and Falcon's active-learning scoring
//! all fan out through [`chunk_map`].
//!
//! ## Execution model
//!
//! The input index space `0..len` is cut into fixed chunks. Workers (the
//! calling thread plus `n_workers - 1` scoped threads) *race on a shared
//! atomic chunk cursor*: whoever is idle claims the next unprocessed chunk.
//! This is work stealing in its simplest deterministic form — a fast worker
//! "steals" chunks that static partitioning would have assigned to a slow
//! one, so stragglers never serialize the tail of a phase.
//!
//! ## The determinism contract
//!
//! Every chunk's output is written into a slot indexed by chunk id and the
//! slots are concatenated **in chunk order** after the scope joins. As long
//! as the chunk function is a pure function of the index range (no shared
//! mutable state, no RNG keyed on the worker), the merged output is
//! **bit-identical to the serial run for any worker count and any chunk
//! size** — `n_workers` and scheduling jitter can change only *who* computes
//! a chunk and *when*, never *what* it computes or *where* it lands.
//! `crates/core/tests/par_determinism.rs` enforces this end to end for
//! every routed hot path.
//!
//! Callers opt in per crate:
//!
//! * `magellan-simjoin` — probe-side partitioning of `join_tokenized`;
//! * `magellan-block` — per-left-row candidate generation via
//!   `Blocker::block_par`;
//! * `magellan-features` — pair chunks in `extract_feature_matrix_par`;
//! * `magellan-ml` — per-tree forest training, batch `predict_proba` and
//!   cross-validation folds;
//! * `magellan-falcon` — the example-scoring loop of active learning;
//! * `magellan-core` — `ProductionExecutor` drives whole workflows and
//!   surfaces the per-phase [`ParStats`] counters in its report; the
//!   development stage and the down-sampler run their independent steps
//!   on [`ParConfig::available`] capped by [`ParConfig::at_most`].
//!
//! ## Panic containment & self-healing
//!
//! Every chunk attempt runs under `catch_unwind`. A chunk that panics —
//! whether from an injected fault ([`ParConfig::faults`], a
//! `magellan-faults` chunk-fault slice) or a genuine bug — is retried by
//! the same worker up to [`ParConfig::chunk_retries`] times. If a chunk
//! exhausts its in-worker retries the worker *dies* (stops claiming work,
//! modelling a crashed thread); surviving workers keep draining the chunk
//! cursor, and after the scope joins the calling thread serially re-runs
//! every still-missing chunk with fresh attempt numbers. Only a chunk
//! that keeps panicking through the serial fallback escapes — that is a
//! deterministic bug, and hiding it would be worse than crashing.
//!
//! Because the chunk function is pure and injection is keyed on
//! `(region, chunk, attempt)` — never on which worker runs the chunk —
//! **recovered output is bit-identical to the fault-free run**, preserving
//! the determinism contract under chaos. Recovery is surfaced in
//! [`ParStats`]: `panics_contained`, `chunks_recovered`, `worker_deaths`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use magellan_obs::EvVal;

pub use magellan_faults::ChunkFaults;
/// The recorder this pool installs on its workers. Re-exported so a crate
/// that runs its regions here can publish what they counted without a
/// dependency edge of its own.
pub use magellan_obs as obs;

/// The payload of a fault-plan-injected chunk panic. Public so panic
/// hooks (see [`silence_contained_panics`]) can recognize and mute it.
#[derive(Debug)]
pub struct InjectedFault {
    /// Chunk the fault fired in.
    pub chunk: usize,
    /// 0-based attempt that was killed.
    pub attempt: u32,
}

/// Install a process-wide panic hook that stays silent for
/// [`InjectedFault`] payloads and delegates everything else to the
/// previous hook. Chaos tests call this once so thousands of injected,
/// *contained* panics do not flood stderr; genuine panics still print.
pub fn silence_contained_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                previous(info);
            }
        }));
    });
}

/// How a parallel region should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker threads, including the calling thread (≥ 1).
    pub n_workers: usize,
    /// Items per chunk; `None` picks a size that gives each worker several
    /// chunks to steal (`len / (8 · n_workers)`, clamped to ≥ 1).
    pub chunk_size: Option<usize>,
    /// In-worker retries per chunk after a contained panic before the
    /// worker gives up on the chunk and dies.
    pub chunk_retries: u32,
    /// Deterministic chunk-panic injector (production: `ChunkFaults::none()`).
    pub faults: ChunkFaults,
}

impl ParConfig {
    /// Serial execution (one worker, everything in one chunk per default).
    pub fn serial() -> Self {
        ParConfig {
            n_workers: 1,
            chunk_size: None,
            chunk_retries: 3,
            faults: ChunkFaults::none(),
        }
    }

    /// `n` workers with the default chunk policy.
    pub fn workers(n: usize) -> Self {
        ParConfig {
            n_workers: n.max(1),
            ..ParConfig::serial()
        }
    }

    /// One worker per core the host offers
    /// ([`std::thread::available_parallelism`], 1 when it cannot tell),
    /// with the default chunk policy. For regions whose output does not
    /// depend on the worker count, so the count is the code's choice.
    pub fn available() -> Self {
        ParConfig::workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// This pool with at most `n` workers (at least one): for a region of
    /// `n` chunks, or one whose per-worker scratch must stay bounded
    /// whatever the host offers.
    pub fn at_most(&self, n: usize) -> Self {
        ParConfig {
            n_workers: self.n_workers.min(n).max(1),
            ..*self
        }
    }

    /// This pool for a region of `len` items too short to steal in, such
    /// as a stream tick's few dozen probes: unless a chunk size was set,
    /// at most `len` workers, each given one chunk of
    /// `len.div_ceil(n_workers)` items. An explicit chunk size is kept.
    pub fn one_chunk_per_worker(&self, len: usize) -> Self {
        match self.chunk_size {
            Some(_) => *self,
            None => {
                let pool = self.at_most(len);
                pool.with_chunk_size(len.div_ceil(pool.n_workers))
            }
        }
    }

    /// Override the chunk size.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = Some(chunk.max(1));
        self
    }

    /// Enable deterministic chunk-fault injection for this region.
    pub fn with_faults(mut self, faults: ChunkFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Chunk size used for an input of `len` items.
    pub fn effective_chunk_size(&self, len: usize) -> usize {
        match self.chunk_size {
            Some(c) => c.max(1),
            // ~8 chunks per worker: enough slack for stealing to even out
            // skew, few enough that per-chunk overhead stays invisible.
            None => (len / (8 * self.n_workers)).max(1),
        }
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::serial()
    }
}

/// Counters describing one parallel region — the instrumentation the
/// production executor surfaces per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParStats {
    /// Workers that participated.
    pub n_workers: usize,
    /// Items in the input index space.
    pub items: usize,
    /// Chunks the input was cut into.
    pub chunks_total: usize,
    /// Chunks executed by a worker other than their static-partition owner
    /// (the "stolen" work that dynamic scheduling moved off stragglers).
    pub chunks_stolen: usize,
    /// Panics caught by per-chunk `catch_unwind` (injected or genuine).
    pub panics_contained: usize,
    /// Chunks that panicked at least once but ultimately produced their
    /// output (in-worker retry or serial fallback).
    pub chunks_recovered: usize,
    /// Workers that died (abandoned the claim loop after a chunk
    /// exhausted its in-worker retries).
    pub worker_deaths: usize,
    /// Busy wall-clock per worker (time inside the chunk function).
    pub worker_busy: Vec<Duration>,
    /// Wall-clock of the whole region, including merge.
    pub elapsed: Duration,
    /// Prepared-cache counters of the region (zero for regions that don't
    /// run on a record-preparation cache). Filled by the interned
    /// feature-extraction layer in `magellan-features`.
    pub cache: CacheStats,
    /// Sim-join pruning-cascade counters of the region (zero for regions
    /// that aren't similarity joins). Filled by the CSR join engine in
    /// `magellan-simjoin`.
    pub join: JoinStats,
}

/// Effectiveness counters of a record-preparation (tokenize-once) cache:
/// how much per-pair string work the prepared layer absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `(record, attribute × tokenizer)` cells prepared (normalized +
    /// tokenized + interned exactly once each).
    pub records_prepared: usize,
    /// Tokenizer invocations actually performed while preparing.
    pub tokenize_calls: usize,
    /// Tokenizer invocations the per-pair scalar path would have
    /// performed for the same workload (2 × pairs × token features),
    /// minus the ones the cache actually spent — i.e. work saved.
    pub tokenize_calls_saved: usize,
    /// Prepared-cell requests (one per referenced record × combination
    /// per extraction call).
    pub lookups: usize,
    /// Requests served by an already-prepared cell (cross-call /
    /// cross-phase reuse).
    pub hits: usize,
    /// Distinct tokens in the shared interner after the region.
    pub interner_tokens: usize,
}

impl CacheStats {
    /// Fraction of prepared-cell requests served from cache, in `[0, 1]`.
    /// Zero-lookup regions report `0.0`, never `NaN`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Publish these cache counters into the ambient `magellan-obs`
    /// registry under `magellan_features_cache_*` names (the struct lives
    /// here because `ParStats` carries it; the metrics belong to the
    /// feature-cache subsystem). All fields are scheduling-independent,
    /// so everything is published in both clock modes. No-op when the
    /// counters are all zero or no recorder is installed.
    pub fn publish(&self) {
        if *self == CacheStats::default() {
            return;
        }
        let Some(obs) = magellan_obs::current() else {
            return;
        };
        obs.counter_add(
            "magellan_features_cache_records_prepared_total",
            self.records_prepared as u64,
        );
        obs.counter_add(
            "magellan_features_cache_tokenize_calls_total",
            self.tokenize_calls as u64,
        );
        obs.counter_add(
            "magellan_features_cache_tokenize_calls_saved_total",
            self.tokenize_calls_saved as u64,
        );
        obs.counter_add("magellan_features_cache_lookups_total", self.lookups as u64);
        obs.counter_add("magellan_features_cache_hits_total", self.hits as u64);
        obs.gauge_set(
            "magellan_features_interner_tokens",
            self.interner_tokens as f64,
        );
    }

    /// Fold another region's cache counters into this one. Counters sum;
    /// `interner_tokens` is a high-water mark (regions share one
    /// interner, so the max is the final vocabulary size).
    pub fn merge(&mut self, other: &CacheStats) {
        self.records_prepared += other.records_prepared;
        self.tokenize_calls += other.tokenize_calls;
        self.tokenize_calls_saved += other.tokenize_calls_saved;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.interner_tokens = self.interner_tokens.max(other.interner_tokens);
    }
}

/// Pruning-cascade counters of a set-similarity join region: how many
/// candidates each filter stage of the CSR engine killed before the
/// (expensive) verification merge, and how much merge work verification
/// actually spent. The stages fire in order: size window → accumulating
/// positional filter → bounded suffix verification → exact qualification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Probe records processed (non-empty token sets on the probe side).
    pub probes: usize,
    /// Indexed records actually touched: distinct `(probe, indexed)` pairs
    /// with a prefix collision inside the size window of that probe
    /// position (a record first met too late to qualify is not one).
    pub candidates: usize,
    /// Posting entries skipped wholesale by the binary-searched size
    /// window (postings are size-sorted per token, so these are never
    /// even branched on), as narrowed at their probe position.
    pub killed_by_size: usize,
    /// Touched candidates abandoned by the accumulating positional
    /// filter: their `shared-so-far + remaining-tokens` upper bound fell
    /// below the required overlap during prefix probing. The remaining
    /// tokens are bounded by the remainders' sizes and by their 32-bit
    /// bitmaps (remainders whose bitmaps differ in `h` bits share at most
    /// `(rx + ry − h) / 2`), so this includes the bitmap kills.
    pub killed_by_position: usize,
    /// Candidates abandoned *inside* the bounded suffix merge: the
    /// running upper bound proved the required overlap unreachable
    /// before the merge finished.
    pub killed_by_suffix: usize,
    /// Candidates handed to the suffix merge (the only ones that fetch
    /// the indexed record). With the bitmaps in the positional filter this
    /// tracks `pairs`: 1.3 per pair on `stream_churn`'s titles, where it
    /// was 97 per pair without them.
    pub verified: usize,
    /// Token comparison steps spent inside verification merges (the
    /// bounded walk, its galloping seeks and its unbounded tail
    /// combined) — a pure function of the operands.
    pub verify_steps: usize,
    /// Qualifying pairs emitted.
    pub pairs: usize,
    /// Regions in which cost-based probe-side selection swapped the
    /// probe side (indexed the left collection, probed with the right).
    pub probe_swaps: usize,
    /// Edit-join candidates killed by the q-gram signature prefilter
    /// before any banded-DP cell was computed.
    pub killed_by_qgram_sig: usize,
    /// Edit-join candidates whose signatures survived the prefilter
    /// (denominator for the prefilter kill rate).
    pub qgram_sig_checked: usize,
    /// Delta-join probes: new/changed records probed against a standing
    /// index instead of a full-corpus re-join.
    pub delta_probes: usize,
    /// Signed pair deltas emitted with polarity `Added`.
    pub delta_pairs_added: usize,
    /// Signed pair deltas emitted with polarity `Removed`.
    pub delta_pairs_removed: usize,
    /// Stale postings skipped at probe time because their record was
    /// tombstoned (deleted or superseded) after the posting was packed.
    pub tombstones_skipped: usize,
    /// Postings scanned in the uncompacted tail overlay (records added
    /// since the last CSR compaction).
    pub tail_postings_scanned: usize,
    /// CSR compactions: tombstone density crossed the threshold and the
    /// postings buffer was re-packed over the live records.
    pub compactions: usize,
}

impl JoinStats {
    /// Publish these pruning-cascade counters into the ambient
    /// `magellan-obs` registry under `magellan_simjoin_*` names. All
    /// fields are pure functions of the join inputs (the cascade is
    /// deterministic), so everything is published in both clock modes.
    /// No-op when the counters are all zero or no recorder is installed.
    pub fn publish(&self) {
        if *self == JoinStats::default() {
            return;
        }
        let Some(obs) = magellan_obs::current() else {
            return;
        };
        obs.counter_add("magellan_simjoin_probes_total", self.probes as u64);
        obs.counter_add("magellan_simjoin_candidates_total", self.candidates as u64);
        obs.counter_add(
            "magellan_simjoin_killed_by_size_total",
            self.killed_by_size as u64,
        );
        obs.counter_add(
            "magellan_simjoin_killed_by_position_total",
            self.killed_by_position as u64,
        );
        obs.counter_add(
            "magellan_simjoin_killed_by_suffix_total",
            self.killed_by_suffix as u64,
        );
        obs.counter_add("magellan_simjoin_verified_total", self.verified as u64);
        obs.counter_add(
            "magellan_simjoin_verify_steps_total",
            self.verify_steps as u64,
        );
        obs.counter_add("magellan_simjoin_pairs_total", self.pairs as u64);
        obs.counter_add(
            "magellan_simjoin_probe_swaps_total",
            self.probe_swaps as u64,
        );
        obs.counter_add(
            "magellan_simjoin_killed_by_qgram_sig_total",
            self.killed_by_qgram_sig as u64,
        );
        obs.counter_add(
            "magellan_simjoin_qgram_sig_checked_total",
            self.qgram_sig_checked as u64,
        );
        obs.counter_add(
            "magellan_simjoin_delta_probes_total",
            self.delta_probes as u64,
        );
        obs.counter_add(
            "magellan_simjoin_delta_pairs_added_total",
            self.delta_pairs_added as u64,
        );
        obs.counter_add(
            "magellan_simjoin_delta_pairs_removed_total",
            self.delta_pairs_removed as u64,
        );
        obs.counter_add(
            "magellan_simjoin_tombstones_skipped_total",
            self.tombstones_skipped as u64,
        );
        obs.counter_add(
            "magellan_simjoin_tail_postings_scanned_total",
            self.tail_postings_scanned as u64,
        );
        obs.counter_add(
            "magellan_simjoin_compactions_total",
            self.compactions as u64,
        );
    }

    /// Fold another region's join counters into this one (all sums).
    pub fn merge(&mut self, other: &JoinStats) {
        self.probes += other.probes;
        self.candidates += other.candidates;
        self.killed_by_size += other.killed_by_size;
        self.killed_by_position += other.killed_by_position;
        self.killed_by_suffix += other.killed_by_suffix;
        self.verified += other.verified;
        self.verify_steps += other.verify_steps;
        self.pairs += other.pairs;
        self.probe_swaps += other.probe_swaps;
        self.killed_by_qgram_sig += other.killed_by_qgram_sig;
        self.qgram_sig_checked += other.qgram_sig_checked;
        self.delta_probes += other.delta_probes;
        self.delta_pairs_added += other.delta_pairs_added;
        self.delta_pairs_removed += other.delta_pairs_removed;
        self.tombstones_skipped += other.tombstones_skipped;
        self.tail_postings_scanned += other.tail_postings_scanned;
        self.compactions += other.compactions;
    }

    /// Fraction of *touched* candidates killed by the positional filter:
    /// small, the position-narrowed size window keeps most out untouched.
    pub fn position_kill_rate(&self) -> f64 {
        ratio(self.killed_by_position, self.candidates)
    }

    /// Fraction of generated candidates killed mid-verification by the
    /// bounded suffix merge: near 0 where the positional filter's bitmaps,
    /// which summarise the same remainders, already decided them.
    pub fn suffix_kill_rate(&self) -> f64 {
        ratio(self.killed_by_suffix, self.candidates)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl ParStats {
    /// Sum of per-worker busy time.
    pub fn busy_total(&self) -> Duration {
        self.worker_busy.iter().sum()
    }

    /// Items per second of wall-clock. Guarded against zero/degenerate
    /// durations: an instant (or merged-empty) region reports `0.0`,
    /// never `NaN` or `inf`.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 && secs.is_finite() {
            self.items as f64 / secs
        } else {
            0.0
        }
    }

    /// Parallel efficiency in `[0, 1]`: busy time ÷ (workers × wall-clock).
    /// Zero-duration or zero-worker regions report `0.0`, never `NaN`/`inf`.
    pub fn utilization(&self) -> f64 {
        let denom = self.n_workers as f64 * self.elapsed.as_secs_f64();
        if denom > 0.0 && denom.is_finite() {
            (self.busy_total().as_secs_f64() / denom).min(1.0)
        } else {
            0.0
        }
    }

    /// Publish this region's executor counters into the ambient
    /// `magellan-obs` registry under `magellan_par_*{phase="…"}` names.
    /// No-op when no recorder is installed. On a **pinned** (deterministic)
    /// recorder only scheduling-*independent* counters are published —
    /// steals, deaths, worker counts, and wall-clock depend on how the OS
    /// interleaved workers and would break the byte-identical-export
    /// contract. The struct itself keeps carrying everything, so reports
    /// and tests lose nothing.
    pub fn publish(&self, phase: &str) {
        let Some(obs) = magellan_obs::current() else {
            return;
        };
        let l = |name: &str| format!("magellan_par_{name}{{phase=\"{phase}\"}}");
        obs.counter_add(&l("items_total"), self.items as u64);
        obs.counter_add(&l("chunks_total"), self.chunks_total as u64);
        obs.counter_add(&l("panics_contained_total"), self.panics_contained as u64);
        obs.counter_add(&l("chunks_recovered_total"), self.chunks_recovered as u64);
        if !obs.is_pinned() {
            obs.counter_add(&l("chunks_stolen_total"), self.chunks_stolen as u64);
            obs.counter_add(&l("worker_deaths_total"), self.worker_deaths as u64);
            obs.gauge_set(&l("workers"), self.n_workers as f64);
            obs.gauge_set(&l("utilization"), self.utilization());
            obs.hist_record(&l("elapsed_us"), self.elapsed.as_micros() as u64);
        }
    }

    /// Fold another region's counters into this one (per-phase totals).
    pub fn merge(&mut self, other: &ParStats) {
        self.n_workers = self.n_workers.max(other.n_workers);
        self.items += other.items;
        self.chunks_total += other.chunks_total;
        self.chunks_stolen += other.chunks_stolen;
        self.panics_contained += other.panics_contained;
        self.chunks_recovered += other.chunks_recovered;
        self.worker_deaths += other.worker_deaths;
        if self.worker_busy.len() < other.worker_busy.len() {
            self.worker_busy
                .resize(other.worker_busy.len(), Duration::ZERO);
        }
        for (mine, theirs) in self.worker_busy.iter_mut().zip(&other.worker_busy) {
            *mine += *theirs;
        }
        self.elapsed += other.elapsed;
        self.cache.merge(&other.cache);
        self.join.merge(&other.join);
    }
}

#[derive(Default)]
struct WorkerLog {
    busy: Duration,
    stolen: usize,
    contained: usize,
    recovered: usize,
    died: bool,
}

/// The static-partition owner of chunk `c` — used only to count steals.
fn home_worker(chunk: usize, n_chunks: usize, n_workers: usize) -> usize {
    debug_assert!(chunk < n_chunks);
    chunk * n_workers / n_chunks
}

/// Map chunks of `0..len` through `f` on a work-stealing worker pool and
/// return the per-chunk outputs **in chunk order** plus region counters.
///
/// `f` must be a pure function of its index range for the determinism
/// contract to hold (see the crate docs). Panics inside `f` (and panics
/// injected via [`ParConfig::faults`]) are contained per chunk: the chunk
/// is retried in-worker, dead workers' chunks fall back to a serial
/// re-run on the calling thread, and only a chunk that *keeps* panicking
/// re-raises its original payload.
pub fn chunk_map<R, F>(len: usize, cfg: &ParConfig, f: F) -> (Vec<R>, ParStats)
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let t0 = Instant::now();
    let n_workers = cfg.n_workers.max(1);
    let chunk = cfg.effective_chunk_size(len);
    let n_chunks = len.div_ceil(chunk);
    let mut stats = ParStats {
        n_workers,
        items: len,
        chunks_total: n_chunks,
        worker_busy: vec![Duration::ZERO; n_workers],
        ..ParStats::default()
    };
    if len == 0 {
        stats.elapsed = t0.elapsed();
        return (Vec::new(), stats);
    }

    let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    // Capture the ambient recorder (and the caller's current span) once,
    // so worker threads can re-install it and parent their chunk spans
    // under the calling scope. `None` = observability disabled; the whole
    // region then costs exactly one thread-local read.
    let obs_parent: Option<(magellan_obs::Obs, Option<u64>)> =
        magellan_obs::current().map(|o| (o, magellan_obs::current_span()));

    // One fault-contained attempt at a chunk. Injection fires *before* the
    // chunk function runs, so a retried chunk recomputes `f` from scratch
    // and the recovered output is bit-identical.
    let run_attempt = |c: usize, attempt: u32, range: Range<usize>| -> std::thread::Result<R> {
        catch_unwind(AssertUnwindSafe(|| {
            if cfg.faults.injects(c as u64, attempt) {
                std::panic::panic_any(InjectedFault { chunk: c, attempt });
            }
            f(range)
        }))
    };

    let worker = |w: usize| -> WorkerLog {
        // Re-install the caller's recorder on this worker thread so chunk
        // spans parent under the caller's span (deterministic ids: the
        // span path never mentions the worker).
        let _obs_guard = obs_parent
            .as_ref()
            .map(|(obs, parent)| obs.install_under(*parent));
        let mut log = WorkerLog::default();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            if home_worker(c, n_chunks, n_workers) != w {
                log.stolen += 1;
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            let chunk_span = magellan_obs::span("chunk", c as u64);
            let t = Instant::now();
            let mut attempt = 0u32;
            let completed = loop {
                // Attempts after the first get their own nested span, so
                // the trace shows chunk → retry scopes.
                let retry_span =
                    (attempt > 0).then(|| magellan_obs::span("retry", u64::from(attempt)));
                match run_attempt(c, attempt, lo..hi) {
                    Ok(out) => {
                        drop(retry_span);
                        if attempt > 0 {
                            log.recovered += 1;
                            magellan_obs::event(
                                "chunk_recovered",
                                &[
                                    ("chunk", EvVal::U(c as u64)),
                                    ("attempts", EvVal::U(u64::from(attempt) + 1)),
                                ],
                            );
                        }
                        if let Ok(mut slot) = slots[c].lock() {
                            *slot = Some(out);
                        }
                        break true;
                    }
                    Err(payload) => {
                        drop(retry_span);
                        log.contained += 1;
                        let injected = payload.downcast_ref::<InjectedFault>().is_some();
                        magellan_obs::event(
                            if injected {
                                "fault_injected"
                            } else {
                                "panic_contained"
                            },
                            &[
                                ("chunk", EvVal::U(c as u64)),
                                ("attempt", EvVal::U(u64::from(attempt))),
                            ],
                        );
                        magellan_obs::flight_on_failure(
                            "panic_contained",
                            &[
                                ("chunk", EvVal::U(c as u64)),
                                ("attempt", EvVal::U(u64::from(attempt))),
                                ("injected", EvVal::U(u64::from(injected))),
                            ],
                        );
                        if attempt >= cfg.chunk_retries {
                            break false;
                        }
                        attempt += 1;
                        magellan_obs::event(
                            "retry_scheduled",
                            &[
                                ("chunk", EvVal::U(c as u64)),
                                ("attempt", EvVal::U(u64::from(attempt))),
                            ],
                        );
                    }
                }
            };
            log.busy += t.elapsed();
            drop(chunk_span);
            if !completed {
                // The worker dies: it abandons the claim loop, modelling a
                // crashed thread. Its unfinished chunk (and anything still
                // unclaimed if every worker dies) is picked up by the
                // serial fallback below.
                log.died = true;
                magellan_obs::event(
                    "worker_died",
                    &[
                        ("worker", EvVal::U(w as u64)),
                        ("chunk", EvVal::U(c as u64)),
                    ],
                );
                break;
            }
        }
        log
    };

    if n_workers == 1 {
        let log = worker(0);
        stats.worker_busy[0] = log.busy;
        stats.chunks_stolen = log.stolen;
        stats.panics_contained = log.contained;
        stats.chunks_recovered = log.recovered;
        stats.worker_deaths = usize::from(log.died);
    } else {
        let logs: Vec<Option<WorkerLog>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..n_workers)
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            let mut logs = vec![Some(worker(0))];
            for h in handles {
                // A join error would mean a panic escaped the containment
                // above; treat it as a worker death rather than crashing
                // the whole region.
                logs.push(h.join().ok());
            }
            logs
        });
        for (w, log) in logs.into_iter().enumerate() {
            match log {
                Some(log) => {
                    stats.worker_busy[w] = log.busy;
                    stats.chunks_stolen += log.stolen;
                    stats.panics_contained += log.contained;
                    stats.chunks_recovered += log.recovered;
                    stats.worker_deaths += usize::from(log.died);
                }
                None => stats.worker_deaths += 1,
            }
        }
    }

    // Serial fallback: re-run every chunk that never produced output
    // (abandoned by a dead worker, or never claimed because all workers
    // died). Fresh attempt numbers get past bounded injected faults; a
    // chunk that still panics carries a deterministic bug, and its final
    // payload is re-raised.
    let mut missing: Vec<usize> = Vec::new();
    for (c, slot) in slots.iter().enumerate() {
        let empty = matches!(slot.lock().as_deref(), Ok(None));
        if empty || slot.is_poisoned() {
            missing.push(c);
        }
    }
    if !missing.is_empty() {
        let t = Instant::now();
        // The fallback is the last line of defense, so it gets its own
        // fixed retry budget independent of (possibly zero) chunk_retries:
        // bounded injected faults always clear it, deterministic bugs
        // still escape after it.
        const FALLBACK_RETRIES: u32 = 8;
        for c in missing {
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            let first_fallback = cfg.chunk_retries + 1;
            let mut attempt = first_fallback;
            // A distinct span name keeps fallback re-runs from colliding
            // with the worker-side `chunk` span of the same index.
            let _fb_span = magellan_obs::span("chunk_fallback", c as u64);
            loop {
                let retry_span = (attempt > first_fallback)
                    .then(|| magellan_obs::span("retry", u64::from(attempt)));
                match run_attempt(c, attempt, lo..hi) {
                    Ok(out) => {
                        drop(retry_span);
                        stats.chunks_recovered += 1;
                        magellan_obs::event(
                            "chunk_recovered",
                            &[("chunk", EvVal::U(c as u64)), ("fallback", EvVal::U(1))],
                        );
                        if let Ok(mut slot) = slots[c].lock() {
                            *slot = Some(out);
                        }
                        break;
                    }
                    Err(payload) => {
                        drop(retry_span);
                        stats.panics_contained += 1;
                        let injected = payload.downcast_ref::<InjectedFault>().is_some();
                        magellan_obs::event(
                            if injected {
                                "fault_injected"
                            } else {
                                "panic_contained"
                            },
                            &[
                                ("chunk", EvVal::U(c as u64)),
                                ("attempt", EvVal::U(u64::from(attempt))),
                                ("fallback", EvVal::U(1)),
                            ],
                        );
                        if attempt >= first_fallback + FALLBACK_RETRIES.max(cfg.chunk_retries) {
                            // Persistent panic: a real bug, not a fault.
                            resume_unwind(payload);
                        }
                        attempt += 1;
                    }
                }
            }
        }
        stats.worker_busy[0] += t.elapsed();
    }

    let out: Vec<R> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or(None)
                .expect("serial fallback fills every chunk")
        })
        .collect();
    stats.elapsed = t0.elapsed();
    (out, stats)
}

/// Ordered parallel map over indices: `out[i] == f(i)` for all `i`,
/// regardless of worker count.
pub fn map_indexed<T, F>(len: usize, cfg: &ParConfig, f: F) -> (Vec<T>, ParStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (chunks, stats) = chunk_map(len, cfg, |range| range.map(&f).collect::<Vec<T>>());
    (chunks.into_iter().flatten().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn available_has_at_least_one_worker() {
        let cfg = ParConfig::available();
        assert!(cfg.n_workers >= 1);
        assert_eq!(cfg.chunk_size, None);
    }

    #[test]
    fn at_most_caps_the_workers_and_keeps_the_rest() {
        let cfg = ParConfig::workers(8).with_chunk_size(5);
        assert_eq!(cfg.at_most(0).n_workers, 1);
        assert_eq!(cfg.at_most(3).n_workers, 3);
        assert_eq!(cfg.at_most(20).n_workers, 8);
        assert_eq!(cfg.at_most(3).chunk_size, Some(5));
    }

    #[test]
    fn one_chunk_per_worker_unless_a_size_is_set() {
        let chunks = |cfg: ParConfig, len: usize| {
            let pool = cfg.one_chunk_per_worker(len);
            (
                pool.n_workers,
                map_indexed(len, &pool, |i| i).1.chunks_total,
            )
        };
        assert_eq!(chunks(ParConfig::workers(4), 10), (4, 4));
        assert_eq!(chunks(ParConfig::workers(4), 13), (4, 4));
        assert_eq!(chunks(ParConfig::workers(4), 2), (2, 2));
        assert_eq!(chunks(ParConfig::serial(), 15), (1, 1));
        assert_eq!(chunks(ParConfig::workers(4), 0), (1, 0));
        let pinned = ParConfig::workers(8).with_chunk_size(3);
        assert_eq!(pinned.one_chunk_per_worker(10), pinned);
    }

    #[test]
    fn map_indexed_is_identity_ordered_for_any_worker_count() {
        for n_workers in [1, 2, 3, 7, 16] {
            for len in [0, 1, 2, 5, 97, 1000] {
                let cfg = ParConfig::workers(n_workers);
                let (out, stats) = map_indexed(len, &cfg, |i| i * 3 + 1);
                assert_eq!(out, (0..len).map(|i| i * 3 + 1).collect::<Vec<_>>());
                assert_eq!(stats.items, len);
                assert_eq!(stats.n_workers, n_workers);
                if len > 0 {
                    assert_eq!(
                        stats.chunks_total,
                        len.div_ceil(cfg.effective_chunk_size(len))
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_sizes_that_do_not_divide_len_still_cover_everything() {
        for chunk in [1, 2, 3, 7, 100] {
            let cfg = ParConfig::workers(4).with_chunk_size(chunk);
            let (out, stats) = map_indexed(101, &cfg, |i| i);
            assert_eq!(out, (0..101).collect::<Vec<_>>());
            assert_eq!(stats.chunks_total, 101usize.div_ceil(chunk));
        }
    }

    #[test]
    fn every_index_visited_exactly_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        let cfg = ParConfig::workers(8).with_chunk_size(3);
        let (_, _) = map_indexed(500, &cfg, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stats_account_for_work() {
        let cfg = ParConfig::workers(4).with_chunk_size(8);
        let (_, stats) = map_indexed(256, &cfg, |i| {
            // A little real work so busy time registers.
            (0..200).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        });
        assert_eq!(stats.chunks_total, 32);
        assert_eq!(stats.worker_busy.len(), 4);
        assert!(stats.chunks_stolen <= stats.chunks_total);
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.utilization() <= 1.0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ParStats {
            n_workers: 2,
            items: 10,
            chunks_total: 5,
            chunks_stolen: 1,
            panics_contained: 2,
            chunks_recovered: 1,
            worker_deaths: 1,
            worker_busy: vec![Duration::from_millis(5), Duration::from_millis(3)],
            elapsed: Duration::from_millis(6),
            cache: CacheStats {
                records_prepared: 10,
                tokenize_calls: 10,
                tokenize_calls_saved: 90,
                lookups: 10,
                hits: 0,
                interner_tokens: 40,
            },
            join: JoinStats {
                probes: 10,
                candidates: 100,
                killed_by_size: 5,
                killed_by_position: 40,
                killed_by_suffix: 20,
                verified: 40,
                verify_steps: 400,
                pairs: 8,
                probe_swaps: 1,
                killed_by_qgram_sig: 6,
                qgram_sig_checked: 12,
                delta_probes: 4,
                delta_pairs_added: 3,
                delta_pairs_removed: 2,
                tombstones_skipped: 7,
                tail_postings_scanned: 9,
                compactions: 1,
            },
        };
        let b = ParStats {
            n_workers: 4,
            items: 6,
            chunks_total: 2,
            chunks_stolen: 0,
            panics_contained: 1,
            chunks_recovered: 1,
            worker_deaths: 0,
            worker_busy: vec![Duration::from_millis(1); 4],
            elapsed: Duration::from_millis(2),
            cache: CacheStats {
                records_prepared: 5,
                tokenize_calls: 5,
                tokenize_calls_saved: 15,
                lookups: 10,
                hits: 5,
                interner_tokens: 25,
            },
            join: JoinStats {
                probes: 5,
                candidates: 50,
                killed_by_size: 3,
                killed_by_position: 10,
                killed_by_suffix: 10,
                verified: 30,
                verify_steps: 100,
                pairs: 4,
                probe_swaps: 0,
                killed_by_qgram_sig: 2,
                qgram_sig_checked: 4,
                delta_probes: 1,
                delta_pairs_added: 1,
                delta_pairs_removed: 1,
                tombstones_skipped: 3,
                tail_postings_scanned: 1,
                compactions: 1,
            },
        };
        a.merge(&b);
        assert_eq!(a.n_workers, 4);
        assert_eq!(a.items, 16);
        assert_eq!(a.chunks_total, 7);
        assert_eq!(a.panics_contained, 3);
        assert_eq!(a.chunks_recovered, 2);
        assert_eq!(a.worker_deaths, 1);
        assert_eq!(a.worker_busy.len(), 4);
        assert_eq!(a.elapsed, Duration::from_millis(8));
        // Cache counters sum; the interner size is a high-water mark.
        assert_eq!(a.cache.records_prepared, 15);
        assert_eq!(a.cache.tokenize_calls_saved, 105);
        assert_eq!(a.cache.lookups, 20);
        assert_eq!(a.cache.hits, 5);
        assert_eq!(a.cache.interner_tokens, 40);
        assert!((a.cache.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Join counters sum across regions.
        assert_eq!(a.join.probes, 15);
        assert_eq!(a.join.candidates, 150);
        assert_eq!(a.join.killed_by_size, 8);
        assert_eq!(a.join.killed_by_position, 50);
        assert_eq!(a.join.killed_by_suffix, 30);
        assert_eq!(a.join.verified, 70);
        assert_eq!(a.join.verify_steps, 500);
        assert_eq!(a.join.pairs, 12);
        assert_eq!(a.join.probe_swaps, 1);
        assert_eq!(a.join.killed_by_qgram_sig, 8);
        assert_eq!(a.join.qgram_sig_checked, 16);
        assert_eq!(a.join.delta_probes, 5);
        assert_eq!(a.join.delta_pairs_added, 4);
        assert_eq!(a.join.delta_pairs_removed, 3);
        assert_eq!(a.join.tombstones_skipped, 10);
        assert_eq!(a.join.tail_postings_scanned, 10);
        assert_eq!(a.join.compactions, 2);
        assert!((a.join.position_kill_rate() - 50.0 / 150.0).abs() < 1e-12);
        assert!((a.join.suffix_kill_rate() - 0.2).abs() < 1e-12);
        assert_eq!(JoinStats::default().position_kill_rate(), 0.0);
    }

    #[test]
    fn serial_config_is_the_default() {
        assert_eq!(ParConfig::default(), ParConfig::serial());
        assert_eq!(ParConfig::workers(0).n_workers, 1);
        assert_eq!(ParConfig::serial().faults, ChunkFaults::none());
    }

    #[test]
    fn zero_duration_stats_report_finite_rates() {
        // Default (never-run) stats: no NaN/inf from the divides.
        let stats = ParStats::default();
        assert_eq!(stats.throughput(), 0.0);
        assert_eq!(stats.utilization(), 0.0);
        // Items without elapsed time (merged-empty regions).
        let stats = ParStats {
            n_workers: 4,
            items: 100,
            chunks_total: 10,
            worker_busy: vec![Duration::from_millis(1); 4],
            elapsed: Duration::ZERO,
            ..ParStats::default()
        };
        assert!(stats.throughput().is_finite());
        assert_eq!(stats.throughput(), 0.0);
        assert!(stats.utilization().is_finite());
        assert_eq!(stats.utilization(), 0.0);
        // Zero-worker stats (empty merge target) stay finite too.
        let stats = ParStats {
            items: 5,
            elapsed: Duration::from_millis(3),
            ..ParStats::default()
        };
        assert!(stats.utilization().is_finite());
        // The empty-input region itself.
        let (out, stats) = map_indexed(0, &ParConfig::workers(3), |i: usize| i);
        assert!(out.is_empty());
        assert!(stats.throughput().is_finite());
        assert!(stats.utilization().is_finite());
    }

    #[test]
    fn injected_chunk_panics_are_contained_and_output_identical() {
        silence_contained_panics();
        let reference: Vec<usize> = (0..500).map(|i| i * 3 + 1).collect();
        let faults = magellan_faults::FaultPlan::seeded(17).chunk_faults(1);
        assert!(faults.per_mille > 0);
        for n_workers in [1, 2, 4, 8] {
            let cfg = ParConfig::workers(n_workers)
                .with_chunk_size(7)
                .with_faults(faults);
            let (out, stats) = map_indexed(500, &cfg, |i| i * 3 + 1);
            assert_eq!(out, reference, "{n_workers} workers");
            assert!(
                stats.panics_contained > 0,
                "plan should fire at this rate ({n_workers} workers)"
            );
            assert!(stats.chunks_recovered > 0);
            assert!(stats.chunks_recovered <= stats.chunks_total);
        }
    }

    #[test]
    fn worker_death_falls_back_to_serial_and_recovers() {
        silence_contained_panics();
        // chunk_retries = 0: the first contained panic kills the worker,
        // forcing the dead-worker path and the serial fallback.
        let faults = magellan_faults::FaultPlan::seeded(23).chunk_faults(2);
        for n_workers in [1, 2, 4] {
            let mut cfg = ParConfig::workers(n_workers)
                .with_chunk_size(3)
                .with_faults(faults);
            cfg.chunk_retries = 0;
            let (out, stats) = map_indexed(300, &cfg, |i| i + 7);
            assert_eq!(out, (7..307).collect::<Vec<_>>(), "{n_workers} workers");
            assert!(stats.worker_deaths > 0, "{n_workers} workers: no deaths");
            assert!(stats.chunks_recovered > 0);
        }
    }

    #[test]
    fn genuine_transient_panic_in_chunk_fn_is_retried() {
        silence_contained_panics();
        // A chunk function that panics the first time each chunk is tried
        // (simulating a transient environment failure), then succeeds.
        let first_try: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        let cfg = ParConfig::workers(4).with_chunk_size(2);
        let (out, stats) = chunk_map(100, &cfg, |range| {
            let c = range.start / 2;
            if first_try[c].fetch_add(1, Ordering::Relaxed) == 0 {
                std::panic::panic_any(InjectedFault {
                    chunk: c,
                    attempt: 0,
                });
            }
            range.sum::<usize>()
        });
        let expected: Vec<usize> = (0..50).map(|c| 2 * c * 2 + 1).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.panics_contained, 50);
        assert_eq!(stats.chunks_recovered, 50);
        assert_eq!(stats.worker_deaths, 0);
    }

    #[test]
    #[should_panic(expected = "deterministic bug")]
    fn persistent_panics_escape_after_serial_fallback() {
        silence_contained_panics();
        let cfg = ParConfig::workers(2).with_chunk_size(5);
        let _ = map_indexed(20, &cfg, |i| {
            if i == 13 {
                panic!("deterministic bug");
            }
            i
        });
    }
}
