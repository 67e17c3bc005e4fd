//! # magellan-obs — the unified observability layer
//!
//! The paper's production stage (§4.1) and CloudMatcher's metamanager
//! (§5.1) live or die by operators being able to see *where* a
//! long-running EM workflow spends its time and *why* fragments retry,
//! degrade, or straggle. This crate is the one observable surface every
//! other Magellan crate reports into:
//!
//! * **spans** — thread-local span stacks with deterministic IDs
//!   (`id = mix(parent, name, key)`), nested `run → phase → chunk → retry`
//!   scopes, recorded into a bounded per-thread ring buffer and merged
//!   across workers in a canonical tree order at snapshot time;
//! * a **metrics registry** — named counters, gauges, and log₂-bucketed
//!   histograms with deterministic merge and snapshot, following the
//!   `magellan_<crate>_<name>` naming scheme;
//! * an **event log** for discrete occurrences (fault injected, retry
//!   scheduled, backoff slept, checkpoint written, fragment degraded,
//!   straggler speculated, worker died/recovered);
//! * two **exporters** — Prometheus-style text ([`ObsSnapshot::to_prometheus`])
//!   and Chrome `trace_event` JSON ([`ObsSnapshot::to_chrome_trace`])
//!   loadable in Perfetto / `chrome://tracing`.
//!
//! ## The recorder model
//!
//! An [`Obs`] recorder is an explicit, cheaply clonable handle (no global
//! singleton): tests and concurrent pipelines each own their recorder and
//! cannot pollute one another. A recorder becomes *ambient* on a thread
//! via [`Obs::install`]; library code then reports through the free
//! functions ([`span`], [`event`], [`counter_add`], …), all of which are
//! no-ops when nothing is installed — the disabled cost is a single
//! thread-local read. Worker pools propagate the ambient recorder into
//! their workers with [`Obs::install_under`], parenting worker-side spans
//! under the caller's span.
//!
//! ## The determinism contract
//!
//! With a **pinned clock** ([`Obs::pinned`]) all timestamps come from an
//! explicitly advanced simulated clock, span IDs are pure functions of
//! the span path, and snapshot merge order is canonical (tree order, not
//! scheduling order). Under the same conditions the rest of the stack
//! already guarantees (fixed chunk size, fault plans that stay under the
//! retry budget), **two runs at any worker count produce byte-identical
//! Prometheus and Chrome-trace exports** — enforced end to end by
//! `crates/core/tests/obs_determinism.rs`.
//!
//! ## Logging
//!
//! [`log!`] is the leveled logging macro gated by the `MAGELLAN_LOG`
//! environment variable (`error|warn|info|debug|trace|off`); library code
//! never writes to stdout unconditionally. See [`set_log_level`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod event;
mod flight;
mod json;
mod logging;
mod metrics;
mod profile;
mod snapshot;
mod span;

pub use event::{EvVal, EventRec};
pub use flight::{FLIGHT_EVENTS, FLIGHT_FAILURES, FLIGHT_SPANS};
pub use json::{parse as parse_json, Json};
pub use logging::{init_bin_logging, log_enabled, log_level, set_log_level, Level};
#[doc(hidden)]
pub use logging::__log_emit;
pub use metrics::{Histogram, MetricValue, N_BUCKETS};
pub use profile::{ObsProfile, ProfileNode};
pub use snapshot::ObsSnapshot;
pub use span::{SpanGuard, SpanRec};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Real wall-clock (nanoseconds since recorder creation). Useful for
    /// profiling; exports are *not* run-to-run reproducible.
    #[default]
    Wall,
    /// A simulated clock that only moves when explicitly advanced
    /// ([`Obs::set_time_ns`] / [`Obs::advance_ns`]). The basis of the
    /// byte-identical export contract.
    Pinned,
}

/// Default bound on buffered span records per thread registration.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;
/// Default bound on buffered event records per thread registration.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// SplitMix64's output function of `x` — the workspace's one stateless
/// 64-bit mixer. Span ids, fault decisions, shard assignment and the
/// seeded generators of the stream and service tiers all hang off these
/// bits, so they are pinned by known-answer tests.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`: stable across runs and platforms. The
/// workspace's small-key hash — span-name keys, tenant-name keys and
/// q-gram signatures. No file format checksums with it: every on-disk
/// format is framed and checksummed by `magellan_table::segment`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic span id: a pure function of `(parent, name, key)`.
pub fn span_id(parent: u64, name: &str, key: u64) -> u64 {
    let mut h = splitmix64(parent ^ fnv1a(name.as_bytes()));
    h = splitmix64(h ^ key);
    // Reserve 0 for "no parent".
    h.max(1)
}

/// One per-thread registration's bounded buffers.
pub(crate) struct ThreadBuf {
    /// Registration order (used as the Chrome-trace `tid` in wall mode).
    pub(crate) lane: u32,
    pub(crate) spans: Mutex<Vec<SpanRec>>,
    pub(crate) events: Mutex<Vec<EventRec>>,
    pub(crate) dropped_spans: AtomicUsize,
    pub(crate) dropped_events: AtomicUsize,
}

impl ThreadBuf {
    fn new(lane: u32) -> Self {
        ThreadBuf {
            lane,
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            dropped_spans: AtomicUsize::new(0),
            dropped_events: AtomicUsize::new(0),
        }
    }

    pub(crate) fn push_span(&self, rec: SpanRec, cap: usize) {
        match self.spans.lock() {
            Ok(mut v) if v.len() < cap => v.push(rec),
            Ok(_) => {
                self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    pub(crate) fn push_event(&self, rec: EventRec, cap: usize) {
        match self.events.lock() {
            Ok(mut v) if v.len() < cap => v.push(rec),
            Ok(_) => {
                self.dropped_events.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }
}

struct Inner {
    id: u64,
    mode: ClockMode,
    origin: Instant,
    pinned_ns: AtomicU64,
    span_capacity: usize,
    event_capacity: usize,
    bufs: Mutex<Vec<Arc<ThreadBuf>>>,
    metrics: Mutex<BTreeMap<String, MetricValue>>,
    /// Failures noted via [`flight_on_failure`]; a non-zero count makes
    /// [`flight_autodump`] write the flight-recorder artifact.
    failures: AtomicUsize,
    /// Run context for flight-dump artifact keying: `(seed, workers)`.
    run_seed: AtomicU64,
    run_workers: AtomicU64,
    /// Counter values at the previous flight dump, for per-dump deltas.
    last_dump_counters: Mutex<BTreeMap<String, u64>>,
}

/// A recorder handle. Cheap to clone (one `Arc`); all clones share the
/// same buffers, registry, and clock.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("id", &self.inner.id)
            .field("mode", &self.inner.mode)
            .finish()
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

impl Obs {
    fn with_mode(mode: ClockMode) -> Self {
        Obs {
            inner: Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                mode,
                origin: Instant::now(),
                pinned_ns: AtomicU64::new(0),
                span_capacity: DEFAULT_SPAN_CAPACITY,
                event_capacity: DEFAULT_EVENT_CAPACITY,
                bufs: Mutex::new(Vec::new()),
                metrics: Mutex::new(BTreeMap::new()),
                failures: AtomicUsize::new(0),
                run_seed: AtomicU64::new(0),
                run_workers: AtomicU64::new(0),
                last_dump_counters: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// A wall-clock recorder (profiling mode).
    pub fn wall() -> Self {
        Obs::with_mode(ClockMode::Wall)
    }

    /// A pinned-clock recorder (deterministic mode).
    pub fn pinned() -> Self {
        Obs::with_mode(ClockMode::Pinned)
    }

    /// Override the per-thread span ring-buffer capacity.
    pub fn with_span_capacity(mut self, cap: usize) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("set capacities before sharing the recorder")
            .span_capacity = cap.max(1);
        self
    }

    /// Override the per-thread event ring-buffer capacity.
    pub fn with_event_capacity(mut self, cap: usize) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("set capacities before sharing the recorder")
            .event_capacity = cap.max(1);
        self
    }

    /// This recorder's clock mode.
    pub fn clock(&self) -> ClockMode {
        self.inner.mode
    }

    /// True for pinned-clock (deterministic) recorders.
    pub fn is_pinned(&self) -> bool {
        self.inner.mode == ClockMode::Pinned
    }

    /// Current time in nanoseconds: wall-elapsed since creation, or the
    /// pinned clock's value.
    pub fn now_ns(&self) -> u64 {
        match self.inner.mode {
            ClockMode::Wall => self.inner.origin.elapsed().as_nanos() as u64,
            ClockMode::Pinned => self.inner.pinned_ns.load(Ordering::Relaxed),
        }
    }

    /// Set the pinned clock (no-op in wall mode). Only moves forward.
    pub fn set_time_ns(&self, ns: u64) {
        if self.inner.mode == ClockMode::Pinned {
            self.inner.pinned_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Advance the pinned clock by `ns` (no-op in wall mode).
    pub fn advance_ns(&self, ns: u64) {
        if self.inner.mode == ClockMode::Pinned {
            self.inner.pinned_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Advance the pinned clock by (non-negative, finite) seconds.
    pub fn advance_s(&self, s: f64) {
        if s > 0.0 && s.is_finite() {
            self.advance_ns((s * 1e9) as u64);
        }
    }

    fn register_thread_buf(&self) -> Arc<ThreadBuf> {
        let mut bufs = self.inner.bufs.lock().unwrap_or_else(|e| e.into_inner());
        let lane = bufs.len() as u32;
        let buf = Arc::new(ThreadBuf::new(lane));
        bufs.push(Arc::clone(&buf));
        buf
    }

    /// Make this recorder ambient on the current thread until the guard
    /// drops. Spans opened while installed nest under the thread's span
    /// stack; metrics and events route to this recorder.
    pub fn install(&self) -> InstallGuard {
        self.install_under(None)
    }

    /// [`Obs::install`] with an explicit parent span id — how worker
    /// pools parent worker-side spans under the caller's current span.
    pub fn install_under(&self, parent: Option<u64>) -> InstallGuard {
        let buf = self.register_thread_buf();
        CURRENT.with(|c| {
            c.borrow_mut().push(Ctx {
                obs: self.clone(),
                buf,
                stack: parent.into_iter().collect(),
                open_res: Vec::new(),
            })
        });
        InstallGuard { obs_id: self.inner.id }
    }

    /// Record the run context used to key flight-recorder artifacts:
    /// `{seed}` / `{workers}` placeholders in the `MAGELLAN_FLIGHT_DUMP`
    /// path are substituted with these values.
    pub fn set_run_context(&self, seed: u64, workers: u64) {
        self.inner.run_seed.store(seed, Ordering::Relaxed);
        self.inner.run_workers.store(workers, Ordering::Relaxed);
    }

    /// Note a failure worth a post-mortem. The flight recorder defers the
    /// actual dump to [`Obs::write_flight_dump`] (normally called at run
    /// end) so dump content stays a pure function of the canonical
    /// snapshot rather than of mid-run scheduling state.
    pub fn note_failure(&self) {
        self.inner.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of failures noted so far via [`Obs::note_failure`].
    pub fn failure_count(&self) -> usize {
        self.inner.failures.load(Ordering::Relaxed)
    }

    // ---- metrics ----------------------------------------------------

    /// Add `v` to the named counter (created at 0 on first use).
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut m = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.get_mut(name) {
            Some(MetricValue::Counter(c)) => *c = c.saturating_add(v),
            Some(_) => debug_assert!(false, "metric {name} is not a counter"),
            None => {
                m.insert(name.to_owned(), MetricValue::Counter(v));
            }
        }
    }

    /// Set the named gauge to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut m = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.get_mut(name) {
            Some(MetricValue::Gauge(g)) => *g = v,
            Some(_) => debug_assert!(false, "metric {name} is not a gauge"),
            None => {
                m.insert(name.to_owned(), MetricValue::Gauge(v));
            }
        }
    }

    /// Raise the named gauge to `v` if `v` is larger (monotonic
    /// max-gauge). The primitive behind peak/byte gauges — repeated runs
    /// in one process report the *high-water mark* instead of clobbering
    /// each other last-write-wins. NaN never wins.
    pub fn gauge_max(&self, name: &str, v: f64) {
        let mut m = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.get_mut(name) {
            Some(MetricValue::Gauge(g)) => *g = g.max(v),
            Some(_) => debug_assert!(false, "metric {name} is not a gauge"),
            None => {
                m.insert(name.to_owned(), MetricValue::Gauge(v));
            }
        }
    }

    /// Record `v` into the named log₂-bucketed histogram.
    pub fn hist_record(&self, name: &str, v: u64) {
        let mut m = self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h.record(v),
            Some(_) => debug_assert!(false, "metric {name} is not a histogram"),
            None => {
                let mut h = Histogram::default();
                h.record(v);
                m.insert(name.to_owned(), MetricValue::Histogram(h));
            }
        }
    }

    // ---- snapshot ---------------------------------------------------

    /// Merge every thread buffer and the registry into a canonical,
    /// deterministic [`ObsSnapshot`]. Non-destructive: buffers keep
    /// accumulating afterwards.
    pub fn snapshot(&self) -> ObsSnapshot {
        let bufs = self.inner.bufs.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans = Vec::new();
        let mut events = Vec::new();
        let mut dropped_spans = 0usize;
        let mut dropped_events = 0usize;
        for b in bufs.iter() {
            if let Ok(s) = b.spans.lock() {
                spans.extend(s.iter().cloned());
            }
            if let Ok(e) = b.events.lock() {
                events.extend(e.iter().cloned());
            }
            dropped_spans += b.dropped_spans.load(Ordering::Relaxed);
            dropped_events += b.dropped_events.load(Ordering::Relaxed);
        }
        drop(bufs);
        let metrics = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        ObsSnapshot::build(self.inner.mode, spans, events, metrics, dropped_spans, dropped_events)
    }
}

/// One installed recorder context on a thread.
struct Ctx {
    obs: Obs,
    buf: Arc<ThreadBuf>,
    /// Span-id stack; the bottom entry may be an explicit cross-thread
    /// parent installed via [`Obs::install_under`].
    stack: Vec<u64>,
    /// Resource attributions `(span_id, kind, bytes)` pending against
    /// spans still open on this thread; drained into [`SpanRec::res`]
    /// when the owning guard drops.
    open_res: Vec<(u64, &'static str, u64)>,
}

thread_local! {
    static CURRENT: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls its recorder from the thread on drop.
#[must_use = "the recorder is uninstalled when the guard drops"]
pub struct InstallGuard {
    obs_id: u64,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|ctx| ctx.obs.inner.id == self.obs_id) {
                stack.remove(pos);
            }
        });
    }
}

/// The recorder currently installed on this thread, if any.
pub fn current() -> Option<Obs> {
    CURRENT.with(|c| c.borrow().last().map(|ctx| ctx.obs.clone()))
}

/// The current thread's innermost open span id, if a recorder is
/// installed and a span is open (or an explicit parent was installed).
pub fn current_span() -> Option<u64> {
    CURRENT.with(|c| c.borrow().last().and_then(|ctx| ctx.stack.last().copied()))
}

/// Run `f` with the installed recorder context, if any.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut Ctx) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow_mut().last_mut().map(f))
}

pub(crate) fn with_ctx_of<R>(obs_id: u64, f: impl FnOnce(&mut Ctx) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        stack
            .iter_mut()
            .rev()
            .find(|ctx| ctx.obs.inner.id == obs_id)
            .map(f)
    })
}

impl Ctx {
    fn now_ns(&self) -> u64 {
        self.obs.now_ns()
    }
}

// ---- free-function instrumentation surface --------------------------

/// Open a span named `name` with disambiguating `key` under the current
/// span. Returns a guard that records the span when dropped. No-op (and
/// allocation-free) when no recorder is installed.
pub fn span(name: &'static str, key: u64) -> SpanGuard {
    span::open(name, key)
}

/// Record an already-timed span (e.g. a simulated-schedule fragment)
/// under `parent` (`None` = the current span). Returns the span id so
/// children can be recorded beneath it, or `None` when disabled.
pub fn record_span_at(
    parent: Option<u64>,
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
) -> Option<u64> {
    with_ctx(|ctx| {
        let parent = parent.or_else(|| ctx.stack.last().copied()).unwrap_or(0);
        let id = span_id(parent, name, key);
        let rec = SpanRec {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns: end_ns.max(start_ns),
            lane: ctx.buf.lane,
            res: Vec::new(),
        };
        ctx.buf.push_span(rec, ctx.obs.inner.span_capacity);
        id
    })
}

/// Record a discrete event at the current clock time, tagged with the
/// current span. No-op when no recorder is installed.
pub fn event(name: &'static str, fields: &[(&'static str, EvVal)]) {
    with_ctx(|ctx| {
        let t_ns = ctx.now_ns();
        let rec = EventRec {
            t_ns,
            name,
            span: ctx.stack.last().copied().unwrap_or(0),
            fields: fields.to_vec(),
        };
        ctx.buf.push_event(rec, ctx.obs.inner.event_capacity);
    });
}

/// [`event`] with an explicit timestamp (simulated-schedule timelines).
pub fn event_at(t_ns: u64, name: &'static str, fields: &[(&'static str, EvVal)]) {
    with_ctx(|ctx| {
        let rec = EventRec {
            t_ns,
            name,
            span: ctx.stack.last().copied().unwrap_or(0),
            fields: fields.to_vec(),
        };
        ctx.buf.push_event(rec, ctx.obs.inner.event_capacity);
    });
}

/// Add to a counter on the installed recorder (no-op when disabled).
pub fn counter_add(name: &str, v: u64) {
    if let Some(obs) = current() {
        obs.counter_add(name, v);
    }
}

/// Set a gauge on the installed recorder (no-op when disabled).
pub fn gauge_set(name: &str, v: f64) {
    if let Some(obs) = current() {
        obs.gauge_set(name, v);
    }
}

/// Raise a gauge monotonically on the installed recorder (no-op when
/// disabled). See [`Obs::gauge_max`].
pub fn gauge_max(name: &str, v: f64) {
    if let Some(obs) = current() {
        obs.gauge_max(name, v);
    }
}

/// Attribute `bytes` of resource `kind` (e.g. `"csr_index_bytes"`,
/// `"shard_index_bytes"`) to the current thread's innermost open span.
/// Repeated attributions of the same kind sum. No-op when no recorder is
/// installed or no span is open.
pub fn span_res_add(kind: &'static str, bytes: u64) {
    with_ctx(|ctx| {
        if let Some(&id) = ctx.stack.last() {
            ctx.open_res.push((id, kind, bytes));
        }
    });
}

/// Record run context (`seed`, `workers`) on the installed recorder for
/// flight-dump artifact keying. No-op when disabled.
pub fn set_run_context(seed: u64, workers: u64) {
    if let Some(obs) = current() {
        obs.set_run_context(seed, workers);
    }
}

/// Note a failure on the installed recorder and emit a canonical
/// `flight_failure` event carrying `reason` plus the caller's fields.
/// The flight recorder writes its dump at run end ([`flight_autodump`])
/// iff at least one failure was noted. No-op when disabled.
pub fn flight_on_failure(reason: &'static str, fields: &[(&'static str, EvVal)]) {
    if let Some(obs) = current() {
        obs.note_failure();
        let mut all: Vec<(&'static str, EvVal)> = Vec::with_capacity(fields.len() + 1);
        all.push(("reason", EvVal::S(reason)));
        all.extend(fields.iter().cloned());
        event("flight_failure", &all);
        obs.counter_add("magellan_obs_flight_failures_total", 1);
    }
}

/// Write the flight-recorder dump for the installed recorder if any
/// failure was noted this run and `MAGELLAN_FLIGHT_DUMP` is set.
/// Call at the end of a run (pipelines call it from their `finish`
/// path). Returns the path written, if any.
pub fn flight_autodump() -> Option<String> {
    let obs = current()?;
    obs.flight_autodump()
}

/// Record into a histogram on the installed recorder (no-op when disabled).
pub fn hist_record(name: &str, v: u64) {
    if let Some(obs) = current() {
        obs.hist_record(name, v);
    }
}

/// Record a backoff sleep of `delay_s` simulated seconds: emits the
/// `backoff_slept` event and advances a pinned recorder's clock so the
/// deterministic timeline shows the sleep. Call *after* advancing the
/// executor's own `SimClock`.
pub fn on_backoff(delay_s: f64) {
    if let Some(obs) = current() {
        obs.advance_s(delay_s);
        event("backoff_slept", &[("seconds", EvVal::F(delay_s))]);
    }
}

/// The Chrome-trace export path requested via the `MAGELLAN_TRACE`
/// environment variable, if set and non-empty.
pub fn trace_export_path() -> Option<String> {
    match std::env::var("MAGELLAN_TRACE") {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

/// The profile export path requested via the `MAGELLAN_PROFILE`
/// environment variable, if set and non-empty. A `.json` extension
/// selects the JSON profile; anything else gets the collapsed-stack
/// (flamegraph folded) format.
pub fn profile_export_path() -> Option<String> {
    match std::env::var("MAGELLAN_PROFILE") {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

/// The flight-dump path template requested via the
/// `MAGELLAN_FLIGHT_DUMP` environment variable, if set and non-empty.
/// May contain `{seed}` / `{workers}` placeholders — see
/// [`Obs::write_flight_dump`].
pub fn flight_dump_path() -> Option<String> {
    match std::env::var("MAGELLAN_FLIGHT_DUMP") {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_surface_is_a_no_op() {
        assert!(current().is_none());
        assert!(current_span().is_none());
        {
            let _s = span("orphan", 1);
            assert!(current_span().is_none());
        }
        event("nothing", &[]);
        counter_add("magellan_obs_nothing_total", 1);
        gauge_set("magellan_obs_nothing", 1.0);
        hist_record("magellan_obs_nothing_hist", 1);
        on_backoff(1.0);
        assert!(record_span_at(None, "x", 0, 0, 1).is_none());
    }

    #[test]
    fn install_scopes_recording_to_the_thread() {
        let obs = Obs::pinned();
        {
            let _g = obs.install();
            assert!(current().is_some());
            let _s = span("run", 0);
            assert_eq!(current_span(), Some(span_id(0, "run", 0)));
            counter_add("magellan_obs_test_total", 2);
        }
        assert!(current().is_none());
        let snap = obs.snapshot();
        assert_eq!(snap.counter("magellan_obs_test_total"), 2);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "run");
    }

    #[test]
    fn nested_installs_restore_the_outer_recorder() {
        let a = Obs::pinned();
        let b = Obs::pinned();
        let _ga = a.install();
        {
            let _gb = b.install();
            counter_add("magellan_obs_inner_total", 1);
        }
        counter_add("magellan_obs_outer_total", 1);
        assert_eq!(b.snapshot().counter("magellan_obs_inner_total"), 1);
        assert_eq!(a.snapshot().counter("magellan_obs_inner_total"), 0);
        assert_eq!(a.snapshot().counter("magellan_obs_outer_total"), 1);
    }

    #[test]
    fn gauge_max_is_monotonic_where_gauge_set_clobbers() {
        let obs = Obs::pinned();
        let _g = obs.install();
        // Two joins publish their peaks; the smaller, later one must not
        // clobber the high-water mark.
        gauge_max("magellan_simjoin_shard_peak_index_bytes", 4096.0);
        gauge_max("magellan_simjoin_shard_peak_index_bytes", 512.0);
        assert_eq!(
            obs.snapshot().gauge("magellan_simjoin_shard_peak_index_bytes"),
            4096.0
        );
        gauge_max("magellan_simjoin_shard_peak_index_bytes", 8192.0);
        gauge_max("magellan_simjoin_shard_peak_index_bytes", f64::NAN);
        assert_eq!(
            obs.snapshot().gauge("magellan_simjoin_shard_peak_index_bytes"),
            8192.0,
            "NaN never wins"
        );
        // Contrast: gauge_set stays last-write-wins.
        gauge_set("magellan_obs_lww", 10.0);
        gauge_set("magellan_obs_lww", 1.0);
        assert_eq!(obs.snapshot().gauge("magellan_obs_lww"), 1.0);
    }

    #[test]
    fn span_res_attribution_sums_per_kind_and_sorts() {
        let obs = Obs::pinned();
        let _g = obs.install();
        {
            let _s = span("shard_build", 0);
            span_res_add("shard_index_bytes", 100);
            span_res_add("csr_index_bytes", 7);
            span_res_add("shard_index_bytes", 28);
        }
        span_res_add("orphan_bytes", 1); // no open span: dropped
        let snap = obs.snapshot();
        assert_eq!(
            snap.spans[0].res,
            vec![("csr_index_bytes", 7), ("shard_index_bytes", 128)]
        );
    }

    #[test]
    fn pinned_clock_moves_only_when_advanced() {
        let obs = Obs::pinned();
        assert_eq!(obs.now_ns(), 0);
        obs.advance_s(1.5);
        assert_eq!(obs.now_ns(), 1_500_000_000);
        obs.advance_s(-3.0);
        obs.advance_s(f64::NAN);
        assert_eq!(obs.now_ns(), 1_500_000_000);
        obs.set_time_ns(1_000); // never moves backwards
        assert_eq!(obs.now_ns(), 1_500_000_000);
        obs.set_time_ns(2_000_000_000);
        assert_eq!(obs.now_ns(), 2_000_000_000);
    }

    #[test]
    fn hash_known_answers() {
        // FNV-1a's offset basis and the reference vector for "a".
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        // The first two outputs of the reference SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(0x9E3779B97F4A7C15), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn span_ids_are_deterministic_and_path_sensitive() {
        let a = span_id(0, "run", 0);
        assert_eq!(a, span_id(0, "run", 0));
        assert_ne!(a, span_id(0, "run", 1));
        assert_ne!(a, span_id(0, "phase", 0));
        assert_ne!(a, span_id(a, "run", 0));
        assert_ne!(span_id(0, "run", 0), 0, "0 is reserved for no-parent");
    }

    #[test]
    fn ring_buffer_bounds_are_enforced() {
        let obs = Obs::pinned().with_span_capacity(4).with_event_capacity(2);
        let _g = obs.install();
        for i in 0..10 {
            let _s = span("chunk", i);
            event("tick", &[("i", EvVal::U(i))]);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped_spans, 6);
        assert_eq!(snap.dropped_events, 8);
    }

    #[test]
    fn install_under_parents_cross_thread_spans() {
        let obs = Obs::pinned();
        let _g = obs.install();
        let root = span("run", 7);
        let parent = current_span();
        assert!(parent.is_some());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = obs.install_under(parent);
                let _c = span("chunk", 3);
            });
        });
        drop(root);
        let snap = obs.snapshot();
        let chunk = snap.spans.iter().find(|r| r.name == "chunk").unwrap();
        assert_eq!(chunk.parent, span_id(0, "run", 7));
        assert_eq!(snap.max_depth(), 2, "run -> chunk");
    }
}
