//! Canonical, deterministic snapshots and the two exporters.
//!
//! A snapshot merges every per-thread buffer into **tree order**: spans
//! are arranged as a forest by parent id, children sorted by
//! `(name, key, start_ns, end_ns, id)` — never by buffer lane or arrival
//! order, both of which are scheduling-dependent. Under a pinned clock
//! this makes the snapshot (and both exports) a pure function of what the
//! pipeline *did*, not of how the OS scheduled it.

use crate::{ClockMode, EvVal, EventRec, Histogram, MetricValue, SpanRec};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A merged, canonically-ordered view of a recorder at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Clock mode of the recorder that produced this snapshot.
    pub clock: ClockMode,
    /// Completed spans in canonical DFS (tree) order.
    pub spans: Vec<SpanRec>,
    /// Tree depth of each span in `spans` (roots are depth `1`).
    pub depths: Vec<u16>,
    /// Events sorted by `(t_ns, name, span, fields)`.
    pub events: Vec<EventRec>,
    /// The metrics registry (sorted by name).
    pub metrics: BTreeMap<String, MetricValue>,
    /// Spans discarded because a per-thread buffer was full.
    pub dropped_spans: usize,
    /// Events discarded because a per-thread buffer was full.
    pub dropped_events: usize,
}

impl Default for ObsSnapshot {
    /// An empty wall-mode snapshot — what a report carries when the run
    /// recorded nothing (e.g. reconstituted from a `Done` checkpoint).
    fn default() -> Self {
        ObsSnapshot::build(
            ClockMode::Wall,
            Vec::new(),
            Vec::new(),
            BTreeMap::new(),
            0,
            0,
        )
    }
}

fn span_sort_key(s: &SpanRec) -> (&'static str, u64, u64, u64, u64) {
    (s.name, s.key, s.start_ns, s.end_ns, s.id)
}

fn evval_key(v: &EvVal) -> (u8, u64, &'static str) {
    match v {
        EvVal::U(u) => (0, *u, ""),
        EvVal::F(f) => (1, f.to_bits(), ""),
        EvVal::S(s) => (2, 0, s),
    }
}

fn event_cmp(a: &EventRec, b: &EventRec) -> std::cmp::Ordering {
    (a.t_ns, a.name, a.span)
        .cmp(&(b.t_ns, b.name, b.span))
        .then_with(|| {
            let ka: Vec<_> = a.fields.iter().map(|(k, v)| (*k, evval_key(v))).collect();
            let kb: Vec<_> = b.fields.iter().map(|(k, v)| (*k, evval_key(v))).collect();
            ka.cmp(&kb)
        })
}

impl ObsSnapshot {
    pub(crate) fn build(
        clock: ClockMode,
        spans: Vec<SpanRec>,
        mut events: Vec<EventRec>,
        metrics: BTreeMap<String, MetricValue>,
        dropped_spans: usize,
        dropped_events: usize,
    ) -> Self {
        // ---- canonical forest order for spans -----------------------
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            // Orphans (parent never recorded — e.g. it fell off a full
            // buffer) and self-parents are grafted onto the root.
            let p = if s.parent != 0 && s.parent != s.id && ids.contains(&s.parent) {
                s.parent
            } else {
                0
            };
            children.entry(p).or_default().push(i);
        }
        for v in children.values_mut() {
            v.sort_by(|&a, &b| span_sort_key(&spans[a]).cmp(&span_sort_key(&spans[b])));
        }
        let mut order: Vec<usize> = Vec::with_capacity(spans.len());
        let mut depths: Vec<u16> = Vec::with_capacity(spans.len());
        let mut visited = vec![false; spans.len()];
        let mut stack: Vec<(usize, u16)> = children
            .get(&0)
            .map(|v| v.iter().rev().map(|&i| (i, 1)).collect())
            .unwrap_or_default();
        while let Some((i, d)) = stack.pop() {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            order.push(i);
            depths.push(d);
            if let Some(kids) = children.get(&spans[i].id) {
                for &k in kids.iter().rev() {
                    if !visited[k] {
                        stack.push((k, d.saturating_add(1)));
                    }
                }
            }
        }
        // Cycles (mutually-parented spans) are unreachable from the root;
        // append them deterministically as extra roots.
        let mut rest: Vec<usize> = (0..spans.len()).filter(|&i| !visited[i]).collect();
        rest.sort_by(|&a, &b| span_sort_key(&spans[a]).cmp(&span_sort_key(&spans[b])));
        for i in rest {
            order.push(i);
            depths.push(1);
        }
        let spans: Vec<SpanRec> = order.into_iter().map(|i| spans[i].clone()).collect();

        events.sort_by(event_cmp);

        ObsSnapshot {
            clock,
            spans,
            depths,
            events,
            metrics,
            dropped_spans,
            dropped_events,
        }
    }

    // ---- accessors ---------------------------------------------------

    /// Counter value by exact name (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Gauge value by exact name (`0.0` when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    /// Histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Maximum span nesting depth (roots are `1`; `0` = no spans).
    pub fn max_depth(&self) -> u16 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// All spans with the given name, in canonical order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// All events with the given name, in canonical order.
    pub fn events_named(&self, name: &str) -> Vec<&EventRec> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    // ---- Prometheus text exporter ------------------------------------

    /// Render the registry as Prometheus-style exposition text.
    ///
    /// Names may embed labels (`magellan_par_items_total{phase="blocking"}`);
    /// the `# TYPE` line uses the base name before the `{`. Histograms
    /// expand into cumulative `_bucket{le=…}`, `_sum`, and `_count` lines.
    /// Output is byte-deterministic: the registry is a sorted map and f64
    /// formatting goes through Rust's shortest-roundtrip `Display`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = "";
        for (name, v) in &self.metrics {
            let (base, labels) = match name.find('{') {
                Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
                None => (name.as_str(), ""),
            };
            let kind = match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base;
            }
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", fmt_f64(*g));
                }
                MetricValue::Histogram(h) => {
                    let sep = if labels.is_empty() { "" } else { "," };
                    let mut cum = 0u64;
                    for (k, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        let le = Histogram::bucket_le(k);
                        let _ = writeln!(out, "{base}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{base}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{base}_sum{{{labels}}} {}", h.sum);
                    let _ = writeln!(out, "{base}_count{{{labels}}} {}", h.count);
                }
            }
        }
        out
    }

    // ---- Chrome trace_event exporter ---------------------------------

    /// Render spans + events as Chrome `trace_event` JSON (open in
    /// Perfetto or `chrome://tracing`).
    ///
    /// * **Wall mode**: real microsecond timestamps, one `tid` per buffer
    ///   lane — a profiling view of what actually ran where.
    /// * **Pinned mode**: timestamps are synthesized from the canonical
    ///   tree by a DFS tick counter (entry/exit ticks), so nesting is
    ///   exact and the bytes are identical run-to-run; the simulated-ns
    ///   interval travels in `args`. Events render on `tid` 1 at their
    ///   simulated microsecond time.
    pub fn to_chrome_trace(&self) -> String {
        let n = self.spans.len();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, item: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(item);
        };

        // Span X events.
        let (ts, dur): (Vec<u64>, Vec<u64>) = match self.clock {
            ClockMode::Pinned => {
                // Synthetic entry/exit ticks from the canonical forest.
                let mut ts = vec![0u64; n];
                let mut dur = vec![0u64; n];
                let mut tick = 0u64;
                let mut open: Vec<usize> = Vec::new();
                for i in 0..n {
                    while let Some(&top) = open.last() {
                        if self.depths[top] >= self.depths[i] {
                            open.pop();
                            tick += 1;
                            dur[top] = tick - ts[top];
                        } else {
                            break;
                        }
                    }
                    tick += 1;
                    ts[i] = tick;
                    open.push(i);
                }
                while let Some(top) = open.pop() {
                    tick += 1;
                    dur[top] = tick - ts[top];
                }
                (ts, dur)
            }
            ClockMode::Wall => {
                let ts: Vec<u64> = self.spans.iter().map(|s| s.start_ns / 1_000).collect();
                let dur: Vec<u64> = self
                    .spans
                    .iter()
                    .map(|s| ((s.end_ns - s.start_ns) / 1_000).max(1))
                    .collect();
                (ts, dur)
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match self.clock {
                ClockMode::Pinned => 0,
                ClockMode::Wall => s.lane,
            };
            let item = format!(
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"key\":{},\"depth\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}}}",
                json_str(s.name),
                ts[i],
                dur[i],
                s.key,
                self.depths[i],
                s.start_ns,
                s.end_ns
            );
            push(&mut out, &mut first, &item);
        }

        // Instant events.
        for e in &self.events {
            let mut args = String::new();
            let _ = write!(args, "\"span\":{}", e.span);
            for (k, v) in &e.fields {
                let _ = write!(args, ",{}:{}", json_str(k), json_val(v));
            }
            let tid = match self.clock {
                ClockMode::Pinned => 1,
                ClockMode::Wall => 1,
            };
            let item = format!(
                "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{},\"args\":{{{args}}}}}",
                json_str(e.name),
                e.t_ns / 1_000,
            );
            push(&mut out, &mut first, &item);
        }

        out.push_str("]}");
        out
    }

    /// Write [`ObsSnapshot::to_chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

/// Deterministic f64 text (Rust shortest-roundtrip `Display`); guards the
/// non-finite values Prometheus text can't carry.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_owned()
        } else {
            "-Inf".to_owned()
        }
    } else {
        format!("{v}")
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_val(v: &EvVal) -> String {
    match v {
        EvVal::U(u) => format!("{u}"),
        EvVal::F(f) if f.is_finite() => format!("{f}"),
        EvVal::F(f) => json_str(&fmt_f64(*f)),
        EvVal::S(s) => json_str(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span_id;

    fn rec(parent: u64, name: &'static str, key: u64, t0: u64, t1: u64, lane: u32) -> SpanRec {
        SpanRec {
            id: span_id(parent, name, key),
            parent,
            name,
            key,
            start_ns: t0,
            end_ns: t1,
            lane,
            res: Vec::new(),
        }
    }

    #[test]
    fn canonical_order_ignores_arrival_and_lane() {
        let run = rec(0, "run", 0, 0, 100, 0);
        let c0 = rec(run.id, "chunk", 0, 1, 10, 2);
        let c1 = rec(run.id, "chunk", 1, 1, 10, 1);
        let m = std::collections::BTreeMap::new();
        let a = ObsSnapshot::build(
            ClockMode::Pinned,
            vec![c1.clone(), run.clone(), c0.clone()],
            vec![],
            m.clone(),
            0,
            0,
        );
        let b = ObsSnapshot::build(
            ClockMode::Pinned,
            vec![c0.clone(), c1.clone(), run.clone()],
            vec![],
            m,
            0,
            0,
        );
        let names: Vec<_> = a.spans.iter().map(|s| (s.name, s.key)).collect();
        assert_eq!(names, vec![("run", 0), ("chunk", 0), ("chunk", 1)]);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.depths, vec![1, 2, 2]);
        assert_eq!(a.max_depth(), 2);
        assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    }

    #[test]
    fn orphans_and_cycles_are_grafted_deterministically() {
        // Orphan: parent id never recorded.
        let orphan = rec(777, "lost", 3, 5, 6, 0);
        // Cycle: two spans that parent each other.
        let mut x = rec(0, "x", 0, 0, 1, 0);
        let mut y = rec(0, "y", 0, 0, 1, 0);
        x.parent = y.id;
        y.parent = x.id;
        let snap = ObsSnapshot::build(
            ClockMode::Pinned,
            vec![x, orphan, y],
            vec![],
            std::collections::BTreeMap::new(),
            0,
            0,
        );
        assert_eq!(snap.spans.len(), 3, "no span is silently lost");
        assert_eq!(
            snap.max_depth(),
            1,
            "cycle members are grafted as flat roots"
        );
        assert_eq!(snap.spans_named("lost").len(), 1);
    }

    #[test]
    fn prometheus_text_is_sorted_and_typed() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(
            "magellan_par_items_total{phase=\"blocking\"}".to_owned(),
            MetricValue::Counter(7),
        );
        m.insert(
            "magellan_par_items_total{phase=\"matching\"}".to_owned(),
            MetricValue::Counter(9),
        );
        m.insert("magellan_core_recall".to_owned(), MetricValue::Gauge(0.95));
        let mut h = Histogram::default();
        h.record(0);
        h.record(3);
        h.record(3);
        m.insert(
            "magellan_par_chunk_items".to_owned(),
            MetricValue::Histogram(h),
        );
        let snap = ObsSnapshot::build(ClockMode::Pinned, vec![], vec![], m, 0, 0);
        let txt = snap.to_prometheus();
        let expect = "\
# TYPE magellan_core_recall gauge
magellan_core_recall 0.95
# TYPE magellan_par_chunk_items histogram
magellan_par_chunk_items_bucket{le=\"0\"} 1
magellan_par_chunk_items_bucket{le=\"3\"} 3
magellan_par_chunk_items_bucket{le=\"+Inf\"} 3
magellan_par_chunk_items_sum{} 6
magellan_par_chunk_items_count{} 3
# TYPE magellan_par_items_total counter
magellan_par_items_total{phase=\"blocking\"} 7
magellan_par_items_total{phase=\"matching\"} 9
";
        assert_eq!(txt, expect);
    }

    #[test]
    fn chrome_trace_parses_and_nests() {
        let run = rec(0, "run", 0, 0, 100, 0);
        let phase = rec(run.id, "phase", 1, 0, 50, 0);
        let chunk = rec(phase.id, "chunk", 2, 0, 25, 1);
        let ev = EventRec {
            t_ns: 10,
            name: "fault_injected",
            span: chunk.id,
            fields: vec![("chunk", EvVal::U(2)), ("kind", EvVal::S("panic"))],
        };
        let snap = ObsSnapshot::build(
            ClockMode::Pinned,
            vec![chunk, run, phase],
            vec![ev],
            std::collections::BTreeMap::new(),
            0,
            0,
        );
        let txt = snap.to_chrome_trace();
        let parsed = crate::parse_json(&txt).expect("valid JSON");
        let evs = parsed
            .get("traceEvents")
            .and_then(|j| j.as_array())
            .expect("traceEvents array");
        assert_eq!(evs.len(), 4);
        // Child X interval strictly inside the parent's.
        let find = |name: &str| {
            evs.iter()
                .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .unwrap()
        };
        let (rts, rdur) = (
            find("run").get("ts").unwrap().as_f64().unwrap(),
            find("run").get("dur").unwrap().as_f64().unwrap(),
        );
        let (cts, cdur) = (
            find("chunk").get("ts").unwrap().as_f64().unwrap(),
            find("chunk").get("dur").unwrap().as_f64().unwrap(),
        );
        assert!(rts < cts && cts + cdur < rts + rdur);
        assert_eq!(snap.max_depth(), 3);
    }
}
