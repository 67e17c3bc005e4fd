//! The benchmark's own span recorder.
//!
//! Deliberately not `magellan-obs`: the instrument must not move when the
//! crates it measures are reworked. Spans are recorded around calls into
//! the crates' public functions, kept in memory, and written when the run
//! ends. A span's self time is its duration minus its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name prefix of root spans that measure a layer on its own, beside the
/// pass: they are part of the trace but not of the pass's time.
pub const EXTRA: &str = "extra.";

/// One recorded interval. `parent` is the span that was open when this one
/// started; spans of one traced replay share `pass`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub pass: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }
}

impl Tracer {
    /// Spans recorded from now on belong to replay number `pass`.
    pub fn begin_pass(&mut self, pass: u32) {
        debug_assert!(self.open.is_empty(), "begin_pass inside an open span");
        self.pass = pass;
    }

    /// Run `f` inside a span; `f` gets the tracer back to open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            pass: self.pass,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the part its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Seconds of self time per span name within one replay.
    pub fn self_seconds_by_name(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.pass == pass {
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// Seconds one replay spent in the pass itself: the inclusive time of
    /// its root spans, leaving out the [`EXTRA`] probes run beside it.
    pub fn pass_seconds(&self, pass: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.parent.is_none() && !s.name.starts_with(EXTRA))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The whole trace as a JSON array, one object per span, with the
    /// derived `self_ns` next to the recorded fields.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(self.self_ns())
            .map(|(s, own)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {parent}, \"pass\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                    s.id, s.pass, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}
