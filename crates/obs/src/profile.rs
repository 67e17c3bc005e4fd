//! The deterministic profiling tier: aggregate a canonical snapshot's
//! span forest by *name path* into an [`ObsProfile`] tree carrying
//! cumulative invocation counts, total vs. self time, and summed
//! resource attribution — then export it as collapsed-stack text
//! (flamegraph `folded` format) or JSON.
//!
//! Self-time is attributed per span *instance*: each instance's self
//! time is its duration minus the summed durations of its direct
//! children, computed over the snapshot's canonical DFS order, then
//! accumulated into the aggregated node. Because the input order is
//! canonical (never scheduling order) and a pinned clock makes every
//! duration reproducible, both exports are byte-identical run-to-run at
//! any worker count — the same contract the Chrome-trace exporter keeps.

use crate::{ClockMode, ObsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One aggregated node in the profile tree: every span instance that
/// shares this node's name *path* (root name, …, this name) folds into
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name at this path position.
    pub name: &'static str,
    /// Cumulative invocation count (span instances folded in).
    pub calls: u64,
    /// Summed wall/pinned duration of all instances (ns).
    pub total_ns: u64,
    /// Summed duration *not* covered by direct children (ns).
    pub self_ns: u64,
    /// Resource attribution summed across instances, by kind.
    pub res: BTreeMap<&'static str, u64>,
    /// Child nodes sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Child node by name, if present.
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A canonical-ordered profile tree aggregated from one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsProfile {
    /// Clock mode of the snapshot this profile was built from.
    pub clock: ClockMode,
    /// Root nodes sorted by name.
    pub roots: Vec<ProfileNode>,
    /// Spans the recorder discarded (bounded buffers) — the profile is
    /// missing their time.
    pub dropped_spans: usize,
}

struct Builder {
    name: &'static str,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    res: BTreeMap<&'static str, u64>,
    children: BTreeMap<&'static str, usize>,
}

impl ObsProfile {
    /// Aggregate `snap`'s canonical span forest by name path.
    pub fn from_snapshot(snap: &ObsSnapshot) -> Self {
        let mut arena: Vec<Builder> = Vec::new();
        let mut roots: BTreeMap<&'static str, usize> = BTreeMap::new();
        // Open instance stack: (depth, arena idx, duration, child dur sum).
        let mut open: Vec<(u16, usize, u64, u64)> = Vec::new();
        let close = |open: &mut Vec<(u16, usize, u64, u64)>, arena: &mut Vec<Builder>| {
            if let Some((_, idx, dur, child_sum)) = open.pop() {
                arena[idx].self_ns = arena[idx]
                    .self_ns
                    .saturating_add(dur.saturating_sub(child_sum));
                if let Some(top) = open.last_mut() {
                    top.3 = top.3.saturating_add(dur);
                }
            }
        };
        for (i, s) in snap.spans.iter().enumerate() {
            let d = snap.depths[i];
            while open.last().is_some_and(|&(od, ..)| od >= d) {
                close(&mut open, &mut arena);
            }
            let parent = open.last().map(|&(_, pidx, ..)| pidx);
            let existing = match parent {
                Some(p) => arena[p].children.get(s.name).copied(),
                None => roots.get(s.name).copied(),
            };
            let idx = match existing {
                Some(idx) => idx,
                None => {
                    let idx = arena.len();
                    arena.push(Builder {
                        name: s.name,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                        res: BTreeMap::new(),
                        children: BTreeMap::new(),
                    });
                    match parent {
                        Some(p) => arena[p].children.insert(s.name, idx),
                        None => roots.insert(s.name, idx),
                    };
                    idx
                }
            };
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let b = &mut arena[idx];
            b.calls += 1;
            b.total_ns = b.total_ns.saturating_add(dur);
            for &(kind, bytes) in &s.res {
                let slot = b.res.entry(kind).or_insert(0);
                *slot = slot.saturating_add(bytes);
            }
            open.push((d, idx, dur, 0));
        }
        while !open.is_empty() {
            close(&mut open, &mut arena);
        }

        fn freeze(arena: &[Builder], children: &BTreeMap<&'static str, usize>) -> Vec<ProfileNode> {
            children
                .values()
                .map(|&idx| {
                    let b = &arena[idx];
                    ProfileNode {
                        name: b.name,
                        calls: b.calls,
                        total_ns: b.total_ns,
                        self_ns: b.self_ns,
                        res: b.res.clone(),
                        children: freeze(arena, &b.children),
                    }
                })
                .collect()
        }
        ObsProfile {
            clock: snap.clock,
            roots: freeze(&arena, &roots),
            dropped_spans: snap.dropped_spans,
        }
    }

    /// Node at the given name path, if present.
    pub fn node(&self, path: &[&str]) -> Option<&ProfileNode> {
        let (first, rest) = path.split_first()?;
        let mut cur = self.roots.iter().find(|n| n.name == *first)?;
        for name in rest {
            cur = cur.child(name)?;
        }
        Some(cur)
    }

    /// Collapsed-stack ("folded") export: one line per name path,
    /// `root;child;leaf self_ns`, in canonical (sorted) DFS order —
    /// ready for `flamegraph.pl` / `inferno`.
    pub fn to_collapsed(&self) -> String {
        fn walk(out: &mut String, prefix: &str, node: &ProfileNode) {
            let path = if prefix.is_empty() {
                node.name.to_owned()
            } else {
                format!("{prefix};{}", node.name)
            };
            let _ = writeln!(out, "{path} {}", node.self_ns);
            for c in &node.children {
                walk(out, &path, c);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(&mut out, "", r);
        }
        out
    }

    /// JSON export: the full tree with calls, total/self time, and
    /// resource attribution per node. Byte-deterministic (sorted maps,
    /// integer fields only).
    pub fn to_json(&self) -> String {
        fn node_json(out: &mut String, node: &ProfileNode) {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}",
                node.name, node.calls, node.total_ns, node.self_ns
            );
            if !node.res.is_empty() {
                out.push_str(",\"res\":{");
                for (i, (k, v)) in node.res.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            if !node.children.is_empty() {
                out.push_str(",\"children\":[");
                for (i, c) in node.children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    node_json(out, c);
                }
                out.push(']');
            }
            out.push('}');
        }
        let clock = match self.clock {
            ClockMode::Wall => "wall",
            ClockMode::Pinned => "pinned",
        };
        let mut out = format!(
            "{{\"clock\":\"{clock}\",\"dropped_spans\":{},\"roots\":[",
            self.dropped_spans
        );
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node_json(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// Write the profile to `path`: `.json` selects [`ObsProfile::to_json`],
    /// anything else the collapsed-stack format.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let body = if path.ends_with(".json") {
            self.to_json()
        } else {
            self.to_collapsed()
        };
        std::fs::write(path, body)
    }
}

impl ObsSnapshot {
    /// Aggregate this snapshot into an [`ObsProfile`].
    pub fn profile(&self) -> ObsProfile {
        ObsProfile::from_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span_id, SpanRec};

    fn rec(parent: u64, name: &'static str, key: u64, t0: u64, t1: u64) -> SpanRec {
        SpanRec {
            id: span_id(parent, name, key),
            parent,
            name,
            key,
            start_ns: t0,
            end_ns: t1,
            lane: 0,
            res: Vec::new(),
        }
    }

    fn sample() -> ObsSnapshot {
        let run = rec(0, "run", 0, 0, 100);
        let mut p0 = rec(run.id, "phase", 0, 0, 60);
        p0.res.push(("csr_index_bytes", 1_000));
        let p1 = rec(run.id, "phase", 1, 60, 90);
        let c0 = rec(p0.id, "chunk", 0, 0, 20);
        let c1 = rec(p0.id, "chunk", 1, 20, 45);
        let c2 = rec(p1.id, "chunk", 0, 60, 70);
        ObsSnapshot::build(
            ClockMode::Pinned,
            vec![c2, p1, c0, run, c1, p0],
            vec![],
            std::collections::BTreeMap::new(),
            0,
            0,
        )
    }

    #[test]
    fn self_time_and_calls_aggregate_by_name_path() {
        let prof = sample().profile();
        let run = prof.node(&["run"]).unwrap();
        assert_eq!(run.calls, 1);
        assert_eq!(run.total_ns, 100);
        // run covers 100ns; its direct children (two phases) cover 60+30.
        assert_eq!(run.self_ns, 10);
        let phase = prof.node(&["run", "phase"]).unwrap();
        assert_eq!(phase.calls, 2);
        assert_eq!(phase.total_ns, 90);
        // phase0 self = 60-(20+25)=15, phase1 self = 30-10=20.
        assert_eq!(phase.self_ns, 35);
        assert_eq!(phase.res.get("csr_index_bytes"), Some(&1_000));
        let chunk = prof.node(&["run", "phase", "chunk"]).unwrap();
        assert_eq!(chunk.calls, 3);
        assert_eq!(chunk.total_ns, 55);
        assert_eq!(chunk.self_ns, 55, "leaves keep all their time");
    }

    #[test]
    fn collapsed_export_is_canonical() {
        let prof = sample().profile();
        assert_eq!(
            prof.to_collapsed(),
            "run 10\nrun;phase 35\nrun;phase;chunk 55\n"
        );
    }

    #[test]
    fn json_export_parses_and_carries_res() {
        let prof = sample().profile();
        let txt = prof.to_json();
        let parsed = crate::parse_json(&txt).expect("valid JSON");
        assert_eq!(parsed.get("clock").and_then(|c| c.as_str()), Some("pinned"));
        let roots = parsed.get("roots").and_then(|r| r.as_array()).unwrap();
        assert_eq!(roots.len(), 1);
        let total = roots[0].get("total_ns").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn self_time_never_goes_negative_on_overlapping_children() {
        // A child recorded *longer* than its parent (clock skew between
        // lanes in wall mode) must saturate, not underflow.
        let run = rec(0, "run", 0, 0, 10);
        let over = rec(run.id, "chunk", 0, 0, 50);
        let snap = ObsSnapshot::build(
            ClockMode::Wall,
            vec![run, over],
            vec![],
            std::collections::BTreeMap::new(),
            0,
            0,
        );
        let prof = snap.profile();
        assert_eq!(prof.node(&["run"]).unwrap().self_ns, 0);
    }
}
