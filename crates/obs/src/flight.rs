//! The failure flight recorder: a bounded, deterministic post-mortem of
//! a run that noted at least one failure.
//!
//! Failures are *recorded* the moment they happen — [`crate::flight_on_failure`]
//! emits a canonical `flight_failure` event and bumps a counter — but the
//! dump itself is *written at run end* ([`Obs::flight_autodump`], called
//! from pipeline `finish` paths). Deferring the write makes the dump a
//! pure function of the final canonical snapshot: which spans had
//! completed at the instant of a mid-run failure depends on scheduling,
//! but the end-of-run snapshot does not. Under a pinned clock the dump
//! bytes are therefore identical at any worker count.
//!
//! The artifact is keyed by `(seed, worker count)` through the
//! `MAGELLAN_FLIGHT_DUMP` path template (`{seed}` / `{workers}`
//! placeholders); the seed also travels in the body, the worker count
//! deliberately does not — it would break cross-worker byte-identity.

use crate::snapshot::{json_str, json_val};
use crate::{ClockMode, MetricValue, Obs};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

/// Most recent spans (canonical order) carried in a flight dump.
pub const FLIGHT_SPANS: usize = 256;
/// Most recent events (canonical order) carried in a flight dump.
pub const FLIGHT_EVENTS: usize = 256;
/// Most recent `flight_failure` events listed in the dump's dedicated
/// failure section.
pub const FLIGHT_FAILURES: usize = 64;

impl Obs {
    /// Build the flight-recorder dump body: the last [`FLIGHT_SPANS`]
    /// spans and [`FLIGHT_EVENTS`] events of the canonical snapshot, the
    /// noted failures, and the metrics registry with counter values
    /// expressed as *deltas* since the previous dump (first dump: since
    /// recorder creation). Byte-deterministic under a pinned clock.
    pub fn flight_dump_json(&self) -> String {
        let snap = self.snapshot();
        let seed = self.inner.run_seed.load(Ordering::Relaxed);
        let clock = match snap.clock {
            ClockMode::Wall => "wall",
            ClockMode::Pinned => "pinned",
        };
        let mut out = String::from("{\"magellan_flight\":1");
        let _ = write!(out, ",\"clock\":\"{clock}\",\"seed\":{seed}");
        let _ = write!(out, ",\"failures\":{}", self.failure_count());
        let _ = write!(
            out,
            ",\"dropped_spans\":{},\"dropped_events\":{}",
            snap.dropped_spans, snap.dropped_events
        );

        // ---- dedicated failure section ------------------------------
        let fails: Vec<_> = snap.events_named("flight_failure");
        let tail = fails.len().saturating_sub(FLIGHT_FAILURES);
        out.push_str(",\"failure_events\":[");
        for (i, e) in fails[tail..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ns\":{},\"span\":{}", e.t_ns, e.span);
            for (k, v) in &e.fields {
                let _ = write!(out, ",{}:{}", json_str(k), json_val(v));
            }
            out.push('}');
        }
        out.push(']');

        // ---- recent spans (canonical-order tail) --------------------
        let tail = snap.spans.len().saturating_sub(FLIGHT_SPANS);
        out.push_str(",\"spans\":[");
        for (i, s) in snap.spans[tail..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"key\":{},\"depth\":{},\"start_ns\":{},\"end_ns\":{}",
                json_str(s.name),
                s.key,
                snap.depths[tail + i],
                s.start_ns,
                s.end_ns
            );
            if !s.res.is_empty() {
                out.push_str(",\"res\":{");
                for (j, (k, v)) in s.res.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{v}", json_str(k));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push(']');

        // ---- recent events (time-order tail) ------------------------
        let tail = snap.events.len().saturating_sub(FLIGHT_EVENTS);
        out.push_str(",\"events\":[");
        for (i, e) in snap.events[tail..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"name\":{},\"span\":{}",
                e.t_ns,
                json_str(e.name),
                e.span
            );
            for (k, v) in &e.fields {
                let _ = write!(out, ",{}:{}", json_str(k), json_val(v));
            }
            out.push('}');
        }
        out.push(']');

        // ---- metrics: counter deltas since last dump, gauges, hist --
        let mut last = self
            .inner
            .last_dump_counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        out.push_str(",\"metrics\":{");
        let mut first = true;
        for (name, v) in &snap.metrics {
            let item = match v {
                MetricValue::Counter(c) => {
                    let prev = last.get(name).copied().unwrap_or(0);
                    let delta = c.saturating_sub(prev);
                    format!("{}:{{\"total\":{c},\"delta\":{delta}}}", json_str(name))
                }
                MetricValue::Gauge(g) => {
                    format!("{}:{}", json_str(name), json_val(&crate::EvVal::F(*g)))
                }
                MetricValue::Histogram(h) => format!(
                    "{}:{{\"count\":{},\"sum\":{}}}",
                    json_str(name),
                    h.count,
                    h.sum
                ),
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&item);
        }
        out.push('}');
        // Remember counter levels so the *next* dump reports deltas.
        for (name, v) in &snap.metrics {
            if let MetricValue::Counter(c) = v {
                last.insert(name.clone(), *c);
            }
        }
        drop(last);

        out.push('}');
        out
    }

    /// Substitute `{seed}` / `{workers}` in `path_tmpl`, write the dump
    /// there, and return the resolved path.
    pub fn write_flight_dump(&self, path_tmpl: &str) -> std::io::Result<String> {
        let seed = self.inner.run_seed.load(Ordering::Relaxed);
        let workers = self.inner.run_workers.load(Ordering::Relaxed);
        let path = path_tmpl
            .replace("{seed}", &seed.to_string())
            .replace("{workers}", &workers.to_string());
        std::fs::write(&path, self.flight_dump_json())?;
        Ok(path)
    }

    /// Write the flight dump iff a failure was noted this run and the
    /// `MAGELLAN_FLIGHT_DUMP` template is set. Returns the path written.
    pub fn flight_autodump(&self) -> Option<String> {
        if self.failure_count() == 0 {
            return None;
        }
        let tmpl = crate::flight_dump_path()?;
        self.write_flight_dump(&tmpl).ok()
    }
}

#[cfg(test)]
mod tests {
    use crate::{event, flight_on_failure, span, span_res_add, EvVal, Obs};

    #[test]
    fn dump_carries_failures_spans_and_counter_deltas() {
        let obs = Obs::pinned();
        obs.set_run_context(42, 8);
        let _g = obs.install();
        {
            let _run = span("run", 0);
            obs.advance_ns(10);
            span_res_add("csr_index_bytes", 512);
            event("checkpoint_written", &[("bytes", EvVal::U(64))]);
            crate::counter_add("magellan_test_total", 5);
            flight_on_failure("panic_contained", &[("chunk", EvVal::U(3))]);
        }
        assert_eq!(obs.failure_count(), 1);
        let txt = obs.flight_dump_json();
        let parsed = crate::parse_json(&txt).expect("dump is valid JSON");
        assert_eq!(
            parsed.get("magellan_flight").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert_eq!(parsed.get("seed").and_then(|v| v.as_f64()), Some(42.0));
        assert!(
            parsed.get("workers").is_none(),
            "worker count must not enter the body (cross-worker byte-identity)"
        );
        assert_eq!(parsed.get("failures").and_then(|v| v.as_f64()), Some(1.0));
        let fails = parsed
            .get("failure_events")
            .and_then(|v| v.as_array())
            .unwrap();
        assert_eq!(fails.len(), 1);
        assert_eq!(
            fails[0].get("reason").and_then(|v| v.as_str()),
            Some("panic_contained")
        );
        let spans = parsed.get("spans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(spans.len(), 1);
        let res = spans[0].get("res").unwrap();
        assert_eq!(
            res.get("csr_index_bytes").and_then(|v| v.as_f64()),
            Some(512.0)
        );
        // Counter deltas reset between dumps.
        let metrics = parsed.get("metrics").unwrap();
        let c = metrics.get("magellan_test_total").unwrap();
        assert_eq!(c.get("delta").and_then(|v| v.as_f64()), Some(5.0));
        let _g2 = obs.install();
        crate::counter_add("magellan_test_total", 2);
        let txt2 = obs.flight_dump_json();
        let parsed2 = crate::parse_json(&txt2).unwrap();
        let c2 = parsed2
            .get("metrics")
            .and_then(|m| m.get("magellan_test_total"))
            .unwrap();
        assert_eq!(c2.get("total").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(c2.get("delta").and_then(|v| v.as_f64()), Some(2.0));
    }

    #[test]
    fn autodump_is_silent_without_failures() {
        let obs = Obs::pinned();
        assert!(obs.flight_autodump().is_none());
    }

    #[test]
    fn dump_path_substitutes_seed_and_workers() {
        let obs = Obs::pinned();
        obs.set_run_context(7, 4);
        obs.note_failure();
        let dir = std::env::temp_dir().join(format!("magellan_flight_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tmpl = dir.join("flight_s{seed}_w{workers}.json");
        let path = obs.write_flight_dump(tmpl.to_str().unwrap()).unwrap();
        assert!(path.ends_with("flight_s7_w4.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        crate::parse_json(&body).expect("written dump parses");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
