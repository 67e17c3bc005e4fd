//! The bench-regression observatory.
//!
//! Every `exp_*` binary emits a `BENCH_<name>.json` summary; the repo
//! checks in one baseline per experiment. This module turns the prose
//! performance floors of ROADMAP.md (simjoin ≥2×, feature cache ≥3×,
//! incremental ≥10×, emtbl scan ≥2×, obs overhead <50%) into a
//! machine-enforced gate:
//!
//! * **floors** — every metric in [`registry`] with a `bound` must meet
//!   it in the checked-in baseline (`check-baselines`, run in CI);
//! * **regressions** — a fresh run compared against the baseline must
//!   not regress any registered metric beyond its direction-aware
//!   relative tolerance (`check`, run locally after regenerating);
//! * **history** — every recorded run appends one compacted JSON line to
//!   `results/history/<experiment>.jsonl`, so the perf trajectory across
//!   PRs is queryable instead of being overwritten in place.
//!
//! JSON parsing rides on `magellan_obs::parse_json` — no external
//! dependency, same parser the trace validators use.

use magellan_obs::{parse_json, Json};
use std::fmt::Write as _;
use std::path::Path;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (speedups, throughput).
    HigherIsBetter,
    /// Smaller is better (overhead, latency, pause times).
    LowerIsBetter,
}

/// One gated metric: where it lives, which way is better, how much
/// relative movement the gate tolerates, and an optional hard bound
/// (minimum for higher-is-better, maximum for lower-is-better).
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// The `experiment` field of the owning BENCH file.
    pub experiment: &'static str,
    /// Dotted path into the JSON; numeric segments index arrays
    /// (`"results.0.speedup"`, `"scan.speedup"`).
    pub path: &'static str,
    /// Which way is better.
    pub direction: Direction,
    /// Allowed relative regression vs. the baseline (0.35 = 35%).
    pub rel_tol: f64,
    /// Hard bound enforced on every run *and* on the checked-in
    /// baseline itself — the ROADMAP floors, machine-enforced.
    pub bound: Option<f64>,
}

/// One gate failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Metric that failed.
    pub path: String,
    /// What went wrong, human-readable.
    pub message: String,
}

/// The registered gates, one entry per metric. Floors mirror ROADMAP.md;
/// tolerances are deliberately loose (perf is machine-dependent — the
/// gate catches rot, not noise).
pub fn registry() -> Vec<MetricSpec> {
    use Direction::*;
    let m = |experiment, path, direction, rel_tol, bound| MetricSpec {
        experiment,
        path,
        direction,
        rel_tol,
        bound,
    };
    vec![
        // simjoin: CSR prefix join ≥2× over the hashmap join at w=1.
        m(
            "simjoin",
            "skewed_speedup_w1",
            HigherIsBetter,
            0.35,
            Some(2.0),
        ),
        // token path: collection build ≥1.5× over the preserved
        // String-per-token, HashMap-ranked build.
        m(
            "simjoin",
            "tokenize_collection.speedup_vs_legacy",
            HigherIsBetter,
            0.35,
            Some(1.5),
        ),
        // top-k join ≥2× over the threshold join + sort + truncate it is
        // defined as (Falcon's pair-sampling query).
        m(
            "simjoin",
            "topk.speedup_vs_sort_and_take",
            HigherIsBetter,
            0.35,
            Some(2.0),
        ),
        // position-aware size window: records touched per probe at K = 1,
        // an exact count (214 before the window narrowed).
        m(
            "simjoin",
            "short_titles.candidates_per_probe",
            LowerIsBetter,
            0.35,
            Some(3.0),
        ),
        // remainder bitmaps in the positional filter: records verified per
        // pair, an exact count (67.8 before stage 2 compared them).
        m(
            "simjoin",
            "short_titles.verified_per_pair",
            LowerIsBetter,
            0.35,
            Some(1.1),
        ),
        // feature cache: prepared extraction ≥3× over scalar at w=1.
        m(
            "feature_extraction",
            "results.0.speedup",
            HigherIsBetter,
            0.35,
            Some(3.0),
        ),
        // run-aware scoring: one `Scorer` over a sorted pair list ≥1.3×
        // over the pairwise reference on the same prepared records.
        m(
            "feature_extraction",
            "run_scoring.speedup_vs_pairwise",
            HigherIsBetter,
            0.35,
            Some(1.3),
        ),
        // incremental engine: delta batch ≥10× over full rebuild.
        m(
            "incremental",
            "delta_vs_rebuild_speedup",
            HigherIsBetter,
            0.35,
            Some(10.0),
        ),
        m("incremental", "updates_per_sec", HigherIsBetter, 0.60, None),
        // out-of-core: emtbl scan ≥2× over CSV re-parse.
        m("outofcore", "scan.speedup", HigherIsBetter, 0.35, Some(2.0)),
        // flattened forest: never slower than the arena walker at w=1.
        m(
            "forest_inference",
            "speedup_w1",
            HigherIsBetter,
            0.35,
            Some(1.0),
        ),
        // observability: measured overhead non-negative and under the 50%
        // guard. Two bounds, no relative gate — a clamped noisy percentage
        // has no meaningful "relative regression".
        m(
            "obs_overhead",
            "overhead_pct",
            LowerIsBetter,
            f64::INFINITY,
            Some(50.0),
        ),
        m(
            "obs_overhead",
            "overhead_pct",
            HigherIsBetter,
            f64::INFINITY,
            Some(0.0),
        ),
        // service layer: admission throughput (loose — pure wall clock).
        m(
            "service_layer",
            "tenants_per_sec",
            HigherIsBetter,
            0.60,
            None,
        ),
    ]
}

/// The checked-in baseline file for an experiment name.
pub fn baseline_file(experiment: &str) -> Option<&'static str> {
    Some(match experiment {
        "simjoin" => "BENCH_simjoin.json",
        "feature_extraction" => "BENCH_feature_extraction.json",
        "incremental" => "BENCH_incremental.json",
        "outofcore" => "BENCH_outofcore.json",
        "forest_inference" => "BENCH_forest_inference.json",
        "obs_overhead" => "BENCH_obs.json",
        "service_layer" => "BENCH_service.json",
        _ => return None,
    })
}

/// Resolve a dotted path (numeric segments index arrays) to an `f64`.
pub fn lookup(json: &Json, path: &str) -> Option<f64> {
    let mut cur = json;
    for seg in path.split('.') {
        cur = match seg.parse::<usize>() {
            Ok(i) => cur.idx(i)?,
            Err(_) => cur.get(seg)?,
        };
    }
    cur.as_f64()
}

/// The `experiment` field of a parsed BENCH file.
pub fn experiment_name(json: &Json) -> Option<String> {
    json.get("experiment")?.as_str().map(str::to_owned)
}

fn bound_violation(spec: &MetricSpec, v: f64) -> Option<Violation> {
    let b = spec.bound?;
    let ok = match spec.direction {
        Direction::HigherIsBetter => v >= b,
        Direction::LowerIsBetter => v <= b,
    };
    let sense = match spec.direction {
        Direction::HigherIsBetter => "under floor",
        Direction::LowerIsBetter => "over ceiling",
    };
    (!ok).then(|| Violation {
        path: spec.path.to_owned(),
        message: format!("{} = {v} is {sense} {b}", spec.path),
    })
}

/// Enforce hard bounds on one BENCH file (`check-baselines` mode).
pub fn check_bounds(json: &Json) -> Vec<Violation> {
    let Some(exp) = experiment_name(json) else {
        return vec![Violation {
            path: "experiment".into(),
            message: "missing `experiment` field".into(),
        }];
    };
    let mut out = Vec::new();
    for spec in registry().iter().filter(|s| s.experiment == exp) {
        match lookup(json, spec.path) {
            Some(v) => out.extend(bound_violation(spec, v)),
            None => out.push(Violation {
                path: spec.path.to_owned(),
                message: format!("registered metric `{}` missing from file", spec.path),
            }),
        }
    }
    out
}

/// Compare a fresh run against its baseline: hard bounds on the new run
/// plus direction-aware relative-tolerance regression checks.
pub fn compare(baseline: &Json, current: &Json) -> Vec<Violation> {
    let mut out = check_bounds(current);
    let Some(exp) = experiment_name(current) else {
        return out;
    };
    if experiment_name(baseline).as_deref() != Some(exp.as_str()) {
        out.push(Violation {
            path: "experiment".into(),
            message: "baseline and current are different experiments".into(),
        });
        return out;
    }
    for spec in registry().iter().filter(|s| s.experiment == exp) {
        let (Some(base), Some(cur)) = (lookup(baseline, spec.path), lookup(current, spec.path))
        else {
            continue; // missing-metric case already reported by bounds
        };
        if base == 0.0 {
            continue;
        }
        let regression = match spec.direction {
            Direction::HigherIsBetter => (base - cur) / base.abs(),
            Direction::LowerIsBetter => (cur - base) / base.abs(),
        };
        if regression > spec.rel_tol {
            out.push(Violation {
                path: spec.path.to_owned(),
                message: format!(
                    "{}: {cur} regressed {:.1}% from baseline {base} (tolerance {:.0}%)",
                    spec.path,
                    regression * 100.0,
                    spec.rel_tol * 100.0
                ),
            });
        }
    }
    out
}

/// Append one compacted line for this run to
/// `<history_dir>/<experiment>.jsonl` (append-only run history).
pub fn record_history(history_dir: &Path, bench_text: &str) -> Result<String, String> {
    let json = parse_json(bench_text)?;
    let exp = experiment_name(&json).ok_or("missing `experiment` field")?;
    let compact: String = {
        // Strip insignificant whitespace without reserializing: copy
        // everything except whitespace outside strings.
        let mut out = String::with_capacity(bench_text.len());
        let mut in_str = false;
        let mut escaped = false;
        for c in bench_text.chars() {
            if in_str {
                out.push(c);
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
            } else if c == '"' {
                in_str = true;
                out.push(c);
            } else if !c.is_whitespace() {
                out.push(c);
            }
        }
        out
    };
    std::fs::create_dir_all(history_dir).map_err(|e| e.to_string())?;
    let path = history_dir.join(format!("{exp}.jsonl"));
    let mut line = compact;
    line.push('\n');
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| e.to_string())?;
    f.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

/// Render a human-readable report for a set of violations.
pub fn report(title: &str, violations: &[Violation]) -> String {
    let mut out = String::new();
    if violations.is_empty() {
        let _ = writeln!(out, "benchdiff: {title}: OK");
    } else {
        let _ = writeln!(out, "benchdiff: {title}: {} violation(s)", violations.len());
        for v in violations {
            let _ = writeln!(out, "  REGRESSION {}", v.message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str =
        r#"{"experiment":"incremental","delta_vs_rebuild_speedup":28.8,"updates_per_sec":77245}"#;

    #[test]
    fn lookup_walks_objects_and_arrays() {
        let j = parse_json(r#"{"a":{"b":[{"c":2.5}]}}"#).unwrap();
        assert_eq!(lookup(&j, "a.b.0.c"), Some(2.5));
        assert_eq!(lookup(&j, "a.b.1.c"), None);
        assert_eq!(lookup(&j, "a.x"), None);
    }

    #[test]
    fn bounds_pass_good_and_fail_regressed() {
        let good = parse_json(GOOD).unwrap();
        assert!(check_bounds(&good).is_empty());
        let bad = parse_json(
            r#"{"experiment":"incremental","delta_vs_rebuild_speedup":4.0,"updates_per_sec":77245}"#,
        )
        .unwrap();
        let v = check_bounds(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("under floor 10"));
    }

    #[test]
    fn compare_is_direction_aware() {
        let base = parse_json(GOOD).unwrap();
        // Better in both metrics: no violation.
        let better = parse_json(
            r#"{"experiment":"incremental","delta_vs_rebuild_speedup":40.0,"updates_per_sec":99000}"#,
        )
        .unwrap();
        assert!(compare(&base, &better).is_empty());
        // updates_per_sec down 70% (> 60% tol) but still above no floor:
        // exactly one regression violation.
        let worse = parse_json(
            r#"{"experiment":"incremental","delta_vs_rebuild_speedup":28.0,"updates_per_sec":23000}"#,
        )
        .unwrap();
        let v = compare(&base, &worse);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("updates_per_sec"));
    }

    #[test]
    fn obs_overhead_ceiling_is_lower_is_better() {
        let ok = parse_json(r#"{"experiment":"obs_overhead","overhead_pct":12.0}"#).unwrap();
        assert!(check_bounds(&ok).is_empty());
        let bad = parse_json(r#"{"experiment":"obs_overhead","overhead_pct":61.0}"#).unwrap();
        assert_eq!(check_bounds(&bad).len(), 1);
    }

    #[test]
    fn history_appends_compact_lines() {
        let dir = std::env::temp_dir().join(format!("magellan_benchdiff_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pretty = "{\n  \"experiment\": \"incremental\",\n  \"delta_vs_rebuild_speedup\": 28.8,\n  \"updates_per_sec\": 77245\n}";
        let p1 = record_history(&dir, pretty).unwrap();
        let p2 = record_history(&dir, pretty).unwrap();
        assert_eq!(p1, p2);
        let body = std::fs::read_to_string(&p1).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"experiment":"incremental","delta_vs_rebuild_speedup":28.8,"updates_per_sec":77245}"#
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_checked_in_baseline_has_a_file_mapping() {
        for spec in registry() {
            assert!(
                baseline_file(spec.experiment).is_some(),
                "no BENCH file mapped for {}",
                spec.experiment
            );
        }
    }
}
