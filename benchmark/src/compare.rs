//! `compare <a.json> <b.json>`: two result files of `run` on the same
//! seed, judged per workload and end-to-end metric.
//!
//! The bounds here are the ones a same-seed comparison can hold: inputs,
//! and with them the quality numbers, repeat exactly, so quality is held
//! to an absolute 0.002 and the times to the bounds the benchmark was
//! specified with. `BENCHMARK.json` carries looser bounds for comparing
//! medians across *different* seeds on a shared host. A host too noisy to
//! resolve a bound gets `unresolved`, never `within_bound`.

use std::fmt::Write as _;

use crate::json::{parse as parse_json, Json};
use crate::spec::{spec, MetricSpec};
use crate::stats::{median, quartiles};

/// How far a metric may worsen before that counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// As a share of the baseline median.
    Relative(f64),
    /// In the metric's own unit.
    Absolute(f64),
}

/// The bound of every end-to-end metric, `failed_share` included.
pub fn bound_of(metric: &str) -> Option<Bound> {
    Some(match metric {
        "setup_s" => Bound::Relative(0.15),
        "wall_s" | "cpu_s" | "batch_p50_ms" | "batch_p99_ms" => Bound::Relative(0.10),
        "peak_rss_mb" => Bound::Relative(0.05),
        "precision" | "recall" | "f1" => Bound::Absolute(0.002),
        "failed_share" => Bound::Absolute(0.0),
        _ => return None,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The run-to-run spread exceeds the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within_bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against baseline runs `a` of one metric.
pub fn judge(higher_is_better: bool, bound: Bound, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse, and put differences on the bound's scale.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (limit, unit) = match bound {
        Bound::Relative(share) => (share, median(a).abs().max(f64::MIN_POSITIVE)),
        Bound::Absolute(limit) => (limit, 1.0),
    };
    let worse_by = sign * (median(b) - median(a)) / unit;
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / unit
    };
    let noise = iqr(a).max(iqr(b));
    let every = |holds: fn(f64, f64) -> bool| {
        b.iter()
            .all(|&y| a.iter().all(|&x| holds(sign * y, sign * x)))
    };
    if worse_by > limit && (noise <= limit || every(|y, x| y > x)) {
        Verdict::Regressed
    } else if -worse_by > noise && every(|y, x| y < x) {
        Verdict::Improved
    } else if noise > limit {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// The runs of one metric on one workload; `None` where the file has
/// `null` (the metric does not apply to the workload) or nothing.
fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = doc.get("workloads")?.get(workload)?;
    if metric == "failed_share" {
        let num = |k: &str| w.get(k).and_then(Json::as_f64);
        return Some(vec![num("failed")? / num("attempted")?.max(1.0)]);
    }
    let v: Vec<f64> = w
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!v.is_empty()).then_some(v)
}

/// The comparison table and whether any row regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = parse_json(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b_text).map_err(|e| format!("second file: {e}"))?;
    for key in ["seed", "smoke"] {
        let of = |doc: &Json| {
            doc.get(key)
                .or_else(|| doc.get("host").and_then(|h| h.get(key)))
                .cloned()
        };
        if of(&a) != of(&b) {
            return Err(format!(
                "the files differ in `{key}`: the bounds hold between runs on the same inputs only"
            ));
        }
    }
    let spec = spec();
    let failed_share = MetricSpec {
        name: "failed_share".into(),
        unit: "ratio".into(),
        higher_is_better: false,
    };
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<20} {:<13} {:>30} {:>30} {:>8} {:>7}  verdict",
        "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "delta", "bound"
    )
    .unwrap();
    for workload in &spec.workloads {
        for m in spec.end_to_end.iter().chain([&failed_share]) {
            let (Some(va), Some(vb)) =
                (values(&a, workload, &m.name), values(&b, workload, &m.name))
            else {
                continue;
            };
            let bound = bound_of(&m.name)
                .ok_or_else(|| format!("no bound is set for end-to-end metric `{}`", m.name))?;
            let verdict = judge(m.higher_is_better, bound, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            let (delta, limit) = match bound {
                Bound::Relative(share) => (
                    format!(
                        "{:+.1}%",
                        (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE)
                            * 100.0
                    ),
                    format!("{:.0}%", share * 100.0),
                ),
                Bound::Absolute(limit) => (
                    format!("{:+.4}", median(&vb) - median(&va)),
                    format!("{limit}"),
                ),
            };
            writeln!(
                out,
                "{:<20} {:<13} {:>30} {:>30} {:>8} {:>7}  {}",
                workload,
                m.name,
                show(&va),
                show(&vb),
                delta,
                limit,
                verdict.label()
            )
            .unwrap();
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let rel = Bound::Relative(0.10);
        let a = [1.00, 1.01, 0.99, 1.02, 1.00];
        assert_eq!(
            judge(false, rel, &a, &[1.20, 1.21, 1.19, 1.22, 1.20]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(false, rel, &a, &[1.03, 1.04, 1.02, 1.05, 1.03]),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(false, rel, &a, &[0.80, 0.81, 0.79, 0.82, 0.80]),
            Verdict::Improved
        );
        // Spread wider than the bound, runs overlapping: no call either way.
        let noisy = [0.8, 1.3, 1.0, 1.25, 0.9];
        assert_eq!(
            judge(false, rel, &noisy, &[0.85, 1.4, 1.2, 1.3, 1.0]),
            Verdict::Unresolved
        );
        // A higher-is-better metric regresses downwards; quality is held
        // to an absolute bound.
        let abs = Bound::Absolute(0.002);
        assert_eq!(judge(true, abs, &[0.90], &[0.897]), Verdict::Regressed);
        assert_eq!(judge(true, abs, &[0.90], &[0.899]), Verdict::WithinBound);
        assert_eq!(judge(true, abs, &[0.90], &[0.90]), Verdict::WithinBound);
        assert_eq!(judge(true, abs, &[0.90], &[0.95]), Verdict::Improved);
        // Any new failure is a regression.
        let none = Bound::Absolute(0.0);
        assert_eq!(judge(false, none, &[0.0], &[0.01]), Verdict::Regressed);
        assert_eq!(judge(false, none, &[0.0], &[0.0]), Verdict::WithinBound);
    }
}
