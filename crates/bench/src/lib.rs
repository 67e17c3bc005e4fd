//! # magellan-bench
//!
//! The experiment harness: one `exp_*` binary per table/figure of the
//! paper (see DESIGN.md's experiment index) and the gated performance
//! experiments whose `BENCH_*.json` records `benchdiff` checks. Shared
//! harness helpers live here; [`legacy`] keeps the paths those
//! experiments time as their "before" side.

pub mod benchdiff;
pub mod legacy;

use std::collections::HashSet;

use magellan_block::CandidateSet;
use magellan_ml::Metrics;
use magellan_table::Table;

/// Score a predicted candidate set against gold id pairs (thin wrapper so
/// every experiment binary reports identically).
pub fn score(
    matches: &CandidateSet,
    a: &Table,
    b: &Table,
    gold: &HashSet<(String, String)>,
) -> Metrics {
    magellan_core::evaluate::evaluate_matches(matches, a, b, "id", "id", gold)
        .expect("scenario tables always carry an `id` key")
}

/// Render seconds the way the paper's Table 2 does (9m, 2h, 22h...).
pub fn human_time(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.1}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.0}m", seconds / 60.0)
    } else {
        format!("{seconds:.0}s")
    }
}

/// Render an optional dollar amount ("-" for zero, Table 2 style).
pub fn dollars(v: f64) -> String {
    if v == 0.0 {
        "-".to_owned()
    } else {
        format!("${v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_time_formats() {
        assert_eq!(human_time(30.0), "30s");
        assert_eq!(human_time(540.0), "9m");
        assert_eq!(human_time(2.0 * 3600.0), "2.0h");
    }

    #[test]
    fn dollars_formats() {
        assert_eq!(dollars(0.0), "-");
        assert_eq!(dollars(2.33), "$2.33");
    }
}
