//! The blocking debugger — one of the paper's named "pain point" tools
//! (Table 3, column D: "Blocking debugger").
//!
//! After blocking, the user needs to know whether the blocker killed
//! likely matches *without* having gold labels. The debugger runs a very
//! permissive similarity join over the concatenation of the chosen
//! attributes, removes everything already in the candidate set, and
//! returns the top-k most similar surviving pairs — if those look like
//! matches, the blocker is too aggressive and should be loosened.

use magellan_simjoin::{
    join_tokenized_topk, set_sim_join, JoinStats, SetSimMeasure, TokenizedCollection,
};
use magellan_table::Table;
use magellan_textsim::tokenize::AlphanumericTokenizer;

use crate::candidate::CandidateSet;

/// A potential match the blocker dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedPair {
    /// Row index in the left table.
    pub l_row: usize,
    /// Row index in the right table.
    pub r_row: usize,
    /// Word-Jaccard similarity of the concatenated attributes.
    pub sim: f64,
}

/// [`debug_blocker`] output plus the permissive join's pruning-cascade
/// telemetry: which filter stage (size window / positional / suffix)
/// killed the candidates around the missed matches. The positional stage
/// sees the records' remainders through 32-bit bitmaps, so it now takes
/// most of what the suffix merge used to: a session where most kills are
/// positional says the records share a prefix token and too little of
/// the rest — loosening the threshold (not the attribute choice) is the fix.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugReport {
    /// Top-k most similar pairs the blocker dropped.
    pub dropped: Vec<DroppedPair>,
    /// Per-stage kill counters of the top-k join that searched for the
    /// dropped pairs (the work it did, under its rising threshold).
    pub join: JoinStats,
}

/// The display forms of columns `cols` of each row, space-separated —
/// the one string a whole-record similarity reads. Nulls are skipped; a
/// row with nothing but nulls is `None`.
pub fn concat_columns(t: &Table, cols: &[usize]) -> Vec<Option<String>> {
    use std::fmt::Write;
    t.rows()
        .map(|r| {
            let (mut row, mut any) = (String::new(), false);
            for &c in cols {
                let v = t.value(r, c);
                if v.is_null() {
                    continue;
                }
                if any {
                    row.push(' ');
                }
                any = true;
                write!(row, "{v}").expect("writing to a String cannot fail");
            }
            any.then_some(row)
        })
        .collect()
}

fn concat_attrs(t: &Table, attrs: &[&str]) -> magellan_table::Result<Vec<Option<String>>> {
    let cols: Vec<usize> = attrs
        .iter()
        .map(|a| t.schema().try_index_of(a))
        .collect::<magellan_table::Result<_>>()?;
    Ok(concat_columns(t, &cols))
}

/// Find the `k` most similar pairs **not** in the candidate set.
///
/// `min_sim` bounds the permissive join (default suggestion: 0.2 — low
/// enough to catch near-misses, high enough to stay sub-cross-product).
pub fn debug_blocker(
    candidates: &CandidateSet,
    a: &Table,
    b: &Table,
    attrs: &[&str],
    k: usize,
    min_sim: f64,
) -> magellan_table::Result<Vec<DroppedPair>> {
    Ok(debug_blocker_report(candidates, a, b, attrs, k, min_sim)?.dropped)
}

/// [`debug_blocker`] also returning the permissive join's [`JoinStats`]
/// so users see which pruning stage kept out the records around the
/// missed matches: `killed_by_size` counts postings never touched (size
/// inadmissible, at the latest from the probe position they were met at),
/// `killed_by_position` touched records dropped at a prefix collision (by
/// the remainders' sizes or bitmaps), `killed_by_suffix` those dropped in
/// the merge.
pub fn debug_blocker_report(
    candidates: &CandidateSet,
    a: &Table,
    b: &Table,
    attrs: &[&str],
    k: usize,
    min_sim: f64,
) -> magellan_table::Result<DebugReport> {
    let la = concat_attrs(a, attrs)?;
    let rb = concat_attrs(b, attrs)?;
    let coll = TokenizedCollection::build(&la, &rb, &AlphanumericTokenizer::as_set());
    // The debugger's question is a top-k join over the pairs blocking
    // dropped, most similar first, ties by row ids.
    let (top, join) = join_tokenized_topk(
        &coll,
        SetSimMeasure::Jaccard(min_sim.max(1e-6)),
        k,
        |l, r| !candidates.contains((l as u32, r as u32)),
    );
    let dropped = top
        .into_iter()
        .map(|p| DroppedPair {
            l_row: p.l,
            r_row: p.r,
            sim: p.sim,
        })
        .collect();
    Ok(DebugReport { dropped, join })
}

/// Estimated blocker recall against *probable* matches: the fraction of
/// high-similarity pairs (≥ `hi_sim` on the concatenated attributes) that
/// the candidate set retains. A cheap label-free proxy for true recall.
pub fn estimate_recall(
    candidates: &CandidateSet,
    a: &Table,
    b: &Table,
    attrs: &[&str],
    hi_sim: f64,
) -> magellan_table::Result<f64> {
    let la = concat_attrs(a, attrs)?;
    let rb = concat_attrs(b, attrs)?;
    let tok = AlphanumericTokenizer::as_set();
    let joined = set_sim_join(&la, &rb, &tok, SetSimMeasure::Jaccard(hi_sim));
    if joined.is_empty() {
        return Ok(1.0);
    }
    let kept = joined
        .iter()
        .filter(|p| candidates.contains((p.l as u32, p.r as u32)))
        .count();
    Ok(kept as f64 / joined.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::{Dtype, Value};

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str), ("name", Dtype::Str), ("city", Dtype::Str)],
            vec![
                vec!["a0".into(), "dave smith".into(), "madison".into()],
                vec!["a1".into(), "joe wilson".into(), "san jose".into()],
                vec!["a2".into(), "dan smith".into(), "middleton".into()],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str), ("name", Dtype::Str), ("city", Dtype::Str)],
            vec![
                vec!["b0".into(), "dave smith".into(), "madison".into()],
                vec!["b1".into(), "dan smith".into(), "middleton".into()],
                vec!["b2".into(), "maria garcia".into(), Value::Null],
            ],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn surfaces_the_killed_match_first() {
        let (a, b) = tables();
        // Blocker kept (a0,b0) but killed (a2,b1).
        let cands = CandidateSet::new(vec![(0, 0)]);
        let dropped = debug_blocker(&cands, &a, &b, &["name", "city"], 5, 0.2).unwrap();
        assert!(!dropped.is_empty());
        assert_eq!((dropped[0].l_row, dropped[0].r_row), (2, 1));
        assert!(dropped[0].sim > 0.9);
    }

    #[test]
    fn pairs_already_in_candidates_are_excluded() {
        let (a, b) = tables();
        let cands = CandidateSet::new(vec![(0, 0), (2, 1)]);
        let dropped = debug_blocker(&cands, &a, &b, &["name", "city"], 5, 0.2).unwrap();
        assert!(dropped
            .iter()
            .all(|d| !((d.l_row, d.r_row) == (0, 0) || (d.l_row, d.r_row) == (2, 1))));
    }

    #[test]
    fn k_truncates() {
        let (a, b) = tables();
        let cands = CandidateSet::default();
        let dropped = debug_blocker(&cands, &a, &b, &["name"], 1, 0.1).unwrap();
        assert_eq!(dropped.len(), 1);
    }

    #[test]
    fn recall_estimate_reflects_kept_fraction() {
        let (a, b) = tables();
        let all = CandidateSet::new(vec![(0, 0), (2, 1)]);
        let r = estimate_recall(&all, &a, &b, &["name", "city"], 0.8).unwrap();
        assert_eq!(r, 1.0);
        let half = CandidateSet::new(vec![(0, 0)]);
        let r = estimate_recall(&half, &a, &b, &["name", "city"], 0.8).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
        // No high-sim pairs at an impossible threshold: vacuous recall 1.
        let r = estimate_recall(&half, &a, &b, &["name"], 1.0).unwrap();
        assert!(r > 0.0);
    }

    #[test]
    fn report_carries_join_cascade_telemetry() {
        let (a, b) = tables();
        let cands = CandidateSet::new(vec![(0, 0)]);
        let report = debug_blocker_report(&cands, &a, &b, &["name", "city"], 5, 0.2).unwrap();
        // Same dropped pairs as the plain entry point...
        let plain = debug_blocker(&cands, &a, &b, &["name", "city"], 5, 0.2).unwrap();
        assert_eq!(report.dropped, plain);
        // ...plus consistent cascade counters from the permissive join.
        let j = report.join;
        assert!(j.probes > 0, "{j:?}");
        assert!(j.candidates > 0, "{j:?}");
        assert_eq!(j.candidates, j.killed_by_position + j.verified, "{j:?}");
        assert_eq!(j.verified, j.killed_by_suffix + j.pairs, "{j:?}");
        assert!(j.pairs >= report.dropped.len(), "{j:?}");
    }

    #[test]
    fn unknown_attr_is_an_error() {
        let (a, b) = tables();
        assert!(debug_blocker(&CandidateSet::default(), &a, &b, &["zzz"], 3, 0.2).is_err());
    }
}
