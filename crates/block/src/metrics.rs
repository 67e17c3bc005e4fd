//! Candidate-set quality metrics: recall against gold and reduction ratio.

use std::collections::HashSet;

use magellan_table::Table;

use crate::candidate::CandidateSet;

/// Blocking quality against a gold match set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingReport {
    /// Candidate pairs produced.
    pub n_candidates: usize,
    /// Gold matches retained in the candidate set.
    pub gold_kept: usize,
    /// Total gold matches.
    pub gold_total: usize,
    /// Size of the cross product.
    pub cross_product: usize,
}

impl BlockingReport {
    /// Fraction of gold matches surviving blocking (the quantity the
    /// guide's "select the best blocker" step maximizes).
    pub fn recall(&self) -> f64 {
        if self.gold_total == 0 {
            1.0
        } else {
            self.gold_kept as f64 / self.gold_total as f64
        }
    }

    /// `1 − |C| / |A×B|`: how much work blocking saved.
    pub fn reduction_ratio(&self) -> f64 {
        if self.cross_product == 0 {
            0.0
        } else {
            1.0 - self.n_candidates as f64 / self.cross_product as f64
        }
    }
}

/// Score a candidate set against gold `(a_id, b_id)` pairs. Requires the
/// key attribute names of both tables to map row indices to ids.
pub fn evaluate_blocking(
    candidates: &CandidateSet,
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    gold: &HashSet<(String, String)>,
) -> magellan_table::Result<BlockingReport> {
    let a_idx = a.schema().try_index_of(a_key)?;
    let b_idx = b.schema().try_index_of(b_key)?;
    let cand_ids: HashSet<(String, String)> = candidates
        .pairs()
        .iter()
        .map(|&(ra, rb)| {
            (
                a.value(ra as usize, a_idx).display_string(),
                b.value(rb as usize, b_idx).display_string(),
            )
        })
        .collect();
    let gold_kept = gold.iter().filter(|p| cand_ids.contains(*p)).count();
    Ok(BlockingReport {
        n_candidates: candidates.len(),
        gold_kept,
        gold_total: gold.len(),
        cross_product: a.nrows() * b.nrows(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::Dtype;

    #[test]
    fn recall_and_reduction() {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str)],
            vec![vec!["a0".into()], vec!["a1".into()], vec!["a2".into()]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str)],
            vec![vec!["b0".into()], vec!["b1".into()]],
        )
        .unwrap();
        let gold: HashSet<(String, String)> = [("a0", "b0"), ("a2", "b1")]
            .into_iter()
            .map(|(x, y)| (x.to_owned(), y.to_owned()))
            .collect();
        let cands = CandidateSet::new(vec![(0, 0), (1, 1)]);
        let rep = evaluate_blocking(&cands, &a, &b, "id", "id", &gold).unwrap();
        assert_eq!(rep.gold_kept, 1);
        assert_eq!(rep.gold_total, 2);
        assert!((rep.recall() - 0.5).abs() < 1e-12);
        assert!((rep.reduction_ratio() - (1.0 - 2.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_gold_is_vacuous_recall() {
        let a = Table::from_rows("A", &[("id", Dtype::Str)], vec![vec!["a0".into()]]).unwrap();
        let b = Table::from_rows("B", &[("id", Dtype::Str)], vec![vec!["b0".into()]]).unwrap();
        let rep = evaluate_blocking(
            &CandidateSet::default(),
            &a,
            &b,
            "id",
            "id",
            &HashSet::new(),
        )
        .unwrap();
        assert_eq!(rep.recall(), 1.0);
        assert_eq!(rep.reduction_ratio(), 1.0);
    }

    /// Zero denominators (empty tables, empty gold) never yield NaN/∞.
    #[test]
    fn zero_denominator_ratios_are_finite() {
        let rep = BlockingReport {
            n_candidates: 0,
            gold_kept: 0,
            gold_total: 0,
            cross_product: 0,
        };
        assert_eq!(rep.recall(), 1.0); // vacuous recall
        assert_eq!(rep.reduction_ratio(), 0.0); // nothing to reduce
        assert!(rep.recall().is_finite());
        assert!(rep.reduction_ratio().is_finite());
    }
}
