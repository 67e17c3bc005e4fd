//! End-to-end evaluation of predicted matches against a gold standard —
//! the "Computing Accuracy" step of the guide (Table 3).

use std::collections::HashSet;

use magellan_block::CandidateSet;
use magellan_ml::Metrics;
use magellan_table::Table;

/// Convert a row-pair candidate set to `(a_id, b_id)` pairs.
pub fn pairs_to_ids(
    matches: &CandidateSet,
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
) -> magellan_table::Result<HashSet<(String, String)>> {
    let ai = a.schema().try_index_of(a_key)?;
    let bi = b.schema().try_index_of(b_key)?;
    Ok(matches
        .pairs()
        .iter()
        .map(|&(ra, rb)| {
            (
                a.value(ra as usize, ai).display_string(),
                b.value(rb as usize, bi).display_string(),
            )
        })
        .collect())
}

/// Score predicted matches against gold `(a_id, b_id)` pairs.
pub fn evaluate_matches(
    matches: &CandidateSet,
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    gold: &HashSet<(String, String)>,
) -> magellan_table::Result<Metrics> {
    let predicted = pairs_to_ids(matches, a, b, a_key, b_key)?;
    Ok(Metrics::from_pair_sets(&predicted, gold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::Dtype;

    #[test]
    fn scores_predictions() {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str)],
            vec![vec!["a0".into()], vec!["a1".into()]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str)],
            vec![vec!["b0".into()], vec!["b1".into()]],
        )
        .unwrap();
        let gold: HashSet<(String, String)> = [
            ("a0".to_owned(), "b0".to_owned()),
            ("a1".to_owned(), "b1".to_owned()),
        ]
        .into_iter()
        .collect();
        let predicted = CandidateSet::new(vec![(0, 0), (0, 1)]);
        let m = evaluate_matches(&predicted, &a, &b, "id", "id", &gold).unwrap();
        assert_eq!(m.tp, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.fn_, 1);
        assert!((m.precision() - 0.5).abs() < 1e-12);
        assert!((m.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bad_key_is_an_error() {
        let a = Table::from_rows("A", &[("id", Dtype::Str)], vec![]).unwrap();
        let b = Table::from_rows("B", &[("id", Dtype::Str)], vec![]).unwrap();
        assert!(evaluate_matches(
            &CandidateSet::default(),
            &a,
            &b,
            "zzz",
            "id",
            &HashSet::new()
        )
        .is_err());
    }
}
