//! Feature-vector extraction over candidate pairs.

use magellan_par::{ParConfig, ParStats};
use magellan_table::Table;

use crate::feature::Feature;

/// A dense feature matrix over candidate pairs: what the matchers consume.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// Feature names, column order.
    pub names: Vec<String>,
    /// One row per pair, `names.len()` entries each; `NaN` = missing.
    pub rows: Vec<Vec<f64>>,
    /// The `(row in A, row in B)` pair each row describes.
    pub pairs: Vec<(u32, u32)>,
}

impl FeatureMatrix {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no pairs were extracted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A sub-matrix of the given row positions (indices may repeat).
    pub fn subset(&self, positions: &[usize]) -> FeatureMatrix {
        FeatureMatrix {
            names: self.names.clone(),
            rows: positions.iter().map(|&i| self.rows[i].clone()).collect(),
            pairs: positions.iter().map(|&i| self.pairs[i]).collect(),
        }
    }
}

/// Evaluate `features` for every candidate pair.
///
/// Routed through the tokenize-once-per-record prepared cache
/// ([`crate::prepared::PreparedPair`]): each referenced record's attribute
/// is normalized and tokenized once per distinct `(attribute, tokenizer)`
/// combination, and set measures run as interned-`u32` merge
/// intersections. Bit-identical to the per-pair scalar path
/// ([`extract_feature_matrix_scalar`]) — pinned by test and by the golden
/// e2e suite.
pub fn extract_feature_matrix(
    pairs: &[(u32, u32)],
    a: &Table,
    b: &Table,
    features: &[Feature],
) -> magellan_table::Result<FeatureMatrix> {
    extract_feature_matrix_par(pairs, a, b, features, &ParConfig::serial()).map(|(m, _)| m)
}

/// Parallel [`extract_feature_matrix`]: records are prepared once
/// (serially — interner ids are assigned in deterministic first-seen
/// order), then pair chunks are claimed by the `magellan-par`
/// work-stealing pool and merged in chunk order, so the matrix is
/// **bit-identical** to the serial extraction for any worker count (each
/// row is a pure function of its pair over immutable prepared data). The
/// returned [`ParStats`] includes the cache counters
/// ([`magellan_par::CacheStats`]) for the call.
pub fn extract_feature_matrix_par(
    pairs: &[(u32, u32)],
    a: &Table,
    b: &Table,
    features: &[Feature],
    cfg: &ParConfig,
) -> magellan_table::Result<(FeatureMatrix, ParStats)> {
    let mut prepared = crate::prepared::PreparedPair::new(a, b);
    crate::prepared::extract_with_prepared(&mut prepared, pairs, features, cfg)
}

/// The reference per-pair scalar path: every pair re-normalizes and
/// re-tokenizes both attribute values through [`Feature::compute`].
///
/// Kept (a) as the pinned bit-identity reference for the prepared cache
/// and (b) as the baseline side of the `feature_extraction` benchmark.
pub fn extract_feature_matrix_scalar(
    pairs: &[(u32, u32)],
    a: &Table,
    b: &Table,
    features: &[Feature],
) -> magellan_table::Result<FeatureMatrix> {
    extract_feature_matrix_scalar_par(pairs, a, b, features, &ParConfig::serial()).map(|(m, _)| m)
}

/// Parallel [`extract_feature_matrix_scalar`] (the pre-cache
/// implementation of [`extract_feature_matrix_par`], unchanged).
pub fn extract_feature_matrix_scalar_par(
    pairs: &[(u32, u32)],
    a: &Table,
    b: &Table,
    features: &[Feature],
    cfg: &ParConfig,
) -> magellan_table::Result<(FeatureMatrix, ParStats)> {
    let l_idx: Vec<usize> = features
        .iter()
        .map(|f| a.schema().try_index_of(&f.l_attr))
        .collect::<magellan_table::Result<_>>()?;
    let r_idx: Vec<usize> = features
        .iter()
        .map(|f| b.schema().try_index_of(&f.r_attr))
        .collect::<magellan_table::Result<_>>()?;
    let (rows, stats) = magellan_par::map_indexed(pairs.len(), cfg, |p| {
        let (ra, rb) = pairs[p];
        let mut row = Vec::with_capacity(features.len());
        for ((f, &li), &ri) in features.iter().zip(&l_idx).zip(&r_idx) {
            let va = a.value(ra as usize, li);
            let vb = b.value(rb as usize, ri);
            row.push(f.compute(va, vb));
        }
        row
    });
    Ok((
        FeatureMatrix {
            names: features.iter().map(|f| f.name.clone()).collect(),
            rows,
            pairs: pairs.to_vec(),
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, TokSpecF};
    use magellan_table::{Dtype, Value};

    fn setup() -> (Table, Table, Vec<Feature>) {
        let a = Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![
                vec!["a0".into(), "dave smith".into(), Value::Int(40)],
                vec!["a1".into(), Value::Null, Value::Int(31)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![vec!["b0".into(), "dave smith".into(), Value::Int(41)]],
        )
        .unwrap();
        let features = vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("age", "age", FeatureKind::AbsDiff),
        ];
        (a, b, features)
    }

    #[test]
    fn extracts_expected_values() {
        let (a, b, features) = setup();
        let m = extract_feature_matrix(&[(0, 0), (1, 0)], &a, &b, &features).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.names.len(), 2);
        assert_eq!(m.rows[0][0], 1.0); // identical names
        assert!((m.rows[0][1] - 0.5).abs() < 1e-12); // |40-41| -> 1/2
        assert!(m.rows[1][0].is_nan()); // null name
        assert_eq!(m.pairs, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn subset_selects_rows() {
        let (a, b, features) = setup();
        let m = extract_feature_matrix(&[(0, 0), (1, 0)], &a, &b, &features).unwrap();
        let s = m.subset(&[1, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pairs, vec![(1, 0), (1, 0)]);
    }

    #[test]
    fn unknown_feature_attr_is_an_error() {
        let (a, b, _) = setup();
        let bad = vec![Feature::new("nope", "name", FeatureKind::ExactMatch)];
        assert!(extract_feature_matrix(&[(0, 0)], &a, &b, &bad).is_err());
    }

    #[test]
    fn empty_pairs_yield_empty_matrix() {
        let (a, b, features) = setup();
        let m = extract_feature_matrix(&[], &a, &b, &features).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.names.len(), 2);
    }
}
