//! Candidate sets: the output of blocking.

use magellan_table::{CandidateMeta, Catalog, Dtype, Schema, Table, Value};

/// A set of candidate row pairs `(row in A, row in B)`, kept as indices
/// until materialization. Always sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateSet {
    pairs: Vec<(u32, u32)>,
}

impl CandidateSet {
    /// Build from raw pairs (sorts and dedups).
    pub fn new(mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        CandidateSet { pairs }
    }

    /// Wrap pairs already sorted and deduplicated, as a join hands them over.
    pub(crate) fn from_sorted(pairs: Vec<(u32, u32)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        CandidateSet { pairs }
    }

    /// The sorted, deduplicated pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no candidates survived.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Set union (blockers are often OR-ed to improve recall — the paper's
    /// guide has users experiment with blocker combinations).
    pub fn union(&self, other: &CandidateSet) -> CandidateSet {
        let mut pairs = self.pairs.clone();
        pairs.extend_from_slice(&other.pairs);
        CandidateSet::new(pairs)
    }

    /// Set intersection (AND-ing blockers raises precision).
    pub fn intersect(&self, other: &CandidateSet) -> CandidateSet {
        CandidateSet {
            pairs: self
                .pairs
                .iter()
                .copied()
                .filter(|&p| other.contains(p))
                .collect(),
        }
    }

    /// Set difference `self − other`.
    pub fn minus(&self, other: &CandidateSet) -> CandidateSet {
        CandidateSet {
            pairs: self
                .pairs
                .iter()
                .copied()
                .filter(|&p| !other.contains(p))
                .collect(),
        }
    }

    /// Membership test.
    pub fn contains(&self, pair: (u32, u32)) -> bool {
        self.pairs.binary_search(&pair).is_ok()
    }

    /// Materialize as an `(l_id, r_id)` table and register its FK metadata
    /// in the catalog — §4.1's space-efficiency principle: the candidate
    /// table carries only the keys.
    ///
    /// Requires both base tables to have keys registered in the catalog.
    pub fn to_table(
        &self,
        name: &str,
        a: &Table,
        b: &Table,
        catalog: &mut Catalog,
    ) -> magellan_table::Result<Table> {
        let a_key = catalog.require_key(a)?.to_owned();
        let b_key = catalog.require_key(b)?.to_owned();
        // Self-containment: re-validate the keys before emitting FKs
        // against them.
        catalog.validate_key(a)?;
        catalog.validate_key(b)?;
        let a_key_idx = a.schema().try_index_of(&a_key)?;
        let b_key_idx = b.schema().try_index_of(&b_key)?;
        let schema = Schema::from_pairs(&[("l_id", Dtype::Str), ("r_id", Dtype::Str)])?;
        let mut t = Table::with_capacity(name, schema, self.pairs.len());
        for &(ra, rb) in &self.pairs {
            t.push_row(vec![
                Value::Str(a.value(ra as usize, a_key_idx).display_string()),
                Value::Str(b.value(rb as usize, b_key_idx).display_string()),
            ])?;
        }
        let meta = CandidateMeta {
            fk_ltable: "l_id".to_owned(),
            fk_rtable: "r_id".to_owned(),
            ltable: a.id(),
            rtable: b.id(),
            ltable_key: a_key,
            rtable_key: b_key,
        };
        catalog.set_candidate_meta(&t, meta, a, b)?;
        Ok(t)
    }
}

impl FromIterator<(u32, u32)> for CandidateSet {
    fn from_iter<I: IntoIterator<Item = (u32, u32)>>(iter: I) -> Self {
        CandidateSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn cs(pairs: &[(u32, u32)]) -> CandidateSet {
        CandidateSet::new(pairs.to_vec())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let c = cs(&[(2, 1), (0, 0), (2, 1), (1, 5)]);
        assert_eq!(c.pairs(), &[(0, 0), (1, 5), (2, 1)]);
        assert_eq!(c.len(), 3);
        assert!(c.contains((1, 5)));
        assert!(!c.contains((9, 9)));
    }

    #[test]
    fn set_algebra() {
        let x = cs(&[(0, 0), (1, 1), (2, 2)]);
        let y = cs(&[(1, 1), (3, 3)]);
        assert_eq!(x.union(&y).pairs(), &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(x.intersect(&y).pairs(), &[(1, 1)]);
        assert_eq!(x.minus(&y).pairs(), &[(0, 0), (2, 2)]);
        assert!(cs(&[]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Union, intersection and difference equal the set algebra of `BTreeSet` on random
        /// sets, dense and sparse, empty ones included.
        #[test]
        fn set_algebra_equals_btreeset(
            x in proptest::collection::vec((0u32..12, 0u32..12), 0..60),
            y in proptest::collection::vec((0u32..12, 0u32..12), 0..60),
        ) {
            let (bx, by): (BTreeSet<_>, BTreeSet<_>) =
                (x.iter().copied().collect(), y.iter().copied().collect());
            let (cx, cy) = (CandidateSet::new(x), CandidateSet::new(y));
            let pairs = |s: CandidateSet| s.pairs().to_vec();
            proptest::prop_assert_eq!(
                pairs(cx.union(&cy)),
                bx.union(&by).copied().collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(
                pairs(cx.intersect(&cy)),
                bx.intersection(&by).copied().collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(
                pairs(cx.minus(&cy)),
                bx.difference(&by).copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn to_table_materializes_ids_and_registers_metadata() {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str), ("x", Dtype::Int)],
            vec![
                vec!["a0".into(), Value::Int(1)],
                vec!["a1".into(), Value::Int(2)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str)],
            vec![vec!["b0".into()], vec!["b1".into()]],
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.set_key(&a, "id").unwrap();
        catalog.set_key(&b, "id").unwrap();
        let c = cs(&[(0, 1), (1, 0)]);
        let t = c.to_table("C", &a, &b, &mut catalog).unwrap();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.schema().names(), vec!["l_id", "r_id"]);
        assert_eq!(t.value_by_name(0, "l_id").unwrap().as_str(), Some("a0"));
        assert_eq!(t.value_by_name(0, "r_id").unwrap().as_str(), Some("b1"));
        catalog.validate_candidate(&t, &a, &b).unwrap();
    }

    #[test]
    fn to_table_requires_registered_keys() {
        let a = Table::from_rows("A", &[("id", Dtype::Str)], vec![vec!["a0".into()]]).unwrap();
        let b = Table::from_rows("B", &[("id", Dtype::Str)], vec![vec!["b0".into()]]).unwrap();
        let mut catalog = Catalog::new();
        let c = cs(&[(0, 0)]);
        assert!(c.to_table("C", &a, &b, &mut catalog).is_err());
    }
}
