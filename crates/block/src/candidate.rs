//! Candidate sets: the output of blocking.

use std::collections::BTreeSet;

use magellan_simjoin::PairDelta;
use magellan_table::{CandidateMeta, Catalog, Dtype, Schema, Table, Value};

/// What [`CandidateSet::apply_deltas`] actually changed: deltas that were
/// already reflected in the set (an `Added` pair that was present, a
/// `Removed` pair that was absent) are counted but not re-applied, so the
/// caller can audit drift between the blocker and the join's live view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaApplyStats {
    /// Pairs newly inserted.
    pub added: usize,
    /// Pairs actually removed.
    pub removed: usize,
    /// Deltas that were already reflected (no-ops).
    pub redundant: usize,
}

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

    /// Apply a batch of signed pair deltas from the incremental join tier
    /// ([`magellan_simjoin::incremental`]) in **one merge pass** —
    /// O(|Δ| log |Δ| + |self|) instead of a full re-block — preserving the
    /// sorted-dedup invariant. Removals win over additions of the same
    /// pair within one batch (the engine never emits both, but a union of
    /// delta streams may).
    pub fn apply_deltas(&mut self, deltas: &[PairDelta]) -> DeltaApplyStats {
        let mut stats = DeltaApplyStats::default();
        let mut removed: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut added: BTreeSet<(u32, u32)> = BTreeSet::new();
        for d in deltas {
            match d {
                PairDelta::Added(p) => {
                    added.insert((p.l as u32, p.r as u32));
                }
                PairDelta::Removed { l, r } => {
                    removed.insert((*l as u32, *r as u32));
                }
            }
        }
        added.retain(|p| !removed.contains(p));

        let old = std::mem::take(&mut self.pairs);
        self.pairs = Vec::with_capacity(old.len() + added.len());
        let mut add_iter = added.into_iter().peekable();
        for p in old {
            // Flush additions that sort before the next existing pair.
            while let Some(&a) = add_iter.peek() {
                if a >= p {
                    break;
                }
                self.pairs.push(a);
                stats.added += 1;
                add_iter.next();
            }
            if add_iter.peek() == Some(&p) {
                // Already present: the addition is redundant.
                stats.redundant += 1;
                add_iter.next();
            }
            if removed.remove(&p) {
                stats.removed += 1;
                continue;
            }
            self.pairs.push(p);
        }
        for a in add_iter {
            self.pairs.push(a);
            stats.added += 1;
        }
        stats.redundant += removed.len();
        stats
    }

    /// Drop every pair referencing left row `ra` (`left = true`) or right
    /// row `rb` (`left = false`) — the blocking-side reaction to a record
    /// tombstone before re-blocked pairs arrive as `Added` deltas.
    pub fn retain_without_record(&mut self, left: bool, rid: u32) -> usize {
        let before = self.pairs.len();
        self.pairs
            .retain(|&(ra, rb)| if left { ra != rid } else { rb != rid });
        before - self.pairs.len()
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
    fn apply_deltas_merges_in_one_pass() {
        use magellan_simjoin::JoinPair;
        let mut c = cs(&[(0, 0), (1, 1), (2, 2), (5, 5)]);
        let deltas = vec![
            PairDelta::Added(JoinPair { l: 3, r: 3, sim: 0.9 }),
            PairDelta::Removed { l: 1, r: 1 },
            PairDelta::Added(JoinPair { l: 0, r: 7, sim: 0.8 }),
            // Redundant: already present.
            PairDelta::Added(JoinPair { l: 2, r: 2, sim: 1.0 }),
            // Redundant: never present.
            PairDelta::Removed { l: 9, r: 9 },
        ];
        let stats = c.apply_deltas(&deltas);
        assert_eq!(c.pairs(), &[(0, 0), (0, 7), (2, 2), (3, 3), (5, 5)]);
        assert_eq!(
            stats,
            DeltaApplyStats {
                added: 2,
                removed: 1,
                redundant: 2
            }
        );
        // Invariant: still sorted + deduplicated ⇒ re-normalizing is a
        // no-op.
        let renorm = CandidateSet::new(c.pairs().to_vec());
        assert_eq!(&renorm, &c);
    }

    #[test]
    fn apply_deltas_removal_wins_within_a_batch() {
        use magellan_simjoin::JoinPair;
        let mut c = cs(&[(4, 4)]);
        let stats = c.apply_deltas(&[
            PairDelta::Added(JoinPair { l: 4, r: 4, sim: 1.0 }),
            PairDelta::Removed { l: 4, r: 4 },
        ]);
        assert!(c.is_empty());
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.added, 0);
    }

    #[test]
    fn retain_without_record_drops_one_side() {
        let mut c = cs(&[(0, 1), (2, 1), (2, 3), (4, 1)]);
        assert_eq!(c.retain_without_record(false, 1), 3);
        assert_eq!(c.pairs(), &[(2, 3)]);
        let mut c2 = cs(&[(0, 1), (2, 1), (2, 3)]);
        assert_eq!(c2.retain_without_record(true, 2), 2);
        assert_eq!(c2.pairs(), &[(0, 1)]);
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
