//! The blocker implementations.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use magellan_par::{ParConfig, ParStats};
use magellan_simjoin::collection::TokenizedCollection;
use magellan_simjoin::{join_tokenized_pairs, ProbeSide, SetSimMeasure};
use magellan_table::{Table, TableError};
use magellan_textsim::TokSpec;

use crate::candidate::CandidateSet;

/// A blocker maps two tables to a candidate set of row pairs.
pub trait Blocker: Send + Sync {
    /// Display name for guide output / blocker selection reports.
    fn name(&self) -> String;

    /// Compute the candidate set.
    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet>;

    /// Compute the candidate set on the `magellan-par` work-stealing pool,
    /// returning the region's [`ParStats`] counters alongside the set.
    ///
    /// The contract (enforced by `par_determinism`): the returned set is
    /// **identical to [`Blocker::block`] for any worker count** — a
    /// [`CandidateSet`] is sorted + deduplicated, so per-left-row candidate
    /// generation can be chunked freely. The default implementation runs
    /// serially (and reports empty counters); the built-in blockers
    /// override it.
    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        let _ = cfg;
        Ok((self.block(a, b)?, ParStats::default()))
    }
}

/// Equality on `(l_attr, r_attr)` after lowercasing and trimming. Nulls
/// never match (a null key would otherwise explode the candidate set).
#[derive(Debug, Clone)]
pub struct AttrEquivalenceBlocker {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
}

impl AttrEquivalenceBlocker {
    /// Blocker on the same-named attribute in both tables.
    pub fn on(attr: &str) -> Self {
        AttrEquivalenceBlocker {
            l_attr: attr.to_owned(),
            r_attr: attr.to_owned(),
        }
    }
}

impl Blocker for AttrEquivalenceBlocker {
    fn name(&self) -> String {
        format!("attr_equiv({}, {})", self.l_attr, self.r_attr)
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        Ok(self.block_par(a, b, &ParConfig::serial())?.0)
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        let join = EqualityJoin::build(a, &self.l_attr, b, &self.r_attr)?;
        // Per-left-row probe: pure per index, so chunk outputs merged in
        // chunk order reproduce the serial pair stream exactly.
        let (chunks, stats) = magellan_par::chunk_map(join.n_left(), cfg, |range| {
            let mut pairs = Vec::new();
            for l in range {
                pairs.extend(join.partners(l).iter().map(|&r| (l as u32, r)));
            }
            pairs
        });
        Ok((
            CandidateSet::new(chunks.into_iter().flatten().collect()),
            stats,
        ))
    }
}

/// The equi-join behind [`AttrEquivalenceBlocker`] and the rule blocker's
/// exact-match predicates: both sides' keys are read through
/// [`Table::column_lower`] (the display form, trimmed and lowercased),
/// right rows bucketed by theirs. Nulls have no partners.
pub(crate) struct EqualityJoin<'a> {
    l_keys: Vec<Option<Cow<'a, str>>>,
    buckets: HashMap<Cow<'a, str>, Vec<u32>>,
}

impl<'a> EqualityJoin<'a> {
    pub(crate) fn build(
        a: &'a Table,
        l_attr: &str,
        b: &'a Table,
        r_attr: &str,
    ) -> magellan_table::Result<Self> {
        let l_keys = a.column_lower(l_attr)?;
        let mut buckets: HashMap<Cow<'a, str>, Vec<u32>> = HashMap::new();
        for (r, v) in b.column_lower(r_attr)?.into_iter().enumerate() {
            if let Some(v) = v {
                buckets.entry(v).or_default().push(r as u32);
            }
        }
        Ok(EqualityJoin { l_keys, buckets })
    }

    /// Rows on the left side.
    pub(crate) fn n_left(&self) -> usize {
        self.l_keys.len()
    }

    /// The right rows whose key equals left row `l`'s, ascending.
    pub(crate) fn partners(&self, l: usize) -> &[u32] {
        self.l_keys[l]
            .as_ref()
            .and_then(|v| self.buckets.get(v))
            .map_or(&[], Vec::as_slice)
    }
}

/// Bucketed equality: rows whose normalized attribute values hash to the
/// same of `n_buckets` buckets are paired. With a perfect attribute this
/// degrades gracefully toward [`AttrEquivalenceBlocker`]; with noisy ones
/// it trades recall for candidate-set size via `n_buckets`.
#[derive(Debug, Clone)]
pub struct HashBlocker {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// Number of hash buckets (≥ 1).
    pub n_buckets: usize,
}

/// The bucket of a key already normalized by [`Table::column_lower`].
fn bucket_of(v: &str, n: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish() % n as u64
}

impl Blocker for HashBlocker {
    fn name(&self) -> String {
        format!("hash({}, {}, {})", self.l_attr, self.r_attr, self.n_buckets)
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        Ok(self.block_par(a, b, &ParConfig::serial())?.0)
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        if self.n_buckets == 0 {
            return Err(TableError::KeyViolation {
                table: a.name().to_owned(),
                attr: self.l_attr.clone(),
                reason: "hash blocker needs at least one bucket".to_owned(),
            });
        }
        let la = a.column_lower(&self.l_attr)?;
        let rb = b.column_lower(&self.r_attr)?;
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (r, v) in rb.iter().enumerate() {
            if let Some(v) = v {
                buckets
                    .entry(bucket_of(v, self.n_buckets))
                    .or_default()
                    .push(r as u32);
            }
        }
        let (chunks, stats) = magellan_par::chunk_map(la.len(), cfg, |range| {
            let mut pairs = Vec::new();
            for l in range {
                if let Some(v) = &la[l] {
                    if let Some(rs) = buckets.get(&bucket_of(v, self.n_buckets)) {
                        pairs.extend(rs.iter().map(|&r| (l as u32, r)));
                    }
                }
            }
            pairs
        });
        Ok((
            CandidateSet::new(chunks.into_iter().flatten().collect()),
            stats,
        ))
    }
}

/// Keep pairs sharing at least `overlap_size` alphanumeric word tokens on
/// the given attributes — the workhorse textual blocker, executed as a
/// prefix-filtered sim-join rather than a cross product.
#[derive(Debug, Clone)]
pub struct OverlapBlocker {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// Minimum shared tokens.
    pub overlap_size: usize,
    /// Tokenize into q-grams of this size instead of words, when set.
    pub qgram: Option<usize>,
    /// Hash shards for the out-of-core join (`≤ 1` = monolithic). The
    /// candidate set is bit-identical for every value; only peak index
    /// memory changes.
    pub shards: usize,
}

impl OverlapBlocker {
    /// Word-token overlap blocker on one attribute name.
    pub fn words(attr: &str, overlap_size: usize) -> Self {
        OverlapBlocker {
            l_attr: attr.to_owned(),
            r_attr: attr.to_owned(),
            overlap_size,
            qgram: None,
            shards: 1,
        }
    }

    /// Run the underlying join in `k` hash shards (out-of-core mode).
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }
}

impl Blocker for OverlapBlocker {
    fn name(&self) -> String {
        let tok = self.qgram.map_or(TokSpec::Word, TokSpec::Qgram).label();
        format!(
            "overlap({}, {}, {tok}, {})",
            self.l_attr, self.r_attr, self.overlap_size
        )
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        Ok(self.block_par(a, b, &ParConfig::serial())?.0)
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        // The sim-join blocker under an overlap size: one body for both.
        SimJoinBlocker {
            l_attr: self.l_attr.clone(),
            r_attr: self.r_attr.clone(),
            measure: SetSimMeasure::OverlapSize(self.overlap_size.max(1)),
            qgram: self.qgram,
            shards: self.shards,
        }
        .block_par(a, b, cfg)
    }
}

/// Any `magellan-simjoin` measure as a blocker (e.g. Jaccard ≥ 0.4 on
/// 3-grams of the title).
#[derive(Debug, Clone)]
pub struct SimJoinBlocker {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// Join measure + threshold.
    pub measure: SetSimMeasure,
    /// Q-gram size (`None` = alphanumeric word tokens).
    pub qgram: Option<usize>,
    /// Hash shards for the out-of-core join (`≤ 1` = monolithic);
    /// candidate-set invariant, memory-profile only.
    pub shards: usize,
}

impl SimJoinBlocker {
    /// Run the underlying join in `k` hash shards (out-of-core mode).
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }
}

impl Blocker for SimJoinBlocker {
    fn name(&self) -> String {
        format!(
            "simjoin({}, {}, {:?})",
            self.l_attr, self.r_attr, self.measure
        )
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        Ok(self.block_par(a, b, &ParConfig::serial())?.0)
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        let la = a.column_strs(&self.l_attr)?;
        let rb = b.column_strs(&self.r_attr)?;
        let tokenizer = self.qgram.map_or(TokSpec::Word, TokSpec::Qgram).tokenizer();
        // Tokenize once (serial), probe over the pool; the join hands its
        // pairs over in `(l, r)` order whatever the worker count.
        let coll = TokenizedCollection::build(&la, &rb, tokenizer.as_ref());
        let (pairs, stats) =
            join_tokenized_pairs(&coll, self.measure, ProbeSide::Auto, self.shards, cfg);
        Ok((CandidateSet::from_sorted(pairs), stats))
    }
}

/// Classic sorted neighborhood: both tables' rows are sorted together by a
/// key expression; cross-table pairs within a sliding window of size `w`
/// become candidates.
#[derive(Debug, Clone)]
pub struct SortedNeighborhoodBlocker {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// Window size (≥ 2 to produce any cross pairs).
    pub window: usize,
}

impl Blocker for SortedNeighborhoodBlocker {
    fn name(&self) -> String {
        format!(
            "sorted_neighborhood({}, {}, w={})",
            self.l_attr, self.r_attr, self.window
        )
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        Ok(self.block_par(a, b, &ParConfig::serial())?.0)
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        let la = a.column_lower(&self.l_attr)?;
        let rb = b.column_lower(&self.r_attr)?;
        // (key, side, row): side 0 = A, 1 = B. Nulls are skipped.
        let mut entries: Vec<(Cow<str>, u8, u32)> = Vec::with_capacity(la.len() + rb.len());
        for (side, keys) in [(0, la), (1, rb)] {
            for (r, v) in keys.into_iter().enumerate() {
                if let Some(v) = v {
                    entries.push((v, side, r as u32));
                }
            }
        }
        entries.sort();
        let w = self.window.max(2);
        // Each window start `i` contributes an independent batch of pairs:
        // chunk the starts over the pool, merge in chunk order.
        let (chunks, stats) = magellan_par::chunk_map(entries.len(), cfg, |range| {
            let mut pairs = Vec::new();
            for i in range {
                for j in (i + 1)..entries.len().min(i + w) {
                    let (x, y) = (&entries[i], &entries[j]);
                    match (x.1, y.1) {
                        (0, 1) => pairs.push((x.2, y.2)),
                        (1, 0) => pairs.push((y.2, x.2)),
                        _ => {}
                    }
                }
            }
            pairs
        });
        Ok((
            CandidateSet::new(chunks.into_iter().flatten().collect()),
            stats,
        ))
    }
}

/// Arbitrary keep-predicate over the cross product — the paper's
/// "black-box blocker". O(|A|·|B|); intended for small inputs, down-sampled
/// tables, or refining an existing candidate set via
/// [`BlackBoxBlocker::refine`].
pub struct BlackBoxBlocker<F: Fn(&Table, usize, &Table, usize) -> bool + Send + Sync> {
    /// Keep predicate: true = keep the pair as a candidate.
    pub keep: F,
    /// Display name.
    pub label: String,
}

impl<F: Fn(&Table, usize, &Table, usize) -> bool + Send + Sync> BlackBoxBlocker<F> {
    /// Construct with a label.
    pub fn new(label: &str, keep: F) -> Self {
        BlackBoxBlocker {
            keep,
            label: label.to_owned(),
        }
    }

    /// Filter an existing candidate set instead of the cross product.
    pub fn refine(&self, cands: &CandidateSet, a: &Table, b: &Table) -> CandidateSet {
        cands
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| (self.keep)(a, ra as usize, b, rb as usize))
            .collect()
    }
}

impl<F: Fn(&Table, usize, &Table, usize) -> bool + Send + Sync> Blocker for BlackBoxBlocker<F> {
    fn name(&self) -> String {
        format!("black_box({})", self.label)
    }

    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        Ok(self.block_par(a, b, &ParConfig::serial())?.0)
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        let n_b = b.nrows();
        let (chunks, stats) = magellan_par::chunk_map(a.nrows(), cfg, |range| {
            let mut pairs = Vec::new();
            for ra in range {
                for rb in 0..n_b {
                    if (self.keep)(a, ra, b, rb) {
                        pairs.push((ra as u32, rb as u32));
                    }
                }
            }
            pairs
        });
        Ok((
            CandidateSet::new(chunks.into_iter().flatten().collect()),
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::{Dtype, Value};

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("state", Dtype::Str),
            ],
            vec![
                vec!["a0".into(), "Dave Smith".into(), "WI".into()],
                vec!["a1".into(), "Joe Wilson".into(), "CA".into()],
                vec!["a2".into(), "Dan Smith".into(), "WI".into()],
                vec!["a3".into(), Value::Null, Value::Null],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("state", Dtype::Str),
            ],
            vec![
                vec!["b0".into(), "David Smith".into(), "WI".into()],
                vec!["b1".into(), "Daniel Smith".into(), "wi".into()],
                vec!["b2".into(), "Maria Garcia".into(), "TX".into()],
            ],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn attr_equivalence_is_case_insensitive_and_null_safe() {
        let (a, b) = tables();
        let c = AttrEquivalenceBlocker::on("state").block(&a, &b).unwrap();
        // WI rows: a0,a2 × b0,b1 (b1 is lowercase "wi").
        assert_eq!(c.pairs(), &[(0, 0), (0, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn hash_blocker_with_many_buckets_equals_equivalence() {
        let (a, b) = tables();
        let eq = AttrEquivalenceBlocker::on("state").block(&a, &b).unwrap();
        let h = HashBlocker {
            l_attr: "state".into(),
            r_attr: "state".into(),
            n_buckets: 1 << 20,
        }
        .block(&a, &b)
        .unwrap();
        // Hash blocking is a superset only on collisions; with 2^20 buckets
        // and 3 values it equals equality blocking.
        assert_eq!(eq, h);
    }

    #[test]
    fn hash_blocker_one_bucket_is_cross_product_of_nonnull() {
        let (a, b) = tables();
        let c = HashBlocker {
            l_attr: "state".into(),
            r_attr: "state".into(),
            n_buckets: 1,
        }
        .block(&a, &b)
        .unwrap();
        assert_eq!(c.len(), 3 * 3); // a3 has null state
    }

    #[test]
    fn overlap_blocker_finds_shared_name_tokens() {
        let (a, b) = tables();
        let c = OverlapBlocker::words("name", 1).block(&a, &b).unwrap();
        // "smith" is shared by a0,a2 with b0,b1; others share nothing.
        assert_eq!(c.pairs(), &[(0, 0), (0, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn simjoin_blocker_jaccard() {
        let (a, b) = tables();
        let c = SimJoinBlocker {
            l_attr: "name".into(),
            r_attr: "name".into(),
            measure: SetSimMeasure::Jaccard(0.5),
            qgram: None,
            shards: 1,
        }
        .block(&a, &b)
        .unwrap();
        // jaccard({dave,smith},{david,smith}) = 1/3 < 0.5 — no survivors at 0.5
        // except none; check the looser threshold finds them.
        assert!(c.is_empty());
        let c = SimJoinBlocker {
            l_attr: "name".into(),
            r_attr: "name".into(),
            measure: SetSimMeasure::Jaccard(0.3),
            qgram: None,
            shards: 1,
        }
        .block(&a, &b)
        .unwrap();
        assert!(c.contains((0, 0)));
    }

    /// The `shards` knob changes only the memory profile of the underlying
    /// join — never the candidate set. Exercised for both sharded blockers
    /// at several K, serial and parallel.
    #[test]
    fn sharded_blockers_equal_monolithic() {
        let (a, b) = tables();
        let base_overlap = OverlapBlocker::words("name", 1).block(&a, &b).unwrap();
        let base_sim = SimJoinBlocker {
            l_attr: "name".into(),
            r_attr: "name".into(),
            measure: SetSimMeasure::Jaccard(0.3),
            qgram: None,
            shards: 1,
        }
        .block(&a, &b)
        .unwrap();
        for k in [2usize, 3, 16] {
            for cfg in [ParConfig::serial(), ParConfig::workers(4)] {
                let (c, _) = OverlapBlocker::words("name", 1)
                    .with_shards(k)
                    .block_par(&a, &b, &cfg)
                    .unwrap();
                assert_eq!(c, base_overlap, "overlap K={k}");
                let (c, _) = SimJoinBlocker {
                    l_attr: "name".into(),
                    r_attr: "name".into(),
                    measure: SetSimMeasure::Jaccard(0.3),
                    qgram: None,
                    shards: 1,
                }
                .with_shards(k)
                .block_par(&a, &b, &cfg)
                .unwrap();
                assert_eq!(c, base_sim, "simjoin K={k}");
            }
        }
    }

    #[test]
    fn sorted_neighborhood_pairs_nearby_names() {
        let (a, b) = tables();
        let c = SortedNeighborhoodBlocker {
            l_attr: "name".into(),
            r_attr: "name".into(),
            window: 3,
        }
        .block(&a, &b)
        .unwrap();
        // Sorted: dan smith, daniel smith, dave smith, david smith, joe
        // wilson, maria garcia. Window 3 catches (a2,b1), (a0,b0), ...
        assert!(c.contains((2, 1)));
        assert!(c.contains((0, 0)));
        // Far-apart names are not paired.
        assert!(!c.contains((1, 2)) || c.contains((1, 2))); // j-w vs m-g adjacent: allowed
    }

    #[test]
    fn black_box_blocker_and_refine() {
        let (a, b) = tables();
        let bb = BlackBoxBlocker::new("same first letter", |a, ra, b, rb| {
            let x = a.value_by_name(ra, "name").unwrap();
            let y = b.value_by_name(rb, "name").unwrap();
            match (x.as_str(), y.as_str()) {
                (Some(x), Some(y)) => x.chars().next() == y.chars().next(),
                _ => false,
            }
        });
        let c = bb.block(&a, &b).unwrap();
        // D* rows of A pair with D* rows of B.
        assert!(c.contains((0, 0)) && c.contains((0, 1)) && c.contains((2, 0)));
        assert!(!c.contains((1, 0)));

        let refined = bb.refine(&CandidateSet::new(vec![(0, 0), (1, 2)]), &a, &b);
        assert_eq!(refined.pairs(), &[(0, 0)]);
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let (a, b) = tables();
        assert!(AttrEquivalenceBlocker::on("zzz").block(&a, &b).is_err());
    }
}
