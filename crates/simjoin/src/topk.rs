//! Top-k set-similarity join: the threshold join's cascade under a
//! threshold that rises as better pairs are found.
//!
//! A caller who wants "the `k` most similar pairs" and asks a threshold
//! join for them pays for every pair above the floor — tens of thousands
//! to keep a few hundred. [`join_tokenized_topk`] keeps a bounded heap of
//! the best `k` pairs seen and probes each record at the heap's worst
//! similarity instead of the floor, so prefixes shorten, size windows
//! narrow and verification merges stop early as the run goes on. It
//! starts halfway up from the floor, where the answer usually lies, and
//! comes down to the floor only if it does not (DESIGN.md §7.5).
//!
//! One index, built at the floor, serves every higher threshold: a
//! record's prefix at threshold `t' ≥ t` is a leading part of its prefix
//! at `t`, so the floor's postings are a superset of what a `t'`-index
//! would hold, in the same `(size, rid)` order. [`Raised`] filters that
//! superset down to exactly the `t'` postings, which makes a probe at the
//! current bound do the work a fresh join at that bound would.

use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;

use magellan_par::JoinStats;

use crate::collection::TokenizedCollection;
use crate::index::PrefixIndex;
use crate::join::{
    probe_one, with_scratch, JoinPair, Packed, ProbePlan, ProbeSide, ProbeTarget, SetSimMeasure,
    PROBE_STAMPS,
};

/// The `k` most similar pairs of a collection: of the pairs with
/// similarity at least `floor`'s threshold that `keep(l, r)` admits, the
/// first `k` by `(similarity descending, l ascending, r ascending)`.
///
/// **Defined as** [`crate::join_tokenized`]`(coll, floor)` → retain `keep`
/// → stable sort by similarity descending → `truncate(k)`, and bit-equal
/// to it: same pairs, same order, same `f64` bits, for every measure.
/// `keep` is consulted only for pairs that would otherwise enter the
/// result, in no particular order and possibly twice for a pair (the run
/// may take two passes).
///
/// The returned [`JoinStats`] count the work this run did — both passes —
/// not the work of the defining pipeline: `pairs` is the number of
/// verified pairs that met the bound in force when they were probed (at
/// least the length of the result), and the cascade identities
/// `candidates == killed_by_position + verified` and
/// `verified == killed_by_suffix + pairs` hold as they do for a threshold
/// join. Postings passed over because they lie beyond a record's prefix at
/// the raised bound are not counted anywhere, unless the size window (as
/// narrowed at the probe position) skips them first: `killed_by_size`.
///
/// ```
/// use magellan_simjoin::{join_tokenized_topk, SetSimMeasure, TokenizedCollection};
/// use magellan_textsim::tokenize::WhitespaceTokenizer;
///
/// let left = vec![Some("dave smith madison"), Some("joe wilson")];
/// let right = vec![Some("dave smith"), Some("dave smith madison"), Some("joe")];
/// let coll = TokenizedCollection::build(&left, &right, &WhitespaceTokenizer::new());
/// let (top, _) = join_tokenized_topk(&coll, SetSimMeasure::Jaccard(0.2), 2, |_, _| true);
/// let ranked: Vec<_> = top.iter().map(|p| (p.l, p.r)).collect();
/// assert_eq!(ranked, vec![(0, 1), (0, 0)]);
/// ```
pub fn join_tokenized_topk(
    coll: &TokenizedCollection,
    floor: SetSimMeasure,
    k: usize,
    keep: impl FnMut(usize, usize) -> bool,
) -> (Vec<JoinPair>, JoinStats) {
    topk_side(coll, floor, k, keep, ProbeSide::Auto)
}

/// [`join_tokenized_topk`] with an explicit probe side (output identical
/// for every side, like the threshold join's).
pub(crate) fn topk_side(
    coll: &TokenizedCollection,
    floor: SetSimMeasure,
    k: usize,
    mut keep: impl FnMut(usize, usize) -> bool,
    side: ProbeSide,
) -> (Vec<JoinPair>, JoinStats) {
    floor.validate();
    let mut stats = JoinStats::default();
    if k == 0 {
        return (Vec::new(), stats);
    }
    let plan = ProbePlan::choose(coll, side);
    let index = PrefixIndex::build_column(plan.indexed, |s| floor.prefix_len(s));
    magellan_obs::span_res_add("csr_index_bytes", index.index_bytes() as u64);
    let packed = Packed {
        records: plan.indexed,
        index: &index,
    };
    let mut best = Best::new(k);
    let mut found = Vec::new();
    // Two passes at most. The first starts halfway up from the floor,
    // where probing is many times cheaper; it has the answer if it ends
    // with `k` pairs above its starting point. Otherwise what it found is
    // dropped and the second starts at the floor.
    for start in [floor.halfway_up(coll), floor] {
        best.clear();
        let mut bound = start;
        let stamp_base = PROBE_STAMPS.fetch_add(plan.probe.len() as u64, Ordering::Relaxed);
        // The result does not depend on the probe order (the ranking is
        // total), only the work does.
        for (p, x) in plan.probe.iter().enumerate() {
            let target = Raised {
                packed: &packed,
                bound,
            };
            // The scratch is borrowed per probe, not around the loop:
            // `keep` is the caller's code and may run a join of its own.
            with_scratch(plan.indexed.len(), |scratch| {
                probe_one(
                    p as u32, // a column holds at most `u32::MAX` records
                    stamp_base + p as u64,
                    x,
                    &target,
                    bound,
                    plan.swap,
                    scratch,
                    &mut found,
                    &mut stats,
                );
            });
            stats.pairs += found.len();
            for pair in found.drain(..).map(Ranked) {
                // Ties with the k-th similarity get this far (the filters
                // keep a pair *at* their threshold) and are settled by
                // `(l, r)`.
                if best.has_room_for(&pair) && keep(pair.0.l, pair.0.r) {
                    best.admit(pair);
                }
            }
            if let Some(kth) = best.kth() {
                // Never above the k-th best: pairs tying it must still be
                // found, whichever record probes them.
                bound = start.at_least(kth.0.sim);
            }
        }
        // `bound != start`: the k-th best lies strictly above `start`, so
        // no pair this pass could not see (one below `start`) can displace
        // it.
        if start == floor || (best.kth().is_some() && bound != start) {
            break;
        }
    }
    stats.probe_swaps = plan.swap as usize;
    stats.publish();
    (best.into_sorted(), stats)
}

/// The best `k` admitted pairs so far: a plain list while there are fewer
/// than `k` (a query whose `k` exceeds the whole join never pays for a
/// heap), a worst-first heap from the `k`-th on.
struct Best {
    k: usize,
    few: Vec<Ranked>,
    full: BinaryHeap<Ranked>,
}

impl Best {
    fn new(k: usize) -> Self {
        Best {
            k,
            few: Vec::new(),
            full: BinaryHeap::new(),
        }
    }

    fn clear(&mut self) {
        self.few.clear();
        self.full.clear();
    }

    /// The k-th best pair, once `k` were admitted.
    fn kth(&self) -> Option<&Ranked> {
        self.full.peek()
    }

    fn has_room_for(&self, pair: &Ranked) -> bool {
        self.kth().is_none_or(|worst| pair < worst)
    }

    /// Take in a pair there [`Best::has_room_for`], evicting the k-th best.
    fn admit(&mut self, pair: Ranked) {
        if self.full.is_empty() {
            self.few.push(pair);
            if self.few.len() == self.k {
                self.full = std::mem::take(&mut self.few).into();
            }
        } else {
            *self.full.peek_mut().expect("checked non-empty") = pair;
        }
    }

    /// Best first: similarity descending, then `(l, r)` ascending.
    fn into_sorted(self) -> Vec<JoinPair> {
        let mut ranked = if self.full.is_empty() {
            self.few
        } else {
            self.full.into_vec()
        };
        ranked.sort_unstable();
        ranked.into_iter().map(|r| r.0).collect()
    }
}

/// A pair under the result's ranking: **greater is worse** (lower
/// similarity, then larger `(l, r)`), so a max-heap surfaces the pair to
/// evict and an ascending sort is best-first.
#[derive(Clone, Copy, PartialEq)]
struct Ranked(JoinPair);

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Similarities are finite and positive, where `total_cmp` is the
        // numeric order.
        other
            .0
            .sim
            .total_cmp(&self.0.sim)
            .then_with(|| (self.0.l, self.0.r).cmp(&(other.0.l, other.0.r)))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A floor-built index seen at a higher threshold: only the postings
/// inside each record's prefix *at `bound`* are live, and a record's
/// prefix length is its length at `bound` — what an index built at
/// `bound` would hold, posting for posting.
struct Raised<'a> {
    packed: &'a Packed<'a>,
    bound: SetSimMeasure,
}

impl ProbeTarget for Raised<'_> {
    #[inline]
    fn for_each_posting(
        &self,
        tok: u32,
        lo: usize,
        hi: usize,
        stats: &mut JoinStats,
        mut f: impl FnMut(u32, u32, u32, u32),
    ) {
        // Postings are size-sorted: one prefix length per run of a size.
        let (mut memo_size, mut memo_plen) = (u32::MAX, 0u32);
        self.packed
            .for_each_posting(tok, lo, hi, stats, |rid, pos, size, rest| {
                if size != memo_size {
                    memo_size = size;
                    memo_plen = self.bound.prefix_len(size as usize) as u32;
                }
                if pos < memo_plen {
                    f(rid, pos, size, rest);
                }
            });
    }

    #[inline]
    fn record(&self, rid: usize) -> (&[u32], usize) {
        let y = self.packed.record(rid).0;
        (y, self.bound.prefix_len(y.len()).min(y.len()))
    }

    #[inline]
    fn may_hold(&self, tok: u32) -> bool {
        self.packed.may_hold(tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::join_tokenized_stats;
    use magellan_textsim::tokenize::WhitespaceTokenizer;
    use proptest::prelude::*;

    /// The definition: threshold join → retain → stable sort → truncate.
    fn defining_pipeline(
        coll: &TokenizedCollection,
        floor: SetSimMeasure,
        k: usize,
        mut keep: impl FnMut(usize, usize) -> bool,
    ) -> Vec<JoinPair> {
        let (mut joined, _) = join_tokenized_stats(coll, floor, ProbeSide::Auto);
        joined.retain(|p| keep(p.l, p.r));
        joined.sort_by(|x, y| y.sim.partial_cmp(&x.sim).expect("similarities are finite"));
        joined.truncate(k);
        joined
    }

    fn bits(pairs: &[JoinPair]) -> Vec<(usize, usize, u64)> {
        pairs.iter().map(|p| (p.l, p.r, p.sim.to_bits())).collect()
    }

    /// Tie-heavy soups: ≤ 8 tokens from a 12-word vocabulary, with nulls
    /// and empty strings.
    fn soup() -> impl Strategy<Value = Vec<Option<String>>> {
        proptest::collection::vec(
            proptest::option::weighted(
                0.9,
                proptest::collection::vec(0u8..12, 0..=8).prop_map(|toks| {
                    toks.iter()
                        .map(|t| format!("w{t}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                }),
            ),
            0..30,
        )
    }

    fn keeps(l: usize, r: usize, mode: u8, salt: u64) -> bool {
        match mode {
            0 => true,
            1 => false,
            _ => {
                let h = (l as u64 * 0x9E37_79B9 + r as u64 * 0x85EB_CA6B + salt)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D);
                h >> 63 == 0
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn topk_equals_its_defining_pipeline(
            left in soup(),
            right in soup(),
            t in 0.05f64..1.0,
            c in 1usize..4,
            salt in any::<u64>(),
        ) {
            let coll = TokenizedCollection::build(&left, &right, &WhitespaceTokenizer::new());
            for floor in [
                SetSimMeasure::Jaccard(t),
                SetSimMeasure::Cosine(t),
                SetSimMeasure::Dice(t),
                SetSimMeasure::OverlapSize(c),
            ] {
                for mode in 0..3u8 {
                    let all = defining_pipeline(&coll, floor, usize::MAX, |l, r| keeps(l, r, mode, salt));
                    for k in [0, 1, 7, all.len(), all.len() + 5] {
                        let want = bits(&all[..k.min(all.len())]);
                        for side in [ProbeSide::Left, ProbeSide::Right] {
                            let (got, stats) =
                                topk_side(&coll, floor, k, |l, r| keeps(l, r, mode, salt), side);
                            prop_assert_eq!(
                                bits(&got), want.clone(),
                                "{:?} k={} mode={} {:?}", floor, k, mode, side
                            );
                            prop_assert_eq!(stats.candidates, stats.killed_by_position + stats.verified);
                            prop_assert_eq!(stats.verified, stats.killed_by_suffix + stats.pairs);
                            prop_assert!(stats.pairs >= got.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ties_with_the_kth_similarity_are_broken_by_id() {
        // Every cross pair has Jaccard 1: the top 3 are the 3 smallest ids,
        // whichever record meets them first.
        let side = vec![Some("a b"); 4];
        let coll = TokenizedCollection::build(&side, &side, &WhitespaceTokenizer::new());
        for probe in [ProbeSide::Left, ProbeSide::Right] {
            let (top, _) = topk_side(&coll, SetSimMeasure::Jaccard(0.5), 3, |_, _| true, probe);
            assert_eq!(
                bits(&top),
                vec![
                    (0, 0, 1f64.to_bits()),
                    (0, 1, 1f64.to_bits()),
                    (0, 2, 1f64.to_bits())
                ]
            );
            // "All of them" is a legal `k`, and allocates for none.
            let (all, _) = topk_side(
                &coll,
                SetSimMeasure::Jaccard(0.5),
                usize::MAX,
                |_, _| true,
                probe,
            );
            assert_eq!(all.len(), 16);
        }
    }

    /// `keep` is the caller's code: it may join on this thread, which
    /// borrows the same thread-local probe scratch.
    #[test]
    fn keep_may_run_a_join_of_its_own() {
        let side = vec![Some("a b"), Some("a c")];
        let coll = TokenizedCollection::build(&side, &side, &WhitespaceTokenizer::new());
        let (top, _) = join_tokenized_topk(&coll, SetSimMeasure::Jaccard(0.2), 3, |l, r| {
            let equal = crate::join_tokenized(&coll, SetSimMeasure::Jaccard(1.0));
            equal.iter().any(|p| (p.l, p.r) == (l, r))
        });
        assert_eq!(
            bits(&top),
            vec![(0, 0, 1f64.to_bits()), (1, 1, 1f64.to_bits())]
        );
    }

    #[test]
    fn empty_sides_and_all_null_columns_return_nothing() {
        let tok = WhitespaceTokenizer::new();
        let none: Vec<Option<String>> = Vec::new();
        let nulls: Vec<Option<String>> = vec![None, None];
        let some = vec![Some("a b".to_owned())];
        for (l, r) in [
            (&none, &some),
            (&some, &none),
            (&nulls, &some),
            (&nulls, &nulls),
        ] {
            let coll = TokenizedCollection::build(l, r, &tok);
            let (top, stats) =
                join_tokenized_topk(&coll, SetSimMeasure::Jaccard(0.2), 5, |_, _| true);
            assert!(top.is_empty());
            assert_eq!(stats.pairs, 0);
        }
    }
}
