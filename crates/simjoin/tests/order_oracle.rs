//! Property oracle for the ordering pass: however a join's pairs were
//! emitted — probing either side, over 1–5 shards, on 1, 2 or 4 workers,
//! in chunks of any size — they leave it in the order a comparison sort
//! by `(l, r)` gives, and the blockers' pairs-only join returns exactly
//! the `(l, r)` of the `JoinPair` join.
//!
//! Dense soups give joins with more pairs than left records (the counting
//! pass), a high threshold gives joins with fewer (the sort it falls back
//! to); nulls and empty records ride along.

use magellan_par::ParConfig;
use magellan_simjoin::collection::TokenizedCollection;
use magellan_simjoin::{
    join_tokenized_hashmap, join_tokenized_pairs, join_tokenized_par_side, join_tokenized_sharded,
    join_tokenized_stats, JoinPair, ProbeSide, SetSimMeasure,
};
use magellan_textsim::tokenize::WhitespaceTokenizer;
use proptest::prelude::*;

fn soup(max_len: usize) -> impl Strategy<Value = Vec<Option<String>>> {
    proptest::collection::vec(
        proptest::option::weighted(0.9, "[a-e]{0,2}( [a-e]{1,2}){0,3}"),
        0..max_len,
    )
}

fn measure_of(seed: u8) -> SetSimMeasure {
    match seed % 4 {
        0 => SetSimMeasure::OverlapSize(1),
        1 => SetSimMeasure::Jaccard(0.3),
        2 => SetSimMeasure::Cosine(0.9),
        _ => SetSimMeasure::OverlapSize(2),
    }
}

/// Every pool shape of the grid: 1, 2 and 4 workers, default chunks and
/// chunks of 1, 3 and 16 probe records.
fn pools() -> Vec<ParConfig> {
    let mut out = Vec::new();
    for workers in [1usize, 2, 4] {
        out.push(ParConfig::workers(workers));
        for chunk in [1usize, 3, 16] {
            out.push(ParConfig::workers(workers).with_chunk_size(chunk));
        }
    }
    out
}

fn sorted(pairs: &[JoinPair]) -> Vec<JoinPair> {
    let mut out = pairs.to_vec();
    out.sort_unstable_by_key(|p| (p.l, p.r));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The serial, parallel and sharded joins return their pairs in the
    /// order a sort gives, equal to the preserved reference engine's.
    #[test]
    fn ordering_pass_equals_a_sort(left in soup(40), right in soup(40), seed in any::<u8>()) {
        let coll = TokenizedCollection::build(&left, &right, &WhitespaceTokenizer::new());
        let measure = measure_of(seed);
        let expect = join_tokenized_hashmap(&coll, measure);
        for side in [ProbeSide::Auto, ProbeSide::Left, ProbeSide::Right] {
            let (serial, _) = join_tokenized_stats(&coll, measure, side);
            prop_assert_eq!(&sorted(&serial), &serial, "serial {:?} {:?}", measure, side);
            prop_assert_eq!(&serial, &expect, "serial {:?} {:?}", measure, side);
            for cfg in pools() {
                let (par, _) = join_tokenized_par_side(&coll, measure, side, &cfg);
                prop_assert_eq!(&sorted(&par), &par, "{:?} {:?} {:?}", measure, side, cfg);
                prop_assert_eq!(&par, &expect, "{:?} {:?} {:?}", measure, side, cfg);
                for k in 1..=5 {
                    let (got, _, _) = join_tokenized_sharded(&coll, measure, side, k, &cfg);
                    prop_assert_eq!(&sorted(&got), &got,
                        "K={} {:?} {:?} {:?}", k, measure, side, cfg);
                    prop_assert_eq!(&got, &expect, "K={} {:?} {:?} {:?}", k, measure, side, cfg);
                }
            }
        }
    }

    /// The pairs-only join is the `JoinPair` join without similarities, at
    /// every shard count (1: the monolithic join), and counts the same.
    #[test]
    fn pairs_only_join_equals_the_join_pair_join(
        left in soup(40),
        right in soup(40),
        seed in any::<u8>(),
    ) {
        let coll = TokenizedCollection::build(&left, &right, &WhitespaceTokenizer::new());
        let measure = measure_of(seed);
        for side in [ProbeSide::Auto, ProbeSide::Left, ProbeSide::Right] {
            for cfg in pools() {
                for k in 1..=5 {
                    let (full, full_stats) = if k == 1 {
                        join_tokenized_par_side(&coll, measure, side, &cfg)
                    } else {
                        let (pairs, stats, _) =
                            join_tokenized_sharded(&coll, measure, side, k, &cfg);
                        (pairs, stats)
                    };
                    let (got, stats) = join_tokenized_pairs(&coll, measure, side, k, &cfg);
                    let expect: Vec<(u32, u32)> =
                        full.iter().map(|p| (p.l as u32, p.r as u32)).collect();
                    prop_assert_eq!(&got, &expect, "K={} {:?} {:?} {:?}", k, measure, side, cfg);
                    prop_assert_eq!(stats.join, full_stats.join);
                }
            }
        }
    }
}
