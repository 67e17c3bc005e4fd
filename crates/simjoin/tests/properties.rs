//! Property tests: every sim-join must return *exactly* the pairs the naive
//! cross-product verification returns — the filters may never drop a
//! qualifying pair (no false negatives) nor admit an unqualified one after
//! verification (no false positives).

use magellan_par::ParConfig;
use magellan_simjoin::editjoin::edit_distance_join;
use magellan_simjoin::index::PrefixIndex;
use magellan_simjoin::{
    join_tokenized_hashmap, join_tokenized_par_side, join_tokenized_sharded, join_tokenized_stats,
    join_tokenized_topk, set_sim_join, IncrementalJoin, JoinPair, ProbeSide, RecordMutation,
    SetSimMeasure, Side, TokenizedCollection,
};
use magellan_textsim::seqsim::levenshtein;
use magellan_textsim::setsim;
use magellan_textsim::tokenize::{Tokenizer, WhitespaceTokenizer};
use proptest::prelude::*;

fn strings() -> impl Strategy<Value = Vec<Option<String>>> {
    proptest::collection::vec(
        proptest::option::weighted(0.9, "[ab]{0,3}( [ab]{1,3}){0,3}"),
        1..25,
    )
}

fn naive_set(
    left: &[Option<String>],
    right: &[Option<String>],
    measure: SetSimMeasure,
) -> Vec<(usize, usize)> {
    let tok = WhitespaceTokenizer::new();
    let mut out = Vec::new();
    for (l, a) in left.iter().enumerate() {
        for (r, b) in right.iter().enumerate() {
            let (Some(a), Some(b)) = (a, b) else { continue };
            let ta = tok.tokenize(a);
            let tb = tok.tokenize(b);
            if ta.is_empty() || tb.is_empty() {
                continue;
            }
            let ok = match measure {
                SetSimMeasure::Jaccard(t) => setsim::jaccard(&ta, &tb) >= t - 1e-9,
                SetSimMeasure::Cosine(t) => setsim::cosine(&ta, &tb) >= t - 1e-9,
                SetSimMeasure::Dice(t) => setsim::dice(&ta, &tb) >= t - 1e-9,
                SetSimMeasure::OverlapSize(c) => setsim::overlap_size(&ta, &tb) >= c,
            };
            if ok {
                out.push((l, r));
            }
        }
    }
    out
}

/// 1–5 tokens over a six-word vocabulary, nulls included: the
/// `block_heavy` title shape (short sets, two-token prefixes, nearly every
/// collision with a record that cannot qualify), where a size window that
/// narrows with the probe position does most of the filtering and a live
/// candidate has to catch up on the collisions it was denied. Half are
/// high-reuse titles — brand, kind and model from pools of three or four,
/// an adjective three times in four — so records repeat or differ in one
/// token, and stage 2's remainder bitmaps decide most candidates.
fn short_records() -> impl Strategy<Value = Vec<Option<String>>> {
    let words = proptest::collection::vec(0u8..6, 1..=5).prop_map(|toks| {
        toks.iter()
            .map(|t| format!("w{t}"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    let titles = (0u8..3, 0u8..4, 0u8..3, 0u8..4).prop_map(|(b, a, k, m)| {
        let adj = if a == 3 {
            String::new()
        } else {
            format!(" a{a}")
        };
        format!("b{b}{adj} k{k} m{m}")
    });
    proptest::collection::vec(
        proptest::option::weighted(0.9, prop_oneof![words, titles]),
        1..40,
    )
}

/// The naive cross-product oracle with exact similarities, from the same
/// `setsim` arithmetic the engine must reproduce, in `(l, r)` order.
fn naive_pairs(
    left: &[Option<String>],
    right: &[Option<String>],
    measure: SetSimMeasure,
) -> Vec<JoinPair> {
    let tok = WhitespaceTokenizer::new();
    let mut oracle = Vec::new();
    for (l, a) in left.iter().enumerate() {
        for (r, b) in right.iter().enumerate() {
            let (Some(a), Some(b)) = (a, b) else { continue };
            let ta = tok.tokenize(a);
            let tb = tok.tokenize(b);
            if ta.is_empty() || tb.is_empty() {
                continue;
            }
            let (ok, sim) = match measure {
                SetSimMeasure::Jaccard(t) => {
                    let s = setsim::jaccard(&ta, &tb);
                    (s >= t - 1e-9, s)
                }
                SetSimMeasure::Cosine(t) => {
                    let s = setsim::cosine(&ta, &tb);
                    (s >= t - 1e-9, s)
                }
                SetSimMeasure::Dice(t) => {
                    let s = setsim::dice(&ta, &tb);
                    (s >= t - 1e-9, s)
                }
                SetSimMeasure::OverlapSize(c) => {
                    let s = setsim::overlap_size(&ta, &tb);
                    (s >= c, s as f64)
                }
            };
            if ok {
                oracle.push(JoinPair { l, r, sim });
            }
        }
    }
    oracle
}

fn bits(pairs: &[JoinPair]) -> Vec<(usize, usize, u64)> {
    pairs.iter().map(|p| (p.l, p.r, p.sim.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jaccard_join_equals_naive(left in strings(), right in strings(), t in 0.05f64..1.0) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(t))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::Jaccard(t)));
    }

    #[test]
    fn cosine_join_equals_naive(left in strings(), right in strings(), t in 0.05f64..1.0) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::Cosine(t))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::Cosine(t)));
    }

    #[test]
    fn dice_join_equals_naive(left in strings(), right in strings(), t in 0.05f64..1.0) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::Dice(t))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::Dice(t)));
    }

    #[test]
    fn overlap_join_equals_naive(left in strings(), right in strings(), c in 1usize..4) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::OverlapSize(c))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::OverlapSize(c)));
    }

    /// The full oracle grid for the CSR engine: random token soups ×
    /// all four measures × thresholds {0.3, 0.6, 0.8, 1.0} (mapped to
    /// small absolute counts for `OverlapSize`) × probe sides
    /// {Auto, Left, Right} × worker counts {1, 4}. Every cell must be
    /// **bit-identical** — same `(l, r)` pair set in the same order and
    /// the exact same f64 similarity — to the naive cross-product oracle
    /// and to the preserved pre-CSR HashMap engine.
    #[test]
    fn csr_engine_grid_equals_naive_oracle(left in strings(), right in strings()) {
        let tok = WhitespaceTokenizer::new();
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measures = [
            SetSimMeasure::Jaccard(0.3), SetSimMeasure::Jaccard(0.6),
            SetSimMeasure::Jaccard(0.8), SetSimMeasure::Jaccard(1.0),
            SetSimMeasure::Cosine(0.3), SetSimMeasure::Cosine(0.6),
            SetSimMeasure::Cosine(0.8), SetSimMeasure::Cosine(1.0),
            SetSimMeasure::Dice(0.3), SetSimMeasure::Dice(0.6),
            SetSimMeasure::Dice(0.8), SetSimMeasure::Dice(1.0),
            SetSimMeasure::OverlapSize(1), SetSimMeasure::OverlapSize(2),
            SetSimMeasure::OverlapSize(3),
        ];
        for measure in measures {
            let oracle = naive_pairs(&left, &right, measure);
            let reference = join_tokenized_hashmap(&coll, measure);
            prop_assert_eq!(&reference, &oracle, "reference vs oracle {:?}", measure);
            for side in [ProbeSide::Auto, ProbeSide::Left, ProbeSide::Right] {
                let (serial, stats) = join_tokenized_stats(&coll, measure, side);
                prop_assert_eq!(&serial, &oracle, "serial {:?} {:?}", measure, side);
                prop_assert_eq!(stats.pairs, oracle.len());
                for workers in [1usize, 4] {
                    let (par, pstats) = join_tokenized_par_side(
                        &coll, measure, side, &ParConfig::workers(workers));
                    prop_assert_eq!(&par, &oracle,
                        "par {:?} {:?} workers={}", measure, side, workers);
                    prop_assert_eq!(pstats.join.pairs, oracle.len());
                }
            }
        }
    }

    /// The same oracle over [`short_records`]: all four measures × probe
    /// sides × workers {1, 4} × shards {1, 4}, the cascade identities on
    /// every run, top-k bounds against the oracle sorted by similarity,
    /// and one mutation sequence (insert everything in three batches, then
    /// re-write and delete a third of each side) whose live view must
    /// equal the oracle over the surviving texts.
    #[test]
    fn short_records_equal_naive_oracle(left in short_records(), right in short_records()) {
        let tok = WhitespaceTokenizer::new();
        let coll = TokenizedCollection::build(&left, &right, &tok);
        for measure in [
            SetSimMeasure::Jaccard(0.5), SetSimMeasure::Jaccard(0.7),
            SetSimMeasure::Cosine(0.7), SetSimMeasure::Dice(0.7),
            SetSimMeasure::OverlapSize(2),
        ] {
            let oracle = naive_pairs(&left, &right, measure);
            let mut ranked = oracle.clone();
            ranked.sort_by(|x, y| y.sim.total_cmp(&x.sim));
            for k in [1, 7, ranked.len()] {
                let (top, js) = join_tokenized_topk(&coll, measure, k, |_, _| true);
                prop_assert_eq!(bits(&top), bits(&ranked[..k.min(ranked.len())]),
                    "top-{} {:?}", k, measure);
                prop_assert_eq!(js.candidates, js.killed_by_position + js.verified);
                prop_assert_eq!(js.verified, js.killed_by_suffix + js.pairs);
            }
            for side in [ProbeSide::Auto, ProbeSide::Left, ProbeSide::Right] {
                for workers in [1usize, 4] {
                    for shards in [1usize, 4] {
                        let (got, pstats, _) = join_tokenized_sharded(
                            &coll, measure, side, shards, &ParConfig::workers(workers));
                        prop_assert_eq!(&got, &oracle,
                            "{:?} {:?} workers={} shards={}", measure, side, workers, shards);
                        let js = pstats.join;
                        prop_assert_eq!(js.candidates, js.killed_by_position + js.verified);
                        prop_assert_eq!(js.verified, js.killed_by_suffix + oracle.len());
                    }
                }
            }

            let mut eng = IncrementalJoin::new(measure);
            let inserts: Vec<RecordMutation> = left.iter().map(|t| (Side::Left, t))
                .chain(right.iter().map(|t| (Side::Right, t)))
                .map(|(side, text)| RecordMutation::Insert { side, text: text.clone() })
                .collect();
            let rewrites = (0..left.len()).step_by(3).map(|rid| RecordMutation::Update {
                side: Side::Left, rid, text: right[rid % right.len()].clone(),
            });
            let deletes = (0..right.len()).step_by(3)
                .map(|rid| RecordMutation::Delete { side: Side::Right, rid });
            let churn: Vec<RecordMutation> = rewrites.chain(deletes).collect();
            let third = inserts.len().div_ceil(3);
            for batch in inserts.chunks(third).chain([&churn[..]]) {
                let (_, stats) = eng.apply_batch(batch, &tok, &ParConfig::serial());
                prop_assert_eq!(stats.candidates, stats.killed_by_position + stats.verified);
                prop_assert_eq!(stats.verified, stats.killed_by_suffix + stats.pairs);
                let live = eng.live_pairs();
                prop_assert_eq!(&live,
                    &naive_pairs(eng.texts(Side::Left), eng.texts(Side::Right), measure),
                    "live view after a batch, {:?}", measure);
            }
        }
    }

    #[test]
    fn edit_join_equals_naive(
        left in proptest::collection::vec(proptest::option::weighted(0.9, "[ab]{0,6}"), 1..20),
        right in proptest::collection::vec(proptest::option::weighted(0.9, "[ab]{0,6}"), 1..20),
        d in 0usize..3,
    ) {
        let fast: Vec<(usize, usize)> = edit_distance_join(&left, &right, d)
            .into_iter().map(|p| (p.l, p.r)).collect();
        let mut slow = Vec::new();
        for (l, a) in left.iter().enumerate() {
            for (r, b) in right.iter().enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if levenshtein(a, b) <= d {
                        slow.push((l, r));
                    }
                }
            }
        }
        prop_assert_eq!(fast, slow);
    }
}

/// `block_heavy` in miniature: two catalogs listing the same products
/// as 3–5-token titles (three in four have 4) whose second-rarest token
/// comes from a small pool, so nearly every prefix collision is at
/// probe position 1 with a record that cannot qualify.
fn short_titles(seed: u64, n: usize) -> Vec<Option<String>> {
    let mut state = 3u64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let catalog: Vec<String> = (0..200)
        .map(|_| {
            let (brand, adj, kind) = (next(6), next(5), next(4));
            let adj = match next(8) {
                0 => String::new(),
                1 => format!(" a{adj} x{}", next(30)),
                _ => format!(" a{adj}"),
            };
            format!("b{brand}{adj} k{kind} m{}", next(150))
        })
        .collect();
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Some(catalog[(state >> 33) as usize % catalog.len()].clone())
        })
        .collect()
}

/// Count guard for the position-aware size window and the remainder
/// bitmaps, on the shape they are there for. At bd9d566, where the window
/// ended at `hi` for every probe position, `(candidates, killed_by_position,
/// killed_by_suffix, verified, verify_steps, pairs)` read
/// `(8134, 6680, 819, 1454, 2389, 635)`; at 0a37532, with the window
/// narrowed, `(1474, 20, 819, 1454, 2389, 635)` and `killed_by_size` 7245.
/// `candidates`, `killed_by_size` and `pairs` are pinned to the 0a37532
/// literals; stage 2 now compares the remainders' bitmaps, so the 819
/// records the merge rejected there are rejected at a collision.
#[test]
fn short_titles_touch_few_records_they_do_not_verify() {
    let tok = WhitespaceTokenizer::new();
    let coll = TokenizedCollection::build(&short_titles(51, 400), &short_titles(53, 300), &tok);
    let (_, s) = join_tokenized_stats(&coll, SetSimMeasure::Jaccard(0.7), ProbeSide::Auto);
    assert_eq!((s.candidates, s.killed_by_size, s.pairs), (1474, 7245, 635));
    assert_eq!(
        (
            s.killed_by_position,
            s.killed_by_suffix,
            s.verified,
            s.verify_steps
        ),
        (839, 0, 635, 1389)
    );
    assert!(10 * s.verified <= 11 * s.pairs);
}

/// The bit token `t` sets in a remainder bitmap, as `Posting::rest`
/// documents it.
fn bit(t: u32) -> u32 {
    1 << (t.wrapping_mul(0x9E37_79B9) >> 27)
}

/// A sorted id set of one class: 0 small ids, 1 ids that all set one bit,
/// 2 small ids plus one larger id per bit (remainders that fill all 32),
/// 3 keys near `u32::MAX` (the incremental tier's `u32::MAX − id` order).
fn id_set(class: u8, raw: &[u32]) -> Vec<u32> {
    let one_bit: Vec<u32> = (0..).filter(|&t| bit(t) == 1).take(64).collect();
    let mut set: Vec<u32> = raw
        .iter()
        .map(|&r| match class {
            1 => one_bit[r as usize],
            3 => u32::MAX - r,
            _ => r,
        })
        .collect();
    if class == 2 {
        let mut seen = 0u32;
        for t in 1_000.. {
            if seen & bit(t) == 0 {
                seen |= bit(t);
                set.push(t);
            }
            if seen == u32::MAX {
                break;
            }
        }
    }
    set.sort_unstable();
    set.dedup();
    set
}

/// Each position's remainder bitmap, as an index over the set stores it:
/// the batch engine's [`PrefixIndex`] for classes 0–2, the incremental
/// tier's lists for its `u32::MAX − id` keys (class 3).
fn rests(class: u8, set: &[u32]) -> Vec<u32> {
    if class != 3 {
        let idx = PrefixIndex::build_column(&[set].into_iter().collect(), |n| n);
        return set.iter().map(|&t| idx.postings(t)[0].rest).collect();
    }
    // Interning `w0 … w63` first gives `wN` the key `u32::MAX − N`; an
    // overlap-1 join indexes every position.
    let words = |ids: Vec<u32>| ids.iter().map(|i| format!("w{i}")).collect::<Vec<_>>();
    let batch = [
        (0..64).collect(),
        set.iter().map(|&k| u32::MAX - k).collect(),
    ]
    .map(|ids| RecordMutation::Insert {
        side: Side::Left,
        text: Some(words(ids).join(" ")),
    });
    let mut eng = IncrementalJoin::new(SetSimMeasure::OverlapSize(1));
    eng.apply_batch(&batch, &WhitespaceTokenizer::new(), &ParConfig::serial());
    assert_eq!(eng.key_set(Side::Left, 1), set);
    let mut rest = vec![0; set.len()];
    for (_, p) in eng.prefix_postings(Side::Left) {
        if p.rid == 1 {
            rest[p.pos as usize] = p.rest;
        }
    }
    rest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Stage 2's remainder bound on sorted id sets: every posting carries
    /// the documented bitmap of the tokens after it, and at every collision
    /// `x[px] == y[py]` the two bitmaps differ in `h ≤ rx + ry` bits and the
    /// remainders share at most `(rx + ry − h) / 2` tokens, empty
    /// remainders (`rx = 0` or `ry = 0`) included.
    #[test]
    fn remainder_bitmap_bound_holds_at_every_collision(
        class in 0u8..4,
        a in proptest::collection::vec(0u32..64, 0..48),
        b in proptest::collection::vec(0u32..64, 0..48),
    ) {
        let (x, y) = (id_set(class, &a), id_set(class, &b));
        let (bx, by) = (rests(class, &x), rests(class, &y));
        for (set, rest) in [(&x, &bx), (&y, &by)] {
            for (p, &r) in rest.iter().enumerate() {
                prop_assert_eq!(r, set[p + 1..].iter().fold(0, |m, &t| m | bit(t)));
            }
        }
        for (px, py) in (0..x.len()).flat_map(|px| (0..y.len()).map(move |py| (px, py))) {
            if x[px] != y[py] {
                continue;
            }
            let (rx, ry) = (x.len() - px - 1, y.len() - py - 1);
            let h = (bx[px] ^ by[py]).count_ones() as usize;
            let shared = x[px + 1..].iter().filter(|t| y[py + 1..].binary_search(t).is_ok()).count();
            prop_assert!(h <= rx + ry, "class {} h={} rx={} ry={}", class, h, rx, ry);
            prop_assert!(shared <= (rx + ry - h) / 2,
                "class {} at ({}, {}): {} shared, bound {}", class, px, py, shared, (rx + ry - h) / 2);
        }
    }
}
