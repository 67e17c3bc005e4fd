//! Property oracle for the incremental tier: under *any* random sequence
//! of inserts, deletes, and in-place updates — across all four set
//! measures and multiple worker counts — the delta-maintained live view
//! must stay **bit-identical** (same `(l, r)` pair set, exact same f64
//! similarity bits) to a from-scratch batch join over the current
//! records, and the signed deltas must replay to the same view.
//!
//! The delta probe runs the batch engine's size → positional → suffix
//! cascade over CSR + tail, so the generated texts are shaped to reach it:
//! sets of up to 12 tokens over a 12-token vocabulary (prefixes collide
//! many times per pair), the same rid re-written twice in a batch, updates
//! to never-seen tokens whose partner arrives a batch later, compaction
//! policies from "every batch" to "never", and a kill/restore mid-stream.

use std::collections::BTreeMap;

use magellan_par::{JoinStats, ParConfig};
use magellan_simjoin::{
    join_tokenized_stats, IncrementalJoin, JoinPair, PairDelta, ProbeSide, RecordMutation,
    SetSimMeasure, Side, TokenizedCollection,
};
use magellan_textsim::tokenize::WhitespaceTokenizer;
use proptest::prelude::*;

/// Abstract op: sides are booleans, victims are raw words reduced modulo
/// the record count at apply time (so every generated sequence is valid).
#[derive(Debug, Clone)]
enum Op {
    Insert(bool, Option<String>),
    Delete(bool, u16),
    Update(bool, u16, Option<String>),
    /// The same rid re-written twice within one batch.
    UpdateTwice(bool, u16, Option<String>, Option<String>),
    /// Re-write a record to a text of never-seen tokens; the same text
    /// arrives on the other side at the head of the *next* batch, so the
    /// pair must join through tokens younger than every packed index.
    Fresh(bool, u16),
    /// Kill the engine and restore it from texts + view + generations (a
    /// fresh interner assigns different ids, a fresh pack a different
    /// layout).
    Restore,
}

/// Mostly 1–12 tokens over a 12-token vocabulary (heavy prefix sharing);
/// some short/empty strings for the no-token edge.
fn text() -> impl Strategy<Value = Option<String>> {
    proptest::option::weighted(
        0.9,
        prop_oneof![
            3 => proptest::collection::vec(0u8..12, 1..=12).prop_map(|ids| {
                ids.iter().map(|i| format!("t{i}")).collect::<Vec<_>>().join(" ")
            }),
            1 => "[ab]{0,3}( [ab]{1,3}){0,3}",
        ],
    )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (any::<bool>(), text()).prop_map(|(s, t)| Op::Insert(s, t)),
            2 => (any::<bool>(), any::<u16>()).prop_map(|(s, v)| Op::Delete(s, v)),
            3 => (any::<bool>(), any::<u16>(), text()).prop_map(|(s, v, t)| Op::Update(s, v, t)),
            1 => (any::<bool>(), any::<u16>(), text(), text())
                .prop_map(|(s, v, t, u)| Op::UpdateTwice(s, v, t, u)),
            1 => (any::<bool>(), any::<u16>()).prop_map(|(s, v)| Op::Fresh(s, v)),
            1 => Just(Op::Restore),
        ],
        1..48,
    )
}

fn side_of(left: bool) -> Side {
    if left {
        Side::Left
    } else {
        Side::Right
    }
}

/// What materialization carries from one batch to the next.
#[derive(Default)]
struct Feed {
    /// Partner inserts owed by earlier [`Op::Fresh`]es.
    pending: Vec<RecordMutation>,
    /// Fresh texts minted so far (each gets its own token names).
    minted: usize,
}

/// Resolve abstract ops against the engine's current population; ops
/// against an empty side are dropped (nothing to delete/update yet).
fn materialize(engine: &IncrementalJoin, ops: &[Op], feed: &mut Feed) -> Vec<RecordMutation> {
    let mut out = std::mem::take(&mut feed.pending);
    // Count records as the batch will see them applied *sequentially*:
    // an insert earlier in the batch is a valid victim later in it.
    let mut n = [engine.n_records(Side::Right), engine.n_records(Side::Left)];
    for m in &out {
        if let RecordMutation::Insert { side, .. } = m {
            n[usize::from(*side == Side::Left)] += 1;
        }
    }
    for op in ops {
        let update = |left: bool, v: u16, text: &Option<String>| RecordMutation::Update {
            side: side_of(left),
            rid: v as usize % n[usize::from(left)],
            text: text.clone(),
        };
        match op {
            Op::Insert(left, text) => {
                n[usize::from(*left)] += 1;
                out.push(RecordMutation::Insert {
                    side: side_of(*left),
                    text: text.clone(),
                });
            }
            Op::Delete(left, v) if n[usize::from(*left)] > 0 => out.push(RecordMutation::Delete {
                side: side_of(*left),
                rid: *v as usize % n[usize::from(*left)],
            }),
            Op::Update(left, v, text) if n[usize::from(*left)] > 0 => {
                out.push(update(*left, *v, text));
            }
            Op::UpdateTwice(left, v, first, second) if n[usize::from(*left)] > 0 => {
                out.push(update(*left, *v, first));
                out.push(update(*left, *v, second));
            }
            Op::Fresh(left, v) if n[usize::from(*left)] > 0 => {
                let k = feed.minted;
                feed.minted += 1;
                let text = Some(format!("new{k}a new{k}b new{k}c"));
                out.push(update(*left, *v, &text));
                feed.pending.push(RecordMutation::Insert {
                    side: side_of(!*left),
                    text,
                });
            }
            _ => {}
        }
    }
    out
}

fn restored(
    engine: &IncrementalJoin,
    tok: &WhitespaceTokenizer,
    threshold: f64,
) -> IncrementalJoin {
    IncrementalJoin::restore(
        engine.measure(),
        tok,
        engine.texts(Side::Left).to_vec(),
        engine.texts(Side::Right).to_vec(),
        engine.live_pairs(),
        engine.index_generation(Side::Left),
        engine.index_generation(Side::Right),
    )
    .with_compaction_threshold(threshold)
}

fn bits(pairs: &[JoinPair]) -> Vec<(usize, usize, u64)> {
    pairs.iter().map(|p| (p.l, p.r, p.sim.to_bits())).collect()
}

/// The cascade counters that depend on the live records alone, not on
/// where their postings sit (CSR or tail) or in what order they are met.
fn layout_free(s: &JoinStats) -> [usize; 7] {
    [
        s.probes,
        s.candidates,
        s.killed_by_position,
        s.killed_by_suffix,
        s.verified,
        s.verify_steps,
        s.pairs,
    ]
}

const MEASURES: [SetSimMeasure; 4] = [
    SetSimMeasure::Jaccard(0.5),
    SetSimMeasure::Cosine(0.6),
    SetSimMeasure::Dice(0.5),
    SetSimMeasure::OverlapSize(1),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mutation sequences × 4 measures × worker counts {1, 4}
    /// × a compaction policy: after **every** batch the live view equals
    /// the from-scratch rebuild bit-for-bit, the deltas replay to the
    /// live view, the worker count changes neither the deltas nor one
    /// counter, and an engine killed and restored along the way emits the
    /// same deltas as the one that never stopped.
    #[test]
    fn live_view_always_equals_from_scratch_rebuild(
        op_seq in ops(),
        policy in 0usize..3,
    ) {
        let tok = WhitespaceTokenizer::new();
        // Compact after any batch that killed a posting / the default /
        // only when the tail outgrows the CSR.
        let threshold = [1e-9, 0.25, 1e9][policy];
        for measure in MEASURES {
            let fresh = || IncrementalJoin::new(measure).with_compaction_threshold(threshold);
            let (mut serial, mut par, mut resumed) = (fresh(), fresh(), fresh());
            let mut feed = Feed::default();
            let mut replayed: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for chunk in op_seq.chunks(7) {
                let batch = materialize(&serial, chunk, &mut feed);
                if chunk.iter().any(|op| matches!(op, Op::Restore)) {
                    resumed = restored(&resumed, &tok, threshold);
                }
                let (deltas, stats) = serial.apply_batch(&batch, &tok, &ParConfig::serial());
                let (deltas_par, stats_par) = par.apply_batch(&batch, &tok, &ParConfig::workers(4));
                let (deltas_resumed, _) = resumed.apply_batch(&batch, &tok, &ParConfig::serial());
                prop_assert_eq!(&deltas, &deltas_par,
                    "worker count changed the deltas for {:?}", measure);
                prop_assert_eq!(&stats, &stats_par,
                    "worker count changed the counters for {:?}", measure);
                prop_assert_eq!(&deltas, &deltas_resumed,
                    "a restore changed the deltas for {:?}", measure);
                prop_assert_eq!(stats.candidates, stats.killed_by_position + stats.verified);
                prop_assert_eq!(stats.verified, stats.killed_by_suffix + stats.pairs);

                // Replay the signed deltas into an independent view.
                for d in &deltas {
                    match d {
                        PairDelta::Removed { l, r } => {
                            prop_assert!(replayed.remove(&(*l, *r)).is_some(),
                                "Removed a pair the replayed view never had");
                        }
                        PairDelta::Added(p) => {
                            let prev = replayed.insert((p.l, p.r), p.sim.to_bits());
                            prop_assert!(prev.is_none(), "Added an already-live pair");
                        }
                    }
                }

                // The live view is bit-identical to a batch join from
                // scratch over the current records.
                let live = bits(&serial.live_pairs());
                prop_assert_eq!(&live, &bits(&serial.rebuild_from_scratch(&tok)),
                    "live view vs rebuild for {:?}", measure);
                prop_assert_eq!(&live, &bits(&resumed.live_pairs()),
                    "restored view for {:?}", measure);
                // And the replayed deltas reconstruct exactly that view.
                let replayed_view: Vec<_> =
                    replayed.iter().map(|(&(l, r), &b)| (l, r, b)).collect();
                prop_assert_eq!(&replayed_view, &live);
            }
        }
    }

    /// Eager compaction (threshold ~0) and lazy compaction (threshold ∞)
    /// agree with each other under the same mutations: every view, every
    /// delta, and every cascade counter that is not about layout — a
    /// candidate is collected, killed or verified the same whether its
    /// posting sits in the CSR or in the tail.
    #[test]
    fn compaction_policy_never_changes_the_view(op_seq in ops()) {
        let tok = WhitespaceTokenizer::new();
        let measure = SetSimMeasure::Jaccard(0.4);
        let mut eager = IncrementalJoin::new(measure).with_compaction_threshold(1e-9);
        let mut lazy = IncrementalJoin::new(measure).with_compaction_threshold(1e9);
        let mut feed = Feed::default();
        for chunk in op_seq.chunks(5) {
            let batch = materialize(&eager, chunk, &mut feed);
            let (de, se) = eager.apply_batch(&batch, &tok, &ParConfig::serial());
            let (dl, sl) = lazy.apply_batch(&batch, &tok, &ParConfig::serial());
            prop_assert_eq!(&de, &dl);
            prop_assert_eq!(layout_free(&se), layout_free(&sl));
            prop_assert_eq!(bits(&eager.live_pairs()), bits(&lazy.live_pairs()));
        }
    }
}

/// A tiny deterministic generator for the fixed-seed tests below.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// A product title: brand, adjective and kind from small pools plus a
/// near-unique model number. Both catalogs of a test draw from one list,
/// so titles pair up; one listing in four drops the adjective, and with
/// `colours > 0` one in eight adds a colour, so sizes differ.
fn product(rng: &mut Lcg, colours: usize) -> String {
    let (brand, adj, kind) = (rng.below(40), rng.below(25), rng.below(30));
    let adj = if rng.below(4) == 0 {
        String::new()
    } else {
        format!(" adj{adj}")
    };
    let title = format!("brand{brand}{adj} kind{kind} m{}", rng.below(1500));
    if colours > 0 && rng.below(8) == 0 {
        format!("{title} colour{}", rng.below(colours))
    } else {
        title
    }
}

/// A Jaccard-0.6 engine seeded with `seeded` titles from `catalog` (sides
/// alternating), then `ticks` batches of 20 mutations — a quarter inserts,
/// a quarter deletes, half re-writes — each batch's deltas handed to
/// `on_tick`, with the live view checked against the rebuild at the end;
/// returns the engine and the churn's counters.
fn product_stream(
    catalog: &[String],
    rng: &mut Lcg,
    seeded: usize,
    ticks: usize,
    mut on_tick: impl FnMut(&[PairDelta]),
) -> (IncrementalJoin, JoinStats) {
    let tok = WhitespaceTokenizer::new();
    let cfg = ParConfig::serial();
    let title = |rng: &mut Lcg| Some(catalog[rng.below(catalog.len())].clone());
    let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.6));
    let seed: Vec<RecordMutation> = (0..seeded)
        .map(|i| RecordMutation::Insert {
            side: side_of(i % 2 == 0),
            text: title(rng),
        })
        .collect();
    eng.apply_batch(&seed, &tok, &cfg);

    let mut churn = JoinStats::default();
    for _ in 0..ticks {
        let batch: Vec<RecordMutation> = (0..20)
            .map(|_| {
                let side = side_of(rng.below(2) == 0);
                let rid = rng.below(eng.n_records(side));
                match rng.below(4) {
                    0 => RecordMutation::Insert {
                        side,
                        text: title(rng),
                    },
                    1 => RecordMutation::Delete { side, rid },
                    _ => RecordMutation::Update {
                        side,
                        rid,
                        text: title(rng),
                    },
                }
            })
            .collect();
        let (deltas, stats) = eng.apply_batch(&batch, &tok, &cfg);
        on_tick(&deltas);
        churn.merge(&stats);
    }
    assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    (eng, churn)
}

/// The oracle's text shape does reach every stage it is there to cover:
/// positional kills, abandoned and completed suffix merges, stale postings
/// in both levels, tail scans and compactions all occur on a fixed stream.
/// Its records draw up to 48 words from 40, so remainders fill most of the
/// 32-bit bitmaps stage 2 compares and candidates still reach the merge
/// (over 12 words, as at 0a37532, the bitmaps settle every one of them).
#[test]
fn oracle_shape_reaches_every_cascade_stage() {
    let tok = WhitespaceTokenizer::new();
    let mut rng = Lcg(29);
    let mut text = move || {
        let n = 1 + rng.below(48);
        let toks: Vec<String> = (0..n).map(|_| format!("t{}", rng.below(40))).collect();
        (
            Some(toks.join(" ")),
            rng.below(1 << 16) as u16,
            rng.below(2) == 0,
        )
    };
    let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
    let mut feed = Feed::default();
    let mut sum = JoinStats::default();
    for b in 0..40 {
        let chunk: Vec<Op> = (0..8)
            .map(|i| {
                let (t, v, left) = text();
                match (b + i) % 4 {
                    0 | 1 => Op::Insert(left, t),
                    2 => Op::Update(left, v, t),
                    _ => Op::Delete(left, v),
                }
            })
            .collect();
        let batch = materialize(&eng, &chunk, &mut feed);
        let (_, stats) = eng.apply_batch(&batch, &tok, &ParConfig::serial());
        sum.merge(&stats);
    }
    assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    for (what, n) in [
        ("positional kills", sum.killed_by_position),
        ("abandoned suffix merges", sum.killed_by_suffix),
        ("pairs", sum.pairs),
        ("tombstones skipped", sum.tombstones_skipped),
        ("tail postings scanned", sum.tail_postings_scanned),
        ("compactions", sum.compactions),
    ] {
        assert!(n > 0, "the fixed stream produced no {what}: {sum:?}");
    }
}

/// A count, not a timing, guards the token order and the cascade: on
/// product-shaped titles (brand / adjective / kind from small pools plus a
/// near-unique model number) a delta probe collects about as few
/// candidates as the batch engine's rarest-first probe over the same
/// records, and resumed merges stay near one step each. Under ascending
/// interner ids the prefix holds the two earliest-seen (most shared)
/// tokens and the first bound fails by a wide margin; without the
/// positional and suffix stages the other two do.
#[test]
fn delta_probe_is_as_selective_as_the_batch_engine() {
    let tok = WhitespaceTokenizer::new();
    let measure = SetSimMeasure::Jaccard(0.6);
    let mut rng = Lcg(7);
    let catalog: Vec<String> = (0..2_400).map(|_| product(&mut rng, 0)).collect();
    let (eng, churn) = product_stream(&catalog, &mut Lcg(11), 4_000, 10, |_| {});

    let coll = TokenizedCollection::build(eng.texts(Side::Left), eng.texts(Side::Right), &tok);
    let (_, batch) = join_tokenized_stats(&coll, measure, ProbeSide::Auto);
    let per_delta_probe = churn.candidates as f64 / churn.delta_probes as f64;
    let per_batch_probe = batch.candidates as f64 / batch.probes as f64;
    assert!(
        per_delta_probe <= 1.25 * per_batch_probe,
        "a delta probe collects {per_delta_probe:.1} candidates, the batch engine {per_batch_probe:.1}"
    );
    let steps = churn.verify_steps as f64 / churn.verified as f64;
    assert!(
        steps <= 2.0,
        "{steps:.2} merge steps per verified candidate"
    );
    assert!(
        churn.killed_by_position > 0,
        "the positional filter never fired"
    );
    assert_eq!(churn.candidates, churn.killed_by_position + churn.verified);
}

/// Count guard on the `stream_churn` shape: 3–5-token product titles at
/// Jaccard 0.6 (two-token prefixes, so a record sharing either of a probe's
/// two rarest tokens is a candidate), 6 000 seeded, then 400 mutations in
/// ticks of 20 — a quarter inserts, a quarter deletes, half re-writes.
/// `candidates`, `killed_by_size` and `pairs` are the literals recorded at
/// 0a37532, where the churn verified 8 880 records for those 171 pairs
/// (52 per pair). With the remainders' bitmaps in stage 2 it verifies 198.
#[test]
fn stream_churn_shape_verifies_about_what_it_pairs() {
    let mut rng = Lcg(2501);
    let catalog: Vec<String> = (0..6_000).map(|_| product(&mut rng, 12)).collect();
    let (_, churn) = product_stream(&catalog, &mut rng, 6_000, 20, |_| {});
    assert_eq!(churn.candidates, churn.killed_by_position + churn.verified);
    assert_eq!(churn.verified, churn.killed_by_suffix + churn.pairs);
    assert_eq!(
        (churn.candidates, churn.killed_by_size, churn.pairs),
        (12_016, 5_394, 171)
    );
    assert!(
        2 * churn.verified <= 3 * churn.pairs,
        "{} records verified for {} pairs",
        churn.verified,
        churn.pairs
    );
}

/// The delta stream itself is pinned, not only its counts: 1 000 ticks of
/// the `stream_churn` shape, every tick's `PairDelta`s (kind, position,
/// pair, similarity bits) and then every field of the summed `JoinStats`
/// folded into one FNV-1a digest. The literals were recorded at 5a5d677,
/// where the live view was a `BTreeMap` beside two `HashMap<usize,
/// BTreeSet>` adjacencies; how the view is stored must not move them.
#[test]
fn churn_delta_stream_digest_is_pinned() {
    let mut rng = Lcg(2611);
    let catalog: Vec<String> = (0..6_000).map(|_| product(&mut rng, 12)).collect();
    let mut bytes: Vec<u8> = Vec::new();
    let mut removed = 0usize;
    let word = |x: u64, bytes: &mut Vec<u8>| bytes.extend_from_slice(&x.to_le_bytes());
    let (eng, churn) = product_stream(&catalog, &mut rng, 6_000, 1_000, |deltas| {
        word(deltas.len() as u64, &mut bytes);
        for d in deltas {
            let fields = match *d {
                PairDelta::Removed { l, r } => {
                    removed += 1;
                    [0, l as u64, r as u64, 0]
                }
                PairDelta::Added(p) => [1, p.l as u64, p.r as u64, p.sim.to_bits()],
            };
            for x in fields {
                word(x, &mut bytes);
            }
        }
    });
    let JoinStats {
        probes,
        candidates,
        killed_by_size,
        killed_by_position,
        killed_by_suffix,
        verified,
        verify_steps,
        pairs,
        probe_swaps,
        killed_by_qgram_sig,
        qgram_sig_checked,
        delta_probes,
        delta_pairs_added,
        delta_pairs_removed,
        tombstones_skipped,
        tail_postings_scanned,
        compactions,
    } = churn;
    for x in [
        probes,
        candidates,
        killed_by_size,
        killed_by_position,
        killed_by_suffix,
        verified,
        verify_steps,
        pairs,
        probe_swaps,
        killed_by_qgram_sig,
        qgram_sig_checked,
        delta_probes,
        delta_pairs_added,
        delta_pairs_removed,
        tombstones_skipped,
        tail_postings_scanned,
        compactions,
    ] {
        word(x as u64, &mut bytes);
    }
    assert_eq!(removed, churn.delta_pairs_removed);
    assert_eq!(
        (
            churn.delta_pairs_added,
            removed,
            eng.n_live_pairs(),
            magellan_obs::fnv1a(&bytes)
        ),
        (9_541, 7_879, 3_291, 0x186f_1e7e_28b1_85ff)
    );
}
