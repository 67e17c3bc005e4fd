//! The run-aware [`Scorer`] against its two oracles, bit for bit.
//!
//! What production computes — a [`Scorer`] per chunk, through
//! `extract_with_prepared`, `StreamingPreparedPair::extract` and the
//! executor — must equal the pairwise reference
//! ([`PreparedPair::compute_row`]) and the scalar path
//! ([`Feature::compute`] over the raw cells), compared with `to_bits`, for
//! every feature kind and **any order of the pairs**: what the scorer
//! keeps of a left record is an optimisation of sorted lists, never a
//! condition on them. The generated tables hold nulls, empty and
//! token-free strings, an all-null column, strings of 0 / 1 / 63 / 64 /
//! 65 / 130 characters on either side (the edit-distance pattern is the
//! left string when it is ASCII and 1–64 characters, whichever side is
//! longer), and non-ASCII and non-BMP text on either side.
//!
//! Mutation-checked — each of these edits to `prepared.rs` makes
//! `scorer_equals_reference_and_scalar_on_any_pair_order` fail, and was
//! reverted:
//!
//! * the previous left record's flags left set on a new one
//!   (`Stamps::stamp` clears nothing): its ids still count as members;
//! * a stale mask table after the left row changes (`lev_sim` rebuilds
//!   only when `p.run == 0`): the first left string of a chunk stays the
//!   pattern;
//! * one intersection count shared by different slot pairs (`inter` fixed
//!   at 0): `jaccard(3gram)` reads `jaccard(word)`'s count;
//! * a scratch whose per-run state survives into the next scorer
//!   (`Scratch::reset` leaves `run` alone): a later chunk's first left row
//!   meets a pattern built for another row under the same run number.
//!
//! A fifth, an *unordered* memo key (`min(ta, tb) << 32 | max(ta, tb)`),
//! cannot fail a value comparison as far as a search can tell: over all
//! 48 million pairs of strings of up to 8 characters from a 3-letter
//! alphabet, and 10 million random longer ones, this Jaro–Winkler returned
//! the same bits in both argument orders. Nothing proves that in general,
//! so the key stays ordered, and `memo_key_is_the_ordered_pair` pins it by
//! count instead: the two orders of one token pair are two evaluations.
//!
//! `box_test_equals_the_per_feature_loop` holds [`Scorer::in_box`] to the
//! per-feature loop it replaced, over nulls, empty and non-numeric
//! strings and infinities, with bounds on sampled values. Reading a null
//! number as 0 (`NO_NUMBER` taken for 0.0 in `Scorer::compute`) fails it,
//! and so does reading NaN as inside (`!(value > upper)` in `in_box`).

use magellan_features::{
    extract_with_prepared, Feature, FeatureKind, PreparedPair, Scorer, StreamingPreparedPair,
    TokSpec,
};
use magellan_obs::Obs;
use magellan_par::ParConfig;
use magellan_table::{Dtype, Table, Value};
use proptest::prelude::*;

/// Every kind, over slot pairs that share a left slot, share a right slot
/// and share neither, with set features of one tokenization on the same
/// slot pair (one intersection count feeds them) and on different ones.
fn features() -> Vec<Feature> {
    use FeatureKind::*;
    let word = TokSpec::Word;
    let mut out = Vec::new();
    for (l, r) in [("text", "text"), ("text", "other"), ("other", "text")] {
        for kind in [
            Jaccard(word),
            LevSim,
            Cosine(word),
            MongeElkanJw,
            Jaccard(TokSpec::Qgram(3)),
            Dice(word),
            OverlapCoeff(word),
            Cosine(TokSpec::Qgram(2)),
            ExactMatch,
            Jaro,
            JaroWinkler,
        ] {
            out.push(Feature::new(l, r, kind));
        }
    }
    for kind in [LevSim, MongeElkanJw, Dice(word), JaroWinkler, AbsDiff] {
        out.push(Feature::new("void", "text", kind));
        out.push(Feature::new("text", "void", kind));
    }
    for kind in [ExactNum, AbsDiff, RelDiff] {
        out.push(Feature::new("num", "num", kind));
        out.push(Feature::new("text", "num", kind));
    }
    out
}

/// A string of exactly `n` characters drawn from `alphabet` by `picks`.
fn of_length(n: usize, alphabet: &[char], picks: &[usize]) -> String {
    (0..n)
        .map(|i| alphabet[picks[i % picks.len()] % alphabet.len()])
        .collect()
}

/// One text cell: null, degenerate, short and token-sharing, or of a
/// boundary length, in ASCII or not.
fn cell() -> impl Strategy<Value = Option<String>> {
    const ASCII: &[char] = &['a', 'b', ' ', 'c', 'A'];
    const WIDE: &[char] = &['a', 'é', ' ', '日', '𝄞', 'İ', 'b'];
    let boundary = (
        prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(130usize)
        ],
        any::<bool>(),
        proptest::collection::vec(0usize..64, 5..9),
    )
        .prop_map(|(n, wide, picks)| Some(of_length(n, if wide { WIDE } else { ASCII }, &picks)));
    prop_oneof![
        1 => Just(None),
        1 => prop_oneof![Just(""), Just("   "), Just("!!! ?"), Just("\u{212a}")]
            .prop_map(|s| Some(s.to_owned())),
        4 => "[ab]{1,3}( [abé]{1,4}){0,4}".prop_map(Some),
        1 => prop_oneof![Just("ab ba"), Just("ba ab"), Just("𝄞a b𝄞"), Just("日 ab 日")]
            .prop_map(|s| Some(s.to_owned())),
        3 => boundary,
    ]
}

fn table(tag: &str, rows: &[(Option<String>, Option<String>, Option<i64>)]) -> Table {
    let text = |c: &Option<String>| c.clone().map_or(Value::Null, Value::Str);
    Table::from_rows(
        tag,
        &[
            ("id", Dtype::Str),
            ("text", Dtype::Str),
            ("other", Dtype::Str),
            ("void", Dtype::Str),
            ("num", Dtype::Int),
        ],
        rows.iter()
            .enumerate()
            .map(|(i, (t, o, n))| {
                vec![
                    format!("{tag}{i}").into(),
                    text(t),
                    text(o),
                    Value::Null,
                    n.map_or(Value::Null, Value::Int),
                ]
            })
            .collect(),
    )
    .expect("table")
}

fn rows() -> impl Strategy<Value = Vec<(Option<String>, Option<String>, Option<i64>)>> {
    proptest::collection::vec(
        (cell(), cell(), proptest::option::weighted(0.8, -3i64..4)),
        2..7,
    )
}

/// The pair orders the scorer must not care about.
fn pair_orders(n_l: u32, n_r: u32, seed: u64) -> Vec<(&'static str, Vec<(u32, u32)>)> {
    let sorted: Vec<(u32, u32)> = (0..n_l)
        .flat_map(|l| (0..n_r).map(move |r| (l, r)))
        .collect();
    let mut shuffled = sorted.clone();
    let mut state = seed | 1;
    for i in (1..shuffled.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    // Right-major: consecutive pairs never share their left row, and every
    // left row comes back after all the others.
    let runs_of_one: Vec<(u32, u32)> = (0..n_r)
        .flat_map(|r| (0..n_l).map(move |l| (l, r)))
        .collect();
    // A left row returns after another one, and a pair repeats at once.
    let mut returning = sorted.clone();
    returning.extend(sorted.iter().take(n_r as usize + 1));
    returning.push(sorted[0]);
    returning.push(sorted[0]);
    vec![
        ("sorted", sorted),
        ("shuffled", shuffled),
        ("runs of one", runs_of_one),
        ("returning", returning),
    ]
}

/// The scalar path: [`Feature::compute`] on each pair's raw cells.
fn scalar_rows(pairs: &[(u32, u32)], a: &Table, b: &Table, fs: &[Feature]) -> Vec<Vec<f64>> {
    let cells = |f: &Feature, ra: u32, rb: u32| {
        let va = a.value_by_name(ra as usize, &f.l_attr).unwrap();
        f.compute(va, b.value_by_name(rb as usize, &f.r_attr).unwrap())
    };
    let row = |&(ra, rb): &(u32, u32)| fs.iter().map(|f| cells(f, ra, rb)).collect();
    pairs.iter().map(row).collect()
}

fn assert_rows_equal(
    what: &str,
    got: &[Vec<f64>],
    want: &[Vec<f64>],
    pairs: &[(u32, u32)],
    names: &[String],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: row count", what);
    for (p, (g, w)) in got.iter().zip(want).enumerate() {
        for (j, (gv, wv)) in g.iter().zip(w).enumerate() {
            prop_assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "{}: pair {:?} (#{}) {}: {} vs {}",
                what,
                pairs[p],
                p,
                names[j],
                gv,
                wv
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scorer_equals_reference_and_scalar_on_any_pair_order(
        left in rows(),
        right in rows(),
        seed in any::<u64>(),
    ) {
        let (a, b) = (table("a", &left), table("b", &right));
        let features = features();
        let names: Vec<String> = features.iter().map(|f| f.name.clone()).collect();
        for (order, pairs) in pair_orders(a.nrows() as u32, b.nrows() as u32, seed) {
            let scalar = scalar_rows(&pairs, &a, &b, &features);

            let mut prepared = PreparedPair::new(&a, &b);
            let plan = prepared.plan(&features).unwrap();
            prepared.prepare_for_pairs(&plan, &pairs);
            let reference: Vec<Vec<f64>> = pairs
                .iter()
                .map(|&(ra, rb)| prepared.compute_row(&plan, ra as usize, rb as usize))
                .collect();
            assert_rows_equal(&format!("{order}: reference vs scalar"), &reference, &scalar, &pairs, &names)?;

            // One scorer over the whole list, whole rows.
            let mut scorer = Scorer::new(&prepared, &plan);
            let eager: Vec<Vec<f64>> = pairs
                .iter()
                .map(|&(ra, rb)| scorer.row(ra as usize, rb as usize))
                .collect();
            drop(scorer);
            assert_rows_equal(&format!("{order}: scorer rows"), &eager, &reference, &pairs, &names)?;

            // A second scorer (on the first one's buffers), asked for some
            // features only, out of order and twice.
            let mut scorer = Scorer::new(&prepared, &plan);
            for (p, &(ra, rb)) in pairs.iter().enumerate() {
                scorer.begin_pair(ra as usize, rb as usize);
                let before = scorer.computed();
                let mut asked = 0u64;
                for j in (0..plan.len()).rev().filter(|j| (j + p) % 3 != 0) {
                    asked += 1;
                    for _ in 0..2 {
                        prop_assert_eq!(
                            scorer.feature(j).to_bits(),
                            reference[p][j].to_bits(),
                            "{}: lazy pair {:?} {}", order, (ra, rb), names[j]
                        );
                    }
                }
                prop_assert_eq!(scorer.computed() - before, asked, "{}: one computation per demand", order);
            }
            drop(scorer);

            // The production entry point, one chunk and many.
            for cfg in [ParConfig::serial(), ParConfig::workers(3).with_chunk_size(2)] {
                let (m, _) = extract_with_prepared(&mut prepared, &pairs, &features, &cfg).unwrap();
                assert_rows_equal(&format!("{order}: extract_with_prepared"), &m.rows, &reference, &pairs, &names)?;
            }
        }
    }

    /// A record rewritten between two `extract` calls is scored from its
    /// new cells: nothing the scorers of the first call kept (their
    /// buffers stay in the store) leaks into the second.
    #[test]
    fn streaming_store_rescoring_after_invalidation(
        left in rows(),
        right in rows(),
        new_left in cell(),
        new_right in cell(),
        seed in any::<u64>(),
    ) {
        let (mut a, mut b) = (table("a", &left), table("b", &right));
        let features = features();
        let names: Vec<String> = features.iter().map(|f| f.name.clone()).collect();
        let mut store = StreamingPreparedPair::new(a.clone(), b.clone());
        let cfg = ParConfig::serial();
        let text = |c: &Option<String>| c.clone().map_or(Value::Null, Value::Str);
        for (order, pairs) in pair_orders(a.nrows() as u32, b.nrows() as u32, seed) {
            let (m, _) = store.extract(&pairs, &features, &cfg).unwrap();
            let scalar = scalar_rows(&pairs, &a, &b, &features);
            assert_rows_equal(&format!("{order}: before"), &m.rows, &scalar, &pairs, &names)?;

            // Rewrite the first pair's left record and the last one's right
            // record — the rows a scorer met first and last — then swap the
            // new values for the next order.
            let (l, r) = (pairs[0].0 as usize, pairs[pairs.len() - 1].1 as usize);
            let (old_l, old_r) = (a.value(l, 1).to_owned(), b.value(r, 2).to_owned());
            for (t, left_side, rid, attr, v) in [
                (&mut a, true, l, "text", text(&new_left)),
                (&mut b, false, r, "other", text(&new_right)),
            ] {
                t.set_value(rid, attr, v.clone()).unwrap();
                store.set_value(left_side, rid, attr, v).unwrap();
            }
            let (m, _) = store.extract(&pairs, &features, &cfg).unwrap();
            let scalar = scalar_rows(&pairs, &a, &b, &features);
            assert_rows_equal(&format!("{order}: after"), &m.rows, &scalar, &pairs, &names)?;

            a.set_value(l, "text", old_l.clone()).unwrap();
            store.set_value(true, l, "text", old_l).unwrap();
            b.set_value(r, "other", old_r.clone()).unwrap();
            store.set_value(false, r, "other", old_r).unwrap();
        }
    }
}

/// Box dimensions of every kind a box can bound: the set kinds over words
/// and 3-grams, the numeric kinds over a number column and over a string
/// column (every value of which is not a number), and the kernels.
fn box_features() -> Vec<Feature> {
    use FeatureKind::*;
    let mut out = Vec::new();
    for tok in [TokSpec::Word, TokSpec::Qgram(3)] {
        for kind in [Jaccard(tok), Cosine(tok), Dice(tok), OverlapCoeff(tok)] {
            out.push(Feature::new("text", "text", kind));
        }
    }
    for kind in [LevSim, JaroWinkler, MongeElkanJw] {
        out.push(Feature::new("text", "text", kind));
    }
    for (l, r) in [("num", "num"), ("num", "code"), ("code", "num")] {
        for kind in [ExactNum, AbsDiff, RelDiff] {
            out.push(Feature::new(l, r, kind));
        }
    }
    out
}

/// A number cell: null, an infinity, a zero of either sign or a small
/// integer.
fn num_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        1 => prop_oneof![
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.0)
        ]
        .prop_map(Value::Float),
        3 => (-3i64..4).prop_map(|i| Value::Float(i as f64)),
    ]
}

/// A string cell in a number's place: null, empty, or text that looks
/// like a number and is not one.
fn code_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop_oneof![Just(""), Just("7"), Just("n/a"), Just("-inf")]
            .prop_map(|s| Value::Str(s.to_owned())),
    ]
}

fn box_table(tag: &str, rows: &[(Option<String>, Value, Value)]) -> Table {
    Table::from_rows(
        tag,
        &[
            ("id", Dtype::Str),
            ("text", Dtype::Str),
            ("num", Dtype::Float),
            ("code", Dtype::Str),
        ],
        rows.iter()
            .enumerate()
            .map(|(i, (t, n, c))| {
                let text = t.clone().map_or(Value::Null, Value::Str);
                vec![format!("{tag}{i}").into(), text, n.clone(), c.clone()]
            })
            .collect(),
    )
    .expect("table")
}

fn box_rows() -> impl Strategy<Value = Vec<(Option<String>, Value, Value)>> {
    proptest::collection::vec((cell(), num_cell(), code_cell()), 2..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Scorer::in_box` answers what the loop over `Scorer::feature` it
    /// replaced answers on a fresh scorer, leaves in the memo the values
    /// that loop computed (the scalar path's bits) and counts each once.
    #[test]
    fn box_test_equals_the_per_feature_loop(
        left in box_rows(),
        right in box_rows(),
        boxes in proptest::collection::vec(
            proptest::collection::vec((any::<u64>(), any::<u64>()), 1..6),
            4..8,
        ),
        seed in any::<u64>(),
    ) {
        let (a, b) = (box_table("a", &left), box_table("b", &right));
        let features = box_features();
        for (order, pairs) in pair_orders(a.nrows() as u32, b.nrows() as u32, seed)
            .into_iter()
            .take(2)
        {
            let scalar = scalar_rows(&pairs, &a, &b, &features);
            let mut prepared = PreparedPair::new(&a, &b);
            let plan = prepared.plan(&features).unwrap();
            prepared.prepare_for_pairs(&plan, &pairs);
            for picks in &boxes {
                // Each bound is a value some pair has: NaN, an infinity or
                // a measure's value sits exactly on it.
                let dims: Vec<(usize, f64)> = picks
                    .iter()
                    .map(|&(f, p)| {
                        let j = (f % features.len() as u64) as usize;
                        (j, scalar[(p % pairs.len() as u64) as usize][j])
                    })
                    .collect();
                let region = plan.compile_box(&dims);
                let mut scorer = Scorer::new(&prepared, &plan);
                for (p, &(ra, rb)) in pairs.iter().enumerate() {
                    scorer.begin_pair(ra as usize, rb as usize);
                    let before = scorer.computed();
                    let inside = scorer.in_box(&region);
                    let computed = scorer.computed() - before;

                    let mut fresh = Scorer::new(&prepared, &plan);
                    fresh.begin_pair(ra as usize, rb as usize);
                    let want = dims.iter().all(|&(j, u)| fresh.feature(j) <= u);
                    let what = format!("{order}: pair {:?} box {dims:?}", (ra, rb));
                    prop_assert_eq!(inside, want, "{}", what);
                    prop_assert_eq!(computed, fresh.computed(), "{}", what);
                    // What the loop read is memoised, with the scalar bits.
                    let read = dims
                        .iter()
                        .position(|&(j, u)| {
                            !matches!(scalar[p][j].partial_cmp(&u), Some(o) if o.is_le())
                        })
                        .map_or(dims.len(), |k| k + 1);
                    for &(j, _) in &dims[..read] {
                        prop_assert_eq!(
                            scorer.feature(j).to_bits(),
                            scalar[p][j].to_bits(),
                            "{}: {}", what, &features[j].name
                        );
                    }
                    prop_assert_eq!(scorer.computed() - before, computed, "{}: memoised", order);
                }
            }
        }
    }
}

/// `monge_elkan("x", "y")` and `monge_elkan("y", "x")` are two
/// Jaro–Winkler evaluations, the same pair again is none.
#[test]
fn memo_key_is_the_ordered_pair() {
    let name = |t: &str, names: [&str; 2]| {
        Table::from_rows(
            t,
            &[("id", Dtype::Str), ("name", Dtype::Str)],
            names
                .iter()
                .enumerate()
                .map(|(i, n)| vec![format!("{t}{i}").into(), (*n).into()])
                .collect(),
        )
        .unwrap()
    };
    let (a, b) = (
        name("a", ["martha", "marhta"]),
        name("b", ["marhta", "martha"]),
    );
    let features = vec![Feature::new("name", "name", FeatureKind::MongeElkanJw)];
    let evals = |pairs: &[(u32, u32)]| {
        let obs = Obs::pinned();
        let _installed = obs.install();
        let mut prepared = PreparedPair::new(&a, &b);
        extract_with_prepared(
            &mut prepared,
            pairs,
            &features,
            &ParConfig::serial().with_chunk_size(16),
        )
        .unwrap();
        let snap = obs.snapshot();
        (
            snap.counter("magellan_features_scorer_token_pairs_total"),
            snap.counter("magellan_features_scorer_jw_evals_total"),
        )
    };
    // (martha, marhta): evaluated once however often it is met.
    assert_eq!(evals(&[(0, 0), (0, 0), (0, 0)]), (3, 1));
    // (marhta, martha) is another key; equal tokens are not looked up.
    assert_eq!(
        evals(&[(0, 0), (1, 1), (0, 0), (1, 1), (0, 1), (1, 0)]),
        (6, 2)
    );
}
