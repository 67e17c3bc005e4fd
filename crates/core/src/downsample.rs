//! Intelligent down-sampling — the first pain-point tool of the guide.
//!
//! Randomly sampling both tables independently would destroy most matched
//! pairs (a random 10% of A × random 10% of B keeps only ~1% of matches).
//! Magellan's `down_sample` instead samples one table and then pulls, for
//! each sampled tuple, its most *lexically similar* tuples from the other
//! table via an inverted token index — preserving match pairs at small
//! sample sizes. That algorithm is reproduced here.
//!
//! Each sampled row's "most similar" query is answered exactly without
//! reading every row of its frequent tokens: A is indexed over the sampled
//! rows' vocabulary only, a frequent token is kept as a bitmap over A, and
//! the rows only frequent tokens reach are scanned from the highest down
//! until no unread row can place (DESIGN §7.4).

use std::fmt::Write as _;
use std::ops::{AddAssign, Range};

use magellan_par::ParConfig;
use magellan_table::{Table, ValueRef};
use magellan_textsim::intern::narrow;
use magellan_textsim::tokenize::{AlphanumericTokenizer, Tokenizer};
use magellan_textsim::TokenInterner;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::pipeline::MAX_STAGE_WORKERS;

/// Visit the alphanumeric tokens of row `r` of `t`: every non-null cell of
/// an attribute not named in `exclude`, in its display form whatever its
/// dtype (prices and ages too). `Str` cells are borrowed; any other cell is
/// written into `buf`. A token may be visited more than once.
fn for_each_row_token(
    t: &Table,
    exclude: &[&str],
    r: usize,
    buf: &mut String,
    f: &mut dyn FnMut(&str),
) {
    let tok = AlphanumericTokenizer::as_set();
    for (c, field) in t.schema().fields().iter().enumerate() {
        if exclude.contains(&field.name.as_str()) {
            continue;
        }
        match t.value(r, c) {
            ValueRef::Null => {}
            ValueRef::Str(s) => tok.for_each_token(s, f),
            v => {
                buf.clear();
                write!(buf, "{v}").expect("writing into a String cannot fail");
                tok.for_each_token(buf, f);
            }
        }
    }
}

/// Rows' distinct token ids in one flat column: the `k`-th row's are
/// `ids[offsets[k]..offsets[k + 1]]`, in first-seen order.
struct Column {
    ids: Vec<u32>,
    offsets: Vec<u32>,
}

impl Column {
    /// The distinct ids of `rows` of `t`, each row's repeats dropped by a
    /// per-id row stamp. `id_of` names a token's id, or `None` to skip it.
    fn build(
        t: &Table,
        exclude: &[&str],
        rows: impl ExactSizeIterator<Item = usize>,
        mut id_of: impl FnMut(&str) -> Option<u32>,
    ) -> Self {
        let (mut ids, mut offsets) = (Vec::new(), Vec::with_capacity(rows.len() + 1));
        offsets.push(0u32);
        let (mut stamp, mut buf) = (Vec::<u32>::new(), String::new());
        for (k, r) in rows.enumerate() {
            let mark = narrow(k + 1);
            for_each_row_token(t, exclude, r, &mut buf, &mut |tok| {
                let Some(id) = id_of(tok) else { return };
                if id as usize >= stamp.len() {
                    stamp.resize(id as usize + 1, 0);
                }
                if std::mem::replace(&mut stamp[id as usize], mark) != mark {
                    ids.push(id);
                }
            });
            offsets.push(narrow(ids.len()));
        }
        Column { ids, offsets }
    }

    fn row(&self, k: usize) -> &[u32] {
        &self.ids[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// [`Index::slot`] of a token kept as a row list.
const LISTED: u32 = u32::MAX;

/// The inverted index over A's rows for the sampled rows' vocabulary. A
/// token is kept once, as whichever of its ascending row list or its
/// bitmap over A is no larger: a *long* token (`32 · df ≥ |A|`) as the
/// bitmap, any other as the list.
struct Index {
    /// A listed token `id`'s rows are `rows[starts[id]..starts[id + 1]]`;
    /// a long token's range is empty.
    starts: Vec<u32>,
    rows: Vec<u32>,
    /// Token `id`'s bitmap number, or [`LISTED`].
    slot: Vec<u32>,
    /// Bitmap `s` is `bits[s * words..(s + 1) * words]`; bit `r % 64` of
    /// word `r / 64` is A row `r`.
    bits: Vec<u64>,
    words: usize,
}

impl Index {
    /// Invert A's column, cut into consecutive row ranges, with one
    /// counting sort; ids are below `vocab`.
    fn build(chunks: &[Column], n_a: usize, vocab: usize) -> Self {
        let words = n_a.div_ceil(64);
        let mut df = vec![0u32; vocab];
        for &id in chunks.iter().flat_map(|c| &c.ids) {
            df[id as usize] += 1;
        }
        let (mut slot, mut starts) = (vec![LISTED; vocab], vec![0u32; vocab + 1]);
        let mut n_long = 0;
        for id in 0..vocab {
            let listed = if df[id] > 0 && 32 * df[id] as usize >= n_a {
                slot[id] = n_long;
                n_long += 1;
                0
            } else {
                df[id]
            };
            starts[id + 1] = starts[id] + listed;
        }
        // `df` has one entry per id: reuse it as each listed token's cursor.
        let mut next = df;
        next.copy_from_slice(&starts[..vocab]);
        let mut rows = vec![0u32; starts[vocab] as usize];
        let mut bits = vec![0u64; n_long as usize * words];
        let all_rows = chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(move |k| c.row(k)));
        for (r, ids) in all_rows.enumerate() {
            for &id in ids {
                match slot[id as usize] {
                    LISTED => {
                        rows[next[id as usize] as usize] = r as u32;
                        next[id as usize] += 1;
                    }
                    s => bits[s as usize * words + r / 64] |= 1 << (r % 64),
                }
            }
        }
        Index {
            starts,
            rows,
            slot,
            bits,
            words,
        }
    }

    fn rows(&self, id: u32) -> &[u32] {
        &self.rows[self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize]
    }

    /// Word `w` of bitmap `s`.
    fn word(&self, s: u32, w: usize) -> u64 {
        self.bits[s as usize * self.words + w]
    }

    /// Whether A row `r` holds the long token of bitmap `s`.
    fn holds(&self, s: u32, r: usize) -> bool {
        self.word(s, r / 64) >> (r % 64) & 1 == 1
    }
}

/// What one range of sampled rows cost the ranking: row-list entries
/// read and bitmap words read. Functions of each sampled row alone.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RankCounts {
    postings: u64,
    bitmap_probes: u64,
}

impl AddAssign for RankCounts {
    fn add_assign(&mut self, o: RankCounts) {
        self.postings += o.postings;
        self.bitmap_probes += o.bitmap_probes;
    }
}

impl RankCounts {
    /// Add the summed counts to the ambient recorder's registry. Call it
    /// after the parallel region, so the figures are the same for any
    /// worker count.
    fn publish(self) {
        magellan_obs::counter_add("magellan_core_downsample_postings_total", self.postings);
        magellan_obs::counter_add(
            "magellan_core_downsample_bitmap_probes_total",
            self.bitmap_probes,
        );
    }
}

/// Add `key` to `top`, which holds at most `half` keys, descending.
fn offer(top: &mut Vec<(u32, u32)>, half: usize, key: (u32, u32)) {
    if top.len() < half || key > top[half - 1] {
        top.insert(top.partition_point(|&k| k > key), key);
        top.truncate(half);
    }
}

/// The top `half` A rows by (overlap, row), both descending, of each
/// sampled row in `range` of `sampled`, concatenated, with what finding
/// them cost.
///
/// Per sampled row: its listed tokens' rows are counted into `counts` (one
/// per A row, zero again on return); each touched row's long tokens are
/// read from the bitmaps, which gives its exact overlap. Any other A row
/// holds only long tokens, so it overlaps at most `m`, the row's long-token
/// count. Those rows are scanned from the highest word down, each with its
/// exact overlap, until the last kept key beats every unread row: its
/// overlap exceeds `m`, or equals `m` and its row is above the next unread
/// one (an unread row of overlap `m` would tie and win on its row
/// otherwise).
fn rank(
    index: &Index,
    sampled: &Column,
    range: Range<usize>,
    n_a: usize,
    half: usize,
) -> (Vec<u32>, RankCounts) {
    let mut cost = RankCounts::default();
    let (mut counts, mut touched) = (vec![0u32; n_a], Vec::new());
    // The row's long tokens' bitmap numbers, and one word of each.
    let (mut longs, mut held) = (Vec::new(), Vec::new());
    let mut top: Vec<(u32, u32)> = Vec::with_capacity(half + 1);
    let mut kept = Vec::with_capacity(range.len() * half);
    for k in range {
        longs.clear();
        for &id in sampled.row(k) {
            if index.slot[id as usize] != LISTED {
                longs.push(index.slot[id as usize]);
                continue;
            }
            let rows = index.rows(id);
            cost.postings += rows.len() as u64;
            for &ra in rows {
                if counts[ra as usize] == 0 {
                    touched.push(ra);
                }
                counts[ra as usize] += 1;
            }
        }
        let m = longs.len();
        top.clear();
        for &ra in &touched {
            let long = longs
                .iter()
                .filter(|&&s| index.holds(s, ra as usize))
                .count();
            offer(&mut top, half, (counts[ra as usize] + long as u32, ra));
        }
        cost.bitmap_probes += (touched.len() * m) as u64;
        let mut w = if m == 0 { 0 } else { index.words };
        while w > 0 {
            let next = (64 * w).min(n_a) - 1;
            if top.len() == half {
                let (c, r) = top[half - 1];
                if c as usize > m || c as usize == m && r as usize > next {
                    break;
                }
            }
            w -= 1;
            held.clear();
            held.extend(longs.iter().map(|&s| index.word(s, w)));
            cost.bitmap_probes += m as u64;
            let mut any = held.iter().fold(0, |x, &h| x | h);
            while any != 0 {
                let bit = 63 - any.leading_zeros() as usize;
                any ^= 1 << bit;
                let ra = 64 * w + bit;
                if counts[ra] == 0 {
                    let c = held.iter().filter(|&&h| h >> bit & 1 == 1).count();
                    offer(&mut top, half, (c as u32, ra as u32));
                }
            }
        }
        for &ra in &touched {
            counts[ra as usize] = 0;
        }
        touched.clear();
        kept.extend(top.iter().map(|&(_, ra)| ra));
    }
    (kept, cost)
}

/// Down-sample two tables: keep `size_b` random rows of `B`, and for each
/// kept row, its `y/2` most token-overlapping rows of `A` plus `y/2`
/// random rows of `A`. Returns the row-index samples `(a_rows, b_rows)`.
///
/// `exclude` lists attributes (typically the keys) left out of the lexical
/// index. Overlap ties go to the higher A row. The random draws follow the
/// sampled B rows in ascending order, `y/2` per row. Tokenizing A and the
/// ranking run on the host's cores, at most two; the result does not depend
/// on how many. With a recorder installed, the ranking's cost is added to
/// `magellan_core_downsample_postings_total` (row-list entries read) and
/// `magellan_core_downsample_bitmap_probes_total` (bitmap words read).
pub fn down_sample_indices(
    a: &Table,
    b: &Table,
    size_b: usize,
    y: usize,
    exclude: &[&str],
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let par = ParConfig::available().at_most(MAX_STAGE_WORKERS);
    down_sample_indices_on(a, b, size_b, y, exclude, seed, &par)
}

/// [`down_sample_indices`] ranking on `par`'s workers.
fn down_sample_indices_on(
    a: &Table,
    b: &Table,
    size_b: usize,
    y: usize,
    exclude: &[&str],
    seed: u64,
    par: &ParConfig,
) -> (Vec<usize>, Vec<usize>) {
    assert!(y >= 2, "y must be at least 2");
    let mut rng = StdRng::seed_from_u64(seed);

    // Sample B rows.
    let mut b_rows: Vec<usize> = (0..b.nrows()).collect();
    b_rows.shuffle(&mut rng);
    b_rows.truncate(size_b.min(b.nrows()));
    b_rows.sort_unstable();

    let half = (y / 2).max(1);
    let (tops, cost) = top_rows(a, b, &b_rows, half, exclude, par);
    cost.publish();
    let n_a = a.nrows();
    let mut keep = vec![0u64; n_a.div_ceil(64)];
    let mut keep_row = |r: usize| keep[r / 64] |= 1 << (r % 64);
    for &ra in &tops {
        keep_row(ra as usize);
    }
    // Plus `half` random A rows per sampled B row for negative diversity,
    // drawn in B-row order; `keep` is a set, so they need not interleave
    // with the ranked rows.
    if n_a > 0 {
        for _ in 0..b_rows.len() * half {
            keep_row(rng.gen_range(0..n_a));
        }
    }
    let a_rows = (0..n_a)
        .filter(|&r| keep[r / 64] >> (r % 64) & 1 == 1)
        .collect();
    (a_rows, b_rows)
}

/// The top `half` A rows of each of `b_rows`, concatenated in `b_rows`
/// order, and what ranking them cost. A's rows, then `b_rows`, are cut into
/// one contiguous range per worker of `par`.
fn top_rows(
    a: &Table,
    b: &Table,
    b_rows: &[usize],
    half: usize,
    exclude: &[&str],
    par: &ParConfig,
) -> (Vec<u32>, RankCounts) {
    // The sampled rows' vocabulary first: a token none of them holds adds
    // to no overlap, so A is indexed over that vocabulary alone.
    let mut interner = TokenInterner::new();
    let sampled = Column::build(b, exclude, b_rows.iter().copied(), |t| {
        Some(interner.intern(t))
    });
    let n_a = a.nrows();
    let (chunks, _) = magellan_par::chunk_map(n_a, &par.one_chunk_per_worker(n_a), |range| {
        Column::build(a, exclude, range, |t| interner.get(t))
    });
    let index = Index::build(&chunks, n_a, interner.len());
    drop(chunks);

    let (tops, _) = magellan_par::chunk_map(
        b_rows.len(),
        &par.one_chunk_per_worker(b_rows.len()),
        |range| rank(&index, &sampled, range, n_a, half),
    );
    let mut cost = RankCounts::default();
    let mut rows = Vec::with_capacity(b_rows.len() * half);
    for (kept, c) in tops {
        cost += c;
        rows.extend(kept);
    }
    (rows, cost)
}

/// [`down_sample_indices`] materialized as tables.
pub fn down_sample(
    a: &Table,
    b: &Table,
    size_b: usize,
    y: usize,
    exclude: &[&str],
    seed: u64,
) -> (Table, Table) {
    let (a_rows, b_rows) = down_sample_indices(a, b, size_b, y, exclude, seed);
    (a.take(&a_rows), b.take(&b_rows))
}

/// The down-sampler as first written, kept as the oracle of the flat one.
#[cfg(test)]
mod reference {
    use std::collections::{HashMap, HashSet};

    use magellan_table::Table;
    use magellan_textsim::tokenize::{AlphanumericTokenizer, Tokenizer};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use rand::SeedableRng;

    /// Tokenize, per row, the concatenation of every non-excluded attribute in
    /// its display form (numbers and booleans too), nulls skipped.
    fn row_tokens(t: &Table, exclude: &[&str]) -> Vec<Vec<String>> {
        let tok = AlphanumericTokenizer::as_set();
        let idxs: Vec<usize> = t
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| !exclude.contains(&f.name.as_str()))
            .map(|(i, _)| i)
            .collect();
        t.rows()
            .map(|r| {
                let mut text = String::new();
                for &i in &idxs {
                    let v = t.value(r, i);
                    if !v.is_null() {
                        text.push_str(&v.display_string());
                        text.push(' ');
                    }
                }
                tok.tokenize(&text)
            })
            .collect()
    }

    /// [`super::down_sample_indices`] on a `String` per token, a
    /// `HashMap` index and a fully sorted `HashMap` of counts per B row.
    pub(super) fn down_sample_indices(
        a: &Table,
        b: &Table,
        size_b: usize,
        y: usize,
        exclude: &[&str],
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>) {
        assert!(y >= 2, "y must be at least 2");
        let mut rng = StdRng::seed_from_u64(seed);

        // Sample B rows.
        let mut b_rows: Vec<usize> = (0..b.nrows()).collect();
        b_rows.shuffle(&mut rng);
        b_rows.truncate(size_b.min(b.nrows()));
        b_rows.sort_unstable();

        // Inverted index over A's tokens.
        let a_tokens = row_tokens(a, exclude);
        let mut index: HashMap<&str, Vec<u32>> = HashMap::new();
        for (r, toks) in a_tokens.iter().enumerate() {
            for t in toks {
                index.entry(t.as_str()).or_default().push(r as u32);
            }
        }

        let b_tokens = row_tokens(b, exclude);
        let mut keep_a: HashSet<usize> = HashSet::new();
        let half = (y / 2).max(1);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &rb in &b_rows {
            // Top `half` A rows by token overlap with this B row.
            counts.clear();
            for t in &b_tokens[rb] {
                if let Some(rows) = index.get(t.as_str()) {
                    for &ra in rows {
                        *counts.entry(ra).or_insert(0) += 1;
                    }
                }
            }
            let mut scored: Vec<(u32, u32)> = counts.iter().map(|(&r, &c)| (c, r)).collect();
            scored.sort_unstable_by(|x, y| y.cmp(x)); // overlap desc, row desc tiebreak
            for &(_, ra) in scored.iter().take(half) {
                keep_a.insert(ra as usize);
            }
            // Plus `half` random A rows for negative diversity.
            for _ in 0..half {
                if a.nrows() > 0 {
                    keep_a.insert(rng.gen_range(0..a.nrows()));
                }
            }
        }
        let mut a_rows: Vec<usize> = keep_a.into_iter().collect();
        a_rows.sort_unstable();
        (a_rows, b_rows)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use magellan_datagen::domains::persons;
    use magellan_datagen::{DirtModel, ScenarioConfig};

    #[test]
    fn preserves_matches_far_better_than_random_sampling() {
        let s = persons(&ScenarioConfig {
            size_a: 600,
            size_b: 600,
            n_matches: 200,
            dirt: DirtModel::light(),
            seed: 11,
        });
        let (a_rows, b_rows) = down_sample_indices(&s.table_a, &s.table_b, 150, 4, &["id"], 7);
        assert_eq!(b_rows.len(), 150);

        // Count gold pairs surviving in the sample.
        let a_ids: HashSet<String> = a_rows
            .iter()
            .map(|&r| s.table_a.value_by_name(r, "id").unwrap().display_string())
            .collect();
        let b_ids: HashSet<String> = b_rows
            .iter()
            .map(|&r| s.table_b.value_by_name(r, "id").unwrap().display_string())
            .collect();
        let kept = s
            .gold
            .iter()
            .filter(|(x, y)| a_ids.contains(x) && b_ids.contains(y))
            .count();
        // ~150/600 of B's side of gold lands in the sample (~50 pairs);
        // smart sampling should keep the A side for most of them.
        let b_side = s.gold.iter().filter(|(_, y)| b_ids.contains(y)).count();
        assert!(b_side > 20, "sanity: B sample hits gold, got {b_side}");
        let keep_rate = kept as f64 / b_side as f64;
        assert!(
            keep_rate > 0.6,
            "smart down-sample kept only {kept}/{b_side} reachable matches"
        );

        // Reference point: independent random sampling of A at the same
        // size would keep matches at rate ≈ |A'|/|A|; the index-guided
        // sampler must clearly beat that baseline.
        let frac = a_rows.len() as f64 / s.table_a.nrows() as f64;
        assert!(
            keep_rate > frac + 0.25,
            "keep rate {keep_rate} not better than random fraction {frac}"
        );
    }

    #[test]
    fn sample_sizes_are_respected() {
        let s = persons(&ScenarioConfig::small(3));
        let (a2, b2) = down_sample(&s.table_a, &s.table_b, 50, 6, &["id"], 1);
        assert_eq!(b2.nrows(), 50);
        assert!(a2.nrows() <= s.table_a.nrows());
        assert!(a2.nrows() >= 50, "A sample too small: {}", a2.nrows());
        assert_eq!(a2.schema(), s.table_a.schema());
    }

    #[test]
    fn oversized_request_clamps() {
        let s = persons(&ScenarioConfig {
            size_a: 30,
            size_b: 20,
            n_matches: 10,
            dirt: DirtModel::clean(),
            seed: 5,
        });
        let (_, b_rows) = down_sample_indices(&s.table_a, &s.table_b, 999, 4, &["id"], 2);
        assert_eq!(b_rows.len(), 20);
    }

    #[test]
    fn deterministic_in_seed() {
        let s = persons(&ScenarioConfig::small(9));
        let r1 = down_sample_indices(&s.table_a, &s.table_b, 40, 4, &["id"], 77);
        let r2 = down_sample_indices(&s.table_a, &s.table_b, 40, 4, &["id"], 77);
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "y must be")]
    fn tiny_y_panics() {
        let s = persons(&ScenarioConfig::small(1));
        down_sample_indices(&s.table_a, &s.table_b, 10, 1, &["id"], 0);
    }

    use magellan_table::{Dtype, Field, Schema, Value};
    use proptest::prelude::*;

    /// A short text cell: words over a tiny vocabulary, so tokens repeat
    /// within a cell, across cells and across rows; mixed case, `-` joins,
    /// empty words, and non-ASCII letters (é, U+212A KELVIN SIGN, İ) that
    /// the alphanumeric tokenizer splits on.
    fn text() -> impl Strategy<Value = String> {
        let word = prop_oneof![
            1 => Just(String::new()),
            4 => "[a-c]{1,2}",
            2 => "[A-C][a-c]",
            1 => Just("ab-ab".to_owned()),
            1 => Just("caf\u{e9} cafe".to_owned()),
            1 => Just("\u{212a}elvin kelvin".to_owned()),
            1 => Just("\u{130}stanbul istanbul".to_owned()),
            2 => "[0-9]{1,2}",
        ];
        proptest::collection::vec(word, 0..5).prop_map(|w| w.join(" "))
    }

    /// One row after its key: two text cells, an `Int`, a `Float` (NaN
    /// and infinity among them) and a `Bool`, each null a fifth of the
    /// time.
    fn row() -> impl Strategy<Value = Vec<Value>> {
        let float = prop_oneof![
            6 => (-8i64..8).prop_map(|k| k as f64 / 4.0),
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
        ];
        (
            proptest::option::weighted(0.8, text().prop_map(Value::Str)),
            proptest::option::weighted(0.8, text().prop_map(Value::Str)),
            proptest::option::weighted(0.8, (-3i64..12).prop_map(Value::Int)),
            proptest::option::weighted(0.8, float.prop_map(Value::Float)),
            proptest::option::weighted(0.8, any::<bool>().prop_map(Value::Bool)),
        )
            .prop_map(|(n, t, i, x, f)| {
                [n, t, i, x, f]
                    .into_iter()
                    .map(|v| v.unwrap_or(Value::Null))
                    .collect()
            })
    }

    /// A table of up to 11 rows, empty one time in six; keys `r0`, `r1`, …
    /// on both sides, so they overlap unless excluded.
    fn table() -> impl Strategy<Value = Table> {
        prop_oneof![1 => Just(0usize), 5 => 1usize..12]
            .prop_flat_map(|n| proptest::collection::vec(row(), n))
            .prop_map(keyed)
    }

    /// A table of 64 to 159 rows: most `[0-9]{1,2}` tokens are rare enough
    /// to be listed (`32 · df < |A|`), the letter words and small numbers
    /// frequent enough to be bitmaps.
    fn tall_table() -> impl Strategy<Value = Table> {
        (64usize..160)
            .prop_flat_map(|n| proptest::collection::vec(row(), n))
            .prop_map(keyed)
    }

    /// `rows` behind keys `r0`, `r1`, ….
    fn keyed(rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", Dtype::Str),
            Field::new("name", Dtype::Str),
            Field::new("note", Dtype::Str),
            Field::new("n", Dtype::Int),
            Field::new("x", Dtype::Float),
            Field::new("flag", Dtype::Bool),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for (r, cells) in rows.into_iter().enumerate() {
            let mut row = vec![Value::Str(format!("r{r}"))];
            row.extend(cells);
            t.push_row(row).unwrap();
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat down-sampler returns exactly what the `HashMap` one
        /// does: same B sample, same A rows, on hostile little tables, for
        /// odd and even `y`, every `size_b` from 0 to two past `|B|`,
        /// exclude lists that name the key, a text attribute, nothing, or
        /// a column neither table has, and one to four ranking workers.
        #[test]
        fn flat_down_sampler_matches_the_reference(
            a in table(),
            b in table(),
            size_b in 0usize..14,
            y in prop_oneof![Just(2usize), Just(3), Just(4), Just(7)],
            exclude in prop_oneof![
                Just(Vec::<&'static str>::new()),
                Just(vec!["id"]),
                Just(vec!["id", "name"]),
                Just(vec!["nope"]),
                Just(vec!["x", "nope", "flag"]),
            ],
            seed in any::<u64>(),
            workers in 1usize..5,
        ) {
            let size_b = size_b % (b.nrows() + 3);
            let par = ParConfig::workers(workers);
            prop_assert_eq!(
                down_sample_indices_on(&a, &b, size_b, y, &exclude, seed, &par),
                reference::down_sample_indices(&a, &b, size_b, y, &exclude, seed)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same on an A tall enough that both layouts of the index
        /// occur: rows reached through a list and through bitmaps, and rows
        /// only bitmaps reach, which the scan finds.
        #[test]
        fn mixed_index_matches_the_reference(
            a in tall_table(),
            b in table(),
            size_b in 0usize..14,
            y in prop_oneof![Just(2usize), Just(4), Just(7)],
            seed in any::<u64>(),
            workers in 1usize..3,
        ) {
            let size_b = size_b % (b.nrows() + 3);
            let par = ParConfig::workers(workers);
            prop_assert_eq!(
                down_sample_indices_on(&a, &b, size_b, y, &["id"], seed, &par),
                reference::down_sample_indices(&a, &b, size_b, y, &["id"], seed)
            );
        }
    }

    /// A table of keys `r0`, `r1`, … and one text cell per row.
    fn texts(cells: &[String]) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", Dtype::Str),
            Field::new("name", Dtype::Str),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for (r, cell) in cells.iter().enumerate() {
            t.push_row(vec![Value::Str(format!("r{r}")), Value::Str(cell.clone())])
                .unwrap();
        }
        t
    }

    /// A's rows as text cells: row `r` holds each token whose row list
    /// names it.
    fn rows_holding<T: AsRef<str>>(n: usize, tokens: &[(T, Vec<usize>)]) -> Table {
        let mut cells = vec![String::new(); n];
        for (tok, rows) in tokens {
            for &r in rows {
                cells[r].push_str(tok.as_ref());
                cells[r].push(' ');
            }
        }
        texts(&cells)
    }

    /// The second kept row, found through a listed token, ties in overlap
    /// with a higher row that only long tokens hold: the scan must not
    /// stop while an unread row could tie and win on its row.
    #[test]
    fn an_unread_row_that_ties_wins_on_its_row() {
        // 200 rows: a token is long from 7 rows on (32 · 7 ≥ 200).
        let a = rows_holding(
            200,
            &[
                ("s1", vec![5, 6]),
                ("s2", vec![6]),
                ("l1", [5, 6, 150].into_iter().chain(100..108).collect()),
                ("l2", [5, 6, 150].into_iter().chain(110..118).collect()),
                ("l3", [150].into_iter().chain(120..128).collect()),
            ],
        );
        let b = texts(&["s1 s2 l1 l2 l3".to_owned()]);
        // Row 6 overlaps 4; rows 5 and 150 overlap 3 each, and 150 is higher.
        let (top, cost) = top_rows(&a, &b, &[0], 2, &["id"], &ParConfig::serial());
        assert_eq!(top, [6, 150]);
        assert_eq!(cost.postings, 3, "s1's two rows and s2's one");
        assert_eq!(
            down_sample_indices_on(&a, &b, 1, 4, &["id"], 5, &ParConfig::serial()),
            reference::down_sample_indices(&a, &b, 1, 4, &["id"], 5)
        );
    }

    /// Every token of a sampled row is frequent and no two share an A row,
    /// so every A row overlaps it by one and the scan cannot stop early.
    /// The output is the reference's; the ranking reads no more row-list
    /// entries than the tokens' document frequencies sum to (what counting
    /// every posting costs), and each bitmap word at most once.
    #[test]
    fn frequent_tokens_that_never_meet_cost_no_more_than_their_postings() {
        // 2 048 rows: `f*` in 32 rows each, listed (32 · 32 < 2 048);
        // `g*` in 256 rows each, long.
        let family = |name: &str, step: usize| -> Vec<(String, Vec<usize>)> {
            (0..8)
                .map(|i| (format!("{name}{i}"), (i..2_048).step_by(step).collect()))
                .collect()
        };
        let (f, g) = (family("f", 64), family("g", 8));
        let words = |p: &[(String, Vec<usize>)]| {
            let names: Vec<&str> = p.iter().map(|(t, _)| t.as_str()).collect();
            names.join(" ")
        };
        let tokens = [f.clone(), g.clone()].concat();
        let a = rows_holding(2_048, &tokens);
        let b = texts(&[words(&f), words(&g)]);
        let df: usize = tokens.iter().map(|(_, r)| r.len()).sum();
        let (top, cost) = top_rows(&a, &b, &[0, 1], 2, &["id"], &ParConfig::serial());
        assert_eq!(top, [1_991, 1_990, 2_047, 2_046]);
        assert!(cost.postings <= df as u64, "{cost:?} against {df} postings");
        assert_eq!(cost.postings, 8 * 32, "the listed tokens, once each");
        assert!(cost.bitmap_probes <= 8 * 2_048 / 64, "{cost:?}");
        for y in [2, 4, 7] {
            assert_eq!(
                down_sample_indices_on(&a, &b, 2, y, &["id"], 9, &ParConfig::serial()),
                reference::down_sample_indices(&a, &b, 2, y, &["id"], 9)
            );
        }
    }

    /// The counters a recorder reads are sums over the sampled rows, the
    /// same at one worker and at two.
    #[test]
    fn ranking_counters_are_worker_count_invariant() {
        let s = magellan_datagen::domains::products(&ScenarioConfig {
            size_a: 4_000,
            size_b: 600,
            n_matches: 300,
            dirt: DirtModel::light(),
            seed: 77,
        });
        let counters = |workers| {
            let obs = magellan_obs::Obs::pinned();
            let out = {
                let _installed = obs.install();
                let par = ParConfig::workers(workers);
                down_sample_indices_on(&s.table_a, &s.table_b, 200, 4, &[], 7, &par)
            };
            let snap = obs.snapshot();
            let read = |name| snap.counter(&format!("magellan_core_downsample_{name}_total"));
            (out, read("postings"), read("bitmap_probes"))
        };
        let serial = counters(1);
        assert!(serial.1 > 0 && serial.2 > 0, "{:?}", (serial.1, serial.2));
        assert_eq!(counters(2), serial);
    }
}
