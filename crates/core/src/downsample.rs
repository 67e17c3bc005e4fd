//! Intelligent down-sampling — the first pain-point tool of the guide.
//!
//! Randomly sampling both tables independently would destroy most matched
//! pairs (a random 10% of A × random 10% of B keeps only ~1% of matches).
//! Magellan's `down_sample` instead samples one table and then pulls, for
//! each sampled tuple, its most *lexically similar* tuples from the other
//! table via an inverted token index — preserving match pairs at small
//! sample sizes. That algorithm is reproduced here.

use std::fmt::Write as _;

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

/// The inverted index over A's tokens: token `id`'s rows, ascending, are
/// `rows[starts[id]..starts[id + 1]]`.
struct Postings {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Postings {
    /// Intern each row's tokens into one flat column of distinct ids per
    /// row (a per-id row stamp drops repeats), then invert the column with
    /// one counting sort.
    fn build(a: &Table, exclude: &[&str], interner: &mut TokenInterner, buf: &mut String) -> Self {
        let (mut ids, mut offsets) = (Vec::new(), Vec::with_capacity(a.nrows() + 1));
        offsets.push(0u32);
        let mut stamp: Vec<u32> = Vec::new();
        for r in 0..a.nrows() {
            let mark = narrow(r + 1);
            for_each_row_token(a, exclude, r, buf, &mut |t| {
                let id = interner.intern(t) as usize;
                if id == stamp.len() {
                    stamp.push(0);
                }
                if std::mem::replace(&mut stamp[id], mark) != mark {
                    ids.push(id as u32);
                }
            });
            offsets.push(narrow(ids.len()));
        }
        let vocab = stamp.len();
        let mut starts = vec![0u32; vocab + 1];
        for &id in &ids {
            starts[id as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        // `stamp` has one entry per id: reuse it as each token's cursor.
        let mut next = stamp;
        next.copy_from_slice(&starts[..vocab]);
        let mut rows = vec![0u32; ids.len()];
        for (r, span) in offsets.windows(2).enumerate() {
            for &id in &ids[span[0] as usize..span[1] as usize] {
                rows[next[id as usize] as usize] = r as u32;
                next[id as usize] += 1;
            }
        }
        Postings { starts, rows }
    }

    fn rows(&self, id: u32) -> &[u32] {
        &self.rows[self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize]
    }
}

/// Down-sample two tables: keep `size_b` random rows of `B`, and for each
/// kept row, its `y/2` most token-overlapping rows of `A` plus `y/2`
/// random rows of `A`. Returns the row-index samples `(a_rows, b_rows)`.
///
/// `exclude` lists attributes (typically the keys) left out of the lexical
/// index. Overlap ties go to the higher A row. The random draws follow the
/// sampled B rows in ascending order, `y/2` per row. The ranking runs on
/// the host's cores, at most two; the result does not depend on how many.
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

/// [`down_sample_indices`] ranking on `par`'s workers: the sampled B rows
/// are cut into one contiguous range per worker, each ranked with its own
/// buffers.
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

    let mut interner = TokenInterner::new();
    let index = Postings::build(a, exclude, &mut interner, &mut String::new());

    let half = (y / 2).max(1);
    let pool = par.at_most(b_rows.len());
    let pool = pool.with_chunk_size(b_rows.len().div_ceil(pool.n_workers));
    let (tops, _) = magellan_par::chunk_map(b_rows.len(), &pool, |range| {
        let mut buf = String::new();
        // One overlap count per A row; `touched` lists the non-zero ones.
        let (mut counts, mut touched) = (vec![0u32; a.nrows()], Vec::new());
        // The last sampled B row (+ 1) that counted each token.
        let mut seen = vec![0u32; interner.len()];
        let mut top: Vec<(u32, u32)> = Vec::with_capacity(half + 1);
        let mut kept = Vec::with_capacity(range.len() * half);
        for k in range {
            let mark = narrow(k + 1);
            for_each_row_token(b, exclude, b_rows[k], &mut buf, &mut |t| {
                let Some(id) = interner.get(t) else { return };
                if std::mem::replace(&mut seen[id as usize], mark) == mark {
                    return;
                }
                for &ra in index.rows(id) {
                    if counts[ra as usize] == 0 {
                        touched.push(ra);
                    }
                    counts[ra as usize] += 1;
                }
            });
            // Top `half` A rows by (overlap, row), both descending, kept
            // sorted in one pass over the touched rows, whose counts are
            // zeroed.
            top.clear();
            for &ra in &touched {
                let key = (std::mem::take(&mut counts[ra as usize]), ra);
                if top.len() < half || key > top[half - 1] {
                    top.insert(top.partition_point(|&k| k > key), key);
                    top.truncate(half);
                }
            }
            touched.clear();
            kept.extend(top.iter().map(|&(_, ra)| ra));
        }
        kept
    });

    let mut keep = vec![0u64; a.nrows().div_ceil(64)];
    let mut keep_row = |r: usize| keep[r / 64] |= 1 << (r % 64);
    for &ra in tops.iter().flatten() {
        keep_row(ra as usize);
    }
    // Plus `half` random A rows per sampled B row for negative diversity,
    // drawn in B-row order; `keep` is a set, so they need not interleave
    // with the ranked rows.
    if a.nrows() > 0 {
        for _ in 0..b_rows.len() * half {
            keep_row(rng.gen_range(0..a.nrows()));
        }
    }
    let a_rows = (0..a.nrows())
        .filter(|&r| keep[r / 64] >> (r % 64) & 1 == 1)
        .collect();
    (a_rows, b_rows)
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
        let (a_rows, b_rows) =
            down_sample_indices(&s.table_a, &s.table_b, 150, 4, &["id"], 7);
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
            .prop_map(|rows| {
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
            })
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
}
