//! Flat CSR prefix inverted index.
//!
//! The join's dominant data structure maps each token id to the
//! `(record, position, size)` postings whose *prefix* contains that token.
//! Because [`crate::collection::TokenizedCollection`] hands us **dense
//! rarest-first token ids**, the map needs no hashing at all: a CSR
//! (compressed sparse row) layout stores one contiguous [`Posting`] buffer
//! plus a token-id-indexed offsets array, so a probe is a single bounds
//! check and two array reads instead of a `HashMap` probe. Callers whose
//! ids are dense over `base..` rather than `0..` (the incremental tier's
//! descending keys) name that `base` at build, and the offsets array
//! covers only the ids in use.
//!
//! Within each token's postings list the entries are sorted by
//! **record size** (ties by record id, which preserves build order), so
//! the length filter of the join becomes a binary-searched *contiguous
//! range* ([`PrefixIndex::size_window`]) rather than a per-candidate
//! branch — out-of-window candidates are skipped wholesale without ever
//! being touched.

use crate::collection::TokenColumn;

/// One prefix posting: a record whose prefix holds the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Record id on the indexed side.
    pub rid: u32,
    /// Position of the token inside the record's sorted id set.
    pub pos: u32,
    /// Token-set size of the record (denormalized so the size filter
    /// never dereferences the record itself).
    pub size: u32,
    /// One bit per token of the record *after* `pos` (bit
    /// `t.wrapping_mul(0x9E37_79B9) >> 27` of token `t`): two remainders
    /// whose bitmaps differ in `h` bits differ in at least `h` tokens, which
    /// is what lets the positional filter bound their overlap without
    /// dereferencing the record (DESIGN.md §7.1).
    pub rest: u32,
}

/// The remainder-bitmap bit of token `t`: one fixed, unseeded
/// multiplicative hash onto 32 bits, the same on every side of every join.
#[inline]
pub(crate) fn token_bit(t: u32) -> u32 {
    1 << (t.wrapping_mul(0x9E37_79B9) >> 27)
}

/// One reverse pass over `rec`: `f(pos, rec[pos], rest)` for each
/// `pos < plen`, last first, where `rest` is the bitmap of `rec[pos + 1..]`.
#[inline]
pub(crate) fn for_each_rest(rec: &[u32], plen: usize, mut f: impl FnMut(usize, u32, u32)) {
    let (prefix, suffix) = rec.split_at(plen);
    let mut rest = suffix.iter().fold(0, |m, &t| m | token_bit(t));
    for (pos, &tok) in prefix.iter().enumerate().rev() {
        f(pos, tok, rest);
        rest |= token_bit(tok);
    }
}

/// `n` as one of the index's `u32` fields (a record id, a position or size,
/// an offset into the postings), or a panic naming the limit.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!(
            "a PrefixIndex holds at most u32::MAX records, tokens per record and postings; got {n}"
        )
    })
}

/// Inverted index from token id to the records whose *prefix* contains
/// that token, in CSR layout. Built over the indexed side of a join;
/// probed with the prefixes of the other side.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    /// Smallest token id the offsets cover; ids below it have no postings.
    base: u32,
    /// `offsets[t - base]..offsets[t - base + 1]` delimits token `t`'s
    /// postings.
    offsets: Vec<u32>,
    /// All postings, grouped by token, each group sorted by `(size, rid)`.
    postings: Vec<Posting>,
    /// Prefix length actually indexed per record (`prefix_len_of(size)`
    /// clamped to the record size) — verification needs it to resume the
    /// merge after the counted prefix overlap.
    prefix_lens: Vec<u32>,
}

impl PrefixIndex {
    /// Build the index. `prefix_len_of(size)` gives the number of leading
    /// (rarest) tokens of a record of that size to index. `base` is a
    /// lower bound on every indexed token id (0 for dense join-local ids):
    /// the offsets array spans `base..=max indexed id`.
    ///
    /// # Panics
    /// If an indexed prefix token is below `base`, or a count outgrows the
    /// `u32` fields (more than `u32::MAX` records, tokens in a record or
    /// postings in all).
    pub fn build(records: &[Vec<u32>], base: u32, prefix_len_of: impl Fn(usize) -> usize) -> Self {
        Self::build_from(records.len(), |rid| &records[rid], base, prefix_len_of)
    }

    /// [`PrefixIndex::build`] over the records of a [`TokenColumn`].
    pub fn build_column(
        records: &TokenColumn,
        base: u32,
        prefix_len_of: impl Fn(usize) -> usize,
    ) -> Self {
        Self::build_from(records.len(), |rid| &records[rid], base, prefix_len_of)
    }

    /// The build over `n` records, record `rid` being `record(rid)`.
    fn build_from<'a>(
        n: usize,
        record: impl Fn(usize) -> &'a [u32],
        base: u32,
        prefix_len_of: impl Fn(usize) -> usize,
    ) -> Self {
        let records = || (0..n).map(&record);
        // Pass 0: per-record prefix lengths and the token-id universe.
        let mut prefix_lens = Vec::with_capacity(n);
        let mut max_token: u32 = base;
        let mut n_postings = 0usize;
        for rec in records() {
            let plen = prefix_len_of(rec.len()).min(rec.len());
            prefix_lens.push(narrow(plen));
            n_postings += plen;
            for &tok in &rec[..plen] {
                assert!(tok >= base, "indexed token {tok} below base {base}");
                max_token = max_token.max(tok);
            }
        }
        let n_tokens = if n_postings == 0 {
            0
        } else {
            (max_token - base) as usize + 1
        };

        // Pass 1: postings count per token → CSR offsets (prefix sum), none
        // of which exceeds the total.
        narrow(n_postings);
        let mut offsets = vec![0u32; n_tokens + 1];
        for (rec, &plen) in records().zip(&prefix_lens) {
            for &tok in &rec[..plen as usize] {
                offsets[(tok - base) as usize + 1] += 1;
            }
        }
        for t in 0..n_tokens {
            offsets[t + 1] += offsets[t];
        }

        // Pass 2: scatter into the flat buffer, records in (size, rid) order
        // (a counting sort by size), so every list comes out ordered for the
        // size window's binary search — a total order, since each record
        // contributes one posting per token. A record's postings go back to
        // front, each carrying the bitmap of what follows it.
        let mut by_size = vec![0usize; records().map(<[u32]>::len).max().unwrap_or(0) + 2];
        for rec in records() {
            by_size[rec.len() + 1] += 1;
        }
        for s in 1..by_size.len() {
            by_size[s] += by_size[s - 1];
        }
        let mut order = vec![0; n];
        for (rid, rec) in records().enumerate() {
            order[by_size[rec.len()]] = rid;
            by_size[rec.len()] += 1;
        }
        let mut cursor = offsets.clone();
        let mut postings = vec![
            Posting {
                rid: 0,
                pos: 0,
                size: 0,
                rest: 0
            };
            n_postings
        ];
        for rid in order {
            let rec = record(rid);
            let (rid, size) = (narrow(rid), narrow(rec.len()));
            for_each_rest(rec, prefix_lens[rid as usize] as usize, |pos, tok, rest| {
                let t = (tok - base) as usize;
                postings[cursor[t] as usize] = Posting {
                    rid,
                    pos: narrow(pos),
                    size,
                    rest,
                };
                cursor[t] += 1;
            });
        }

        PrefixIndex {
            base,
            offsets,
            postings,
            prefix_lens,
        }
    }

    /// Postings list of a token (records whose prefix holds the token).
    ///
    /// Probe tokens are **pre-clamped against the index's token-id range**:
    /// an out-of-vocabulary token (one the indexed side never put in a
    /// prefix — common when the probe side has its own rare tokens, which
    /// get large rarest-first ids; or, below `base`, a token born after the
    /// build) returns the empty slice without any lookup machinery, and
    /// can never panic or rehash.
    #[inline]
    pub fn postings(&self, token: u32) -> &[Posting] {
        let Some(t) = token.checked_sub(self.base) else {
            return &[];
        };
        let t = t as usize;
        if t + 1 >= self.offsets.len() {
            return &[];
        }
        &self.postings[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// The contiguous sub-list of a token's postings whose record sizes
    /// fall inside `[lo, hi]` — the size filter as two binary searches
    /// over the size-sorted list instead of one branch per candidate —
    /// and how many of the token's postings fell outside it (the filter's
    /// kill count). `hi < lo` is the empty window.
    #[inline]
    pub fn size_window(&self, token: u32, lo: usize, hi: usize) -> (&[Posting], usize) {
        let list = self.postings(token);
        let lo = lo.min(u32::MAX as usize) as u32;
        let hi = hi.min(u32::MAX as usize) as u32;
        let a = list.partition_point(|p| p.size < lo);
        let b = list.partition_point(|p| p.size <= hi).max(a);
        (&list[a..b], list.len() - (b - a))
    }

    /// Indexed prefix length of a record (already clamped to its size).
    #[inline]
    pub fn prefix_len(&self, rid: usize) -> usize {
        self.prefix_lens[rid] as usize
    }

    /// Number of token-id slots the CSR offsets cover (= max indexed
    /// token id − `base` + 1; an upper bound on distinct indexed tokens).
    pub fn n_token_slots(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of distinct indexed tokens (slots with at least one posting).
    pub fn n_tokens(&self) -> usize {
        (0..self.n_token_slots())
            .filter(|&t| self.offsets[t] != self.offsets[t + 1])
            .count()
    }

    /// Total postings across all tokens.
    pub fn n_postings(&self) -> usize {
        self.postings.len()
    }

    /// Heap bytes held by the index's three arrays — the number the
    /// sharded join budgets against. Matches [`estimate_index_bytes`]
    /// exactly for the same record set built at base 0.
    pub fn index_bytes(&self) -> usize {
        self.postings.len() * std::mem::size_of::<Posting>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.prefix_lens.len() * std::mem::size_of::<u32>()
    }
}

/// Bytes [`PrefixIndex::build`] at base 0 would allocate for `records` —
/// computed without building, so shard planning can size K before paying
/// for any index. Exact (same arrays, same element counts), not an
/// estimate of actual RSS.
pub fn estimate_index_bytes(
    records: &TokenColumn,
    prefix_len_of: impl Fn(usize) -> usize,
) -> usize {
    let mut n_postings = 0usize;
    let mut max_token: u32 = 0;
    for rec in records.iter() {
        let plen = prefix_len_of(rec.len()).min(rec.len());
        n_postings += plen;
        for &tok in &rec[..plen] {
            max_token = max_token.max(tok);
        }
    }
    let n_tokens = if n_postings == 0 {
        0
    } else {
        max_token as usize + 1
    };
    n_postings * std::mem::size_of::<Posting>()
        + (n_tokens + 1) * std::mem::size_of::<u32>()
        + records.len() * std::mem::size_of::<u32>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(list: &[Posting]) -> Vec<(u32, u32)> {
        list.iter().map(|p| (p.rid, p.pos)).collect()
    }

    #[test]
    fn indexes_only_prefixes() {
        let records = vec![vec![1, 2, 3, 4], vec![2, 5], vec![]];
        // Constant prefix length of 2.
        let idx = PrefixIndex::build(&records, 0, |_| 2);
        assert_eq!(pairs(idx.postings(1)), &[(0, 0)]);
        // Token 2: record 1 (size 2) sorts before record 0 (size 4).
        assert_eq!(pairs(idx.postings(2)), &[(1, 0), (0, 1)]);
        assert!(
            idx.postings(3).is_empty(),
            "token 3 is beyond record 0's prefix"
        );
        assert_eq!(pairs(idx.postings(5)), &[(1, 1)]);
        assert_eq!(idx.n_tokens(), 3);
        assert_eq!(idx.n_postings(), 4);
        assert_eq!(idx.prefix_len(0), 2);
        assert_eq!(idx.prefix_len(2), 0);
    }

    /// Every `u32` field of the index is narrowed through one check.
    #[test]
    #[should_panic(expected = "at most u32::MAX records, tokens per record and postings")]
    fn narrowing_past_u32_panics_naming_the_limit() {
        assert_eq!(narrow(u32::MAX as usize), u32::MAX);
        narrow(u32::MAX as usize + 1);
    }

    #[test]
    fn prefix_longer_than_record_is_clamped() {
        let records = vec![vec![7]];
        let idx = PrefixIndex::build(&records, 0, |_| 10);
        assert_eq!(pairs(idx.postings(7)), &[(0, 0)]);
        assert_eq!(idx.prefix_len(0), 1);
    }

    #[test]
    fn size_dependent_prefix() {
        let records = vec![vec![1, 2, 3, 4], vec![1, 2]];
        // Half the record, at least 1.
        let idx = PrefixIndex::build(&records, 0, |s| (s / 2).max(1));
        assert_eq!(idx.postings(1).len(), 2);
        assert_eq!(idx.postings(2).len(), 1); // only the 4-token record indexes position 1
    }

    /// Regression: probe tokens the indexed side never saw (ids beyond the
    /// CSR range) must resolve to the empty slice — no panic, no rehash.
    #[test]
    fn out_of_vocabulary_probe_tokens_are_clamped() {
        let records = vec![vec![0, 1], vec![1, 2]];
        let idx = PrefixIndex::build(&records, 0, |_| 2);
        assert!(idx.postings(3).is_empty());
        assert!(idx.postings(1_000_000).is_empty());
        assert!(idx.postings(u32::MAX).is_empty());
        assert!(idx.size_window(u32::MAX, 0, usize::MAX).0.is_empty());
        // And the empty index clamps everything.
        let empty = PrefixIndex::build(&[], 0, |_| 2);
        assert!(empty.postings(0).is_empty());
        assert_eq!(empty.n_token_slots(), 0);
        // An index whose only records are empty also has zero slots.
        let blank = PrefixIndex::build(&[vec![], vec![]], 0, |_| 3);
        assert!(blank.postings(0).is_empty());
        assert_eq!(blank.n_postings(), 0);
    }

    /// A based index covers only `base..=max`: same postings as the
    /// base-0 build, offsets sized by the ids in use, ids below the base
    /// clamp to the empty slice like ids above the range.
    #[test]
    fn based_index_is_dense_over_the_ids_in_use() {
        let top = u32::MAX;
        let records = vec![vec![top - 3, top - 1, top], vec![top - 2, top - 1]];
        let idx = PrefixIndex::build(&records, top - 3, |_| 2);
        assert_eq!(idx.n_token_slots(), 3);
        assert_eq!(pairs(idx.postings(top - 3)), &[(0, 0)]);
        assert_eq!(pairs(idx.postings(top - 2)), &[(1, 0)]);
        assert_eq!(pairs(idx.postings(top - 1)), &[(1, 1), (0, 1)]);
        assert!(idx.postings(top).is_empty(), "beyond both prefixes");
        assert!(idx.postings(top - 4).is_empty(), "below the base");
        assert!(idx.postings(0).is_empty());
        assert!(idx.size_window(top - 4, 0, usize::MAX).0.is_empty());
    }

    #[test]
    fn postings_are_size_sorted_and_window_is_contiguous() {
        // Token 9 appears in prefixes of records with sizes 5, 2, 8, 2.
        let records = vec![
            vec![9, 10, 11, 12, 13],
            vec![9, 14],
            vec![9, 15, 16, 17, 18, 19, 20, 21],
            vec![9, 22],
        ];
        let idx = PrefixIndex::build(&records, 0, |_| 1);
        let sizes: Vec<u32> = idx.postings(9).iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![2, 2, 5, 8]);
        // Ties broken by rid, ascending.
        assert_eq!(idx.postings(9)[0].rid, 1);
        assert_eq!(idx.postings(9)[1].rid, 3);
        // Windows are binary-searched contiguous ranges; the rest is the
        // size filter's kill count.
        let sizes = |lo, hi| {
            let (win, outside) = idx.size_window(9, lo, hi);
            (win.len(), outside)
        };
        assert_eq!(sizes(2, 5), (3, 1));
        assert_eq!(sizes(3, 4), (0, 4));
        assert_eq!(sizes(6, usize::MAX), (1, 3));
        assert_eq!(sizes(0, usize::MAX), (4, 0));
        assert_eq!(sizes(6, 3), (0, 4));
    }
}
