//! Tokenized collections with frequency-ordered integer token ids.
//!
//! Prefix filtering needs a *global token order* in which rare tokens come
//! first: a set's "prefix" under that order is maximally selective. We
//! tokenize both collections **once per record** into a shared
//! [`TokenInterner`] (the same substrate the prepared feature cache uses),
//! count document frequencies over their union, assign join-local ids
//! rarest-first (ties broken lexicographically for determinism), and store
//! each side as one flat [`TokenColumn`]: every record's sorted ids back to
//! back, plus one offset per record.
//!
//! Because interning happens through a caller-suppliable interner
//! ([`TokenizedCollection::build_with_interner`]), several joins over the
//! same columns — e.g. a rule blocker's per-predicate sim-joins — share
//! one vocabulary and skip re-hashing token strings they have already
//! seen. The rarest-first remap is a pure permutation of interner ids, so
//! join results are independent of which interner is supplied.

use std::ops::Index;

use magellan_textsim::intern::narrow;
use magellan_textsim::tokenize::Tokenizer;
use magellan_textsim::TokenInterner;

use crate::incremental::Side;

/// One side's token-id records in one buffer: record `r` is
/// `ids[offsets[r]..offsets[r + 1]]`, the layout of the CSR prefix index
/// and of the `emtbl` string heap. However many records it holds, it is
/// two heap blocks. It holds at most `u32::MAX` records, checked as it
/// is built, so the joins emit rids as `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenColumn {
    ids: Vec<u32>,
    /// `len() + 1` entries, the first 0.
    offsets: Vec<u32>,
}

impl Default for TokenColumn {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl TokenColumn {
    /// An empty column with room for `records` records of `ids` ids in all.
    fn with_capacity(records: usize, ids: usize) -> Self {
        let mut offsets = Vec::with_capacity(records + 1);
        offsets.push(0);
        TokenColumn {
            ids: Vec::with_capacity(ids),
            offsets,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the column holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ids over all records.
    pub(crate) fn n_ids(&self) -> usize {
        self.ids.len()
    }

    /// The records in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// Append a record.
    ///
    /// # Panics
    /// If the column would pass `u32::MAX` ids or records.
    fn push(&mut self, record: &[u32]) {
        narrow(self.offsets.len());
        self.ids.extend_from_slice(record);
        self.offsets.push(narrow(self.ids.len()));
    }

    /// The records `rids` names, in that order, as a column of their own
    /// (two exact-size allocations).
    pub(crate) fn gather(&self, rids: &[u32]) -> TokenColumn {
        let n_ids = rids.iter().map(|&r| self[r as usize].len()).sum();
        let mut out = TokenColumn::with_capacity(rids.len(), n_ids);
        for &r in rids {
            out.push(&self[r as usize]);
        }
        out
    }
}

impl Index<usize> for TokenColumn {
    type Output = [u32];

    /// Record `r`'s ids.
    fn index(&self, r: usize) -> &[u32] {
        &self.ids[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

impl<R: AsRef<[u32]>> FromIterator<R> for TokenColumn {
    fn from_iter<I: IntoIterator<Item = R>>(records: I) -> Self {
        let mut out = TokenColumn::default();
        for rec in records {
            out.push(rec.as_ref());
        }
        out
    }
}

/// A pair of string collections tokenized under one shared token order.
#[derive(Debug, Clone)]
pub struct TokenizedCollection {
    /// Sorted token-id sets, one per left record (empty for null/empty input).
    pub left: TokenColumn,
    /// Sorted token-id sets, one per right record.
    pub right: TokenColumn,
    /// Number of distinct tokens across both sides.
    pub vocab_size: usize,
}

/// Records a build tokenizes before it sizes a column's ids for the rest.
const SAMPLE: usize = 1024;

/// What a build tracks per interner id.
#[derive(Debug, Clone, Copy, Default)]
struct TokenTally {
    /// The last record to hold the token, numbered from 1 across both
    /// sides (0: none yet): a record's repeats of a token are dropped
    /// against it.
    last_record: u32,
    /// Records holding the token; its rarest-first rank once they are
    /// all counted.
    df: u32,
}

impl TokenizedCollection {
    /// Tokenize two collections with set semantics and a shared,
    /// rarest-first token order. `None` entries produce empty token sets
    /// (they can never reach a positive similarity threshold).
    pub fn build<S: AsRef<str>>(
        left: &[Option<S>],
        right: &[Option<S>],
        tokenizer: &dyn Tokenizer,
    ) -> Self {
        let mut interner = TokenInterner::new();
        Self::build_with_interner(left, right, tokenizer, &mut interner)
    }

    /// [`TokenizedCollection::build`] through a caller-owned
    /// [`TokenInterner`]: token strings already interned (by an earlier
    /// collection over the same columns, or by the prepared feature cache)
    /// are not re-hashed. The result is **identical** for any interner
    /// contents — the join-local ids are a rarest-first permutation keyed
    /// by `(document frequency, token string)`, both independent of
    /// interner id assignment.
    pub fn build_with_interner<S: AsRef<str>>(
        left: &[Option<S>],
        right: &[Option<S>],
        tokenizer: &dyn Tokenizer,
        interner: &mut TokenInterner,
    ) -> Self {
        Self::build_from_cells(
            [left.len(), right.len()],
            |side, r, cell| {
                let records = if side == Side::Left { left } else { right };
                if let Some(s) = &records[r] {
                    cell(s.as_ref());
                }
            },
            tokenizer,
            interner,
        )
    }

    /// The one build: `lens` records a side, where `cells(side, r, cell)`
    /// hands each text cell of record `r` to `cell`, and a record's token
    /// set is the union of its cells' sets. It equals
    /// [`TokenizedCollection::build_with_interner`] over each record's
    /// cells joined by a separator whenever `tokenizer` never emits a token
    /// across that separator (the alphanumeric tokenizer and `' '`, say),
    /// with no joined string formatted.
    ///
    /// One pass over the tokens interns each one, drops a record's repeats
    /// and counts document frequencies as it goes; the vocabulary is then
    /// sorted rarest-first once, the ids relabelled in place and each
    /// record's slice sorted once. Nothing is allocated per record.
    pub fn build_from_cells(
        lens: [usize; 2],
        mut cells: impl FnMut(Side, usize, &mut dyn FnMut(&str)),
        tokenizer: &dyn Tokenizer,
        interner: &mut TokenInterner,
    ) -> Self {
        let _span = magellan_obs::span("tokenize_collection", 0);
        // Indexed by interner id, grown by doubling as the vocabulary does:
        // ids a pre-seeded interner holds but no record here uses keep a
        // count of zero and stay out of the vocabulary.
        let mut tally = vec![TokenTally::default(); interner.len()];
        let mut records = 0usize;
        let mut tokenize_side = |side: Side, len: usize| -> TokenColumn {
            // Room for the first `SAMPLE` records at eight ids each, then
            // for the rest at the mean of those plus an eighth: one growth
            // to about the final size instead of a doubling series that
            // can hold twice what the column needs.
            let mut col = TokenColumn::with_capacity(len, 8 * len.min(SAMPLE));
            for r in 0..len {
                if r == SAMPLE {
                    let rest = len - SAMPLE;
                    col.ids.reserve_exact(col.ids.len() * rest / SAMPLE * 9 / 8);
                }
                records += 1;
                let record = narrow(records);
                cells(side, r, &mut |cell| {
                    tokenizer.for_each_token(cell, &mut |t| {
                        let id = interner.intern(t);
                        let i = id as usize;
                        if i >= tally.len() {
                            let n = (2 * tally.len()).max(i + 1).max(1024);
                            tally.resize(n, TokenTally::default());
                        }
                        let seen = &mut tally[i];
                        if seen.last_record != record {
                            seen.last_record = record;
                            seen.df += 1;
                            col.ids.push(id);
                        }
                    });
                });
                col.offsets.push(narrow(col.ids.len()));
            }
            col
        };
        let mut left = tokenize_side(Side::Left, lens[0]);
        let mut right = tokenize_side(Side::Right, lens[1]);

        // Rarest-first, lexicographic tiebreak for determinism. Resolving
        // through the interner recovers the exact ordering the string
        // vocabulary would produce, whatever ids the interner assigned.
        // Each id is keyed by its count and its token's first eight bytes,
        // zero-padded and read big-endian so that the key orders as the
        // bytes do; only ids whose keys tie compare whole strings.
        let mut vocab = Vec::with_capacity(tally.len());
        vocab.extend((0..narrow(tally.len())).filter_map(|id| {
            let df = tally[id as usize].df;
            (df > 0).then(|| {
                let text = interner.resolve(id).as_bytes();
                let mut head = [0u8; 8];
                let n = text.len().min(8);
                head[..n].copy_from_slice(&text[..n]);
                let key = u128::from(df) << 64 | u128::from(u64::from_be_bytes(head));
                (key, id)
            })
        }));
        vocab.sort_unstable_by(|&(ka, a), &(kb, b)| {
            ka.cmp(&kb)
                .then_with(|| interner.resolve(a).cmp(interner.resolve(b)))
        });
        // The counts have served; the same field now holds each id's rank.
        for (rank, &(_, id)) in vocab.iter().enumerate() {
            tally[id as usize].df = rank as u32;
        }
        for col in [&mut left, &mut right] {
            for w in col.offsets.windows(2) {
                let rec = &mut col.ids[w[0] as usize..w[1] as usize];
                for t in rec.iter_mut() {
                    *t = tally[*t as usize].df;
                }
                rec.sort_unstable();
            }
        }
        magellan_obs::span_res_add("interner_vocab_bytes", interner.vocab_bytes() as u64);
        magellan_obs::gauge_max(
            "magellan_textsim_interner_vocab_bytes",
            interner.vocab_bytes() as f64,
        );
        TokenizedCollection {
            left,
            right,
            vocab_size: vocab.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::tokenize::WhitespaceTokenizer;

    fn some(items: &[&str]) -> Vec<Option<String>> {
        items.iter().map(|s| Some((*s).to_owned())).collect()
    }

    #[test]
    fn shared_vocabulary_across_sides() {
        let tok = WhitespaceTokenizer::new();
        let c = TokenizedCollection::build(&some(&["a b", "b c"]), &some(&["c d"]), &tok);
        assert_eq!(c.vocab_size, 4);
        assert_eq!(c.left.len(), 2);
        assert_eq!(c.right.len(), 1);
        // Every record's ids are sorted and deduped.
        for rec in c.left.iter().chain(c.right.iter()) {
            let mut sorted = rec.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(*rec, sorted);
        }
    }

    #[test]
    fn rare_tokens_get_small_ids() {
        let tok = WhitespaceTokenizer::new();
        // "common" appears in 3 records, "rare" in 1.
        let c =
            TokenizedCollection::build(&some(&["common rare", "common"]), &some(&["common"]), &tok);
        // The record with both tokens: the rare token id must come first in
        // sorted order, i.e. have the smaller id.
        let both = &c.left[0];
        assert_eq!(both.len(), 2);
        assert!(both[0] < both[1]);
        // And the singleton records hold the common token = the larger id.
        assert_eq!(c.left[1], vec![both[1]]);
    }

    #[test]
    fn nulls_become_empty_sets() {
        let tok = WhitespaceTokenizer::new();
        let left: Vec<Option<String>> = vec![None, Some("x".to_owned())];
        let c = TokenizedCollection::build(&left, &some(&["x"]), &tok);
        assert!(c.left[0].is_empty());
        assert_eq!(c.left[1], c.right[0]);
    }

    #[test]
    fn duplicate_tokens_in_record_are_deduped() {
        let tok = WhitespaceTokenizer::new();
        let c = TokenizedCollection::build(&some(&["a a a b"]), &some(&["a"]), &tok);
        assert_eq!(c.left[0].len(), 2);
    }

    /// The join-local rarest-first order is independent of the supplied
    /// interner's existing contents: a pre-seeded shared interner yields
    /// exactly the same collection as a fresh one.
    #[test]
    fn shared_interner_does_not_change_ids() {
        let tok = WhitespaceTokenizer::new();
        let left = some(&["sony wireless mouse", "apple pencil", "mouse pad"]);
        let right = some(&["sony mouse", "pencil case"]);
        let fresh = TokenizedCollection::build(&left, &right, &tok);

        let mut interner = magellan_textsim::TokenInterner::new();
        // Seed with unrelated and overlapping tokens in scrambled order.
        for t in ["zebra", "mouse", "case", "aardvark", "sony"] {
            interner.intern(t);
        }
        let seeded = TokenizedCollection::build_with_interner(&left, &right, &tok, &mut interner);
        assert_eq!(fresh.left, seeded.left);
        assert_eq!(fresh.right, seeded.right);
        assert_eq!(fresh.vocab_size, seeded.vocab_size);
        // The interner accumulated the join's vocabulary on top of the seed.
        assert!(interner.len() >= fresh.vocab_size);
    }

    /// A column hands back the records it was built from, by index, in
    /// order and gathered, empty records included.
    #[test]
    fn token_column_holds_records_back_to_back() {
        let records: [&[u32]; 4] = [&[3, 7], &[], &[1], &[2, 4, 9]];
        let col: TokenColumn = records.iter().collect();
        assert_eq!(col.len(), 4);
        assert_eq!(col.n_ids(), 6);
        assert!(col.iter().eq(records.iter().copied()));
        assert_eq!(&col[3], &[2, 4, 9]);
        assert!(col[1].is_empty());
        let picked = col.gather(&[3, 1, 0]);
        assert!(picked.iter().eq([&[2, 4, 9][..], &[], &[3, 7]]));
        assert_eq!(picked.n_ids(), 5);
        assert!(TokenColumn::default().is_empty());
        assert_eq!(TokenColumn::default().iter().len(), 0);
    }
}
