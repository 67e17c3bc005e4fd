//! Tokenized collections with frequency-ordered integer token ids.
//!
//! Prefix filtering needs a *global token order* in which rare tokens come
//! first: a set's "prefix" under that order is maximally selective. We
//! tokenize both collections **once per record** into a shared
//! [`TokenInterner`] (the same substrate the prepared feature cache uses),
//! count document frequencies over their union, assign join-local ids
//! rarest-first (ties broken lexicographically for determinism), and store
//! each record as a sorted `Vec<u32>` of those ids.
//!
//! Because interning happens through a caller-suppliable interner
//! ([`TokenizedCollection::build_with_interner`]), several joins over the
//! same columns — e.g. a rule blocker's per-predicate sim-joins — share
//! one vocabulary and skip re-hashing token strings they have already
//! seen. The rarest-first remap is a pure permutation of interner ids, so
//! join results are independent of which interner is supplied.

use magellan_textsim::tokenize::Tokenizer;
use magellan_textsim::TokenInterner;

/// A pair of string collections tokenized under one shared token order.
#[derive(Debug, Clone)]
pub struct TokenizedCollection {
    /// Sorted token-id sets, one per left record (empty for null/empty input).
    pub left: Vec<Vec<u32>>,
    /// Sorted token-id sets, one per right record.
    pub right: Vec<Vec<u32>>,
    /// Number of distinct tokens across both sides.
    pub vocab_size: usize,
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
        let _span = magellan_obs::span("tokenize_collection", 0);
        // Tokenize once per record into sorted deduped interner-id sets.
        let mut tokenize_side = |side: &[Option<S>]| -> Vec<Vec<u32>> {
            side.iter()
                .map(|s| match s {
                    Some(s) => interner.intern_tokens(tokenizer, s.as_ref()),
                    None => Vec::new(),
                })
                .collect()
        };
        let mut left = tokenize_side(left);
        let mut right = tokenize_side(right);

        // Document frequency over the union of both sides. Interner ids are
        // dense, so the counts (and the ranks below) are plain vectors
        // indexed by id; ids a pre-seeded interner holds but no record here
        // uses keep a count of zero and stay out of the vocabulary.
        let mut df = vec![0u32; interner.len()];
        for rec in left.iter().chain(&right) {
            for &t in rec {
                df[t as usize] += 1;
            }
        }
        // Rarest-first, lexicographic tiebreak for determinism. Resolving
        // through the interner recovers the exact ordering the string
        // vocabulary would produce, whatever ids the interner assigned.
        let mut vocab: Vec<u32> = (0..df.len() as u32)
            .filter(|&id| df[id as usize] > 0)
            .collect();
        vocab.sort_unstable_by(|&a, &b| {
            df[a as usize]
                .cmp(&df[b as usize])
                .then_with(|| interner.resolve(a).cmp(interner.resolve(b)))
        });
        // The counts have served; the same vector now holds each id's rank.
        let mut rank = df;
        for (i, &id) in vocab.iter().enumerate() {
            rank[id as usize] = i as u32;
        }
        for rec in left.iter_mut().chain(&mut right) {
            for t in rec.iter_mut() {
                *t = rank[*t as usize];
            }
            rec.sort_unstable();
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
        let c = TokenizedCollection::build(
            &some(&["a b", "b c"]),
            &some(&["c d"]),
            &tok,
        );
        assert_eq!(c.vocab_size, 4);
        assert_eq!(c.left.len(), 2);
        assert_eq!(c.right.len(), 1);
        // Every record's ids are sorted and deduped.
        for rec in c.left.iter().chain(c.right.iter()) {
            let mut sorted = rec.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(*rec, sorted);
        }
    }

    #[test]
    fn rare_tokens_get_small_ids() {
        let tok = WhitespaceTokenizer::new();
        // "common" appears in 3 records, "rare" in 1.
        let c = TokenizedCollection::build(
            &some(&["common rare", "common"]),
            &some(&["common"]),
            &tok,
        );
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
        let seeded =
            TokenizedCollection::build_with_interner(&left, &right, &tok, &mut interner);
        assert_eq!(fresh.left, seeded.left);
        assert_eq!(fresh.right, seeded.right);
        assert_eq!(fresh.vocab_size, seeded.vocab_size);
        // The interner accumulated the join's vocabulary on top of the seed.
        assert!(interner.len() >= fresh.vocab_size);
    }
}
