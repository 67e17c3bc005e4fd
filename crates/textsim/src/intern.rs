//! Token interning and integer-set similarity.
//!
//! Every batch consumer of the set-based measures — feature extraction,
//! rule evaluation, blocking — ultimately compares *deduplicated token
//! sets*. Comparing them as strings re-hashes (or re-sorts) the same
//! tokens for every pair a record participates in. This module provides
//! the shared alternative: a [`TokenInterner`] mapping each distinct token
//! string to a dense `u32` id, plus similarity kernels over **sorted,
//! deduplicated id slices** that run as branchy-but-allocation-free merge
//! intersections.
//!
//! ## Invariants (shared with `magellan-simjoin`'s `TokenizedCollection`)
//!
//! * equal strings ⇔ equal ids (the interner is injective both ways);
//! * an interned record set is sorted ascending and deduplicated, so
//!   `|A|`, `|B|`, and `|A ∩ B|` computed over id slices are **exactly**
//!   the values the string-based [`crate::setsim`] measures compute —
//!   and since every measure is a pure arithmetic function of those three
//!   integers, the resulting `f64`s are bit-identical;
//! * id *order* carries no meaning (insertion order), which is fine:
//!   no measure below depends on which ids are smaller, only on equality.
//!
//! ## The hasher, and what may depend on it
//!
//! Every token of every record is looked up here, so the table hashes
//! with [`TokenHasher`] — one multiply per 8 input bytes — instead of the
//! standard library's SipHash. Tokens come from outside the program, so
//! each interner draws its own random seed, and the length is mixed in so
//! that padding a token cannot steer it into a chosen slot (the
//! `hostile_token_families_spread` test pins both on the low bits that
//! place a slot and on high bits, which its tag is cut from). This is a
//! cheaper and weaker guarantee than SipHash's: it stops accidental and
//! naive collisions, not an adversary who can observe timing and search
//! for multiplicative collisions.
//!
//! **Nothing observable depends on the seed or on any hash value**: ids
//! are handed out in first-intern order, the slot table is never iterated
//! (a growth re-places ids but renumbers none), and
//! [`TokenInterner::vocab_bytes`] counts strings, not slots. Two
//! interners fed the same tokens in the same order are equal id for id
//! (`ids_do_not_depend_on_the_seed`).
//!
//! The `*_ids` kernels intentionally mirror the arithmetic of their
//! [`crate::setsim`] counterparts expression-for-expression so the
//! bit-identity holds even where floating-point evaluation order could
//! matter (e.g. cosine's `(|A| as f64) * (|B| as f64)` product).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use crate::tokenize::Tokenizer;

/// The 64 × 64 → 128-bit product folded back to 64 bits: every input bit
/// reaches every output bit, high and low.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

// Odd multipliers with no structure of their own: hex digits of π.
const MIX_WORD: u64 = 0x243f_6a88_85a3_08d3;
const MIX_LEN: u64 = 0x082e_fa98_ec4e_6c89;
const MIX_FINISH: u64 = 0x4528_21e6_38d0_1377;

/// Word-at-a-time multiplicative hasher for token strings (see the module
/// docs for what it does and does not defend against).
#[derive(Debug, Clone, Copy)]
struct TokenHasher {
    state: u64,
}

impl Hasher for TokenHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length goes in first: the tail word below is zero-padded, so
        // without it `"ab"` and `"ab\0"` would collide.
        let mut h = self.state ^ (bytes.len() as u64).wrapping_mul(MIX_LEN);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunks of 8"));
            h = folded_multiply(h ^ w, MIX_WORD);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            h = folded_multiply(h ^ u64::from_le_bytes(w), MIX_WORD);
        }
        self.state = h;
    }

    /// `str::hash` appends a `0xff` byte to keep composite keys
    /// prefix-free; a lone string key needs no terminator.
    fn write_u8(&mut self, _terminator: u8) {}

    fn finish(&self) -> u64 {
        folded_multiply(self.state, MIX_FINISH)
    }
}

/// Builds every [`TokenHasher`] of one interner from that interner's seed.
#[derive(Debug, Clone, Copy)]
struct TokenHashSeed(u64);

impl BuildHasher for TokenHashSeed {
    type Hasher = TokenHasher;

    fn build_hasher(&self) -> TokenHasher {
        TokenHasher { state: self.0 }
    }
}

/// `n` as a `u32` token id, arena offset or token-column offset, or a
/// panic naming the limit. Every narrowing on the token path goes through
/// here, so a vocabulary, its text or a token column that outgrows `u32`
/// stops loudly instead of wrapping around onto id 0.
pub fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!(
            "a token vocabulary holds at most u32::MAX tokens and bytes of text, \
             a token column at most u32::MAX ids; got {n}"
        )
    })
}

/// Slots of an interner's first table; it doubles before it passes half
/// full.
const MIN_SLOTS: usize = 64;

/// The slot for `id` under `hash`: the hash's high half as a tag, `id + 1`
/// below it (0 marks an empty slot).
fn slot_of(hash: u64, id: u32) -> u64 {
    (hash & !u64::from(u32::MAX)) | (u64::from(id) + 1)
}

/// A token → dense `u32` id table, append-only.
///
/// Ids are assigned in first-intern order. The interner is the single
/// shared vocabulary for one prepared workload (both tables of an EM
/// task), so ids are comparable across sides.
///
/// Three buffers hold it, whatever the vocabulary size: one arena with
/// every token's bytes back to back in id order, one end offset per id,
/// and an open-addressing slot table (linear probing, never more than
/// half full) whose occupied slots hold `hash tag << 32 | id + 1`. A probe
/// compares strings only on a 32-bit tag match, and a new token costs an
/// append to the arena and the offsets, not two heap strings.
#[derive(Debug, Clone)]
pub struct TokenInterner {
    /// Every token's text, in id order.
    arena: String,
    /// `ends[id]`: where token `id` ends in `arena`; it starts where
    /// `id − 1` ends.
    ends: Vec<u32>,
    /// Power-of-two slot table, empty until the first intern.
    slots: Vec<u64>,
    seed: TokenHashSeed,
    /// Reused by [`TokenInterner::intern_tokens`] so a record's ids are
    /// collected without a growth allocation.
    scratch: Vec<u32>,
}

impl Default for TokenInterner {
    fn default() -> Self {
        // The standard library's per-process random keys, read through the
        // one door it offers.
        Self::with_seed(RandomState::new().build_hasher().finish())
    }
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_seed(seed: u64) -> Self {
        TokenInterner {
            arena: String::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            seed: TokenHashSeed(seed),
            scratch: Vec::new(),
        }
    }

    fn hash(&self, token: &str) -> u64 {
        self.seed.hash_one(token)
    }

    /// Token `id`'s text.
    fn text(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.arena[start..self.ends[id] as usize]
    }

    /// `Ok(id)` if `token` is interned, else `Err(slot)`: the empty slot its
    /// probe ended on. The table must have slots.
    fn find(&self, token: &str, hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if (slot ^ hash) >> 32 == 0 {
                let id = slot as u32 - 1;
                if self.text(id as usize) == token {
                    return Ok(id);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the slot table (or make the first one) and re-place every id.
    /// The table holds at most half its slot count in ids, so the offsets
    /// and — at the mean token length so far — the arena are reserved for
    /// that many now.
    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(MIN_SLOTS);
        let mut slots = vec![0u64; n];
        for id in 0..self.ends.len() {
            let hash = self.hash(self.text(id));
            let mut at = hash as usize & (n - 1);
            while slots[at] != 0 {
                at = (at + 1) & (n - 1);
            }
            slots[at] = slot_of(hash, id as u32);
        }
        self.slots = slots;
        let more = n / 2 - self.ends.len();
        let mean_len = self.arena.len().div_ceil(self.ends.len().max(1)).max(8);
        self.ends.reserve_exact(more);
        self.arena.reserve(more * mean_len);
    }

    /// Id of `token`, interning it if new.
    ///
    /// # Panics
    /// If the vocabulary would pass `u32::MAX` tokens or bytes of text.
    pub fn intern(&mut self, token: &str) -> u32 {
        let hash = self.hash(token);
        if self.slots.is_empty() {
            self.grow();
        }
        let mut at = match self.find(token, hash) {
            Ok(id) => return id,
            Err(at) => at,
        };
        // `id + 1` is stored in a slot, so the count after this token must
        // fit too.
        let id = narrow(self.ends.len() + 1) - 1;
        let end = narrow(self.arena.len() + token.len());
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
            at = self.find(token, hash).expect_err("a new token is absent");
        }
        self.arena.push_str(token);
        self.ends.push(end);
        self.slots[at] = slot_of(hash, id);
        id
    }

    /// Id of `token` if already interned.
    pub fn get(&self, token: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(token, self.hash(token)).ok()
    }

    /// The token string behind an id.
    pub fn resolve(&self, id: u32) -> &str {
        self.text(id as usize)
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The vocabulary's resident bytes as resource attributions publish
    /// them: every token's text twice plus 52 bytes a token on a 64-bit
    /// target, the footprint of the string map and id table this interner
    /// was first built on. Pinned exports carry that figure, so it stays
    /// the published one; the arena layout holds the text once, plus 4
    /// bytes of offset and at most 16 of slot table a token. Deterministic
    /// — a pure function of the interned strings, never of capacity growth.
    pub fn vocab_bytes(&self) -> usize {
        let per_entry = 2 * std::mem::size_of::<String>() + std::mem::size_of::<u32>();
        2 * self.arena.len() + self.ends.len() * per_entry
    }

    /// Tokenize `s` straight into its **sorted, deduplicated** id set —
    /// the representation every `*_ids` kernel below consumes — without a
    /// `String` per token: the tokenizer visits, each token is looked up
    /// as a borrowed `&str`, and the one allocation is the exact-size
    /// result. New tokens get their ids in visit order.
    ///
    /// ```
    /// use magellan_textsim::tokenize::AlphanumericTokenizer;
    /// use magellan_textsim::TokenInterner;
    ///
    /// let tok = AlphanumericTokenizer::as_set();
    /// let mut interner = TokenInterner::new();
    /// let a = interner.intern_tokens(&tok, "Dave Smith");
    /// let b = interner.intern_tokens(&tok, "smith, dave jr");
    /// assert_eq!((a, b), (vec![0, 1], vec![0, 1, 2]));
    /// ```
    pub fn intern_tokens<T: Tokenizer + ?Sized>(&mut self, tokenizer: &T, s: &str) -> Vec<u32> {
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        tokenizer.for_each_token(s, &mut |t| ids.push(self.intern(t)));
        ids.sort_unstable();
        ids.dedup();
        let set = ids.as_slice().to_vec();
        self.scratch = ids;
        set
    }

    /// Vocabulary generation: advances by exactly one per *new* token
    /// interned and never otherwise (currently `== len()`). Streaming
    /// consumers (the incremental join, `StreamSession` checkpoints) pin
    /// this number to detect and audit vocabulary growth across mutation
    /// batches; because the interner is append-only, equal generations
    /// imply the id ↔ token mapping is unchanged, not merely same-sized.
    pub fn generation(&self) -> u64 {
        self.ends.len() as u64
    }
}

/// True when `s` is sorted ascending with no duplicates — the input
/// invariant of [`intersect_size_sorted`] and every `*_ids` measure.
pub fn is_sorted_dedup(s: &[u32]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// `|a ∩ b|` of two sorted deduplicated id slices (merge walk, no
/// hashing, no allocation) — the one unbounded overlap walk in the
/// workspace. The `*_ids` measures below call it for every operand
/// shape; the joins' bounded verifier (`magellan_simjoin::verify`) is
/// tested against it.
pub fn intersect_size_sorted(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(is_sorted_dedup(a) && is_sorted_dedup(b));
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard `|A ∩ B| / |A ∪ B|` from the three integers a set measure
/// depends on. The `*_counts` functions are the one place each measure's
/// guards and floating-point expression are written; the `*_ids` functions
/// below and the run-aware scorer of `magellan-features` (which counts
/// `|A ∩ B|` its own way) both end here, so they return the same bits.
pub fn jaccard_counts(a_len: usize, b_len: usize, inter: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    let union = a_len + b_len - inter;
    inter as f64 / union as f64
}

/// Dice `2|A ∩ B| / (|A| + |B|)` from set sizes and intersection size.
pub fn dice_counts(a_len: usize, b_len: usize, inter: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / (a_len + b_len) as f64
}

/// Set cosine `|A ∩ B| / sqrt(|A|·|B|)` from set sizes and intersection
/// size (the denominator multiplies the two lengths as `f64`s exactly like
/// [`crate::setsim::cosine`]).
pub fn cosine_counts(a_len: usize, b_len: usize, inter: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    if a_len == 0 || b_len == 0 {
        return 0.0;
    }
    inter as f64 / ((a_len as f64) * (b_len as f64)).sqrt()
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` from set sizes and
/// intersection size.
pub fn overlap_coefficient_counts(a_len: usize, b_len: usize, inter: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    if a_len == 0 || b_len == 0 {
        return 0.0;
    }
    inter as f64 / a_len.min(b_len) as f64
}

/// Jaccard `|A ∩ B| / |A ∪ B|` over sorted deduplicated id sets.
/// Bit-identical to [`crate::setsim::jaccard`] on the same token sets.
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    jaccard_counts(a.len(), b.len(), intersect_size_sorted(a, b))
}

/// Dice `2|A ∩ B| / (|A| + |B|)` over sorted deduplicated id sets.
/// Bit-identical to [`crate::setsim::dice`].
pub fn dice_ids(a: &[u32], b: &[u32]) -> f64 {
    dice_counts(a.len(), b.len(), intersect_size_sorted(a, b))
}

/// Set cosine `|A ∩ B| / sqrt(|A|·|B|)` over sorted deduplicated id sets.
/// Bit-identical to [`crate::setsim::cosine`].
pub fn cosine_ids(a: &[u32], b: &[u32]) -> f64 {
    cosine_counts(a.len(), b.len(), intersect_size_sorted(a, b))
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over sorted deduplicated
/// id sets. Bit-identical to [`crate::setsim::overlap_coefficient`].
pub fn overlap_coefficient_ids(a: &[u32], b: &[u32]) -> f64 {
    overlap_coefficient_counts(a.len(), b.len(), intersect_size_sorted(a, b))
}

/// Raw overlap size `|A ∩ B|` over sorted deduplicated id sets.
pub fn overlap_size_ids(a: &[u32], b: &[u32]) -> usize {
    intersect_size_sorted(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setsim;
    use std::collections::HashMap;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// A token bag's sorted, deduplicated id set.
    fn id_set(it: &mut TokenInterner, tokens: &[String]) -> Vec<u32> {
        let mut ids: Vec<u32> = tokens.iter().map(|t| it.intern(t)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn interner_is_injective_and_stable() {
        let mut it = TokenInterner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_ne!(a, b);
        assert_eq!(it.intern("alpha"), a);
        assert_eq!(it.resolve(a), "alpha");
        assert_eq!(it.get("beta"), Some(b));
        assert_eq!(it.get("gamma"), None);
        assert_eq!(it.len(), 2);
        assert!(!it.is_empty());
    }

    #[test]
    fn intern_tokens_sorts_and_dedupes() {
        let mut it = TokenInterner::new();
        for t in ["c", "b"] {
            it.intern(t);
        }
        let ids = it.intern_tokens(&crate::tokenize::WhitespaceTokenizer::new(), "b a b c a");
        assert_eq!(ids.len(), 3);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn merge_intersection_matches_naive() {
        assert_eq!(intersect_size_sorted(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersect_size_sorted(&[], &[1]), 0);
        assert_eq!(intersect_size_sorted(&[4], &[4]), 1);
        assert_eq!(intersect_size_sorted(&[0, 1, 2], &[0, 1, 2]), 3);
    }

    /// The id kernels are bit-identical to the string measures on the
    /// same token sets, including duplicate-token and empty-set inputs.
    #[test]
    fn id_kernels_bit_identical_to_string_measures() {
        let cases = [
            ("a b c", "b c d"),
            ("a a a", "a b"),
            ("", "x y"),
            ("", ""),
            ("q w e r t y", "q"),
            ("z z", "z z"),
        ];
        for (x, y) in cases {
            let (tx, ty) = (toks(x), toks(y));
            let mut it = TokenInterner::new();
            let (ix, iy) = (id_set(&mut it, &tx), id_set(&mut it, &ty));
            assert!(is_sorted_dedup(&ix));
            assert!(is_sorted_dedup(&iy));
            assert_eq!(
                jaccard_ids(&ix, &iy).to_bits(),
                setsim::jaccard(&tx, &ty).to_bits(),
                "jaccard {x:?}/{y:?}"
            );
            assert_eq!(
                dice_ids(&ix, &iy).to_bits(),
                setsim::dice(&tx, &ty).to_bits(),
                "dice {x:?}/{y:?}"
            );
            assert_eq!(
                cosine_ids(&ix, &iy).to_bits(),
                setsim::cosine(&tx, &ty).to_bits(),
                "cosine {x:?}/{y:?}"
            );
            assert_eq!(
                overlap_coefficient_ids(&ix, &iy).to_bits(),
                setsim::overlap_coefficient(&tx, &ty).to_bits(),
                "overlap {x:?}/{y:?}"
            );
            assert_eq!(overlap_size_ids(&ix, &iy), setsim::overlap_size(&tx, &ty));
        }
    }

    /// Regression: an empty probe slice (every token OOV-clamped away
    /// upstream, e.g. a record whose tokens are all unseen during a
    /// prepared-cache probe) must hit the documented guards — jaccard/dice
    /// on `([], [])` is defined as 1.0, cosine and overlap-coefficient on a
    /// single empty side as 0.0, and the raw overlap size as 0, whatever
    /// the non-empty side's shape.
    #[test]
    fn empty_probe_slice_after_oov_clamp() {
        let dense: Vec<u32> = (0..256).collect();
        let empty: [u32; 0] = [];
        for other in [&dense[..], &empty[..]] {
            assert_eq!(overlap_size_ids(&empty, other), 0);
            assert_eq!(overlap_size_ids(other, &empty), 0);
        }
        assert_eq!(jaccard_ids(&empty, &empty).to_bits(), 1.0f64.to_bits());
        assert_eq!(dice_ids(&empty, &empty).to_bits(), 1.0f64.to_bits());
        assert_eq!(cosine_ids(&empty, &empty).to_bits(), 1.0f64.to_bits());
        assert_eq!(
            overlap_coefficient_ids(&empty, &empty).to_bits(),
            1.0f64.to_bits()
        );
        assert_eq!(jaccard_ids(&empty, &dense).to_bits(), 0.0f64.to_bits());
        assert_eq!(dice_ids(&dense, &empty).to_bits(), 0.0f64.to_bits());
        assert_eq!(cosine_ids(&empty, &dense).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            overlap_coefficient_ids(&dense, &empty).to_bits(),
            0.0f64.to_bits()
        );
    }

    /// Regression: an interned set upholds the sorted-dedup invariant the
    /// overlap walk assumes, even for pathological bags (all-duplicate,
    /// reverse-insertion-order, single token), and the overlap agrees
    /// with the string-level measure on those bags.
    #[test]
    fn duplicate_free_invariant_feeds_kernels() {
        let mut it = TokenInterner::new();
        // Insertion order deliberately scrambles id order.
        for t in ["zeta", "alpha", "mu", "beta"] {
            it.intern(t);
        }
        let bags = [
            toks("zeta zeta zeta"),
            toks("beta alpha beta alpha"),
            toks("mu"),
            toks("alpha beta mu zeta alpha beta mu zeta"),
        ];
        let sets: Vec<Vec<u32>> = bags.iter().map(|b| id_set(&mut it, b)).collect();
        for s in &sets {
            assert!(is_sorted_dedup(s), "invariant broken: {s:?}");
        }
        for (x, bx) in sets.iter().zip(&bags) {
            for (y, by) in sets.iter().zip(&bags) {
                assert_eq!(
                    overlap_size_ids(x, y),
                    setsim::overlap_size(bx, by),
                    "id walk diverged from the string measure on {bx:?} vs {by:?}"
                );
            }
        }
    }

    fn hash_of(seed: u64, token: &[u8]) -> u64 {
        // What `HashMap<String, _, TokenHashSeed>` computes for a `str` key.
        let mut h = TokenHashSeed(seed).build_hasher();
        h.write(token);
        h.write_u8(0xff);
        h.finish()
    }

    /// `hashbrown` picks a bucket from the low bits of a hash and tags the
    /// slot with its top 7. How evenly `hash` spreads `tokens` over both:
    /// (distinct low-16-bit values, smallest and largest top-7-bit class).
    fn spread(tokens: &[Vec<u8>], hash: impl Fn(&[u8]) -> u64) -> (usize, usize, usize) {
        let mut buckets = vec![false; 1 << 16];
        let mut tags = [0usize; 128];
        for t in tokens {
            let h = hash(t);
            buckets[(h & 0xffff) as usize] = true;
            tags[(h >> 57) as usize] += 1;
        }
        (
            buckets.iter().filter(|b| **b).count(),
            *tags.iter().min().unwrap(),
            *tags.iter().max().unwrap(),
        )
    }

    /// Two families a token column from outside the program could hold —
    /// 100 000 tokens sharing their first 8 bytes (one identical first
    /// word), and 100 000 that differ only in trailing NUL padding (the
    /// zero-padded tail word hides it) — land within 2× of a uniform draw
    /// on both the bucket bits and the tag bits. Fixed seed, no timing. A
    /// plain multiply-rotate fold with no length in it fails the second
    /// family, which is why `write` mixes the length in.
    #[test]
    fn hostile_token_families_spread() {
        const N: usize = 100_000;
        let shared_prefix: Vec<Vec<u8>> = (0..N)
            .map(|i| format!("prefix__{i}").into_bytes())
            .collect();
        let nul_padded: Vec<Vec<u8>> = (0..N)
            .map(|i| {
                let mut t = format!("t{}", i / 100).into_bytes();
                t.resize(t.len() + i % 100, 0);
                t
            })
            .collect();
        // A uniform draw of N values leaves 2^16·(1 − e^(−N/2^16)) ≈ 51 287
        // of the 2^16 buckets occupied and puts N/128 ≈ 781 in each tag.
        let uniform_buckets = 51_287;
        let uniform_tag = N / 128;
        for (family, tokens) in [("shared prefix", &shared_prefix), ("NUL padded", &nul_padded)] {
            let (buckets, min_tag, max_tag) = spread(tokens, |t| hash_of(0x5eed, t));
            assert!(buckets * 2 >= uniform_buckets, "{family}: {buckets} buckets");
            assert!(min_tag * 2 >= uniform_tag, "{family}: smallest tag class {min_tag}");
            assert!(max_tag <= uniform_tag * 2, "{family}: largest tag class {max_tag}");
        }

        // The fold this hasher would be without the length (FxHash's shape).
        let plain_fold = |t: &[u8]| {
            let mut h = 0x5eedu64;
            for w in t.chunks(8) {
                let mut word = [0u8; 8];
                word[..w.len()].copy_from_slice(w);
                h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(MIX_WORD);
            }
            h
        };
        let (buckets, _, _) = spread(&nul_padded, plain_fold);
        assert!(buckets * 2 < uniform_buckets, "the plain fold kept {buckets} buckets apart");
    }

    /// Ids, id sets and `vocab_bytes` are functions of the tokens and
    /// their order alone — never of the seed.
    #[test]
    fn ids_do_not_depend_on_the_seed() {
        use crate::tokenize::AlphanumericTokenizer;
        let titles: Vec<String> = (0..500)
            .map(|i| format!("Brand{} model {} {} edition", i % 7, i % 31, i * 37 % 101))
            .collect();
        let build = |seed: u64| {
            let mut it = TokenInterner::with_seed(seed);
            let tok = AlphanumericTokenizer::as_set();
            let sets: Vec<Vec<u32>> = titles.iter().map(|t| it.intern_tokens(&tok, t)).collect();
            let vocab: Vec<String> = (0..it.len() as u32).map(|id| it.resolve(id).to_owned()).collect();
            (sets, vocab, it.vocab_bytes())
        };
        assert_eq!(build(1), build(0xdead_beef_0bad_cafe));
        assert_eq!(build(1), build(0));
    }

    /// A slot whose tag matches is a hit only if its string matches too:
    /// `"a"`'s id moved to the slot `"b"` probes first, under `"b"`'s tag.
    #[test]
    fn a_tag_match_alone_is_not_a_hit() {
        let mut it = TokenInterner::with_seed(7);
        let a = it.intern("a");
        let b_hash = it.hash("b");
        let a_slot = it.slots.iter().position(|&s| s != 0).expect("one slot taken");
        it.slots[a_slot] = 0;
        let b_first = b_hash as usize & (it.slots.len() - 1);
        it.slots[b_first] = slot_of(b_hash, a);
        assert_eq!(it.get("b"), None);
        assert_eq!(it.intern("b"), 1);
        assert_eq!((it.resolve(a), it.resolve(1)), ("a", "b"));
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX tokens")]
    fn narrow_panics_one_past_u32_max() {
        assert_eq!(narrow(u32::MAX as usize), u32::MAX);
        narrow(u32::MAX as usize + 1);
    }

    use proptest::prelude::*;

    /// One token of a stream: empty, one byte, 64 and 65 bytes (the
    /// hasher's eight-byte words, full and with a one-byte tail), non-ASCII
    /// (U+212A KELVIN SIGN, `é`), or one of 11 000 short ones, so that half
    /// the streams double the slot table five times, to 2 048 slots.
    fn token() -> impl Strategy<Value = String> {
        prop_oneof![
            1 => Just(String::new()),
            1 => "[a-c]",
            1 => "x{62}[ab]{2}",
            1 => "x{63}[ab]{2}",
            1 => "[\u{212a}\u{e9}k]{1,3}",
            4 => "t[0-9]{3,4}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arena interner against a `HashMap<String, u32>` plus
        /// `Vec<String>` model, after every token of the stream: the same
        /// ids, `get`, `resolve`, `len`, `generation` and `vocab_bytes`
        /// (the model's own two copies of each string plus two `String`
        /// headers and an id), whatever the seed.
        #[test]
        fn arena_interner_matches_hashmap_model(
            stream in proptest::collection::vec(token(), 0..2400),
            seed in any::<u64>(),
        ) {
            let mut it = TokenInterner::with_seed(seed);
            let mut ids: HashMap<String, u32> = HashMap::new();
            let mut tokens: Vec<String> = Vec::new();
            for t in &stream {
                prop_assert_eq!(it.get(t), ids.get(t).copied());
                let want = *ids.entry(t.clone()).or_insert_with(|| {
                    tokens.push(t.clone());
                    tokens.len() as u32 - 1
                });
                prop_assert_eq!(it.intern(t), want, "{:?}", t);
                prop_assert_eq!(it.get(t), Some(want));
                prop_assert_eq!(it.resolve(want), t.as_str());
                prop_assert_eq!(it.len(), tokens.len());
                prop_assert_eq!(it.generation(), tokens.len() as u64);
            }
            for (id, t) in tokens.iter().enumerate() {
                prop_assert_eq!(it.resolve(id as u32), t.as_str());
                prop_assert_eq!(it.get(t), Some(id as u32));
            }
            prop_assert_eq!(it.get("absent"), ids.get("absent").copied());
            let per_entry = 2 * std::mem::size_of::<String>() + std::mem::size_of::<u32>();
            let text: usize = tokens.iter().map(String::len).sum();
            prop_assert_eq!(it.vocab_bytes(), 2 * text + tokens.len() * per_entry);
            prop_assert_eq!(it.is_empty(), tokens.is_empty());
        }
    }
}
