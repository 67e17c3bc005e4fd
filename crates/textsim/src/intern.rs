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
//! that padding a token cannot steer it into a chosen bucket (the
//! `hostile_token_families_spread` test pins both on the buckets and tags
//! `hashbrown` derives). This is a cheaper and weaker guarantee than
//! SipHash's: it stops accidental and naive collisions, not an adversary
//! who can observe timing and search for multiplicative collisions.
//!
//! **Nothing observable depends on the seed or on any hash value**: ids
//! are handed out in first-intern order, the map is never iterated, and
//! [`TokenInterner::vocab_bytes`] counts strings, not buckets. Two
//! interners fed the same tokens in the same order are equal id for id
//! (`ids_do_not_depend_on_the_seed`).
//!
//! The `*_ids` kernels intentionally mirror the arithmetic of their
//! [`crate::setsim`] counterparts expression-for-expression so the
//! bit-identity holds even where floating-point evaluation order could
//! matter (e.g. cosine's `(|A| as f64) * (|B| as f64)` product).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
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

/// A token → dense `u32` id table, append-only.
///
/// Ids are assigned in first-intern order. The interner is the single
/// shared vocabulary for one prepared workload (both tables of an EM
/// task), so ids are comparable across sides.
#[derive(Debug, Clone)]
pub struct TokenInterner {
    ids: HashMap<String, u32, TokenHashSeed>,
    tokens: Vec<String>,
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
            ids: HashMap::with_hasher(TokenHashSeed(seed)),
            tokens: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Id of `token`, interning it if new.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.tokens.len() as u32;
        self.ids.insert(token.to_owned(), id);
        self.tokens.push(token.to_owned());
        id
    }

    /// Id of `token` if already interned.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The token string behind an id.
    pub fn resolve(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Approximate resident bytes of the vocabulary: every token string
    /// is stored twice (map key + id table) plus fixed per-entry
    /// overheads. Deterministic — a pure function of the interned
    /// strings, never of capacity growth — so it is safe to publish as a
    /// pinned-export resource attribution.
    pub fn vocab_bytes(&self) -> usize {
        let text: usize = self.tokens.iter().map(String::len).sum();
        let per_entry =
            2 * std::mem::size_of::<String>() + std::mem::size_of::<u32>();
        2 * text + self.tokens.len() * per_entry
    }

    /// Intern a token bag into its **sorted, deduplicated** id set — the
    /// representation every `*_ids` kernel below consumes.
    pub fn intern_set<S: AsRef<str>>(&mut self, tokens: &[S]) -> Vec<u32> {
        let mut ids: Vec<u32> = tokens.iter().map(|t| self.intern(t.as_ref())).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Tokenize `s` straight into its **sorted, deduplicated** id set:
    /// `intern_set(&tokenizer.tokenize(s))` without a `String` per token —
    /// the tokenizer visits, each token is looked up as a borrowed `&str`,
    /// and the one allocation is the exact-size result. New tokens get
    /// their ids in visit order, as they would from `intern_set`.
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
        self.tokens.len() as u64
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

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
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
    fn intern_set_sorts_and_dedupes() {
        let mut it = TokenInterner::new();
        let ids = it.intern_set(&toks("b a b c a"));
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
            let (ix, iy) = (it.intern_set(&tx), it.intern_set(&ty));
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

    /// Regression: `intern_set` upholds the sorted-dedup invariant the
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
        let sets: Vec<Vec<u32>> = bags.iter().map(|b| it.intern_set(b)).collect();
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
}
