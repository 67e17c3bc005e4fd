//! Paths as they were before a rewrite, preserved as the references the
//! new ones are held to.
//!
//! The token path, before it stopped allocating per token: bit-identity
//! in the tests below, a ≥ 1.5× floor in `exp_simjoin`'s
//! `tokenize_collection` row and the `tokenize_collection` Criterion
//! group. Everything a record went through is kept as it was: a `String`
//! per token, a `HashSet` to deduplicate them, a SipHash
//! `HashMap<String, u32>` interner, document frequencies and ranks in two
//! `HashMap<u32, u32>`s, and every record allocated a second time for the
//! remap.
//!
//! The forest's batch scoring over its trees' `Node` arenas
//! ([`arena_forest_batch`]), before every score walked the flat layout:
//! `exp_forest_inference`'s "arena" column, asserted bit-identical to the
//! flat scores before anything is timed.

use std::collections::{HashMap, HashSet};

use magellan_ml::{Classifier, RandomForestClassifier};
use magellan_par::ParConfig;

/// The set-mode alphanumeric tokenizer, `char` by `char`.
pub fn alphanumeric_set(s: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_ascii_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            toks.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    let mut seen: HashSet<&str> = HashSet::with_capacity(toks.len());
    let mut keep = vec![false; toks.len()];
    for (i, t) in toks.iter().enumerate() {
        if seen.insert(t.as_str()) {
            keep[i] = true;
        }
    }
    toks.into_iter()
        .zip(keep)
        .filter_map(|(t, k)| k.then_some(t))
        .collect()
}

/// What [`tokenized_collection`] returns: the collection's three fields
/// and the interner's id → token table afterwards.
#[derive(Debug, PartialEq, Eq)]
pub struct LegacyCollection {
    /// Sorted join-local id sets of the left records.
    pub left: Vec<Vec<u32>>,
    /// Sorted join-local id sets of the right records.
    pub right: Vec<Vec<u32>>,
    /// Distinct tokens across both sides.
    pub vocab_size: usize,
    /// Interner tokens in id order (the seed's first).
    pub interner_tokens: Vec<String>,
}

/// `TokenizedCollection::build_with_interner` as it was, over an interner
/// pre-seeded with `seed_tokens` in order.
pub fn tokenized_collection<S: AsRef<str>>(
    left: &[Option<S>],
    right: &[Option<S>],
    tokenize: &dyn Fn(&str) -> Vec<String>,
    seed_tokens: &[&str],
) -> LegacyCollection {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut tokens: Vec<String> = Vec::new();
    let mut intern = |token: &str| -> u32 {
        if let Some(&id) = ids.get(token) {
            return id;
        }
        let id = tokens.len() as u32;
        ids.insert(token.to_owned(), id);
        tokens.push(token.to_owned());
        id
    };
    for t in seed_tokens {
        intern(t);
    }
    let mut tokenize_side = |side: &[Option<S>]| -> Vec<Vec<u32>> {
        side.iter()
            .map(|s| match s {
                Some(s) => {
                    let mut set: Vec<u32> =
                        tokenize(s.as_ref()).iter().map(|t| intern(t)).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                }
                None => Vec::new(),
            })
            .collect()
    };
    let lrecs = tokenize_side(left);
    let rrecs = tokenize_side(right);

    let mut df: HashMap<u32, u32> = HashMap::new();
    for rec in lrecs.iter().chain(rrecs.iter()) {
        for &t in rec {
            *df.entry(t).or_insert(0) += 1;
        }
    }
    let mut vocab: Vec<(u32, u32)> = df.into_iter().collect();
    vocab.sort_unstable_by(|a, b| {
        a.1.cmp(&b.1)
            .then_with(|| tokens[a.0 as usize].cmp(&tokens[b.0 as usize]))
    });
    let mut rank: HashMap<u32, u32> = HashMap::with_capacity(vocab.len());
    for (i, (id, _)) in vocab.iter().enumerate() {
        rank.insert(*id, i as u32);
    }
    let map_side = |recs: &[Vec<u32>]| -> Vec<Vec<u32>> {
        recs.iter()
            .map(|rec| {
                let mut ids_rec: Vec<u32> = rec.iter().map(|t| rank[t]).collect();
                ids_rec.sort_unstable();
                ids_rec
            })
            .collect()
    };
    LegacyCollection {
        left: map_side(&lrecs),
        right: map_side(&rrecs),
        vocab_size: vocab.len(),
        interner_tokens: tokens,
    }
}

/// [`tokenized_collection`] and `TokenizedCollection::build_with_interner`
/// over the same input and seed, asserted equal field for field — interner
/// included — before the new collection is returned. Every timed
/// comparison goes through this first.
pub fn assert_build_is_bit_identical<S: AsRef<str>>(
    left: &[Option<S>],
    right: &[Option<S>],
    tokenizer: &dyn magellan_textsim::Tokenizer,
    seed_tokens: &[&str],
) -> magellan_simjoin::TokenizedCollection {
    let old = tokenized_collection(left, right, &|s| tokenizer.tokenize(s), seed_tokens);
    let mut interner = magellan_textsim::TokenInterner::new();
    for t in seed_tokens {
        interner.intern(t);
    }
    let new = magellan_simjoin::TokenizedCollection::build_with_interner(
        left,
        right,
        tokenizer,
        &mut interner,
    );
    let column = |records: &[Vec<u32>]| records.iter().collect::<magellan_simjoin::TokenColumn>();
    assert_eq!(new.left, column(&old.left), "left records diverged");
    assert_eq!(new.right, column(&old.right), "right records diverged");
    assert_eq!(new.vocab_size, old.vocab_size, "vocabulary size diverged");
    let interned: Vec<&str> = (0..interner.len() as u32)
        .map(|id| interner.resolve(id))
        .collect();
    assert_eq!(interned, old.interner_tokens, "interner ids diverged");
    new
}

/// Score every row on the pool, each tree walked over its `Node` arena
/// (`DecisionTreeClassifier::predict_proba`), the leaf probabilities
/// summed in tree order and divided by the tree count.
pub fn arena_forest_batch(
    forest: &RandomForestClassifier,
    rows: &[Vec<f64>],
    cfg: &ParConfig,
) -> Vec<f64> {
    let trees = forest.trees();
    magellan_par::map_indexed(rows.len(), cfg, |i| {
        let sum: f64 = trees.iter().map(|t| t.predict_proba(&rows[i])).sum();
        sum / trees.len() as f64
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::tokenize::{
        AlphanumericTokenizer, QgramTokenizer, Tokenizer, WhitespaceTokenizer,
    };
    use proptest::prelude::*;

    /// Nulls, empties, repeated tokens, mixed case, punctuation and a few
    /// non-ASCII characters, over a vocabulary small enough to share.
    fn soup() -> impl Strategy<Value = Vec<Option<String>>> {
        proptest::collection::vec(
            proptest::option::weighted(
                0.85,
                "[abAB7\u{e9}\u{212a}]{0,3}([ ,.-][abAB7\u{e9}]{0,3}){0,6}",
            ),
            0..30,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The dense build equals the HashMap build bit for bit — records,
        /// vocabulary size and the interner it leaves behind — for every
        /// tokenizer, on a fresh interner and on a pre-seeded one whose
        /// tokens are partly unused here.
        #[test]
        fn dense_build_equals_hashmap_build(
            left in soup(),
            right in soup(),
            seeded in any::<bool>(),
        ) {
            let seed: &[&str] = if seeded { &["zebra", "b", "unused", "a7", "##a"] } else { &[] };
            let tokenizers: [&dyn Tokenizer; 4] = [
                &WhitespaceTokenizer::new(),
                &AlphanumericTokenizer::as_set(),
                &QgramTokenizer::as_set(3),
                &QgramTokenizer::unpadded(2),
            ];
            for tok in tokenizers {
                assert_build_is_bit_identical(&left, &right, tok, seed);
            }
        }
    }

    /// The preserved tokenizer is the shipped one: same tokens, same order.
    #[test]
    fn legacy_alphanumeric_is_todays_alphanumeric() {
        let tok = AlphanumericTokenizer::as_set();
        for s in [
            "",
            "O'Brien-Smith, J.R. (2nd) smith",
            "a A a",
            "\u{212a}9 x\u{e9}y Z",
        ] {
            assert_eq!(alphanumeric_set(s), tok.tokenize(s), "{s:?}");
        }
    }

    /// Every interner draws its own random hash seed, so two builds of one
    /// input are builds under two seeds: nothing in the result may differ.
    #[test]
    fn build_does_not_depend_on_the_interner_seed() {
        let left: Vec<Option<String>> = (0..300)
            .map(|i| Some(format!("brand{} model {} {}", i % 7, i % 31, i * 37 % 101)))
            .collect();
        let right: Vec<Option<String>> = (0..80)
            .map(|i| (i % 9 != 0).then(|| format!("model {} brand{}", i % 31, i % 5)))
            .collect();
        let tok = AlphanumericTokenizer::as_set();
        let first = magellan_simjoin::TokenizedCollection::build(&left, &right, &tok);
        for _ in 0..4 {
            let again = magellan_simjoin::TokenizedCollection::build(&left, &right, &tok);
            assert_eq!((&again.left, &again.right), (&first.left, &first.right));
            assert_eq!(again.vocab_size, first.vocab_size);
        }
    }
}
