//! Property-based tests for the similarity measures: bounds, symmetry,
//! identity, and triangle-style relations that every downstream tool
//! (blockers, feature generators, sim-joins) relies on.

use magellan_textsim::seqsim::*;
use magellan_textsim::setsim::*;
use magellan_textsim::tokenize::{QgramTokenizer, Tokenizer, WhitespaceTokenizer};
use magellan_textsim::TfIdfModel;
use proptest::prelude::*;

fn word() -> impl Strategy<Value = String> {
    "[a-d]{0,8}"
}

fn phrase() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-d]{1,5}", 0..5).prop_map(|v| v.join(" "))
}

proptest! {
    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        let ab = levenshtein(&a, &b);
        let ba = levenshtein(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(levenshtein(&a, &a), 0);
        // Triangle inequality.
        prop_assert!(levenshtein(&a, &c) <= ab + levenshtein(&b, &c));
        // Distance bounded by longer length.
        prop_assert!(ab <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn sequence_sims_bounded_and_symmetric(a in word(), b in word()) {
        for f in [levenshtein_sim, jaro, jaro_winkler] {
            let s1 = f(&a, &b);
            let s2 = f(&b, &a);
            prop_assert!((0.0..=1.0).contains(&s1), "{} out of range", s1);
            prop_assert!((s1 - s2).abs() < 1e-12);
        }
        prop_assert_eq!(jaro(&a, &a), 1.0);
        prop_assert_eq!(levenshtein_sim(&a, &a), 1.0);
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in word(), b in word()) {
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn set_sims_bounded_symmetric_reflexive(x in phrase(), y in phrase()) {
        let tok = WhitespaceTokenizer::new();
        let a = tok.tokenize(&x);
        let b = tok.tokenize(&y);
        for f in [jaccard::<String>, dice::<String>, cosine::<String>, overlap_coefficient::<String>] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - f(&b, &a)).abs() < 1e-12);
            prop_assert_eq!(f(&a, &a), 1.0);
        }
        // Known dominance chain: jaccard <= dice <= overlap_coefficient.
        prop_assert!(jaccard(&a, &b) <= dice(&a, &b) + 1e-12);
        prop_assert!(dice(&a, &b) <= overlap_coefficient(&a, &b) + 1e-12);
    }

    #[test]
    fn qgram_tokenizer_padded_count(s in "[a-z]{0,12}", q in 1usize..5) {
        let tok = QgramTokenizer::new(q);
        let n = s.chars().count();
        let toks = tok.tokenize(&s);
        if n == 0 && q > 1 {
            // padded empty string still yields q-1 grams of pure sentinels
            prop_assert_eq!(toks.len(), q - 1);
        } else if n == 0 {
            prop_assert!(toks.is_empty());
        } else {
            prop_assert_eq!(toks.len(), n + q - 1);
        }
        for t in &toks {
            prop_assert_eq!(t.chars().count(), q);
        }
    }

    #[test]
    fn tfidf_bounded_symmetric_reflexive(
        docs in proptest::collection::vec(phrase(), 1..6),
        x in phrase(),
        y in phrase(),
    ) {
        let tok = WhitespaceTokenizer::new();
        let corpus: Vec<Vec<String>> = docs.iter().map(|d| tok.tokenize(d)).collect();
        let m = TfIdfModel::fit(&corpus);
        let a = tok.tokenize(&x);
        let b = tok.tokenize(&y);
        let s = m.tfidf(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - m.tfidf(&b, &a)).abs() < 1e-9);
        prop_assert!((m.tfidf(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monge_elkan_bounded(x in phrase(), y in phrase()) {
        let tok = WhitespaceTokenizer::new();
        let a = tok.tokenize(&x);
        let b = tok.tokenize(&y);
        let s = monge_elkan_jw(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((monge_elkan_jw(&a, &a) - 1.0).abs() < 1e-12 || a.is_empty());
    }

    #[test]
    fn hamming_matches_manual_count(a in "[ab]{0,10}") {
        // Same-length strings always have a Hamming distance; shifting one
        // char changes distance by at most 1.
        let b: String = a.chars().rev().collect();
        let d = hamming(&a, &b).expect("equal length");
        prop_assert!(d <= a.len());
    }
}

// ---------------------------------------------------------------------------
// Equivalence pins for the sort-dedup-merge setsim rewrite and the interned
// u32 kernels: both must be *bit-identical* to the original hash-set-based
// measures for arbitrary token bags, including duplicate-token and
// empty-set edge cases.
// ---------------------------------------------------------------------------

/// The original `HashSet`-based measures, kept here as the reference
/// implementation the production code is pinned against.
mod hash_reference {
    use std::collections::HashSet;

    fn to_set<'a>(tokens: &'a [String]) -> HashSet<&'a str> {
        tokens.iter().map(|t| t.as_str()).collect()
    }

    fn inter(a: &HashSet<&str>, b: &HashSet<&str>) -> usize {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().filter(|t| large.contains(*t)).count()
    }

    pub fn jaccard(a: &[String], b: &[String]) -> f64 {
        let (a, b) = (to_set(a), to_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let i = inter(&a, &b);
        i as f64 / (a.len() + b.len() - i) as f64
    }

    pub fn dice(a: &[String], b: &[String]) -> f64 {
        let (a, b) = (to_set(a), to_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        2.0 * inter(&a, &b) as f64 / (a.len() + b.len()) as f64
    }

    pub fn cosine(a: &[String], b: &[String]) -> f64 {
        let (a, b) = (to_set(a), to_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        inter(&a, &b) as f64 / ((a.len() as f64) * (b.len() as f64)).sqrt()
    }

    pub fn overlap_coefficient(a: &[String], b: &[String]) -> f64 {
        let (a, b) = (to_set(a), to_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        inter(&a, &b) as f64 / a.len().min(b.len()) as f64
    }

    pub fn overlap_size(a: &[String], b: &[String]) -> usize {
        inter(&to_set(a), &to_set(b))
    }
}

/// Token bags with deliberately high duplicate rates (tiny alphabet,
/// repeated draws) so dedup behaviour is exercised hard; `0..6` length
/// includes the empty bag.
fn dup_bag() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[ab]{1,2}", 0..6)
}

/// A token bag's sorted, deduplicated id set.
fn id_set(it: &mut magellan_textsim::TokenInterner, tokens: &[String]) -> Vec<u32> {
    let mut ids: Vec<u32> = tokens.iter().map(|t| it.intern(t)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #[test]
    fn merge_setsim_bit_identical_to_hash_reference(a in dup_bag(), b in dup_bag()) {
        prop_assert_eq!(jaccard(&a, &b).to_bits(), hash_reference::jaccard(&a, &b).to_bits());
        prop_assert_eq!(dice(&a, &b).to_bits(), hash_reference::dice(&a, &b).to_bits());
        prop_assert_eq!(cosine(&a, &b).to_bits(), hash_reference::cosine(&a, &b).to_bits());
        prop_assert_eq!(
            overlap_coefficient(&a, &b).to_bits(),
            hash_reference::overlap_coefficient(&a, &b).to_bits()
        );
        prop_assert_eq!(overlap_size(&a, &b), hash_reference::overlap_size(&a, &b));
    }

    #[test]
    fn interned_kernels_bit_identical_to_string_measures(a in dup_bag(), b in dup_bag()) {
        use magellan_textsim::intern::{
            cosine_ids, dice_ids, jaccard_ids, overlap_coefficient_ids, overlap_size_ids,
            TokenInterner,
        };
        let mut it = TokenInterner::new();
        let ia = id_set(&mut it, &a);
        let ib = id_set(&mut it, &b);
        prop_assert_eq!(jaccard_ids(&ia, &ib).to_bits(), jaccard(&a, &b).to_bits());
        prop_assert_eq!(dice_ids(&ia, &ib).to_bits(), dice(&a, &b).to_bits());
        prop_assert_eq!(cosine_ids(&ia, &ib).to_bits(), cosine(&a, &b).to_bits());
        prop_assert_eq!(
            overlap_coefficient_ids(&ia, &ib).to_bits(),
            overlap_coefficient(&a, &b).to_bits()
        );
        prop_assert_eq!(overlap_size_ids(&ia, &ib), overlap_size(&a, &b));
    }

    #[test]
    fn empty_and_duplicate_edges_pinned(a in dup_bag()) {
        let empty: Vec<String> = Vec::new();
        // Two empty sets: maximally similar by convention.
        prop_assert_eq!(jaccard(&empty, &empty), 1.0);
        prop_assert_eq!(dice(&empty, &empty), 1.0);
        prop_assert_eq!(cosine(&empty, &empty), 1.0);
        prop_assert_eq!(overlap_coefficient(&empty, &empty), 1.0);
        // One empty set: 0.0 similarity, matching the hash reference.
        if !a.is_empty() {
            prop_assert_eq!(jaccard(&a, &empty), 0.0);
            prop_assert_eq!(jaccard(&a, &empty).to_bits(), hash_reference::jaccard(&a, &empty).to_bits());
            prop_assert_eq!(cosine(&empty, &a), 0.0);
        }
        // Duplicates never change a set measure: a bag vs its dedup.
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(jaccard(&a, &dedup), if a.is_empty() { 1.0 } else { 1.0 });
        let doubled: Vec<String> = a.iter().chain(a.iter()).cloned().collect();
        prop_assert_eq!(jaccard(&a, &doubled).to_bits(), jaccard(&a, &a).to_bits());
    }
}
