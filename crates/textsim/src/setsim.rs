//! Set/token-based similarity measures.
//!
//! All functions take token slices (as produced by a
//! [`crate::tokenize::Tokenizer`]) and treat them with set semantics,
//! deduplicating internally, matching `py_stringmatching`'s behaviour.
//! Conventions for degenerate inputs follow that package: two empty token
//! sets are maximally similar (1.0), one empty set yields 0.0.

/// Sort-dedup a token bag into a set represented as a **sorted `&str`
/// slice**. No hashing: set size and intersection are then computed by
/// the merge walk below, which is both faster for the short token sets EM
/// attributes produce and structurally identical to the interned-`u32`
/// kernels in [`crate::intern`] (the prepared batch path), keeping the
/// two paths trivially equivalent.
fn to_set<S: AsRef<str>>(tokens: &[S]) -> Vec<&str> {
    let mut v: Vec<&str> = tokens.iter().map(|t| t.as_ref()).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// `|a ∩ b|` of two sorted deduplicated slices (merge walk).
fn intersection_size(a: &[&str], b: &[&str]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(b[j]) {
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

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`.
pub fn jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (a, b) = (to_set(a), to_set(b));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = intersection_size(&a, &b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)`.
pub fn dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (a, b) = (to_set(a), to_set(b));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = intersection_size(&a, &b);
    2.0 * inter as f64 / (a.len() + b.len()) as f64
}

/// Set cosine similarity `|A ∩ B| / sqrt(|A|·|B|)` (Ochiai coefficient).
pub fn cosine<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (a, b) = (to_set(a), to_set(b));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(&a, &b);
    inter as f64 / ((a.len() as f64) * (b.len() as f64)).sqrt()
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`.
pub fn overlap_coefficient<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (a, b) = (to_set(a), to_set(b));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(&a, &b);
    inter as f64 / a.len().min(b.len()) as f64
}

/// Raw overlap size `|A ∩ B|` (the measure overlap blockers threshold on).
pub fn overlap_size<S: AsRef<str>>(a: &[S], b: &[S]) -> usize {
    let (a, b) = (to_set(a), to_set(b));
    intersection_size(&a, &b)
}

/// Monge–Elkan similarity: for each token of `a`, the best secondary
/// similarity against any token of `b`, averaged. Asymmetric by design;
/// `py_stringmatching` defaults the secondary measure to Jaro–Winkler.
pub fn monge_elkan<S: AsRef<str>>(a: &[S], b: &[S], secondary: impl Fn(&str, &str) -> f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let total: f64 = a
        .iter()
        .map(|ta| {
            b.iter()
                .map(|tb| secondary(ta.as_ref(), tb.as_ref()))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .sum();
    total / a.len() as f64
}

/// Monge–Elkan with the default Jaro–Winkler secondary measure. Decodes
/// each token once and runs [`monge_elkan_jw_chars`].
pub fn monge_elkan_jw<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let decode = |bag: &[S]| -> Vec<Vec<char>> {
        bag.iter().map(|t| t.as_ref().chars().collect()).collect()
    };
    monge_elkan_jw_chars(&decode(a), &decode(b))
}

/// [`monge_elkan_jw`] over pre-decoded tokens; allocates nothing for
/// tokens of at most 64 characters. Equal tokens score 1.0 without running
/// Jaro at all — `jaro(x, x)` matches every character to itself with no
/// transpositions, so it evaluates `(1 + 1 + 1) / 3`, which is exactly 1.0,
/// and the Winkler prefix term is multiplied by `1 − 1`.
pub fn monge_elkan_jw_chars<T: AsRef<[char]>>(a: &[T], b: &[T]) -> f64 {
    monge_elkan_upto_one(a.len(), b.len(), |i, j| {
        let (ta, tb) = (a[i].as_ref(), b[j].as_ref());
        if ta == tb {
            1.0
        } else {
            crate::seqsim::jaro_winkler_chars(ta, tb)
        }
    })
}

/// The Monge–Elkan loop over token *positions*, for a secondary measure
/// that never exceeds 1.0: `sim(i, j)` scores token `i` of the left bag
/// against token `j` of the right one, in the order [`monge_elkan`] would
/// ask. However the tokens are stored (decoded slices, interned ids with a
/// memo in front of Jaro–Winkler), the sum and the division are these.
///
/// The inner maximum stops at the first 1.0: once some token scores 1.0
/// the maximum over the rest is 1.0 as well, so the result has the bits of
/// the full scan. Jaro–Winkler qualifies — Jaro is at most 1, the prefix
/// term adds at most `0.4 · (1 − jaro)`, and rounding is monotone.
pub fn monge_elkan_upto_one(
    a_len: usize,
    b_len: usize,
    mut sim: impl FnMut(usize, usize) -> f64,
) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    if a_len == 0 || b_len == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..a_len {
        let mut best = f64::NEG_INFINITY;
        for j in 0..b_len {
            best = best.max(sim(i, j));
            if best >= 1.0 {
                break;
            }
        }
        total += best;
    }
    total / a_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn jaccard_known_values() {
        assert_eq!(jaccard(&toks("a b c"), &toks("b c d")), 0.5);
        assert_eq!(jaccard(&toks("a"), &toks("a")), 1.0);
        assert_eq!(jaccard(&toks("a"), &toks("b")), 0.0);
        assert_eq!(jaccard::<String>(&[], &[]), 1.0);
        assert_eq!(jaccard(&toks("a"), &[]), 0.0);
    }

    #[test]
    fn jaccard_dedupes_bags() {
        // {a} vs {a b}: 1/2 regardless of duplicate a's.
        assert_eq!(jaccard(&toks("a a a"), &toks("a b")), 0.5);
    }

    #[test]
    fn dice_known_values() {
        assert_eq!(dice(&toks("a b"), &toks("b c")), 0.5);
        assert_eq!(dice::<String>(&[], &[]), 1.0);
        assert_eq!(dice(&toks("x"), &[]), 0.0);
    }

    #[test]
    fn cosine_known_values() {
        // |inter|=1, sizes 2 and 2 -> 0.5
        assert_eq!(cosine(&toks("a b"), &toks("b c")), 0.5);
        // sizes 1 and 4, inter 1 -> 1/2
        assert_eq!(cosine(&toks("a"), &toks("a b c d")), 0.5);
        assert_eq!(cosine::<String>(&[], &[]), 1.0);
    }

    #[test]
    fn overlap_coefficient_known_values() {
        assert_eq!(overlap_coefficient(&toks("a b"), &toks("a b c d")), 1.0);
        assert_eq!(overlap_coefficient(&toks("a b"), &toks("c d")), 0.0);
        assert_eq!(overlap_size(&toks("a b c"), &toks("b c d")), 2);
    }

    #[test]
    fn monge_elkan_rewards_near_token_matches() {
        let a = toks("paul johnson");
        let b = toks("johson paule");
        let me = monge_elkan_jw(&a, &b);
        assert!(me > 0.85, "got {me}");
        // Asymmetry: singleton side can score 1.0 against a superset.
        let one = toks("smith");
        let many = toks("smith john w");
        assert_eq!(monge_elkan_jw(&one, &many), 1.0);
        assert!(monge_elkan_jw(&many, &one) < 1.0);
    }

    proptest::proptest! {
        /// The equal-token and first-1.0 shortcuts return the full scan's
        /// bits, with duplicate tokens, equal tokens and empty sides.
        #[test]
        fn monge_elkan_jw_shortcuts_match_the_full_scan(
            x in "[ab]{0,3}( [abé]{1,4}){0,4}",
            y in "[ab]{0,3}( [abé]{1,4}){0,4}",
        ) {
            // Appending a side to itself forces duplicate and equal tokens.
            for (a, b) in [(toks(&x), toks(&y)), (toks(&format!("{x} {y} {x}")), toks(&y))] {
                let full = monge_elkan(&a, &b, crate::seqsim::jaro_winkler);
                proptest::prop_assert_eq!(monge_elkan_jw(&a, &b).to_bits(), full.to_bits());
            }
        }
    }

    #[test]
    fn all_measures_bounded() {
        let pairs = [
            ("dave smith", "david smith"),
            ("", "x y"),
            ("a b c", "a b c"),
            ("q", "zzz zz z"),
        ];
        for (x, y) in pairs {
            let (a, b) = (toks(x), toks(y));
            for v in [
                jaccard(&a, &b),
                dice(&a, &b),
                cosine(&a, &b),
                overlap_coefficient(&a, &b),
                monge_elkan_jw(&a, &b),
            ] {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "{v} out of bounds for {x:?}/{y:?}"
                );
            }
        }
    }
}
