//! Sequence-based string similarity measures.
//!
//! All `*_sim` functions return values in `[0, 1]` with 1 meaning identical;
//! raw scores (edit distances, alignment scores) are exposed separately
//! where the raw value is meaningful to feature generators.
//!
//! Levenshtein and Jaro(–Winkler) have **one implementation each, over
//! `&[char]`** ([`levenshtein_chars`], [`jaro_chars`],
//! [`jaro_winkler_chars`]): batch callers decode a record's characters once
//! and call these per pair without allocating; the `&str` functions decode
//! once and delegate, so both routes run the same code and return the same
//! bits.

/// Decode a string's characters once.
fn decode(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// Levenshtein (edit) distance with unit costs.
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_chars(&decode(a), &decode(b), &mut Vec::new())
}

/// Levenshtein distance over decoded characters.
///
/// The shorter side is the pattern. With at most 64 pattern characters the
/// distance comes from the bit-parallel recurrence of Myers as refined by
/// Hyyrö: one `u64` holds the vertical deltas of a whole DP column, so each
/// text character costs a handful of word operations instead of a pattern's
/// worth of cells. Longer patterns run the classic DP in `rows`, a
/// caller-owned buffer that is resized as needed and never read across
/// calls (pass the same `Vec` to every call of a batch and it allocates
/// once). Both forms compute the same integer.
pub fn levenshtein_chars(a: &[char], b: &[char], rows: &mut Vec<usize>) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() {
        return text.len();
    }
    if pattern.len() <= 64 {
        levenshtein_bitparallel(pattern, text)
    } else {
        levenshtein_dp(pattern, text, rows)
    }
}

/// Myers/Hyyrö bit-vector edit distance, `1 ≤ pattern.len() ≤ 64`.
fn levenshtein_bitparallel(pattern: &[char], text: &[char]) -> usize {
    // Match masks of the pattern's distinct characters; a character absent
    // from the table matches nowhere (mask 0).
    let mut table = [('\0', 0u64); 64];
    let mut distinct = 0;
    for (j, &c) in pattern.iter().enumerate() {
        let bit = 1u64 << j;
        match table[..distinct].iter_mut().find(|(tc, _)| *tc == c) {
            Some((_, mask)) => *mask |= bit,
            None => {
                table[distinct] = (c, bit);
                distinct += 1;
            }
        }
    }
    let table = &table[..distinct];
    myers_columns(pattern.len(), text, |c| {
        table
            .iter()
            .find_map(|&(tc, mask)| (tc == c).then_some(mask))
            .unwrap_or(0)
    })
}

/// The Myers/Hyyrö recurrence over the DP columns of `text`, for a pattern
/// of `1 ≤ m ≤ 64` characters whose match mask against a text character is
/// `eq(c)` (bit `j` set iff pattern character `j` equals `c`).
///
/// Bit `j` of `pv`/`mv` says whether the DP column's cell `j + 1` is one
/// more/less than cell `j`; `score` tracks the bottom cell. The first DP
/// row is `0, 1, 2, …` (global alignment), which is the `| 1` shifted into
/// the horizontal positive delta.
#[inline]
fn myers_columns(m: usize, text: &[char], eq: impl Fn(char) -> u64) -> usize {
    debug_assert!((1..=64).contains(&m));
    let top = 1u64 << (m - 1);
    let mut pv = u64::MAX;
    let mut mv = 0u64;
    let mut score = m;
    for &c in text {
        let eq = eq(c);
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & top != 0 {
            score += 1;
        }
        if mh & top != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// One side of many Levenshtein comparisons, prepared once: the match
/// masks of an ASCII string of 1–64 characters in a table indexed by
/// character, so a comparison is [`myers_columns`] with one load per text
/// character and no per-call table build.
///
/// The prepared string is the *pattern* whichever side is longer. The
/// recurrence computes the exact edit distance for any text length, and
/// edit distance is symmetric, so the integer equals
/// [`levenshtein_chars`]' (which makes the shorter side the pattern).
#[derive(Debug, Clone)]
pub struct LevPattern {
    masks: [u64; 128],
    len: usize,
}

impl Default for LevPattern {
    fn default() -> Self {
        LevPattern {
            masks: [0; 128],
            len: 0,
        }
    }
}

impl LevPattern {
    /// Make `pattern` the prepared side, replacing the previous one. False
    /// (and nothing is prepared) unless it is ASCII and 1–64 characters;
    /// the caller then compares through [`levenshtein_sim_chars`].
    pub fn set(&mut self, pattern: &[char]) -> bool {
        self.len = 0;
        if !(1..=64).contains(&pattern.len()) || !pattern.iter().all(char::is_ascii) {
            return false;
        }
        self.masks = [0; 128];
        for (j, &c) in pattern.iter().enumerate() {
            self.masks[c as usize] |= 1u64 << j;
        }
        self.len = pattern.len();
        true
    }

    /// [`levenshtein_sim_chars`] of the prepared string and `text`, bit
    /// for bit. A text character outside ASCII matches nowhere.
    ///
    /// # Panics
    /// If the last [`LevPattern::set`] returned false.
    pub fn sim(&self, text: &[char]) -> f64 {
        assert!(self.len > 0, "no pattern prepared");
        let dist = myers_columns(self.len, text, |c| {
            self.masks.get(c as usize).copied().unwrap_or(0)
        });
        distance_to_sim(dist, self.len.max(text.len()))
    }
}

/// The classic DP over one reused row (`diag` carries the cell the row
/// overwrote), for patterns beyond a machine word.
fn levenshtein_dp(pattern: &[char], text: &[char], row: &mut Vec<usize>) -> usize {
    row.clear();
    row.extend(0..=pattern.len());
    for (i, tc) in text.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, pc) in pattern.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (diag + usize::from(tc != pc)).min(up + 1).min(row[j] + 1);
            diag = up;
        }
    }
    row[pattern.len()]
}

/// Normalized Levenshtein similarity: `1 - dist / max_len`; 1.0 for two
/// empty strings.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    levenshtein_sim_chars(&decode(a), &decode(b), &mut Vec::new())
}

/// [`levenshtein_sim`] over decoded characters (`rows` as in
/// [`levenshtein_chars`]).
pub fn levenshtein_sim_chars(a: &[char], b: &[char], rows: &mut Vec<usize>) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    distance_to_sim(levenshtein_chars(a, b, rows), max_len)
}

/// `1 - dist / max_len`, `max_len ≥ 1`.
fn distance_to_sim(dist: usize, max_len: usize) -> f64 {
    1.0 - dist as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_chars(&decode(a), &decode(b))
}

/// Jaro similarity over decoded characters.
///
/// When both sides have at most 64 characters the "already matched" flags
/// of both sides are two `u64` masks and transpositions are counted by
/// walking the masks' set bits in step — no allocation; longer inputs keep
/// the flags in vectors. The matching order, the counts and the final
/// expression are the same in both forms.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (m, transpositions) = if a.len() <= 64 && b.len() <= 64 {
        jaro_matches_masks(a, b)
    } else {
        jaro_matches_vecs(a, b)
    };
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The half-open range of `b` positions a character at `a[i]` may match.
fn jaro_window(i: usize, window: usize, b_len: usize) -> std::ops::Range<usize> {
    i.saturating_sub(window)..(i + window + 1).min(b_len)
}

/// `(matches, transpositions)` with both flag sets in machine words.
fn jaro_matches_masks(a: &[char], b: &[char]) -> (usize, usize) {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched = 0u64;
    let mut b_used = 0u64;
    for (i, ca) in a.iter().enumerate() {
        for j in jaro_window(i, window, b.len()) {
            if b_used & (1 << j) == 0 && b[j] == *ca {
                b_used |= 1 << j;
                a_matched |= 1 << i;
                break;
            }
        }
    }
    // The k-th matched character of `a` against the k-th used one of `b`.
    let mut out_of_order = 0;
    let (mut am, mut bm) = (a_matched, b_used);
    while am != 0 {
        if a[am.trailing_zeros() as usize] != b[bm.trailing_zeros() as usize] {
            out_of_order += 1;
        }
        am &= am - 1;
        bm &= bm - 1;
    }
    (a_matched.count_ones() as usize, out_of_order / 2)
}

/// `(matches, transpositions)` for inputs beyond a machine word.
fn jaro_matches_vecs(a: &[char], b: &[char]) -> (usize, usize) {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        for j in jaro_window(i, window, b.len()) {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let matches_b = b
        .iter()
        .zip(&b_used)
        .filter_map(|(c, used)| used.then_some(c));
    let out_of_order = matches_a
        .iter()
        .zip(matches_b)
        .filter(|(x, y)| x != y)
        .count();
    (matches_a.len(), out_of_order / 2)
}

/// Jaro–Winkler similarity with the standard prefix scale `p = 0.1` and a
/// maximum common-prefix credit of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, 0.1)
}

/// [`jaro_winkler`] over decoded characters.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    jaro_winkler_chars_with(a, b, 0.1)
}

/// Jaro–Winkler with an explicit prefix scale (must be ≤ 0.25 to keep the
/// result in `[0, 1]`).
pub fn jaro_winkler_with(a: &str, b: &str, prefix_scale: f64) -> f64 {
    jaro_winkler_chars_with(&decode(a), &decode(b), prefix_scale)
}

fn jaro_winkler_chars_with(a: &[char], b: &[char], prefix_scale: f64) -> f64 {
    debug_assert!((0.0..=0.25).contains(&prefix_scale));
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * prefix_scale * (1.0 - j)
}

/// Hamming distance; `None` when the strings differ in length.
pub fn hamming(a: &str, b: &str) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    (a.len() == b.len()).then(|| a.iter().zip(&b).filter(|(x, y)| x != y).count())
}

/// Normalized Hamming similarity; `None` when lengths differ, 1.0 for two
/// empty strings.
pub fn hamming_sim(a: &str, b: &str) -> Option<f64> {
    let n = a.chars().count();
    let d = hamming(a, b)?;
    Some(if n == 0 {
        1.0
    } else {
        1.0 - d as f64 / n as f64
    })
}

/// Needleman–Wunsch global alignment score with match = +1,
/// mismatch = −1, gap = −1 (the `py_stringmatching` defaults are
/// match 1 / mismatch 0 / gap −1; we expose the knobs).
pub fn needleman_wunsch(a: &str, b: &str) -> f64 {
    needleman_wunsch_with(a, b, 1.0, 0.0, -1.0)
}

/// Needleman–Wunsch with explicit scores.
pub fn needleman_wunsch_with(
    a: &str,
    b: &str,
    match_score: f64,
    mismatch_score: f64,
    gap_cost: f64,
) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<f64> = (0..=b.len()).map(|j| j as f64 * gap_cost).collect();
    let mut cur = vec![0.0f64; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = (i + 1) as f64 * gap_cost;
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j]
                + if ca == cb {
                    match_score
                } else {
                    mismatch_score
                };
            cur[j + 1] = diag.max(prev[j + 1] + gap_cost).max(cur[j] + gap_cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Smith–Waterman local alignment score (match +1, mismatch −1, gap −1 by
/// default; never negative).
pub fn smith_waterman(a: &str, b: &str) -> f64 {
    smith_waterman_with(a, b, 1.0, -1.0, -1.0)
}

/// Smith–Waterman with explicit scores.
pub fn smith_waterman_with(
    a: &str,
    b: &str,
    match_score: f64,
    mismatch_score: f64,
    gap_cost: f64,
) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev = vec![0.0f64; b.len() + 1];
    let mut cur = vec![0.0f64; b.len() + 1];
    let mut best = 0.0f64;
    for ca in &a {
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j]
                + if ca == cb {
                    match_score
                } else {
                    mismatch_score
                };
            let v = diag
                .max(prev[j + 1] + gap_cost)
                .max(cur[j] + gap_cost)
                .max(0.0);
            cur[j + 1] = v;
            best = best.max(v);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Affine-gap global alignment score (Gotoh): gap open / gap extend are
/// charged separately so one long gap is cheaper than many short gaps.
/// Defaults: match +1, mismatch −1, open −1, extend −0.5.
pub fn affine_gap(a: &str, b: &str) -> f64 {
    affine_gap_with(a, b, 1.0, -1.0, -1.0, -0.5)
}

/// Affine-gap alignment with explicit scores.
pub fn affine_gap_with(
    a: &str,
    b: &str,
    match_score: f64,
    mismatch_score: f64,
    gap_open: f64,
    gap_extend: f64,
) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let neg = f64::NEG_INFINITY;
    let n = b.len();
    // M = align, X = gap in b (consume a), Y = gap in a (consume b).
    let mut m_prev = vec![neg; n + 1];
    let mut x_prev = vec![neg; n + 1];
    let mut y_prev = vec![neg; n + 1];
    m_prev[0] = 0.0;
    for (j, y) in y_prev.iter_mut().enumerate().skip(1) {
        *y = gap_open + (j - 1) as f64 * gap_extend;
    }
    let mut m_cur = vec![neg; n + 1];
    let mut x_cur = vec![neg; n + 1];
    let mut y_cur = vec![neg; n + 1];
    for (i, ca) in a.iter().enumerate() {
        m_cur[0] = neg;
        y_cur[0] = neg;
        x_cur[0] = gap_open + i as f64 * gap_extend;
        for (j, cb) in b.iter().enumerate() {
            let s = if ca == cb {
                match_score
            } else {
                mismatch_score
            };
            m_cur[j + 1] = s + m_prev[j].max(x_prev[j]).max(y_prev[j]);
            x_cur[j + 1] = (m_prev[j + 1] + gap_open).max(x_prev[j + 1] + gap_extend);
            y_cur[j + 1] = (m_cur[j] + gap_open).max(y_cur[j] + gap_extend);
        }
        std::mem::swap(&mut m_prev, &mut m_cur);
        std::mem::swap(&mut x_prev, &mut x_cur);
        std::mem::swap(&mut y_prev, &mut y_cur);
    }
    let best = m_prev[n].max(x_prev[n]).max(y_prev[n]);
    if best == neg {
        0.0 // both strings empty
    } else {
        best
    }
}

/// Length of the longest common prefix.
pub fn common_prefix_len(a: &str, b: &str) -> usize {
    a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count()
}

/// Exact-match similarity: 1.0 iff equal.
pub fn exact_match(a: &str, b: &str) -> f64 {
    f64::from(a == b)
}

/// The textbook forms the slice kernels replaced, kept verbatim as the
/// oracle their results are compared against bit for bit.
#[cfg(test)]
mod reference {
    pub fn levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let (short, long) = if a.len() <= b.len() {
            (&a, &b)
        } else {
            (&b, &a)
        };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut cur = vec![0usize; short.len() + 1];
        for (i, lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc != sc);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[short.len()]
    }

    pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
        let max_len = a.chars().count().max(b.chars().count());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - levenshtein(a, b) as f64 / max_len as f64
    }

    pub fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a: Vec<char> = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches_a.push(*ca);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let matches_b: Vec<char> = b
            .iter()
            .zip(&b_used)
            .filter_map(|(c, used)| used.then_some(*c))
            .collect();
        let transpositions = matches_a
            .iter()
            .zip(&matches_b)
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    pub fn jaro_winkler(a: &str, b: &str) -> f64 {
        let j = jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lengths on both sides of the 64-character word the bit-parallel
    /// forms are limited to, and short ones.
    fn length() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(130usize),
            0usize..12
        ]
    }

    fn over(alphabet: &'static [char]) -> impl Strategy<Value = Vec<char>> {
        length()
            .prop_flat_map(move |n| proptest::collection::vec(0..alphabet.len(), n..n + 1))
            .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i]).collect())
    }

    /// One side of a pair: all-equal, heavily repeated, multi-byte UTF-8
    /// (decoded length ≠ byte length) and all-different strings.
    fn side() -> impl Strategy<Value = Vec<char>> {
        prop_oneof![
            over(&['a']),
            over(&['a', 'b']),
            over(&['a', 'b', 'c', 'é', '日', '𝄞']),
            (length(), 0u32..3).prop_map(|(n, block)| {
                (0..n as u32)
                    .map(|i| char::from_u32(0x4E00 + block * 40 + i).expect("CJK block"))
                    .collect()
            }),
        ]
    }

    proptest! {
        /// Slice kernels, and the `&str` functions over them, return the
        /// textbook forms' exact integers and exact `f64` bits.
        #[test]
        fn slice_kernels_match_the_textbook_forms(a in side(), b in side()) {
            let (sa, sb): (String, String) = (a.iter().collect(), b.iter().collect());
            // One buffer for every call: nothing may leak between calls.
            let mut rows = vec![7usize; 3];
            let want = reference::levenshtein(&sa, &sb);
            prop_assert_eq!(levenshtein_chars(&a, &b, &mut rows), want);
            prop_assert_eq!(levenshtein_chars(&b, &a, &mut rows), want);
            prop_assert_eq!(levenshtein(&sa, &sb), want);
            let checks = [
                (levenshtein_sim_chars(&a, &b, &mut rows), reference::levenshtein_sim(&sa, &sb)),
                (levenshtein_sim(&sa, &sb), reference::levenshtein_sim(&sa, &sb)),
                (jaro_chars(&a, &b), reference::jaro(&sa, &sb)),
                (jaro_chars(&b, &a), reference::jaro(&sb, &sa)),
                (jaro(&sa, &sb), reference::jaro(&sa, &sb)),
                (jaro_winkler_chars(&a, &b), reference::jaro_winkler(&sa, &sb)),
                (jaro_winkler(&sa, &sb), reference::jaro_winkler(&sa, &sb)),
            ];
            for (k, (got, want)) in checks.into_iter().enumerate() {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "check {}: {} vs {}", k, got, want);
            }
            // Either side as a prepared pattern, longer or shorter than the
            // text, in a table another pattern has used.
            let mut pattern = LevPattern::default();
            for (p, t, sp, st) in [(&a, &b, &sa, &sb), (&b, &a, &sb, &sa)] {
                prop_assert!(pattern.set(&['b', 'a', 'z', 'a']));
                let fits = (1..=64).contains(&p.len()) && p.iter().all(char::is_ascii);
                prop_assert_eq!(pattern.set(p), fits);
                if fits {
                    let want = reference::levenshtein_sim(sp, st);
                    prop_assert_eq!(pattern.sim(t).to_bits(), want.to_bits(), "pattern {:?}", sp);
                }
            }
        }
    }

    /// The DP beyond 64 pattern characters and the bit-parallel form agree
    /// where both apply.
    #[test]
    fn long_pattern_dp_agrees_with_bitparallel() {
        let a: Vec<char> = "the quick brown fox jumps over the lazy dog"
            .chars()
            .collect();
        let b: Vec<char> = "a quick brown dog jumps over the lazy fox!"
            .chars()
            .collect();
        let (p, t) = if a.len() <= b.len() {
            (&a, &b)
        } else {
            (&b, &a)
        };
        assert_eq!(
            levenshtein_dp(p, t, &mut Vec::new()),
            levenshtein_bitparallel(p, t)
        );
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
        let s = levenshtein_sim("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook pairs.
        assert!((jaro("MARTHA", "MARHTA") - 0.944_444_444).abs() < 1e-6);
        assert!((jaro("DIXON", "DICKSONX") - 0.766_666_666).abs() < 1e-6);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961_111_111).abs() < 1e-6);
        assert!((jaro_winkler("DWAYNE", "DUANE") - 0.84).abs() < 1e-6);
        // Prefix credit never pushes above 1.
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn hamming_requires_equal_length() {
        assert_eq!(hamming("karolin", "kathrin"), Some(3));
        assert_eq!(hamming("abc", "ab"), None);
        assert_eq!(hamming_sim("", ""), Some(1.0));
        assert_eq!(hamming_sim("ab", "ab"), Some(1.0));
    }

    #[test]
    fn needleman_wunsch_known_values() {
        // Identical strings score match * len with default scores.
        assert_eq!(needleman_wunsch("dva", "dva"), 3.0);
        // One deletion costs one gap.
        assert_eq!(needleman_wunsch_with("abc", "ac", 1.0, 0.0, -1.0), 1.0);
        assert_eq!(needleman_wunsch("", ""), 0.0);
        assert_eq!(needleman_wunsch("ab", ""), -2.0);
    }

    #[test]
    fn smith_waterman_is_local_and_nonnegative() {
        // Shared substring "ell" scores 3 despite different contexts.
        assert_eq!(smith_waterman("hello", "yellow"), 4.0); // "ello"
        assert_eq!(smith_waterman("abc", "xyz"), 0.0);
        assert_eq!(smith_waterman("", "abc"), 0.0);
    }

    #[test]
    fn affine_gap_prefers_one_long_gap() {
        // "abcdefg" vs "abcg": one 3-gap = open + 2*extend = -2.0; 4 matches = +4.
        let s = affine_gap("abcdefg", "abcg");
        assert!((s - 2.0).abs() < 1e-12);
        // Same edits as separate gaps would be cheaper under linear cost only.
        assert_eq!(affine_gap("", ""), 0.0);
        let only_gaps = affine_gap("abc", "");
        assert!((only_gaps - (-1.0 - 2.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn prefix_and_exact() {
        assert_eq!(common_prefix_len("data", "database"), 4);
        assert_eq!(common_prefix_len("x", "y"), 0);
        assert_eq!(exact_match("a", "a"), 1.0);
        assert_eq!(exact_match("a", "b"), 0.0);
    }
}
