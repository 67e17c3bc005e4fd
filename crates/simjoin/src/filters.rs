//! Size and prefix filter mathematics for set-similarity joins.
//!
//! For each measure and threshold `t`, three quantities drive the
//! filter-verify plan (Chaudhuri et al., Xiao et al.):
//!
//! * **size bounds**: the token-set sizes a partner may have;
//! * **required overlap** `α(|x|, |y|)`: the minimum intersection size two
//!   sets of the given sizes need to reach `t`;
//! * **prefix length**: indexing/probing only the first
//!   `|x| − minoverlap(x) + 1` rarest tokens of each set is sufficient —
//!   any qualifying pair must collide in those prefixes.
//!
//! All bounds here are conservative (never prune a qualifying pair); the
//! join verifies exact similarity afterwards, so a loose bound costs time,
//! not correctness. Property tests in the join module check the
//! no-false-negative guarantee against a naive cross product.

/// Floating-point ceil hardened against values that are already integral
/// up to rounding error (e.g. `0.3 * 10` evaluating to `3.0000000000000004`).
fn safe_ceil(v: f64) -> usize {
    let eps = 1e-9;
    (v - eps).ceil().max(0.0) as usize
}

/// Minimum overlap two sets of sizes `sx`, `sy` need for Jaccard ≥ t:
/// `⌈ t·(sx+sy) / (1+t) ⌉`.
pub fn jaccard_min_overlap(sx: usize, sy: usize, t: f64) -> usize {
    safe_ceil(t * (sx + sy) as f64 / (1.0 + t))
}

/// Size bounds `[lo, hi]` for the partner of a set of size `s` under
/// Jaccard ≥ t: `⌈t·s⌉ ≤ |y| ≤ ⌊s/t⌋`.
pub fn jaccard_size_bounds(s: usize, t: f64) -> (usize, usize) {
    (
        safe_ceil(t * s as f64),
        (s as f64 / t + 1e-9).floor() as usize,
    )
}

/// Minimum overlap for cosine ≥ t: `⌈ t·√(sx·sy) ⌉`.
pub fn cosine_min_overlap(sx: usize, sy: usize, t: f64) -> usize {
    safe_ceil(t * ((sx as f64) * (sy as f64)).sqrt())
}

/// Size bounds for cosine ≥ t: `⌈t²·s⌉ ≤ |y| ≤ ⌊s/t²⌋`.
pub fn cosine_size_bounds(s: usize, t: f64) -> (usize, usize) {
    (
        safe_ceil(t * t * s as f64),
        (s as f64 / (t * t) + 1e-9).floor() as usize,
    )
}

/// Minimum overlap for Dice ≥ t: `⌈ t·(sx+sy) / 2 ⌉`.
pub fn dice_min_overlap(sx: usize, sy: usize, t: f64) -> usize {
    safe_ceil(t * (sx + sy) as f64 / 2.0)
}

/// Size bounds for Dice ≥ t: `⌈ s·t/(2−t) ⌉ ≤ |y| ≤ ⌊ s·(2−t)/t ⌋`.
pub fn dice_size_bounds(s: usize, t: f64) -> (usize, usize) {
    (
        safe_ceil(s as f64 * t / (2.0 - t)),
        (s as f64 * (2.0 - t) / t + 1e-9).floor() as usize,
    )
}

/// The *self* minimum overlap of a set of size `s` — the overlap it would
/// need with the smallest admissible partner. The prefix length is
/// `s − α_self + 1`.
///
/// For Jaccard the smallest partner has size `⌈t·s⌉`, giving
/// `α_self = ⌈t·s⌉`; for cosine `α_self = ⌈t²·s⌉`... but a simpler bound
/// that is always correct uses the overlap the set needs with *itself
/// scaled*: we use the standard `α_self = min over admissible |y| of
/// α(s,|y|)`, which for all three normalized measures equals the value at
/// the lower size bound.
pub fn prefix_len(s: usize, min_self_overlap: usize) -> usize {
    if s == 0 {
        0
    } else {
        s - min_self_overlap.min(s) + 1
    }
}

/// Jaccard prefix length of a set of size `s` at threshold `t`.
pub fn jaccard_prefix_len(s: usize, t: f64) -> usize {
    // Smallest admissible partner: ⌈t·s⌉; α(s, ⌈t·s⌉) = ⌈t(s+⌈t·s⌉)/(1+t)⌉
    // ≥ ⌈t·s⌉. Using α_self = ⌈t·s⌉ is the standard conservative choice.
    prefix_len(s, safe_ceil(t * s as f64))
}

/// Cosine prefix length of a set of size `s` at threshold `t`.
pub fn cosine_prefix_len(s: usize, t: f64) -> usize {
    prefix_len(s, safe_ceil(t * t * s as f64))
}

/// Dice prefix length of a set of size `s` at threshold `t`.
pub fn dice_prefix_len(s: usize, t: f64) -> usize {
    prefix_len(s, safe_ceil(s as f64 * t / (2.0 - t)))
}

/// Overlap-size prefix length: a set of size `s` that must share at least
/// `c` tokens can skip its last `c − 1` tokens.
pub fn overlap_prefix_len(s: usize, c: usize) -> usize {
    if s == 0 {
        0
    } else {
        s - c.min(s) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_ceil_handles_float_noise() {
        assert_eq!(safe_ceil(3.0000000000000004), 3);
        assert_eq!(safe_ceil(2.999_999_999), 3);
        assert_eq!(safe_ceil(3.1), 4);
        assert_eq!(safe_ceil(0.0), 0);
        assert_eq!(safe_ceil(-0.5), 0);
    }

    #[test]
    fn jaccard_bounds_known_values() {
        // |x| = 10, t = 0.8: partner in [8, 12]; α(10,10) = ⌈16/1.8⌉ = 9.
        assert_eq!(jaccard_size_bounds(10, 0.8), (8, 12));
        assert_eq!(jaccard_min_overlap(10, 10, 0.8), 9);
        assert_eq!(jaccard_prefix_len(10, 0.8), 3);
    }

    #[test]
    fn cosine_bounds_known_values() {
        // |x| = 10, t = 0.7: partner in [⌈4.9⌉, ⌊20.4⌋] = [5, 20].
        assert_eq!(cosine_size_bounds(10, 0.7), (5, 20));
        assert_eq!(cosine_min_overlap(9, 16, 0.5), 6);
        assert_eq!(cosine_prefix_len(10, 0.7), 6);
    }

    #[test]
    fn dice_bounds_known_values() {
        // |x| = 10, t = 0.8: partner in [⌈10·0.8/1.2⌉, ⌊10·1.2/0.8⌋] = [7, 15].
        assert_eq!(dice_size_bounds(10, 0.8), (7, 15));
        assert_eq!(dice_min_overlap(10, 10, 0.8), 8);
        assert_eq!(dice_prefix_len(10, 0.8), 4);
    }

    #[test]
    fn min_overlap_is_sufficient() {
        // If overlap = α, the similarity really is ≥ t (α is not too small).
        for &(sx, sy) in &[(5usize, 8usize), (10, 10), (3, 30), (1, 1)] {
            for &t in &[0.3, 0.5, 0.8, 0.95] {
                let a = jaccard_min_overlap(sx, sy, t);
                if a <= sx.min(sy) {
                    let j = a as f64 / (sx + sy - a) as f64;
                    assert!(j >= t - 1e-9, "jaccard α={a} sx={sx} sy={sy} t={t} j={j}");
                }
                let a = cosine_min_overlap(sx, sy, t);
                if a <= sx.min(sy) {
                    let c = a as f64 / ((sx * sy) as f64).sqrt();
                    assert!(c >= t - 1e-9);
                }
                let a = dice_min_overlap(sx, sy, t);
                if a <= sx.min(sy) {
                    let d = 2.0 * a as f64 / (sx + sy) as f64;
                    assert!(d >= t - 1e-9);
                }
            }
        }
    }

    #[test]
    fn min_overlap_is_necessary() {
        // With overlap = α − 1 the threshold is unreachable (α is tight
        // enough to be a *necessary* condition).
        for &(sx, sy) in &[(5usize, 8usize), (10, 10), (4, 4)] {
            for &t in &[0.5, 0.8] {
                let a = jaccard_min_overlap(sx, sy, t);
                if a > 0 {
                    let j = (a - 1) as f64 / (sx + sy - (a - 1)) as f64;
                    assert!(j < t, "jaccard below α must fail");
                }
            }
        }
    }

    #[test]
    fn prefix_lengths_degenerate() {
        assert_eq!(jaccard_prefix_len(0, 0.8), 0);
        assert_eq!(overlap_prefix_len(5, 2), 4);
        assert_eq!(overlap_prefix_len(5, 10), 1);
        assert_eq!(overlap_prefix_len(0, 3), 0);
        // t = 1 keeps only one prefix token.
        assert_eq!(jaccard_prefix_len(7, 1.0), 1);
    }
}
