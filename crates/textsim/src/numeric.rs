//! Numeric and boolean similarity helpers used by the feature generator
//! for non-string attributes (e.g. `#pages`, `year`, `price`).

/// 1.0 iff the two numbers are exactly equal (bitwise for floats after
/// normalizing -0.0; NaN never matches).
pub fn exact_match_num(a: f64, b: f64) -> f64 {
    f64::from(a == b)
}

/// Absolute-difference similarity: `1 / (1 + |a - b|)`, in `(0, 1]`.
pub fn abs_diff_sim(a: f64, b: f64) -> f64 {
    1.0 / (1.0 + (a - b).abs())
}

/// Relative-difference similarity: `1 - |a-b| / max(|a|, |b|)`, clamped to
/// `[0, 1]`; 1.0 when both are zero.
pub fn rel_diff_sim(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).clamp(0.0, 1.0)
}

/// Left-anchored containment of numbers-as-strings is common for IDs; this
/// is 1.0 iff the shorter decimal rendering prefixes the longer.
pub fn decimal_prefix_match(a: i64, b: i64) -> f64 {
    let (sa, sb) = (a.to_string(), b.to_string());
    let (short, long) = if sa.len() <= sb.len() {
        (&sa, &sb)
    } else {
        (&sb, &sa)
    };
    f64::from(long.starts_with(short.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_handles_floats() {
        assert_eq!(exact_match_num(2.0, 2.0), 1.0);
        assert_eq!(exact_match_num(2.0, 2.1), 0.0);
        assert_eq!(exact_match_num(f64::NAN, f64::NAN), 0.0);
    }

    #[test]
    fn abs_diff_decays_with_distance() {
        assert_eq!(abs_diff_sim(5.0, 5.0), 1.0);
        assert_eq!(abs_diff_sim(5.0, 6.0), 0.5);
        assert!(abs_diff_sim(0.0, 100.0) < 0.01);
    }

    #[test]
    fn rel_diff_is_scale_invariant() {
        assert!((rel_diff_sim(100.0, 110.0) - rel_diff_sim(10.0, 11.0)).abs() < 1e-12);
        assert_eq!(rel_diff_sim(0.0, 0.0), 1.0);
        assert_eq!(rel_diff_sim(0.0, 5.0), 0.0);
        assert_eq!(rel_diff_sim(-3.0, 3.0), 0.0);
    }

    #[test]
    fn decimal_prefix() {
        assert_eq!(decimal_prefix_match(123, 12345), 1.0);
        assert_eq!(decimal_prefix_match(12345, 123), 1.0);
        assert_eq!(decimal_prefix_match(124, 12345), 0.0);
    }
}
