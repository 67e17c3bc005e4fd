//! Bounded, galloping set-overlap verification.
//!
//! Verification is the last stage of the filter-verify cascade and the
//! only one that touches full token sets. Two observations make it far
//! cheaper than a plain merge:
//!
//! 1. **Failure early-exit.** The merge tracks how many tokens remain on
//!    each side; the overlap found so far plus the smaller remainder is
//!    an upper bound on the final overlap. The moment that bound drops
//!    below the required `need`, the candidate can be abandoned — no
//!    similarity involving it can qualify.
//! 2. **Success fast-path.** Once `need` is reached the candidate is
//!    *known* to qualify, but the reported similarity must still be the
//!    **exact** overlap (bit-identical to the unbounded join), so the
//!    merge continues — just without bound bookkeeping.
//!
//! For heavily skewed set sizes (one side ≥ [`GALLOP_RATIO`]× the other)
//! the linear merge degrades to O(|long|); we instead gallop: for each
//! token of the short side, exponential search + binary search locate
//! its position in the long side in O(log gap) steps.
//!
//! This is the one bounded verifier. A block-branchless merge and a
//! bitset/popcount variant were measured inside the join against this
//! walk and lost (0.89× and 0.62×, DESIGN.md §7.2), so there is nothing
//! to select between and no mode to set.

/// Size ratio beyond which the merge switches to galloping search.
pub const GALLOP_RATIO: usize = 16;

/// `(short, long)` when one side is at least [`GALLOP_RATIO`]× the other.
#[inline]
fn skewed<'a>(a: &'a [u32], b: &'a [u32]) -> Option<(&'a [u32], &'a [u32])> {
    if a.len() >= GALLOP_RATIO.saturating_mul(b.len().max(1)) {
        Some((b, a))
    } else if b.len() >= GALLOP_RATIO.saturating_mul(a.len().max(1)) {
        Some((a, b))
    } else {
        None
    }
}

/// Exact intersection size of two sorted deduped id sets **if** it can
/// still reach `need`; `None` as soon as the running upper bound
/// (`overlap so far + min(remaining_a, remaining_b)`) falls below
/// `need`. `steps` accumulates comparison/advance steps for telemetry
/// ([`magellan_par::JoinStats::verify_steps`]); the count is a
/// deterministic function of the inputs.
///
/// `need == 0` trivially succeeds but still computes the exact overlap
/// (callers report similarities from it).
#[inline]
pub fn overlap_sorted_bounded(a: &[u32], b: &[u32], need: usize, steps: &mut usize) -> Option<usize> {
    // Gallop when one side dwarfs the other; the bound logic is the same.
    if let Some((short, long)) = skewed(a, b) {
        return gallop_overlap(short, long, need, steps);
    }

    let mut i = 0;
    let mut j = 0;
    let mut n: usize = 0;
    while i < a.len() && j < b.len() {
        *steps += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
        if n >= need {
            // Qualification is settled; finish the merge un-checked for
            // the exact overlap the similarity needs.
            return Some(n + overlap_tail(&a[i..], &b[j..], steps));
        }
        // Upper bound: everything matched so far plus the best case on
        // the shorter remainder.
        if n + (a.len() - i).min(b.len() - j) < need {
            return None;
        }
    }
    // Loop can only end with n < need (success returns inside), and the
    // bound check guarantees need > n ⇒ unreachable unless need == 0.
    if n >= need {
        Some(n)
    } else {
        None
    }
}

/// Unbounded merge tail used once success is guaranteed.
#[inline]
fn overlap_tail(a: &[u32], b: &[u32], steps: &mut usize) -> usize {
    if let Some((short, long)) = skewed(a, b) {
        return gallop_overlap(short, long, 0, steps).unwrap_or(0);
    }
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        *steps += 1;
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

/// Bounded overlap where `short` is probed against `long` by
/// exponential (galloping) + binary search. Same contract as
/// [`overlap_sorted_bounded`].
fn gallop_overlap(short: &[u32], long: &[u32], need: usize, steps: &mut usize) -> Option<usize> {
    let mut n: usize = 0;
    let mut base = 0usize; // long[..base] already consumed
    for (k, &t) in short.iter().enumerate() {
        if base >= long.len() {
            break;
        }
        // Exponential search for the first index in long[base..] with
        // long[idx] >= t.
        let tail = &long[base..];
        let mut hi = 1usize;
        while hi < tail.len() && tail[hi - 1] < t {
            *steps += 1;
            hi <<= 1;
        }
        let lo = (hi >> 1).min(tail.len());
        let hi = hi.min(tail.len());
        let off = lo + tail[lo..hi].partition_point(|&v| v < t);
        *steps += 1;
        base += off;
        if base < long.len() && long[base] == t {
            n += 1;
            base += 1;
        }
        // Upper bound: matched so far + remaining short tokens (long
        // remainder is never the binding constraint under gallop entry,
        // but take the min anyway for correctness near exhaustion). Once
        // `n` reaches `need` it cannot fire, and the seek simply runs on
        // to the exact overlap the similarity needs.
        let rem = (short.len() - k - 1).min(long.len() - base.min(long.len()));
        if n + rem < need {
            return None;
        }
    }
    if n >= need {
        Some(n)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::intern::intersect_size_sorted;

    fn bounded(a: &[u32], b: &[u32], need: usize) -> Option<usize> {
        let mut steps = 0;
        overlap_sorted_bounded(a, b, need, &mut steps)
    }

    #[test]
    fn exact_when_need_reachable() {
        let a = [1, 3, 5, 7, 9];
        let b = [3, 4, 5, 6, 7];
        assert_eq!(intersect_size_sorted(&a, &b), 3);
        for need in 0..=3 {
            assert_eq!(bounded(&a, &b, need), Some(3), "need={need}");
        }
        assert_eq!(bounded(&a, &b, 4), None);
    }

    #[test]
    fn failure_early_exit_is_conservative() {
        // Bound must only fire when the overlap truly cannot reach need.
        let a = [10, 20, 30];
        let b = [1, 2, 3, 30];
        assert_eq!(bounded(&a, &b, 1), Some(1));
        assert_eq!(bounded(&a, &b, 2), None);
    }

    #[test]
    fn empty_sides() {
        assert_eq!(bounded(&[], &[], 0), Some(0));
        assert_eq!(bounded(&[], &[1, 2], 1), None);
        assert_eq!(bounded(&[1], &[], 0), Some(0));
    }

    #[test]
    fn galloping_matches_linear() {
        // One side 100× the other triggers the gallop path.
        let long: Vec<u32> = (0..3200).map(|i| i * 3).collect();
        let short = vec![3, 9, 100, 3000, 9000, 9597];
        let exact = intersect_size_sorted(&short, &long);
        assert_eq!(exact, 5); // 3, 9, 3000, 9000, 9597 are multiples of 3 in range
        for need in 0..=exact {
            assert_eq!(bounded(&short, &long, need), Some(exact), "need={need}");
            assert_eq!(bounded(&long, &short, need), Some(exact), "swapped need={need}");
        }
        assert_eq!(bounded(&short, &long, exact + 1), None);
    }

    #[test]
    fn bounded_agrees_with_unbounded_on_grid() {
        // Deterministic pseudo-random soup; compare against the plain merge.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let la = (next() % 40) as usize;
            let lb = if trial % 3 == 0 {
                (next() % 800) as usize // force skew sometimes
            } else {
                (next() % 40) as usize
            };
            let mut a: Vec<u32> = (0..la).map(|_| (next() % 120) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| (next() % 120) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let exact = intersect_size_sorted(&a, &b);
            for need in 0..=exact + 1 {
                let want = (need <= exact).then_some(exact);
                assert_eq!(bounded(&a, &b, need), want, "trial={trial} need={need}");
                assert_eq!(bounded(&b, &a, need), want, "swapped trial={trial} need={need}");
            }
        }
    }
}
