//! The ordering pass: how a join's pairs leave it in `(l, r)` order.
//!
//! A join emits pairs chunk by chunk (and shard by shard), and it knows
//! in which order it did: probing the left side, records come out in
//! ascending `l`, and each record's run is sorted by `r` inside its chunk,
//! on the pool; probing the right side, they come out in ascending `r`.
//! [`order_pairs`] takes the parts as they came and finishes the order in
//! one linear pass, a stable counting sort by `l`, instead of a comparison
//! sort over the whole output. A join's pairs are unique, so every correct
//! `(l, r)` order is the one a sort gives.
//!
//! The histogram holds one word per left record. The join has already
//! tokenized and probed or indexed every one of them, so the pass adds
//! no term to its cost, even where it returns far fewer pairs than that
//! (DESIGN.md §7.1).

use crate::join::JoinPair;

/// A pair as the cascade emits it: a [`JoinPair`] that keeps its
/// similarity, or the bare `(l, r)` rids a blocker keeps.
pub(crate) trait Pair: Copy + Send {
    /// The pair `(l, r)`; `sim` is called only by a type that keeps it.
    fn emit(l: u32, r: u32, sim: impl FnOnce() -> f64) -> Self;
    /// Left rid.
    fn l(&self) -> usize;
    /// Right rid.
    fn r(&self) -> usize;
    /// Replace the indexed side's rid (`l` when the right side probed) by
    /// `global` of it: a shard's local rids become the collection's.
    fn remap_indexed(&mut self, swap: bool, global: impl Fn(usize) -> u32);
}

impl Pair for JoinPair {
    #[inline]
    fn emit(l: u32, r: u32, sim: impl FnOnce() -> f64) -> Self {
        JoinPair {
            l: l as usize,
            r: r as usize,
            sim: sim(),
        }
    }

    fn l(&self) -> usize {
        self.l
    }

    fn r(&self) -> usize {
        self.r
    }

    fn remap_indexed(&mut self, swap: bool, global: impl Fn(usize) -> u32) {
        let rid = if swap { &mut self.l } else { &mut self.r };
        *rid = global(*rid) as usize;
    }
}

impl Pair for (u32, u32) {
    #[inline]
    fn emit(l: u32, r: u32, _sim: impl FnOnce() -> f64) -> Self {
        (l, r)
    }

    fn l(&self) -> usize {
        self.0 as usize
    }

    fn r(&self) -> usize {
        self.1 as usize
    }

    fn remap_indexed(&mut self, swap: bool, global: impl Fn(usize) -> u32) {
        let rid = if swap { &mut self.0 } else { &mut self.1 };
        *rid = global(*rid as usize);
    }
}

/// What a join knows of the order of its parts, concatenated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Emitted {
    /// Already in `(l, r)` order.
    Sorted,
    /// Each left rid's pairs come in ascending `r`: a stable bucketing by
    /// `l` finishes the order.
    RisingR,
    /// Nothing known: bucket by `l`, then sort each bucket by `r`.
    Unsorted,
}

/// The pairs of `parts`, concatenated, in `(l, r)` order; every `l` is
/// below `n_left`. Each part is freed once its pairs are placed.
pub(crate) fn order_pairs<P: Pair>(parts: Vec<Vec<P>>, n_left: usize, emitted: Emitted) -> Vec<P> {
    let n: usize = parts.iter().map(Vec::len).sum();
    if emitted == Emitted::Sorted {
        return concat(parts, n);
    }
    let Some(&fill) = parts.iter().flatten().next() else {
        return Vec::new();
    };
    // `end[l]` starts as where `l`'s bucket starts and, as the scatter
    // advances it, ends where the bucket ends.
    let mut end = vec![0usize; n_left];
    for p in parts.iter().flatten() {
        end[p.l()] += 1;
    }
    let mut at = 0;
    for slot in &mut end {
        (*slot, at) = (at, at + *slot);
    }
    let mut out = vec![fill; n];
    for part in parts {
        for p in part {
            let slot = &mut end[p.l()];
            out[*slot] = p;
            *slot += 1;
        }
    }
    if emitted == Emitted::Unsorted {
        let mut lo = 0;
        for &hi in &end {
            out[lo..hi].sort_unstable_by_key(P::r);
            lo = hi;
        }
    }
    out
}

/// `parts` back to back in the first part's buffer.
fn concat<P>(parts: Vec<Vec<P>>, n: usize) -> Vec<P> {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve_exact(n - out.len());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scrambled set of unique pairs over `n_left × n_right`, cut into
    /// `n_parts` parts.
    fn scrambled(n: usize, n_left: u32, n_right: u32, n_parts: usize) -> Vec<Vec<(u32, u32)>> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
        let mut pairs = std::collections::BTreeSet::new();
        while pairs.len() < n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = state >> 33;
            pairs.insert((
                (x % u64::from(n_left)) as u32,
                ((x >> 12) % u64::from(n_right)) as u32,
            ));
        }
        let mut pairs: Vec<_> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(l, r)| (r.wrapping_mul(2_654_435_761) ^ l, l));
        let size = n.div_ceil(n_parts.max(1)).max(1);
        pairs.chunks(size).map(<[_]>::to_vec).collect()
    }

    fn sorted(parts: &[Vec<(u32, u32)>]) -> Vec<(u32, u32)> {
        let mut all: Vec<_> = parts.concat();
        all.sort_unstable();
        all
    }

    /// Every shape the joins hand over, with many pairs over few left
    /// records and few pairs over many.
    #[test]
    fn every_emitted_order_comes_out_sorted() {
        for (n, n_left, n_right) in [(0, 5, 5), (1, 5, 5), (400, 30, 40), (6, 5000, 9)] {
            for n_parts in [1, 3, 7] {
                let parts = scrambled(n, n_left, n_right, n_parts);
                let expect = sorted(&parts);
                let got = order_pairs(parts.clone(), n_left as usize, Emitted::Unsorted);
                assert_eq!(got, expect, "unsorted n={n} parts={n_parts}");
                // Ascending `r`, scattered over parts.
                let mut by_r = expect.clone();
                by_r.sort_by_key(|&(l, r)| (r, l));
                let rising: Vec<Vec<_>> = by_r
                    .chunks(n.div_ceil(n_parts).max(1))
                    .map(<[_]>::to_vec)
                    .collect();
                let got = order_pairs(rising, n_left as usize, Emitted::RisingR);
                assert_eq!(got, expect, "rising r n={n} parts={n_parts}");
                let in_order: Vec<Vec<_>> = expect
                    .chunks(n.div_ceil(n_parts).max(1))
                    .map(<[_]>::to_vec)
                    .collect();
                assert_eq!(
                    order_pairs(in_order, n_left as usize, Emitted::Sorted),
                    expect
                );
            }
        }
    }
}
