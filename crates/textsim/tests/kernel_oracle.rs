//! The overlap-walk oracle (DESIGN.md §7.2).
//!
//! One grid — **input-shape class × seed × worker count** — holds the
//! one unbounded overlap walk ([`intern::intersect_size_sorted`]) and the
//! five `*_ids` measures built on it to the string-level [`setsim`]
//! functions over the same sets, at **exact-`f64` equality**
//! (`to_bits`).
//!
//! ## Seeds and workers
//!
//! The CI `kernel-oracle` job sets `KERNEL_ORACLE_SEEDS=4` (default 2);
//! each seed redraws every randomized shape class. The worker axis runs
//! the identical pair set on 1/2/4/8 threads: the walk keeps no state,
//! and this is the test that says so.

use magellan_textsim::{intern, setsim};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The adversarial input-shape classes from the issue grid. Each class
/// draws a *pair* of sorted deduplicated id sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One or both sides empty (OOV-clamped probe slices).
    Empty,
    /// Single-element sides, hit and miss.
    Singleton,
    /// `a == b` (every element intersects).
    FullOverlap,
    /// Value ranges that never touch.
    Disjoint,
    /// ≥16× length skew (where the joins' verifier gallops) with sparse overlap.
    Skew16x,
    /// Dense runs hugging the top of the `u32` range (overflow bait for
    /// any span arithmetic).
    DenseU32Range,
    /// Unconstrained sparse soup.
    SparseRandom,
}

const SHAPES: [Shape; 7] = [
    Shape::Empty,
    Shape::Singleton,
    Shape::FullOverlap,
    Shape::Disjoint,
    Shape::Skew16x,
    Shape::DenseU32Range,
    Shape::SparseRandom,
];

/// Cases drawn per (shape, seed) cell.
const CASES_PER_CELL: usize = 48;

/// Oracle seeds: `KERNEL_ORACLE_SEEDS` (count, CI sets 4) or 2.
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("KERNEL_ORACLE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    (0..n.max(1)).map(|i| 0x6b65726e + 101 * i).collect()
}

fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Draw one id-set pair of the given shape class.
fn draw_pair(shape: Shape, rng: &mut TestRng) -> (Vec<u32>, Vec<u32>) {
    match shape {
        Shape::Empty => {
            let other = sorted_dedup((0..rng.below(20)).map(|_| rng.below(1000) as u32).collect());
            if rng.below(2) == 0 {
                (Vec::new(), other)
            } else {
                (other, Vec::new())
            }
        }
        Shape::Singleton => {
            let x = rng.below(1 << 20) as u32;
            let y = if rng.below(2) == 0 { x } else { x.wrapping_add(1 + rng.below(100) as u32) };
            (vec![x], vec![y])
        }
        Shape::FullOverlap => {
            let a = sorted_dedup(
                (0..1 + rng.below(300)).map(|_| rng.below(1 << 16) as u32).collect(),
            );
            (a.clone(), a)
        }
        Shape::Disjoint => {
            let split = 1_000_000 + rng.below(1 << 20) as u32;
            let a = sorted_dedup((0..1 + rng.below(200)).map(|_| rng.below(split as u64) as u32).collect());
            let b = sorted_dedup(
                (0..1 + rng.below(200)).map(|_| split + rng.below(1 << 20) as u32).collect(),
            );
            (a, b)
        }
        Shape::Skew16x => {
            let long = sorted_dedup((0..800 + rng.below(800)).map(|_| rng.below(1 << 18) as u32).collect());
            let short_len = 1 + rng.below((long.len() / 16).max(1) as u64) as usize;
            // Half the probes sampled from the long side (hits), half random.
            let short = sorted_dedup(
                (0..short_len)
                    .map(|i| {
                        if i % 2 == 0 {
                            long[rng.below(long.len() as u64) as usize]
                        } else {
                            rng.below(1 << 18) as u32
                        }
                    })
                    .collect(),
            );
            (short, long)
        }
        Shape::DenseU32Range => {
            let len_a = 32 + rng.below(256) as u32;
            let len_b = 32 + rng.below(256) as u32;
            let start_a = u32::MAX - len_a - rng.below(64) as u32;
            let start_b = u32::MAX - len_b - rng.below(64) as u32;
            let a: Vec<u32> = (start_a..start_a + len_a).collect();
            let b: Vec<u32> = (start_b..start_b + len_b).collect();
            (a, b)
        }
        Shape::SparseRandom => {
            let a = sorted_dedup(
                (0..rng.below(400)).map(|_| (rng.below(1 << 24)) as u32).collect(),
            );
            let b = sorted_dedup(
                (0..rng.below(400)).map(|_| (rng.below(1 << 24)) as u32).collect(),
            );
            (a, b)
        }
    }
}

/// The string-level view of an id set: zero-padded decimals, so string
/// order is id order and [`setsim`] sees the same set.
fn as_tokens(ids: &[u32]) -> Vec<String> {
    ids.iter().map(|id| format!("{id:010}")).collect()
}

/// One grid cell check: the walk (both argument orders) and the five
/// `intern::*_ids` entry points against the string-level measures.
fn check_pair(a: &[u32], b: &[u32]) {
    assert!(intern::is_sorted_dedup(a) && intern::is_sorted_dedup(b));
    let (ta, tb) = (as_tokens(a), as_tokens(b));
    let want = setsim::overlap_size(&ta, &tb);
    assert_eq!(intern::intersect_size_sorted(a, b), want, "|a|={} |b|={}", a.len(), b.len());
    assert_eq!(intern::intersect_size_sorted(b, a), want, "not symmetric");
    assert_eq!(intern::overlap_size_ids(a, b), want);
    assert_eq!(intern::jaccard_ids(a, b).to_bits(), setsim::jaccard(&ta, &tb).to_bits());
    assert_eq!(intern::dice_ids(a, b).to_bits(), setsim::dice(&ta, &tb).to_bits());
    assert_eq!(intern::cosine_ids(a, b).to_bits(), setsim::cosine(&ta, &tb).to_bits());
    assert_eq!(
        intern::overlap_coefficient_ids(a, b).to_bits(),
        setsim::overlap_coefficient(&ta, &tb).to_bits()
    );
}

/// Materialize the full pair set for one seed (every shape × case).
fn grid_pairs(seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut rng = TestRng::new(seed);
    let mut pairs = Vec::with_capacity(SHAPES.len() * CASES_PER_CELL);
    for shape in SHAPES {
        for _ in 0..CASES_PER_CELL {
            pairs.push(draw_pair(shape, &mut rng));
        }
    }
    pairs
}

/// The core grid: shape class × seed, single-threaded.
#[test]
fn oracle_grid_single_worker() {
    for seed in seeds() {
        for (a, b) in grid_pairs(seed) {
            check_pair(&a, &b);
        }
    }
}

/// The worker axis: the identical pair set checked concurrently on
/// 1/2/4/8 threads; this is the test that would catch cross-call or
/// cross-thread state if the walk ever grew any.
#[test]
fn oracle_grid_worker_counts() {
    let pairs: Vec<_> = seeds().into_iter().flat_map(grid_pairs).collect();
    for workers in [1usize, 2, 4, 8] {
        std::thread::scope(|s| {
            let chunk = pairs.len().div_ceil(workers);
            for slice in pairs.chunks(chunk) {
                s.spawn(move || {
                    for (a, b) in slice {
                        check_pair(a, b);
                    }
                });
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Free-form proptest arm of the grid: unconstrained sorted-dedup
    /// pairs with occasional shared draws so overlap is nontrivial.
    #[test]
    fn oracle_random_pairs(
        raw_a in proptest::collection::vec(0u32..1 << 22, 0..300),
        raw_b in proptest::collection::vec(0u32..1 << 22, 0..300),
        share in 0usize..4,
    ) {
        let mut a = raw_a;
        let b = sorted_dedup(raw_b);
        // Splice some of b into a so random pairs aren't near-disjoint.
        a.extend(b.iter().step_by(share + 1).copied());
        let a = sorted_dedup(a);
        check_pair(&a, &b);
    }

    /// Dense low-range pairs (long runs of consecutive ids).
    #[test]
    fn oracle_random_dense_pairs(
        start_a in 0u32..512,
        start_b in 0u32..512,
        len_a in 24usize..300,
        len_b in 24usize..300,
        stride in 1u32..3,
    ) {
        let a: Vec<u32> = (0..len_a as u32).map(|i| start_a + i * stride).collect();
        let b: Vec<u32> = (0..len_b as u32).map(|i| start_b + i).collect();
        check_pair(&a, &b);
    }
}
