//! Sampling candidate pairs for labeling (Fig. 2: "take a sample S from
//! C, and label the pairs in S").
//!
//! A uniform sample of a large candidate set at EM's match densities holds
//! almost no matches, so both the development stage's S and Falcon's
//! active-learning pool are drawn by [`stratify`] over the label-free
//! plausibility [`proxy`], whose keys [`proxy_keys`] reads as production
//! scores: through a [`Scorer`], one key per pair and no feature row.

use magellan_block::CandidateSet;
use magellan_features::{FeaturePlan, PreparedPair, Scorer};
use magellan_par::ParConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A uniform random sample of `n` candidate pairs (without replacement;
/// clamped to the candidate-set size). Returns positions into
/// `candidates.pairs()`.
pub fn sample_positions(candidates: &CandidateSet, n: usize, seed: u64) -> Vec<usize> {
    let mut positions: Vec<usize> = (0..candidates.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    positions.shuffle(&mut rng);
    positions.truncate(n.min(candidates.len()));
    positions.sort_unstable();
    positions
}

/// Sample the pairs themselves.
pub fn sample_pairs(candidates: &CandidateSet, n: usize, seed: u64) -> Vec<(u32, u32)> {
    sample_positions(candidates, n, seed)
        .into_iter()
        .map(|i| candidates.pairs()[i])
        .collect()
}

/// The label-free plausibility proxy of a pair: the mean of its non-NaN
/// feature values, 0 when every value is NaN.
pub fn proxy(features: impl IntoIterator<Item = f64>) -> f64 {
    let values = features.into_iter().filter(|v| !v.is_nan());
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The [`proxy`] of every pair over every feature of `plan`, read through
/// one [`Scorer`] per chunk of `par`'s pool and joined in pair order. The
/// pairs' records must be prepared for `plan`.
pub fn proxy_keys(
    prepared: &PreparedPair<'_>,
    plan: &FeaturePlan,
    pairs: &[(u32, u32)],
    par: &ParConfig,
) -> Vec<f64> {
    let (chunks, _) = magellan_par::chunk_map(pairs.len(), par, |range| {
        let mut scorer = Scorer::new(prepared, plan);
        pairs[range]
            .iter()
            .map(|&(ra, rb)| {
                scorer.begin_pair(ra as usize, rb as usize);
                proxy((0..plan.len()).map(|j| scorer.feature(j)))
            })
            .collect::<Vec<f64>>()
    });
    chunks.concat()
}

/// Positions by descending key. The sort is stable: ties keep position
/// order.
pub fn rank(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&i, &j| {
        keys[j]
            .partial_cmp(&keys[i])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// Positions of a plausibility-stratified sample of `take` out of
/// `keys.len()`, ascending: the `take / 2` highest keys (a stable sort, so
/// ties keep position order), then a uniform draw seeded by `seed` from the
/// rest. With `take >= keys.len()` every position is chosen.
pub fn stratify(keys: &[f64], take: usize, seed: u64) -> Vec<usize> {
    if take >= keys.len() {
        return (0..keys.len()).collect();
    }
    let mut chosen = rank(keys);
    let mut rest = chosen.split_off(take / 2);
    rest.shuffle(&mut StdRng::seed_from_u64(seed));
    chosen.extend(rest.into_iter().take(take - take / 2));
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(n: u32) -> CandidateSet {
        CandidateSet::new((0..n).map(|i| (i, i)).collect())
    }

    #[test]
    fn sample_is_without_replacement_and_sized() {
        let c = cands(100);
        let s = sample_positions(&c, 30, 42);
        assert_eq!(s.len(), 30);
        let mut dedup = s.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn oversized_sample_clamps() {
        let c = cands(5);
        assert_eq!(sample_positions(&c, 50, 1).len(), 5);
        assert!(sample_positions(&CandidateSet::default(), 3, 1).is_empty());
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let c = cands(50);
        assert_eq!(sample_positions(&c, 10, 7), sample_positions(&c, 10, 7));
        assert_ne!(sample_positions(&c, 10, 7), sample_positions(&c, 10, 8));
    }

    #[test]
    fn proxy_is_the_mean_of_the_non_nan_values() {
        assert_eq!(proxy([0.5, f64::NAN, 1.0]), 0.75);
        assert_eq!(proxy([f64::NAN]), 0.0);
    }

    /// Asked for all, every position; otherwise the highest keys first,
    /// ties in position order (1 and 3 of the three 0.9s), and the draw
    /// ascending and a function of the seed alone.
    #[test]
    fn stratify_takes_the_top_half_then_a_seeded_draw() {
        let keys = [0.2, 0.9, 0.5, 0.9, 0.9, 0.1, 0.0, 0.4];
        for take in [8, 9, usize::MAX] {
            assert_eq!(stratify(&keys, take, 5), (0..8).collect::<Vec<_>>());
        }
        for seed in 0..20 {
            let draw = stratify(&keys, 4, seed);
            assert!(draw.contains(&1) && draw.contains(&3), "{draw:?}");
            assert!(draw.len() == 4 && draw.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(draw, stratify(&keys, 4, seed));
        }
        let keys: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 101)).collect();
        assert_ne!(stratify(&keys, 40, 11), stratify(&keys, 40, 12));
    }

    #[test]
    fn sample_pairs_maps_positions() {
        let c = CandidateSet::new(vec![(0, 5), (1, 6), (2, 7)]);
        let pairs = sample_pairs(&c, 2, 3);
        assert_eq!(pairs.len(), 2);
        for p in pairs {
            assert!(c.contains(p));
        }
    }
}
