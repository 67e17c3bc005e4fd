//! Random forests: bagged CART trees with per-split feature sub-sampling.
//!
//! Falcon (§5.1 of the paper) needs more from a forest than `predict`:
//!
//! * the forest declares a pair a match when at least `α·n` trees vote
//!   match ([`RandomForestClassifier::vote_fraction`] exposes the raw vote);
//! * the trees themselves are walked to extract candidate blocking rules
//!   ([`RandomForestClassifier::trees`]);
//! * active learning selects the unlabeled examples with the most
//!   *disagreement* among trees (vote entropy), which again needs raw votes.

use magellan_par::ParConfig;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::model::{Classifier, Learner};
use crate::tree::{DecisionTreeClassifier, DecisionTreeLearner, SplitCriterion};

/// Random-forest hyper-parameters; [`Learner`] implementation.
#[derive(Debug, Clone)]
pub struct RandomForestLearner {
    /// Number of trees.
    pub n_trees: usize,
    /// Impurity criterion for every tree.
    pub criterion: SplitCriterion,
    /// Maximum depth of every tree.
    pub max_depth: usize,
    /// Minimum examples a node needs to be split.
    pub min_samples_split: usize,
    /// Minimum examples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split; `None` = `ceil(sqrt(n_features))`.
    pub max_features: Option<usize>,
    /// Draw a bootstrap sample per tree (true = classic bagging).
    pub bootstrap: bool,
    /// RNG seed (bootstrap + per-tree feature sampling).
    pub seed: u64,
    /// Worker threads for tree training (trees are independent, so the
    /// trained forest is **identical for any worker count**: each tree's
    /// RNG is derived from `(seed, tree index)`, never from scheduling).
    pub n_workers: usize,
}

impl Default for RandomForestLearner {
    fn default() -> Self {
        RandomForestLearner {
            n_trees: 10,
            criterion: SplitCriterion::Gini,
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            bootstrap: true,
            seed: 7,
            n_workers: 1,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    /// Per tree, its smallest and largest leaf probability — the bounds
    /// [`Classifier::decide`] stops early on.
    leaf_range: Vec<(f64, f64)>,
}

impl RandomForestClassifier {
    /// Reconstruct a forest from trained trees (the persistence path).
    pub fn from_trees(
        trees: Vec<DecisionTreeClassifier>,
    ) -> Result<RandomForestClassifier, String> {
        if trees.is_empty() {
            return Err("a forest needs at least one tree".to_owned());
        }
        Ok(Self::new(trees))
    }

    fn new(trees: Vec<DecisionTreeClassifier>) -> Self {
        let leaf_range = trees.iter().map(|t| t.leaf_proba_range()).collect();
        RandomForestClassifier { trees, leaf_range }
    }

    /// The individual trees (Falcon walks these for blocking rules).
    pub fn trees(&self) -> &[DecisionTreeClassifier] {
        &self.trees
    }

    /// Fraction of trees voting "match" for the example (Falcon's α test).
    pub fn vote_fraction(&self, row: &[f64]) -> f64 {
        let votes = self
            .trees
            .iter()
            .filter(|t| t.predict(row))
            .count();
        votes as f64 / self.trees.len() as f64
    }

    /// Hard prediction at a vote-fraction threshold `alpha` (the paper's
    /// "at least α·n trees declare match").
    pub fn predict_at(&self, row: &[f64], alpha: f64) -> bool {
        self.vote_fraction(row) >= alpha
    }

    /// Parallel batch scoring: `out[i] == self.predict_proba(&rows[i])`
    /// bit-identically for any worker count (rows are chunked over the
    /// `magellan-par` pool and merged in order).
    ///
    /// Internally this flattens the forest into the SoA inference layout
    /// ([`crate::forest_flat::FlatForest`]) and scores through its
    /// branchless batch traversal; the flatten is a pure re-layout, so
    /// scores stay bit-identical to the scalar tree walk (the preserved
    /// [`predict_proba_batch`] free function — the reference the
    /// invariance suite compares against).
    pub fn predict_proba_batch(&self, rows: &[Vec<f64>], cfg: &ParConfig) -> Vec<f64> {
        crate::forest_flat::FlatForest::from_forest(self).predict_proba_batch(rows, cfg)
    }

    /// Binary vote entropy in bits — the query-by-committee uncertainty
    /// active learning ranks unlabeled pairs by (max 1.0 at a 50/50 split).
    pub fn vote_entropy(&self, row: &[f64]) -> f64 {
        let p = self.vote_fraction(row);
        let mut h = 0.0;
        for q in [p, 1.0 - p] {
            if q > 0.0 {
                h -= q * q.log2();
            }
        }
        h
    }
}

impl Classifier for RandomForestClassifier {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        // Mean of per-tree leaf probabilities (soft voting).
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len() as f64
    }

    fn predict(&self, row: &[f64]) -> bool {
        // Hard prediction = majority vote, matching the paper's semantics.
        self.vote_fraction(row) >= 0.5
    }

    /// Walks trees in order, asking `feat` only for the features on each
    /// tree's path, and stops as soon as the trees still unwalked cannot
    /// move the decision.
    ///
    /// The stop is exact, not approximate. `predict_proba` adds the leaf
    /// probabilities left to right and divides by the tree count. After
    /// tree `k` the partial sum `s` is the very float that sum holds at
    /// that point; `hi` continues it with the same left-to-right additions
    /// using every remaining tree's *largest* leaf probability, `lo` using
    /// the smallest. Floating-point addition and division by a positive
    /// count are monotone in each argument, so by induction over the
    /// remaining trees `lo ≤ full sum ≤ hi` and
    /// `lo / n ≤ predict_proba ≤ hi / n` hold bit for bit, whatever leaves
    /// the remaining trees would reach. After the last tree both bounds
    /// are the full sum.
    fn decide(
        &self,
        threshold: f64,
        _n_features: usize,
        feat: &mut dyn FnMut(usize) -> f64,
        walked: &mut u64,
    ) -> bool {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        for (k, tree) in self.trees.iter().enumerate() {
            sum += tree.walk(&mut *feat).1;
            *walked += 1;
            let (mut lo, mut hi) = (sum, sum);
            for &(min, max) in &self.leaf_range[k + 1..] {
                lo += min;
                hi += max;
            }
            if lo / n >= threshold {
                return true;
            }
            if hi / n < threshold {
                return false;
            }
        }
        // After the last tree `lo == hi == sum`, so neither test holding
        // means the threshold is NaN; answer as the eager comparison does.
        sum / n >= threshold
    }
}

impl Learner for RandomForestLearner {
    fn name(&self) -> &str {
        "random_forest"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        Box::new(self.fit_forest(data))
    }

    fn ensemble_size(&self) -> usize {
        self.n_trees
    }
}

impl RandomForestLearner {
    /// Train and return the concrete forest type.
    ///
    /// Trees are trained on the `magellan-par` work-stealing pool when
    /// `n_workers > 1`. Each tree's bootstrap and feature-sampling RNGs are
    /// seeded from `(seed, tree index)` alone, so the forest is
    /// bit-identical for any worker count.
    pub fn fit_forest(&self, data: &Dataset) -> RandomForestClassifier {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(self.n_trees >= 1, "forest needs at least one tree");
        let max_features = self
            .max_features
            .unwrap_or_else(|| (data.n_features() as f64).sqrt().ceil() as usize)
            .clamp(1, data.n_features());
        let cfg = ParConfig::workers(self.n_workers).with_chunk_size(1);
        let (trees, _stats) = magellan_par::map_indexed(self.n_trees, &cfg, |t| {
            let sample: Vec<usize> = if self.bootstrap {
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        .wrapping_add((t as u64).wrapping_mul(0xA24BAED4963EE407)),
                );
                (0..data.len())
                    .map(|_| rng.gen_range(0..data.len()))
                    .collect()
            } else {
                (0..data.len()).collect()
            };
            let bag = data.subset(&sample);
            // Guard against a single-class bootstrap draw: the tree handles
            // it (pure root leaf), no special casing needed.
            let learner = DecisionTreeLearner {
                criterion: self.criterion,
                max_depth: self.max_depth,
                min_samples_split: self.min_samples_split,
                min_samples_leaf: self.min_samples_leaf,
                max_features: Some(max_features),
                seed: self.seed.wrapping_add(t as u64).wrapping_mul(0x9E3779B97F4A7C15),
            };
            learner.fit_tree(&bag)
        });
        RandomForestClassifier::new(trees)
    }
}

/// Batch scoring of any [`Classifier`] over the `magellan-par` pool.
/// `out[i] == clf.predict_proba(&rows[i])` for every worker count.
pub fn predict_proba_batch(
    clf: &dyn Classifier,
    rows: &[Vec<f64>],
    cfg: &ParConfig,
) -> Vec<f64> {
    magellan_par::map_indexed(rows.len(), cfg, |i| clf.predict_proba(&rows[i])).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy linearly separable data in 2D.
    fn blob_data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::with_dims(2);
        for _ in 0..n {
            let pos: bool = rng.gen_bool(0.5);
            let (cx, cy) = if pos { (1.0, 1.0) } else { (-1.0, -1.0) };
            let x = cx + rng.gen_range(-0.8..0.8);
            let y = cy + rng.gen_range(-0.8..0.8);
            d.push(&[x, y], pos);
        }
        d
    }

    #[test]
    fn forest_learns_separable_data() {
        let train = blob_data(1, 200);
        let test = blob_data(2, 100);
        let forest = RandomForestLearner {
            n_trees: 15,
            ..Default::default()
        }
        .fit_forest(&train);
        let correct = (0..test.len())
            .filter(|&i| forest.predict(test.row(i)) == test.label(i))
            .count();
        assert!(correct >= 95, "accuracy too low: {correct}/100");
    }

    #[test]
    fn vote_fraction_bounds_and_alpha() {
        let d = blob_data(3, 100);
        let forest = RandomForestLearner::default().fit_forest(&d);
        let row = [1.0, 1.0];
        let v = forest.vote_fraction(&row);
        assert!((0.0..=1.0).contains(&v));
        // predict_at(0.0) accepts anything a single tree accepts; alpha 1.0
        // requires unanimity — monotone in alpha.
        assert!(forest.predict_at(&row, 0.0));
        if forest.predict_at(&row, 1.0) {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn entropy_peaks_at_disagreement() {
        let d = blob_data(4, 150);
        let forest = RandomForestLearner {
            n_trees: 11,
            ..Default::default()
        }
        .fit_forest(&d);
        // Deep in the positive blob: low entropy. On the decision boundary
        // (origin): higher entropy than the confident point.
        let confident = forest.vote_entropy(&[1.2, 1.2]);
        let boundary = forest.vote_entropy(&[0.0, 0.0]);
        assert!(confident <= boundary + 1e-9, "{confident} > {boundary}");
        assert!((0.0..=1.0).contains(&boundary));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = blob_data(5, 80);
        let mk = || {
            RandomForestLearner {
                n_trees: 5,
                seed: 99,
                ..Default::default()
            }
            .fit_forest(&d)
        };
        let (f1, f2) = (mk(), mk());
        for i in 0..d.len() {
            assert_eq!(
                f1.predict_proba(d.row(i)),
                f2.predict_proba(d.row(i))
            );
        }
    }

    #[test]
    fn trees_are_exposed() {
        let d = blob_data(6, 50);
        let forest = RandomForestLearner {
            n_trees: 7,
            ..Default::default()
        }
        .fit_forest(&d);
        assert_eq!(forest.trees().len(), 7);
        // Trees differ (bootstrap + feature sampling).
        let distinct = forest
            .trees()
            .iter()
            .map(|t| format!("{:?}", t.nodes()))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "all trees identical");
    }

    #[test]
    fn single_class_training_is_handled() {
        let d = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[true, true]);
        let forest = RandomForestLearner {
            n_trees: 3,
            ..Default::default()
        }
        .fit_forest(&d);
        assert!(forest.predict(&[1.5]));
        // Every tree is a pure 2-example leaf: Laplace-smoothed 0.75 each.
        assert_eq!(forest.predict_proba(&[1.5]), 0.75);
    }
}
