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
//!
//! The trees keep their [`Node`](crate::tree::Node) arenas for their
//! structure; every score, vote and lazy decision walks the one flat
//! layout ([`FlatForest`]) the forest builds when it is made.

use magellan_par::ParConfig;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::forest_flat::FlatForest;
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

/// A trained random forest: its trees, and the flat layout every score,
/// vote and decision walks (built once, here).
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    flat: FlatForest,
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
        let flat = FlatForest::new(&trees);
        RandomForestClassifier { trees, flat }
    }

    /// The individual trees (Falcon walks these for blocking rules).
    pub fn trees(&self) -> &[DecisionTreeClassifier] {
        &self.trees
    }

    /// The layout the forest is scored through.
    pub(crate) fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// Fraction of trees voting "match" for the example (Falcon's α test).
    pub fn vote_fraction(&self, row: &[f64]) -> f64 {
        self.flat.vote_fraction(row)
    }

    /// Hard prediction at a vote-fraction threshold `alpha` (the paper's
    /// "at least α·n trees declare match").
    pub fn predict_at(&self, row: &[f64], alpha: f64) -> bool {
        self.vote_fraction(row) >= alpha
    }

    /// Parallel batch scoring: `out[i] == self.predict_proba(&rows[i])`
    /// bit-identically for any worker count (rows are chunked over the
    /// `magellan-par` pool and merged in order; see
    /// [`FlatForest::predict_proba_batch`]).
    pub fn predict_proba_batch(&self, rows: &[Vec<f64>], cfg: &ParConfig) -> Vec<f64> {
        self.flat.predict_proba_batch(rows, cfg)
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
        self.flat.predict_proba(row)
    }

    fn predict(&self, row: &[f64]) -> bool {
        // Hard prediction = majority vote, matching the paper's semantics.
        self.vote_fraction(row) >= 0.5
    }

    /// Asks only for the features on each tree's path, tests the
    /// `deferred` ones last, and stops exactly once the trees left cannot
    /// move the decision ([`FlatForest`]'s lazy walk).
    fn decide(
        &self,
        threshold: f64,
        deferred: &[bool],
        feat: &mut dyn FnMut(usize) -> f64,
        walked: &mut u64,
    ) -> bool {
        self.flat.decide(threshold, deferred, feat, walked)
    }

    /// The largest score a row under `upper` can reach
    /// ([`FlatForest::region_max`]).
    fn region_max(&self, upper: &[Option<f64>]) -> Option<f64> {
        Some(self.flat.region_max(upper))
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
    fn a_large_forest_decides_exactly_under_a_mixed_mask() {
        // More trees than a fixed-size park stack would hold, on a label
        // that needs both features, feature 1 deferred: every decision is
        // the eager one.
        let data = |seed: u64, n: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = Dataset::with_dims(2);
            for _ in 0..n {
                let (x, y) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                d.push(&[x, y], x + y > 0.2 * rng.gen_range(-1.0..1.0));
            }
            d
        };
        let forest = RandomForestLearner {
            n_trees: 80,
            ..Default::default()
        }
        .fit_forest(&data(7, 300));
        let probes = data(8, 200);
        // Feature 1 is asked for only by a parked tree being resumed.
        let mut resumed = 0;
        for i in 0..probes.len() {
            let row = probes.row(i);
            let score = forest.predict_proba(row);
            for threshold in [0.5, score, score.next_up(), score.next_down(), f64::NAN] {
                let mut asked = Vec::new();
                let mut walked = 0;
                let decided = forest.decide(
                    threshold,
                    &[false, true],
                    &mut |j| {
                        asked.push(j);
                        row[j]
                    },
                    &mut walked,
                );
                assert_eq!(decided, score >= threshold, "row {i} at {threshold}");
                assert!((1..=80).contains(&walked));
                resumed += u64::from(asked.contains(&1));
            }
        }
        assert!(resumed > 0, "no walk ever resumed a parked tree");
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
