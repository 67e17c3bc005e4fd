//! Linear models: logistic regression and linear SVM, both trained with
//! mini-batch SGD over standardized features.
//!
//! Standardization statistics are learned at fit time and baked into the
//! classifier, so callers never pre-scale. `NaN` features are imputed as
//! the feature's training mean (i.e. 0 after standardization).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::model::{Classifier, Learner};

/// Per-feature standardization fitted on training data.
#[derive(Debug, Clone)]
struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    fn fit(data: &Dataset) -> Self {
        let k = data.n_features();
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for i in 0..data.len() {
            for (j, &x) in data.row(i).iter().enumerate() {
                if !x.is_nan() {
                    sums[j] += x;
                    counts[j] += 1;
                }
            }
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect();
        let mut sq = vec![0.0f64; k];
        for i in 0..data.len() {
            for (j, &x) in data.row(i).iter().enumerate() {
                if !x.is_nan() {
                    sq[j] += (x - means[j]).powi(2);
                }
            }
        }
        let stds: Vec<f64> = sq
            .iter()
            .zip(&counts)
            .map(|(s, &c)| {
                if c == 0 {
                    1.0
                } else {
                    let v = (s / c as f64).sqrt();
                    if v < 1e-12 {
                        1.0
                    } else {
                        v
                    }
                }
            })
            .collect();
        Scaler { means, stds }
    }

    fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(row.iter().enumerate().map(|(j, &x)| {
            if x.is_nan() {
                0.0
            } else {
                (x - self.means[j]) / self.stds[j]
            }
        }));
    }
}

/// A trained linear decision function `w·x + b` behind a link.
#[derive(Debug, Clone)]
pub struct LinearClassifier {
    weights: Vec<f64>,
    bias: f64,
    scaler: Scaler,
    /// Sigmoid output (logistic) vs. margin squashing (SVM).
    logistic: bool,
}

impl LinearClassifier {
    /// Raw decision value `w·x + b` on the standardized example.
    pub fn decision(&self, row: &[f64]) -> f64 {
        let mut z = Vec::with_capacity(row.len());
        self.scaler.transform_into(row, &mut z);
        self.bias + self.weights.iter().zip(&z).map(|(w, x)| w * x).sum::<f64>()
    }

    /// Learned weights (standardized space).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Classifier for LinearClassifier {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let d = self.decision(row);
        if self.logistic {
            1.0 / (1.0 + (-d).exp())
        } else {
            // Squash the SVM margin through a logistic link so the output
            // is probability-like; the 0.5 operating point is the margin 0.
            1.0 / (1.0 + (-2.0 * d).exp())
        }
    }
}

/// L2-regularized logistic regression trained with mini-batch SGD.
#[derive(Debug, Clone)]
pub struct LogisticRegressionLearner {
    /// Full passes over the data.
    pub epochs: usize,
    /// Initial learning rate (decays as `1/(1+t·decay)`).
    pub learning_rate: f64,
    /// L2 penalty strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LogisticRegressionLearner {
    fn default() -> Self {
        LogisticRegressionLearner {
            epochs: 60,
            learning_rate: 0.3,
            l2: 1e-4,
            seed: 7,
        }
    }
}

impl Learner for LogisticRegressionLearner {
    fn name(&self) -> &str {
        "logistic_regression"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        Box::new(fit_linear(
            data,
            self.epochs,
            self.learning_rate,
            self.l2,
            self.seed,
            true,
        ))
    }
}

/// Linear SVM (hinge loss) trained with SGD (Pegasos-style).
#[derive(Debug, Clone)]
pub struct LinearSvmLearner {
    /// Full passes over the data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 penalty strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LinearSvmLearner {
    fn default() -> Self {
        LinearSvmLearner {
            epochs: 60,
            learning_rate: 0.3,
            l2: 1e-4,
            seed: 7,
        }
    }
}

impl Learner for LinearSvmLearner {
    fn name(&self) -> &str {
        "linear_svm"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        Box::new(fit_linear(
            data,
            self.epochs,
            self.learning_rate,
            self.l2,
            self.seed,
            false,
        ))
    }
}

fn fit_linear(
    data: &Dataset,
    epochs: usize,
    lr0: f64,
    l2: f64,
    seed: u64,
    logistic: bool,
) -> LinearClassifier {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let scaler = Scaler::fit(data);
    let k = data.n_features();
    let mut w = vec![0.0f64; k];
    let mut b = 0.0f64;
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut z = Vec::with_capacity(k);
    let mut t = 0usize;
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for &i in &order {
            let lr = lr0 / (1.0 + 0.01 * t as f64);
            t += 1;
            scaler.transform_into(data.row(i), &mut z);
            let y = if data.label(i) { 1.0 } else { -1.0 };
            let margin: f64 = b + w.iter().zip(&z).map(|(w, x)| w * x).sum::<f64>();
            // Gradient of the per-example loss wrt the decision value.
            let g = if logistic {
                // d/dm log(1 + e^{-ym}) = -y * sigmoid(-ym)
                -y / (1.0 + (y * margin).exp())
            } else if y * margin < 1.0 {
                -y
            } else {
                0.0
            };
            for (wj, xj) in w.iter_mut().zip(&z) {
                *wj -= lr * (g * xj + l2 * *wj);
            }
            b -= lr * g;
        }
    }
    LinearClassifier {
        weights: w,
        bias: b,
        scaler,
        logistic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn blob_data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::with_dims(2);
        for _ in 0..n {
            let pos: bool = rng.gen_bool(0.5);
            let (cx, cy) = if pos { (1.0, 1.0) } else { (-1.0, -1.0) };
            d.push(
                &[cx + rng.gen_range(-0.7..0.7), cy + rng.gen_range(-0.7..0.7)],
                pos,
            );
        }
        d
    }

    fn accuracy(c: &dyn Classifier, d: &Dataset) -> f64 {
        let correct = (0..d.len())
            .filter(|&i| c.predict(d.row(i)) == d.label(i))
            .count();
        correct as f64 / d.len() as f64
    }

    #[test]
    fn logistic_learns_separable_data() {
        let train = blob_data(1, 300);
        let test = blob_data(2, 150);
        let c = LogisticRegressionLearner::default().fit(&train);
        assert!(accuracy(c.as_ref(), &test) > 0.95);
    }

    #[test]
    fn svm_learns_separable_data() {
        let train = blob_data(3, 300);
        let test = blob_data(4, 150);
        let c = LinearSvmLearner::default().fit(&train);
        assert!(accuracy(c.as_ref(), &test) > 0.95);
    }

    #[test]
    fn probabilities_are_calibrated_directionally() {
        let train = blob_data(5, 300);
        let c = LogisticRegressionLearner::default().fit(&train);
        let deep_pos = c.predict_proba(&[2.0, 2.0]);
        let deep_neg = c.predict_proba(&[-2.0, -2.0]);
        assert!(deep_pos > 0.9, "{deep_pos}");
        assert!(deep_neg < 0.1, "{deep_neg}");
        for p in [deep_pos, deep_neg] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn nan_features_impute_to_mean() {
        let train = blob_data(6, 300);
        let c = LogisticRegressionLearner::default().fit(&train);
        // All-NaN row = all-mean row: must produce a valid probability.
        let p = c.predict_proba(&[f64::NAN, f64::NAN]);
        assert!(p.is_finite() && (0.0..=1.0).contains(&p));
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let d = Dataset::from_rows(
            &[
                vec![5.0, 0.1],
                vec![5.0, 0.9],
                vec![5.0, 0.2],
                vec![5.0, 0.8],
            ],
            &[false, true, false, true],
        );
        let c = LogisticRegressionLearner::default().fit(&d);
        assert!(c.predict(&[5.0, 0.95]));
        assert!(!c.predict(&[5.0, 0.05]));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = blob_data(7, 100);
        let c1 = LogisticRegressionLearner::default().fit(&d);
        let c2 = LogisticRegressionLearner::default().fit(&d);
        assert_eq!(c1.predict_proba(d.row(0)), c2.predict_proba(d.row(0)));
    }
}
