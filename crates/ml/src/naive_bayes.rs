//! Gaussian naive Bayes.

use crate::dataset::Dataset;
use crate::model::{Classifier, Learner};

/// Gaussian naive Bayes learner. Per-class, per-feature means and
/// variances with a small variance floor; NaN features are skipped both
/// during fitting and scoring (treated as uninformative).
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianNbLearner;

/// Trained Gaussian NB model.
#[derive(Debug, Clone)]
pub struct GaussianNbClassifier {
    log_prior_pos: f64,
    log_prior_neg: f64,
    mean_pos: Vec<f64>,
    var_pos: Vec<f64>,
    mean_neg: Vec<f64>,
    var_neg: Vec<f64>,
}

const VAR_FLOOR: f64 = 1e-9;

fn class_stats(data: &Dataset, positive: bool) -> (Vec<f64>, Vec<f64>, usize) {
    let k = data.n_features();
    let mut sums = vec![0.0; k];
    let mut counts = vec![0usize; k];
    let mut n = 0usize;
    for i in 0..data.len() {
        if data.label(i) != positive {
            continue;
        }
        n += 1;
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
    let mut sq = vec![0.0; k];
    for i in 0..data.len() {
        if data.label(i) != positive {
            continue;
        }
        for (j, &x) in data.row(i).iter().enumerate() {
            if !x.is_nan() {
                sq[j] += (x - means[j]).powi(2);
            }
        }
    }
    let vars: Vec<f64> = sq
        .iter()
        .zip(&counts)
        .map(|(s, &c)| {
            if c == 0 {
                1.0
            } else {
                (s / c as f64).max(VAR_FLOOR)
            }
        })
        .collect();
    (means, vars, n)
}

impl Learner for GaussianNbLearner {
    fn name(&self) -> &str {
        "naive_bayes"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let (mean_pos, var_pos, n_pos) = class_stats(data, true);
        let (mean_neg, var_neg, n_neg) = class_stats(data, false);
        let n = data.len() as f64;
        // Laplace-smoothed priors keep single-class training sets finite.
        let log_prior_pos = ((n_pos as f64 + 1.0) / (n + 2.0)).ln();
        let log_prior_neg = ((n_neg as f64 + 1.0) / (n + 2.0)).ln();
        Box::new(GaussianNbClassifier {
            log_prior_pos,
            log_prior_neg,
            mean_pos,
            var_pos,
            mean_neg,
            var_neg,
        })
    }
}

fn log_likelihood(row: &[f64], means: &[f64], vars: &[f64]) -> f64 {
    let mut ll = 0.0;
    for ((x, m), v) in row.iter().zip(means).zip(vars) {
        if x.is_nan() {
            continue;
        }
        ll += -0.5 * ((x - m).powi(2) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
    }
    ll
}

impl Classifier for GaussianNbClassifier {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let lp = self.log_prior_pos + log_likelihood(row, &self.mean_pos, &self.var_pos);
        let ln = self.log_prior_neg + log_likelihood(row, &self.mean_neg, &self.var_neg);
        // Softmax over the two log-joints, numerically stabilized.
        let m = lp.max(ln);
        let ep = (lp - m).exp();
        let en = (ln - m).exp();
        ep / (ep + en)
    }
}

/// Bernoulli naive Bayes: features are binarized at a threshold (default
/// 0.5 — natural for EM similarity features in `[0, 1]`) and modeled as
/// per-class Bernoulli variables with Laplace smoothing. NaN features are
/// skipped as uninformative.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliNbLearner {
    /// Binarization threshold: `x > threshold` counts as "on".
    pub threshold: f64,
}

impl Default for BernoulliNbLearner {
    fn default() -> Self {
        BernoulliNbLearner { threshold: 0.5 }
    }
}

/// Trained Bernoulli NB model.
#[derive(Debug, Clone)]
pub struct BernoulliNbClassifier {
    threshold: f64,
    log_prior_pos: f64,
    log_prior_neg: f64,
    /// Per-feature log P(on | class) and log P(off | class).
    log_on_pos: Vec<f64>,
    log_off_pos: Vec<f64>,
    log_on_neg: Vec<f64>,
    log_off_neg: Vec<f64>,
}

fn bernoulli_stats(data: &Dataset, positive: bool, threshold: f64) -> (Vec<f64>, Vec<f64>, usize) {
    let k = data.n_features();
    let mut on = vec![0usize; k];
    let mut seen = vec![0usize; k];
    let mut n = 0usize;
    for i in 0..data.len() {
        if data.label(i) != positive {
            continue;
        }
        n += 1;
        for (j, &x) in data.row(i).iter().enumerate() {
            if !x.is_nan() {
                seen[j] += 1;
                if x > threshold {
                    on[j] += 1;
                }
            }
        }
    }
    // Laplace smoothing keeps probabilities strictly inside (0, 1).
    let log_on: Vec<f64> = on
        .iter()
        .zip(&seen)
        .map(|(&o, &s)| ((o as f64 + 1.0) / (s as f64 + 2.0)).ln())
        .collect();
    let log_off: Vec<f64> = on
        .iter()
        .zip(&seen)
        .map(|(&o, &s)| (((s - o) as f64 + 1.0) / (s as f64 + 2.0)).ln())
        .collect();
    (log_on, log_off, n)
}

impl Learner for BernoulliNbLearner {
    fn name(&self) -> &str {
        "bernoulli_nb"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let (log_on_pos, log_off_pos, n_pos) = bernoulli_stats(data, true, self.threshold);
        let (log_on_neg, log_off_neg, n_neg) = bernoulli_stats(data, false, self.threshold);
        let n = data.len() as f64;
        Box::new(BernoulliNbClassifier {
            threshold: self.threshold,
            log_prior_pos: ((n_pos as f64 + 1.0) / (n + 2.0)).ln(),
            log_prior_neg: ((n_neg as f64 + 1.0) / (n + 2.0)).ln(),
            log_on_pos,
            log_off_pos,
            log_on_neg,
            log_off_neg,
        })
    }
}

impl Classifier for BernoulliNbClassifier {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let mut lp = self.log_prior_pos;
        let mut ln = self.log_prior_neg;
        for (j, &x) in row.iter().enumerate() {
            if x.is_nan() {
                continue;
            }
            if x > self.threshold {
                lp += self.log_on_pos[j];
                ln += self.log_on_neg[j];
            } else {
                lp += self.log_off_pos[j];
                ln += self.log_off_neg[j];
            }
        }
        let m = lp.max(ln);
        let ep = (lp - m).exp();
        let en = (ln - m).exp();
        ep / (ep + en)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn learns_separable_blobs() {
        let train = blob_data(1, 300);
        let test = blob_data(2, 150);
        let c = GaussianNbLearner.fit(&train);
        let correct = (0..test.len())
            .filter(|&i| c.predict(test.row(i)) == test.label(i))
            .count();
        assert!(correct as f64 / test.len() as f64 > 0.95);
    }

    #[test]
    fn probabilities_valid_and_directional() {
        let c = GaussianNbLearner.fit(&blob_data(3, 200));
        let p_pos = c.predict_proba(&[1.0, 1.0]);
        let p_neg = c.predict_proba(&[-1.0, -1.0]);
        assert!(p_pos > 0.9 && p_neg < 0.1);
    }

    #[test]
    fn nan_features_are_uninformative() {
        let c = GaussianNbLearner.fit(&blob_data(4, 200));
        // Only the prior remains: close to 0.5 for balanced classes.
        let p = c.predict_proba(&[f64::NAN, f64::NAN]);
        assert!((0.3..=0.7).contains(&p), "{p}");
    }

    #[test]
    fn single_class_training_is_finite() {
        let d = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[true, true]);
        let c = GaussianNbLearner.fit(&d);
        let p = c.predict_proba(&[1.5]);
        assert!(p.is_finite() && p > 0.5);
    }

    #[test]
    fn zero_variance_feature_is_floored() {
        let d = Dataset::from_rows(
            &[
                vec![1.0, 0.2],
                vec![1.0, 0.8],
                vec![1.0, 0.1],
                vec![1.0, 0.9],
            ],
            &[false, true, false, true],
        );
        let c = GaussianNbLearner.fit(&d);
        assert!(c.predict_proba(&[1.0, 0.85]).is_finite());
        assert!(c.predict(&[1.0, 0.85]));
    }

    #[test]
    fn bernoulli_learns_binary_em_features() {
        // match iff isbn_on AND pages_on, like the Fig. 4 books.
        let mut d = Dataset::with_dims(2);
        for i in 0..40 {
            let isbn = f64::from(i % 2 == 0);
            let pages = f64::from(i % 3 == 0);
            d.push(&[isbn, pages], isbn == 1.0 && pages == 1.0);
        }
        let c = BernoulliNbLearner::default().fit(&d);
        assert!(c.predict(&[1.0, 1.0]));
        assert!(!c.predict(&[0.0, 0.0]));
        assert!(!c.predict(&[1.0, 0.0]));
    }

    #[test]
    fn bernoulli_nan_is_uninformative_and_threshold_respected() {
        let d = Dataset::from_rows(
            &[vec![0.9], vec![0.8], vec![0.1], vec![0.2]],
            &[true, true, false, false],
        );
        let c = BernoulliNbLearner::default().fit(&d);
        let p = c.predict_proba(&[f64::NAN]);
        assert!((0.3..=0.7).contains(&p), "{p}");
        assert!(c.predict(&[0.6]));
        assert!(!c.predict(&[0.4]));
        // Custom threshold flips the binarization point.
        let c = BernoulliNbLearner { threshold: 0.05 }.fit(&d);
        assert!(c.predict_proba(&[0.15]).is_finite());
    }
}
