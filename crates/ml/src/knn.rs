//! k-nearest-neighbours classifier (brute force, Euclidean over
//! standardized features).

use crate::dataset::Dataset;
use crate::model::{Classifier, Learner};

/// kNN learner.
#[derive(Debug, Clone, Copy)]
pub struct KnnLearner {
    /// Neighbourhood size.
    pub k: usize,
}

impl Default for KnnLearner {
    fn default() -> Self {
        KnnLearner { k: 5 }
    }
}

/// Trained (memorized) kNN model.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    data: Dataset,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Learner for KnnLearner {
    fn name(&self) -> &str {
        "knn"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(self.k >= 1, "k must be at least 1");
        let kf = data.n_features();
        let mut means = vec![0.0; kf];
        let mut counts = vec![0usize; kf];
        for i in 0..data.len() {
            for (j, &x) in data.row(i).iter().enumerate() {
                if !x.is_nan() {
                    means[j] += x;
                    counts[j] += 1;
                }
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            if c > 0 {
                *m /= c as f64;
            }
        }
        let mut stds = vec![0.0; kf];
        for i in 0..data.len() {
            for (j, &x) in data.row(i).iter().enumerate() {
                if !x.is_nan() {
                    stds[j] += (x - means[j]).powi(2);
                }
            }
        }
        for (s, &c) in stds.iter_mut().zip(&counts) {
            *s = if c == 0 {
                1.0
            } else {
                (*s / c as f64).sqrt().max(1e-12)
            };
        }
        Box::new(KnnClassifier {
            k: self.k,
            data: data.clone(),
            means,
            stds,
        })
    }
}

impl KnnClassifier {
    fn dist2(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .enumerate()
            .map(|(j, (&x, &y))| {
                let xs = if x.is_nan() {
                    0.0
                } else {
                    (x - self.means[j]) / self.stds[j]
                };
                let ys = if y.is_nan() {
                    0.0
                } else {
                    (y - self.means[j]) / self.stds[j]
                };
                (xs - ys).powi(2)
            })
            .sum()
    }
}

impl Classifier for KnnClassifier {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let k = self.k.min(self.data.len());
        // Partial selection of the k smallest distances.
        let mut dists: Vec<(f64, bool)> = (0..self.data.len())
            .map(|i| (self.dist2(row, self.data.row(i)), self.data.label(i)))
            .collect();
        dists.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let pos = dists[..k].iter().filter(|(_, l)| *l).count();
        pos as f64 / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> Dataset {
        // XOR with 3 copies per corner: non-linear, kNN handles it.
        let mut d = Dataset::with_dims(2);
        for _ in 0..3 {
            d.push(&[0.0, 0.0], false);
            d.push(&[1.0, 1.0], false);
            d.push(&[0.0, 1.0], true);
            d.push(&[1.0, 0.0], true);
        }
        d
    }

    #[test]
    fn knn_solves_xor() {
        let c = KnnLearner { k: 3 }.fit(&xor_data());
        assert!(!c.predict(&[0.05, 0.05]));
        assert!(!c.predict(&[0.95, 0.95]));
        assert!(c.predict(&[0.05, 0.95]));
        assert!(c.predict(&[0.95, 0.05]));
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let d = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[false, true]);
        let c = KnnLearner { k: 10 }.fit(&d);
        assert_eq!(c.predict_proba(&[0.0]), 0.5);
    }

    #[test]
    fn proba_is_neighbour_fraction() {
        let d = Dataset::from_rows(
            &[vec![0.0], vec![0.1], vec![0.2], vec![10.0]],
            &[true, true, false, false],
        );
        let c = KnnLearner { k: 3 }.fit(&d);
        let p = c.predict_proba(&[0.05]);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nan_query_is_tolerated() {
        let c = KnnLearner::default().fit(&xor_data());
        let p = c.predict_proba(&[f64::NAN, f64::NAN]);
        assert!(p.is_finite());
    }
}
