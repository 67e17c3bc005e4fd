//! The learner/classifier traits every matcher implements.

use crate::dataset::Dataset;

/// A trained binary classifier.
pub trait Classifier: Send + Sync {
    /// Probability-like score in `[0, 1]` that the example is positive.
    fn predict_proba(&self, row: &[f64]) -> f64;

    /// Hard prediction at the 0.5 operating point.
    fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// `self.predict_proba(row) >= threshold` for a row that is read
    /// through `feat` instead of materialised: `feat(i)` is feature `i` of
    /// the row, which is `deferred.len()` wide. Models that can decide
    /// without the whole row (trees, forests) override this to ask only for
    /// the features they test, so a caller whose `feat` computes on demand
    /// pays only for those; the decision is the same for every
    /// implementation. `deferred[i]` marks feature `i` as dear: a model
    /// that can asks for it only once the cheap features leave the
    /// decision open.
    ///
    /// `walked` is incremented by the number of committee members
    /// consulted (1 for a single model).
    fn decide(
        &self,
        threshold: f64,
        deferred: &[bool],
        feat: &mut dyn FnMut(usize) -> f64,
        walked: &mut u64,
    ) -> bool {
        let row: Vec<f64> = (0..deferred.len()).map(feat).collect();
        *walked += 1;
        self.predict_proba(&row) >= threshold
    }

    /// An upper bound on [`Classifier::predict_proba`] over every row whose
    /// feature `j` is NaN or at most `upper[j]` wherever that is `Some`
    /// (indices past the slice, and `None`, are unconstrained), or `None`
    /// when the model cannot bound its score by its features. A bound below
    /// `threshold` makes every such row's `decide(threshold, ..)` false, so
    /// a caller can answer it with no walk. A forest bounds its score
    /// ([`crate::FlatForest::region_max`]); the default answers `None`.
    fn region_max(&self, upper: &[Option<f64>]) -> Option<f64> {
        let _ = upper;
        None
    }
}

/// A learning algorithm that produces a [`Classifier`] from data.
///
/// Learners are the unit of matcher selection in the Fig. 2 guide: the
/// pipeline cross-validates several learners (decision tree, random forest,
/// logistic regression, ...) and picks the one with the best F1.
pub trait Learner: Send + Sync {
    /// A short display name ("decision_tree", "random_forest", ...).
    fn name(&self) -> &str;

    /// Train on a dataset.
    fn fit(&self, data: &Dataset) -> Box<dyn Classifier>;

    /// Committee size of the produced classifier (1 for single models).
    ///
    /// Used as the tie-break in matcher selection: when cross-validation
    /// cannot separate learners on F1, the pipeline prefers the larger
    /// committee — ensembles produce the graded probabilities that the
    /// production threshold calibration needs (a single tree's scores
    /// cluster at 0/1, so no operating point above 0.5 filters anything),
    /// and the paper's tools standardize on random forests (Falcon's
    /// committee, the guide's default matcher).
    fn ensemble_size(&self) -> usize {
        1
    }
}

/// A trivial constant classifier, useful as a baseline and for degenerate
/// training sets (single-class labels).
#[derive(Debug, Clone, Copy)]
pub struct ConstantClassifier {
    /// Score returned for every example.
    pub proba: f64,
}

impl Classifier for ConstantClassifier {
    fn predict_proba(&self, _row: &[f64]) -> f64 {
        self.proba
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_decide_reads_the_whole_row() {
        let c = ConstantClassifier { proba: 0.6 };
        let (mut asked, mut walked) = (Vec::new(), 0);
        let mut feat = |i: usize| {
            asked.push(i);
            i as f64
        };
        assert!(c.decide(0.6, &[false; 3], &mut feat, &mut walked));
        assert!(!c.decide(0.7, &[true, false, true], &mut feat, &mut walked));
        assert_eq!(asked, [0, 1, 2, 0, 1, 2]);
        assert_eq!(walked, 2);
    }

    #[test]
    fn constant_classifier_predicts_constantly() {
        let c = ConstantClassifier { proba: 0.9 };
        assert!(c.predict(&[1.0]));
        assert_eq!(c.predict_proba(&[]), 0.9);
        let c = ConstantClassifier { proba: 0.1 };
        assert!(!c.predict(&[42.0]));
    }
}
