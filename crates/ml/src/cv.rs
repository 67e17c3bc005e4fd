//! Stratified k-fold cross-validation and train/test splitting — the
//! matcher-selection machinery of the Fig. 2 guide ("perform cross
//! validation for U and V ... select V as the matcher").

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use magellan_par::ParConfig;

use crate::dataset::Dataset;
use crate::metrics::Metrics;
use crate::model::Learner;

/// Aggregate cross-validation result for one learner.
#[derive(Debug, Clone)]
pub struct CvReport {
    /// Learner display name.
    pub learner: String,
    /// Per-fold metrics.
    pub folds: Vec<Metrics>,
}

impl CvReport {
    /// Mean F1 across folds.
    pub fn mean_f1(&self) -> f64 {
        mean(self.folds.iter().map(Metrics::f1))
    }

    /// Mean precision across folds.
    pub fn mean_precision(&self) -> f64 {
        mean(self.folds.iter().map(Metrics::precision))
    }

    /// Mean recall across folds.
    pub fn mean_recall(&self) -> f64 {
        mean(self.folds.iter().map(Metrics::recall))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Stratified fold assignment: positives and negatives are each dealt
/// round-robin across folds after a seeded shuffle, so every fold sees
/// (nearly) the class balance of the whole set — essential for EM where
/// matches are rare.
pub fn stratified_folds(labels: &[bool], k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least 2 folds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut fold = vec![0usize; labels.len()];
    for (j, &i) in pos.iter().enumerate() {
        fold[i] = j % k;
    }
    for (j, &i) in neg.iter().enumerate() {
        fold[i] = j % k;
    }
    fold
}

/// k-fold cross-validate a learner; returns per-fold metrics.
pub fn cross_validate(learner: &dyn Learner, data: &Dataset, k: usize, seed: u64) -> CvReport {
    cross_validate_all(&[learner], data, k, seed, &ParConfig::serial())
        .pop()
        .expect("one report per learner")
}

/// [`cross_validate`] for each learner, every (learner, fold) model
/// trained in one region of `par`'s pool, one model per chunk; the reports
/// come back in learner order, the metrics in fold order.
fn cross_validate_all(
    learners: &[&dyn Learner],
    data: &Dataset,
    k: usize,
    seed: u64,
    par: &ParConfig,
) -> Vec<CvReport> {
    let folds = stratified_folds(data.labels(), k, seed);
    let fold_metrics = |f: usize, learner: &dyn Learner| -> Option<Metrics> {
        let train_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] != f).collect();
        let test_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] == f).collect();
        if train_idx.is_empty() || test_idx.is_empty() {
            return None;
        }
        let model = learner.fit(&data.subset(&train_idx));
        let predicted: Vec<bool> = test_idx
            .iter()
            .map(|&i| model.predict(data.row(i)))
            .collect();
        let gold: Vec<bool> = test_idx.iter().map(|&i| data.label(i)).collect();
        Some(Metrics::from_predictions(&predicted, &gold))
    };
    let jobs = learners.len() * k;
    let pool = par.at_most(jobs).with_chunk_size(1);
    let (metrics, _) =
        magellan_par::map_indexed(jobs, &pool, |j| fold_metrics(j % k, learners[j / k]));
    learners
        .iter()
        .zip(metrics.chunks(k))
        .map(|(l, folds)| CvReport {
            learner: l.name().to_owned(),
            folds: folds.iter().flatten().copied().collect(),
        })
        .collect()
}

/// Cross-validate several learners and return the reports sorted by mean
/// F1, best first — the guide's "select the best matcher" step. Every
/// fold of every learner trains in one region of `par`'s pool.
///
/// Ties on mean F1 (common on small labeled samples, where every learner
/// nails the same folds) break toward the larger
/// [`Learner::ensemble_size`]: committees yield graded probabilities the
/// production threshold calibration can actually tune, while a single
/// tree's 0/1 scores leave it no operating point but 0.5.
pub fn select_matcher(
    learners: &[&dyn Learner],
    data: &Dataset,
    k: usize,
    seed: u64,
    par: &ParConfig,
) -> Vec<CvReport> {
    let mut reports = cross_validate_all(learners, data, k, seed, par);
    let ensemble_size = |r: &CvReport| -> usize {
        learners
            .iter()
            .find(|l| l.name() == r.learner)
            .map_or(1, |l| l.ensemble_size())
    };
    reports.sort_by(|a, b| {
        b.mean_f1()
            .partial_cmp(&a.mean_f1())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ensemble_size(b).cmp(&ensemble_size(a)))
            .then_with(|| a.learner.cmp(&b.learner))
    });
    reports
}

/// Stratified train/test split; returns `(train, test)` index vectors.
pub fn train_test_split(
    labels: &[bool],
    test_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    assert!((0.0..1.0).contains(&test_fraction) && test_fraction > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for positive in [true, false] {
        let mut idx: Vec<usize> = (0..labels.len())
            .filter(|&i| labels[i] == positive)
            .collect();
        idx.shuffle(&mut rng);
        let n_test = (idx.len() as f64 * test_fraction).round() as usize;
        test.extend_from_slice(&idx[..n_test]);
        train.extend_from_slice(&idx[n_test..]);
    }
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestLearner;
    use crate::tree::DecisionTreeLearner;
    use rand::Rng;

    fn blob_data(seed: u64, n: usize, pos_rate: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::with_dims(2);
        for _ in 0..n {
            let pos: bool = rng.gen_bool(pos_rate);
            let (cx, cy) = if pos { (1.0, 1.0) } else { (-1.0, -1.0) };
            d.push(
                &[cx + rng.gen_range(-0.7..0.7), cy + rng.gen_range(-0.7..0.7)],
                pos,
            );
        }
        d
    }

    /// A fold-less report (degenerate CV) averages to 0.0, never NaN.
    #[test]
    fn empty_report_means_are_zero() {
        let rep = CvReport {
            learner: "none".into(),
            folds: Vec::new(),
        };
        assert_eq!(rep.mean_f1(), 0.0);
        assert_eq!(rep.mean_precision(), 0.0);
        assert_eq!(rep.mean_recall(), 0.0);
    }

    #[test]
    fn stratified_folds_preserve_class_balance() {
        let labels: Vec<bool> = (0..100).map(|i| i % 10 == 0).collect(); // 10% positive
        let folds = stratified_folds(&labels, 5, 42);
        for f in 0..5 {
            let members: Vec<usize> = (0..100).filter(|&i| folds[i] == f).collect();
            let pos = members.iter().filter(|&&i| labels[i]).count();
            assert_eq!(members.len(), 20);
            assert_eq!(pos, 2, "fold {f} lost stratification");
        }
    }

    #[test]
    fn cross_validation_scores_a_learnable_problem_high() {
        let data = blob_data(1, 200, 0.5);
        let report = cross_validate(&DecisionTreeLearner::default(), &data, 5, 7);
        assert_eq!(report.folds.len(), 5);
        assert!(report.mean_f1() > 0.9, "F1 {}", report.mean_f1());
    }

    #[test]
    fn select_matcher_orders_by_f1() {
        let data = blob_data(2, 200, 0.3);
        let tree = DecisionTreeLearner::default();
        let forest = RandomForestLearner {
            n_trees: 10,
            ..Default::default()
        };
        let reports = select_matcher(&[&tree, &forest], &data, 5, 7, &ParConfig::serial());
        assert_eq!(reports.len(), 2);
        assert!(reports[0].mean_f1() >= reports[1].mean_f1());
    }

    #[test]
    fn train_test_split_is_stratified_and_disjoint() {
        let labels: Vec<bool> = (0..100).map(|i| i < 20).collect();
        let (train, test) = train_test_split(&labels, 0.25, 3);
        assert_eq!(train.len() + test.len(), 100);
        let overlap = train.iter().filter(|i| test.contains(i)).count();
        assert_eq!(overlap, 0);
        let test_pos = test.iter().filter(|&&i| labels[i]).count();
        assert_eq!(test_pos, 5); // 25% of 20 positives
    }

    #[test]
    fn cv_deterministic_under_seed() {
        let data = blob_data(4, 120, 0.4);
        let r1 = cross_validate(&DecisionTreeLearner::default(), &data, 4, 11);
        let r2 = cross_validate(&DecisionTreeLearner::default(), &data, 4, 11);
        assert_eq!(format!("{:?}", r1.folds), format!("{:?}", r2.folds));
    }

    /// The folds train on the pool, yet come back the same at any worker
    /// count, in fold order.
    #[test]
    fn cv_is_worker_count_invariant() {
        let data = blob_data(5, 160, 0.35);
        let tree = DecisionTreeLearner::default();
        let forest = RandomForestLearner {
            n_trees: 6,
            ..Default::default()
        };
        let learners: [&dyn Learner; 2] = [&tree, &forest];
        let folds = |par: &ParConfig| -> Vec<(String, Vec<Metrics>)> {
            select_matcher(&learners, &data, 5, 13, par)
                .into_iter()
                .map(|r| (r.learner, r.folds))
                .collect()
        };
        let serial = folds(&ParConfig::serial());
        assert!(serial.iter().all(|(_, f)| f.len() == 5));
        assert_eq!(folds(&ParConfig::workers(3)), serial);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_panics() {
        stratified_folds(&[true, false], 1, 0);
    }
}
