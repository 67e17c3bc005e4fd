//! Property tests on the ML substrate: classifier output contracts,
//! metric identities, CV fold structure, and persistence round-trips.

use magellan_ml::cv::stratified_folds;
use magellan_ml::naive_bayes::{BernoulliNbLearner, GaussianNbLearner};
use magellan_ml::persist::{load_forest, save_forest};
use magellan_ml::{
    Dataset, DecisionTreeLearner, Learner, LogisticRegressionLearner, Metrics, RandomForestLearner,
};
use proptest::prelude::*;

/// Random small dataset with at least one example of each class.
fn dataset() -> impl Strategy<Value = Dataset> {
    (proptest::collection::vec(
        (
            proptest::collection::vec(prop_oneof![4 => 0.0f64..1.0, 1 => Just(f64::NAN)], 3),
            any::<bool>(),
        ),
        8..40,
    ),)
        .prop_map(|(mut rows,)| {
            // Force both classes to be present.
            rows[0].1 = true;
            rows[1].1 = false;
            let mut d = Dataset::with_dims(3);
            for (x, y) in rows {
                d.push(&x, y);
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn classifiers_emit_probabilities_in_unit_interval(d in dataset()) {
        let tree = DecisionTreeLearner::default();
        let forest = RandomForestLearner { n_trees: 4, ..Default::default() };
        let logit = LogisticRegressionLearner { epochs: 5, ..Default::default() };
        let gnb = GaussianNbLearner;
        let bnb = BernoulliNbLearner::default();
        let learners: [&dyn Learner; 5] = [&tree, &forest, &logit, &gnb, &bnb];
        for learner in learners {
            let c = learner.fit(&d);
            for i in 0..d.len() {
                let p = c.predict_proba(d.row(i));
                prop_assert!((0.0..=1.0).contains(&p), "{} emitted {p}", learner.name());
                // Hard predictions agree with the soft score's side of 0.5
                // except for forests, whose hard vote is the majority of
                // tree votes rather than the thresholded mean probability.
                if learner.name() != "random_forest" {
                    prop_assert_eq!(c.predict(d.row(i)), p >= 0.5);
                }
            }
            // NaN-heavy probes must still yield valid probabilities.
            let p = c.predict_proba(&[f64::NAN, 0.5, f64::NAN]);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_is_deterministic(d in dataset()) {
        let mk = || RandomForestLearner { n_trees: 3, seed: 9, ..Default::default() }.fit_forest(&d);
        let (f1, f2) = (mk(), mk());
        for i in 0..d.len() {
            prop_assert_eq!(f1.vote_fraction(d.row(i)), f2.vote_fraction(d.row(i)));
        }
    }

    #[test]
    fn forest_persistence_roundtrip(d in dataset()) {
        let forest = RandomForestLearner { n_trees: 3, ..Default::default() }.fit_forest(&d);
        let back = load_forest(&save_forest(&forest)).unwrap();
        for i in 0..d.len() {
            prop_assert_eq!(
                forest.vote_fraction(d.row(i)),
                back.vote_fraction(d.row(i))
            );
        }
    }

    #[test]
    fn metrics_identities(preds in proptest::collection::vec(any::<bool>(), 1..60),
                          golds in proptest::collection::vec(any::<bool>(), 1..60)) {
        let n = preds.len().min(golds.len());
        let (p, g) = (&preds[..n], &golds[..n]);
        let m = Metrics::from_predictions(p, g);
        prop_assert_eq!(m.total(), n);
        prop_assert!((0.0..=1.0).contains(&m.precision()));
        prop_assert!((0.0..=1.0).contains(&m.recall()));
        prop_assert!((0.0..=1.0).contains(&m.f1()));
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
        // F1 (a harmonic mean) lies between precision and recall.
        if m.f1() > 0.0 {
            let lo = m.precision().min(m.recall());
            let hi = m.precision().max(m.recall());
            prop_assert!(m.f1() >= lo - 1e-12 && m.f1() <= hi + 1e-12);
        }
        // Flipping predictions: the gold positives split between the two
        // runs' true positives exactly.
        let flipped: Vec<bool> = p.iter().map(|x| !x).collect();
        let mf = Metrics::from_predictions(&flipped, g);
        prop_assert_eq!(m.tp + mf.tp, g.iter().filter(|&&x| x).count());
    }

    #[test]
    fn stratified_folds_cover_everything(labels in proptest::collection::vec(any::<bool>(), 10..80),
                                         k in 2usize..6) {
        let folds = stratified_folds(&labels, k, 3);
        prop_assert_eq!(folds.len(), labels.len());
        prop_assert!(folds.iter().all(|&f| f < k));
        // Per-fold positive counts differ by at most 1 (stratification).
        let mut pos_per_fold = vec![0usize; k];
        for (i, &f) in folds.iter().enumerate() {
            if labels[i] {
                pos_per_fold[f] += 1;
            }
        }
        let lo = pos_per_fold.iter().min().unwrap();
        let hi = pos_per_fold.iter().max().unwrap();
        prop_assert!(hi - lo <= 1, "{pos_per_fold:?}");
    }

    #[test]
    fn forest_vote_is_tree_vote_average(d in dataset()) {
        let forest = RandomForestLearner { n_trees: 5, ..Default::default() }.fit_forest(&d);
        for i in 0..d.len().min(10) {
            let row = d.row(i);
            let manual = forest
                .trees()
                .iter()
                .filter(|t| magellan_ml::Classifier::predict(*t, row))
                .count() as f64
                / forest.trees().len() as f64;
            prop_assert_eq!(manual, forest.vote_fraction(row));
        }
    }
}
