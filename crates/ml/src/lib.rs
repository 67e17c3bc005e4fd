//! # magellan-ml
//!
//! Classical machine-learning substrate for Magellan-rs: the role
//! scikit-learn plays in PyMatcher (Table 3, "Matching" row) and that the
//! random-forest learner plays in Falcon/CloudMatcher.
//!
//! Provided learners (all binary classifiers over dense `f64` feature
//! vectors, all deterministic under a fixed seed):
//!
//! * [`tree::DecisionTreeLearner`] — CART with Gini or entropy splits;
//! * [`forest::RandomForestLearner`] — bagged trees with feature
//!   sub-sampling, per-tree vote access (Falcon extracts blocking rules
//!   from the trees and thresholds on the vote fraction α); a trained
//!   forest is scored through one flat node array,
//!   [`forest_flat::FlatForest`], built when the forest is made;
//! * [`linear::LogisticRegressionLearner`] — L2-regularized SGD;
//! * [`linear::LinearSvmLearner`] — hinge-loss SGD;
//! * [`naive_bayes::GaussianNbLearner`] and [`naive_bayes::BernoulliNbLearner`];
//! * [`knn::KnnLearner`].
//!
//! Model selection uses [`cv`] (stratified k-fold cross-validation — the
//! "select matcher using cross validation" step of the Fig. 2 guide) and
//! [`metrics`] (precision / recall / F1, the quantities every table in the
//! paper reports).
//!
//! Missing feature values (`NaN`) are legal inputs: trees route NaN to the
//! low branch (missing similarity reads as low similarity), linear models
//! and NB treat NaN as 0 after standardization. This mirrors how EM feature
//! vectors behave when an attribute value is absent.

#![warn(missing_docs)]

pub mod cv;
pub mod dataset;
pub mod forest;
pub mod forest_flat;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod persist;
pub mod tree;

pub use cv::{cross_validate, train_test_split, CvReport};
pub use dataset::Dataset;
pub use forest::{RandomForestClassifier, RandomForestLearner};
pub use forest_flat::FlatForest;
pub use linear::{LinearSvmLearner, LogisticRegressionLearner};
pub use metrics::Metrics;
pub use model::{Classifier, Learner};
pub use tree::{DecisionTreeClassifier, DecisionTreeLearner, Node, SplitCriterion};
