//! # magellan-features
//!
//! Feature engineering for EM: the "Creating Feature Vectors" step of the
//! PyMatcher guide (Table 3), including the two "pain point" tools the
//! paper names — **automatic feature creation** and **manual (declarative)
//! feature creation**.
//!
//! Given two tables, [`autogen::generate_features`] infers each shared
//! attribute's type (numeric / boolean / short / medium / long string) and
//! instantiates the appropriate tokenizer × similarity-measure grid,
//! producing features named exactly the way the paper prints them, e.g.
//! `jaccard(3gram(A.name), 3gram(B.name))`.
//!
//! The generated feature set is an ordinary `Vec<Feature>` that users
//! "delete features from ... and declaratively define more features then
//! add them" (§4.1's customizability principle) — a [`feature::Feature`]
//! is plain data plus a compute function, so the set is fully editable.
//!
//! [`fvtable::extract_feature_matrix`] evaluates a feature set over
//! candidate row pairs, yielding the dense matrix the matchers in
//! `magellan-ml` consume. Missing attribute values produce `NaN` entries,
//! which the learners are specified to handle.
//!
//! Batch extraction runs through the [`prepared`] layer: a
//! [`prepared::PreparedPair`] cache tokenizes each referenced record
//! **once** per distinct `(attribute, tokenizer)` combination, interning
//! tokens into dense `u32` ids, and a [`prepared::Scorer`] per chunk of
//! the pair list keeps the left record's side of each measure while
//! consecutive pairs share it — bit-identical to the per-pair scalar path,
//! which is kept as [`fvtable::extract_feature_matrix_scalar`] for
//! reference and benchmarking.

#![warn(missing_docs)]

pub mod autogen;
pub mod feature;
pub mod fvtable;
pub mod prepared;
pub mod types;

pub use autogen::generate_features;
pub use feature::{Feature, FeatureKind, TokSpecF};
pub use fvtable::{
    extract_feature_matrix, extract_feature_matrix_par, extract_feature_matrix_scalar,
    extract_feature_matrix_scalar_par, FeatureMatrix,
};
pub use prepared::{
    extract_with_prepared, FeaturePlan, PreparedPair, Scorer, ScorerCounts, StreamingPreparedPair,
};
pub use types::{infer_attr_type, AttrType};
