//! # magellan-textsim
//!
//! Tokenizers and string similarity measures: the Rust analog of Magellan's
//! `py_stringmatching` package (Appendix A of the SIGMOD '19 paper), which
//! the blockers and the automatic feature generator "heavily use".
//!
//! Three families of measures are provided, mirroring the package:
//!
//! * **sequence-based** ([`seqsim`]): Levenshtein, Jaro, Jaro–Winkler,
//!   Needleman–Wunsch, Smith–Waterman, affine-gap, Hamming;
//! * **set/token-based** ([`setsim`]): Jaccard, Dice, cosine, overlap
//!   coefficient, Monge–Elkan;
//! * **corpus-based** ([`corpsim`]): TF-IDF and soft TF-IDF over a fitted
//!   document-frequency model.
//!
//! Tokenizers ([`tokenize`]) cover whitespace, delimiter, q-gram
//! (padded/unpadded), and alphanumeric tokenization, each with an optional
//! set-semantics mode, matching `py_stringmatching`'s `return_set` flag.
//!
//! For batch workloads, [`intern`] provides the shared [`TokenInterner`]
//! (token → dense `u32` id) plus allocation-free merge-intersection
//! kernels over sorted id sets — bit-identical to the [`setsim`] string
//! measures on the same token sets, and the substrate of the
//! tokenize-once-per-record prepared caches in `magellan-features`,
//! `magellan-simjoin`, and `magellan-block`.

#![warn(missing_docs)]

pub mod corpsim;
pub mod intern;
pub mod numeric;
pub mod seqsim;
pub mod setsim;
pub mod tokenize;

pub use corpsim::TfIdfModel;
pub use intern::TokenInterner;
pub use tokenize::{
    AlphanumericTokenizer, DelimiterTokenizer, QgramTokenizer, Tokenizer, WhitespaceTokenizer,
};
