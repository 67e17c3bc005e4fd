//! # magellan-block
//!
//! Blocking: the first half of every EM workflow in the paper (Fig. 2 step
//! "select/execute blocker", Fig. 3 steps 1–4). A blocker takes two tables
//! and produces a *candidate set* of row pairs, cheaply discarding the
//! obviously-non-matching bulk of the cross product.
//!
//! Provided blockers (Table 3, "Blocking" row lists 21 commands; the core
//! family is reproduced here):
//!
//! * [`blockers::AttrEquivalenceBlocker`] — equality on an attribute pair;
//! * [`blockers::HashBlocker`] — bucketed equality (normalized values);
//! * [`blockers::OverlapBlocker`] — ≥ k shared tokens, executed as a
//!   sim-join, the workhorse for textual attributes;
//! * [`blockers::SimJoinBlocker`] — any `magellan-simjoin` measure;
//! * [`blockers::SortedNeighborhoodBlocker`] — classic windowed merge;
//! * [`blockers::BlackBoxBlocker`] — arbitrary user predicate (the paper's
//!   "black-box blocker"), for small inputs or candidate refinement;
//! * [`rules::RuleBasedBlocker`] — conjunctions of low-similarity
//!   predicates that *drop* pairs (the form Falcon extracts from random
//!   forests, Fig. 4), executed scalably as unions/intersections of
//!   similarity joins.
//!
//! [`debugger::debug_blocker`] implements the paper's "pain point" tool:
//! it surfaces likely matches that blocking would kill, before you spend
//! labeling effort downstream. [`metrics`] scores candidate sets (recall
//! against gold, reduction ratio).
//!
//! Candidate sets are stored as row-index pairs ([`candidate::CandidateSet`])
//! and materialize to an `(l_id, r_id)` table plus catalog metadata — the
//! paper's space-efficiency principle (§4.1): a candidate table carries
//! only the two keys, never the full attribute payload.

#![warn(missing_docs)]

pub mod blockers;
pub mod candidate;
pub mod debugger;
pub mod dedup;
pub mod metrics;
pub mod rules;

pub use blockers::{
    AttrEquivalenceBlocker, BlackBoxBlocker, Blocker, HashBlocker, OverlapBlocker, SimJoinBlocker,
    SortedNeighborhoodBlocker,
};
pub use candidate::CandidateSet;
pub use dedup::dedup_block;
pub use rules::{BlockingRule, Predicate, RuleBasedBlocker, SimFeature, TokSpec};
