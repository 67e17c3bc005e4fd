//! # magellan-simjoin
//!
//! Scalable string similarity joins: the Rust analog of Magellan's
//! `py_stringsimjoin` package (Appendix A), which the paper notes was so
//! broadly useful it ended up installed on Kaggle.
//!
//! Given two collections of strings, a tokenizer, a similarity measure, and
//! a threshold, a join returns every cross pair whose similarity meets the
//! threshold — without examining the full cross product. The classic
//! filter-verify architecture is used:
//!
//! 1. **tokenize** both sides with set semantics and re-map tokens to
//!    integer ids ordered rarest-first ([`collection`]);
//! 2. **size filter**: discard pairs whose token-set sizes alone make the
//!    threshold unreachable ([`filters`]);
//! 3. **prefix filter**: index only each set's short *prefix* of rarest
//!    tokens; pairs sharing no prefix token cannot reach the threshold
//!    ([`filters`], [`index`]);
//! 4. **verify**: compute the exact similarity on the surviving candidates
//!    ([`join`], [`verify`]).
//!
//! The join is a **CSR engine**: a flat token-id-indexed postings layout
//! with size-sorted lists ([`index`]), PPJoin-style accumulating
//! positional + suffix pruning, one bounded verifier that gallops when a
//! side is ≥ 16× the other ([`verify`]), and cost-based probe-side
//! selection ([`join::ProbeSide`]) — all under an output-identical
//! contract pinned against the preserved pre-CSR engine ([`reference`]).
//! Per-stage kill counters surface through [`magellan_par::JoinStats`].
//!
//! The **out-of-core tier** ([`shard`]) hash-partitions the indexed side
//! into K shards (splitmix64 of each record's rarest token), builds and
//! probes one shard index at a time under a fixed memory budget
//! ([`shard::shards_for_budget`]), and merges candidate streams into the
//! same `(l, r)`-sorted order — bit-identical to the monolithic join at
//! any (K, worker count). Every join hands its pairs over through one
//! linear ordering pass, and the blockers' join
//! ([`join::join_tokenized_pairs`]) emits them as bare `(u32, u32)` rids.
//!
//! The **incremental tier** ([`incremental`]) maintains the same join
//! under record insert/delete/update: tombstoned CSR postings + a tail
//! overlay, periodic compaction, and delta probes — the batch engine's own
//! filter cascade, under a latest-first-seen token order — that emit signed
//! [`incremental::PairDelta`]s in O(delta) — with the live view held
//! bit-identical to a from-scratch batch join after every batch.
//!
//! Supported measures: Jaccard, cosine, Dice, absolute overlap
//! ([`join::set_sim_join`]) and edit distance ([`editjoin::edit_distance_join`]).
//! Every join has a multi-threaded variant used by the production-stage
//! executor (the `magellan-par` work-stealing pool — the paper's Dask
//! role); parallel output is bit-identical to serial for any worker count.

#![warn(missing_docs)]

pub mod collection;
pub mod editjoin;
pub mod filters;
pub mod incremental;
pub mod index;
pub mod join;
mod order;
pub mod reference;
pub mod shard;
pub mod topk;
pub mod verify;

pub use collection::{TokenColumn, TokenizedCollection};
pub use incremental::{IncrementalJoin, PairDelta, RecordMutation, Side};
pub use join::{
    join_tokenized, join_tokenized_pairs, join_tokenized_par, join_tokenized_par_side,
    join_tokenized_stats, set_sim_join, set_sim_join_parallel, set_sim_join_stats, JoinPair,
    ProbeSide, SetSimMeasure,
};
pub use magellan_par::JoinStats;
pub use reference::join_tokenized_hashmap;
pub use shard::{join_tokenized_sharded, shards_for_budget, ShardStats};
pub use topk::join_tokenized_topk;
pub use verify::overlap_sorted_bounded;
