//! # magellan-table
//!
//! The tabular substrate for the Magellan-rs EM ecosystem.
//!
//! The Magellan paper (SIGMOD '19, §4.1) stores all tables — the input
//! tables `A` and `B`, candidate sets, labeled samples, feature-vector
//! tables — in a *generic, well-known* tabular data structure so that every
//! tool in the ecosystem interoperates. In PyData that structure is the
//! pandas DataFrame; here it is [`Table`]: a typed, column-oriented,
//! in-memory table with nullable cells.
//!
//! Because a generic table cannot carry EM-specific metadata (keys,
//! key–foreign-key relationships between a candidate set and its base
//! tables), Magellan keeps that metadata in a stand-alone [`catalog::Catalog`],
//! and every command that *needs* a piece of metadata re-validates it before
//! trusting it (the paper's "self-containment" principle). Both halves of
//! that design are reproduced here, including the validation paths.
//!
//! The crate also provides RFC-4180-subset CSV I/O ([`csv`]), dataset
//! profiling ([`profile`]) used by the how-to guide's data-exploration step,
//! and [`segment`], the one framing every binary file of the workspace is
//! read and written through (`emtbl` here, the checkpoints upstream).

#![warn(missing_docs)]

pub mod catalog;
mod column;
pub mod csv;
pub mod emtbl;
pub mod error;
pub mod profile;
pub mod schema;
pub mod segment;
pub mod table;
pub mod value;

pub use catalog::{CandidateMeta, Catalog, TableMeta};
pub use emtbl::{ColumnSlice, MappedTable, OpenMode};
pub use error::TableError;
pub use schema::{Field, Schema};
pub use table::{ColView, Storage, Table, TableId};
pub use value::{Dtype, Value, ValueRef};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;
