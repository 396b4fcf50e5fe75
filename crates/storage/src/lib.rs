//! Block-structured columnar in-memory storage.
//!
//! The storage layer deliberately makes **blocks first-class**: a
//! [`Table`] is a sequence of fixed-capacity
//! [`Block`]s, each holding one typed [`Column`]
//! vector per schema field. Blocks are the minimum unit of data access — the
//! same role database pages play — so *block sampling* can skip entire blocks
//! before a single predicate is evaluated, reproducing the scan-skipping
//! economics that make block sampling attractive in the systems surveyed by
//! *Approximate Query Processing: No Silver Bullet* (SIGMOD 2017).
//!
//! Modules:
//! * [`value`] — scalar [`Value`]s and [`DataType`]s.
//! * [`mod@column`] — typed columnar vectors with optional validity masks.
//! * [`dict`] — the [`StrDict`] a STR column's `u32` codes index, one per
//!   column of a built table.
//! * [`key`] — canonical keys ([`KeyAtom`]) and the per-column
//!   [`KeyIndex`] a table caches for joins.
//! * [`schema`] — named, typed fields.
//! * [`block`] — the fixed-capacity columnar batch.
//! * [`table`] — tables, builders, row/block iteration, and the `Partial`
//!   merge (zero-copy block concatenation: an append-only delta).
//! * [`catalog`] — a thread-safe name → table map.
//! * [`error`] — storage error type.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod block;
pub mod catalog;
pub mod column;
pub mod dict;
pub mod error;
pub mod key;
pub mod schema;
pub mod table;
pub mod value;
pub mod zone;

pub use block::Block;
pub use catalog::Catalog;
pub use column::Column;
pub use dict::StrDict;
pub use error::StorageError;
pub use key::{KeyAtom, KeyIndex, RowPos};
pub use schema::{Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
pub use zone::{ColumnZone, ZoneMap};
