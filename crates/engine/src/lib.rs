//! An exact relational engine over block-structured columnar tables.
//!
//! This is the *baseline* every AQP experiment compares against, and the
//! execution substrate the AQP layers rewrite queries onto. It deliberately
//! mirrors the shape of analytical engines NSB's systems run on:
//!
//! * [`plan`] — logical plans built through a typed builder
//!   ([`Query`]): scan, filter, project, inner equi-join,
//!   group-by aggregate, sort, limit, union-all.
//! * [`exec`] — morsel-driven physical execution: per-block morsels on a
//!   scoped worker pool ([`pool`]), fused scan→filter→project chains, and
//!   one aggregate operator: every `Aggregate` runs one compiled per-block
//!   step ([`AggStep`]: selection pushed below the gathers, gather joins,
//!   block fold) per morsel and merges the partials along a fixed tree,
//!   with scan accounting ([`ExecStats`]) so experiments can report *data
//!   touched*, the scale-free proxy for I/O cost. Results are identical at
//!   every thread count and with kernels on or off ([`ExecOptions`]).
//!   `aqp-core`'s sampled-block evaluator runs the same step.
//! * [`join`] — the gather join ([`GatherJoin`]): one probe block against
//!   the key index its build table caches, gathering only the columns
//!   asked for.
//! * [`fold`] — the per-block filter→aggregate fold ([`BlockFold`]),
//!   typed kernel ([`kernel`]) or scalar, and the one predicate selection.
//! * [`agg`] — hash aggregation with SQL NULL semantics, including the
//!   weighted aggregates (`SUM(x·w)`) middleware AQP rewrites rely on.
//! * [`result`] — materialized result sets.
//!
//! The engine is exact by construction; approximation lives entirely in the
//! layers above (`aqp-sampling`, `aqp-core`), which is precisely the
//! middleware architecture (VerdictDB-style) that NSB identifies as the
//! deployable form of AQP.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod agg;
pub mod error;
pub mod exec;
pub mod fold;
pub mod join;
pub mod kernel;
pub mod plan;
pub mod pool;
pub mod result;

pub use agg::{AggExpr, AggFunc};
pub use error::EngineError;
pub use exec::{execute, execute_with, AggStep};
pub use fold::{BlockFold, FoldAcc, UnitTotals};
pub use join::GatherJoin;
pub use plan::{LogicalPlan, Query, SortKey};
pub use pool::ExecOptions;
pub use result::{ExecStats, ResultSet};
