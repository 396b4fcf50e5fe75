//! Data and workload generators.
//!
//! NSB's hard cases are all *distributional*: small groups under Zipf skew,
//! selective predicates, key joins, drifting workloads. The real datasets
//! the surveyed systems used (TPC-DS at cluster scale, proprietary
//! dashboards) are out of reach, so this crate generates laptop-scale
//! synthetic equivalents that exercise the same failure modes (see
//! DESIGN.md "Substitutions"):
//!
//! * [`zipf`] — a seeded Zipf(s) sampler over a bounded domain.
//! * [`tables`] — single-table generators with controlled skew, group
//!   cardinality, and selectivity handles.
//! * [`star`] — a TPC-H-flavoured star schema (`lineitem`, `orders`,
//!   `customer`, `part`) registered into a catalog.
//! * [`queries`] — an ad-hoc aggregation-workload generator with a drift
//!   knob, for the offline-vs-online experiments.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod queries;
pub mod star;
pub mod tables;
pub mod zipf;

pub use queries::{generate_workload, GeneratedQuery, WorkloadConfig};
pub use star::{build_star_schema, StarScale};
pub use tables::{skewed_table, uniform_table};
pub use zipf::Zipf;
