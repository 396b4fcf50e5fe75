//! Statistical foundations for approximate query processing.
//!
//! This crate implements, from scratch, everything the AQP layers above it
//! need to turn a sampling design's estimates into *answers with a
//! guarantee*:
//!
//! * [`special`] — log-gamma, regularized incomplete gamma/beta, `erf`.
//! * [`dist`] — standard normal, Student's *t*, and chi-squared
//!   distributions with CDFs and quantile (inverse-CDF) functions.
//! * [`estimate`] — the [`Estimate`] type: a point value
//!   plus a variance estimate, convertible to a CLT confidence interval, with
//!   error-propagation rules for ratios, products, and sums.
//! * [`interval`] — confidence intervals and coverage accounting.
//! * [`bounds`] — distribution-free concentration bounds (Hoeffding,
//!   Chebyshev, Chernoff) and the sample-size planners derived from them.
//! * [`moments`] — streaming (Welford) moment accumulators, plain and
//!   weighted.
//!
//! The design-based estimators themselves — which units were sampled and
//! how their totals combine — live with the samplers, in
//! `aqp_sampling::design`.
//!
//! The survey *Approximate Query Processing: No Silver Bullet* (SIGMOD 2017)
//! treats the error model as one of the three axes of the AQP design space;
//! this crate is that axis made executable.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bounds;
pub mod dist;
pub mod estimate;
pub mod interval;
pub mod moments;
pub mod special;

pub use bounds::{chebyshev_sample_size, hoeffding_bound, hoeffding_sample_size};
pub use dist::{ChiSquared, Normal, StudentT};
pub use estimate::Estimate;
pub use interval::ConfidenceInterval;
pub use moments::{Moments, WeightedMoments};
