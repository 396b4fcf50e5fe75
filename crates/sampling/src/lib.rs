//! The sampler zoo of *Approximate Query Processing: No Silver Bullet*.
//!
//! NSB's central observation about sampling-based AQP is that the *design*
//! of the sample — not just its size — determines which queries it can
//! answer and at what cost:
//!
//! | Sampler | Touches all data? | Answers | Module |
//! |---|---|---|---|
//! | Bernoulli rows | yes (must inspect every row) | any linear aggregate | [`bernoulli`] |
//! | Bernoulli **blocks** | **no** (skips whole blocks) | linear aggregates, wider CIs if rows cluster | [`bernoulli`] |
//! | Reservoir (fixed-size SRS) | yes | linear aggregates | [`reservoir`] |
//! | Stratified (proportional / Neyman / congressional) | yes, offline | group-by without missing groups | [`stratified`] |
//! | Universe (hash of a key) | yes¹ | **joins on the sampled key** | [`universe`] |
//! | Distinct (frequency cap) | yes | rare groups, error-bounded group-by | [`distinct`] |
//!
//! ¹ universe sampling is usually evaluated during the scan; its benefit is
//! statistical (join alignment), not scan skipping.
//!
//! Every sampler produces a [`Sample`]: a sampled table plus
//! the [`SampleDesign`] metadata needed to attach
//! Horvitz–Thompson weights and compute design-correct variance estimates
//! ([`design`] module). All randomness is seeded and reproducible.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bernoulli;
pub mod bilevel;
pub mod design;
pub mod distinct;
pub mod merge;
pub mod outlier;
pub mod pps;
pub mod reservoir;
pub mod stratified;
pub mod universe;

pub use bernoulli::{bernoulli_block_range, bernoulli_blocks, bernoulli_rows};
pub use bilevel::bilevel_sample;
pub use design::{RowWeights, Sample, SampleDesign};
pub use distinct::distinct_sample;
pub use outlier::{build_outlier_index, OutlierIndex};
pub use pps::{pps_sample, PpsSample};
pub use reservoir::reservoir_rows;
pub use stratified::{stratified_sample, stratified_sample_with_threads, Allocation};
pub use universe::universe_sample;
