//! The synopsis zoo of *Approximate Query Processing: No Silver Bullet*.
//!
//! NSB's first family of AQP techniques is the pre-computed synopsis: a
//! small data structure that answers **one class of aggregate** with
//! analytically bounded error, in space that does not grow with the data.
//! Their strength (tiny, fast, mergeable, guaranteed) and their weakness
//! (each answers only its own question — none of them runs your `WHERE`
//! clause) together make the paper's point.
//!
//! | Sketch | Answers | Error bound | Module |
//! |---|---|---|---|
//! | Count-Min | point frequency | `+εN` one-sided, ε = e/w | [`countmin`] |
//! | Count-Sketch | point frequency | `±ε√F₂` two-sided | [`countsketch`] |
//! | HyperLogLog | distinct count | `≈1.04/√m` relative | [`hll`] |
//! | KMV (K-minimum values) | distinct count | `≈1/√(k−2)` relative | [`kmv`] |
//! | AMS (tug-of-war) | second moment F₂ | `ε` with medians-of-means | [`ams`] |
//! | Greenwald–Khanna | quantiles | ε-approximate rank | [`quantile`] |
//! | Equi-width / equi-depth histograms | range aggregates | per-bucket uniformity | [`histogram`] |
//! | Haar wavelet synopsis | range aggregates | top-B coefficient energy | [`wavelet`] |
//! | Bloom filter | membership | false-positive rate `(1−e^{−kn/m})^k` | [`bloom`] |
//!
//! All sketches are mergeable (distributed-aggregation-friendly),
//! serializable through the `Partial` wire format ([`codec`]), and
//! deterministic given their seeds.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ams;
pub mod bloom;
pub mod codec;
pub mod countmin;
pub mod countsketch;
pub mod hash;
pub mod histogram;
pub mod hll;
pub mod kmv;
pub mod quantile;
pub mod wavelet;

pub use ams::AmsSketch;
pub use bloom::BloomFilter;
pub use countmin::CountMinSketch;
pub use countsketch::CountSketch;
pub use histogram::{EquiDepthHistogram, EquiWidthHistogram};
pub use hll::HyperLogLog;
pub use kmv::KmvSketch;
pub use quantile::GkQuantiles;
pub use wavelet::WaveletSynopsis;
