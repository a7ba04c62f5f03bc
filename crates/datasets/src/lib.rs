//! Deterministic dataset generators for the similarity-search experiments.
//!
//! The paper evaluates on four data sets (Appendix I):
//!
//! | paper | here | notes |
//! |-------|------|-------|
//! | SU — synthetic uniform | [`uniform`] | n-d, unit hyper-cube |
//! | SG — synthetic Gaussian | [`gaussian`] / [`gaussian_clusters`] | n-d |
//! | CP — California Places, 62,173 2-d points (Sequoia 2000) | [`california_like`] | synthetic stand-in |
//! | LB — Long Beach road intersections, 53,145 2-d points (TIGER) | [`long_beach_like`] | synthetic stand-in |
//!
//! The real CP/LB files are not redistributable here, so we generate
//! *stand-ins* that reproduce the characteristics that matter to the
//! algorithms under test: cardinality, dimensionality, and — crucially —
//! strong spatial skew. CP-like data is a power-law mixture of population
//! clusters ("cities") over a background scatter; LB-like data is a
//! jittered street grid with radially varying density. Both are
//! deterministic in the seed.
//!
//! Query points are drawn from the data distribution itself (standard
//! practice, and what makes k-NN experiments meaningful on skewed data):
//! see [`Dataset::sample_queries`].

#![forbid(unsafe_code)]

mod csv;
mod dataset;
mod generators;
mod queries;
mod stream;

pub use csv::CsvRows;
pub use dataset::Dataset;
pub use generators::{
    california_like, gaussian, gaussian_clusters, long_beach_like, uniform, CP_CARDINALITY,
    LB_CARDINALITY,
};
pub use stream::{
    gaussian_clusters_stream, gaussian_stream, uniform_stream, GaussianStream, UniformStream,
};
