//! Analytical cost models for similarity queries on disk arrays.
//!
//! The paper closes with: *"Future research may include the derivation
//! and exploitation of analytical results in similarity search for disk
//! arrays, estimating the response time of a query."* This crate
//! provides that layer:
//!
//! 1. [`TreeProfile`] — per-level geometry statistics extracted from a
//!    live R\*-tree (node counts, mean MBR extents);
//! 2. [`expected_range_accesses`] — the classic Minkowski-sum estimate of
//!    how many nodes a similarity *range* query touches (Kamel &
//!    Faloutsos / Pagel et al.);
//! 3. [`expected_knn_radius`] — the expected k-NN sphere radius under a
//!    local-uniformity assumption (Berchtold et al. style), which turns
//!    the k-NN estimate into a range estimate;
//! 4. [`DiskServiceModel`] and [`ResponseEstimate`] — an M/M/1-style
//!    queueing prediction of mean query response time for a given
//!    algorithm I/O profile (accesses + batch structure) at arrival rate
//!    λ;
//! 5. [`predict_knn`] — the shared end-to-end k-NN prediction (profile →
//!    accesses → batches → response) that the CLI, the serve-time
//!    `EXPLAIN` verb and the validation experiments all funnel through;
//! 6. [`DeviceCalibration`] — service-time terms fitted from observed
//!    executions (event traces or live disk totals), persisted as
//!    `calibration.json` and applied back onto [`SystemParams`] so the
//!    estimators predict with measured constants.
//!
//! [`SystemParams`]: sqda_simkernel::SystemParams
//!
//! The estimators are validated against the event-driven simulation in
//! this crate's tests and the `analysis_validation` experiment binary:
//! node-access estimates land within tens of percent on uniform-like
//! data, response-time estimates within a small factor below saturation
//! — the accuracy class such closed forms are known to achieve on
//! low-dimensional data.

#![forbid(unsafe_code)]

mod calibration;
mod predict;
mod profile;
mod queueing;
mod selectivity;

pub use calibration::{DeviceCalibration, CALIBRATION_SCHEMA};
pub use predict::{predict_knn, QueryPrediction};
pub use profile::{LevelProfile, TreeProfile};
pub use queueing::{estimate_response, DiskServiceModel, QueryIoProfile, ResponseEstimate};
pub use selectivity::{expected_knn_accesses, expected_knn_radius, expected_range_accesses};
