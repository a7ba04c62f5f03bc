//! # sqda-obs — simulation tracing & metrics
//!
//! Observability layer for the disk-array similarity-search simulator:
//! a [`Recorder`] seam the executor emits structured [`Event`]s through,
//! plus sinks and post-run folds:
//!
//! * [`jsonl`] — JSONL event log ([`events_to_jsonl`]);
//! * [`perfetto`] — Chrome `trace_event` export ([`perfetto::chrome_trace`]),
//!   loadable at <https://ui.perfetto.dev>: one track per disk / bus / CPU,
//!   one async span per query;
//! * [`metrics`] — counters, fixed-bucket histograms and the
//!   [`MetricsSnapshot`] (per-disk time-in-queue and queue-depth
//!   histograms, load imbalance, cache behaviour folded from the store's
//!   `IoStats`);
//! * [`profile`] — per-query [`QueryProfile`]s (nodes per level,
//!   response-time component breakdown, CRSS threshold trajectory);
//! * [`explain`] — the [`QueryExplain`] record the real-clock engine
//!   fills for every query it serves, and [`live`] — the
//!   [`LiveTelemetry`] registry a serving process folds each record into
//!   once, at completion, and scrapes while running.
//!
//! The overhead contract: with [`NullRecorder`] the instrumented
//! executor performs no per-event heap allocation and produces
//! byte-identical simulation results — recording observes, never steers.
//! JSON is written and parsed by the dependency-free [`json`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod explain;
pub mod json;
pub mod jsonl;
pub mod live;
pub mod manifest;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod prometheus;
pub mod sink;
pub mod stats;

pub use event::{CollectingRecorder, Event, NullRecorder, QueryId, Recorder};
pub use explain::{Prediction, QueryExplain};
pub use jsonl::{event_to_json, events_to_jsonl};
pub use live::{FlightRecorder, LiveTelemetry, WindowStats};
pub use manifest::{discover_git_sha, RunManifest};
pub use metrics::{Counter, DiskMetrics, Histogram, MetricsSnapshot};
pub use perfetto::chrome_trace;
pub use profile::{query_profiles, Breakdown, CrssPoint, QueryProfile};
pub use sink::{metrics_document, trace_document, write_observability};
pub use stats::{truncate_warmup, MetricSummary};
