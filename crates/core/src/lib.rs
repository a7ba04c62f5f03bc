//! Similarity query processing on disk arrays.
//!
//! This crate is the primary contribution of the reproduced paper: four
//! k-nearest-neighbour algorithms that operate over a *declustered*
//! R\*-tree (`sqda-rstar`) whose nodes live on the disks of a RAID-0
//! array:
//!
//! * [`Bbss`] — **B**ranch-and-**B**ound **S**imilarity **S**earch, the
//!   Roussopoulos–Kelley–Vincent depth-first algorithm. One node request
//!   at a time: minimal node accesses for small `k`, but no intra-query
//!   parallelism.
//! * [`Fpss`] — **F**ull-**P**arallel **S**imilarity **S**earch:
//!   breadth-first, activating *every* node that intersects the current
//!   query sphere. Maximal parallelism, uncontrolled I/O volume.
//! * [`Crss`] — **C**andidate-**R**eduction **S**imilarity **S**earch,
//!   the paper's proposal: a threshold distance derived from per-entry
//!   subtree object counts (Lemma 1) prunes candidates before any data is
//!   seen, a candidate stack organised in guarded runs defers doubtful
//!   MBRs, and the activation set is bounded by the number of disks —
//!   balancing parallelism against wasted I/O.
//! * [`Woptss`] — the hypothetical **W**eak-**OPT**imal search that knows
//!   the final k-NN distance in advance and touches only nodes
//!   intersecting the answer sphere: the lower bound every real algorithm
//!   is measured against.
//!
//! Beside them, [`Frontier`] is Hjaltason–Samet's best-first search as
//! a batch machine, rounds as wide as the executor says reads overlap:
//! WOPTSS's nodes when reads are free, so `sqda serve` runs it by default.
//!
//! Algorithms are *batch state machines* ([`SimilaritySearch`]): they emit
//! page-fetch batches and consume decoded nodes, so the same
//! implementation runs under
//!
//! * the [logical executor](exec::run_query) — counts node accesses
//!   (Figures 8–9 of the paper), and
//! * the [event-driven simulator](exec::Simulation) — measures query
//!   response times on the modelled disk array under Poisson workloads
//!   (Figures 10–12, Tables 3–4), and
//! * the [real-clock engine](exec::RealTimeEngine) — the same sessions
//!   against real files through a batched
//!   [`IoBackend`](sqda_storage::IoBackend), one query per call over a
//!   caller-owned [`QueryScratch`], reporting wall-clock latencies
//!   (`sqda serve`); its
//!   [`run_query_batch`](exec::RealTimeEngine::run_query_batch) runs B
//!   ordinary [`Fpss`] sessions in lockstep, each round reading the union
//!   of their pages once ([`BatchKnnReport`]).
//!
//! # Example: one query, four algorithms
//!
//! ```
//! use sqda_core::{AlgorithmKind, exec::run_query};
//! use sqda_rstar::{RStarTree, RStarConfig, decluster::ProximityIndex};
//! use sqda_storage::ArrayStore;
//! use sqda_geom::Point;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ArrayStore::new(10, 1449, 1));
//! let mut tree = RStarTree::create(
//!     store, RStarConfig::new(2).with_max_entries(16), Box::new(ProximityIndex),
//! ).unwrap();
//! for i in 0..2000u64 {
//!     let p = Point::new(vec![(i % 83) as f64, (i % 59) as f64]);
//!     tree.insert(p, i).unwrap();
//! }
//! let q = Point::new(vec![41.0, 29.0]);
//! for kind in AlgorithmKind::ALL {
//!     let mut algo = kind.build(&tree, q.clone(), 10).unwrap();
//!     let run = run_query(&tree, algo.as_mut()).unwrap();
//!     assert_eq!(run.results.len(), 10);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod algo;
mod bbss;
mod best_first;
mod crss;
pub mod error;
pub mod exec;
mod fpss;
mod frontier;
mod range;
pub mod threshold;
mod woptss;
pub mod workload;

pub use access::{AccessMethod, IndexNode, InternalBlock, LeafBlock, QueryScratch};
pub use algo::{AlgoProgress, AlgorithmKind, BatchResult, KBest, Neighbor, SimilaritySearch, Step};
pub use bbss::Bbss;
pub use best_first::{best_first_knn, best_first_knn_with};
pub use crss::Crss;
pub use error::QueryError;
pub use exec::{
    mirror_partner, run_query, run_query_with, BatchKnnReport, QueryRun, RealTimeEngine,
    RealTimeReport, RunOptions, Simulation, SimulationReport,
};
pub use fpss::Fpss;
pub use frontier::Frontier;
pub use range::RangeSearch;
// Re-exported so access-method crates can type their answers without a
// direct dependency on the R*-tree crate.
pub use sqda_rstar::ObjectId;
pub use woptss::Woptss;
pub use workload::{Workload, WorkloadQuery};
