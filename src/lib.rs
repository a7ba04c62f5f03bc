//! # SQDA — Similarity Query Processing Using Disk Arrays
//!
//! A production-quality Rust reproduction of **Papadopoulos &
//! Manolopoulos, "Similarity Query Processing Using Disk Arrays",
//! SIGMOD 1998**: k-nearest-neighbour search over an R\*-tree declustered
//! across the disks of a RAID-0 array, evaluated through event-driven
//! simulation.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geom`] — n-d points, MBRs, the `D_min`/`D_mm`/`D_max` metrics;
//! * [`storage`] — paged storage with disk+cylinder placement;
//! * [`simkernel`] — the event-driven disk-array simulator;
//! * [`rstar`] — the declustered, count-augmented R\*-tree, and the
//!   SS-tree (bounding spheres) on the same paged-tree shell, running
//!   the same algorithms through the access-method abstraction;
//! * [`core`] — the BBSS/FPSS/CRSS/WOPTSS algorithms and executors;
//! * [`obs`] — simulation tracing: recorder seam, JSONL/Perfetto
//!   exports, metrics snapshots and per-query profiles;
//! * [`datasets`] — deterministic experiment data generators;
//! * [`analysis`] — analytical selectivity and response-time models.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench` for the binaries that regenerate every figure and table
//! of the paper's evaluation.
//!
//! ```
//! use sqda::prelude::*;
//! use std::sync::Arc;
//!
//! // A 4-disk array holding a 2-d tree.
//! let store = Arc::new(ArrayStore::new(4, 1449, 7));
//! let mut tree = RStarTree::create(
//!     store,
//!     RStarConfig::new(2),
//!     Box::new(ProximityIndex),
//! ).unwrap();
//! for i in 0..500u64 {
//!     tree.insert(Point::new(vec![(i % 31) as f64, (i % 17) as f64]), i).unwrap();
//! }
//! let mut crss = AlgorithmKind::Crss.build(&tree, Point::new(vec![5.0, 5.0]), 4).unwrap();
//! let run = run_query(&tree, crss.as_mut()).unwrap();
//! assert_eq!(run.results.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub use sqda_analysis as analysis;
pub use sqda_core as core;
pub use sqda_datasets as datasets;
pub use sqda_geom as geom;
pub use sqda_obs as obs;
pub use sqda_rstar as rstar;
pub use sqda_simkernel as simkernel;
pub use sqda_storage as storage;

/// One-stop imports for applications.
pub mod prelude {
    pub use sqda_core::{
        exec::run_query, AlgorithmKind, Crss, Neighbor, Simulation, SimulationReport, Workload,
    };
    pub use sqda_datasets::Dataset;
    pub use sqda_geom::{Point, Rect, Sphere};
    pub use sqda_rstar::decluster::ProximityIndex;
    pub use sqda_rstar::{RStarConfig, RStarTree, SsConfig, SsTree};
    pub use sqda_simkernel::SystemParams;
    pub use sqda_storage::{ArrayStore, PageStore};
}
