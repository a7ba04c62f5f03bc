//! A declustered SS-tree over a disk-array page store.
//!
//! The paper's concluding section lists "the application of the algorithm
//! on other access methods for similarity search, like SS-tree, SR-tree,
//! TV-tree and X-tree" as future work. This crate delivers the SS-tree
//! (White & Jain, ICDE'96): a height-balanced tree whose directory
//! entries bound their subtrees with **spheres** (centroid + radius)
//! instead of rectangles. Spheres have shorter diameters in high
//! dimensions and store only `d + 1` scalars per region, doubling
//! directory fan-out.
//!
//! Structure mirrors `sqda-rstar`: one node per page, per-entry subtree
//! object counts (the modification CRSS relies on), pluggable
//! declustering across the array's disks, and a compact binary codec.
//! The tree implements [`sqda_core::AccessMethod`], so **BBSS, FPSS,
//! CRSS and WOPTSS run over it unchanged** — with the caveat the
//! geometry dictates: a bounding sphere offers no MINMAXDIST-style
//! per-face guarantee, so the pessimistic metric degrades to `D_max`
//! (see `sqda_geom::Region::min_max_dist_sq`).
//!
//! # Example
//!
//! ```
//! use sqda_sstree::{SsConfig, SsTree};
//! use sqda_core::{AlgorithmKind, exec::run_query};
//! use sqda_storage::ArrayStore;
//! use sqda_geom::Point;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ArrayStore::new(4, 1449, 7));
//! let mut tree = SsTree::create(store, SsConfig::new(2)).unwrap();
//! for i in 0..500u64 {
//!     tree.insert(Point::new(vec![(i % 23) as f64, (i % 17) as f64]), i).unwrap();
//! }
//! let mut crss = AlgorithmKind::Crss.build(&tree, Point::new(vec![4.0, 4.0]), 5).unwrap();
//! let run = run_query(&tree, crss.as_mut()).unwrap();
//! assert_eq!(run.results.len(), 5);
//! ```

#![forbid(unsafe_code)]

mod codec;
mod node;
mod tree;
mod validate;

pub use node::{SsLeafEntry, SsNode, SsSphereEntry};
pub use tree::{SsConfig, SsError, SsTree};
pub use validate::SsValidationError;
