//! A declustered (parallel) R\*-tree over a disk-array page store.
//!
//! This crate implements the access method of the SIGMOD'98 paper
//! *"Similarity Query Processing Using Disk Arrays"*: an R\*-tree
//! ([Beckmann et al., SIGMOD'90]) whose nodes are distributed over the
//! disks of a RAID-0 array, in the style of the multiplexed/parallel
//! R-tree of Kamel & Faloutsos (SIGMOD'92). Two modifications distinguish
//! it from a textbook R\*-tree:
//!
//! 1. **Per-entry subtree object counts.** Every internal entry records how
//!    many data objects its subtree contains. The CRSS/FPSS algorithms use
//!    these counts to compute the Lemma-1 threshold distance before any
//!    data page has been fetched.
//! 2. **Declustered page placement.** When a node splits, the newly
//!    created page is assigned to a disk by a pluggable
//!    [`Declusterer`]; the default is the Proximity-Index heuristic, which
//!    places a new node on the disk whose resident sibling nodes are
//!    *least proximal* to it, so that nodes likely to be fetched by the
//!    same query live on different disks.
//!
//! Nodes occupy exactly one page each and are stored through the
//! [`sqda_storage::PageStore`] abstraction in a compact binary format, so
//! the same tree can be driven by the logical executor (counting node
//! accesses) or by the event-driven disk-array simulator (measuring
//! response times). This crate builds and maintains the tree; every
//! search over it — k-NN, best-first and range — is `sqda-core`'s, which
//! reads the nodes through its `AccessMethod` view.
//!
//! The tree is one instance of a paged-tree shell, [`PagedTree`]: pages,
//! codec framing, the decoded-node cache, insertion and validation are
//! written once and parameterised by a [`Bound`] — how a directory entry
//! bounds its subtree, and the descent, split and placement rules that
//! follow. [`Rects`] makes it the R\*-tree ([`RStarTree`]); [`Spheres`]
//! makes it the SS-tree ([`SsTree`], which `sqda-sstree` names).
//!
//! # Example
//!
//! ```
//! use sqda_rstar::{RStarTree, RStarConfig, decluster::RoundRobin};
//! use sqda_storage::ArrayStore;
//! use sqda_geom::Point;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ArrayStore::new(4, 1449, 42));
//! let mut tree = RStarTree::create(
//!     store,
//!     RStarConfig::new(2),
//!     Box::new(RoundRobin::new()),
//! ).unwrap();
//! for i in 0..1000 {
//!     let x = (i % 37) as f64;
//!     let y = (i % 61) as f64;
//!     tree.insert(Point::new(vec![x, y]), i).unwrap();
//! }
//! assert_eq!(tree.num_objects(), 1000);
//! assert!(tree.validate().unwrap().is_ok());
//! ```

#![forbid(unsafe_code)]

mod bulk;
pub mod codec;
pub mod config;
pub mod decluster;
mod delete;
pub mod entry;
pub mod external;
mod insert;
pub mod node;
mod rects;
pub mod sfc;
mod spheres;
mod split;
pub mod split_policy;
pub mod tree;
pub mod validate;

pub use bulk::{PackingOrder, PlacementMode};
pub use config::{RStarConfig, TreeConfig};
pub use decluster::Declusterer;
pub use entry::{InternalEntry, LeafEntry, ObjectId};
pub use external::{ExternalBuildOptions, ExternalBuildReport, FnSource, PointSource, SliceSource};
pub use node::{InternalRef, Node};
pub use rects::{RStarTree, Rects};
pub use spheres::{Spheres, SsConfig, SsTree};
pub use split_policy::SplitPolicy;
pub use tree::{Bound, PagedTree, RStarError, TreeStats};
pub use validate::ValidationError;
