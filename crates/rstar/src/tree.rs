//! The declustered R\*-tree.

use crate::codec;
use crate::config::RStarConfig;
use crate::decluster::{DeclusterContext, Declusterer};
use crate::entry::{LeafEntry, ObjectId};
use crate::node::Node;
use sqda_geom::{GeomError, Point, Rect};
use sqda_storage::{Bytes, DiskId, IoStats, NodeCache, PageId, PageStore, StorageError};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Errors from tree operations.
#[derive(Debug)]
pub enum RStarError {
    /// Underlying storage failed.
    Storage(StorageError),
    /// Geometry construction failed.
    Geometry(GeomError),
    /// A point's dimensionality does not match the tree's.
    DimensionMismatch {
        /// The tree's dimensionality.
        expected: usize,
        /// The offending point's dimensionality.
        got: usize,
    },
    /// The requested packing order does not support this dimensionality
    /// (Hilbert is 2-d only; Morton keys stop at 8 dimensions).
    UnsupportedPacking {
        /// The packing order's name.
        order: &'static str,
        /// The offending dimensionality.
        dim: usize,
    },
    /// A bulk-build invariant was violated (empty slab, non-finite
    /// coordinate, malformed run file); the build aborts cleanly.
    InvalidBuild(String),
    /// A [`crate::PointSource`] failed mid-pass; the error is its own and
    /// displays as itself.
    Source(Box<dyn std::error::Error + Send + Sync>),
}

impl From<StorageError> for RStarError {
    fn from(e: StorageError) -> Self {
        RStarError::Storage(e)
    }
}

impl From<GeomError> for RStarError {
    fn from(e: GeomError) -> Self {
        RStarError::Geometry(e)
    }
}

impl std::fmt::Display for RStarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RStarError::Storage(e) => write!(f, "storage error: {e}"),
            RStarError::Geometry(e) => write!(f, "geometry error: {e}"),
            RStarError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: tree is {expected}-d, point is {got}-d"
                )
            }
            RStarError::UnsupportedPacking { order, dim } => {
                write!(f, "{order} packing does not support {dim}-d data")
            }
            RStarError::InvalidBuild(msg) => write!(f, "invalid bulk build: {msg}"),
            RStarError::Source(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RStarError {}

/// Convenience alias for tree results.
pub type Result<T> = std::result::Result<T, RStarError>;

/// Summary statistics of a tree (used by experiments and diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Number of levels (1 = a single leaf).
    pub height: u32,
    /// Indexed objects.
    pub num_objects: u64,
    /// Node count per level, `[0]` = leaves.
    pub nodes_per_level: Vec<u64>,
    /// Mean fill factor over all nodes (entries / capacity).
    pub avg_fill: f64,
    /// Pages allocated per disk.
    pub pages_per_disk: Vec<usize>,
}

impl TreeStats {
    /// Total number of nodes.
    pub fn total_nodes(&self) -> u64 {
        self.nodes_per_level.iter().sum()
    }
}

/// A declustered R\*-tree over a disk-array page store.
///
/// Mutating operations (`insert`, `delete`) take `&mut self`; read-only
/// queries take `&self` and can run concurrently through an `Arc` when the
/// tree is not being mutated (the experiments build once, then query).
pub struct RStarTree<S: PageStore> {
    pub(crate) store: Arc<S>,
    pub(crate) config: RStarConfig,
    pub(crate) declusterer: Box<dyn Declusterer>,
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) num_objects: u64,
    pub(crate) cache: Option<Arc<NodeCache<Node>>>,
    pub(crate) profile_reads: AtomicU64,
}

impl<S: PageStore> RStarTree<S> {
    /// Creates an empty tree: a single empty leaf, placed on disk 0.
    pub fn create(
        store: Arc<S>,
        config: RStarConfig,
        declusterer: Box<dyn Declusterer>,
    ) -> Result<Self> {
        let root = store.allocate(DiskId(0))?;
        let leaf = Node::empty_leaf();
        store.write(root, codec::encode_node(&leaf, config.dim))?;
        Ok(Self {
            store,
            config,
            declusterer,
            root,
            height: 1,
            num_objects: 0,
            cache: None,
            profile_reads: AtomicU64::new(0),
        })
    }

    /// Re-attaches to a tree already present in a (persistent) store.
    ///
    /// `root` is the root page id recorded by the caller (e.g. alongside
    /// a [`sqda_storage::FileStore`]'s superblock); height and object
    /// count are recovered from the root node itself.
    pub fn attach(
        store: Arc<S>,
        config: RStarConfig,
        declusterer: Box<dyn Declusterer>,
        root: PageId,
    ) -> Result<Self> {
        let bytes = store.read(root)?;
        let node = codec::decode_node(bytes, config.dim, root)?;
        let height = node.level() + 1;
        let num_objects = node.object_count();
        Ok(Self {
            store,
            config,
            declusterer,
            root,
            height,
            num_objects,
            cache: None,
            profile_reads: AtomicU64::new(0),
        })
    }

    /// The page id of the root node.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Number of levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The level of the root node (`height - 1`).
    pub fn root_level(&self) -> u32 {
        self.height - 1
    }

    /// Number of indexed objects.
    pub fn num_objects(&self) -> u64 {
        self.num_objects
    }

    /// The tree's dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The tree configuration.
    pub fn config(&self) -> &RStarConfig {
        &self.config
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Attaches a decoded-node cache; subsequent `read_node` calls that
    /// hit it skip both the page read and the decode. The cache may be
    /// shared with other trees over the same store (page ids are
    /// store-wide). Builder-style variant of [`Self::set_node_cache`].
    pub fn with_node_cache(mut self, cache: Arc<NodeCache<Node>>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches (or replaces) a decoded-node cache.
    pub fn set_node_cache(&mut self, cache: Arc<NodeCache<Node>>) {
        self.cache = Some(cache);
    }

    /// The attached decoded-node cache, if any.
    pub fn node_cache(&self) -> Option<&Arc<NodeCache<Node>>> {
        self.cache.as_ref()
    }

    /// Store I/O counters merged with the node-cache counters: the full
    /// read-path picture for this tree.
    pub fn io_stats(&self) -> IoStats {
        let mut stats = self.store.stats();
        if let Some(cache) = &self.cache {
            let c = cache.stats();
            stats.cache_hits = c.hits;
            stats.cache_misses = c.misses;
            stats.cache_resident_bytes = c.resident_bytes as u64;
            stats.cache_byte_budget = c.byte_budget as u64;
        }
        stats.profile_reads = self.profile_reads.load(Relaxed);
        stats
    }

    /// Reads and decodes the node stored at `page`, consulting the
    /// decoded-node cache when one is attached.
    ///
    /// Returns a shared handle: a cache hit is a reference-count bump, no
    /// entry data is copied or re-decoded.
    pub fn read_node(&self, page: PageId) -> Result<Arc<Node>> {
        let dim = self.config.dim;
        match &self.cache {
            Some(cache) => cache.read_through(self.store.as_ref(), page, |bytes| {
                codec::decode_node(bytes, dim, page).map_err(RStarError::from)
            }),
            None => {
                let bytes = self.store.read(page)?;
                Ok(Arc::new(codec::decode_node(bytes, dim, page)?))
            }
        }
    }

    /// Like [`Self::read_node`], but tallies the access under
    /// `IoStats::profile_reads` so introspection walks (tree profiling,
    /// diagnostics) can be subtracted from query I/O. Goes through the
    /// decoded-node cache when one is attached, so profiling a served
    /// store never double-fetches a page the engine already decoded.
    pub fn read_node_profiled(&self, page: PageId) -> Result<Arc<Node>> {
        self.profile_reads.fetch_add(1, Relaxed);
        self.read_node(page)
    }

    /// Probes the decoded-node cache alone — no page read on a miss.
    ///
    /// The hit/miss counters advance exactly as in [`Self::read_node`],
    /// so an engine that probes here and completes misses through
    /// [`Self::decode_node_bytes`] produces the same cache statistics
    /// as one reading through. Always a miss when no cache is attached.
    pub fn cached_node(&self, page: PageId) -> Option<Arc<Node>> {
        self.cache.as_ref().and_then(|cache| cache.get(page))
    }

    /// Decodes page bytes fetched out-of-band (e.g. by a batched I/O
    /// backend) and populates the cache, completing the miss path of
    /// [`Self::cached_node`]. Together the pair is [`Self::read_node`]
    /// with the page read lifted out.
    pub fn decode_node_bytes(&self, page: PageId, bytes: Bytes) -> Result<Arc<Node>> {
        let node = Arc::new(codec::decode_node(bytes, self.config.dim, page)?);
        if let Some(cache) = &self.cache {
            cache.insert(page, Arc::clone(&node));
        }
        Ok(node)
    }

    /// Encodes and writes `node` to `page`, invalidating any cached
    /// decode so readers never see a stale node.
    pub(crate) fn write_node(&self, page: PageId, node: &Node) -> Result<()> {
        self.store
            .write(page, codec::encode_node(node, self.config.dim))?;
        if let Some(cache) = &self.cache {
            cache.invalidate(page);
        }
        Ok(())
    }

    /// Frees a page and drops any cached decode of it.
    pub(crate) fn free_node(&self, page: PageId) -> Result<()> {
        self.store.free(page)?;
        if let Some(cache) = &self.cache {
            cache.invalidate(page);
        }
        Ok(())
    }

    /// Allocates a page for a newly split node, consulting the
    /// declustering heuristic.
    ///
    /// `siblings` are the entries of the parent node (the nodes the new
    /// node will compete with during queries), given as MBR + hosting
    /// disk.
    pub(crate) fn allocate_declustered(
        &self,
        new_mbr: &Rect,
        siblings: &[(Rect, DiskId)],
    ) -> Result<PageId> {
        let pages_per_disk = self.pages_per_disk();
        let ctx = DeclusterContext {
            new_mbr,
            siblings,
            pages_per_disk: &pages_per_disk,
            num_disks: self.store.num_disks(),
        };
        let disk = self.declusterer.assign_disk(&ctx);
        Ok(self.store.allocate(disk)?)
    }

    /// Pages currently allocated per disk. Uses the store-wide counter,
    /// which is equivalent to the tree's own page distribution when the
    /// store is dedicated to one tree (the case in all experiments).
    pub(crate) fn pages_per_disk(&self) -> Vec<usize> {
        self.store.pages_per_disk()
    }

    /// Validates the tree invariants; see [`crate::validate`].
    pub fn validate(&self) -> Result<std::result::Result<(), crate::ValidationError>> {
        crate::validate::validate(self)
    }

    /// Inserts a point with its object id.
    pub fn insert(&mut self, point: Point, object: u64) -> Result<()> {
        if point.dim() != self.config.dim {
            return Err(RStarError::DimensionMismatch {
                expected: self.config.dim,
                got: point.dim(),
            });
        }
        crate::insert::insert_object(self, LeafEntry::new(point, ObjectId(object)))
    }

    /// Deletes a point/object pair. Returns `true` if it was present.
    pub fn delete(&mut self, point: &Point, object: u64) -> Result<bool> {
        if point.dim() != self.config.dim {
            return Err(RStarError::DimensionMismatch {
                expected: self.config.dim,
                got: point.dim(),
            });
        }
        crate::delete::delete_object(self, point, ObjectId(object))
    }

    /// Gathers summary statistics by traversing the whole tree.
    pub fn stats(&self) -> Result<TreeStats> {
        let mut nodes_per_level = vec![0u64; self.height as usize];
        let mut fill_sum = 0.0;
        let mut node_count = 0u64;
        let mut pages_per_disk = vec![0usize; self.store.num_disks() as usize];
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            nodes_per_level[node.level() as usize] += 1;
            let cap = if node.is_leaf() {
                self.config.max_leaf_entries
            } else {
                self.config.max_internal_entries
            };
            fill_sum += node.len() as f64 / cap as f64;
            node_count += 1;
            let placement = self.store.placement(page)?;
            pages_per_disk[placement.disk.index()] += 1;
            if !node.is_leaf() {
                stack.extend(node.internal_iter().map(|e| e.child));
            }
        }
        Ok(TreeStats {
            height: self.height,
            num_objects: self.num_objects,
            nodes_per_level,
            avg_fill: if node_count == 0 {
                0.0
            } else {
                fill_sum / node_count as f64
            },
            pages_per_disk,
        })
    }
}

impl<S: PageStore> std::fmt::Debug for RStarTree<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RStarTree")
            .field("dim", &self.config.dim)
            .field("height", &self.height)
            .field("num_objects", &self.num_objects)
            .field("root", &self.root)
            .field("declusterer", &self.declusterer.name())
            .finish()
    }
}
