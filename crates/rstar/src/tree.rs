//! The paged-tree shell both trees run on: one node per page, the
//! decoded-node cache, I/O statistics, insertion, validation and the
//! error type. What differs between the R\*-tree and the SS-tree is the
//! [`Bound`] parameter: how a directory entry bounds its subtree, and
//! the descent, split and placement rules that follow from it.

use crate::codec;
use crate::config::TreeConfig;
use crate::node::Node;
use sqda_geom::{GeomError, Point};
use sqda_storage::{Bytes, DiskId, IoStats, NodeCache, PageId, PageStore, StorageError};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Errors from tree operations (both trees).
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
    /// A build invariant was violated (a non-finite coordinate, inserted
    /// or in bulk input; an empty slab; a malformed run file); the build
    /// aborts cleanly.
    InvalidBuild(String),
    /// A [`crate::PointSource`] failed mid-pass; the error is its own and
    /// displays as itself.
    Source(Box<dyn std::error::Error + Send + Sync>),
    /// No tree can be built on these pages: the dimensionality is 0, or a
    /// page cannot hold 4 entries of a node.
    NodeDoesNotFit {
        /// The tree's dimensionality.
        dim: usize,
        /// The page size, bytes.
        page_size: usize,
    },
    /// The configuration sizes nodes for pages of one size and the store
    /// holds pages of another; refused before anything is written.
    PageSizeMismatch {
        /// The configuration's page size, bytes.
        config: usize,
        /// The store's page size, bytes.
        store: usize,
    },
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
            RStarError::InvalidBuild(msg) => write!(f, "invalid build: {msg}"),
            RStarError::Source(e) => e.fmt(f),
            RStarError::NodeDoesNotFit { dim: 0, .. } => {
                write!(f, "dimensionality must be positive")
            }
            RStarError::NodeDoesNotFit { dim, page_size } => write!(
                f,
                "page size {page_size} too small for {dim}-d nodes of 4 entries"
            ),
            RStarError::PageSizeMismatch { config, store } => write!(
                f,
                "configured page size {config} but the store's pages are {store} bytes"
            ),
        }
    }
}

impl std::error::Error for RStarError {}

/// Convenience alias for tree results.
pub type Result<T> = std::result::Result<T, RStarError>;

/// Refuses a configuration whose nodes are sized for pages the store
/// does not have: larger ones fail a write part-way through a build,
/// smaller ones waste every page.
fn check_page_size<B, S: PageStore + ?Sized>(config: &TreeConfig<B>, store: &S) -> Result<()> {
    match (config.page_size, store.page_size()) {
        (config, store) if config != store => Err(RStarError::PageSizeMismatch { config, store }),
        _ => Ok(()),
    }
}

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

/// How a paged tree's directory entries bound their subtrees, and the
/// rules that follow from the bound: which child an insert descends
/// into, how an overflowing node splits, and which disk a new node goes
/// to. [`crate::Rects`] makes the paged tree an R\*-tree,
/// [`crate::Spheres`] an SS-tree.
pub trait Bound: Copy + Default + std::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// What a tree keeps to place the nodes it splits off.
    type Placer: Send + Sync;
    /// The tree's name, as its `Debug` form prints it.
    const NAME: &'static str;
    /// The magic its pages start with.
    const MAGIC: &'static [u8; 4];
    /// `true` when a bound is a sphere (`dim` center words, then the
    /// radius), `false` for a rectangle (`dim` low corner words, then
    /// `dim` high): the search kernels differ.
    const SPHERES: bool;

    /// Coordinate words of one directory entry's bound.
    fn words(dim: usize) -> usize;

    /// Checks one decoded bound; the error is the corrupt page's detail.
    fn check(bound: &[f64]) -> std::result::Result<(), String>;

    /// The bound of every entry of a non-empty node: the words its parent
    /// entry carries.
    fn bound(node: &Node) -> Vec<f64>;

    /// Whether a parent entry's `bound` is a valid bound of `child`.
    fn covers(bound: &[f64], child: &Node) -> bool;

    /// ChooseSubtree: the entry of the directory `node` an entry with
    /// coordinate words `entry` (a point, or a bound) descends into.
    fn choose_subtree(node: &Node, entry: &[f64]) -> usize;

    /// Splits an overflowing node into the entries that keep its page and
    /// those that move to a new one.
    fn split(config: &TreeConfig<Self>, node: &Node) -> (Vec<usize>, Vec<usize>);

    /// Forced reinsertion: the entries an overflowing node evicts,
    /// farthest first, or `None` when the tree splits instead.
    fn evict(config: &TreeConfig<Self>, node: &Node) -> Option<Vec<usize>>;

    /// The disk a new node with `bound` goes to, among the entries of
    /// `parent`; `None` for a new root and the halves of a root split.
    fn place<S: PageStore>(
        tree: &PagedTree<S, Self>,
        bound: &[f64],
        parent: Option<&Node>,
    ) -> Result<DiskId>;
}

/// A declustered, count-augmented paged tree over a disk-array page
/// store: [`crate::RStarTree`] or [`crate::SsTree`].
///
/// Mutating operations (`insert`, `delete`) take `&mut self`; read-only
/// queries take `&self` and can run concurrently through an `Arc` when the
/// tree is not being mutated (the experiments build once, then query).
pub struct PagedTree<S: PageStore, B: Bound> {
    pub(crate) store: Arc<S>,
    pub(crate) config: TreeConfig<B>,
    pub(crate) placer: B::Placer,
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) num_objects: u64,
    pub(crate) cache: Option<Arc<NodeCache<Node>>>,
    pub(crate) profile_reads: AtomicU64,
}

impl<S: PageStore, B: Bound> PagedTree<S, B> {
    /// Creates an empty tree: a single empty leaf, placed on disk 0.
    /// A `config` sized for another page size than the store's is
    /// [`RStarError::PageSizeMismatch`], with nothing written.
    pub(crate) fn create_with(
        store: Arc<S>,
        config: TreeConfig<B>,
        placer: B::Placer,
    ) -> Result<Self> {
        check_page_size(&config, store.as_ref())?;
        let root = store.allocate(DiskId(0))?;
        store.write(root, codec::encode::<B>(&Node::empty_leaf(), config.dim))?;
        Ok(Self {
            store,
            config,
            placer,
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
    /// count are recovered from the root node itself. `placer` places
    /// the nodes later inserts split off. A `config` sized for another
    /// page size than the store's is [`RStarError::PageSizeMismatch`].
    pub fn attach(
        store: Arc<S>,
        config: TreeConfig<B>,
        placer: B::Placer,
        root: PageId,
    ) -> Result<Self> {
        check_page_size(&config, store.as_ref())?;
        let node = codec::decode::<B>(store.read(root)?, config.dim, root)?;
        Ok(Self {
            store,
            config,
            placer,
            root,
            height: node.level() + 1,
            num_objects: node.object_count(),
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
    pub fn config(&self) -> &TreeConfig<B> {
        &self.config
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Attaches (or replaces) a decoded-node cache; subsequent
    /// `read_node` calls that hit it skip both the page read and the
    /// decode. The cache may be shared with other trees over the same
    /// store (page ids are store-wide).
    pub fn set_node_cache(&mut self, cache: Arc<NodeCache<Node>>) {
        self.cache = Some(cache);
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
                codec::decode::<B>(bytes, dim, page).map_err(RStarError::from)
            }),
            None => {
                let bytes = self.store.read(page)?;
                Ok(Arc::new(codec::decode::<B>(bytes, dim, page)?))
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
        let node = Arc::new(codec::decode::<B>(bytes, self.config.dim, page)?);
        if let Some(cache) = &self.cache {
            cache.insert(page, Arc::clone(&node));
        }
        Ok(node)
    }

    /// Encodes and writes `node` to `page`, invalidating any cached
    /// decode so readers never see a stale node.
    pub(crate) fn write_node(&self, page: PageId, node: &Node) -> Result<()> {
        self.store
            .write(page, codec::encode::<B>(node, self.config.dim))?;
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

    /// Validates the tree invariants; see [`crate::validate`].
    pub fn validate(&self) -> Result<std::result::Result<(), crate::ValidationError>> {
        crate::validate::validate(self)
    }

    /// Inserts a point with its object id.
    ///
    /// A point of the wrong dimensionality or with a non-finite
    /// coordinate is refused before any page is touched: a NaN would
    /// poison the bound of every node on its path.
    pub fn insert(&mut self, point: Point, object: u64) -> Result<()> {
        crate::bulk::validate_coords(point.coords(), self.config.dim)?;
        crate::insert::insert_object(self, point.coords(), object)
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
            fill_sum += node.len() as f64 / self.config.max_entries(node.is_leaf()) as f64;
            node_count += 1;
            let placement = self.store.placement(page)?;
            pages_per_disk[placement.disk.index()] += 1;
            if !node.is_leaf() {
                stack.extend(node.children());
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

impl<S: PageStore, B: Bound> std::fmt::Debug for PagedTree<S, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(B::NAME)
            .field("dim", &self.config.dim)
            .field("height", &self.height)
            .field("num_objects", &self.num_objects)
            .field("root", &self.root)
            .finish()
    }
}
