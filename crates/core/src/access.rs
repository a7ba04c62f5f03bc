//! The access-method abstraction.
//!
//! The paper notes (Section 1) that the proposed similarity-search
//! algorithm "supports all variants of the R-tree family as well as
//! TV-trees, SS-trees, X-trees and SR-trees, with some modifications".
//! This module is that claim made concrete: the algorithms only ever see
//! [`IndexNode`]s — leaves of data points and directories of
//! count-annotated bounding regions — so any hierarchical, declustered
//! access method that can serve this view runs BBSS, FPSS, CRSS and
//! WOPTSS unchanged. Both of `sqda-rstar`'s paged trees — the R\*-tree
//! (rectangles) and the SS-tree (spheres) — implement it, through one
//! impl over `sqda_rstar::PagedTree`.
//!
//! Nodes are stored **flat**: one contiguous coordinate block per node
//! plus one integer block (object ids, or `[child, count]` pairs) — the
//! layout of `sqda_rstar::Node`, which mirrors the page. The batch
//! distance kernels in [`sqda_geom::kernel`] run directly over these
//! blocks, so decoding a node materialises no per-entry `Point`/`Rect`
//! allocations and the hot paths compute whole-node distance vectors in
//! one call.
//!
//! An [`IndexNode`] is a **handle** on the decoded node itself
//! (`Arc<Node>`), the same one the tree's decoded-node cache holds:
//! serving a node from the cache is one reference-count bump and copies
//! nothing, for either tree.

use crate::best_first::QueueItem;
use crate::error::QueryError;
use sqda_geom::{kernel, Point, Region};
use sqda_rstar::{Bound, Node, PagedTree};
use sqda_storage::{PageId, Placement};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A decoded leaf: `len` data points of dimension `dim` stored
/// back-to-back in one coordinate block, with a parallel object-id array.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafBlock(Arc<Node>);

impl LeafBlock {
    /// Number of data points.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the leaf holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// The whole coordinate block (stride [`LeafBlock::dim`]).
    #[inline]
    pub fn coords(&self) -> &[f64] {
        self.0.coords()
    }

    /// Coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        self.0.leaf_point(i)
    }

    /// Raw object id of point `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.0.payload()[i]
    }

    /// The object-id array.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        self.0.payload()
    }

    /// Iterates `(coords, id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], u64)> + '_ {
        self.0
            .leaf_iter()
            .map(|(coords, object)| (coords, object.0))
    }

    /// Squared distance from `q` to **every** point of the leaf in one
    /// batched kernel call; `out` is a reusable scratch buffer. Results
    /// are bit-identical to per-entry [`Point::dist_sq`].
    #[inline]
    pub fn dist_sq_into(&self, q: &[f64], out: &mut Vec<f64>) {
        debug_assert!(
            self.is_empty() || q.len() == self.dim(),
            "query dim mismatch"
        );
        if self.is_empty() {
            out.clear();
            return;
        }
        kernel::batch_dist_sq(q, self.coords(), out);
    }
}

/// A decoded directory node: flat region storage plus the entries'
/// `[child page, subtree count]` pairs in one block, as the page stores
/// them (the count augmentation every supported access method must
/// provide — Lemma 1 depends on it).
///
/// A node's entries are homogeneous (R\*-trees bound with rectangles,
/// SS-trees with spheres), so one discriminant per node suffices and the
/// coordinate blocks stay contiguous for the batch kernels. Either way
/// the node is read in place and its payload is the links.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalBlock(Directory);

#[derive(Debug, Clone, PartialEq)]
enum Directory {
    /// Entry `i`'s MBR occupies `[i*2*dim .. (i+1)*2*dim]` of the
    /// coordinate block — `dim` low coordinates then `dim` high.
    Rects(Arc<Node>),
    /// Entry `i`'s sphere occupies `[i*(dim+1) .. (i+1)*(dim+1)]` — `dim`
    /// center coordinates then the radius.
    Spheres(Arc<Node>),
}

impl InternalBlock {
    /// The node the directory reads in place.
    #[inline]
    fn node(&self) -> &Node {
        match &self.0 {
            Directory::Rects(node) | Directory::Spheres(node) => node,
        }
    }

    /// The `[child, count]` pairs, entry after entry.
    #[inline]
    fn links(&self) -> &[u64] {
        self.node().payload()
    }

    /// Number of directory entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.links().len() / 2
    }

    /// `true` when the directory has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links().is_empty()
    }

    /// Region dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.node().dim()
    }

    /// Child page of entry `i`.
    #[inline]
    pub fn child(&self, i: usize) -> PageId {
        PageId::from_raw(self.links()[2 * i])
    }

    /// Subtree object count of entry `i`.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.links()[2 * i + 1]
    }

    /// Iterates the subtree counts.
    pub fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.links().iter().skip(1).step_by(2).copied()
    }

    /// Iterates the child pages.
    pub fn children(&self) -> impl Iterator<Item = PageId> + '_ {
        self.links()
            .iter()
            .step_by(2)
            .map(|&raw| PageId::from_raw(raw))
    }

    /// Materialises entry `i`'s bounding region (presentation/debug
    /// paths; the hot paths use the batch kernels instead).
    pub fn region(&self, i: usize) -> Region {
        match &self.0 {
            Directory::Rects(node) => Region::Rect(node.internal_rect(i).to_rect()),
            Directory::Spheres(node) => {
                let (center, radius) = node.entry(i).0.split_at(node.dim());
                Region::sphere(Point::from(center), radius[0])
            }
        }
    }

    /// `D_min²` from `q` to **every** region in one batched kernel call;
    /// `out` is a reusable scratch buffer. Bit-identical to per-entry
    /// [`Region::min_dist_sq`].
    pub fn min_dist_sq_into(&self, q: &[f64], out: &mut Vec<f64>) {
        debug_assert!(
            self.is_empty() || q.len() == self.dim(),
            "query dim mismatch"
        );
        if self.is_empty() {
            out.clear();
            return;
        }
        match &self.0 {
            Directory::Rects(node) => kernel::batch_min_dist_sq(q, node.coords(), out),
            Directory::Spheres(node) => kernel::batch_sphere_min_dist_sq(q, node.coords(), out),
        }
    }

    /// All three metrics (`D_min²`, `D_mm²`, `D_max²`) from `q` to every
    /// region in one sweep — what CRSS/FPSS candidate construction needs.
    /// Bit-identical to the per-entry [`Region`] metrics.
    pub fn metrics_into(
        &self,
        q: &[f64],
        d_min: &mut Vec<f64>,
        d_mm: &mut Vec<f64>,
        d_max: &mut Vec<f64>,
    ) {
        debug_assert!(
            self.is_empty() || q.len() == self.dim(),
            "query dim mismatch"
        );
        if self.is_empty() {
            d_min.clear();
            d_mm.clear();
            d_max.clear();
            return;
        }
        match &self.0 {
            Directory::Rects(node) => {
                kernel::batch_rect_metrics(q, node.coords(), d_min, d_mm, d_max)
            }
            Directory::Spheres(node) => {
                kernel::batch_sphere_metrics(q, node.coords(), d_min, d_mm, d_max)
            }
        }
    }
}

/// A decoded index node, as the search algorithms see it.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexNode {
    /// A leaf: a flat block of data points with raw object ids.
    Leaf(LeafBlock),
    /// A directory node: flat regions plus child pages and counts.
    Internal(InternalBlock),
}

impl IndexNode {
    /// `true` for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, IndexNode::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            IndexNode::Leaf(b) => b.len(),
            IndexNode::Internal(b) => b.len(),
        }
    }

    /// `true` when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node's level in its tree: 0 for leaves, rising towards the
    /// root.
    pub(crate) fn level(&self) -> u32 {
        match self {
            IndexNode::Leaf(_) => 0,
            IndexNode::Internal(b) => b.node().level(),
        }
    }

    /// Why a query point `q` cannot be searched in this node: its
    /// dimensionality differs from the node's. `None` when it fits, and
    /// for an empty node with no dimensionality to compare.
    pub(crate) fn dim_mismatch(&self, q: &[f64]) -> Option<String> {
        let dim = match self {
            IndexNode::Leaf(b) => b.dim(),
            IndexNode::Internal(b) => b.dim(),
        };
        (dim != 0 && dim != q.len()).then(|| {
            format!(
                "query point has {} dimensions but the tree has {dim}",
                q.len()
            )
        })
    }
}

/// A declustered hierarchical index the similarity-search algorithms can
/// run over.
pub trait AccessMethod: Send + Sync {
    /// The root page.
    fn root_page(&self) -> PageId;

    /// Number of disks in the backing array (CRSS's activation bound).
    fn num_disks(&self) -> u32;

    /// Reads and decodes one node.
    fn read_index_node(&self, page: PageId) -> Result<IndexNode, QueryError>;

    /// Physical placement of a page (the simulator's timing input).
    fn placement(&self, page: PageId) -> Result<Placement, QueryError>;

    /// Probes the access method's decoded-node cache *without* reading
    /// the page on a miss. Engines that submit page reads through an
    /// [`sqda_storage::IoBackend`] probe here first, so cache hit/miss
    /// accounting matches the read-through path of
    /// [`AccessMethod::read_index_node`] exactly. The default (no cache)
    /// reports every probe as a miss.
    fn cached_index_node(&self, page: PageId) -> Result<Option<IndexNode>, QueryError> {
        let _ = page;
        Ok(None)
    }

    /// Decodes page bytes fetched out-of-band (the completion half of a
    /// batched read), populating the cache so a later probe hits. The
    /// default ignores the bytes and re-reads through
    /// [`AccessMethod::read_index_node`] — correct, but paying the page
    /// read twice; access methods with a codec should override.
    fn decode_index_node(
        &self,
        page: PageId,
        bytes: sqda_storage::Bytes,
    ) -> Result<IndexNode, QueryError> {
        let _ = bytes;
        self.read_index_node(page)
    }
}

/// The one place an R\*-tree node becomes the algorithms' view of it:
/// the view *is* the shared node, whose flat blocks the kernels read in
/// place.
impl From<Arc<Node>> for IndexNode {
    fn from(node: Arc<Node>) -> Self {
        if node.is_leaf() {
            IndexNode::Leaf(LeafBlock(node))
        } else {
            IndexNode::Internal(InternalBlock(Directory::Rects(node)))
        }
    }
}

impl IndexNode {
    /// The algorithms' view of a node of a `B`-bounded tree: a sphere
    /// directory for the SS-tree, else as [`From<Arc<Node>>`]. `B` is a
    /// type parameter, so the choice is made at compile time.
    fn of<B: Bound>(node: Arc<Node>) -> Self {
        if B::SPHERES && !node.is_leaf() {
            IndexNode::Internal(InternalBlock(Directory::Spheres(node)))
        } else {
            node.into()
        }
    }
}

impl<S: sqda_storage::PageStore, B: Bound> AccessMethod for PagedTree<S, B> {
    fn root_page(&self) -> PageId {
        PagedTree::root_page(self)
    }

    fn num_disks(&self) -> u32 {
        self.store().num_disks()
    }

    fn read_index_node(&self, page: PageId) -> Result<IndexNode, QueryError> {
        Ok(IndexNode::of::<B>(self.read_node(page)?))
    }

    fn placement(&self, page: PageId) -> Result<Placement, QueryError> {
        Ok(self.store().placement(page)?)
    }

    fn cached_index_node(&self, page: PageId) -> Result<Option<IndexNode>, QueryError> {
        Ok(self.cached_node(page).map(IndexNode::of::<B>))
    }

    fn decode_index_node(
        &self,
        page: PageId,
        bytes: sqda_storage::Bytes,
    ) -> Result<IndexNode, QueryError> {
        Ok(IndexNode::of::<B>(self.decode_node_bytes(page, bytes)?))
    }
}

/// Reusable per-query workspace: the best-first priority heap, the
/// fetched-batch buffer, the batch-kernel distance buffer and the
/// algorithms' working memory survive between queries, so a steady-state
/// query sweep performs no per-query allocations for any of them. One
/// scratch per worker thread; any scratch works with any access method
/// (it carries no query state between runs).
#[derive(Default)]
pub struct QueryScratch {
    /// The priority heap of [`crate::best_first_knn_with`] (and the
    /// WOPTSS oracle).
    pub(crate) heap: BinaryHeap<QueueItem>,
    /// The coordinates of the objects on that heap, leaf block after
    /// leaf block.
    pub(crate) points: Vec<f64>,
    /// Staging buffer for fetched `(page, node)` batches; executors fill
    /// it, algorithms drain it in place.
    pub batch: Vec<(PageId, IndexNode)>,
    /// The pages of the batch being fetched; executors fill it from the
    /// session's pending step.
    pub(crate) pages: Vec<PageId>,
    /// The real-clock engine's buffers for reading one round of pages.
    pub(crate) round: crate::exec::Round,
    /// Per-node distance vector for the batch kernels.
    pub dists: Vec<f64>,
    /// What the four algorithms run on; [`crate::AlgorithmKind::build_with`]
    /// lends it to the algorithm it builds, the session returns it.
    pub(crate) algo: crate::algo::AlgoScratch,
    /// The real-clock engine's record of the query it last ran.
    pub(crate) record: sqda_obs::QueryExplain,
}

impl QueryScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record of the query the real-clock engine last ran over this
    /// scratch ([`crate::RealTimeEngine::query`]).
    pub fn record(&self) -> &sqda_obs::QueryExplain {
        &self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_rstar::decluster::ProximityIndex;
    use sqda_rstar::{RStarConfig, RStarTree};
    use sqda_storage::ArrayStore;
    use std::sync::Arc;

    #[test]
    fn rstar_tree_serves_index_nodes() {
        let store = Arc::new(ArrayStore::new(4, 100, 1));
        let mut tree = RStarTree::create(
            store,
            RStarConfig::new(2).with_max_entries(4),
            Box::new(ProximityIndex),
        )
        .unwrap();
        for i in 0..40u64 {
            tree.insert(Point::new(vec![i as f64, (i * 3 % 11) as f64]), i)
                .unwrap();
        }
        let root = AccessMethod::read_index_node(&tree, AccessMethod::root_page(&tree)).unwrap();
        assert!(!root.is_leaf());
        assert!(!root.is_empty());
        if let IndexNode::Internal(block) = &root {
            let total: u64 = block.counts().sum();
            assert_eq!(total, 40);
            assert_eq!(block.dim(), 2);
            assert_eq!(block.children().count(), block.len());
        }
        // Best-first over the view equals a brute-force scan.
        let q = Point::new(vec![5.0, 5.0]);
        let got = crate::best_first_knn(&tree, &q, 7).unwrap();
        let mut want: Vec<f64> = (0..40u64)
            .map(|i| q.dist_sq(&Point::new(vec![i as f64, (i * 3 % 11) as f64])))
            .collect();
        want.sort_by(f64::total_cmp);
        let got: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
        assert_eq!(got, want[..7]);
    }

    #[test]
    fn block_conversion_matches_node_accessors() {
        let store = Arc::new(ArrayStore::new(2, 100, 7));
        let mut tree = RStarTree::create(
            store,
            RStarConfig::new(3).with_max_entries(5),
            Box::new(ProximityIndex),
        )
        .unwrap();
        for i in 0..60u64 {
            let f = i as f64;
            tree.insert(Point::new(vec![f, (f * 0.5).sin(), -f]), i)
                .unwrap();
        }
        // Every node round-trips: the flat block view agrees with the
        // source node's per-entry accessors, bit for bit.
        let mut stack = vec![AccessMethod::root_page(&tree)];
        let q = Point::new(vec![3.0, 0.25, -4.0]);
        let mut d_min = Vec::new();
        let mut d_mm = Vec::new();
        let mut d_max = Vec::new();
        while let Some(page) = stack.pop() {
            let node = tree.read_node(page).unwrap();
            let view: IndexNode = Arc::clone(&node).into();
            assert_eq!(view.len(), node.len());
            match &view {
                IndexNode::Leaf(leaf) => {
                    leaf.dist_sq_into(q.coords(), &mut d_min);
                    for (i, (coords, id)) in leaf.iter().enumerate() {
                        assert_eq!(coords, node.leaf_point(i));
                        assert_eq!(id, node.leaf_object(i).0);
                        assert_eq!(
                            d_min[i].to_bits(),
                            q.dist_sq_coords(node.leaf_point(i)).to_bits()
                        );
                    }
                }
                IndexNode::Internal(block) => {
                    block.metrics_into(q.coords(), &mut d_min, &mut d_mm, &mut d_max);
                    for i in 0..block.len() {
                        let r = node.internal_rect(i);
                        assert_eq!(block.child(i), node.internal_child(i));
                        assert_eq!(block.count(i), node.internal_count(i));
                        assert_eq!(d_min[i].to_bits(), r.min_dist_sq(q.coords()).to_bits());
                        assert_eq!(d_mm[i].to_bits(), r.min_max_dist_sq(q.coords()).to_bits());
                        assert_eq!(d_max[i].to_bits(), r.max_dist_sq(q.coords()).to_bits());
                        assert_eq!(block.region(i), Region::Rect(r.to_rect()));
                        stack.push(block.child(i));
                    }
                }
            }
        }
    }
}
