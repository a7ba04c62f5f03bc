//! The SS-tree: creation, insertion with centroid-guided descent,
//! variance-based splits, and declustered page placement.

use crate::codec;
use crate::node::{SsLeafEntry, SsNode, SsSphereEntry};
use sqda_geom::{GeomError, Point};
use sqda_storage::{DiskId, IoStats, NodeCache, PageId, PageStore, StorageError};
use std::sync::Arc;

/// Errors from SS-tree operations.
#[derive(Debug)]
pub enum SsError {
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
}

impl From<StorageError> for SsError {
    fn from(e: StorageError) -> Self {
        SsError::Storage(e)
    }
}
impl From<GeomError> for SsError {
    fn from(e: GeomError) -> Self {
        SsError::Geometry(e)
    }
}
impl std::fmt::Display for SsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsError::Storage(e) => write!(f, "storage error: {e}"),
            SsError::Geometry(e) => write!(f, "geometry error: {e}"),
            SsError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: tree is {expected}-d, point is {got}-d"
                )
            }
        }
    }
}
impl std::error::Error for SsError {}

/// SS-tree failures cross the query-engine boundary as [`sqda_core::QueryError`]
/// like every other access method's.
impl From<SsError> for sqda_core::QueryError {
    fn from(e: SsError) -> Self {
        match e {
            SsError::Storage(e) => sqda_core::QueryError::from(e),
            SsError::Geometry(_) | SsError::DimensionMismatch { .. } => {
                sqda_core::QueryError::Invariant(e.to_string())
            }
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SsError>;

/// SS-tree configuration. Sphere entries store `d + 1` scalars instead of
/// the MBR's `2d`, so directory fan-out is nearly double the R\*-tree's
/// at the same page size — one of the SS-tree's selling points.
#[derive(Debug, Clone, PartialEq)]
pub struct SsConfig {
    /// Dimensionality.
    pub dim: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Max entries per internal node.
    pub max_internal_entries: usize,
    /// Max entries per leaf.
    pub max_leaf_entries: usize,
    /// Minimum fill fraction (40%, as in the SS-tree paper).
    pub min_fill_fraction: f64,
}

impl SsConfig {
    /// Default 4 KiB pages.
    pub fn new(dim: usize) -> Self {
        Self::with_page_size(dim, sqda_storage::DEFAULT_PAGE_SIZE)
    }

    /// Explicit page size.
    ///
    /// # Panics
    ///
    /// Panics for zero dimensionality or pages too small for 4 entries.
    pub fn with_page_size(dim: usize, page_size: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        let max_internal = (page_size - codec::HEADER_SIZE) / codec::internal_entry_size(dim);
        let max_leaf = (page_size - codec::HEADER_SIZE) / codec::leaf_entry_size(dim);
        assert!(
            max_internal >= 4 && max_leaf >= 4,
            "page size {page_size} too small for {dim}-d SS-tree nodes"
        );
        Self {
            dim,
            page_size,
            max_internal_entries: max_internal,
            max_leaf_entries: max_leaf,
            min_fill_fraction: 0.4,
        }
    }

    /// Caps capacities (tests).
    ///
    /// # Panics
    ///
    /// Panics if `max < 4`.
    pub fn with_max_entries(mut self, max: usize) -> Self {
        assert!(max >= 4, "nodes need at least 4 entries");
        self.max_internal_entries = self.max_internal_entries.min(max);
        self.max_leaf_entries = self.max_leaf_entries.min(max);
        self
    }

    /// Minimum internal entries.
    pub fn min_internal_entries(&self) -> usize {
        min_fill(self.max_internal_entries, self.min_fill_fraction)
    }

    /// Minimum leaf entries.
    pub fn min_leaf_entries(&self) -> usize {
        min_fill(self.max_leaf_entries, self.min_fill_fraction)
    }
}

fn min_fill(max: usize, fraction: f64) -> usize {
    (((max as f64) * fraction).round() as usize).clamp(2, max / 2)
}

/// A declustered SS-tree (insert + query; deletion is provided by
/// rebuilding in this reproduction — the paper's experiments never
/// delete through the SS-tree).
pub struct SsTree<S: PageStore> {
    store: Arc<S>,
    config: SsConfig,
    root: PageId,
    height: u32,
    num_objects: u64,
    next_disk: std::sync::atomic::AtomicU64,
    cache: Option<Arc<NodeCache<SsNode>>>,
}

impl<S: PageStore> SsTree<S> {
    /// Creates an empty tree (root leaf on disk 0).
    pub fn create(store: Arc<S>, config: SsConfig) -> Result<Self> {
        let root = store.allocate(DiskId(0))?;
        store.write(root, codec::encode_node(&SsNode::Leaf(vec![]), config.dim))?;
        Ok(Self {
            store,
            config,
            root,
            height: 1,
            num_objects: 0,
            next_disk: std::sync::atomic::AtomicU64::new(1),
            cache: None,
        })
    }

    /// Attaches a decoded-node cache; subsequent `read_node` calls that
    /// hit it skip both the page read and the decode.
    pub fn with_node_cache(mut self, cache: Arc<NodeCache<SsNode>>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches (or replaces) a decoded-node cache.
    pub fn set_node_cache(&mut self, cache: Arc<NodeCache<SsNode>>) {
        self.cache = Some(cache);
    }

    /// The attached decoded-node cache, if any.
    pub fn node_cache(&self) -> Option<&Arc<NodeCache<SsNode>>> {
        self.cache.as_ref()
    }

    /// Store I/O counters merged with the node-cache counters.
    pub fn io_stats(&self) -> IoStats {
        let mut stats = self.store.stats();
        if let Some(cache) = &self.cache {
            let c = cache.stats();
            stats.cache_hits = c.hits;
            stats.cache_misses = c.misses;
        }
        stats
    }

    /// The root page.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Indexed objects.
    pub fn num_objects(&self) -> u64 {
        self.num_objects
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The configuration.
    pub fn config(&self) -> &SsConfig {
        &self.config
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Reads a node, consulting the decoded-node cache when one is
    /// attached.
    ///
    /// Returns a shared handle: a cache hit is a reference-count bump, no
    /// entry data is copied or re-decoded.
    pub fn read_node(&self, page: PageId) -> Result<Arc<SsNode>> {
        let dim = self.config.dim;
        match &self.cache {
            Some(cache) => cache.read_through(self.store.as_ref(), page, |bytes| {
                codec::decode_node(bytes, dim, page).map_err(SsError::from)
            }),
            None => {
                let bytes = self.store.read(page)?;
                Ok(Arc::new(codec::decode_node(bytes, dim, page)?))
            }
        }
    }

    fn write_node(&self, page: PageId, node: &SsNode) -> Result<()> {
        self.store
            .write(page, codec::encode_node(node, self.config.dim))?;
        if let Some(cache) = &self.cache {
            cache.invalidate(page);
        }
        Ok(())
    }

    /// Places a freshly split node: the disk whose sibling spheres are
    /// least proximal to the new sphere (the PI idea in sphere geometry),
    /// ties broken towards data balance.
    fn allocate_declustered(
        &self,
        center: &Point,
        radius: f64,
        siblings: &[(Point, f64, DiskId)],
    ) -> Result<PageId> {
        let num = self.store.num_disks() as usize;
        if siblings.is_empty() {
            // Round-robin when no geometric signal exists (e.g. new root).
            let d = self
                .next_disk
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(self.store.allocate(DiskId((d % num as u64) as u32))?);
        }
        let mut proximity = vec![0.0f64; num];
        for (c, r, disk) in siblings {
            // Overlap depth of the two spheres (0 when disjoint).
            let gap = center.dist(c) - (radius + r);
            let prox = (-gap).max(0.0);
            proximity[disk.index()] += prox;
        }
        let pages = self.store.pages_per_disk();
        let best = (0..num)
            .min_by(|&a, &b| {
                proximity[a]
                    .partial_cmp(&proximity[b])
                    .expect("finite")
                    .then(
                        pages
                            .get(a)
                            .copied()
                            .unwrap_or(0)
                            .cmp(&pages.get(b).copied().unwrap_or(0)),
                    )
                    .then(a.cmp(&b))
            })
            .unwrap_or(0);
        Ok(self.store.allocate(DiskId(best as u32))?)
    }

    /// Inserts a point. A point of the wrong dimensionality or with a
    /// non-finite coordinate is refused before any page is touched.
    pub fn insert(&mut self, point: Point, object: u64) -> Result<()> {
        if point.dim() != self.config.dim {
            return Err(SsError::DimensionMismatch {
                expected: self.config.dim,
                got: point.dim(),
            });
        }
        if point.coords().iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate.into());
        }
        // Descend by nearest centroid, recording the path. The descent
        // only reads, so it borrows the shared cached nodes.
        let mut path: Vec<(PageId, Option<usize>)> = vec![(self.root, None)];
        let mut node = self.read_node(self.root)?;
        while let SsNode::Internal { entries, .. } = node.as_ref() {
            let idx = entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.center
                        .dist_sq(&point)
                        .partial_cmp(&b.center.dist_sq(&point))
                        .expect("finite")
                })
                .map(|(i, _)| i)
                .expect("internal nodes are non-empty");
            let child = entries[idx].child;
            path.push((child, Some(idx)));
            node = self.read_node(child)?;
        }
        let (leaf_page, _) = *path.last().expect("path non-empty");
        // Mutation detaches a private copy; the shared cached node stays
        // untouched for concurrent readers until the write invalidates it.
        let mut current: SsNode = (*node).clone();
        drop(node);
        match &mut current {
            SsNode::Leaf(entries) => entries.push(SsLeafEntry { point, object }),
            SsNode::Internal { .. } => unreachable!("descent ends at a leaf"),
        }

        // Ascend, splitting while over capacity.
        let mut page = leaf_page;
        let mut path_idx = path.len() - 1;
        loop {
            let max = if current.is_leaf() {
                self.config.max_leaf_entries
            } else {
                self.config.max_internal_entries
            };
            if current.len() <= max {
                self.write_node(page, &current)?;
                self.propagate(&path[..=path_idx])?;
                break;
            }
            let (keep, moved) = split_node(&current, &self.config);
            let (mc, mr) = moved.bounding_sphere().expect("non-empty split group");
            let siblings = if page == self.root {
                Vec::new()
            } else {
                let parent = self.read_node(path[path_idx - 1].0)?;
                match parent.as_ref() {
                    SsNode::Internal { entries, .. } => entries
                        .iter()
                        .map(|e| {
                            let disk = self.store.placement(e.child).map(|p| p.disk);
                            disk.map(|d| (e.center.clone(), e.radius, d))
                        })
                        .collect::<std::result::Result<Vec<_>, _>>()?,
                    SsNode::Leaf(_) => unreachable!("parents are internal"),
                }
            };
            let new_page = self.allocate_declustered(&mc, mr, &siblings)?;
            self.write_node(page, &keep)?;
            self.write_node(new_page, &moved)?;
            let (kc, kr) = keep.bounding_sphere().expect("non-empty split group");
            let keep_entry = SsSphereEntry {
                center: kc,
                radius: kr,
                child: page,
                count: keep.object_count(),
            };
            let moved_entry = SsSphereEntry {
                center: mc,
                radius: mr,
                child: new_page,
                count: moved.object_count(),
            };
            if page == self.root {
                let new_level = current.level() + 1;
                let root_node = SsNode::Internal {
                    level: new_level,
                    entries: vec![keep_entry, moved_entry],
                };
                let root_page = {
                    let d = self
                        .next_disk
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.store
                        .allocate(DiskId((d % self.store.num_disks() as u64) as u32))?
                };
                self.write_node(root_page, &root_node)?;
                self.root = root_page;
                self.height += 1;
                break;
            }
            path_idx -= 1;
            page = path[path_idx].0;
            let child_idx = path[path_idx + 1].1.expect("non-root path step");
            let mut parent = (*self.read_node(page)?).clone();
            match &mut parent {
                SsNode::Internal { entries, .. } => {
                    entries[child_idx] = keep_entry;
                    entries.push(moved_entry);
                }
                SsNode::Leaf(_) => unreachable!("parents are internal"),
            }
            current = parent;
        }
        self.num_objects += 1;
        Ok(())
    }

    /// Recomputes centroid/radius/count along the path, bottom-up.
    fn propagate(&self, path: &[(PageId, Option<usize>)]) -> Result<()> {
        for i in (1..path.len()).rev() {
            let child = self.read_node(path[i].0)?;
            let parent_page = path[i - 1].0;
            let mut parent = (*self.read_node(parent_page)?).clone();
            let idx = path[i].1.expect("non-root step");
            match &mut parent {
                SsNode::Internal { entries, .. } => {
                    let (c, r) = child.bounding_sphere().expect("non-empty child");
                    let e = &mut entries[idx];
                    debug_assert_eq!(e.child, path[i].0);
                    e.center = c;
                    e.radius = r;
                    e.count = child.object_count();
                }
                SsNode::Leaf(_) => unreachable!("path interior nodes are internal"),
            }
            self.write_node(parent_page, &parent)?;
        }
        Ok(())
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<std::result::Result<(), crate::SsValidationError>> {
        crate::validate::validate(self)
    }
}

/// Variance-based split (White & Jain): pick the dimension with the
/// highest variance of entry centers, sort along it, and cut at the
/// position minimizing the summed variance of the two groups.
fn split_node(node: &SsNode, config: &SsConfig) -> (SsNode, SsNode) {
    match node {
        SsNode::Leaf(entries) => {
            let m = config.min_leaf_entries();
            let centers: Vec<&Point> = entries.iter().map(|e| &e.point).collect();
            let (g1, g2) = variance_split(&centers, m);
            (
                SsNode::Leaf(g1.into_iter().map(|i| entries[i].clone()).collect()),
                SsNode::Leaf(g2.into_iter().map(|i| entries[i].clone()).collect()),
            )
        }
        SsNode::Internal { level, entries } => {
            let m = config.min_internal_entries();
            let centers: Vec<&Point> = entries.iter().map(|e| &e.center).collect();
            let (g1, g2) = variance_split(&centers, m);
            (
                SsNode::Internal {
                    level: *level,
                    entries: g1.into_iter().map(|i| entries[i].clone()).collect(),
                },
                SsNode::Internal {
                    level: *level,
                    entries: g2.into_iter().map(|i| entries[i].clone()).collect(),
                },
            )
        }
    }
}

fn variance_split(centers: &[&Point], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = centers.len();
    debug_assert!(n >= 2 * m);
    let dim = centers[0].dim();
    // Dimension of maximum variance.
    let mut best_dim = 0;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..dim {
        let mean: f64 = centers.iter().map(|c| c.coord(d)).sum::<f64>() / n as f64;
        let var: f64 = centers
            .iter()
            .map(|c| {
                let x = c.coord(d) - mean;
                x * x
            })
            .sum::<f64>();
        if var > best_var {
            best_var = var;
            best_dim = d;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        centers[a]
            .coord(best_dim)
            .partial_cmp(&centers[b].coord(best_dim))
            .expect("finite")
            .then(a.cmp(&b))
    });
    // Prefix sums of x and x² along the split dimension for O(1) group
    // variances.
    let xs: Vec<f64> = order.iter().map(|&i| centers[i].coord(best_dim)).collect();
    let mut sum = vec![0.0f64; n + 1];
    let mut sum2 = vec![0.0f64; n + 1];
    for i in 0..n {
        sum[i + 1] = sum[i] + xs[i];
        sum2[i + 1] = sum2[i] + xs[i] * xs[i];
    }
    let group_var = |lo: usize, hi: usize| -> f64 {
        let cnt = (hi - lo) as f64;
        let s = sum[hi] - sum[lo];
        let s2 = sum2[hi] - sum2[lo];
        s2 - s * s / cnt
    };
    let mut best_cut = m;
    let mut best_cost = f64::INFINITY;
    for cut in m..=(n - m) {
        let cost = group_var(0, cut) + group_var(cut, n);
        if cost < best_cost {
            best_cost = cost;
            best_cut = cut;
        }
    }
    (order[..best_cut].to_vec(), order[best_cut..].to_vec())
}

impl<S: PageStore> sqda_core::AccessMethod for SsTree<S> {
    fn root_page(&self) -> PageId {
        self.root
    }

    fn num_disks(&self) -> u32 {
        self.store.num_disks()
    }

    fn read_index_node(
        &self,
        page: PageId,
    ) -> std::result::Result<sqda_core::IndexNode, sqda_core::QueryError> {
        Ok(self.read_node(page)?.as_ref().into())
    }

    fn placement(
        &self,
        page: PageId,
    ) -> std::result::Result<sqda_storage::Placement, sqda_core::QueryError> {
        self.store
            .placement(page)
            .map_err(sqda_core::QueryError::from)
    }
}

/// The one place an SS-tree node becomes the algorithms' view of it (the
/// R\*-tree's counterpart lives in `sqda_core::access`). Borrowing form:
/// the source node usually lives in the shared cache, so conversion packs
/// the entries into the flat block layout the batch distance kernels run
/// over, without consuming the cached value.
impl From<&SsNode> for sqda_core::IndexNode {
    fn from(node: &SsNode) -> Self {
        match node {
            SsNode::Leaf(entries) => {
                let dim = entries.first().map_or(0, |e| e.point.dim());
                let coords: Vec<f64> = entries
                    .iter()
                    .flat_map(|e| e.point.coords().iter().copied())
                    .collect();
                let ids: Vec<u64> = entries.iter().map(|e| e.object).collect();
                sqda_core::IndexNode::Leaf(sqda_core::LeafBlock::new(
                    dim,
                    coords.into_boxed_slice(),
                    ids.into_boxed_slice(),
                ))
            }
            SsNode::Internal { entries, .. } => {
                let dim = entries.first().map_or(0, |e| e.center.dim());
                let centers: Vec<f64> = entries
                    .iter()
                    .flat_map(|e| e.center.coords().iter().copied())
                    .collect();
                let radii: Vec<f64> = entries.iter().map(|e| e.radius).collect();
                // `[child, count]` pairs, the form the block reads.
                let links: Vec<u64> = entries
                    .iter()
                    .flat_map(|e| [e.child.as_raw(), e.count])
                    .collect();
                sqda_core::IndexNode::Internal(sqda_core::InternalBlock::from_spheres(
                    dim,
                    centers.into_boxed_slice(),
                    radii.into_boxed_slice(),
                    links.into_boxed_slice(),
                ))
            }
        }
    }
}

impl From<SsNode> for sqda_core::IndexNode {
    fn from(node: SsNode) -> Self {
        (&node).into()
    }
}

impl<S: PageStore> std::fmt::Debug for SsTree<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTree")
            .field("dim", &self.config.dim)
            .field("height", &self.height)
            .field("num_objects", &self.num_objects)
            .finish()
    }
}
