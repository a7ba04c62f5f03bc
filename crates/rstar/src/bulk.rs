//! STR (Sort-Tile-Recursive) bulk loading.
//!
//! The paper explicitly targets *dynamic* environments and rejects
//! complete reorganization of the database — but the reorganized tree is
//! the natural baseline: bulk loading produces near-100% fill and
//! minimal overlap, showing how much query I/O the incremental R\*-tree
//! gives up in exchange for dynamism. The `ablation_bulk_vs_incremental`
//! experiment quantifies exactly that.
//!
//! Algorithm (Leutenegger et al., STR): sort the points by the first
//! coordinate, cut them into vertical slabs, sort each slab by the next
//! coordinate, recurse; each final tile fills one leaf. Upper levels tile
//! the child MBR centers the same way.

use crate::entry::{InternalEntry, LeafEntry, ObjectId};
use crate::node::Node;
use crate::tree::{RStarError, Result};
use crate::RStarTree;
use crate::{Declusterer, RStarConfig};
use sqda_geom::{Point, Rect};
use sqda_storage::{DiskId, PageId, PageStore};
use std::ops::Range;
use std::sync::Arc;

/// How a bulk load linearizes the input before packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingOrder {
    /// Sort-Tile-Recursive (Leutenegger et al.) — the default.
    #[default]
    Str,
    /// Z-order (Morton) curve; any dimensionality up to 8.
    Morton,
    /// Hilbert curve (2-d data only), as in the Hilbert-packed R-tree.
    Hilbert,
}

/// How bulk-written pages pick their sibling window for declustering.
#[derive(Clone, Copy)]
pub(crate) enum PlacementMode {
    /// Each page is declustered against a trailing window of the most
    /// recently written pages at its level (packing order is spatial
    /// order, so recent = nearby) — the classic bulk-load placement, and
    /// the in-memory builder's.
    Trailing,
    /// Pages are grouped by prospective parent (consecutive groups of
    /// the directory fan-out) and each page is declustered only against
    /// the members of its own group placed so far: the tiles of one
    /// parent land on distinct disks — one stripe — so a traversal that
    /// expands a parent reads its children in parallel. The external
    /// builder's.
    SiblingStripe,
}

/// Rejects packing orders the space-filling-curve keys cannot encode.
pub(crate) fn validate_packing(order: PackingOrder, dim: usize) -> Result<()> {
    match order {
        PackingOrder::Hilbert if dim != 2 => Err(RStarError::UnsupportedPacking {
            order: "Hilbert",
            dim,
        }),
        PackingOrder::Morton if dim > 8 => Err(RStarError::UnsupportedPacking {
            order: "Morton",
            dim,
        }),
        _ => Ok(()),
    }
}

/// Smallest `s ≥ 1` with `s.pow(k) ≥ n`, in exact integer arithmetic.
///
/// The float route — `(n as f64).powf(1.0 / k as f64).ceil()` — misses
/// at perfect powers (`27f64.powf(1.0 / 3.0)` is `3.000…0004`, which
/// ceils to 4) and drifts further as `n` grows past 2^53; the exact root
/// keeps slab counts (and therefore tile fill) right at any scale.
pub(crate) fn ceil_root(n: usize, k: u32) -> usize {
    if n <= 1 {
        return n;
    }
    if k <= 1 {
        return n;
    }
    // `s^k ≥ n`, saturating on overflow (an overflowing power certainly
    // exceeds any usize-sized `n`).
    let at_least = |s: usize| -> bool { (s as u128).checked_pow(k).is_none_or(|p| p >= n as u128) };
    // Start from the float guess and correct it exactly.
    let mut s = ((n as f64).powf(1.0 / f64::from(k)).round() as usize).max(1);
    while s > 1 && at_least(s - 1) {
        s -= 1;
    }
    while !at_least(s) {
        s += 1;
    }
    s
}

/// Writes one level's nodes incrementally, placing each page with the
/// declusterer against a sibling window chosen by [`PlacementMode`].
///
/// Shared by the in-memory and external builders so both produce the
/// same placement for the same node sequence.
pub(crate) struct LevelWriter<'a, S: PageStore> {
    tree: &'a RStarTree<S>,
    mode: PlacementMode,
    group: usize,
    /// The most recently placed pages: at least the last `WINDOW` of
    /// them, never the whole level.
    recent: Vec<(Rect, DiskId)>,
    pages: Vec<PageId>,
}

/// Most siblings a page is declustered against.
const WINDOW: usize = 16;

impl<'a, S: PageStore> LevelWriter<'a, S> {
    pub(crate) fn new(tree: &'a RStarTree<S>, mode: PlacementMode) -> Self {
        Self {
            tree,
            mode,
            group: tree.config.max_internal_entries.max(1),
            recent: Vec::with_capacity(2 * WINDOW),
            pages: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, node: &Node) -> Result<PageId> {
        let mbr = node
            .mbr()
            .ok_or_else(|| RStarError::InvalidBuild("empty node in bulk build".into()))?;
        let idx = self.pages.len();
        let siblings = match self.mode {
            PlacementMode::Trailing => idx,
            // Only the already-placed members of this page's own parent
            // group.
            PlacementMode::SiblingStripe => idx % self.group,
        }
        .min(WINDOW);
        let window = &self.recent[self.recent.len() - siblings..];
        let page = self
            .tree
            .store
            .allocate(self.tree.declustered_disk(&mbr, window))?;
        self.tree.write_node(page, node)?;
        let disk = self.tree.store.placement(page)?.disk;
        if self.recent.len() == 2 * WINDOW {
            self.recent.drain(..WINDOW);
        }
        self.recent.push((mbr, disk));
        self.pages.push(page);
        Ok(page)
    }

    pub(crate) fn into_pages(self) -> Vec<PageId> {
        self.pages
    }
}

/// Derives the next level's entries from a written level.
fn parent_entries(nodes: &[Node], pages: &[PageId]) -> Result<Vec<InternalEntry>> {
    nodes
        .iter()
        .zip(pages.iter())
        .map(|(node, page)| {
            let mbr = node
                .mbr()
                .ok_or_else(|| RStarError::InvalidBuild("empty node in bulk build".into()))?;
            Ok(InternalEntry::new(mbr, *page, node.object_count()))
        })
        .collect()
}

impl<S: PageStore> RStarTree<S> {
    /// Builds a tree from scratch by bulk loading in RAM, in the given
    /// packing order: STR tiling, or a space-filling curve (Morton in any
    /// dimension ≤ 8, Hilbert for 2-d). Curve packing sorts the input once
    /// along the curve and cuts it into consecutive full leaves — the
    /// Hilbert-packed R-tree construction.
    ///
    /// Each page is placed on a disk by the declustering heuristic against
    /// a trailing window of the pages written just before it at its level
    /// — its neighbours in packing order, whichever parent they end up
    /// under. (The external builder stripes each parent's children
    /// instead.)
    ///
    /// Returns an empty tree when `points` is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RStarError::UnsupportedPacking`] when
    /// [`PackingOrder::Hilbert`] is requested for non-2-d data or
    /// [`PackingOrder::Morton`] beyond 8 dimensions,
    /// [`RStarError::DimensionMismatch`] for points of the wrong
    /// dimensionality, and [`RStarError::InvalidBuild`] for non-finite
    /// coordinates — all before any page is written.
    pub fn bulk_load(
        store: Arc<S>,
        config: RStarConfig,
        declusterer: Box<dyn Declusterer>,
        points: Vec<(Point, u64)>,
        order: PackingOrder,
    ) -> Result<Self> {
        validate_packing(order, config.dim)?;
        for (p, _) in &points {
            validate_coords(p.coords(), config.dim)?;
        }
        let mut tree = Self::create(store, config, declusterer)?;
        if points.is_empty() {
            return Ok(tree);
        }
        let entries: Vec<LeafEntry> = points
            .into_iter()
            .map(|(p, id)| LeafEntry::new(p, ObjectId(id)))
            .collect();
        tree.bulk_build_from_entries(entries, order, PlacementMode::Trailing)?;
        Ok(tree)
    }

    /// Packs validated leaf entries into this (freshly created) tree:
    /// tiles the leaf level, then builds the directory bottom-up.
    pub(crate) fn bulk_build_from_entries(
        &mut self,
        mut entries: Vec<LeafEntry>,
        order: PackingOrder,
        mode: PlacementMode,
    ) -> Result<()> {
        let num_objects = entries.len() as u64;
        let dim = self.config.dim;
        let leaf_cap = self.config.max_leaf_entries;
        let min_leaf = self.config.min_entries(true);
        let tiles = match order {
            PackingOrder::Str => str_tile(&mut entries, leaf_cap, min_leaf, dim, 0, &leaf_key),
            PackingOrder::Morton | PackingOrder::Hilbert => {
                let (lo, hi) = point_bounds(&entries);
                match order {
                    PackingOrder::Morton => {
                        entries.sort_by_key(|e| crate::sfc::morton_key(&e.point, &lo, &hi))
                    }
                    PackingOrder::Hilbert => {
                        entries.sort_by_key(|e| crate::sfc::hilbert_key_2d(&e.point, &lo, &hi))
                    }
                    PackingOrder::Str => unreachable!(),
                }
                chunk_balanced(entries.len(), leaf_cap, min_leaf).collect()
            }
        };
        let level_nodes: Vec<Node> = tiles
            .into_iter()
            .map(|tile| Node::from_leaf_entries(&entries[tile]))
            .collect();
        let pages = self.write_level_with(&level_nodes, mode)?;
        if level_nodes.len() == 1 {
            return self.install_bulk_root(pages[0], 1, num_objects);
        }
        let parents = parent_entries(&level_nodes, &pages)?;
        self.finish_bulk_from_entries(parents, 1, order, num_objects, mode)
    }

    /// Builds the directory levels from the entries of an already
    /// written level (`level` = the level the first batch of directory
    /// nodes will live at; leaves are level 0). Shared by the in-memory
    /// and external builders.
    pub(crate) fn finish_bulk_from_entries(
        &mut self,
        mut entries: Vec<InternalEntry>,
        mut level: u32,
        order: PackingOrder,
        num_objects: u64,
        mode: PlacementMode,
    ) -> Result<()> {
        let dim = self.config.dim;
        loop {
            let cap = self.config.max_internal_entries;
            let min = self.config.min_entries(false);
            // STR re-tiles each directory level; curve packing keeps the
            // children's curve order and cuts it into consecutive runs.
            let tiles = match order {
                // By MBR center, `Rect::center`'s expression per axis.
                PackingOrder::Str => {
                    str_tile(&mut entries, cap, min, dim, 0, &|e: &InternalEntry, a| {
                        (e.mbr.lo()[a] + e.mbr.hi()[a]) / 2.0
                    })
                }
                PackingOrder::Morton | PackingOrder::Hilbert => {
                    chunk_balanced(entries.len(), cap, min).collect()
                }
            };
            let level_nodes: Vec<Node> = tiles
                .into_iter()
                .map(|tile| Node::from_internal_entries(level, &entries[tile]))
                .collect();
            let pages = self.write_level_with(&level_nodes, mode)?;
            if level_nodes.len() == 1 {
                return self.install_bulk_root(pages[0], level + 1, num_objects);
            }
            entries = parent_entries(&level_nodes, &pages)?;
            level += 1;
        }
    }

    /// Swaps the bulk-loaded root in for the `create` root leaf.
    pub(crate) fn install_bulk_root(
        &mut self,
        root: PageId,
        height: u32,
        num_objects: u64,
    ) -> Result<()> {
        let old_root = self.root;
        self.free_node(old_root)?;
        self.root = root;
        self.height = height;
        self.num_objects = num_objects;
        Ok(())
    }

    /// Writes one level of nodes through a [`LevelWriter`].
    fn write_level_with(&self, nodes: &[Node], mode: PlacementMode) -> Result<Vec<PageId>> {
        let mut writer = LevelWriter::new(self, mode);
        for node in nodes {
            writer.push(node)?;
        }
        Ok(writer.into_pages())
    }
}

/// Rejects points the build cannot represent: wrong dimensionality or
/// non-finite coordinates (which would poison sort keys and MBRs).
pub(crate) fn validate_coords(coords: &[f64], dim: usize) -> Result<()> {
    if coords.len() != dim {
        return Err(RStarError::DimensionMismatch {
            expected: dim,
            got: coords.len(),
        });
    }
    match coords.iter().find(|c| !c.is_finite()) {
        Some(c) => Err(RStarError::InvalidBuild(format!(
            "non-finite coordinate {c}"
        ))),
        None => Ok(()),
    }
}

/// The STR sort key of a leaf entry: its coordinate along `axis`.
pub(crate) fn leaf_key(e: &LeafEntry, axis: usize) -> f64 {
    e.point.coord(axis)
}

/// The coordinate bounds of a set of leaf entries.
fn point_bounds(entries: &[LeafEntry]) -> (Vec<f64>, Vec<f64>) {
    let dim = entries[0].point.dim();
    let mut lo = entries[0].point.coords().to_vec();
    let mut hi = lo.clone();
    for e in &entries[1..] {
        for d in 0..dim {
            let c = e.point.coord(d);
            if c < lo[d] {
                lo[d] = c;
            }
            if c > hi[d] {
                hi[d] = c;
            }
        }
    }
    (lo, hi)
}

/// Recursively tiles `items` (STR): sorts them in place by `key` at
/// `axis`, splits into slabs, recurses into the next axis, and returns
/// the tiles as consecutive ranges of the sorted slice — groups of at
/// most `cap` (and at least `min`, except when fewer items exist in
/// total).
pub(crate) fn str_tile<T>(
    items: &mut [T],
    cap: usize,
    min: usize,
    dim: usize,
    axis: usize,
    key: &impl Fn(&T, usize) -> f64,
) -> Vec<Range<usize>> {
    let n = items.len();
    if n > cap {
        // Coordinates are validated finite on entry; `total_cmp` keeps
        // the sort panic-free even if a caller sneaks a NaN past that.
        items.sort_by(|a, b| key(a, axis).total_cmp(&key(b, axis)));
    }
    if n <= cap || axis + 1 >= dim {
        // Last axis: chunk the sorted run directly.
        return chunk_balanced(n, cap, min).collect();
    }
    let mut tiles = Vec::with_capacity(n.div_ceil(cap));
    for slab in str_slabs(n, cap, min, dim, axis) {
        let at = slab.start;
        let inner = str_tile(&mut items[slab], cap, min, dim, axis + 1, key);
        tiles.extend(inner.into_iter().map(|t| at + t.start..at + t.end));
    }
    tiles
}

/// The STR slabs of `n` items sorted along `axis`: `ceil(n/cap)` pages
/// spread over the exact integer ceil-`(dim-axis)`-th root of that many
/// slabs. The external builder cuts its merged stream with the same
/// iterator, so both tilings agree.
pub(crate) fn str_slabs(
    n: usize,
    cap: usize,
    min: usize,
    dim: usize,
    axis: usize,
) -> impl Iterator<Item = Range<usize>> {
    let slabs = ceil_root(n.div_ceil(cap), (dim - axis) as u32);
    let slab_size = n.div_ceil(slabs).max(cap);
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= n {
            return None;
        }
        let mut end = (start + slab_size).min(n);
        // Never strand a tail smaller than the minimum fill: shrink this
        // slab so the next one stays viable. Safe because
        // `slab_size ≥ cap ≥ 2·min`.
        let tail = n - end;
        if tail > 0 && tail < min {
            end = n - min;
        }
        let slab = start..end;
        start = end;
        Some(slab)
    })
}

/// Chunks a sorted run of `n` items into groups of `cap` — one group
/// when `n ≤ cap` — shortening the one before last so the final group
/// never falls below `min` (the R\*-tree fill invariant).
pub(crate) fn chunk_balanced(
    n: usize,
    cap: usize,
    min: usize,
) -> impl Iterator<Item = Range<usize>> {
    let groups = n.div_ceil(cap).max(1);
    let last = n - cap * (groups - 1);
    let deficit = if groups > 1 {
        min.saturating_sub(last)
    } else {
        0
    };
    let bound = move |g: usize| match groups - g {
        0 => n,
        1 => g * cap - deficit,
        _ => g * cap,
    };
    (0..groups).map(move |g| bound(g)..bound(g + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decluster::ProximityIndex;
    use sqda_geom::rng::Rng;
    use sqda_storage::ArrayStore;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<(Point, u64)> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    Point::new((0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()),
                    i as u64,
                )
            })
            .collect()
    }

    fn bulk(n: usize, dim: usize, fanout: usize, seed: u64) -> RStarTree<ArrayStore> {
        let store = Arc::new(ArrayStore::new(6, 1449, seed));
        RStarTree::bulk_load(
            store,
            RStarConfig::new(dim).with_max_entries(fanout),
            Box::new(ProximityIndex),
            points(n, dim, seed),
            PackingOrder::Str,
        )
        .unwrap()
    }

    /// The `k` smallest squared distances from `q` over every entry the
    /// tree's leaves hold: a brute-force scan of what the tree stores
    /// (k-NN search itself lives in `sqda-core`).
    fn scan_knn(tree: &RStarTree<ArrayStore>, q: &Point, k: usize) -> Vec<f64> {
        let mut dists = Vec::new();
        let mut stack = vec![tree.root_page()];
        while let Some(page) = stack.pop() {
            let node = tree.read_node(page).unwrap();
            if node.is_leaf() {
                dists.extend(node.leaf_iter().map(|(c, _)| q.dist_sq_coords(c)));
            } else {
                stack.extend(node.internal_iter().map(|e| e.child));
            }
        }
        dists.sort_by(f64::total_cmp);
        dists.truncate(k);
        dists
    }

    #[test]
    fn bulk_load_is_valid_and_complete() {
        for n in [1usize, 7, 8, 9, 63, 64, 65, 500, 4097] {
            let tree = bulk(n, 2, 8, n as u64);
            tree.validate().unwrap().unwrap();
            assert_eq!(tree.num_objects(), n as u64, "n={n}");
        }
    }

    #[test]
    fn bulk_load_empty() {
        let store = Arc::new(ArrayStore::new(2, 1449, 1));
        let tree = RStarTree::bulk_load(
            store,
            RStarConfig::new(3),
            Box::new(ProximityIndex),
            vec![],
            PackingOrder::Str,
        )
        .unwrap();
        assert_eq!(tree.num_objects(), 0);
        assert_eq!(tree.height(), 1);
        assert!(scan_knn(&tree, &Point::splat(3, 0.0), 5).is_empty());
    }

    #[test]
    fn bulk_load_knn_matches_brute_force() {
        let pts = points(2000, 3, 9);
        let tree = bulk(2000, 3, 10, 9);
        let q = Point::splat(3, 50.0);
        let got = scan_knn(&tree, &q, 20);
        let mut want: Vec<f64> = pts.iter().map(|(p, _)| q.dist_sq(p)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got.len(), 20);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn bulk_load_fill_is_high() {
        let tree = bulk(10_000, 2, 32, 10);
        let stats = tree.stats().unwrap();
        assert!(
            stats.avg_fill > 0.85,
            "bulk-loaded fill only {}",
            stats.avg_fill
        );
        // And it still supports dynamic inserts afterwards.
        let mut tree = tree;
        for (p, id) in points(500, 2, 11) {
            tree.insert(p, 100_000 + id).unwrap();
        }
        tree.validate().unwrap().unwrap();
        assert_eq!(tree.num_objects(), 10_500);
    }

    #[test]
    fn bulk_load_fewer_nodes_than_incremental() {
        let pts = points(8000, 2, 12);
        let bulk_tree = bulk(8000, 2, 16, 12);
        let store = Arc::new(ArrayStore::new(6, 1449, 12));
        let mut inc_tree = RStarTree::create(
            store,
            RStarConfig::new(2).with_max_entries(16),
            Box::new(ProximityIndex),
        )
        .unwrap();
        for (p, id) in pts {
            inc_tree.insert(p, id).unwrap();
        }
        let bulk_nodes = bulk_tree.stats().unwrap().total_nodes();
        let inc_nodes = inc_tree.stats().unwrap().total_nodes();
        assert!(
            bulk_nodes < inc_nodes,
            "bulk {bulk_nodes} >= incremental {inc_nodes}"
        );
    }

    #[test]
    fn curve_packed_loads_are_valid_and_exact() {
        for order in [PackingOrder::Morton, PackingOrder::Hilbert] {
            let pts = points(3000, 2, 21);
            let store = Arc::new(ArrayStore::new(6, 1449, 21));
            let tree = RStarTree::bulk_load(
                store,
                RStarConfig::new(2).with_max_entries(16),
                Box::new(ProximityIndex),
                pts.clone(),
                order,
            )
            .unwrap();
            tree.validate().unwrap().unwrap();
            assert_eq!(tree.num_objects(), 3000);
            let q = Point::new(vec![50.0, 50.0]);
            let got = scan_knn(&tree, &q, 10);
            let mut want: Vec<f64> = pts.iter().map(|(p, _)| q.dist_sq(p)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got.len(), 10, "{order:?}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-9, "{order:?}");
            }
        }
    }

    #[test]
    fn morton_packs_high_dimensional_data() {
        let pts = points(1500, 5, 22);
        let store = Arc::new(ArrayStore::new(4, 1449, 22));
        let tree = RStarTree::bulk_load(
            store,
            RStarConfig::new(5).with_max_entries(12),
            Box::new(ProximityIndex),
            pts,
            PackingOrder::Morton,
        )
        .unwrap();
        tree.validate().unwrap().unwrap();
        assert!(tree.stats().unwrap().avg_fill > 0.8);
    }

    #[test]
    fn hilbert_rejects_high_dimensions() {
        let pts = points(100, 3, 23);
        let store = Arc::new(ArrayStore::new(2, 1449, 23));
        let err = RStarTree::bulk_load(
            store,
            RStarConfig::new(3).with_max_entries(8),
            Box::new(ProximityIndex),
            pts,
            PackingOrder::Hilbert,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                RStarError::UnsupportedPacking {
                    order: "Hilbert",
                    dim: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn morton_rejects_too_many_dimensions() {
        let pts = points(100, 9, 24);
        let store = Arc::new(ArrayStore::new(2, 1449, 24));
        let err = RStarTree::bulk_load(
            store,
            RStarConfig::new(9).with_max_entries(8),
            Box::new(ProximityIndex),
            pts,
            PackingOrder::Morton,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                RStarError::UnsupportedPacking {
                    order: "Morton",
                    dim: 9
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn bulk_load_rejects_non_finite_coordinates() {
        let store = Arc::new(ArrayStore::new(2, 1449, 25));
        let err = RStarTree::bulk_load(
            store,
            RStarConfig::new(2),
            Box::new(ProximityIndex),
            vec![
                (Point::new(vec![1.0, 2.0]), 0),
                (Point::new(vec![f64::NAN, 2.0]), 1),
            ],
            PackingOrder::Str,
        )
        .unwrap_err();
        assert!(matches!(err, RStarError::InvalidBuild(_)), "{err}");
    }

    #[test]
    fn ceil_root_is_exact_at_boundaries() {
        // Perfect powers: the float route ceils 27^(1/3) = 3.000…0004 up
        // to 4; the exact root must return 3.
        assert_eq!(ceil_root(27, 3), 3);
        assert_eq!(ceil_root(28, 3), 4);
        assert_eq!(ceil_root(26, 3), 3);
        assert_eq!(ceil_root(1_000_000, 2), 1000);
        assert_eq!(ceil_root(1_000_001, 2), 1001);
        assert_eq!(ceil_root(999_999, 2), 1000);
        assert_eq!(ceil_root(1, 5), 1);
        assert_eq!(ceil_root(0, 3), 0);
        assert_eq!(ceil_root(7, 1), 7);
        // Large counts near 2^53 where f64 loses integer precision.
        let n = (1usize << 53) + 1;
        let s = ceil_root(n, 2);
        assert!(s * s >= n && (s - 1) * (s - 1) < n, "s={s}");
        // Exhaustive property sweep at small scales.
        for k in 2u32..=6 {
            for n in 1usize..2000 {
                let s = ceil_root(n, k);
                let p = (s as u128).pow(k);
                assert!(p >= n as u128, "n={n} k={k} s={s}");
                if s > 1 {
                    assert!(((s - 1) as u128).pow(k) < n as u128, "n={n} k={k} s={s}");
                }
            }
        }
    }

    #[test]
    fn bulk_load_rejects_dimension_mismatch() {
        let store = Arc::new(ArrayStore::new(2, 1449, 1));
        let err = RStarTree::bulk_load(
            store,
            RStarConfig::new(2),
            Box::new(ProximityIndex),
            vec![(Point::splat(3, 1.0), 0)],
            PackingOrder::Str,
        );
        assert!(err.is_err());
    }
}
