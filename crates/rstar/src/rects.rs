//! The R\*-tree's bound: minimum bounding rectangles. ChooseSubtree by
//! area and overlap enlargement, the configured split policy, forced
//! reinsertion, and declustered placement of new nodes.

use crate::config::{RStarConfig, TreeConfig};
use crate::decluster::{DeclusterContext, Declusterer};
use crate::entry::ObjectId;
use crate::node::Node;
use crate::split::reinsert_victims;
use crate::split_policy::SplitPolicy;
use crate::tree::{Bound, PagedTree, Result};
use sqda_geom::{GeomError, Point, Rect, RectRef};
use sqda_storage::{DiskId, PageStore};

/// Rectangles: a directory entry's bound is its subtree's MBR, `dim`
/// low corner words then `dim` high. Overflowing nodes split by the
/// configured policy ([`RStarConfig::with_split_policy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rects {
    pub(crate) split_policy: SplitPolicy,
}

/// A declustered R\*-tree over a disk-array page store.
pub type RStarTree<S> = PagedTree<S, Rects>;

impl<S: PageStore> PagedTree<S, Rects> {
    /// Creates an empty tree: a single empty leaf, placed on disk 0.
    /// `declusterer` places the nodes later splits create.
    pub fn create(
        store: std::sync::Arc<S>,
        config: RStarConfig,
        declusterer: Box<dyn Declusterer>,
    ) -> Result<Self> {
        Self::create_with(store, config, declusterer)
    }

    /// Deletes a point/object pair. Returns `true` if it was present.
    /// Refuses the point as [`Self::insert`] does.
    pub fn delete(&mut self, point: &Point, object: u64) -> Result<bool> {
        crate::bulk::validate_coords(point.coords(), self.config.dim)?;
        crate::delete::delete_object(self, point, ObjectId(object))
    }

    /// The disk the declustering heuristic picks for a new node with MBR
    /// `new_mbr` among `siblings` (MBR + hosting disk).
    pub(crate) fn declustered_disk(&self, new_mbr: &Rect, siblings: &[(Rect, DiskId)]) -> DiskId {
        let pages_per_disk = self.store.pages_per_disk();
        self.placer.assign_disk(&DeclusterContext {
            new_mbr,
            siblings,
            pages_per_disk: &pages_per_disk,
            num_disks: self.store.num_disks(),
        })
    }
}

/// A bound's words as the rectangle view: low corner, high corner.
fn rect(bound: &[f64]) -> RectRef<'_> {
    let (lo, hi) = bound.split_at(bound.len() / 2);
    RectRef::new(lo, hi)
}

impl Bound for Rects {
    type Placer = Box<dyn Declusterer>;
    const NAME: &'static str = "RStarTree";
    const MAGIC: &'static [u8; 4] = b"RSTN";
    const SPHERES: bool = false;

    fn words(dim: usize) -> usize {
        2 * dim
    }

    /// The rules — and the error values — of `Rect::new`, without
    /// building a `Rect`.
    fn check(bound: &[f64]) -> std::result::Result<(), String> {
        let (lo, hi) = bound.split_at(bound.len() / 2);
        let err = if bound.iter().any(|c| !c.is_finite()) {
            GeomError::NonFiniteCoordinate
        } else if let Some(dim) = (0..lo.len()).find(|&d| lo[d] > hi[d]) {
            GeomError::InvertedCorners { dim }
        } else {
            return Ok(());
        };
        Err(format!("bad MBR: {err}"))
    }

    fn bound(node: &Node) -> Vec<f64> {
        node.mbr_words()
            .expect("tree nodes below the root are non-empty")
    }

    /// R\*-tree bounds are tight: exactly the child's MBR.
    fn covers(bound: &[f64], child: &Node) -> bool {
        child.mbr_words().is_some_and(|m| m == bound)
    }

    /// The R\* ChooseSubtree rule over a directory node's entries.
    ///
    /// * Children are leaves → minimize overlap enlargement, ties by area
    ///   enlargement then area. Following the R\* paper, when the node is
    ///   large the overlap test only considers the 32 entries with the
    ///   least area enlargement.
    /// * Otherwise → minimize area enlargement, ties by area.
    ///
    /// Runs on the flat entries: each entry's area and enlargement is
    /// computed once, and the overlap test's enlarged rectangle lives in
    /// one buffer for the whole call. A point entry is its degenerate
    /// rectangle.
    fn choose_subtree(node: &Node, entry: &[f64]) -> usize {
        debug_assert!(!node.is_empty());
        let mbr = if entry.len() == node.dim() {
            RectRef::new(entry, entry)
        } else {
            rect(entry)
        };
        let rects = || (0..node.len()).map(|i| node.internal_rect(i));
        let area: Vec<f64> = rects().map(|r| r.area()).collect();
        let enlargement: Vec<f64> = rects().map(|r| r.enlargement(mbr)).collect();
        let mut best = 0;
        if node.level() == 1 {
            // Children are leaves: overlap-enlargement rule.
            const CANDIDATES: usize = 32;
            let mut candidates: Vec<usize> = (0..node.len()).collect();
            if candidates.len() > CANDIDATES {
                candidates.sort_by(|&a, &b| {
                    let (ea, eb) = (enlargement[a], enlargement[b]);
                    ea.partial_cmp(&eb).expect("finite").then(a.cmp(&b))
                });
                candidates.truncate(CANDIDATES);
            }
            best = candidates[0];
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            let d = node.dim();
            let mut enlarged = vec![0.0; 2 * d];
            for &i in &candidates {
                let r = node.internal_rect(i);
                for k in 0..d {
                    enlarged[k] = r.lo()[k].min(mbr.lo()[k]);
                    enlarged[d + k] = r.hi()[k].max(mbr.hi()[k]);
                }
                let enlarged = rect(&enlarged);
                let mut overlap_delta = 0.0;
                for (j, other) in rects().enumerate() {
                    if j != i {
                        overlap_delta +=
                            enlarged.intersection_area(other) - r.intersection_area(other);
                    }
                }
                let key = (overlap_delta, enlargement[i], area[i]);
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
        } else {
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for i in 0..node.len() {
                let key = (enlargement[i], area[i]);
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
        }
        best
    }

    fn split(config: &TreeConfig<Self>, node: &Node) -> (Vec<usize>, Vec<usize>) {
        let split = config
            .bound
            .split_policy
            .split(&entry_rects(node), config.min_entries(node.is_leaf()));
        (split.group1, split.group2)
    }

    fn evict(config: &TreeConfig<Self>, node: &Node) -> Option<Vec<usize>> {
        let p = config.reinsert_count(node.is_leaf());
        Some(reinsert_victims(&entry_rects(node), p))
    }

    fn place<S: PageStore>(
        tree: &PagedTree<S, Self>,
        bound: &[f64],
        parent: Option<&Node>,
    ) -> Result<DiskId> {
        let mut siblings = Vec::with_capacity(parent.map_or(0, Node::len));
        for e in parent.iter().flat_map(|p| p.internal_iter()) {
            siblings.push((e.mbr.to_rect(), tree.store.placement(e.child)?.disk));
        }
        Ok(tree.declustered_disk(&rect(bound).to_rect(), &siblings))
    }
}

/// Every entry's MBR, a point's being degenerate.
fn entry_rects(node: &Node) -> Vec<Rect> {
    (0..node.len())
        .map(|i| {
            if node.is_leaf() {
                RectRef::new(node.leaf_point(i), node.leaf_point(i)).to_rect()
            } else {
                node.internal_rect(i).to_rect()
            }
        })
        .collect()
}
