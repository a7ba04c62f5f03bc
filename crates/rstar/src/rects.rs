//! The R\*-tree's bound: minimum bounding rectangles. ChooseSubtree by
//! area and overlap enlargement, the configured split policy, forced
//! reinsertion, and declustered placement of new nodes.
//!
//! ChooseSubtree's overlap rule at the leaves' parents is the costliest
//! step of an insert. Computed in full — every candidate's enlarged and
//! unenlarged intersection with every sibling, four vectors a call — it
//! took 0.79 s of the 1.88 s that inserting the 62 173 `sim_multiuser`
//! places took with phase timers on (medians of 10 builds, 2-core VM).
//! As the exact branch and bound of [`least_overlap_enlargement`] it
//! takes 0.23 s of 1.12 s, and allocates nothing.

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
    ///   enlargement, then area, then index. Following the R\* paper, when
    ///   the node is large the overlap test only considers the 32 entries
    ///   with the least area enlargement. See [`least_overlap_enlargement`].
    /// * Otherwise → minimize area enlargement, ties by area, then index.
    ///
    /// Runs on the flat entries and allocates nothing. A point entry is
    /// its degenerate rectangle.
    fn choose_subtree(node: &Node, entry: &[f64]) -> usize {
        debug_assert!(!node.is_empty());
        let mbr = if entry.len() == node.dim() {
            RectRef::new(entry, entry)
        } else {
            rect(entry)
        };
        if node.level() == 1 {
            return least_overlap_enlargement(node, mbr);
        }
        let mut best = (0, (f64::INFINITY, f64::INFINITY));
        for i in 0..node.len() {
            let r = node.internal_rect(i);
            let key = (r.enlargement(mbr), r.area());
            if key < best.1 {
                best = (i, key);
            }
        }
        best.0
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

/// The most entries the overlap test considers: those of least area
/// enlargement (the R\* paper's cut for large nodes).
const CANDIDATES: usize = 32;

/// ChooseSubtree among leaves: the entry whose enlargement to cover
/// `mbr` adds the least overlap with its siblings; ties by area
/// enlargement, then area, then index.
///
/// An exact branch and bound. Enlarging a rectangle never shrinks its
/// intersection with a sibling, and every side, product and difference
/// rounds monotonically, so an entry's overlap enlargement is `+0.0` or
/// more (or NaN), and `(0, enlargement, area)` bounds its key from below.
/// Candidates are visited in the order of that bound. One whose bound
/// cannot beat the best key found is skipped without its sibling loop,
/// and a sibling sum stops once it passes the best. An entry that
/// contains `mbr` is its own enlargement, so its overlap enlargement is
/// exactly 0 and needs no sibling loop.
///
/// When an area or an enlargement overflows, keys can be NaN (an
/// infinite product times a zero side), `<` on them is no order, and the
/// winner depends on the visiting order. So such a node keeps the R\*
/// order — index order, or least enlargement first after the cut — and
/// only the skip, which no NaN defeats, and the stopping sum apply.
fn least_overlap_enlargement(node: &Node, mbr: RectRef<'_>) -> usize {
    let cmp = |a: f64, b: f64| a.partial_cmp(&b).expect("finite");
    // (enlargement, area, index) of each candidate, on the stack.
    let mut keys = [(0.0, 0.0, 0); CANDIDATES];
    let (mut len, mut finite) = (0, true);
    for i in 0..node.len() {
        let r = node.internal_rect(i);
        let key = (r.enlargement(mbr), r.area(), i);
        finite &= key.0.is_finite() && key.1.is_finite();
        let at = if node.len() > CANDIDATES {
            // The cut: least enlargement first, ties in index order.
            keys[..len].partition_point(|k| cmp(k.0, key.0).is_le())
        } else {
            len
        };
        if at < CANDIDATES {
            len = (len + 1).min(CANDIDATES);
            keys[at..len].rotate_right(1);
            keys[at] = key;
        }
    }
    let keys = &mut keys[..len];
    if finite {
        // No key is NaN: visit in lower-bound order.
        keys.sort_unstable_by(|a, b| cmp(a.0, b.0).then(cmp(a.1, b.1)).then(a.2.cmp(&b.2)));
    }
    let mut best = (keys[0].2, (f64::INFINITY, f64::INFINITY, f64::INFINITY));
    for &(enlargement, area, i) in keys.iter() {
        // Only a candidate whose lower bound beats the best key can win.
        if (0.0, enlargement, area) < best.1 {
            let r = node.internal_rect(i);
            let contains =
                (0..r.dim()).all(|d| r.lo()[d] <= mbr.lo()[d] && mbr.hi()[d] <= r.hi()[d]);
            let delta = if finite && contains {
                0.0
            } else {
                overlap_enlargement(node, i, mbr, best.1 .0)
            };
            let key = (delta, enlargement, area);
            if key < best.1 {
                best = (i, key);
            }
        }
    }
    best.0
}

/// Entry `i`'s overlap enlargement: the sum over its siblings `j`, in
/// index order, of `area(E ∩ Rj) − area(Ri ∩ Rj)`, where `E` is `Ri`
/// enlarged to cover `mbr`. The sum never falls, so it stops once it
/// passes `limit`: that partial sum loses to `limit` as the whole sum
/// would. A sibling that misses `E` misses `Ri` too and adds exactly 0.
fn overlap_enlargement(node: &Node, i: usize, mbr: RectRef<'_>, limit: f64) -> f64 {
    let r = node.internal_rect(i);
    let mut delta = 0.0;
    for j in (0..node.len()).filter(|&j| j != i) {
        let other = node.internal_rect(j);
        let grown = grown_intersection_area(r, mbr, other);
        if grown == 0.0 {
            continue;
        }
        delta += grown - r.intersection_area(other);
        if delta > limit {
            break;
        }
    }
    delta
}

/// [`RectRef::intersection_area`] of `other` and `r` enlarged to cover
/// `mbr`, without building the enlarged rectangle: each corner is taken
/// with `min`/`max` as the enlargement takes it.
fn grown_intersection_area(r: RectRef<'_>, mbr: RectRef<'_>, other: RectRef<'_>) -> f64 {
    let mut v = 1.0;
    for d in 0..r.dim() {
        let lo = r.lo()[d].min(mbr.lo()[d]).max(other.lo()[d]);
        let hi = r.hi()[d].max(mbr.hi()[d]).min(other.hi()[d]);
        if lo >= hi {
            return 0.0;
        }
        v *= hi - lo;
    }
    v
}
