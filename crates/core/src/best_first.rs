//! Optimal sequential k-NN search (best-first / Hjaltason–Samet) over any
//! [`AccessMethod`].
//!
//! The reference single-disk algorithm: it visits nodes in increasing
//! `D_min` order and provably reads exactly the nodes whose `D_min` is
//! below the final k-NN distance — the sequential analogue of the paper's
//! WOPTSS lower bound. It is the WOPTSS oracle (the radius `D_k`) and the
//! ground truth of the tests, experiments and examples.
//!
//! The priority heap lives in a [`QueryScratch`], so a query-per-iteration
//! workload (the paper's multi-user experiments sweep thousands of
//! queries) reuses one heap allocation instead of growing a fresh one per
//! query.

use crate::access::{AccessMethod, IndexNode, QueryScratch};
use crate::algo::Neighbor;
use crate::error::QueryError;
use sqda_geom::Point;
use sqda_rstar::ObjectId;
use sqda_storage::PageId;
use std::cmp::Ordering;

/// Priority-queue element: either a node to expand or a candidate object.
pub(crate) enum QueueItem {
    Node { dist_sq: f64, page: PageId },
    Object { dist_sq: f64, neighbor: Neighbor },
}

impl QueueItem {
    fn dist_sq(&self) -> f64 {
        match self {
            QueueItem::Node { dist_sq, .. } | QueueItem::Object { dist_sq, .. } => *dist_sq,
        }
    }

    /// Objects sort before nodes at equal distance so a result at distance
    /// `d` is emitted before expanding a node that can only yield ≥ `d`.
    fn tier(&self) -> u8 {
        match self {
            QueueItem::Object { .. } => 0,
            QueueItem::Node { .. } => 1,
        }
    }
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-by-distance.
        other
            .dist_sq()
            .partial_cmp(&self.dist_sq())
            .expect("distances are finite")
            .then(other.tier().cmp(&self.tier()))
    }
}

/// The `k` nearest neighbours of `center` in increasing-distance order
/// (fewer when the tree holds fewer objects).
///
/// # Errors
///
/// [`QueryError::Invariant`] when `center`'s dimensionality differs from
/// the tree's (found on the root, before any further read); otherwise
/// whatever reading a node fails with.
pub fn best_first_knn(
    am: &(impl AccessMethod + ?Sized),
    center: &Point,
    k: usize,
) -> Result<Vec<Neighbor>, QueryError> {
    best_first_knn_with(am, center, k, &mut QueryScratch::new())
}

/// [`best_first_knn`] over a caller-supplied [`QueryScratch`], reusing its
/// priority heap and distance buffer across queries. The heap is cleared
/// on entry, so no state of a previous query leaks into this one.
pub fn best_first_knn_with(
    am: &(impl AccessMethod + ?Sized),
    center: &Point,
    k: usize,
    scratch: &mut QueryScratch,
) -> Result<Vec<Neighbor>, QueryError> {
    let mut out = Vec::with_capacity(k.min(64));
    if k == 0 {
        return Ok(out);
    }
    let QueryScratch { heap, dists, .. } = scratch;
    let q = center.coords();
    heap.clear();
    heap.push(QueueItem::Node {
        dist_sq: 0.0,
        page: am.root_page(),
    });
    while let Some(item) = heap.pop() {
        match item {
            QueueItem::Object { neighbor, .. } => {
                out.push(neighbor);
                if out.len() == k {
                    break;
                }
            }
            QueueItem::Node { page, .. } => {
                let node = am.read_index_node(page)?;
                if let Some(msg) = node.dim_mismatch(q) {
                    return Err(QueryError::Invariant(msg));
                }
                // One batch-kernel sweep over the node's flat coordinate
                // block (bit-identical to the per-entry metrics), then
                // bulk pushes.
                match node {
                    IndexNode::Leaf(leaf) => {
                        leaf.dist_sq_into(q, dists);
                        for (i, (coords, id)) in leaf.iter().enumerate() {
                            let dist_sq = dists[i];
                            heap.push(QueueItem::Object {
                                dist_sq,
                                neighbor: Neighbor {
                                    object: ObjectId(id),
                                    point: Point::from(coords),
                                    dist_sq,
                                },
                            });
                        }
                    }
                    IndexNode::Internal(block) => {
                        block.min_dist_sq_into(q, dists);
                        for (i, &dist_sq) in dists.iter().enumerate() {
                            heap.push(QueueItem::Node {
                                dist_sq,
                                page: block.child(i),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}
