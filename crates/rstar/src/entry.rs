//! Node entries.

use sqda_geom::{Point, Rect};
use sqda_storage::PageId;

/// Identifier of a data object referenced from a leaf entry.
///
/// In a full system this would point at the object's detailed description;
/// here it identifies the object in the experiment datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// An entry of an internal node: an MBR, the child page it bounds, and the
/// number of data objects in the child's subtree.
///
/// The subtree count is the paper's modification to the R\*-tree
/// (Section 2.1): "in each MBR entry, there is an integer number denoting
/// the number of objects that the corresponding branch contains". Lemma 1
/// turns these counts into an upper bound on the k-NN distance before any
/// leaf has been read.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalEntry {
    /// Bounding rectangle of the child subtree.
    pub mbr: Rect,
    /// Page id of the child node.
    pub child: PageId,
    /// Number of data objects in the child subtree.
    pub count: u64,
}

impl InternalEntry {
    /// Creates an internal entry.
    pub fn new(mbr: Rect, child: PageId, count: u64) -> Self {
        Self { mbr, child, count }
    }
}

/// An entry of a leaf node: a data point and its object id.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntry {
    /// The indexed point (feature vector).
    pub point: Point,
    /// The object the point belongs to.
    pub object: ObjectId,
}

impl LeafEntry {
    /// Creates a leaf entry.
    pub fn new(point: Point, object: ObjectId) -> Self {
        Self { point, object }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId(3).to_string(), "obj3");
    }
}
