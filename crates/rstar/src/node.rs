//! Tree nodes, stored in a flat cache-friendly layout.
//!
//! A node used to be an enum of entry vectors, where every entry owned
//! two heap-allocated corner slices — decoding a 170-entry leaf cost
//! hundreds of small allocations. The flat layout keeps all coordinates
//! of a node in **one** contiguous `f64` buffer and all integer payload
//! (object ids, or child/count pairs) in one `u64` buffer, so decoding a
//! page is exactly two allocations and a traversal walks a single cache
//! stream. Entries are exposed through borrowed views
//! ([`sqda_geom::RectRef`], coordinate slices, [`InternalRef`]).
//!
//! Mutation paths (insert/delete/split) are cold compared to queries, so
//! they convert to the entry-vector form [`NodeMut`], edit, and
//! [`NodeMut::freeze`] back.

use crate::entry::{InternalEntry, LeafEntry, ObjectId};
use sqda_geom::{Point, Rect, RectRef};
use sqda_storage::PageId;

/// One R\*-tree node. Each node occupies exactly one disk page.
///
/// `level` is 0 for leaves and increases towards the root; the paper's
/// CRSS algorithm switches between its ADAPTIVE/NORMAL/UPDATE modes based
/// on whether the nodes just fetched are leaves.
///
/// Layout: leaves store `dim` coordinates and one payload word (the
/// object id) per entry; internal nodes store `2 * dim` coordinates (low
/// corner then high corner) and two payload words (child page, subtree
/// count) per entry.
#[derive(Debug, Clone)]
pub struct Node {
    level: u32,
    /// Coordinate stride basis. 0 only for an empty node (no entry to
    /// take the dimensionality from).
    dim: u32,
    coords: Box<[f64]>,
    payload: Box<[u64]>,
}

/// A borrowed view of one internal-node entry.
#[derive(Debug, Clone, Copy)]
pub struct InternalRef<'a> {
    /// The child subtree's MBR.
    pub mbr: RectRef<'a>,
    /// The child page.
    pub child: PageId,
    /// Number of data objects in the child's subtree.
    pub count: u64,
}

impl Node {
    /// Creates an empty leaf.
    pub fn empty_leaf() -> Self {
        Node {
            level: 0,
            dim: 0,
            coords: Box::new([]),
            payload: Box::new([]),
        }
    }

    /// Builds a leaf from entry structs.
    pub fn from_leaf_entries(entries: &[LeafEntry]) -> Self {
        let dim = entries.first().map_or(0, |e| e.point.dim());
        let mut coords = Vec::with_capacity(entries.len() * dim);
        let mut payload = Vec::with_capacity(entries.len());
        for e in entries {
            debug_assert_eq!(e.point.dim(), dim, "mixed dimensionality in leaf");
            coords.extend_from_slice(e.point.coords());
            payload.push(e.object.0);
        }
        Node {
            level: 0,
            dim: dim as u32,
            coords: coords.into_boxed_slice(),
            payload: payload.into_boxed_slice(),
        }
    }

    /// Builds an internal node at `level` (≥ 1) from entry structs.
    pub fn from_internal_entries(level: u32, entries: &[InternalEntry]) -> Self {
        debug_assert!(level >= 1, "internal nodes live at level >= 1");
        let dim = entries.first().map_or(0, |e| e.mbr.dim());
        let mut coords = Vec::with_capacity(entries.len() * 2 * dim);
        let mut payload = Vec::with_capacity(entries.len() * 2);
        for e in entries {
            debug_assert_eq!(e.mbr.dim(), dim, "mixed dimensionality in node");
            coords.extend_from_slice(e.mbr.lo());
            coords.extend_from_slice(e.mbr.hi());
            payload.push(e.child.as_raw());
            payload.push(e.count);
        }
        Node {
            level,
            dim: dim as u32,
            coords: coords.into_boxed_slice(),
            payload: payload.into_boxed_slice(),
        }
    }

    /// Assembles a node directly from its flat buffers (the codec's
    /// decode path — two allocations, no per-entry work).
    ///
    /// For a leaf (`level == 0`): `coords.len() == n * dim`,
    /// `payload.len() == n`. For an internal node: `coords.len() ==
    /// n * 2 * dim`, `payload.len() == 2 * n`.
    pub(crate) fn from_raw_parts(
        level: u32,
        dim: u32,
        coords: Box<[f64]>,
        payload: Box<[u64]>,
    ) -> Self {
        let node = Node {
            level,
            dim,
            coords,
            payload,
        };
        debug_assert_eq!(node.coords.len(), node.len() * node.entry_stride());
        node
    }

    /// Builds a leaf from flat storage: `coords` holds the points
    /// back-to-back (entry `i` at `[i*dim .. (i+1)*dim]`), `objects` their
    /// ids. For access methods that keep another node form and pack it
    /// into this one for the search algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != dim * objects.len()`, or if `dim == 0`
    /// while entries are present.
    pub fn leaf_from_flat(dim: usize, coords: Box<[f64]>, objects: Box<[u64]>) -> Self {
        assert!(
            dim > 0 || objects.is_empty(),
            "non-empty leaf needs dimensions"
        );
        assert_eq!(
            coords.len(),
            dim * objects.len(),
            "coords/ids length mismatch"
        );
        Self::from_raw_parts(0, dim as u32, coords, objects)
    }

    #[inline]
    fn entry_stride(&self) -> usize {
        let d = self.dim as usize;
        if self.is_leaf() {
            d
        } else {
            2 * d
        }
    }

    /// The node's level (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Resident size in bytes: the struct itself plus its two flat heap
    /// buffers. This is the entry weight a byte-budgeted node cache
    /// ([`sqda_storage::NodeCache::new_bytes`]) evicts on.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val::<[f64]>(&self.coords)
            + std::mem::size_of_val::<[u64]>(&self.payload)
    }

    /// `true` for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The dimensionality of the entries (0 only when the node is empty).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Number of entries in the node.
    #[inline]
    pub fn len(&self) -> usize {
        if self.is_leaf() {
            self.payload.len()
        } else {
            self.payload.len() / 2
        }
    }

    /// `true` when the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The whole flat coordinate block: entry stride [`Node::dim`] for
    /// leaves, `2 * dim` (low corner then high corner) for internal
    /// nodes. The batch distance kernels run over it directly (e.g.
    /// through `sqda_core::IndexNode`, a handle on the node).
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The whole flat integer payload: one object id per leaf entry, or
    /// interleaved `[child page, subtree count]` pairs per internal
    /// entry.
    #[inline]
    pub fn payload(&self) -> &[u64] {
        &self.payload
    }

    /// The coordinates of the `i`-th leaf entry.
    ///
    /// # Panics
    ///
    /// Panics if out of range (or, in debug builds, on an internal node).
    #[inline]
    pub fn leaf_point(&self, i: usize) -> &[f64] {
        debug_assert!(self.is_leaf());
        let d = self.dim as usize;
        &self.coords[i * d..(i + 1) * d]
    }

    /// The object id of the `i`-th leaf entry.
    #[inline]
    pub fn leaf_object(&self, i: usize) -> ObjectId {
        debug_assert!(self.is_leaf());
        ObjectId(self.payload[i])
    }

    /// A borrowed MBR view of the `i`-th internal entry.
    #[inline]
    pub fn internal_rect(&self, i: usize) -> RectRef<'_> {
        debug_assert!(!self.is_leaf());
        let d = self.dim as usize;
        let base = i * 2 * d;
        RectRef::new(
            &self.coords[base..base + d],
            &self.coords[base + d..base + 2 * d],
        )
    }

    /// The child page of the `i`-th internal entry.
    #[inline]
    pub fn internal_child(&self, i: usize) -> PageId {
        debug_assert!(!self.is_leaf());
        PageId::from_raw(self.payload[2 * i])
    }

    /// The subtree object count of the `i`-th internal entry.
    #[inline]
    pub fn internal_count(&self, i: usize) -> u64 {
        debug_assert!(!self.is_leaf());
        self.payload[2 * i + 1]
    }

    /// Iterates the leaf entries as `(coords, object)` pairs.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on an internal node.
    #[inline]
    pub fn leaf_iter(&self) -> impl Iterator<Item = (&[f64], ObjectId)> + '_ {
        debug_assert!(self.is_leaf());
        // `max(1)` keeps chunks_exact well-defined for the empty node
        // (dim 0); payload is empty there so the zip yields nothing.
        self.coords
            .chunks_exact((self.dim as usize).max(1))
            .zip(self.payload.iter())
            .map(|(c, &o)| (c, ObjectId(o)))
    }

    /// Iterates the internal entries as borrowed views.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on a leaf node.
    #[inline]
    pub fn internal_iter(&self) -> impl Iterator<Item = InternalRef<'_>> + '_ {
        debug_assert!(!self.is_leaf());
        let d = self.dim as usize;
        self.coords
            .chunks_exact((2 * d).max(1))
            .zip(self.payload.chunks_exact(2))
            .map(move |(c, p)| InternalRef {
                mbr: RectRef::new(&c[..d], &c[d..]),
                child: PageId::from_raw(p[0]),
                count: p[1],
            })
    }

    /// The MBR enclosing all entries; `None` for an empty node.
    pub fn mbr(&self) -> Option<Rect> {
        if self.is_empty() {
            return None;
        }
        let d = self.dim as usize;
        let stride = self.entry_stride();
        // Fold with the same comparison-based min/max as
        // `Rect::union_in_place`, so the result is bit-identical to the
        // old per-entry union chain.
        let mut lo = self.coords[..d].to_vec();
        let mut hi = self.coords[stride - d..stride].to_vec();
        for chunk in self.coords.chunks_exact(stride).skip(1) {
            for k in 0..d {
                if chunk[k] < lo[k] {
                    lo[k] = chunk[k];
                }
                if chunk[stride - d + k] > hi[k] {
                    hi[k] = chunk[stride - d + k];
                }
            }
        }
        // Coordinates were validated when the node was built/decoded; the
        // old leaf path likewise never re-validated.
        Some(Rect::new_unchecked(lo, hi))
    }

    /// Total number of data objects under this node (the subtree count
    /// the parent entry must carry).
    pub fn object_count(&self) -> u64 {
        if self.is_leaf() {
            self.payload.len() as u64
        } else {
            self.payload.iter().skip(1).step_by(2).sum()
        }
    }

    /// The internal entries' MBRs as owned rects (the insert path's
    /// subtree-choice arithmetic works over owned rects).
    ///
    /// # Panics
    ///
    /// Panics in debug builds on a leaf node.
    pub fn internal_rects(&self) -> Vec<Rect> {
        self.internal_iter().map(|e| e.mbr.to_rect()).collect()
    }

    /// The leaf entries as owned structs.
    pub fn leaf_entries_vec(&self) -> Vec<LeafEntry> {
        self.leaf_iter()
            .map(|(c, o)| LeafEntry::new(Point::from(c), o))
            .collect()
    }

    /// The internal entries as owned structs.
    pub fn internal_entries_vec(&self) -> Vec<InternalEntry> {
        self.internal_iter()
            .map(|e| InternalEntry::new(e.mbr.to_rect(), e.child, e.count))
            .collect()
    }

    /// Thaws the node into its editable entry-vector form.
    pub fn to_mut(&self) -> NodeMut {
        if self.is_leaf() {
            NodeMut::Leaf {
                entries: self.leaf_entries_vec(),
            }
        } else {
            NodeMut::Internal {
                level: self.level,
                entries: self.internal_entries_vec(),
            }
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        // `dim` is deliberately ignored: an empty node decoded from a
        // page carries the page's dim while a freshly built empty leaf
        // has dim 0 — they hold the same (zero) entries.
        self.level == other.level && self.payload == other.payload && self.coords == other.coords
    }
}

/// The editable (entry-vector) form of a [`Node`], used by the cold
/// structure-modification paths. [`NodeMut::freeze`] converts back to the
/// flat query layout.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMut {
    /// An internal (directory) node at level ≥ 1.
    Internal {
        /// Height of this node above the leaf level (≥ 1).
        level: u32,
        /// Child entries.
        entries: Vec<InternalEntry>,
    },
    /// A leaf node (level 0) holding data points.
    Leaf {
        /// Data entries.
        entries: Vec<LeafEntry>,
    },
}

impl NodeMut {
    /// The node's level (0 = leaf).
    pub fn level(&self) -> u32 {
        match self {
            NodeMut::Internal { level, .. } => *level,
            NodeMut::Leaf { .. } => 0,
        }
    }

    /// `true` for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, NodeMut::Leaf { .. })
    }

    /// Number of entries in the node.
    pub fn len(&self) -> usize {
        match self {
            NodeMut::Internal { entries, .. } => entries.len(),
            NodeMut::Leaf { entries } => entries.len(),
        }
    }

    /// `true` when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The MBR enclosing all entries; `None` for an empty node.
    pub fn mbr(&self) -> Option<Rect> {
        match self {
            NodeMut::Internal { entries, .. } => Rect::union_all(entries.iter().map(|e| &e.mbr)),
            NodeMut::Leaf { entries } => {
                let mut it = entries.iter();
                let first = Rect::from_point(&it.next()?.point);
                Some(it.fold(first, |mut acc, e| {
                    acc.union_in_place(&Rect::from_point(&e.point));
                    acc
                }))
            }
        }
    }

    /// Total number of data objects under this node.
    pub fn object_count(&self) -> u64 {
        match self {
            NodeMut::Internal { entries, .. } => entries.iter().map(|e| e.count).sum(),
            NodeMut::Leaf { entries } => entries.len() as u64,
        }
    }

    /// Converts back into the flat query layout.
    pub fn freeze(self) -> Node {
        match self {
            NodeMut::Internal { level, entries } => Node::from_internal_entries(level, &entries),
            NodeMut::Leaf { entries } => Node::from_leaf_entries(&entries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectId;
    use sqda_geom::Point;
    use sqda_storage::PageId;

    fn leaf_with(points: &[(f64, f64)]) -> Node {
        Node::from_leaf_entries(
            &points
                .iter()
                .enumerate()
                .map(|(i, (x, y))| LeafEntry::new(Point::new(vec![*x, *y]), ObjectId(i as u64)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn empty_leaf_properties() {
        let n = Node::empty_leaf();
        assert!(n.is_leaf());
        assert!(n.is_empty());
        assert_eq!(n.level(), 0);
        assert_eq!(n.mbr(), None);
        assert_eq!(n.object_count(), 0);
        assert_eq!(n.leaf_iter().count(), 0);
    }

    #[test]
    fn leaf_mbr_and_count() {
        let n = leaf_with(&[(0.0, 0.0), (2.0, 3.0), (-1.0, 1.0)]);
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo(), &[-1.0, 0.0]);
        assert_eq!(mbr.hi(), &[2.0, 3.0]);
        assert_eq!(n.object_count(), 3);
        assert_eq!(n.len(), 3);
        assert_eq!(n.leaf_point(1), &[2.0, 3.0]);
        assert_eq!(n.leaf_object(2), ObjectId(2));
        let collected: Vec<_> = n.leaf_iter().collect();
        assert_eq!(collected[0], (&[0.0, 0.0][..], ObjectId(0)));
        assert_eq!(collected[2], (&[-1.0, 1.0][..], ObjectId(2)));
    }

    #[test]
    fn internal_count_sums_children() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let s = Rect::new(vec![2.0, 0.5], vec![4.0, 3.0]).unwrap();
        let n = Node::from_internal_entries(
            1,
            &[
                InternalEntry::new(r.clone(), PageId::from_raw(1), 10),
                InternalEntry::new(s.clone(), PageId::from_raw(2), 32),
            ],
        );
        assert_eq!(n.object_count(), 42);
        assert_eq!(n.level(), 1);
        assert!(!n.is_leaf());
        assert_eq!(n.len(), 2);
        assert_eq!(n.internal_child(0), PageId::from_raw(1));
        assert_eq!(n.internal_count(1), 32);
        assert_eq!(n.internal_rect(1).to_rect(), s);
        let views: Vec<_> = n.internal_iter().collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].mbr.to_rect(), r);
        assert_eq!(views[1].child, PageId::from_raw(2));
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo(), &[0.0, 0.0]);
        assert_eq!(mbr.hi(), &[4.0, 3.0]);
    }

    #[test]
    fn thaw_edit_freeze_roundtrip() {
        let n = leaf_with(&[(0.0, 0.0), (2.0, 3.0)]);
        let mut m = n.to_mut();
        match &mut m {
            NodeMut::Leaf { entries } => {
                entries.push(LeafEntry::new(Point::new(vec![5.0, 5.0]), ObjectId(9)))
            }
            NodeMut::Internal { .. } => unreachable!(),
        }
        let frozen = m.freeze();
        assert_eq!(frozen.len(), 3);
        assert_eq!(frozen.leaf_object(2), ObjectId(9));
        assert_eq!(frozen.leaf_point(2), &[5.0, 5.0]);
        // An untouched thaw/freeze cycle is the identity.
        assert_eq!(n.to_mut().freeze(), n);
    }

    #[test]
    fn node_equality_ignores_dim_of_empty() {
        let built = Node::empty_leaf();
        let decoded = Node::from_raw_parts(0, 2, Box::new([]), Box::new([]));
        assert_eq!(built, decoded);
    }

    #[test]
    fn mbr_matches_union_in_place_fold() {
        // The flat fold must produce exactly what the old per-entry
        // union chain produced (the validate pass compares corners).
        let pts = [(1.0, 7.0), (-3.0, 2.0), (4.0, -1.5), (0.0, 0.0)];
        let n = leaf_with(&pts);
        let mut expect = Rect::from_point(&Point::new(vec![1.0, 7.0]));
        for (x, y) in &pts[1..] {
            expect.union_in_place(&Rect::from_point(&Point::new(vec![*x, *y])));
        }
        let got = n.mbr().unwrap();
        assert_eq!(got.lo(), expect.lo());
        assert_eq!(got.hi(), expect.hi());
    }
}
