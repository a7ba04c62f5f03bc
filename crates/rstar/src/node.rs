//! Tree nodes, stored in a flat cache-friendly layout.
//!
//! A node keeps all coordinates of its entries in **one** contiguous
//! `f64` buffer and all integer payload (object ids, or child/count
//! pairs) in one `u64` buffer, so decoding a page is exactly two
//! allocations and a traversal walks a single cache stream. Entries are
//! exposed through borrowed views ([`Node::entry`], and for the
//! R\*-tree's rectangles [`sqda_geom::RectRef`] and [`InternalRef`]).
//!
//! Both trees share the node: a directory entry's coordinate words are
//! its bound, which the tree's [`crate::Bound`] lays out — `2 * dim`
//! corners (low then high) for the R\*-tree, `dim` center coordinates
//! then the radius for the SS-tree. Leaves are alike in both.
//!
//! Mutation is not cold: the paper builds its tree by inserting objects
//! one at a time, and every insert rewrites its whole root-to-leaf path
//! (each entry carries its subtree count) — 7 page writes per insert on
//! the 62 173-point, 1 KiB-page benchmark tree. So every edit is flat:
//! appending an entry ([`Node::pushed`]), dropping one
//! ([`Node::removed`]), setting one entry's bound and count
//! ([`Node::set_internal`]) and picking entries by index for a split or
//! a forced reinsertion ([`Node::picked`]) each copy the two buffers
//! once.

use crate::entry::{InternalEntry, LeafEntry, ObjectId};
use sqda_geom::{Rect, RectRef};
use sqda_storage::PageId;

/// One tree node, of either tree. Each node occupies exactly one disk
/// page.
///
/// `level` is 0 for leaves and increases towards the root; the paper's
/// CRSS algorithm switches between its ADAPTIVE/NORMAL/UPDATE modes based
/// on whether the nodes just fetched are leaves.
///
/// Layout: leaves store `dim` coordinates and one payload word (the
/// object id) per entry; internal nodes store their bound's words (the
/// R\*-tree's `2 * dim`: low corner then high corner) and two payload
/// words (child page, subtree count) per entry.
#[derive(Debug, Clone)]
pub struct Node {
    level: u32,
    /// Coordinate stride basis. 0 only for an empty node (no entry to
    /// take the dimensionality from).
    dim: u32,
    coords: Box<[f64]>,
    payload: Box<[u64]>,
}

/// A borrowed view of one R\*-tree internal-node entry.
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
    /// decode path — two allocations, no per-entry work): `n` entries of
    /// `coords.len() / n` coordinate words and `payload.len() / n`
    /// payload words each (one object id per leaf entry, a child page and
    /// a subtree count per directory entry).
    pub(crate) fn from_raw_parts(
        level: u32,
        dim: u32,
        coords: Box<[f64]>,
        payload: Box<[u64]>,
    ) -> Self {
        Node {
            level,
            dim,
            coords,
            payload,
        }
    }

    /// Coordinate words per entry (0 for an empty node).
    #[inline]
    fn stride(&self) -> usize {
        self.coords.len() / self.len().max(1)
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

    /// A borrowed MBR view of the `i`-th internal entry of an R\*-tree node.
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

    /// Iterates an R\*-tree node's internal entries as borrowed views.
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

    /// The MBR enclosing all entries of an R\*-tree node; `None` for an
    /// empty node.
    pub fn mbr(&self) -> Option<Rect> {
        let words = self.mbr_words()?;
        let (lo, hi) = words.split_at(self.dim());
        // Coordinates were validated when the node was built or decoded.
        Some(Rect::new_unchecked(lo.to_vec(), hi.to_vec()))
    }

    /// [`Node::mbr`] as one buffer of bound words: the low corner, then
    /// the high one.
    pub(crate) fn mbr_words(&self) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        let d = self.dim as usize;
        let stride = self.stride();
        // Fold with the same comparison-based min/max as
        // `Rect::union_in_place`, so the result is bit-identical to the
        // old per-entry union chain.
        let mut words = [&self.coords[..d], &self.coords[stride - d..stride]].concat();
        let (lo, hi) = words.split_at_mut(d);
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
        Some(words)
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

    /// The `i`-th entry's coordinate words (a point, or a directory
    /// entry's bound) and payload words (its object id, or its child page
    /// and subtree count).
    #[inline]
    pub fn entry(&self, i: usize) -> (&[f64], &[u64]) {
        let (c, w) = (self.stride(), self.payload.len() / self.len());
        (
            &self.coords[i * c..(i + 1) * c],
            &self.payload[i * w..(i + 1) * w],
        )
    }

    /// Every entry's coordinate and payload words, as [`Node::entry`]
    /// gives them, in order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&[f64], &[u64])> + '_ {
        let w = self.payload.len() / self.len().max(1);
        let chunks = self.coords.chunks_exact(self.stride().max(1));
        chunks.zip(self.payload.chunks_exact(w.max(1)))
    }

    /// The child pages of a directory node, in entry order.
    pub fn children(&self) -> impl Iterator<Item = PageId> + '_ {
        debug_assert!(!self.is_leaf());
        self.payload
            .iter()
            .step_by(2)
            .map(|&raw| PageId::from_raw(raw))
    }

    /// A copy with one more entry at the end, given by its coordinate and
    /// payload words as [`Node::entry`] returns them. An empty leaf takes
    /// its dimensionality from the entry.
    pub(crate) fn pushed(&self, coords: &[f64], payload: &[u64]) -> Node {
        let dim = if self.is_empty() {
            coords.len() as u32
        } else {
            self.dim
        };
        let coords = [&self.coords[..], coords].concat();
        let words = [&self.payload[..], payload].concat();
        Node::from_raw_parts(self.level, dim, coords.into(), words.into())
    }

    /// A copy without entry `i`; the entries after it move up one place,
    /// as [`Vec::remove`] would move them.
    pub(crate) fn removed(&self, i: usize) -> Node {
        let (c, w) = (self.stride(), self.payload.len() / self.len());
        let coords = [&self.coords[..i * c], &self.coords[(i + 1) * c..]].concat();
        let payload = [&self.payload[..i * w], &self.payload[(i + 1) * w..]].concat();
        Node::from_raw_parts(self.level, self.dim, coords.into(), payload.into())
    }

    /// The entries at `indices`, in that order, as a node of this level.
    pub(crate) fn picked(&self, indices: &[usize]) -> Node {
        let mut coords = Vec::with_capacity(indices.len() * self.stride());
        let mut payload = Vec::with_capacity(self.payload.len());
        for &i in indices {
            let (c, w) = self.entry(i);
            coords.extend_from_slice(c);
            payload.extend_from_slice(w);
        }
        Node::from_raw_parts(self.level, self.dim, coords.into(), payload.into())
    }

    /// Sets the `i`-th directory entry's bound words and subtree count;
    /// its child stays.
    pub(crate) fn set_internal(&mut self, i: usize, bound: &[f64], count: u64) {
        debug_assert!(!self.is_leaf());
        let w = bound.len();
        self.coords[i * w..(i + 1) * w].copy_from_slice(bound);
        self.payload[2 * i + 1] = count;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectId;
    use crate::{Bound, Spheres};
    use sqda_geom::Point;
    use sqda_storage::PageId;

    fn leaf_entries(points: &[(f64, f64)]) -> Vec<LeafEntry> {
        (0..)
            .zip(points)
            .map(|(i, (x, y))| LeafEntry::new(Point::new(vec![*x, *y]), ObjectId(i)))
            .collect()
    }

    fn leaf_with(points: &[(f64, f64)]) -> Node {
        Node::from_leaf_entries(&leaf_entries(points))
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
    fn flat_edits_match_thaw_edit_freeze() {
        // Each flat edit equals editing the entry vector and rebuilding.
        let points = [(0.0, 0.0), (2.0, 3.0), (-1.0, 1.0)];
        let leaf = leaf_with(&points);
        let entries = leaf_entries(&points);
        let edited = |edit: &dyn Fn(&mut Vec<LeafEntry>)| {
            let mut v = entries.clone();
            edit(&mut v);
            Node::from_leaf_entries(&v)
        };
        let e = LeafEntry::new(Point::new(vec![5.0, -5.0]), ObjectId(9));
        let pushed = leaf.pushed(e.point.coords(), &[9]);
        assert_eq!(pushed, edited(&|v| v.push(e.clone())));
        for i in 0..3 {
            assert_eq!(leaf.removed(i), edited(&|v| drop(v.remove(i))));
        }
        let pick = [2, 0];
        assert_eq!(
            leaf.picked(&pick),
            Node::from_leaf_entries(&pick.map(|i| entries[i].clone()))
        );
        assert_eq!(leaf.entry(1), (&[2.0, 3.0][..], &[1][..]));
        let first = Node::empty_leaf().pushed(e.point.coords(), &[9]);
        assert_eq!((first.dim(), first.leaf_point(0)), (2, &[5.0, -5.0][..]));

        let r = |x: f64| Rect::new(vec![x, x], vec![x + 1.0, x + 2.0]).unwrap();
        let words = |x: f64| [r(x).lo(), r(x).hi()].concat();
        let entries: Vec<_> = (0..3)
            .map(|i| InternalEntry::new(r(i as f64), PageId::from_raw(i), 10 + i))
            .collect();
        let node = Node::from_internal_entries(2, &entries);
        let mut edited = node.pushed(&words(7.0), &[7, 70]);
        edited.set_internal(1, &words(-4.0), 99);
        let mut expect = entries.clone();
        expect[1] = InternalEntry::new(r(-4.0), PageId::from_raw(1), 99);
        expect.push(InternalEntry::new(r(7.0), PageId::from_raw(7), 70));
        assert_eq!(edited, Node::from_internal_entries(2, &expect));
        assert_eq!(
            node.removed(0),
            Node::from_internal_entries(2, &entries[1..])
        );
        assert_eq!(
            node.picked(&[1]),
            Node::from_internal_entries(2, &entries[1..2])
        );
        assert_eq!(node.entry(2), (&words(2.0)[..], &[2, 12][..]));
        assert!(node.children().eq((0..3).map(PageId::from_raw)));
    }

    /// A sphere-bounded directory node over `(center, radius, count)`s.
    fn sphere_node(entries: &[(&[f64], f64, u64)]) -> Node {
        let coords: Vec<f64> = entries
            .iter()
            .flat_map(|(c, r, _)| c.iter().copied().chain([*r]))
            .collect();
        let payload: Vec<u64> = (0..).zip(entries).flat_map(|(i, e)| [i, e.2]).collect();
        let dim = entries[0].0.len() as u32;
        Node::from_raw_parts(1, dim, coords.into(), payload.into())
    }

    #[test]
    fn leaf_bounding_sphere() {
        let node = leaf_with(&[(0.0, 0.0), (2.0, 0.0)]);
        assert_eq!(Spheres::bound(&node), vec![1.0, 0.0, 1.0]);
        assert_eq!(node.object_count(), 2);
        assert!(node.is_leaf());
    }

    #[test]
    fn internal_weighted_centroid() {
        let node = sphere_node(&[(&[0.0], 1.0, 3), (&[4.0], 0.5, 1)]);
        // Weighted center: (3*0 + 1*4)/4 = 1; the radius covers both
        // spheres: max(1+1, 3+0.5) = 3.5.
        assert_eq!(Spheres::bound(&node), vec![1.0, 3.5]);
        assert_eq!(node.object_count(), 4);
        assert_eq!(node.level(), 1);
        assert_eq!(node.entry(1), (&[4.0, 0.5][..], &[1, 1][..]));
    }

    #[test]
    fn empty_node() {
        let node = Node::empty_leaf();
        assert!(node.is_empty());
        assert_eq!(node.len(), 0);
        assert_eq!(node.object_count(), 0);
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
