//! R\*-tree insertion: ChooseSubtree, OverflowTreatment (forced
//! reinsertion), split propagation and count maintenance.
//!
//! Every entry carries its subtree's object count, so every insert
//! rewrites its whole root-to-leaf path. The path is therefore read and
//! decoded **once**: ChooseSubtree descends through the flat nodes and
//! keeps each one ([`PathStep`]); the leaf edit, forced reinsertion, the
//! split's parent update and the declustering context all use those
//! nodes, and [`write_path`] rewrites each ancestor from the child
//! written just below it. On the 62 173-point, 1 KiB-page benchmark tree
//! that is 7.03 page reads per insert for 7.06 writes.

use crate::entry::{InternalEntry, LeafEntry};
use crate::node::{Node, NodeMut};
use crate::split::reinsert_victims;
use crate::tree::{RStarTree, Result};
use sqda_geom::{Rect, RectRef};
use sqda_storage::{PageId, PageStore};
use std::sync::Arc;

/// An entry to (re)insert, at leaf or internal level.
pub(crate) enum EntryToInsert {
    Leaf(LeafEntry),
    Internal(InternalEntry),
}

impl EntryToInsert {
    fn mbr(&self) -> RectRef<'_> {
        match self {
            EntryToInsert::Leaf(e) => RectRef::new(e.point.coords(), e.point.coords()),
            EntryToInsert::Internal(e) => e.mbr.as_ref(),
        }
    }

    /// `node` with this entry appended.
    ///
    /// # Panics
    ///
    /// Panics if the entry kind does not match the node kind.
    fn appended_to(&self, node: &Node) -> Node {
        match self {
            EntryToInsert::Leaf(e) if node.is_leaf() => {
                node.pushed(&[e.point.coords()], &[e.object.0])
            }
            EntryToInsert::Internal(e) if !node.is_leaf() => {
                node.pushed(&[e.mbr.lo(), e.mbr.hi()], &[e.child.as_raw(), e.count])
            }
            _ => panic!("entry kind does not match node kind"),
        }
    }
}

/// One step of a root-to-node path, with the node as read on the way
/// down.
pub(crate) struct PathStep {
    pub(crate) page: PageId,
    /// This node's entry index within its parent (`None` for the root).
    pub(crate) index_in_parent: Option<usize>,
    pub(crate) node: Arc<Node>,
}

/// Inserts one data object (public entry point, called from
/// [`RStarTree::insert`]).
pub(crate) fn insert_object<S: PageStore>(tree: &mut RStarTree<S>, entry: LeafEntry) -> Result<()> {
    let mut overflow_done = vec![false; tree.height as usize];
    insert_at_level(tree, EntryToInsert::Leaf(entry), 0, &mut overflow_done)?;
    tree.num_objects += 1;
    Ok(())
}

/// Inserts an entry into a node at `target_level`, handling overflow by
/// forced reinsertion (once per level per logical insertion) or splitting.
pub(crate) fn insert_at_level<S: PageStore>(
    tree: &mut RStarTree<S>,
    entry: EntryToInsert,
    target_level: u32,
    overflow_done: &mut Vec<bool>,
) -> Result<()> {
    if overflow_done.len() < tree.height as usize {
        overflow_done.resize(tree.height as usize, false);
    }
    let mut path = choose_path(tree, entry.mbr(), target_level)?;
    let mut node = entry.appended_to(&path.last().expect("path reaches its level").node);
    let mut level = target_level;

    loop {
        if node.len() <= node_capacity(tree, &node) {
            return write_path(tree, &path, node);
        }

        let is_root = path.len() == 1;
        if !is_root && !overflow_done[level as usize] {
            // OverflowTreatment: forced reinsertion, once per level.
            overflow_done[level as usize] = true;
            let p = if node.is_leaf() {
                tree.config.leaf_reinsert_count()
            } else {
                tree.config.internal_reinsert_count()
            };
            let mut thawed = node.to_mut();
            let removed = evict_entries(&mut thawed, p);
            write_path(tree, &path, thawed.freeze())?;
            // Close reinsert: victims come in decreasing distance order;
            // reinsert starting from the closest.
            for e in removed.into_iter().rev() {
                insert_at_level(tree, e, level, overflow_done)?;
            }
            return Ok(());
        }

        // Split.
        let (keep, moved) = split_node(tree, &node.to_mut());
        let step = path.pop().expect("path is non-empty");
        let parent_siblings = match path.last() {
            Some(parent) => sibling_disks(tree, &parent.node)?,
            None => Vec::new(),
        };
        let new_mbr = moved.mbr().expect("split group is non-empty");
        let new_page = tree.allocate_declustered(&new_mbr, &parent_siblings)?;
        tree.write_node(step.page, &keep)?;
        tree.write_node(new_page, &moved)?;
        let keep_mbr = keep.mbr().expect("split group is non-empty");

        let Some(parent) = path.last() else {
            // Grow the tree: a new root above the two halves.
            let entries = [
                InternalEntry::new(keep_mbr, step.page, keep.object_count()),
                InternalEntry::new(new_mbr, new_page, moved.object_count()),
            ];
            let root_node = Node::from_internal_entries(level + 1, &entries);
            let root_mbr = root_node.mbr().expect("root has entries");
            let root_page = tree.allocate_declustered(&root_mbr, &[])?;
            tree.write_node(root_page, &root_node)?;
            tree.root = root_page;
            tree.height += 1;
            overflow_done.resize(tree.height as usize, false);
            return Ok(());
        };

        // Update the parent: refresh this node's entry, add the new one.
        let child_idx = step
            .index_in_parent
            .expect("non-root step has a parent index");
        node = parent.node.pushed(
            &[new_mbr.lo(), new_mbr.hi()],
            &[new_page.as_raw(), moved.object_count()],
        );
        node.set_internal(child_idx, &keep_mbr, keep.object_count());
        level += 1;
    }
}

/// Descends from the root to a node at `target_level`, applying the R\*
/// ChooseSubtree rule at every step; each node is read once and kept.
fn choose_path<S: PageStore>(
    tree: &RStarTree<S>,
    mbr: RectRef<'_>,
    target_level: u32,
) -> Result<Vec<PathStep>> {
    let root = tree.read_node(tree.root)?;
    debug_assert!(
        target_level <= root.level(),
        "target level {target_level} above root level {}",
        root.level()
    );
    let mut path = vec![PathStep {
        page: tree.root,
        index_in_parent: None,
        node: root,
    }];
    loop {
        let node = &path.last().expect("path is non-empty").node;
        if node.level() <= target_level {
            return Ok(path);
        }
        let idx = choose_subtree(node, mbr);
        let page = node.internal_child(idx);
        let node = tree.read_node(page)?;
        path.push(PathStep {
            page,
            index_in_parent: Some(idx),
            node,
        });
    }
}

/// The R\* ChooseSubtree rule over an internal node's entries.
///
/// * Children are leaves → minimize overlap enlargement, ties by area
///   enlargement then area. Following the R\* paper, when the node is
///   large the overlap test only considers the 32 entries with the least
///   area enlargement.
/// * Otherwise → minimize area enlargement, ties by area.
///
/// Runs on the flat entries: each entry's area and enlargement is
/// computed once, and the overlap test's enlarged rectangle lives in one
/// buffer for the whole call.
fn choose_subtree(node: &Node, mbr: RectRef<'_>) -> usize {
    debug_assert!(!node.is_empty());
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
            let enlarged = RectRef::new(&enlarged[..d], &enlarged[d..]);
            let mut overlap_delta = 0.0;
            for (j, other) in rects().enumerate() {
                if j != i {
                    overlap_delta += enlarged.intersection_area(other) - r.intersection_area(other);
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

fn node_capacity<S: PageStore>(tree: &RStarTree<S>, node: &Node) -> usize {
    if node.is_leaf() {
        tree.config.max_leaf_entries
    } else {
        tree.config.max_internal_entries
    }
}

/// Removes the `p` reinsertion victims from the node, returning them in
/// decreasing center-distance order.
fn evict_entries(node: &mut NodeMut, p: usize) -> Vec<EntryToInsert> {
    let mbrs: Vec<Rect> = match node {
        NodeMut::Leaf { entries } => entries.iter().map(|e| e.mbr()).collect(),
        NodeMut::Internal { entries, .. } => entries.iter().map(|e| e.mbr.clone()).collect(),
    };
    let victims = reinsert_victims(&mbrs, p);
    // Remove by descending index so earlier removals don't shift later ones.
    let mut sorted = victims.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut removed_by_index: Vec<(usize, EntryToInsert)> = Vec::with_capacity(p);
    for idx in sorted {
        let e = match node {
            NodeMut::Leaf { entries } => EntryToInsert::Leaf(entries.swap_remove(idx)),
            NodeMut::Internal { entries, .. } => EntryToInsert::Internal(entries.swap_remove(idx)),
        };
        removed_by_index.push((idx, e));
    }
    // Restore the original (decreasing-distance) victim order.
    let mut out: Vec<Option<EntryToInsert>> = Vec::new();
    out.resize_with(victims.len(), || None);
    for (idx, e) in removed_by_index {
        let pos = victims
            .iter()
            .position(|&v| v == idx)
            .expect("victim index");
        out[pos] = Some(e);
    }
    out.into_iter()
        .map(|e| e.expect("all victims placed"))
        .collect()
}

/// Splits an overflowing node, returning `(keep, moved)` nodes in frozen
/// (flat) form, ready to write.
fn split_node<S: PageStore>(tree: &RStarTree<S>, node: &NodeMut) -> (Node, Node) {
    let m = if node.is_leaf() {
        tree.config.min_leaf_entries()
    } else {
        tree.config.min_internal_entries()
    };
    let policy = tree.config.split_policy;
    match node {
        NodeMut::Leaf { entries } => {
            let mbrs: Vec<Rect> = entries.iter().map(|e| e.mbr()).collect();
            let split = policy.split(&mbrs, m);
            let pick = |idx: &[usize]| {
                Node::from_leaf_entries(
                    &idx.iter().map(|&i| entries[i].clone()).collect::<Vec<_>>(),
                )
            };
            (pick(&split.group1), pick(&split.group2))
        }
        NodeMut::Internal { level, entries } => {
            let mbrs: Vec<Rect> = entries.iter().map(|e| e.mbr.clone()).collect();
            let split = policy.split(&mbrs, m);
            let pick = |idx: &[usize]| {
                Node::from_internal_entries(
                    *level,
                    &idx.iter().map(|&i| entries[i].clone()).collect::<Vec<_>>(),
                )
            };
            (pick(&split.group1), pick(&split.group2))
        }
    }
}

/// The MBRs and hosting disks of a node's entries (context for the
/// declustering heuristic).
fn sibling_disks<S: PageStore>(
    tree: &RStarTree<S>,
    parent: &Node,
) -> Result<Vec<(Rect, sqda_storage::DiskId)>> {
    let mut out = Vec::with_capacity(parent.len());
    for e in parent.internal_iter() {
        let placement = tree.store.placement(e.child)?;
        out.push((e.mbr.to_rect(), placement.disk));
    }
    Ok(out)
}

/// Writes `node` to the page at the end of `path`, then rewrites each
/// ancestor bottom up: its entry for the child just written gets that
/// child's MBR and subtree count, on a copy of the ancestor as `path`
/// holds it. Nothing is read back.
pub(crate) fn write_path<S: PageStore>(
    tree: &RStarTree<S>,
    path: &[PathStep],
    node: Node,
) -> Result<()> {
    let (last, ancestors) = path.split_last().expect("path is non-empty");
    tree.write_node(last.page, &node)?;
    let (mut child, mut step) = (node, last);
    for parent in ancestors.iter().rev() {
        let idx = step.index_in_parent.expect("non-root step");
        debug_assert_eq!(parent.node.internal_child(idx), step.page);
        let mbr = child
            .mbr()
            .expect("tree nodes below the root are non-empty");
        let mut edited = Node::clone(&parent.node);
        edited.set_internal(idx, &mbr, child.object_count());
        tree.write_node(parent.page, &edited)?;
        (child, step) = (edited, parent);
    }
    Ok(())
}
