//! Insertion, shared by both trees: ChooseSubtree descent, overflow
//! treatment (forced reinsertion where the bound asks for it, else a
//! split), split propagation and count maintenance.
//!
//! Every entry carries its subtree's object count, so every insert
//! rewrites its whole root-to-leaf path. The path is therefore read and
//! decoded **once**: the descent keeps each flat node ([`PathStep`]); the
//! leaf edit, forced reinsertion, the split's parent update and the
//! placement context all use those nodes, and [`write_path`] rewrites
//! each ancestor from the child written just below it. On the
//! 62 173-point, 1 KiB-page benchmark R\*-tree that is 7.03 page reads
//! per insert for 7.06 writes.
//!
//! Where that build's time goes, with phase timers on (medians of 10
//! builds on a 2-core VM; the rest is the leaf edit, splits, forced
//! reinsertion and placement):
//!
//! | phase                      | full overlap rule, growing encode | branch and bound, one-buffer encode |
//! |----------------------------|------:|------:|
//! | ChooseSubtree              | 0.79 s | 0.23 s |
//! | decode                     | 0.26 s | 0.19 s |
//! | encode                     | 0.22 s | 0.15 s |
//! | store reads and writes     | 0.10 s | 0.10 s |
//! | ancestor copies in [`write_path`] | 0.03 s | 0.03 s |
//! | whole insertion            | 1.88 s | 1.12 s |

use crate::node::Node;
use crate::tree::{Bound, PagedTree, Result};
use sqda_storage::{PageId, PageStore};
use std::sync::Arc;

/// One step of a root-to-node path, with the node as read on the way
/// down.
pub(crate) struct PathStep {
    pub(crate) page: PageId,
    /// This node's entry index within its parent (`None` for the root).
    pub(crate) index_in_parent: Option<usize>,
    pub(crate) node: Arc<Node>,
}

/// Inserts one data object (called from [`PagedTree::insert`]).
pub(crate) fn insert_object<S: PageStore, B: Bound>(
    tree: &mut PagedTree<S, B>,
    point: &[f64],
    object: u64,
) -> Result<()> {
    let mut overflow_done = vec![false; tree.height as usize];
    insert_at_level(tree, (point, &[object]), 0, &mut overflow_done)?;
    tree.num_objects += 1;
    Ok(())
}

/// Inserts an entry — its coordinate and payload words, as
/// [`Node::entry`] gives them — into a node at `target_level`, handling
/// overflow by forced reinsertion (once per level per logical insertion)
/// or splitting.
pub(crate) fn insert_at_level<S: PageStore, B: Bound>(
    tree: &mut PagedTree<S, B>,
    (coords, payload): (&[f64], &[u64]),
    target_level: u32,
    overflow_done: &mut Vec<bool>,
) -> Result<()> {
    if overflow_done.len() < tree.height as usize {
        overflow_done.resize(tree.height as usize, false);
    }
    let mut path = choose_path(tree, coords, target_level)?;
    let leaf = &path.last().expect("path reaches its level").node;
    let mut node = leaf.pushed(coords, payload);
    let mut level = target_level;

    loop {
        if node.len() <= tree.config.max_entries(node.is_leaf()) {
            return write_path(tree, &path, node);
        }

        let is_root = path.len() == 1;
        if !is_root && !overflow_done[level as usize] {
            if let Some(victims) = B::evict(&tree.config, &node) {
                // OverflowTreatment: forced reinsertion, once per level.
                overflow_done[level as usize] = true;
                write_path(tree, &path, node.picked(&kept_after(node.len(), &victims)))?;
                // Close reinsert: victims come in decreasing distance
                // order; reinsert starting from the closest.
                let evicted = node.picked(&victims);
                for i in (0..evicted.len()).rev() {
                    insert_at_level(tree, evicted.entry(i), level, overflow_done)?;
                }
                return Ok(());
            }
        }

        // Split.
        let (keep_idx, moved_idx) = B::split(&tree.config, &node);
        let (keep, moved) = (node.picked(&keep_idx), node.picked(&moved_idx));
        let step = path.pop().expect("path is non-empty");
        let parent = path.last().map(|p| p.node.as_ref());
        let moved_bound = B::bound(&moved);
        let new_page = tree.store.allocate(B::place(tree, &moved_bound, parent)?)?;
        tree.write_node(step.page, &keep)?;
        tree.write_node(new_page, &moved)?;
        let keep_bound = B::bound(&keep);
        let moved_link = [new_page.as_raw(), moved.object_count()];

        let Some(parent) = parent else {
            // Grow the tree: a new root above the two halves.
            let bounds = [keep_bound, moved_bound].concat();
            let links = [
                step.page.as_raw(),
                keep.object_count(),
                moved_link[0],
                moved_link[1],
            ];
            let root_node =
                Node::from_raw_parts(level + 1, keep.dim() as u32, bounds.into(), links.into());
            let root_page = tree
                .store
                .allocate(B::place(tree, &B::bound(&root_node), None)?)?;
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
        node = parent.pushed(&moved_bound, &moved_link);
        node.set_internal(child_idx, &keep_bound, keep.object_count());
        level += 1;
    }
}

/// The entries a node keeps after forced reinsertion evicts `victims`,
/// in the order removing each victim by `swap_remove`, highest index
/// first, leaves them.
fn kept_after(len: usize, victims: &[usize]) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..len).collect();
    let mut sorted = victims.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    for idx in sorted {
        kept.swap_remove(idx);
    }
    kept
}

/// Descends from the root to a node at `target_level`, applying the
/// bound's ChooseSubtree rule at every step; each node is read once and
/// kept.
fn choose_path<S: PageStore, B: Bound>(
    tree: &PagedTree<S, B>,
    entry: &[f64],
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
        let idx = B::choose_subtree(node, entry);
        let page = node.internal_child(idx);
        let node = tree.read_node(page)?;
        path.push(PathStep {
            page,
            index_in_parent: Some(idx),
            node,
        });
    }
}

/// Writes `node` to the page at the end of `path`, then rewrites each
/// ancestor bottom up: its entry for the child just written gets that
/// child's bound and subtree count, on a copy of the ancestor as `path`
/// holds it. Nothing is read back.
pub(crate) fn write_path<S: PageStore, B: Bound>(
    tree: &PagedTree<S, B>,
    path: &[PathStep],
    node: Node,
) -> Result<()> {
    let (last, ancestors) = path.split_last().expect("path is non-empty");
    tree.write_node(last.page, &node)?;
    let (mut child, mut step) = (node, last);
    for parent in ancestors.iter().rev() {
        let idx = step.index_in_parent.expect("non-root step");
        debug_assert_eq!(parent.node.internal_child(idx), step.page);
        let mut edited = Node::clone(&parent.node);
        edited.set_internal(idx, &B::bound(&child), child.object_count());
        tree.write_node(parent.page, &edited)?;
        (child, step) = (edited, parent);
    }
    Ok(())
}
