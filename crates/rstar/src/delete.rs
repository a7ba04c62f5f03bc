//! Deletion: FindLeaf + CondenseTree with orphan reinsertion.

use crate::entry::{LeafEntry, ObjectId};
use crate::insert::{insert_at_level, write_path, EntryToInsert, PathStep};
use crate::node::Node;
use crate::tree::{RStarTree, Result};
use sqda_geom::Point;
use sqda_storage::{PageId, PageStore};
use std::sync::Arc;

/// Deletes one `(point, object)` pair. Returns `false` if not present.
pub(crate) fn delete_object<S: PageStore>(
    tree: &mut RStarTree<S>,
    point: &Point,
    object: ObjectId,
) -> Result<bool> {
    // FindLeaf: DFS into every subtree whose MBR contains the point.
    let Some(mut path) = find_leaf(tree, point, object)? else {
        return Ok(false);
    };

    // Remove the entry from the leaf.
    let leaf = &path.last().expect("path reaches a leaf").node;
    let idx = leaf
        .leaf_iter()
        .position(|(c, o)| o == object && c == point.coords())
        .expect("find_leaf located the entry");
    let mut node = leaf.removed(idx);

    // CondenseTree: walk upward; underfull non-root nodes are dissolved
    // and their entries reinserted. `node` is the edited tail of `path`.
    let mut orphans: Vec<(u32, EntryToInsert)> = Vec::new();
    loop {
        let min = if node.is_leaf() {
            tree.config.min_leaf_entries()
        } else {
            tree.config.min_internal_entries()
        };
        if path.len() == 1 || node.len() >= min {
            // Healthy (or the root): write it, refresh ancestors' MBRs
            // and counts.
            write_path(tree, &path, node)?;
            break;
        }
        // Dissolve: orphan the entries, remove the node from its parent.
        let step = path.pop().expect("non-root has a parent step");
        tree.write_node(step.page, &node)?;
        let level = node.level();
        if node.is_leaf() {
            orphans.extend(
                node.leaf_entries_vec()
                    .into_iter()
                    .map(|e| (level, EntryToInsert::Leaf(e))),
            );
        } else {
            orphans.extend(
                node.internal_entries_vec()
                    .into_iter()
                    .map(|e| (level, EntryToInsert::Internal(e))),
            );
        }
        let idx = step
            .index_in_parent
            .expect("non-root step has parent index");
        node = path.last().expect("parent exists").node.removed(idx);
        tree.free_node(step.page)?;
    }

    // Shrink the root while it is an internal node with a single child.
    loop {
        let root = tree.read_node(tree.root)?;
        if !root.is_leaf() && root.len() == 1 && tree.height > 1 {
            let old_root = tree.root;
            tree.root = root.internal_child(0);
            tree.height -= 1;
            tree.free_node(old_root)?;
        } else if !root.is_leaf() && root.is_empty() {
            // All objects deleted through condense: reset to empty leaf.
            let old_root = tree.root;
            let leaf = Node::empty_leaf();
            let page = tree.store.allocate(sqda_storage::DiskId(0))?;
            tree.write_node(page, &leaf)?;
            tree.root = page;
            tree.height = 1;
            tree.free_node(old_root)?;
        } else {
            break;
        }
    }

    // Reinsert orphans at their original levels. Entries from a dissolved
    // node at level L must land in a node at level L again. Forced
    // reinsertion stays enabled per reinsert (fresh overflow budget), as
    // each orphan is an independent logical insertion.
    // Reinsert shallow (leaf) entries last so the tree has regained
    // height before internal orphans need deep targets.
    orphans.sort_by_key(|(level, _)| std::cmp::Reverse(*level));
    for (level, entry) in orphans {
        if level > tree.root_level() {
            // The tree shrank below the orphan's level; its subtree cannot
            // be grafted back as a single entry. Flatten it to leaf
            // entries and reinsert those.
            if let EntryToInsert::Internal(e) = entry {
                let leaves = collect_and_free_subtree(tree, e.child)?;
                for le in leaves {
                    let mut overflow_done = vec![false; tree.height as usize];
                    insert_at_level(tree, EntryToInsert::Leaf(le), 0, &mut overflow_done)?;
                }
            } else {
                unreachable!("leaf orphans always fit (level 0)");
            }
        } else {
            let mut overflow_done = vec![false; tree.height as usize];
            insert_at_level(tree, entry, level, &mut overflow_done)?;
        }
    }

    tree.num_objects -= 1;
    Ok(true)
}

/// Collects all leaf entries under `page`, freeing the subtree's pages.
fn collect_and_free_subtree<S: PageStore>(
    tree: &RStarTree<S>,
    page: PageId,
) -> Result<Vec<LeafEntry>> {
    let mut out = Vec::new();
    let mut stack = vec![page];
    while let Some(p) = stack.pop() {
        let node = tree.read_node(p)?;
        if node.is_leaf() {
            out.extend(node.leaf_iter().map(|(c, o)| LeafEntry::new(c.into(), o)));
        } else {
            stack.extend(node.internal_iter().map(|e| e.child));
        }
        tree.free_node(p)?;
    }
    Ok(out)
}

/// DFS from the root for the leaf containing `(point, object)`. Returns
/// the root-to-leaf path, each node as read.
fn find_leaf<S: PageStore>(
    tree: &RStarTree<S>,
    point: &Point,
    object: ObjectId,
) -> Result<Option<Vec<PathStep>>> {
    fn rec<S: PageStore>(
        tree: &RStarTree<S>,
        point: &Point,
        object: ObjectId,
        path: &mut Vec<PathStep>,
    ) -> Result<bool> {
        let node = Arc::clone(&path.last().expect("path is non-empty").node);
        if node.is_leaf() {
            return Ok(node
                .leaf_iter()
                .any(|(c, o)| o == object && c == point.coords()));
        }
        for (i, e) in node.internal_iter().enumerate() {
            if e.mbr.contains_coords(point.coords()) {
                path.push(PathStep {
                    page: e.child,
                    index_in_parent: Some(i),
                    node: tree.read_node(e.child)?,
                });
                if rec(tree, point, object, path)? {
                    return Ok(true);
                }
                path.pop();
            }
        }
        Ok(false)
    }

    let mut path = vec![PathStep {
        page: tree.root,
        index_in_parent: None,
        node: tree.read_node(tree.root)?,
    }];
    Ok(rec(tree, point, object, &mut path)?.then_some(path))
}
