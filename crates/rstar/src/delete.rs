//! Deletion: FindLeaf + CondenseTree with orphan reinsertion.

use crate::entry::ObjectId;
use crate::insert::{insert_at_level, write_path, PathStep};
use crate::node::Node;
use crate::tree::Result;
use crate::RStarTree;
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
    let mut dissolved: Vec<Node> = Vec::new();
    loop {
        if path.len() == 1 || node.len() >= tree.config.min_entries(node.is_leaf()) {
            // Healthy (or the root): write it, refresh ancestors' MBRs
            // and counts.
            write_path(tree, &path, node)?;
            break;
        }
        // Dissolve: orphan the entries, remove the node from its parent
        // and free its page (unwritten: nothing reads it again).
        let step = path.pop().expect("non-root has a parent step");
        let idx = step
            .index_in_parent
            .expect("non-root step has parent index");
        let parent = path.last().expect("parent exists").node.removed(idx);
        dissolved.push(std::mem::replace(&mut node, parent));
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
    // each orphan is an independent logical insertion. Nodes dissolved
    // higher up are reinserted first, so the tree has regained height
    // before internal orphans need deep targets.
    for orphans in dissolved.iter().rev() {
        let level = orphans.level();
        for i in 0..orphans.len() {
            if level > tree.root_level() {
                // The tree shrank below the orphan's level; its subtree
                // cannot be grafted back as a single entry. Flatten it to
                // leaf entries and reinsert those.
                for leaf in collect_and_free_subtree(tree, orphans.internal_child(i))? {
                    for j in 0..leaf.len() {
                        let mut overflow_done = vec![false; tree.height as usize];
                        insert_at_level(tree, leaf.entry(j), 0, &mut overflow_done)?;
                    }
                }
            } else {
                let mut overflow_done = vec![false; tree.height as usize];
                insert_at_level(tree, orphans.entry(i), level, &mut overflow_done)?;
            }
        }
    }

    tree.num_objects -= 1;
    Ok(true)
}

/// Collects all leaves under `page`, freeing the subtree's pages.
fn collect_and_free_subtree<S: PageStore>(
    tree: &RStarTree<S>,
    page: PageId,
) -> Result<Vec<Arc<Node>>> {
    let mut out = Vec::new();
    let mut stack = vec![page];
    while let Some(p) = stack.pop() {
        let node = tree.read_node(p)?;
        if !node.is_leaf() {
            stack.extend(node.children());
        }
        tree.free_node(p)?;
        if node.is_leaf() {
            out.push(node);
        }
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
