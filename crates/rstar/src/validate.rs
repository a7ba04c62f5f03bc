//! Structural invariant checking.
//!
//! After any sequence of insertions and deletions a valid tree must
//! satisfy:
//!
//! 1. every internal entry's bound is a valid bound of its child node
//!    ([`crate::Bound::covers`]: the R\*-tree's MBR equals the child's,
//!    tight; the SS-tree's sphere covers every point or sphere of the
//!    child), and so transitively contains everything below;
//! 2. every internal entry's object count equals the number of data
//!    objects in the child subtree (the paper's count augmentation);
//! 3. all leaves sit at level 0 and the level decreases by exactly one
//!    per edge (balanced height);
//! 4. every node except the root holds at least the minimum and at most
//!    the maximum number of entries;
//! 5. the root has at least 2 entries unless it is a leaf;
//! 6. the recorded object total matches the actual number of leaf
//!    entries.

use crate::node::Node;
use crate::tree::{Bound, PagedTree, Result};
use sqda_storage::{PageId, PageStore};

/// A violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A parent entry's bound does not bound its child as the tree
    /// requires.
    BadBound {
        /// Page of the parent node.
        parent: PageId,
        /// Page of the child node.
        child: PageId,
    },
    /// A parent entry's count disagrees with the child subtree.
    WrongCount {
        /// Page of the parent node.
        parent: PageId,
        /// Page of the child node.
        child: PageId,
        /// Count recorded in the parent entry.
        recorded: u64,
        /// Count measured in the child subtree.
        actual: u64,
    },
    /// Child level is not parent level − 1.
    BrokenLevel {
        /// Page of the parent node.
        parent: PageId,
        /// Parent's level.
        parent_level: u32,
        /// Child's level.
        child_level: u32,
    },
    /// A non-root node under- or overflows.
    BadFill {
        /// The offending node.
        page: PageId,
        /// Its entry count.
        len: usize,
        /// Allowed minimum.
        min: usize,
        /// Allowed maximum.
        max: usize,
    },
    /// A non-leaf root has fewer than 2 entries.
    DegenerateRoot {
        /// The root page.
        page: PageId,
        /// Its entry count.
        len: usize,
    },
    /// `num_objects` does not match the leaves.
    WrongTotal {
        /// Objects recorded in the tree metadata.
        recorded: u64,
        /// Leaf entries actually found.
        actual: u64,
    },
    /// The tree height recorded does not match the root's level + 1.
    WrongHeight {
        /// Height recorded in the metadata.
        recorded: u32,
        /// Root level + 1.
        actual: u32,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BadBound { parent, child } => {
                write!(f, "entry bound in {parent} does not bound {child}")
            }
            ValidationError::WrongCount {
                parent,
                child,
                recorded,
                actual,
            } => write!(
                f,
                "entry in {parent} records {recorded} objects under {child}, found {actual}"
            ),
            ValidationError::BrokenLevel {
                parent,
                parent_level,
                child_level,
            } => write!(
                f,
                "node {parent} at level {parent_level} has child at level {child_level}"
            ),
            ValidationError::BadFill {
                page,
                len,
                min,
                max,
            } => write!(f, "node {page} has {len} entries, allowed {min}..={max}"),
            ValidationError::DegenerateRoot { page, len } => {
                write!(f, "internal root {page} has only {len} entries")
            }
            ValidationError::WrongTotal { recorded, actual } => {
                write!(f, "tree records {recorded} objects, leaves hold {actual}")
            }
            ValidationError::WrongHeight { recorded, actual } => {
                write!(f, "tree records height {recorded}, structure says {actual}")
            }
        }
    }
}

/// Validates all invariants; returns the first violation found.
pub fn validate<S: PageStore, B: Bound>(
    tree: &PagedTree<S, B>,
) -> Result<std::result::Result<(), ValidationError>> {
    let root = tree.read_node(tree.root_page())?;
    if root.level() + 1 != tree.height() {
        return Ok(Err(ValidationError::WrongHeight {
            recorded: tree.height(),
            actual: root.level() + 1,
        }));
    }
    if !root.is_leaf() && root.len() < 2 {
        return Ok(Err(ValidationError::DegenerateRoot {
            page: tree.root_page(),
            len: root.len(),
        }));
    }
    let mut total = 0u64;
    if let Err(e) = check_node(tree, tree.root_page(), &root, true, &mut total)? {
        return Ok(Err(e));
    }
    if total != tree.num_objects() {
        return Ok(Err(ValidationError::WrongTotal {
            recorded: tree.num_objects(),
            actual: total,
        }));
    }
    Ok(Ok(()))
}

/// Recursively checks one node; accumulates the objects seen into `total`
/// and returns the subtree's object count on success.
fn check_node<S: PageStore, B: Bound>(
    tree: &PagedTree<S, B>,
    page: PageId,
    node: &Node,
    is_root: bool,
    total: &mut u64,
) -> Result<std::result::Result<u64, ValidationError>> {
    let (min, max) = (
        tree.config().min_entries(node.is_leaf()),
        tree.config().max_entries(node.is_leaf()),
    );
    if !is_root && (node.len() < min || node.len() > max) {
        return Ok(Err(ValidationError::BadFill {
            page,
            len: node.len(),
            min,
            max,
        }));
    }
    if is_root && node.len() > max {
        return Ok(Err(ValidationError::BadFill {
            page,
            len: node.len(),
            min: 0,
            max,
        }));
    }
    if node.is_leaf() {
        *total += node.len() as u64;
        Ok(Ok(node.len() as u64))
    } else {
        let level = node.level();
        let mut subtree_total = 0u64;
        for i in 0..node.len() {
            let (bound, link) = node.entry(i);
            let (child_page, count) = (PageId::from_raw(link[0]), link[1]);
            let child = tree.read_node(child_page)?;
            if child.level() + 1 != level {
                return Ok(Err(ValidationError::BrokenLevel {
                    parent: page,
                    parent_level: level,
                    child_level: child.level(),
                }));
            }
            if !B::covers(bound, &child) {
                return Ok(Err(ValidationError::BadBound {
                    parent: page,
                    child: child_page,
                }));
            }
            let child_count = match check_node(tree, child_page, &child, false, total)? {
                Ok(c) => c,
                Err(err) => return Ok(Err(err)),
            };
            if child_count != count {
                return Ok(Err(ValidationError::WrongCount {
                    parent: page,
                    child: child_page,
                    recorded: count,
                    actual: child_count,
                }));
            }
            subtree_total += child_count;
        }
        Ok(Ok(subtree_total))
    }
}
