//! Tree configuration and node-capacity computation, shared by both
//! trees.

use crate::codec;
use crate::split_policy::SplitPolicy;
use crate::tree::{Bound, RStarError};
use crate::Rects;

/// Configuration of a paged tree whose directory entries are `B` bounds.
///
/// Node capacities are derived from the page size and dimensionality so
/// that every node fits in exactly one disk page, but they can be
/// overridden (smaller) to force deep trees in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig<B> {
    /// Dimensionality of the indexed points.
    pub dim: usize,
    /// Page size the nodes must fit in, bytes.
    pub page_size: usize,
    /// Maximum entries in an internal node.
    pub max_internal_entries: usize,
    /// Maximum entries in a leaf node.
    pub max_leaf_entries: usize,
    /// The bound, with its own settings (the R\*-tree's split policy).
    pub(crate) bound: B,
}

/// Minimum fill fraction, 40% in both the R\*-tree and the SS-tree.
const MIN_FILL: f64 = 0.4;

/// Fraction of an R\*-tree node's entries forced reinsertion evicts.
const REINSERT: f64 = 0.3;

/// Configuration of an R\*-tree.
pub type RStarConfig = TreeConfig<Rects>;

impl<B: Bound> TreeConfig<B> {
    /// Creates a configuration for `dim`-dimensional points with the
    /// default 4 KiB page size.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0 or the page is too small to hold even a
    /// handful of entries.
    pub fn new(dim: usize) -> Self {
        Self::with_page_size(dim, sqda_storage::DEFAULT_PAGE_SIZE)
    }

    /// Creates a configuration with an explicit page size.
    ///
    /// # Panics
    ///
    /// As [`Self::new`]; [`Self::try_with_page_size`] reports the same
    /// cases as an error.
    pub fn with_page_size(dim: usize, page_size: usize) -> Self {
        Self::try_with_page_size(dim, page_size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a configuration with an explicit page size, or
    /// [`RStarError::NodeDoesNotFit`] when `dim` is 0 or a page cannot
    /// hold 4 entries of either node kind.
    pub fn try_with_page_size(dim: usize, page_size: usize) -> Result<Self, RStarError> {
        let fit = |entry: usize| page_size.saturating_sub(codec::HEADER_SIZE) / entry;
        let max_internal = fit(codec::internal_entry_size::<B>(dim));
        let max_leaf = fit(codec::leaf_entry_size(dim));
        if dim == 0 || max_internal < 4 || max_leaf < 4 {
            return Err(RStarError::NodeDoesNotFit { dim, page_size });
        }
        Ok(Self {
            dim,
            page_size,
            max_internal_entries: max_internal,
            max_leaf_entries: max_leaf,
            bound: B::default(),
        })
    }

    /// Caps both node capacities at `max` (for tests that need deep trees
    /// from few points). The capacities stay within what the page can
    /// hold.
    ///
    /// # Panics
    ///
    /// Panics if `max < 4`: splits need at least 4 entries.
    pub fn with_max_entries(mut self, max: usize) -> Self {
        assert!(max >= 4, "nodes need at least 4 entries to split");
        self.max_internal_entries = self.max_internal_entries.min(max);
        self.max_leaf_entries = self.max_leaf_entries.min(max);
        self
    }

    /// Most entries a leaf (`leaf`) or an internal node may hold.
    pub fn max_entries(&self, leaf: bool) -> usize {
        if leaf {
            self.max_leaf_entries
        } else {
            self.max_internal_entries
        }
    }

    /// Fewest entries a leaf (`leaf`) or an internal node below the root
    /// may hold.
    pub fn min_entries(&self, leaf: bool) -> usize {
        min_fill(self.max_entries(leaf), MIN_FILL)
    }
}

impl RStarConfig {
    /// Selects the node-split policy (default: [`SplitPolicy::RStar`]).
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.bound.split_policy = policy;
        self
    }

    /// Number of entries forced reinsertion evicts from a leaf (`leaf`)
    /// or an internal node.
    pub fn reinsert_count(&self, leaf: bool) -> usize {
        evict_count(self.max_entries(leaf), REINSERT)
    }
}

fn min_fill(max: usize, fraction: f64) -> usize {
    // At least 2 so splits produce non-degenerate nodes; at most max/2 so
    // a split of max+1 entries can satisfy both halves.
    (((max as f64) * fraction).round() as usize).clamp(2, max / 2)
}

fn evict_count(max: usize, fraction: f64) -> usize {
    // At least 1, and leave at least min_fill entries in the node.
    (((max as f64) * fraction).round() as usize).clamp(1, max.saturating_sub(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_for_2d_default_page() {
        let c = RStarConfig::new(2);
        // internal entry: 2*2*8 + 8 + 8 = 48; (4096-16)/48 = 85
        assert_eq!(c.max_internal_entries, 85);
        // leaf entry: 2*8 + 8 = 24; (4096-16)/24 = 170
        assert_eq!(c.max_leaf_entries, 170);
        assert_eq!(c.min_entries(false), 34);
        assert_eq!(c.min_entries(true), 68);
    }

    #[test]
    fn capacities_for_10d() {
        let c = RStarConfig::new(10);
        // internal entry: 2*10*8 + 16 = 176; (4096-16)/176 = 23
        assert_eq!(c.max_internal_entries, 23);
        // leaf entry: 80 + 8 = 88; (4096-16)/88 = 46
        assert_eq!(c.max_leaf_entries, 46);
    }

    #[test]
    fn override_caps_for_tests() {
        let c = RStarConfig::new(2).with_max_entries(4);
        assert_eq!(c.max_internal_entries, 4);
        assert_eq!(c.max_leaf_entries, 4);
        assert_eq!(c.min_entries(false), 2);
        assert_eq!(c.reinsert_count(true), 1);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_override_panics() {
        let _ = RStarConfig::new(2).with_max_entries(3);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_page_panics() {
        let _ = RStarConfig::with_page_size(10, 64);
    }

    #[test]
    fn unfit_pages_are_typed_errors() {
        for (dim, page_size) in [(10, 64), (300, 4096), (2, 0), (0, 4096)] {
            let err = RStarConfig::try_with_page_size(dim, page_size).unwrap_err();
            assert!(
                matches!(err, RStarError::NodeDoesNotFit { dim: d, page_size: p } if (d, p) == (dim, page_size)),
                "{err}"
            );
        }
        // Sphere entries are narrower: a page too small for a 10-d
        // R*-tree directory holds an SS-tree's.
        assert!(RStarConfig::try_with_page_size(10, 719).is_err());
        let ss = crate::SsConfig::try_with_page_size(10, 719).unwrap();
        assert_eq!((ss.max_internal_entries, ss.max_leaf_entries), (6, 7));
    }

    #[test]
    fn min_fill_leaves_room_for_split() {
        for max in [4usize, 5, 10, 23, 85, 170] {
            let m = min_fill(max, 0.4);
            // A node with max+1 entries must split into two nodes of ≥ m.
            assert!(2 * m <= max + 1, "max={max} m={m}");
            assert!(m >= 2);
        }
    }

    #[test]
    fn reinsert_count_reasonable() {
        let c = RStarConfig::new(2);
        let p = c.reinsert_count(true);
        assert_eq!(p, (170.0f64 * 0.3).round() as usize);
        assert!(p < c.max_leaf_entries);
    }
}
