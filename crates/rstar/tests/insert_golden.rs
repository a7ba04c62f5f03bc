//! Pins the layout that one-at-a-time insertion and deletion produce.
//!
//! Insertion is the paper's construction (every object inserted in turn,
//! every entry carrying its subtree count), so any change to how
//! ChooseSubtree, forced reinsertion, splits or count propagation are
//! computed must leave the tree bit for bit as it was. Each case builds
//! a tree by insertion, then deletes every third object, and checks
//! after each phase:
//!
//! * an FNV-1a digest over every page reachable from the root (page id,
//!   hosting disk, level, coordinate bits, payload words), in DFS order;
//! * the store's page writes (`IoStats::writes`);
//! * the pages allocated per disk.
//!
//! Reads are not pinned, only bounded: each insert reads the nodes of
//! its path once, so the benchmark-shaped case (a 4-node path, plus the
//! descents of forced reinsertion) stays within 8 reads per insert.

use sqda_geom::Point;
use sqda_rstar::decluster::ProximityIndex;
use sqda_rstar::{RStarConfig, RStarTree};
use sqda_storage::{ArrayStore, PageStore};
use std::sync::Arc;

const DISKS: u32 = 10;

/// One phase's pinned figures: `(digest, writes, pages per disk)`.
type Phase = (u64, u64, [usize; DISKS as usize]);

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn phase(tree: &RStarTree<ArrayStore>) -> Phase {
    let writes = tree.store().stats().writes;
    let pages: [usize; DISKS as usize] = tree.store().pages_per_disk().try_into().unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        fnv1a(&mut hash, page.as_raw());
        fnv1a(
            &mut hash,
            tree.store().placement(page).unwrap().disk.0.into(),
        );
        fnv1a(&mut hash, node.level().into());
        node.coords()
            .iter()
            .for_each(|c| fnv1a(&mut hash, c.to_bits()));
        node.payload().iter().for_each(|&w| fnv1a(&mut hash, w));
        if !node.is_leaf() {
            stack.extend(node.internal_iter().map(|e| e.child));
        }
    }
    (hash, writes, pages)
}

/// Inserts `points`, then deletes every third; returns both phases and
/// the page reads the inserts made.
fn build_and_thin(points: &[Point], page_size: usize) -> ([Phase; 2], u64) {
    let dim = points[0].dim();
    let store = Arc::new(ArrayStore::with_page_size(DISKS, 1449, page_size, 7));
    let config = RStarConfig::with_page_size(dim, page_size);
    let mut tree = RStarTree::create(store, config, Box::new(ProximityIndex)).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let insert_reads = tree.store().stats().reads;
    assert!(tree.validate().unwrap().is_ok());
    let inserted = phase(&tree);
    for (i, p) in points.iter().enumerate().step_by(3) {
        assert!(tree.delete(p, i as u64).unwrap(), "object {i} not found");
    }
    assert!(tree.validate().unwrap().is_ok());
    assert_eq!(
        tree.num_objects(),
        (points.len() - points.len().div_ceil(3)) as u64
    );
    ([inserted, phase(&tree)], insert_reads)
}

#[test]
fn insertion_layout_is_pinned_across_dims_and_page_sizes() {
    // 10-d entries need 176 B per directory entry: a 512 B page holds
    // two, below the four a node needs to split, so that cell is absent.
    #[rustfmt::skip]
    let golden: [(usize, usize, [Phase; 2]); 11] = [
        (2, 512, [(2912834532267187145, 11682, [16, 18, 16, 17, 16, 17, 18, 16, 16, 15]), (14983634706529767059, 15656, [12, 16, 14, 14, 13, 12, 15, 14, 14, 13])]),
        (2, 1024, [(17806294170828663664, 9393, [8, 8, 6, 6, 7, 8, 8, 6, 7, 7]), (310516096554368952, 12304, [8, 5, 5, 4, 5, 6, 6, 6, 6, 6])]),
        (2, 4096, [(6763139192217826392, 5988, [2, 2, 2, 2, 1, 1, 2, 2, 1, 2]), (6314435422783783661, 7588, [2, 2, 2, 2, 1, 1, 1, 1, 1, 2])]),
        (3, 512, [(16916382873085834204, 13545, [23, 23, 22, 23, 23, 23, 22, 22, 22, 22]), (16228303502166734401, 17337, [18, 18, 20, 18, 20, 15, 19, 20, 20, 17])]),
        (3, 1024, [(9943664962808802858, 9855, [10, 13, 11, 10, 10, 11, 10, 11, 10, 9]), (3096649339206074867, 12765, [9, 11, 9, 8, 6, 8, 7, 8, 7, 8])]),
        (3, 4096, [(6907778351341703859, 6100, [3, 2, 4, 2, 3, 2, 2, 2, 2, 2]), (7362667758600748463, 8028, [1, 1, 4, 2, 2, 2, 1, 2, 1, 2])]),
        (5, 512, [(3378696206964300424, 16848, [37, 37, 37, 37, 37, 37, 37, 36, 36, 36]), (5535568750542277388, 21203, [31, 32, 34, 32, 35, 32, 31, 32, 31, 30])]),
        (5, 1024, [(15160470470873033074, 11594, [16, 16, 15, 15, 15, 15, 15, 15, 15, 15]), (12668110481373842997, 15320, [12, 13, 12, 14, 11, 14, 11, 12, 15, 15])]),
        (5, 4096, [(4075826326757977586, 6967, [3, 4, 4, 3, 4, 3, 4, 3, 4, 5]), (5477288673865844400, 9121, [1, 4, 4, 3, 3, 3, 2, 1, 3, 3])]),
        (10, 1024, [(5861489729475447363, 16315, [33, 33, 33, 33, 33, 33, 33, 32, 32, 32]), (3584923217674363233, 20275, [28, 32, 31, 27, 31, 29, 32, 30, 27, 27])]),
        (10, 4096, [(2671511487883039170, 9254, [6, 7, 6, 7, 7, 5, 5, 6, 9, 6]), (4981116384920120030, 12193, [4, 6, 4, 7, 4, 5, 4, 6, 9, 5])]),
    ];
    let mut drifted = Vec::new();
    for (dim, page_size, want) in golden {
        let points = sqda_datasets::gaussian_clusters(2000, dim, 8, dim as u64).points;
        let (got, _) = build_and_thin(&points, page_size);
        if got != want {
            drifted.push(format!("({dim}, {page_size}, {got:?}),"));
        }
    }
    assert!(
        drifted.is_empty(),
        "insertion layout drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn sim_multiuser_tree_layout_is_pinned() {
    // The benchmark's tree: 62 173 california-like places, 1 KiB pages.
    let points = sqda_datasets::california_like(62_173, 1998).points;
    let (got, reads) = build_and_thin(&points, 1024);
    let want = [
        (
            18372718307337809591,
            438938,
            [218, 215, 217, 217, 218, 216, 216, 216, 217, 217],
        ),
        (
            4774839807681443772,
            560712,
            [181, 184, 184, 179, 187, 181, 181, 175, 180, 186],
        ),
    ];
    assert_eq!(got, want, "insertion layout drifted");
    assert!(
        reads <= 8 * points.len() as u64,
        "{reads} reads for {} inserts",
        points.len()
    );
}
