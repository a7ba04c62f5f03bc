//! GIS nearest-facility search: the paper's 2-d real-data scenario.
//!
//! A map layer of ~62,000 places (the California-Places-like generator)
//! indexed on a 10-disk array; we answer both flavours of similarity
//! query from Section 2.3:
//!
//! * range query  — "every place within radius ε of here", and
//! * k-NN query   — "the 5 closest places to here",
//!
//! and show why k-NN is the harder problem: a well-chosen ε is unknown
//! a priori (too small → not enough answers; too large → wasted I/O).
//!
//! ```text
//! cargo run --release --example gis_nearest
//! ```

use sqda::core::RangeSearch;
use sqda::prelude::*;
use sqda_datasets::california_like;
use std::sync::Arc;

fn main() {
    let dataset = california_like(62_173, 11);
    let store = Arc::new(ArrayStore::new(10, 1449, 12));
    let mut tree = RStarTree::create(store, RStarConfig::new(2), Box::new(ProximityIndex))
        .expect("create tree");
    for (i, p) in dataset.points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).expect("insert");
    }
    println!(
        "indexed {} places (height {}, avg fill {:.2})",
        tree.num_objects(),
        tree.height(),
        tree.stats().expect("stats").avg_fill,
    );

    let here = Point::new(vec![0.42, 0.37]);

    // Range queries with guessed radii: the ε-guessing problem.
    println!("\nrange queries around {here}:");
    let range = |eps: f64| {
        let mut search = RangeSearch::new(&tree, here.clone(), eps);
        run_query(&tree, &mut search).expect("range query").results
    };
    for eps in [0.001, 0.005, 0.02, 0.1] {
        println!("  ε = {eps:<6} → {:>6} places", range(eps).len());
    }

    // The k-NN query answers directly, no ε needed.
    let k = 5;
    let mut crss = AlgorithmKind::Crss
        .build(&tree, here.clone(), k)
        .expect("build");
    let run = run_query(&tree, crss.as_mut()).expect("query");
    println!(
        "\nthe {k} closest places (CRSS, {} node reads):",
        run.nodes_visited
    );
    for n in &run.results {
        println!(
            "  place #{:<6} at {}  distance {:.5}",
            n.object.0,
            n.point,
            n.dist()
        );
    }

    // Transforming the k-NN into a range query with the (now known)
    // exact radius returns the same set — this is what WOPTSS assumes it
    // knows in advance.
    let dk = run.results.last().expect("k answers").dist();
    let exact = range(dk);
    assert!(exact.len() >= k);
    println!(
        "\nrange query with the oracle radius ε = D_k = {dk:.5} → {} places",
        exact.len()
    );
}
