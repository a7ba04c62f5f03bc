//! Property tests pinning the batch distance kernels to the scalar ones
//! **bitwise**.
//!
//! The batch kernels are the only arithmetic on the traversal hot path,
//! and every determinism pin in the repo (layout digests, backend parity,
//! simulated timings) rests on them producing exactly the scalar results
//! — not "close", the same `f64::to_bits`. These properties sweep random
//! dimensions, entry counts (including zero and counts that do not divide
//! the lane width), coordinates spanning signs and magnitudes, and both
//! region shapes (rects and spheres).

use sqda_geom::kernel;
use sqda_geom::prop::{self, check};
use sqda_geom::rng::Rng;

const CASES: u32 = 256;

fn coords(rng: &mut Rng, n: usize, range: std::ops::Range<f64>) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(range.clone())).collect()
}

/// A dimension in 1..=12, a query point, and `n` flat point entries.
/// `n` ranges over 0 (empty node) through several lane widths plus
/// ragged tails.
fn points_case(rng: &mut Rng, size: usize) -> (Vec<f64>, Vec<f64>) {
    let dim = rng.gen_range(1..=12);
    let n = prop::len(rng, size, 0..41);
    let q = coords(rng, dim, -1e6..1e6);
    (q, coords(rng, dim * n, -1e6..1e6))
}

/// A query point and `n` flat rect entries (lo then hi per entry,
/// hi = lo + extent so rects are valid).
fn rects_case(rng: &mut Rng, size: usize) -> (Vec<f64>, Vec<f64>) {
    let dim = rng.gen_range(1..=10);
    let n = prop::len(rng, size, 0..41);
    let q = coords(rng, dim, -1e5..1e5);
    let mut flat = Vec::with_capacity(2 * dim * n);
    for _ in 0..n {
        let lo = coords(rng, dim, -1e5..1e5);
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..1e4)).collect();
        flat.extend(lo.into_iter().chain(hi));
    }
    (q, flat)
}

/// A query point, `n` flat centers, and `n` radii.
fn spheres_case(rng: &mut Rng, size: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let dim = rng.gen_range(1..=12);
    let n = prop::len(rng, size, 0..41);
    let q = coords(rng, dim, -1e5..1e5);
    let centers = coords(rng, dim * n, -1e5..1e5);
    (q, centers, coords(rng, n, 0.0..1e4))
}

fn assert_bits_eq(batch: &[f64], scalar: &[f64]) {
    assert_eq!(batch.len(), scalar.len());
    for (i, (b, s)) in batch.iter().zip(scalar.iter()).enumerate() {
        assert_eq!(
            b.to_bits(),
            s.to_bits(),
            "entry {i}: batch {b:?} != scalar {s:?}"
        );
    }
}

/// batch_dist_sq == dist_sq per entry, bit for bit.
#[test]
fn batch_dist_matches_scalar() {
    check(
        "batch_dist_matches_scalar",
        CASES,
        points_case,
        |(q, points)| {
            let mut out = vec![f64::NAN; 3]; // stale content must be overwritten
            kernel::batch_dist_sq(&q, &points, &mut out);
            let scalar: Vec<f64> = points
                .chunks(q.len())
                .map(|p| kernel::dist_sq(&q, p))
                .collect();
            assert_bits_eq(&out, &scalar);
        },
    );
}

/// The MINDIST batch kernel and the fused metrics kernel match their
/// scalar counterparts bit for bit.
#[test]
fn batch_rect_kernels_match_scalar() {
    check(
        "batch_rect_kernels_match_scalar",
        CASES,
        rects_case,
        |(q, rects)| {
            let dim = q.len();
            let mut d_min = Vec::new();
            kernel::batch_min_dist_sq(&q, &rects, &mut d_min);

            let lo_hi: Vec<(&[f64], &[f64])> = rects
                .chunks(2 * dim)
                .map(|e| (&e[..dim], &e[dim..]))
                .collect();
            let s_min: Vec<f64> = lo_hi
                .iter()
                .map(|(l, h)| kernel::min_dist_sq(l, h, &q))
                .collect();
            let s_mm: Vec<f64> = lo_hi
                .iter()
                .map(|(l, h)| kernel::min_max_dist_sq(l, h, &q))
                .collect();
            let s_max: Vec<f64> = lo_hi
                .iter()
                .map(|(l, h)| kernel::max_dist_sq(l, h, &q))
                .collect();
            assert_bits_eq(&d_min, &s_min);

            // The fused kernel returns all three vectors.
            let (mut f_min, mut f_mm, mut f_max) = (Vec::new(), Vec::new(), Vec::new());
            kernel::batch_rect_metrics(&q, &rects, &mut f_min, &mut f_mm, &mut f_max);
            assert_bits_eq(&f_min, &s_min);
            assert_bits_eq(&f_mm, &s_mm);
            assert_bits_eq(&f_max, &s_max);
        },
    );
}

/// Sphere batch kernels (the MINDIST one and the fused variant, where
/// D_mm == D_max) over the interleaved `[center, radius]` layout match
/// the scalar sphere kernels bit for bit.
#[test]
fn batch_sphere_kernels_match_scalar() {
    check(
        "batch_sphere_kernels_match_scalar",
        CASES,
        spheres_case,
        |(q, centers, radii)| {
            let dim = q.len();
            let spheres: Vec<f64> = centers
                .chunks(dim)
                .zip(radii.iter())
                .flat_map(|(c, r)| c.iter().chain([r]).copied())
                .collect();
            let mut d_min = Vec::new();
            kernel::batch_sphere_min_dist_sq(&q, &spheres, &mut d_min);

            let s_min: Vec<f64> = centers
                .chunks(dim)
                .zip(radii.iter())
                .map(|(c, &r)| kernel::sphere_min_dist_sq(c, r, &q))
                .collect();
            let s_max: Vec<f64> = centers
                .chunks(dim)
                .zip(radii.iter())
                .map(|(c, &r)| kernel::sphere_max_dist_sq(c, r, &q))
                .collect();
            assert_bits_eq(&d_min, &s_min);

            let (mut f_min, mut f_mm, mut f_max) = (Vec::new(), Vec::new(), Vec::new());
            kernel::batch_sphere_metrics(&q, &spheres, &mut f_min, &mut f_mm, &mut f_max);
            assert_bits_eq(&f_min, &s_min);
            assert_bits_eq(&f_mm, &s_max); // for spheres the MINMAXDIST bound is D_max
            assert_bits_eq(&f_max, &s_max);
        },
    );
}

/// Exact lane-width multiples exercise the pure-chunk path with no
/// scalar tail; one past the multiple exercises the 1-entry tail.
#[test]
fn lane_boundary_counts() {
    let gen = |rng: &mut Rng, _| {
        let dim = rng.gen_range(1..=6usize);
        let chunks = rng.gen_range(1..=3usize);
        (dim, chunks, rng.gen_range(-100.0..100.0))
    };
    check("lane_boundary_counts", CASES, gen, |(dim, chunks, q0)| {
        for extra in [0usize, 1] {
            let n = chunks * 8 + extra;
            let q: Vec<f64> = (0..dim).map(|d| q0 + d as f64).collect();
            let points: Vec<f64> = (0..n * dim).map(|i| (i as f64) * 0.37 - 40.0).collect();
            let mut out = Vec::new();
            kernel::batch_dist_sq(&q, &points, &mut out);
            let scalar: Vec<f64> = points.chunks(dim).map(|p| kernel::dist_sq(&q, p)).collect();
            assert_bits_eq(&out, &scalar);
        }
    });
}
