//! The streaming generators.
//!
//! The out-of-core bulk builder ([`sqda-rstar`'s external build]) consumes
//! points through a multi-pass source, so at 10M+ objects the dataset
//! must never be resident as a `Vec<Point>`. The iterators here hold only
//! the rng state (a few dozen bytes) between points; the materializing
//! [`crate::uniform`] / [`crate::gaussian_clusters`] are these streams
//! collected, so `uniform_stream(n, d, s)` yields the same points, in the
//! same order, as `uniform(n, d, s).points`.
//!
//! The iterators are cheap to construct, so a multi-pass consumer simply
//! rebuilds one per pass.

use crate::generators::normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqda_geom::Point;

/// [`crate::uniform`] as a stream: `n` points uniform in `[0,1]^dim`.
pub fn uniform_stream(n: usize, dim: usize, seed: u64) -> UniformStream {
    assert!(dim > 0);
    UniformStream {
        rng: StdRng::seed_from_u64(seed),
        dim,
        remaining: n,
    }
}

/// Iterator yielded by [`uniform_stream`].
pub struct UniformStream {
    rng: StdRng,
    dim: usize,
    remaining: usize,
}

impl Iterator for UniformStream {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let coords = (0..self.dim).map(|_| self.rng.gen::<f64>()).collect();
        Some(Point::new(coords))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for UniformStream {}

/// [`crate::gaussian`] as a stream: single isotropic Gaussian,
/// mean 0.5, σ 0.15 per dimension.
pub fn gaussian_stream(n: usize, dim: usize, seed: u64) -> GaussianStream {
    gaussian_clusters_stream(n, dim, 1, seed)
}

/// [`crate::gaussian_clusters`] as a stream. Cluster centers are drawn
/// eagerly at construction, point draws happen lazily per `next()`.
pub fn gaussian_clusters_stream(n: usize, dim: usize, k: usize, seed: u64) -> GaussianStream {
    assert!(dim > 0 && k > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters: Vec<(Vec<f64>, f64)> = if k == 1 {
        vec![(vec![0.5; dim], 0.15)]
    } else {
        (0..k)
            .map(|_| {
                let center: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.15..0.85)).collect();
                let sigma = rng.gen_range(0.02..0.1);
                (center, sigma)
            })
            .collect()
    };
    GaussianStream {
        rng,
        clusters,
        remaining: n,
    }
}

/// Iterator yielded by [`gaussian_stream`] / [`gaussian_clusters_stream`].
pub struct GaussianStream {
    rng: StdRng,
    clusters: Vec<(Vec<f64>, f64)>,
    remaining: usize,
}

impl Iterator for GaussianStream {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let pick = self.rng.gen_range(0..self.clusters.len());
        let (center, sigma) = &self.clusters[pick];
        // `center` can't be borrowed across the `normal(&mut self.rng)`
        // calls; clone the (short) center into the output buffer first.
        let mut coords: Vec<f64> = center.clone();
        let sigma = *sigma;
        for c in &mut coords {
            *c += sigma * normal(&mut self.rng);
        }
        Some(Point::new(coords))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for GaussianStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gaussian, gaussian_clusters, uniform};

    #[test]
    fn streams_match_materialized() {
        let mat = uniform(500, 3, 11);
        let streamed: Vec<Point> = uniform_stream(500, 3, 11).collect();
        assert_eq!(mat.points, streamed);

        let mat = gaussian(500, 4, 11);
        let streamed: Vec<Point> = gaussian_stream(500, 4, 11).collect();
        assert_eq!(mat.points, streamed);

        let mat = gaussian_clusters(500, 2, 7, 11);
        let streamed: Vec<Point> = gaussian_clusters_stream(500, 2, 7, 11).collect();
        assert_eq!(mat.points, streamed);
    }

    #[test]
    fn streams_are_multi_pass_consistent() {
        // Rebuilding the iterator replays the identical sequence — the
        // contract the external builder's multi-pass source relies on.
        let a: Vec<Point> = uniform_stream(200, 2, 3).collect();
        let b: Vec<Point> = uniform_stream(200, 2, 3).collect();
        assert_eq!(a, b);
        let a: Vec<Point> = gaussian_clusters_stream(200, 2, 4, 3).collect();
        let b: Vec<Point> = gaussian_clusters_stream(200, 2, 4, 3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_report_exact_length() {
        let mut it = uniform_stream(10, 2, 1);
        assert_eq!(it.len(), 10);
        it.next();
        assert_eq!(it.len(), 9);
        assert_eq!(it.count(), 9);
        assert_eq!(gaussian_stream(0, 2, 1).count(), 0);
    }
}
