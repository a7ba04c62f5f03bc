//! The dataset generators.

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cardinality of the paper's California Places data set.
pub const CP_CARDINALITY: usize = 62_173;

/// Cardinality of the paper's Long Beach data set.
pub const LB_CARDINALITY: usize = 53_145;

/// Draws a standard-normal sample (Box–Muller; `rand` ships no normal
/// distribution without `rand_distr`, which is outside the approved
/// dependency set).
pub(crate) fn normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// SU: `n` points uniform in the unit hyper-cube `[0,1]^dim`.
pub fn uniform(n: usize, dim: usize, seed: u64) -> Dataset {
    let points = crate::uniform_stream(n, dim, seed).collect();
    Dataset::new(format!("uniform-{dim}d"), dim, points)
}

/// SG: `n` points from a single isotropic Gaussian centered in the unit
/// cube (mean 0.5, σ 0.15 per dimension).
pub fn gaussian(n: usize, dim: usize, seed: u64) -> Dataset {
    gaussian_clusters(n, dim, 1, seed)
}

/// `n` points from `k` isotropic Gaussian clusters with random centers in
/// `[0.15, 0.85]^dim` and per-cluster σ in `[0.02, 0.1]`. With `k = 1` the
/// center is fixed at 0.5 and σ = 0.15 (the paper's single-Gaussian SG
/// set).
pub fn gaussian_clusters(n: usize, dim: usize, k: usize, seed: u64) -> Dataset {
    let points = crate::gaussian_clusters_stream(n, dim, k, seed).collect();
    let name = if k == 1 {
        format!("gaussian-{dim}d")
    } else {
        format!("gaussian{k}-{dim}d")
    };
    Dataset::new(name, dim, points)
}

/// CP stand-in: a 2-d population-center mixture in the unit square.
///
/// Structure (mirroring what makes the real Sequoia "California places"
/// set hard for an R-tree): ~60 "cities" with Zipf-distributed sizes and
/// varying spreads, 8% rural background scatter. Dense metropolitan
/// clusters produce heavily overlapping, small MBRs — the regime where
/// candidate-reduction pays off.
pub fn california_like(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    const CITIES: usize = 60;
    // Zipf-ish weights: w_i = 1 / (i+1).
    let weights: Vec<f64> = (0..CITIES).map(|i| 1.0 / (i + 1) as f64).collect();
    let total_w: f64 = weights.iter().sum();
    let centers: Vec<(f64, f64, f64)> = (0..CITIES)
        .map(|i| {
            // Bias city centers towards a "coast": x correlated with y.
            let t: f64 = rng.gen();
            let x = 0.15 + 0.7 * t + 0.1 * normal(&mut rng);
            let y = 0.1 + 0.8 * (1.0 - t) + 0.1 * normal(&mut rng);
            // Large cities are denser (smaller spread per point).
            let sigma = 0.004 + 0.03 * (i as f64 / CITIES as f64);
            (x.clamp(0.02, 0.98), y.clamp(0.02, 0.98), sigma)
        })
        .collect();
    let background = n * 8 / 100;
    let clustered = n - background;
    let mut points = Vec::with_capacity(n);
    for _ in 0..clustered {
        // Weighted city choice.
        let mut pick: f64 = rng.gen::<f64>() * total_w;
        let mut idx = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
            idx = i;
        }
        let (cx, cy, sigma) = centers[idx];
        let x = (cx + sigma * normal(&mut rng)).clamp(0.0, 1.0);
        let y = (cy + sigma * normal(&mut rng)).clamp(0.0, 1.0);
        points.push(sqda_geom::Point::new(vec![x, y]));
    }
    for _ in 0..background {
        points.push(sqda_geom::Point::new(vec![rng.gen(), rng.gen()]));
    }
    Dataset::new("california-like", 2, points)
}

/// LB stand-in: a 2-d jittered street grid with radially varying density.
///
/// Road-intersection data is near-regular locally (street grids) but its
/// density varies across the county; we emulate both: a fine grid whose
/// intersections are retained with probability decreasing away from two
/// "downtown" density peaks, plus per-intersection jitter.
pub fn long_beach_like(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let peaks = [(0.35, 0.55, 0.25), (0.7, 0.3, 0.18)];
    let density = |x: f64, y: f64| -> f64 {
        let mut d: f64 = 0.08; // base suburban density
        for (px, py, scale) in peaks {
            let dist2 = (x - px) * (x - px) + (y - py) * (y - py);
            d += (-dist2 / (2.0 * scale * scale)).exp();
        }
        d.min(1.0)
    };
    // Choose the grid pitch so that the expected kept intersections ≈ n.
    // Average density over the unit square is estimated by sampling.
    let mut avg = 0.0;
    const PROBES: usize = 4096;
    for _ in 0..PROBES {
        avg += density(rng.gen(), rng.gen());
    }
    avg /= PROBES as f64;
    let cells = (n as f64 / avg).sqrt().ceil() as usize;
    let pitch = 1.0 / cells as f64;
    let mut points = Vec::with_capacity(n + n / 8);
    'outer: for gy in 0..cells {
        for gx in 0..cells {
            let x = (gx as f64 + 0.5) * pitch;
            let y = (gy as f64 + 0.5) * pitch;
            if rng.gen::<f64>() < density(x, y) {
                let jx = x + pitch * 0.25 * normal(&mut rng);
                let jy = y + pitch * 0.25 * normal(&mut rng);
                points.push(sqda_geom::Point::new(vec![
                    jx.clamp(0.0, 1.0),
                    jy.clamp(0.0, 1.0),
                ]));
                if points.len() == n {
                    break 'outer;
                }
            }
        }
    }
    // Top up if the grid undershot (rare): extra jittered intersections
    // near the first peak.
    while points.len() < n {
        let x = (peaks[0].0 + 0.2 * normal(&mut rng)).clamp(0.0, 1.0);
        let y = (peaks[0].1 + 0.2 * normal(&mut rng)).clamp(0.0, 1.0);
        points.push(sqda_geom::Point::new(vec![x, y]));
    }
    Dataset::new("long-beach-like", 2, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_cube() {
        let d = uniform(5000, 3, 1);
        assert_eq!(d.len(), 5000);
        assert_eq!(d.dim, 3);
        let (lo, hi) = d.bounds().unwrap();
        for dd in 0..3 {
            assert!(lo[dd] >= 0.0 && lo[dd] < 0.01, "lo {lo:?}");
            assert!(hi[dd] <= 1.0 && hi[dd] > 0.99, "hi {hi:?}");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(100, 2, 7), uniform(100, 2, 7));
        assert_eq!(gaussian(100, 5, 7), gaussian(100, 5, 7));
        assert_eq!(california_like(1000, 7), california_like(1000, 7));
        assert_eq!(long_beach_like(1000, 7), long_beach_like(1000, 7));
        assert_ne!(uniform(100, 2, 7), uniform(100, 2, 8));
    }

    #[test]
    fn gaussian_concentrates_near_center() {
        let d = gaussian(10_000, 2, 2);
        let near_center = d
            .points
            .iter()
            .filter(|p| {
                let dx = p.coord(0) - 0.5;
                let dy = p.coord(1) - 0.5;
                (dx * dx + dy * dy).sqrt() < 0.3 // 2σ
            })
            .count();
        // 2σ radius holds ~86% of a 2-d Gaussian.
        assert!(near_center > 8000, "only {near_center} near center");
    }

    #[test]
    fn gaussian_clusters_multimodal() {
        let d = gaussian_clusters(5000, 2, 5, 3);
        assert_eq!(d.len(), 5000);
        assert_eq!(d.dim, 2);
    }

    #[test]
    fn california_like_is_skewed() {
        let d = california_like(20_000, 4);
        assert_eq!(d.len(), 20_000);
        // Skew test: split the square into a 10x10 grid; the most populous
        // cell must hold far more than the uniform share (1%).
        let mut cells = [0usize; 100];
        for p in &d.points {
            let gx = (p.coord(0) * 10.0).min(9.0) as usize;
            let gy = (p.coord(1) * 10.0).min(9.0) as usize;
            cells[gy * 10 + gx] += 1;
        }
        let max = *cells.iter().max().unwrap();
        assert!(
            max > d.len() / 20,
            "max cell {max} of {} — not skewed enough",
            d.len()
        );
    }

    #[test]
    fn long_beach_like_has_exact_cardinality() {
        let d = long_beach_like(LB_CARDINALITY, 5);
        assert_eq!(d.len(), LB_CARDINALITY);
        let (lo, hi) = d.bounds().unwrap();
        assert!(lo.iter().all(|&c| c >= 0.0));
        assert!(hi.iter().all(|&c| c <= 1.0));
    }

    #[test]
    fn long_beach_like_density_varies() {
        let d = long_beach_like(20_000, 6);
        let mut cells = [0usize; 25];
        for p in &d.points {
            let gx = (p.coord(0) * 5.0).min(4.0) as usize;
            let gy = (p.coord(1) * 5.0).min(4.0) as usize;
            cells[gy * 5 + gx] += 1;
        }
        let max = *cells.iter().max().unwrap();
        let min = *cells.iter().min().unwrap();
        assert!(max > 3 * min.max(1), "density too even: {cells:?}");
    }
}
