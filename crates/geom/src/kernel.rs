//! Shared scalar + batched distance kernels.
//!
//! Every distance metric in the crate bottoms out here, so the scalar
//! API ([`Point::dist_sq`], [`RectRef::min_dist_sq`], sphere metrics on
//! [`crate::Region`]) and the batched node-at-a-time kernels cannot
//! drift apart.
//!
//! # Bit-exactness contract
//!
//! The batched kernels work **across entries**, never within one: each
//! entry keeps its own accumulator and its per-dimension accumulation
//! order is exactly the scalar loop's (`acc = 0.0; for d { acc += t*t }`).
//! IEEE-754 addition is not associative, so this is the only layout where
//! `batch == scalar` holds bit for bit — the experiment pipeline's pinned
//! answers and `IoStats` depend on it.
//!
//! # Scratch-buffer ownership
//!
//! Batched kernels write into a caller-provided `&mut Vec<f64>`
//! (cleared and resized to the entry count). Callers own and reuse the
//! buffers across nodes/queries — the hot path allocates only when a
//! node is wider than anything seen before.
//!
//! # Dimension-specialised kernels
//!
//! The kernels the query path runs per node — point distances, MINDIST
//! and the three-metric rectangle sweep — are one body each, generic over
//! a const `D`, and dispatch on the query's dimensionality: for 1 to 8
//! dimensions `D` is that dimensionality and the compiler unrolls the
//! per-entry loops completely (a 2-d node of 21–42 entries spends its
//! time in arithmetic, not in loop control); `D = 0` is the same body
//! over a runtime `dim` and serves everything wider. Chunking entries
//! into lanes, as these kernels used to, measured no faster than the
//! plain per-entry loop at any dimensionality, so it is gone.

// ---------------------------------------------------------------------
// Scalar slice kernels: the single source of truth for the arithmetic.
// ---------------------------------------------------------------------

/// Squared Euclidean distance between two coordinate slices.
///
/// Accumulates `(a[d]-b[d])²` in dimension order from `0.0` — the same
/// sequence of additions as `iter().map(..).sum()`, so the result is
/// bit-identical to the historical iterator formulation.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// `D_min²` (MINDIST): squared distance from point `q` to the closest
/// point of the rectangle `[lo, hi]`.
#[inline]
pub fn min_dist_sq(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), q.len(), "dimension mismatch");
    debug_assert_eq!(hi.len(), q.len(), "dimension mismatch");
    let mut acc = 0.0;
    for ((l, h), c) in lo.iter().zip(hi.iter()).zip(q.iter()) {
        let d = if c < l {
            l - c
        } else if c > h {
            c - h
        } else {
            0.0
        };
        acc += d * d;
    }
    acc
}

/// Per-dimension contribution pair for MINMAXDIST: squared distance to
/// the *near* face and to the *far* face along dimension `d`.
#[inline]
fn face_sq(lo: f64, hi: f64, c: f64) -> (f64, f64) {
    let mid = (lo + hi) / 2.0;
    let rm = if c <= mid { lo } else { hi };
    let r_m = if c >= mid { lo } else { hi };
    ((c - rm) * (c - rm), (c - r_m) * (c - r_m))
}

/// `D_mm²` (MINMAXDIST): the squared distance within which at least one
/// object of a *minimal* MBR is guaranteed to lie.
///
/// Two passes over the dimensions, no allocation; bit-identical to the
/// buffered formulation `total_far - far_sq[d] + near_sq[d]`.
pub fn min_max_dist_sq(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), q.len(), "dimension mismatch");
    debug_assert_eq!(hi.len(), q.len(), "dimension mismatch");
    let n = q.len();
    let mut total_far = 0.0;
    for d in 0..n {
        total_far += face_sq(lo[d], hi[d], q[d]).1;
    }
    let mut best = f64::INFINITY;
    for d in 0..n {
        let (near_sq, far_sq) = face_sq(lo[d], hi[d], q[d]);
        let candidate = total_far - far_sq + near_sq;
        if candidate < best {
            best = candidate;
        }
    }
    best
}

/// `D_max²`: squared distance from `q` to the farthest point of the
/// rectangle (always a vertex).
#[inline]
pub fn max_dist_sq(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), q.len(), "dimension mismatch");
    debug_assert_eq!(hi.len(), q.len(), "dimension mismatch");
    let mut acc = 0.0;
    for ((l, h), c) in lo.iter().zip(hi.iter()).zip(q.iter()) {
        let d = (c - l).abs().max((c - h).abs());
        acc += d * d;
    }
    acc
}

/// `D_min²` from `q` to a sphere (0 inside).
#[inline]
pub fn sphere_min_dist_sq(center: &[f64], radius: f64, q: &[f64]) -> f64 {
    let d = dist_sq(center, q).sqrt() - radius;
    if d <= 0.0 {
        0.0
    } else {
        d * d
    }
}

/// `D_max²` from `q` to a sphere. A bounding sphere gives no per-face
/// guarantee, so this is also its MINMAXDIST.
#[inline]
pub fn sphere_max_dist_sq(center: &[f64], radius: f64, q: &[f64]) -> f64 {
    let d = dist_sq(center, q).sqrt() + radius;
    d * d
}

// ---------------------------------------------------------------------
// Batched kernels: all entries of a node in one call.
// ---------------------------------------------------------------------

/// Calls `$kernel::<D>` with `D` the query's dimensionality when it is one
/// of the specialised ones, `$kernel::<0>` (runtime `dim`) otherwise.
macro_rules! by_dim {
    ($q:expr, $kernel:ident($($arg:expr),*)) => {
        match $q.len() {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            _ => $kernel::<0>($($arg),*),
        }
    };
}

/// The kernel's dimensionality: `D` when specialised — a constant the
/// optimiser unrolls over — the query's own for `D = 0`.
#[inline(always)]
fn dim_of<const D: usize>(q: &[f64]) -> usize {
    if D == 0 {
        q.len()
    } else {
        D
    }
}

#[inline]
fn prep_out(out: &mut Vec<f64>, n: usize) {
    out.clear();
    out.resize(n, 0.0);
}

/// The entries of a flat buffer, `stride` coordinates each.
#[inline(always)]
fn entries(buf: &[f64], stride: usize) -> std::slice::ChunksExact<'_, f64> {
    debug_assert!(
        stride > 0 && buf.len() % stride == 0 || buf.is_empty(),
        "buffer is not a whole number of entries"
    );
    buf.chunks_exact(stride.max(1))
}

/// Squared point-to-point distances from `q` to every entry of a flat
/// point buffer (`entries × dim`, stride `dim`), written into `out`.
pub fn batch_dist_sq(q: &[f64], points: &[f64], out: &mut Vec<f64>) {
    by_dim!(q, dist_sq_each(q, points, out))
}

fn dist_sq_each<const D: usize>(q: &[f64], points: &[f64], out: &mut Vec<f64>) {
    let dim = dim_of::<D>(q);
    let q = &q[..dim];
    prep_out(out, entries(points, dim).len());
    for (p, o) in entries(points, dim).zip(out.iter_mut()) {
        *o = dist_sq(p, q);
    }
}

/// One axis of MINDIST without the scalar kernel's branches: at most one
/// of the two differences is positive and the other clamps to zero, so
/// the sum is the branch's value exactly.
#[inline(always)]
fn gap(lo: f64, hi: f64, c: f64) -> f64 {
    (lo - c).max(0.0) + (c - hi).max(0.0)
}

/// MINDIST² from `q` to every rectangle of a flat rect buffer
/// (`entries × 2·dim`, each entry `lo[0..dim]` then `hi[0..dim]`).
pub fn batch_min_dist_sq(q: &[f64], rects: &[f64], out: &mut Vec<f64>) {
    by_dim!(q, min_dist_sq_each(q, rects, out))
}

fn min_dist_sq_each<const D: usize>(q: &[f64], rects: &[f64], out: &mut Vec<f64>) {
    let dim = dim_of::<D>(q);
    let q = &q[..dim];
    prep_out(out, entries(rects, 2 * dim).len());
    for (r, o) in entries(rects, 2 * dim).zip(out.iter_mut()) {
        let mut acc = 0.0;
        for d in 0..dim {
            let t = gap(r[d], r[dim + d], q[d]);
            acc += t * t;
        }
        *o = acc;
    }
}

/// MINMAXDIST² from `q` to every rectangle of a flat rect buffer.
pub fn batch_min_max_dist_sq(q: &[f64], rects: &[f64], out: &mut Vec<f64>) {
    let dim = q.len();
    out.clear();
    out.extend(entries(rects, 2 * dim).map(|r| min_max_dist_sq(&r[..dim], &r[dim..], q)));
}

/// D_max² from `q` to every rectangle of a flat rect buffer.
pub fn batch_max_dist_sq(q: &[f64], rects: &[f64], out: &mut Vec<f64>) {
    let dim = q.len();
    out.clear();
    out.extend(entries(rects, 2 * dim).map(|r| max_dist_sq(&r[..dim], &r[dim..], q)));
}

/// All three rectangle metrics (`D_min²`, `D_mm²`, `D_max²`) for every
/// entry in one sweep — what CRSS/FPSS candidate construction needs.
pub fn batch_rect_metrics(
    q: &[f64],
    rects: &[f64],
    d_min: &mut Vec<f64>,
    d_mm: &mut Vec<f64>,
    d_max: &mut Vec<f64>,
) {
    by_dim!(q, rect_metrics_each(q, rects, d_min, d_mm, d_max))
}

/// Each entry's corners are loaded once and feed all three accumulators.
/// With `D` known the first pass's MINMAXDIST faces are kept for the
/// second (re-deriving them unrolled spills at 7–8 dimensions); at runtime
/// `dim` they are recomputed, as the scalar kernel does.
fn rect_metrics_each<const D: usize>(
    q: &[f64],
    rects: &[f64],
    d_min: &mut Vec<f64>,
    d_mm: &mut Vec<f64>,
    d_max: &mut Vec<f64>,
) {
    let dim = dim_of::<D>(q);
    let q = &q[..dim];
    let n = entries(rects, 2 * dim).len();
    prep_out(d_min, n);
    prep_out(d_mm, n);
    prep_out(d_max, n);
    let outs = d_min.iter_mut().zip(d_mm.iter_mut()).zip(d_max.iter_mut());
    for (r, ((o_min, o_mm), o_max)) in entries(rects, 2 * dim).zip(outs) {
        let (mut near, mut far, mut total_far) = (0.0, 0.0, 0.0);
        let mut faces = [(0.0, 0.0); D];
        for d in 0..dim {
            let (l, h, c) = (r[d], r[dim + d], q[d]);
            let t = gap(l, h, c);
            near += t * t;
            let t = (c - l).abs().max((c - h).abs());
            far += t * t;
            let face = face_sq(l, h, c);
            if D > 0 {
                faces[d] = face;
            }
            total_far += face.1;
        }
        let mut best = f64::INFINITY;
        for d in 0..dim {
            let (near_sq, far_sq) = if D > 0 {
                faces[d]
            } else {
                face_sq(r[d], r[dim + d], q[d])
            };
            let candidate = total_far - far_sq + near_sq;
            if candidate < best {
                best = candidate;
            }
        }
        (*o_min, *o_mm, *o_max) = (near, best, far);
    }
}

/// Sphere MINDIST² from `q` to every entry of flat `centers` (stride
/// `dim`) with per-entry `radii`.
pub fn batch_sphere_min_dist_sq(q: &[f64], centers: &[f64], radii: &[f64], out: &mut Vec<f64>) {
    batch_dist_sq(q, centers, out);
    debug_assert_eq!(out.len(), radii.len(), "radius per center required");
    for (o, &r) in out.iter_mut().zip(radii.iter()) {
        let d = o.sqrt() - r;
        *o = if d <= 0.0 { 0.0 } else { d * d };
    }
}

/// Sphere D_max² (= MINMAXDIST²) from `q` to every entry.
pub fn batch_sphere_max_dist_sq(q: &[f64], centers: &[f64], radii: &[f64], out: &mut Vec<f64>) {
    batch_dist_sq(q, centers, out);
    debug_assert_eq!(out.len(), radii.len(), "radius per center required");
    for (o, &r) in out.iter_mut().zip(radii.iter()) {
        let d = o.sqrt() + r;
        *o = d * d;
    }
}

/// All three sphere metrics for every entry (`D_mm = D_max` for
/// spheres).
pub fn batch_sphere_metrics(
    q: &[f64],
    centers: &[f64],
    radii: &[f64],
    d_min: &mut Vec<f64>,
    d_mm: &mut Vec<f64>,
    d_max: &mut Vec<f64>,
) {
    batch_dist_sq(q, centers, d_min);
    debug_assert_eq!(d_min.len(), radii.len(), "radius per center required");
    prep_out(d_mm, d_min.len());
    prep_out(d_max, d_min.len());
    for (i, &r) in radii.iter().enumerate() {
        let dist = d_min[i].sqrt();
        let near = dist - r;
        d_min[i] = if near <= 0.0 { 0.0 } else { near * near };
        let far = dist + r;
        d_mm[i] = far * far;
        d_max[i] = far * far;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64) so the tests need
    /// no RNG dependency at unit-test level.
    struct Mix(u64);
    impl Mix {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        }
    }

    fn random_rects(mix: &mut Mix, n: usize, dim: usize) -> Vec<f64> {
        let mut rects = Vec::with_capacity(n * 2 * dim);
        for _ in 0..n {
            let a: Vec<f64> = (0..dim).map(|_| mix.next_f64()).collect();
            let b: Vec<f64> = (0..dim).map(|_| mix.next_f64()).collect();
            for d in 0..dim {
                rects.push(a[d].min(b[d]));
            }
            for d in 0..dim {
                rects.push(a[d].max(b[d]));
            }
        }
        rects
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// The dispatching kernels (`D` = the dimensionality for dims 1–8,
    /// runtime `dim` above) against the runtime-`dim` instantiation alone
    /// and against the scalar kernels, bit for bit.
    #[test]
    fn specialised_fallback_and_scalar_kernels_agree_bitwise() {
        let mut mix = Mix(7);
        for dim in 1..=12 {
            // Node fan-outs of the 1 KiB and 4 KiB page sizes, and counts
            // straddling the lane width.
            for n in [0usize, 1, 7, 8, 9, 21, 42] {
                let q: Vec<f64> = (0..dim).map(|_| mix.next_f64()).collect();
                let rects = random_rects(&mut mix, n, dim);
                let points: Vec<f64> = (0..n * dim).map(|_| mix.next_f64()).collect();
                let what = format!("dim {dim}, {n} entries");
                let (mut o_min, mut o_mm, mut o_max, mut o_pt) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                batch_rect_metrics(&q, &rects, &mut o_min, &mut o_mm, &mut o_max);
                batch_dist_sq(&q, &points, &mut o_pt);
                let (mut f_min, mut f_mm, mut f_max, mut f_pt) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                rect_metrics_each::<0>(&q, &rects, &mut f_min, &mut f_mm, &mut f_max);
                dist_sq_each::<0>(&q, &points, &mut f_pt);
                assert_bits(&o_min, &f_min, &what);
                assert_bits(&o_mm, &f_mm, &what);
                assert_bits(&o_max, &f_max, &what);
                assert_bits(&o_pt, &f_pt, &what);
                let (mut solo, mut solo_dyn) = (vec![99.0], Vec::new());
                batch_min_dist_sq(&q, &rects, &mut solo);
                min_dist_sq_each::<0>(&q, &rects, &mut solo_dyn);
                assert_bits(&solo, &f_min, &what);
                assert_bits(&solo_dyn, &f_min, &what);
                assert_eq!(o_min.len(), n);
                for i in 0..n {
                    let base = i * 2 * dim;
                    let (lo, hi) = (&rects[base..base + dim], &rects[base + dim..base + 2 * dim]);
                    assert_eq!(o_min[i].to_bits(), min_dist_sq(lo, hi, &q).to_bits());
                    assert_eq!(o_mm[i].to_bits(), min_max_dist_sq(lo, hi, &q).to_bits());
                    assert_eq!(o_max[i].to_bits(), max_dist_sq(lo, hi, &q).to_bits());
                    assert_eq!(
                        o_pt[i].to_bits(),
                        dist_sq(&points[i * dim..(i + 1) * dim], &q).to_bits()
                    );
                }
            }
        }
    }

    /// Queries on a face, on a corner, inside, and around signed zeros:
    /// where the branch-free MINDIST axis could differ from the branching
    /// scalar one if it were wrong.
    #[test]
    fn specialised_kernels_agree_on_boundaries_and_signed_zeros() {
        let rects = [
            -0.0, 1.0, 0.0, 3.0, 0.0, -2.0, 0.0, -2.0, -4.0, 0.5, -1.0, 0.5,
        ];
        for q in [
            [0.0, 1.0],
            [-0.0, 3.0],
            [0.0, 2.0],
            [-0.0, -2.0],
            [5.0, 0.5],
            [-2.5, 0.5],
        ] {
            let (mut o_min, mut o_mm, mut o_max) = (Vec::new(), Vec::new(), Vec::new());
            batch_rect_metrics(&q, &rects, &mut o_min, &mut o_mm, &mut o_max);
            let (mut f_min, mut f_mm, mut f_max) = (Vec::new(), Vec::new(), Vec::new());
            rect_metrics_each::<0>(&q, &rects, &mut f_min, &mut f_mm, &mut f_max);
            assert_bits(&o_min, &f_min, "D_min");
            assert_bits(&o_mm, &f_mm, "D_mm");
            assert_bits(&o_max, &f_max, "D_max");
            for (i, r) in rects.chunks_exact(4).enumerate() {
                assert_eq!(
                    o_min[i].to_bits(),
                    min_dist_sq(&r[..2], &r[2..], &q).to_bits()
                );
            }
        }
    }

    #[test]
    fn sphere_batch_matches_scalar_bitwise() {
        let mut mix = Mix(99);
        for (dim, n) in [(2usize, 11usize), (5, 8), (3, 0)] {
            let q: Vec<f64> = (0..dim).map(|_| mix.next_f64()).collect();
            let centers: Vec<f64> = (0..n * dim).map(|_| mix.next_f64()).collect();
            let radii: Vec<f64> = (0..n).map(|_| mix.next_f64().abs()).collect();
            let (mut o_min, mut o_mm, mut o_max) = (Vec::new(), Vec::new(), Vec::new());
            batch_sphere_metrics(&q, &centers, &radii, &mut o_min, &mut o_mm, &mut o_max);
            let mut solo = Vec::new();
            batch_sphere_min_dist_sq(&q, &centers, &radii, &mut solo);
            for i in 0..n {
                let c = &centers[i * dim..(i + 1) * dim];
                assert_eq!(
                    o_min[i].to_bits(),
                    sphere_min_dist_sq(c, radii[i], &q).to_bits()
                );
                assert_eq!(
                    o_max[i].to_bits(),
                    sphere_max_dist_sq(c, radii[i], &q).to_bits()
                );
                assert_eq!(o_mm[i].to_bits(), o_max[i].to_bits());
                assert_eq!(solo[i].to_bits(), o_min[i].to_bits());
            }
        }
    }

    #[test]
    fn scratch_buffers_are_reused_and_resized() {
        let mut out = vec![99.0; 64];
        batch_dist_sq(&[0.0, 0.0], &[3.0, 4.0], &mut out);
        assert_eq!(out, vec![25.0]);
        batch_dist_sq(&[0.0], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn metric_ordering_holds_per_entry() {
        let mut mix = Mix(3);
        let dim = 4;
        let q: Vec<f64> = (0..dim).map(|_| mix.next_f64()).collect();
        let rects = random_rects(&mut mix, 20, dim);
        let (mut o_min, mut o_mm, mut o_max) = (Vec::new(), Vec::new(), Vec::new());
        batch_rect_metrics(&q, &rects, &mut o_min, &mut o_mm, &mut o_max);
        for i in 0..20 {
            assert!(o_min[i] <= o_mm[i], "entry {i}: D_min² > D_mm²");
            assert!(o_mm[i] <= o_max[i], "entry {i}: D_mm² > D_max²");
        }
    }
}
