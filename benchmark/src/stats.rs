//! The few order statistics the benchmark reports. One definition each,
//! used for every metric: percentiles interpolate linearly between the
//! two closest ranks.

/// Sorts a sample ascending (it must hold no NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Percentile `q` in `[0, 1]` of an ascending-sorted sample; 0 if empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(v: &[f64]) -> f64 {
    let m = mean(v);
    if m == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64;
    var.sqrt() / m
}

/// The highest percentile a sample of `n` supports with at least ten
/// samples beyond it, capped at p99: `(q, label)`.
pub fn tail_quantile(n: usize) -> (f64, &'static str) {
    if n >= 1000 {
        (0.99, "p99")
    } else if n >= 100 {
        (0.90, "p90")
    } else {
        (0.50, "p50")
    }
}
