//! The driver's own random stream. Query points and arrival times come
//! from here and never from `rand`, so a cargo-built and a stub-built
//! driver draw the same queries for the same `--seed`.

/// SplitMix64 (Steele, Lea, Flood): one 64-bit state, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; the modulo bias is far below anything measured.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal by Box–Muller.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            let u2 = self.next_f64();
            if u1 > f64::MIN_POSITIVE {
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Exponential with rate `lambda` (a Poisson process's gaps).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / lambda
    }
}

/// `n` 2-d query points from the distribution `sqda generate --kind
/// gaussian` draws its data from (mean 0.5, sigma 0.15 per axis):
/// queries follow the data, and being continuous they never repeat.
pub fn gaussian_queries(n: usize, seed: u64) -> Vec<[f64; 2]> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| [0.5 + 0.15 * rng.normal(), 0.5 + 0.15 * rng.normal()])
        .collect()
}
