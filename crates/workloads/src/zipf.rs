//! A Zipf(θ) sampler over the in-repo PRNG.
//!
//! Real aggregation keys are rarely uniform — a few hot keys dominate
//! (power-law web data, heavy-hitter joins), which is exactly what makes
//! one shuffle reducer hot and one cached block worth keeping. This
//! sampler draws ranks `0..n` with `P(rank = i) ∝ (i + 1)^-θ` by
//! inverting a precomputed CDF with binary search: `O(n)` setup, one
//! PRNG draw and `O(log n)` per sample, no external dependencies.
//!
//! θ = 0 degenerates to uniform; θ ≈ 1 is the classic Zipf web-data
//! skew; larger θ concentrates further.

use sdheap::rng::Rng;

/// A precomputed Zipf distribution over `n` ranks.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n` with exponent `theta ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty rank space");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for i in 0..n {
            total += ((i + 1) as f64).powf(-theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Whether the rank space is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `[0, n)`, consuming exactly one PRNG word —
    /// callers that replay generation streams (e.g.
    /// [`crate::AggConfig::expected_fold`]) rely on the fixed draw count.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        // First rank whose cumulative probability covers `u`.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// A self-contained seeded Zipf stream: distribution plus PRNG in one
/// value, one draw per [`SkewSampler::draw`].
///
/// Everything that picks "which tenant / which key / which block" from a
/// skewed population — the store's cached-RDD access patterns, the
/// cluster scheduler's multi-tenant job generator — needs the same
/// shape: a `Zipf` table and a dedicated `Rng` stream advancing in
/// lockstep. Bundling them keeps the draw count explicit (exactly one
/// PRNG word per sample, so interleaved streams never perturb each
/// other) and makes the seed the complete description of the sequence.
#[derive(Clone, Debug)]
pub struct SkewSampler {
    zipf: Zipf,
    rng: Rng,
}

impl SkewSampler {
    /// A sampler over ranks `0..n` with exponent `theta`, drawing from a
    /// fresh PRNG stream seeded with `seed`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        SkewSampler {
            zipf: Zipf::new(n, theta),
            rng: Rng::new(seed),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.zipf.len()
    }

    /// Whether the rank space is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.zipf.is_empty()
    }

    /// Draws the next rank in `[0, n)`, consuming exactly one PRNG word.
    pub fn draw(&mut self) -> u64 {
        self.zipf.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range_and_are_deterministic() {
        let z = Zipf::new(64, 1.1);
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            let x = z.sample(&mut a);
            assert!(x < 64);
            assert_eq!(x, z.sample(&mut b));
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(7);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 100_000.0;
            assert!((f - 0.1).abs() < 0.01, "uniform bucket drifted: {f}");
        }
    }

    #[test]
    fn higher_theta_concentrates_on_the_head() {
        let mut rng = Rng::new(9);
        let mild = Zipf::new(100, 0.5);
        let hot = Zipf::new(100, 1.5);
        let head_mass = |z: &Zipf, rng: &mut Rng| {
            let mut head = 0u64;
            for _ in 0..50_000 {
                if z.sample(rng) == 0 {
                    head += 1;
                }
            }
            head as f64 / 50_000.0
        };
        let m = head_mass(&mild, &mut rng);
        let h = head_mass(&hot, &mut rng);
        assert!(h > m * 2.0, "theta 1.5 head {h} vs theta 0.5 head {m}");
        // Analytically, P(rank 0) = 1 / Σ_{i=1..100} i^-1.5 ≈ 0.39.
        assert!((h - 0.39).abs() < 0.03, "theta 1.5 head mass drifted: {h}");
    }

    #[test]
    fn skew_sampler_matches_manual_zipf_plus_rng_stream() {
        // The sampler is nothing but Zipf::new + Rng::new advancing in
        // lockstep — adopters replacing that manual pairing (the store's
        // access patterns) must see the identical sequence.
        let mut s = SkewSampler::new(64, 1.1, 42);
        let z = Zipf::new(64, 1.1);
        let mut rng = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(s.draw(), z.sample(&mut rng));
        }
    }

    #[test]
    fn skew_sampler_golden_sequence() {
        // Pinned first draws for a fixed (n, theta, seed): any drift in
        // the PRNG, the CDF construction, or the inversion changes every
        // seeded workload downstream.
        let mut s = SkewSampler::new(16, 1.1, 7);
        let golden: Vec<u64> = (0..12).map(|_| s.draw()).collect();
        assert_eq!(golden, vec![0, 0, 5, 1, 13, 1, 5, 0, 14, 0, 0, 0]);
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = Rng::new(3);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
