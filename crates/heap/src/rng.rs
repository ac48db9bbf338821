//! A small deterministic PRNG for workload generation and tests.
//!
//! The sandbox builds offline, so the external `rand` crate is not
//! available; every generator in the repository runs on this
//! xoshiro256++ implementation instead. Determinism is the point:
//! workloads are seed-stable across runs and platforms, which is what
//! the figure-regeneration harness and the seeded property tests rely
//! on.
//!
//! ```
//! use sdheap::rng::Rng;
//! let mut a = Rng::new(7);
//! let mut b = Rng::new(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// xoshiro256++ generator, seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// The SplitMix64 finalizer: a bijective 64-bit mix in which every
/// input bit affects every output bit, so neighbouring inputs map to
/// unrelated outputs.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns its [`mix64`]. Expands seeds into generator state, and
/// draws heap identity hashes.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

impl Rng {
    /// A generator whose entire state derives from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Multiply-shift reduction (Lemire): unbiased enough for workload
        // generation, and branch-free.
        let hi128 = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        lo + hi128
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.gen_f64()
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..16)
            .map({
                let mut r = Rng::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..16)
            .map({
                let mut r = Rng::new(42);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..16)
            .map({
                let mut r = Rng::new(43);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.gen_range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_reaches_both_halves() {
        let mut r = Rng::new(2);
        let mut lo = 0;
        let mut hi = 0;
        for _ in 0..1000 {
            if r.gen_range_u64(0, 100) < 50 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 300 && hi > 300, "lo {lo} hi {hi}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::new(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
