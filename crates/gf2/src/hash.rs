//! The exponential level hash of Section 4.1.
//!
//! `h : [0, 2^d) -> [0, d]` maps an input `p` to the number of leading
//! zero bits (within `d` bits) of `x = q*p + r`, where `q` and `r` are
//! chosen uniformly at random from `GF(2^d)` in a preprocessing step and
//! shared by all parties. The two properties the algorithms rely on:
//!
//! 1. `Pr{h(p) = l} = 2^{-(l+1)}` for `l < d`, and `Pr{h(p) = d} = 2^{-d}`;
//! 2. the map is pairwise independent: for distinct `p1, p2`, the pair
//!    `(h(p1), h(p2))` is distributed as independent draws.
//!
//! Sharing `(q, r)` is the "stored coins" positionwise coordination: every
//! party samples the *same* positions (or values) into the same levels.

use crate::field::Gf2Field;
use rand::Rng;

/// A sampled member of the pairwise-independent exponential hash family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelHash {
    field: Gf2Field,
    q: u64,
    r: u64,
}

impl LevelHash {
    /// Build the hash over `GF(2^d)` with explicit coefficients. The
    /// coefficients are truncated into the field's element range.
    ///
    /// Use this to reconstruct the exact hash another party sampled (both
    /// sides must use the same `d`).
    pub fn from_parts(d: u32, q: u64, r: u64) -> Self {
        let field = Gf2Field::new(d);
        let q = field.element(q);
        let r = field.element(r);
        Self { field, q, r }
    }

    /// Sample a hash uniformly at random — the preprocessing step of
    /// Section 4.1. Note `q = 0` is permitted (the family is still
    /// pairwise independent over the *pair* `(q, r)` draw).
    pub fn random<R: Rng + ?Sized>(d: u32, rng: &mut R) -> Self {
        let field = Gf2Field::new(d);
        let q = field.element(rng.gen());
        let r = field.element(rng.gen());
        Self { field, q, r }
    }

    /// The coefficients `(q, r)`, for persisting / sharing the hash.
    #[inline]
    pub fn parts(&self) -> (u64, u64) {
        (self.q, self.r)
    }

    /// Evaluate the hash: the largest `i` such that the `i`
    /// most-significant bits (of the `d`-bit representation) of
    /// `q*p + r` are zero.
    ///
    /// Inputs are reduced into the field domain first, matching the
    /// paper's "position modulo N'" convention.
    #[inline]
    pub fn level(&self, p: u64) -> u32 {
        let x = self.field.affine(self.q, self.r, self.field.element(p));
        let d = self.field.degree();
        if x == 0 {
            d
        } else {
            // bit length of x within d bits; h = d - bitlen.
            d - (64 - x.leading_zeros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn levels_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = LevelHash::random(16, &mut rng);
        for p in 0..10_000u64 {
            assert!(h.level(p) <= 16);
        }
    }

    #[test]
    fn identity_hash_levels() {
        // With q = 1, r = 0, h(p) counts leading zeros of p itself.
        let h = LevelHash::from_parts(8, 1, 0);
        assert_eq!(h.level(0), 8);
        assert_eq!(h.level(1), 7);
        assert_eq!(h.level(0b1000_0000), 0);
        assert_eq!(h.level(0b0001_0000), 3);
    }

    #[test]
    fn exact_distribution_over_full_domain() {
        // Over the whole domain, an affine map with q != 0 is a bijection,
        // so level frequencies are *exactly* the ideal ones.
        let d = 10;
        let h = LevelHash::from_parts(d, 0x2A7, 0x11F);
        let mut counts = vec![0u64; (d + 1) as usize];
        for p in 0..(1u64 << d) {
            counts[h.level(p) as usize] += 1;
        }
        for l in 0..d {
            assert_eq!(counts[l as usize], 1 << (d - l - 1), "level {l}");
        }
        assert_eq!(counts[d as usize], 1);
    }

    #[test]
    fn pairwise_independence_statistical() {
        // Chi-square-style check: over random (q, r), the joint
        // distribution of (h(p1) >= 1, h(p2) >= 1) factorizes.
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let (p1, p2) = (123u64, 45_678u64);
        let (mut a, mut b, mut ab) = (0u32, 0u32, 0u32);
        for _ in 0..trials {
            let h = LevelHash::random(16, &mut rng);
            let x = h.level(p1) >= 1;
            let y = h.level(p2) >= 1;
            a += x as u32;
            b += y as u32;
            ab += (x && y) as u32;
        }
        let (pa, pb, pab) = (
            a as f64 / trials as f64,
            b as f64 / trials as f64,
            ab as f64 / trials as f64,
        );
        // Pr{h >= 1} = 1/2; joint should be ~1/4. Allow generous noise.
        assert!((pa - 0.5).abs() < 0.02, "pa = {pa}");
        assert!((pb - 0.5).abs() < 0.02, "pb = {pb}");
        assert!((pab - pa * pb).abs() < 0.02, "pab = {pab}");
    }

    #[test]
    fn shared_hash_reconstructs() {
        let mut rng = StdRng::seed_from_u64(5);
        let h1 = LevelHash::random(24, &mut rng);
        let (q, r) = h1.parts();
        let h2 = LevelHash::from_parts(24, q, r);
        for p in (0..100_000u64).step_by(997) {
            assert_eq!(h1.level(p), h2.level(p));
        }
    }

    #[test]
    fn marginal_distribution_over_coin_draws() {
        // For a FIXED input p, over random (q, r) draws, h(p) must be
        // exponentially distributed: Pr[h = l] = 2^-(l+1). Chi-square
        // check over the first few levels.
        let mut rng = StdRng::seed_from_u64(31);
        let trials = 40_000u64;
        let p = 0xDEAD_BEEFu64;
        let d = 24;
        let mut counts = vec![0u64; 6];
        for _ in 0..trials {
            let h = LevelHash::random(d, &mut rng);
            let l = h.level(p) as usize;
            if l < counts.len() {
                counts[l] += 1;
            }
        }
        let mut chi2 = 0.0f64;
        for (l, &c) in counts.iter().enumerate() {
            let expect = trials as f64 / (1u64 << (l + 1)) as f64;
            chi2 += (c as f64 - expect).powi(2) / expect;
        }
        // 6 cells, ~5 dof: chi2 > 30 would be a catastrophic mismatch.
        assert!(chi2 < 30.0, "chi2 = {chi2}, counts = {counts:?}");
    }

    #[test]
    fn expected_level_is_at_most_two() {
        // E[h] = sum l * 2^-(l+1) < 1; the paper's "expected constant
        // number of levels" argument uses E[h + 1] <= 2.
        let mut rng = StdRng::seed_from_u64(77);
        let h = LevelHash::random(20, &mut rng);
        let n = 1u64 << 16;
        let sum: u64 = (0..n).map(|p| h.level(p) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!(mean < 1.6, "mean level {mean} too high");
    }
}
