//! Modular position arithmetic (the paper's mod-N' counters).
//!
//! Section 3.2 stores positions and ranks as numbers modulo
//! `N' = 2^ceil(log2(2N))`, the smallest power of two at least `2N`. As
//! long as every live position is within `N` of the current position,
//! differences taken modulo `N'` are unambiguous, so expiry comparisons
//! and window arithmetic still work. This module implements and tests
//! that scheme at its exact width, which the space accounting charges.
//! At run time the wave slots (`ladder.rs`) use the same argument with
//! the modulus rounded up to the machine word: where `N' <= 2^32` and
//! positions count the items, a stored position and rank are their low
//! 32 bits, read back against the `u64` clock and total, which stay
//! whole; everywhere else a slot keeps the full `u64`.

/// Largest maximum window `N` any synopsis accepts. Positions, ranks
/// and totals are held to the same ceiling, so `pos + N` and the sum of
/// two counters always fit a `u64`; builders refuse a larger window
/// with [`crate::WaveError::InvalidWindow`], and so do decoders.
pub const MAX_WINDOW: u64 = 1 << 62;

/// Arithmetic modulo `N'`, the smallest power of two `>= 2N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModRing {
    mask: u64,
    bits: u32,
}

impl ModRing {
    /// Ring for a maximum window of `n` positions (`N' >= 2n`).
    ///
    /// # Panics
    /// Panics if `n == 0` or `2n` overflows `u64`.
    pub fn for_window(n: u64) -> Self {
        assert!(n > 0, "window must be positive");
        let need = n.checked_mul(2).expect("window too large");
        let bits = 64 - (need - 1).leading_zeros();
        ModRing {
            mask: if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            },
            bits,
        }
    }

    /// `N'` itself (the modulus). Only meaningful for `bits < 64`.
    pub fn modulus(&self) -> u64 {
        debug_assert!(self.bits < 64);
        self.mask + 1
    }

    /// Bits needed to store one modular counter: `log2(N')`.
    pub fn counter_bits(&self) -> u32 {
        self.bits
    }

    /// Reduce a full counter into the ring.
    #[inline]
    pub fn wrap(&self, x: u64) -> u64 {
        x & self.mask
    }

    /// Modular increment.
    #[inline]
    pub fn inc(&self, x: u64) -> u64 {
        (x + 1) & self.mask
    }

    /// The "age" of stored counter `p` relative to current counter `pos`:
    /// `(pos - p) mod N'`. Unambiguous whenever the true distance is less
    /// than `N'`.
    #[inline]
    pub fn age(&self, pos: u64, p: u64) -> u64 {
        pos.wrapping_sub(p) & self.mask
    }

    /// True if stored position `p` has fallen out of a window of `n`
    /// positions ending at `pos`, i.e. `p <= pos - n` in true arithmetic.
    #[inline]
    pub fn expired(&self, pos: u64, p: u64, n: u64) -> bool {
        self.age(pos, p) >= n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_smallest_pow2_at_least_2n() {
        assert_eq!(ModRing::for_window(1).modulus(), 2);
        assert_eq!(ModRing::for_window(3).modulus(), 8);
        assert_eq!(ModRing::for_window(4).modulus(), 8);
        assert_eq!(ModRing::for_window(5).modulus(), 16);
        assert_eq!(ModRing::for_window(48).modulus(), 128);
        assert_eq!(ModRing::for_window(64).modulus(), 128);
    }

    #[test]
    fn counter_bits_matches_modulus() {
        for n in [1u64, 2, 3, 48, 1000, 1 << 20] {
            let r = ModRing::for_window(n);
            assert_eq!(1u64 << r.counter_bits(), r.modulus());
        }
    }

    #[test]
    fn age_agrees_with_true_arithmetic_within_window() {
        let n = 100;
        let r = ModRing::for_window(n);
        // Simulate a long stream; compare modular age with true age for
        // all positions within the window.
        for pos_true in 0..5_000u64 {
            let pos_m = r.wrap(pos_true);
            for back in 0..n.min(pos_true + 1) {
                let p_true = pos_true - back;
                let p_m = r.wrap(p_true);
                assert_eq!(r.age(pos_m, p_m), back);
            }
        }
    }

    #[test]
    fn expiry_matches_true_comparison() {
        let n = 37;
        let r = ModRing::for_window(n);
        for pos_true in 0..2_000u64 {
            for back in 0..(2 * n).min(pos_true + 1) {
                let p_true = pos_true - back;
                // Only positions within N' of pos are representable.
                if pos_true - p_true >= r.modulus() {
                    continue;
                }
                let want = p_true + n <= pos_true;
                assert_eq!(
                    r.expired(r.wrap(pos_true), r.wrap(p_true), n),
                    want,
                    "pos={pos_true} p={p_true}"
                );
            }
        }
    }

    #[test]
    fn wraparound_increment() {
        let r = ModRing::for_window(4); // modulus 8
        let mut x = 6;
        x = r.inc(x);
        assert_eq!(x, 7);
        x = r.inc(x);
        assert_eq!(x, 0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        ModRing::for_window(0);
    }
}
