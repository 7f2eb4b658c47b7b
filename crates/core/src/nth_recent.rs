//! The "Nth most recent 1" extension (Section 5).
//!
//! Instead of storing only the 1-bits, the wave stores *every* position
//! (0's and 1's alike), so items in level `l` are `2^l` positions apart;
//! alongside each stored position we keep the 1-rank of the stream prefix
//! through that position. Querying the position of the `n`-th most
//! recent 1 then reduces to locating the stored positions whose prefix
//! ranks bracket the target rank `rank - n + 1`, giving an estimate of
//! the *age* of that 1 with relative error at most `eps`.
//!
//! `max_age` (the paper's `m`) bounds how far back the wave can resolve:
//! the synopsis uses `O((1/eps) log^2(eps * m))` bits.

use crate::error::WaveError;
use crate::estimate::{Estimate, SpaceReport};
use crate::ladder::{k_for_eps, Ladder, Positions};
use crate::level::rank_level;
use crate::window::MAX_WINDOW;

/// Deterministic wave estimating the position (equivalently the age) of
/// the `n`-th most recent 1-bit.
#[derive(Debug, Clone)]
pub struct NthRecentWave {
    eps: f64,
    /// Position of the most recently expired stored position (its prefix
    /// rank is the ladder's boundary).
    expired_pos: u64,
    /// Entries are `(position, number of 1's in the prefix [1, position])`;
    /// the maximum window is `max_age`.
    ladder: Ladder<()>,
}

impl NthRecentWave {
    /// Build a wave that can locate 1's up to `max_age` positions back.
    pub fn new(max_age: u64, eps: f64) -> Result<Self, WaveError> {
        let k = k_for_eps(eps)?;
        if max_age == 0 || max_age > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_age));
        }
        let lower_cap = (k + 1).div_ceil(2);
        let ladder = Ladder::new(max_age, k, max_age, lower_cap, Positions::Sequence)
            .ok_or(WaveError::InvalidEpsilon(eps))?;
        Ok(NthRecentWave {
            eps,
            expired_pos: 0,
            ladder,
        })
    }

    /// How far back (in positions) the wave can resolve.
    pub fn max_age(&self) -> u64 {
        self.ladder.max_window()
    }

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.ladder.pos()
    }

    /// Total 1's so far.
    pub fn rank(&self) -> u64 {
        self.ladder.total()
    }

    /// Process the next stream bit. Every position is stored (level keyed
    /// by the position, not the 1-rank) — O(1) worst case.
    pub fn push_bit(&mut self, b: bool) {
        let pos = self.pos() + 1;
        if let Some(e) = self.ladder.advance(pos) {
            self.expired_pos = e.pos;
        }
        self.ladder.insert(rank_level(pos), b as u64);
    }

    /// Estimate the *age* of the `n`-th most recent 1 — the number of
    /// positions back from the current position, with the current
    /// position having age 0.
    ///
    /// Returns:
    /// * `Ok(Some(estimate))` — the bracketing interval `[lo, hi]` of the
    ///   age and the midpoint estimate;
    /// * `Ok(None)` — fewer than `n` 1's have appeared at all;
    /// * `Err(WindowTooLarge)` — the `n`-th most recent 1 is older than
    ///   `max_age`, beyond the synopsis's resolution.
    pub fn query_age(&self, n: u64) -> Result<Option<Estimate>, WaveError> {
        assert!(n >= 1, "n must be at least 1");
        if n > self.rank() {
            return Ok(None);
        }
        // The target is the 1 with 1-rank t.
        let t = self.rank() - n + 1;
        if t <= self.ladder.boundary() {
            // The target 1 lies at or before the last expired position.
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_age(),
            });
        }
        // Walk oldest-to-newest for the bracketing pair: the last stored
        // position with prefix_rank < t (lower bracket, default the
        // expired boundary) and the first with prefix_rank >= t.
        let mut pa = self.expired_pos; // target is strictly after pa
        let mut pb: Option<u64> = None;
        for e in self.ladder.entries() {
            if e.cum < t {
                pa = e.pos;
            } else {
                pb = Some(e.pos);
                break;
            }
        }
        // Every position is stored on arrival, so the newest stored
        // prefix_rank equals self.rank >= t: pb always exists.
        let pb = pb.expect("newest position is always stored");
        // Target position is in (pa, pb] => age in [pos - pb, pos - pa - 1].
        let lo = self.pos() - pb;
        let hi = self.pos() - pa - 1;
        Ok(Some(Estimate::midpoint(lo, hi)))
    }

    /// Space accounting (see [`SpaceReport`]); the expired position is
    /// a fourth counter.
    pub fn space_report(&self) -> SpaceReport {
        self.ladder.space_report(std::mem::size_of::<Self>(), 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    struct Oracle {
        pos: u64,
        ones: VecDeque<u64>, // positions of all 1's (unbounded; test only)
    }

    impl Oracle {
        fn new() -> Self {
            Oracle {
                pos: 0,
                ones: VecDeque::new(),
            }
        }
        fn push(&mut self, b: bool) {
            self.pos += 1;
            if b {
                self.ones.push_back(self.pos);
            }
        }
        /// Age of the n-th most recent 1.
        fn age(&self, n: u64) -> Option<u64> {
            let len = self.ones.len() as u64;
            if n > len {
                return None;
            }
            Some(self.pos - self.ones[(len - n) as usize])
        }
    }

    #[test]
    fn not_enough_ones() {
        let mut w = NthRecentWave::new(100, 0.25).unwrap();
        w.push_bit(true);
        assert!(w.query_age(2).unwrap().is_none());
        assert!(w.query_age(1).unwrap().is_some());
    }

    #[test]
    fn most_recent_one_age() {
        let mut w = NthRecentWave::new(100, 0.25).unwrap();
        w.push_bit(true);
        for _ in 0..5 {
            w.push_bit(false);
        }
        let e = w.query_age(1).unwrap().unwrap();
        assert!(e.brackets(5), "[{},{}]", e.lo, e.hi);
    }

    #[test]
    fn beyond_max_age_errors() {
        let mut w = NthRecentWave::new(16, 0.5).unwrap();
        w.push_bit(true);
        for _ in 0..100 {
            w.push_bit(false);
        }
        assert!(matches!(
            w.query_age(1),
            Err(WaveError::WindowTooLarge { .. })
        ));
    }

    #[test]
    fn error_bound_on_ages() {
        let eps = 0.25;
        let max_age = 1u64 << 12;
        let mut w = NthRecentWave::new(max_age, eps).unwrap();
        let mut oracle = Oracle::new();
        let mut x = 31u64;
        for step in 0..30_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33).is_multiple_of(7);
            w.push_bit(b);
            oracle.push(b);
            if step % 293 == 0 {
                for n in [1u64, 5, 50, 200] {
                    let Some(actual) = oracle.age(n) else {
                        continue;
                    };
                    if actual >= max_age {
                        continue;
                    }
                    match w.query_age(n) {
                        Ok(Some(est)) => {
                            assert!(
                                est.brackets(actual),
                                "step={step} n={n}: [{},{}] vs {actual}",
                                est.lo,
                                est.hi
                            );
                            // Relative error on the age; exact-zero ages
                            // are bracketed by construction.
                            if actual > 0 {
                                assert!(
                                    est.relative_error(actual) <= eps + 1e-9,
                                    "step={step} n={n} actual={actual} est={:?}",
                                    est
                                );
                            }
                        }
                        other => panic!("unexpected result {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn dense_ones_exact_small_ages() {
        let mut w = NthRecentWave::new(256, 0.5).unwrap();
        for _ in 0..64 {
            w.push_bit(true);
        }
        // The most recent few 1's are at small ages; level-0 stores them
        // exactly (spacing 1).
        let e = w.query_age(1).unwrap().unwrap();
        assert!(e.brackets(0));
        let e2 = w.query_age(2).unwrap().unwrap();
        assert!(e2.brackets(1));
    }
}
