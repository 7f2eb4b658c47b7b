//! Sliding windows with duplicated positions (Corollary 1).
//!
//! Stream items are `(position, bit)` pairs whose positions are
//! nondecreasing (e.g. positions are time units and several items share a
//! timestamp). The window is the last `N` *positions*, and `U` bounds the
//! number of stream items that can fall in any window, so the wave has
//! `ceil(log2(2 eps U))` levels.
//!
//! Two deliberate generalizations over the paper's setting, both safe:
//!
//! * positions may skip values (the paper's "consecutive integers with
//!   possible repetitions" is the special case); expiry then discards a
//!   batch of entries in amortized O(1) each, instead of the paper's
//!   worst-case O(1) trick with an auxiliary first-item-per-position
//!   list (the asymptotic totals are identical and no reproduced claim
//!   depends on worst-case expiry latency of this variant);
//! * the boundary case `p2 = s` is reported exact only when the truth
//!   interval collapses: with duplicated positions, entries at the
//!   boundary position may have been capacity-evicted, so claiming
//!   exactness from the stored smallest rank alone would be unsound.

use crate::basic_wave::wave_estimate;
use crate::codec::{BitReader, CodecError};
use crate::error::WaveError;
use crate::estimate::{Estimate, SpaceReport};
use crate::ladder::{k_for_eps, read_k, refused_k, Ladder, Positions};
use crate::level::rank_level;
use crate::window::MAX_WINDOW;

/// Deterministic wave for Basic Counting over timestamped streams
/// (Corollary 1): windows of up to `N` positions, at most `U` items per
/// window, relative error `eps`.
#[derive(Debug, Clone)]
pub struct TimestampWave {
    max_items: u64,
    eps: f64,
    /// Entries are `(position, 1-rank)`; the clock is the latest position
    /// observed (0 before any item).
    ladder: Ladder<()>,
}

impl TimestampWave {
    /// Build a wave for windows of up to `max_window` positions with at
    /// most `max_items` stream items per window.
    pub fn new(max_window: u64, max_items: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_k(max_window, max_items, k_for_eps(eps)?, eps)
    }

    /// Build from `k = ceil(1/eps)` (validated by [`k_for_eps`] or
    /// [`read_k`]). The item bound `U`, not the window, drives the level
    /// count.
    fn with_k(max_window: u64, max_items: u64, k: u64, eps: f64) -> Result<Self, WaveError> {
        if max_window == 0 || max_items == 0 {
            return Err(WaveError::InvalidWindow(max_window.min(max_items)));
        }
        if max_window > MAX_WINDOW || max_items > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window.max(max_items)));
        }
        // Wide slots: a caller may put more than `U` items in one
        // window (the bracket still holds), so nothing bounds how far a
        // live entry's rank trails the total.
        let lower_cap = (k + 1).div_ceil(2);
        let ladder = Ladder::new(max_window, k, max_items, lower_cap, Positions::Supplied)
            .ok_or(WaveError::InvalidEpsilon(eps))?;
        Ok(TimestampWave {
            max_items,
            eps,
            ladder,
        })
    }

    /// Maximum window size in positions.
    pub fn max_window(&self) -> u64 {
        self.ladder.max_window()
    }

    /// The per-window item bound `U`.
    pub fn max_items(&self) -> u64 {
        self.max_items
    }

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Latest position observed.
    pub fn current_position(&self) -> u64 {
        self.ladder.pos()
    }

    /// Number of 1's observed so far.
    pub fn rank(&self) -> u64 {
        self.ladder.total()
    }

    /// Number of entries currently stored.
    pub fn entries(&self) -> usize {
        self.ladder.len()
    }

    /// Observe an item `(position, bit)`. Positions must be
    /// nondecreasing; gaps are allowed.
    pub fn push(&mut self, position: u64, bit: bool) -> Result<(), WaveError> {
        self.advance_to(position)?;
        if bit {
            self.ladder.insert(rank_level(self.rank() + 1), 1);
        }
        Ok(())
    }

    /// Advance the clock to `position` without observing an item (e.g. a
    /// heartbeat in a quiet period).
    pub fn advance_to(&mut self, position: u64) -> Result<(), WaveError> {
        if position < self.current_position() {
            return Err(WaveError::PositionRegressed {
                last: self.current_position(),
                got: position,
            });
        }
        self.ladder.advance(position);
        Ok(())
    }

    /// Estimate the number of 1's among items whose position lies in the
    /// last `n <= N` positions, i.e. in `[cur - n + 1, cur]`.
    pub fn query(&self, n: u64) -> Result<Estimate, WaveError> {
        if n > self.max_window() {
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_window(),
            });
        }
        let (cur, rank) = (self.current_position(), self.rank());
        if n > cur || cur == 0 {
            return Ok(Estimate::exact(rank));
        }
        Ok(match self.ladder.straddle(cur - n + 1) {
            (_, None) => Estimate::exact(0),
            // With duplicated positions we never claim exactness from
            // p2 == s alone (see module docs); wave_estimate still
            // collapses to exact when the interval is a point.
            (r1, Some(e)) => wave_estimate(rank, r1, e.cum),
        })
    }

    /// Serialize into the compact bit encoding (scheme as in
    /// [`crate::det_wave::DetWave::encode`], with the `U` parameter).
    pub fn encode(&self) -> Vec<u8> {
        self.ladder
            .encode(&[self.max_window(), self.max_items, self.ladder.k()])
    }

    /// Reconstruct a synopsis from [`TimestampWave::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let max_items = r.read_gamma()?;
        let k = read_k(&mut r)?;
        let mut wave =
            TimestampWave::with_k(max_window, max_items, k, 1.0 / k as f64).map_err(refused_k)?;
        wave.ladder.decode_body(&mut r, 1)?;
        Ok(wave)
    }

    /// Space accounting (see [`SpaceReport`]).
    pub fn space_report(&self) -> SpaceReport {
        self.ladder.space_report(std::mem::size_of::<Self>(), 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// For the mutated-encoding fuzz in `lib.rs`.
    impl TimestampWave {
        pub(crate) fn ladder(&self) -> &Ladder<()> {
            &self.ladder
        }
    }

    /// Exact oracle: positions of 1-items within the window.
    struct Oracle {
        max_window: u64,
        cur: u64,
        ones: VecDeque<u64>,
    }

    impl Oracle {
        fn new(max_window: u64) -> Self {
            Oracle {
                max_window,
                cur: 0,
                ones: VecDeque::new(),
            }
        }
        fn push(&mut self, position: u64, bit: bool) {
            self.cur = position;
            if bit {
                self.ones.push_back(position);
            }
            while self
                .ones
                .front()
                .is_some_and(|&p| p + self.max_window <= self.cur)
            {
                self.ones.pop_front();
            }
        }
        fn query(&self, n: u64) -> u64 {
            if n > self.cur {
                return self.ones.len() as u64;
            }
            let s = self.cur - n + 1;
            self.ones.iter().filter(|&&p| p >= s).count() as u64
        }
    }

    #[test]
    fn rejects_regressing_positions() {
        let mut w = TimestampWave::new(10, 100, 0.5).unwrap();
        w.push(5, true).unwrap();
        assert!(matches!(
            w.push(4, true),
            Err(WaveError::PositionRegressed { last: 5, got: 4 })
        ));
    }

    #[test]
    fn duplicate_positions_counted() {
        let mut w = TimestampWave::new(10, 100, 0.5).unwrap();
        for _ in 0..5 {
            w.push(3, true).unwrap();
        }
        let e = w.query(10).unwrap();
        assert!(e.brackets(5));
    }

    /// An entry within a window of `u64::MAX` never expires: its expiry
    /// position is past the last one the clock can reach, not wrapped
    /// round to one already behind it.
    #[test]
    fn positions_near_the_end_of_u64_stay_in_the_window() {
        let n = 16;
        let mut w = TimestampWave::new(n, 100, 0.25).unwrap();
        for _ in 0..5 {
            w.push(u64::MAX - 3, true).unwrap();
        }
        w.push(u64::MAX - 1, true).unwrap();
        w.advance_to(u64::MAX).unwrap();
        let e = w.query(n).unwrap();
        assert!(e.brackets(6), "{e:?} does not bracket 6");
    }

    /// `U` is the caller's promise, not something the wave enforces:
    /// three times `U` items in one window cost the `eps` guarantee but
    /// never the bracket. It is why these ladders keep wide slots — no
    /// structural bound holds a live entry's rank near the total.
    #[test]
    fn more_than_max_items_in_a_window_still_brackets() {
        let (n, u) = (8u64, 64u64);
        let mut w = TimestampWave::new(n, u, 0.25).unwrap();
        let mut oracle = Oracle::new(n);
        for ts in [5u64, 9] {
            for i in 0..3 * u {
                w.push(ts, i % 3 != 0).unwrap();
                oracle.push(ts, i % 3 != 0);
                for m in [1, 4, n] {
                    let (est, actual) = (w.query(m).unwrap(), oracle.query(m));
                    assert!(
                        est.brackets(actual),
                        "ts={ts} i={i} m={m}: {est:?} vs {actual}"
                    );
                }
            }
        }
        let again = TimestampWave::decode(&w.encode()).unwrap();
        assert_eq!(again.query(n).unwrap(), w.query(n).unwrap());
    }

    #[test]
    fn paper_example_stream_shape() {
        // The example from Section 3.2: (1,0),(2,1),(2,0),(2,1),(2,1),
        // (3,1),(4,0),(4,0).
        let mut w = TimestampWave::new(4, 8, 0.5).unwrap();
        let items = [
            (1, false),
            (2, true),
            (2, false),
            (2, true),
            (2, true),
            (3, true),
            (4, false),
            (4, false),
        ];
        for (p, b) in items {
            w.push(p, b).unwrap();
        }
        // 4 ones total, all within the window of 4 positions.
        let e = w.query(4).unwrap();
        assert!(e.brackets(4));
    }

    #[test]
    fn error_bound_holds_random_timestamps() {
        let eps = 0.25;
        let (n_pos, u) = (64u64, 512u64);
        let mut w = TimestampWave::new(n_pos, u, eps).unwrap();
        let mut oracle = Oracle::new(n_pos);
        let mut x = 77u64;
        let mut pos = 1u64;
        for step in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Advance the clock 0..2 positions, keeping density within U.
            pos += (x >> 60) % 2;
            let bit = (x >> 33).is_multiple_of(3);
            w.push(pos, bit).unwrap();
            oracle.push(pos, bit);
            if step % 97 == 0 {
                for n in [1u64, 8, 32, 64] {
                    let actual = oracle.query(n);
                    let est = w.query(n).unwrap();
                    assert!(
                        est.brackets(actual),
                        "step={step} n={n}: [{},{}] vs {actual}",
                        est.lo,
                        est.hi
                    );
                    assert!(
                        est.relative_error(actual) <= eps + 1e-9,
                        "step={step} n={n} actual={actual} est={:?}",
                        est
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_survives_non_injective_eps_to_k() {
        // Every hop, with U on a level boundary (2U = (k+1) * 2^5): a k
        // that drifted to k + 1 would lose the top level.
        for &k in &[49u64, 98, 103, 107, 196] {
            let n = (k + 1) * 16;
            let mut w = TimestampWave::new(n, n, 1.0 / (k as f64 - 0.5)).unwrap();
            for t in 1..=n {
                w.push(t, true).unwrap();
            }
            let w1 = TimestampWave::decode(&w.encode()).expect("valid encode must decode");
            assert_eq!(w1.encode(), w.encode(), "k={k}: second hop");
            let w2 = TimestampWave::decode(&w1.encode()).unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(w.query(n).unwrap(), w2.query(n).unwrap());
        }
    }

    #[test]
    fn gaps_expire_old_entries() {
        let mut w = TimestampWave::new(10, 100, 0.5).unwrap();
        for p in 1..=5u64 {
            w.push(p, true).unwrap();
        }
        w.advance_to(1000).unwrap();
        assert_eq!(w.query(10).unwrap(), Estimate::exact(0));
        assert_eq!(w.entries(), 0);
    }

    #[test]
    fn setting_u_equals_n_recovers_det_wave_behavior() {
        // Without duplicates (each position once), U = N suffices and the
        // timestamp wave must satisfy the same error bound as DetWave on
        // the same stream; its truth interval may only be looser at the
        // boundary cases where it declines to claim exactness.
        use crate::det_wave::DetWave;
        let eps = 0.25;
        let n = 64u64;
        let mut tw = TimestampWave::new(n, n, eps).unwrap();
        let mut dw = DetWave::new(n, eps).unwrap();
        let mut oracle = Oracle::new(n);
        let mut x = 5u64;
        for p in 1..=5000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) & 1 == 1;
            tw.push(p, b).unwrap();
            dw.push_bit(b);
            oracle.push(p, b);
            let actual = oracle.query(n);
            let a = tw.query(n).unwrap();
            let d = dw.query_max();
            assert!(a.brackets(actual), "p={p}");
            assert!(d.brackets(actual), "p={p}");
            assert!(a.relative_error(actual) <= eps + 1e-9, "p={p}");
            assert!(a.lo <= d.lo && a.hi >= d.hi, "timestamp interval looser");
        }
    }
}
