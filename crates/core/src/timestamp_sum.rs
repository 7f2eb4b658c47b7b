//! Sums over time-based windows with duplicated positions — the
//! combination of Corollary 1 (timestamped streams) and Section 3.3
//! (the sum wave). Items are `(timestamp, value)` pairs with
//! nondecreasing timestamps; the query asks for the sum of the values
//! whose timestamps lie in the last `N` time units.
//!
//! The level rule is the sum wave's (`msb of !total & (total + v)`), the
//! window/expiry logic is the timestamp wave's, and the number of levels
//! is driven by the maximum window *sum* `S = U * R` (at most `U` items
//! per window, each at most `R`), mirroring Corollary 1's use of `U`.

use crate::codec::{BitReader, CodecError};
use crate::error::WaveError;
use crate::estimate::{Estimate, SpaceReport};
use crate::ladder::{k_for_eps, read_k, refused_k, Ladder, Positions};
use crate::level::sum_level;
use crate::sum_wave::sum_estimate;
use crate::window::MAX_WINDOW;

/// Deterministic sum wave over a timestamped stream.
#[derive(Debug, Clone)]
pub struct TimestampSumWave {
    max_value: u64,
    max_items: u64,
    eps: f64,
    /// Entries are `(timestamp, value, running total)`; the clock is the
    /// latest timestamp observed.
    ladder: Ladder<u64>,
}

impl TimestampSumWave {
    /// Build a wave for windows of up to `max_window` time units, at most
    /// `max_items` items per window, values in `[0..max_value]`.
    pub fn new(
        max_window: u64,
        max_items: u64,
        max_value: u64,
        eps: f64,
    ) -> Result<Self, WaveError> {
        Self::with_k(max_window, max_items, max_value, k_for_eps(eps)?, eps)
    }

    /// Build from `k = ceil(1/eps)` (validated by [`k_for_eps`] or
    /// [`read_k`]). The largest window sum `U * R` drives the level
    /// count, and every level holds `k + 1` entries.
    fn with_k(
        max_window: u64,
        max_items: u64,
        max_value: u64,
        k: u64,
        eps: f64,
    ) -> Result<Self, WaveError> {
        if max_window == 0 || max_items == 0 {
            return Err(WaveError::InvalidWindow(max_window.min(max_items)));
        }
        if max_window > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window));
        }
        if max_value == 0 {
            return Err(WaveError::ValueTooLarge { value: 0, max: 0 });
        }
        let max_sum = max_items
            .checked_mul(max_value)
            .filter(|&s| s <= 1 << 62)
            .ok_or(WaveError::InvalidWindow(max_items))?;
        // Wide slots, as in `TimestampWave`: `U` is the caller's promise.
        let ladder = Ladder::new(max_window, k, max_sum, k + 1, Positions::Supplied)
            .ok_or(WaveError::InvalidEpsilon(eps))?;
        Ok(TimestampSumWave {
            max_value,
            max_items,
            eps,
            ladder,
        })
    }

    /// Maximum window in time units.
    pub fn max_window(&self) -> u64 {
        self.ladder.max_window()
    }

    /// The value bound `R`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// The per-window item bound `U`.
    pub fn max_items(&self) -> u64 {
        self.max_items
    }

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Latest timestamp observed.
    pub fn current_position(&self) -> u64 {
        self.ladder.pos()
    }

    /// Running total of all values observed.
    pub fn total(&self) -> u64 {
        self.ladder.total()
    }

    /// Entries currently stored.
    pub fn entries(&self) -> usize {
        self.ladder.len()
    }

    /// Observe `(timestamp, value)`; timestamps nondecreasing.
    pub fn push(&mut self, ts: u64, v: u64) -> Result<(), WaveError> {
        self.check_timestamp(ts)?;
        if v > self.max_value {
            return Err(WaveError::ValueTooLarge {
                value: v,
                max: self.max_value,
            });
        }
        self.ladder.advance(ts);
        if v > 0 {
            self.ladder.insert(sum_level(self.total(), v), v);
        }
        Ok(())
    }

    /// Advance the clock without an item.
    pub fn advance_to(&mut self, ts: u64) -> Result<(), WaveError> {
        self.check_timestamp(ts)?;
        self.ladder.advance(ts);
        Ok(())
    }

    fn check_timestamp(&self, ts: u64) -> Result<(), WaveError> {
        if ts < self.current_position() {
            return Err(WaveError::PositionRegressed {
                last: self.current_position(),
                got: ts,
            });
        }
        Ok(())
    }

    /// Estimate the sum of values with timestamps in the last `n <= N`
    /// time units, `[cur - n + 1, cur]`.
    pub fn query(&self, n: u64) -> Result<Estimate, WaveError> {
        if n > self.max_window() {
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_window(),
            });
        }
        let (cur, total) = (self.current_position(), self.total());
        if n > cur || cur == 0 {
            return Ok(Estimate::exact(total));
        }
        Ok(match self.ladder.straddle(cur - n + 1) {
            (_, None) => Estimate::exact(0),
            // Duplicated timestamps: never claim boundary exactness from
            // ts == s alone (cf. TimestampWave); the midpoint interval is
            // always sound and collapses to exact when it is a point.
            (z1, Some(e)) => sum_estimate(total, z1, e.weight, e.cum),
        })
    }

    /// Serialize into the compact bit encoding.
    pub fn encode(&self) -> Vec<u8> {
        let k = self.ladder.k();
        self.ladder
            .encode(&[self.max_window(), self.max_items, self.max_value, k])
    }

    /// Reconstruct a synopsis from [`TimestampSumWave::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let max_items = r.read_gamma()?;
        let max_value = r.read_gamma()?;
        let k = read_k(&mut r)?;
        let mut wave =
            TimestampSumWave::with_k(max_window, max_items, max_value, k, 1.0 / k as f64)
                .map_err(refused_k)?;
        wave.ladder.decode_body(&mut r, max_value)?;
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
    impl TimestampSumWave {
        pub(crate) fn ladder(&self) -> &Ladder<u64> {
            &self.ladder
        }
    }

    struct Oracle {
        max_window: u64,
        cur: u64,
        items: VecDeque<(u64, u64)>,
    }

    impl Oracle {
        fn new(max_window: u64) -> Self {
            Oracle {
                max_window,
                cur: 0,
                items: VecDeque::new(),
            }
        }
        fn push(&mut self, ts: u64, v: u64) {
            self.cur = ts;
            self.items.push_back((ts, v));
            while self
                .items
                .front()
                .is_some_and(|&(t, _)| t + self.max_window <= self.cur)
            {
                self.items.pop_front();
            }
        }
        fn query(&self, n: u64) -> u64 {
            let s = if n > self.cur { 0 } else { self.cur - n + 1 };
            self.items
                .iter()
                .filter(|&&(t, _)| t >= s)
                .map(|&(_, v)| v)
                .sum()
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut w = TimestampSumWave::new(10, 100, 50, 0.25).unwrap();
        w.push(5, 10).unwrap();
        assert!(matches!(
            w.push(4, 1),
            Err(WaveError::PositionRegressed { .. })
        ));
        assert!(matches!(
            w.push(6, 51),
            Err(WaveError::ValueTooLarge { .. })
        ));
        assert!(TimestampSumWave::new(0, 1, 1, 0.5).is_err());
        assert!(TimestampSumWave::new(1, 1, 1, 1.5).is_err());
    }

    /// An entry within a window of `u64::MAX` never expires: its expiry
    /// timestamp is past the last one the clock can reach, not wrapped
    /// round to one already behind it.
    #[test]
    fn timestamps_near_the_end_of_u64_stay_in_the_window() {
        let n = 16;
        let mut w = TimestampSumWave::new(n, 100, 50, 0.25).unwrap();
        for _ in 0..5 {
            w.push(u64::MAX - 3, 1).unwrap();
        }
        w.push(u64::MAX - 1, 1).unwrap();
        w.advance_to(u64::MAX).unwrap();
        let e = w.query(n).unwrap();
        assert!(e.brackets(6), "{e:?} does not bracket 6");
    }

    #[test]
    fn duplicate_timestamps_summed() {
        let mut w = TimestampSumWave::new(10, 100, 50, 0.25).unwrap();
        for _ in 0..5 {
            w.push(3, 10).unwrap();
        }
        assert!(w.query(10).unwrap().brackets(50));
    }

    #[test]
    fn roundtrip_survives_non_injective_eps_to_k() {
        // Every hop, with U * R on a level boundary ((k+1) * 2^4): a k
        // that drifted to k + 1 would lose the top level.
        for &k in &[49u64, 98, 103, 107, 196] {
            let n = (k + 1) * 2;
            let mut w = TimestampSumWave::new(n, n, 8, 1.0 / (k as f64 - 0.5)).unwrap();
            for t in 1..=n {
                w.push(t, 8).unwrap();
            }
            let w1 = TimestampSumWave::decode(&w.encode()).expect("valid encode must decode");
            assert_eq!(w1.encode(), w.encode(), "k={k}: second hop");
            let w2 =
                TimestampSumWave::decode(&w1.encode()).unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(w.query(n).unwrap(), w2.query(n).unwrap());
        }
    }

    #[test]
    fn decode_rejects_an_entry_overlapping_its_predecessor() {
        // max_window 100, max_items 100, max_value 16.
        let bytes = crate::ladder::overlapping_sum_entries(&[100, 100, 16]);
        assert_eq!(
            TimestampSumWave::decode(&bytes).unwrap_err(),
            CodecError::Corrupt("entries not increasing")
        );
    }

    #[test]
    fn gaps_expire() {
        let mut w = TimestampSumWave::new(10, 100, 50, 0.25).unwrap();
        w.push(1, 50).unwrap();
        w.push(2, 50).unwrap();
        w.advance_to(1_000).unwrap();
        assert_eq!(w.query(10).unwrap(), Estimate::exact(0));
        assert_eq!(w.entries(), 0);
    }

    #[test]
    fn error_bound_random_timestamped_values() {
        let eps = 0.2;
        let (n, u, r) = (128u64, 2_048u64, 63u64);
        let mut w = TimestampSumWave::new(n, u, r, eps).unwrap();
        let mut oracle = Oracle::new(n);
        let mut x = 12u64;
        let mut ts = 1u64;
        for step in 0..30_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ts += (x >> 60) % 2;
            let v = (x >> 33) % (r + 1);
            w.push(ts, v).unwrap();
            oracle.push(ts, v);
            if step % 59 == 0 {
                for nq in [1u64, 16, 64, 128] {
                    let actual = oracle.query(nq);
                    let est = w.query(nq).unwrap();
                    assert!(
                        est.brackets(actual),
                        "step={step} n={nq}: [{},{}] vs {actual}",
                        est.lo,
                        est.hi
                    );
                    assert!(
                        est.relative_error(actual) <= eps + 1e-9,
                        "step={step} n={nq} actual={actual} est={:?}",
                        est
                    );
                }
            }
        }
    }

    #[test]
    fn unit_timestamps_match_sum_wave() {
        // One item per timestamp: behaves like SumWave on the same data.
        use crate::sum_wave::SumWave;
        let (eps, n, r) = (0.25, 64u64, 31u64);
        let mut tw = TimestampSumWave::new(n, n, r, eps).unwrap();
        let mut sw = SumWave::new(n, r, eps).unwrap();
        let mut oracle = Oracle::new(n);
        let mut x = 9u64;
        for ts in 1..=4_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % (r + 1);
            tw.push(ts, v).unwrap();
            sw.push_value(v).unwrap();
            oracle.push(ts, v);
            let actual = oracle.query(n);
            let a = tw.query(n).unwrap();
            let b = sw.query_max();
            assert!(a.brackets(actual) && b.brackets(actual), "ts={ts}");
            assert!(a.relative_error(actual) <= eps + 1e-9);
            // The timestamped interval may only be looser at boundaries.
            assert!(a.lo <= b.lo && a.hi >= b.hi, "ts={ts}");
        }
    }

    #[test]
    fn entries_bounded_by_capacity() {
        let (eps, n, u, r) = (0.1, 1u64 << 10, 1u64 << 12, 1u64 << 8);
        let w0 = TimestampSumWave::new(n, u, r, eps).unwrap();
        let cap = (w0.ladder.num_levels() as u64) * ((1.0 / eps).ceil() as u64 + 1);
        let mut w = w0;
        let mut x = 4u64;
        let mut ts = 1u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ts += (x >> 62) % 2;
            w.push(ts, (x >> 33) % (r + 1)).unwrap();
        }
        assert!(w.entries() as u64 <= cap);
    }
}
