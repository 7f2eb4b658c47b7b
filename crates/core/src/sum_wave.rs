//! The deterministic sum wave of Section 3.3 (Figure 5, Theorem 3).
//!
//! Maintains an `eps`-approximation of the sum of the last `N` integers,
//! each in `[0..R]`, using `O((1/eps)(log N + log R))` memory words with
//! O(1) worst-case per-item time and O(1) query time (here, without the
//! paper's list: O(L) on an item at which a level front expires).
//!
//! The key idea: an item of value `v` arriving at running total `T` is
//! stored **once**, at the largest level `j` such that a multiple of
//! `2^j` lies in `(T, T + v]` (computed in O(1) as the most-significant
//! set bit of `!T & (T + v)`). This is what beats the exponential
//! histogram, which splits the same item across up to
//! `O(log N + log R)` buckets.

use crate::codec::{BitReader, CodecError};
use crate::error::WaveError;
use crate::estimate::{Estimate, SpaceReport};
use crate::ladder::{k_for_eps, read_k, refused_k, Ladder, Positions};
use crate::level::sum_level;

/// Deterministic wave for the sum of bounded integers in a sliding
/// window (Theorem 3).
#[derive(Debug, Clone)]
pub struct SumWave {
    max_value: u64,
    eps: f64,
    /// Entries are the paper's `(p, v, z)` triples: position, item value
    /// and the running total inclusive of the item.
    ladder: Ladder<u64>,
}

impl SumWave {
    /// Build a sum wave with error bound `0 < eps < 1` for windows up to
    /// `max_window`, item values in `[0..max_value]`.
    pub fn new(max_window: u64, max_value: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_k(max_window, max_value, k_for_eps(eps)?, eps)
    }

    /// Build from the integer parameter `k = ceil(1/eps)` (validated by
    /// [`k_for_eps`] or [`read_k`]). The largest window sum `N * R`
    /// drives the level count, and every level holds `k + 1` entries.
    fn with_k(max_window: u64, max_value: u64, k: u64, eps: f64) -> Result<Self, WaveError> {
        if max_window == 0 {
            return Err(WaveError::InvalidWindow(0));
        }
        if max_value == 0 {
            return Err(WaveError::ValueTooLarge { value: 0, max: 0 });
        }
        let nr = max_window
            .checked_mul(max_value)
            .filter(|&x| x <= 1 << 62)
            .ok_or(WaveError::InvalidWindow(max_window))?;
        let ladder = Ladder::new(max_window, k, nr, k + 1, Positions::Sequence)
            .ok_or(WaveError::InvalidEpsilon(eps))?;
        Ok(SumWave {
            max_value,
            eps,
            ladder,
        })
    }

    /// Maximum window size `N`.
    pub fn max_window(&self) -> u64 {
        self.ladder.max_window()
    }

    /// Value bound `R`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of levels `ceil(log2(2 eps N R))`.
    pub fn num_levels(&self) -> u32 {
        self.ladder.num_levels()
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.ladder.pos()
    }

    /// Running total of all items seen.
    pub fn total(&self) -> u64 {
        self.ladder.total()
    }

    /// Number of entries currently stored.
    pub fn entries(&self) -> usize {
        self.ladder.len()
    }

    /// Process the next item (Figure 5).
    ///
    /// Returns an error (without consuming the item) if `v > R`.
    #[inline]
    pub fn push_value(&mut self, v: u64) -> Result<(), WaveError> {
        self.push_value_recorded(v, &waves_obs::NoopRecorder)
    }

    /// [`SumWave::push_value`] with structural instrumentation reported
    /// into `rec` — the one push body (see
    /// [`crate::det_wave::DetWave::push_bit_recorded`] for the
    /// monomorphization contract).
    #[inline]
    pub fn push_value_recorded<R: waves_obs::Recorder + ?Sized>(
        &mut self,
        v: u64,
        rec: &R,
    ) -> Result<(), WaveError> {
        use waves_obs::MetricId;
        if v > self.max_value {
            return Err(WaveError::ValueTooLarge {
                value: v,
                max: self.max_value,
            });
        }
        let live_before = self.ladder.len();
        self.ladder.advance(self.ladder.pos() + 1);
        rec.incr(MetricId::WavePushesTotal, 1);
        let expired = (live_before - self.ladder.len()) as u64;
        if expired > 0 {
            rec.incr(MetricId::WaveEntriesExpired, expired);
        }
        if v > 0 {
            rec.incr(MetricId::WaveOnesTotal, 1);
            rec.incr(MetricId::WaveLevelOracleCalls, 1);
            // Level from the pre-update total (step 3(a) of Figure 5).
            let level = sum_level(self.ladder.total(), v);
            if self.ladder.insert(level, v).is_some() {
                rec.incr(MetricId::WaveEntriesEvicted, 1);
            }
            rec.incr(MetricId::WaveEntriesStored, 1);
        }
        Ok(())
    }

    /// Estimate the sum over the maximum window `N`.
    pub fn query_max(&self) -> Estimate {
        self.window(self.max_window())
    }

    /// Estimate the sum over any window `n <= N`.
    pub fn query(&self, n: u64) -> Result<Estimate, WaveError> {
        if n > self.max_window() {
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_window(),
            });
        }
        Ok(self.window(n))
    }

    /// The estimate for a window `n <= N`.
    fn window(&self, n: u64) -> Estimate {
        let (pos, total) = (self.pos(), self.total());
        if n >= pos {
            return Estimate::exact(total);
        }
        let s = pos - n + 1;
        match self.ladder.straddle(s) {
            (_, None) => Estimate::exact(0),
            // Positions never repeat: a stored item at s is the window's first.
            (_, Some(e)) if e.pos == s => Estimate::exact(total - e.cum + e.weight),
            (z1, Some(e)) => sum_estimate(total, z1, e.weight, e.cum),
        }
    }

    /// Serialize into the compact bit encoding (see
    /// [`crate::det_wave::DetWave::encode`] for the scheme; the sum wave
    /// additionally gamma-codes each entry's value).
    pub fn encode(&self) -> Vec<u8> {
        self.ladder
            .encode(&[self.max_window(), self.max_value, self.ladder.k()])
    }

    /// Reconstruct a synopsis from [`SumWave::encode`] output.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let max_value = r.read_gamma()?;
        let k = read_k(&mut r)?;
        let mut wave =
            SumWave::with_k(max_window, max_value, k, 1.0 / k as f64).map_err(refused_k)?;
        wave.ladder.decode_body(&mut r, max_value)?;
        Ok(wave)
    }

    /// Space accounting (see [`SpaceReport`]).
    pub fn space_report(&self) -> SpaceReport {
        self.ladder.space_report(std::mem::size_of::<Self>(), 3)
    }
}

/// The Figure 5 estimate: truth is in `[total - z2 + v2, total - z1]`
/// and the returned value `total - (z1 + z2 - v2)/2` is exactly the
/// midpoint of that interval.
pub(crate) fn sum_estimate(total: u64, z1: u64, v2: u64, z2: u64) -> Estimate {
    debug_assert!(z1 <= z2 - v2, "z1={z1} z2={z2} v2={v2}");
    Estimate::midpoint(total - z2 + v2, total - z1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSum;

    /// For the mutated-encoding fuzz in `lib.rs`.
    impl SumWave {
        pub(crate) fn ladder(&self) -> &Ladder<u64> {
            &self.ladder
        }
    }

    fn lcg_vals(seed: u64, len: usize, r: u64) -> Vec<u64> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % (r + 1)
            })
            .collect()
    }

    #[test]
    fn new_validates_its_parameters() {
        let a = SumWave::new(512, 100, 0.2).unwrap();
        assert_eq!(a.max_window(), 512);
        assert_eq!(
            SumWave::new(512, 100, 0.0).unwrap_err(),
            WaveError::InvalidEpsilon(0.0)
        );
        assert_eq!(
            SumWave::new(0, 100, 0.2).unwrap_err(),
            WaveError::InvalidWindow(0)
        );
        assert_eq!(
            SumWave::new(512, 0, 0.2).unwrap_err(),
            WaveError::ValueTooLarge { value: 0, max: 0 }
        );
    }

    #[test]
    fn empty_and_whole_stream() {
        let mut w = SumWave::new(10, 100, 0.25).unwrap();
        assert_eq!(w.query_max(), Estimate::exact(0));
        w.push_value(7).unwrap();
        w.push_value(0).unwrap();
        w.push_value(3).unwrap();
        assert_eq!(w.query_max(), Estimate::exact(10));
    }

    #[test]
    fn rejects_out_of_range_values() {
        let mut w = SumWave::new(10, 5, 0.25).unwrap();
        assert!(matches!(
            w.push_value(6),
            Err(WaveError::ValueTooLarge { value: 6, max: 5 })
        ));
        // The failed push must not have advanced the stream.
        assert_eq!(w.pos(), 0);
    }

    #[test]
    fn error_bound_holds_max_window() {
        for &(eps, n_max, r) in &[(0.5, 64u64, 15u64), (0.25, 128, 255), (0.1, 64, 7)] {
            let mut w = SumWave::new(n_max, r, eps).unwrap();
            let mut oracle = ExactSum::new(n_max);
            for v in lcg_vals(3, 5000, r) {
                w.push_value(v).unwrap();
                oracle.push_value(v);
                let actual = oracle.query(n_max);
                let est = w.query_max();
                assert!(
                    est.brackets(actual),
                    "eps={eps} r={r}: [{},{}] vs {actual}",
                    est.lo,
                    est.hi
                );
                assert!(
                    est.relative_error(actual) <= eps + 1e-9,
                    "eps={eps} actual={actual} est={}",
                    est.value
                );
            }
        }
    }

    #[test]
    fn error_bound_holds_smaller_windows() {
        let (eps, n_max, r) = (0.2, 100u64, 31u64);
        let mut w = SumWave::new(n_max, r, eps).unwrap();
        let mut oracle = ExactSum::new(n_max);
        for (step, v) in lcg_vals(11, 4000, r).into_iter().enumerate() {
            w.push_value(v).unwrap();
            oracle.push_value(v);
            if step % 17 == 0 {
                for n in [1u64, 13, 50, 99] {
                    let actual = oracle.query(n);
                    let est = w.query(n).unwrap();
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
    fn degenerate_unit_values_match_basic_counting_bound() {
        // With R = 1 this is exactly Basic Counting.
        let eps = 0.25;
        let mut w = SumWave::new(64, 1, eps).unwrap();
        let mut oracle = ExactSum::new(64);
        for v in lcg_vals(17, 3000, 1) {
            w.push_value(v).unwrap();
            oracle.push_value(v);
            let actual = oracle.query(64);
            assert!(w.query_max().relative_error(actual) <= eps + 1e-9);
        }
    }

    #[test]
    fn zeros_do_not_create_entries() {
        let mut w = SumWave::new(16, 10, 0.5).unwrap();
        for _ in 0..100 {
            w.push_value(0).unwrap();
        }
        assert_eq!(w.entries(), 0);
        assert_eq!(w.query_max(), Estimate::exact(0));
    }

    #[test]
    fn bursty_large_values() {
        let eps = 0.125;
        let (n_max, r) = (128u64, 1u64 << 16);
        let mut w = SumWave::new(n_max, r, eps).unwrap();
        let mut oracle = ExactSum::new(n_max);
        for i in 0..3000u64 {
            let v = if i % 97 == 0 { r } else { i % 3 };
            w.push_value(v).unwrap();
            oracle.push_value(v);
            let actual = oracle.query(n_max);
            let est = w.query_max();
            assert!(
                est.relative_error(actual) <= eps + 1e-9,
                "i={i} actual={actual} est={}",
                est.value
            );
        }
    }

    #[test]
    fn entries_bounded() {
        let (eps, n_max, r) = (0.1, 1u64 << 12, 1u64 << 10);
        let w0 = SumWave::new(n_max, r, eps).unwrap();
        let cap = (w0.num_levels() as u64) * ((1.0 / eps).ceil() as u64 + 1);
        let mut w = w0;
        for v in lcg_vals(23, 50_000, r) {
            w.push_value(v).unwrap();
        }
        assert!(w.entries() as u64 <= cap);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (eps, n_max, r) = (0.1, 512u64, 1u64 << 8);
        let mut w = SumWave::new(n_max, r, eps).unwrap();
        for v in lcg_vals(91, 8_000, r) {
            w.push_value(v).unwrap();
        }
        let bytes = w.encode();
        let w2 = SumWave::decode(&bytes).unwrap();
        assert_eq!(w.pos(), w2.pos());
        assert_eq!(w.total(), w2.total());
        for n in [1u64, 17, 100, 511, 512] {
            assert_eq!(w.query(n).unwrap(), w2.query(n).unwrap(), "n={n}");
        }
        let (mut a, mut b) = (w, w2);
        for v in lcg_vals(92, 2_000, r) {
            a.push_value(v).unwrap();
            b.push_value(v).unwrap();
            assert_eq!(a.query_max(), b.query_max());
        }
    }

    #[test]
    fn roundtrip_survives_non_injective_eps_to_k() {
        // Regression: k=49-class eps values must decode losslessly on
        // every hop (N * R = (k+1) * 2^4 sits on a level boundary: a k
        // that drifted to k + 1 would lose the top level).
        for &k in &[49u64, 98, 103, 107, 196] {
            let mut w = SumWave::new((k + 1) * 2, 8, 1.0 / (k as f64 - 0.5)).unwrap();
            for _ in 0..(k + 1) * 2 {
                w.push_value(8).unwrap();
            }
            let w1 = SumWave::decode(&w.encode()).expect("valid encode must decode");
            assert_eq!(w1.encode(), w.encode(), "k={k}: second hop");
            let w2 = SumWave::decode(&w1.encode()).unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(w.query_max(), w2.query_max());
            assert_eq!(w.num_levels(), w2.num_levels());
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut w = SumWave::new(64, 100, 0.25).unwrap();
        for v in lcg_vals(9, 500, 100) {
            w.push_value(v).unwrap();
        }
        let bytes = w.encode();
        assert!(SumWave::decode(&bytes[..bytes.len() / 3]).is_err());
    }

    #[test]
    fn decode_rejects_an_entry_overlapping_its_predecessor() {
        // max_window 100, max_value 16.
        let bytes = crate::ladder::overlapping_sum_entries(&[100, 16]);
        assert_eq!(
            SumWave::decode(&bytes).unwrap_err(),
            CodecError::Corrupt("entries not increasing")
        );
    }

    #[test]
    fn space_report_sane() {
        let mut w = SumWave::new(1 << 10, 1 << 8, 0.2).unwrap();
        for v in lcg_vals(29, 10_000, 1 << 8) {
            w.push_value(v).unwrap();
        }
        let r = w.space_report();
        assert!(r.entries > 0 && r.synopsis_bits > 0);
    }

    #[test]
    fn recorded_counters_are_consistent() {
        let reg = waves_obs::MetricsRegistry::new();
        let mut w = SumWave::new(64, 20, 0.25).unwrap();
        let vals = lcg_vals(17, 2000, 20);
        let nonzero = vals.iter().filter(|&&v| v > 0).count() as u64;
        for v in vals {
            w.push_value_recorded(v, &reg).unwrap();
        }
        use waves_obs::MetricId as M;
        assert_eq!(reg.counter(M::WavePushesTotal), 2000);
        assert_eq!(reg.counter(M::WaveEntriesStored), nonzero);
        assert_eq!(
            reg.counter(M::WaveEntriesStored)
                - reg.counter(M::WaveEntriesExpired)
                - reg.counter(M::WaveEntriesEvicted),
            w.entries() as u64,
        );
    }
}
