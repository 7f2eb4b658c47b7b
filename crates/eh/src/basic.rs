//! Basic Counting with an exponential histogram (Datar et al. \[9\]):
//! the baseline the paper improves upon. [`EhCount`] is the one
//! histogram skeleton (`crate::histogram`) with unit buckets — every 1
//! has its own position, so nothing is stored per bucket but its
//! timestamp. What is here is what only bits have: the bit push and the
//! packed-word push.

use crate::histogram::Histogram;
use std::collections::VecDeque;
use waves_core::bits::BitsRef;
use waves_core::error::WaveError;
use waves_core::traits::BitSynopsis;

/// Exponential histogram for counting 1's in a sliding window of up to
/// `N` bits with relative error `eps`.
pub type EhCount = Histogram<()>;

impl EhCount {
    /// Build an EH with error bound `0 < eps < 1` for windows up to
    /// `max_window` — the same signature as `DetWave::new`, so switching
    /// between the wave and the EH baseline is a one-word change.
    pub fn new(max_window: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_eps(max_window, (), eps)
    }

    /// Number of buckets currently held.
    pub fn buckets(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Process the next stream bit: O(1) amortized, O(log(eps N)) worst
    /// case due to cascading merges.
    pub fn push_bit(&mut self, b: bool) {
        self.push_bit_recorded(b, &waves_obs::NoopRecorder);
    }

    /// [`EhCount::push_bit`] with instrumentation reported into `rec` —
    /// the one push body: counts pushes, cascade episodes and merged
    /// bucket pairs, and feeds each 1-bit's cascade length into the
    /// `eh_cascade_len` histogram.
    pub fn push_bit_recorded<R: waves_obs::Recorder + ?Sized>(&mut self, b: bool, rec: &R) {
        self.push_recorded(b as u64, rec);
    }

    /// Ingest a packed batch, oldest first (the word-level counterpart
    /// of [`EhCount::push_bit`], state-identical to it). Zero runs —
    /// merged across whole words by `trailing_zeros` scanning — advance
    /// the clock in one addition; expiry runs once per 1-bit
    /// (immediately before its insertion, so an expired bucket can never
    /// take part in a cascade merge) and once at the end of the batch.
    /// It reports no metrics.
    pub fn push_words(&mut self, bits: BitsRef<'_>) {
        use waves_core::bits::Run;
        bits.scan_runs(|run| match run {
            Run::Zeros(n) => self.skip_zeros(n),
            Run::One => self.push_bit(true),
        });
        self.expire();
    }
}

impl BitSynopsis for EhCount {
    fn push_words(&mut self, bits: BitsRef<'_>) {
        self.push_words(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_core::estimate::Estimate;
    use waves_core::exact::ExactCount;
    use waves_core::window::MAX_WINDOW;

    fn lcg_bits(seed: u64, len: usize, m: u64, lt: u64) -> Vec<bool> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % m < lt
            })
            .collect()
    }

    #[test]
    fn whole_stream_exact() {
        let mut eh = EhCount::new(100, 0.25).unwrap();
        for b in [true, false, true, true] {
            eh.push_bit(b);
        }
        assert_eq!(eh.query(100).unwrap(), Estimate::exact(3));
    }

    #[test]
    fn error_bound_holds() {
        for &(eps, n_max) in &[(0.5, 64u64), (0.25, 128), (0.1, 256)] {
            let mut eh = EhCount::new(n_max, eps).unwrap();
            let mut oracle = ExactCount::new(n_max);
            for b in lcg_bits(1, 6000, 10, 4) {
                eh.push_bit(b);
                oracle.push_bit(b);
                let actual = oracle.query(n_max);
                let est = eh.query(n_max).unwrap();
                assert!(est.brackets(actual), "[{},{}] vs {actual}", est.lo, est.hi);
                assert!(
                    est.relative_error(actual) <= eps + 1e-9,
                    "eps={eps} actual={actual} est={}",
                    est.value
                );
            }
        }
    }

    #[test]
    fn error_bound_smaller_windows() {
        let (eps, n_max) = (0.2, 128u64);
        let mut eh = EhCount::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for (i, b) in lcg_bits(9, 4000, 3, 1).into_iter().enumerate() {
            eh.push_bit(b);
            oracle.push_bit(b);
            if i % 29 == 0 {
                for n in [5u64, 40, 128] {
                    let actual = oracle.query(n);
                    let est = eh.query(n).unwrap();
                    assert!(
                        est.relative_error(actual) <= eps + 1e-9,
                        "i={i} n={n} actual={actual} est={:?}",
                        est
                    );
                }
            }
        }
    }

    #[test]
    fn cascades_happen_on_all_ones() {
        let mut eh = EhCount::new(1 << 16, 0.1).unwrap();
        for _ in 0..100_000 {
            eh.push_bit(true);
        }
        // On an all-ones stream, long cascades are inevitable.
        assert!(eh.max_cascade() >= 4, "max cascade {}", eh.max_cascade());
        assert!(eh.merges() > 0);
    }

    #[test]
    fn wave_never_cascades_comparison_stat() {
        // The structural fact behind E4: EH max cascade grows with N,
        // while the wave touches exactly one level per item.
        let mut eh_small = EhCount::new(1 << 8, 0.1).unwrap();
        let mut eh_large = EhCount::new(1 << 16, 0.1).unwrap();
        for _ in 0..1 << 17 {
            eh_small.push_bit(true);
            eh_large.push_bit(true);
        }
        assert!(eh_large.max_cascade() > eh_small.max_cascade());
    }

    #[test]
    fn bucket_counts_bounded() {
        let eps = 0.125;
        let n_max = 1u64 << 12;
        let mut eh = EhCount::new(n_max, eps).unwrap();
        for b in lcg_bits(3, 50_000, 2, 1) {
            eh.push_bit(b);
        }
        let m = (1.0 / (2.0 * eps)).ceil() as usize;
        for (j, q) in eh.classes.iter().enumerate() {
            assert!(q.len() <= m + 1, "class {j} has {} buckets", q.len());
        }
    }

    #[test]
    fn cascade_counter_resets_on_zero_bits() {
        let mut eh = EhCount::new(1 << 10, 0.1).unwrap();
        for _ in 0..200 {
            eh.push_bit(true);
        }
        assert!(eh.last_cascade() <= eh.max_cascade());
        eh.push_bit(false);
        assert_eq!(eh.last_cascade(), 0, "zero bits do not merge");
        assert!(eh.max_cascade() > 0, "history preserved");
    }

    #[test]
    fn sub_window_with_straddling_oldest() {
        // A window boundary cutting through a large old bucket still
        // yields a bracketing interval.
        let mut eh = EhCount::new(256, 0.25).unwrap();
        let mut oracle = ExactCount::new(256);
        for _ in 0..200 {
            eh.push_bit(true);
            oracle.push_bit(true);
        }
        for n in [3u64, 17, 100, 199, 200] {
            let est = eh.query(n).unwrap();
            assert!(est.brackets(oracle.query(n)), "n={n}: {est:?}");
        }
    }

    #[test]
    fn recorded_cascade_stats_match_internal_counters() {
        let reg = waves_obs::MetricsRegistry::new();
        let mut eh = EhCount::new(1 << 12, 0.1).unwrap();
        for b in lcg_bits(7, 20_000, 2, 1) {
            eh.push_bit_recorded(b, &reg);
        }
        use waves_obs::MetricId as M;
        assert_eq!(reg.counter(M::EhPushes), 20_000);
        assert_eq!(reg.counter(M::EhBucketsMerged), eh.merges());
        assert!(reg.counter(M::EhCascades) > 0);
        let hist = reg
            .snapshot()
            .hist("eh_cascade_len")
            .cloned()
            .expect("well-known histogram");
        // One sample per 1-bit; its max is the stream's max cascade.
        assert_eq!(hist.max, eh.max_cascade() as u64);
    }

    #[test]
    fn expiry_empties_structure() {
        let mut eh = EhCount::new(32, 0.25).unwrap();
        for _ in 0..100 {
            eh.push_bit(true);
        }
        for _ in 0..40 {
            eh.push_bit(false);
        }
        assert_eq!(eh.query(32).unwrap(), Estimate::exact(0));
        assert_eq!(eh.buckets(), 0);
    }

    /// The waves' window bound holds here too: past it `ts + max_window`
    /// overflows in expiry and in the decoder.
    #[test]
    fn window_is_held_to_the_waves_bound() {
        use waves_core::codec::{write_deltas, BitWriter, CodecError};
        for n in [0, MAX_WINDOW + 1, u64::MAX] {
            assert_eq!(
                EhCount::new(n, 0.1).unwrap_err(),
                WaveError::InvalidWindow(n)
            );
        }
        let mut eh = EhCount::new(MAX_WINDOW, 0.1).unwrap();
        for _ in 0..10 {
            eh.push_bit(true);
        }
        assert_eq!(eh.query(10).unwrap(), Estimate::exact(10));
        // A well-framed header claiming N = u64::MAX over one live bucket.
        let mut w = BitWriter::new();
        w.write_gamma(u64::MAX);
        w.write_gamma(5); // m
        w.write_gamma0(10); // pos
        w.write_gamma0(1); // classes
        w.write_gamma0(1); // buckets in class 0
        write_deltas(&mut w, &[5]);
        assert_eq!(
            EhCount::decode(&w.finish()).unwrap_err(),
            CodecError::BadParams(WaveError::InvalidWindow(u64::MAX))
        );
    }

    /// A well-framed claim of 1024 ones in a 10-bit stream: without the
    /// check a total forged near `u64::MAX` overflows on the next push.
    #[test]
    fn decode_refuses_more_ones_than_positions() {
        use waves_core::codec::{write_deltas, BitWriter, CodecError};
        let mut w = BitWriter::new();
        w.write_gamma(64); // max_window
        w.write_gamma(2); // m
        w.write_gamma0(10); // pos
        w.write_gamma0(11); // classes
        for _ in 0..10 {
            w.write_gamma0(0); // classes 0..=9 empty
        }
        w.write_gamma0(1); // one bucket of size 2^10
        write_deltas(&mut w, &[5]);
        assert_eq!(
            EhCount::decode(&w.finish()).unwrap_err(),
            CodecError::Corrupt("counters inconsistent")
        );
    }
}
