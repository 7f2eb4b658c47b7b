//! Sums of bounded integers with an exponential histogram (Datar et al.
//! \[9\]). [`EhSum`] is the one histogram skeleton (`crate::histogram`)
//! with run-length buckets: an item of value `v` is `v` unit insertions
//! applied at once, and same-timestamp buckets share one
//! `(ts, multiplicity)` run. What is here is what only sums have: the
//! value bound `R` and the value push.

use crate::histogram::Histogram;
use waves_core::error::WaveError;

/// Exponential histogram for the sum of the last `N` integers in
/// `[0..R]`, relative error `eps`.
pub type EhSum = Histogram<u64>;

impl EhSum {
    /// Build an EH-sum with error bound `0 < eps < 1` for windows up to
    /// `max_window` and values up to `max_value` — the same signature as
    /// `SumWave::new`.
    pub fn new(max_window: u64, max_value: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_eps(max_window, max_value, eps)
    }

    /// The value bound `R`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// Total multiplicity of buckets currently held.
    pub fn buckets(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Process the next item.
    pub fn push_value(&mut self, v: u64) -> Result<(), WaveError> {
        self.push_value_recorded(v, &waves_obs::NoopRecorder)
    }

    /// [`EhSum::push_value`] with instrumentation reported into `rec` —
    /// the one push body, with the metric names of
    /// [`crate::EhCount::push_bit_recorded`].
    pub fn push_value_recorded<R: waves_obs::Recorder + ?Sized>(
        &mut self,
        v: u64,
        rec: &R,
    ) -> Result<(), WaveError> {
        if v > self.max_value {
            return Err(WaveError::ValueTooLarge {
                value: v,
                max: self.max_value,
            });
        }
        self.push_recorded(v, rec);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_core::estimate::Estimate;
    use waves_core::exact::ExactSum;
    use waves_core::window::MAX_WINDOW;

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
    fn whole_stream_exact() {
        let mut eh = EhSum::new(100, 50, 0.25).unwrap();
        for v in [10u64, 0, 25, 7] {
            eh.push_value(v).unwrap();
        }
        assert_eq!(eh.query(100).unwrap(), Estimate::exact(42));
    }

    #[test]
    fn unit_values_match_basic_counting_behavior() {
        // R = 1 is Basic Counting, exactly: at every step the same
        // answer for every window, the same merges, cascades and
        // buckets — and that answer within eps of the truth.
        use crate::basic::EhCount;
        let (eps, n) = (0.25, 64u64);
        let mut es = EhSum::new(n, 1, eps).unwrap();
        let mut ec = EhCount::new(n, eps).unwrap();
        let mut oracle = ExactSum::new(n);
        for (i, v) in lcg_vals(4, 3000, 1).into_iter().enumerate() {
            es.push_value(v).unwrap();
            ec.push_bit(v == 1);
            oracle.push_value(v);
            for w in [1, 7, n / 2, n] {
                assert_eq!(es.query(w).unwrap(), ec.query(w).unwrap(), "i={i} n={w}");
            }
            assert_eq!(
                (es.merges(), es.last_cascade(), es.max_cascade()),
                (ec.merges(), ec.last_cascade(), ec.max_cascade()),
                "i={i}"
            );
            assert_eq!(es.buckets(), ec.buckets() as u64, "i={i}");
            let actual = oracle.query(n);
            assert!(ec.query(n).unwrap().relative_error(actual) <= eps + 1e-9);
        }
    }

    #[test]
    fn error_bound_holds() {
        for &(eps, n_max, r) in &[(0.5, 64u64, 15u64), (0.25, 128, 255), (0.125, 64, 31)] {
            let mut eh = EhSum::new(n_max, r, eps).unwrap();
            let mut oracle = ExactSum::new(n_max);
            for v in lcg_vals(8, 4000, r) {
                eh.push_value(v).unwrap();
                oracle.push_value(v);
                let actual = oracle.query(n_max);
                let est = eh.query(n_max).unwrap();
                assert!(est.brackets(actual), "[{},{}] vs {actual}", est.lo, est.hi);
                assert!(
                    est.relative_error(actual) <= eps + 1e-9,
                    "eps={eps} r={r} actual={actual} est={}",
                    est.value
                );
            }
        }
    }

    #[test]
    fn large_single_values() {
        let (eps, n, r) = (0.25, 64u64, 1u64 << 16);
        let mut eh = EhSum::new(n, r, eps).unwrap();
        let mut oracle = ExactSum::new(n);
        for i in 0..2000u64 {
            let v = if i % 50 == 0 { r } else { 0 };
            eh.push_value(v).unwrap();
            oracle.push_value(v);
            let actual = oracle.query(n);
            let est = eh.query(n).unwrap();
            assert!(
                est.relative_error(actual) <= eps + 1e-9,
                "i={i} actual={actual} est={}",
                est.value
            );
        }
    }

    #[test]
    fn counts_invariant_after_cascades() {
        let (eps, n, r) = (0.2, 1u64 << 10, 1u64 << 10);
        let mut eh = EhSum::new(n, r, eps).unwrap();
        for v in lcg_vals(21, 20_000, r) {
            eh.push_value(v).unwrap();
            for (j, q) in eh.classes.iter().enumerate() {
                let c: u64 = q.iter().map(|run| run.mult).sum();
                assert_eq!(c, eh.counts[j], "class {j} count mismatch");
                assert!(c <= eh.m + 1, "class {j} holds {c} > m+1 buckets");
                // Runs must be oldest-first.
                assert!(q.iter().zip(q.iter().skip(1)).all(|(a, b)| a.ts <= b.ts));
            }
        }
    }

    #[test]
    fn item_spread_across_many_classes() {
        // The structural cost the wave avoids: one large item lands in
        // multiple classes after cascading.
        let mut eh = EhSum::new(1 << 12, 1 << 12, 0.25).unwrap();
        for _ in 0..20 {
            eh.push_value(1 << 12).unwrap();
        }
        let nonempty = eh.classes.iter().filter(|q| !q.is_empty()).count();
        assert!(nonempty >= 4, "only {nonempty} classes used");
        assert!(eh.max_cascade() >= 4);
    }

    #[test]
    fn zeros_only() {
        let mut eh = EhSum::new(16, 10, 0.5).unwrap();
        for _ in 0..100 {
            eh.push_value(0).unwrap();
        }
        assert_eq!(eh.query(16).unwrap(), Estimate::exact(0));
        assert_eq!(eh.buckets(), 0);
    }

    /// The waves' window bound holds here too (see `EhCount`'s test),
    /// and `SumWave`'s bound on the largest window sum `N * R`.
    #[test]
    fn window_is_held_to_the_waves_bound() {
        use waves_core::codec::{write_deltas, BitWriter, CodecError};
        let refused = [
            (0, 16),
            (MAX_WINDOW + 1, 16),
            (u64::MAX, 16),
            (MAX_WINDOW, 16),
            ((1 << 58) + 1, 16),
            (2, u64::MAX),
        ];
        for (n, r) in refused {
            assert_eq!(
                EhSum::new(n, r, 0.1).unwrap_err(),
                WaveError::InvalidWindow(n),
                "N = {n}, R = {r}"
            );
        }
        for (n, r) in [(MAX_WINDOW, 1), (1 << 58, 16), (1, 1 << 62)] {
            assert!(EhSum::new(n, r, 0.1).is_ok(), "N = {n}, R = {r}");
        }
        let mut eh = EhSum::new(MAX_WINDOW, 1, 0.1).unwrap();
        for _ in 0..10 {
            eh.push_value(1).unwrap();
        }
        assert_eq!(eh.query(10).unwrap(), Estimate::exact(10));
        // Well-framed headers over one live run: N = u64::MAX, then
        // N = 2^62 with values up to 16 (N * R = 2^66).
        let header = |n: u64, r: u64| {
            let mut w = BitWriter::new();
            w.write_gamma(n);
            w.write_gamma(r); // max_value
            w.write_gamma(5); // m
            w.write_gamma0(10); // pos
            w.write_gamma0(1); // classes
            w.write_gamma0(1); // runs in class 0
            write_deltas(&mut w, &[5]);
            w.write_gamma(1); // the run's multiplicity
            w.finish()
        };
        for n in [u64::MAX, MAX_WINDOW] {
            assert_eq!(
                EhSum::decode(&header(n, 16)).unwrap_err(),
                CodecError::BadParams(WaveError::InvalidWindow(n))
            );
        }
        assert_eq!(EhSum::decode(&header(MAX_WINDOW, 1)).unwrap().buckets(), 1);
    }

    /// A well-framed claim of a 1024-unit bucket after 10 items of at
    /// most 16 (see `EhCount`'s test).
    #[test]
    fn decode_refuses_more_units_than_the_stream_held() {
        use waves_core::codec::{write_deltas, BitWriter, CodecError};
        let mut w = BitWriter::new();
        w.write_gamma(64); // max_window
        w.write_gamma(16); // max_value
        w.write_gamma(2); // m
        w.write_gamma0(10); // pos
        w.write_gamma0(11); // classes
        for _ in 0..10 {
            w.write_gamma0(0); // classes 0..=9 empty
        }
        w.write_gamma0(1); // one run of size 2^10
        write_deltas(&mut w, &[5]);
        w.write_gamma(1); // its multiplicity
        assert_eq!(
            EhSum::decode(&w.finish()).unwrap_err(),
            CodecError::Corrupt("counters inconsistent")
        );
    }
}
