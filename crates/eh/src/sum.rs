//! Exponential histogram for sums of bounded integers (Datar et al. \[9\]).
//!
//! An arriving item of value `v` is treated as `v` insertions of 1 into
//! the Basic Counting EH, with the resulting histogram computed directly
//! (never materializing the `v` unit insertions): class counts follow the
//! same redundant-binary-counter dynamics, and same-timestamp buckets are
//! kept as run-length `(ts, multiplicity)` entries so the per-item work
//! is polylogarithmic. A single item can still end up spread across up
//! to `O(log N + log R)` bucket classes — the structural reason the sum
//! wave's store-once O(1) insertion (Theorem 3) wins.

use std::collections::VecDeque;
use waves_core::error::WaveError;
use waves_core::estimate::{Estimate, SpaceReport};
use waves_core::space::{delta_coded_bits, elias_gamma_bits};
use waves_core::traits::SumSynopsis;
use waves_core::window::MAX_WINDOW;

/// A run of `mult` same-size buckets sharing one timestamp.
#[derive(Debug, Clone, Copy)]
struct Run {
    ts: u64,
    mult: u64,
}

/// Exponential histogram for the sum of the last `N` integers in
/// `[0..R]`, relative error `eps`.
#[derive(Debug, Clone)]
pub struct EhSum {
    max_window: u64,
    max_value: u64,
    eps: f64,
    m: u64,
    pos: u64,
    /// `classes[j]`: runs of buckets of size `2^j`, oldest at the front.
    classes: Vec<VecDeque<Run>>,
    /// Total bucket multiplicity per class.
    counts: Vec<u64>,
    /// Sum of all bucket sizes (equals the sum of unexpired units).
    total: u64,
    last_cascade: u32,
    max_cascade: u32,
    merges: u64,
}

/// Builder for [`EhSum`] — mirrors `SumWave::builder()`.
///
/// Defaults: `max_window = 1024`, `max_value = 65_535`, `eps = 0.1`;
/// validation happens in [`EhSumBuilder::build`].
#[derive(Debug, Clone)]
pub struct EhSumBuilder {
    max_window: u64,
    max_value: u64,
    eps: f64,
}

impl EhSumBuilder {
    /// Maximum queryable window `N` (default 1024).
    pub fn max_window(mut self, n: u64) -> Self {
        self.max_window = n;
        self
    }

    /// Item value bound `R` (default 65_535).
    pub fn max_value(mut self, r: u64) -> Self {
        self.max_value = r;
        self
    }

    /// Relative error bound, `0 < eps < 1` (default 0.1).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Validate the configuration and build the histogram. A window sum
    /// `N * R` above `2^62` is refused as `InvalidWindow(N)`, as
    /// `SumWave` refuses it.
    pub fn build(self) -> Result<EhSum, WaveError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(WaveError::InvalidEpsilon(self.eps));
        }
        let m = (1.0 / (2.0 * self.eps)).ceil() as u64;
        EhSum::with_m(self.max_window, self.max_value, m, self.eps)
    }
}

impl EhSum {
    /// Start building: `EhSum::builder().max_window(n).max_value(r).eps(e).build()`.
    pub fn builder() -> EhSumBuilder {
        EhSumBuilder {
            max_window: 1024,
            max_value: 65_535,
            eps: 0.1,
        }
    }

    /// Build an EH-sum with error bound `eps` for windows up to
    /// `max_window` and values up to `max_value` (thin shim over
    /// [`EhSum::builder`]).
    pub fn new(max_window: u64, max_value: u64, eps: f64) -> Result<Self, WaveError> {
        Self::builder()
            .max_window(max_window)
            .max_value(max_value)
            .eps(eps)
            .build()
    }

    /// Build from the integer parameter `m` the codec carries, never
    /// back through `eps` (see `EhCount::with_m`).
    fn with_m(max_window: u64, max_value: u64, m: u64, eps: f64) -> Result<Self, WaveError> {
        if max_window == 0 || max_window > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window));
        }
        if max_value == 0 {
            return Err(WaveError::ValueTooLarge { value: 0, max: 0 });
        }
        // The largest window sum `N * R`, held to `SumWave`'s bound so
        // the running total cannot leave a `u64`.
        if !matches!(max_window.checked_mul(max_value), Some(nr) if nr <= 1 << 62) {
            return Err(WaveError::InvalidWindow(max_window));
        }
        Ok(EhSum {
            max_window,
            max_value,
            eps,
            m,
            pos: 0,
            classes: Vec::new(),
            counts: Vec::new(),
            total: 0,
            last_cascade: 0,
            max_cascade: 0,
            merges: 0,
        })
    }

    /// Maximum window size `N`.
    pub fn max_window(&self) -> u64 {
        self.max_window
    }

    /// The value bound `R`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Total multiplicity of buckets currently held.
    pub fn buckets(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Classes touched by merges on the last item.
    pub fn last_cascade(&self) -> u32 {
        self.last_cascade
    }

    /// Longest merge cascade observed.
    pub fn max_cascade(&self) -> u32 {
        self.max_cascade
    }

    /// Total merges performed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Process the next item.
    pub fn push_value(&mut self, v: u64) -> Result<(), WaveError> {
        if v > self.max_value {
            return Err(WaveError::ValueTooLarge {
                value: v,
                max: self.max_value,
            });
        }
        self.pos += 1;
        self.expire();
        if v == 0 {
            self.last_cascade = 0;
            return Ok(());
        }
        if self.classes.is_empty() {
            self.classes.push(VecDeque::new());
            self.counts.push(0);
        }
        self.classes[0].push_back(Run {
            ts: self.pos,
            mult: v,
        });
        self.counts[0] += v;
        self.total += v;
        // Cascade: canonical-counter dynamics per class.
        let mut cascade = 0u32;
        let mut j = 0usize;
        while self.counts[j] >= self.m + 2 {
            let c = self.counts[j];
            // Final count keeps the parity offset from m.
            let f = self.m + ((c - self.m) % 2);
            let pairs = (c - f) / 2;
            let carries = self.merge_oldest_pairs(j, pairs);
            self.counts[j] = f;
            if self.classes.len() == j + 1 {
                self.classes.push(VecDeque::new());
                self.counts.push(0);
            }
            for run in carries {
                self.classes[j + 1].push_back(run);
            }
            self.counts[j + 1] += pairs;
            self.merges += pairs;
            cascade += 1;
            j += 1;
        }
        self.last_cascade = cascade;
        self.max_cascade = self.max_cascade.max(cascade);
        Ok(())
    }

    /// [`EhSum::push_value`] with instrumentation reported into `rec`
    /// (same metric names as [`crate::EhCount::push_bit_recorded`]).
    pub fn push_value_recorded<R: waves_obs::Recorder + ?Sized>(
        &mut self,
        v: u64,
        rec: &R,
    ) -> Result<(), WaveError> {
        use waves_obs::{HistId, MetricId};
        let merges_before = self.merges;
        self.push_value(v)?;
        rec.incr(MetricId::EhPushes, 1);
        if v > 0 {
            let cascade = self.last_cascade as u64;
            rec.observe(HistId::EhCascadeLen, cascade);
            if cascade > 0 {
                rec.incr(MetricId::EhCascades, 1);
                rec.incr(MetricId::EhBucketsMerged, self.merges - merges_before);
            }
        }
        Ok(())
    }

    /// Pop the `2 * pairs` oldest unit-buckets of class `j` and pair them
    /// up; each pair becomes one class-`j+1` bucket timestamped with the
    /// newer member. Returns the carry runs in oldest-first order.
    fn merge_oldest_pairs(&mut self, j: usize, pairs: u64) -> Vec<Run> {
        let mut carries: Vec<Run> = Vec::new();
        let mut need = 2 * pairs;
        // One unpaired bucket left over from the previous (older) run.
        let mut dangling = false;
        while need > 0 {
            let mut run = self.classes[j]
                .pop_front()
                .expect("enough buckets to merge");
            let take = run.mult.min(need);
            run.mult -= take;
            need -= take;
            let mut avail = take;
            if dangling {
                // Pair the dangling older bucket with one from this run;
                // the carry takes this (newer) run's timestamp.
                push_run(
                    &mut carries,
                    Run {
                        ts: run.ts,
                        mult: 1,
                    },
                );
                avail -= 1;
                dangling = false;
            }
            if avail >= 2 {
                push_run(
                    &mut carries,
                    Run {
                        ts: run.ts,
                        mult: avail / 2,
                    },
                );
            }
            if avail % 2 == 1 {
                dangling = true;
            }
            if run.mult > 0 {
                self.classes[j].push_front(run);
            }
        }
        debug_assert!(!dangling, "2*pairs buckets always pair up");
        carries
    }

    fn expire(&mut self) {
        while let Some(j) = self.highest_nonempty() {
            let front = *self.classes[j].front().expect("nonempty");
            if front.ts + self.max_window <= self.pos {
                self.classes[j].pop_front();
                self.counts[j] -= front.mult;
                self.total -= front.mult << j;
            } else {
                break;
            }
        }
    }

    fn highest_nonempty(&self) -> Option<usize> {
        (0..self.classes.len())
            .rev()
            .find(|&j| !self.classes[j].is_empty())
    }

    /// Estimate the sum of the last `n <= N` items.
    pub fn query(&self, n: u64) -> Result<Estimate, WaveError> {
        if n > self.max_window {
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_window,
            });
        }
        let s = if n >= self.pos { 1 } else { self.pos - n + 1 };
        let mut total_in = 0u64;
        let mut oldest: Option<(u64, u64)> = None; // (ts, size)
        for (j, q) in self.classes.iter().enumerate() {
            let size = 1u64 << j;
            for run in q {
                if run.ts >= s {
                    total_in += size * run.mult;
                    match oldest {
                        // Same-timestamp buckets arrive together; the
                        // larger class is the older span.
                        Some((ots, osz)) if ots < run.ts || (ots == run.ts && osz >= size) => {}
                        _ => oldest = Some((run.ts, size)),
                    }
                }
            }
        }
        let Some((_, oldest_size)) = oldest else {
            return Ok(Estimate::exact(0));
        };
        if n >= self.pos || oldest_size == 1 {
            return Ok(Estimate::exact(total_in));
        }
        // Midpoint of the straddling bucket's possible contribution
        // [1, size]; see EhCount::query for the error argument.
        Ok(Estimate::midpoint(total_in - oldest_size + 1, total_in))
    }

    /// Serialize into a compact bit encoding (see [`crate::EhCount::encode`]
    /// for the scheme; the sum histogram additionally gamma-codes each
    /// run's multiplicity). Reconstruct with [`EhSum::decode`].
    pub fn encode(&self) -> Vec<u8> {
        use waves_core::codec::{write_deltas, BitWriter};
        let mut w = BitWriter::new();
        w.write_gamma(self.max_window);
        w.write_gamma(self.max_value);
        w.write_gamma(self.m);
        w.write_gamma0(self.pos);
        w.write_gamma0(self.classes.len() as u64);
        for q in &self.classes {
            w.write_gamma0(q.len() as u64);
            let ts: Vec<u64> = q.iter().map(|r| r.ts).collect();
            write_deltas(&mut w, &ts);
            for run in q {
                w.write_gamma(run.mult);
            }
        }
        w.finish()
    }

    /// Reconstruct a histogram from [`EhSum::encode`] output; queries
    /// answer identically, re-encoding is byte-identical, and cascade
    /// telemetry restarts at 0. Corrupt input yields `Err`, never a
    /// panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, waves_core::codec::CodecError> {
        use waves_core::codec::{read_deltas, BitReader, CodecError};
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let max_value = r.read_gamma()?;
        let m = r.read_gamma()?;
        if m > 1 << 32 {
            return Err(CodecError::Corrupt("bad m"));
        }
        let mut eh = EhSum::with_m(max_window, max_value, m, 1.0 / (2.0 * m as f64))?;
        eh.pos = r.read_gamma0()?;
        if eh.pos > 1 << 62 {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        let num_classes = r.read_gamma0()? as usize;
        if num_classes > 64 {
            return Err(CodecError::Corrupt("too many classes"));
        }
        let mut newest_allowed = eh.pos;
        for j in 0..num_classes {
            let runs = r.read_gamma0()? as usize;
            if runs > (m as usize) + 1 {
                return Err(CodecError::Corrupt("class overfull"));
            }
            let ts = read_deltas(&mut r, runs)?;
            let mut q: VecDeque<Run> = VecDeque::with_capacity(runs);
            let mut count = 0u64;
            for &t in &ts {
                let mult = r.read_gamma()?;
                // Partial-run merges can leave same-timestamp runs both
                // within a class and straddling adjacent classes, so
                // (unlike EhCount) equality is legal; read_deltas already
                // guarantees the sequence is nondecreasing.
                if t == 0 || t > eh.pos {
                    return Err(CodecError::Corrupt("timestamp beyond pos"));
                }
                if t + max_window <= eh.pos {
                    return Err(CodecError::Corrupt("bucket already expired"));
                }
                count = count
                    .checked_add(mult)
                    .ok_or(CodecError::Corrupt("count overflow"))?;
                q.push_back(Run { ts: t, mult });
            }
            if count > m + 1 {
                return Err(CodecError::Corrupt("class overfull"));
            }
            if let (Some(&newest), true) = (ts.last(), j > 0) {
                if newest > newest_allowed {
                    return Err(CodecError::Corrupt("classes out of age order"));
                }
            }
            if let Some(&oldest) = ts.first() {
                newest_allowed = oldest;
            }
            let size = 1u64
                .checked_shl(j as u32)
                .ok_or(CodecError::Corrupt("class overflow"))?;
            eh.total = count
                .checked_mul(size)
                .and_then(|add| eh.total.checked_add(add))
                .ok_or(CodecError::Corrupt("total overflow"))?;
            eh.classes.push(q);
            eh.counts.push(count);
        }
        // Every position contributes at most `max_value` units.
        if eh.total > eh.pos.saturating_mul(max_value) {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        Ok(eh)
    }

    /// Space accounting under the same conventions as the waves.
    pub fn space_report(&self) -> SpaceReport {
        let entries: usize = self.classes.iter().map(VecDeque::len).sum();
        let resident_bytes = std::mem::size_of::<Self>()
            + self
                .classes
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<Run>())
                .sum::<usize>();
        let mut all_ts: Vec<u64> = self
            .classes
            .iter()
            .flat_map(|q| q.iter().map(|r| r.ts))
            .collect();
        all_ts.sort_unstable();
        let mult_bits: u64 = self
            .classes
            .iter()
            .flat_map(|q| q.iter().map(|r| elias_gamma_bits(r.mult)))
            .sum();
        let nr = 2 * self.max_window.saturating_mul(self.max_value).max(1);
        let counter_bits = 64 - (nr - 1).leading_zeros() as u64;
        let synopsis_bits = 2 * counter_bits
            + delta_coded_bits(all_ts)
            + mult_bits
            + entries as u64 * elias_gamma_bits(self.classes.len() as u64 + 1);
        SpaceReport {
            resident_bytes,
            synopsis_bits,
            entries,
        }
    }
}

/// Append a run, coalescing with the previous one when timestamps match.
fn push_run(runs: &mut Vec<Run>, run: Run) {
    if let Some(last) = runs.last_mut() {
        if last.ts == run.ts {
            last.mult += run.mult;
            return;
        }
    }
    runs.push(run);
}

impl waves_core::traits::Synopsis for EhSum {
    fn name(&self) -> &'static str {
        "eh-sum"
    }
    fn max_window(&self) -> u64 {
        self.max_window
    }
    fn space_report(&self) -> SpaceReport {
        EhSum::space_report(self)
    }
}

impl SumSynopsis for EhSum {
    fn push_value(&mut self, v: u64) -> Result<(), WaveError> {
        EhSum::push_value(self, v)
    }
    fn query_window(&self, n: u64) -> Result<Estimate, WaveError> {
        self.query(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_core::exact::ExactSum;

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
        // R = 1 degenerates to Basic Counting; compare with EhCount.
        use crate::basic::EhCount;
        let (eps, n) = (0.25, 64u64);
        let mut es = EhSum::new(n, 1, eps).unwrap();
        let mut ec = EhCount::new(n, eps).unwrap();
        let mut oracle = ExactSum::new(n);
        for v in lcg_vals(4, 3000, 1) {
            es.push_value(v).unwrap();
            ec.push_bit(v == 1);
            oracle.push_value(v);
            let actual = oracle.query(n);
            assert!(es.query(n).unwrap().relative_error(actual) <= eps + 1e-9);
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
