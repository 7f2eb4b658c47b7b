//! Exponential histogram for Basic Counting (Datar et al. \[9\]).
//!
//! The baseline the paper improves upon. Buckets of power-of-two sizes
//! partition the recent 1's; for each size there are `m` or `m + 1`
//! buckets (`m = ceil(1/(2 eps))`), enforced by merging the two oldest
//! buckets of a size whenever a size accumulates `m + 2` — which can
//! cascade through all `O(log(eps N))` sizes on a single arrival. That
//! cascade is exactly the worst-case-latency gap the deterministic wave
//! closes (Theorem 1 vs. the EH's O(1) *amortized* / O(log N) worst
//! case), so this implementation records cascade statistics.

use std::collections::VecDeque;
use waves_core::error::WaveError;
use waves_core::estimate::{Estimate, SpaceReport};
use waves_core::space::{delta_coded_bits, elias_gamma_bits};
use waves_core::traits::BitSynopsis;
use waves_core::window::MAX_WINDOW;

/// Exponential histogram for counting 1's in a sliding window of up to
/// `N` bits with relative error `eps`.
#[derive(Debug, Clone)]
pub struct EhCount {
    max_window: u64,
    eps: f64,
    /// Bucket-count parameter `m = ceil(1/(2 eps))`.
    m: usize,
    pos: u64,
    /// Per-size-class deques of bucket timestamps (position of each
    /// bucket's most recent 1), oldest at the front. `classes[j]` holds
    /// buckets of size `2^j`.
    classes: Vec<VecDeque<u64>>,
    /// Sum of all bucket sizes.
    total: u64,
    /// Cascade statistics: classes touched by merges on the last 1-bit,
    /// the maximum over the stream, and total merges.
    last_cascade: u32,
    max_cascade: u32,
    merges: u64,
}

/// Builder for [`EhCount`] — mirrors `DetWave::builder()` so switching
/// between the wave and the EH baseline is a one-word change.
///
/// Defaults: `max_window = 1024`, `eps = 0.1`; validation happens in
/// [`EhCountBuilder::build`].
#[derive(Debug, Clone)]
pub struct EhCountBuilder {
    max_window: u64,
    eps: f64,
}

impl EhCountBuilder {
    /// Maximum queryable window `N` (default 1024).
    pub fn max_window(mut self, n: u64) -> Self {
        self.max_window = n;
        self
    }

    /// Relative error bound, `0 < eps < 1` (default 0.1).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Validate the configuration and build the histogram.
    pub fn build(self) -> Result<EhCount, WaveError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(WaveError::InvalidEpsilon(self.eps));
        }
        let m = (1.0 / (2.0 * self.eps)).ceil() as usize;
        EhCount::with_m(self.max_window, m, self.eps)
    }
}

impl EhCount {
    /// Start building: `EhCount::builder().max_window(n).eps(e).build()`.
    pub fn builder() -> EhCountBuilder {
        EhCountBuilder {
            max_window: 1024,
            eps: 0.1,
        }
    }

    /// Build an EH with error bound `eps` for windows up to `max_window`
    /// (thin shim over [`EhCount::builder`]).
    pub fn new(max_window: u64, eps: f64) -> Result<Self, WaveError> {
        Self::builder().max_window(max_window).eps(eps).build()
    }

    /// Build from the integer bucket-count parameter `m` directly — the
    /// only error-bound quantity the algorithm consults and the one the
    /// codec carries. `eps -> m` is not injective in floating point
    /// (`ceil(1 / (2 * (1 / (2 * 49))))` is 50), so the decoder must not
    /// go back through `eps`.
    fn with_m(max_window: u64, m: usize, eps: f64) -> Result<Self, WaveError> {
        if max_window == 0 || max_window > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window));
        }
        Ok(EhCount {
            max_window,
            eps,
            m,
            pos: 0,
            classes: Vec::new(),
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

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Number of buckets currently held.
    pub fn buckets(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Number of size classes with merges on the most recent 1-bit.
    pub fn last_cascade(&self) -> u32 {
        self.last_cascade
    }

    /// Longest merge cascade observed so far.
    pub fn max_cascade(&self) -> u32 {
        self.max_cascade
    }

    /// Total merges performed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Process the next stream bit: O(1) amortized, O(log(eps N)) worst
    /// case due to cascading merges.
    pub fn push_bit(&mut self, b: bool) {
        self.pos += 1;
        self.expire();
        if !b {
            self.last_cascade = 0;
            return;
        }
        self.insert_one();
    }

    /// Insert a 1-bit at the current position (`pos` already advanced
    /// and expiry already run) and cascade merges.
    fn insert_one(&mut self) {
        // New singleton bucket.
        if self.classes.is_empty() {
            self.classes.push(VecDeque::new());
        }
        self.classes[0].push_back(self.pos);
        self.total += 1;
        // Cascade merges upward.
        let mut cascade = 0u32;
        let mut j = 0usize;
        loop {
            if self.classes[j].len() <= self.m + 1 {
                break;
            }
            // Merge the two oldest buckets of size 2^j: the merged bucket
            // keeps the newer timestamp.
            let _older = self.classes[j].pop_front().expect("len > m+1 >= 1");
            let newer = self.classes[j].pop_front().expect("len >= 2");
            if self.classes.len() == j + 1 {
                self.classes.push(VecDeque::new());
            }
            self.classes[j + 1].push_back(newer);
            // A push_back would break front-is-oldest ordering only if a
            // newer bucket already sat in class j+1 — impossible: class
            // j+1 buckets are strictly older than all class-j buckets.
            debug_assert!(is_front_oldest(&self.classes[j + 1]));
            self.merges += 1;
            cascade += 1;
            j += 1;
        }
        self.last_cascade = cascade;
        self.max_cascade = self.max_cascade.max(cascade);
    }

    /// Ingest a packed batch, oldest first (the word-level counterpart
    /// of [`EhCount::push_bit`]). Zero runs — merged across whole words
    /// by `trailing_zeros` scanning — advance `pos` in one addition;
    /// expiry runs once per 1-bit (immediately before its insertion, so
    /// an expired bucket can never participate in a cascade merge) and
    /// once at the end of the batch. Expiry only pops the globally
    /// oldest bucket while it is out of window, a monotone operation,
    /// so deferring it across a zero run is state-identical to per-bit
    /// pushes.
    pub fn push_words(&mut self, bits: waves_core::bits::BitsRef<'_>) {
        use waves_core::bits::Run;
        bits.scan_runs(|run| match run {
            Run::Zeros(n) => {
                self.pos += n;
                self.last_cascade = 0;
            }
            Run::One => {
                self.pos += 1;
                self.expire();
                self.insert_one();
            }
        });
        self.expire();
    }

    /// [`EhCount::push_bit`] with instrumentation reported into `rec`:
    /// counts pushes, cascade episodes, and total merged bucket pairs,
    /// and feeds each 1-bit's cascade length into the `eh_cascade_len`
    /// histogram — the worst-case-latency distribution the wave's O(1)
    /// bound eliminates.
    pub fn push_bit_recorded<R: waves_obs::Recorder + ?Sized>(&mut self, b: bool, rec: &R) {
        use waves_obs::{HistId, MetricId};
        let merges_before = self.merges;
        self.push_bit(b);
        rec.incr(MetricId::EhPushes, 1);
        if b {
            let cascade = self.last_cascade as u64;
            rec.observe(HistId::EhCascadeLen, cascade);
            if cascade > 0 {
                rec.incr(MetricId::EhCascades, 1);
                rec.incr(MetricId::EhBucketsMerged, self.merges - merges_before);
            }
        }
    }

    fn expire(&mut self) {
        // The globally oldest bucket is at the front of the highest
        // nonempty class (sizes are nondecreasing with age).
        while let Some(j) = self.highest_nonempty() {
            let &ts = self.classes[j].front().expect("nonempty");
            if ts + self.max_window <= self.pos {
                self.classes[j].pop_front();
                self.total -= 1u64 << j;
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

    /// Estimate the number of 1's among the last `n <= N` bits: total
    /// size of buckets with timestamp in the window, minus half the
    /// oldest such bucket (which may straddle the window boundary).
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
            for &ts in q {
                if ts >= s {
                    total_in += size;
                    match oldest {
                        Some((ots, _)) if ots <= ts => {}
                        _ => oldest = Some((ts, size)),
                    }
                }
            }
        }
        let Some((_, oldest_size)) = oldest else {
            return Ok(Estimate::exact(0));
        };
        if n >= self.pos || oldest_size == 1 {
            // Either the window covers the whole stream (buckets are
            // complete) or the straddling bucket is a singleton whose
            // timestamp is in the window: exact.
            return Ok(Estimate::exact(total_in));
        }
        // The straddling bucket contributes between 1 and its size;
        // returning the midpoint caps the absolute error at
        // (size - 1)/2, which the m = ceil(1/(2 eps)) invariant turns
        // into a relative error below eps.
        Ok(Estimate::midpoint(total_in - oldest_size + 1, total_in))
    }

    /// Serialize into a compact bit encoding, mirroring the wave
    /// codecs: gamma-coded parameters (`m` stands in for `eps` — it is
    /// the only error-bound quantity the algorithm consults), then per
    /// size class the bucket count and delta-coded timestamps. Cascade
    /// telemetry (`last_cascade` and friends) is *not* state and is not
    /// encoded. Reconstruct with [`EhCount::decode`].
    pub fn encode(&self) -> Vec<u8> {
        use waves_core::codec::{write_deltas, BitWriter};
        let mut w = BitWriter::new();
        w.write_gamma(self.max_window);
        w.write_gamma(self.m as u64);
        w.write_gamma0(self.pos);
        w.write_gamma0(self.classes.len() as u64);
        for q in &self.classes {
            w.write_gamma0(q.len() as u64);
            let ts: Vec<u64> = q.iter().copied().collect();
            write_deltas(&mut w, &ts);
        }
        w.finish()
    }

    /// Reconstruct a histogram from [`EhCount::encode`] output. The
    /// reconstruction answers queries identically to the original and
    /// re-encodes to the same bytes; cascade telemetry restarts at 0.
    /// Corrupt input yields `Err`, never a panic or an inconsistent
    /// structure.
    pub fn decode(bytes: &[u8]) -> Result<Self, waves_core::codec::CodecError> {
        use waves_core::codec::{read_deltas, BitReader, CodecError};
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let m = r.read_gamma()?;
        if m > 1 << 32 {
            return Err(CodecError::Corrupt("bad m"));
        }
        let mut eh = EhCount::with_m(max_window, m as usize, 1.0 / (2.0 * m as f64))?;
        eh.pos = r.read_gamma0()?;
        if eh.pos > 1 << 62 {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        let num_classes = r.read_gamma0()? as usize;
        if num_classes > 64 {
            return Err(CodecError::Corrupt("too many classes"));
        }
        // Buckets age with class index: everything in class j + 1 is
        // strictly older than everything in class j.
        let mut newest_allowed = eh.pos;
        for j in 0..num_classes {
            let len = r.read_gamma0()? as usize;
            if len > eh.m + 1 {
                return Err(CodecError::Corrupt("class overfull"));
            }
            let ts = read_deltas(&mut r, len)?;
            let mut prev = 0u64;
            for &t in &ts {
                if t == 0 || t > eh.pos || t <= prev {
                    return Err(CodecError::Corrupt("timestamps not increasing"));
                }
                if t + max_window <= eh.pos {
                    return Err(CodecError::Corrupt("bucket already expired"));
                }
                prev = t;
            }
            if let (Some(&newest), true) = (ts.last(), j > 0) {
                if newest >= newest_allowed {
                    return Err(CodecError::Corrupt("classes out of age order"));
                }
            }
            if let Some(&oldest) = ts.first() {
                newest_allowed = oldest;
            }
            let size = 1u64
                .checked_shl(j as u32)
                .ok_or(CodecError::Corrupt("class overflow"))?;
            eh.total = (len as u64)
                .checked_mul(size)
                .and_then(|add| eh.total.checked_add(add))
                .ok_or(CodecError::Corrupt("total overflow"))?;
            eh.classes.push(ts.into_iter().collect());
        }
        // Every counted 1 sits at its own position.
        if eh.total > eh.pos {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        Ok(eh)
    }

    /// Space accounting under the same conventions as the waves.
    pub fn space_report(&self) -> SpaceReport {
        let entries = self.buckets();
        let resident_bytes = std::mem::size_of::<Self>()
            + self
                .classes
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>();
        let mut all_ts: Vec<u64> = self
            .classes
            .iter()
            .flat_map(|q| q.iter().copied())
            .collect();
        all_ts.sort_unstable();
        let counter_bits = 64 - (2 * self.max_window - 1).leading_zeros() as u64;
        let synopsis_bits = 2 * counter_bits
            + delta_coded_bits(all_ts)
            + entries as u64 * elias_gamma_bits(self.classes.len() as u64 + 1);
        SpaceReport {
            resident_bytes,
            synopsis_bits,
            entries,
        }
    }
}

fn is_front_oldest(q: &VecDeque<u64>) -> bool {
    q.iter().zip(q.iter().skip(1)).all(|(a, b)| a <= b)
}

impl waves_core::traits::Synopsis for EhCount {
    fn name(&self) -> &'static str {
        "eh"
    }
    fn max_window(&self) -> u64 {
        self.max_window
    }
    fn space_report(&self) -> SpaceReport {
        EhCount::space_report(self)
    }
}

impl BitSynopsis for EhCount {
    fn push_bit(&mut self, b: bool) {
        EhCount::push_bit(self, b)
    }
    fn push_words(&mut self, bits: waves_core::bits::BitsRef<'_>) {
        EhCount::push_words(self, bits)
    }
    fn query_window(&self, n: u64) -> Result<Estimate, WaveError> {
        self.query(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_core::exact::ExactCount;

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
