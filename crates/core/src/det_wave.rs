//! The optimal deterministic wave of Section 3.2 (Figure 4, Theorem 1).
//!
//! Differences from the basic wave:
//!
//! * each 1-bit is stored **only at its maximum level** `tz(rank)`
//!   (capped at the top level), so processing a bit touches exactly one
//!   level queue — O(1) *worst case* per item, the paper's headline
//!   improvement over the exponential histogram's cascading merges;
//! * levels `0..l-2` store `ceil((1/eps + 1)/2)` positions and the top
//!   level stores `1/eps + 1`;
//! * positions older than the maximum window `N` are expired as the
//!   stream advances, and the largest expired 1-rank `r1` is retained so
//!   a window-`N` query is answered in O(1);
//! * all entries are threaded on a doubly linked list `L` in position
//!   order (oldest at the head), so any window `n <= N` can be answered
//!   in `O((1/eps) log(eps N))` by walking `L`.
//!
//! The queues, the list, expiry and the codec body are the shared
//! skeleton in `ladder.rs`; this file is Figure 4's parameters.

use crate::basic_wave::wave_estimate;
use crate::codec::{BitReader, CodecError};
use crate::error::WaveError;
use crate::estimate::{Estimate, SpaceReport};
use crate::ladder::{k_for_eps, read_k, refused_k, Ladder, Positions};
use crate::level::rank_level;
use crate::window::MAX_WINDOW;

/// Deterministic wave for Basic Counting (Theorem 1): relative error at
/// most `eps` for any window `n <= N`, `O((1/eps) log^2(eps N))` bits,
/// O(1) worst-case per-item time, O(1) query time for the max window.
#[derive(Debug)]
pub struct DetWave {
    eps: f64,
    /// Entries are `(position, 1-rank)`; the clock is the stream length.
    ladder: Ladder<()>,
}

impl Clone for DetWave {
    fn clone(&self) -> Self {
        DetWave {
            eps: self.eps,
            ladder: self.ladder.clone(),
        }
    }

    /// Into the storage already here, allocating nothing, when `source`
    /// has this wave's `N` and `k` — a push-mode party's shadow of its
    /// live wave, refreshed on every ship.
    fn clone_from(&mut self, source: &Self) {
        self.eps = source.eps;
        self.ladder.clone_from(&source.ladder);
    }
}

impl DetWave {
    /// Build a wave with error bound `0 < eps < 1` for windows up to
    /// `max_window`.
    pub fn new(max_window: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_k(max_window, k_for_eps(eps)?, eps)
    }

    /// Build from the integer parameter `k = ceil(1/eps)` directly —
    /// the structural parameter everything derives from, already
    /// validated by [`k_for_eps`] or [`read_k`]. The window `N` drives
    /// the level count.
    fn with_k(max_window: u64, k: u64, eps: f64) -> Result<Self, WaveError> {
        if max_window == 0 || max_window > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window));
        }
        let lower_cap = (k + 1).div_ceil(2);
        let ladder = Ladder::new(max_window, k, max_window, lower_cap, Positions::Sequence)
            .ok_or(WaveError::InvalidEpsilon(eps))?;
        Ok(DetWave { eps, ladder })
    }

    /// Maximum window size `N`.
    pub fn max_window(&self) -> u64 {
        self.ladder.max_window()
    }

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The paper's `1/eps` parameter `k` (queue sizes derive from it:
    /// `ceil((k+1)/2)` per level, `k+1` at the top level).
    pub fn k(&self) -> u64 {
        self.ladder.k()
    }

    /// Number of levels `ceil(log2(2 eps N))`.
    pub fn num_levels(&self) -> u32 {
        self.ladder.num_levels()
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.ladder.pos()
    }

    /// Number of 1's seen so far.
    pub fn rank(&self) -> u64 {
        self.ladder.total()
    }

    /// Number of entries currently stored.
    pub fn entries(&self) -> usize {
        self.ladder.len()
    }

    /// Contents of each level queue as `(position, rank)`, oldest first
    /// (for printing Figure 3).
    pub fn level_contents(&self) -> Vec<Vec<(u64, u64)>> {
        let mut out = vec![Vec::new(); self.num_levels() as usize];
        for (level, e) in self.ladder.leveled() {
            out[level as usize].push((e.pos, e.cum));
        }
        out
    }

    /// Process the next stream bit — O(1) worst case (Figure 4).
    #[inline]
    pub fn push_bit(&mut self, b: bool) {
        self.push_bit_recorded(b, &waves_obs::NoopRecorder);
    }

    /// [`DetWave::push_bit`] with its counters reported
    /// into `rec` — the one push body. Monomorphized over the recorder:
    /// with [`waves_obs::NoopRecorder`] every recorder call is an empty
    /// inline body, which is how [`DetWave::push_bit`] is defined.
    #[inline]
    pub fn push_bit_recorded<R: waves_obs::Recorder + ?Sized>(&mut self, b: bool, rec: &R) {
        use waves_obs::MetricId;
        let live_before = self.ladder.len();
        self.ladder.advance(self.ladder.pos() + 1);
        rec.incr(MetricId::WavePushesTotal, 1);
        let expired = (live_before - self.ladder.len()) as u64;
        if expired > 0 {
            rec.incr(MetricId::WaveEntriesExpired, expired);
        }
        if b {
            rec.incr(MetricId::WaveOnesTotal, 1);
            rec.incr(MetricId::WaveLevelOracleCalls, 1);
            let level = rank_level(self.ladder.total() + 1);
            if self.ladder.insert(level, 1).is_some() {
                rec.incr(MetricId::WaveEntriesEvicted, 1);
            }
            rec.incr(MetricId::WaveEntriesStored, 1);
        }
    }

    /// Ingest a packed batch of stream bits, oldest first, 64 bits per
    /// word — the path the engine's shard workers, WAL replay and the
    /// push-mode parties apply. The 0s before each stored 1 — including
    /// whole zero words — are one addition to the clock. Only the 1s the
    /// wave could still hold when the call returns go through Figure 4's
    /// step 3: at a level whose stored entries the call evicts whole,
    /// which are removed up front, the last queue's worth of its
    /// arrivals; at the others, a queue's worth at each end.
    /// `O(min(ones, (1/eps) log(eps ones)))` of them per window of the
    /// call: a call longer than the window goes in a window's whole
    /// words at a time, each piece under the same rule. The 1s
    /// between are never visited: a call of more than four queues of 1s
    /// finds each 1 it stores by rank, a word cursor counting the 1s it
    /// passes and a select in the word (a few cleared 1s, when the last
    /// one found is that close); a shorter call scans its 1s with
    /// `trailing_zeros`. The body is built twice: portable, with a
    /// broadword select, and on x86-64 for popcnt + BMI1 + BMI2, where
    /// each count is one `popcnt` and the select `tzcnt(pdep(..))`. The
    /// build is picked on the process's first push: BMI2 where the host
    /// has it and is not an AMD core before Zen 3 (Zen 1/2 microcode
    /// `pdep`), portable on every other host and target; both store the
    /// same entries. State-identical to pushing every bit
    /// through [`DetWave::push_bit`]: `push_words_matches_single_pushes`,
    /// `tests/batch_equivalence.rs` and the walk of every short string in
    /// `ladder/exhaustive.rs` pin the encoding byte-for-byte.
    pub fn push_words(&mut self, bits: crate::bits::BitsRef<'_>) {
        self.ladder.push_ones(bits);
    }

    /// Advance the stream by `count` 0-bits at once (used when a party
    /// observes a gap in a shared position space — Scenario 2). Amortized
    /// O(1) per expired entry.
    pub fn skip_zeros(&mut self, count: u64) {
        self.ladder.advance(self.ladder.pos() + count);
    }

    /// Estimate the count over the maximum window `N` in O(1) (Figure 4's
    /// query procedure): the walk of [`DetWave::query`] stops at the list
    /// head, since nothing older than the window is kept.
    pub fn query_max(&self) -> Estimate {
        self.window(self.max_window())
    }

    /// Estimate the count over any window `n <= N`, by walking the
    /// position-ordered list — `O((1/eps) log(eps N))` worst case.
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
        let (pos, rank) = (self.pos(), self.rank());
        if n >= pos {
            return Estimate::exact(rank);
        }
        let s = pos - n + 1;
        match self.ladder.straddle(s) {
            // The newest 1 (always stored) is before s: none in window.
            (_, None) => Estimate::exact(0),
            // Positions never repeat: a stored 1 at s is the window's first.
            (_, Some(e)) if e.pos == s => Estimate::exact(rank + 1 - e.cum),
            (r1, Some(e)) => wave_estimate(rank, r1, e.cum),
        }
    }

    /// The full estimate profile: for every window size `n in 1..=N`,
    /// the estimate is a step function of `n` whose value can only
    /// change where a stored entry enters the window or becomes the
    /// boundary — at most two breakpoints per stored entry, plus the
    /// whole-stream boundary. This returns the compressed step function
    /// instead of `N` separate queries.
    ///
    /// Returns `(n_start, estimate)` pairs, each meaning "for windows of
    /// size `n_start` up to the next pair's `n_start` (exclusive), the
    /// estimate is `estimate`"; the first pair has `n_start = 1` and the
    /// profile covers `1..=max_window`.
    pub fn profile(&self) -> Vec<(u64, Estimate)> {
        // Candidate breakpoints: n = 1, and for each stored entry at
        // position p both n = pos - p + 1 (entry becomes the window
        // start) and n = pos - p + 2 (entry strictly inside), plus the
        // whole-stream boundary n = pos.
        let mut candidates: Vec<u64> = vec![1];
        for e in self.ladder.entries() {
            let n1 = self.pos() - e.pos + 1;
            candidates.push(n1.min(self.max_window()));
            candidates.push((n1 + 1).min(self.max_window()));
        }
        if self.pos() >= 1 {
            candidates.push(self.pos().min(self.max_window()));
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut out: Vec<(u64, Estimate)> = Vec::with_capacity(candidates.len());
        for n in candidates {
            let est = self.query(n).expect("n <= max_window by construction");
            if out.last().map(|&(_, e)| e) != Some(est) {
                out.push((n, est));
            }
        }
        out
    }

    /// Serialize the synopsis into the paper's compact bit encoding:
    /// gamma-coded parameters and counters, delta-coded positions and
    /// ranks, per-entry levels. The result can be shipped to a Referee
    /// and reconstructed with [`DetWave::decode`].
    pub fn encode(&self) -> Vec<u8> {
        self.ladder.encode(&[self.max_window(), self.k()])
    }

    /// Reconstruct a synopsis from [`DetWave::encode`] output. The
    /// reconstruction answers queries identically to the original.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let k = read_k(&mut r)?;
        let mut wave = DetWave::with_k(max_window, k, 1.0 / k as f64).map_err(refused_k)?;
        wave.ladder.decode_body(&mut r, 1)?;
        Ok(wave)
    }

    /// Space accounting (see [`SpaceReport`]): two mod-N' counters and
    /// `r1`, delta-coded positions and ranks, a level per entry.
    pub fn space_report(&self) -> SpaceReport {
        self.ladder.space_report(std::mem::size_of::<Self>(), 3)
    }

    #[cfg(test)]
    pub(crate) fn ladder(&self) -> &Ladder<()> {
        &self.ladder
    }

    /// [`DetWave::push_words`] on one build of the batch kernel.
    #[cfg(test)]
    pub(crate) fn push_words_with(
        &mut self,
        kernel: crate::ladder::Kernel,
        bits: crate::bits::BitsRef<'_>,
    ) {
        self.ladder.push_ones_with(kernel, bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic_wave::{wave_levels, BasicWave};
    use crate::exact::ExactCount;

    fn lcg_bits(seed: u64, len: usize, density_mod: u64, density_lt: u64) -> Vec<bool> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % density_mod < density_lt
            })
            .collect()
    }

    #[test]
    fn empty_wave_queries() {
        let w = DetWave::new(16, 0.5).unwrap();
        assert_eq!(w.query_max(), Estimate::exact(0));
        assert_eq!(w.query(4).unwrap(), Estimate::exact(0));
    }

    #[test]
    fn whole_stream_exact() {
        let mut w = DetWave::new(100, 0.25).unwrap();
        for b in [true, true, false, true] {
            w.push_bit(b);
        }
        assert_eq!(w.query_max(), Estimate::exact(3));
    }

    #[test]
    fn all_zeros_after_ones() {
        let mut w = DetWave::new(8, 0.5).unwrap();
        for _ in 0..10 {
            w.push_bit(true);
        }
        for _ in 0..20 {
            w.push_bit(false);
        }
        assert_eq!(w.query_max(), Estimate::exact(0));
    }

    #[test]
    fn error_bound_holds_max_window() {
        for &(eps, n_max) in &[(0.5, 64u64), (0.25, 128), (0.1, 256), (1.0 / 3.0, 48)] {
            let mut w = DetWave::new(n_max, eps).unwrap();
            let mut oracle = ExactCount::new(n_max);
            for b in lcg_bits(42, 6000, 10, 4) {
                w.push_bit(b);
                oracle.push_bit(b);
                let actual = oracle.query(n_max);
                let est = w.query_max();
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
    fn error_bound_holds_all_window_sizes() {
        let eps = 0.25;
        let n_max = 128u64;
        let mut w = DetWave::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for (step, b) in lcg_bits(7, 5000, 3, 1).into_iter().enumerate() {
            w.push_bit(b);
            oracle.push_bit(b);
            if step % 23 == 0 {
                for n in 1..=n_max {
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
    fn bursty_stream_error_bound() {
        let eps = 0.2;
        let n_max = 200u64;
        let mut w = DetWave::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        // Alternating bursts of 1s and 0s of varying lengths.
        let mut bit = true;
        for burst in 1..200u64 {
            for _ in 0..(burst % 17) + 1 {
                w.push_bit(bit);
                oracle.push_bit(bit);
            }
            bit = !bit;
            let actual = oracle.query(n_max);
            assert!(w.query_max().relative_error(actual) <= eps + 1e-9);
        }
    }

    #[test]
    fn entries_bounded_by_capacity() {
        let eps = 0.1;
        let n_max = 1u64 << 14;
        let k = 10u64;
        let l = wave_levels(n_max, k) as u64;
        let cap = (l - 1) * (k + 1).div_ceil(2) + (k + 1);
        let mut w = DetWave::new(n_max, eps).unwrap();
        for _ in 0..100_000 {
            w.push_bit(true);
        }
        assert!(w.entries() as u64 <= cap, "{} > {cap}", w.entries());
    }

    #[test]
    fn matches_basic_wave_estimates_are_both_valid() {
        // Both variants must bracket the truth; they may differ in value.
        let eps = 1.0 / 3.0;
        let n_max = 48u64;
        let mut opt = DetWave::new(n_max, eps).unwrap();
        let mut basic = BasicWave::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for b in lcg_bits(99, 2000, 5, 2) {
            opt.push_bit(b);
            basic.push_bit(b);
            oracle.push_bit(b);
            for n in [12u64, 30, 48] {
                let actual = oracle.query(n);
                assert!(opt.query(n).unwrap().relative_error(actual) <= eps + 1e-9);
                assert!(basic.query(n).unwrap().relative_error(actual) <= eps + 1e-9);
            }
        }
    }

    #[test]
    fn new_validates_its_parameters() {
        let a = DetWave::new(500, 0.2).unwrap();
        assert_eq!(a.k(), k_for_eps(0.2).unwrap());
        assert_eq!(a.max_window(), 500);
        assert_eq!(a.eps(), 0.2);
        assert_eq!(
            DetWave::new(500, 2.0).unwrap_err(),
            WaveError::InvalidEpsilon(2.0)
        );
        assert_eq!(
            DetWave::new(0, 0.2).unwrap_err(),
            WaveError::InvalidWindow(0)
        );
    }

    #[test]
    fn skip_zeros_equivalent_to_pushing_zeros() {
        let mut a = DetWave::new(32, 0.25).unwrap();
        let mut b = DetWave::new(32, 0.25).unwrap();
        for i in 0..200u64 {
            let bit = i % 7 == 0;
            a.push_bit(bit);
            b.push_bit(bit);
            if i % 13 == 0 {
                for _ in 0..5 {
                    a.push_bit(false);
                }
                b.skip_zeros(5);
            }
            assert_eq!(a.query_max(), b.query_max(), "i={i}");
            assert_eq!(a.pos(), b.pos());
        }
    }

    /// A jump of a window or more expires everything, however its
    /// length reads mod 2^32; one just short of a window keeps exactly
    /// what is left. Then three 1s, each checked at every window size
    /// and through the codec.
    #[test]
    fn jumps_cannot_alias_dead_entries_back_to_life() {
        let (n, eps) = (100u64, 0.25);
        let gaps = [
            n - 1,
            n,
            n + 1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 5,
            (1 << 33) + n - 6,
            1 << 40,
        ];
        for gap in gaps {
            let mut w = DetWave::new(n, eps).unwrap();
            let mut oracle = ExactCount::new(n);
            for b in lcg_bits(gap, 700, 2, 1) {
                w.push_bit(b);
                oracle.push_bit(b);
            }
            w.skip_zeros(gap);
            // The last N bits are what the oracle answers from: N zeros
            // and 2^40 zeros leave it the same window.
            for _ in 0..gap.min(2 * n) {
                oracle.push_bit(false);
            }
            for ones in 0..=3 {
                if ones > 0 {
                    w.push_bit(true);
                    oracle.push_bit(true);
                }
                let decoded = DetWave::decode(&w.encode()).expect("own encoding");
                assert_eq!(decoded.encode(), w.encode(), "gap={gap} ones={ones}");
                for m in 1..=n {
                    let (actual, est) = (oracle.query(m), w.query(m).unwrap());
                    assert!(
                        est.brackets(actual) && est.relative_error(actual) <= eps + 1e-9,
                        "gap={gap} ones={ones} window={m}: {est:?} vs {actual}"
                    );
                    assert_eq!(decoded.query(m).unwrap(), est);
                }
            }
            assert_eq!(w.pos(), 700 + gap + 3);
        }
    }

    #[test]
    fn space_report_sane() {
        let mut w = DetWave::new(1 << 12, 0.1).unwrap();
        for b in lcg_bits(5, 20_000, 2, 1) {
            w.push_bit(b);
        }
        let r = w.space_report();
        assert!(r.entries > 0);
        assert!(r.synopsis_bits > 0);
        assert!(r.resident_bytes > r.entries); // bytes >> entries
                                               // Theoretical bits should be far less than exact storage (N bits).
        assert!(r.synopsis_bits < 1 << 12);
    }

    #[test]
    fn profile_matches_per_n_queries() {
        for &(seed, density_mod, lt) in &[(1u64, 2u64, 1u64), (2, 10, 1), (3, 3, 2)] {
            let n_max = 200u64;
            let mut w = DetWave::new(n_max, 0.25).unwrap();
            for b in lcg_bits(seed, 700, density_mod, lt) {
                w.push_bit(b);
            }
            let profile = w.profile();
            assert!(!profile.is_empty());
            assert_eq!(profile[0].0, 1, "profile starts at n = 1");
            assert!(profile.windows(2).all(|p| p[0].0 < p[1].0));
            // The step function must equal query(n) for every n.
            let mut idx = 0;
            for n in 1..=n_max {
                while idx + 1 < profile.len() && profile[idx + 1].0 <= n {
                    idx += 1;
                }
                assert_eq!(profile[idx].1, w.query(n).unwrap(), "seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn profile_of_empty_wave() {
        let w = DetWave::new(16, 0.5).unwrap();
        let p = w.profile();
        assert_eq!(p, vec![(1, Estimate::exact(0))]);
    }

    #[test]
    fn encode_decode_roundtrip_preserves_queries() {
        let eps = 0.1;
        let n_max = 1u64 << 10;
        let mut w = DetWave::new(n_max, eps).unwrap();
        for b in lcg_bits(77, 12_000, 7, 3) {
            w.push_bit(b);
        }
        let bytes = w.encode();
        let w2 = DetWave::decode(&bytes).unwrap();
        assert_eq!(w.pos(), w2.pos());
        assert_eq!(w.rank(), w2.rank());
        for n in 1..=n_max {
            assert_eq!(w.query(n).unwrap(), w2.query(n).unwrap(), "n={n}");
        }
        // Both continue identically after more stream.
        let (mut a, mut b2) = (w, w2);
        for b in lcg_bits(78, 3_000, 2, 1) {
            a.push_bit(b);
            b2.push_bit(b);
            assert_eq!(a.query_max(), b2.query_max());
        }
    }

    #[test]
    fn encoded_size_matches_space_report() {
        let mut w = DetWave::new(1 << 12, 0.05).unwrap();
        for b in lcg_bits(3, 30_000, 2, 1) {
            w.push_bit(b);
        }
        let bytes = w.encode();
        let report = w.space_report();
        // Encoded length tracks the analytic bit count (same codes plus a
        // small parameter header), well under 2x.
        let encoded_bits = bytes.len() as u64 * 8;
        assert!(encoded_bits < 2 * report.synopsis_bits + 128);
        // And the synopsis is tiny compared to the window.
        assert!(encoded_bits < (1 << 12));
    }

    #[test]
    fn roundtrip_survives_non_injective_eps_to_k() {
        // Regression: ceil(1.0/(1.0/k)) != k for k in {49, 98, 103, ...}
        // under f64 rounding; decode must reconstruct from the integer k
        // rather than round-tripping through eps — on every hop. The
        // window sits on a level boundary (2N = (k+1) * 2^5), so a k
        // that drifted to k + 1 would lose the top level.
        for &k_target in &[49u64, 98, 103, 107, 196] {
            let eps = 1.0 / (k_target as f64 - 0.5);
            let mut w = DetWave::new((k_target + 1) * 16, eps).unwrap();
            assert_eq!(w.k(), k_target);
            for i in 0..5000u64 {
                w.push_bit(i % 3 == 0);
            }
            let w1 = DetWave::decode(&w.encode()).unwrap_or_else(|e| panic!("k={k_target}: {e}"));
            assert_eq!(w1.encode(), w.encode(), "k={k_target}: second hop");
            let w2 = DetWave::decode(&w1.encode()).unwrap_or_else(|e| panic!("k={k_target}: {e}"));
            assert_eq!(w.query_max(), w2.query_max());
            assert_eq!(w.num_levels(), w2.num_levels());
        }
    }

    #[test]
    fn decode_rejects_adversarial_delta_overflow() {
        // Regression: huge gamma deltas must yield Corrupt, not an
        // arithmetic overflow panic.
        use crate::codec::BitWriter;
        let mut w = BitWriter::new();
        w.write_gamma(1 << 20); // max_window
        w.write_gamma(4); // k
        w.write_gamma0(100); // pos
        w.write_gamma0(50); // rank
        w.write_gamma0(0); // r1
        w.write_gamma0(3); // count
        for _ in 0..3 {
            w.write_gamma(1 << 63); // adversarial deltas
        }
        assert!(DetWave::decode(&w.finish()).is_err());
    }

    /// One item a position: an entry `d` positions old has at most `d`
    /// ones after it. Bytes that say otherwise are refused — on 32-bit
    /// slots a rank `2^40` behind the total would read back as another.
    #[test]
    fn decode_rejects_a_rank_too_far_behind_for_its_position() {
        use crate::codec::{write_deltas, BitWriter};
        let forged = |rank_of_entry: u64| {
            let mut w = BitWriter::new();
            w.write_gamma(1 << 20); // max_window
            w.write_gamma(4); // k
            w.write_gamma0(1 << 40); // pos
            w.write_gamma0(1 << 40); // rank
            w.write_gamma0(0); // r1
            w.write_gamma0(1); // count
            write_deltas(&mut w, &[(1 << 40) - 9]); // 9 positions old
            write_deltas(&mut w, &[rank_of_entry]);
            w.write_gamma0(0); // level
            DetWave::decode(&w.finish())
        };
        assert!(forged((1 << 40) - 9).is_ok());
        assert!(forged((1 << 40) - 10).is_err());
        assert!(forged(1).is_err());
    }

    /// The other side of one item a position: no more 1s through an
    /// entry than positions, and no more expired than arrived a window
    /// ago. The mutated-valid fuzz found both accepted, in states
    /// `check_invariants` refuses and the batch kernels would run on.
    #[test]
    fn decode_rejects_ranks_ahead_of_their_positions() {
        use crate::codec::{write_deltas, BitWriter};
        let forged = |expired: u64, entry: Option<(u64, u64)>| {
            let mut w = BitWriter::new();
            w.write_gamma(16); // max_window
            w.write_gamma(4); // k
            w.write_gamma0(20); // pos
            w.write_gamma0(10); // rank
            w.write_gamma0(expired); // r1
            w.write_gamma0(entry.is_some() as u64); // count
            if let Some((pos, rank)) = entry {
                write_deltas(&mut w, &[pos]);
                write_deltas(&mut w, &[rank]);
                w.write_gamma0(0); // level
            }
            DetWave::decode(&w.finish())
        };
        // Positions 1..=4 are a window old at 20.
        assert!(forged(4, None).is_ok());
        assert!(forged(5, None).is_err());
        assert!(forged(0, Some((5, 5))).is_ok());
        assert!(forged(0, Some((5, 6))).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut w = DetWave::new(256, 0.25).unwrap();
        for i in 0..1000u64 {
            w.push_bit(i % 2 == 0);
        }
        let bytes = w.encode();
        assert!(DetWave::decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(DetWave::decode(&[]).is_err());
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        // Either an error or, at worst, a *valid* different synopsis —
        // never a panic.
        let _ = DetWave::decode(&flipped);
    }

    #[test]
    fn recorded_counters_are_consistent() {
        let reg = waves_obs::MetricsRegistry::new();
        let mut w = DetWave::new(64, 0.25).unwrap();
        let bits = lcg_bits(5, 3000, 2, 1);
        let ones = bits.iter().filter(|&&b| b).count() as u64;
        for b in bits {
            w.push_bit_recorded(b, &reg);
        }
        use waves_obs::MetricId as M;
        assert_eq!(reg.counter(M::WavePushesTotal), 3000);
        assert_eq!(reg.counter(M::WaveOnesTotal), ones);
        assert_eq!(reg.counter(M::WaveLevelOracleCalls), ones);
        // Every 1 was stored; everything not live was expired or evicted.
        assert_eq!(reg.counter(M::WaveEntriesStored), ones);
        assert_eq!(
            reg.counter(M::WaveEntriesStored)
                - reg.counter(M::WaveEntriesExpired)
                - reg.counter(M::WaveEntriesEvicted),
            w.entries() as u64,
        );
        assert!(
            reg.counter(M::WaveEntriesEvicted) > 0,
            "dense stream evicts"
        );
    }

    #[test]
    fn sparse_ones_large_window() {
        let eps = 0.125;
        let n_max = 1u64 << 12;
        let mut w = DetWave::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for b in lcg_bits(13, 50_000, 100, 1) {
            w.push_bit(b);
            oracle.push_bit(b);
        }
        for n in [64u64, 1000, n_max] {
            let actual = oracle.query(n);
            let est = w.query(n).unwrap();
            assert!(
                est.relative_error(actual) <= eps + 1e-9,
                "n={n} actual={actual} est={:?}",
                est
            );
        }
    }
}
