//! The one exponential histogram (Datar et al. \[9\]), under Basic
//! Counting ([`crate::EhCount`]) and sums ([`crate::EhSum`]).
//!
//! Buckets of power-of-two sizes partition the recent units — the 1s of
//! a bit stream, or the units of integer items; for each size there are
//! `m` or `m + 1` buckets (`m = ceil(1/(2 eps))`), enforced by merging
//! the two oldest buckets of a size whenever a size accumulates `m + 2`
//! — which can cascade through all `O(log(eps N))` sizes on a single
//! arrival. That cascade is exactly the worst-case-latency gap the
//! deterministic wave closes (Theorem 1 vs. the EH's O(1) *amortized* /
//! O(log N) worst case), so the histogram records cascade statistics.
//!
//! An item of value `v` is `v` unit insertions applied at once (never
//! materialized one by one): class counts follow the same
//! redundant-binary-counter dynamics, and same-timestamp buckets are kept
//! as one run `(ts, multiplicity)`, so an item costs polylogarithmic
//! work. It can still end up spread across `O(log N + log R)` classes —
//! the structural reason the sum wave's store-once insertion (Theorem 3)
//! wins.
//!
//! Basic Counting is the `R = 1` case, with nothing left to store: every
//! 1 has its own position, so every run is one bucket, its multiplicity
//! is implicit, a class's count is its length, and no two runs share a
//! timestamp. The multiplicity parameter `M` says which case a histogram
//! is: `()` for counting (a run is 8 bytes) and `u64` for sums (16).
//! Everything else — the cascade, expiry, the estimator, the codec and
//! its validation, the space accounting — is written once here.

use std::collections::VecDeque;
use waves_core::codec::{read_deltas, write_deltas, BitReader, BitWriter, CodecError};
use waves_core::error::WaveError;
use waves_core::estimate::{Estimate, SpaceReport};
use waves_core::space::{delta_coded_bits, elias_gamma_bits};
use waves_core::window::MAX_WINDOW;
use waves_obs::{HistId, MetricId, Recorder};

/// A run of `mult` same-size buckets sharing one timestamp: the
/// position of the most recent unit they hold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<M> {
    pub(crate) ts: u64,
    pub(crate) mult: M,
}

/// What a run stores for its multiplicity: nothing (`()`) when every run
/// is one bucket, its count (`u64`) when runs may merge. Only the two
/// exist; the trait is not nameable outside this crate.
pub trait Multiplicity: Copy + std::fmt::Debug {
    /// Whether a run may hold several buckets, and so share its
    /// timestamp with another run. Only then are multiplicities and the
    /// value bound `R` stored and coded.
    const RUNS: bool;
    /// The [`waves_core::traits::Synopsis`] name.
    const NAME: &'static str;
    fn of(n: u64) -> Self;
    fn get(self) -> u64;
}

impl Multiplicity for () {
    const RUNS: bool = false;
    const NAME: &'static str = "eh";
    fn of(_: u64) {}
    fn get(self) -> u64 {
        1
    }
}

impl Multiplicity for u64 {
    const RUNS: bool = true;
    const NAME: &'static str = "eh-sum";
    fn of(n: u64) -> u64 {
        n
    }
    fn get(self) -> u64 {
        self
    }
}

/// Exponential histogram over the last `N` items of values in `[0..R]`,
/// relative error `eps`: [`crate::EhCount`] or [`crate::EhSum`].
#[derive(Debug, Clone)]
pub struct Histogram<M> {
    max_window: u64,
    /// The value bound `R`: 1 for counting, where it is not stored.
    pub(crate) max_value: M,
    eps: f64,
    /// Bucket-count parameter `m = ceil(1/(2 eps))`.
    pub(crate) m: u64,
    pos: u64,
    /// `classes[j]`: runs of buckets of size `2^j`, oldest at the front.
    pub(crate) classes: Vec<VecDeque<Run<M>>>,
    /// Buckets per class. Zero-sized for counting, where a class's count
    /// is its length.
    pub(crate) counts: Vec<M>,
    /// Sum of all bucket sizes (equals the sum of unexpired units).
    total: u64,
    /// Cascade statistics: classes touched by merges on the last item,
    /// the maximum over the stream, and total merges.
    last_cascade: u32,
    max_cascade: u32,
    merges: u64,
}

impl<M: Multiplicity> Histogram<M> {
    /// Validate the configuration and build the histogram. An `eps`
    /// whose `m` exceeds `2^32` is refused, as the decoder refuses it;
    /// a window sum `N * R` above `2^62` is refused as
    /// `InvalidWindow(N)`, as `SumWave` refuses it.
    pub(crate) fn with_eps(max_window: u64, max_value: M, eps: f64) -> Result<Self, WaveError> {
        Self::with_m(max_window, max_value, crate::quantize_eps(eps, 2.0)?, eps)
    }

    /// Build from the integer parameter `m` the codec carries — the only
    /// error-bound quantity the algorithm consults. `eps -> m` is not
    /// injective in floating point (`ceil(1 / (2 * (1 / (2 * 49))))` is
    /// 50), so the decoder must not go back through `eps`.
    fn with_m(max_window: u64, max_value: M, m: u64, eps: f64) -> Result<Self, WaveError> {
        if max_window == 0 || max_window > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window));
        }
        if max_value.get() == 0 {
            return Err(WaveError::ValueTooLarge { value: 0, max: 0 });
        }
        // The largest window sum `N * R`, held to `SumWave`'s bound so
        // the running total cannot leave a `u64`.
        if !matches!(max_window.checked_mul(max_value.get()), Some(nr) if nr <= 1 << 62) {
            return Err(WaveError::InvalidWindow(max_window));
        }
        Ok(Histogram {
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

    /// The configured error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Number of size classes with merges on the most recent item.
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

    fn count(&self, j: usize) -> u64 {
        if M::RUNS {
            self.counts[j].get()
        } else {
            self.classes[j].len() as u64
        }
    }

    fn push_class(&mut self) {
        self.classes.push(VecDeque::new());
        self.counts.push(M::of(0));
    }

    /// Process the next item, of `units` units, reporting into `rec` —
    /// the one push body. It counts pushes, cascade episodes and merged
    /// bucket pairs, and feeds each nonzero item's cascade length into
    /// the `eh_cascade_len` histogram: the worst-case-latency
    /// distribution the wave's O(1) bound eliminates. Monomorphized over
    /// the recorder: with [`waves_obs::NoopRecorder`] every call is an
    /// empty inline body.
    pub(crate) fn push_recorded<R: Recorder + ?Sized>(&mut self, units: u64, rec: &R) {
        self.pos += 1;
        self.expire();
        rec.incr(MetricId::EhPushes, 1);
        if units == 0 {
            self.last_cascade = 0;
            return;
        }
        let merges_before = self.merges;
        self.insert(units);
        let cascade = self.last_cascade as u64;
        rec.observe(HistId::EhCascadeLen, cascade);
        if cascade > 0 {
            rec.incr(MetricId::EhCascades, 1);
            rec.incr(MetricId::EhBucketsMerged, self.merges - merges_before);
        }
    }

    /// Advance the clock over `n` zero items without expiring: expiry
    /// only pops the globally oldest bucket while it is out of window, a
    /// monotone operation, so deferring it to the next push (or the
    /// caller's closing [`Histogram::expire`]) is state-identical to `n`
    /// pushes.
    pub(crate) fn skip_zeros(&mut self, n: u64) {
        self.pos += n;
        self.last_cascade = 0;
    }

    /// Insert `units` at the current position (the clock already
    /// advanced and expiry already run), then cascade merges upward.
    fn insert(&mut self, units: u64) {
        if self.classes.is_empty() {
            self.push_class();
        }
        let c = self.count(0);
        self.classes[0].push_back(Run {
            ts: self.pos,
            mult: M::of(units),
        });
        self.counts[0] = M::of(c + units);
        self.total += units;
        let mut cascade = 0u32;
        let mut j = 0usize;
        while self.count(j) >= self.m + 2 {
            let c = self.count(j);
            // The class keeps `m` or `m + 1`, the parity of its offset
            // from `m`; a unit insertion always merges exactly one pair.
            let pairs = (c - self.m) / 2;
            self.merge_oldest_pairs(j, pairs);
            self.merges += pairs;
            cascade += 1;
            j += 1;
        }
        self.last_cascade = cascade;
        self.max_cascade = self.max_cascade.max(cascade);
    }

    /// Pop the `2 * pairs` oldest buckets of class `j` and pair them up,
    /// oldest first; each pair becomes one class-`j + 1` bucket stamped
    /// with its newer member. Carries with one timestamp share a run, but
    /// never join a run already in class `j + 1`.
    fn merge_oldest_pairs(&mut self, j: usize, pairs: u64) {
        if self.classes.len() == j + 1 {
            self.push_class();
        }
        let (count, count_up) = (self.count(j), self.count(j + 1));
        let (lower, upper) = self.classes.split_at_mut(j + 1);
        let (from, to) = (&mut lower[j], &mut upper[0]);
        let fresh = to.len();
        let mut need = 2 * pairs;
        // One unpaired bucket left over from the previous (older) run.
        let mut dangling = 0u64;
        while need > 0 {
            let run = from.pop_front().expect("enough buckets to merge");
            let take = run.mult.get().min(need);
            need -= take;
            if take < run.mult.get() {
                from.push_front(Run {
                    ts: run.ts,
                    mult: M::of(run.mult.get() - take),
                });
            }
            // Pairs that end in this run take its (newer) timestamp.
            let carried = (dangling + take) / 2;
            dangling = (dangling + take) % 2;
            if carried == 0 {
                continue;
            }
            match to.len() {
                len if len > fresh && to[len - 1].ts == run.ts => {
                    to[len - 1].mult = M::of(to[len - 1].mult.get() + carried);
                }
                _ => to.push_back(Run {
                    ts: run.ts,
                    mult: M::of(carried),
                }),
            }
        }
        debug_assert_eq!(dangling, 0, "2 * pairs buckets always pair up");
        self.counts[j] = M::of(count - 2 * pairs);
        self.counts[j + 1] = M::of(count_up + pairs);
    }

    pub(crate) fn expire(&mut self) {
        // The globally oldest bucket is at the front of the highest
        // nonempty class (sizes are nondecreasing with age).
        while let Some(j) = self.classes.iter().rposition(|q| !q.is_empty()) {
            let front = self.classes[j][0];
            if front.ts + self.max_window > self.pos {
                break;
            }
            let c = self.count(j);
            self.classes[j].pop_front();
            self.counts[j] = M::of(c - front.mult.get());
            self.total -= front.mult.get() << j;
        }
    }

    /// Estimate the number of units among the last `n <= N` items: total
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
            for run in q.iter().filter(|run| run.ts >= s) {
                total_in += size * run.mult.get();
                match oldest {
                    // Same-timestamp buckets arrive together; the
                    // larger class is the older span.
                    Some((ots, osz)) if ots < run.ts || (ots == run.ts && osz >= size) => {}
                    _ => oldest = Some((run.ts, size)),
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

    /// Serialize into a compact bit encoding, mirroring the wave codecs:
    /// gamma-coded parameters (`N`, then `R` for sums, then `m`, which
    /// stands in for `eps`), then per size class the run count, the
    /// delta-coded timestamps and, for sums, each run's multiplicity.
    /// Cascade telemetry is *not* state and is not encoded.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_gamma(self.max_window);
        if M::RUNS {
            w.write_gamma(self.max_value.get());
        }
        w.write_gamma(self.m);
        w.write_gamma0(self.pos);
        w.write_gamma0(self.classes.len() as u64);
        for q in &self.classes {
            w.write_gamma0(q.len() as u64);
            let ts: Vec<u64> = q.iter().map(|run| run.ts).collect();
            write_deltas(&mut w, &ts);
            if M::RUNS {
                for run in q {
                    w.write_gamma(run.mult.get());
                }
            }
        }
        w.finish()
    }

    /// Reconstruct a histogram from [`Histogram::encode`] output. The
    /// reconstruction answers queries identically to the original and
    /// re-encodes to the same bytes; cascade telemetry restarts at 0.
    /// Corrupt input yields `Err`, never a panic or an inconsistent
    /// structure.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let max_value = M::of(if M::RUNS { r.read_gamma()? } else { 1 });
        let m = r.read_gamma()?;
        if m > 1 << 32 {
            return Err(CodecError::Corrupt("bad m"));
        }
        let mut eh = Self::with_m(max_window, max_value, m, 1.0 / (2.0 * m as f64))?;
        eh.pos = r.read_gamma0()?;
        if eh.pos > 1 << 62 {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        let num_classes = r.read_gamma0()? as usize;
        if num_classes > 64 {
            return Err(CodecError::Corrupt("too many classes"));
        }
        // Whether a bucket stamped `a` may sit behind one stamped `b`,
        // in its class or in the class above. Partial-run merges can
        // leave one timestamp on two runs, within a class and straddling
        // adjacent classes; one 1 per position never can.
        let behind = |a: u64, b: u64| a < b || (M::RUNS && a == b);
        let mut newest_allowed = eh.pos;
        for j in 0..num_classes {
            let runs = r.read_gamma0()?;
            if runs > m + 1 {
                return Err(CodecError::Corrupt("class overfull"));
            }
            let ts = read_deltas(&mut r, runs as usize)?;
            let mut q = VecDeque::with_capacity(ts.len());
            let (mut count, mut prev) = (0u64, 0u64);
            for &t in &ts {
                let mult = if M::RUNS { r.read_gamma()? } else { 1 };
                if t == 0 || t > eh.pos || !behind(prev, t) {
                    return Err(CodecError::Corrupt(if M::RUNS {
                        "timestamp beyond pos"
                    } else {
                        "timestamps not increasing"
                    }));
                }
                if t + max_window <= eh.pos {
                    return Err(CodecError::Corrupt("bucket already expired"));
                }
                count = count
                    .checked_add(mult)
                    .ok_or(CodecError::Corrupt("count overflow"))?;
                prev = t;
                q.push_back(Run {
                    ts: t,
                    mult: M::of(mult),
                });
            }
            if count > m + 1 {
                return Err(CodecError::Corrupt("class overfull"));
            }
            if let (Some(&newest), true) = (ts.last(), j > 0) {
                if !behind(newest, newest_allowed) {
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
            eh.counts.push(M::of(count));
        }
        // Every position contributes at most `R` units.
        if eh.total > eh.pos.saturating_mul(max_value.get()) {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        Ok(eh)
    }

    /// Space accounting under the same conventions as the waves.
    pub fn space_report(&self) -> SpaceReport {
        let runs = || self.classes.iter().flatten();
        let entries = runs().count();
        let resident_bytes = std::mem::size_of::<Self>()
            + self
                .classes
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<Run<M>>())
                .sum::<usize>();
        let mut all_ts: Vec<u64> = runs().map(|run| run.ts).collect();
        all_ts.sort_unstable();
        let mult_bits: u64 = if M::RUNS {
            runs().map(|run| elias_gamma_bits(run.mult.get())).sum()
        } else {
            0
        };
        let nr = 2 * self.max_window.saturating_mul(self.max_value.get()).max(1);
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

impl<M: Multiplicity> waves_core::Synopsis for Histogram<M> {
    fn name(&self) -> &'static str {
        M::NAME
    }
    fn max_window(&self) -> u64 {
        self.max_window
    }
    fn pos(&self) -> u64 {
        self.pos
    }
    fn space_report(&self) -> SpaceReport {
        self.space_report()
    }
    fn query_window(&self, n: u64) -> Result<Estimate, WaveError> {
        self.query(n)
    }
    fn encode_synopsis(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_synopsis(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes)
    }
}
