//! Xu-style boosted basic counting (arXiv:1312.0042).
//!
//! A second ε-relative-error baseline next to the exponential
//! histogram, with a different maintenance discipline: instead of
//! cascading power-of-two merges on every arrival, each 1-bit appends a
//! singleton *block* in O(1) worst case and compression is deferred —
//! when the block list outgrows a fixed cap, one batch pass greedily
//! merges adjacent blocks under the slack rule
//! `count <= max(1, S_newer / inv)` (`inv = ceil(1/eps)`, integer
//! division), where `S_newer` is the number of 1's in strictly newer
//! blocks. That "boosting" trades the EH's O(log) worst-case cascade
//! for an O(1) worst-case update with amortized batch compression,
//! while keeping the same query-time guarantee: the straddling block
//! contributes an interval of width `count - 1 <= eps * S_newer`, so
//! the midpoint answer has relative error below `eps/2`.
//!
//! The slack rule is monotone — `S_newer` only grows after a merge, so
//! a block that satisfied its cap at merge time satisfies it forever —
//! which is what makes deferred compression sound.

use std::collections::VecDeque;
use waves_core::codec::CodecError;
use waves_core::error::WaveError;
use waves_core::estimate::{Estimate, SpaceReport};
use waves_core::space::{delta_coded_bits, elias_gamma_bits};
use waves_core::window::MAX_WINDOW;
use waves_core::{BitSynopsis, Synopsis};

/// Boosted basic counting over a sliding window of up to `N` bits with
/// relative error `eps`: O(1) worst-case update, O((1/eps) log(eps N))
/// blocks.
#[derive(Debug, Clone)]
pub struct XuCount {
    max_window: u64,
    /// Quantized inverse error `inv = ceil(1/eps)`; the effective error
    /// bound is `1/inv <= eps` and the only quantity the slack rule
    /// consults, so it stands in for `eps` in the codec.
    inv: u64,
    pos: u64,
    /// Blocks oldest at the front: `(ts, count)` where `ts` is the
    /// position of the block's most recent 1 and `count >= 1` its
    /// number of 1's. Timestamps are strictly increasing.
    blocks: VecDeque<(u64, u64)>,
    /// Compression trigger: batch-compress when `blocks.len()` exceeds
    /// this (a constant multiple of the post-compression bound).
    compress_at: usize,
    /// Batch compressions run so far (the boosted counterpart of the
    /// EH's cascade statistics).
    compressions: u64,
}

impl XuCount {
    /// Build a counter with error bound `eps` for windows up to
    /// `max_window`.
    pub fn new(max_window: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_inv(max_window, crate::quantize_eps(eps, 1.0)?)
    }

    fn with_inv(max_window: u64, inv: u64) -> Result<Self, WaveError> {
        if max_window == 0 || max_window > MAX_WINDOW {
            return Err(WaveError::InvalidWindow(max_window));
        }
        // Post-compression block count is O((1/eps) log(eps N)): an
        // `inv`-long singleton prefix plus geometric growth. Compress
        // at a small multiple so updates stay O(1) amortized.
        let levels = 64 - max_window.leading_zeros() as usize;
        let compress_at = 16 + 4 * inv as usize * (1 + levels);
        Ok(XuCount {
            max_window,
            inv,
            pos: 0,
            blocks: VecDeque::new(),
            compress_at,
            compressions: 0,
        })
    }

    /// Maximum window size `N`.
    pub fn max_window(&self) -> u64 {
        self.max_window
    }

    /// The effective (quantized) error bound `1/ceil(1/eps)`.
    pub fn eps(&self) -> f64 {
        1.0 / self.inv as f64
    }

    /// Stream length so far.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Number of blocks currently held.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Batch compressions run so far.
    pub fn compressions(&self) -> u64 {
        self.compressions
    }

    /// Largest count a block may reach when `s_newer` 1's sit in
    /// strictly newer blocks.
    fn cap(&self, s_newer: u64) -> u64 {
        (s_newer / self.inv).max(1)
    }

    /// Process the next stream bit: O(1) worst case (append or
    /// pop), with compression deferred to a batch pass.
    pub fn push_bit(&mut self, b: bool) {
        self.pos += 1;
        self.expire();
        if b {
            self.insert_one();
        }
    }

    fn insert_one(&mut self) {
        self.blocks.push_back((self.pos, 1));
        if self.blocks.len() > self.compress_at {
            self.compress();
        }
    }

    /// Ingest a packed batch, oldest first: zero runs advance `pos` in
    /// one addition, expiry runs per 1-bit and once at the end (the
    /// same deferral argument as `EhCount::push_words`).
    pub fn push_words(&mut self, bits: waves_core::bits::BitsRef<'_>) {
        use waves_core::bits::Run;
        bits.scan_runs(|run| match run {
            Run::Zeros(n) => self.pos += n,
            Run::One => {
                self.pos += 1;
                self.expire();
                self.insert_one();
            }
        });
        self.expire();
    }

    fn expire(&mut self) {
        while let Some(&(ts, _)) = self.blocks.front() {
            if ts + self.max_window <= self.pos {
                self.blocks.pop_front();
            } else {
                break;
            }
        }
    }

    /// One batch pass, newest to oldest: greedily absorb each older
    /// block into the current one while the merged count stays within
    /// the slack cap for the 1's already emitted as newer blocks.
    fn compress(&mut self) {
        let mut kept: Vec<(u64, u64)> = Vec::with_capacity(self.blocks.len());
        let mut newer_sum = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for &(ts, count) in self.blocks.iter().rev() {
            match cur {
                None => cur = Some((ts, count)),
                Some((cur_ts, cur_count)) => {
                    if cur_count + count <= self.cap(newer_sum) {
                        // Merged block keeps the newer timestamp.
                        cur = Some((cur_ts, cur_count + count));
                    } else {
                        kept.push((cur_ts, cur_count));
                        newer_sum += cur_count;
                        cur = Some((ts, count));
                    }
                }
            }
        }
        kept.extend(cur);
        self.blocks = kept.into_iter().rev().collect();
        self.compressions += 1;
    }

    /// Estimate the number of 1's among the last `n <= N` bits: blocks
    /// strictly newer than the straddling block are complete; the
    /// straddling block (oldest with its newest 1 in window)
    /// contributes between 1 and its count.
    pub fn query(&self, n: u64) -> Result<Estimate, WaveError> {
        if n > self.max_window {
            return Err(WaveError::WindowTooLarge {
                requested: n,
                max: self.max_window,
            });
        }
        let s = if n >= self.pos { 1 } else { self.pos - n + 1 };
        let mut full = 0u64;
        let mut straddle: Option<u64> = None;
        for &(ts, count) in &self.blocks {
            if ts < s {
                continue;
            }
            if straddle.is_none() {
                straddle = Some(count);
            } else {
                full += count;
            }
        }
        let Some(c) = straddle else {
            return Ok(Estimate::exact(0));
        };
        if n >= self.pos || c == 1 {
            // Whole-stream window (all blocks complete) or a singleton
            // straddler whose only 1 is in window: exact.
            return Ok(Estimate::exact(full + c));
        }
        Ok(Estimate::midpoint(full + 1, full + c))
    }

    /// Serialize under the same conventions as the EH codec:
    /// gamma-coded parameters (`inv` stands in for `eps`), delta-coded
    /// block timestamps, then per-block counts. Compression telemetry
    /// is not state and is not encoded. Reconstruct with
    /// [`XuCount::decode`].
    pub fn encode(&self) -> Vec<u8> {
        use waves_core::codec::{write_deltas, BitWriter};
        let mut w = BitWriter::new();
        w.write_gamma(self.max_window);
        w.write_gamma(self.inv);
        w.write_gamma0(self.pos);
        w.write_gamma0(self.blocks.len() as u64);
        let ts: Vec<u64> = self.blocks.iter().map(|&(t, _)| t).collect();
        write_deltas(&mut w, &ts);
        for &(_, count) in &self.blocks {
            w.write_gamma(count);
        }
        w.finish()
    }

    /// Reconstruct from [`XuCount::encode`] output: answers queries
    /// identically and re-encodes to the same bytes. Corrupt input
    /// yields `Err`, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        use waves_core::codec::{read_deltas, BitReader};
        let mut r = BitReader::new(bytes);
        let max_window = r.read_gamma()?;
        let inv = r.read_gamma()?;
        if inv == 0 || inv > 1 << 32 {
            return Err(CodecError::Corrupt("bad inv"));
        }
        let mut xu = XuCount::with_inv(max_window, inv)?;
        xu.pos = r.read_gamma0()?;
        if xu.pos > 1 << 62 {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        let len = r.read_gamma0()? as usize;
        if len > xu.compress_at + 1 {
            return Err(CodecError::Corrupt("too many blocks"));
        }
        let ts = read_deltas(&mut r, len)?;
        let mut prev = 0u64;
        for &t in &ts {
            if t == 0 || t > xu.pos || t <= prev {
                return Err(CodecError::Corrupt("timestamps not increasing"));
            }
            if t + max_window <= xu.pos {
                return Err(CodecError::Corrupt("block already expired"));
            }
            prev = t;
        }
        // A block's 1's lie after its predecessor's newest 1, so its
        // count fits that gap — which also keeps every sum of counts
        // within `pos`, so `query` cannot overflow.
        prev = 0;
        for t in ts {
            let count = r.read_gamma()?;
            if count > t - prev {
                return Err(CodecError::Corrupt("block overlaps its predecessor"));
            }
            prev = t;
            xu.blocks.push_back((t, count));
        }
        Ok(xu)
    }

    /// Space accounting under the same conventions as the waves and
    /// the EH.
    pub fn space_report(&self) -> SpaceReport {
        let entries = self.blocks.len();
        let resident_bytes = std::mem::size_of::<Self>()
            + self.blocks.capacity() * std::mem::size_of::<(u64, u64)>();
        let ts: Vec<u64> = self.blocks.iter().map(|&(t, _)| t).collect();
        let counter_bits = 64 - (2 * self.max_window - 1).leading_zeros() as u64;
        let synopsis_bits = 2 * counter_bits
            + delta_coded_bits(ts)
            + self
                .blocks
                .iter()
                .map(|&(_, c)| elias_gamma_bits(c))
                .sum::<u64>();
        SpaceReport {
            resident_bytes,
            synopsis_bits,
            entries,
        }
    }
}

impl Synopsis for XuCount {
    fn name(&self) -> &'static str {
        "xu"
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

impl BitSynopsis for XuCount {
    fn push_words(&mut self, bits: waves_core::bits::BitsRef<'_>) {
        self.push_words(bits)
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
        let mut xu = XuCount::new(100, 0.25).unwrap();
        for b in [true, false, true, true] {
            xu.push_bit(b);
        }
        assert_eq!(xu.query(100).unwrap(), Estimate::exact(3));
    }

    #[test]
    fn error_bound_holds() {
        for &(eps, n_max) in &[(0.5, 64u64), (0.25, 128), (0.1, 256)] {
            let mut xu = XuCount::new(n_max, eps).unwrap();
            let mut oracle = ExactCount::new(n_max);
            for b in lcg_bits(1, 6000, 10, 4) {
                xu.push_bit(b);
                oracle.push_bit(b);
                let actual = oracle.query(n_max);
                let est = xu.query(n_max).unwrap();
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
        let mut xu = XuCount::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for (i, b) in lcg_bits(9, 4000, 3, 1).into_iter().enumerate() {
            xu.push_bit(b);
            oracle.push_bit(b);
            if i % 29 == 0 {
                for n in [5u64, 40, 128] {
                    let actual = oracle.query(n);
                    let est = xu.query(n).unwrap();
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
    fn updates_never_cascade_but_blocks_stay_bounded() {
        let mut xu = XuCount::new(1 << 12, 0.1).unwrap();
        for _ in 0..100_000 {
            xu.push_bit(true);
        }
        // Deferred compression keeps the list within the trigger bound
        // at all times; on an all-ones stream it must actually fire.
        assert!(xu.blocks() <= xu.compress_at + 1, "{} blocks", xu.blocks());
        assert!(xu.compressions() > 0);
    }

    #[test]
    fn slack_invariant_holds_after_compression() {
        let mut xu = XuCount::new(1 << 10, 0.125).unwrap();
        for b in lcg_bits(3, 50_000, 2, 1) {
            xu.push_bit(b);
        }
        // Every non-singleton block respects the monotone slack cap.
        let mut newer_sum = 0u64;
        for &(_, count) in xu.blocks.iter().rev() {
            assert!(
                count == 1 || count <= xu.cap(newer_sum),
                "count {count} exceeds cap({newer_sum})"
            );
            newer_sum += count;
        }
    }

    #[test]
    fn push_words_matches_per_bit() {
        use waves_core::bits::Bits;
        let stream = lcg_bits(11, 3000, 3, 1);
        let mut per_bit = XuCount::new(512, 0.2).unwrap();
        let mut packed = XuCount::new(512, 0.2).unwrap();
        let mut bits = Bits::new();
        for &b in &stream {
            per_bit.push_bit(b);
            bits.push(b);
        }
        packed.push_words(bits.as_ref());
        assert_eq!(per_bit.pos(), packed.pos());
        for n in [1u64, 17, 256, 512] {
            assert_eq!(
                per_bit.query(n).unwrap(),
                packed.query(n).unwrap(),
                "window {n}"
            );
        }
    }

    #[test]
    fn codec_roundtrip_is_byte_identical() {
        let mut xu = XuCount::new(2048, 0.1).unwrap();
        for b in lcg_bits(5, 20_000, 4, 1) {
            xu.push_bit(b);
        }
        let bytes = xu.encode();
        let back = XuCount::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        for n in [1u64, 100, 777, 2048] {
            assert_eq!(xu.query(n).unwrap(), back.query(n).unwrap());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(XuCount::decode(&[]).is_err());
        let mut xu = XuCount::new(64, 0.25).unwrap();
        for b in lcg_bits(2, 500, 2, 1) {
            xu.push_bit(b);
        }
        let bytes = xu.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let _ = XuCount::decode(&bad); // must not panic
        }
    }

    #[test]
    fn expiry_empties_structure() {
        let mut xu = XuCount::new(32, 0.25).unwrap();
        for _ in 0..100 {
            xu.push_bit(true);
        }
        for _ in 0..40 {
            xu.push_bit(false);
        }
        assert_eq!(xu.query(32).unwrap(), Estimate::exact(0));
        assert_eq!(xu.blocks(), 0);
    }

    /// The waves' window bound holds here too (see `EhCount`'s test).
    #[test]
    fn window_is_held_to_the_waves_bound() {
        use waves_core::codec::{write_deltas, BitWriter, CodecError};
        for n in [0, MAX_WINDOW + 1, u64::MAX] {
            assert_eq!(
                XuCount::new(n, 0.1).unwrap_err(),
                WaveError::InvalidWindow(n)
            );
        }
        let mut xu = XuCount::new(MAX_WINDOW, 0.1).unwrap();
        for _ in 0..10 {
            xu.push_bit(true);
        }
        assert_eq!(xu.query(10).unwrap(), Estimate::exact(10));
        // A well-framed header claiming N = u64::MAX over one live block.
        let mut w = BitWriter::new();
        w.write_gamma(u64::MAX);
        w.write_gamma(10); // inv
        w.write_gamma0(10); // pos
        w.write_gamma0(1); // blocks
        write_deltas(&mut w, &[5]);
        w.write_gamma(1); // the block's count
        assert_eq!(
            XuCount::decode(&w.finish()).unwrap_err(),
            CodecError::BadParams(WaveError::InvalidWindow(u64::MAX))
        );
    }

    /// Five well-framed blocks of almost 2^62 ones each, at five
    /// consecutive positions: once accepted, `query` summed them past
    /// `u64` (debug panic, release a wrapped answer).
    #[test]
    fn decode_refuses_a_block_overlapping_its_predecessor() {
        use waves_core::codec::{write_deltas, BitWriter, CodecError};
        let first = MAX_WINDOW - 4;
        let mut w = BitWriter::new();
        w.write_gamma(MAX_WINDOW);
        w.write_gamma(10); // inv
        w.write_gamma0(MAX_WINDOW); // pos
        w.write_gamma0(5); // blocks
        write_deltas(&mut w, &[first, first + 1, first + 2, first + 3, first + 4]);
        for _ in 0..5 {
            w.write_gamma(first); // fits the first block only
        }
        assert_eq!(
            XuCount::decode(&w.finish()).unwrap_err(),
            CodecError::Corrupt("block overlaps its predecessor")
        );
    }
}
