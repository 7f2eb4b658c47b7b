//! The one wave skeleton: Figure 4's fixed-capacity level queues
//! threaded on one position-ordered list.
//!
//! The paper derives every deterministic synopsis from this structure
//! and then only re-parameterises it: Figure 5 swaps `(p, r)` for
//! `(p, v, z)` and the rank level for the flipped-bit rule, Corollary 1
//! swaps `N` for `U` and lets positions repeat, Section 5 keys the level
//! on the position instead of the rank. [`Ladder`] holds, once, what
//! they share: the clock, the running total, the expired boundary,
//! expiry, insert-with-evict, the straddle walk behind every window
//! query, the codec body with its validation, and the space accounting.
//! Each wave type keeps what the paper says differs: what drives the
//! level count, the capacity of the lower levels, the level function,
//! where positions come from, the estimator with its exactness rule, and
//! parameter validation.
//!
//! The entry shape is chosen by the weight parameter `W`: `()` for the
//! bit waves (every entry weighs 1, so nothing is stored or coded for
//! it) and `u64` for the sum waves (the item value `v`).

use crate::basic_wave::wave_levels;
use crate::chain::{Chain, Fifo};
use crate::codec::{read_deltas, write_deltas, BitReader, BitWriter, CodecError};
use crate::error::WaveError;
use crate::estimate::SpaceReport;
use crate::space::{delta_coded_bits, elias_gamma_bits};
use crate::window::ModRing;

/// One stored entry — the paper's `(p, r)` pair or `(p, v, z)` triple —
/// plus the level whose queue owns it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<W> {
    pub(crate) pos: u64,
    pub(crate) weight: W,
    /// Running total through this entry, inclusive: the 1-rank `r` or
    /// the partial sum `z`.
    pub(crate) cum: u64,
    pub(crate) level: u8,
}

/// What an entry stores for its item's value.
pub(crate) trait Weight: Copy {
    fn of(v: u64) -> Self;
    fn get(self) -> u64;
    fn write(self, w: &mut BitWriter);
    fn read(r: &mut BitReader<'_>) -> Result<Self, CodecError>;
    /// Bits the paper's accounting charges an entry beyond its position
    /// and rank deltas: the level of a bit entry, the value of a sum
    /// entry.
    fn extra_bits(self, num_levels: u32) -> u64;
}

impl Weight for () {
    fn of(_: u64) {}
    fn get(self) -> u64 {
        1
    }
    fn write(self, _: &mut BitWriter) {}
    fn read(_: &mut BitReader<'_>) -> Result<(), CodecError> {
        Ok(())
    }
    fn extra_bits(self, num_levels: u32) -> u64 {
        elias_gamma_bits(num_levels as u64 + 1)
    }
}

impl Weight for u64 {
    fn of(v: u64) -> u64 {
        v
    }
    fn get(self) -> u64 {
        self
    }
    fn write(self, w: &mut BitWriter) {
        w.write_gamma(self);
    }
    fn read(r: &mut BitReader<'_>) -> Result<u64, CodecError> {
        r.read_gamma()
    }
    fn extra_bits(self, _: u32) -> u64 {
        elias_gamma_bits(self + 1)
    }
}

/// The integer `k = ceil(1/eps)` every queue capacity derives from. It
/// is computed from `eps` here and nowhere else: the f64 `eps -> k` map
/// is not injective (`ceil(1/(1/49)) = 50`), so the codecs carry `k`.
pub(crate) fn k_for_eps(eps: f64) -> Result<u64, WaveError> {
    let k = (1.0 / eps).ceil() as u64;
    if eps > 0.0 && eps < 1.0 && k <= 1 << 32 {
        Ok(k)
    } else {
        Err(WaveError::InvalidEpsilon(eps))
    }
}

/// Read an encoded `k`, in the range [`k_for_eps`] produces.
pub(crate) fn read_k(r: &mut BitReader<'_>) -> Result<u64, CodecError> {
    let k = r.read_gamma()?;
    if k > 1 << 32 {
        return Err(CodecError::Corrupt("bad k"));
    }
    Ok(k)
}

/// Where a wave's positions come from — what its decoder may assume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Positions {
    /// They count the items: 1, 2, 3, … — never repeated, and `pos`
    /// items can total at most `pos * max_weight`.
    Sequence,
    /// The caller supplies them, nondecreasing: they may repeat.
    Supplied,
}

/// Level queues on a chain: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Ladder<W> {
    max_window: u64,
    k: u64,
    num_levels: u32,
    /// Width of one of the paper's mod-N' counters, for the accounting.
    counter_bits: u32,
    /// The clock: the latest position observed.
    pos: u64,
    /// Running total of every weight inserted (the rank, or the sum).
    total: u64,
    /// `cum` of the newest expired entry (0 if none yet): the paper's
    /// `r1` / `z1`.
    boundary: u64,
    chain: Chain<Entry<W>>,
    queues: Vec<Fifo>,
}

impl<W: Weight> Ladder<W> {
    /// An empty ladder for windows of up to `max_window` positions with
    /// `ceil(log2(2 * span / k))` levels — `span` bounds what one window
    /// can total — of `lower_cap` entries each and `k + 1` at the top.
    /// The caller has validated `1 <= k <= 2^32` and
    /// `1 <= max_window, span <= 2^62`.
    pub(crate) fn new(max_window: u64, k: u64, span: u64, lower_cap: u64) -> Self {
        let num_levels = wave_levels(span, k);
        let queues: Vec<Fifo> = (1..=num_levels)
            .map(|l| if l == num_levels { k + 1 } else { lower_cap })
            .map(|cap| Fifo::new(cap as usize))
            .collect();
        Ladder {
            max_window,
            k,
            num_levels,
            counter_bits: ModRing::for_window(max_window.max(span)).counter_bits(),
            pos: 0,
            total: 0,
            boundary: 0,
            chain: Chain::with_capacity(queues.iter().map(Fifo::capacity).sum()),
            queues,
        }
    }

    pub(crate) fn max_window(&self) -> u64 {
        self.max_window
    }

    pub(crate) fn k(&self) -> u64 {
        self.k
    }

    pub(crate) fn num_levels(&self) -> u32 {
        self.num_levels
    }

    #[inline]
    pub(crate) fn pos(&self) -> u64 {
        self.pos
    }

    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn boundary(&self) -> u64 {
        self.boundary
    }

    /// Number of entries currently stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.chain.len()
    }

    /// Stored entries, oldest first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry<W>> {
        self.chain.iter().map(|(_, e)| e)
    }

    /// Move the clock to `to` and expire every entry that has left the
    /// maximum window. Returns the newest entry expired, now the
    /// boundary.
    ///
    /// `inline(always)`, with [`Ladder::insert`]: the two are one push
    /// body per wave. Left to the inliner's judgement they stay out of
    /// line, and `DetWave::push_words` runs a third slower (measured:
    /// `benchmark/`'s `engine_dense`, 150 -> 90 Mbit/s).
    #[inline(always)]
    pub(crate) fn advance(&mut self, to: u64) -> Option<Entry<W>> {
        self.pos = to;
        // Planted off-by-one for the DST mutation smoke test
        // (tests/dst_mutation.rs): under `--cfg dst_mutation` entries
        // expire one stream position early, which the harness must
        // catch against the exact oracle. Never enabled in real builds.
        #[cfg(dst_mutation)]
        let horizon = self.pos + 1;
        #[cfg(not(dst_mutation))]
        let horizon = self.pos;
        let mut expired = None;
        while let Some(h) = self.chain.head() {
            let e = *self.chain.get(h);
            if e.pos + self.max_window > horizon {
                break;
            }
            self.boundary = e.cum;
            let popped = self.queues[e.level as usize].pop_front();
            debug_assert_eq!(popped, Some(h), "expiring head must be its queue's front");
            self.chain.remove(h);
            expired = Some(e);
        }
        expired
    }

    /// Store the item at the clock: add `v` to the running total and
    /// append an entry to the queue of `level` (clamped to the top one),
    /// first discarding that queue's oldest entry if it is full — steps
    /// 3(b)–(c) of Figures 4 and 5, O(1) worst case. Returns the entry
    /// discarded, if any.
    #[inline(always)]
    pub(crate) fn insert(&mut self, level: u32, v: u64) -> Option<Entry<W>> {
        let j = level.min(self.num_levels - 1) as usize;
        self.total += v;
        let evicted = if self.queues[j].is_full() {
            let old = self.queues[j].pop_front().expect("full queue has a front");
            let e = *self.chain.get(old);
            self.chain.remove(old);
            Some(e)
        } else {
            None
        };
        let id = self.chain.push_back(Entry {
            pos: self.pos,
            weight: W::of(v),
            cum: self.total,
            level: j as u8,
        });
        self.queues[j].push_back(id);
        evicted
    }

    /// The walk behind every window query. For a window starting at
    /// position `s`: the running total before it (`cum` of the newest
    /// entry before `s`, else the expired boundary) and the oldest entry
    /// at or after `s`. Entries are position-ordered, so this is
    /// `O((1/eps) log(eps N))` in general and O(1) when `s` starts the
    /// maximum window, where expiry has left no older entry.
    pub(crate) fn straddle(&self, s: u64) -> (u64, Option<Entry<W>>) {
        let mut before = self.boundary;
        for e in self.entries() {
            if e.pos >= s {
                return (before, Some(*e));
            }
            before = e.cum;
        }
        (before, None)
    }

    /// Append everything after the parameter header to `w`: gamma-coded
    /// counters, delta-coded positions and running totals, then each
    /// entry's weight and level.
    pub(crate) fn encode_body(&self, w: &mut BitWriter) {
        w.write_gamma0(self.pos);
        w.write_gamma0(self.total);
        w.write_gamma0(self.boundary);
        w.write_gamma0(self.chain.len() as u64);
        write_deltas(w, &self.entries().map(|e| e.pos).collect::<Vec<_>>());
        write_deltas(w, &self.entries().map(|e| e.cum).collect::<Vec<_>>());
        for e in self.entries() {
            e.weight.write(w);
            w.write_gamma0(e.level as u64);
        }
    }

    /// Fill an empty ladder from [`Ladder::encode_body`] output, holding
    /// every field to the invariants the queries compute with — a
    /// decoded ladder never answers `lo > hi`, whatever the bytes. No
    /// entry weighs more than `max_weight`.
    pub(crate) fn decode_body(
        &mut self,
        r: &mut BitReader<'_>,
        positions: Positions,
        max_weight: u64,
    ) -> Result<(), CodecError> {
        let sequence = positions == Positions::Sequence;
        self.pos = r.read_gamma0()?;
        self.total = r.read_gamma0()?;
        self.boundary = r.read_gamma0()?;
        let reachable = if sequence {
            self.pos.saturating_mul(max_weight).min(1 << 62)
        } else {
            1 << 62
        };
        if self.pos > 1 << 62 || self.total > reachable || self.boundary > self.total {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        let count = r.read_gamma0()? as usize;
        let entry_pos = read_deltas(r, count)?;
        let entry_cum = read_deltas(r, count)?;
        let mut prev = (0, self.boundary);
        for (&pos, &cum) in entry_pos.iter().zip(&entry_cum) {
            let weight = W::read(r)?;
            let level = r.read_gamma0()?;
            if level >= self.num_levels as u64 {
                return Err(CodecError::Corrupt("level out of range"));
            }
            let v = weight.get();
            if pos > self.pos || cum > self.total || v > max_weight || v > cum {
                return Err(CodecError::Corrupt("entry beyond counters"));
            }
            // A real wave expires on every push.
            if pos + self.max_window <= self.pos {
                return Err(CodecError::Corrupt("entry already expired"));
            }
            // The total before an entry is at least the total through
            // its predecessor (the expired boundary, for the first):
            // the estimators subtract one from the other.
            if cum - v < prev.1 || (sequence && pos == prev.0) {
                return Err(CodecError::Corrupt("entries not increasing"));
            }
            prev = (pos, cum);
            let queue = &mut self.queues[level as usize];
            if queue.is_full() {
                return Err(CodecError::Corrupt("level queue overflow"));
            }
            queue.push_back(self.chain.push_back(Entry {
                pos,
                weight,
                cum,
                level: level as u8,
            }));
        }
        Ok(())
    }

    /// Space accounting for a wave of `inline_bytes` (its `size_of`)
    /// whose paper encoding keeps `counters` mod-N' counters.
    pub(crate) fn space_report(&self, inline_bytes: usize, counters: u64) -> SpaceReport {
        SpaceReport {
            resident_bytes: inline_bytes
                + self.chain.heap_bytes()
                + self.queues.iter().map(Fifo::heap_bytes).sum::<usize>(),
            synopsis_bits: counters * self.counter_bits as u64
                + delta_coded_bits(self.entries().map(|e| e.pos))
                + delta_coded_bits(self.entries().map(|e| e.cum))
                + self
                    .entries()
                    .map(|e| e.weight.extra_bits(self.num_levels))
                    .sum::<u64>(),
            entries: self.chain.len(),
        }
    }
}

/// Well-formed bytes, impossible wave, for the sum codecs' tests: after
/// the header `params` and `k = 4`, entries `(p=1, v=10, z=10)` and
/// `(p=5, v=10, z=11)` — the second item claims 10 units of which only 1
/// arrived after the first. Decoded, `query(8)` would bracket the sum in
/// `[19, 10]`.
#[cfg(test)]
pub(crate) fn overlapping_sum_entries(params: &[u64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    for &p in params.iter().chain(&[4]) {
        w.write_gamma(p);
    }
    for counter in [10, 20, 0, 2] {
        w.write_gamma0(counter); // pos, total, z1, entries
    }
    write_deltas(&mut w, &[1, 5]);
    write_deltas(&mut w, &[10, 11]);
    for _ in 0..2 {
        w.write_gamma(10); // v
        w.write_gamma0(0); // level
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_shapes_keep_their_sizes() {
        // The bit entry is what every served key pays per stored 1.
        assert_eq!(std::mem::size_of::<Entry<()>>(), 24);
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 32);
        assert!(std::mem::size_of::<crate::DetWave>() <= 160);
    }

    #[test]
    fn straddle_splits_the_chain_at_a_position() {
        // k = 2, span 8: 3 levels of capacity 2, 2, 3.
        let mut l: Ladder<u64> = Ladder::new(8, 2, 8, 2);
        let evicted = [(1, 5), (3, 2), (4, 1)].map(|(pos, v)| {
            l.advance(pos);
            l.insert(0, v).map(|e| e.pos)
        });
        // Level 0 holds two entries: the third insert discards (1, 5).
        assert_eq!(evicted, [None, None, Some(1)]);
        assert_eq!(l.len(), 2);
        let (before, first) = l.straddle(4);
        assert_eq!(
            (before, first.map(|e| (e.pos, e.weight, e.cum))),
            (7, Some((4, 1, 8)))
        );
        assert_eq!(l.straddle(5).0, 8);
        assert!(l.straddle(5).1.is_none());
        // Expiry moves the boundary to the newest entry that left.
        assert_eq!(l.advance(11).map(|e| e.pos), Some(3));
        assert_eq!((l.boundary(), l.len()), (7, 1));
    }
}
