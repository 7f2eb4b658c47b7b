//! The one wave skeleton: Figure 4's fixed-capacity level queues.
//!
//! The paper derives every deterministic synopsis from this structure
//! and then only re-parameterises it: Figure 5 swaps `(p, r)` for
//! `(p, v, z)` and the rank level for the flipped-bit rule, Corollary 1
//! swaps `N` for `U` and lets positions repeat, Section 5 keys the level
//! on the position instead of the rank. [`Ladder`] holds, once, what
//! they share: the clock, the running total, the expired boundary,
//! expiry, insert-with-evict, the straddle search behind every window
//! query, the codec body with its validation, and the space accounting.
//! Each wave type keeps what the paper says differs: what drives the
//! level count, the capacity of the lower levels, the level function,
//! where positions come from, the estimator with its exactness rule, and
//! parameter validation. The paper's position-ordered list `L` is not
//! kept: each queue is in position order, so `L` is their merge by
//! [`Entry::key`] ([`Ladder::leveled`]).
//!
//! The entry shape is chosen by the weight parameter `W`: `()` for the
//! bit waves (every entry weighs 1, so nothing is stored or coded for
//! it) and `u64` for the sum waves (the item value `v`).
//!
//! Storage is one slab and one small slice of [`Ring`]s. Level `j` owns
//! the slots from `j * lower_cap`, so a slot's index says its level and
//! its place in that level's queue: no id arrays, no free list, and a
//! full queue's discarded slot *is* the new entry's. A slot keeps `pos`
//! and `cum` whole, or — on a [`Positions::Sequence`] ladder whose
//! mod-N' counters fit 32 bits, where no live entry is `N' / 2`
//! positions or `N' / 2` of total behind the clock — as their low 32
//! bits ([`Stamp`]). [`Ladder::new`] picks the width from `N'`; it is
//! not an option, and both are the one body on [`Core`]. `batch` is the
//! bit waves' batch push.

use crate::basic_wave::wave_levels;
use crate::codec::{read_deltas_into, BitReader, BitWriter, CodecError};
use crate::error::WaveError;
use crate::estimate::SpaceReport;
use crate::space::{delta_coded_bits, elias_gamma_bits};
use crate::window::ModRing;
use std::cmp::max_by_key;

/// One stored entry — the paper's `(p, r)` pair or `(p, v, z)` triple —
/// as every caller sees it: at full width, whatever its slot keeps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Entry<W> {
    pub(crate) pos: u64,
    pub(crate) weight: W,
    /// Running total through this entry, inclusive: the 1-rank `r` or
    /// the partial sum `z`.
    pub(crate) cum: u64,
}

impl<W> Entry<W> {
    /// Insertion order, rising strictly: only `Supplied` positions repeat, each weighing ≥ 1.
    fn key(&self) -> (u64, u64) {
        (self.pos, self.cum)
    }
}

/// What an entry stores for its item's value.
pub(crate) trait Weight: Copy + Default {
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

/// A position or running total as a slot keeps it: whole, or its low 32
/// bits — [`ModRing`]'s argument with the modulus rounded up to the
/// machine word. A stored counter is never ahead of the current one, so
/// while it is less than `2^32` behind it is recovered exactly.
pub(crate) trait Stamp: Copy + Default {
    fn pack(full: u64) -> Self;
    /// The counter this was packed from, given the current one `now`.
    fn full(self, now: u64) -> u64;
}

impl Stamp for u64 {
    fn pack(full: u64) -> u64 {
        full
    }
    fn full(self, _: u64) -> u64 {
        self
    }
}

impl Stamp for u32 {
    fn pack(full: u64) -> u32 {
        full as u32
    }
    fn full(self, now: u64) -> u64 {
        now - (now as u32).wrapping_sub(self) as u64
    }
}

/// One slab cell: an entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot<P, W> {
    pos: P,
    cum: P,
    weight: W,
}

#[derive(Debug)]
enum Slab<W> {
    Narrow(Box<[Slot<u32, W>]>),
    Wide(Box<[Slot<u64, W>]>),
}

impl<W: Copy> Clone for Slab<W> {
    fn clone(&self) -> Self {
        match self {
            Slab::Narrow(s) => Slab::Narrow(s.clone()),
            Slab::Wide(s) => Slab::Wide(s.clone()),
        }
    }

    /// Into the slots already here, when `source` has as many at the
    /// same width (a boxed slice's `clone_from` is then one `memcpy`).
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Slab::Narrow(to), Slab::Narrow(from)) => to.clone_from(from),
            (Slab::Wide(to), Slab::Wide(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

/// `$body` with `$slots` bound to the slots of `$slab`, at its width: a
/// batch's whole loop ([`Ladder::push_ones`]) matches it once.
macro_rules! at_width {
    ($slab:expr, $slots:ident => $body:expr) => {
        match $slab {
            Slab::Narrow($slots) => $body,
            Slab::Wide($slots) => $body,
        }
    };
}

mod batch;
#[cfg(test)]
pub(crate) use batch::Kernel;

/// One level queue: a circular window over the level's own slots, as
/// offsets from its first, of a capacity the ladder derives from the
/// level. The *front* is the oldest entry, the paper's "tail of the
/// queue" that gets discarded.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ring {
    start: u32,
    len: u32,
}

impl Ring {
    pub(crate) fn is_full(&self, cap: u32) -> bool {
        self.len == cap
    }

    /// The offset of the `i`-th oldest entry, for `i <= len`.
    #[inline(always)]
    fn offset(&self, i: u32, cap: u32) -> u32 {
        let at = self.start + i;
        at - if at >= cap { cap } else { 0 }
    }

    /// Claim the offset after the newest entry. The ring must not be
    /// full (the caller pops first, mirroring step 3(b) of Figure 4).
    pub(crate) fn push_back(&mut self, cap: u32) -> u32 {
        assert!(!self.is_full(cap), "level queue overflow");
        self.len += 1;
        self.offset(self.len - 1, cap)
    }

    /// Release and return the offset of the oldest entry.
    pub(crate) fn pop_front(&mut self, cap: u32) -> Option<u32> {
        let at = (self.len > 0).then_some(self.start)?;
        self.start = if at + 1 == cap { 0 } else { at + 1 };
        self.len -= 1;
        Some(at)
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

/// A decoder's view of a constructor's refusal: an `eps` refused for a
/// decoded `k` means [`Ladder::new`] found the `k` too large for its
/// slab, so the header is corrupt; any other refusal is bad parameters.
pub(crate) fn refused_k(e: WaveError) -> CodecError {
    match e {
        WaveError::InvalidEpsilon(_) => CodecError::Corrupt("bad k"),
        e => CodecError::BadParams(e),
    }
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

/// A ladder but for its slots, which its methods take at either width.
#[derive(Debug)]
struct Core {
    max_window: u64,
    k: u64,
    /// The clock: the latest position observed.
    pos: u64,
    /// Running total of every weight inserted (the rank, or the sum).
    total: u64,
    /// `cum` of the newest expired entry (0 if none yet): the paper's
    /// `r1` / `z1`.
    boundary: u64,
    /// The level (of at most 63) whose front is the oldest entry, and the
    /// horizon at which it expires (`u64::MAX` with none): the full
    /// window's first entry, and a push's one expiry check.
    oldest: u8,
    due: u64,
    num_levels: u32,
    /// Slots of each level below the top one, which has `k + 1`: level
    /// `j` owns the slots from `j * lower_cap`.
    lower_cap: u32,
    len: u32,
    /// Width of one of the paper's mod-N' counters, for the accounting.
    counter_bits: u8,
    positions: Positions,
    rings: Box<[Ring]>,
}

impl Clone for Core {
    fn clone(&self) -> Self {
        Core {
            rings: self.rings.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut rings = std::mem::take(&mut self.rings);
        rings.clone_from(&source.rings);
        *self = Core { rings, ..*source };
    }
}

/// Level queues in one slab: see the module docs.
#[derive(Debug)]
pub(crate) struct Ladder<W> {
    core: Core,
    slab: Slab<W>,
}

impl<W: Copy> Clone for Ladder<W> {
    fn clone(&self) -> Self {
        Ladder {
            core: self.core.clone(),
            slab: self.slab.clone(),
        }
    }

    /// Allocates nothing when `source` has this ladder's parameters: the
    /// copy lands in the slab and the rings already here.
    fn clone_from(&mut self, source: &Self) {
        self.core.clone_from(&source.core);
        self.slab.clone_from(&source.slab);
    }
}

impl Core {
    fn cap(&self, level: u32) -> u32 {
        if level + 1 == self.num_levels {
            self.k as u32 + 1
        } else {
            self.lower_cap
        }
    }

    fn entry<P: Stamp, W: Weight>(&self, s: &Slot<P, W>) -> Entry<W> {
        Entry {
            pos: s.pos.full(self.pos),
            weight: s.weight,
            cum: s.cum.full(self.total),
        }
    }

    /// The slot of the `i`-th oldest entry of `level`'s queue.
    #[inline(always)]
    fn slot(&self, level: u32, i: u32) -> usize {
        (level * self.lower_cap + self.rings[level as usize].offset(i, self.cap(level))) as usize
    }

    /// The `i`-th oldest entry of `level`'s queue, if it holds that many.
    #[inline(always)]
    fn get<P: Stamp, W: Weight>(&self, s: &[Slot<P, W>], level: u32, i: u32) -> Option<Entry<W>> {
        (i < self.rings[level as usize].len).then(|| self.entry(&s[self.slot(level, i)]))
    }

    /// Take the oldest entry of `level` off its queue.
    #[inline(always)]
    fn pop<P: Stamp, W: Weight>(&mut self, s: &[Slot<P, W>], level: u32) -> Entry<W> {
        let e = self.get(s, level, 0).expect("level holds an entry");
        self.rings[level as usize].pop_front(self.cap(level));
        self.len -= 1;
        e
    }

    /// Append `e` to the queue of `level`, which has room.
    #[inline(always)]
    fn place<P: Stamp, W: Weight>(&mut self, s: &mut [Slot<P, W>], level: u32, e: Entry<W>) {
        let slot = level * self.lower_cap + self.rings[level as usize].push_back(self.cap(level));
        s[slot as usize] = Slot {
            pos: P::pack(e.pos),
            cum: P::pack(e.cum),
            weight: e.weight,
        };
        if self.len == 0 {
            (self.oldest, self.due) = (level as u8, e.pos.saturating_add(self.max_window));
        }
        self.len += 1;
    }

    /// The clock entries a window behind expire against when it moves to
    /// `to`; one further under `--cfg dst_mutation`, never in real builds:
    /// the planted off-by-one tests/dst_mutation.rs must catch.
    #[inline(always)]
    fn horizon(to: u64) -> u64 {
        to + cfg!(dst_mutation) as u64
    }

    /// [`Ladder::advance`] at one width. The sweep reads the slots before
    /// the clock moves: after a jump of `2^32 + 5` an entry 5 positions
    /// old would read as live again against the new clock.
    #[inline(always)]
    fn advance<P: Stamp, W: Weight>(&mut self, s: &[Slot<P, W>], to: u64) -> Option<Entry<W>> {
        let horizon = Core::horizon(to);
        let due = horizon >= self.due;
        let expired = due.then(|| self.sweep(s, horizon)).flatten();
        self.pos = to;
        expired
    }

    /// Pop every level front expired at `horizon` (none at 0), move the
    /// boundary to the newest, and find the oldest entry left: O(L).
    #[inline(never)]
    fn sweep<P: Stamp, W: Weight>(&mut self, s: &[Slot<P, W>], horizon: u64) -> Option<Entry<W>> {
        let (mut newest, mut oldest) = (None::<Entry<W>>, ((u64::MAX, u64::MAX), 0));
        for level in 0..self.num_levels {
            while let Some(e) = self.get(s, level, 0) {
                // Age against the window, not `pos + max_window` against
                // the horizon: that sum overflows within a window of
                // `u64::MAX`, where a saturated `due` still sweeps.
                if horizon.saturating_sub(e.pos) < self.max_window {
                    oldest = oldest.min((e.key(), level));
                    break;
                }
                self.pop(s, level);
                newest = max_by_key(newest, Some(e), |e| e.map(|e| e.key()));
            }
        }
        (self.oldest, self.due) = (oldest.1 as u8, oldest.0 .0.saturating_add(self.max_window));
        self.boundary = newest.map_or(self.boundary, |e| e.cum);
        newest
    }

    /// [`Ladder::insert`] at one width.
    #[inline(always)]
    fn insert<P: Stamp, W: Weight>(
        &mut self,
        s: &mut [Slot<P, W>],
        level: u32,
        v: u64,
    ) -> Option<Entry<W>> {
        let level = level.min(self.num_levels - 1);
        let full = self.rings[level as usize].is_full(self.cap(level));
        let evicted = full.then(|| self.pop(s, level));
        if full && level == self.oldest as u32 {
            self.sweep(s, 0);
        }
        self.total += v;
        let e = Entry {
            pos: self.pos,
            weight: W::of(v),
            cum: self.total,
        };
        self.place(s, level, e);
        evicted
    }
}

impl<W: Weight> Ladder<W> {
    /// An empty ladder for windows of up to `max_window` positions with
    /// `ceil(log2(2 * span / k))` levels — `span` bounds what one window
    /// can total — of `lower_cap` entries each and `k + 1` at the top.
    /// The caller has validated `1 <= k <= 2^32` and
    /// `1 <= max_window, span <= 2^62`. `None`, before anything is
    /// allocated, when a `u32` slot index cannot address that many
    /// slots: the constructors refuse the `eps`, the decoders the `k`.
    pub(crate) fn new(
        max_window: u64,
        k: u64,
        span: u64,
        lower_cap: u64,
        positions: Positions,
    ) -> Option<Self> {
        let num_levels = wave_levels(span, k);
        let slots = (num_levels as u64 - 1) * lower_cap + k + 1;
        if slots >= 1 << 31 {
            return None;
        }
        let counter_bits = ModRing::for_window(max_window.max(span)).counter_bits();
        Some(Ladder {
            core: Core {
                max_window,
                k,
                pos: 0,
                total: 0,
                boundary: 0,
                oldest: 0,
                due: u64::MAX,
                num_levels,
                lower_cap: lower_cap as u32,
                len: 0,
                counter_bits: counter_bits as u8,
                positions,
                rings: vec![Ring::default(); num_levels as usize].into_boxed_slice(),
            },
            slab: if positions == Positions::Sequence && counter_bits <= 32 {
                Slab::Narrow(vec![Slot::default(); slots as usize].into())
            } else {
                Slab::Wide(vec![Slot::default(); slots as usize].into())
            },
        })
    }

    pub(crate) fn max_window(&self) -> u64 {
        self.core.max_window
    }

    pub(crate) fn k(&self) -> u64 {
        self.core.k
    }

    pub(crate) fn num_levels(&self) -> u32 {
        self.core.num_levels
    }

    #[inline]
    pub(crate) fn pos(&self) -> u64 {
        self.core.pos
    }

    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.core.total
    }

    pub(crate) fn boundary(&self) -> u64 {
        self.core.boundary
    }

    /// Number of entries currently stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.core.len as usize
    }

    /// Stored entries with the level that holds each, oldest first: the
    /// queues merged by key. `next` (on the stack: at most 63 levels)
    /// holds each level's next entry by key, the smallest last.
    pub(crate) fn leveled(&self) -> impl Iterator<Item = (u32, Entry<W>)> + '_ {
        let c = &self.core;
        let get = move |level, i| at_width!(&self.slab, s => c.get(s, level, i));
        let (mut next, mut taken) = ([(0, Entry::default()); 64], [0u32; 64]);
        // File `level`'s next entry among the `left` already in `next`.
        let mut file = move |next: &mut [(u32, Entry<W>); 64], left: usize, level: u32| {
            let Some(e) = get(level, taken[level as usize]) else {
                return left;
            };
            taken[level as usize] += 1;
            let mut at = left;
            while at > 0 && next[at - 1].1.key() < e.key() {
                next[at] = next[at - 1];
                at -= 1;
            }
            next[at] = (level, e);
            left + 1
        };
        let mut left = (0..c.num_levels).fold(0, |left, level| file(&mut next, left, level));
        std::iter::from_fn(move || {
            left = left.checked_sub(1)?;
            let (level, e) = next[left];
            left = file(&mut next, left, level);
            Some((level, e))
        })
    }

    /// Stored entries, oldest first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = Entry<W>> + '_ {
        self.leveled().map(|(_, e)| e)
    }

    /// Move the clock to `to >= pos` and expire every entry that has
    /// left the maximum window. Returns the newest entry expired, now
    /// the boundary.
    ///
    /// `inline(always)`, as are [`Ladder::insert`] and the [`Core`]
    /// methods under them but the sweep: one push body per wave. Left to
    /// the inliner they stay out of line, and a batch that stores every 1
    /// runs a sixth slower (`DetWave::push_words`, 2 100 -> 2 540 ns).
    #[inline(always)]
    pub(crate) fn advance(&mut self, to: u64) -> Option<Entry<W>> {
        at_width!(&mut self.slab, s => self.core.advance(s, to))
    }

    /// Store the item at the clock: add `v` to the running total and
    /// append an entry to the queue of `level` (clamped to the top one),
    /// first discarding that queue's oldest entry if it is full — steps
    /// 3(b)–(c) of Figures 4 and 5, O(1) worst case: the discarded
    /// entry's slot is the new entry's. Returns the entry discarded, if
    /// any.
    #[inline(always)]
    pub(crate) fn insert(&mut self, level: u32, v: u64) -> Option<Entry<W>> {
        at_width!(&mut self.slab, s => self.core.insert(s, level, v))
    }

    /// Behind every window query, for a window from position `s`: the
    /// total before it (`cum` of the newest entry before `s`, else the
    /// boundary) and the oldest entry at or after `s`.
    pub(crate) fn straddle(&self, s: u64) -> (u64, Option<Entry<W>>) {
        let c = &self.core;
        // The full window's in O(1): no entry is older than the oldest.
        let oldest = at_width!(&self.slab, slots => c.get(slots, c.oldest as u32, 0));
        if oldest.is_none_or(|e| s <= e.pos) {
            return (c.boundary, oldest);
        }
        let (mut before, mut first) = (c.boundary, None::<Entry<W>>);
        at_width!(&self.slab, slots => for level in 0..c.num_levels {
            let pos = |i| slots[c.slot(level, i)].pos.full(c.pos);
            // A queue whose front is in the window needs no search.
            let (mut i, mut len) = (0, if pos(0) < s { c.rings[level as usize].len } else { 0 });
            while len > 1 {
                let half = len / 2;
                i += half * (pos(i + half) < s) as u32;
                len -= half;
            }
            i += (len == 1 && pos(i) < s) as u32;
            // Totals rise with the key: the newest before `s` has the largest.
            let last = i.checked_sub(1).and_then(|i| c.get(slots, level, i));
            before = before.max(last.map_or(0, |e| e.cum));
            let next = c.get(slots, level, i);
            if next.is_some_and(|e| first.is_none_or(|f| e.key() < f.key())) { first = next }
        });
        (before, first)
    }

    /// The wave's whole encoding: each of `params` gamma-coded, then
    /// [`Ladder::encode_body`], in a buffer sized once at a word an
    /// entry — twice what the served bit waves take; a hint, not a bound:
    /// a sum wave of large values outgrows it and the buffer grows.
    pub(crate) fn encode(&self, params: &[u64]) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(64 + 8 * self.len());
        for &p in params {
            w.write_gamma(p);
        }
        self.encode_body(&mut w);
        w.finish()
    }

    /// Append everything after the parameter header to `w`: gamma-coded
    /// counters, delta-coded positions and running totals, then each
    /// entry's weight and level, in one pass of the merged queues:
    /// positions to `w`, the rest to side writers appended after it.
    pub(crate) fn encode_body(&self, w: &mut BitWriter) {
        let c = &self.core;
        w.write_gamma0(c.pos);
        w.write_gamma0(c.total);
        w.write_gamma0(c.boundary);
        w.write_gamma0(c.len as u64);
        let mut cums = BitWriter::with_capacity(4 * self.len());
        let mut rest = BitWriter::with_capacity(2 * self.len());
        let mut prev = (0, 0);
        for (level, e) in self.leveled() {
            w.write_gamma(e.pos - prev.0 + 1);
            cums.write_gamma(e.cum - prev.1 + 1);
            e.weight.write(&mut rest);
            rest.write_gamma0(level as u64);
            prev = e.key();
        }
        w.append(&cums);
        w.append(&rest);
    }

    /// Fill an empty ladder from [`Ladder::encode_body`] output, holding
    /// every field to the invariants the queries compute with — a
    /// decoded ladder never answers `lo > hi`, whatever the bytes. No
    /// entry weighs more than `max_weight`.
    pub(crate) fn decode_body(
        &mut self,
        r: &mut BitReader<'_>,
        max_weight: u64,
    ) -> Result<(), CodecError> {
        let c = &mut self.core;
        let sequence = c.positions == Positions::Sequence;
        let (now, total) = (r.read_gamma0()?, r.read_gamma0()?);
        c.boundary = r.read_gamma0()?;
        let reachable = if sequence {
            now.saturating_mul(max_weight).min(1 << 62)
        } else {
            1 << 62
        };
        if now > 1 << 62 || total > reachable || c.boundary > total {
            return Err(CodecError::Corrupt("counters inconsistent"));
        }
        // What expired arrived a window ago or earlier.
        if sequence && c.boundary > now.saturating_sub(c.max_window).saturating_mul(max_weight) {
            return Err(CodecError::Corrupt("boundary inside the window"));
        }
        (c.pos, c.total) = (now, total);
        let count = r.read_gamma0()?;
        at_width!(&mut self.slab, s => {
            // Before anything is reserved on the header's word.
            if count > s.len() as u64 {
                return Err(CodecError::Corrupt("more entries than slots"));
            }
            // One scratch for both delta runs: the positions, then the
            // running totals after them.
            let count = count as usize;
            let mut runs = Vec::with_capacity(2 * count);
            read_deltas_into(r, count, &mut runs)?;
            read_deltas_into(r, count, &mut runs)?;
            let (entry_pos, entry_cum) = runs.split_at(count);
            let mut prev = (0, c.boundary);
            for (&pos, &cum) in entry_pos.iter().zip(entry_cum) {
                let weight = W::read(r)?;
                let level = r.read_gamma0()?;
                if level >= c.num_levels as u64 {
                    return Err(CodecError::Corrupt("level out of range"));
                }
                let v = weight.get();
                // One item a position, so at most `max_weight` a position
                // arrived through an entry and after it: what the narrow
                // slots rest on.
                let reach = |positions: u64| match sequence {
                    true => positions.saturating_mul(max_weight),
                    false => u64::MAX,
                };
                if pos > now || cum > total || v > max_weight || v > cum
                    || cum > reach(pos) || total - cum > reach(now - pos)
                {
                    return Err(CodecError::Corrupt("entry beyond counters"));
                }
                // A real wave expires on every push.
                if now - pos >= c.max_window {
                    return Err(CodecError::Corrupt("entry already expired"));
                }
                // The total before an entry is at least the total through
                // its predecessor (the expired boundary, for the first):
                // the estimators subtract one from the other.
                if cum - v < prev.1 || (sequence && pos == prev.0) {
                    return Err(CodecError::Corrupt("entries not increasing"));
                }
                prev = (pos, cum);
                let level = level as u32;
                if c.rings[level as usize].is_full(c.cap(level)) {
                    return Err(CodecError::Corrupt("level queue overflow"));
                }
                c.place(s, level, Entry { pos, weight, cum });
            }
        });
        Ok(())
    }

    /// Space accounting for a wave of `inline_bytes` (its `size_of`)
    /// whose paper encoding keeps `counters` mod-N' counters; the slab
    /// and the rings are all a ladder allocates.
    pub(crate) fn space_report(&self, inline_bytes: usize, counters: u64) -> SpaceReport {
        let slab_bytes = at_width!(&self.slab, s => std::mem::size_of_val(&**s));
        SpaceReport {
            resident_bytes: inline_bytes + slab_bytes + std::mem::size_of_val(&*self.core.rings),
            synopsis_bits: counters * self.core.counter_bits as u64
                + delta_coded_bits(self.entries().map(|e| e.pos))
                + delta_coded_bits(self.entries().map(|e| e.cum))
                + self
                    .entries()
                    .map(|e| e.weight.extra_bits(self.core.num_levels))
                    .sum::<u64>(),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
/// Well-formed bytes, impossible wave, for the sum codecs' tests: after
/// the header `params` and `k = 4`, entries `(p=1, v=10, z=10)` and
/// `(p=5, v=10, z=11)` — the second item claims 10 units of which only 1
/// arrived after the first. Decoded, `query(8)` would bracket the sum in
/// `[19, 10]`.
pub(crate) fn overlapping_sum_entries(params: &[u64]) -> Vec<u8> {
    use crate::codec::write_deltas;
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
mod exhaustive;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{rank_level, sum_level};
    use proptest::prelude::*;

    #[test]
    fn entry_shapes_keep_their_sizes() {
        use std::mem::size_of;
        // The narrow bit slot is what every served key pays per stored 1.
        assert_eq!(size_of::<Slot<u32, ()>>(), 8);
        assert_eq!(size_of::<Slot<u64, ()>>(), 16);
        assert_eq!(size_of::<Slot<u32, u64>>(), 16);
        assert_eq!(size_of::<Slot<u64, u64>>(), 24);
        assert_eq!(size_of::<Ring>(), 8);
        assert!(size_of::<crate::DetWave>() <= 144);
    }

    /// `k = 2^32` passes `k_for_eps` and `read_k` but asks for more
    /// slots than a `u32` slot index addresses: every ladder wave refuses it
    /// with a typed error — its constructor the `eps`, its decoder the
    /// header `γ(params) γ(2^32)` and four `γ0(0)` — instead of
    /// panicking in `Ladder::new`. Still open: a `k` between about 2^20
    /// and 2^31 passes and reserves gigabytes up front; the lazy slab of
    /// ROADMAP item 8 is what bounds that, so no `k` here is in it.
    #[test]
    fn a_k_the_slot_index_cannot_address_is_refused() {
        use crate::codec::BitWriter;
        use crate::{DetWave, NthRecentWave, SumWave, TimestampSumWave, TimestampWave};
        let forged = |params: &[u64]| {
            let mut w = BitWriter::new();
            for &p in params.iter().chain(&[1 << 32]) {
                w.write_gamma(p);
            }
            (0..4).for_each(|_| w.write_gamma0(0));
            w.finish()
        };
        let bad_k = Err(CodecError::Corrupt("bad k"));
        assert_eq!(DetWave::decode(&forged(&[16])).map(|_| ()), bad_k);
        assert_eq!(SumWave::decode(&forged(&[16, 1])).map(|_| ()), bad_k);
        assert_eq!(TimestampWave::decode(&forged(&[16, 16])).map(|_| ()), bad_k);
        let bytes = forged(&[16, 16, 1]);
        assert_eq!(TimestampSumWave::decode(&bytes).map(|_| ()), bad_k);

        let eps = 2f64.powi(-32);
        let refused = Err(WaveError::InvalidEpsilon(eps));
        assert_eq!(DetWave::new(16, eps).map(|_| ()), refused);
        assert_eq!(SumWave::new(16, 1, eps).map(|_| ()), refused);
        assert_eq!(TimestampWave::new(16, 16, eps).map(|_| ()), refused);
        assert_eq!(TimestampSumWave::new(16, 16, 1, eps).map(|_| ()), refused);
        assert_eq!(NthRecentWave::new(16, eps).map(|_| ()), refused);
    }

    #[test]
    fn straddle_splits_the_chain_at_a_position() {
        // k = 2, span 8: 3 levels of capacity 2, 2, 3.
        let mut l: Ladder<u64> = Ladder::new(8, 2, 8, 2, Positions::Sequence).unwrap();
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

    #[test]
    fn a_count_above_the_slots_is_refused_before_it_is_reserved() {
        // k = 2, span 8: 7 slots. Counters, a count, then 1-bits enough
        // that the reader alone would read on (`gamma(1)` deltas).
        let body = |count: u64| {
            let mut w = BitWriter::new();
            for counter in [10, 10, 0, count] {
                w.write_gamma0(counter); // pos, total, r1, entries
            }
            let mut bytes = w.finish();
            bytes.extend([0xFF; 64]);
            bytes
        };
        let decode = |count: u64| {
            let mut l: Ladder<()> = Ladder::new(8, 2, 8, 2, Positions::Sequence).unwrap();
            l.decode_body(&mut BitReader::new(&body(count)), 1)
        };
        for count in [8, 1 << 16, 1 << 40, u64::MAX - 1] {
            assert_eq!(
                decode(count),
                Err(CodecError::Corrupt("more entries than slots")),
                "{count}"
            );
        }
        // Seven fit the slab and are refused for what they say instead.
        assert_eq!(decode(7), Err(CodecError::Corrupt("entry beyond counters")));
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// One item of this value (a bit ladder takes its low bit).
        Push(u64),
        /// This many valueless positions at once.
        Skip(u64),
        /// Continue on the ladder's decoded encoding.
        Recode,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        const JUMPS: [u64; 6] = [(1 << 32) - 1, 1 << 32, (1 << 32) + 5, 1 << 33, 1 << 40, 63];
        prop::collection::vec(
            prop_oneof![
                12 => (0u64..=9).prop_map(Op::Push),
                3 => (0u64..80).prop_map(Op::Skip),
                1 => (0usize..6).prop_map(|i: usize| Op::Skip(JUMPS[i])),
                1 => Just(Op::Recode),
            ],
            1..400,
        )
    }

    /// An empty ladder on wide slots whatever its `N'`: the reference
    /// the narrow arithmetic is held to.
    fn widened<W: Weight>(mut l: Ladder<W>) -> Ladder<W> {
        assert_eq!(l.len(), 0);
        l.slab = Slab::Wide(vec![Slot::default(); at_width!(&l.slab, s => s.len())].into());
        l
    }

    fn body<W: Weight>(l: &Ladder<W>) -> Vec<u8> {
        let mut w = BitWriter::new();
        l.encode_body(&mut w);
        w.finish()
    }

    /// Run `ops` on a narrow ladder and on the same ladder widened: one
    /// encoding and one answer to every walk, at every step.
    fn narrow_matches_wide<W: Weight + PartialEq + std::fmt::Debug>(
        fresh: impl Fn() -> Ladder<W>,
        max_weight: u64,
        level: impl Fn(u64, u64) -> u32,
        ops: &[Op],
    ) {
        let (mut narrow, mut wide) = (fresh(), widened(fresh()));
        assert!(matches!(narrow.slab, Slab::Narrow(_)) && matches!(wide.slab, Slab::Wide(_)));
        for (step, op) in ops.iter().enumerate() {
            for l in [&mut narrow, &mut wide] {
                match *op {
                    Op::Push(v) => {
                        let v = v % (max_weight + 1);
                        l.advance(l.pos() + 1);
                        if v > 0 {
                            l.insert(level(l.total(), v), v);
                        }
                    }
                    Op::Skip(n) => {
                        l.advance(l.pos() + n);
                    }
                    Op::Recode => {
                        let bytes = body(l);
                        let mut again = fresh();
                        if matches!(l.slab, Slab::Wide(_)) {
                            again = widened(again);
                        }
                        again
                            .decode_body(&mut BitReader::new(&bytes), max_weight)
                            .unwrap_or_else(|e| panic!("step {step}: {e}"));
                        *l = again;
                    }
                }
            }
            assert_eq!(body(&narrow), body(&wide), "step {step}: {op:?}");
            let view = |(before, e): (u64, Option<Entry<W>>)| {
                (before, e.map(|e| (e.pos, e.weight, e.cum)))
            };
            for back in [0, 1, narrow.max_window() / 2, narrow.max_window() - 1] {
                let s = narrow.pos().saturating_sub(back);
                assert_eq!(
                    view(narrow.straddle(s)),
                    view(wide.straddle(s)),
                    "step {step}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Narrow and wide slots are the same ladder, for both entry
        /// shapes, across expiry, eviction, whole-window jumps past
        /// `2^32` and the codec.
        #[test]
        fn narrow_and_wide_slots_are_one_ladder(
            ops in ops(),
            k in 1u64..=6,
            n in 1u64..=70,
            r in 1u64..=9,
        ) {
            narrow_matches_wide(
                || Ladder::<()>::new(n, k, n, (k + 1).div_ceil(2), Positions::Sequence).unwrap(),
                1,
                |rank, _| rank_level(rank + 1),
                &ops,
            );
            narrow_matches_wide(
                || Ladder::<u64>::new(n, k, n * r, k + 1, Positions::Sequence).unwrap(),
                r,
                sum_level,
                &ops,
            );
        }
    }
}
