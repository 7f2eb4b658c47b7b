//! The bit waves' batch rule: of a batch's 1s, store those Figure 4 could
//! still hold at its end or could have evicted an older entry with. A
//! batch of over four queues of 1s, no longer than the window, empties
//! the levels it evicts whole ([`Core::evict_ahead`], a reset of their
//! rings: no entry outside them points at theirs), then stores each
//! rank of a stride-1 zone and each multiple of `2^j` of a strided one
//! ([`Core::stride_zone`]), found by rank ([`Ranks`]). A batch longer
//! than the window is pushed a window's whole words at a time, since in
//! it an entry of its own could expire; any other batch stores every 1
//! it scans.
//!
//! The push's body — the gate's popcount, the rank walk and
//! [`Ranks::find`] — is written once, generic over how it selects a 1
//! in a word, and built twice ([`Kernel`]): portable, with the
//! broadword [`select_in_word`], and on x86-64 compiled for popcnt,
//! BMI1 and BMI2, where every popcount is one `popcnt` and the select
//! is `tzcnt(pdep(1 << n, x))`. `push_ones` runs the build chosen on
//! the process's first push: BMI2 where the host reports popcnt, BMI1
//! and BMI2 and is not an AMD core before Zen 3 (family 0x19; Zen 1/2
//! are family 0x17, Hygon's Dhyana 0x18), which microcode `pdep` at
//! tens of cycles; portable everywhere else. The call into the BMI2
//! build is this crate's one `unsafe` block outside tests.

use super::{Core, Ladder, Ring, Slab, Slot, Stamp, Weight};
use crate::{bits::BitsRef, level::rank_level};
use std::sync::OnceLock;

impl Core {
    /// Empty the levels a batch of `ones` 1s ending at `until` evicts
    /// whole, a prefix `0..eager`, and return `eager`: level `l` when the
    /// batch brings a queue's worth of its arrivals (`lower_cap << (l + 1)
    /// <= ones`) and its oldest entry outlives the batch, never the top.
    /// Per-bit pushes would evict these before they expire, so the
    /// boundary stays. Emptying resets rings, then finds the oldest entry.
    fn evict_ahead<P: Stamp, W: Weight>(&mut self, s: &[Slot<P, W>], ones: u64, until: u64) -> u32 {
        let mut eager = 0;
        while eager + 1 < self.num_levels && (self.lower_cap as u64) << (eager + 1) <= ones {
            match self.get(s, eager, 0) {
                Some(e) if e.pos + self.max_window <= Core::horizon(until) => break,
                _ => eager += 1,
            }
        }
        let emptied = &mut self.rings[..eager as usize];
        self.len -= emptied.iter().map(|r| r.len).sum::<u32>();
        emptied.fill(Ring::default());
        if (self.oldest as u32) < eager {
            self.sweep(s, 0);
        }
        eager
    }

    /// The zone of a batch's ranks `(first, end]` that starts at `rank`,
    /// with levels `0..eager` emptied: the mask a rank of the zone must
    /// clear to be stored, and the zone's last rank.
    ///
    /// A level below the top sees a rank every `2^(level + 1)`. So an
    /// entry of level `l` with `b` ranks of the batch after it is evicted
    /// by later arrivals of its level exactly when `lower_cap << (l + 1)
    /// <= b`. It is passed over when it evicts nothing either: its level
    /// was emptied, or its `a` ranks before it have `lower_cap << (l + 1)
    /// <= a`. With `j` the largest shift with `lower_cap << j <= m`, for
    /// `m = min(b, max(a, lower_cap << eager))`, that is every rank but
    /// the multiples of `2^j`. `j` stops at the top level, of another
    /// spacing and capacity, which is never strided.
    fn stride_zone(&self, first: u64, rank: u64, end: u64, eager: u32) -> (u64, u64) {
        let lower = self.lower_cap as u64;
        let m = (rank - first - 1).max(lower << eager).min(end - rank);
        let j = if m < 2 * lower {
            0
        } else {
            // `lower << j` is within a factor of two of `m`.
            let j = m.ilog2() - lower.ilog2();
            (j - (lower << j > m) as u32).min(self.num_levels - 1)
        };
        // The zone ends where the next stride up starts, if it starts
        // ahead and has a rank to cover; else where this one runs out of
        // later arrivals.
        let (rise, fall) = (
            first + 1 + (lower << (j + 1)),
            end.saturating_sub(lower << (j + 1)),
        );
        let zone_end = if j + 1 < self.num_levels && rank < rise && rise <= fall {
            rise - 1
        } else if j == 0 {
            end
        } else {
            end - (lower << j)
        };
        ((1 << j) - 1, zone_end)
    }
}

/// `SELECT_IN_BYTE[r][b]`: the bit index of the 1 of rank `r` (from 0,
/// lowest first) in the byte `b`, or 8 if `b` has no more than `r` 1s.
const SELECT_IN_BYTE: [[u8; 256]; 8] = {
    let (mut table, mut b) = ([[8; 256]; 8], 0);
    while b < 256 {
        let (mut bit, mut rank) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[rank][b] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// The bit index of the 1 of rank `n` (from 0, lowest first) in `x`,
/// for `n < x.count_ones()`, branch-free: byte popcounts summed up the
/// word by one multiply, the bytes wholly below counted by a compare of
/// every byte at once and a second multiply, the 1 looked up in its byte.
#[inline]
fn select_in_word(x: u64, n: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(n < x.count_ones() as u64);
    let pairs = x - (x >> 1 & 0x5555_5555_5555_5555);
    let nibbles = (pairs & 0x3333_3333_3333_3333) + (pairs >> 2 & 0x3333_3333_3333_3333);
    let bytes = (nibbles + (nibbles >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte `i`: the 1s in bytes `0..=i`, at most 64, so no byte carries.
    let ranks = bytes.wrapping_mul(ONES);
    // Byte `i`'s high bit: its running count is at most `n` (< 64).
    let cleared = (((n * ONES) | HIGHS) - ranks) & HIGHS;
    let shift = ((cleared >> 7).wrapping_mul(ONES) >> 56) * 8;
    // The 1s below byte `shift / 8`, and the rank of ours inside it.
    let below = ranks << 8 >> shift & 0xFF;
    let byte = x >> shift & 0xFF;
    shift + SELECT_IN_BYTE[(n - below) as usize][byte as usize] as u64
}

/// [`select_in_word`] by BMI2: `pdep` deposits a lone 1 at the place of
/// `x`'s 1 of rank `n`, and `tzcnt` reads its index.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi1,bmi2")]
#[inline]
fn select_pdep(x: u64, n: u64) -> u64 {
    use std::arch::x86_64::{_pdep_u64, _tzcnt_u64};
    debug_assert!(n < x.count_ones() as u64);
    _tzcnt_u64(_pdep_u64(1 << n, x))
}

/// A build of the batch push: the portable one, or on x86-64 the one
/// compiled for popcnt + BMI1 + BMI2, which only [`Kernel::bmi2`]
/// makes, on a host that runs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Kernel {
    bmi2: bool,
}

impl Kernel {
    pub(crate) const PORTABLE: Kernel = Kernel { bmi2: false };

    /// The BMI2 build, where this host runs popcnt, BMI1 and BMI2.
    pub(crate) fn bmi2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("popcnt")
            && is_x86_feature_detected!("bmi1")
            && is_x86_feature_detected!("bmi2")
        {
            return Some(Kernel { bmi2: true });
        }
        None
    }

    /// The build `push_ones` runs, chosen once a process: BMI2 where the
    /// host has it and `pdep` is not microcoded, else the portable one.
    fn chosen() -> Kernel {
        static CHOSEN: OnceLock<Kernel> = OnceLock::new();
        *CHOSEN.get_or_init(|| match Kernel::bmi2() {
            #[cfg(target_arch = "x86_64")]
            Some(bmi2) if !slow_pdep() => bmi2,
            _ => Kernel::PORTABLE,
        })
    }

    /// Every build this host runs, the portable one first. A host
    /// without BMI2 says that its build is skipped.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Kernel> {
        let bmi2 = Kernel::bmi2();
        if bmi2.is_none() {
            eprintln!("skipped: this host has no popcnt + BMI2 batch kernel");
        }
        [Some(Kernel::PORTABLE), bmi2]
            .into_iter()
            .flatten()
            .collect()
    }

    /// This build's in-word select, called on its own.
    #[cfg(test)]
    fn select(self, x: u64, n: u64) -> u64 {
        match self.bmi2 {
            // SAFETY: only `Kernel::bmi2` sets `bmi2`, after finding the
            // BMI1 and BMI2 that `select_pdep` is compiled for.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            true => unsafe { select_pdep(x, n) },
            _ => select_in_word(x, n),
        }
    }
}

/// Whether this host's `pdep` is microcoded ([`microcoded_pdep`]).
#[cfg(target_arch = "x86_64")]
fn slow_pdep() -> bool {
    use std::arch::x86_64::__cpuid;
    let id = __cpuid(0);
    microcoded_pdep([id.ebx, id.edx, id.ecx], __cpuid(1).eax)
}

/// Whether the core `cpuid` names (leaf 0's `vendor` string, as ebx,
/// edx, ecx) and describes (leaf 1's `signature`, eax) is an AMD or
/// Hygon core before Zen 3, family 0x19: they run `pdep` in microcode,
/// a step per 1 of the mask, slower than the portable select.
#[cfg(target_arch = "x86_64")]
fn microcoded_pdep(vendor: [u32; 3], signature: u32) -> bool {
    let family = match signature >> 8 & 0xF {
        0xF => 0xF + (signature >> 20 & 0xFF),
        base => base,
    };
    let vendor = vendor.map(u32::to_le_bytes);
    matches!(vendor.as_flattened(), b"AuthenticAMD" | b"HygonGenuine") && family < 0x19
}

/// Ranks this close in one word are found by clearing the 1s between.
const NEAR: u64 = 8;

/// Finds a batch's 1s by rank, asked in increasing order, with a word
/// cursor that only moves forward, counting the 1s it passes, and an
/// in-word select. Bits past the batch's end sit above all its 1s, so
/// no rank reaches them.
#[derive(Default)]
struct Ranks<'a> {
    words: &'a [u64],
    /// The cursor's word, and the batch's 1s before it.
    at: usize,
    before: u64,
    /// The last rank found, and the 1s of its word after it.
    last: u64,
    rest: u64,
}

impl Ranks<'_> {
    /// The batch offset of its 1 of rank `rank` (from 1), for a rank
    /// past the last one asked and no more than the batch's 1s; `select`
    /// is the build's [`select_in_word`].
    #[inline(always)]
    fn find(&mut self, rank: u64, select: impl Fn(u64, u64) -> u64) -> u64 {
        let skip = rank - self.last - 1;
        self.last = rank;
        if skip < NEAR {
            let mut rest = self.rest;
            for _ in 0..skip {
                rest &= rest.wrapping_sub(1);
            }
            if rest != 0 {
                self.rest = rest & (rest - 1);
                return 64 * self.at as u64 + rest.trailing_zeros() as u64;
            }
        }
        loop {
            let x = self.words[self.at];
            let through = self.before + x.count_ones() as u64;
            if through >= rank {
                let bit = select(x, rank - 1 - self.before);
                self.rest = x & !(u64::MAX >> (63 - bit));
                return 64 * self.at as u64 + bit;
            }
            (self.at, self.before) = (self.at + 1, through);
        }
    }
}

impl Ladder<()> {
    /// The bit waves' batch push: each 1 the batch rule keeps, oldest
    /// first, moves the clock over everything since the last one stored
    /// and is inserted at its rank's level, so older entries go in per-bit
    /// order and the state, boundary included, is what per-bit pushes
    /// leave. A batch longer than the window goes in a window at a time,
    /// each piece a whole number of words, so every piece is asked the
    /// batch rule. Runs the [`Kernel`] chosen for this host. Returns the
    /// number of entries stored.
    pub(crate) fn push_ones(&mut self, bits: BitsRef<'_>) -> u64 {
        self.push_ones_with(Kernel::chosen(), bits)
    }

    /// [`Ladder::push_ones`] on `kernel`.
    pub(crate) fn push_ones_with(&mut self, kernel: Kernel, bits: BitsRef<'_>) -> u64 {
        let piece = (self.core.max_window / 64) as usize;
        if bits.len() <= self.core.max_window || piece == 0 {
            return self.push_piece(kernel, bits);
        }
        let words = bits.words();
        (0..words.len()).step_by(piece).fold(0, |stored, at| {
            let len = (bits.len() - 64 * at as u64).min(64 * piece as u64);
            let words = &words[at..(at + piece).min(words.len())];
            stored + self.push_piece(kernel, BitsRef::new(words, len))
        })
    }

    fn push_piece(&mut self, kernel: Kernel, bits: BitsRef<'_>) -> u64 {
        match kernel.bmi2 {
            // SAFETY: only `Kernel::bmi2` sets `bmi2`, after finding the
            // popcnt, BMI1 and BMI2 that `push_bmi2` is compiled for.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            true => unsafe { self.push_bmi2(bits) },
            _ => self.push_with(bits, select_in_word),
        }
    }

    /// The batch push built for popcnt, BMI1 and BMI2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt,bmi1,bmi2")]
    fn push_bmi2(&mut self, bits: BitsRef<'_>) -> u64 {
        self.push_with(bits, |x, n| select_pdep(x, n))
    }

    /// A piece of a batch, its 1s found in a word by `select`: the one
    /// body both builds inline.
    #[inline(always)]
    fn push_with(&mut self, bits: BitsRef<'_>, select: impl Fn(u64, u64) -> u64) -> u64 {
        let (first, start) = (self.core.total, self.core.pos);
        let four = 4 * self.core.lower_cap as u64;
        let ones = (four < bits.len() && bits.len() <= self.core.max_window)
            .then(|| bits.count_ones())
            .filter(|&ones| ones > four);
        let c = &mut self.core;
        at_width!(&mut self.slab, s => {
            let stored = match ones {
                None => {
                    for (i, (word, _)) in bits.chunks().enumerate() {
                        let (mut rest, at) = (word, start + 64 * i as u64);
                        while rest != 0 {
                            c.advance(s, at + rest.trailing_zeros() as u64 + 1);
                            c.insert(s, rank_level(c.total + 1), 1);
                            rest &= rest - 1;
                        }
                    }
                    c.total - first
                }
                Some(ones) => {
                    let eager = c.evict_ahead(s, ones, start + bits.len());
                    let mut ranks = Ranks { words: bits.words(), ..Ranks::default() };
                    let (end, mut rank, mut stored) = (first + ones, first + 1, 0);
                    while rank <= end {
                        let (mask, zone_end) = c.stride_zone(first, rank, end, eager);
                        debug_assert!(rank <= zone_end && zone_end <= end);
                        // The zone's multiples of the stride, from its first.
                        let mut r = (rank + mask) & !mask;
                        while r <= zone_end {
                            c.total = r - 1;
                            c.advance(s, start + ranks.find(r - first, &select) + 1);
                            c.insert(s, rank_level(r), 1);
                            (r, stored) = (r + mask + 1, stored + 1);
                        }
                        rank = zone_end + 1;
                    }
                    c.total = end;
                    stored
                }
            };
            c.advance(s, start + bits.len());
            stored
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::Positions;
    use super::*;
    use crate::bits::Bits;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A batch's work, counted beside the stopwatch: the entries it
    /// stored.
    #[test]
    fn a_batch_stores_what_could_outlast_it_and_no_more() {
        use crate::bits::Bits;
        let (n, k) = (1u64 << 14, 20u64);
        let lower = (k + 1).div_ceil(2);
        let fresh = || Ladder::<()>::new(n, k, n, lower, Positions::Sequence).unwrap();
        // A batch of under four queues of 1s is never asked what to pass
        // over: every one is stored, wherever the ranks start.
        for ones in [0, 1, lower, 4 * lower - 1] {
            let batch = Bits::from_bools(&[true, false, false].repeat(ones as usize));
            let mut l = fresh();
            for _ in 0..5 {
                assert_eq!(l.push_ones(batch.as_ref()), ones);
            }
        }
        // A window of 1s leaves at most a queue at each end of each
        // level's arrivals — the same count on every run, for it is a
        // function of the ranks alone.
        let window = Bits::from_bools(&vec![true; n as usize]);
        let slots = (fresh().num_levels() as u64 - 1) * lower + k + 1;
        let runs = [(); 2].map(|()| {
            let mut l = fresh();
            [(); 3].map(|()| l.push_ones(window.as_ref()))
        });
        assert_eq!(runs[0], runs[1]);
        for stored in runs[0] {
            assert!(stored <= 2 * slots, "{stored} stored in {slots} slots");
        }
    }

    /// A batch longer than the window is asked the batch rule a window
    /// at a time: a dense two-window batch stores about what two
    /// one-window batches store, not each of its 1s.
    #[test]
    fn a_batch_past_the_window_stores_per_window() {
        use crate::bits::Bits;
        let (n, k) = (1u64 << 14, 20u64);
        let lower = (k + 1).div_ceil(2);
        let fresh = || Ladder::<()>::new(n, k, n, lower, Positions::Sequence).unwrap();
        let slots = (fresh().num_levels() as u64 - 1) * lower + k + 1;
        let mut rng = StdRng::seed_from_u64(7);
        for len in [2 * n, 2 * n + 37, 5 * n - 1] {
            let batch = (0..len).map(|_| rng.gen_bool(0.5)).collect::<Bits>();
            let mut l = fresh();
            let stored = l.push_ones(batch.as_ref());
            let windows = len.div_ceil(n);
            assert!(
                stored <= 2 * slots * windows,
                "{stored} stored for a {len}-bit batch, {slots} slots"
            );
        }
    }

    /// A long batch stores exactly the entries it leaves behind: with
    /// the levels it evicts whole emptied first, nothing it stores is
    /// evicted before it ends. Waves filled past one window at the
    /// served shapes, then, after every batch, the count `push_ones`
    /// returns against the entries newer than the batch's start.
    #[test]
    fn a_long_batch_stores_what_it_leaves_behind() {
        use crate::bits::Bits;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // `engine_dense` and `referee_push`: (N, k, bits a batch, density).
        for (n, k, len, density) in [(65_536, 20, 4_096, 0.5), (65_536, 10, 256, 0.3)] {
            let mut l =
                Ladder::<()>::new(n, k, n, (k + 1).div_ceil(2), Positions::Sequence).unwrap();
            let mut rng = StdRng::seed_from_u64(len);
            let mut batch = || (0..len).map(|_| rng.gen_bool(density)).collect::<Bits>();
            while l.pos() <= n {
                l.push_ones(batch().as_ref());
            }
            let (mut batches, mut differed) = (0, 0);
            while l.pos() <= 3 * n {
                let start = l.pos();
                let stored = l.push_ones(batch().as_ref());
                let left = l.entries().filter(|e| e.pos > start).count() as u64;
                (batches, differed) = (batches + 1, differed + (stored != left) as u32);
            }
            assert_eq!(differed, 0, "N={n} k={k}: {differed} of {batches} batches");
        }
    }

    #[test]
    fn select_in_byte_is_a_bit_scan() {
        for (rank, row) in SELECT_IN_BYTE.iter().enumerate() {
            for (b, &at) in row.iter().enumerate() {
                let ones: Vec<u8> = (0..8).filter(|&i| b >> i & 1 == 1).collect();
                let want = ones.get(rank).copied().unwrap_or(8);
                assert_eq!(at, want, "byte {b:#04x}, rank {rank}");
            }
        }
    }

    /// The per-bit scan the selects are held to: the offsets of the 1s
    /// of `x`, lowest first.
    fn scan(x: u64) -> Vec<u64> {
        (0..64).filter(|&i| x >> i & 1 == 1).collect()
    }

    /// Every build's select against the scan.
    fn select_matches_scan(x: u64) {
        for kernel in Kernel::all() {
            for (n, &at) in scan(x).iter().enumerate() {
                let found = kernel.select(x, n as u64);
                assert_eq!(found, at, "{kernel:?}: x = {x:#018x}, n = {n}");
            }
        }
    }

    #[test]
    fn select_in_word_finds_the_edge_words_like_a_bit_scan() {
        let edges = [1, 1 << 63, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 1 | 1 << 63];
        // A full byte at each byte position, on its own.
        let bytes = (0..8).map(|i| 0xFF << (8 * i));
        // A batch's last word of 1 to 63 bits, its tail masked.
        let tails = (1..64).map(|len| u64::MAX >> (64 - len));
        for x in edges.into_iter().chain(bytes).chain(tails) {
            select_matches_scan(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Words of every density: about 8, 32 and 56 1s of 64.
        #[test]
        fn select_in_word_finds_random_words_like_a_bit_scan(
            a in any::<u64>(),
            b in any::<u64>(),
            c in any::<u64>(),
        ) {
            for x in [a & b & c, a, a | b | c] {
                select_matches_scan(x);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The builds store the same entries: from one wave, a few
        /// batches of up to two windows whose ends fall inside a word, at
        /// densities from sparse to all 1s, each pushed on every build,
        /// return the same count and leave the same state.
        #[test]
        fn every_kernel_stores_what_the_portable_one_stores(
            n in 64u64..=2_048,
            k in 2u64..=24,
            prefix in 0u64..=3_000,
            density in 0.02f64..=1.0,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lower = (k + 1).div_ceil(2);
            let mut wave = Ladder::<()>::new(n, k, n, lower, Positions::Sequence).unwrap();
            let head = (0..prefix).map(|_| rng.gen_bool(0.5)).collect::<Bits>();
            wave.push_ones_with(Kernel::PORTABLE, head.as_ref());
            let kernels = Kernel::all();
            let mut runs = vec![wave; kernels.len()];
            for _ in 0..4 {
                let len = rng.gen_range(1..=2 * n);
                let len = len + u64::from(len.is_multiple_of(64));
                let batch = (0..len).map(|_| rng.gen_bool(density)).collect::<Bits>();
                let stored: Vec<u64> = kernels
                    .iter()
                    .copied()
                    .zip(&mut runs)
                    .map(|(kernel, wave)| wave.push_ones_with(kernel, batch.as_ref()))
                    .collect();
                for (run, &count) in runs.iter().zip(&stored) {
                    prop_assert_eq!(count, stored[0], "{} bits", len);
                    prop_assert!(run.same_state(&runs[0]), "{} bits", len);
                }
            }
        }
    }

    /// The dispatch rule's family decode, on `cpuid` signatures of
    /// real cores: Excavator (0x15), Zen 2 (0x17) and Hygon's Dhyana
    /// (0x18) microcode `pdep`; Zen 3 and 4 (0x19), Zen 5 (0x1A) and
    /// Intel's cores do not.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn pdep_is_microcoded_on_amd_before_zen_3() {
        let vendor = |name: &[u8; 12]| {
            [0, 4, 8].map(|at| u32::from_le_bytes(name[at..at + 4].try_into().unwrap()))
        };
        let (amd, hygon, intel) = (
            vendor(b"AuthenticAMD"),
            vendor(b"HygonGenuine"),
            vendor(b"GenuineIntel"),
        );
        for (vendor, signature, slow) in [
            (amd, 0x0066_0F01, true),
            (amd, 0x0083_0F10, true),
            (hygon, 0x0090_0F01, true),
            (amd, 0x00A0_0F11, false),
            (amd, 0x00A1_0F11, false),
            (amd, 0x00B4_0F40, false),
            (intel, 0x0005_06E3, false),
            (intel, 0x000B_06A2, false),
        ] {
            assert_eq!(microcoded_pdep(vendor, signature), slow, "{signature:#x}");
        }
    }

    /// [`Ranks::find`] against a bit-by-bit scan of the batch, for ranks
    /// a fixed stride apart — inside [`NEAR`], at it and past it, one
    /// word apart and many — and for random gaps, over batches of up to
    /// 141 words whose last word carries junk past the batch's end.
    #[test]
    fn ranks_finds_what_a_bit_scan_finds() {
        let mut rng = StdRng::seed_from_u64(43);
        for (len, density) in [(1, 1.0), (63, 0.5), (64, 1.0), (4_097, 0.5), (9_001, 0.02)] {
            let batch: Vec<bool> = (0..len).map(|_| rng.gen_bool(density)).collect();
            let mut words = Bits::from_bools(&batch).words().to_vec();
            if len % 64 > 0 {
                *words.last_mut().unwrap() |= u64::MAX << (len % 64);
            }
            let ones: Vec<u64> = (0..len).filter(|&i| batch[i as usize]).collect();
            let gaps = (0..ones.len())
                .map(|_| rng.gen_range(1..=20))
                .collect::<Vec<usize>>();
            let strided = [1, 2, 7, 8, 9, 31, 64, 200].map(|stride| vec![stride; ones.len()]);
            for kernel in Kernel::all() {
                for steps in strided.iter().chain([&gaps]) {
                    let mut ranks = Ranks {
                        words: &words,
                        ..Ranks::default()
                    };
                    let mut rank = 0;
                    for &step in steps {
                        rank += step;
                        let Some(&at) = ones.get(rank - 1) else { break };
                        let found = ranks.find(rank as u64, |x, n| kernel.select(x, n));
                        assert_eq!(found, at, "{kernel:?}: {len} bits, rank {rank}");
                    }
                }
            }
        }
    }
}
