//! Packed bit buffers: the batch currency of the ingest path.
//!
//! A [`Bits`] is an owned, growable bit buffer stored as `u64` words
//! with an exact bit length; [`BitsRef`] is the borrowed view
//! (`&[u64]` + length) that the synopses consume via
//! [`crate::traits::BitSynopsis::push_words`]. Bits are **LSB-first
//! within each word**: stream bit `i` lives at `words[i / 64]` bit
//! `i % 64`, so `trailing_zeros` walks a word in stream order and
//! `count_ones` counts stream 1s — 64 bits per instruction instead of
//! one `bool` per byte.
//!
//! The unused high bits of the final word are always zero (the *clean
//! tail* invariant). Every constructor enforces it, so word-level
//! comparisons, hashing, and `count_ones` need no masking.
//!
//! # Byte encoding
//!
//! The wire protocol (v4) and the WAL both serialize a bit buffer as
//! its words in order, each as 8 **little-endian** bytes — so the byte
//! stream is simply the bit stream, LSB-first, zero-padded to a word
//! boundary. [`Bits::write_le_bytes`] / [`Bits::from_le_bytes`] are
//! that encoding; both sides of the wire and the recovery scan share
//! them, which is what keeps WAL records byte-identical to wire
//! entries.
//!
//! ```
//! use waves_core::bits::Bits;
//!
//! let b: Bits = [true, false, true, true].into();
//! assert_eq!(b.len(), 4);
//! assert_eq!(b.count_ones(), 3);
//! assert_eq!(b.iter().collect::<Vec<bool>>(), vec![true, false, true, true]);
//! ```

/// Number of `u64` words needed to hold `len` bits.
#[inline]
pub const fn word_count(len: u64) -> usize {
    (len as usize).div_ceil(64)
}

/// Serialized byte length of a `len`-bit buffer (whole words, 8 bytes
/// each).
#[inline]
pub const fn byte_count(len: u64) -> usize {
    word_count(len) * 8
}

/// An owned, growable packed bit buffer. See the module docs for the
/// layout and invariants.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bits {
    words: Vec<u64>,
    len: u64,
}

impl Bits {
    /// An empty buffer.
    pub fn new() -> Self {
        Bits::default()
    }

    /// An empty buffer with room for `bits` bits before reallocating.
    pub fn with_capacity(bits: u64) -> Self {
        Bits {
            words: Vec::with_capacity(word_count(bits)),
            len: 0,
        }
    }

    /// Pack a bool slice (the legacy batch currency).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut words = vec![0u64; word_count(bools.len() as u64)];
        for (i, &b) in bools.iter().enumerate() {
            if b {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        Bits {
            words,
            len: bools.len() as u64,
        }
    }

    /// Adopt pre-packed words holding exactly `len` bits. Surplus words
    /// are dropped, missing words are zero-filled, and the tail of the
    /// last word is masked clean, so the result always satisfies the
    /// invariants regardless of the input's slop.
    pub fn from_words(mut words: Vec<u64>, len: u64) -> Self {
        words.resize(word_count(len), 0);
        mask_tail(&mut words, len);
        Bits { words, len }
    }

    /// Decode [`Bits::write_le_bytes`] output: `byte_count(len)` bytes
    /// of little-endian words. Returns `None` when `bytes` is not
    /// exactly that long. The tail is masked, so untrusted input cannot
    /// smuggle set bits past `len`.
    pub fn from_le_bytes(bytes: &[u8], len: u64) -> Option<Self> {
        if bytes.len() != byte_count(len) {
            return None;
        }
        let mut words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().unwrap()))
            .collect();
        mask_tail(&mut words, len);
        Some(Bits { words, len })
    }

    /// Serialize as whole little-endian words (see the module docs).
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        self.as_ref().write_le_bytes(out);
    }

    /// Bit length.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, tail already clean.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of 1-bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Bit `i` (panics when `i >= len`, like slice indexing).
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Append one bit.
    pub fn push(&mut self, b: bool) {
        let slot = (self.len / 64) as usize;
        if slot == self.words.len() {
            self.words.push(0);
        }
        if b {
            self.words[slot] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Borrow as a [`BitsRef`].
    pub fn as_ref(&self) -> BitsRef<'_> {
        BitsRef {
            words: &self.words,
            len: self.len,
        }
    }

    /// Iterate bits oldest-first.
    pub fn iter(&self) -> BitsIter<'_> {
        self.as_ref().iter()
    }

    /// Unpack into the legacy bool-slice currency.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl From<&[bool]> for Bits {
    fn from(bools: &[bool]) -> Self {
        Bits::from_bools(bools)
    }
}

impl From<Vec<bool>> for Bits {
    fn from(bools: Vec<bool>) -> Self {
        Bits::from_bools(&bools)
    }
}

impl From<&Vec<bool>> for Bits {
    fn from(bools: &Vec<bool>) -> Self {
        Bits::from_bools(bools)
    }
}

impl<const N: usize> From<[bool; N]> for Bits {
    fn from(bools: [bool; N]) -> Self {
        Bits::from_bools(&bools)
    }
}

impl<const N: usize> From<&[bool; N]> for Bits {
    fn from(bools: &[bool; N]) -> Self {
        Bits::from_bools(bools)
    }
}

impl FromIterator<bool> for Bits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bits = Bits::new();
        for b in iter {
            bits.push(b);
        }
        bits
    }
}

impl Extend<bool> for Bits {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// A borrowed view over packed words with an exact bit length.
///
/// Constructed via [`Bits::as_ref`] or [`BitsRef::new`]. Reads mask the
/// final word defensively, so a view over words with a dirty tail still
/// observes only the first `len` bits.
#[derive(Debug, Clone, Copy)]
pub struct BitsRef<'a> {
    words: &'a [u64],
    len: u64,
}

impl<'a> BitsRef<'a> {
    /// View `len` bits over `words`. Panics unless `words` is exactly
    /// `word_count(len)` long (the serialized shape).
    pub fn new(words: &'a [u64], len: u64) -> Self {
        assert_eq!(words.len(), word_count(len), "word count mismatch");
        BitsRef { words, len }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (the final word may carry junk past `len`;
    /// use [`BitsRef::chunks`] for masked reads).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of 1-bits among the first `len` bits: the whole words in
    /// one branch-free sum, which the compiler vectorizes, and the final
    /// word masked.
    pub fn count_ones(&self) -> u64 {
        let whole = (self.len / 64) as usize;
        let tail = match self.len % 64 {
            0 => 0,
            r => (self.words[whole] & ((1 << r) - 1)).count_ones() as u64,
        };
        self.words[..whole]
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum::<u64>()
            + tail
    }

    /// Bit `i` (panics when `i >= len`).
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Iterate `(word, bits_in_word)` pairs oldest-first, the final
    /// word masked to its valid bits — the scan surface every
    /// `push_words` implementation is written against.
    pub fn chunks(&self) -> impl Iterator<Item = (u64, u32)> + 'a {
        let (words, len) = (self.words, self.len);
        words.iter().enumerate().map(move |(i, &w)| {
            let remaining = len - (i as u64) * 64;
            if remaining >= 64 {
                (w, 64u32)
            } else {
                (w & ((1u64 << remaining) - 1), remaining as u32)
            }
        })
    }

    /// Iterate bits oldest-first.
    pub fn iter(&self) -> BitsIter<'a> {
        BitsIter {
            view: *self,
            next: 0,
        }
    }

    /// Call `f(gap)` once per 1-bit, in stream order, with the number of
    /// zeros since the previous 1 (or the start), and return the zeros
    /// after the last 1. One `trailing_zeros` per 1-bit, O(1) per
    /// all-zero word — the scan loop under [`BitsRef::scan_runs`], which
    /// every `push_words` but `DetWave`'s is written on.
    #[inline]
    pub fn scan_ones(&self, mut f: impl FnMut(u64)) -> u64 {
        let mut zeros = 0u64;
        for (word, n) in self.chunks() {
            let mut rest = word;
            let mut next = 0u32;
            while rest != 0 {
                let tz = rest.trailing_zeros();
                f(zeros + (tz - next) as u64);
                zeros = 0;
                next = tz + 1;
                rest &= rest - 1;
            }
            zeros += (n - next) as u64;
        }
        zeros
    }

    /// [`BitsRef::scan_ones`] as maximal runs: `Run::Zeros(n)` for each
    /// maximal run of `n > 0` zeros (merged across word boundaries) and
    /// `Run::One` per 1-bit, in stream order.
    pub fn scan_runs(&self, mut f: impl FnMut(Run)) {
        let tail = self.scan_ones(|gap| {
            if gap > 0 {
                f(Run::Zeros(gap));
            }
            f(Run::One);
        });
        if tail > 0 {
            f(Run::Zeros(tail));
        }
    }

    /// Copy into an owned [`Bits`] (tail masked clean).
    pub fn to_owned_bits(&self) -> Bits {
        let mut words = self.words.to_vec();
        mask_tail(&mut words, self.len);
        Bits {
            words,
            len: self.len,
        }
    }

    /// Serialize as whole little-endian words (see the module docs).
    /// Words are staged through a 64-byte buffer so the output vector
    /// pays one bounds/capacity check per eight words, not per word.
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        let Some((&last, full)) = self.words.split_last() else {
            return;
        };
        out.reserve(self.words.len() * 8);
        let mut buf = [0u8; 64];
        for chunk in full.chunks(8) {
            for (i, &w) in chunk.iter().enumerate() {
                buf[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&buf[..chunk.len() * 8]);
        }
        // Only the final word can carry junk past `len`; mask it.
        let rem = self.len - (self.words.len() as u64 - 1) * 64;
        let mask = if rem >= 64 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        };
        out.extend_from_slice(&(last & mask).to_le_bytes());
    }
}

impl<'a> From<&'a Bits> for BitsRef<'a> {
    fn from(bits: &'a Bits) -> Self {
        bits.as_ref()
    }
}

impl PartialEq for BitsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.chunks().eq(other.chunks())
    }
}

impl Eq for BitsRef<'_> {}

/// One maximal run from [`BitsRef::scan_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// A maximal run of this many zeros (always > 0).
    Zeros(u64),
    /// A single 1-bit.
    One,
}

/// Iterator over the bits of a [`BitsRef`], oldest first.
#[derive(Debug, Clone)]
pub struct BitsIter<'a> {
    view: BitsRef<'a>,
    next: u64,
}

impl Iterator for BitsIter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.next >= self.view.len {
            return None;
        }
        let b = self.view.get(self.next);
        self.next += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.view.len - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BitsIter<'_> {}

fn mask_tail(words: &mut [u64], len: u64) {
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_bools(seed: u64, len: usize, m: u64, lt: u64) -> Vec<bool> {
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
    fn from_bools_roundtrips_every_boundary_length() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            let bools = lcg_bools(len as u64 + 1, len, 3, 1);
            let bits = Bits::from_bools(&bools);
            assert_eq!(bits.len(), len as u64);
            assert_eq!(bits.words().len(), word_count(len as u64));
            assert_eq!(bits.to_bools(), bools, "len={len}");
            assert_eq!(
                bits.count_ones(),
                bools.iter().filter(|&&b| b).count() as u64
            );
        }
    }

    #[test]
    fn push_matches_from_bools() {
        let bools = lcg_bools(7, 321, 2, 1);
        let mut pushed = Bits::new();
        for &b in &bools {
            pushed.push(b);
        }
        assert_eq!(pushed, Bits::from_bools(&bools));
        let collected: Bits = bools.iter().copied().collect();
        assert_eq!(collected, pushed);
    }

    #[test]
    fn from_words_masks_and_resizes() {
        // Dirty tail bits beyond len must be cleared.
        let b = Bits::from_words(vec![u64::MAX], 3);
        assert_eq!(b.words(), &[0b111]);
        assert_eq!(b.count_ones(), 3);
        // Surplus and missing words are normalized.
        assert_eq!(Bits::from_words(vec![1, 2, 3], 64).words(), &[1]);
        assert_eq!(Bits::from_words(vec![], 65).words(), &[0, 0]);
        // Equality is structural, so normalization makes these equal.
        assert_eq!(
            Bits::from_words(vec![u64::MAX], 3),
            Bits::from_bools(&[true, true, true])
        );
    }

    #[test]
    fn le_bytes_roundtrip_and_reject_bad_length() {
        for len in [0u64, 1, 63, 64, 65, 130] {
            let bools = lcg_bools(len + 9, len as usize, 2, 1);
            let bits = Bits::from_bools(&bools);
            let mut bytes = Vec::new();
            bits.write_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), byte_count(len));
            assert_eq!(Bits::from_le_bytes(&bytes, len).unwrap(), bits, "len={len}");
            if len > 0 {
                assert!(Bits::from_le_bytes(&bytes[..bytes.len() - 1], len).is_none());
                assert!(Bits::from_le_bytes(&bytes, len + 64).is_none());
            }
        }
        // A dirty serialized tail is masked on decode.
        let b = Bits::from_le_bytes(&[0xFF; 8], 3).unwrap();
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn byte_stream_is_lsb_first() {
        // Bit i of the stream is bit i%8 of byte i/8.
        let mut bools = vec![false; 16];
        bools[0] = true; // byte 0, bit 0 -> 0x01
        bools[9] = true; // byte 1, bit 1 -> 0x02
        let mut bytes = Vec::new();
        Bits::from_bools(&bools).write_le_bytes(&mut bytes);
        assert_eq!(&bytes[..2], &[0x01, 0x02]);
    }

    #[test]
    fn chunks_mask_the_final_word() {
        let bools = vec![true; 70];
        let bits = Bits::from_bools(&bools);
        let chunks: Vec<(u64, u32)> = bits.as_ref().chunks().collect();
        assert_eq!(chunks, vec![(u64::MAX, 64), (0b11_1111, 6)]);
        // A dirty borrowed tail is invisible through chunks()/iter().
        let dirty = [u64::MAX];
        let view = BitsRef::new(&dirty, 3);
        assert_eq!(view.count_ones(), 3);
        assert_eq!(view.iter().collect::<Vec<bool>>(), vec![true; 3]);
        assert_eq!(view.to_owned_bits().words(), &[0b111]);
        // Past whole words too, and at a word's end.
        let dirty = [u64::MAX; 3];
        for len in [65, 128, 190] {
            let view = BitsRef::new(&dirty[..word_count(len)], len);
            assert_eq!(view.count_ones(), len);
        }
    }

    #[test]
    fn scan_runs_reconstructs_the_stream() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 500] {
            for (m, lt) in [(2, 1), (100, 1), (10, 9)] {
                let bools = lcg_bools(len as u64 * 31 + m, len, m, lt);
                let bits = Bits::from_bools(&bools);
                let mut rebuilt = Vec::new();
                bits.as_ref().scan_runs(|run| match run {
                    Run::Zeros(n) => {
                        assert!(n > 0);
                        rebuilt.extend(std::iter::repeat_n(false, n as usize));
                    }
                    Run::One => rebuilt.push(true),
                });
                assert_eq!(rebuilt, bools, "len={len} density={lt}/{m}");
            }
        }
        // An all-zero buffer is a single merged run.
        let mut runs = Vec::new();
        Bits::from_bools(&[false; 130])
            .as_ref()
            .scan_runs(|r| runs.push(r));
        assert_eq!(runs, vec![Run::Zeros(130)]);
    }

    #[test]
    fn conversions_compile_and_agree() {
        let slice: &[bool] = &[true, false];
        let a: Bits = slice.into();
        let b: Bits = vec![true, false].into();
        let c: Bits = [true, false].into();
        let d: Bits = (&[true, false]).into();
        assert!(a == b && b == c && c == d);
        let r: BitsRef<'_> = (&a).into();
        assert_eq!(r, b.as_ref());
    }

    #[test]
    fn empty_views_behave() {
        let b = Bits::new();
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter().count(), 0);
        assert_eq!(b.as_ref().chunks().count(), 0);
        let mut bytes = Vec::new();
        b.write_le_bytes(&mut bytes);
        assert!(bytes.is_empty());
    }
}
