//! Bit-level serialization of wave synopses.
//!
//! The paper's space bounds assume a compact encoding: counters stored
//! modulo `N'`, positions delta-coded between consecutive entries. This
//! module makes that encoding a real wire format, so a party can ship
//! its synopsis (or a query report) to the Referee in the number of bits
//! the accounting promises, and the Referee can reconstruct a queryable
//! synopsis on the other side.
//!
//! Gamma codes are used for the variable-length integers: `gamma(x)` for
//! `x >= 1` writes `floor(log2 x)` zero bits, then the binary digits of
//! `x` (MSB first) — `2*floor(log2 x) + 1` bits, matching
//! [`crate::space::elias_gamma_bits`] exactly.
//!
//! In push mode a party encodes on every ship and the Referee decodes on
//! every install, so both ends move a field at a time, not a bit.
//! [`BitWriter`] shifts each field into a 64-bit accumulator and flushes
//! it as eight big-endian bytes when it fills; a gamma code is one such
//! field (`x` itself, its own leading zeros the prefix), two past 32
//! digits. [`BitReader`] loads the 64 bits at its cursor big-endian and
//! shifts; a gamma's prefix is that word's `leading_zeros`. The format
//! is the per-bit loops' byte for byte — they are kept, under
//! `#[cfg(test)]`, as the reference a differential test holds these to.

use crate::error::WaveError;
use std::fmt;

/// Errors from decoding a serialized synopsis.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Ran off the end of the buffer.
    UnexpectedEnd,
    /// A decoded field violated an invariant (e.g. non-monotone
    /// positions, level out of range).
    Corrupt(&'static str),
    /// The decoded parameters are invalid for synopsis construction.
    BadParams(WaveError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::Corrupt(what) => write!(f, "corrupt synopsis: {what}"),
            CodecError::BadParams(e) => write!(f, "bad parameters: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WaveError> for CodecError {
    fn from(e: WaveError) -> Self {
        CodecError::BadParams(e)
    }
}

/// MSB-first bit writer: whole 64-bit words in `buf`, the bits after
/// them left-aligned in `acc`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    /// Bits held in `acc` (0..64).
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.used as u64
    }

    /// Finish and return the byte buffer (zero-padded to a byte).
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.used.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.buf
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, b: bool) {
        self.write_bits(b as u64, 1);
    }

    /// Write the low `width` bits of `v`, MSB first. `width <= 64`.
    #[inline]
    pub fn write_bits(&mut self, v: u64, width: u32) {
        assert!(width <= 64);
        if width == 0 {
            return;
        }
        let v = v & (u64::MAX >> (64 - width));
        let free = 64 - self.used;
        if width < free {
            self.acc |= v << (free - width);
            self.used += width;
        } else {
            // The field fills the word: its high `free` bits complete
            // it, its low `spill` bits start the next.
            let spill = width - free;
            let word = self.acc | (v >> spill);
            self.buf.extend_from_slice(&word.to_be_bytes());
            // `v << (64 - spill)`, and 0 when nothing spills.
            self.acc = (v << 1) << (63 - spill);
            self.used = spill;
        }
    }

    /// Write `x >= 1` as an Elias-gamma code.
    #[inline]
    pub fn write_gamma(&mut self, x: u64) {
        assert!(x >= 1, "gamma codes positive integers");
        let bits = 64 - x.leading_zeros(); // bit length of x
        if bits <= 32 {
            // The zeros above `x` are the prefix.
            self.write_bits(x, 2 * bits - 1);
        } else {
            self.write_bits(0, bits - 1);
            self.write_bits(x, bits);
        }
    }

    /// Write any `x >= 0` as gamma of `x + 1`.
    #[inline]
    pub fn write_gamma0(&mut self, x: u64) {
        self.write_gamma(x + 1);
    }

    /// Write every bit of `other` after the bits already here.
    pub(crate) fn append(&mut self, other: &BitWriter) {
        for word in other.buf.chunks_exact(8) {
            self.write_bits(u64::from_be_bytes(word.try_into().expect("8 bytes")), 64);
        }
        if other.used > 0 {
            self.write_bits(other.acc >> (64 - other.used), other.used);
        }
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: u64, // bit cursor
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits left to read.
    fn remaining(&self) -> u64 {
        self.buf.len() as u64 * 8 - self.pos
    }

    /// The 64 bits at the cursor, zeros past the end of the buffer: one
    /// big-endian load, and the byte after it for what the cursor's
    /// offset into its byte shifts out.
    #[inline]
    fn peek(&self) -> u64 {
        let (byte, off) = ((self.pos / 8) as usize, (self.pos % 8) as u32);
        match self.buf.get(byte..byte + 9) {
            Some(nine) => Self::window(nine.try_into().expect("9 bytes"), off),
            None => self.peek_tail(byte, off),
        }
    }

    /// [`BitReader::peek`] within nine bytes of the end.
    #[cold]
    fn peek_tail(&self, byte: usize, off: u32) -> u64 {
        let (mut nine, tail) = ([0u8; 9], &self.buf[byte..]);
        nine[..tail.len()].copy_from_slice(tail);
        Self::window(&nine, off)
    }

    #[inline]
    fn window(nine: &[u8; 9], off: u32) -> u64 {
        let word = u64::from_be_bytes(nine[..8].try_into().expect("8 bytes"));
        (word << off) | (nine[8] as u64 >> (8 - off))
    }

    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        assert!(width <= 64);
        if width as u64 > self.remaining() {
            return Err(CodecError::UnexpectedEnd);
        }
        if width == 0 {
            return Ok(0);
        }
        let v = self.peek() >> (64 - width);
        self.pos += width as u64;
        Ok(v)
    }

    #[inline]
    pub fn read_gamma(&mut self) -> Result<u64, CodecError> {
        let (window, remaining) = (self.peek(), self.remaining());
        let zeros = window.leading_zeros();
        if zeros == 64 && remaining >= 64 {
            return Err(CodecError::Corrupt("gamma prefix too long"));
        }
        // The prefix's 1 and the `zeros` digits after it.
        let len = 2 * zeros as u64 + 1;
        if len > remaining {
            return Err(CodecError::UnexpectedEnd);
        }
        if len <= 64 {
            self.pos += len;
            Ok(window >> (64 - len))
        } else {
            self.pos += zeros as u64;
            self.read_bits(zeros + 1)
        }
    }

    #[inline]
    pub fn read_gamma0(&mut self) -> Result<u64, CodecError> {
        Ok(self.read_gamma()? - 1)
    }
}

/// Encode a strictly increasing (or nondecreasing) sequence as gamma
/// deltas, with an implicit previous value of 0.
pub fn write_deltas(w: &mut BitWriter, sorted: &[u64]) {
    let mut prev = 0u64;
    for &x in sorted {
        debug_assert!(x >= prev);
        w.write_gamma(x - prev + 1);
        prev = x;
    }
}

/// Decode `count` gamma deltas into the original sequence.
///
/// A gamma is at least one bit, so a `count` above the bits left is
/// refused before anything is reserved (and the reservation is capped:
/// a long input may still lie about its count); the accumulation is
/// checked so adversarial deltas yield `Corrupt` instead of overflow.
pub fn read_deltas(r: &mut BitReader<'_>, count: usize) -> Result<Vec<u64>, CodecError> {
    let mut out = Vec::new();
    read_deltas_into(r, count, &mut out)?;
    Ok(out)
}

/// [`read_deltas`], appending to `out`.
pub(crate) fn read_deltas_into(
    r: &mut BitReader<'_>,
    count: usize,
    out: &mut Vec<u64>,
) -> Result<(), CodecError> {
    if count as u64 > r.remaining() {
        return Err(CodecError::UnexpectedEnd);
    }
    out.reserve(count.min(1 << 16));
    let mut prev = 0u64;
    for _ in 0..count {
        let d = r.read_gamma()?;
        prev = prev
            .checked_add(d - 1)
            .ok_or(CodecError::Corrupt("delta overflow"))?;
        out.push(prev);
    }
    Ok(())
}

/// The writer and reader as they were before the accumulator — a
/// `Vec::push` and a div, a mod and a bounds check per bit — kept as the
/// reference the word-at-a-time ones above are held to.
#[cfg(test)]
mod reference {
    use super::CodecError;

    #[derive(Default)]
    pub struct BitWriter {
        buf: Vec<u8>,
        /// Free bits in the final byte (0 means byte-aligned).
        free: u32,
    }

    impl BitWriter {
        pub fn bit_len(&self) -> u64 {
            self.buf.len() as u64 * 8 - self.free as u64
        }

        pub fn finish(self) -> Vec<u8> {
            self.buf
        }

        pub fn write_bit(&mut self, b: bool) {
            if self.free == 0 {
                self.buf.push(0);
                self.free = 8;
            }
            if b {
                *self.buf.last_mut().expect("just pushed") |= 1 << (self.free - 1);
            }
            self.free -= 1;
        }

        pub fn write_bits(&mut self, v: u64, width: u32) {
            assert!(width <= 64);
            for i in (0..width).rev() {
                self.write_bit((v >> i) & 1 == 1);
            }
        }

        pub fn write_gamma(&mut self, x: u64) {
            assert!(x >= 1);
            let bits = 64 - x.leading_zeros();
            for _ in 0..bits - 1 {
                self.write_bit(false);
            }
            self.write_bits(x, bits);
        }
    }

    pub struct BitReader<'a> {
        buf: &'a [u8],
        pos: u64,
    }

    impl<'a> BitReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            BitReader { buf, pos: 0 }
        }

        pub fn bit_pos(&self) -> u64 {
            self.pos
        }

        pub fn read_bit(&mut self) -> Result<bool, CodecError> {
            let byte = (self.pos / 8) as usize;
            if byte >= self.buf.len() {
                return Err(CodecError::UnexpectedEnd);
            }
            let bit = 7 - (self.pos % 8) as u32;
            self.pos += 1;
            Ok((self.buf[byte] >> bit) & 1 == 1)
        }

        pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
            assert!(width <= 64);
            let mut v = 0u64;
            for _ in 0..width {
                v = (v << 1) | self.read_bit()? as u64;
            }
            Ok(v)
        }

        pub fn read_gamma(&mut self) -> Result<u64, CodecError> {
            let mut zeros = 0u32;
            while !self.read_bit()? {
                zeros += 1;
                if zeros > 63 {
                    return Err(CodecError::Corrupt("gamma prefix too long"));
                }
            }
            let rest = self.read_bits(zeros)?;
            Ok((1u64 << zeros) | rest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
    }

    #[test]
    fn gamma_roundtrip_and_length() {
        let mut w = BitWriter::new();
        let values = [1u64, 2, 3, 4, 5, 100, 255, 256, 1 << 40];
        for &v in &values {
            let before = w.bit_len();
            w.write_gamma(v);
            assert_eq!(
                w.bit_len() - before,
                crate::space::elias_gamma_bits(v),
                "gamma length for {v}"
            );
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &v in &values {
            assert_eq!(r.read_gamma().unwrap(), v);
        }
    }

    #[test]
    fn gamma0_covers_zero() {
        let mut w = BitWriter::new();
        w.write_gamma0(0);
        w.write_gamma0(7);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_gamma0().unwrap(), 0);
        assert_eq!(r.read_gamma0().unwrap(), 7);
    }

    #[test]
    fn deltas_roundtrip() {
        let seq = vec![3u64, 3, 10, 11, 500, 500, 501];
        let mut w = BitWriter::new();
        write_deltas(&mut w, &seq);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(read_deltas(&mut r, seq.len()).unwrap(), seq);
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = BitWriter::new();
        w.write_gamma(1 << 20);
        let mut buf = w.finish();
        buf.truncate(1);
        let mut r = BitReader::new(&buf);
        assert!(matches!(r.read_gamma(), Err(CodecError::UnexpectedEnd)));
    }

    #[test]
    fn empty_input_errors() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn a_count_above_the_bits_left_is_refused_before_it_is_reserved() {
        // Six bytes that say "2^40 deltas follow".
        let bytes = [0xFF; 6];
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_deltas(&mut r, 1 << 40), Err(CodecError::UnexpectedEnd));
        assert_eq!(read_deltas(&mut r, 49), Err(CodecError::UnexpectedEnd));
        assert_eq!(r.bit_pos(), 0, "refused before a bit is read");
        assert_eq!(read_deltas(&mut r, 48), Ok(vec![0; 48]));
    }

    /// One writer call, applied to the word-at-a-time writer and to the
    /// per-bit reference alike.
    #[derive(Debug, Clone, Copy)]
    enum Put {
        Bit(bool),
        Bits(u64, u32),
        Gamma(u64),
    }

    /// One reader call.
    #[derive(Debug, Clone, Copy)]
    enum Take {
        Bit,
        Bits(u32),
        Gamma,
    }

    /// Both writers produce the same bytes for `puts`, and agree on the
    /// bit count after each.
    fn writers_agree(puts: &[Put]) -> Vec<u8> {
        let (mut new, mut old) = (BitWriter::new(), reference::BitWriter::default());
        for &put in puts {
            match put {
                Put::Bit(b) => (new.write_bit(b), old.write_bit(b)),
                Put::Bits(v, width) => (new.write_bits(v, width), old.write_bits(v, width)),
                Put::Gamma(x) => (new.write_gamma(x), old.write_gamma(x)),
            };
            assert_eq!(new.bit_len(), old.bit_len(), "after {put:?}");
        }
        let bytes = new.finish();
        assert_eq!(bytes, old.finish(), "{puts:?}");
        bytes
    }

    /// Both readers answer `takes` on `bytes` alike: the same values,
    /// the same cursor after each, the same error at the first failure
    /// (where the comparison stops: the cursor after an `Err` is not
    /// part of the contract).
    fn readers_agree(bytes: &[u8], takes: &[Take]) {
        let (mut new, mut old) = (BitReader::new(bytes), reference::BitReader::new(bytes));
        for (i, &take) in takes.iter().enumerate() {
            let (got, want) = match take {
                Take::Bit => (new.read_bit().map(u64::from), old.read_bit().map(u64::from)),
                Take::Bits(width) => (new.read_bits(width), old.read_bits(width)),
                Take::Gamma => (new.read_gamma(), old.read_gamma()),
            };
            assert_eq!(
                got, want,
                "take {i} ({take:?}) of {takes:?} on {bytes:02x?}"
            );
            if got.is_err() {
                return;
            }
            assert_eq!(new.bit_pos(), old.bit_pos(), "after take {i} ({take:?})");
        }
    }

    #[test]
    fn every_width_at_every_bit_offset() {
        for offset in 0..8 {
            for width in (0..=64).filter(|w| *w == 0 || *w >= 57) {
                for v in [u64::MAX, 0, 0xA5A5_5A5A_C3C3_3C3C, 1, 1 << 63] {
                    let puts = [Put::Bits(0x2B, offset), Put::Bits(v, width), Put::Bit(true)];
                    let bytes = writers_agree(&puts);
                    let takes = [Take::Bits(offset), Take::Bits(width), Take::Bit, Take::Bit];
                    readers_agree(&bytes, &takes);
                    let mut r = BitReader::new(&bytes);
                    r.read_bits(offset).unwrap();
                    let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
                    assert_eq!(r.read_bits(width), Ok(v & mask), "{width} bits at {offset}");
                }
            }
        }
    }

    #[test]
    fn gamma_prefixes_at_the_64_zero_edge() {
        for offset in 0..8 {
            // 63 zeros then a 1: the widest legal prefix, a value >= 2^63.
            for x in [1 << 63, u64::MAX, (1 << 63) | 0x1234_5678] {
                let bytes = writers_agree(&[Put::Bits(0x7F, offset), Put::Gamma(x)]);
                readers_agree(&bytes, &[Take::Bits(offset), Take::Gamma, Take::Bit]);
                let mut r = BitReader::new(&bytes);
                r.read_bits(offset).unwrap();
                assert_eq!(r.read_gamma(), Ok(x));
                assert_eq!(r.bit_pos(), offset as u64 + 127);
                // Every truncation of it runs off the end.
                for cut in 0..bytes.len() {
                    readers_agree(&bytes[..cut], &[Take::Bits(offset), Take::Gamma]);
                    if cut > 0 {
                        let mut r = BitReader::new(&bytes[..cut]);
                        r.read_bits(offset).unwrap();
                        assert_eq!(r.read_gamma(), Err(CodecError::UnexpectedEnd), "cut {cut}");
                    }
                }
            }
            // 64 zeros: corrupt, whatever follows; a zero prefix the
            // buffer ends before the 64th of: truncated.
            let bytes = writers_agree(&[
                Put::Bits(0x7F, offset),
                Put::Bits(0, 64),
                Put::Bits(u64::MAX, 64),
            ]);
            for cut in 0..=bytes.len() {
                let takes = [Take::Bits(offset), Take::Gamma];
                readers_agree(&bytes[..cut], &takes);
                if cut > 0 {
                    let mut r = BitReader::new(&bytes[..cut]);
                    r.read_bits(offset).unwrap();
                    let want = if cut as u64 * 8 >= offset as u64 + 64 {
                        CodecError::Corrupt("gamma prefix too long")
                    } else {
                        CodecError::UnexpectedEnd
                    };
                    assert_eq!(r.read_gamma(), Err(want), "cut {cut} at offset {offset}");
                }
            }
        }
    }

    #[test]
    fn append_continues_mid_word() {
        for lead in [0u32, 1, 7, 33, 63] {
            for tail in [0u32, 1, 8, 63, 64, 65, 200] {
                let mut side = BitWriter::new();
                let mut whole = BitWriter::new();
                whole.write_bits(u64::MAX, lead);
                for i in 0..tail {
                    side.write_bit(i % 3 == 0);
                    whole.write_bit(i % 3 == 0);
                }
                let mut joined = BitWriter::new();
                joined.write_bits(u64::MAX, lead);
                joined.append(&side);
                assert_eq!(joined.bit_len(), whole.bit_len());
                assert_eq!(joined.finish(), whole.finish(), "{lead} + {tail}");
            }
        }
    }

    fn puts() -> impl Strategy<Value = Vec<Put>> {
        let gamma = prop_oneof![
            4 => 1u64..=300,
            2 => any::<u64>().prop_map(|x| x.max(1)),
            2 => (32u32..=63, any::<u64>()).prop_map(|(top, x)| (1 << top) | (x >> (63 - top) >> 1)),
            1 => Just(u64::MAX),
        ];
        prop::collection::vec(
            prop_oneof![
                2 => any::<bool>().prop_map(Put::Bit),
                3 => (any::<u64>(), 0u32..=64).prop_map(|(v, width)| Put::Bits(v, width)),
                3 => gamma.prop_map(Put::Gamma),
            ],
            0..60,
        )
    }

    fn takes() -> impl Strategy<Value = Vec<Take>> {
        prop::collection::vec(
            prop_oneof![
                2 => Just(Take::Bit),
                3 => (0u32..=64).prop_map(Take::Bits),
                3 => Just(Take::Gamma),
            ],
            0..60,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The accumulator writes what the per-bit loop wrote.
        #[test]
        fn writer_matches_the_per_bit_reference(puts in puts()) {
            writers_agree(&puts);
        }

        /// The word-at-a-time reader answers any read sequence as the
        /// per-bit loop did, on arbitrary bytes, on real encodings (zeros
        /// are rare in random bytes, long gamma prefixes rarer) and on
        /// both cut short.
        #[test]
        fn reader_matches_the_per_bit_reference(
            noise in prop::collection::vec(any::<u8>(), 0..40),
            puts in puts(),
            takes in takes(),
            cut in 0usize..400,
        ) {
            readers_agree(&noise, &takes);
            let bytes = writers_agree(&puts);
            readers_agree(&bytes, &takes);
            readers_agree(&bytes[..cut % (bytes.len() + 1)], &takes);
            // Read back what was written, call for call.
            let mirror: Vec<Take> = puts
                .iter()
                .map(|put| match *put {
                    Put::Bit(_) => Take::Bit,
                    Put::Bits(_, width) => Take::Bits(width),
                    Put::Gamma(_) => Take::Gamma,
                })
                .collect();
            readers_agree(&bytes, &mirror);
            readers_agree(&bytes[..cut % (bytes.len() + 1)], &mirror);
        }
    }
}
