//! The one bounded big-endian reader, under every byte decoder: the wire
//! frame's header, payload and CRC trailer, and the store's WAL records,
//! checkpoints and `META`. Arbitrary input yields [`Short`], never a
//! panic, and [`ByteReader::count`] refuses a count the bytes left
//! cannot hold before the caller reserves for it.

use std::io;

/// The input ended before a read did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short;

impl From<Short> for io::Error {
    fn from(_: Short) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, "bytes end early")
    }
}

/// A cursor over a byte slice that reads big-endian scalars.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        if n > self.remaining() {
            return Err(Short);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, Short> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Short> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Short> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A u32 element count, refused unless the bytes left can hold that
    /// many elements of at least `min_len` bytes each, so the caller may
    /// reserve the count as read.
    #[inline]
    pub fn count(&mut self, min_len: usize) -> Result<usize, Short> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_len) > self.remaining() {
            return Err(Short);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_big_endian_and_stops_short() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 9];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.u64(), Ok(4));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u16(), Err(Short));
        assert_eq!(r.take(2), Err(Short));
        assert_eq!(r.take(1), Ok(&[9][..]));
        assert_eq!(r.take(usize::MAX), Err(Short));
    }

    #[test]
    fn count_refuses_what_the_bytes_left_cannot_hold() {
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend([0; 24]);
        assert_eq!(ByteReader::new(&bytes).count(12), Ok(2));
        assert_eq!(ByteReader::new(&bytes).count(13), Err(Short));
        let max = u32::MAX.to_be_bytes();
        assert_eq!(ByteReader::new(&max).count(0), Ok(u32::MAX as usize));
        assert_eq!(ByteReader::new(&max).count(1), Err(Short));
    }
}
