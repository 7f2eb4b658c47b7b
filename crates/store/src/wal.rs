//! The write-ahead log: segment files of length-prefixed, CRC-checked
//! batch records.
//!
//! # Segment file layout (`wal-<seq:016x>.log`)
//!
//! | offset | width | field                                |
//! |--------|-------|--------------------------------------|
//! | 0      | 4     | magic `b"WLOG"`                      |
//! | 4      | 2     | format version, u16 BE ([`STORE_VERSION`]) |
//! | 6      | 2     | reserved, zero                       |
//! | 8      | 8     | segment sequence number, u64 BE      |
//! | 16     | ...   | records, back to back                |
//!
//! # Record layout
//!
//! | offset | width | field                                |
//! |--------|-------|--------------------------------------|
//! | 0      | 4     | payload length `L`, u32 BE           |
//! | 4      | 4     | CRC-32 of the payload, u32 BE        |
//! | 8      | `L`   | payload                              |
//!
//! A shard writes each record in place at the end of its segment's
//! write buffer ([`write_batch_record`]): the header is reserved, the
//! payload encoded after it, and the length and CRC patched in once the
//! payload is there. [`frame_record`] builds the same bytes from a
//! separate payload; it is kept as the reference the in-place path is
//! tested against.
//!
//! A record is *acknowledged* only once it (and everything before it)
//! has reached disk; a crash mid-append leaves a torn tail that fails
//! the length or CRC check. Recovery scans records in order and stops at
//! the first bad one — everything before it is intact by construction,
//! everything at or after it is discarded (truncated), so the surviving
//! log is always a prefix of what was appended.
//!
//! # Batch payload layout (record type 1)
//!
//! | offset | width | field                             |
//! |--------|-------|-----------------------------------|
//! | 0      | 1     | record type, `0x01` = ingest batch |
//! | 1      | 4     | entry count `C`, u32 BE           |
//! | 5      | ...   | `C` entries                       |
//!
//! Each entry: key u64 BE, bit count `B` u64 BE, then `ceil(B/64)`
//! packed `u64` words of 8 **little-endian** bytes each — the LSB-first
//! bit stream of [`waves_core::bits::Bits`], zero-padded to a word
//! boundary, byte-identical to the wire protocol's v4 `INGEST` entry
//! encoding. (Store format 1 packed MSB-first bytes instead; format 2
//! segments are the word encoding, and a format-1 store fails header
//! validation cleanly rather than mis-decoding.)

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use waves_core::bits::{byte_count, Bits};

use crate::crc::crc32;

/// First four bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"WLOG";
/// On-disk format version shared by segments, checkpoints, and META.
/// Version 2 switched ingest entries from MSB-first packed bytes to
/// LSB-first little-endian `u64` words (wire v4's encoding).
pub const STORE_VERSION: u16 = 2;
/// Bytes before the first record in a segment.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Bytes of record framing before the payload (length + CRC).
pub const RECORD_HEADER_LEN: u64 = 8;
/// Record type tag for an ingest batch.
pub const REC_BATCH: u8 = 1;
/// Upper bound on a record payload; larger lengths are treated as
/// corruption (mirrors the wire protocol's frame cap).
pub const MAX_RECORD_PAYLOAD: u32 = 64 << 20;
/// Upper bound on bits per entry: a longer entry fits neither a record
/// nor a frame, so a corrupt bit count is refused before it can ask for
/// a huge allocation.
const MAX_ENTRY_BITS: u64 = MAX_RECORD_PAYLOAD as u64 * 8;

/// File name for segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

/// Parse a segment sequence number back out of a file name.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn bad(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Append `entries` in the keyed-batch layout record payloads and wire
/// `INGEST` frames share: entry count u32 BE, then each entry's key u64
/// BE, bit count u64 BE and packed little-endian words.
pub fn encode_entries(entries: &[(u64, Bits)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (key, bits) in entries {
        out.extend_from_slice(&key.to_be_bytes());
        out.extend_from_slice(&bits.len().to_be_bytes());
        bits.write_le_bytes(out);
    }
}

/// Decode all of `bytes` as [`encode_entries`] wrote them. Arbitrary
/// input never panics; malformed bytes yield `InvalidData`.
pub fn decode_entries(bytes: &[u8]) -> io::Result<Vec<(u64, Bits)>> {
    let mut rest = bytes;
    let mut take = |n: usize| -> io::Result<&[u8]> {
        if n > rest.len() {
            return Err(bad("entries truncated"));
        }
        let (head, tail) = rest.split_at(n);
        rest = tail;
        Ok(head)
    };
    let count = u32::from_be_bytes(take(4)?.try_into().unwrap());
    // No more than the bytes left can hold: an entry is at least its key
    // and bit count, 16 bytes.
    let mut entries = Vec::with_capacity((count as usize).min(bytes.len() / 16));
    for _ in 0..count {
        let key = u64::from_be_bytes(take(8)?.try_into().unwrap());
        let nbits = u64::from_be_bytes(take(8)?.try_into().unwrap());
        if nbits > MAX_ENTRY_BITS {
            return Err(bad("entry bit count"));
        }
        let packed = take(byte_count(nbits))?;
        let bits = Bits::from_le_bytes(packed, nbits).ok_or_else(|| bad("entry bits"))?;
        entries.push((key, bits));
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after entries"));
    }
    Ok(entries)
}

/// Bytes of the whole record [`write_batch_record`] writes for `batch`:
/// record header, type byte and entry count, then per entry its key,
/// bit count and packed words — `13 + Σ(16 + 8·⌈bits/64⌉)`.
pub fn batch_record_len(batch: &[(u64, Bits)]) -> usize {
    RECORD_HEADER_LEN as usize
        + 5
        + batch
            .iter()
            .map(|(_, bits)| 16 + byte_count(bits.len()))
            .sum::<usize>()
}

/// Append one ingest batch to `out` as a whole framed record, in place:
/// the header is reserved, the payload (type byte, then
/// [`encode_entries`]) is written straight after it and checksummed
/// where it lies, and the length and CRC are patched in. The bytes equal
/// `frame_record(&encode_batch_payload(batch))`.
pub fn write_batch_record(batch: &[(u64, Bits)], out: &mut Vec<u8>) {
    out.reserve(batch_record_len(batch));
    let start = out.len();
    let body = start + RECORD_HEADER_LEN as usize;
    out.resize(body, 0);
    out.push(REC_BATCH);
    encode_entries(batch, out);
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_be_bytes());
}

/// Encode one ingest batch as a record payload: the type byte, then
/// [`encode_entries`]. The payload [`write_batch_record`] frames in
/// place.
pub fn encode_batch_payload(batch: &[(u64, Bits)]) -> Vec<u8> {
    let mut p = Vec::with_capacity(batch_record_len(batch) - RECORD_HEADER_LEN as usize);
    p.push(REC_BATCH);
    encode_entries(batch, &mut p);
    p
}

/// Decode a record payload produced by [`encode_batch_payload`].
/// Arbitrary input never panics; malformed bytes yield `InvalidData`.
pub fn decode_batch_payload(payload: &[u8]) -> io::Result<Vec<(u64, Bits)>> {
    match payload.split_first() {
        Some((&REC_BATCH, entries)) => decode_entries(entries),
        Some(_) => Err(bad("unknown record type")),
        None => Err(bad("record payload truncated")),
    }
}

/// Wrap a payload in record framing: length, CRC-32, payload. The
/// two-buffer reference for [`write_batch_record`].
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    rec.extend_from_slice(&crc32(payload).to_be_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// Result of scanning one segment file during recovery.
#[derive(Debug)]
pub struct SegmentScan {
    /// Sequence number from the segment header.
    pub seq: u64,
    /// Payloads of every intact record, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// File offset just past each intact record (parallel to
    /// `payloads`), so a caller that rejects record `i` at a higher
    /// layer can truncate to `ends[i-1]`.
    pub ends: Vec<u64>,
    /// Byte offset just past the last intact record — the truncation
    /// point if the tail is torn.
    pub valid_len: u64,
    /// Whether bytes at/after `valid_len` failed validation (a torn or
    /// corrupt tail that recovery must discard).
    pub torn: bool,
}

/// Scan a segment file, validating the header and every record frame.
///
/// A file too short to hold the header (or with a wrong magic/version)
/// scans as `seq: expect_seq, valid_len: 0, torn: true` — the recovery
/// path rewrites it from scratch. A header whose sequence number
/// disagrees with the file name is corruption of the same kind.
pub fn scan_segment(path: &Path, expect_seq: u64) -> io::Result<SegmentScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let torn = |payloads: Vec<Vec<u8>>, ends: Vec<u64>, valid_len: u64| SegmentScan {
        seq: expect_seq,
        payloads,
        ends,
        valid_len,
        torn: true,
    };
    if buf.len() < SEGMENT_HEADER_LEN as usize
        || buf[0..4] != SEGMENT_MAGIC
        || u16::from_be_bytes(buf[4..6].try_into().unwrap()) != STORE_VERSION
        || buf[6..8] != [0, 0]
        || u64::from_be_bytes(buf[8..16].try_into().unwrap()) != expect_seq
    {
        return Ok(torn(Vec::new(), Vec::new(), 0));
    }
    let mut payloads = Vec::new();
    let mut ends = Vec::new();
    let mut at = SEGMENT_HEADER_LEN as usize;
    loop {
        if at == buf.len() {
            // Clean end: every byte accounted for.
            return Ok(SegmentScan {
                seq: expect_seq,
                payloads,
                ends,
                valid_len: at as u64,
                torn: false,
            });
        }
        if buf.len() - at < RECORD_HEADER_LEN as usize {
            return Ok(torn(payloads, ends, at as u64));
        }
        let len = u32::from_be_bytes(buf[at..at + 4].try_into().unwrap());
        let want = u32::from_be_bytes(buf[at + 4..at + 8].try_into().unwrap());
        let start = at + RECORD_HEADER_LEN as usize;
        if len > MAX_RECORD_PAYLOAD || buf.len() - start < len as usize {
            return Ok(torn(payloads, ends, at as u64));
        }
        let payload = &buf[start..start + len as usize];
        if crc32(payload) != want {
            return Ok(torn(payloads, ends, at as u64));
        }
        payloads.push(payload.to_vec());
        at = start + len as usize;
        ends.push(at as u64);
    }
}

/// An open segment accepting appends. Writes go through a userspace
/// buffer; [`SegmentWriter::sync`] flushes and `fdatasync`s.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    /// Total file length including the header (append position).
    len: u64,
    buffered: Vec<u8>,
}

impl SegmentWriter {
    /// Create segment `seq` in `dir`, writing a fresh header. Truncates
    /// any existing file of the same name (recovery only does this for
    /// files it has already declared unreadable).
    pub fn create(dir: &Path, seq: u64) -> io::Result<SegmentWriter> {
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&STORE_VERSION.to_be_bytes());
        header.extend_from_slice(&0u16.to_be_bytes());
        header.extend_from_slice(&seq.to_be_bytes());
        file.write_all(&header)?;
        Ok(SegmentWriter {
            file,
            path,
            seq,
            len: SEGMENT_HEADER_LEN,
            buffered: Vec::new(),
        })
    }

    /// Reopen an existing segment for appending at `valid_len` (the
    /// scan's truncation point), discarding any torn tail beyond it.
    pub fn reopen(dir: &Path, seq: u64, valid_len: u64) -> io::Result<SegmentWriter> {
        let path = dir.join(segment_file_name(seq));
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(SegmentWriter {
            file,
            path,
            seq,
            len: valid_len,
            buffered: Vec::new(),
        })
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Append position: header plus every record appended so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len <= SEGMENT_HEADER_LEN
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffer `batch` as one record framed in place
    /// ([`write_batch_record`]); returns the file offset just past it
    /// (the position a crash must reach for this record to survive).
    pub fn append_batch(&mut self, batch: &[(u64, Bits)]) -> u64 {
        let before = self.buffered.len();
        write_batch_record(batch, &mut self.buffered);
        let written = self.buffered.len() - before;
        debug_assert_eq!(written, batch_record_len(batch));
        self.len += written as u64;
        self.len
    }

    /// Push buffered records to the OS (no durability guarantee yet).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buffered.is_empty() {
            self.file.write_all(&self.buffered)?;
            self.buffered.clear();
        }
        Ok(())
    }

    /// Flush and `fdatasync`: everything appended so far is durable
    /// (acknowledged) once this returns.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = crate::scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_batch(i: u64) -> Vec<(u64, Bits)> {
        vec![
            (i, (0..i % 13).map(|j| j % 2 == 0).collect()),
            (i * 7 + 1, Bits::from_bools(&vec![true; (i % 9) as usize])),
        ]
    }

    /// An entry's packed body is whole little-endian words: 8 bytes per
    /// started group of 64 bits, zero-padded, LSB-first.
    #[test]
    fn entry_encoding_is_le_words() {
        let mut bits = Bits::new();
        bits.push(true); // bit 0 -> byte 0, mask 0x01
        for _ in 0..8 {
            bits.push(false);
        }
        bits.push(true); // bit 9 -> byte 1, mask 0x02
        let payload = encode_batch_payload(&[(0xABCD, bits)]);
        // type + count + key + bit count, then one 8-byte word.
        assert_eq!(payload.len(), 1 + 4 + 8 + 8 + 8);
        assert_eq!(&payload[21..], &[0x01, 0x02, 0, 0, 0, 0, 0, 0]);
    }

    /// The in-place record is the reference framing byte for byte, and
    /// `batch_record_len` is its length, appended after other bytes too.
    #[test]
    fn in_place_record_equals_framed_payload() {
        let mut batches: Vec<Vec<(u64, Bits)>> = (0..50).map(sample_batch).collect();
        batches.push(Vec::new());
        batches.push(vec![(3, Bits::from_bools(&[true; 1024]))]);
        for batch in &batches {
            let want = frame_record(&encode_batch_payload(batch));
            assert_eq!(want.len(), batch_record_len(batch));
            let mut out = vec![0xEE; 5];
            write_batch_record(batch, &mut out);
            assert_eq!(out[..5], [0xEE; 5]);
            assert_eq!(out[5..], want[..]);
        }
    }

    #[test]
    fn batch_payload_roundtrip() {
        for i in 0..50 {
            let batch = sample_batch(i);
            let payload = encode_batch_payload(&batch);
            assert_eq!(decode_batch_payload(&payload).unwrap(), batch, "i={i}");
        }
        assert_eq!(
            decode_batch_payload(&encode_batch_payload(&[])).unwrap(),
            []
        );
    }

    #[test]
    fn payload_rejects_trailing_and_unknown_type() {
        let mut p = encode_batch_payload(&sample_batch(3));
        p.push(0);
        assert!(decode_batch_payload(&p).is_err());
        let mut p = encode_batch_payload(&sample_batch(3));
        p[0] = 9;
        assert!(decode_batch_payload(&p).is_err());
        assert!(decode_batch_payload(&[]).is_err());
    }

    #[test]
    fn segment_names_roundtrip() {
        for seq in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_segment_file_name(&segment_file_name(seq)), Some(seq));
        }
        assert_eq!(parse_segment_file_name("wal-xyz.log"), None);
        assert_eq!(parse_segment_file_name("ckpt-0000000000000000.ckpt"), None);
    }

    #[test]
    fn write_scan_roundtrip_and_torn_tail() {
        let dir = tmp_dir("wal-roundtrip");
        let mut w = SegmentWriter::create(&dir, 5).unwrap();
        let mut ends = Vec::new();
        for i in 0..10 {
            ends.push(w.append_batch(&sample_batch(i)));
        }
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        drop(w);

        let scan = scan_segment(&path, 5).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.payloads.len(), 10);
        assert_eq!(scan.valid_len, *ends.last().unwrap());

        // Truncate into the middle of record 7: records 0..7 survive.
        let cut = ends[6] + 3;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let scan = scan_segment(&path, 5).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.payloads.len(), 7);
        assert_eq!(scan.valid_len, ends[6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_stops_scan_at_prior_record() {
        let dir = tmp_dir("wal-corrupt");
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let mut ends = Vec::new();
        for i in 0..6 {
            ends.push(w.append_batch(&sample_batch(i + 1)));
        }
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        // Flip a byte inside record 3's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = ends[2] as usize + RECORD_HEADER_LEN as usize + 1;
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.payloads.len(), 3);
        assert_eq!(scan.valid_len, ends[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_scans_empty() {
        let dir = tmp_dir("wal-badheader");
        let path = dir.join(segment_file_name(1));
        std::fs::write(&path, b"WLOGxx").unwrap();
        let scan = scan_segment(&path, 1).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.payloads.is_empty());
        // Wrong sequence number in an otherwise valid header.
        let w = SegmentWriter::create(&dir, 2).unwrap();
        let p = w.path().to_path_buf();
        drop(w);
        let scan = scan_segment(&p, 3).unwrap();
        assert!(scan.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_appends_after_truncation_point() {
        let dir = tmp_dir("wal-reopen");
        let mut w = SegmentWriter::create(&dir, 9).unwrap();
        let end = w.append_batch(&sample_batch(2));
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        // Simulate a torn half-record after it.
        let framed = frame_record(&encode_batch_payload(&sample_batch(2)));
        OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&framed[..5])
            .unwrap();
        let scan = scan_segment(&path, 9).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.valid_len, end);
        let mut w = SegmentWriter::reopen(&dir, 9, scan.valid_len).unwrap();
        w.append_batch(&sample_batch(4));
        w.sync().unwrap();
        drop(w);
        let scan = scan_segment(&path, 9).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.payloads.len(), 2);
        assert_eq!(
            decode_batch_payload(&scan.payloads[1]).unwrap(),
            sample_batch(4)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
