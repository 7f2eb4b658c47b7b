//! Checkpoints: a durable snapshot of every key's synopsis bytes, named
//! by the WAL segment from which replay must resume.
//!
//! # File layout (`ckpt-<wal_seq:016x>.ckpt`)
//!
//! | offset  | width | field                                   |
//! |---------|-------|-----------------------------------------|
//! | 0       | 4     | magic `b"WCKP"`                         |
//! | 4       | 2     | format version, u16 BE ([`STORE_VERSION`](crate::wal::STORE_VERSION)) |
//! | 6       | 2     | reserved, zero                          |
//! | 8       | 8     | `wal_seq`, u64 BE — replay starts here  |
//! | 16      | 4     | key count `C`, u32 BE                   |
//! | 20      | ...   | `C` entries                             |
//! | end-4   | 4     | CRC-32 of bytes `[0, end-4)`, u32 BE    |
//!
//! Each entry: key u64 BE, synopsis byte length `L` u32 BE, then `L`
//! bytes — exactly the synopsis's `encode()` output, the same payload
//! the wire protocol's `PUSH_SYNOPSIS` frame carries. Their order is
//! unspecified; a key appears at most once, and only keys the shard
//! owns appear. This module frames bytes and checks none of that: the
//! engine refuses a checkpoint that breaks it when it recovers.
//!
//! A checkpoint is written to a `.tmp` file, synced, and renamed into
//! place, so a crash mid-write can never shadow a good checkpoint with a
//! torn one; the CRC guards the remaining (hardware/filesystem) cases.
//! Recovery loads the highest-sequence checkpoint that validates and
//! replays WAL segments `>= wal_seq` on top of it.

use std::path::{Path, PathBuf};
use std::{fs, io};

use crate::bytes::ByteReader;
use crate::crc::crc32;
use crate::file::{
    check_header, crc_trailed, list_seqs, parse_seq_name, put_header, write_durably,
};

/// First four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"WCKP";
/// Fixed bytes before the entry list.
pub const CHECKPOINT_HEADER_LEN: usize = 20;

/// File name for the checkpoint that resumes replay at WAL segment
/// `wal_seq`.
pub fn checkpoint_file_name(wal_seq: u64) -> String {
    format!("ckpt-{wal_seq:016x}.ckpt")
}

/// Parse a WAL sequence number back out of a checkpoint file name.
pub fn parse_checkpoint_file_name(name: &str) -> Option<u64> {
    parse_seq_name(name, "ckpt-", ".ckpt")
}

/// A decoded checkpoint: where to resume the WAL, and every key's
/// serialized synopsis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Replay WAL segments with sequence number `>= wal_seq`.
    pub wal_seq: u64,
    /// `(key, synopsis encode() bytes)`, in no particular order, each
    /// key at most once.
    pub entries: Vec<(u64, Vec<u8>)>,
}

/// Serialize a checkpoint (header, entries, trailing CRC).
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let body: usize = ckpt.entries.iter().map(|(_, b)| 12 + b.len()).sum();
    let mut out = Vec::with_capacity(CHECKPOINT_HEADER_LEN + body + 4);
    put_header(CHECKPOINT_MAGIC, &mut out);
    out.extend_from_slice(&ckpt.wal_seq.to_be_bytes());
    out.extend_from_slice(&(ckpt.entries.len() as u32).to_be_bytes());
    for (key, bytes) in &ckpt.entries {
        out.extend_from_slice(&key.to_be_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(bytes);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {what}"))
}

/// Decode and validate [`encode_checkpoint`] bytes. Arbitrary input
/// never panics; any framing or checksum violation is `InvalidData`.
pub fn decode_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    let body = crc_trailed(bytes, CHECKPOINT_HEADER_LEN).map_err(bad)?;
    let mut r = ByteReader::new(body);
    check_header(&mut r, CHECKPOINT_MAGIC).map_err(bad)?;
    let wal_seq = r.u64()?;
    // An entry is at least its key and length, 12 bytes.
    let count = r.count(12)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.u64()?;
        let len = r.u32()? as usize;
        entries.push((key, r.take(len)?.to_vec()));
    }
    if r.remaining() != 0 {
        return Err(bad("trailing bytes"));
    }
    Ok(Checkpoint { wal_seq, entries })
}

/// Durably write `ckpt` into `dir`: serialize to `<name>.tmp`, fsync,
/// rename over the final name, then best-effort fsync the directory so
/// the rename itself survives power loss.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    let name = checkpoint_file_name(ckpt.wal_seq);
    write_durably(dir, &name, &encode_checkpoint(ckpt))
}

/// Load the highest-sequence checkpoint in `dir` that validates.
/// Invalid candidates are skipped (never deleted here — recovery is
/// read-only until the store is reopened for writing).
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    for seq in list_seqs(dir, parse_checkpoint_file_name)?
        .into_iter()
        .rev()
    {
        let bytes = fs::read(dir.join(checkpoint_file_name(seq)))?;
        if let Ok(ckpt) = decode_checkpoint(&bytes) {
            if ckpt.wal_seq == seq {
                return Ok(Some(ckpt));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            wal_seq: 7,
            entries: vec![(1, vec![0xAA, 0xBB]), (42, Vec::new()), (99, vec![1; 33])],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ckpt = sample();
        assert_eq!(decode_checkpoint(&encode_checkpoint(&ckpt)).unwrap(), ckpt);
        let empty = Checkpoint {
            wal_seq: 0,
            entries: Vec::new(),
        };
        assert_eq!(
            decode_checkpoint(&encode_checkpoint(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn any_corruption_or_truncation_rejects() {
        let bytes = encode_checkpoint(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(decode_checkpoint(&b).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn write_then_load_latest_prefers_highest_valid() {
        let dir = crate::scratch_dir("ckpt-latest");
        std::fs::create_dir_all(&dir).unwrap();
        let older = Checkpoint {
            wal_seq: 3,
            entries: vec![(1, vec![1])],
        };
        let newer = Checkpoint {
            wal_seq: 5,
            entries: vec![(1, vec![2])],
        };
        write_checkpoint(&dir, &older).unwrap();
        write_checkpoint(&dir, &newer).unwrap();
        assert_eq!(load_latest_checkpoint(&dir).unwrap().unwrap(), newer);
        // Corrupt the newest: recovery falls back to the older one.
        let p = dir.join(checkpoint_file_name(5));
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(load_latest_checkpoint(&dir).unwrap().unwrap(), older);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_names_roundtrip() {
        for seq in [0u64, 9, u64::MAX] {
            assert_eq!(
                parse_checkpoint_file_name(&checkpoint_file_name(seq)),
                Some(seq)
            );
        }
        assert_eq!(parse_checkpoint_file_name("wal-0000000000000000.log"), None);
    }
}
