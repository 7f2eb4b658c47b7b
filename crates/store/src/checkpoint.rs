//! Checkpoints: a durable snapshot of every key's synopsis bytes, named
//! by the WAL segment from which replay must resume.
//!
//! # File layout (`ckpt-<wal_seq:016x>.ckpt`)
//!
//! | offset  | width | field                                   |
//! |---------|-------|-----------------------------------------|
//! | 0       | 4     | magic `b"WCKP"`                         |
//! | 4       | 2     | format version, u16 BE ([`STORE_VERSION`]) |
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

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::wal::STORE_VERSION;

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
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
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
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes());
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

fn bad(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Decode and validate [`encode_checkpoint`] bytes. Arbitrary input
/// never panics; any framing or checksum violation is `InvalidData`.
pub fn decode_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    if bytes.len() < CHECKPOINT_HEADER_LEN + 4 {
        return Err(bad("checkpoint too short"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_be_bytes(crc_bytes.try_into().unwrap()) {
        return Err(bad("checkpoint checksum mismatch"));
    }
    if body[0..4] != CHECKPOINT_MAGIC {
        return Err(bad("checkpoint magic"));
    }
    if u16::from_be_bytes(body[4..6].try_into().unwrap()) != STORE_VERSION {
        return Err(bad("checkpoint version"));
    }
    if body[6..8] != [0, 0] {
        return Err(bad("checkpoint reserved bytes"));
    }
    let wal_seq = u64::from_be_bytes(body[8..16].try_into().unwrap());
    let count = u32::from_be_bytes(body[16..20].try_into().unwrap());
    let mut at = CHECKPOINT_HEADER_LEN;
    // No more than the bytes left can hold: an entry is at least its key
    // and length, 12 bytes.
    let mut entries = Vec::with_capacity((count as usize).min((body.len() - at) / 12));
    for _ in 0..count {
        if body.len() - at < 12 {
            return Err(bad("checkpoint entry truncated"));
        }
        let key = u64::from_be_bytes(body[at..at + 8].try_into().unwrap());
        let len = u32::from_be_bytes(body[at + 8..at + 12].try_into().unwrap()) as usize;
        at += 12;
        if body.len() - at < len {
            return Err(bad("checkpoint entry bytes truncated"));
        }
        entries.push((key, body[at..at + len].to_vec()));
        at += len;
    }
    if at != body.len() {
        return Err(bad("trailing bytes in checkpoint"));
    }
    Ok(Checkpoint { wal_seq, entries })
}

/// Durably write `ckpt` into `dir`: serialize to `<name>.tmp`, fsync,
/// rename over the final name, then best-effort fsync the directory so
/// the rename itself survives power loss.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    let bytes = encode_checkpoint(ckpt);
    let final_path = dir.join(checkpoint_file_name(ckpt.wal_seq));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(ckpt.wal_seq)));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Directory fsync is what makes the rename durable on Linux; other
    // platforms may not support opening a directory, so failure here
    // only weakens (never corrupts) the guarantee.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Load the highest-sequence checkpoint in `dir` that validates.
/// Invalid candidates are skipped (never deleted here — recovery is
/// read-only until the store is reopened for writing).
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    let mut seqs: Vec<u64> = list_checkpoints(dir)?;
    seqs.sort_unstable();
    for seq in seqs.into_iter().rev() {
        let path = dir.join(checkpoint_file_name(seq));
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if let Ok(ckpt) = decode_checkpoint(&bytes) {
            if ckpt.wal_seq == seq {
                return Ok(Some(ckpt));
            }
        }
    }
    Ok(None)
}

/// Sequence numbers of every checkpoint file in `dir` (validity not
/// checked).
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_checkpoint_file_name(name) {
                seqs.push(seq);
            }
        }
    }
    Ok(seqs)
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
