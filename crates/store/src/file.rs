//! What the store's three file formats share: the 8-byte header, the
//! durable replace, and the listing of sequence-named files.

use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::bytes::ByteReader;
use crate::crc::crc32;
use crate::wal::STORE_VERSION;

/// Append the header every store file starts with: `magic`, then
/// [`STORE_VERSION`] u16 BE, then two reserved zero bytes.
pub(crate) fn put_header(magic: [u8; 4], out: &mut Vec<u8>) {
    out.extend_from_slice(&magic);
    out.extend_from_slice(&STORE_VERSION.to_be_bytes());
    out.extend_from_slice(&[0, 0]);
}

/// Read the header [`put_header`] wrote for `magic`; the error names
/// what did not match.
pub(crate) fn check_header(r: &mut ByteReader<'_>, magic: [u8; 4]) -> Result<(), &'static str> {
    let short = |_| "too short";
    if r.take(4).map_err(short)? != magic {
        return Err("bad magic");
    }
    if r.u16().map_err(short)? != STORE_VERSION {
        return Err("unsupported version");
    }
    if r.u16().map_err(short)? != 0 {
        return Err("nonzero reserved bytes");
    }
    Ok(())
}

/// The bytes before `bytes`' CRC-32 trailer (u32 BE), if at least
/// `min_body` of them precede it and the trailer holds.
pub(crate) fn crc_trailed(bytes: &[u8], min_body: usize) -> Result<&[u8], &'static str> {
    let body_len = bytes.len().checked_sub(4).filter(|&n| n >= min_body);
    let (body, trailer) = bytes.split_at(body_len.ok_or("too short")?);
    if ByteReader::new(trailer).u32() != Ok(crc32(body)) {
        return Err("checksum mismatch");
    }
    Ok(body)
}

/// Replace `dir/name` with `bytes` so that a crash leaves the old file
/// or the new one, never a torn one: write `<name>.tmp`, sync it, rename
/// it over `name`, then sync the directory, which makes the rename
/// durable on Linux (elsewhere its failure only weakens that).
pub(crate) fn write_durably(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// The sequence numbers of the files in `dir` whose names `parse`
/// reads, ascending.
pub(crate) fn list_seqs(dir: &Path, parse: fn(&str) -> Option<u64>) -> io::Result<BTreeSet<u64>> {
    let mut seqs = BTreeSet::new();
    for entry in fs::read_dir(dir)? {
        if let Some(seq) = entry?.file_name().to_str().and_then(parse) {
            seqs.insert(seq);
        }
    }
    Ok(seqs)
}

/// The sequence number in `<prefix><seq:016x><suffix>`.
pub(crate) fn parse_seq_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}
