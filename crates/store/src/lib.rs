//! `waves-store`: durable persistence for waves synopses.
//!
//! A restart of the serving engine (or a `waves-net` server) used to
//! discard every per-key synopsis. This crate supplies the missing
//! substrate — the continuous-monitoring follow-ups to Gibbons &
//! Tirthapura assume parties persist and resume their sketches across
//! epochs — as two std-only mechanisms:
//!
//! * a **write-ahead log** ([`wal`]) of ingest batches: length-prefixed,
//!   CRC-32-checked records in rotating segment files. A crash mid-append
//!   leaves a torn tail that recovery detects and truncates; everything
//!   acknowledged (synced) before the crash survives.
//! * **checkpoints** ([`checkpoint`]): each key's synopsis serialized via
//!   its existing `encode()` bytes — the same payloads the wire protocol
//!   round-trips — written atomically (tmp + rename). Recovery loads the
//!   newest valid checkpoint and replays the WAL tail; superseded
//!   segments are reclaimed.
//!
//! Each engine shard owns one [`ShardStore`] (one directory, one open
//! segment), so persistence adds no cross-shard lock. Sync cadence is
//! a [`SyncPolicy`]: `every-batch` for zero acknowledged loss,
//! `every-N` to amortize fsyncs, `on-checkpoint` for throughput when
//! the WAL tail may be sacrificed.
//!
//! Byte-exact layouts for every file live in the repository's
//! `PROTOCOL.md`; operational guidance (directory layout, policy
//! tradeoffs, recovery semantics) in `OPERATIONS.md`.
//!
//! ```
//! use waves_core::Bits;
//! use waves_obs::NoopRecorder;
//! use waves_store::{scratch_dir, ShardStore, SyncPolicy};
//!
//! let dir = scratch_dir("doc-quickstart");
//! let rec = NoopRecorder;
//! // First open: nothing to recover.
//! let recovered = ShardStore::recover(&dir, SyncPolicy::EveryBatch, 8 << 20, &rec).unwrap();
//! assert!(recovered.batches.is_empty());
//! let mut store = recovered.store;
//! store.append_batch(&[(7, Bits::from([true, false, true]))], &rec).unwrap();
//! drop(store);
//! // Reopen: the acknowledged batch replays, word-packed.
//! let recovered = ShardStore::recover(&dir, SyncPolicy::EveryBatch, 8 << 20, &rec).unwrap();
//! assert_eq!(recovered.batches, vec![vec![(7, Bits::from([true, false, true]))]]);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod checkpoint;
pub mod crc;
pub mod shard;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use shard::{RecoveredShard, ShardStore, WalPosition};

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::crc::crc32;
use crate::wal::STORE_VERSION;

/// When WAL appends are made durable (`fsync`).
///
/// | policy | acknowledged-loss window | fsyncs |
/// |--------|--------------------------|--------|
/// | `EveryBatch` | none — every batch durable before apply | one per batch |
/// | `EveryN(n)` | up to `n - 1` most recent batches | one per `n` batches |
/// | `OnCheckpoint` | everything since the last checkpoint/rotation | one per checkpoint/segment |
///
/// Regardless of policy, recovery always restores a *prefix* of the
/// appended history — batches are never replayed out of order or with
/// gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every appended batch.
    EveryBatch,
    /// Fsync after every `n` appended batches.
    EveryN(u32),
    /// Fsync only at segment rotation and checkpoints.
    OnCheckpoint,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::EveryN(64)
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::EveryBatch => write!(f, "every-batch"),
            SyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            SyncPolicy::OnCheckpoint => write!(f, "on-checkpoint"),
        }
    }
}

impl FromStr for SyncPolicy {
    type Err = String;

    /// Accepts `every-batch`, `on-checkpoint`, or `every-<N>` with
    /// `N >= 1` (e.g. `every-64`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "every-batch" => Ok(SyncPolicy::EveryBatch),
            "on-checkpoint" => Ok(SyncPolicy::OnCheckpoint),
            _ => {
                let n = s
                    .strip_prefix("every-")
                    .and_then(|n| n.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!(
                            "bad sync policy {s:?}: want every-batch, every-<N>, or on-checkpoint"
                        )
                    })?;
                Ok(SyncPolicy::EveryN(n))
            }
        }
    }
}

/// Persistence settings carried in the engine config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Root directory; each shard gets a `shard-<i>/` subdirectory.
    pub dir: PathBuf,
    /// Fsync cadence for WAL appends.
    pub sync: SyncPolicy,
    /// Rotate the WAL once a segment exceeds this many bytes.
    pub segment_bytes: u64,
    /// Checkpoint a shard after this many applied batches
    /// (`0` disables automatic checkpoints; an explicit checkpoint
    /// command and the clean-shutdown checkpoint still run).
    pub checkpoint_every_batches: u64,
}

impl PersistConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            sync: SyncPolicy::default(),
            segment_bytes: 8 << 20,
            checkpoint_every_batches: 4096,
        }
    }

    pub fn sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    pub fn checkpoint_every(mut self, batches: u64) -> Self {
        self.checkpoint_every_batches = batches;
        self
    }
}

/// Bytes in the root `META` file.
pub const META_LEN: usize = 16;
/// First four bytes of `META`.
pub const META_MAGIC: [u8; 4] = *b"WVST";

/// The opened persistence root. Holds no file handles — it exists to
/// create/validate the `META` file exactly once, before shard stores
/// fan out.
///
/// `META` layout: magic `b"WVST"` (4), format version u16 BE, reserved
/// u16, shard count u32 BE, CRC-32 of the first 12 bytes u32 BE.
///
/// The store assumes a single process owns the directory (the engine
/// enforces one `ShardStore` per shard worker); concurrent opens are
/// not detected.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    num_shards: u32,
}

impl Store {
    /// Create or validate the persistence root. A directory created
    /// with a different shard count is rejected — shard-to-key routing
    /// would silently change, scattering each key's history.
    pub fn open(root: &Path, num_shards: u32) -> io::Result<Store> {
        fs::create_dir_all(root)?;
        let meta_path = root.join("META");
        match File::open(&meta_path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                let bad = |what: &str| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("META: {what}"))
                };
                if bytes.len() != META_LEN {
                    return Err(bad("wrong length"));
                }
                if bytes[0..4] != META_MAGIC {
                    return Err(bad("bad magic"));
                }
                if crc32(&bytes[..12]) != u32::from_be_bytes(bytes[12..16].try_into().unwrap()) {
                    return Err(bad("checksum mismatch"));
                }
                if u16::from_be_bytes(bytes[4..6].try_into().unwrap()) != STORE_VERSION {
                    return Err(bad("unsupported version"));
                }
                let stored = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
                if stored != num_shards {
                    return Err(bad(&format!(
                        "directory was created with {stored} shards, engine configured {num_shards}"
                    )));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let mut bytes = Vec::with_capacity(META_LEN);
                bytes.extend_from_slice(&META_MAGIC);
                bytes.extend_from_slice(&STORE_VERSION.to_be_bytes());
                bytes.extend_from_slice(&0u16.to_be_bytes());
                bytes.extend_from_slice(&num_shards.to_be_bytes());
                bytes.extend_from_slice(&crc32(&bytes).to_be_bytes());
                let tmp = root.join("META.tmp");
                {
                    let mut f = OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(true)
                        .open(&tmp)?;
                    f.write_all(&bytes)?;
                    f.sync_data()?;
                }
                fs::rename(&tmp, &meta_path)?;
                if let Ok(d) = File::open(root) {
                    let _ = d.sync_all();
                }
            }
            Err(e) => return Err(e),
        }
        Ok(Store {
            root: root.to_path_buf(),
            num_shards,
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Directory owned by shard `shard`'s `ShardStore`.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard}"))
    }
}

/// A unique, not-yet-created scratch path under the system temp dir —
/// the workspace has no `tempfile` dependency, and tests/benches across
/// crates all need disposable persist dirs. The caller creates and
/// removes it.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "waves-store-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_parses_and_displays() {
        for (s, p) in [
            ("every-batch", SyncPolicy::EveryBatch),
            ("every-1", SyncPolicy::EveryN(1)),
            ("every-64", SyncPolicy::EveryN(64)),
            ("on-checkpoint", SyncPolicy::OnCheckpoint),
        ] {
            assert_eq!(s.parse::<SyncPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        for bad in ["", "always", "every-", "every-0", "every-x", "Every-Batch"] {
            assert!(bad.parse::<SyncPolicy>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn meta_roundtrip_and_shard_count_mismatch() {
        let root = scratch_dir("meta");
        Store::open(&root, 4).unwrap();
        let again = Store::open(&root, 4).unwrap();
        assert_eq!(again.num_shards(), 4);
        assert_eq!(again.shard_dir(2), root.join("shard-2"));
        let err = Store::open(&root, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_meta_rejected() {
        let root = scratch_dir("meta-corrupt");
        Store::open(&root, 2).unwrap();
        let meta = root.join("META");
        let mut bytes = fs::read(&meta).unwrap();
        bytes[9] ^= 0xFF;
        fs::write(&meta, &bytes).unwrap();
        assert!(Store::open(&root, 2).is_err());
        fs::remove_dir_all(&root).unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::wal::{
        decode_batch_payload, encode_batch_payload, scan_segment, SegmentWriter, SEGMENT_HEADER_LEN,
    };
    use proptest::prelude::*;
    use waves_core::bits::Bits;

    fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u64, Bits)>>> {
        prop::collection::vec(
            prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<bool>(), 0..40))
                    .prop_map(|(k, v): (u64, Vec<bool>)| (k, Bits::from(v))),
                0..4,
            ),
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// WAL batch payloads round-trip exactly.
        #[test]
        fn wal_record_roundtrip(batches in batches_strategy()) {
            for batch in &batches {
                let payload = encode_batch_payload(batch);
                prop_assert_eq!(&decode_batch_payload(&payload).unwrap(), batch);
            }
        }

        /// Truncating a segment at *any* byte offset recovers exactly
        /// the batches whose records lie entirely before the cut —
        /// never a partial batch, never a reordering.
        #[test]
        fn wal_truncation_recovers_exact_prefix(
            batches in batches_strategy(),
            cut_frac in 0.0f64..=1.0,
        ) {
            let dir = scratch_dir("prop-trunc");
            std::fs::create_dir_all(&dir).unwrap();
            let mut w = SegmentWriter::create(&dir, 0).unwrap();
            let mut ends = vec![SEGMENT_HEADER_LEN];
            for b in &batches {
                ends.push(w.append_batch(b));
            }
            w.sync().unwrap();
            let path = w.path().to_path_buf();
            let total = w.len();
            drop(w);
            let cut = (total as f64 * cut_frac) as u64;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let survivors = ends[1..].iter().filter(|&&e| e <= cut).count();
            let scan = scan_segment(&path, 0).unwrap();
            prop_assert_eq!(scan.payloads.len(), survivors);
            for (payload, batch) in scan.payloads.iter().zip(&batches) {
                prop_assert_eq!(&decode_batch_payload(payload).unwrap(), batch);
            }
            // A cut inside the 16-byte segment header loses the whole
            // segment (valid_len 0); otherwise the scan stops exactly at
            // the last surviving record boundary.
            let expect_valid = if cut < SEGMENT_HEADER_LEN { 0 } else { ends[survivors] };
            prop_assert_eq!(scan.valid_len, expect_valid);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Flipping any byte of the record region yields a strict
        /// prefix of the original batches — corruption is detected,
        /// never decoded into wrong data.
        #[test]
        fn wal_corruption_never_decodes_wrong_batches(
            batches in batches_strategy(),
            flip_frac in 0.0f64..1.0,
            flip_bit in 0u8..8,
        ) {
            let dir = scratch_dir("prop-flip");
            std::fs::create_dir_all(&dir).unwrap();
            let mut w = SegmentWriter::create(&dir, 0).unwrap();
            let mut ends = vec![SEGMENT_HEADER_LEN];
            for b in &batches {
                ends.push(w.append_batch(b));
            }
            w.sync().unwrap();
            let path = w.path().to_path_buf();
            let total = w.len();
            drop(w);
            // At least one record exists (batches is non-empty), so the
            // record region is never empty.
            prop_assert!(total > SEGMENT_HEADER_LEN);
            let span = total - SEGMENT_HEADER_LEN;
            let pos = SEGMENT_HEADER_LEN + ((span as f64 * flip_frac) as u64).min(span - 1);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[pos as usize] ^= 1 << flip_bit;
            std::fs::write(&path, &bytes).unwrap();
            // The record containing `pos` must die; everything before
            // it must survive verbatim.
            let victim = ends[1..].iter().position(|&e| pos < e).unwrap();
            let scan = scan_segment(&path, 0).unwrap();
            prop_assert!(scan.torn);
            prop_assert_eq!(scan.payloads.len(), victim);
            prop_assert_eq!(scan.valid_len, ends[victim]);
            for (payload, batch) in scan.payloads.iter().zip(&batches) {
                prop_assert_eq!(&decode_batch_payload(payload).unwrap(), batch);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Checkpoint files round-trip, and corrupting any single byte
        /// rejects the file.
        #[test]
        fn checkpoint_roundtrip_and_rejection(
            entries in prop::collection::vec(
                (any::<u64>(), prop::collection::vec(any::<u8>(), 0..50)),
                0..8,
            ),
            wal_seq in any::<u64>(),
            flip_frac in 0.0f64..1.0,
            flip_bit in 0u8..8,
        ) {
            let ckpt = checkpoint::Checkpoint { wal_seq, entries };
            let bytes = checkpoint::encode_checkpoint(&ckpt);
            prop_assert_eq!(&checkpoint::decode_checkpoint(&bytes).unwrap(), &ckpt);
            let mut corrupt = bytes.clone();
            let pos = ((bytes.len() as f64 * flip_frac) as usize).min(bytes.len() - 1);
            corrupt[pos] ^= 1 << flip_bit;
            prop_assert!(checkpoint::decode_checkpoint(&corrupt).is_err());
            // Every truncation is rejected too.
            let cut = pos;
            prop_assert!(checkpoint::decode_checkpoint(&bytes[..cut]).is_err());
        }
    }
}
