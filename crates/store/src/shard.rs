//! One shard's durable state: a directory of WAL segments plus
//! checkpoints, owned exclusively by that shard's worker thread (so no
//! cross-shard lock ever exists on the ingest path).
//!
//! Lifecycle:
//!
//! 1. [`ShardStore::recover`] — load the newest valid checkpoint, replay
//!    every acknowledged WAL batch after it (truncating any torn tail),
//!    and hand back a writer positioned at the clean end of the log.
//! 2. [`ShardStore::append_batch`] — frame and checksum each ingest
//!    batch in place in the segment's write buffer *before* it is applied
//!    to the in-memory synopses, syncing per [`SyncPolicy`].
//! 3. [`ShardStore::checkpoint`] — rotate to a fresh segment, durably
//!    write every key's synopsis bytes, then reclaim the segments and
//!    checkpoints the new checkpoint supersedes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use waves_core::bits::Bits;
use waves_obs::trace::{OpenSpan, Stage, TraceCtx};
use waves_obs::{HistId, MetricId, Recorder};

use crate::checkpoint::{
    checkpoint_file_name, load_latest_checkpoint, parse_checkpoint_file_name, write_checkpoint,
    Checkpoint,
};
use crate::file::list_seqs;
use crate::wal::{
    batch_record_len, decode_batch_payload, parse_segment_file_name, scan_segment,
    segment_file_name, SegmentWriter, SEGMENT_HEADER_LEN,
};
use crate::SyncPolicy;

/// Durable position of an appended record: segment sequence number plus
/// the file offset just past the record. A crash that preserves this
/// segment through `offset` preserves the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    pub seq: u64,
    pub offset: u64,
}

/// Everything recovery reconstructs for one shard.
#[derive(Debug)]
pub struct RecoveredShard {
    /// `(key, synopsis bytes)` from the newest valid checkpoint; empty
    /// on first open.
    pub entries: Vec<(u64, Vec<u8>)>,
    /// Acknowledged WAL batches after that checkpoint, in append order,
    /// each entry carrying its word-packed bit stream. The caller
    /// replays these through the synopses it decoded from `entries`.
    pub batches: Vec<Vec<(u64, Bits)>>,
    /// A writer positioned at the clean end of the log, ready for new
    /// appends.
    pub store: ShardStore,
}

/// A shard's open WAL writer plus checkpoint bookkeeping.
#[derive(Debug)]
pub struct ShardStore {
    dir: PathBuf,
    sync: SyncPolicy,
    segment_bytes: u64,
    writer: SegmentWriter,
    /// Appends since the last fsync (drives `SyncPolicy::EveryN`).
    unsynced: u64,
}

impl ShardStore {
    /// Open (or create) shard state in `dir` and reconstruct everything
    /// that was acknowledged before the last shutdown or crash.
    ///
    /// Replay semantics: batches are returned in exactly the order they
    /// were appended, stopping at the first gap, torn record, or corrupt
    /// record — so the result is always a *prefix* of the appended
    /// history. Anything at or past the stop point is deleted/truncated,
    /// making recovery idempotent: a second recover sees a clean log.
    pub fn recover<R: Recorder + ?Sized>(
        dir: &Path,
        sync: SyncPolicy,
        segment_bytes: u64,
        rec: &R,
    ) -> io::Result<RecoveredShard> {
        let t0 = rec.enabled().then(Instant::now);
        fs::create_dir_all(dir)?;
        // Leftover checkpoint temp files are torn writes — discard.
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.to_str().is_some_and(|p| p.ends_with(".tmp")) {
                let _ = fs::remove_file(path);
            }
        }
        let ckpt = load_latest_checkpoint(dir)?;
        let (start_seq, entries) = match ckpt {
            Some(c) => (c.wal_seq, c.entries),
            None => (0, Vec::new()),
        };
        let segments = list_seqs(dir, parse_segment_file_name)?;
        // Segments older than the checkpoint are fully superseded; a
        // crash between checkpoint and reclamation leaves them behind.
        for &seq in segments.range(..start_seq) {
            let _ = fs::remove_file(dir.join(segment_file_name(seq)));
        }
        let mut batches: Vec<Vec<(u64, Bits)>> = Vec::new();
        let mut tail: Option<(u64, u64)> = None;
        let mut expected = start_seq;
        let mut stopped = false;
        for &seq in segments.range(start_seq..) {
            if stopped || seq != expected {
                // Unreachable suffix (after a gap or torn segment):
                // nothing in it was acknowledged under prefix semantics.
                let _ = fs::remove_file(dir.join(segment_file_name(seq)));
                continue;
            }
            let scan = scan_segment(&dir.join(segment_file_name(seq)), seq)?;
            let mut valid_len = scan.valid_len;
            let mut torn = scan.torn;
            for (i, payload) in scan.payloads.iter().enumerate() {
                match decode_batch_payload(payload) {
                    Ok(batch) => batches.push(batch),
                    Err(_) => {
                        // CRC-valid but semantically corrupt: stop at
                        // the record boundary before it.
                        valid_len = if i == 0 {
                            SEGMENT_HEADER_LEN
                        } else {
                            scan.ends[i - 1]
                        };
                        torn = true;
                        break;
                    }
                }
            }
            tail = Some((seq, valid_len));
            if torn {
                stopped = true;
            } else {
                expected = seq + 1;
            }
        }
        let writer = match tail {
            Some((seq, valid_len)) if valid_len >= SEGMENT_HEADER_LEN => {
                SegmentWriter::reopen(dir, seq, valid_len)?
            }
            // Header itself was torn (or no segment exists yet): start
            // the segment over.
            Some((seq, _)) => SegmentWriter::create(dir, seq)?,
            None => SegmentWriter::create(dir, start_seq)?,
        };
        rec.incr(MetricId::StoreBatchesRecovered, batches.len() as u64);
        if let Some(t0) = t0 {
            rec.observe(HistId::StoreRecoveryNs, t0.elapsed().as_nanos() as u64);
        }
        Ok(RecoveredShard {
            entries,
            batches,
            store: ShardStore {
                dir: dir.to_path_buf(),
                sync,
                segment_bytes,
                writer,
                unsynced: 0,
            },
        })
    }

    /// Sequence number of the segment currently accepting appends.
    pub fn wal_seq(&self) -> u64 {
        self.writer.seq()
    }

    /// Append one ingest batch, rotating and syncing per policy.
    /// Returns the record's end position; the batch is *acknowledged*
    /// (guaranteed to survive recovery) once the policy has synced past
    /// it.
    pub fn append_batch<R: Recorder + ?Sized>(
        &mut self,
        batch: &[(u64, Bits)],
        rec: &R,
    ) -> io::Result<WalPosition> {
        self.append_batch_traced(batch, rec, TraceCtx::NONE)
    }

    /// [`ShardStore::append_batch`] carrying a [`TraceCtx`]: records a
    /// `wal` span over the whole append (parented to `ctx.parent`) with
    /// a child `fsync` span when the sync policy fired. Identical to
    /// `append_batch` when `ctx` is inactive or the recorder keeps no
    /// traces.
    pub fn append_batch_traced<R: Recorder + ?Sized>(
        &mut self,
        batch: &[(u64, Bits)],
        rec: &R,
        ctx: TraceCtx,
    ) -> io::Result<WalPosition> {
        let enabled = rec.enabled();
        let t0 = enabled.then(Instant::now);
        let wal_span = OpenSpan::open(ctx, Stage::Wal, rec);
        let record_len = batch_record_len(batch) as u64;
        if !self.writer.is_empty() && self.writer.len() + record_len > self.segment_bytes {
            self.rotate(rec)?;
        }
        let offset = self.writer.append_batch(batch);
        self.unsynced += 1;
        let must_sync = match self.sync {
            SyncPolicy::EveryBatch => true,
            SyncPolicy::EveryN(n) => self.unsynced >= n as u64,
            SyncPolicy::OnCheckpoint => false,
        };
        if must_sync {
            let fsync_span = wal_span.and_then(|wal| OpenSpan::open(wal.ctx(), Stage::Fsync, rec));
            self.sync(rec)?;
            if let Some(span) = fsync_span {
                span.end(rec);
            }
        }
        rec.incr(MetricId::StoreWalAppends, 1);
        rec.incr(MetricId::StoreWalBytes, record_len);
        if let Some(t0) = t0 {
            rec.observe(HistId::StoreWalAppendNs, t0.elapsed().as_nanos() as u64);
        }
        if let Some(span) = wal_span {
            span.end(rec);
        }
        Ok(WalPosition {
            seq: self.writer.seq(),
            offset,
        })
    }

    /// Flush and fsync the current segment. Idempotent; a no-op when
    /// nothing was appended since the last sync.
    pub fn sync<R: Recorder + ?Sized>(&mut self, rec: &R) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.fsync(rec)
    }

    /// Flush and fsync the current segment, counted and timed, whether
    /// or not anything was appended since the last sync.
    fn fsync<R: Recorder + ?Sized>(&mut self, rec: &R) -> io::Result<()> {
        let t0 = rec.enabled().then(Instant::now);
        self.writer.sync()?;
        self.unsynced = 0;
        rec.incr(MetricId::StoreFsyncs, 1);
        if let Some(t0) = t0 {
            rec.observe(HistId::StoreFsyncNs, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Close the current segment (durably) and open the next. The old
    /// segment is synced *before* the new one takes appends, so the
    /// durable log is always a byte-for-byte prefix of the appended one
    /// — recovery's stop-at-first-gap rule depends on this ordering.
    fn rotate<R: Recorder + ?Sized>(&mut self, rec: &R) -> io::Result<()> {
        // Unconditional sync (not `self.sync`): even with zero appends
        // since the last fsync, buffered bytes may remain under
        // `OnCheckpoint`.
        self.fsync(rec)?;
        self.writer = SegmentWriter::create(&self.dir, self.writer.seq() + 1)?;
        Ok(())
    }

    /// Durably checkpoint `entries` (every key's `encode()` bytes) and
    /// reclaim the WAL history the checkpoint supersedes.
    ///
    /// The WAL rotates to a fresh segment first and the checkpoint
    /// records that segment's sequence number, so recovery never needs a
    /// mid-segment resume offset: it replays whole segments `>= wal_seq`
    /// from their beginnings.
    pub fn checkpoint<R: Recorder + ?Sized>(
        &mut self,
        entries: Vec<(u64, Vec<u8>)>,
        rec: &R,
    ) -> io::Result<()> {
        let t0 = rec.enabled().then(Instant::now);
        if !self.writer.is_empty() {
            self.rotate(rec)?;
        } else {
            // Nothing appended to this segment; it is already the clean
            // resume point (but buffered header bytes etc. still need no
            // sync — creation wrote them through).
            self.writer.sync()?;
            self.unsynced = 0;
        }
        let wal_seq = self.writer.seq();
        write_checkpoint(&self.dir, &Checkpoint { wal_seq, entries })?;
        let mut reclaimed = 0u64;
        for seq in list_seqs(&self.dir, parse_segment_file_name)?.range(..wal_seq) {
            if fs::remove_file(self.dir.join(segment_file_name(*seq))).is_ok() {
                reclaimed += 1;
            }
        }
        for seq in list_seqs(&self.dir, parse_checkpoint_file_name)?.range(..wal_seq) {
            let _ = fs::remove_file(self.dir.join(checkpoint_file_name(*seq)));
        }
        rec.incr(MetricId::StoreSegmentsReclaimed, reclaimed);
        rec.incr(MetricId::StoreCheckpoints, 1);
        if let Some(t0) = t0 {
            rec.observe(HistId::StoreCheckpointNs, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_obs::NoopRecorder;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = crate::scratch_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(i: u64) -> Vec<(u64, Bits)> {
        vec![(i % 4, (0..=(i % 11)).map(|j| j % 2 == 0).collect())]
    }

    fn recover(dir: &Path, sync: SyncPolicy, seg: u64) -> RecoveredShard {
        ShardStore::recover(dir, sync, seg, &NoopRecorder).unwrap()
    }

    #[test]
    fn traced_append_records_wal_and_fsync_spans() {
        use waves_obs::trace::{SpanRecorder, TraceId};
        let dir = tmp_dir("shard-trace");
        let mut store = recover(&dir, SyncPolicy::EveryBatch, 1 << 20).store;
        let rec = SpanRecorder::new();
        let ctx = TraceCtx {
            trace: TraceId(77),
            parent: 5,
        };
        store.append_batch_traced(&batch(0), &rec, ctx).unwrap();
        let spans = rec.trace(TraceId(77));
        let wal = spans
            .iter()
            .find(|s| s.stage == Stage::Wal)
            .expect("wal span");
        let fsync = spans
            .iter()
            .find(|s| s.stage == Stage::Fsync)
            .expect("fsync span under EveryBatch");
        assert_eq!(wal.parent, 5);
        assert_eq!(fsync.parent, wal.id);
        assert!(fsync.dur_ns <= wal.dur_ns);
        // Untraced calls record nothing.
        store.append_batch(&batch(1), &rec).unwrap();
        assert_eq!(rec.spans().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_dir_recovers_empty_then_replays_appends() {
        let dir = tmp_dir("shard-fresh");
        let r = recover(&dir, SyncPolicy::EveryBatch, 1 << 20);
        assert!(r.entries.is_empty());
        assert!(r.batches.is_empty());
        let mut store = r.store;
        for i in 0..20 {
            store.append_batch(&batch(i), &NoopRecorder).unwrap();
        }
        drop(store);
        let r = recover(&dir, SyncPolicy::EveryBatch, 1 << 20);
        assert_eq!(r.batches.len(), 20);
        for (i, b) in r.batches.iter().enumerate() {
            assert_eq!(*b, batch(i as u64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp_dir("shard-rotate");
        // Tiny segments force a rotation every couple of batches.
        let mut store = recover(&dir, SyncPolicy::EveryBatch, 128).store;
        for i in 0..30 {
            store.append_batch(&batch(i), &NoopRecorder).unwrap();
        }
        assert!(store.wal_seq() > 0, "expected at least one rotation");
        drop(store);
        assert!(list_seqs(&dir, parse_segment_file_name).unwrap().len() > 1);
        let r = recover(&dir, SyncPolicy::EveryBatch, 128);
        assert_eq!(r.batches.len(), 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment sized to the header plus exactly `k` records keeps the
    /// `k`-th and rotates on the next.
    #[test]
    fn rotation_boundary_is_exact() {
        let one = || vec![(9u64, Bits::from_bools(&[true; 70]))];
        let record = batch_record_len(&one()) as u64;
        for k in 1..4 {
            let dir = tmp_dir("shard-boundary");
            let seg = SEGMENT_HEADER_LEN + k * record;
            let mut store = recover(&dir, SyncPolicy::OnCheckpoint, seg).store;
            for i in 1..=k {
                let at = store.append_batch(&one(), &NoopRecorder).unwrap();
                assert_eq!(
                    at,
                    WalPosition {
                        seq: 0,
                        offset: SEGMENT_HEADER_LEN + i * record
                    }
                );
            }
            let at = store.append_batch(&one(), &NoopRecorder).unwrap();
            assert_eq!(
                at,
                WalPosition {
                    seq: 1,
                    offset: SEGMENT_HEADER_LEN + record
                }
            );
            store.sync(&NoopRecorder).unwrap();
            drop(store);
            assert_eq!(
                recover(&dir, SyncPolicy::OnCheckpoint, seg).batches.len(),
                k as usize + 1
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoint_reclaims_wal_and_recovery_prefers_it() {
        let dir = tmp_dir("shard-ckpt");
        let mut store = recover(&dir, SyncPolicy::EveryBatch, 256).store;
        for i in 0..25 {
            store.append_batch(&batch(i), &NoopRecorder).unwrap();
        }
        let entries = vec![(1u64, vec![0xAB; 9]), (2, vec![0xCD])];
        store.checkpoint(entries.clone(), &NoopRecorder).unwrap();
        // Everything before the checkpoint is gone from the log.
        let segs = list_seqs(&dir, parse_segment_file_name).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(*segs.iter().next().unwrap(), store.wal_seq());
        // Post-checkpoint appends replay on top of the entries.
        store.append_batch(&batch(100), &NoopRecorder).unwrap();
        drop(store);
        let r = recover(&dir, SyncPolicy::EveryBatch, 256);
        assert_eq!(r.entries, entries);
        assert_eq!(r.batches, vec![batch(100)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = tmp_dir("shard-torn");
        let mut store = recover(&dir, SyncPolicy::EveryBatch, 1 << 20).store;
        let mut end = 0;
        for i in 0..10 {
            end = store.append_batch(&batch(i), &NoopRecorder).unwrap().offset;
        }
        let seg_path = dir.join(segment_file_name(store.wal_seq()));
        drop(store);
        // Tear the last record in half.
        fs::OpenOptions::new()
            .write(true)
            .open(&seg_path)
            .unwrap()
            .set_len(end - 3)
            .unwrap();
        let r = recover(&dir, SyncPolicy::EveryBatch, 1 << 20);
        assert_eq!(r.batches.len(), 9);
        drop(r);
        // The torn bytes were truncated: a second recover sees a clean
        // log with the same nine batches.
        let r = recover(&dir, SyncPolicy::EveryBatch, 1 << 20);
        assert_eq!(r.batches.len(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_after_a_torn_one_are_discarded() {
        let dir = tmp_dir("shard-gap");
        let mut store = recover(&dir, SyncPolicy::EveryBatch, 96).store;
        for i in 0..12 {
            store.append_batch(&batch(i), &NoopRecorder).unwrap();
        }
        assert!(store.wal_seq() >= 2, "need >= 3 segments for this test");
        drop(store);
        // Corrupt segment 0's first record: only its (empty) prefix is
        // acknowledged, so segments 1.. must not resurrect later batches.
        let p = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&p).unwrap();
        let i = SEGMENT_HEADER_LEN as usize + 9;
        bytes[i] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();
        let r = recover(&dir, SyncPolicy::EveryBatch, 96);
        assert!(r.batches.is_empty());
        assert_eq!(list_seqs(&dir, parse_segment_file_name).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn on_checkpoint_policy_defers_sync_but_checkpoint_lands_everything() {
        let dir = tmp_dir("shard-oncp");
        let mut store = recover(&dir, SyncPolicy::OnCheckpoint, 1 << 20).store;
        for i in 0..8 {
            store.append_batch(&batch(i), &NoopRecorder).unwrap();
        }
        store
            .checkpoint(vec![(7, vec![1, 2, 3])], &NoopRecorder)
            .unwrap();
        drop(store);
        let r = recover(&dir, SyncPolicy::OnCheckpoint, 1 << 20);
        assert_eq!(r.entries, vec![(7, vec![1, 2, 3])]);
        assert!(r.batches.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
