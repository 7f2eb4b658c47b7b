//! Crash-recovery proof for `waves-store`: kill the process at an
//! arbitrary byte offset in the WAL and the recovered engine must
//! answer every query exactly like an engine that never crashed and
//! ingested only the acknowledged prefix.
//!
//! "Kill at byte offset `k`" is simulated by copying a pristine,
//! fully-synced store directory and truncating the shard's WAL segment
//! to `k` bytes (a crash preserves an arbitrary prefix of the file);
//! the corruption sweep instead flips one bit at offset `k` (a torn
//! sector write). In both cases the acknowledged prefix is the set of
//! records that fully survive, and recovery must restore exactly those
//! — nothing more (no garbage decodes), nothing less (no acknowledged
//! batch lost).
//!
//! The workload comes from the shared `waves::dst` schedule builder
//! under one fixed seed — the seed is the only source of randomness,
//! so every assertion message names it and a failure reproduces from
//! this file alone.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use waves::dst::{run, Schedule, Step};
use waves::net::{Client, Server, ServerConfig};
use waves::obs::NoopRecorder;
use waves::store::{scratch_dir, ShardStore, Store};
use waves::{
    Bits, DetWave, Engine, EngineConfig, IngestRequest, PersistConfig, SyncPolicy, WaveError,
};

const WINDOW: u64 = 64;
const EPS: f64 = 0.25;
const KEYS: u64 = 5;
const SEED: u64 = 0xC0FFEE;

fn engine_cfg(root: &Path) -> EngineConfig {
    EngineConfig::builder()
        .num_shards(1)
        .max_window(WINDOW)
        .eps(EPS)
        .persist_config(PersistConfig::new(root).sync_policy(SyncPolicy::EveryBatch))
        .build()
}

/// The acknowledged batch sequence, extracted from a fixed-seed
/// schedule's ingest steps.
fn batches(n: usize) -> Vec<Vec<(u64, Vec<bool>)>> {
    let mut b = Schedule::builder(SEED)
        .num_keys(KEYS)
        .max_window(WINDOW)
        .eps(EPS);
    for _ in 0..n {
        b = b.ingest_random(3);
    }
    let out: Vec<_> = b
        .build()
        .steps
        .into_iter()
        .filter_map(|s| match s {
            Step::Ingest { batch, .. } => Some(batch),
            _ => None,
        })
        .collect();
    assert_eq!(out.len(), n);
    out
}

/// The single-threaded oracle over the first `acked` batches.
fn oracle(all: &[Vec<(u64, Vec<bool>)>], acked: usize) -> HashMap<u64, DetWave> {
    let mut keys: HashMap<u64, DetWave> = HashMap::new();
    for batch in &all[..acked] {
        for (key, bits) in batch {
            keys.entry(*key)
                .or_insert_with(|| DetWave::new(WINDOW, EPS).unwrap())
                .push_words(Bits::from_bools(bits).as_ref());
        }
    }
    keys
}

/// Every query on the recovered engine equals the oracle, including
/// `UnknownKey` for keys whose only batches were lost to the crash.
fn assert_matches_oracle(
    engine: &Engine<DetWave>,
    all: &[Vec<(u64, Vec<bool>)>],
    acked: usize,
    ctx: &str,
) {
    let oracle = oracle(all, acked);
    for key in 0..KEYS {
        for window in [1u64, WINDOW / 3, WINDOW] {
            let got = engine.query(key, window);
            let want = match oracle.get(&key) {
                Some(wave) => wave.query(window),
                None => Err(WaveError::UnknownKey { key }),
            };
            assert_eq!(got, want, "{ctx}: key={key} window={window} seed={SEED}");
        }
    }
}

/// Build the pristine store: META + one shard whose WAL holds the
/// batches, every record fsynced. Returns the segment path and each
/// record's end offset (so a cut can be classified).
fn build_pristine(root: &Path, all: &[Vec<(u64, Vec<bool>)>]) -> (PathBuf, Vec<u64>) {
    let store = Store::open(root, 1).unwrap();
    let shard_dir = store.shard_dir(0);
    let mut shard = ShardStore::recover(&shard_dir, SyncPolicy::EveryBatch, 1 << 20, &NoopRecorder)
        .unwrap()
        .store;
    let mut ends = Vec::new();
    for batch in all {
        let packed: Vec<(u64, Bits)> = batch
            .iter()
            .map(|(k, bits)| (*k, Bits::from_bools(bits)))
            .collect();
        ends.push(shard.append_batch(&packed, &NoopRecorder).unwrap().offset);
    }
    let seg = shard_dir.join(format!("wal-{:016x}.log", shard.wal_seq()));
    assert_eq!(shard.wal_seq(), 0, "test assumes a single segment");
    (seg, ends)
}

/// Copy the two-level store tree (root/META + root/shard-0/*).
fn copy_store(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_store(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

#[test]
fn truncation_at_every_byte_offset_recovers_acknowledged_prefix() {
    let all = batches(20);
    let pristine = scratch_dir("recovery-trunc-pristine");
    let (seg, ends) = build_pristine(&pristine, &all);
    let rel_seg = seg.strip_prefix(&pristine).unwrap().to_path_buf();
    let total = fs::metadata(&seg).unwrap().len();
    assert_eq!(total, *ends.last().unwrap());

    let work = scratch_dir("recovery-trunc-work");
    for cut in 0..=total {
        copy_store(&pristine, &work);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(work.join(&rel_seg))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let acked = ends.iter().filter(|&&e| e <= cut).count();
        let engine = Engine::new(engine_cfg(&work)).unwrap();
        assert_matches_oracle(&engine, &all, acked, &format!("cut={cut}"));
        drop(engine);
        fs::remove_dir_all(&work).unwrap();
    }
    fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn bit_flip_at_any_offset_never_decodes_garbage() {
    let all = batches(20);
    let pristine = scratch_dir("recovery-flip-pristine");
    let (seg, ends) = build_pristine(&pristine, &all);
    let rel_seg = seg.strip_prefix(&pristine).unwrap().to_path_buf();
    let total = fs::metadata(&seg).unwrap().len();
    // Record i spans (ends[i-1] | header)..ends[i]; a flip inside record
    // i invalidates it and everything after under prefix semantics. A
    // flip in the 16-byte segment header invalidates the whole segment.
    let record_start = |i: usize| -> u64 {
        if i == 0 {
            16
        } else {
            ends[i - 1]
        }
    };

    let work = scratch_dir("recovery-flip-work");
    for pos in (0..total).step_by(3) {
        copy_store(&pristine, &work);
        let path = work.join(&rel_seg);
        let mut bytes = fs::read(&path).unwrap();
        bytes[pos as usize] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let acked = if pos < 16 {
            0
        } else {
            (0..ends.len())
                .find(|&i| record_start(i) <= pos && pos < ends[i])
                .expect("record spans tile the segment body")
        };
        let engine = Engine::new(engine_cfg(&work)).unwrap();
        assert_matches_oracle(&engine, &all, acked, &format!("flip at {pos}"));
        drop(engine);
        fs::remove_dir_all(&work).unwrap();
    }
    fs::remove_dir_all(&pristine).unwrap();
}

/// Clean shutdown writes a final checkpoint; a reopened engine reports
/// the same per-shard population and answers identically.
#[test]
fn clean_shutdown_and_reopen_preserves_snapshot_counts() {
    let all = batches(40);
    let root = scratch_dir("recovery-clean");
    let cfg = EngineConfig::builder()
        .num_shards(2)
        .max_window(WINDOW)
        .eps(EPS)
        .persist_config(PersistConfig::new(&root).sync_policy(SyncPolicy::OnCheckpoint))
        .build();
    let before;
    {
        let engine = Engine::new(cfg.clone()).unwrap();
        for batch in &all {
            let packed: Vec<(u64, Bits)> = batch
                .iter()
                .map(|(k, bits)| (*k, Bits::from_bools(bits)))
                .collect();
            engine
                .ingest(IngestRequest::batch(packed).blocking(true))
                .unwrap();
        }
        engine.flush();
        before = engine.snapshot();
    }
    let engine = Engine::new(cfg).unwrap();
    let after = engine.snapshot();
    assert_eq!(after.keys(), before.keys());
    assert_eq!(after.entries(), before.entries());
    assert_eq!(after.resident_bytes(), before.resident_bytes());
    // The two-shard engine routes per key, but the per-key bit order is
    // the batch order, so the one-wave-per-key oracle still applies.
    let oracle = oracle(&all, all.len());
    for (key, wave) in &oracle {
        assert_eq!(
            engine.query(*key, WINDOW),
            wave.query(WINDOW),
            "clean reopen: key={key} seed={SEED}"
        );
    }
    fs::remove_dir_all(&root).unwrap();
}

/// The same crash/recovery contract, driven end-to-end through the
/// simulation harness: ingest, checkpoint, more ingest, a WAL kill at
/// half the segment, recovery, and full-window interrogation — the sim
/// computes the acknowledged prefix itself and checks every answer.
#[test]
fn dst_schedule_crash_recovery_matches_oracle() {
    let mut b = Schedule::builder(SEED ^ 1)
        .persist()
        .num_keys(KEYS)
        .max_window(WINDOW)
        .eps(EPS);
    for _ in 0..6 {
        b = b.ingest_random(4);
    }
    b = b.checkpoint();
    for _ in 0..4 {
        b = b.ingest_random(4);
    }
    let sched = b
        .crash(500)
        .query_all()
        .ingest_random(4)
        .flush()
        .query_all()
        .restart()
        .query_all()
        .build();
    let report = run(&sched).unwrap_or_else(|v| {
        panic!(
            "{v}\nreplay: rebuild with Schedule::builder({}) exactly as this test does",
            sched.seed
        )
    });
    assert!(report.checks >= 3 * KEYS, "too few oracle checks ran");
}

/// A restarted TCP server with the same `--persist-dir` serves the
/// state the previous incarnation acknowledged.
#[test]
fn server_restart_keeps_state() {
    let root = scratch_dir("recovery-server");
    let server_cfg = || ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(2)
            .max_window(WINDOW)
            .eps(EPS)
            .persist_config(PersistConfig::new(&root).sync_policy(SyncPolicy::EveryBatch))
            .build(),
        ..Default::default()
    };
    let mut expected: HashMap<u64, f64> = HashMap::new();
    {
        let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for key in 0..6u64 {
            let bits: Vec<bool> = (0..=key).map(|j| j % 2 == 0).collect();
            client.ingest(IngestRequest::of(key, &bits)).unwrap();
            expected.insert(key, bits.iter().filter(|&&b| b).count() as f64);
        }
        client.flush().unwrap();
        client.shutdown_server().unwrap();
        server.wait();
    }
    let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (key, want) in expected {
        let est = client.query(key, WINDOW).unwrap();
        assert_eq!(est.value, want, "key={key}");
        assert!(est.exact, "tiny windows stay exact");
    }
    client.shutdown_server().unwrap();
    server.wait();
    fs::remove_dir_all(&root).unwrap();
}
