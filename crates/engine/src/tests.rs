//! The engine's unit tests: the `tests` module of `lib.rs`, in its own
//! file. The shard's own step-by-step test is in `shard.rs`.

use super::*;
use std::collections::HashMap;
use waves_obs::MetricsRegistry;
use waves_store::ShardStore;

fn lcg_bits(seed: u64, len: usize, density_mod: u64, density_lt: u64) -> Vec<bool> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % density_mod < density_lt
        })
        .collect()
}

fn small_cfg(shards: usize) -> EngineConfig {
    EngineConfig::builder()
        .num_shards(shards)
        .max_window(64)
        .eps(0.25)
        .build()
}

#[test]
fn config_builder_defaults_and_clamps() {
    let cfg = EngineConfig::builder().build();
    assert_eq!(cfg.num_shards, 4);
    assert_eq!(cfg.queue_capacity, 1024);
    let cfg = EngineConfig::builder()
        .num_shards(0)
        .queue_capacity(0)
        .build();
    assert_eq!(cfg.num_shards, 1);
    assert_eq!(cfg.queue_capacity, 1);
}

#[test]
fn bad_synopsis_params_fail_at_construction() {
    let cfg = EngineConfig::builder().eps(7.5).build();
    assert_eq!(Engine::new(cfg).err(), Some(WaveError::InvalidEpsilon(7.5)));
    let cfg = EngineConfig::builder().max_window(0).build();
    assert!(Engine::new(cfg).is_err());
}

/// Both synopses refuse a window past the bound with the same typed
/// error (the EH used to accept it, overflow in expiry, and report
/// every key as `0 (exact)`).
#[test]
fn window_past_the_bound_is_a_typed_error_for_either_synopsis() {
    let cfg = EngineConfig::builder()
        .num_shards(2)
        .max_window(u64::MAX)
        .eps(0.25)
        .build();
    let want = Some(WaveError::InvalidWindow(u64::MAX));
    assert_eq!(Engine::new(cfg.clone()).err(), want);
    let eh = Engine::with_factory(
        cfg,
        || waves_eh::EhCount::new(u64::MAX, 0.25),
        Arc::new(NoopRecorder),
    );
    assert_eq!(eh.err(), want);
}

#[test]
fn per_key_results_match_single_threaded_oracle() {
    let engine = Engine::new(small_cfg(4)).unwrap();
    let num_keys = 200u64;
    let mut oracles: HashMap<Key, DetWave> = HashMap::new();
    // Interleave keys heavily: several rounds of per-key chunks.
    for round in 0..5u64 {
        let mut batch: Vec<KeyedBits> = Vec::new();
        for key in 0..num_keys {
            let bits = lcg_bits(round * 1_000 + key, 37, 3, 1);
            let oracle = oracles
                .entry(key)
                .or_insert_with(|| DetWave::new(64, 0.25).unwrap());
            bits.iter().for_each(|&b| oracle.push_bit(b));
            batch.push((key, Bits::from(bits)));
        }
        engine
            .ingest(IngestRequest::batch(batch).blocking(true))
            .unwrap();
    }
    engine.flush();
    for key in 0..num_keys {
        for window in [1u64, 13, 64] {
            assert_eq!(
                engine.query(key, window).unwrap(),
                oracles[&key].query(window).unwrap(),
                "key={key} window={window}"
            );
        }
    }
}

#[test]
fn install_synopsis_replaces_key_state() {
    let engine = Engine::new(small_cfg(2)).unwrap();
    engine
        .ingest(IngestRequest::of(9, [true, true, true]).blocking(true))
        .unwrap();
    engine.flush();
    assert_eq!(engine.query(9, 64).unwrap().value, 3.0);

    // Build a replacement synopsis elsewhere (a "primary") and ship
    // its encode() bytes; the install replaces the local state.
    let mut primary = DetWave::new(64, 0.25).unwrap();
    primary.push_words(Bits::from_bools(&[true, false, false, true, true, false]).as_ref());
    engine.install_synopsis(9, primary.encode()).unwrap();
    engine.flush();
    assert_eq!(engine.query(9, 64).unwrap(), primary.query(64).unwrap());

    // Installing under a fresh key creates it.
    let mut other = DetWave::new(64, 0.25).unwrap();
    other.push_bit(true);
    engine.install_synopsis(77, other.encode()).unwrap();
    assert_eq!(engine.query(77, 64).unwrap().value, 1.0);
}

#[test]
fn install_synopsis_never_rolls_a_key_back() {
    let engine = Engine::new(small_cfg(2)).unwrap();
    let wave = |bits: &[bool]| {
        let mut w = DetWave::new(64, 0.25).unwrap();
        w.push_words(Bits::from_bools(bits).as_ref());
        w
    };
    engine
        .ingest(IngestRequest::of(9, [true, false, true, true]).blocking(true))
        .unwrap();
    let fetch = |key| engine.wait(|reply| ShardRequest::Fetch { key, reply });
    let held = fetch(9).unwrap();

    // An older copy is acknowledged and changes nothing.
    engine
        .install_synopsis(9, wave(&[true, true, true]).encode())
        .unwrap();
    assert_eq!(fetch(9).unwrap(), held);

    // An equal position replaces, and so does a newer one.
    let equal = wave(&[false, false, false, true]);
    engine.install_synopsis(9, equal.encode()).unwrap();
    assert_eq!(fetch(9).unwrap(), equal.encode());
    let newer = wave(&[true; 9]);
    engine.install_synopsis(9, newer.encode()).unwrap();
    assert_eq!(fetch(9).unwrap(), newer.encode());

    assert_eq!(fetch(10), Err(WaveError::UnknownKey { key: 10 }));
}

#[test]
fn install_synopsis_rejects_garbage_and_keeps_state() {
    let engine = Engine::new(small_cfg(1)).unwrap();
    engine
        .ingest(IngestRequest::of(4, [true, true]).blocking(true))
        .unwrap();
    engine.flush();
    // Empty input can't even yield the gamma-coded max_window.
    let err = engine.install_synopsis(4, Vec::new()).unwrap_err();
    match err {
        WaveError::Io(io) => assert_eq!(io.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("expected Io(InvalidData), got {other:?}"),
    }
    // The failed install left the previous state untouched.
    assert_eq!(engine.query(4, 64).unwrap().value, 2.0);
}

#[test]
fn unknown_key_and_oversized_window_errors() {
    let engine = Engine::new(small_cfg(2)).unwrap();
    engine
        .ingest(IngestRequest::of(1, [true]).blocking(true))
        .unwrap();
    engine.flush();
    assert_eq!(
        engine.query(999, 64).err(),
        Some(WaveError::UnknownKey { key: 999 })
    );
    assert_eq!(
        engine.query(1, 65).err(),
        Some(WaveError::WindowTooLarge {
            requested: 65,
            max: 64
        })
    );
}

#[test]
fn backpressure_sheds_and_counts() {
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .queue_capacity(1)
        .max_window(1 << 20)
        .eps(0.01)
        .build();
    let engine = Engine::new(cfg).unwrap();
    // A large first batch keeps the single worker occupied while we spam
    // the capacity-1 queue; at least one try must bounce.
    let big = vec![(0u64, Bits::from(vec![true; 1 << 20]))];
    engine
        .ingest(IngestRequest::batch(big).blocking(true))
        .unwrap();
    let mut saw_backpressure = false;
    for _ in 0..10_000 {
        match engine.ingest(IngestRequest::of(0, [true, false])) {
            Err(WaveError::Backpressure { shard }) => {
                assert_eq!(shard, 0);
                saw_backpressure = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(()) => {}
        }
    }
    assert!(saw_backpressure, "capacity-1 queue never filled");
    assert!(engine.dropped_items() >= 2);
    let snap = engine.snapshot();
    assert!(snap.backpressure_events >= 1);
    assert_eq!(snap.dropped_items, engine.dropped_items());
}

/// A query and a flush wait for no room: issued while the one slot
/// of an occupied shard's queue is taken, each goes in behind the queued
/// batches and answers with all of them applied.
#[test]
fn a_query_and_a_flush_pass_a_full_queue_and_answer() {
    const N: u64 = 1 << 20;
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .queue_capacity(1)
        .max_window(N)
        .eps(0.01)
        .build();
    let engine = Engine::new(cfg).unwrap();
    let mut oracle = DetWave::new(N, 0.01).unwrap();
    let big = Bits::from(lcg_bits(5, 1 << 20, 2, 1));
    oracle.push_words(big.as_ref());
    engine
        .ingest(IngestRequest::batch(vec![(0, big)]).blocking(true))
        .unwrap();
    let small = Bits::from_bools(&[true, false, true]);
    if engine
        .ingest(IngestRequest::batch(vec![(0, small.clone())]))
        .is_ok()
    {
        oracle.push_words(small.as_ref());
    }
    assert_eq!(engine.query(0, N).unwrap(), oracle.query(N).unwrap());
    engine.flush();
    assert_eq!(engine.snapshot().shards[0].queue_depth, 0);
    assert_eq!(engine.query(0, 100).unwrap(), oracle.query(100).unwrap());
}

#[test]
fn partial_batch_delivery_under_backpressure() {
    // One-shot: non-blocking batch into empty queues always fits.
    let engine = Engine::new(small_cfg(2)).unwrap();
    let batch: Vec<KeyedBits> = (0..10u64).map(|k| (k, Bits::from([true; 4]))).collect();
    engine.ingest(IngestRequest::batch(batch)).unwrap();
    engine.flush();
    for k in 0..10u64 {
        assert_eq!(engine.query(k, 64).unwrap(), Estimate::exact(4), "k={k}");
    }
}

#[test]
fn snapshot_reports_keys_and_space() {
    let engine = Engine::new(small_cfg(3)).unwrap();
    let batch: Vec<KeyedBits> = (0..50u64)
        .map(|k| (k, Bits::from(lcg_bits(k, 100, 2, 1))))
        .collect();
    engine
        .ingest(IngestRequest::batch(batch).blocking(true))
        .unwrap();
    engine.flush();
    let snap = engine.snapshot();
    assert_eq!(snap.shards.len(), 3);
    assert_eq!(snap.keys(), 50);
    assert!(snap.entries() > 0);
    assert!(snap.resident_bytes() > 0);
    assert_eq!(snap.dropped_items, 0);
    // Every shard got some keys (fibonacci hashing spreads 50 keys).
    assert!(snap.shards.iter().all(|s| s.keys > 0));
    let text = snap.to_text();
    assert!(text.contains("== engine =="));
    assert!(text.contains("total"));
}

#[test]
fn generic_over_eh_synopsis() {
    let cfg = small_cfg(2);
    let engine = Engine::with_factory(
        cfg,
        || waves_eh::EhCount::new(64, 0.25),
        Arc::new(NoopRecorder),
    )
    .unwrap();
    engine
        .ingest(IngestRequest::of(3, [true; 10]).blocking(true))
        .unwrap();
    engine.flush();
    let est = engine.query(3, 64).unwrap();
    assert!(est.brackets(10));
}

#[test]
fn metrics_flow_into_registry() {
    let reg = Arc::new(MetricsRegistry::new());
    let cfg = small_cfg(2);
    let engine = Engine::new_recorded(cfg, Arc::clone(&reg)).unwrap();
    let batch: Vec<KeyedBits> = (0..8u64).map(|k| (k, Bits::from([true; 5]))).collect();
    engine
        .ingest(IngestRequest::batch(batch).blocking(true))
        .unwrap();
    engine.flush();
    engine.query(0, 64).unwrap();
    engine.query(12345, 64).unwrap_err();
    use waves_obs::MetricId as M;
    assert_eq!(reg.counter(M::EngineItemsIngested), 40);
    assert!(reg.counter(M::EngineBatchesIngested) >= 1);
    assert_eq!(reg.counter(M::EngineQueriesServed), 2);
    assert_eq!(reg.counter(M::EngineBackpressureEvents), 0);
    assert!(reg.histogram(HistId::EngineQueryNs).snapshot().count >= 2);
    assert!(reg.histogram(HistId::EngineIngestBatchNs).snapshot().count >= 1);
    assert!(reg.histogram(HistId::EngineQueueDepth).snapshot().count >= 1);
}

#[test]
fn shard_dimension_sums_to_global_counters() {
    let reg = Arc::new(MetricsRegistry::new());
    let engine = Engine::new_recorded(small_cfg(3), Arc::clone(&reg)).unwrap();
    let batch: Vec<KeyedBits> = (0..40u64).map(|k| (k, Bits::from([true; 3]))).collect();
    engine
        .ingest(IngestRequest::batch(batch).blocking(true))
        .unwrap();
    engine.flush();
    for k in 0..10u64 {
        engine.query(k, 64).unwrap();
    }
    use waves_obs::MetricId as M;
    let snap = reg.snapshot();
    let shard_items: u64 = snap.shards.iter().map(|s| s.items).sum();
    let shard_batches: u64 = snap.shards.iter().map(|s| s.batches).sum();
    let shard_queries: u64 = snap.shards.iter().map(|s| s.queries).sum();
    assert_eq!(shard_items, reg.counter(M::EngineItemsIngested));
    assert_eq!(shard_items, 120);
    assert_eq!(shard_batches, reg.counter(M::EngineBatchesIngested));
    assert_eq!(shard_queries, reg.counter(M::EngineQueriesServed));
    // Key families: every ingested item lands in exactly one family.
    assert_eq!(snap.families.iter().sum::<u64>(), 120);
}

#[test]
fn traced_ingest_and_query_record_span_tree() {
    use waves_obs::trace::{SpanRecorder, TraceCtx, TraceId};
    use waves_obs::{Fanout, Stage};
    let rec = Arc::new(Fanout(MetricsRegistry::new(), SpanRecorder::new()));
    let cfg = EngineConfig::builder()
        .num_shards(2)
        .max_window(64)
        .eps(0.25)
        .persist_config(
            PersistConfig::new(waves_store::scratch_dir("engine-trace"))
                .sync_policy(SyncPolicy::EveryBatch),
        )
        .build();
    let dir = cfg.persist.as_ref().unwrap().dir.clone();
    let (n, eps) = (cfg.max_window, cfg.eps);
    let engine = Engine::with_factory(cfg, move || DetWave::new(n, eps), Arc::clone(&rec)).unwrap();
    let ctx = TraceCtx {
        trace: TraceId(42),
        parent: 1,
    };
    engine
        .ingest(IngestRequest::of(7, [true; 5]).traced(ctx))
        .unwrap();
    engine.flush();
    engine
        .wait(|reply| ShardRequest::Query {
            key: 7,
            window: 64,
            ctx,
            reply,
        })
        .unwrap();
    let spans = rec.1.trace(TraceId(42));
    let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
    // Ingest: queue + shard + wal + fsync. Query: queue + shard.
    assert_eq!(stages.iter().filter(|&&s| s == Stage::Queue).count(), 2);
    assert_eq!(stages.iter().filter(|&&s| s == Stage::Shard).count(), 2);
    assert_eq!(stages.iter().filter(|&&s| s == Stage::Wal).count(), 1);
    assert_eq!(stages.iter().filter(|&&s| s == Stage::Fsync).count(), 1);
    // Structure: queue spans parent to the ctx parent, wal parents
    // to the ingest's shard span.
    let wal = spans.iter().find(|s| s.stage == Stage::Wal).unwrap();
    let shard_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == Stage::Shard)
        .map(|s| s.id)
        .collect();
    assert!(shard_ids.contains(&wal.parent));
    assert!(spans
        .iter()
        .filter(|s| s.stage == Stage::Queue)
        .all(|s| s.parent == 1));
    // Untraced work records no spans.
    engine.ingest(IngestRequest::of(8, [true])).unwrap();
    engine.flush();
    engine.query(8, 64).unwrap();
    assert_eq!(rec.1.spans().len(), spans.len());
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queries_observe_prior_ingests_per_key() {
    // FIFO-per-shard read-your-writes: no flush needed between an
    // ingest and a query for the same key.
    let engine = Engine::new(small_cfg(4)).unwrap();
    for i in 0..100u64 {
        engine
            .ingest(IngestRequest::of(i % 7, [true]).blocking(true))
            .unwrap();
        let est = engine.query(i % 7, 64).unwrap();
        assert_eq!(est.value, (i / 7 + 1) as f64, "i={i}");
    }
}

/// A registry whose worker sleeps a moment after each run of batches,
/// the shard out of its queue, so a query made meanwhile waits in the queue.
struct SlowRuns(MetricsRegistry);

impl Recorder for SlowRuns {
    fn incr(&self, id: MetricId, by: u64) {
        self.0.incr(id, by);
        if id == MetricId::EngineBatchesIngested {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
}

/// A query sees every batch enqueued before it, whichever path answers
/// it. A writer publishes how many blocking ingests of an all-ones key
/// it has made; a reader loads that count, then queries, and the exact
/// answer is never below it. The writer waits for two queries after
/// each write, and the worker sleeps after each run: a query made while
/// a run is pending or asleep waits in the queue, and one made once the
/// worker is back answers on the reader's thread. A third thread
/// ingests other keys between writes, so queries also meet batches of
/// someone else's.
#[test]
fn a_query_sees_every_batch_enqueued_before_it_on_either_path() {
    use std::sync::atomic::AtomicU64;
    const WRITES: u64 = 500;
    const WINDOW: u64 = 4_096;
    let rec = Arc::new(SlowRuns(MetricsRegistry::new()));
    let cfg = EngineConfig::builder().num_shards(1).build();
    let factory = || DetWave::new(WINDOW, 0.25);
    let engine = Engine::with_factory(cfg, factory, Arc::clone(&rec)).unwrap();
    let (written, reads) = (AtomicU64::new(0), AtomicU64::new(0));
    let done = AtomicBool::new(false);
    // Yield until `cond` holds or the writer is done.
    let until = |cond: &dyn Fn() -> bool| {
        while !cond() && !done.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for n in 1..=WRITES {
                let req = IngestRequest::of(0, [true]).blocking(true);
                engine.ingest(req).unwrap();
                written.store(n, Ordering::Release);
                let seen = reads.load(Ordering::Acquire);
                until(&|| reads.load(Ordering::Acquire) >= seen + 2);
            }
            done.store(true, Ordering::Release);
        });
        s.spawn(|| {
            for key in (1..=64).cycle() {
                let seen = written.load(Ordering::Acquire);
                until(&|| written.load(Ordering::Acquire) > seen);
                if done.load(Ordering::Acquire) {
                    break;
                }
                let req = IngestRequest::of(key, [true; 64]).blocking(true);
                engine.ingest(req).unwrap();
            }
        });
        s.spawn(|| {
            // A failed check stops the writer too, instead of leaving it
            // waiting for reads.
            struct Stop<'a>(&'a AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _stop = Stop(&done);
            until(&|| written.load(Ordering::Acquire) > 0);
            while !done.load(Ordering::Acquire) {
                let n = written.load(Ordering::Acquire);
                let est = engine.query(0, WINDOW).unwrap();
                assert!(est.exact && est.lo >= n, "{est:?} after {n} writes");
                reads.fetch_add(1, Ordering::Release);
            }
        });
    });
    assert_eq!(engine.query(0, WINDOW).unwrap(), Estimate::exact(WRITES));
    let (served, inline) = (
        rec.0.counter(MetricId::EngineQueriesServed),
        rec.0.counter(MetricId::EngineQueriesInline),
    );
    assert!(0 < inline && inline < served, "{inline} of {served} inline");
}

/// A registry whose worker, inside a run, waits for the gate before it
/// counts the run's batches: a test that holds the gate holds the worker
/// inside a run, the shard out of its queue.
struct GatedRuns(MetricsRegistry, Mutex<()>);

impl Recorder for GatedRuns {
    fn incr(&self, id: MetricId, by: u64) {
        if id == MetricId::EngineBatchesIngested {
            drop(self.1.lock().unwrap());
        }
        self.0.incr(id, by);
    }
}

/// A query behind a batch the worker has yet to apply waits in the
/// queue for it. The test holds the gate, so the batch stays pending —
/// queued, or in a run the worker cannot finish — and nothing can
/// answer until it lets go.
#[test]
fn a_query_behind_a_pending_batch_waits_in_the_queue() {
    use std::time::Duration;
    use waves_obs::MetricId as M;
    let rec = Arc::new(GatedRuns(MetricsRegistry::new(), Mutex::new(())));
    let factory = || DetWave::new(64, 0.25);
    let engine = Engine::with_factory(small_cfg(1), factory, Arc::clone(&rec)).unwrap();
    engine
        .ingest(IngestRequest::of(7, [true; 3]).blocking(true))
        .unwrap();
    engine.flush();
    let held = rec.1.lock().unwrap();
    engine
        .ingest(IngestRequest::of(7, [true; 5]).blocking(true))
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    engine.submit(ShardRequest::Query {
        key: 7,
        window: 64,
        ctx: TraceCtx::NONE,
        reply: Box::new(move |res| tx.send(res).unwrap()),
    });
    let early = rx.recv_timeout(Duration::from_millis(50));
    assert!(early.is_err(), "answered ahead of a pending batch");
    drop(held);
    let answer = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(answer, Ok(Ok(Estimate::exact(8))));
    assert_eq!(rec.0.counter(M::EngineQueriesInline), 0);
    assert_eq!(rec.0.counter(M::EngineQueriesServed), 1);
}

#[test]
fn drop_joins_workers_cleanly() {
    let engine = Engine::new(small_cfg(8)).unwrap();
    engine
        .ingest(IngestRequest::of(1, [true; 100]).blocking(true))
        .unwrap();
    drop(engine); // must not hang or panic
}

fn persist_cfg(dir: &std::path::Path, shards: usize) -> EngineConfig {
    EngineConfig::builder()
        .num_shards(shards)
        .max_window(64)
        .eps(0.25)
        .persist_config(PersistConfig::new(dir).sync_policy(SyncPolicy::EveryBatch))
        .build()
}

#[test]
fn restart_preserves_state_and_query_results() {
    let dir = waves_store::scratch_dir("engine-restart");
    let mut oracles: HashMap<Key, DetWave> = HashMap::new();
    let cfg = persist_cfg(&dir, 3);
    {
        let engine = Engine::new(cfg.clone()).unwrap();
        for round in 0..4u64 {
            let mut batch: Vec<KeyedBits> = Vec::new();
            for key in 0..60u64 {
                let bits = lcg_bits(round * 777 + key, 29, 3, 1);
                let oracle = oracles
                    .entry(key)
                    .or_insert_with(|| DetWave::new(64, 0.25).unwrap());
                bits.iter().for_each(|&b| oracle.push_bit(b));
                batch.push((key, Bits::from(bits)));
            }
            engine
                .ingest(IngestRequest::batch(batch).blocking(true))
                .unwrap();
        }
        engine.flush();
    } // clean shutdown: final checkpoint
    let engine = Engine::new(cfg).unwrap();
    let snap = engine.snapshot();
    assert_eq!(snap.keys(), 60, "all keys survive restart");
    assert!(snap.entries() > 0);
    for key in 0..60u64 {
        for window in [1u64, 17, 64] {
            assert_eq!(
                engine.query(key, window).unwrap(),
                oracles[&key].query(window).unwrap(),
                "key={key} window={window}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_replays_wal_without_checkpoint() {
    // Auto-checkpoint disabled and no clean-shutdown path exercised:
    // kill the engine via mem::forget so recovery must come from the
    // WAL alone (EveryBatch syncs acknowledge each batch).
    let dir = waves_store::scratch_dir("engine-wal-only");
    let cfg = EngineConfig::builder()
        .num_shards(2)
        .max_window(64)
        .eps(0.25)
        .persist_config(
            PersistConfig::new(&dir)
                .sync_policy(SyncPolicy::EveryBatch)
                .checkpoint_every(0),
        )
        .build();
    {
        let engine = Engine::new(cfg.clone()).unwrap();
        for key in 0..10u64 {
            engine
                .ingest(IngestRequest::of(key, [true; 7]).blocking(true))
                .unwrap();
        }
        engine.flush();
        let shard0 = std::fs::read_dir(dir.join("shard-0")).unwrap();
        assert!(
            shard0
                .filter_map(|e| e.ok())
                .all(|e| !e.file_name().to_string_lossy().ends_with(".ckpt")),
            "no checkpoint should exist before shutdown"
        );
        // Simulate a crash: leak the engine so Drop never runs and no
        // final checkpoint is written. The workers stay parked on
        // their closed-over receivers; recovery must use the WAL.
        std::mem::forget(engine);
    }
    let engine = Engine::new(cfg).unwrap();
    for key in 0..10u64 {
        assert_eq!(
            engine.query(key, 64).unwrap(),
            Estimate::exact(7),
            "key={key}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_checkpoint_trims_wal_and_survives_restart() {
    let dir = waves_store::scratch_dir("engine-ckpt");
    let cfg = persist_cfg(&dir, 2);
    {
        let engine = Engine::new(cfg.clone()).unwrap();
        for key in 0..20u64 {
            engine
                .ingest(IngestRequest::of(key, lcg_bits(key, 50, 2, 1)).blocking(true))
                .unwrap();
        }
        engine.checkpoint().unwrap();
        // Checkpoint rotated each shard onto a fresh segment and
        // reclaimed the old ones: exactly one (empty) segment left.
        for shard in 0..2 {
            let dir = dir.join(format!("shard-{shard}"));
            let segs = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
                .count();
            assert_eq!(segs, 1, "shard {shard} should hold one live segment");
        }
        engine
            .ingest(IngestRequest::of(99, [true; 3]).blocking(true))
            .unwrap();
    }
    let engine = Engine::new(cfg).unwrap();
    assert_eq!(engine.snapshot().keys(), 21);
    assert_eq!(engine.query(99, 64).unwrap(), Estimate::exact(3));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_without_persistence_is_ok() {
    let engine = Engine::new(small_cfg(2)).unwrap();
    engine
        .ingest(IngestRequest::of(1, [true]).blocking(true))
        .unwrap();
    engine.checkpoint().unwrap();
}

/// An automatic checkpoint that cannot be written (its shard
/// directory is gone) is counted, and the key keeps serving from
/// memory.
#[test]
fn a_failed_auto_checkpoint_is_counted_and_the_key_still_answers() {
    let dir = waves_store::scratch_dir("engine-ckpt-fail");
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .max_window(64)
        .eps(0.25)
        .persist_config(
            PersistConfig::new(&dir)
                .sync_policy(SyncPolicy::EveryBatch)
                .checkpoint_every(1),
        )
        .build();
    let reg = Arc::new(MetricsRegistry::new());
    let engine = Engine::new_recorded(cfg, Arc::clone(&reg)).unwrap();
    std::fs::remove_dir_all(dir.join("shard-0")).unwrap();
    engine
        .ingest(IngestRequest::of(5, [true; 4]).blocking(true))
        .unwrap();
    engine.flush();
    assert!(reg.counter(MetricId::StoreCheckpointFailures) >= 1);
    assert_eq!(engine.query(5, 64).unwrap(), Estimate::exact(4));
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A WAL append that fails (the next segment cannot be created: the
/// shard directory is gone) disables durability for the shard once:
/// `store_wal_disabled_total` reads 1, the next checkpoint reports
/// why, and the key keeps serving every batch from memory.
#[test]
fn a_failed_wal_append_disables_durability_once_and_the_key_still_answers() {
    let dir = waves_store::scratch_dir("engine-wal-fail");
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .max_window(64)
        .eps(0.25)
        .persist_config(
            PersistConfig::new(&dir)
                .sync_policy(SyncPolicy::EveryBatch)
                .segment_bytes(1)
                .checkpoint_every(0),
        )
        .build();
    let reg = Arc::new(MetricsRegistry::new());
    let engine = Engine::new_recorded(cfg, Arc::clone(&reg)).unwrap();
    std::fs::remove_dir_all(dir.join("shard-0")).unwrap();
    for _ in 0..3 {
        engine
            .ingest(IngestRequest::of(5, [true; 4]).blocking(true))
            .unwrap();
    }
    engine.flush();
    assert_eq!(reg.counter(MetricId::StoreWalDisabled), 1);
    let err = engine.checkpoint().unwrap_err();
    assert!(
        err.to_string()
            .contains("persistence disabled after WAL write failure"),
        "{err}"
    );
    assert_eq!(engine.query(5, 64).unwrap(), Estimate::exact(12));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_count_mismatch_fails_construction() {
    let dir = waves_store::scratch_dir("engine-shards");
    drop(Engine::new(persist_cfg(&dir, 2)).unwrap());
    let err = Engine::new(persist_cfg(&dir, 3)).err().expect("must fail");
    assert!(matches!(err, WaveError::Io(_)), "got {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a checkpoint may hold (PROTOCOL.md §2.4) is enforced where
/// it is read: in a 2-shard directory, hand-written checkpoints that
/// name a key twice or a key of the other shard, and a WAL record
/// for a key of the other shard, are each refused by key.
#[test]
fn recovery_refuses_a_repeated_key_and_a_key_of_another_shard() {
    use waves_store::checkpoint::{write_checkpoint, Checkpoint};
    let dir = waves_store::scratch_dir("engine-ckpt-keys");
    let cfg = persist_cfg(&dir, 2);
    let (mine, theirs) = {
        let engine = Engine::new(cfg.clone()).unwrap();
        let first_of = |shard| (0..).find(|&k| engine.shard_of(k) == shard).unwrap();
        (first_of(0), first_of(1))
    };
    let shard0 = dir.join("shard-0");
    let mut wave = DetWave::new(64, 0.25).unwrap();
    wave.push_words(Bits::from_bools(&[true, false, true]).as_ref());
    let refusal = || match Engine::new(cfg.clone()).err().expect("recovery refuses") {
        WaveError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
            io.to_string()
        }
        other => panic!("expected Io(InvalidData), got {other:?}"),
    };
    // Each checkpoint is newer than the last, so recovery loads it.
    let checkpoint = |wal_seq, keys: &[Key]| {
        let entries = keys.iter().map(|&k| (k, wave.encode())).collect();
        write_checkpoint(&shard0, &Checkpoint { wal_seq, entries }).unwrap();
    };
    checkpoint(100, &[mine, mine]);
    assert!(refusal().contains(&format!("names key {mine} twice")));
    checkpoint(101, &[mine, theirs]);
    let refused = refusal();
    assert!(
        refused.contains(&format!("key {theirs} in shard 0")),
        "{refused}"
    );
    assert!(refused.contains("belongs to shard 1"), "{refused}");
    // Held to the rule, the same checkpoint recovers.
    checkpoint(102, &[mine]);
    {
        let engine = Engine::new(cfg.clone()).unwrap();
        assert_eq!(engine.query(mine, 64).unwrap(), wave.query(64).unwrap());
    }
    // A WAL record in shard 0 for the other shard's key.
    let mut log =
        ShardStore::recover(&shard0, SyncPolicy::EveryBatch, 1 << 20, &NoopRecorder).unwrap();
    log.store
        .append_batch(&[(theirs, Bits::from_bools(&[true]))], &NoopRecorder)
        .unwrap();
    drop(log);
    let refused = refusal();
    assert!(
        refused.starts_with(&format!("WAL entry for key {theirs}")),
        "{refused}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn eh_synopsis_persists_too() {
    let dir = waves_store::scratch_dir("engine-eh");
    let cfg = persist_cfg(&dir, 2);
    {
        let engine = Engine::with_factory(
            cfg.clone(),
            || waves_eh::EhCount::new(64, 0.25),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        engine
            .ingest(IngestRequest::of(3, [true; 10]).blocking(true))
            .unwrap();
        engine.flush();
    }
    let engine = Engine::with_factory(
        cfg,
        || waves_eh::EhCount::new(64, 0.25),
        Arc::new(NoopRecorder),
    )
    .unwrap();
    assert!(engine.query(3, 64).unwrap().brackets(10));
    std::fs::remove_dir_all(&dir).unwrap();
}
