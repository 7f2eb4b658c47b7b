//! Queries on an idle shard, counted: each is answered on the caller's
//! thread, traced or not, so the shard's worker sleeps through all of
//! them.
//!
//! The count is the shard worker's `voluntary_ctxt_switches` from
//! procfs: each is one time the worker blocked, and a query handed to it
//! costs one, as it wakes to answer and parks again.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use waves_core::DetWave;
use waves_engine::{Engine, EngineConfig, IngestRequest, ShardRequest};
use waves_obs::{NoopRecorder, Recorder, SpanRecorder, Stage, TraceCtx, TraceId};

const QUERIES: u64 = 512;

/// Held by each test, so only one shard worker exists at a time.
static ONE_ENGINE: Mutex<()> = Mutex::new(());

fn one_engine() -> MutexGuard<'static, ()> {
    ONE_ENGINE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The voluntary context switches of this process's one shard worker.
/// The kernel keeps 15 bytes of a thread's name, `waves-engine-shard-0`
/// among them.
fn worker_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    let workers: Vec<u64> = tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !name.starts_with("waves-engine-sh") {
                return None;
            }
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?;
            switches.trim().parse().ok()
        })
        .collect();
    assert_eq!(workers.len(), 1, "one shard worker");
    workers[0]
}

/// A one-shard engine reporting into `rec`, 64 keys of 32 ones each
/// ingested and flushed, so nothing is queued.
fn idle_engine<R: Recorder + Send + Sync + 'static>(rec: Arc<R>) -> Engine<DetWave, R> {
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .max_window(1024)
        .eps(0.1)
        .build();
    let engine = Engine::with_factory(cfg, || DetWave::new(1024, 0.1), rec).expect("valid config");
    for key in 0..64 {
        let req = IngestRequest::of(key, [true; 32]).blocking(true);
        engine
            .ingest(req)
            .expect("blocking ingest is never refused");
    }
    engine.flush();
    engine
}

/// How often the worker parks while `query` runs 512 times over 64
/// keys, each answer checked. A worker that answered the queries would
/// wake and park once a query; it may park once, if the flush's run
/// still held it when the first query came.
fn worker_parks(query: impl Fn(u64) -> f64) -> u64 {
    let before = worker_switches();
    for q in 0..QUERIES {
        assert_eq!(query(q % 64), 32.0);
    }
    worker_switches() - before
}

#[test]
fn queries_on_an_idle_shard_leave_its_worker_asleep() {
    let _one = one_engine();
    let engine = idle_engine(Arc::new(NoopRecorder));
    let woken = worker_parks(|key| engine.query(key, 32).expect("a key ingested above").value);
    assert!(
        woken <= 1,
        "the worker parked {woken} times over {QUERIES} queries"
    );
}

/// Traced queries take the same idle path, and each still records its
/// queue and shard spans.
#[test]
fn traced_queries_on_an_idle_shard_leave_its_worker_asleep() {
    let _one = one_engine();
    let rec = Arc::new(SpanRecorder::new());
    let engine = idle_engine(Arc::clone(&rec));
    let ctx = TraceCtx {
        trace: TraceId(9),
        parent: 1,
    };
    let woken = worker_parks(|key| {
        let (tx, rx) = std::sync::mpsc::channel();
        let reply = Box::new(move |res| tx.send(res).expect("the test waits"));
        engine.submit(ShardRequest::Query {
            key,
            window: 32,
            ctx,
            reply,
        });
        rx.recv()
            .expect("an answer")
            .expect("a key ingested above")
            .value
    });
    assert!(
        woken <= 1,
        "the worker parked {woken} times over {QUERIES} traced queries"
    );
    let spans = rec.trace(ctx.trace);
    for stage in [Stage::Queue, Stage::Shard] {
        let n = spans.iter().filter(|s| s.stage == stage).count() as u64;
        assert_eq!(n, QUERIES, "{stage:?} spans");
    }
    assert_eq!(spans.len() as u64, 2 * QUERIES);
}
