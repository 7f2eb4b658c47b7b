//! Queries on an idle shard, counted: each is answered on the caller's
//! thread, so the shard's worker sleeps through all of them.
//!
//! The count is the shard worker's `voluntary_ctxt_switches` from
//! procfs: each is one time the worker blocked, and a query handed to it
//! costs one, as it wakes to answer and parks again.

#![cfg(target_os = "linux")]

use waves_engine::{Engine, EngineConfig, IngestRequest};

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

/// 512 queries over 64 keys on a one-shard engine with nothing queued.
/// A worker that answered them would wake and park once a query; it may
/// park once, if the flush's run still held it when the first query
/// came.
#[test]
fn queries_on_an_idle_shard_leave_its_worker_asleep() {
    const QUERIES: u64 = 512;
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .max_window(1024)
        .eps(0.1)
        .build();
    let engine = Engine::new(cfg).expect("valid config");
    for key in 0..64 {
        let req = IngestRequest::of(key, [true; 32]).blocking(true);
        engine
            .ingest(req)
            .expect("blocking ingest is never refused");
    }
    engine.flush();
    let before = worker_switches();
    for q in 0..QUERIES {
        let est = engine.query(q % 64, 32).expect("a key ingested above");
        assert_eq!(est.value, 32.0);
    }
    let woken = worker_switches() - before;
    assert!(
        woken <= 1,
        "the worker parked {woken} times over {QUERIES} queries"
    );
}
