//! Engine lifecycle: dropping an engine with work still queued must
//! join every shard worker without deadlock, and `flush()` must be a
//! real barrier — after it, snapshots show empty queues no matter how
//! hard the ingest path was driven.

use std::time::{Duration, Instant};
use waves::net::{Client, Server, ServerConfig};
use waves::streamgen::KeyedWorkload;
use waves::{Engine, EngineConfig, IngestRequest};

fn cfg(shards: usize) -> EngineConfig {
    EngineConfig::builder()
        .num_shards(shards)
        .queue_capacity(64)
        .max_window(256)
        .eps(0.2)
        .build()
}

/// Drop with queued batches: the engine must come down promptly (the
/// workers drain or abandon their queues and join) rather than
/// deadlocking on channel teardown. Run on a watchdog thread so a
/// regression fails the test instead of wedging the suite.
#[test]
fn drop_with_queued_batches_joins_workers() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for shards in [1usize, 2, 8] {
            let engine: Engine<waves::DetWave> = Engine::new(cfg(shards)).unwrap();
            let mut workload = KeyedWorkload::new(500, 32, 0.5, 23);
            // Stuff the queues using the non-blocking path; some of
            // these may be shed, which is fine — the point is queues
            // holding unprocessed batches at drop time.
            for _ in 0..200 {
                let _ = engine.ingest(IngestRequest::batch(workload.next_packed_batch(64)));
            }
            drop(engine);
        }
        done_tx.send(()).unwrap();
    });
    let budget = Duration::from_secs(30);
    assert!(
        done_rx.recv_timeout(budget).is_ok(),
        "engine drop deadlocked: workers not joined within {budget:?}"
    );
}

/// `flush()` after heavy batched ingest leaves every shard queue empty
/// in the very next snapshot, and the engine still answers queries.
#[test]
fn flush_after_heavy_ingest_leaves_queues_empty() {
    let engine: Engine<waves::DetWave> = Engine::new(cfg(4)).unwrap();
    let mut workload = KeyedWorkload::new(2_000, 16, 0.5, 29);
    for _ in 0..100 {
        engine
            .ingest(IngestRequest::batch(workload.next_packed_batch(128)).blocking(true))
            .unwrap();
    }
    engine.flush();
    let snap = engine.snapshot();
    for shard in &snap.shards {
        assert_eq!(
            shard.queue_depth, 0,
            "shard {} still has queued batches after flush",
            shard.shard
        );
    }
    assert!(snap.keys() > 0);
    // The flush barrier means a query now sees every ingested bit.
    let est = engine.query(0, 256);
    assert!(est.is_ok() || snap.keys() < 2_000, "{est:?}");
}

/// Repeated construct/drop cycles stay prompt — no fd/thread leak makes
/// later engines slower to come down than the first.
#[test]
fn repeated_lifecycle_is_prompt() {
    let mut worst = Duration::ZERO;
    for round in 0..20 {
        let engine: Engine<waves::DetWave> = Engine::new(cfg(4)).unwrap();
        let mut workload = KeyedWorkload::new(100, 16, 0.5, round);
        engine
            .ingest(IngestRequest::batch(workload.next_packed_batch(256)).blocking(true))
            .unwrap();
        let t0 = Instant::now();
        drop(engine);
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(5),
        "an engine took {worst:?} to drop"
    );
}

/// Count this process's open file descriptors. The readdir handle
/// itself shows up in the listing, but identically on every call, so
/// deltas are exact.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// The count is process-wide and `cargo test` runs this file's tests on
/// sibling threads: the two tests that compare fd counts hold this for
/// their whole body, so neither sees the other's sockets. (The other
/// tests here open no descriptors.) A test that failed while holding it
/// must not fail the other, hence `into_inner` on poison.
static FD_COUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A full server lifecycle — listener, epoll fd, waker eventfd, served
/// connections — must return every descriptor on drop. Ten cycles with
/// live traffic land back at the baseline fd count.
#[test]
fn server_lifecycle_leaks_no_fds() {
    let _alone = FD_COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let server_cfg = || ServerConfig {
        engine: cfg(2),
        ..Default::default()
    };
    // Warm-up rounds absorb one-time allocations (lazy stdio, DNS-free
    // loopback setup, thread-local inits) before the baseline is taken.
    for _ in 0..2 {
        let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        drop(client);
        drop(server);
    }
    let baseline = open_fds();
    for round in 0..10u64 {
        let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .ingest(IngestRequest::of(round, [true, true, false]))
            .unwrap();
        client.flush().unwrap();
        assert_eq!(client.query(round, 256).unwrap().value, 2.0);
        drop(client);
        // Drop joins the event loop and workers; every socket, the
        // listener, the epoll instance, and the waker must close.
        drop(server);
        assert_eq!(
            open_fds(),
            baseline,
            "fd leak after lifecycle round {round}"
        );
    }
}

/// Shutdown with traffic still in flight comes down within the drain
/// deadline plus dispatch time — never hanging on an unread socket —
/// and still returns every fd.
#[test]
fn shutdown_drains_within_bounded_deadline() {
    let _alone = FD_COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = {
        // One throwaway cycle so lazy one-time fds don't skew the
        // post-shutdown comparison.
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        drop(server);
        open_fds()
    };
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            engine: cfg(2),
            drain_deadline: Duration::from_millis(250),
            ..Default::default()
        },
    )
    .unwrap();
    // A connection with requests written but replies never read: its
    // replies sit queued (kernel- or server-side) at shutdown time.
    let mut unread = std::net::TcpStream::connect(server.local_addr()).unwrap();
    {
        use std::io::Write;
        use waves::net::{Frame, FrameTag, WireCodec};
        for corr in 1..=8u64 {
            let bytes = WireCodec::encode_tagged(&Frame::Ping, FrameTag { trace: 0, corr });
            unread.write_all(&bytes).unwrap();
        }
        unread.flush().unwrap();
    }
    // Give the loop a moment to accept and dispatch some of the burst.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.shutdown();
    server.wait();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown took {took:?}; the drain deadline is 250ms"
    );
    drop(unread);
    assert_eq!(
        open_fds(),
        baseline,
        "fds leaked across a draining shutdown"
    );
}
