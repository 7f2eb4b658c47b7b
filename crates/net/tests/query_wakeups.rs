//! A pipelined QUERY window, counted: the event loop answers a query on
//! an idle shard itself, under the shard's lock, and a query on a busy
//! one with one hand-off to the key's shard and one back; the server
//! runs no thread but the loop and the shards.
//!
//! The count is the sum of `voluntary_ctxt_switches` over every thread
//! of this process, from procfs — client, event loop and shard workers
//! alike. Each is one time a thread blocked for another to hand it
//! work, so every hand-off a request crosses shows up here.

#![cfg(target_os = "linux")]

use std::time::Duration;

use waves_engine::{EngineConfig, IngestRequest};
use waves_net::{Client, ClientConfig, Frame, RetryPolicy, Server, ServerConfig};

/// `(name, voluntary_ctxt_switches)` of every live thread of this
/// process.
fn threads() -> Vec<(String, u64)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            // A thread that exits between the listing and the read
            // takes its count with it.
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            Some((name.trim_end().to_string(), switches))
        })
        .collect()
}

fn voluntary_switches() -> u64 {
    threads().iter().map(|(_, switches)| switches).sum()
}

/// 512 QUERYs at window 32 against one single-shard server: 16 windows.
/// The shard is idle once the flush is answered, so the loop answers
/// every query on its own thread: the parks are the client's and the
/// loop's, a handful per window. Were each handed to the shard and back,
/// it would still be a handful per window on each of the three threads
/// (client, loop, shard), about 100 in all. A server that hands each
/// query to a pool thread, which waits on the shard and hands the reply
/// back, parks at least once per query.
#[test]
fn a_pipelined_query_window_parks_per_window_not_per_query() {
    const QUERIES: u64 = 512;
    let cfg = ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(1)
            .max_window(1024)
            .eps(0.1)
            .build(),
        ..Default::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let names: Vec<String> = threads().into_iter().map(|(name, _)| name).collect();
    // The kernel keeps 15 bytes of a thread's name.
    assert!(
        !names.iter().any(|name| name.starts_with("waves-net-disp")),
        "dispatch threads beside the loop: {names:?}"
    );

    let client_cfg = ClientConfig {
        connect_timeout: Duration::from_secs(1),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        retry: RetryPolicy::none(),
    };
    let mut client = Client::connect_with(
        server.local_addr(),
        client_cfg,
        std::sync::Arc::new(waves_obs::NoopRecorder),
    )
    .unwrap();
    for key in 0..64u64 {
        client
            .ingest(IngestRequest::of(key, vec![true; 1 + key as usize]))
            .unwrap();
    }
    client.flush().unwrap();
    let queries: Vec<Frame> = (0..QUERIES)
        .map(|i| Frame::Query {
            key: i % 64,
            window: 1024,
        })
        .collect();

    let before = voluntary_switches();
    let replies = client.send_many(&queries, 32).unwrap();
    let parks = voluntary_switches() - before;
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            Frame::EstimateResp(est) => assert_eq!(est.value, (1 + i % 64) as f64, "query {i}"),
            other => panic!("query {i}: {other:?}"),
        }
    }
    assert!(
        parks <= QUERIES / 2,
        "{parks} parks across the process for {QUERIES} pipelined queries (bound {})",
        QUERIES / 2
    );
}
