//! The shard queue's producer wake rule, counted: a blocking producer
//! that outruns its shard worker parks about once per half queue the
//! worker drains, not once per request.
//!
//! The count is the calling thread's `voluntary_ctxt_switches` from
//! procfs: each is one time the thread blocked, and in the ingest loop
//! below the only place it blocks is the full shard queue.

#![cfg(target_os = "linux")]

use waves_core::Bits;
use waves_engine::{Engine, EngineConfig, IngestRequest};

fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("status lists voluntary_ctxt_switches")
        .trim()
        .parse()
        .expect("the count is an integer")
}

/// The benchmark's `engine_dense` shape: one shard with a 64-slot
/// queue, 768 blocking requests of 16 half-dense 4 096-bit entries over
/// 256 keys, window 65 536 at eps 0.05. Applying a request costs the
/// worker far more than queueing one costs the producer, so the queue
/// stays full. Woken at every pop, the producer parks about once per
/// request; woken at half, about once per 32.
#[test]
fn a_blocking_producer_parks_once_per_half_queue() {
    const REQUESTS: u64 = 768;
    let cfg = EngineConfig::builder()
        .num_shards(1)
        .queue_capacity(64)
        .max_window(65_536)
        .eps(0.05)
        .build();
    let engine = Engine::new(cfg).expect("valid config");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut word = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let requests: Vec<IngestRequest> = (0..REQUESTS)
        .map(|r| {
            let entries = (0..16)
                .map(|e| {
                    let words = (0..64).map(|_| word()).collect();
                    ((r * 16 + e) % 256, Bits::from_words(words, 4096))
                })
                .collect();
            IngestRequest::batch(entries).blocking(true)
        })
        .collect();

    let before = voluntary_switches();
    for req in requests {
        engine
            .ingest(req)
            .expect("blocking ingest is never refused");
    }
    let parks = voluntary_switches() - before;
    engine.flush();
    assert!(
        parks <= REQUESTS / 8,
        "{parks} parks for {REQUESTS} blocking requests (bound {})",
        REQUESTS / 8
    );
}
