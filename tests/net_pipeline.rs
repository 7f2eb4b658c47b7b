//! Wire v6 pipelining against the event-loop server: correlation ids
//! pair out-of-order responses with their requests, the in-flight
//! window and write-queue caps bound both directions, a slow reader is
//! evicted instead of buffered without bound, and the INGESTs of one
//! pass reach each shard as one batch with every frame answered as a
//! frame-by-frame shadow would be.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waves::net::{
    ChaosProxy, Client, ClientConfig, Fault, Frame, FrameTag, RetryPolicy, Server, ServerConfig,
    SynopsisKind, WireCodec,
};
use waves::obs::{MetricsRegistry, MetricsSnapshot, NoopRecorder, Recorder};
use waves::{Bits, DetWave, Engine, EngineConfig, IngestRequest, KeyedBits, WaveError};

fn server_cfg() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(2)
            .max_window(256)
            .eps(0.2)
            .build(),
        ..Default::default()
    }
}

fn fast_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(1000),
        write_timeout: Duration::from_millis(1000),
        retry: RetryPolicy::none(),
    }
}

/// Protocol-level out-of-order pairing: write query frames whose
/// correlation ids are deliberately shuffled and non-contiguous, then
/// match every reply back by its echoed id. Whatever order the server's
/// shards finish in, each correlation id must come back exactly once,
/// carrying the estimate for *its* key.
#[test]
fn shuffled_correlation_ids_pair_replies_to_requests() {
    let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    // Key k holds k+1 ones, so an estimate's value names the key that
    // produced it.
    let mut seed = Client::connect(server.local_addr()).unwrap();
    for k in 0..10u64 {
        let bits: Vec<bool> = (0..=k).map(|_| true).collect();
        seed.ingest(IngestRequest::of(k, bits)).unwrap();
    }
    seed.flush().unwrap();

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.set_nodelay(true).unwrap();
    // Shuffled, gappy, large: nothing about the id sequence may matter
    // beyond echo-back.
    let corrs: [u64; 10] = [907, 3, 512, 44, u64::MAX, 7, 100, 2, 651, 13];
    for (k, &corr) in corrs.iter().enumerate() {
        let frame = Frame::Query {
            key: k as u64,
            window: 256,
        };
        let bytes = WireCodec::encode_tagged(&frame, FrameTag { trace: 0, corr });
        sock.write_all(&bytes).unwrap();
    }
    sock.flush().unwrap();

    let mut seen: Vec<(u64, f64)> = Vec::new();
    for _ in 0..corrs.len() {
        let (reply, _, tag) = WireCodec::read_frame_tagged(&mut sock).unwrap();
        match reply {
            Frame::EstimateResp(est) => seen.push((tag.corr, est.value)),
            other => panic!("expected an estimate, got {other:?}"),
        }
    }
    assert_eq!(seen.len(), corrs.len());
    for (k, &corr) in corrs.iter().enumerate() {
        let matches: Vec<_> = seen.iter().filter(|(c, _)| *c == corr).collect();
        assert_eq!(matches.len(), 1, "correlation id {corr} seen {matches:?}");
        assert_eq!(
            matches[0].1,
            (k + 1) as f64,
            "corr {corr} carried the wrong key's estimate"
        );
    }
}

/// The client's pipelined surface: `send_many` returns replies in
/// request order (whatever order they completed), and `ingest_many`
/// acks a windowed batch sequence end to end.
#[test]
fn send_many_returns_request_order_and_ingest_many_acks() {
    let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();

    let batches: Vec<IngestRequest> = (0..20u64)
        .map(|k| IngestRequest::of(k, (0..=k).map(|_| true).collect::<Vec<bool>>()))
        .collect();
    assert_eq!(client.ingest_many(batches, 8).unwrap(), 20);
    client.flush().unwrap();

    let queries: Vec<Frame> = (0..20u64)
        .map(|key| Frame::Query { key, window: 256 })
        .collect();
    let replies = client.send_many(&queries, 7).unwrap();
    assert_eq!(replies.len(), 20);
    for (k, reply) in replies.iter().enumerate() {
        match reply {
            Frame::EstimateResp(est) => assert_eq!(
                est.value,
                (k + 1) as f64,
                "slot {k} holds another request's reply"
            ),
            other => panic!("slot {k}: expected an estimate, got {other:?}"),
        }
    }

    // Per-request failures stay in their slot instead of failing the
    // batch: a query for a key nobody ingested errors, its neighbors
    // don't.
    let mixed = [
        Frame::Query { key: 1, window: 64 },
        Frame::Query {
            key: 9_999,
            window: 64,
        },
        Frame::Ping,
    ];
    let replies = client.send_many(&mixed, 3).unwrap();
    assert!(matches!(replies[0], Frame::EstimateResp(_)), "{replies:?}");
    assert!(matches!(replies[1], Frame::ErrorResp(_)), "{replies:?}");
    assert!(matches!(replies[2], Frame::Pong), "{replies:?}");
}

/// A peer that triggers replies but never reads them must be evicted
/// once its write queue passes the cap — typed counter, closed socket,
/// bounded memory — and the event loop must keep accepting and serving
/// other connections afterwards.
#[test]
fn slow_reader_is_evicted_not_buffered() {
    let rec = Arc::new(MetricsRegistry::new());
    let cfg = ServerConfig {
        // Smaller than any reply frame (the minimum is 28 bytes on the
        // wire), so the first undeliverable reply trips the cap
        // deterministically instead of racing kernel socket buffers.
        max_write_queue: 16,
        ..server_cfg()
    };
    let server = Server::start_recorded("127.0.0.1:0", cfg, rec.clone()).unwrap();

    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, WaveError::Io(_) | WaveError::Timeout { .. }),
        "eviction must surface as a typed transport error, got {err:?}"
    );
    // The loop survived the eviction: a second connection is accepted
    // and dispatched (and evicted in turn — every reply exceeds the
    // cap), rather than the server wedging.
    let mut again =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    let _ = again.ping();
    let snap = rec.metrics_snapshot().unwrap();
    assert!(
        snap.counter("net_connections_evicted_total").unwrap() >= 2,
        "{snap:?}"
    );
    assert!(
        snap.counter("net_connections_accepted_total").unwrap() >= 2,
        "{snap:?}"
    );
}

/// Chaos faults replayed against the event-loop server's pipelined
/// path: corrupting any byte of the reply stream may fail the batch
/// with a typed error, but may never deliver a wrong answer into any
/// slot.
#[test]
fn pipelined_corruption_is_never_a_wrong_answer() {
    let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    let mut seed = Client::connect(server.local_addr()).unwrap();
    for k in 0..8u64 {
        let bits: Vec<bool> = (0..=k).map(|_| true).collect();
        seed.ingest(IngestRequest::of(k, bits)).unwrap();
    }
    seed.flush().unwrap();

    let queries: Vec<Frame> = (0..8u64)
        .map(|key| Frame::Query { key, window: 256 })
        .collect();
    // Offsets spanning the first reply's header, trace/corr words,
    // payload, and CRC, plus later frames in the stream.
    for offset in [0usize, 2, 5, 9, 17, 21, 27, 28, 40, 77, 150] {
        let proxy = ChaosProxy::start(server.local_addr(), Fault::CorruptByteAt(offset)).unwrap();
        let mut client =
            Client::connect_with(proxy.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
        let t0 = Instant::now();
        match client.send_many(&queries, 4) {
            Ok(replies) => {
                for (k, reply) in replies.iter().enumerate() {
                    match reply {
                        Frame::EstimateResp(est) => assert_eq!(
                            est.value,
                            (k + 1) as f64,
                            "offset {offset}: corrupted reply decoded into a wrong answer"
                        ),
                        other => panic!("offset {offset}, slot {k}: {other:?}"),
                    }
                }
            }
            Err(WaveError::Io(_)) | Err(WaveError::Timeout { .. }) => {}
            Err(other) => panic!("offset {offset}: untyped failure {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "offset {offset}: pipeline hung {:?}",
            t0.elapsed()
        );
    }
}

/// Past the in-flight window cap the server pauses reading instead of
/// dispatching unboundedly — and resumes losslessly: a burst far wider
/// than `max_inflight` still gets every reply. The cap counts requests
/// awaiting a shard, so the burst is made of those (QUERY and FLUSH
/// await a shard; PING would complete on the loop and never touch the
/// cap).
#[test]
fn burst_wider_than_inflight_cap_is_lossless() {
    let cfg = ServerConfig {
        max_inflight: 4,
        ..server_cfg()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    for k in 0..8u64 {
        let bits: Vec<bool> = (0..=k).map(|_| true).collect();
        client.ingest(IngestRequest::of(k, bits)).unwrap();
    }
    client.flush().unwrap();
    let burst: Vec<Frame> = (0..64u64)
        .map(|i| match i % 2 {
            0 => Frame::Query {
                key: i % 8,
                window: 256,
            },
            _ => Frame::Flush,
        })
        .collect();
    // Window 64 on the client side: all 64 requests go out before any
    // reply is read, so the server's cap (4) is what throttles.
    let replies = client.send_many(&burst, 64).unwrap();
    assert_eq!(replies.len(), 64);
    for (i, reply) in replies.iter().enumerate() {
        match (&burst[i], reply) {
            (Frame::Query { key, .. }, Frame::EstimateResp(est)) => {
                assert_eq!(est.value, (key + 1) as f64, "slot {i}")
            }
            (Frame::Flush, Frame::Ok) => {}
            (req, other) => panic!("slot {i}: {req:?} answered {other:?}"),
        }
    }
}

/// Loop-served and shard-bound requests under the cap: INGEST and PING
/// complete on the loop thread, QUERY awaits a shard (cap 4, so the
/// connection pauses and resumes mid-burst with loop-served frames
/// still buffered behind the pause). Every reply lands in its own
/// request's slot, and every INGEST decoded ahead of a QUERY is visible
/// to it — the INGEST is on its shard's queue before the QUERY is.
#[test]
fn mixed_burst_pairs_replies_and_queries_see_earlier_ingests() {
    let cfg = ServerConfig {
        max_inflight: 4,
        ..server_cfg()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    // Group i adds one 1-bit to key i % 8 and immediately asks for that
    // key's count: i / 8 + 1 exactly, with no flush in between.
    let mut burst = Vec::new();
    for i in 0..24u64 {
        burst.push(Frame::Ingest(IngestRequest::of(i % 8, [true]).entries));
        burst.push(Frame::Ping);
        burst.push(Frame::Query {
            key: i % 8,
            window: 256,
        });
    }
    let replies = client.send_many(&burst, 64).unwrap();
    assert_eq!(replies.len(), burst.len());
    for (i, group) in replies.chunks(3).enumerate() {
        assert_eq!(group[0], Frame::Ok, "group {i}");
        assert_eq!(group[1], Frame::Pong, "group {i}");
        match &group[2] {
            Frame::EstimateResp(est) => assert_eq!(
                est.value,
                (i / 8 + 1) as f64,
                "group {i}: the query overtook an ingest sent ahead of it"
            ),
            other => panic!("group {i}: expected an estimate, got {other:?}"),
        }
    }
}

/// Read a server counter once it has stopped at `want` (the loop bumps
/// its counters just after the `write` that lets the client see the
/// reply, so the client can get here first), or whatever it reads
/// after two seconds.
fn settled(rec: &MetricsRegistry, name: &str, want: u64) -> u64 {
    let t0 = Instant::now();
    loop {
        let got = rec.metrics_snapshot().unwrap().counter(name).unwrap();
        if got == want || t0.elapsed() > Duration::from_secs(2) {
            return got;
        }
        std::thread::yield_now();
    }
}

/// Requests the loop has submitted to await a shard so far
/// (`net_inflight_per_conn` is observed once per submission).
fn handed_off(snap: &MetricsSnapshot) -> u64 {
    snap.hist("net_inflight_per_conn").unwrap().count
}

fn wakeups(snap: &MetricsSnapshot) -> u64 {
    snap.counter("poll_wakeups_total").unwrap()
}

/// The batching, asserted by counts: a pipelined INGEST window costs
/// the server one readiness cycle — `epoll_wait`, `read`, `write` —
/// not one per frame, and no INGEST is left awaiting a shard.
/// 512 frames at window 32 are 16 windows, so the design predicts
/// 16–32 loop wake-ups and this test reads exactly 16, pinned to one
/// CPU or not; the bound is a quarter of the frame count. The parent
/// commit hands all 512 to the pool and reads 87–125 wake-ups pinned
/// to one CPU (42–83 unpinned): it writes the eventfd once per reply,
/// and how many of those writes land while the loop is off the CPU is
/// up to the scheduler.
///
/// The engine side is counted too: the INGEST frames one pass decodes
/// reach each shard as one engine batch, so batches are at most one per
/// shard per wake-up (each wake-up is at most one pass over the one
/// connection). On one shard that predicts 16 and the bound is 32; the
/// parent commit enqueues one batch per frame, 512.
#[test]
fn ingest_window_costs_the_server_one_cycle_not_one_per_frame() {
    for shards in [1, 4] {
        let mut cfg = server_cfg();
        cfg.engine.num_shards = shards;
        let rec = Arc::new(MetricsRegistry::new());
        let server = Server::start_recorded("127.0.0.1:0", cfg, rec.clone()).unwrap();
        let mut client =
            Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
        client.ping().unwrap();
        let sent0 = settled(&rec, "net_frames_sent_total", 1);
        let before = rec.metrics_snapshot().unwrap();

        let frames: Vec<Frame> = (0..512u64)
            .map(|i| Frame::Ingest(IngestRequest::of(i % 64, [true]).entries))
            .collect();
        let replies = client.send_many(&frames, 32).unwrap();
        assert!(replies.iter().all(|r| *r == Frame::Ok), "{replies:?}");

        // A frame count, not a write count: coalescing 32 replies into
        // one `write` still counts 32 frames.
        assert_eq!(
            settled(&rec, "net_frames_sent_total", sent0 + 512),
            sent0 + 512
        );
        let after = rec.metrics_snapshot().unwrap();
        assert_eq!(handed_off(&after), handed_off(&before));
        let wakes = wakeups(&after) - wakeups(&before);
        assert!(
            wakes <= 128,
            "{shards} shards: {wakes} loop wake-ups for 512 pipelined frames"
        );

        // The barrier: every batch is applied, and counted, before the
        // flush's Ok.
        client.flush().unwrap();
        let flushed = rec.metrics_snapshot().unwrap();
        let grew = |name| flushed.counter(name).unwrap() - before.counter(name).unwrap();
        assert_eq!(grew("engine_items_ingested_total"), 512, "{shards} shards");
        let batches = grew("engine_batches_ingested_total");
        assert!(
            batches <= shards as u64 * wakes,
            "{shards} shards: {batches} engine batches over {wakes} loop wake-ups"
        );
        if shards == 1 {
            assert!(batches <= 32, "{batches} engine batches for 512 frames");
        }
    }
}

/// A server of `shards` shards over `max_window` bits at ε = 0.1, with
/// `server_cfg`'s transport settings.
fn sharded_cfg(shards: usize, max_window: u64) -> ServerConfig {
    ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(shards)
            .max_window(max_window)
            .eps(0.1)
            .build(),
        ..server_cfg()
    }
}

/// The gathered path against a shadow engine fed frame by frame: a
/// 4-shard server takes seeded multi-entry INGESTs mixed with QUERY,
/// PING and FLUSH at window 64. Every key's whole stream fits the
/// window, so a QUERY at the full window is exact and only grows: it
/// must count at least the 1s sent ahead of it (and at most all of
/// them). After the closing FLUSH every key equals the shadow at three
/// windows.
#[test]
fn gathered_ingests_answer_like_a_frame_by_frame_shadow() {
    const KEYS: u64 = 24;
    const N: u64 = 4096;
    let cfg = sharded_cfg(4, N);
    let shadow = Engine::new(cfg.engine.clone()).unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();

    let mut rng = StdRng::seed_from_u64(25);
    // Per key: bits and 1s sent so far.
    let mut sent = [(0u64, 0u64); KEYS as usize];
    // Per burst slot: for a QUERY, its key's (bits, 1s) sent ahead of it.
    let mut ahead = Vec::new();
    let mut burst = Vec::new();
    for _ in 0..600 {
        ahead.push(None);
        let slot = match rng.gen_range(0..10u32) {
            0..=5 => {
                let entries: Vec<KeyedBits> = (0..rng.gen_range(1..=5usize))
                    .map(|_| {
                        let key = rng.gen_range(0..KEYS);
                        let bits: Vec<bool> = (0..rng.gen_range(1..=40usize))
                            .map(|_| rng.gen_bool(0.4))
                            .collect();
                        let s = &mut sent[key as usize];
                        s.0 += bits.len() as u64;
                        s.1 += bits.iter().filter(|&&b| b).count() as u64;
                        (key, Bits::from(bits))
                    })
                    .collect();
                let req = IngestRequest::batch(entries.clone()).blocking(true);
                shadow.ingest(req).unwrap();
                Frame::Ingest(entries)
            }
            6..=7 => {
                let key = rng.gen_range(0..KEYS);
                *ahead.last_mut().unwrap() = Some(sent[key as usize]);
                Frame::Query { key, window: N }
            }
            8 => Frame::Ping,
            _ => Frame::Flush,
        };
        burst.push(slot);
    }
    burst.push(Frame::Flush);
    ahead.push(None);
    assert!(sent.iter().all(|&(bits, _)| bits <= N), "{sent:?}");

    let replies = client.send_many(&burst, 64).unwrap();
    assert_eq!(replies.len(), burst.len());
    for (i, ((req, reply), ahead)) in burst.iter().zip(&replies).zip(&ahead).enumerate() {
        match (req, reply, *ahead) {
            (Frame::Ingest(_) | Frame::Flush, Frame::Ok, _) | (Frame::Ping, Frame::Pong, _) => {}
            (Frame::Query { key, .. }, Frame::EstimateResp(est), Some((_, ones))) => {
                let total = sent[*key as usize].1;
                assert!(
                    est.exact && est.value >= ones as f64 && est.value <= total as f64,
                    "slot {i}: key {key} read {est:?} with {ones} 1s sent ahead, {total} in all"
                );
            }
            // Nothing of the key was sent ahead, and nothing behind had
            // landed yet.
            (Frame::Query { .. }, Frame::ErrorResp(WaveError::UnknownKey { .. }), Some((0, _))) => {
            }
            (req, other, _) => panic!("slot {i}: {req:?} answered {other:?}"),
        }
    }

    shadow.flush();
    for key in 0..KEYS {
        for window in [N, 300, 37] {
            assert_eq!(
                client.query(key, window),
                shadow.query(key, window),
                "key {key} window {window}"
            );
        }
    }
}

/// Shed bits are never acknowledged. With one queue slot per shard, a
/// pass's sub-batch is refused whenever its shard still holds the last
/// one, and every frame it carried must be answered BACKPRESSURE naming
/// that shard. One key per frame, so a frame's bits are either applied
/// whole or shed whole: the server ends equal to a shadow fed exactly
/// the frames answered `Ok`, and its dropped-item count equals the bits
/// of the frames refused. Every eighth frame is four windows long, which
/// keeps its worker busy for a while (a batch past the window stores
/// every 1), so refusals happen; rounds repeat until some have.
#[test]
fn a_refused_sub_batch_sheds_exactly_the_frames_answered_backpressure() {
    const KEYS: u64 = 16;
    const N: u64 = 1 << 16;
    let mut cfg = sharded_cfg(4, N);
    cfg.engine.queue_capacity = 1;
    let shadow = Engine::new(sharded_cfg(4, N).engine).unwrap();
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();

    let mut rng = StdRng::seed_from_u64(26);
    let (mut refused_frames, mut refused_bits, mut rounds) = (0u64, 0u64, 0);
    while refused_frames == 0 && rounds < 20 {
        rounds += 1;
        let burst: Vec<(u64, Vec<bool>)> = (0..512)
            .map(|i| {
                let len = if i % 8 == 0 { 1 << 18 } else { 64 };
                let key = rng.gen_range(0..KEYS);
                (key, (0..len).map(|_| rng.gen_bool(0.5)).collect())
            })
            .collect();
        let frames: Vec<Frame> = burst
            .iter()
            .map(|(key, bits)| Frame::Ingest(IngestRequest::of(*key, bits.clone()).entries))
            .collect();
        let replies = client.send_many(&frames, 64).unwrap();
        for ((key, bits), reply) in burst.into_iter().zip(&replies) {
            match reply {
                Frame::Ok => shadow
                    .ingest(IngestRequest::of(key, bits).blocking(true))
                    .unwrap(),
                Frame::ErrorResp(WaveError::Backpressure { shard }) => {
                    assert_eq!(*shard, server.engine().shard_of(key), "key {key}");
                    refused_frames += 1;
                    refused_bits += bits.len() as u64;
                }
                other => panic!("key {key}: {other:?}"),
            }
        }
    }
    assert!(refused_frames > 0, "no refusal in {rounds} rounds");

    client.flush().unwrap();
    shadow.flush();
    assert_eq!(server.engine().dropped_items(), refused_bits);
    for key in 0..KEYS {
        for window in [N, 5_000, 300] {
            assert_eq!(
                client.query(key, window),
                shadow.query(key, window),
                "key {key} window {window}"
            );
        }
    }
}

/// Push-mode monitoring one message at a time: PUSH_DELTA and COMBINE
/// never wait on a shard, so neither is left awaiting one and each
/// costs the loop one wake-up — the request's readiness — with no
/// second one for a completion. This test reads exactly 512
/// wake-ups for its 512 requests; the parent hands off all 512 and
/// reads 961–988.
#[test]
fn unpipelined_pushes_and_combines_never_cross_to_the_pool() {
    let rec = Arc::new(MetricsRegistry::new());
    let server = Server::start_recorded("127.0.0.1:0", server_cfg(), rec.clone()).unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    client.ping().unwrap();
    let before = rec.metrics_snapshot().unwrap();

    let mut wave = DetWave::new(256, 0.2).unwrap();
    for seq in 1..=256u64 {
        wave.push_bit(true);
        client
            .push_delta(seq % 4, seq, 0.0, SynopsisKind::DetWave, wave.encode())
            .unwrap();
        assert!(client.combine(256).unwrap().value >= 1.0);
    }

    let after = rec.metrics_snapshot().unwrap();
    assert_eq!(handed_off(&after), handed_off(&before));
    let wakes = wakeups(&after) - wakeups(&before);
    let requests = 512;
    assert!(
        wakes <= requests + requests / 4,
        "{wakes} loop wake-ups for {requests} loop-served requests"
    );
}

/// Every request type, pipelined on four connections at once against a
/// 2-shard server whose shard queues hold two batches, so some gathered
/// INGESTs are refused: INGEST, QUERY, FETCH, REPLICATE, FLUSH,
/// SNAPSHOT, STATS, PING, PUSH_DELTA and COMBINE in seeded windows of
/// up to 32 in flight. Each connection owns its keys and never ingests a
/// key again once it has queried, fetched or installed it, so every
/// QUERY and FETCH has one exact answer wherever the server runs it: a
/// local `DetWave` fed exactly the INGESTs ahead of it on its connection
/// that were answered `Ok`. An installed key is read only in a later
/// window, once its `Ok` has come back. After a closing FLUSH every key
/// equals its shadow byte for byte.
#[test]
fn every_request_type_pipelined_on_four_connections_answers_like_its_shadow() {
    const CONNS: u64 = 4;
    let mut cfg = sharded_cfg(2, MIXED_N);
    cfg.engine.queue_capacity = 2;
    let rec = Arc::new(MetricsRegistry::new());
    let server = Server::start_recorded("127.0.0.1:0", cfg, rec).unwrap();
    let addr = server.local_addr();
    let refused = AtomicU64::new(0);
    std::thread::scope(|s| {
        let refused = &refused;
        for conn in 0..CONNS {
            s.spawn(move || mixed_connection(addr, conn, refused));
        }
    });
    assert!(refused.into_inner() > 0, "no gathered INGEST was refused");
}

/// The window every key of the mixed pipelines is kept over.
const MIXED_N: u64 = 1 << 12;

/// One connection of the mixed-pipeline test: windows of seeded frames
/// until at least `MIN` windows have run and some INGEST anywhere has
/// been refused (at most `MAX`), every reply checked against the shadows
/// in request order. Bumps `refused` per BACKPRESSURE reply.
fn mixed_connection(addr: SocketAddr, conn: u64, refused: &AtomicU64) {
    const MIN: usize = 6;
    const MAX: usize = 40;
    const FRAMES: usize = 96;

    let mut client = Client::connect_with(addr, fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    let mut rng = StdRng::seed_from_u64(37 + conn);
    let wave = || DetWave::new(MIXED_N, 0.1).unwrap();
    let key_of = |i: u64| conn << 32 | i;
    // Every key this connection has named, and the state each of them
    // must hold: the bits of the `Ok` INGESTs, or the installed bytes.
    let mut shadows: HashMap<u64, DetWave> = HashMap::new();
    let mut used: Vec<u64> = Vec::new();
    // Keys no INGEST may name any more, and installed keys readable
    // from the next window on.
    let mut closed: HashSet<u64> = HashSet::new();
    let mut readable: Vec<u64> = Vec::new();
    let mut next_key = 0u64;
    let mut party = DetWave::new(256, 0.2).unwrap();
    let mut seq = 0u64;

    let mut window = 0;
    while window < MIN || (window < MAX && refused.load(Ordering::SeqCst) == 0) {
        window += 1;
        let mut installed = Vec::new();
        let mut last_ingested = None;
        let mut burst = Vec::with_capacity(FRAMES);
        for _ in 0..FRAMES {
            let open: Vec<u64> = used
                .iter()
                .copied()
                .filter(|k| !closed.contains(k))
                .collect();
            let frame = match rng.gen_range(0..20u32) {
                0..=7 => {
                    let key = match open.len() {
                        0 => None,
                        n if rng.gen_bool(0.7) => Some(open[rng.gen_range(0..n)]),
                        _ => None,
                    }
                    .unwrap_or_else(|| {
                        next_key += 1;
                        used.push(key_of(next_key));
                        key_of(next_key)
                    });
                    // One in 32 is long, which keeps a shard busy
                    // while the others fill its two slots.
                    let len = match rng.gen_range(0..32u32) {
                        0 => 1 << 15,
                        _ => rng.gen_range(1..=80usize),
                    };
                    let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                    last_ingested = Some(key);
                    Frame::Ingest(IngestRequest::of(key, bits).entries)
                }
                8..=11 if !used.is_empty() => {
                    // Half the reads name the key last ingested, which
                    // may still be in the server's gather.
                    let key = match last_ingested {
                        Some(key) if rng.gen_bool(0.5) => key,
                        _ if readable.is_empty() || rng.gen_bool(0.7) => {
                            used[rng.gen_range(0..used.len())]
                        }
                        _ => readable[rng.gen_range(0..readable.len())],
                    };
                    if installed.contains(&key) {
                        Frame::Ping
                    } else {
                        closed.insert(key);
                        match rng.gen_bool(0.7) {
                            true => Frame::Query {
                                key,
                                window: rng.gen_range(1..=MIXED_N),
                            },
                            false => Frame::Fetch { key },
                        }
                    }
                }
                12 => {
                    next_key += 1;
                    let key = key_of(next_key);
                    used.push(key);
                    closed.insert(key);
                    installed.push(key);
                    let mut w = wave();
                    let bits: Vec<bool> = (0..rng.gen_range(1..=300usize))
                        .map(|_| rng.gen_bool(0.3))
                        .collect();
                    w.push_words(Bits::from(bits).as_ref());
                    Frame::Replicate {
                        key,
                        kind: SynopsisKind::DetWave,
                        bytes: w.encode(),
                    }
                }
                13 => Frame::Flush,
                14 => Frame::Snapshot,
                15 => Frame::Stats,
                16 => {
                    seq += 1;
                    party.push_bit(rng.gen_bool(0.5));
                    Frame::PushDelta {
                        party: conn,
                        seq,
                        slack: 0.5,
                        kind: SynopsisKind::DetWave,
                        bytes: party.encode(),
                    }
                }
                17 => Frame::Combine {
                    window: rng.gen_range(1..=256),
                },
                _ => Frame::Ping,
            };
            burst.push(frame);
        }

        let replies = client.send_many(&burst, 32).unwrap();
        assert_eq!(replies.len(), burst.len());
        for (i, (req, reply)) in burst.iter().zip(replies).enumerate() {
            let at = format!("conn {conn} window {window} slot {i}");
            match (req, reply) {
                (Frame::Ingest(entries), Frame::Ok) => {
                    let (key, bits) = &entries[0];
                    shadows
                        .entry(*key)
                        .or_insert_with(wave)
                        .push_words(bits.as_ref());
                }
                (Frame::Ingest(_), Frame::ErrorResp(WaveError::Backpressure { .. })) => {
                    refused.fetch_add(1, Ordering::SeqCst);
                }
                (Frame::Query { key, window }, reply) => {
                    let want = match shadows.get(key) {
                        Some(shadow) => Frame::EstimateResp(shadow.query(*window).unwrap()),
                        None => Frame::ErrorResp(WaveError::UnknownKey { key: *key }),
                    };
                    assert_eq!(reply, want, "{at}: QUERY key {key} window {window}");
                }
                (Frame::Fetch { key }, reply) => {
                    assert_eq!(reply, fetched(*key, shadows.get(key)), "{at}: FETCH {key}");
                }
                (Frame::Replicate { key, bytes, .. }, Frame::Ok) => {
                    shadows.insert(*key, DetWave::decode(bytes).unwrap());
                }
                (Frame::Snapshot, Frame::SnapshotResp(snap)) => {
                    assert_eq!(snap.shards.len(), 2, "{at}")
                }
                (Frame::Flush | Frame::PushDelta { .. }, Frame::Ok)
                | (Frame::Stats, Frame::StatsResp(_))
                | (Frame::Ping, Frame::Pong)
                | (Frame::Combine { .. }, Frame::EstimateResp(_)) => {}
                (req, other) => panic!("{at}: {req:?} answered {other:?}"),
            }
        }
        readable.extend(installed);
    }

    client.flush().unwrap();
    for &key in &used {
        let reply = client
            .send_many(&[Frame::Fetch { key }], 1)
            .unwrap()
            .remove(0);
        assert_eq!(
            reply,
            fetched(key, shadows.get(&key)),
            "conn {conn}: key {key}"
        );
    }
}

/// What a FETCH of `key` answers when the key holds `shadow`'s state,
/// or was never created.
fn fetched(key: u64, shadow: Option<&DetWave>) -> Frame {
    match shadow {
        Some(shadow) => Frame::Replicate {
            key,
            kind: SynopsisKind::DetWave,
            bytes: shadow.encode(),
        },
        None => Frame::ErrorResp(WaveError::UnknownKey { key }),
    }
}
