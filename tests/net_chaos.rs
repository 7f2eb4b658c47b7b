//! Fault-injection: a client facing a sick network must degrade to
//! typed errors — `WaveError::Io` for closed/corrupt streams,
//! `WaveError::Timeout` for stalls — inside its configured budget.
//! Never a hang, never a panic, never a silently wrong answer.
//!
//! The fault scenarios are driven through the shared `waves::dst`
//! schedule builder: the simulator runs a real server behind a real
//! `ChaosProxy`, asserts the chaos contract against its oracles (a
//! correct answer or a typed error within the hang budget), and a
//! violation panics with the schedule seed. The remaining hand-written
//! tests pin RNG-free specifics the sim deliberately leaves loose:
//! exact timeout metadata and the retry machinery.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waves::dst::{run, FaultSpec, Schedule};
use waves::net::{
    ChaosProxy, Client, ClientConfig, Fault, RetryPolicy, Server, ServerConfig, SynopsisKind,
};
use waves::obs::NoopRecorder;
use waves::{DetWave, EngineConfig, IngestRequest, WaveError};

/// Tight budgets so the whole suite stays fast; the assertions give
/// each op ~10x headroom before declaring a hang.
fn fast_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        retry: RetryPolicy {
            retries: 1,
            backoff: Duration::from_millis(10),
        },
    }
}

fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig::builder()
                .num_shards(1)
                .max_window(64)
                .eps(0.25)
                .build(),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Hard wall-clock ceiling for every faulty exchange: generous against
/// scheduler noise, far below anything a human would call a hang.
const HANG_BUDGET: Duration = Duration::from_secs(5);

/// Run a schedule, panicking with the replay seed on any violation.
fn check(sched: &Schedule) {
    run(sched).unwrap_or_else(|v| {
        panic!(
            "{v}\nreplay: rebuild with Schedule::builder({}) exactly as this test does",
            sched.seed
        )
    });
}

#[test]
fn control_passthrough_proxy_is_transparent() {
    let server = start_server();
    let proxy = ChaosProxy::start(server.local_addr(), Fault::None).unwrap();
    let mut client =
        Client::connect_with(proxy.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    client
        .ingest(IngestRequest::of(1, [true, true, false]))
        .unwrap();
    client.flush().unwrap();
    assert_eq!(client.query(1, 64).unwrap().value, 2.0);
    assert!(proxy.bytes_forwarded() > 0);
}

/// Dropped, stalled, truncated, and corrupted replies, each as one
/// schedule: the sim's chaos step demands a correct answer or a typed
/// error within its hang budget — and because the answer is checked
/// against the oracle, "wrong answer decoded from a corrupt frame"
/// fails loudly (the bug class that forced the wire-v2 CRC trailer).
#[test]
fn chaos_faults_surface_typed_errors_never_wrong_answers() {
    let faults = [
        FaultSpec::DropConnection,
        FaultSpec::DelayMs(120),
        FaultSpec::TruncateAfter(3),
        FaultSpec::CorruptByteAt(0),  // reply frame magic
        FaultSpec::CorruptByteAt(12), // inside the query reply's frame
    ];
    for (i, fault) in faults.into_iter().enumerate() {
        let sched = Schedule::builder(7000 + i as u64)
            .num_keys(3)
            .ingest_random(5)
            .flush()
            .chaos(fault, 1, 64)
            .query_all()
            .build();
        check(&sched);
    }
}

/// Sweep the corrupted byte across the whole reply stream — headers,
/// payloads, CRC trailers, and offsets beyond the reply (which leave
/// the exchange intact). No offset may produce a wrong answer.
#[test]
fn corruption_at_any_reply_offset_is_never_a_wrong_answer() {
    for off in 0..48usize {
        let sched = Schedule::builder(8000 + off as u64)
            .num_keys(2)
            .ingest_random(4)
            .chaos(FaultSpec::CorruptByteAt(off), 0, 32)
            .query_all()
            .build();
        check(&sched);
    }
}

#[test]
fn stalled_replies_surface_timeout_within_budget() {
    let server = start_server();
    // Delay longer than the client's read timeout: the reply exists but
    // arrives too late. Kept hand-written for the exact metadata — the
    // sim only demands "some typed error".
    let proxy =
        ChaosProxy::start(server.local_addr(), Fault::Delay(Duration::from_secs(2))).unwrap();
    let cfg = ClientConfig {
        retry: RetryPolicy::none(),
        ..fast_cfg()
    };
    let mut client = Client::connect_with(proxy.local_addr(), cfg, Arc::new(NoopRecorder)).unwrap();
    let t0 = Instant::now();
    let err = client.ping().unwrap_err();
    match err {
        WaveError::Timeout { op, millis } => {
            assert_eq!(op, "read");
            assert_eq!(millis, 300);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
}

/// A proxy that holds back the first chunk the server sends by `delay`
/// and forwards everything after it at once: one slow reply on an
/// otherwise healthy connection. (`Fault::Delay` slows every chunk, so
/// behind it no later reply could beat the read timeout either.)
fn first_reply_delayed(upstream: SocketAddr, delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (client, _) = listener.accept().unwrap();
        let server = TcpStream::connect(upstream).unwrap();
        let (mut up_from, mut up_to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
        std::thread::spawn(move || std::io::copy(&mut up_from, &mut up_to));
        let (mut from, mut to) = (server, client);
        let mut buf = [0u8; 4096];
        let mut first = true;
        while let Ok(n @ 1..) = from.read(&mut buf) {
            if std::mem::take(&mut first) {
                std::thread::sleep(delay);
            }
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    });
    addr
}

/// A read timeout costs the request it gave up on, not the connection:
/// the late reply lands while no call waits for it, and the next call
/// on the same client — no retry, no redial — steps over it (its
/// correlation id is below every id that call sent) and reads its own.
#[test]
fn a_late_reply_after_a_timeout_does_not_wedge_the_client() {
    let server = start_server();
    let addr = first_reply_delayed(server.local_addr(), Duration::from_millis(400));
    let cfg = ClientConfig {
        retry: RetryPolicy::none(),
        ..fast_cfg()
    };
    let mut client = Client::connect_with(addr, cfg, Arc::new(NoopRecorder)).unwrap();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, WaveError::Timeout { .. }), "{err:?}");
    // The abandoned ping's reply reaches the client's socket.
    std::thread::sleep(Duration::from_millis(300));
    client.ping().unwrap();
    client
        .ingest(IngestRequest::of(9, [true, false, true]))
        .unwrap();
    client.flush().unwrap();
    assert_eq!(client.query(9, 64).unwrap().value, 2.0);
}

/// A corrupt reply must be called out as data corruption, with the
/// source chain reaching the underlying `io::Error`.
#[test]
fn corrupted_reply_surfaces_invalid_data() {
    let server = start_server();
    let proxy = ChaosProxy::start(server.local_addr(), Fault::CorruptByteAt(28)).unwrap();
    let mut client = Client::connect_with(
        proxy.local_addr(),
        ClientConfig {
            retry: RetryPolicy::none(),
            ..fast_cfg()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    // The ingest's Ok reply occupies stream offsets 0..28 (24-byte
    // header + 4-byte CRC trailer); offset 28 is the first byte of the
    // query reply's frame, so the flip breaks its magic.
    client
        .ingest(IngestRequest::of(5, [true, true, true]))
        .unwrap();
    let t0 = Instant::now();
    let err = client.query(5, 64).unwrap_err();
    match &err {
        WaveError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{io}");
        }
        other => panic!("expected Io(InvalidData), got {other:?}"),
    }
    // The source chain reaches the underlying io::Error.
    assert!(std::error::Error::source(&err).is_some());
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
}

/// A reply that arrives whole but fails its CRC costs the request it
/// answered and nothing else: its bytes are stepped over, so the next
/// call on the same client — no retry, no redial — reads its own reply
/// from a frame boundary instead of tripping over the bad frame again.
#[test]
fn a_reply_corrupted_inside_its_payload_costs_one_request_not_the_connection() {
    let server = start_server();
    // The ingest's Ok reply is stream offsets 0..28 and the query
    // reply's header 28..52, so offset 54 is inside its payload.
    let proxy = ChaosProxy::start(server.local_addr(), Fault::CorruptByteAt(54)).unwrap();
    let mut client = Client::connect_with(
        proxy.local_addr(),
        ClientConfig {
            retry: RetryPolicy::none(),
            ..fast_cfg()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    client
        .ingest(IngestRequest::of(5, [true, true, true]))
        .unwrap();
    match client.query(5, 64).unwrap_err() {
        WaveError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{io}");
            assert!(io.to_string().contains("checksum"), "{io}");
        }
        other => panic!("expected Io(InvalidData), got {other:?}"),
    }
    assert_eq!(client.query(5, 64).unwrap().value, 3.0);
    client.ping().unwrap();
}

/// The retry machinery must actually recover when the network heals:
/// kill the first connection mid-session, and the idempotent query
/// reconnects (straight to the server this time) and succeeds.
#[test]
fn idempotent_requests_retry_after_reset() {
    let server = start_server();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    client
        .ingest(IngestRequest::of(2, [true, false, true, true]))
        .unwrap();
    client.flush().unwrap();
    // Shut the server-side sockets down under the client: its next read
    // hits EOF, a retryable condition, and the client reconnects.
    server.shutdown();
    // The server is gone entirely, so the retry fails too — but as a
    // typed error within budget, proving retries are bounded.
    let t0 = Instant::now();
    let err = client.query(2, 64).unwrap_err();
    assert!(
        matches!(err, WaveError::Io(_) | WaveError::Timeout { .. }),
        "{err:?}"
    );
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
}

/// A reply cut mid-frame leaves its first bytes in the client's read
/// buffer when the connection dies. The retry dials a new connection,
/// and that fragment must die with the old one: decoded in front of the
/// new connection's first reply it would be a header glued to another
/// frame's tail — a CRC failure where a healthy answer was on offer.
#[test]
fn retry_after_a_reply_cut_mid_frame_starts_from_an_empty_read_buffer() {
    let server = start_server();
    // A PONG is 28 bytes on the wire: every proxied connection forwards
    // one whole reply and the first 10 bytes of the next, then closes.
    let proxy = ChaosProxy::start(server.local_addr(), Fault::TruncateAfter(28 + 10)).unwrap();
    let mut client =
        Client::connect_with(proxy.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    client.ping().unwrap();
    // Cut 10 bytes in, then EOF (retryable); the single retry redials
    // through the proxy and its 28-byte reply arrives whole.
    let t0 = Instant::now();
    client.ping().unwrap();
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
    // The fragment really was delivered: 38 bytes on the dead
    // connection, 28 on its successor.
    assert_eq!(proxy.bytes_forwarded(), 38 + 28);
}

/// A `DetWave` holding `ones` distinct 1-bits, for hand-rolled
/// `PUSH_DELTA` payloads with a known combine answer.
fn wave_with(ones: u64) -> DetWave {
    let mut w = DetWave::new(64, 0.25).unwrap();
    for _ in 0..ones {
        w.push_bit(true);
    }
    w
}

/// Wire v7 dedup under reordering: once the referee holds seq 2 for a
/// party, a late seq-1 delta and a replayed seq-2 delta (even with
/// different bytes) are answered `Ok` without touching state — the
/// continuous answer never rolls backwards. A genuinely newer seq still
/// advances it, proving the party isn't wedged.
#[test]
fn reordered_and_duplicate_push_deltas_never_roll_the_referee_back() {
    let server = start_server();
    let mut client =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    let newer = wave_with(5);
    let older = wave_with(1);
    client
        .push_delta(0, 2, 0.0, SynopsisKind::DetWave, newer.encode())
        .unwrap();
    let installed = client.combine(64).unwrap();
    assert_eq!(installed.value, newer.query_max().value);
    // Late reordered delta: lower seq, different bytes — acked, ignored.
    client
        .push_delta(0, 1, 0.0, SynopsisKind::DetWave, older.encode())
        .unwrap();
    assert_eq!(
        client.combine(64).unwrap(),
        installed,
        "seq 1 rolled back seq 2"
    );
    // Replay of the current seq with different bytes: also a no-op.
    client
        .push_delta(0, 2, 0.0, SynopsisKind::DetWave, older.encode())
        .unwrap();
    assert_eq!(
        client.combine(64).unwrap(),
        installed,
        "replayed seq mutated state"
    );
    // A genuinely newer delta still advances the answer.
    client
        .push_delta(0, 3, 0.0, SynopsisKind::DetWave, older.encode())
        .unwrap();
    assert_eq!(client.combine(64).unwrap().value, older.query_max().value);
}

/// A stalled `PUSH_DELTA` ack is bounded staleness, never a wrong
/// answer: the delta's forward leg reaches the server (the Delay fault
/// stalls only server→client bytes), the pusher times out and retries
/// through the same sick proxy, and seq dedup collapses both attempts
/// into at most one install. The referee's answer is the old value or
/// the new one — nothing else — and an idempotent direct re-send of the
/// same seq repairs the monitor to exactly the new answer.
#[test]
fn delayed_push_delta_ack_is_bounded_staleness_never_a_wrong_answer() {
    let server = start_server();
    let old = wave_with(2);
    let new = wave_with(7);
    let mut direct =
        Client::connect_with(server.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    direct
        .push_delta(0, 1, 0.0, SynopsisKind::DetWave, old.encode())
        .unwrap();
    assert_eq!(direct.combine(64).unwrap().value, old.query_max().value);
    // Ship seq 2 through a proxy that delays every reply past the read
    // timeout: both the first attempt and the retry fail with a typed
    // error, inside the hang budget.
    let proxy =
        ChaosProxy::start(server.local_addr(), Fault::Delay(Duration::from_secs(2))).unwrap();
    let mut pusher =
        Client::connect_with(proxy.local_addr(), fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    let t0 = Instant::now();
    let err = pusher
        .push_delta(0, 2, 0.0, SynopsisKind::DetWave, new.encode())
        .unwrap_err();
    assert!(
        matches!(err, WaveError::Timeout { .. } | WaveError::Io(_)),
        "{err:?}"
    );
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
    // The referee is stale or current — never corrupt, never rolled back.
    let answer = direct.combine(64).unwrap().value;
    assert!(
        answer == old.query_max().value || answer == new.query_max().value,
        "combine {answer} is neither the old nor the new answer"
    );
    // Repair: the same seq over a healthy path. If a timed-out attempt
    // already installed it this is a dedup no-op; either way the answer
    // is now exactly the new one.
    direct
        .push_delta(0, 2, 0.0, SynopsisKind::DetWave, new.encode())
        .unwrap();
    assert_eq!(direct.combine(64).unwrap().value, new.query_max().value);
}

/// A client with a generous budget pointed at a fresh server after a
/// failed session: reconnect-and-retry succeeds end to end.
#[test]
fn fresh_connection_after_failure_works() {
    let server = start_server();
    let addr = server.local_addr();
    {
        let proxy = ChaosProxy::start(addr, Fault::DropConnection).unwrap();
        let _ = Client::connect_with(proxy.local_addr(), fast_cfg(), Arc::new(NoopRecorder))
            .and_then(|mut c| c.ping());
        // Proxy drops here; the server itself was never touched.
    }
    let mut client = Client::connect_with(addr, fast_cfg(), Arc::new(NoopRecorder)).unwrap();
    client.ping().unwrap();
    client.ingest(IngestRequest::of(3, [true])).unwrap();
    client.flush().unwrap();
    assert_eq!(client.query(3, 64).unwrap().value, 1.0);
}

/// Referee arithmetic faces wire input: four syntactically valid
/// `DetWave` encodes each claiming 2^62 ones sum to 2^64. The combine
/// must answer a typed error — not wrap to `exact 0`, not panic the
/// event loop, which serves COMBINE — and the connection must keep
/// serving afterwards.
#[test]
fn combine_total_past_u64_is_a_typed_error_not_a_wrapped_answer() {
    // A panic on the loop would stop the whole server: the PING below
    // would go unanswered.
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let cfg = ClientConfig {
        retry: RetryPolicy::none(),
        ..fast_cfg()
    };
    let mut client =
        Client::connect_with(server.local_addr(), cfg, Arc::new(NoopRecorder)).unwrap();
    // DetWave::encode's layout with max_window = pos = 2^62, no expired
    // rank and no stored entries: query_max is exact(rank).
    let huge = 1u64 << 62;
    let claiming = |rank: u64| {
        let mut w = waves::codec::BitWriter::new();
        w.write_gamma(huge); // max_window
        w.write_gamma(4); // k
        w.write_gamma0(huge); // pos
        w.write_gamma0(rank);
        w.write_gamma0(0); // r1
        w.write_gamma0(0); // entries
        w.finish()
    };
    let decoded = DetWave::decode(&claiming(huge)).unwrap();
    assert_eq!(decoded.query_max(), waves::Estimate::exact(huge));
    for party in 0..4 {
        client
            .push_synopsis(party, SynopsisKind::DetWave, claiming(huge))
            .unwrap();
    }
    let t0 = Instant::now();
    let err = client.combine(huge).unwrap_err();
    assert!(
        matches!(err, WaveError::TooManyItemsInWindow { .. }),
        "{err:?}"
    );
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
    client.ping().expect("the event loop survived the overflow");
    // Three parties still fit: the guard refuses only what overflows.
    client
        .push_synopsis(3, SynopsisKind::DetWave, claiming(1))
        .unwrap();
    let fits = client.combine(huge).unwrap();
    assert_eq!(fits, waves::Estimate::exact(3 * huge + 1));
}

/// Decoders face wire input too: a well-framed `SumWave` encoding whose
/// second entry `(p=5, v=10, z=11)` overlaps its first `(p=1, v=10,
/// z=10)` describes no real stream. Accepted, `COMBINE{8}` would
/// subtract one running total from the other — an event-loop panic
/// under the referee lock (debug) or the bracket `[19, 10]` served as an
/// answer (release). It must be refused at the door with a typed error,
/// leave the other parties' answer intact, and cost the connection
/// nothing.
#[test]
fn forged_sum_entries_are_refused_at_the_door_not_answered_inverted() {
    // PUSH_SYNOPSIS and COMBINE run on the event loop: a panic there
    // would leave nobody to answer the PING below.
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let cfg = ClientConfig {
        retry: RetryPolicy::none(),
        ..fast_cfg()
    };
    let mut client =
        Client::connect_with(server.local_addr(), cfg, Arc::new(NoopRecorder)).unwrap();
    let mut honest = waves::SumWave::new(100, 16, 0.25).unwrap();
    for v in [3, 0, 16, 7, 1, 0, 9, 12, 4, 2] {
        honest.push_value(v).unwrap();
    }
    client
        .push_synopsis(1, SynopsisKind::SumWave, honest.encode())
        .unwrap();

    let mut w = waves::codec::BitWriter::new();
    w.write_gamma(100); // max_window
    w.write_gamma(16); // max_value
    w.write_gamma(4); // k
    w.write_gamma0(10); // pos
    w.write_gamma0(20); // total
    w.write_gamma0(0); // z1
    w.write_gamma0(2); // entries
    waves::codec::write_deltas(&mut w, &[1, 5]); // positions
    waves::codec::write_deltas(&mut w, &[10, 11]); // running totals
    for _ in 0..2 {
        w.write_gamma(10); // v
        w.write_gamma0(0); // level
    }
    let err = client
        .push_synopsis(0, SynopsisKind::SumWave, w.finish())
        .unwrap_err();
    // The server's `Io(InvalidData)`; the wire carries an `Io` as an
    // opaque remote error with its message.
    assert!(
        matches!(&err, WaveError::Io(e) if e.to_string().contains("synopsis decode failed")),
        "{err:?}"
    );

    let t0 = Instant::now();
    let without_forger = client.combine(8).unwrap();
    assert_eq!(without_forger, honest.query(8).unwrap());
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
    client.ping().expect("the event loop is alive");
    // The refused party can still push a real synopsis afterwards.
    client
        .push_synopsis(0, SynopsisKind::SumWave, honest.encode())
        .unwrap();
    let both = client.combine(8).unwrap();
    assert_eq!(both.lo, 2 * without_forger.lo);
    assert_eq!(both.hi, 2 * without_forger.hi);
}

/// An honest party's *valid* encoding must not be refused either:
/// `m = 49` is one of the bucket parameters whose own `eps = 1/(2m)`
/// rounds back up to `m + 1`, and a decoder that rebuilt through `eps`
/// tripped its own consistency assert — a dead event loop (debug)
/// or a referee merging on thresholds the party never used (release).
/// The push is accepted, the referee answers what the party would, and
/// the connection lives on.
#[test]
fn valid_eh_encoding_with_a_drifting_m_is_served_not_refused() {
    // PUSH_SYNOPSIS runs on the event loop: a panic there would leave
    // nobody to answer the COMBINE and PING below.
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let cfg = ClientConfig {
        retry: RetryPolicy::none(),
        ..fast_cfg()
    };
    let mut client =
        Client::connect_with(server.local_addr(), cfg, Arc::new(NoopRecorder)).unwrap();
    let mut eh = waves::EhCount::new(4096, 0.0103).unwrap();
    for i in 0..20_000u64 {
        eh.push_bit(i % 3 != 0);
    }
    client
        .push_synopsis(0, SynopsisKind::EhCount, eh.encode())
        .expect("a valid encoding");
    let t0 = Instant::now();
    assert_eq!(client.combine(4096).unwrap(), eh.query(4096).unwrap());
    assert!(t0.elapsed() < HANG_BUDGET, "took {:?}", t0.elapsed());
    client.ping().expect("the event loop is alive");
}
