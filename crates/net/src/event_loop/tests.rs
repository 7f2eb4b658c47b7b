//! The loop's unit tests: the `tests` module of `event_loop.rs`, in its
//! own file. The stepped test drives [`EventLoop::turn`] on the test's
//! own thread — no loop thread — over raw loopback sockets, with the
//! write pieces and the ready list's order drawn from a seed.

use super::*;
use std::sync::atomic::AtomicBool;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waves_distributed::MonitorReferee;
use waves_engine::EngineConfig;
use waves_obs::NoopRecorder;

/// Every subset of touched shards against every subset of refused
/// ones, on three shards, in both listing orders: `Ok` exactly when
/// the two sets are disjoint, else BACKPRESSURE naming the lowest
/// shard in both.
#[test]
fn a_gathered_frame_is_refused_by_its_lowest_refused_shard() {
    for touched_set in 0u32..8 {
        for refused_set in 0u32..8 {
            let refused: Vec<bool> = (0..3).map(|s| refused_set >> s & 1 == 1).collect();
            let mut touched: Vec<usize> = (0..3).filter(|s| touched_set >> s & 1 == 1).collect();
            let want = match touched_set & refused_set {
                0 => Frame::Ok,
                both => Frame::ErrorResp(WaveError::Backpressure {
                    shard: both.trailing_zeros() as usize,
                }),
            };
            assert_eq!(
                ingest_reply(&touched, &refused),
                want,
                "{touched:?} {refused:?}"
            );
            touched.reverse();
            assert_eq!(
                ingest_reply(&touched, &refused),
                want,
                "{touched:?} {refused:?}"
            );
        }
    }
}

/// A peer that reads steadily but never catches up keeps its
/// backlog above zero and under the cap while many times the cap
/// passes through. The buffer must stay within a small multiple of
/// the backlog — not grow with every byte ever sent — and frames
/// must count as their last byte goes, not at a drain that never
/// comes.
#[test]
fn out_buffer_of_a_peer_that_never_catches_up_stays_bounded() {
    const CAP: usize = 4 << 10;
    let pong = WireCodec::encode(&Frame::Pong);
    let mut out = OutBuf::default();
    let (mut pushed, mut sent, mut accepted) = (0u64, 0u64, 0usize);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    while accepted < 64 * CAP {
        while out.queued() + pong.len() <= CAP {
            out.bytes.extend_from_slice(&pong);
            pushed += 1;
        }
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // The socket takes a piece, never all of it.
        let n = 1 + state as usize % (out.queued() - 1);
        sent += out.advance(n);
        accepted += n;
        assert_eq!(sent, (accepted / pong.len()) as u64);
        assert!(out.bytes[out.wpos..].starts_with(&pong[accepted % pong.len()..]));
        assert!(
            out.bytes.len() <= 2 * (CAP + pong.len()),
            "{} bytes held for a backlog of {}",
            out.bytes.len(),
            out.queued()
        );
    }
    assert!(out.bytes.capacity() <= 8 * CAP, "{}", out.bytes.capacity());
    sent += out.advance(out.queued());
    assert_eq!(sent, pushed);
    assert!(out.bytes.is_empty() && out.wpos == 0 && out.fpos == 0);
}

/// The window and ε every key of the stepped test is kept at.
const N: u64 = 256;
const EPS: f64 = 0.2;

/// One raw client connection of the stepped test: its requests (request
/// `i` carries correlation id `i + 1`), their bytes and how many of
/// them are written, and the replies read so far, by request.
struct Peer {
    sock: TcpStream,
    frames: Vec<Frame>,
    wire: Vec<u8>,
    written: usize,
    rbuf: Vec<u8>,
    replies: Vec<Option<Frame>>,
}

impl Peer {
    /// Dial `addr` and draw connection `conn`'s pipeline: INGESTs of
    /// one key each (some long, to keep a shard busy while the queue
    /// behind it fills), QUERYs, FLUSHes and PINGs, over keys no other
    /// connection names.
    fn new(addr: std::net::SocketAddr, conn: u64, rng: &mut StdRng) -> Self {
        let key = |i: u64| conn << 32 | i;
        let frames: Vec<Frame> = (0..rng.gen_range(24..=48))
            .map(|_| match rng.gen_range(0..10u32) {
                0..=4 => {
                    let len = match rng.gen_range(0..12u32) {
                        0 => 1 << 14,
                        _ => rng.gen_range(1..=48usize),
                    };
                    let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                    Frame::Ingest(IngestRequest::of(key(rng.gen_range(0..4)), bits).entries)
                }
                5..=6 => Frame::Query {
                    key: key(rng.gen_range(0..4)),
                    window: rng.gen_range(1..=N),
                },
                7 => Frame::Flush,
                _ => Frame::Ping,
            })
            .collect();
        let mut wire = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let tag = FrameTag {
                trace: 0,
                corr: i as u64 + 1,
            };
            WireCodec::encode_tagged_into(frame, tag, &mut wire);
        }
        let sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_nonblocking(true).unwrap();
        Peer {
            sock,
            replies: vec![None; frames.len()],
            frames,
            wire,
            written: 0,
            rbuf: Vec::new(),
        }
    }

    /// Write the next `n` bytes of the pipeline, or what is left of it.
    fn write_piece(&mut self, n: usize) {
        let end = self.written.saturating_add(n).min(self.wire.len());
        self.sock.write_all(&self.wire[self.written..end]).unwrap();
        self.written = end;
    }

    /// Read what the loop has sent, and file each whole reply under the
    /// request its correlation id names — which must be one of ours,
    /// not yet answered. `true` once the peer has read EOF.
    fn read_replies(&mut self, seed: u64) -> bool {
        let mut chunk = [0u8; 4096];
        let eof = loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => break true,
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) => panic!("seed {seed}: read failed: {e}"),
            }
        };
        let mut used = 0;
        loop {
            match WireCodec::decode_tagged(&self.rbuf[used..]) {
                Ok((reply, n, tag)) => {
                    used += n;
                    let slot = (tag.corr as usize)
                        .checked_sub(1)
                        .and_then(|i| self.replies.get_mut(i));
                    match slot {
                        Some(slot @ None) => *slot = Some(reply),
                        _ => panic!(
                            "seed {seed}: reply {reply:?} pairs with no open request {tag:?}"
                        ),
                    }
                }
                Err(FrameError::Truncated) => break,
                Err(e) => panic!("seed {seed}: bad reply frame: {e}"),
            }
        }
        self.rbuf.drain(..used);
        eof
    }

    fn answered(&self) -> bool {
        self.replies.iter().all(Option::is_some)
    }

    /// Hold every reply to its request: a QUERY equals a `DetWave` fed
    /// exactly the INGESTs ahead of it on this connection that were
    /// answered `Ok` (an unknown key if none was). Returns how many
    /// INGESTs were refused.
    fn check(&self, seed: u64, conn: usize) -> usize {
        let mut shadows: HashMap<u64, DetWave> = HashMap::new();
        let mut refused = 0;
        for (i, (req, reply)) in self.frames.iter().zip(&self.replies).enumerate() {
            let at = format!("seed {seed} conn {conn} request {}", i + 1);
            match (req, reply.as_ref().unwrap()) {
                (Frame::Ingest(entries), Frame::Ok) => {
                    let (key, bits) = &entries[0];
                    shadows
                        .entry(*key)
                        .or_insert_with(|| DetWave::new(N, EPS).unwrap())
                        .push_words(bits.as_ref());
                }
                (Frame::Ingest(_), Frame::ErrorResp(WaveError::Backpressure { .. })) => {
                    refused += 1
                }
                (Frame::Query { key, window }, reply) => {
                    let want = match shadows.get(key) {
                        Some(shadow) => Frame::EstimateResp(shadow.query(*window).unwrap()),
                        None => Frame::ErrorResp(WaveError::UnknownKey { key: *key }),
                    };
                    assert_eq!(reply, &want, "{at}: QUERY key {key} window {window}");
                }
                (Frame::Flush, Frame::Ok) | (Frame::Ping, Frame::Pong) => {}
                (req, other) => panic!("{at}: {req:?} answered {other:?}"),
            }
        }
        refused
    }
}

/// Wait for readiness, shuffle the ready list with `rng`, and turn.
fn step(el: &mut EventLoop, events: &mut Events, rng: &mut StdRng) {
    el.poller
        .wait(events, Some(Duration::from_millis(5)))
        .unwrap();
    let mut ready: Vec<Event> = events.iter().collect();
    for i in (1..ready.len()).rev() {
        ready.swap(i, rng.gen_range(0..=i));
    }
    el.turn(ready);
}

/// A loop on a fresh listener, with nothing connected, for a test to
/// step on its own thread.
fn stepped_loop(cfg: &ServerConfig) -> (EventLoop, Arc<Shared>, std::net::SocketAddr) {
    let rec: Arc<dyn Recorder + Send + Sync> = Arc::new(NoopRecorder);
    let engine = Engine::with_factory(
        cfg.engine.clone(),
        || DetWave::new(N, EPS),
        Arc::clone(&rec),
    )
    .unwrap();
    let shared = Arc::new(Shared {
        engine,
        referee: Mutex::new(MonitorReferee::new()),
        rec,
        slow_request: None,
        stopping: AtomicBool::new(false),
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let el = EventLoop::new(listener, Arc::clone(&shared), cfg).unwrap();
    (el, shared, addr)
}

/// One seed of the stepped test: two to four connections, each
/// pipeline written in pieces of a seed-chosen size on a seed-chosen
/// connection, one turn over a seed-permuted ready list after each
/// piece, against two shards whose queues hold two batches and an
/// in-flight cap of four. Every reply pairs with its request and agrees
/// with the connection's shadows; a closing SHUTDOWN is answered, and
/// the drain it starts closes every connection. Returns how many
/// INGESTs were refused.
fn stepped_seed(seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(2)
            .max_window(N)
            .eps(EPS)
            .queue_capacity(2)
            .build(),
        max_inflight: 4,
        ..Default::default()
    };
    let (mut el, _, addr) = stepped_loop(&cfg);
    let mut events = Events::with_capacity(16);

    let max_piece = [1, 7, 64, 512, 1 << 16][rng.gen_range(0..5usize)];
    let mut peers: Vec<Peer> = (0..rng.gen_range(2..=4u64))
        .map(|conn| Peer::new(addr, conn, &mut rng))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !peers.iter().all(Peer::answered) {
        assert!(Instant::now() < deadline, "seed {seed}: replies stalled");
        let writing: Vec<usize> = (0..peers.len())
            .filter(|&c| peers[c].written < peers[c].wire.len())
            .collect();
        if !writing.is_empty() {
            let c = writing[rng.gen_range(0..writing.len())];
            peers[c].write_piece(rng.gen_range(1..=max_piece));
        }
        step(&mut el, &mut events, &mut rng);
        for peer in &mut peers {
            assert!(!peer.read_replies(seed), "seed {seed}: closed early");
        }
    }
    let refused = peers
        .iter()
        .enumerate()
        .map(|(c, p)| p.check(seed, c))
        .sum();

    // SHUTDOWN on the first connection: its reply arrives, then the
    // drain closes every connection.
    let shutdown = peers[0].frames.len() as u64 + 1;
    peers[0].frames.push(Frame::Shutdown);
    peers[0].replies.push(None);
    let tag = FrameTag {
        trace: 0,
        corr: shutdown,
    };
    WireCodec::encode_tagged_into(&Frame::Shutdown, tag, &mut peers[0].wire);
    peers[0].write_piece(usize::MAX);
    while !el.conns.is_empty() {
        assert!(Instant::now() < deadline, "seed {seed}: drain stalled");
        step(&mut el, &mut events, &mut rng);
    }
    assert!(el.drain_until.is_some(), "seed {seed}");
    for peer in &mut peers {
        assert!(
            peer.read_replies(seed),
            "seed {seed}: no EOF after the drain"
        );
    }
    assert_eq!(peers[0].replies.last().unwrap(), &Some(Frame::Ok));
    refused
}

/// The stepped, seeded loop test over 24 seeds. Some INGEST must have
/// been refused somewhere, or the backpressure arm went unexercised.
#[test]
fn stepped_turns_answer_every_connection_like_its_shadow() {
    let refused: usize = (0..24).map(stepped_seed).sum();
    assert!(refused > 0, "no INGEST was refused in any seed");
}

/// A stop raised while a turn is under way, after the turn's stop check
/// and before it acknowledges the waker, still reaches the next turn.
/// If the ack swallowed the stop's wake, a loop with nothing else to do
/// would wait forever and dropping its `Server` would never join it.
#[test]
fn a_stop_raised_mid_turn_survives_the_waker_ack() {
    let cfg = ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(1)
            .max_window(N)
            .eps(EPS)
            .build(),
        ..Default::default()
    };
    let (mut el, shared, _) = stepped_loop(&cfg);
    let waker = el.waker();
    let mut events = Events::with_capacity(16);
    // A shard completion's wake, then the turn that answers it, during
    // which the stop lands just before the waker's event is handled.
    waker.wake();
    el.poller
        .wait(&mut events, Some(Duration::from_secs(1)))
        .unwrap();
    let ready: Vec<Event> = events.iter().collect();
    assert!(ready.iter().any(|ev| ev.token == WAKER));
    el.turn(ready.into_iter().inspect(|ev| {
        if ev.token == WAKER {
            shared.stopping.store(true, Ordering::SeqCst);
            waker.wake();
        }
    }));
    assert!(el.drain_until.is_none());
    // `run` waits without a timeout until the drain starts: this wait
    // must wake, and the turn after it start the drain.
    el.poller
        .wait(&mut events, Some(Duration::from_millis(200)))
        .unwrap();
    assert!(
        events.iter().any(|ev| ev.token == WAKER),
        "the stop's wake was lost"
    );
    el.turn(events.iter());
    assert!(el.drain_until.is_some());
}
