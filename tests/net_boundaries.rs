//! Hostile byte boundaries on the wire path's two buffers: requests
//! that arrive a few bytes at a time must reassemble into exactly the
//! frames that were sent, and a reply buffer the kernel accepts only
//! in pieces must resume mid-frame without losing or repeating a byte.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use waves::codec::BitWriter;
use waves::net::{
    Client, Frame, FrameError, FrameTag, Server, ServerConfig, SynopsisKind, WireCodec,
};
use waves::obs::{MetricsRegistry, Recorder};
use waves::{DetWave, EngineConfig, IngestRequest, WaveError};

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

/// A mixed pipeline whose answers do not depend on how far INGESTs have
/// run ahead of QUERYs awaiting a shard: a key is never ingested again
/// once it has been queried. 34 groups of six frames.
fn mixed_pipeline() -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut wave = DetWave::new(256, 0.2).unwrap();
    for g in 0..34u64 {
        let bits: Vec<bool> = (0..=g % 5).map(|i| (g + i) % 3 != 0).collect();
        frames.push(Frame::Ingest(IngestRequest::of(g, bits).entries));
        frames.push(Frame::Query {
            key: g,
            window: 256,
        });
        wave.push_bit(g % 2 == 0);
        frames.push(Frame::PushDelta {
            party: g % 4,
            seq: g + 1,
            slack: 0.5,
            kind: SynopsisKind::DetWave,
            bytes: wave.encode(),
        });
        frames.push(Frame::Combine { window: 64 + g });
        frames.push(match g % 3 {
            0 => Frame::Flush,
            // A key nobody ingested: a typed error, in its own slot.
            1 => Frame::Query {
                key: 10_000 + g,
                window: 8,
            },
            _ => Frame::Ping,
        });
        frames.push(Frame::Query {
            key: g / 2,
            window: 1 + g,
        });
    }
    frames
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Reassembly: one encoded pipeline written in seeded pieces of 1–9
/// bytes (with `nodelay`, so the pieces really travel apart) is
/// answered, frame for frame, as the same requests sent whole and one
/// at a time to a fresh server. The in-flight cap is 4, so the loop
/// also pauses and resumes with part of a frame in its read buffer.
#[test]
fn requests_arriving_in_slivers_reassemble_into_the_same_answers() {
    let frames = mixed_pipeline();
    assert!(frames.len() >= 200);

    let reference = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    let mut client = Client::connect(reference.local_addr()).unwrap();
    let expected: Vec<Frame> = frames
        .iter()
        .map(|f| {
            client
                .send_many(std::slice::from_ref(f), 1)
                .unwrap()
                .remove(0)
        })
        .collect();
    drop(client);
    drop(reference);

    let mut wire = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let tag = FrameTag {
            trace: 0,
            corr: 1 + i as u64,
        };
        wire.extend(WireCodec::encode_tagged(frame, tag));
    }

    for seed in 1..=8u64 {
        let cfg = ServerConfig {
            max_inflight: 4,
            ..server_cfg()
        };
        let server = Server::start("127.0.0.1:0", cfg).unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = sock.try_clone().unwrap();
        let bytes = wire.clone();
        let slicer = std::thread::spawn(move || {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut at = 0;
            while at < bytes.len() {
                let piece = (1 + xorshift(&mut state) % 9) as usize;
                let end = (at + piece).min(bytes.len());
                writer.write_all(&bytes[at..end]).unwrap();
                at = end;
            }
        });

        let mut answers: Vec<Option<Frame>> = vec![None; frames.len()];
        for _ in 0..frames.len() {
            let (reply, _, tag) = WireCodec::read_frame_tagged(&mut sock).unwrap();
            let slot = &mut answers[tag.corr as usize - 1];
            assert!(
                slot.is_none(),
                "seed {seed}: corr {} answered twice",
                tag.corr
            );
            *slot = Some(reply);
        }
        slicer.join().unwrap();
        for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.as_ref(),
                Some(want),
                "seed {seed}, frame {i}: {:?}",
                frames[i]
            );
        }
    }
}

/// Partial writes of the coalesced out-buffer: a peer pipelines far
/// more PINGs than the kernel's socket buffers hold replies for while
/// it reads nothing, so the server's out-buffer backs up by megabytes
/// and every later `write` is accepted only in part. Once the peer
/// reads, each correlation id arrives exactly once — the resume after
/// `WouldBlock` neither skipped nor repeated a byte — and a second
/// connection is served promptly throughout: a firehose holds the loop
/// for one read chunk at a time. Reply frames count as sent as their
/// last byte reaches the socket, so the counter moves while the backlog
/// stands instead of waiting for a drain a slow peer may never allow.
#[test]
fn backed_up_replies_resume_mid_buffer_and_neighbours_stay_served() {
    const PINGS: usize = 600_000;
    let rec = Arc::new(MetricsRegistry::new());
    let cfg = ServerConfig {
        max_write_queue: 64 << 20,
        ..server_cfg()
    };
    let server = Server::start_recorded("127.0.0.1:0", cfg, rec.clone()).unwrap();

    let mut reader = TcpStream::connect(server.local_addr()).unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = reader.try_clone().unwrap();
    let firehose = std::thread::spawn(move || {
        let mut burst = Vec::with_capacity(64 << 10);
        for corr in 1..=PINGS as u64 {
            burst.extend(WireCodec::encode_tagged(
                &Frame::Ping,
                FrameTag { trace: 0, corr },
            ));
            if burst.len() >= 60 << 10 || corr == PINGS as u64 {
                writer.write_all(&burst).unwrap();
                burst.clear();
            }
        }
    });

    let done = Arc::new(AtomicBool::new(false));
    let pongs_beside = Arc::new(AtomicU64::new(0));
    let neighbour = {
        let done = Arc::clone(&done);
        let pongs_beside = Arc::clone(&pongs_beside);
        let mut client = Client::connect(server.local_addr()).unwrap();
        std::thread::spawn(move || {
            let mut worst = Duration::ZERO;
            while !done.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                client.ping().unwrap();
                pongs_beside.fetch_add(1, Ordering::SeqCst);
                worst = worst.max(t0.elapsed());
                std::thread::sleep(Duration::from_millis(2));
            }
            worst
        })
    };

    // Stall until every request is written: the server has served what
    // it could and is holding the replies the kernel would not take.
    firehose.join().unwrap();
    let frames_sent = |rec: &MetricsRegistry| {
        let snap = rec.metrics_snapshot().unwrap();
        snap.counter("net_frames_sent_total").unwrap()
    };
    // The neighbour's count may trail its last reply by one.
    let stalled = frames_sent(&rec) - pongs_beside.load(Ordering::SeqCst);
    assert!(
        (1000..PINGS as u64).contains(&stalled),
        "{stalled} of {PINGS} replies counted as sent with the peer stalled"
    );

    let mut seen = vec![false; PINGS + 1];
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 256 << 10];
    let mut answered = 0;
    while answered < PINGS {
        let n = reader.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed after {answered} replies");
        buf.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        loop {
            match WireCodec::decode_tagged(&buf[used..]) {
                Ok((reply, len, tag)) => {
                    assert_eq!(reply, Frame::Pong);
                    let slot = &mut seen[tag.corr as usize];
                    assert!(!*slot, "corr {} answered twice", tag.corr);
                    *slot = true;
                    used += len;
                    answered += 1;
                }
                Err(FrameError::Truncated) => break,
                Err(e) => panic!("reply stream corrupt after {answered} replies: {e}"),
            }
        }
        buf.drain(..used);
    }
    assert!(buf.is_empty(), "{} bytes past the last reply", buf.len());

    done.store(true, Ordering::SeqCst);
    let worst = neighbour.join().unwrap();
    assert!(
        worst < Duration::from_secs(1),
        "a neighbour's ping took {worst:?} beside the firehose"
    );
    let snap = rec.metrics_snapshot().unwrap();
    let backed_up = snap.hist("net_write_queue_bytes").unwrap().max;
    assert!(
        backed_up >= 1 << 20,
        "out-buffer peaked at {backed_up} bytes: the partial-write path never ran"
    );
    assert_eq!(snap.counter("net_connections_evicted_total"), Some(0));
    // The loop bumps the counter just after the `write` that made the
    // last reply readable; give it a moment to get there.
    let every_reply = PINGS as u64 + pongs_beside.load(Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(2);
    while frames_sent(&rec) != every_reply && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(frames_sent(&rec), every_reply);
}

/// A PUSH_SYNOPSIS whose wave header forges `k = 2^32` — more slots
/// than the ladder's `u32` links address — is answered with an error
/// frame, and the same server, on the same connection, still answers
/// PING. The bytes are decoded on the event-loop thread under the
/// referee lock, where the constructor's panic on that `k` used to
/// land. A `k` between about 2^20 and 2^31 is still accepted and
/// reserves gigabytes up front (ROADMAP item 8, the lazy slab), so none
/// is sent here.
#[test]
fn a_forged_wave_header_is_an_error_frame_and_the_server_stays_up() {
    let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut header = BitWriter::new();
    header.write_gamma(16);
    header.write_gamma(1 << 32);
    (0..4).for_each(|_| header.write_gamma0(0));
    match client.push_synopsis(0, SynopsisKind::DetWave, header.finish()) {
        Err(WaveError::Io(e)) => assert!(e.to_string().contains("bad k"), "{e}"),
        other => panic!("a forged k was answered {other:?}"),
    }
    client.ping().unwrap();
    assert_eq!(server.referee_parties(), 0);
}

/// A whole frame whose fields run past its payload: a QUERY (type
/// 0x03) carrying only its 8-byte key, length and CRC consistent, sent
/// in one write with a PING behind it. The frame is complete, so no
/// further byte can finish it: the server must refuse it and close, not
/// wait for more input on a connection that has no idle timeout.
#[test]
fn a_complete_frame_with_a_short_payload_is_refused_not_awaited() {
    let server = Server::start("127.0.0.1:0", server_cfg()).unwrap();
    let mut short = WireCodec::encode(&Frame::Combine { window: 7 });
    short[3] = 0x03;
    short.truncate(short.len() - 4);
    let sum = waves::store::crc::crc32(&short);
    short.extend_from_slice(&sum.to_be_bytes());
    short.extend_from_slice(&WireCodec::encode(&Frame::Ping));

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let t0 = Instant::now();
    sock.write_all(&short).unwrap();
    match WireCodec::read_frame_tagged(&mut sock) {
        Ok((Frame::ErrorResp(WaveError::Io(e)), _, _)) => {
            assert!(e.to_string().contains("payload ends early"), "{e}")
        }
        other => panic!("a short payload was answered {other:?}"),
    }
    let mut rest = Vec::new();
    sock.read_to_end(&mut rest)
        .expect("the server closes the connection");
    assert!(rest.is_empty(), "{} bytes after the refusal", rest.len());
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}

/// A connection cap of two: a third dial is accepted and closed at
/// once, so it reads EOF rather than waiting in the backlog; the first
/// two are still served; and once one of them closes, a new dial is
/// served. The loop notices that close when it reads the peer's EOF, so
/// the last dial retries until it lands after it.
#[test]
fn dials_beyond_the_connection_cap_read_eof_and_a_freed_slot_is_served() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 2,
            ..server_cfg()
        },
    )
    .unwrap();
    let dial = || {
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock
    };
    // A PING answered PONG, or `None` if the server closed the socket.
    let ping = |sock: &mut TcpStream| {
        sock.write_all(&WireCodec::encode(&Frame::Ping)).ok()?;
        WireCodec::read_frame_tagged(sock)
            .ok()
            .map(|(reply, ..)| reply)
    };
    let (mut first, mut second) = (dial(), dial());
    assert_eq!(ping(&mut first), Some(Frame::Pong));
    assert_eq!(ping(&mut second), Some(Frame::Pong));

    let mut third = dial();
    let mut byte = [0u8; 1];
    assert_eq!(third.read(&mut byte).expect("EOF, not a timeout"), 0);
    assert_eq!(ping(&mut first), Some(Frame::Pong));
    assert_eq!(ping(&mut second), Some(Frame::Pong));

    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if ping(&mut dial()) == Some(Frame::Pong) {
            break;
        }
        assert!(Instant::now() < deadline, "the freed slot never served");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(ping(&mut second), Some(Frame::Pong));
}
