//! Layer probes: one round's inputs replayed straight into a lower
//! layer's public functions, so each layer has a number of its own that
//! does not depend on the layers above it.

use std::hint::black_box;
use std::path::Path;

use waves_core::{Bits, DetWave};
use waves_net::{Frame, FrameTag, WireCodec};
use waves_obs::NoopRecorder;
use waves_store::{checkpoint, crc, wal, ShardStore, SyncPolicy};

use crate::host::now_ns;
use crate::inputs::Event;
use crate::spec::DurableSpec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Ledger;

/// Timed replays per probe; the fastest is reported, for the reason the
/// rounds report a lower quartile: interference only ever adds time.
const REPEATS: usize = 5;

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What the `core` probe hands on to the other probes and the budget.
pub struct CoreProbe {
    /// One round's `push_words` calls, total ns.
    pub push_round_ns: f64,
    /// One `DetWave::query` at a seeded window, ns.
    pub query_ns: f64,
    /// One `DetWave::encode` / `decode`, ns.
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Every key's encoded synopsis after the replay.
    pub encoded: Vec<(u64, Vec<u8>)>,
}

/// The synopses a workload keeps: how many, and their parameters.
#[derive(Debug, Clone, Copy)]
pub struct Waves {
    pub keys: u64,
    pub max_window: u64,
    pub eps: f64,
    pub preload_rounds: usize,
}

/// `core`: the round's events into bare `DetWave`s (a `Vec` indexed by
/// key — no hashing, no queue), then the round's reads, then one
/// encode/decode per key. The waves are preloaded like the real system's
/// so expiry is active.
pub fn core(
    tr: &mut Tracer,
    out: &mut Ledger,
    events: &[Event],
    reads: &[(u64, u64)],
    shape: Waves,
) -> CoreProbe {
    let Waves {
        keys,
        max_window,
        eps,
        preload_rounds,
    } = shape;
    let mut waves: Vec<DetWave> = (0..keys)
        .map(|_| DetWave::new(max_window, eps).expect("spec'd synopsis parameters are valid"))
        .collect();
    for _ in 0..preload_rounds {
        for (key, bits) in events {
            waves[*key as usize].push_words(bits.as_ref());
        }
    }
    let items: u64 = events.iter().map(|(_, bits)| bits.len()).sum();
    let probe = tr.open("probe.core", 0, now_ns());
    let (mut push, mut query, mut encode, mut decode) = (vec![], vec![], vec![], vec![]);
    let mut encoded = Vec::new();
    for _ in 0..REPEATS {
        let t0 = now_ns();
        for (key, bits) in events {
            waves[*key as usize].push_words(bits.as_ref());
        }
        let t1 = now_ns();
        for &(key, window) in reads {
            black_box(
                waves[key as usize]
                    .query(window)
                    .expect("window within max"),
            );
        }
        let t2 = now_ns();
        encoded = waves
            .iter()
            .enumerate()
            .map(|(key, w)| (key as u64, w.encode()))
            .collect();
        let t3 = now_ns();
        for (_, bytes) in &encoded {
            black_box(DetWave::decode(bytes).expect("own encoding decodes"));
        }
        let t4 = now_ns();
        tr.record("core.push_words", probe, 0, t0, t1);
        tr.record("core.query", probe, 0, t1, t2);
        tr.record("core.encode", probe, 0, t2, t3);
        tr.record("core.decode", probe, 0, t3, t4);
        push.push((t1 - t0) as f64);
        query.push((t2 - t1) as f64 / reads.len().max(1) as f64);
        encode.push((t3 - t2) as f64 / keys as f64);
        decode.push((t4 - t3) as f64 / keys as f64);
    }
    tr.close(probe, now_ns());
    let result = CoreProbe {
        push_round_ns: fastest(&push),
        query_ns: fastest(&query),
        encode_ns: fastest(&encode),
        decode_ns: fastest(&decode),
        encoded,
    };
    let encoded_bytes: usize = result.encoded.iter().map(|(_, b)| b.len()).sum();
    let entries: usize = waves.iter().map(|w| w.space_report().entries).sum();
    out.insert(
        "core.push_ns_per_kitem",
        result.push_round_ns / (items as f64 / 1e3),
    );
    out.insert("core.query_ns", result.query_ns);
    out.insert("core.encode_ns", result.encode_ns);
    out.insert("core.decode_ns", result.decode_ns);
    out.insert("core.encoded_bytes", encoded_bytes as f64 / keys as f64);
    out.insert("core.entries_per_key", entries as f64 / keys as f64);
    result
}

/// What the `store` probe measured for one round's requests.
pub struct StoreProbe {
    /// Appends + policy fsyncs + the round's checkpoint, total ns.
    pub round_ns: f64,
}

/// One pass of the store probe; every field in ns unless named otherwise.
struct StorePass {
    record_encode: f64,
    crc_per_kib: f64,
    append: f64,
    fsync: f64,
    checkpoint: f64,
    checkpoint_bytes: f64,
    recover: f64,
    round: f64,
}

/// `store`: the round's requests into a bare `ShardStore` under `dir`.
/// The store is opened `OnCheckpoint` and synced by hand at the
/// workload's cadence, so the append and the fsync each get a number of
/// their own. The disk is the noisiest thing the benchmark touches, so
/// the whole pass runs [`REPEATS`] times on fresh directories and every
/// figure is the fastest pass's.
pub fn store(
    tr: &mut Tracer,
    out: &mut Ledger,
    dir: &Path,
    requests: &[Vec<(u64, Bits)>],
    durable: DurableSpec,
    synopses: &[(u64, Vec<u8>)],
) -> std::io::Result<StoreProbe> {
    let probe = tr.open("probe.store", 0, now_ns());
    let mut passes = Vec::with_capacity(REPEATS);
    for i in 0..REPEATS {
        let pass_dir = dir.join(i.to_string());
        passes.push(store_pass(
            tr, probe, &pass_dir, requests, durable, synopses,
        )?);
    }
    tr.close(probe, now_ns());
    let best = |pick: fn(&StorePass) -> f64| fastest(&passes.iter().map(pick).collect::<Vec<_>>());
    out.insert("store.record_encode_ns", best(|p| p.record_encode));
    out.insert("store.append_ns", best(|p| p.append));
    out.insert("store.crc_ns_per_kib", best(|p| p.crc_per_kib));
    out.insert("store.fsync_ns", best(|p| p.fsync));
    out.insert("store.checkpoint_ns", best(|p| p.checkpoint));
    out.insert("store.checkpoint_bytes", best(|p| p.checkpoint_bytes));
    out.insert("store.recover_ns", best(|p| p.recover));
    Ok(StoreProbe {
        round_ns: best(|p| p.round),
    })
}

fn store_pass(
    tr: &mut Tracer,
    probe: u64,
    dir: &Path,
    requests: &[Vec<(u64, Bits)>],
    durable: DurableSpec,
    synopses: &[(u64, Vec<u8>)],
) -> std::io::Result<StorePass> {
    let rec = NoopRecorder;
    let mut store =
        ShardStore::recover(dir, SyncPolicy::OnCheckpoint, durable.segment_bytes, &rec)?.store;

    // Record encoding on its own: payload, then length + CRC framing.
    let t0 = now_ns();
    for batch in requests {
        black_box(wal::frame_record(&wal::encode_batch_payload(batch)));
    }
    let t1 = now_ns();
    tr.record("store.record_encode", probe, 0, t0, t1);
    let record_encode = (t1 - t0) as f64 / requests.len() as f64;

    // CRC-32 over a buffer the size of a typical segment write.
    let payload: Vec<u8> = requests
        .iter()
        .flat_map(|b| wal::encode_batch_payload(b))
        .take(64 << 10)
        .collect();
    const CRC_PASSES: usize = 64;
    let t0 = now_ns();
    for _ in 0..CRC_PASSES {
        black_box(crc::crc32(black_box(&payload)));
    }
    let crc_per_kib = (now_ns() - t0) as f64 / (CRC_PASSES * payload.len()) as f64 * 1024.0;

    let (mut append_ns, mut fsync_ns) = (Vec::new(), Vec::new());
    let t_round = now_ns();
    for (i, batch) in requests.iter().enumerate() {
        let t0 = now_ns();
        store.append_batch(batch, &rec)?;
        let t1 = now_ns();
        append_ns.push(t1 - t0);
        if (i + 1) % durable.sync_every as usize == 0 {
            store.sync(&rec)?;
            let t2 = now_ns();
            fsync_ns.push(t2 - t1);
            tr.record("store.sync", probe, i as u64, t1, t2);
        }
    }
    let t_appended = now_ns();
    tr.record("store.append_batch", probe, 0, t_round, t_appended);

    let checkpoint_bytes = checkpoint::encode_checkpoint(&checkpoint::Checkpoint {
        wal_seq: store.wal_seq(),
        entries: synopses.to_vec(),
    })
    .len();
    let entries = synopses.to_vec();
    let t0 = now_ns();
    store.checkpoint(entries, &rec)?;
    let t1 = now_ns();
    tr.record("store.checkpoint", probe, 0, t0, t1);
    let checkpoint = (t1 - t0) as f64;

    // Half a round of WAL tail past the checkpoint, synced, then reopen:
    // the same shape `recovery_s` reopens end to end.
    for batch in &requests[..requests.len() / 2] {
        store.append_batch(batch, &rec)?;
    }
    store.sync(&rec)?;
    drop(store);
    let t0 = now_ns();
    let recovered =
        ShardStore::recover(dir, SyncPolicy::OnCheckpoint, durable.segment_bytes, &rec)?;
    let t1 = now_ns();
    tr.record("store.recover", probe, 0, t0, t1);
    assert_eq!(recovered.entries.len(), synopses.len());
    assert_eq!(recovered.batches.len(), requests.len() / 2);

    Ok(StorePass {
        record_encode,
        crc_per_kib,
        append: stats::median_u64(&append_ns),
        fsync: stats::median_u64(&fsync_ns),
        checkpoint,
        checkpoint_bytes: checkpoint_bytes as f64,
        recover: (t1 - t0) as f64,
        round: (t_appended - t_round) as f64 + checkpoint,
    })
}

/// What the codec probe measured for one round's frames.
pub struct CodecProbe {
    /// Encoding and decoding every frame of the round once, total ns.
    pub round_ns: f64,
}

/// `net` frame codec: `encode_tagged` then `decode_tagged` over the
/// workload's own frames — each request and each reply is encoded once
/// and decoded once per round trip, CRC included.
pub fn codec(tr: &mut Tracer, out: &mut Ledger, frames: &[Frame]) -> CodecProbe {
    let probe = tr.open("probe.codec", 0, now_ns());
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..REPEATS {
        let t0 = now_ns();
        let wire: Vec<Vec<u8>> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                WireCodec::encode_tagged(
                    f,
                    FrameTag {
                        trace: 0,
                        corr: i as u64 + 1,
                    },
                )
            })
            .collect();
        let t1 = now_ns();
        for buf in &wire {
            black_box(WireCodec::decode_tagged(buf).expect("own encoding decodes"));
        }
        let t2 = now_ns();
        tr.record("net.frame_encode", probe, 0, t0, t1);
        tr.record("net.frame_decode", probe, 0, t1, t2);
        enc.push((t1 - t0) as f64);
        dec.push((t2 - t1) as f64);
        bytes = wire.iter().map(Vec::len).sum();
    }
    tr.close(probe, now_ns());
    let n = frames.len().max(1) as f64;
    out.insert("net.frame_encode_ns", fastest(&enc) / n);
    out.insert("net.frame_decode_ns", fastest(&dec) / n);
    out.insert("net.frame_bytes_avg", bytes as f64 / n);
    CodecProbe {
        round_ns: fastest(&enc) + fastest(&dec),
    }
}

/// Bytes `frame` occupies on the wire (header, payload, CRC trailer).
pub fn wire_len(frame: &Frame) -> u64 {
    WireCodec::encode(frame).len() as u64
}

/// A stand-in for any estimate reply: the frame has a fixed size.
pub fn estimate_reply() -> Frame {
    Frame::EstimateResp(waves_core::Estimate::midpoint(1, 2))
}

/// `Client::ping` round trips and fresh `Client::connect`s against a
/// running server, median µs each.
pub fn ping_and_connect(
    tr: &mut Tracer,
    out: &mut Ledger,
    client: &mut waves_net::Client,
) -> Result<(), waves_core::WaveError> {
    let probe = tr.open("probe.net", 0, now_ns());
    let mut rtt = Vec::new();
    for i in 0..200 {
        let t0 = now_ns();
        client.ping()?;
        let t1 = now_ns();
        tr.record("client.ping", probe, i, t0, t1);
        rtt.push(t1 - t0);
    }
    let mut connect = Vec::new();
    for i in 0..20 {
        let t0 = now_ns();
        let fresh = waves_net::Client::connect(client.peer_addr())?;
        let t1 = now_ns();
        drop(fresh);
        tr.record("client.connect", probe, i, t0, t1);
        connect.push(t1 - t0);
    }
    tr.close(probe, now_ns());
    out.insert("net.ping_rtt_us", stats::median_u64(&rtt) / 1e3);
    out.insert("net.connect_us", stats::median_u64(&connect) / 1e3);
    Ok(())
}

/// One round's busy time per layer, in ns, as the probes measured it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub core: f64,
    pub engine: f64,
    pub store: f64,
    pub net: f64,
    pub dist: f64,
    pub harness: f64,
}

/// Fill in the seven budget rows. They sum to 1 by construction: what no
/// probe accounts for is printed as `unattributed`, not folded into a
/// layer.
pub fn budget(out: &mut Ledger, round_ns: f64, busy: Busy) {
    let rows = [
        ("budget.core_share", busy.core),
        ("budget.engine_share", busy.engine),
        ("budget.store_share", busy.store),
        ("budget.net_share", busy.net),
        ("budget.dist_share", busy.dist),
        ("budget.harness_share", busy.harness),
    ];
    let attributed: f64 = rows.iter().map(|(_, ns)| ns).sum();
    out.extend(rows.map(|(name, ns)| (name, ns / round_ns)));
    out.insert("budget.unattributed_share", 1.0 - attributed / round_ns);
}
