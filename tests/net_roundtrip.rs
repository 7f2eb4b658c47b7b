//! The network must be a transparent pipe: a client talking to a
//! loopback server must get exactly the answers a local engine gives
//! for the same stream, and the networked referee must reproduce the
//! in-process distributed-combine results.

use std::collections::HashMap;
use waves::net::{Client, Server, ServerConfig, SynopsisKind};
use waves::streamgen::KeyedWorkload;
use waves::{Bits, DetWave, Engine, EngineConfig, IngestRequest, WaveError};

fn server_on_ephemeral(shards: usize, window: u64, eps: f64) -> Server {
    let cfg = ServerConfig {
        engine: EngineConfig::builder()
            .num_shards(shards)
            .max_window(window)
            .eps(eps)
            .build(),
        ..Default::default()
    };
    Server::start("127.0.0.1:0", cfg).unwrap()
}

/// Every query answered over the wire equals the local engine oracle,
/// for every key the workload touched.
#[test]
fn networked_engine_matches_local_oracle() {
    let (num_keys, window, eps) = (200u64, 256u64, 0.2f64);
    let server = server_on_ephemeral(4, window, eps);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let local = Engine::new(
        EngineConfig::builder()
            .num_shards(4)
            .max_window(window)
            .eps(eps)
            .build(),
    )
    .unwrap();

    let mut workload = KeyedWorkload::new(num_keys, 16, 0.4, 7).with_hot_set(0.5, 8);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..30 {
        let batch = workload.next_packed_batch(64);
        for (key, _) in &batch {
            seen.insert(*key);
        }
        client.ingest(IngestRequest::batch(batch.clone())).unwrap();
        local
            .ingest(IngestRequest::batch(batch).blocking(true))
            .unwrap();
    }
    client.flush().unwrap();
    local.flush();

    for &key in &seen {
        for w in [1u64, window / 3, window] {
            let over_wire = client.query(key, w).unwrap();
            let oracle = local.query(key, w).unwrap();
            assert_eq!(over_wire, oracle, "key {key} window {w}");
        }
    }

    // Error answers must also travel typed: too-large window, unknown
    // key.
    assert_eq!(
        client.query(*seen.iter().next().unwrap(), window + 1),
        Err(WaveError::WindowTooLarge {
            requested: window + 1,
            max: window,
        })
    );
    assert_eq!(
        client.query(num_keys + 999, window),
        Err(WaveError::UnknownKey {
            key: num_keys + 999
        })
    );

    // Snapshot over the wire matches the server's own totals: same keys
    // the local oracle holds, queue drained after flush.
    let snap = client.snapshot().unwrap();
    assert_eq!(snap.keys(), local.snapshot().keys());
    assert!(snap.shards.iter().all(|s| s.queue_depth == 0));
}

/// The networked referee (push synopsis encodes, ask for a combine)
/// reproduces the in-process Scenario 1 result: per-party waves
/// combined by summing estimates and truth intervals.
#[test]
fn networked_referee_matches_in_process_combine() {
    let (window, eps, parties) = (128u64, 0.25f64, 4usize);
    let server = server_on_ephemeral(1, window, eps);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Build per-party waves locally (the parties' workspaces), pushing
    // deterministic but distinct streams.
    let mut waves: Vec<DetWave> = (0..parties)
        .map(|_| DetWave::new(window, eps).unwrap())
        .collect();
    for (p, wave) in waves.iter_mut().enumerate() {
        for i in 0..400u64 {
            wave.push_bit((i + p as u64).is_multiple_of(p as u64 + 2));
        }
    }

    // In-process combine: the same rule the scenario drivers use.
    let expected = waves::combine_estimates(
        waves
            .iter()
            .map(|w| w.query(window).unwrap())
            .collect::<Vec<_>>(),
    );

    // Networked: each party ships its encode; the referee combines.
    for (p, wave) in waves.iter().enumerate() {
        client
            .push_synopsis(p as u64, SynopsisKind::DetWave, wave.encode())
            .unwrap();
    }
    let combined = client.combine(window).unwrap();
    assert_eq!(combined, expected);
    assert_eq!(server.referee_parties(), parties);

    // Re-pushing a party overwrites its slot rather than double
    // counting.
    client
        .push_synopsis(0, SynopsisKind::DetWave, waves[0].encode())
        .unwrap();
    assert_eq!(server.referee_parties(), parties);
    assert_eq!(client.combine(window).unwrap(), expected);

    // A combine window beyond the parties' max is a typed error, not a
    // wrong answer.
    assert_eq!(
        client.combine(window + 1),
        Err(WaveError::WindowTooLarge {
            requested: window + 1,
            max: window,
        })
    );
}

/// All four synopsis kinds can represent parties in one referee, and
/// the combined estimate is the sum of each synopsis's own answer.
#[test]
fn referee_mixes_synopsis_families() {
    let (window, eps) = (64u64, 0.25f64);
    let server = server_on_ephemeral(1, window, eps);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut det = DetWave::new(window, eps).unwrap();
    let mut sum = waves::SumWave::new(window, 16, eps).unwrap();
    let mut ehc = waves::EhCount::new(window, eps).unwrap();
    let mut ehs = waves::EhSum::new(window, 16, eps).unwrap();
    for i in 0..300u64 {
        det.push_bit(i % 2 == 0);
        sum.push_value(i % 5).unwrap();
        ehc.push_bit(i % 3 == 0);
        ehs.push_value(i % 7).unwrap();
    }

    client
        .push_synopsis(0, SynopsisKind::DetWave, det.encode())
        .unwrap();
    client
        .push_synopsis(1, SynopsisKind::SumWave, sum.encode())
        .unwrap();
    client
        .push_synopsis(2, SynopsisKind::EhCount, ehc.encode())
        .unwrap();
    client
        .push_synopsis(3, SynopsisKind::EhSum, ehs.encode())
        .unwrap();
    assert_eq!(server.referee_parties(), 4);

    let expected = waves::combine_estimates([
        det.query(window).unwrap(),
        sum.query(window).unwrap(),
        ehc.query(window).unwrap(),
        ehs.query(window).unwrap(),
    ]);
    assert_eq!(client.combine(window).unwrap(), expected);

    // Undecodable synopsis bytes (an empty encode can't even carry the
    // parameters) are rejected with a typed error and do not disturb
    // the registered parties.
    let err = client
        .push_synopsis(9, SynopsisKind::DetWave, Vec::new())
        .unwrap_err();
    assert!(matches!(err, WaveError::Io(_)), "{err:?}");
    assert_eq!(server.referee_parties(), 4);
}

/// Several clients on one server: concurrent ingest to disjoint keys,
/// then each client's view agrees with a merged local oracle.
#[test]
fn concurrent_clients_share_one_engine() {
    let (window, eps) = (128u64, 0.25f64);
    let server = server_on_ephemeral(2, window, eps);
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Each client owns keys c*100..c*100+10.
                for k in 0..10u64 {
                    let key = c * 100 + k;
                    let bits: Bits = (0..50).map(|i| (i + key) % 3 == 0).collect();
                    client.ingest(IngestRequest::of(key, bits)).unwrap();
                }
                client.flush().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // One more client verifies every key against a local wave.
    let mut client = Client::connect(addr).unwrap();
    let mut oracles: HashMap<u64, DetWave> = HashMap::new();
    for c in 0..4u64 {
        for k in 0..10u64 {
            let key = c * 100 + k;
            let wave = oracles
                .entry(key)
                .or_insert_with(|| DetWave::new(window, eps).unwrap());
            for i in 0..50u64 {
                wave.push_bit((i + key) % 3 == 0);
            }
            assert_eq!(
                client.query(key, window).unwrap(),
                wave.query(window).unwrap(),
                "key {key}"
            );
        }
    }
}

/// FETCH answers behind every INGEST sent ahead of it on its
/// connection, with no FLUSH between them: the bytes it returns are the
/// key's wave including the batch just sent, and they install on a
/// second server as the same answers.
#[test]
fn fetch_returns_the_bytes_the_ingests_ahead_of_it_built() {
    let (window, eps) = (128u64, 0.2f64);
    let primary = server_on_ephemeral(2, window, eps);
    let follower = server_on_ephemeral(3, window, eps);
    let mut client = Client::connect(primary.local_addr()).unwrap();
    let mut to_follower = Client::connect(follower.local_addr()).unwrap();
    let mut local = DetWave::new(window, eps).unwrap();
    for round in 0..20u64 {
        let bits: Vec<bool> = (0..37).map(|i| (i * 7 + round) % 3 != 0).collect();
        bits.iter().for_each(|&b| local.push_bit(b));
        client.ingest(IngestRequest::of(5, bits)).unwrap();
        let (kind, bytes) = client.fetch(5).unwrap();
        assert_eq!(kind, SynopsisKind::DetWave);
        assert_eq!(
            bytes,
            local.encode(),
            "round {round}: fetch missed the batch"
        );
        to_follower.replicate(5, kind, bytes).unwrap();
    }
    for w in [1, window / 2, window] {
        assert_eq!(to_follower.query(5, w), Ok(local.query(w).unwrap()));
    }
    assert_eq!(client.fetch(6), Err(WaveError::UnknownKey { key: 6 }));
}
