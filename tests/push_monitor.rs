//! Integration: continuous-monitoring push mode over a real TCP
//! server, differentially against an in-process pull referee on the
//! identical seeded stream.
//!
//! The push referee (the server's synopsis map, fed by `PUSH_DELTA`
//! frames only on drift-threshold crossings) must agree with the pull
//! reference (a fresh combine over every party's live wave) within the
//! ε-slack pool at *every* step — not just at the end — and the push
//! design must ship fewer bytes than pull fan-out would on a bursty
//! workload. A second server, fed every party's full synopsis before
//! each read (pull mode over the wire), must match that reference
//! exactly.

use std::sync::Arc;
use waves::net::{Client, Frame, Server, ServerConfig, SynopsisKind, WireCodec};
use waves::obs::{MetricId, MetricsRegistry};
use waves::streamgen::KeyedWorkload;
use waves::{combine_estimates, Bits, DetWave, EngineConfig, ExactCount, MonitorConfig, PushParty};

const WINDOW: u64 = 128;
const EPS: f64 = 0.2;
const SPLIT: f64 = 0.5;
const PARTIES: u64 = 3;
const EVENTS: usize = 1_200;

fn start_referee(registry: &Arc<MetricsRegistry>) -> Server {
    Server::start_recorded(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig::builder()
                .num_shards(1)
                .max_window(WINDOW)
                .eps(EPS)
                .build(),
            ..Default::default()
        },
        registry.clone(),
    )
    .expect("server start")
}

/// Bursty keyed stream, one workload key per party.
fn events() -> Vec<(u64, Vec<bool>)> {
    let mut w = KeyedWorkload::new(PARTIES, 4, 0.5, 41)
        .with_burst_range(1, 16)
        .with_hot_set(0.7, 1);
    w.next_batch(EVENTS)
}

#[test]
fn push_over_tcp_tracks_the_pull_referee_within_slack() {
    let mcfg = MonitorConfig {
        max_window: WINDOW,
        eps: EPS,
        eps_split: SPLIT,
        parties: PARTIES,
    };
    let registry = Arc::new(MetricsRegistry::new());
    let server = start_referee(&registry);
    let mut client = Client::connect(server.local_addr()).expect("client connect");
    // The pull referee over the wire: it learns state only from full
    // PUSH_SYNOPSIS frames sent right before each read.
    let pull_server = start_referee(&Arc::new(MetricsRegistry::new()));
    let mut pull_client = Client::connect(pull_server.local_addr()).expect("client connect");
    let mut parties: Vec<PushParty> = (0..PARTIES)
        .map(|p| PushParty::new(&mcfg, p).expect("validated config"))
        .collect();
    let mut exact: Vec<ExactCount> = (0..PARTIES).map(|_| ExactCount::new(WINDOW)).collect();
    let slack = mcfg.slack_total();
    // What per-step pull fan-out would have cost on the same stream:
    // every party's full synopsis as a PUSH_SYNOPSIS frame, each step.
    let mut pull_fanout_bytes = 0u64;
    for (party, bits) in events() {
        let idx = party as usize;
        for &b in &bits {
            exact[idx].push_bit(b);
        }
        if let Some(delta) = parties[idx].push_words(Bits::from_bools(&bits).as_ref()) {
            client
                .push_delta(
                    delta.party,
                    delta.seq,
                    delta.slack,
                    SynopsisKind::DetWave,
                    delta.bytes,
                )
                .expect("push delta");
        }
        for p in &parties {
            let frame = Frame::PushSynopsis {
                party: p.party(),
                kind: SynopsisKind::DetWave,
                bytes: p.local().encode(),
            };
            pull_fanout_bytes += WireCodec::encode(&frame).len() as u64;
        }
        // Every step: the networked push answer vs the in-process pull
        // reference and the exact truth.
        let push = client.combine(WINDOW).expect("combine");
        let pull = combine_estimates(parties.iter().map(|p| p.local().query_max()));
        assert!(
            (push.value - pull.value).abs() <= slack + 1e-6,
            "push {} and pull {} disagree beyond slack {slack}",
            push.value,
            pull.value
        );
        let truth: u64 = exact.iter().map(|e| e.query(WINDOW)).sum();
        let contract = mcfg.eps_synopsis() * truth as f64 + slack;
        assert!(
            (push.value - truth as f64).abs() <= contract + 1e-6,
            "push {} off truth {truth} beyond contract {contract}",
            push.value
        );
        // Pull leg: every party re-pushes its full synopsis, so the
        // wire referee answers exactly the in-process combine, within
        // the synopses' ε alone.
        for p in &parties {
            pull_client
                .push_synopsis(p.party(), SynopsisKind::DetWave, p.local().encode())
                .expect("pull push");
        }
        let pulled = pull_client.combine(WINDOW).expect("combine");
        assert_eq!(pulled, pull, "pull referee disagrees with the live waves");
        let contract = mcfg.eps_synopsis() * truth as f64;
        assert!(
            (pulled.value - truth as f64).abs() <= contract + 1e-6,
            "pull {} off truth {truth} beyond contract {contract}",
            pulled.value
        );
    }
    // The server counted the actual delta traffic; it must undercut
    // what pull fan-out would have shipped on this bursty stream.
    let pushes = registry.counter(MetricId::MonitorPushes);
    let push_bytes = registry.counter(MetricId::MonitorPushBytes);
    assert!(pushes > 0, "drift never crossed the threshold");
    assert!(
        push_bytes < pull_fanout_bytes,
        "push shipped {push_bytes} payload bytes, pull fan-out would be {pull_fanout_bytes}"
    );
    server.shutdown();
    pull_server.shutdown();
}

/// A forced flush from every party resynchronizes the networked
/// referee byte-for-byte with the local state: after it, the combine
/// answer is exactly the pull answer (no slack needed).
#[test]
fn forced_flush_restores_exact_agreement_over_tcp() {
    let mcfg = MonitorConfig {
        max_window: WINDOW,
        eps: EPS,
        eps_split: SPLIT,
        parties: PARTIES,
    };
    let registry = Arc::new(MetricsRegistry::new());
    let server = start_referee(&registry);
    let mut client = Client::connect(server.local_addr()).expect("client connect");
    let mut parties: Vec<PushParty> = (0..PARTIES)
        .map(|p| PushParty::new(&mcfg, p).expect("validated config"))
        .collect();
    for (party, bits) in events().into_iter().take(300) {
        if let Some(delta) = parties[party as usize].push_words(Bits::from_bools(&bits).as_ref()) {
            client
                .push_delta(
                    delta.party,
                    delta.seq,
                    delta.slack,
                    SynopsisKind::DetWave,
                    delta.bytes,
                )
                .expect("push delta");
        }
    }
    for p in parties.iter_mut() {
        let delta = p.force_flush();
        client
            .push_delta(
                delta.party,
                delta.seq,
                delta.slack,
                SynopsisKind::DetWave,
                delta.bytes,
            )
            .expect("forced flush delta");
        assert_eq!(p.unshipped_drift(), 0.0, "flush left drift behind");
    }
    let push = client.combine(WINDOW).expect("combine");
    let pull = combine_estimates(parties.iter().map(|p| p.local().query_max()));
    assert_eq!(push, pull, "flushed referee still disagrees with pull");
    server.shutdown();
}

/// The referee keeps one slot per party: the same `PUSH_DELTA{party,
/// seq}` raced over many connections installs exactly once, and a
/// pull-mode `PUSH_SYNOPSIS` for that party replaces the synopsis
/// without lowering the delta high-water mark — so a replayed older
/// delta still cannot overwrite it.
#[test]
fn concurrent_duplicate_deltas_install_once_and_pull_pushes_keep_the_seq() {
    const CONNS: usize = 8;
    let wave_with = |ones: u64| {
        let mut w = DetWave::new(WINDOW, EPS).unwrap();
        (0..ones).for_each(|_| w.push_bit(true));
        w
    };
    let registry = Arc::new(MetricsRegistry::new());
    let server = start_referee(&registry);
    let addr = server.local_addr();
    let delta_bytes = wave_with(5).encode();
    let barrier = std::sync::Barrier::new(CONNS);
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("client connect");
                barrier.wait();
                client
                    .push_delta(7, 5, 0.0, SynopsisKind::DetWave, delta_bytes.clone())
                    .expect("duplicate delta is answered Ok");
            });
        }
    });
    assert_eq!(registry.counter(MetricId::MonitorPushes), 1);
    assert_eq!(
        registry.counter(MetricId::MonitorStaleDeltas),
        CONNS as u64 - 1
    );
    assert_eq!(server.monitor_seq_of(7), Some(5));
    assert_eq!(server.referee_parties(), 1);

    let mut client = Client::connect(addr).expect("client connect");
    assert_eq!(client.combine(WINDOW).unwrap(), wave_with(5).query_max());
    let pull = wave_with(9).encode();
    client
        .push_synopsis(7, SynopsisKind::DetWave, pull)
        .expect("pull push");
    assert_eq!(server.monitor_seq_of(7), Some(5), "pull push reset the seq");
    let pulled = client.combine(WINDOW).unwrap();
    assert_eq!(pulled, wave_with(9).query_max());
    for stale_seq in [4, 5] {
        client
            .push_delta(
                7,
                stale_seq,
                0.0,
                SynopsisKind::DetWave,
                delta_bytes.clone(),
            )
            .expect("stale delta is answered Ok");
        assert_eq!(client.combine(WINDOW).unwrap(), pulled, "seq {stale_seq}");
    }
    assert_eq!(server.monitor_seq_of(7), Some(5));
    assert_eq!(registry.counter(MetricId::MonitorPushes), 1);
    // A genuinely newer delta still advances the party.
    client
        .push_delta(7, 6, 0.0, SynopsisKind::DetWave, delta_bytes)
        .expect("newer delta");
    assert_eq!(server.monitor_seq_of(7), Some(6));
    assert_eq!(client.combine(WINDOW).unwrap(), wave_with(5).query_max());
    server.shutdown();
}
