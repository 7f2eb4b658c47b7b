//! End-to-end cluster failover: kill a primary mid-stream and prove no
//! acknowledged data is lost and no answer degrades beyond the synopsis
//! guarantee.
//!
//! The harness runs N loopback `waves-net` servers behind a
//! [`ClusterClient`] with replication ≥ 2, streams a deterministic
//! keyed workload while maintaining an [`ExactCount`] ground truth per
//! key, kills one node mid-stream, keeps streaming, and then checks
//! every key three ways:
//!
//! 1. the cluster's answer equals the client's shadow synopsis **bit
//!    for bit** (the shadow saw every bit exactly once, in order);
//! 2. the answer brackets the exact oracle's truth;
//! 3. the answer is within ε relative error of the truth — i.e. inside
//!    the 2ε agreement bracket any two conforming synopses share.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};

use waves::cluster::{ClusterClient, ClusterConfig};
use waves::net::{
    Client, ClientConfig, Frame, FrameError, RetryPolicy, Server, ServerConfig, WireCodec,
};
use waves::obs::{MetricId, MetricsRegistry, NoopRecorder};
use waves::{EngineConfig, ExactCount, WaveError};

const MAX_WINDOW: u64 = 256;
const EPS: f64 = 0.2;
const KEYS: u64 = 12;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

fn start_servers(n: usize) -> Vec<Server> {
    let ecfg = EngineConfig::builder()
        .num_shards(2)
        .max_window(MAX_WINDOW)
        .eps(EPS)
        .build();
    (0..n)
        .map(|_| {
            Server::start(
                "127.0.0.1:0",
                ServerConfig {
                    engine: ecfg.clone(),
                    ..Default::default()
                },
            )
            .expect("server start")
        })
        .collect()
}

/// Stream `items` workload items through the client, one bit per item,
/// mirroring every bit into the exact oracles.
fn stream(client: &mut ClusterClient, oracles: &mut [ExactCount], rng: &mut u64, items: usize) {
    for _ in 0..items {
        let key = lcg(rng) % KEYS;
        let bit = !lcg(rng).is_multiple_of(3);
        client
            .ingest(key, &[bit][..])
            .expect("ingest with a live replica");
        oracles[key as usize].push_bit(bit);
    }
    client.flush().expect("flush");
    client.replicate_all();
}

/// Every key, several windows: cluster answer == shadow, brackets
/// truth, within ε of truth.
fn check_all(client: &mut ClusterClient, oracles: &[ExactCount], ctx: &str) {
    for key in 0..KEYS {
        for window in [MAX_WINDOW, MAX_WINDOW / 2, MAX_WINDOW / 7, 1] {
            let got = client
                .query(key, window)
                .unwrap_or_else(|e| panic!("{ctx}: query key={key} w={window}: {e}"));
            let shadow = client
                .shadow_query(key, window)
                .unwrap_or_else(|e| panic!("{ctx}: shadow key={key} w={window}: {e}"));
            assert_eq!(
                got, shadow,
                "{ctx}: key={key} w={window}: cluster answer diverged from shadow"
            );
            let truth = oracles[key as usize].query(window);
            assert!(
                got.brackets(truth),
                "{ctx}: key={key} w={window}: truth {truth} outside [{}, {}]",
                got.lo,
                got.hi
            );
            assert!(
                got.relative_error(truth) <= EPS + 1e-9,
                "{ctx}: key={key} w={window}: error {} beyond eps {EPS} (truth {truth})",
                got.relative_error(truth)
            );
        }
    }
}

#[test]
fn kill_primary_mid_stream_keeps_every_answer_in_bracket() {
    let mut servers = start_servers(3);
    let addrs = servers.iter().map(|s| s.local_addr()).collect();
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let mut client = ClusterClient::new(
        addrs,
        ClusterConfig {
            replication: 2,
            ring_seed: 42,
            max_window: MAX_WINDOW,
            eps: EPS,
            // No same-node retries: a dead primary should cost one
            // refused dial per touch, not a backoff ladder — failover
            // is the recovery mechanism under test.
            client: ClientConfig {
                retry: RetryPolicy::none(),
                ..Default::default()
            },
            ..Default::default()
        },
        registry.clone(),
    )
    .expect("cluster client");
    let mut oracles: Vec<ExactCount> = (0..KEYS).map(|_| ExactCount::new(MAX_WINDOW)).collect();
    let mut rng = 0x5EED_CAFE;

    // First half of the stream with all nodes healthy.
    stream(&mut client, &mut oracles, &mut rng, 900);
    check_all(&mut client, &oracles, "pre-kill");

    // Kill one node mid-stream. It is the primary for roughly a third
    // of the keys; their ingests repair onto the surviving replica and
    // their queries fail over.
    let victim = client
        .replicas_of(0)
        .first()
        .copied()
        .expect("key 0 has a primary");
    servers.remove(victim).shutdown();

    // Second half of the stream against the degraded cluster.
    stream(&mut client, &mut oracles, &mut rng, 900);
    check_all(&mut client, &oracles, "post-kill");

    // The kill was actually exercised: key 0's reads and writes had to
    // walk past its dead primary.
    assert!(
        registry.counter(MetricId::ClusterFailovers) > 0,
        "killing a primary must trigger failovers"
    );
    assert!(
        registry.counter(MetricId::ClusterReplicationsShipped) > 0,
        "replication rounds must have shipped installs"
    );

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn replication_keeps_followers_current_between_rounds() {
    let mut servers = start_servers(2);
    let addrs = servers.iter().map(|s| s.local_addr()).collect();
    let mut client = ClusterClient::new(
        addrs,
        ClusterConfig {
            replication: 2,
            ring_seed: 7,
            max_window: MAX_WINDOW,
            eps: EPS,
            ..Default::default()
        },
        std::sync::Arc::new(NoopRecorder),
    )
    .expect("cluster client");

    // With 2 nodes and R=2 every key lives on both; after a replication
    // round, killing *either* node must leave every answer identical to
    // the shadow.
    let mut rng = 0xD15C;
    for _ in 0..500 {
        let key = lcg(&mut rng) % 4;
        let bit = lcg(&mut rng) % 2 == 1;
        client.ingest(key, &[bit][..]).expect("ingest");
    }
    client.flush().expect("flush");
    let shipped = client.replicate_all();
    assert!(shipped > 0, "two-node R=2 cluster must ship installs");

    servers.remove(0).shutdown();
    for key in 0..4 {
        let got = client.query(key, MAX_WINDOW).expect("failover query");
        let want = client.shadow_query(key, MAX_WINDOW).expect("shadow");
        assert_eq!(got, want, "key={key}: survivor diverged from shadow");
    }
    for s in servers {
        s.shutdown();
    }
}

/// A node that refuses every INGEST with BACKPRESSURE and answers
/// anything else `OK`: a healthy server whose shard queue is full.
fn refusing_node() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().map_while(Result::ok) {
            std::thread::spawn(move || {
                let (mut buf, mut chunk, mut out) = (Vec::new(), [0u8; 4096], Vec::new());
                loop {
                    match WireCodec::decode_tagged(&buf) {
                        Ok((frame, used, tag)) => {
                            buf.drain(..used);
                            let reply = match frame {
                                Frame::Ingest(_) => {
                                    Frame::ErrorResp(WaveError::Backpressure { shard: 0 })
                                }
                                _ => Frame::Ok,
                            };
                            out.clear();
                            WireCodec::encode_tagged_into(&reply, tag, &mut out);
                            if stream.write_all(&out).is_err() {
                                return;
                            }
                        }
                        Err(FrameError::Truncated) => match stream.read(&mut chunk) {
                            Ok(n @ 1..) => buf.extend_from_slice(&chunk[..n]),
                            _ => return,
                        },
                        Err(_) => return,
                    }
                }
            });
        }
    });
    addr
}

/// A batch the primary refuses never reaches a follower: the shadow
/// takes a batch only once the primary acks it (or the repair path
/// ships it), so the next replication round has nothing of it to
/// install, and a caller that retries counts it once.
#[test]
fn a_refused_ingest_reaches_no_follower() {
    let follower = start_servers(1).remove(0);
    let mut client = ClusterClient::new(
        vec![refusing_node(), follower.local_addr()],
        ClusterConfig {
            replication: 2,
            max_window: MAX_WINDOW,
            eps: EPS,
            ..Default::default()
        },
        std::sync::Arc::new(NoopRecorder),
    )
    .expect("cluster client");
    let key = (0..)
        .find(|&k| client.replicas_of(k)[0] == 0)
        .expect("some key has the refusing node as primary");

    let err = client.ingest(key, &[true, true, true][..]).unwrap_err();
    assert!(matches!(err, WaveError::Backpressure { .. }), "{err:?}");
    client.replicate_all();

    let mut direct = Client::connect(follower.local_addr()).unwrap();
    match direct.query(key, MAX_WINDOW) {
        Err(WaveError::UnknownKey { .. }) => {}
        Ok(est) => assert_eq!(est.value, 0.0, "the follower holds refused bits"),
        Err(e) => panic!("follower query: {e}"),
    }
    follower.shutdown();
}
