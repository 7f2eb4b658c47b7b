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
//! 1. the cluster's answer equals a test-side [`DetWave`] fed the
//!    acknowledged bits **bit for bit** (the replica that answers holds
//!    the primary's bytes, and the primary saw every bit exactly once,
//!    in order);
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
use waves::{DetWave, EngineConfig, ExactCount, WaveError};

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
    start_servers_at(n, EPS)
}

fn start_servers_at(n: usize, eps: f64) -> Vec<Server> {
    let ecfg = EngineConfig::builder()
        .num_shards(2)
        .max_window(MAX_WINDOW)
        .eps(eps)
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

/// Per key, the acknowledged bits twice over: the exact ground truth
/// and the wave the cluster's answer must equal bit for bit.
struct Oracle {
    exact: ExactCount,
    wave: DetWave,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            exact: ExactCount::new(MAX_WINDOW),
            wave: DetWave::new(MAX_WINDOW, EPS).unwrap(),
        }
    }

    fn push(&mut self, bit: bool) {
        self.exact.push_bit(bit);
        self.wave.push_bit(bit);
    }
}

fn oracles() -> Vec<Oracle> {
    (0..KEYS).map(|_| Oracle::new()).collect()
}

/// Stream `items` workload items through the client, one bit per item,
/// mirroring every acknowledged bit into the oracles.
fn stream(client: &mut ClusterClient, oracles: &mut [Oracle], rng: &mut u64, items: usize) {
    for _ in 0..items {
        let key = lcg(rng) % KEYS;
        let bit = !lcg(rng).is_multiple_of(3);
        client
            .ingest(key, &[bit][..])
            .expect("ingest with a live replica");
        oracles[key as usize].push(bit);
    }
    client.replicate_all();
}

/// Every key, several windows: cluster answer == the oracle wave,
/// brackets truth, within ε of truth.
fn check_all(client: &mut ClusterClient, oracles: &[Oracle], ctx: &str) {
    for key in 0..KEYS {
        for window in [MAX_WINDOW, MAX_WINDOW / 2, MAX_WINDOW / 7, 1] {
            let got = client
                .query(key, window)
                .unwrap_or_else(|e| panic!("{ctx}: query key={key} w={window}: {e}"));
            let oracle = &oracles[key as usize];
            assert_eq!(
                Ok(got),
                oracle.wave.query(window),
                "{ctx}: key={key} w={window}: cluster answer diverged from the acknowledged bits"
            );
            let truth = oracle.exact.query(window);
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
    let mut oracles = oracles();
    let mut rng = 0x5EED_CAFE;

    // First half of the stream with all nodes healthy.
    stream(&mut client, &mut oracles, &mut rng, 900);
    check_all(&mut client, &oracles, "pre-kill");

    // Kill one node mid-stream. It is the primary for roughly a third
    // of the keys; their ingests and queries fail over to the surviving
    // replica, which the last round brought up to date.
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
            ..Default::default()
        },
        std::sync::Arc::new(NoopRecorder),
    )
    .expect("cluster client");

    // With 2 nodes and R=2 every key lives on both; after a replication
    // round, killing *either* node must leave every answer identical to
    // the acknowledged bits.
    let mut oracles = oracles();
    let mut rng = 0xD15C;
    for _ in 0..500 {
        let key = lcg(&mut rng) % 4;
        let bit = lcg(&mut rng) % 2 == 1;
        client.ingest(key, &[bit][..]).expect("ingest");
        oracles[key as usize].push(bit);
    }
    let shipped = client.replicate_all();
    assert!(shipped > 0, "two-node R=2 cluster must ship installs");

    servers.remove(0).shutdown();
    for key in 0..4 {
        let got = client.query(key, MAX_WINDOW).expect("failover query");
        let want = oracles[key as usize].wave.query(MAX_WINDOW).unwrap();
        assert_eq!(
            got, want,
            "key={key}: survivor diverged from the acknowledged bits"
        );
    }
    for s in servers {
        s.shutdown();
    }
}

/// A stand-in primary that answers anything but INGEST `OK`. An INGEST
/// it answers with `refusal`; with `None` it reads the INGEST and then
/// closes the connection, so the sender cannot know whether it landed.
fn fake_primary(refusal: Option<WaveError>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().map_while(Result::ok) {
            let refusal = refusal.clone();
            std::thread::spawn(move || {
                let (mut buf, mut chunk, mut out) = (Vec::new(), [0u8; 4096], Vec::new());
                loop {
                    match WireCodec::decode_tagged(&buf) {
                        Ok((frame, used, tag)) => {
                            buf.drain(..used);
                            let reply = match (frame, &refusal) {
                                (Frame::Ingest(_), Some(e)) => Frame::ErrorResp(e.clone()),
                                (Frame::Ingest(_), None) => return,
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

/// A cluster client over `primary` and `follower` at R=2, and a key
/// whose primary is `primary`.
fn two_node_client(primary: SocketAddr, follower: &Server) -> (ClusterClient, u64) {
    let client = ClusterClient::new(
        vec![primary, follower.local_addr()],
        ClusterConfig {
            replication: 2,
            ..Default::default()
        },
        std::sync::Arc::new(NoopRecorder),
    )
    .expect("cluster client");
    let key = (0..)
        .find(|&k| client.replicas_of(k)[0] == 0)
        .expect("some key has node 0 as primary");
    (client, key)
}

/// The follower never took `key`'s bits: it does not know the key, or
/// counts nothing in it.
fn assert_follower_lacks(follower: &Server, key: u64) {
    let mut direct = Client::connect(follower.local_addr()).unwrap();
    match direct.query(key, MAX_WINDOW) {
        Err(WaveError::UnknownKey { .. }) => {}
        Ok(est) => assert_eq!(est.value, 0.0, "the follower holds unacknowledged bits"),
        Err(e) => panic!("follower query: {e}"),
    }
}

/// A batch the primary refuses never reaches a follower: a follower
/// only installs bytes a replica holds, and the refused batch is in
/// none, so a caller that retries counts it once.
#[test]
fn a_refused_ingest_reaches_no_follower() {
    let follower = start_servers(1).remove(0);
    let (mut client, key) = two_node_client(
        fake_primary(Some(WaveError::Backpressure { shard: 0 })),
        &follower,
    );

    let err = client.ingest(key, &[true, true, true][..]).unwrap_err();
    assert!(matches!(err, WaveError::Backpressure { .. }), "{err:?}");
    client.replicate_all();

    assert_follower_lacks(&follower, key);
    follower.shutdown();
}

/// A primary that reads an INGEST and then drops the connection leaves
/// its outcome unknown. The client returns the transport error instead
/// of re-sending the batch or shipping it anywhere, so the follower
/// never holds those bits.
#[test]
fn an_ingest_lost_in_flight_is_an_error_not_a_repair() {
    let follower = start_servers(1).remove(0);
    let (mut client, key) = two_node_client(fake_primary(None), &follower);

    let err = client.ingest(key, &[true, true, true][..]).unwrap_err();
    assert!(matches!(err, WaveError::Io(_)), "{err:?}");
    client.replicate_all();

    assert_follower_lacks(&follower, key);
    follower.shutdown();
}

/// Two writers of one key at R=2: each ingests 100 ones and runs a
/// replication round. The follower installs what the primary holds, so
/// after the primary is shut down it answers for all 200 ones, not for
/// the half the last replicator wrote.
#[test]
fn two_writers_replicate_without_losing_each_others_bits() {
    const KEY: u64 = 7;
    let mut servers = start_servers_at(2, 0.1);
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let mut writers: Vec<ClusterClient> = (0..2)
        .map(|_| {
            let cfg = ClusterConfig {
                replication: 2,
                ..Default::default()
            };
            ClusterClient::new(addrs.clone(), cfg, std::sync::Arc::new(NoopRecorder)).unwrap()
        })
        .collect();
    for writer in &mut writers {
        writer.ingest(KEY, &[true; 100][..]).expect("ingest");
        writer.replicate_all();
    }

    let [primary, follower] = writers[0].replicas_of(KEY)[..] else {
        panic!("R=2 places the key on both nodes");
    };
    let follower_addr = addrs[follower];
    servers.remove(primary).shutdown();

    let direct = Client::connect(follower_addr)
        .unwrap()
        .query(KEY, MAX_WINDOW);
    let est = direct.expect("the follower answers");
    assert!(est.brackets(200), "follower answers {est:?}, truth 200");
    for writer in &mut writers {
        let est = writer.query(KEY, MAX_WINDOW).expect("failover read");
        assert!(est.brackets(200), "failover read {est:?}, truth 200");
    }
    for s in servers {
        s.shutdown();
    }
}

/// One writer ingests 100 ones, runs a replication round, then ingests
/// 100 more. Once the primary dies, the follower is behind the
/// writer's acknowledged writes, so the writer's read is a typed error
/// — never the follower's certified-exact `[100, 100]`.
#[test]
fn a_follower_behind_acknowledged_writes_never_answers() {
    const KEY: u64 = 7;
    let mut servers = start_servers_at(2, 0.1);
    let addrs = servers.iter().map(|s| s.local_addr()).collect();
    let cfg = ClusterConfig {
        replication: 2,
        ..Default::default()
    };
    let mut client = ClusterClient::new(addrs, cfg, std::sync::Arc::new(NoopRecorder)).unwrap();
    client.ingest(KEY, &[true; 100][..]).expect("ingest");
    client.replicate_all();
    client.ingest(KEY, &[true; 100][..]).expect("ingest");

    let primary = client.replicas_of(KEY)[0];
    servers.remove(primary).shutdown();

    match client.query(KEY, MAX_WINDOW) {
        Ok(est) => assert!(est.brackets(200), "stale answer {est:?}, truth 200"),
        Err(e) => assert!(matches!(e, WaveError::Io(_)), "untyped failure {e:?}"),
    }
    for s in servers {
        s.shutdown();
    }
}
