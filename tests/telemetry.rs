//! End-to-end telemetry over the full networked stack: one traced
//! request must leave a complete span tree in the ring — client request
//! root, wire exchange, server dispatch, shard-queue wait, shard
//! execution, and (for ingest with persistence) WAL append + fsync —
//! and the remote STATS frame must return a snapshot whose per-shard
//! dimensions reconcile with the global counters.
//!
//! Server and client share one recorder here (same process), so the
//! whole distributed trace lands in a single `SpanRecorder` ring.

use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use waves::net::{Client, ClientConfig, Frame, FrameTag, Server, ServerConfig, WireCodec};
use waves::obs::trace::ROOT_SPAN_ID;
use waves::obs::{Fanout, MetricsRegistry, Recorder, Span, SpanRecorder, Stage, TraceId};
use waves::store::{scratch_dir, PersistConfig, SyncPolicy};
use waves::{Bits, DetWave, EngineConfig, IngestRequest};

/// Metrics + span ring, fanned out as one recorder.
type Telemetry = Fanout<MetricsRegistry, SpanRecorder>;

fn telemetry() -> Arc<Telemetry> {
    Arc::new(Fanout(MetricsRegistry::new(), SpanRecorder::new()))
}

fn ring(tel: &Telemetry) -> &SpanRecorder {
    &tel.1
}

fn stages(spans: &[Span]) -> HashSet<Stage> {
    spans.iter().map(|s| s.stage).collect()
}

/// The one-big-test shape is deliberate: the traced ingest, the traced
/// query, the remote stats reconciliation, and the slow-request count
/// all observe the same two requests, so splitting them would just
/// re-run the server four times.
#[test]
fn traced_request_produces_full_span_tree_and_stats_reconcile() {
    let root = scratch_dir("telemetry-e2e");
    let tel = telemetry();
    let server = Server::start_recorded(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig::builder()
                .num_shards(2)
                .max_window(256)
                .eps(0.2)
                .persist_config(PersistConfig::new(&root).sync_policy(SyncPolicy::EveryBatch))
                .build(),
            // Zero threshold: every request is "slow", so the
            // slow-request counter moves deterministically.
            slow_request: Some(Duration::ZERO),
            ..Default::default()
        },
        tel.clone(),
    )
    .unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), ClientConfig::default(), tel.clone()).unwrap();

    // One batch across both shards: keys 0..8, 5 bits each = 40 items.
    let batch: Vec<(u64, Bits)> = (0..8u64)
        .map(|k| (k, Bits::from([true, false, true, true, false])))
        .collect();
    client.ingest(IngestRequest::batch(batch)).unwrap();
    let ingest_trace = client.last_trace().expect("ingest was traced");
    // Barrier: the batch is applied and (EveryBatch) WAL-synced, so the
    // shard/wal spans of the ingest trace are in the ring.
    client.flush().unwrap();

    let est = client.query(3, 256).unwrap();
    assert_eq!(est.value, 3.0);
    let query_trace = client.last_trace().expect("query was traced");
    assert_ne!(ingest_trace, query_trace, "each request gets a fresh id");

    // The ingest trace reaches the bottom of the stack: with EveryBatch
    // persistence its tree carries WAL append and fsync spans alongside
    // the transport and engine stages.
    let ingest_spans = ring(&tel).trace(ingest_trace);
    let got = stages(&ingest_spans);
    for want in [
        Stage::Request,
        Stage::Wire,
        Stage::Dispatch,
        Stage::Queue,
        Stage::Shard,
        Stage::Wal,
        Stage::Fsync,
    ] {
        assert!(
            got.contains(&want),
            "ingest trace is missing {want:?}; tree:\n{}",
            ring(&tel).render_trace(ingest_trace)
        );
    }

    // The query trace: client root + wire + dispatch + queue + shard,
    // i.e. >= 4 distinct stages below the root. The query is answered
    // synchronously, so every child's duration fits inside the root's.
    let query_spans = ring(&tel).trace(query_trace);
    let got = stages(&query_spans);
    for want in [
        Stage::Request,
        Stage::Wire,
        Stage::Dispatch,
        Stage::Queue,
        Stage::Shard,
    ] {
        assert!(
            got.contains(&want),
            "query trace is missing {want:?}; tree:\n{}",
            ring(&tel).render_trace(query_trace)
        );
    }
    let query_root = query_spans
        .iter()
        .find(|s| s.id == ROOT_SPAN_ID)
        .expect("client root span");
    assert_eq!(query_root.stage, Stage::Request);
    assert_eq!(query_root.parent, 0, "the root parents to nothing");
    for child in query_spans.iter().filter(|s| s.id != ROOT_SPAN_ID) {
        assert!(
            child.dur_ns <= query_root.dur_ns,
            "{:?} span ({} ns) outlasted the request root ({} ns)",
            child.stage,
            child.dur_ns,
            query_root.dur_ns
        );
    }
    // Cross-process parent convention: both sides' top spans hang off
    // ROOT_SPAN_ID even though the server never saw the client's spans.
    let wire = query_spans.iter().find(|s| s.stage == Stage::Wire).unwrap();
    let dispatch = query_spans
        .iter()
        .find(|s| s.stage == Stage::Dispatch)
        .unwrap();
    assert_eq!(wire.parent, ROOT_SPAN_ID);
    assert_eq!(dispatch.parent, ROOT_SPAN_ID);
    // Queue and shard descend from the dispatch span.
    for stage in [Stage::Queue, Stage::Shard] {
        let s = query_spans.iter().find(|s| s.stage == stage).unwrap();
        assert_eq!(s.parent, dispatch.id, "{stage:?} parents to dispatch");
    }
    // The rendered tree nests: the root line unindented, children under.
    let rendered = ring(&tel).render_trace(query_trace);
    assert!(rendered.starts_with("request "), "{rendered}");
    assert!(rendered.contains("\n  wire "), "{rendered}");

    // Remote stats: the snapshot fetched over the wire reconciles with
    // itself — per-shard items sum to the global ingest counter, and
    // both equal what this test actually sent (40 items).
    let snap = client.stats().unwrap();
    let global = snap.counter("engine_items_ingested_total").unwrap();
    assert_eq!(global, 40);
    let per_shard: u64 = snap.shards.iter().map(|s| s.items).sum();
    assert_eq!(per_shard, global, "shard dimension must sum to the total");
    assert!(
        snap.shards.iter().filter(|s| s.items > 0).count() >= 2,
        "keys 0..8 must spread across both shards: {:?}",
        snap.shards
    );
    let per_family: u64 = snap.families.iter().sum();
    assert_eq!(per_family, global, "family dimension must sum to the total");
    assert!(snap.counter("net_slow_requests_total").unwrap() >= 2);

    // A slow request's trace is found from its dispatch span: filter
    // the ring for dispatch spans over the threshold (zero here), then
    // render their trace.
    let slow: Vec<TraceId> = ring(&tel)
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Dispatch)
        .map(|s| s.trace)
        .collect();
    assert!(slow.contains(&query_trace), "{slow:?}");
    assert!(ring(&tel).render_trace(query_trace).contains("  dispatch "));

    client.shutdown_server().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// Untraced operation stays untraced: a default client against a
/// recorded server allocates no trace ids (the wire header carries 0),
/// and the server records no spans for it.
#[test]
fn untraced_clients_leave_no_spans() {
    let tel = telemetry();
    let server = Server::start_recorded(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig::builder()
                .num_shards(1)
                .max_window(64)
                .eps(0.25)
                .build(),
            slow_request: None,
            ..Default::default()
        },
        tel.clone(),
    )
    .unwrap();
    // Plain connect: NoopRecorder, trace_enabled() = false.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ingest(IngestRequest::of(1, [true, true])).unwrap();
    client.flush().unwrap();
    assert_eq!(client.query(1, 64).unwrap().value, 2.0);
    assert_eq!(client.last_trace(), None);
    assert_eq!(ring(&tel).total_recorded(), 0, "{:?}", ring(&tel).spans());
    // Metrics still flow — tracing and metrics gate independently.
    assert!(
        tel.metrics_snapshot()
            .unwrap()
            .counter("engine_items_ingested_total")
            == Some(2)
    );
}

/// Trace ids are allocated per attempt, so two consecutive traced
/// requests never share a trace (retries would otherwise merge two
/// wire exchanges under one tree).
#[test]
fn consecutive_requests_get_distinct_traces() {
    let tel = telemetry();
    let server = Server::start_recorded(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig::builder()
                .num_shards(1)
                .max_window(64)
                .eps(0.25)
                .build(),
            slow_request: None,
            ..Default::default()
        },
        tel.clone(),
    )
    .unwrap();
    let mut client =
        Client::connect_with(server.local_addr(), ClientConfig::default(), tel.clone()).unwrap();
    let mut seen = HashSet::new();
    for _ in 0..5 {
        client.ping().unwrap();
        let id = client.last_trace().expect("ping was traced");
        assert_ne!(id, TraceId::NONE);
        assert!(seen.insert(id), "trace id reused: {id:?}");
    }
    // Every trace made it to the ring with its own request root.
    for id in &seen {
        let spans = ring(&tel).trace(*id);
        assert!(
            spans.iter().any(|s| s.id == ROOT_SPAN_ID),
            "trace {id:?} has no root span"
        );
    }
}

/// Two traced INGESTs with an untraced one between them, in one write,
/// so one pass decodes all three. A traced frame is batched alone — the
/// gather is submitted before and after it — so A, the untraced frame
/// and B each go in batches of their own. Each traced frame keeps its
/// whole tree — Dispatch under the client's root, one Queue and Shard
/// per shard it touched under Dispatch, WAL append under Shard, fsync
/// under WAL — and the untraced frame records nothing.
#[test]
fn two_traced_ingests_in_one_pass_keep_their_own_span_trees() {
    let root = scratch_dir("telemetry-traced-pair");
    let tel = telemetry();
    let server = Server::start_recorded(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig::builder()
                .num_shards(2)
                .max_window(256)
                .eps(0.2)
                .persist_config(PersistConfig::new(&root).sync_policy(SyncPolicy::EveryBatch))
                .build(),
            slow_request: None,
            ..Default::default()
        },
        tel.clone(),
    )
    .unwrap();
    let key = 7u64;
    let other = (0..)
        .find(|&k| server.engine().shard_of(k) != server.engine().shard_of(key))
        .unwrap();
    let (trace_a, trace_b) = (TraceId(0xA), TraceId(0xB));
    // A touches one shard and is batched alone, so only that shard
    // carries A's context; the untraced frame touches both shards in
    // batches of its own. B touches both shards.
    let ingests = [
        (trace_a, vec![(key, vec![true])]),
        (
            TraceId::NONE,
            vec![(key, vec![true, false]), (other, vec![true])],
        ),
        (
            trace_b,
            vec![(key, vec![true, true, true]), (other, vec![true, true])],
        ),
    ];
    let mut wire = Vec::new();
    let mut oracle = DetWave::new(256, 0.2).unwrap();
    for (corr, (trace, entries)) in ingests.iter().enumerate() {
        let frame = Frame::Ingest(
            entries
                .iter()
                .map(|(k, bits)| (*k, Bits::from(bits.clone())))
                .collect(),
        );
        let tag = FrameTag {
            trace: trace.0,
            corr: corr as u64 + 1,
        };
        WireCodec::encode_tagged_into(&frame, tag, &mut wire);
        for (_, bits) in entries.iter().filter(|(k, _)| *k == key) {
            bits.iter().for_each(|&b| oracle.push_bit(b));
        }
    }
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&wire).unwrap();
    let mut replied = HashSet::new();
    for _ in 0..3 {
        let (reply, _, tag) = WireCodec::read_frame_tagged(&mut sock).unwrap();
        assert_eq!(reply, Frame::Ok, "INGEST {} was refused", tag.corr);
        replied.insert(tag.corr);
    }
    assert_eq!(replied, HashSet::from([1, 2, 3]));

    // Barrier, then a query that counts the bits of all three frames.
    let mut ask = |frame: Frame, corr: u64| {
        let tag = FrameTag { trace: 0, corr };
        sock.write_all(&WireCodec::encode_tagged(&frame, tag))
            .unwrap();
        let (reply, _, got) = WireCodec::read_frame_tagged(&mut sock).unwrap();
        assert_eq!(got, tag);
        reply
    };
    assert_eq!(ask(Frame::Flush, 4), Frame::Ok);
    let want = oracle.query(256).unwrap();
    assert_eq!(
        ask(Frame::Query { key, window: 256 }, 5),
        Frame::EstimateResp(want)
    );

    for (trace, shards) in [(trace_a, 1), (trace_b, 2)] {
        let spans = ring(&tel).trace(trace);
        let tree = ring(&tel).render_trace(trace);
        let of =
            |stage: Stage| -> Vec<&Span> { spans.iter().filter(|s| s.stage == stage).collect() };
        let dispatch = of(Stage::Dispatch);
        assert_eq!(dispatch.len(), 1, "{tree}");
        assert_eq!(dispatch[0].parent, ROOT_SPAN_ID, "{tree}");
        for stage in [Stage::Queue, Stage::Shard] {
            assert_eq!(of(stage).len(), shards, "{stage:?} in\n{tree}");
            for s in of(stage) {
                assert_eq!(s.parent, dispatch[0].id, "{stage:?} in\n{tree}");
            }
        }
        for (stage, parent) in [(Stage::Wal, Stage::Shard), (Stage::Fsync, Stage::Wal)] {
            let parents: HashSet<u64> = of(parent).iter().map(|s| s.id).collect();
            assert_eq!(of(stage).len(), shards, "{stage:?} in\n{tree}");
            for s in of(stage) {
                assert!(parents.contains(&s.parent), "{stage:?} in\n{tree}");
            }
        }
        assert_eq!(spans.len(), 1 + 4 * shards, "{tree}");
    }
    // The untraced frame, the flush and the query left nothing.
    let all = ring(&tel).spans();
    assert!(
        all.iter().all(|s| s.trace == trace_a || s.trace == trace_b),
        "{all:?}"
    );
    drop(sock);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}
