//! The recorder abstraction: the sink instrumented code reports into.
//!
//! Hot paths are generic over `R: Recorder + ?Sized`. [`NoopRecorder`]
//! implements every method as an empty `#[inline(always)]` body, so the
//! monomorphized disabled path is exactly the uninstrumented code — the
//! `obs-overhead` experiment in `waves-bench` measures this contract.

/// Well-known monotonic counters. Fixed at compile time so the registry
/// can back them with a flat atomic array — no hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum MetricId {
    /// Bits pushed into a wave (0s and 1s).
    WavePushesTotal,
    /// 1-bits pushed (each allocates a wave entry).
    WaveOnesTotal,
    /// Entries currently stored across instrumented waves (gauge-like:
    /// incremented on store, decremented via the expired/evicted
    /// counters when reading the snapshot).
    WaveEntriesStored,
    /// Entries dropped because they aged out of the window.
    WaveEntriesExpired,
    /// Entries evicted from a full per-level queue (the O(1) bound).
    WaveEntriesEvicted,
    /// Calls to the rank→level oracle.
    WaveLevelOracleCalls,
    /// Window queries answered exactly.
    WaveQueriesExact,
    /// Window queries answered approximately (bracketed estimate).
    WaveQueriesApprox,
    /// Items pushed into an exponential histogram.
    EhPushes,
    /// Cascading-merge episodes in the EH (a push that merged >= 1 pair).
    EhCascades,
    /// Total bucket pairs merged across all cascades.
    EhBucketsMerged,
    /// Referee combine operations in the distributed runtime.
    RefereeCombines,
    /// Messages sent party -> referee.
    PartyMessagesSent,
    /// Bytes sent party -> referee.
    PartyBytesSent,
    /// Items ingested by the CLI protocol loop.
    CliItems,
    /// Queries served by the CLI protocol loop.
    CliQueries,
    /// Stream bits ingested by the serving engine (across all shards).
    EngineItemsIngested,
    /// Per-shard batches delivered to engine shard workers.
    EngineBatchesIngested,
    /// Per-key queries served by the engine.
    EngineQueriesServed,
    /// Ingest attempts rejected because a shard queue was full.
    EngineBackpressureEvents,
    /// Items dropped on the floor by a rejected `ingest_batch` sub-batch.
    EngineItemsDropped,
    /// Wire frames written by the net client and server.
    NetFramesSent,
    /// Wire frames read by the net client and server.
    NetFramesReceived,
    /// Bytes written to sockets (header + payload).
    NetBytesSent,
    /// Bytes read from sockets (header + payload).
    NetBytesReceived,
    /// Connections accepted by the net server.
    NetConnectionsAccepted,
    /// Requests that produced an error response or failed to decode.
    NetRequestErrors,
    /// Batch records appended to a write-ahead log.
    StoreWalAppends,
    /// Bytes appended to write-ahead logs (framing + payload).
    StoreWalBytes,
    /// `fsync`/`File::sync_data` calls issued by the store layer.
    StoreFsyncs,
    /// Checkpoints written (one per shard per checkpoint round).
    StoreCheckpoints,
    /// WAL segment files deleted after a covering checkpoint.
    StoreSegmentsReclaimed,
    /// Batch records replayed from the WAL during recovery.
    StoreBatchesRecovered,
    /// Requests whose server-side handling exceeded the slow-request
    /// threshold. A traced one's `Dispatch` span in a
    /// [`SpanRecorder`](crate::SpanRecorder) carries its duration.
    NetSlowRequests,
    /// Times a shard's WAL was disabled after an append error (nonzero
    /// means the engine is running degraded, without durability).
    StoreWalDisabled,
    /// Synopses installed over engine shard state (replication apply:
    /// a REPLICATE frame replaced the local synopsis for a key).
    EngineSynopsesInstalled,
    /// Cluster client requests that failed over to the next replica in
    /// ring order after the primary timed out or dropped.
    ClusterFailovers,
    /// Synopsis replications shipped primary -> follower by the cluster
    /// client (one per follower per replicated key flush).
    ClusterReplicationsShipped,
    /// Anti-entropy rounds that re-shipped a key's synopsis to a
    /// follower after a reconnect (merge-on-rejoin).
    ClusterAntiEntropyMerges,
    /// Event-loop wakeups: epoll_wait returns observed by the server's
    /// poll thread (including waker-only wakeups).
    PollWakeups,
    /// Connections the event loop closed for falling behind: the
    /// per-connection write queue exceeded its byte cap (slow client).
    NetConnectionsEvicted,
    /// PUSH_DELTA frames installed by the monitor referee (a party's
    /// drift crossed its slack budget and advanced its sequence).
    MonitorPushes,
    /// Synopsis payload bytes carried by installed PUSH_DELTA frames.
    MonitorPushBytes,
    /// PUSH_DELTA frames rejected as stale: the sequence number did not
    /// advance the party's highest seen (retries, late reordering).
    MonitorStaleDeltas,
    /// Checkpoints a shard worker failed to write — automatic or at
    /// clean shutdown. The WAL is intact and the next interval retries.
    StoreCheckpointFailures,
}

/// Number of [`MetricId`] variants (length of the registry's array).
pub const NUM_METRICS: usize = 45;

impl MetricId {
    pub const ALL: [MetricId; NUM_METRICS] = [
        MetricId::WavePushesTotal,
        MetricId::WaveOnesTotal,
        MetricId::WaveEntriesStored,
        MetricId::WaveEntriesExpired,
        MetricId::WaveEntriesEvicted,
        MetricId::WaveLevelOracleCalls,
        MetricId::WaveQueriesExact,
        MetricId::WaveQueriesApprox,
        MetricId::EhPushes,
        MetricId::EhCascades,
        MetricId::EhBucketsMerged,
        MetricId::RefereeCombines,
        MetricId::PartyMessagesSent,
        MetricId::PartyBytesSent,
        MetricId::CliItems,
        MetricId::CliQueries,
        MetricId::EngineItemsIngested,
        MetricId::EngineBatchesIngested,
        MetricId::EngineQueriesServed,
        MetricId::EngineBackpressureEvents,
        MetricId::EngineItemsDropped,
        MetricId::NetFramesSent,
        MetricId::NetFramesReceived,
        MetricId::NetBytesSent,
        MetricId::NetBytesReceived,
        MetricId::NetConnectionsAccepted,
        MetricId::NetRequestErrors,
        MetricId::StoreWalAppends,
        MetricId::StoreWalBytes,
        MetricId::StoreFsyncs,
        MetricId::StoreCheckpoints,
        MetricId::StoreSegmentsReclaimed,
        MetricId::StoreBatchesRecovered,
        MetricId::NetSlowRequests,
        MetricId::StoreWalDisabled,
        MetricId::EngineSynopsesInstalled,
        MetricId::ClusterFailovers,
        MetricId::ClusterReplicationsShipped,
        MetricId::ClusterAntiEntropyMerges,
        MetricId::PollWakeups,
        MetricId::NetConnectionsEvicted,
        MetricId::MonitorPushes,
        MetricId::MonitorPushBytes,
        MetricId::MonitorStaleDeltas,
        MetricId::StoreCheckpointFailures,
    ];

    /// Stable snake_case name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::WavePushesTotal => "wave_pushes_total",
            MetricId::WaveOnesTotal => "wave_ones_total",
            MetricId::WaveEntriesStored => "wave_entries_stored",
            MetricId::WaveEntriesExpired => "wave_entries_expired",
            MetricId::WaveEntriesEvicted => "wave_entries_evicted",
            MetricId::WaveLevelOracleCalls => "wave_level_oracle_calls",
            MetricId::WaveQueriesExact => "wave_queries_exact",
            MetricId::WaveQueriesApprox => "wave_queries_approx",
            MetricId::EhPushes => "eh_pushes_total",
            MetricId::EhCascades => "eh_cascades_total",
            MetricId::EhBucketsMerged => "eh_buckets_merged_total",
            MetricId::RefereeCombines => "referee_combines_total",
            MetricId::PartyMessagesSent => "party_messages_sent_total",
            MetricId::PartyBytesSent => "party_bytes_sent_total",
            MetricId::CliItems => "cli_items_total",
            MetricId::CliQueries => "cli_queries_total",
            MetricId::EngineItemsIngested => "engine_items_ingested_total",
            MetricId::EngineBatchesIngested => "engine_batches_ingested_total",
            MetricId::EngineQueriesServed => "engine_queries_served_total",
            MetricId::EngineBackpressureEvents => "engine_backpressure_events_total",
            MetricId::EngineItemsDropped => "engine_items_dropped_total",
            MetricId::NetFramesSent => "net_frames_sent_total",
            MetricId::NetFramesReceived => "net_frames_received_total",
            MetricId::NetBytesSent => "net_bytes_sent_total",
            MetricId::NetBytesReceived => "net_bytes_received_total",
            MetricId::NetConnectionsAccepted => "net_connections_accepted_total",
            MetricId::NetRequestErrors => "net_request_errors_total",
            MetricId::StoreWalAppends => "store_wal_appends_total",
            MetricId::StoreWalBytes => "store_wal_bytes_total",
            MetricId::StoreFsyncs => "store_fsyncs_total",
            MetricId::StoreCheckpoints => "store_checkpoints_total",
            MetricId::StoreSegmentsReclaimed => "store_segments_reclaimed_total",
            MetricId::StoreBatchesRecovered => "store_batches_recovered_total",
            MetricId::NetSlowRequests => "net_slow_requests_total",
            MetricId::StoreWalDisabled => "store_wal_disabled_total",
            MetricId::EngineSynopsesInstalled => "engine_synopses_installed_total",
            MetricId::ClusterFailovers => "cluster_failovers_total",
            MetricId::ClusterReplicationsShipped => "cluster_replications_shipped_total",
            MetricId::ClusterAntiEntropyMerges => "cluster_anti_entropy_merges_total",
            MetricId::PollWakeups => "poll_wakeups_total",
            MetricId::NetConnectionsEvicted => "net_connections_evicted_total",
            MetricId::MonitorPushes => "monitor_pushes_total",
            MetricId::MonitorPushBytes => "monitor_push_bytes_total",
            MetricId::MonitorStaleDeltas => "monitor_stale_deltas_total",
            MetricId::StoreCheckpointFailures => "store_checkpoint_failures_total",
        }
    }
}

/// Per-shard counters tracked by the registry's flat shard array.
/// Deliberately tiny: these are incremented on the shard-worker hot path
/// with nothing but an index computation (no hashing, no locks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ShardStat {
    /// Items (bits) applied by this shard's worker.
    Items,
    /// Ingest batches applied by this shard's worker.
    Batches,
    /// Queries answered by this shard's worker.
    Queries,
}

/// Number of [`ShardStat`] variants.
pub const NUM_SHARD_STATS: usize = 3;

/// Shards tracked individually by the registry. Engines with more
/// shards fold the overflow into the last slot, so sums over the shard
/// dimension always equal the corresponding global counter.
pub const MAX_TRACKED_SHARDS: usize = 64;

/// Key families tracked by the registry: the top 4 bits of the engine's
/// Fibonacci key mix, a coarse load-skew fingerprint that costs one
/// shift on the hot path (the mix is already computed for shard
/// routing).
pub const NUM_KEY_FAMILIES: usize = 16;

/// Well-known latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Per-item push latency, nanoseconds.
    PushLatencyNs,
    /// Per-query latency, nanoseconds.
    QueryLatencyNs,
    /// Referee combine latency, nanoseconds.
    RefereeCombineNs,
    /// EH cascade length (buckets merged on a single push).
    EhCascadeLen,
    /// Engine shard-worker time to apply one ingest batch, nanoseconds.
    EngineIngestBatchNs,
    /// Engine end-to-end (send + reply) per-key query latency, ns.
    EngineQueryNs,
    /// Shard queue depth observed at each successful enqueue.
    EngineQueueDepth,
    /// Client-side request round-trip (write + server work + read), ns.
    NetRequestNs,
    /// Server-side time to decode, handle, and answer one frame, ns.
    NetServerFrameNs,
    /// Payload bytes per wire frame, sampled on every send.
    NetFrameBytes,
    /// Store-layer time to frame and append one batch record, ns.
    StoreWalAppendNs,
    /// Store-layer time per `fsync`/`sync_data` call, ns.
    StoreFsyncNs,
    /// Time to write one shard checkpoint (serialize + fsync + rename), ns.
    StoreCheckpointNs,
    /// Time to recover one shard (checkpoint load + WAL replay), ns.
    StoreRecoveryNs,
    /// Cluster replication lag: primary flush -> follower install
    /// acknowledged, per shipped synopsis, nanoseconds.
    ClusterReplicaLagNs,
    /// Ready events delivered per epoll_wait return (batching factor of
    /// the event loop; collapses toward 1 under light load).
    PollEventsPerWake,
    /// Bytes queued in a connection's write queue, sampled at each
    /// response enqueue (backpressure depth).
    NetWriteQueueBytes,
    /// Pipelined requests in flight on a connection, sampled at each
    /// request dispatch.
    NetInflightPerConn,
}

/// Number of [`HistId`] variants.
pub const NUM_HISTS: usize = 18;

impl HistId {
    pub const ALL: [HistId; NUM_HISTS] = [
        HistId::PushLatencyNs,
        HistId::QueryLatencyNs,
        HistId::RefereeCombineNs,
        HistId::EhCascadeLen,
        HistId::EngineIngestBatchNs,
        HistId::EngineQueryNs,
        HistId::EngineQueueDepth,
        HistId::NetRequestNs,
        HistId::NetServerFrameNs,
        HistId::NetFrameBytes,
        HistId::StoreWalAppendNs,
        HistId::StoreFsyncNs,
        HistId::StoreCheckpointNs,
        HistId::StoreRecoveryNs,
        HistId::ClusterReplicaLagNs,
        HistId::PollEventsPerWake,
        HistId::NetWriteQueueBytes,
        HistId::NetInflightPerConn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            HistId::PushLatencyNs => "push_latency_ns",
            HistId::QueryLatencyNs => "query_latency_ns",
            HistId::RefereeCombineNs => "referee_combine_ns",
            HistId::EhCascadeLen => "eh_cascade_len",
            HistId::EngineIngestBatchNs => "engine_ingest_batch_ns",
            HistId::EngineQueryNs => "engine_query_ns",
            HistId::EngineQueueDepth => "engine_queue_depth",
            HistId::NetRequestNs => "net_request_ns",
            HistId::NetServerFrameNs => "net_server_frame_ns",
            HistId::NetFrameBytes => "net_frame_bytes",
            HistId::StoreWalAppendNs => "store_wal_append_ns",
            HistId::StoreFsyncNs => "store_fsync_ns",
            HistId::StoreCheckpointNs => "store_checkpoint_ns",
            HistId::StoreRecoveryNs => "store_recovery_ns",
            HistId::ClusterReplicaLagNs => "cluster_replica_lag_ns",
            HistId::PollEventsPerWake => "poll_events_per_wake",
            HistId::NetWriteQueueBytes => "net_write_queue_bytes",
            HistId::NetInflightPerConn => "net_inflight_per_conn",
        }
    }
}

/// The sink instrumented code reports into. Every method has an empty
/// default body so sinks implement only what they care about, and the
/// noop path costs nothing.
pub trait Recorder {
    /// Whether this recorder observes anything at all. Instrumented code
    /// may use this to skip clock reads for latency histograms.
    #[inline(always)]
    fn enabled(&self) -> bool {
        true
    }

    #[inline(always)]
    fn incr(&self, id: MetricId, by: u64) {
        let _ = (id, by);
    }

    #[inline(always)]
    fn observe(&self, id: HistId, value: u64) {
        let _ = (id, value);
    }

    /// Whether this recorder keeps completed trace spans. The span gate,
    /// [`OpenSpan::open`](crate::trace::OpenSpan::open), checks this
    /// exactly like `enabled()` gates latency clock reads, so the noop
    /// path never constructs a [`Span`](crate::trace::Span).
    #[inline(always)]
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Record one completed trace span.
    #[inline(always)]
    fn span(&self, span: crate::trace::Span) {
        let _ = span;
    }

    /// Increment a per-shard counter (see
    /// [`MAX_TRACKED_SHARDS`]; sinks clamp out-of-range indices).
    #[inline(always)]
    fn incr_shard(&self, shard: usize, stat: ShardStat, by: u64) {
        let _ = (shard, stat, by);
    }

    /// Increment a per-key-family ingest counter (see
    /// [`NUM_KEY_FAMILIES`]; sinks mask out-of-range indices).
    #[inline(always)]
    fn incr_family(&self, family: usize, by: u64) {
        let _ = (family, by);
    }

    /// A live metrics snapshot, if this recorder (or one it fans out
    /// to) is backed by a registry. Lets a server holding a
    /// `dyn Recorder` answer remote STATS requests without naming a
    /// concrete recorder type.
    fn metrics_snapshot(&self) -> Option<crate::registry::MetricsSnapshot> {
        None
    }
}

/// The disabled recorder: every method is an empty inline body, so
/// code monomorphized over it is identical to uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Broadcasts to two recorders (compose into wider fans by nesting).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Fanout<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn incr(&self, id: MetricId, by: u64) {
        self.0.incr(id, by);
        self.1.incr(id, by);
    }

    #[inline]
    fn observe(&self, id: HistId, value: u64) {
        self.0.observe(id, value);
        self.1.observe(id, value);
    }

    #[inline]
    fn trace_enabled(&self) -> bool {
        self.0.trace_enabled() || self.1.trace_enabled()
    }

    #[inline]
    fn span(&self, span: crate::trace::Span) {
        self.0.span(span);
        self.1.span(span);
    }

    #[inline]
    fn incr_shard(&self, shard: usize, stat: ShardStat, by: u64) {
        self.0.incr_shard(shard, stat, by);
        self.1.incr_shard(shard, stat, by);
    }

    #[inline]
    fn incr_family(&self, family: usize, by: u64) {
        self.0.incr_family(family, by);
        self.1.incr_family(family, by);
    }

    fn metrics_snapshot(&self) -> Option<crate::registry::MetricsSnapshot> {
        self.0
            .metrics_snapshot()
            .or_else(|| self.1.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_ids_are_dense_and_named() {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert!(!id.name().is_empty());
        }
        for (i, id) in HistId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert!(!id.name().is_empty());
        }
    }

    /// OPERATIONS.md §4.2 is the operator's metrics reference: every
    /// registry id has a row in the table for its kind, and every row
    /// names a registry id.
    #[test]
    fn operations_metrics_reference_matches_the_registry() {
        let doc = include_str!("../../../OPERATIONS.md");
        let section = doc
            .split("### 4.2 Metrics reference")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("OPERATIONS.md has a §4.2");
        // The backticked name in the first cell of each table row.
        let mut rows: [Vec<&str>; 2] = [Vec::new(), Vec::new()];
        let mut table = None;
        for line in section.lines() {
            if line.starts_with("| counter ") {
                table = Some(0);
            } else if line.starts_with("| histogram ") {
                table = Some(1);
            } else if let (Some(t), Some(cell)) = (table, line.strip_prefix("| `")) {
                rows[t].push(cell.split('`').next().expect("split yields one piece"));
            }
        }
        let registry: [Vec<&str>; 2] = [
            MetricId::ALL.iter().map(|id| id.name()).collect(),
            HistId::ALL.iter().map(|id| id.name()).collect(),
        ];
        for ((kind, rows), ids) in ["counter", "histogram"].iter().zip(&rows).zip(&registry) {
            let missing: Vec<_> = ids.iter().filter(|name| !rows.contains(name)).collect();
            let unknown: Vec<_> = rows.iter().filter(|name| !ids.contains(name)).collect();
            assert!(
                missing.is_empty(),
                "{kind}s with no row in OPERATIONS.md §4.2: {missing:?}"
            );
            assert!(
                unknown.is_empty(),
                "OPERATIONS.md §4.2 {kind} rows that name no registry id: {unknown:?}"
            );
        }
    }

    #[test]
    fn noop_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.incr(MetricId::CliItems, 1);
        r.observe(HistId::PushLatencyNs, 1);
    }

    #[test]
    fn noop_trace_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.trace_enabled());
        assert!(r.metrics_snapshot().is_none());
        // Default bodies: must be callable and do nothing.
        r.incr_shard(3, ShardStat::Items, 5);
        r.incr_family(7, 1);
        r.span(crate::trace::Span {
            trace: crate::trace::TraceId(1),
            id: 2,
            parent: 0,
            stage: crate::trace::Stage::Request,
            start_ns: 0,
            dur_ns: 1,
        });
    }

    #[test]
    fn fanout_reaches_both() {
        use crate::trace::{Span, SpanRecorder, Stage, TraceId};
        let f = Fanout(crate::MetricsRegistry::new(), SpanRecorder::new());
        assert!(f.enabled());
        assert!(
            f.trace_enabled(),
            "either side keeping spans turns tracing on"
        );
        f.incr(MetricId::CliItems, 2);
        f.span(Span {
            trace: TraceId(3),
            id: 2,
            parent: 0,
            stage: Stage::Request,
            start_ns: 0,
            dur_ns: 1,
        });
        assert_eq!(f.0.counter(MetricId::CliItems), 2);
        assert_eq!(f.1.trace(TraceId(3)).len(), 1);
        let snap = f.metrics_snapshot().expect("the registry side snapshots");
        assert_eq!(snap.counter("cli_items_total"), Some(2));
    }
}
