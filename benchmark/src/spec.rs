//! Every constant of the benchmark in one place: the four workloads'
//! shapes, the run structure, and the metric tables `BENCHMARK.json`
//! mirrors (a test keeps the two in step).

use crate::inputs::BlockShape;

// ---- run structure ------------------------------------------------------

/// Rounds run and thrown away before anything is timed.
pub const WARMUP_ROUNDS: usize = 2;
/// The first timed rounds; count metrics are taken over exactly these so
/// they repeat bit for bit however many rounds `--seconds` then allows.
pub const COUNT_ROUNDS: usize = 8;
/// Rounds per workload under `--smoke`.
pub const SMOKE_ROUNDS: usize = 4;
/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Rounds run in blocks of at least this long between two samples of
/// the reference clock (`refclock`): an 18 ms sample then costs under
/// 5 % of the run, and the box's speed moves little within a block.
pub const REF_BLOCK_SECONDS: f64 = 0.4;
/// Copies of the crashed directory reopened for `recovery_s`.
pub const RECOVERY_COPIES: usize = 5;
/// Timed seconds per workload when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 25.0;
/// A run is flagged `noisy` above either of these.
pub const NOISY_STEAL_RATIO: f64 = 0.05;
pub const NOISY_CALIB_DRIFT: f64 = 0.05;

// ---- workloads ----------------------------------------------------------

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "engine_dense",
        "In-process engine, 256 keys, 16x4096-bit dense requests: core::push_words does the work, net and store none - a synopsis-kernel change must move it, a transport change must not.",
    ),
    (
        "net_sparse",
        "Loopback server, one 64-bit sparse event per INGEST frame, pipelined 512x32: frame codec, CRC, epoll loop and queue hops dominate, core does ~nothing - where transport changes show.",
    ),
    (
        "durable_mixed",
        "In-process engine with WAL every-64 and a checkpoint per round, sparse 8x1024-bit requests, reads beside writes in the shard FIFO: store dominates and batching that delays queries shows.",
    ),
    (
        "referee_push",
        "The paper's scenario over the wire: 8 PushParty ship drift deltas through push_delta, combine reads beside installs: distributed accounting, DetWave encode/decode, mid-size unpipelined frames.",
    ),
];

/// An in-process `Engine<DetWave>` workload (also the server's engine
/// and request shape for `net_sparse`).
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub keys: u64,
    pub max_window: u64,
    pub eps: f64,
    pub queue_capacity: usize,
    pub requests_per_round: usize,
    /// The last this-many requests of a round are each followed by a
    /// flush; ingest + flush is the round's ack-latency sample.
    pub sync_requests: usize,
    pub entries_per_request: usize,
    pub bits_per_event: usize,
    pub density: f64,
    pub reads_per_round: usize,
    /// `Some(n)`: one read after every `n`-th request, on a key that
    /// request wrote, queued behind it. `None`: all reads after the
    /// round's flush barrier, from the seeded read plan.
    pub read_every: Option<usize>,
    /// Whole replays of the block before timing; at least enough to
    /// fill every key's window.
    pub preload_rounds: usize,
    pub durable: Option<DurableSpec>,
}

#[derive(Debug, Clone, Copy)]
pub struct DurableSpec {
    /// `SyncPolicy::EveryN` — the shipped default, `every-64`.
    pub sync_every: u32,
    pub checkpoint_every_batches: u64,
    pub segment_bytes: u64,
}

impl EngineSpec {
    pub fn shape(&self) -> BlockShape {
        BlockShape {
            keys: self.keys,
            events: self.requests_per_round * self.entries_per_request,
            bits_per_event: self.bits_per_event,
            density: self.density,
            reads: self.reads_per_round,
            max_window: self.max_window,
        }
    }
}

pub const ENGINE_DENSE: EngineSpec = EngineSpec {
    keys: 256,
    max_window: 65_536,
    eps: 0.05,
    queue_capacity: 64,
    requests_per_round: 768,
    sync_requests: 64,
    entries_per_request: 16,
    bits_per_event: 4096,
    density: 0.5,
    reads_per_round: 256,
    read_every: None,
    preload_rounds: 3,
    durable: None,
};

pub const DURABLE_MIXED: EngineSpec = EngineSpec {
    keys: 1024,
    max_window: 16_384,
    eps: 0.05,
    queue_capacity: 64,
    requests_per_round: 2048,
    sync_requests: 64,
    entries_per_request: 8,
    bits_per_event: 1024,
    density: 0.02,
    reads_per_round: 256,
    read_every: Some(8),
    preload_rounds: 16,
    durable: Some(DurableSpec {
        sync_every: 64,
        checkpoint_every_batches: 2048,
        segment_bytes: 8 << 20,
    }),
};

/// `net_sparse`: the engine behind the server plus the client's
/// pipelining shape. One entry per request = one event per INGEST frame.
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    pub engine: EngineSpec,
    /// Frames per `Client::ingest_many` call.
    pub frames_per_call: usize,
    /// Pipelining window of each call.
    pub pipeline_window: usize,
    /// `Client::flush` after this many frames; below `queue_capacity`,
    /// so the non-blocking server-side ingest can never be refused.
    pub flush_every_frames: usize,
}

pub const NET_SPARSE: NetSpec = NetSpec {
    engine: EngineSpec {
        keys: 1024,
        max_window: 4096,
        eps: 0.05,
        queue_capacity: 8192,
        requests_per_round: 64 * 512,
        // Over the wire every `ingest_many` call is an ack sample.
        sync_requests: 0,
        entries_per_request: 1,
        bits_per_event: 64,
        density: 0.05,
        reads_per_round: 256,
        read_every: None,
        preload_rounds: 6,
        durable: None,
    },
    frames_per_call: 512,
    pipeline_window: 32,
    flush_every_frames: 4096,
};

/// `referee_push`: continuous monitoring over the wire.
#[derive(Debug, Clone, Copy)]
pub struct RefereeSpec {
    pub parties: u64,
    pub max_window: u64,
    pub eps: f64,
    pub eps_split: f64,
    pub events_per_round: usize,
    pub bits_per_event: usize,
    pub density: f64,
    /// One full-window `Client::combine` after every this many events.
    pub combine_every: usize,
    /// Seeded-window combines after the round's last event.
    pub end_combines: usize,
    pub preload_rounds: usize,
}

impl RefereeSpec {
    pub fn shape(&self) -> BlockShape {
        BlockShape {
            keys: self.parties,
            events: self.events_per_round,
            bits_per_event: self.bits_per_event,
            density: self.density,
            reads: self.end_combines,
            max_window: self.max_window,
        }
    }
}

pub const REFEREE_PUSH: RefereeSpec = RefereeSpec {
    parties: 8,
    max_window: 65_536,
    eps: 0.1,
    eps_split: 0.5,
    events_per_round: 32_768,
    bits_per_event: 256,
    density: 0.3,
    combine_every: 16,
    end_combines: 256,
    preload_rounds: 4,
};

/// Stream bits each key receives per replay of an engine workload's block.
const fn bits_per_key_per_round(s: &EngineSpec) -> u64 {
    (s.requests_per_round * s.entries_per_request) as u64 / s.keys * s.bits_per_event as u64
}

// What the method promises, held at compile time.
const _: () = {
    // Refusals are structurally impossible: requests between two
    // barriers never exceed the queue.
    assert!(NET_SPARSE.flush_every_frames <= NET_SPARSE.engine.queue_capacity);
    assert!(NET_SPARSE
        .flush_every_frames
        .is_multiple_of(NET_SPARSE.frames_per_call));
    // Every key's window is full before timing starts.
    assert!(
        bits_per_key_per_round(&ENGINE_DENSE) * ENGINE_DENSE.preload_rounds as u64
            >= ENGINE_DENSE.max_window
    );
    assert!(
        bits_per_key_per_round(&DURABLE_MIXED) * DURABLE_MIXED.preload_rounds as u64
            >= DURABLE_MIXED.max_window
    );
    assert!(
        bits_per_key_per_round(&NET_SPARSE.engine) * NET_SPARSE.engine.preload_rounds as u64
            >= NET_SPARSE.engine.max_window
    );
    let r = REFEREE_PUSH;
    assert!(
        r.events_per_round as u64 / r.parties * r.bits_per_event as u64 * r.preload_rounds as u64
            >= r.max_window
    );
    // A crash at a round boundary plus half a round loses nothing only if
    // every append up to there sits behind a policy fsync, and the
    // checkpoint cadence is one per round.
    let Some(d) = DURABLE_MIXED.durable else {
        panic!("durable_mixed is durable")
    };
    assert!((DURABLE_MIXED.requests_per_round as u64).is_multiple_of(2 * d.sync_every as u64));
    assert!(d.checkpoint_every_batches == DURABLE_MIXED.requests_per_round as u64);
};

// ---- metrics ------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric and the share of the other side's median by
/// which it may differ before a comparison fails.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The driver-gated metrics (`BENCHMARK.json`, `end_to_end`): every
/// workload emits every one, never as 0. The four timings are on the
/// reference clock. Their bounds are at least three times the widest
/// spread two sets of ten runs of the same code showed on the build box
/// (README, "Repeatability"), not the 10 % the issue hoped for: the
/// driver refuses a benchmark whose own spread exceeds its bound.
pub const END_TO_END: [EndToEnd; 5] = [
    gated("items_per_s", "bits/s", Better::Higher, 0.20),
    gated("ingest_ack_p50_us", "us", Better::Lower, 0.25),
    gated("query_p50_us", "us", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("synopsis_bytes_per_key", "bytes", Better::Lower, 0.01),
];

/// End-to-end metrics the driver cannot gate, so they travel in the
/// per-layer list and `compare` gates them, at these bounds, wherever
/// they are nonzero. The first three exist on some workloads only (the
/// contract wants every end-to-end metric from every workload, never
/// 0). `rel_error_max` is a maximum over a seeded input: across the ten
/// *different* seeds the driver's spread is taken over it moves by up to
/// 13 %, so no bound near 1 % can hold there; between two runs of one
/// seed it repeats exactly, which is what `compare` checks.
pub const COMPARE_ONLY: [EndToEnd; 4] = [
    gated("recovery_s", "s", Better::Lower, 0.10),
    gated("wire_bytes_per_kitem", "bytes", Better::Lower, 0.01),
    gated("disk_bytes_per_kitem", "bytes", Better::Lower, 0.01),
    gated("rel_error_max", "ratio", Better::Lower, 0.01),
];

/// The per-layer metrics as `(name, unit)`: reported, never gated by
/// the driver. A workload that does not use a layer reports 0. Which
/// direction is better is recorded in `BENCHMARK.json` only.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("recovery_s", "s"),
    ("wire_bytes_per_kitem", "bytes"),
    ("disk_bytes_per_kitem", "bytes"),
    ("rel_error_max", "ratio"),
    ("core.push_ns_per_kitem", "ns"),
    ("core.query_ns", "ns"),
    ("core.encode_ns", "ns"),
    ("core.decode_ns", "ns"),
    ("core.encoded_bytes", "bytes"),
    ("core.entries_per_key", "count"),
    ("engine.ingest_call_ns", "ns"),
    ("engine.flush_ns", "ns"),
    ("engine.query_ns", "ns"),
    ("engine.self_ns_per_req", "ns"),
    ("engine.backpressure_total", "count"),
    ("store.record_encode_ns", "ns"),
    ("store.append_ns", "ns"),
    ("store.crc_ns_per_kib", "ns"),
    ("store.fsync_ns", "ns"),
    ("store.fsyncs_per_kitem", "count"),
    ("store.checkpoint_ns", "ns"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.recover_ns", "ns"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.frame_bytes_avg", "bytes"),
    ("net.ping_rtt_us", "us"),
    ("net.connect_us", "us"),
    ("net.self_us_per_req", "us"),
    ("dist.push_ns_per_kitem", "ns"),
    ("dist.deltas_per_kitem", "count"),
    ("dist.delta_bytes_avg", "bytes"),
    ("dist.install_ns", "ns"),
    ("dist.combine_ns", "ns"),
    ("budget.core_share", "ratio"),
    ("budget.engine_share", "ratio"),
    ("budget.store_share", "ratio"),
    ("budget.net_share", "ratio"),
    ("budget.dist_share", "ratio"),
    ("budget.harness_share", "ratio"),
    ("budget.unattributed_share", "ratio"),
    ("harness.pinned", "count"),
    ("harness.threads", "count"),
    ("harness.rounds", "count"),
    ("harness.steal_ratio", "ratio"),
    ("harness.off_cpu_share", "ratio"),
    ("harness.calib_ns", "ns"),
    ("harness.calib_drift", "ratio"),
    ("harness.ref_slowdown", "ratio"),
    ("harness.round_iqr_ratio", "ratio"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("tail.ingest_ack_us", "us"),
    ("tail.ingest_ack_percentile", "%"),
    ("tail.ingest_ack_samples", "count"),
    ("tail.query_us", "us"),
    ("tail.query_percentile", "%"),
    ("tail.query_samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use waves_obs::JsonValue;

    fn strings<'a>(entry: &'a JsonValue, keys: &[&str]) -> Vec<&'a str> {
        keys.iter()
            .map(|k| entry.get(k).and_then(JsonValue::as_str).expect(k))
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the harness emits and `compare` gates on. Names, units,
    /// directions, bounds and the per-workload "why" must be the same.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |name: &str| doc.get(name).and_then(JsonValue::as_array).expect(name);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(strings(entry, &["name", "why"]), [name, why]);
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, def) in end_to_end.iter().zip(END_TO_END) {
            let better = match def.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(
                strings(entry, &["name", "unit", "better"]),
                [def.name, def.unit, better]
            );
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(def.bound)
            );
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(strings(entry, &["name", "unit"]), [name, unit]);
            let better = entry.get("better").and_then(JsonValue::as_str);
            assert!(matches!(better, Some("higher" | "lower")), "{name}");
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for def in COMPARE_ONLY {
            assert!(PER_LAYER.iter().any(|m| m.0 == def.name));
        }
    }
}
