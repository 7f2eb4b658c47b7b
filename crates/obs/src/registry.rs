//! The registry: a fixed set of well-known counters and histograms that
//! itself implements [`Recorder`], so it can be handed directly to
//! instrumented code.
//!
//! Beyond the global counters, the registry keeps two flat dimensional
//! arrays — per-shard stats ([`ShardStat`] × [`MAX_TRACKED_SHARDS`]) and
//! per-key-family ingest counts ([`NUM_KEY_FAMILIES`] slots) — so a
//! snapshot shows load skew across engine shards without any hashing on
//! the hot path: the index *is* the shard number.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::histogram::{HistogramSnapshot, LogHistogram};
use crate::json::{JsonValue, JsonWriter};
use crate::recorder::{
    HistId, MetricId, Recorder, ShardStat, MAX_TRACKED_SHARDS, NUM_HISTS, NUM_KEY_FAMILIES,
    NUM_METRICS, NUM_SHARD_STATS,
};

/// Lock-free store for every [`MetricId`] counter and [`HistId`]
/// histogram. Shareable across threads behind `&` or `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; NUM_METRICS],
    hists: [LogHistogram; NUM_HISTS],
    /// Flat `[shard][stat]` array: index `shard * NUM_SHARD_STATS + stat`.
    shard_stats: [AtomicU64; MAX_TRACKED_SHARDS * NUM_SHARD_STATS],
    families: [AtomicU64; NUM_KEY_FAMILIES],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| LogHistogram::new()),
            shard_stats: std::array::from_fn(|_| AtomicU64::new(0)),
            families: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    pub fn histogram(&self, id: HistId) -> &LogHistogram {
        &self.hists[id as usize]
    }

    /// One per-shard counter. Shards ≥ [`MAX_TRACKED_SHARDS`] fold into
    /// the last slot (mirroring [`Recorder::incr_shard`] clamping).
    pub fn shard_stat(&self, shard: usize, stat: ShardStat) -> u64 {
        let s = shard.min(MAX_TRACKED_SHARDS - 1);
        self.shard_stats[s * NUM_SHARD_STATS + stat as usize].load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
        for c in &self.shard_stats {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.families {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of every metric, as a plain struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut shards: Vec<ShardStats> = (0..MAX_TRACKED_SHARDS)
            .map(|s| ShardStats {
                items: self.shard_stat(s, ShardStat::Items),
                batches: self.shard_stat(s, ShardStat::Batches),
                queries: self.shard_stat(s, ShardStat::Queries),
            })
            .collect();
        while shards.last().is_some_and(|s| s.is_zero()) {
            shards.pop();
        }
        MetricsSnapshot {
            counters: MetricId::ALL
                .iter()
                .map(|&id| (id.name(), self.counter(id)))
                .collect(),
            hists: HistId::ALL
                .iter()
                .map(|&id| (id.name(), self.hists[id as usize].snapshot()))
                .collect(),
            shards,
            families: self
                .families
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Recorder for MetricsRegistry {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn incr(&self, id: MetricId, by: u64) {
        self.counters[id as usize].fetch_add(by, Ordering::Relaxed);
    }

    #[inline]
    fn observe(&self, id: HistId, value: u64) {
        self.hists[id as usize].record(value);
    }

    #[inline]
    fn incr_shard(&self, shard: usize, stat: ShardStat, by: u64) {
        let s = shard.min(MAX_TRACKED_SHARDS - 1);
        self.shard_stats[s * NUM_SHARD_STATS + stat as usize].fetch_add(by, Ordering::Relaxed);
    }

    #[inline]
    fn incr_family(&self, family: usize, by: u64) {
        self.families[family & (NUM_KEY_FAMILIES - 1)].fetch_add(by, Ordering::Relaxed);
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.snapshot())
    }
}

/// Per-shard slice of a snapshot (one row of the shard dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    pub items: u64,
    pub batches: u64,
    pub queries: u64,
}

impl ShardStats {
    pub fn is_zero(&self) -> bool {
        self.items == 0 && self.batches == 0 && self.queries == 0
    }
}

/// Serializable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`MetricId::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, snapshot)` for every histogram, in [`HistId::ALL`] order.
    pub hists: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-shard stats, trailing all-zero shards trimmed. Sums over this
    /// dimension equal the corresponding global engine counters.
    pub shards: Vec<ShardStats>,
    /// Per-key-family ingest counts ([`NUM_KEY_FAMILIES`] slots).
    pub families: Vec<u64>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Multi-line human-readable rendering. Zero counters and empty
    /// histograms are elided so small runs stay small.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== metrics ==\n");
        for &(name, v) in &self.counters {
            if v > 0 {
                out.push_str(&format!("{name:<28} {v}\n"));
            }
        }
        for (name, h) in &self.hists {
            if h.count > 0 {
                out.push_str(&format!(
                    "{:<28} count={} mean={:.1} p50={:.0} p90={:.0} p99={:.0} p999={:.0} max={}\n",
                    name,
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999(),
                    h.max,
                ));
            }
        }
        for (i, s) in self.shards.iter().enumerate() {
            if !s.is_zero() {
                out.push_str(&format!(
                    "shard[{i}]                     items={} batches={} queries={}\n",
                    s.items, s.batches, s.queries,
                ));
            }
        }
        out
    }

    /// Single JSON object: counters inline, histograms as sub-objects,
    /// shard/family dimensions as arrays.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_object("counters");
        for &(name, v) in &self.counters {
            w.field_u64(name, v);
        }
        w.end_object();
        w.field_object("histograms");
        for (name, h) in &self.hists {
            w.field_object(name);
            h.write_json_fields(w);
            w.end_object();
        }
        w.end_object();
        w.field_array("shards");
        for s in &self.shards {
            w.begin_object();
            w.field_u64("items", s.items);
            w.field_u64("batches", s.batches);
            w.field_u64("queries", s.queries);
            w.end_object();
        }
        w.end_array();
        w.field_array("families");
        for &f in &self.families {
            w.value_u64(f);
        }
        w.end_array();
        w.end_object();
    }

    /// Parse a snapshot previously rendered by [`Self::to_json`] (the
    /// wire format of the STATS response). Counter and histogram names
    /// are mapped back onto the known [`MetricId`]/[`HistId`] sets;
    /// names this build doesn't know (a newer peer) are dropped, and
    /// names the peer didn't send default to zero/empty. Quantiles are
    /// recomputed locally from the transported buckets.
    pub fn from_json(s: &str) -> Result<MetricsSnapshot, String> {
        let v = JsonValue::parse(s)?;
        let counters_obj = v.get("counters").ok_or("missing \"counters\"")?;
        let counters = MetricId::ALL
            .iter()
            .map(|&id| {
                let val = counters_obj
                    .get(id.name())
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                (id.name(), val)
            })
            .collect();
        let hists_obj = v.get("histograms").ok_or("missing \"histograms\"")?;
        let mut hists = Vec::with_capacity(NUM_HISTS);
        for &id in HistId::ALL.iter() {
            let h = match hists_obj.get(id.name()) {
                Some(h) => parse_hist(h)?,
                None => HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    buckets: Vec::new(),
                },
            };
            hists.push((id.name(), h));
        }
        let mut shards = Vec::new();
        if let Some(arr) = v.get("shards").and_then(JsonValue::as_array) {
            for s in arr {
                shards.push(ShardStats {
                    items: s.get("items").and_then(JsonValue::as_u64).unwrap_or(0),
                    batches: s.get("batches").and_then(JsonValue::as_u64).unwrap_or(0),
                    queries: s.get("queries").and_then(JsonValue::as_u64).unwrap_or(0),
                });
            }
        }
        let families = v
            .get("families")
            .and_then(JsonValue::as_array)
            .map(|arr| arr.iter().filter_map(JsonValue::as_u64).collect())
            .unwrap_or_default();
        Ok(MetricsSnapshot {
            counters,
            hists,
            shards,
            families,
        })
    }

    /// Prometheus text exposition (version 0.0.4): every counter as a
    /// `counter` family, the shard/family dimensions as labelled
    /// counters, and every histogram in the standard
    /// `_bucket{le=…}`/`_sum`/`_count` cumulative form.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        if !self.shards.is_empty() {
            out.push_str("# TYPE engine_shard_items_total counter\n");
            for (i, s) in self.shards.iter().enumerate() {
                out.push_str(&format!(
                    "engine_shard_items_total{{shard=\"{i}\"}} {}\n",
                    s.items
                ));
            }
            out.push_str("# TYPE engine_shard_batches_total counter\n");
            for (i, s) in self.shards.iter().enumerate() {
                out.push_str(&format!(
                    "engine_shard_batches_total{{shard=\"{i}\"}} {}\n",
                    s.batches
                ));
            }
            out.push_str("# TYPE engine_shard_queries_total counter\n");
            for (i, s) in self.shards.iter().enumerate() {
                out.push_str(&format!(
                    "engine_shard_queries_total{{shard=\"{i}\"}} {}\n",
                    s.queries
                ));
            }
        }
        if self.families.iter().any(|&f| f > 0) {
            out.push_str("# TYPE engine_family_items_total counter\n");
            for (i, &f) in self.families.iter().enumerate() {
                out.push_str(&format!(
                    "engine_family_items_total{{family=\"{i}\"}} {f}\n"
                ));
            }
        }
        for (name, h) in &self.hists {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for &(_lo, hi, c) in &h.buckets {
                cumulative += c;
                out.push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

fn parse_hist(h: &JsonValue) -> Result<HistogramSnapshot, String> {
    let field = |name: &str| h.get(name).and_then(JsonValue::as_u64).unwrap_or(0);
    let mut buckets = Vec::new();
    if let Some(arr) = h.get("buckets").and_then(JsonValue::as_array) {
        for b in arr {
            let b = b.as_array().ok_or("histogram bucket is not an array")?;
            if b.len() != 3 {
                return Err("histogram bucket is not a [lo, hi, count] triple".into());
            }
            let lo = b[0].as_u64().ok_or("bucket lo is not a u64")?;
            let hi = b[1].as_u64().ok_or("bucket hi is not a u64")?;
            let c = b[2].as_u64().ok_or("bucket count is not a u64")?;
            buckets.push((lo, hi, c));
        }
    }
    Ok(HistogramSnapshot {
        count: field("count"),
        sum: field("sum"),
        min: field("min"),
        max: field("max"),
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_and_observes() {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::CliItems, 3);
        reg.incr(MetricId::CliItems, 2);
        reg.observe(HistId::PushLatencyNs, 100);
        reg.observe(HistId::PushLatencyNs, 300);
        assert_eq!(reg.counter(MetricId::CliItems), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cli_items_total"), Some(5));
        assert_eq!(snap.counter("cli_queries_total"), Some(0));
        let h = snap.hist("push_latency_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 100);
    }

    #[test]
    fn shard_and_family_dimensions() {
        let reg = MetricsRegistry::new();
        reg.incr_shard(0, ShardStat::Items, 10);
        reg.incr_shard(2, ShardStat::Items, 7);
        reg.incr_shard(2, ShardStat::Batches, 1);
        reg.incr_shard(2, ShardStat::Queries, 3);
        reg.incr_family(5, 4);
        reg.incr_family(5 + NUM_KEY_FAMILIES, 1); // masks into slot 5
        assert_eq!(reg.shard_stat(2, ShardStat::Items), 7);
        let snap = reg.snapshot();
        // Trailing zero shards trimmed: highest touched shard is 2.
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(snap.shards[0].items, 10);
        assert!(snap.shards[1].is_zero());
        assert_eq!(
            snap.shards[2],
            ShardStats {
                items: 7,
                batches: 1,
                queries: 3
            }
        );
        assert_eq!(snap.families.len(), NUM_KEY_FAMILIES);
        assert_eq!(snap.families[5], 5);
    }

    #[test]
    fn out_of_range_shards_fold_into_last_slot() {
        let reg = MetricsRegistry::new();
        reg.incr_shard(MAX_TRACKED_SHARDS + 10, ShardStat::Items, 2);
        reg.incr_shard(1, ShardStat::Items, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.shards.len(), MAX_TRACKED_SHARDS);
        let total: u64 = snap.shards.iter().map(|s| s.items).sum();
        assert_eq!(total, 5, "folding keeps the shard sum equal to the global");
    }

    #[test]
    fn text_elides_zeroes() {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::WavePushesTotal, 7);
        let text = reg.snapshot().to_text();
        assert!(text.contains("wave_pushes_total"));
        assert!(!text.contains("cli_items_total"));
    }

    #[test]
    fn json_shape_is_parsable_by_eye() {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::WaveQueriesExact, 1);
        reg.observe(HistId::QueryLatencyNs, 50);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""wave_queries_exact":1"#));
        assert!(json.contains(r#""query_latency_ns":{"count":1"#));
        // Every name appears exactly once, even at zero, so downstream
        // JSON consumers get a stable schema.
        assert!(json.contains(r#""eh_pushes_total":0"#));
        // Full bucket detail rides along for remote quantiles.
        assert!(json.contains(r#""buckets":[[50,51,1]]"#));
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::EngineItemsIngested, 1234);
        reg.observe(HistId::NetRequestNs, 800);
        reg.observe(HistId::NetRequestNs, 80_000);
        reg.incr_shard(0, ShardStat::Items, 1000);
        reg.incr_shard(1, ShardStat::Items, 234);
        reg.incr_family(3, 1234);
        let snap = reg.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // Quantiles recompute identically from transported buckets.
        assert_eq!(
            parsed.hist("net_request_ns").unwrap().p99(),
            snap.hist("net_request_ns").unwrap().p99()
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{}").is_err());
    }

    #[test]
    fn prometheus_exposition_is_pinned() {
        let snap = MetricsSnapshot {
            counters: vec![("cli_items_total", 3), ("net_frames_sent_total", 0)],
            hists: vec![(
                "query_latency_ns",
                HistogramSnapshot {
                    count: 3,
                    sum: 36,
                    min: 2,
                    max: 20,
                    buckets: vec![(2, 2, 2), (20, 21, 1)],
                },
            )],
            shards: vec![
                ShardStats {
                    items: 5,
                    batches: 1,
                    queries: 0,
                },
                ShardStats {
                    items: 3,
                    batches: 1,
                    queries: 2,
                },
            ],
            families: vec![0, 8],
        };
        let expected = "\
# TYPE cli_items_total counter
cli_items_total 3
# TYPE net_frames_sent_total counter
net_frames_sent_total 0
# TYPE engine_shard_items_total counter
engine_shard_items_total{shard=\"0\"} 5
engine_shard_items_total{shard=\"1\"} 3
# TYPE engine_shard_batches_total counter
engine_shard_batches_total{shard=\"0\"} 1
engine_shard_batches_total{shard=\"1\"} 1
# TYPE engine_shard_queries_total counter
engine_shard_queries_total{shard=\"0\"} 0
engine_shard_queries_total{shard=\"1\"} 2
# TYPE engine_family_items_total counter
engine_family_items_total{family=\"0\"} 0
engine_family_items_total{family=\"1\"} 8
# TYPE query_latency_ns histogram
query_latency_ns_bucket{le=\"2\"} 2
query_latency_ns_bucket{le=\"21\"} 3
query_latency_ns_bucket{le=\"+Inf\"} 3
query_latency_ns_sum 36
query_latency_ns_count 3
";
        assert_eq!(snap.to_prometheus(), expected);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::EhPushes, 9);
        reg.observe(HistId::EhCascadeLen, 4);
        reg.incr_shard(1, ShardStat::Items, 2);
        reg.incr_family(2, 2);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("eh_pushes_total"), Some(0));
        assert_eq!(snap.hist("eh_cascade_len").unwrap().count, 0);
        assert!(snap.shards.is_empty());
        assert!(snap.families.iter().all(|&f| f == 0));
    }

    #[test]
    fn recorder_hook_returns_live_snapshot() {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::CliItems, 2);
        let snap = Recorder::metrics_snapshot(&reg).unwrap();
        assert_eq!(snap.counter("cli_items_total"), Some(2));
    }

    #[test]
    fn shared_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        reg.incr(MetricId::PartyMessagesSent, 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter(MetricId::PartyMessagesSent), 4_000);
    }
}
