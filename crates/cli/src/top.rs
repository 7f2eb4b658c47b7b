//! The `top` subcommand: a live dashboard over a running server's
//! metrics, polled via the wire STATS frame.
//!
//! Each tick fetches the server's full [`MetricsSnapshot`] and redraws:
//! ingest/query *rates* (deltas between consecutive snapshots divided
//! by the poll interval), request-latency quantiles recomputed locally
//! from the transported histogram buckets, a per-shard load bar chart,
//! and health flags (backpressure seen, WAL degraded to in-memory).
//!
//! `--once` prints a single frame with no screen control; with `--json`
//! or `--prometheus` the raw snapshot is printed in that format instead
//! — the scriptable faces of the same data.

use std::io::Write;
use std::time::Duration;

use crate::args::Config;
use waves_net::Client;
use waves_obs::{MetricsSnapshot, ShardStats};

/// ANSI clear-screen + cursor-home, written before each live frame.
const CLEAR: &str = "\x1b[2J\x1b[H";

/// Width of a full per-shard load bar, in characters.
const BAR_WIDTH: usize = 24;

/// Run the `top` subcommand against a running server.
pub fn run_top<W: Write>(cfg: &Config, out: &mut W) -> Result<(), String> {
    let mut client = Client::connect(&cfg.addr as &str).map_err(|e| e.to_string())?;
    if cfg.once {
        let snap = client.stats().map_err(|e| e.to_string())?;
        let rendered = if cfg.prometheus {
            snap.to_prometheus()
        } else if cfg.json {
            let mut j = snap.to_json();
            j.push('\n');
            j
        } else {
            render_dashboard(&cfg.addr, None, &snap, 0.0)
        };
        write!(out, "{rendered}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        return Ok(());
    }
    let interval = Duration::from_millis(cfg.interval_ms);
    let mut prev: Option<MetricsSnapshot> = None;
    let mut tick = 0u64;
    loop {
        let snap = client.stats().map_err(|e| e.to_string())?;
        let dt = if prev.is_some() {
            interval.as_secs_f64()
        } else {
            0.0
        };
        let frame = render_dashboard(&cfg.addr, prev.as_ref(), &snap, dt);
        write!(out, "{CLEAR}{frame}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        prev = Some(snap);
        tick += 1;
        if cfg.ticks.is_some_and(|n| tick >= n) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

/// Per-second rate of a counter between two snapshots; `None` without a
/// previous snapshot to difference against (the first tick).
fn rate(prev: Option<&MetricsSnapshot>, cur: &MetricsSnapshot, name: &str, dt: f64) -> Option<f64> {
    let prev = prev?;
    if dt <= 0.0 {
        return None;
    }
    Some(counter(cur, name).saturating_sub(counter(prev, name)) as f64 / dt)
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:>10.1}/s"),
        None => format!("{:>12}", "-"),
    }
}

fn bar(value: u64, max: u64) -> String {
    let filled = if max == 0 {
        0
    } else {
        ((value as u128 * BAR_WIDTH as u128) / max as u128) as usize
    };
    let mut s = String::with_capacity(BAR_WIDTH);
    for i in 0..BAR_WIDTH {
        s.push(if i < filled { '#' } else { ' ' });
    }
    s
}

/// Render one dashboard frame. Pure: everything on screen is a function
/// of the two snapshots and the poll interval, so tests can pin the
/// layout without a server.
pub fn render_dashboard(
    addr: &str,
    prev: Option<&MetricsSnapshot>,
    cur: &MetricsSnapshot,
    dt: f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("waves top — {addr}\n\n"));

    let ingested = counter(cur, "engine_items_ingested_total");
    let queries = counter(cur, "engine_queries_served_total");
    let errors = counter(cur, "net_request_errors_total");
    let slow = counter(cur, "net_slow_requests_total");
    out.push_str(&format!(
        "ingest   {ingested:>12} items {}\n",
        fmt_rate(rate(prev, cur, "engine_items_ingested_total", dt))
    ));
    out.push_str(&format!(
        "queries  {queries:>12}       {}\n",
        fmt_rate(rate(prev, cur, "engine_queries_served_total", dt))
    ));
    out.push_str(&format!(
        "net      {:>12} B rx  {:>10} B tx   errors {errors}  slow {slow}\n",
        counter(cur, "net_bytes_received_total"),
        counter(cur, "net_bytes_sent_total"),
    ));

    out.push_str("\nlatency (ns)            p50        p99        max\n");
    for (label, name) in [
        ("server frame", "net_server_frame_ns"),
        ("engine batch", "engine_ingest_batch_ns"),
        ("engine query", "engine_query_ns"),
        ("wal append", "store_wal_append_ns"),
        ("fsync", "store_fsync_ns"),
    ] {
        if let Some(h) = cur.hist(name) {
            if h.count > 0 {
                out.push_str(&format!(
                    "{label:<18} {:>10.0} {:>10.0} {:>10}\n",
                    h.p50(),
                    h.p99(),
                    h.max
                ));
            }
        }
    }

    if !cur.shards.is_empty() {
        out.push_str("\nshards (items)\n");
        let max_items = cur.shards.iter().map(|s| s.items).max().unwrap_or(0);
        for (i, s) in cur.shards.iter().enumerate() {
            let delta = prev
                .and_then(|p| p.shards.get(i))
                .copied()
                .unwrap_or(ShardStats::default());
            let item_rate = if dt > 0.0 && prev.is_some() {
                format!("{:>8.1}/s", s.items.saturating_sub(delta.items) as f64 / dt)
            } else {
                format!("{:>10}", "-")
            };
            out.push_str(&format!(
                "  {i:>2} [{}] {:>10} {item_rate}  q={}\n",
                bar(s.items, max_items),
                s.items,
                s.queries
            ));
        }
    }

    let mut flags = Vec::new();
    if counter(cur, "engine_backpressure_events_total") > 0 {
        flags.push("BACKPRESSURE");
    }
    if counter(cur, "store_wal_disabled_total") > 0 {
        flags.push("WAL-DEGRADED");
    }
    if !flags.is_empty() {
        out.push_str(&format!("\nflags: {}\n", flags.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_obs::{HistId, MetricId, MetricsRegistry, Recorder, ShardStat};

    fn snap_with(items: u64, queries: u64) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.incr(MetricId::EngineItemsIngested, items);
        reg.incr(MetricId::EngineQueriesServed, queries);
        reg.incr_shard(0, ShardStat::Items, items / 2);
        reg.incr_shard(1, ShardStat::Items, items - items / 2);
        reg.observe(HistId::EngineQueryNs, 1000);
        reg.snapshot()
    }

    #[test]
    fn first_frame_has_totals_but_no_rates() {
        let cur = snap_with(100, 7);
        let frame = render_dashboard("127.0.0.1:4600", None, &cur, 0.0);
        assert!(frame.contains("waves top — 127.0.0.1:4600"), "{frame}");
        assert!(frame.contains("100 items"), "{frame}");
        assert!(!frame.contains("/s"), "no rates without a previous frame");
    }

    #[test]
    fn rates_are_deltas_over_the_interval() {
        let prev = snap_with(100, 0);
        let cur = snap_with(350, 10);
        let frame = render_dashboard("a", Some(&prev), &cur, 2.0);
        // (350 - 100) items / 2 s = 125.0/s; (10 - 0) queries / 2 s.
        assert!(frame.contains("125.0/s"), "{frame}");
        assert!(frame.contains("5.0/s"), "{frame}");
    }

    #[test]
    fn shard_bars_scale_to_the_busiest_shard() {
        let reg = MetricsRegistry::new();
        reg.incr_shard(0, ShardStat::Items, 100);
        reg.incr_shard(1, ShardStat::Items, 50);
        let frame = render_dashboard("a", None, &reg.snapshot(), 0.0);
        let full: String = "#".repeat(BAR_WIDTH);
        let half: String = "#".repeat(BAR_WIDTH / 2);
        assert!(frame.contains(&format!("[{full}]")), "{frame}");
        assert!(
            frame.contains(&format!("[{half}{}]", " ".repeat(BAR_WIDTH / 2))),
            "{frame}"
        );
    }

    #[test]
    fn health_flags_appear_only_when_set() {
        let reg = MetricsRegistry::new();
        let clean = render_dashboard("a", None, &reg.snapshot(), 0.0);
        assert!(!clean.contains("flags:"), "{clean}");
        reg.incr(MetricId::EngineBackpressureEvents, 1);
        reg.incr(MetricId::StoreWalDisabled, 1);
        let flagged = render_dashboard("a", None, &reg.snapshot(), 0.0);
        assert!(flagged.contains("BACKPRESSURE"), "{flagged}");
        assert!(flagged.contains("WAL-DEGRADED"), "{flagged}");
    }

    #[test]
    fn once_modes_against_a_loopback_server() {
        use crate::args::Mode;
        use std::sync::Arc;
        use waves_engine::EngineConfig;
        use waves_net::{Server, ServerConfig};
        use waves_obs::JsonValue;

        let reg = Arc::new(MetricsRegistry::new());
        let server = Server::start_recorded(
            "127.0.0.1:0",
            ServerConfig {
                engine: EngineConfig::builder()
                    .num_shards(2)
                    .max_window(64)
                    .eps(0.25)
                    .build(),
                ..Default::default()
            },
            reg.clone(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .ingest(waves_engine::IngestRequest::of(1, [true, true, true]))
            .unwrap();
        client.flush().unwrap();

        let cfg = Config {
            mode: Mode::Top,
            addr: server.local_addr().to_string(),
            once: true,
            json: true,
            ..Config::default()
        };
        let mut out = Vec::new();
        run_top(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        let ingested = v
            .get("counters")
            .and_then(|c| c.get("engine_items_ingested_total"))
            .and_then(JsonValue::as_u64)
            .unwrap();
        assert_eq!(ingested, 3, "{text}");

        let cfg = Config {
            prometheus: true,
            json: false,
            ..cfg
        };
        let mut out = Vec::new();
        run_top(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("engine_items_ingested_total 3"), "{text}");
        assert!(text.contains("# TYPE engine_shard_items_total counter"));

        // The human dashboard path, one frame, no screen control.
        let cfg = Config {
            prometheus: false,
            ..cfg
        };
        let mut out = Vec::new();
        run_top(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("waves top — "), "{text}");
        assert!(!text.contains('\x1b'), "--once must not clear the screen");
    }

    #[test]
    fn latency_rows_render_quantiles() {
        let reg = MetricsRegistry::new();
        for v in [100, 200, 10_000] {
            reg.observe(HistId::EngineQueryNs, v);
        }
        let frame = render_dashboard("a", None, &reg.snapshot(), 0.0);
        assert!(frame.contains("engine query"), "{frame}");
        // Empty hists are elided.
        assert!(!frame.contains("wal append"), "{frame}");
    }
}
