//! The `serve` and `client` subcommands: the `waves-net` wire protocol
//! from the command line.
//!
//! `serve` binds `--addr` (use port 0 for an ephemeral port), prints
//! `listening on <addr>` once accepting — scripts wait for that line —
//! and runs until a client sends a shutdown request. `client` dials a
//! server and performs the requested operations in a fixed order:
//! ping, ingest `--bits`, query, snapshot, shutdown; each prints one
//! line, so output is scriptable.

use crate::args::Config;
use crate::run::write_metrics;
use std::io::Write;
use std::sync::Arc;
use waves_net::{Client, ClientConfig, Server, ServerConfig};
use waves_obs::{MetricsRegistry, NoopRecorder, Recorder};

use waves_engine::{EngineConfig, IngestRequest};

/// Run the `serve` subcommand: host the engine until shut down.
///
/// The ready line goes to `out` and is flushed immediately so a parent
/// process piping our stdout can scrape the bound address before any
/// client exists.
pub fn run_serve<W: Write>(cfg: &Config, out: &mut W) -> Result<(), String> {
    let mut builder = EngineConfig::builder()
        .num_shards(cfg.shards)
        .max_window(cfg.window)
        .eps(cfg.eps);
    if let Some(pc) = cfg.persist_config() {
        builder = builder.persist_config(pc);
    }
    let ecfg = builder.build();
    let scfg = ServerConfig {
        engine: ecfg,
        ..Default::default()
    };
    let registry = cfg.stats.then(|| Arc::new(MetricsRegistry::new()));
    let server = Server::start_recorded(&cfg.addr as &str, scfg, recorder(&registry))
        .map_err(|e| e.to_string())?;
    writeln!(out, "listening on {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    server.wait();
    writeln!(out, "server stopped").map_err(|e| e.to_string())?;
    match &registry {
        Some(reg) => write_metrics(reg, cfg.json, out),
        None => Ok(()),
    }
}

/// The `--stats` registry as the one recorder, or [`NoopRecorder`].
fn recorder(registry: &Option<Arc<MetricsRegistry>>) -> Arc<dyn Recorder + Send + Sync> {
    match registry {
        Some(reg) => Arc::clone(reg) as _,
        None => Arc::new(NoopRecorder),
    }
}

/// Run the `client` subcommand against a running server.
pub fn run_client<W: Write>(cfg: &Config, out: &mut W) -> Result<(), String> {
    let registry = cfg.stats.then(|| Arc::new(MetricsRegistry::new()));
    let mut client = Client::connect_with(
        &cfg.addr as &str,
        ClientConfig::default(),
        recorder(&registry),
    )
    .map_err(|e| e.to_string())?;
    if cfg.ping {
        client.ping().map_err(|e| e.to_string())?;
        writeln!(out, "pong").map_err(|e| e.to_string())?;
    }
    if let Some(bits) = &cfg.bits {
        let parsed: waves_core::Bits = bits.chars().map(|c| c == '1').collect();
        let n = parsed.len();
        if cfg.repeat > 1 {
            // Pipelined path: one windowed submission with many ingest
            // frames in flight on the single connection.
            let reqs = (0..cfg.repeat).map(|_| IngestRequest::of(cfg.key, parsed.clone()));
            let acked = client.ingest_many(reqs, 32).map_err(|e| e.to_string())?;
            client.flush().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "ingested {n} bits x {acked} pipelined batches for key {}",
                cfg.key
            )
            .map_err(|e| e.to_string())?;
        } else {
            client
                .ingest(IngestRequest::of(cfg.key, parsed))
                .map_err(|e| e.to_string())?;
            client.flush().map_err(|e| e.to_string())?;
            writeln!(out, "ingested {n} bits for key {}", cfg.key).map_err(|e| e.to_string())?;
        }
    }
    if cfg.do_query {
        let est = client
            .query(cfg.key, cfg.window)
            .map_err(|e| e.to_string())?;
        writeln!(
            out,
            "key {}: estimate {} in [{}, {}] ({})",
            cfg.key,
            est.value,
            est.lo,
            est.hi,
            if est.exact { "exact" } else { "approx" }
        )
        .map_err(|e| e.to_string())?;
    }
    if cfg.net_snapshot {
        let snap = client.snapshot().map_err(|e| e.to_string())?;
        write!(out, "{}", snap.to_text()).map_err(|e| e.to_string())?;
    }
    if cfg.shutdown {
        client.shutdown_server().map_err(|e| e.to_string())?;
        writeln!(out, "server shutdown requested").map_err(|e| e.to_string())?;
    }
    match &registry {
        Some(reg) => write_metrics(reg, cfg.json, out),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Mode;

    /// End-to-end through the real binary paths: serve on an ephemeral
    /// port in a thread, drive the client functions against it, and
    /// check the printed protocol.
    #[test]
    fn serve_and_client_loopback() {
        let serve_cfg = Config {
            mode: Mode::Serve,
            addr: "127.0.0.1:0".into(),
            shards: 2,
            window: 128,
            eps: 0.25,
            ..Config::default()
        };
        // Start the server exactly as run_serve does, but keep the
        // handle so we can learn the port without parsing stdout.
        let ecfg = EngineConfig::builder()
            .num_shards(serve_cfg.shards)
            .max_window(serve_cfg.window)
            .eps(serve_cfg.eps)
            .build();
        let server = Server::start(
            &serve_cfg.addr as &str,
            ServerConfig {
                engine: ecfg,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let client_cfg = Config {
            mode: Mode::Client,
            addr: addr.to_string(),
            key: 9,
            bits: Some("110101".into()),
            do_query: true,
            ping: true,
            net_snapshot: true,
            window: 128,
            ..Config::default()
        };
        let mut out = Vec::new();
        run_client(&client_cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("pong"), "{text}");
        assert!(text.contains("ingested 6 bits for key 9"), "{text}");
        assert!(
            text.contains("key 9: estimate 4 in [4, 4] (exact)"),
            "{text}"
        );
        assert!(text.contains("== engine =="), "{text}");

        // Pipelined ingest: --repeat ships the batch N times through
        // `ingest_many` (windowed, many frames in flight), and the
        // query sees every copy.
        let repeat_cfg = Config {
            mode: Mode::Client,
            addr: addr.to_string(),
            key: 11,
            bits: Some("101".into()),
            repeat: 5,
            do_query: true,
            window: 128,
            ..Config::default()
        };
        let mut out = Vec::new();
        run_client(&repeat_cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("ingested 3 bits x 5 pipelined batches for key 11"),
            "{text}"
        );
        assert!(
            text.contains("key 11: estimate 10 in [10, 10] (exact)"),
            "{text}"
        );

        // Shutdown via the client path; the server handle drops after.
        let shutdown_cfg = Config {
            shutdown: true,
            ..client_cfg
        };
        let mut out = Vec::new();
        run_client(&shutdown_cfg, &mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("server shutdown requested"));
        server.wait();
    }

    #[test]
    fn client_surfaces_connect_failure() {
        // Dial a port nothing listens on: the error must be a clean
        // string (typed WaveError underneath), not a hang or panic.
        let cfg = Config {
            mode: Mode::Client,
            addr: "127.0.0.1:1".into(),
            ping: true,
            ..Config::default()
        };
        let mut out = Vec::new();
        let err = run_client(&cfg, &mut out).unwrap_err();
        assert!(
            err.contains("i/o error") || err.contains("timed out"),
            "{err}"
        );
    }
}
