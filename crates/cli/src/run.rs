//! The stream-processing loop behind the CLI.

use crate::args::{Config, Mode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::time::Instant;
use waves_core::{DetWave, Estimate, SlidingAverage, SumWave, WaveError};
use waves_obs::{HistId, JsonWriter, MetricId, MetricsRegistry, NoopRecorder, Recorder};
use waves_rand::{DistinctParty, RandConfig, Referee};

/// One synopsis, dispatched by mode.
enum Synopsis {
    Count(DetWave),
    Sum(SumWave),
    Distinct {
        party: DistinctParty,
        referee: Referee,
    },
    Average(SlidingAverage),
}

impl Synopsis {
    fn build(cfg: &Config) -> Result<Self, String> {
        match cfg.mode {
            Mode::Count => Ok(Synopsis::Count(
                DetWave::new(cfg.window, cfg.eps).map_err(|e| e.to_string())?,
            )),
            Mode::Sum => Ok(Synopsis::Sum(
                SumWave::new(cfg.window, cfg.max_value, cfg.eps).map_err(|e| e.to_string())?,
            )),
            Mode::Average => Ok(Synopsis::Average(
                SlidingAverage::with_eps(
                    cfg.window,
                    // U: items per window; default to window * 16.
                    cfg.window.saturating_mul(16),
                    cfg.max_value,
                    cfg.eps,
                )
                .map_err(|e| e.to_string())?,
            )),
            Mode::Serve | Mode::Client | Mode::Top | Mode::Dst => Err(
                "serve/client/top/dst modes take no stdin stream; they are handled before the \
                 stream loop"
                    .into(),
            ),
            Mode::Distinct => {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let rc =
                    RandConfig::for_values(cfg.window, cfg.max_value, cfg.eps, cfg.delta, &mut rng)
                        .map_err(|e| e.to_string())?;
                Ok(Synopsis::Distinct {
                    party: DistinctParty::new(&rc),
                    referee: Referee::new(rc),
                })
            }
        }
    }

    fn push(&mut self, v: u64, rec: &dyn Recorder) -> Result<(), String> {
        match self {
            Synopsis::Count(w) => {
                if v > 1 {
                    return Err(format!("count mode expects 0/1, got {v}"));
                }
                w.push_bit_recorded(v == 1, rec);
                Ok(())
            }
            Synopsis::Sum(w) => w.push_value_recorded(v, rec).map_err(|e| e.to_string()),
            Synopsis::Distinct { party, .. } => {
                party.push(v);
                Ok(())
            }
            Synopsis::Average(_) => unreachable!("average uses push_record"),
        }
    }

    fn push_record(&mut self, ts: u64, v: u64) -> Result<(), String> {
        match self {
            Synopsis::Average(a) => a.push(ts, v).map_err(|e| e.to_string()),
            _ => Err("this mode expects single-token items".into()),
        }
    }

    fn query(&self, n: u64, rec: &dyn Recorder) -> Result<String, String> {
        match self {
            Synopsis::Count(w) => classified(w.query(n), rec),
            Synopsis::Sum(w) => classified(w.query(n), rec),
            Synopsis::Distinct { party, referee } => {
                let msg = party.message(n).map_err(|e| e.to_string())?;
                let s = (party.pos() + 1).saturating_sub(n);
                let est = referee.estimate(&[msg], s);
                Ok(format!("estimate {est}"))
            }
            Synopsis::Average(a) => match a.query().map_err(|e| e.to_string())? {
                Some(r) => Ok(format!(
                    "estimate {:.4} in [{:.4}, {:.4}]",
                    r.value, r.lo, r.hi
                )),
                None => Ok("estimate undefined (no items provably in window)".into()),
            },
        }
    }

    fn window(&self) -> u64 {
        match self {
            Synopsis::Count(w) => w.max_window(),
            Synopsis::Sum(w) => w.max_window(),
            Synopsis::Distinct { party: _, referee } => referee.config().max_window(),
            Synopsis::Average(a) => a.window(),
        }
    }

    /// The `! json` line: the space report (or this mode's equivalent
    /// stats) as one JSON object.
    fn stats_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        match self {
            Synopsis::Count(wave) => {
                let r = wave.space_report();
                w.field_str("mode", "count");
                w.field_u64("pos", wave.pos());
                w.field_u64("rank", wave.rank());
                w.field_u64("entries", r.entries as u64);
                w.field_u64("synopsis_bits", r.synopsis_bits);
                w.field_u64("resident_bytes", r.resident_bytes as u64);
            }
            Synopsis::Sum(wave) => {
                let r = wave.space_report();
                w.field_str("mode", "sum");
                w.field_u64("pos", wave.pos());
                w.field_u64("total", wave.total());
                w.field_u64("entries", r.entries as u64);
                w.field_u64("synopsis_bits", r.synopsis_bits);
                w.field_u64("resident_bytes", r.resident_bytes as u64);
            }
            Synopsis::Distinct { party, referee } => {
                w.field_str("mode", "distinct");
                w.field_u64("pos", party.pos());
                w.field_u64("stored", party.stored() as u64);
                w.field_u64("instances", referee.config().instances() as u64);
                w.field_u64("levels", referee.config().degree() as u64 + 1);
            }
            Synopsis::Average(a) => {
                w.field_str("mode", "average");
                w.field_u64("window", a.window());
                w.field_f64("eps", a.eps());
            }
        }
        w.end_object();
        w.finish()
    }

    fn stats(&self) -> String {
        match self {
            Synopsis::Count(w) => {
                let r = w.space_report();
                format!(
                    "pos {} rank {} entries {} synopsis_bits {} resident_bytes {}",
                    w.pos(),
                    w.rank(),
                    r.entries,
                    r.synopsis_bits,
                    r.resident_bytes
                )
            }
            Synopsis::Sum(w) => {
                let r = w.space_report();
                format!(
                    "pos {} total {} entries {} synopsis_bits {} resident_bytes {}",
                    w.pos(),
                    w.total(),
                    r.entries,
                    r.synopsis_bits,
                    r.resident_bytes
                )
            }
            Synopsis::Distinct { party, referee } => format!(
                "pos {} stored {} instances {} levels {}",
                party.pos(),
                party.stored(),
                referee.config().instances(),
                referee.config().degree() + 1
            ),
            Synopsis::Average(a) => format!("window {} eps {}", a.window(), a.eps()),
        }
    }
}

/// Render a count or sum answer, counting it in `wave_queries_exact`
/// or `wave_queries_approx`: how often the synopsis answers with zero
/// error.
fn classified(est: Result<Estimate, WaveError>, rec: &dyn Recorder) -> Result<String, String> {
    let est = est.map_err(|e| e.to_string())?;
    rec.incr(
        if est.exact {
            MetricId::WaveQueriesExact
        } else {
            MetricId::WaveQueriesApprox
        },
        1,
    );
    Ok(render(&est))
}

fn render(e: &Estimate) -> String {
    format!(
        "estimate {} in [{}, {}] ({})",
        e.value,
        e.lo,
        e.hi,
        if e.exact { "exact" } else { "approx" }
    )
}

/// Process the line protocol. Public for integration testing.
pub fn run<I, W>(cfg: Config, lines: &mut I, out: &mut W) -> Result<(), String>
where
    I: Iterator<Item = std::io::Result<String>>,
    W: Write,
{
    let mut syn = Synopsis::build(&cfg)?;
    // Under --stats every push and query is timed and counted; without
    // it the noop recorder keeps the hot path identical to the plain
    // library calls.
    let registry = cfg.stats.then(MetricsRegistry::new);
    let noop = NoopRecorder;
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let tok = line.trim();
        if tok.is_empty() || tok.starts_with('#') {
            continue;
        }
        if let Some(rest) = tok.strip_prefix('?') {
            let n = rest.trim();
            let n = if n.is_empty() {
                syn.window()
            } else {
                n.parse::<u64>()
                    .map_err(|_| format!("line {}: bad query '{tok}'", lineno + 1))?
            };
            let ans = match &registry {
                Some(reg) => {
                    let started = Instant::now();
                    let ans = syn.query(n, reg);
                    reg.observe(HistId::QueryLatencyNs, started.elapsed().as_nanos() as u64);
                    reg.incr(MetricId::CliQueries, 1);
                    ans
                }
                None => syn.query(n, &noop),
            }
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            writeln!(out, "{ans}").map_err(|e| e.to_string())?;
            continue;
        }
        if let Some(rest) = tok.strip_prefix('!') {
            match rest.trim() {
                "" => {
                    writeln!(out, "{}", syn.stats()).map_err(|e| e.to_string())?;
                    if let Some(reg) = &registry {
                        write_metrics(reg, cfg.json, out)?;
                    }
                }
                "json" => {
                    writeln!(out, "{}", syn.stats_json()).map_err(|e| e.to_string())?;
                }
                _ => {
                    return Err(format!("line {}: bad command '{tok}'", lineno + 1));
                }
            }
            continue;
        }
        if matches!(syn, Synopsis::Average(_)) {
            let mut parts = tok.split_whitespace();
            let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!(
                    "line {}: average mode expects '<ts> <value>'",
                    lineno + 1
                ));
            };
            let ts: u64 = a
                .parse()
                .map_err(|_| format!("line {}: bad timestamp '{a}'", lineno + 1))?;
            let v: u64 = b
                .parse()
                .map_err(|_| format!("line {}: bad value '{b}'", lineno + 1))?;
            let started = registry.as_ref().map(|_| Instant::now());
            syn.push_record(ts, v)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if let (Some(reg), Some(t0)) = (&registry, started) {
                reg.observe(HistId::PushLatencyNs, t0.elapsed().as_nanos() as u64);
                reg.incr(MetricId::CliItems, 1);
            }
            continue;
        }
        let v: u64 = tok
            .parse()
            .map_err(|_| format!("line {}: bad item '{tok}'", lineno + 1))?;
        match &registry {
            Some(reg) => {
                let started = Instant::now();
                let res = syn.push(v, reg);
                reg.observe(HistId::PushLatencyNs, started.elapsed().as_nanos() as u64);
                reg.incr(MetricId::CliItems, 1);
                res
            }
            None => syn.push(v, &noop),
        }
        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    if let Some(reg) = &registry {
        write_metrics(reg, cfg.json, out)?;
    }
    Ok(())
}

/// Dump a metrics snapshot: multi-line text, or one JSON line.
pub(crate) fn write_metrics<W: Write>(
    reg: &MetricsRegistry,
    json: bool,
    out: &mut W,
) -> Result<(), String> {
    let snap = reg.snapshot();
    if json {
        writeln!(out, "{}", snap.to_json()).map_err(|e| e.to_string())
    } else {
        write!(out, "{}", snap.to_text()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Config, Mode};

    fn run_lines(cfg: Config, input: &str) -> Result<String, String> {
        let mut lines = input.lines().map(|l| Ok(l.to_string()));
        let mut out = Vec::new();
        run(cfg, &mut lines, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn count_cfg(window: u64) -> Config {
        Config {
            mode: Mode::Count,
            window,
            eps: 0.5,
            delta: 0.05,
            max_value: 1,
            seed: 1,
            ..Config::default()
        }
    }

    #[test]
    fn count_protocol() {
        let out = run_lines(count_cfg(8), "1\n0\n1\n?\n").unwrap();
        assert!(out.contains("estimate 2"), "{out}");
        assert!(out.contains("exact"));
    }

    #[test]
    fn sub_window_query() {
        let input = "1\n1\n1\n1\n? 2\n";
        let out = run_lines(count_cfg(8), input).unwrap();
        assert!(out.contains("estimate 2"), "{out}");
    }

    #[test]
    fn stats_line() {
        let out = run_lines(count_cfg(8), "1\n!\n").unwrap();
        assert!(out.contains("pos 1 rank 1"), "{out}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let out = run_lines(count_cfg(8), "# hi\n\n1\n?\n").unwrap();
        assert!(out.contains("estimate 1"), "{out}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = run_lines(count_cfg(8), "1\nbanana\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = run_lines(count_cfg(8), "7\n").unwrap_err();
        assert!(err.contains("expects 0/1"), "{err}");
    }

    #[test]
    fn sum_mode() {
        let cfg = Config {
            mode: Mode::Sum,
            window: 4,
            eps: 0.25,
            delta: 0.05,
            max_value: 100,
            seed: 1,
            ..Config::default()
        };
        let out = run_lines(cfg.clone(), "10\n20\n30\n40\n50\n?\n").unwrap();
        // Window of 4: 20+30+40+50 = 140.
        assert!(out.contains("140"), "{out}");
        // Under --stats each answer is classified, as in count mode.
        let stats = Config {
            stats: true,
            json: true,
            ..cfg
        };
        let out = run_lines(stats, "10\n20\n30\n?\n? 2\n? 1\n").unwrap();
        let snap = waves_obs::MetricsSnapshot::from_json(out.lines().last().unwrap()).unwrap();
        let answered = ["wave_queries_exact", "wave_queries_approx"]
            .map(|name| snap.counter(name).unwrap())
            .iter()
            .sum::<u64>();
        assert_eq!(answered, 3, "{out}");
    }

    #[test]
    fn distinct_mode() {
        let cfg = Config {
            mode: Mode::Distinct,
            window: 8,
            eps: 0.5,
            delta: 0.3,
            max_value: 255,
            seed: 1,
            ..Config::default()
        };
        let out = run_lines(cfg, "5\n5\n9\n5\n?\n").unwrap();
        assert!(out.contains("estimate 2"), "{out}");
    }

    #[test]
    fn average_mode_two_token_protocol() {
        let cfg = Config {
            mode: Mode::Average,
            window: 8,
            eps: 0.25,
            delta: 0.05,
            max_value: 100,
            seed: 1,
            ..Config::default()
        };
        let out = run_lines(cfg.clone(), "1 10\n2 20\n3 30\n?\n").unwrap();
        assert!(out.contains("estimate 20"), "{out}");
        // Malformed record.
        let err = run_lines(cfg.clone(), "1\n").unwrap_err();
        assert!(err.contains("expects"), "{err}");
        // Regressing timestamps surface the library error.
        let err = run_lines(cfg, "5 1\n4 1\n").unwrap_err();
        assert!(err.contains("before"), "{err}");
    }

    #[test]
    fn oversized_query_is_an_error() {
        let err = run_lines(count_cfg(8), "1\n? 9\n").unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn stats_flag_dumps_metrics_text() {
        let mut cfg = count_cfg(8);
        cfg.stats = true;
        let out = run_lines(cfg, "1\n0\n1\n?\n? 2\n").unwrap();
        assert!(out.contains("== metrics =="), "{out}");
        assert!(out.contains("cli_items_total              3"), "{out}");
        assert!(out.contains("cli_queries_total            2"), "{out}");
        // Wave structural counters flow through from the recorded path.
        assert!(out.contains("wave_pushes_total            3"), "{out}");
        assert!(out.contains("wave_ones_total              2"), "{out}");
        // Exact-vs-approx classification: tiny stream, both exact.
        assert!(out.contains("wave_queries_exact           2"), "{out}");
        // Latency quantiles from the timed push path.
        assert!(out.contains("push_latency_ns"), "{out}");
        assert!(out.contains("p999="), "{out}");
        assert!(out.contains("query_latency_ns"), "{out}");
    }

    #[test]
    fn json_flag_dumps_metrics_json() {
        let mut cfg = count_cfg(8);
        cfg.stats = true;
        cfg.json = true;
        let out = run_lines(cfg, "1\n0\n?\n").unwrap();
        // Last line is one JSON object with counters and histograms.
        let last = out.lines().last().unwrap();
        assert!(last.starts_with('{') && last.ends_with('}'), "{last}");
        assert!(last.contains(r#""cli_items_total":2"#), "{last}");
        assert!(last.contains(r#""cli_queries_total":1"#), "{last}");
        assert!(last.contains(r#""wave_queries_exact":1"#), "{last}");
        assert!(last.contains(r#""push_latency_ns":{"count":2"#), "{last}");
        assert!(last.contains(r#""p999":"#), "{last}");
        // No metrics lines except the final dump (text stays clean).
        assert_eq!(out.matches("cli_items_total").count(), 1);
    }

    #[test]
    fn bang_json_emits_space_report_line() {
        let out = run_lines(count_cfg(8), "1\n1\n! json\n").unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("json stats line");
        assert!(line.contains(r#""mode":"count""#), "{line}");
        assert!(line.contains(r#""pos":2"#), "{line}");
        assert!(line.contains(r#""rank":2"#), "{line}");
        assert!(line.contains(r#""synopsis_bits":"#), "{line}");
        assert!(line.contains(r#""resident_bytes":"#), "{line}");
        assert!(line.contains(r#""entries":"#), "{line}");
        // Sum mode reports its own fields.
        let cfg = Config {
            mode: Mode::Sum,
            window: 4,
            eps: 0.25,
            delta: 0.05,
            max_value: 100,
            seed: 1,
            ..Config::default()
        };
        let out = run_lines(cfg, "10\n20\n! json\n").unwrap();
        assert!(out.contains(r#""mode":"sum""#), "{out}");
        assert!(out.contains(r#""total":30"#), "{out}");
    }

    #[test]
    fn bang_with_metrics_under_stats() {
        let mut cfg = count_cfg(8);
        cfg.stats = true;
        let out = run_lines(cfg, "1\n!\n").unwrap();
        // `!` prints the space line followed by the metrics snapshot.
        assert!(out.contains("pos 1 rank 1"), "{out}");
        let bang_idx = out.find("pos 1 rank 1").unwrap();
        let metrics_idx = out.find("== metrics ==").unwrap();
        assert!(metrics_idx > bang_idx);
    }

    #[test]
    fn bad_bang_command_is_an_error() {
        let err = run_lines(count_cfg(8), "! frob\n").unwrap_err();
        assert!(err.contains("bad command"), "{err}");
    }
}
