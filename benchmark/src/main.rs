//! `waves-benchmark`: the repo's repeatable benchmark.
//!
//! ```text
//! waves-benchmark [run] [--all | --workload NAME] [--seed N] [--seconds S]
//!                 [--smoke] [--trace 0|1] [--trace-out FILE] [--json-out FILE]
//! waves-benchmark compare --a FILE... --b FILE...
//! ```
//!
//! See `README.md` beside this crate for the method and how to read the
//! output.

mod compare;
mod host;
mod inputs;
mod probes;
mod refclock;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use trace::Tracer;
use workloads::engine::EngineWorkload;
use workloads::net_sparse::NetSparse;
use workloads::referee_push::RefereePush;
use workloads::{drive, Budget, Outcome, RunConfig};

const USAGE: &str = "usage:
  waves-benchmark [run] [--all | --workload NAME] [--seed N] [--seconds S]
                  [--smoke] [--trace 0|1] [--trace-out FILE] [--json-out FILE]
  waves-benchmark compare --a FILE... --b FILE...
workloads: engine_dense net_sparse durable_mixed referee_push";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    budget: Budget,
    trace: bool,
    trace_out: Option<String>,
    json_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let all: Vec<&'static str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    let mut out = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        budget: Budget::Seconds(spec::DEFAULT_SECONDS),
        trace: false,
        trace_out: None,
        json_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--all" => out.workloads = all.clone(),
            "--smoke" => out.budget = Budget::Rounds(spec::SMOKE_ROUNDS),
            "--workload" => {
                let name = value()?;
                let known = all
                    .iter()
                    .find(|w| **w == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                out.workloads.push(known);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: want 0 < S <= 600"));
                }
                // `--smoke` fixes the round count whatever else is given.
                if out.budget != Budget::Rounds(spec::SMOKE_ROUNDS) {
                    out.budget = Budget::Seconds(s);
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--trace-out" => out.trace_out = Some(value()?),
            "--json-out" => out.json_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = all;
    }
    if out.trace_out.is_some() && !out.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(out)
}

fn run_one(name: &str, cfg: RunConfig, tr: &mut Tracer) -> Outcome {
    match name {
        "engine_dense" => drive(
            &EngineWorkload::new("engine_dense", spec::ENGINE_DENSE, cfg.seed),
            cfg,
            tr,
        ),
        "durable_mixed" => drive(
            &EngineWorkload::new("durable_mixed", spec::DURABLE_MIXED, cfg.seed),
            cfg,
            tr,
        ),
        "net_sparse" => drive(&NetSparse::new(spec::NET_SPARSE, cfg.seed), cfg, tr),
        "referee_push" => drive(&RefereePush::new(spec::REFEREE_PUSH, cfg.seed), cfg, tr),
        other => unreachable!("workload {other} was validated by the parser"),
    }
}

fn run(args: RunArgs, pinned_cpu: Option<usize>) -> Result<bool, String> {
    let mut outcomes = Vec::new();
    let mut trace_out = match &args.trace_out {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => None,
    };
    for name in &args.workloads {
        let cfg = RunConfig {
            seed: args.seed,
            budget: args.budget,
            trace: args.trace,
            pinned_cpu,
        };
        // Spans are per workload: the probes aggregate them by name.
        let mut tracer = Tracer::default();
        let outcome = run_one(name, cfg, &mut tracer);
        if let Some(out) = &mut trace_out {
            tracer
                .write_jsonl(name, out)
                .map_err(|e| format!("--trace-out: {e}"))?;
            eprintln!("{name}: {} spans written", tracer.len());
        }
        print!("{}", report::human(&outcome, args.trace));
        // The contract's line: last on stdout for a one-workload run.
        println!("{}", report::contract_line(&outcome, args.trace));
        outcomes.push(outcome);
    }
    if let Some(path) = &args.json_out {
        std::fs::write(
            path,
            report::run_document(&outcomes, args.trace, pinned_cpu),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(mut out) = trace_out {
        use std::io::Write;
        out.flush().map_err(|e| format!("--trace-out: {e}"))?;
    }
    // A finished run exits 0 whatever it found: the verdict is the
    // `correct` field of the line just printed.
    Ok(true)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let (mut a, mut b) = (compare::RunSet::default(), compare::RunSet::default());
    let mut into: Option<&mut compare::RunSet> = None;
    for arg in args {
        match arg.as_str() {
            "--a" => into = Some(&mut a),
            "--b" => into = Some(&mut b),
            path => {
                let set = into
                    .as_deref_mut()
                    .ok_or_else(|| format!("{path}: name a set with --a or --b first"))?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                set.add(path, &text)?;
            }
        }
    }
    Ok(compare::report(&a, &b))
}

fn main() -> ExitCode {
    // Before anything can spawn a thread: the mask is inherited.
    let pinned_cpu = host::pin_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => parse_run(&args[1..]).and_then(|a| run(a, pinned_cpu)),
        _ => parse_run(&args).and_then(|a| run(a, pinned_cpu)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("waves-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
