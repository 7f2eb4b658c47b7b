//! The run structure every workload shares:
//! `setup → warm-up rounds (discarded) → timed rounds → traced pass →
//! probes → teardown`, and the estimator that turns rounds into metrics.

use std::collections::BTreeMap;

use crate::host;
use crate::refclock::{self, RefClock};
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

pub mod engine;
pub mod net_sparse;
pub mod referee_push;

/// What one round measured. A round is the same deterministic operations
/// every time; only the timings differ.
#[derive(Debug, Default)]
pub struct Round {
    /// Whole timed round: ingest phase plus read phase.
    pub wall_ns: u64,
    /// Ingest phase, first request through the closing flush barrier, so
    /// items are *applied*, not merely enqueued.
    pub ingest_ns: u64,
    /// CPU the whole process ran for during the ingest phase; the rest
    /// of `ingest_ns` it was blocked on the disk or off the core.
    pub ingest_cpu_ns: u64,
    /// Stream bits ingested.
    pub items: u64,
    /// One latency per acknowledged write. Over the wire that is one
    /// client call; in process it is `Engine::ingest` plus the
    /// `Engine::flush` that waits until the request is applied, taken on
    /// the round's synchronous requests (a bare blocking `ingest` is a
    /// channel send and says nothing about the engine or the store).
    pub ack_ns: Vec<u64>,
    /// One latency per read call.
    pub query_ns: Vec<u64>,
    /// Operations attempted / that failed: an error, a refusal, a
    /// timeout or a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// |answer − exact| ÷ exact of every checked read, in read order.
    pub rel_errs: Vec<f64>,
    /// Frame bytes both ways / bytes handed to `write` on files.
    pub wire_bytes: u64,
    pub disk_bytes: u64,
    /// How much slower than nominal the reference clock ran around this
    /// round (`refclock`); [`run_rounds`] fills it in, a workload leaves
    /// the default.
    pub slowdown: f64,
}

/// Per-layer values by metric name; anything not set reads as 0.
pub type Ledger = BTreeMap<&'static str, f64>;

/// What the probes need to know about the untraced rounds, as the wall
/// clock read it: the probes it is compared with read the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct RoundSummary {
    /// Lower quartile of the untraced rounds' wall time.
    pub wall_ns: f64,
    /// Lower quartile of the untraced rounds' median ack, in ns.
    pub ack_p50_ns: f64,
    /// `now_ns()` reads the harness makes inside one round.
    pub clock_reads: u64,
}

pub struct Finish {
    pub attempted: u64,
    pub failed: u64,
    /// Lower quartile of the crash-recovery reopen times, if the
    /// workload is durable.
    pub recovery_s: Option<f64>,
    pub backpressure_total: u64,
}

pub trait Workload {
    /// The constructed, preloaded system under test.
    type Sys;

    fn name(&self) -> &'static str;
    /// Does the system write to the sandbox's disk? Then the time the
    /// process spends blocked on it is left out of `items_per_s` and
    /// `setup_s` (see [`PhaseClock`]).
    fn durable(&self) -> bool {
        false
    }
    fn input_hash(&self) -> u64;
    /// Construct the system and preload every key's window; this whole
    /// call is what `setup_s` times.
    fn setup(&self) -> Self::Sys;
    fn round(&self, sys: &mut Self::Sys, tr: &mut Tracer) -> Round;
    fn synopsis_bytes_per_key(&self, sys: &mut Self::Sys) -> f64;
    /// Replay one round's inputs straight into the lower layers' public
    /// functions and fill in the per-layer ledger, budget rows included.
    fn probes(&self, sys: &mut Self::Sys, tr: &mut Tracer, round: RoundSummary, out: &mut Ledger);
    /// Tear down the system that ran the rounds; durable workloads
    /// measure recovery here.
    fn finish(&self, sys: Self::Sys) -> Finish;
    /// Tear down a system nothing more is wanted from.
    fn discard(&self, sys: Self::Sys);
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Timed rounds run for this many seconds (and at least
    /// [`spec::COUNT_ROUNDS`]).
    Seconds(f64),
    /// Exactly this many timed rounds (`--smoke`).
    Rounds(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub pinned_cpu: Option<usize>,
}

/// A metric value with the spread it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Median and IQR÷median of the per-round values (0 for counts).
    pub median: f64,
    pub iqr_ratio: f64,
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub input_hash: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    pub rounds: usize,
    pub end_to_end: Vec<Measured>,
    /// Every [`spec::PER_LAYER`] metric, in order. An untraced run only
    /// fills the [`spec::COMPARE_ONLY`], `harness.*` and `tail.*` rows.
    pub per_layer: Vec<Measured>,
}

/// A value with the spread it was taken from; the spec tables supply the
/// name and unit.
#[derive(Debug, Clone, Copy)]
struct Stat {
    value: f64,
    median: f64,
    iqr_ratio: f64,
}

impl Stat {
    /// A count: no spread.
    fn exact(value: f64) -> Stat {
        Stat {
            value,
            median: value,
            iqr_ratio: 0.0,
        }
    }

    fn named(self, name: &'static str, unit: &'static str) -> Measured {
        Measured {
            name,
            unit,
            value: self.value,
            median: self.median,
            iqr_ratio: self.iqr_ratio,
        }
    }
}

/// Run rounds until `budget` is spent. With a reference clock, the
/// rounds come in blocks of at least [`spec::REF_BLOCK_SECONDS`] with a
/// clock sample before, between and after, and every round carries its
/// block's slowdown; without one (warm-up) every slowdown is 1.
fn run_rounds<W: Workload>(
    w: &W,
    sys: &mut W::Sys,
    tr: &mut Tracer,
    budget: Budget,
    mut clock: Option<&mut RefClock>,
    mut after_count_rounds: impl FnMut(&mut W::Sys),
) -> Vec<Round> {
    let started = host::now_ns();
    let mut rounds: Vec<Round> = Vec::new();
    // `samples[b]` was taken before round `starts[b]`.
    let (mut samples, mut starts) = (Vec::new(), Vec::new());
    let mut sample = |samples: &mut Vec<f64>, starts: &mut Vec<usize>, at: usize| {
        if let Some(clock) = clock.as_deref_mut() {
            samples.push(clock.sample());
            starts.push(at);
        }
        host::now_ns()
    };
    let mut block_started = sample(&mut samples, &mut starts, 0);
    loop {
        let done = match budget {
            Budget::Rounds(n) => rounds.len() >= n,
            Budget::Seconds(s) => {
                rounds.len() >= spec::COUNT_ROUNDS && (host::now_ns() - started) as f64 >= s * 1e9
            }
        };
        if done {
            break;
        }
        rounds.push(Round {
            slowdown: 1.0,
            ..w.round(sys, tr)
        });
        let count_rounds = match budget {
            Budget::Rounds(n) => n.min(spec::COUNT_ROUNDS),
            Budget::Seconds(_) => spec::COUNT_ROUNDS,
        };
        if rounds.len() == count_rounds {
            after_count_rounds(sys);
        }
        if (host::now_ns() - block_started) as f64 >= spec::REF_BLOCK_SECONDS * 1e9 {
            block_started = sample(&mut samples, &mut starts, rounds.len());
        }
    }
    if starts.last().is_some_and(|&at| at < rounds.len()) {
        sample(&mut samples, &mut starts, rounds.len());
    }
    for (block, slowdown) in refclock::block_slowdowns(&samples).into_iter().enumerate() {
        for round in &mut rounds[starts[block]..starts[block + 1]] {
            round.slowdown = slowdown;
        }
    }
    rounds
}

/// Every sample of `pick` over the rounds, in order.
fn pooled(rounds: &[Round], pick: fn(&Round) -> &Vec<u64>) -> Vec<u64> {
    rounds
        .iter()
        .flat_map(|r| pick(r).iter().copied())
        .collect()
}

/// The lower quartile of the per-round values, with their median and
/// IQR beside it.
fn across_rounds(per_round: &[f64]) -> Stat {
    Stat {
        value: stats::lower_quartile(per_round),
        median: stats::median(per_round),
        iqr_ratio: stats::iqr_ratio(per_round),
    }
}

/// A latency in µs on the reference clock: each round's median divided
/// by the round's slowdown, then the lower quartile across rounds.
fn latency_us(rounds: &[Round], pick: fn(&Round) -> &Vec<u64>) -> Stat {
    let medians_us: Vec<f64> = rounds
        .iter()
        .map(|r| stats::median_u64(pick(r)) / 1e3 / r.slowdown)
        .collect();
    across_rounds(&medians_us)
}

/// Which clock times an ingest phase or a set-up. The sandbox's disk is
/// not the program: an fsync here takes 0.3 ms one minute and 30 ms the
/// next, for the same bytes, so for a system that writes to it the wait
/// is left out — the phase is timed by the CPU the process used, and on
/// the one pinned core everything else *is* the wait
/// (`harness.off_cpu_share`). What the code asks of the disk is
/// reported as exact counts instead (`store.fsyncs_per_kitem`,
/// `disk_bytes_per_kitem`). Every other system is timed by the wall
/// clock, so a change that makes it wait — a sleep, a lock, an extra
/// round trip — shows.
#[derive(Debug, Clone, Copy)]
enum PhaseClock {
    Wall,
    Cpu,
}

impl PhaseClock {
    fn of<W: Workload>(w: &W) -> PhaseClock {
        if w.durable() {
            PhaseClock::Cpu
        } else {
            PhaseClock::Wall
        }
    }

    fn pick(self, wall_ns: u64, cpu_ns: u64) -> f64 {
        match self {
            PhaseClock::Wall => wall_ns as f64,
            PhaseClock::Cpu => cpu_ns as f64,
        }
    }
}

/// Items applied per second of the ingest phase, on the reference clock:
/// each round's phase time divided by the round's slowdown, then the
/// rate at the lower quartile of those times.
fn ingest_rate(rounds: &[Round], phase_clock: PhaseClock) -> Stat {
    let items = rounds[0].items as f64;
    let times: Vec<f64> = rounds
        .iter()
        .map(|r| phase_clock.pick(r.ingest_ns, r.ingest_cpu_ns) / r.slowdown)
        .collect();
    let t = across_rounds(&times);
    Stat {
        value: items / (t.value / 1e9),
        median: items / (t.median / 1e9),
        iqr_ratio: t.iqr_ratio,
    }
}

/// Run one workload start to finish.
pub fn drive<W: Workload>(w: &W, cfg: RunConfig, tr: &mut Tracer) -> Outcome {
    let calib_before = host::calibration_ns();
    let cpu_before = host::cpu_times(cfg.pinned_cpu);
    let mut clock = RefClock::new().expect("a loopback pair for the reference clock");

    // Set-up, several times on fresh state; the last one is kept. Only
    // the untraced timed run reports `setup_s`, so only it repeats it.
    // Each is bracketed by reference-clock samples, like a block of
    // rounds.
    let setups = match (cfg.trace, cfg.budget) {
        (false, Budget::Seconds(_)) => spec::SETUPS,
        _ => 1,
    };
    let phase_clock = PhaseClock::of(w);
    let mut setup_phase_s = Vec::new();
    let mut setup_samples = vec![clock.sample()];
    let mut sys = None;
    for _ in 0..setups {
        if let Some(previous) = sys.take() {
            w.discard(previous);
        }
        let (t0, cpu0) = (host::now_ns(), host::process_cpu_ns());
        sys = Some(w.setup());
        let (wall, cpu) = (host::now_ns() - t0, host::process_cpu_ns() - cpu0);
        setup_phase_s.push(phase_clock.pick(wall, cpu) / 1e9);
        setup_samples.push(clock.sample());
    }
    let setup_s: Vec<f64> = setup_phase_s
        .iter()
        .zip(refclock::block_slowdowns(&setup_samples))
        .map(|(phase_s, slowdown)| phase_s / slowdown)
        .collect();
    let mut sys = sys.expect("at least one set-up");
    let threads = host::self_stat().map_or(0, |s| s.num_threads);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |rounds: &[Round]| {
        attempted += rounds.iter().map(|r| r.attempted).sum::<u64>();
        failed += rounds.iter().map(|r| r.failed).sum::<u64>();
    };

    // `--smoke` has 15 seconds for all four workloads: one warm-up round.
    let warmup_rounds = match cfg.budget {
        Budget::Rounds(_) => 1,
        Budget::Seconds(_) => spec::WARMUP_ROUNDS,
    };
    let warmup = run_rounds(w, &mut sys, tr, Budget::Rounds(warmup_rounds), None, |_| {});
    tally(&warmup);

    // In a traced run the untraced rounds only anchor the overhead
    // ratio and the budget's denominator, so they get 40 % of the time.
    let budget = match (cfg.budget, cfg.trace) {
        (Budget::Seconds(s), true) => Budget::Seconds(s * 0.4),
        (b, _) => b,
    };
    let mut synopsis_bytes_per_key = 0.0;
    let rounds = run_rounds(w, &mut sys, tr, budget, Some(&mut clock), |sys| {
        synopsis_bytes_per_key = w.synopsis_bytes_per_key(sys);
    });
    tally(&rounds);

    // Fixed work: every round ingests the same items. (How many deltas
    // the parties of `referee_push` ship is theirs to decide, so the
    // operation count is not pinned.)
    let same_work = rounds.iter().all(|r| r.items == rounds[0].items);

    let mut ledger = Ledger::new();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_ns as f64).collect();
    let rate = ingest_rate(&rounds, phase_clock);
    let (ack, query) = (
        latency_us(&rounds, |r| &r.ack_ns),
        latency_us(&rounds, |r| &r.query_ns),
    );
    if cfg.trace {
        tr.set_on(true);
        // At least `COUNT_ROUNDS` rounds, and a fifth of the time.
        let traced_budget = match cfg.budget {
            Budget::Rounds(n) => Budget::Rounds(n),
            Budget::Seconds(s) => Budget::Seconds(s * 0.2),
        };
        let traced = run_rounds(w, &mut sys, tr, traced_budget, Some(&mut clock), |_| {});
        tally(&traced);
        ledger.insert(
            "harness.trace_overhead_ratio",
            ingest_rate(&traced, phase_clock).value / rate.value,
        );
        let ack_medians: Vec<f64> = rounds
            .iter()
            .map(|r| stats::median_u64(&r.ack_ns))
            .collect();
        let summary = RoundSummary {
            wall_ns: stats::lower_quartile(&walls),
            ack_p50_ns: stats::lower_quartile(&ack_medians),
            clock_reads: 2 * rounds[0].attempted,
        };
        w.probes(&mut sys, tr, summary, &mut ledger);
        tr.set_on(false);
    }

    let finish = w.finish(sys);
    attempted += finish.attempted;
    failed += finish.failed;

    let calib_after = host::calibration_ns();
    let calib_drift = (calib_after as f64 - calib_before as f64).abs() / calib_before as f64;
    let steal_ratio = match (cpu_before, host::cpu_times(cfg.pinned_cpu)) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    };

    // ---- end-to-end, in `spec::END_TO_END` order ------------------------
    let setup = Stat {
        value: stats::median(&setup_s),
        ..across_rounds(&setup_s)
    };
    let counted = &rounds[..rounds.len().min(spec::COUNT_ROUNDS)];
    let kitems = counted.iter().map(|r| r.items).sum::<u64>() as f64 / 1e3;
    // Accuracy over the same fixed rounds as the counts.
    let rel_error_max = counted
        .iter()
        .flat_map(|r| r.rel_errs.iter().copied())
        .fold(0.0, f64::max);
    let values = [rate, ack, query, setup, Stat::exact(synopsis_bytes_per_key)];
    let end_to_end = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(def, stat)| stat.named(def.name, def.unit))
        .collect();

    // ---- the ledger rows every run has ----------------------------------
    let wire = counted.iter().map(|r| r.wire_bytes).sum::<u64>() as f64;
    let disk = counted.iter().map(|r| r.disk_bytes).sum::<u64>() as f64;
    let ack_tail = stats::tail(&pooled(&rounds, |r| &r.ack_ns));
    let query_tail = stats::tail(&pooled(&rounds, |r| &r.query_ns));
    let sum = |pick: fn(&Round) -> u64| rounds.iter().map(pick).sum::<u64>() as f64;
    let rows = [
        ("recovery_s", finish.recovery_s.unwrap_or(0.0)),
        ("wire_bytes_per_kitem", wire / kitems),
        ("disk_bytes_per_kitem", disk / kitems),
        ("rel_error_max", rel_error_max),
        (
            "engine.backpressure_total",
            finish.backpressure_total as f64,
        ),
        ("harness.pinned", cfg.pinned_cpu.is_some() as u64 as f64),
        ("harness.steal_ratio", steal_ratio),
        (
            "harness.off_cpu_share",
            1.0 - sum(|r| r.ingest_cpu_ns) / sum(|r| r.ingest_ns),
        ),
        ("harness.calib_ns", calib_before as f64),
        ("harness.calib_drift", calib_drift),
        (
            "harness.ref_slowdown",
            stats::median(&rounds.iter().map(|r| r.slowdown).collect::<Vec<_>>()),
        ),
        ("harness.round_iqr_ratio", stats::iqr_ratio(&walls)),
        ("harness.threads", threads as f64),
        ("harness.rounds", rounds.len() as f64),
        ("tail.ingest_ack_us", ack_tail.value / 1e3),
        ("tail.ingest_ack_percentile", ack_tail.percentile),
        ("tail.ingest_ack_samples", ack_tail.samples as f64),
        ("tail.query_us", query_tail.value / 1e3),
        ("tail.query_percentile", query_tail.percentile),
        ("tail.query_samples", query_tail.samples as f64),
    ];
    ledger.extend(rows);
    let per_layer = spec::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = ledger.get(name).copied().unwrap_or(0.0);
            Stat::exact(value).named(name, unit)
        })
        .collect();

    Outcome {
        workload: w.name(),
        seed: cfg.seed,
        input_hash: w.input_hash(),
        correct: failed == 0 && same_work && finish.backpressure_total == 0,
        attempted,
        failed,
        noisy: steal_ratio > spec::NOISY_STEAL_RATIO || calib_drift > spec::NOISY_CALIB_DRIFT,
        rounds: rounds.len(),
        end_to_end,
        per_layer,
    }
}

/// An answer against the synopsis guarantee; returns its relative
/// error, or `None` if it breaks the guarantee.
pub fn check_estimate(est: &waves_core::Estimate, truth: u64, eps: f64) -> Option<f64> {
    let rel = est.relative_error(truth);
    // The float slack covers rounding in the division, nothing more.
    (est.brackets(truth) && rel <= eps + 1e-12).then_some(rel)
}
