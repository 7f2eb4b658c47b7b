//! Network monitoring over distributed streams (the paper's motivating
//! scenario): several vantage points each see a stream of per-interval
//! alarm bits; the analysis front-end (Referee) estimates how many of
//! the last N intervals had an alarm *somewhere* — the positionwise
//! union — without ever centralizing the raw streams.
//!
//! ```text
//! cargo run --release -p waves --example network_monitor
//! ```
//!
//! Runs one OS thread per monitor (`run_threaded` over `UnionWave`; the
//! same driver runs `DistinctWave`), queries at checkpoints, and reports
//! estimate vs. truth, the communication spent (total and per monitor),
//! referee combine latency, and a metrics snapshot from the
//! observability layer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waves::obs::MetricsRegistry;
use waves::streamgen::{correlated_streams, positionwise_union};
use waves::{run_threaded, RandConfig, UnionWave};

fn main() {
    let monitors = 8usize;
    let intervals = 200_000usize;
    let window = 10_000u64;
    let (eps, delta) = (0.1, 0.01);

    println!("== {monitors} monitors, window of last {window} intervals, (eps, delta) = ({eps}, {delta}) ==");

    // Stored coins: sampled once, shipped to every monitor.
    let mut rng = StdRng::seed_from_u64(2026);
    let cfg = RandConfig::for_positions(window, eps, delta, &mut rng).expect("valid parameters");
    println!(
        "shared config: {} instances, {} levels, {} positions/queue, {} coin bits",
        cfg.instances(),
        cfg.degree() + 1,
        cfg.queue_capacity(),
        cfg.stored_coin_bits()
    );

    // Correlated alarms: regional incidents are visible from several
    // vantage points at once, so the union is far below the sum.
    let streams = correlated_streams(monitors, intervals, 0.02, 0.01, 99);
    let union = positionwise_union(&streams);

    let checkpoints: Vec<u64> = (1..=4).map(|i| (intervals as u64 / 4) * i).collect();
    let registry = MetricsRegistry::new();
    let run = run_threaded::<UnionWave, _>(&cfg, &streams, &checkpoints, window, &registry);

    println!(
        "\n{:>10} {:>10} {:>12} {:>10} {:>12}",
        "interval", "actual", "estimate", "rel err", "naive sum"
    );
    for &(pos, est) in &run.estimates {
        let w = window.min(pos) as usize;
        let s = pos as usize - w;
        let actual = union[s..pos as usize].iter().filter(|&&b| b).count();
        let naive: usize = streams
            .iter()
            .map(|st| st[s..pos as usize].iter().filter(|&&b| b).count())
            .sum();
        let rel = (est - actual as f64).abs() / actual.max(1) as f64;
        println!(
            "{:>10} {:>10} {:>12.1} {:>9.3}% {:>12}",
            pos,
            actual,
            est,
            100.0 * rel,
            naive
        );
        assert!(rel <= eps, "estimate outside the (eps, delta) guarantee");
    }

    println!(
        "\ncommunication: {} messages, {} bytes total ({} bytes/query/monitor)",
        run.comm.messages,
        run.comm.bytes,
        run.comm.bytes / run.comm.messages
    );
    for (j, pc) in run.comm.per_party.iter().enumerate() {
        println!(
            "  monitor {j}: {} messages, {} bytes",
            pc.messages, pc.bytes
        );
    }
    if let Some((j, pc)) = run.comm.worst_party() {
        println!(
            "  worst monitor: #{j} at {} bytes (the paper's per-party bound)",
            pc.bytes
        );
    }
    println!(
        "referee combine: {} calls, p50 = {:.0} ns, max = {} ns",
        run.combine_ns.count,
        run.combine_ns.p50(),
        run.combine_ns.max
    );
    println!(
        "\n== metrics snapshot ==\n{}",
        registry.snapshot().to_text()
    );
    println!("ok: union tracked within eps at every checkpoint");
}
