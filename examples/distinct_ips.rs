//! Distinct values over distributed streams: how many distinct client
//! IPs hit *any* of our edge servers in the last N requests?
//!
//! ```text
//! cargo run --release -p waves --example distinct_ips
//! ```
//!
//! Demonstrates Theorem 6 (distinct-values counting in a sliding window
//! over the union of distributed streams) and the predicate extension
//! ("how many of those were from the 10.x.x.x block?") — the predicate
//! is supplied at query time, after the streams were observed. The
//! party and the Referee are the ones Union Counting uses
//! (`network_monitor`), over values instead of positions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use waves::streamgen::{ValueSource, ZipfValues};
use waves::{DistinctParty, RandConfig, Referee};

fn main() {
    let servers = 4usize;
    let window = 8_192u64;
    let ip_space = 1u64 << 20; // 2^20 possible client ids
    let (eps, delta) = (0.15, 0.05);

    println!(
        "== {servers} edge servers, distinct clients in last {window} requests, (eps, delta) = ({eps}, {delta}) =="
    );

    let mut rng = StdRng::seed_from_u64(7);
    let cfg = RandConfig::for_values(window, ip_space - 1, eps, delta, &mut rng)
        .expect("valid parameters");
    println!(
        "config: {} instances x {} levels x {} elements",
        cfg.instances(),
        cfg.degree() + 1,
        cfg.queue_capacity()
    );

    let mut parties: Vec<DistinctParty> = (0..servers).map(|_| DistinctParty::new(&cfg)).collect();

    // Zipf-distributed clients (heavy hitters shared across servers),
    // plus a per-server long tail.
    let mut gens: Vec<ZipfValues> = (0..servers)
        .map(|j| ZipfValues::new(ip_space as usize, 1.1, 1000 + j as u64))
        .collect();

    // Exact truth: last occurrence per value on the shared axis.
    let mut last: HashMap<u64, u64> = HashMap::new();
    let steps = 50_000u64;
    for pos in 1..=steps {
        for (j, p) in parties.iter_mut().enumerate() {
            let ip = gens[j].next_value();
            p.push(ip);
            last.insert(ip, pos);
        }
    }

    let referee = Referee::new(cfg);
    let s = steps - window + 1;
    let messages: Vec<_> = parties
        .iter()
        .map(|p| p.message(window).expect("window within bound"))
        .collect();

    let actual = last.values().filter(|&&p| p >= s).count() as f64;
    let est = referee.estimate(&messages, s);
    println!(
        "\ndistinct clients : actual {:>8}  est {:>10.1}  (err {:.3}%)",
        actual,
        est,
        100.0 * (est - actual).abs() / actual
    );
    assert!((est - actual).abs() / actual <= eps);

    // Predicate supplied at query time: clients in the low half of the
    // address space (selectivity ~1/2 of distinct values by Zipf mass).
    let low_block = |ip: u64| ip < ip_space / 2;
    let actual_p = last
        .iter()
        .filter(|&(&ip, &p)| p >= s && low_block(ip))
        .count() as f64;
    let est_p = referee.estimate_predicate(&messages, s, low_block);
    println!(
        "low-block clients: actual {:>8}  est {:>10.1}  (err {:.3}%)",
        actual_p,
        est_p,
        100.0 * (est_p - actual_p).abs() / actual_p
    );
    // Guarantee degrades with predicate selectivity (Section 5).
    assert!((est_p - actual_p).abs() / actual_p <= 2.0 * eps);

    let stored: usize = parties.iter().map(|p| p.stored()).sum();
    println!(
        "\nper-party state: ~{} sampled (ip, position) pairs",
        stored / servers
    );
    println!("ok: distinct counts within the guarantee");
}
