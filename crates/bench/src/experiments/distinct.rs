//! E9 / E10: Theorem 6 — distinct values in sliding windows over
//! distributed streams, and predicate queries on the distinct sample.

use crate::table::{f, pct, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use waves_rand::{estimate, DistinctParty, RandConfig, Referee};
use waves_streamgen::{overlapping_value_streams, ValueSource, ZipfValues};

fn exact_distinct(streams: &[Vec<u64>], n: u64) -> u64 {
    let len = streams[0].len();
    let mut last: HashMap<u64, usize> = HashMap::new();
    for i in 0..len {
        for s in streams {
            last.insert(s[i], i);
        }
    }
    let s0 = len.saturating_sub(n as usize);
    last.values().filter(|&&i| i >= s0).count() as u64
}

pub fn run() {
    println!("E9 — Theorem 6: distinct values in a sliding window, distributed");
    println!("================================================================\n");
    println!("(windows hold several thousand distinct values — far more than one");
    println!(" queue — so the level sampling really engages; 9 instances/median)\n");
    let (len, n) = (12_000usize, 4_096u64);
    let domain = 1u64 << 18;
    let mut t = Table::new(&[
        "workload",
        "t",
        "eps",
        "actual",
        "estimate",
        "rel err",
        "elems/party",
    ]);
    for &(theta, name) in &[(0.3f64, "zipf(0.3)"), (1.1, "zipf(1.1)")] {
        for &tp in &[1usize, 4] {
            for &eps in &[0.2f64, 0.1] {
                // Per-party Zipf draws over a shared domain; parties use
                // different seeds so their supports overlap partially.
                let streams: Vec<Vec<u64>> = if theta < 1.0 && tp > 1 {
                    overlapping_value_streams(tp, len, domain, 0.3, 9 + tp as u64)
                } else {
                    (0..tp)
                        .map(|j| {
                            let mut g = ZipfValues::new(domain as usize, theta, 9 + j as u64);
                            (0..len).map(|_| g.next_value()).collect()
                        })
                        .collect()
                };
                let actual = exact_distinct(&streams, n) as f64;
                let mut rng = StdRng::seed_from_u64(tp as u64 * 7 + (eps * 100.0) as u64);
                let cfg = RandConfig::for_values(n, domain - 1, eps, 0.05, &mut rng)
                    .unwrap()
                    .with_instances(9, &mut rng);
                let mut parties: Vec<DistinctParty> =
                    (0..tp).map(|_| DistinctParty::new(&cfg)).collect();
                for i in 0..len {
                    for (j, p) in parties.iter_mut().enumerate() {
                        p.push(streams[j][i]);
                    }
                }
                let stored = parties[0].stored();
                let referee = Referee::new(cfg);
                let est = estimate(&referee, &parties, n).unwrap();
                let rel = (est - actual).abs() / actual;
                assert!(rel <= eps, "{name} t={tp} eps={eps}: {est} vs {actual}");
                t.row(&[
                    name.into(),
                    format!("{tp}"),
                    format!("{eps}"),
                    f(actual),
                    f(est),
                    pct(rel),
                    format!("{stored}"),
                ]);
            }
        }
    }
    t.print();
    println!("\nPASS: all within eps; per-party state independent of window content.");
}

pub fn predicates() {
    println!("E10 — predicates on the distinct-values sample (Section 5)");
    println!("==========================================================\n");
    let (len, n) = (24_000usize, 8_192u64);
    let domain = 1u64 << 18;
    let eps = 0.15;
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = RandConfig::for_values(n, domain - 1, eps, 0.05, &mut rng)
        .unwrap()
        .with_instances(9, &mut rng);
    let mut party = DistinctParty::new(&cfg);
    let mut g = ZipfValues::new(domain as usize, 0.3, 3);
    let stream: Vec<u64> = (0..len).map(|_| g.next_value()).collect();
    for &v in &stream {
        party.push(v);
    }
    let mut last: HashMap<u64, u64> = HashMap::new();
    for (i, &v) in stream.iter().enumerate() {
        last.insert(v, i as u64 + 1);
    }
    let s = len as u64 + 1 - n;
    let referee = Referee::new(cfg);
    let msg = vec![party.message(n).unwrap()];

    let preds: Vec<(&str, f64, Box<dyn Fn(u64) -> bool>)> = vec![
        ("v % 2 == 0 (alpha~0.5)", 0.5, Box::new(|v| v % 2 == 0)),
        ("v % 4 == 0 (alpha~0.25)", 0.25, Box::new(|v| v % 4 == 0)),
        (
            "v < domain/8 (alpha~0.125)",
            0.125,
            Box::new(move |v| v < domain / 8),
        ),
        ("v % 10 == 0 (alpha~0.1)", 0.1, Box::new(|v| v % 10 == 0)),
    ];
    let mut t = Table::new(&[
        "predicate",
        "actual",
        "estimate",
        "rel err",
        "eps/alpha budget",
    ]);
    for (name, alpha, pred) in &preds {
        let actual = last.iter().filter(|&(&v, &p)| p >= s && pred(v)).count() as f64;
        let est = referee.estimate_predicate(&msg, s, pred.as_ref());
        let rel = (est - actual).abs() / actual.max(1.0);
        // Section 5: guarantee costs a 1/alpha factor in sample size, so
        // at fixed space the error budget scales like eps/sqrt(alpha).
        let budget = eps / alpha.sqrt();
        t.row(&[name.to_string(), f(actual), f(est), pct(rel), pct(budget)]);
        assert!(rel <= budget, "{name}: {rel} > {budget}");
    }
    t.print();
    println!("\nPASS: predicate error grows as selectivity alpha shrinks, within");
    println!("the eps/sqrt(alpha) budget at fixed space (Section 5's trade-off).");
}
