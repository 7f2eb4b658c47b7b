//! E8: Theorem 5 / Lemma 3 — randomized union counting over sliding
//! windows of distributed streams: per-instance success rate, the
//! (eps, delta) guarantee of the median, independence from t, and the
//! space per party.

use crate::table::{f, pct, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waves_rand::{combine_instance, estimate, instances_for, RandConfig, Referee, UnionParty};
use waves_streamgen::{correlated_streams, positionwise_union};

fn exact_window_union(streams: &[Vec<bool>], n: u64) -> u64 {
    let u = positionwise_union(streams);
    u[u.len() - n as usize..].iter().filter(|&&b| b).count() as u64
}

pub fn run() {
    println!("E8 — Theorem 5: (eps, delta) union counting over distributed streams");
    println!("====================================================================\n");

    // Per-instance success probability (Lemma 3: > 2/3). The window
    // holds far more 1's than one queue (c/eps^2), so the estimate
    // really is sampled, not exact.
    println!("(a) per-instance success rate, Pr[rel err <= eps] (Lemma 3 bound: > 2/3):");
    let mut t = Table::new(&["eps", "t", "trials", "within eps", "rate"]);
    let (len, n) = (80_000usize, 1u64 << 15);
    for &eps in &[0.3f64, 0.2, 0.1] {
        for &tp in &[2usize, 8] {
            let streams = correlated_streams(tp, len, 0.35, 0.25, 11);
            let actual = exact_window_union(&streams, n) as f64;
            let trials = 30u64;
            let mut ok = 0;
            for seed in 0..trials {
                let mut rng = StdRng::seed_from_u64(500 + seed);
                let cfg = RandConfig::for_positions(n, eps, 0.3, &mut rng)
                    .unwrap()
                    .with_instances(1, &mut rng);
                let mut parties: Vec<UnionParty> = (0..tp).map(|_| UnionParty::new(&cfg)).collect();
                for i in 0..len {
                    for (j, p) in parties.iter_mut().enumerate() {
                        p.push(streams[j][i]);
                    }
                }
                let s = len as u64 + 1 - n;
                let reports: Vec<_> = parties
                    .iter()
                    .map(|p| {
                        let mut m = p.message(n).unwrap();
                        m.reports.remove(0)
                    })
                    .collect();
                let refs: Vec<&_> = reports.iter().collect();
                let est = combine_instance(cfg.hash(0), &refs, s, |_| true);
                if (est - actual).abs() / actual <= eps {
                    ok += 1;
                }
            }
            t.row(&[
                format!("{eps}"),
                format!("{tp}"),
                format!("{trials}"),
                format!("{ok}"),
                pct(ok as f64 / trials as f64),
            ]);
        }
    }
    t.print();

    // Median-of-instances: error distribution across seeds.
    let (len, n) = (40_000usize, 1u64 << 14);
    println!("\n(b) median estimator across 12 seeded runs (t = 4):");
    let mut t = Table::new(&[
        "eps",
        "delta",
        "instances",
        "mean err",
        "max err",
        "failures",
        "space bits/party",
    ]);
    for &(eps, delta) in &[(0.2f64, 0.1f64), (0.2, 0.01), (0.1, 0.05)] {
        let tp = 4usize;
        let mut errs = Vec::new();
        let mut space = 0u64;
        for seed in 0..12u64 {
            let streams = correlated_streams(tp, len, 0.3, 0.3, 700 + seed);
            let actual = exact_window_union(&streams, n) as f64;
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = RandConfig::for_positions(n, eps, delta, &mut rng).unwrap();
            let mut parties: Vec<UnionParty> = (0..tp).map(|_| UnionParty::new(&cfg)).collect();
            for i in 0..len {
                for (j, p) in parties.iter_mut().enumerate() {
                    p.push(streams[j][i]);
                }
            }
            space = parties[0].synopsis_bits(&cfg);
            let referee = Referee::new(cfg);
            let est = estimate(&referee, &parties, n).unwrap();
            errs.push((est - actual).abs() / actual);
        }
        let failures = errs.iter().filter(|&&e| e > eps).count();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().cloned().fold(0.0, f64::max);
        t.row(&[
            format!("{eps}"),
            format!("{delta}"),
            format!("{}", instances_for(delta)),
            pct(mean),
            pct(max),
            format!("{failures}/12"),
            f(space as f64),
        ]);
    }
    t.print();

    // Independence from t.
    println!("\n(c) guarantee vs number of parties (eps = 0.2, delta = 0.05):");
    let mut t = Table::new(&["t", "actual", "estimate", "rel err"]);
    for &tp in &[2usize, 4, 8, 16] {
        let streams = correlated_streams(tp, len, 0.25, 0.2, 40 + tp as u64);
        let actual = exact_window_union(&streams, n) as f64;
        let mut rng = StdRng::seed_from_u64(tp as u64);
        let cfg = RandConfig::for_positions(n, 0.2, 0.05, &mut rng).unwrap();
        let mut parties: Vec<UnionParty> = (0..tp).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let referee = Referee::new(cfg);
        let est = estimate(&referee, &parties, n).unwrap();
        let rel = (est - actual).abs() / actual;
        assert!(rel <= 0.2, "t={tp}");
        t.row(&[format!("{tp}"), f(actual), f(est), pct(rel)]);
    }
    t.print();

    // Sub-window queries from one synopsis.
    println!("\n(d) one synopsis, many window sizes (t = 4, eps = 0.2, delta = 0.05):");
    let mut t = Table::new(&["n", "actual", "estimate", "rel err"]);
    {
        let tp = 4usize;
        let streams = correlated_streams(tp, len, 0.3, 0.25, 91);
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = RandConfig::for_positions(n, 0.2, 0.05, &mut rng).unwrap();
        let mut parties: Vec<UnionParty> = (0..tp).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let referee = Referee::new(cfg);
        for nq in [n / 16, n / 4, n / 2, n] {
            let actual = exact_window_union(&streams, nq) as f64;
            let est = estimate(&referee, &parties, nq).unwrap();
            let rel = (est - actual).abs() / actual.max(1.0);
            assert!(rel <= 0.2, "n={nq}");
            t.row(&[format!("{nq}"), f(actual), f(est), pct(rel)]);
        }
    }
    t.print();
    println!("\nExpected shape: (a) rates well above 2/3; (b) failures consistent");
    println!("with delta; (c) error flat in t; (d) every window size n <= N");
    println!("answered within eps from the same per-party state.");
}
