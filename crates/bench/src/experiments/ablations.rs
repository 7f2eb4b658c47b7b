//! A1/A2/A4/A5: ablations of the design choices called out in DESIGN.md.

use crate::table::{f, pct, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waves_core::{BasicWave, DetWave, ExactCount};
use waves_distributed::{coord_union_estimate, CoordSampleParty};
use waves_gf2::LevelHash;
use waves_rand::{combine_instance, median, RandConfig, UnionParty};
use waves_streamgen::{Bernoulli, BitSource};

/// A1: store-at-max-level (optimal wave) vs store-at-all-levels (basic
/// wave): same guarantee, different space and per-item work.
pub fn levels() {
    println!("A1 — store-at-max-level vs store-at-all-levels");
    println!("==============================================\n");
    let mut t = Table::new(&[
        "eps",
        "N",
        "basic entries",
        "optimal entries",
        "basic bits",
        "optimal bits",
        "max err basic",
        "max err optimal",
    ]);
    for &(eps, n) in &[(0.25f64, 1u64 << 10), (0.1, 1 << 12), (0.05, 1 << 14)] {
        let mut basic = BasicWave::new(n, eps).unwrap();
        let mut opt = DetWave::new(n, eps).unwrap();
        let mut oracle = ExactCount::new(n);
        let mut src = Bernoulli::new(0.5, 13);
        let (mut eb, mut eo) = (0.0f64, 0.0f64);
        for step in 1..=(4 * n) {
            let b = src.next_bit();
            basic.push_bit(b);
            opt.push_bit(b);
            oracle.push_bit(b);
            if step % 29 == 0 {
                let actual = oracle.query(n);
                eb = eb.max(basic.query(n).unwrap().relative_error(actual));
                eo = eo.max(opt.query(n).unwrap().relative_error(actual));
            }
        }
        let br = basic.space_report();
        let or = opt.space_report();
        assert!(eb <= eps + 1e-9 && eo <= eps + 1e-9);
        t.row(&[
            format!("{eps}"),
            format!("{n}"),
            format!("{}", br.entries),
            format!("{}", or.entries),
            f(br.synopsis_bits as f64),
            f(or.synopsis_bits as f64),
            pct(eb),
            pct(eo),
        ]);
    }
    t.print();
    println!("\nExpected shape: same guarantee; the optimal layout stores each");
    println!("entry once (fewer entries/bits) and touches one level per item.");
}

/// A2: the queue constant c — the analysis needs c = 36; how small can
/// it go empirically before the per-instance success rate drops?
pub fn queue_constant() {
    println!("A2 — randomized-wave queue constant c (paper: 36)");
    println!("=================================================\n");
    let (len, n, eps, t_parties) = (16_000usize, 4_096u64, 0.2, 3usize);
    let streams = waves_streamgen::correlated_streams(t_parties, len, 0.4, 0.25, 21);
    let union = waves_streamgen::positionwise_union(&streams);
    let actual = union[len - n as usize..].iter().filter(|&&b| b).count() as f64;
    let mut t = Table::new(&[
        "c",
        "queue cap",
        "trials within eps",
        "rate",
        "median rel err",
    ]);
    for &c in &[36.0f64, 16.0, 8.0, 4.0, 2.0, 1.0] {
        let trials = 30u64;
        let mut ok = 0;
        let mut errs = Vec::new();
        let mut cap = 0usize;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(3_000 + seed);
            let cfg = RandConfig::for_positions(n, eps, 0.3, &mut rng)
                .unwrap()
                .with_c(c)
                .with_instances(1, &mut rng);
            cap = cfg.queue_capacity();
            let mut parties: Vec<UnionParty> =
                (0..t_parties).map(|_| UnionParty::new(&cfg)).collect();
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
            let rel = (est - actual).abs() / actual;
            errs.push(rel);
            if rel <= eps {
                ok += 1;
            }
        }
        // Lemma 3 at the constant the analysis proves it for.
        assert!(c < 36.0 || 3 * ok > 2 * trials, "c=36: {ok}/{trials}");
        t.row(&[
            format!("{c}"),
            format!("{cap}"),
            format!("{ok}/{trials}"),
            pct(ok as f64 / trials as f64),
            pct(median(errs)),
        ]);
    }
    t.print();
    println!("\nExpected shape: c = 36 is conservative — success stays above 2/3");
    println!("well below it, then collapses once queues are too small to cover");
    println!("the window at any level.");
}

/// A4: the midpoint estimator vs returning the interval endpoints.
pub fn estimator() {
    println!("A4 — midpoint vs endpoint estimators (deterministic wave)");
    println!("=========================================================\n");
    let (eps, n) = (0.1f64, 1u64 << 12);
    let mut wave = DetWave::new(n, eps).unwrap();
    let mut oracle = ExactCount::new(n);
    let mut src = Bernoulli::new(0.45, 3);
    let (mut e_mid, mut e_lo, mut e_hi) = (0.0f64, 0.0f64, 0.0f64);
    let (mut s_mid, mut s_lo, mut s_hi) = (0.0f64, 0.0f64, 0.0f64);
    let mut q = 0u64;
    for step in 1..=(6 * n) {
        let b = src.next_bit();
        wave.push_bit(b);
        oracle.push_bit(b);
        if step % 7 == 0 {
            let actual = oracle.query(n);
            if actual == 0 {
                continue;
            }
            let est = wave.query_max();
            let rm = (est.value - actual as f64).abs() / actual as f64;
            let rl = (est.lo as f64 - actual as f64).abs() / actual as f64;
            let rh = (est.hi as f64 - actual as f64).abs() / actual as f64;
            e_mid = e_mid.max(rm);
            e_lo = e_lo.max(rl);
            e_hi = e_hi.max(rh);
            s_mid += rm;
            s_lo += rl;
            s_hi += rh;
            q += 1;
        }
    }
    let mut t = Table::new(&["estimator", "max rel err", "mean rel err"]);
    t.row(&["midpoint (paper)".into(), pct(e_mid), pct(s_mid / q as f64)]);
    t.row(&["lower endpoint".into(), pct(e_lo), pct(s_lo / q as f64)]);
    t.row(&["upper endpoint".into(), pct(e_hi), pct(s_hi / q as f64)]);
    t.print();
    assert!(e_mid <= eps + 1e-9);
    println!("\nExpected shape: the midpoint halves the worst-case error of either");
    println!("endpoint — that factor of 2 is exactly what makes the eps bound tight.");
}

/// A5: coordinated sampling \[18\] vs the randomized wave on *window*
/// queries at equal memory.
pub fn coordinated() {
    println!("A5 — coordinated sampling (SPAA'01) vs randomized wave on windows");
    println!("=================================================================\n");
    let (len, n, eps, t_parties) = (120_000usize, 1_024u64, 0.2f64, 2usize);
    // Dense history, so coordinated sampling is forced to a high level.
    let streams = waves_streamgen::correlated_streams(t_parties, len, 0.6, 0.2, 31);
    let union = waves_streamgen::positionwise_union(&streams);
    let actual = union[len - n as usize..].iter().filter(|&&b| b).count() as f64;

    let trials = 15u64;
    let mut t = Table::new(&["method", "median rel err", "within eps", "state/party"]);
    for method in ["coordinated-sampling", "randomized-wave"] {
        let mut errs = Vec::new();
        let mut ok = 0;
        let mut state = 0usize;
        for seed in 0..trials {
            let est = if method == "coordinated-sampling" {
                let mut rng = StdRng::seed_from_u64(9_000 + seed);
                // Domain must cover the whole stream (no windows in CS).
                let degree = 64 - (2 * len as u64 - 1).leading_zeros();
                let h = LevelHash::random(degree, &mut rng);
                let cap = (36.0 / (eps * eps)).ceil() as usize;
                let mut parties: Vec<CoordSampleParty> = (0..t_parties)
                    .map(|_| CoordSampleParty::new(h.clone(), cap))
                    .collect();
                for i in 0..len {
                    for (j, p) in parties.iter_mut().enumerate() {
                        p.push_bit(streams[j][i]);
                    }
                }
                state = parties[0].sample().len();
                let s = len as u64 + 1 - n;
                let refs: Vec<&_> = parties.iter().collect();
                coord_union_estimate(&refs, s)
            } else {
                let mut rng = StdRng::seed_from_u64(9_000 + seed);
                let cfg = RandConfig::for_positions(n, eps, 0.3, &mut rng)
                    .unwrap()
                    .with_instances(1, &mut rng);
                let mut parties: Vec<UnionParty> =
                    (0..t_parties).map(|_| UnionParty::new(&cfg)).collect();
                for i in 0..len {
                    for (j, p) in parties.iter_mut().enumerate() {
                        p.push(streams[j][i]);
                    }
                }
                state = parties[0].stored();
                let s = len as u64 + 1 - n;
                let reports: Vec<_> = parties
                    .iter()
                    .map(|p| {
                        let mut m = p.message(n).unwrap();
                        m.reports.remove(0)
                    })
                    .collect();
                let refs: Vec<&_> = reports.iter().collect();
                combine_instance(cfg.hash(0), &refs, s, |_| true)
            };
            let rel = (est - actual).abs() / actual;
            errs.push(rel);
            if rel <= eps {
                ok += 1;
            }
        }
        // The wave keeps Lemma 3's per-instance 2/3 on windows; coordinated
        // sampling, built for whole streams, does not.
        assert_eq!(
            3 * ok > 2 * trials,
            method == "randomized-wave",
            "{method}: {ok}/{trials}"
        );
        t.row(&[
            method.into(),
            pct(median(errs)),
            format!("{ok}/{trials}"),
            format!("{state}"),
        ]);
    }
    t.print();
    println!("\nExpected shape: on a long dense history, coordinated sampling's");
    println!("single global level leaves almost no samples inside the window, so");
    println!("its window estimates are wildly noisy; the wave's per-level recency");
    println!("queues keep the window covered at an appropriate level.");
}
