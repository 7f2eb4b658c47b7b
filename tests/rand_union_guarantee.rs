// Lockstep iteration over multiple parallel streams reads clearest indexed.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! Statistical validation of Theorem 5 / Lemma 3: per-instance success
//! probability > 2/3 and the (eps, delta) guarantee of the median
//! estimator, across party counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waves::streamgen::{correlated_streams, disjoint_streams, positionwise_union};
use waves::{combine_instance, estimate, RandConfig, Referee, UnionParty};

fn exact_window_union(streams: &[Vec<bool>], n: u64) -> u64 {
    let u = positionwise_union(streams);
    u[u.len() - n as usize..].iter().filter(|&&b| b).count() as u64
}

#[test]
fn per_instance_success_rate_above_two_thirds() {
    // Lemma 3: a single instance is within eps with probability > 2/3.
    // Empirically at the paper's c = 36 the rate is much higher; assert
    // a conservative > 0.75 over 60 instances.
    let (n, eps, len, t) = (512u64, 0.3, 4_000usize, 3usize);
    let streams = correlated_streams(t, len, 0.4, 0.2, 5);
    let actual = exact_window_union(&streams, n) as f64;
    let mut ok = 0;
    let trials = 60;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let cfg = RandConfig::for_positions(n, eps, 0.3, &mut rng)
            .unwrap()
            .with_instances(1, &mut rng);
        let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let s = (len as u64 + 1) - n;
        let reports: Vec<_> = parties
            .iter()
            .map(|p| {
                let mut msg = p.message(n).unwrap();
                msg.reports.remove(0)
            })
            .collect();
        let refs: Vec<&_> = reports.iter().collect();
        let est = combine_instance(cfg.hash(0), &refs, s, |_| true);
        if (est - actual).abs() / actual <= eps {
            ok += 1;
        }
    }
    assert!(
        ok as f64 / trials as f64 > 0.75,
        "only {ok}/{trials} instances within eps"
    );
}

#[test]
fn median_estimator_beats_delta() {
    // With delta = 0.05 every one of 20 independent runs should succeed
    // (expected failures = 1, P[>=3 fail] tiny; assert <= 2).
    let (n, eps, delta, len, t) = (256u64, 0.25, 0.05, 3_000usize, 4usize);
    let mut failures = 0;
    for seed in 0..20u64 {
        let streams = correlated_streams(t, len, 0.35, 0.25, 900 + seed);
        let actual = exact_window_union(&streams, n) as f64;
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandConfig::for_positions(n, eps, delta, &mut rng).unwrap();
        let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let referee = Referee::new(cfg);
        let est = estimate(&referee, &parties, n).unwrap();
        if (est - actual).abs() / actual > eps {
            failures += 1;
        }
    }
    assert!(failures <= 2, "{failures}/20 runs outside eps");
}

#[test]
fn guarantee_independent_of_party_count() {
    let (n, eps, len) = (256u64, 0.3, 3_000usize);
    for &t in &[2usize, 4, 8, 16] {
        let streams = disjoint_streams(t, len, 0.4, 31 + t as u64);
        let actual = exact_window_union(&streams, n) as f64;
        let mut rng = StdRng::seed_from_u64(7 + t as u64);
        let cfg = RandConfig::for_positions(n, eps, 0.05, &mut rng).unwrap();
        let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let referee = Referee::new(cfg);
        let est = estimate(&referee, &parties, n).unwrap();
        assert!(
            (est - actual).abs() / actual.max(1.0) <= eps,
            "t={t}: est {est} actual {actual}"
        );
    }
}

#[test]
fn window_sizes_smaller_than_max() {
    let (n_max, eps, len, t) = (1_024u64, 0.25, 8_000usize, 3usize);
    let streams = correlated_streams(t, len, 0.3, 0.3, 44);
    let mut rng = StdRng::seed_from_u64(9);
    let cfg = RandConfig::for_positions(n_max, eps, 0.05, &mut rng).unwrap();
    let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
    for i in 0..len {
        for (j, p) in parties.iter_mut().enumerate() {
            p.push(streams[j][i]);
        }
    }
    let referee = Referee::new(cfg);
    for n in [64u64, 333, 1_024] {
        let actual = exact_window_union(&streams, n) as f64;
        let est = estimate(&referee, &parties, n).unwrap();
        assert!(
            (est - actual).abs() / actual.max(1.0) <= eps,
            "n={n}: est {est} actual {actual}"
        );
    }
    // Windows beyond N are rejected.
    assert!(estimate(&referee, &parties, 1_025).is_err());
}
