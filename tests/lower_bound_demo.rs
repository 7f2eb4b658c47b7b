//! The Theorem 4 lower bound, demonstrated empirically.
//!
//! Theorem 4: any deterministic algorithm with constant relative error
//! <= 1/64 for Union Counting needs Omega(n) space, even for two
//! parties. Two demonstrations:
//!
//! 1. *Synopsis collision*: with a small deterministic synopsis, two
//!    inputs X1 != X2 exist with identical synopses; feeding (X1, X1)
//!    and (X1, X2) to the referee forces identical answers while the
//!    true union counts differ by H(X1, X2)/2 — exactly the pigeonhole
//!    step of the proof.
//! 2. *Combine-rule failure*: every natural deterministic combine of
//!    per-party counts errs by far more than 1/64 on the Hamming-pair
//!    family, while the randomized wave stays within eps.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waves::streamgen::hamming_pair;
use waves::{det_combine, estimate, DetCombine, DetWave, RandConfig, Referee, UnionParty};

/// Feed a bit vector to a fresh deterministic wave and return a compact
/// fingerprint of its full state (levels + counters) — everything a
/// party could send the referee.
fn wave_synopsis(bits: &[bool], n: u64, eps: f64) -> Vec<(u64, u64)> {
    let mut w = DetWave::new(n, eps).unwrap();
    for &b in bits {
        w.push_bit(b);
    }
    let mut state: Vec<(u64, u64)> = w.level_contents().into_iter().flatten().collect();
    state.push((w.pos(), w.rank()));
    state
}

#[test]
fn synopsis_collision_constructed() {
    // Constructive version of the pigeonhole step: two distinct inputs
    // with *identical* deterministic-wave synopses. A 1 whose 1-rank is
    // no longer stored anywhere in the wave can be moved to an adjacent
    // position without changing the final state — the wave's contents
    // depend only on the stored ranks' positions.
    let n = 256u64;
    let len = n as usize;
    let eps = 0.5;

    // X1: ones at the even positions 2, 4, ..., 256 (exactly n/2 ones).
    let mut x1 = vec![false; len];
    for r in 1..=len / 2 {
        x1[2 * r - 1] = true;
    }
    // Which ranks does the final wave store?
    let mut w = DetWave::new(n, eps).unwrap();
    for &b in &x1 {
        w.push_bit(b);
    }
    let stored: std::collections::HashSet<u64> = w
        .level_contents()
        .into_iter()
        .flatten()
        .map(|(_, r)| r)
        .collect();

    // X2: every *unstored* rank's 1 moves one position earlier
    // (2r -> 2r - 1); arrival order of ranks is unchanged.
    let mut x2 = vec![false; len];
    let mut moved = 0usize;
    for r in 1..=(len / 2) as u64 {
        if stored.contains(&r) {
            x2[(2 * r - 1) as usize] = true;
        } else {
            x2[(2 * r - 2) as usize] = true;
            moved += 1;
        }
    }
    assert!(moved > len / 4, "most ranks must be unstored ({moved})");
    assert_ne!(x1, x2);

    // Identical synopses...
    assert_eq!(wave_synopsis(&x1, n, eps), wave_synopsis(&x2, n, eps));

    // ...but very different union counts: union(X1, X1) = n/2 while
    // union(X1, X2) = n/2 + moved. A referee receiving the same pair of
    // messages must answer both identically, forcing absolute error at
    // least moved/2 on one of them — relative error far above 1/64.
    let h = x1.iter().zip(&x2).filter(|(a, b)| a != b).count();
    assert_eq!(h, 2 * moved);
    let forced_rel = (moved as f64 / 2.0) / (len as f64 / 2.0 + moved as f64);
    assert!(
        forced_rel > 1.0 / 64.0,
        "forced relative error {forced_rel} too small"
    );
    println!("constructed collision: moved {moved} ones, forced relative error {forced_rel:.3}");
}

#[test]
fn deterministic_combines_fail_where_randomized_waves_succeed() {
    let n = 4_096usize;
    let eps_target = 1.0 / 64.0;

    // Two extremes of the Hamming family: identical streams (union =
    // n/2) and disjoint-as-possible streams (union = n/2 + dist/2).
    let mut worst = vec![0.0f64; 3];
    let rules = [DetCombine::Sum, DetCombine::Max, DetCombine::Independent];
    for &dist in &[0usize, n / 2, n] {
        let (x, y) = hamming_pair(n, dist, 9);
        let actual = (n / 2 + dist / 2) as f64;
        // Per-party deterministic counts are (essentially) exact here.
        let counts = [n as f64 / 2.0, n as f64 / 2.0];
        for (i, &rule) in rules.iter().enumerate() {
            let est = det_combine(rule, &counts, n as u64);
            let rel = (est - actual).abs() / actual;
            worst[i] = worst[i].max(rel);
        }
        // The randomized wave handles every distance within eps.
        let eps = 0.2;
        let mut rng = StdRng::seed_from_u64(dist as u64);
        let cfg = RandConfig::for_positions(n as u64, eps, 0.05, &mut rng).unwrap();
        let mut pa = UnionParty::new(&cfg);
        let mut pb = UnionParty::new(&cfg);
        for i in 0..n {
            pa.push(x[i]);
            pb.push(y[i]);
        }
        let referee = Referee::new(cfg);
        let est = estimate(&referee, &[pa, pb], n as u64).unwrap();
        assert!(
            (est - actual).abs() / actual <= eps,
            "dist={dist}: randomized est {est} vs {actual}"
        );
    }
    // Every deterministic rule busts 1/64 somewhere on the family.
    for (i, &w) in worst.iter().enumerate() {
        assert!(
            w > eps_target,
            "rule {i} unexpectedly accurate: worst rel err {w}"
        );
    }
    println!("worst-case deterministic combine errors: {worst:?}");
}

#[test]
fn randomized_wave_distinguishes_what_synopses_cannot() {
    // Complementary view: two pairs with very different union counts but
    // identical per-party counts; the randomized wave separates them.
    let n = 2_048usize;
    let eps = 0.2;
    let (x_near, y_near) = hamming_pair(n, 0, 1); // union = n/2
    let (x_far, y_far) = hamming_pair(n, n, 2); // union = n
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = RandConfig::for_positions(n as u64, eps, 0.05, &mut rng).unwrap();

    let run = |x: &[bool], y: &[bool], cfg: &RandConfig| {
        let mut pa = UnionParty::new(cfg);
        let mut pb = UnionParty::new(cfg);
        for i in 0..x.len() {
            pa.push(x[i]);
            pb.push(y[i]);
        }
        let referee = Referee::new(cfg.clone());
        estimate(&referee, &[pa, pb], x.len() as u64).unwrap()
    };
    let near = run(&x_near, &y_near, &cfg);
    let far = run(&x_far, &y_far, &cfg);
    assert!(
        far > near * 1.5,
        "union estimates must separate: near {near} far {far}"
    );
}
