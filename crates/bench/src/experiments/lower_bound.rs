//! E7: the Theorem 4 lower bound, demonstrated.
//!
//! (i) a constructed synopsis collision: two different inputs with
//! identical deterministic-wave states whose union counts differ by
//! Theta(n) — the pigeonhole core of the proof;
//! (ii) an error sweep of every natural deterministic combine rule over
//! the Hamming-pair family, against the randomized wave at equal
//! space, which stays within eps.

use crate::table::{f, pct, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use waves_core::DetWave;
use waves_distributed::{det_combine, DetCombine};
use waves_rand::{estimate, RandConfig, Referee, UnionParty};
use waves_streamgen::hamming_pair;

fn wave_state(bits: &[bool], n: u64, eps: f64) -> Vec<(u64, u64)> {
    let mut w = DetWave::new(n, eps).unwrap();
    for &b in bits {
        w.push_bit(b);
    }
    let mut st: Vec<(u64, u64)> = w.level_contents().into_iter().flatten().collect();
    st.push((w.pos(), w.rank()));
    st
}

pub fn run() {
    println!("E7 — Theorem 4: deterministic Union Counting needs Omega(n) space");
    println!("=================================================================\n");

    // (i) Constructed collision.
    println!("(i) synopsis collision (n = 1024, eps = 1/2):");
    let len = 1024usize;
    let n = len as u64;
    let mut x1 = vec![false; len];
    for r in 1..=len / 2 {
        x1[2 * r - 1] = true;
    }
    let mut w = DetWave::new(n, 0.5).unwrap();
    for &b in &x1 {
        w.push_bit(b);
    }
    let stored: std::collections::HashSet<u64> = w
        .level_contents()
        .into_iter()
        .flatten()
        .map(|(_, r)| r)
        .collect();
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
    assert_eq!(wave_state(&x1, n, 0.5), wave_state(&x2, n, 0.5));
    let forced = moved as f64 / 2.0;
    let rel = forced / (len as f64 / 2.0 + moved as f64);
    println!(
        "  inputs differ in {} positions, synopses identical",
        2 * moved
    );
    println!(
        "  union(X1, X1) = {}, union(X1, X2) = {}",
        len / 2,
        len / 2 + moved
    );
    println!(
        "  any referee is forced into absolute error >= {forced} (relative {}) >> 1/64",
        pct(rel)
    );
    assert!(rel > 1.0 / 64.0);

    // (ii) Combine-rule sweep vs the randomized wave.
    println!("\n(ii) deterministic combine rules on the Hamming-pair family (n = 4096):");
    let len = 4096usize;
    let mut t = Table::new(&[
        "H(X,Y)",
        "union",
        "sum rule",
        "max rule",
        "indep rule",
        "rand wave (eps=0.1)",
    ]);
    let mut worst = [0.0f64; 3];
    let mut worst_rand = 0.0f64;
    for &dist in &[0usize, len / 8, len / 2, len] {
        let (x, y) = hamming_pair(len, dist, 3);
        let actual = (len / 2 + dist / 2) as f64;
        let counts = [len as f64 / 2.0, len as f64 / 2.0];
        let rules = [DetCombine::Sum, DetCombine::Max, DetCombine::Independent];
        let ests: Vec<f64> = rules
            .iter()
            .map(|&r| det_combine(r, &counts, len as u64))
            .collect();
        for (i, &e) in ests.iter().enumerate() {
            worst[i] = worst[i].max((e - actual).abs() / actual);
        }
        let mut rng = StdRng::seed_from_u64(dist as u64 + 1);
        let cfg = RandConfig::for_positions(len as u64, 0.1, 0.05, &mut rng).unwrap();
        let mut pa = UnionParty::new(&cfg);
        let mut pb = UnionParty::new(&cfg);
        for i in 0..len {
            pa.push(x[i]);
            pb.push(y[i]);
        }
        let referee = Referee::new(cfg);
        let rand_est = estimate(&referee, &[pa, pb], len as u64).unwrap();
        worst_rand = worst_rand.max((rand_est - actual).abs() / actual);
        t.row(&[
            format!("{dist}"),
            f(actual),
            f(ests[0]),
            f(ests[1]),
            f(ests[2]),
            f(rand_est),
        ]);
    }
    t.print();
    println!(
        "\nworst relative errors: sum {}, max {}, independent {}, randomized wave {}",
        pct(worst[0]),
        pct(worst[1]),
        pct(worst[2]),
        pct(worst_rand)
    );
    assert!(worst.iter().all(|&w| w > 1.0 / 64.0));
    assert!(worst_rand <= 0.1);
    println!("\nPASS: every deterministic rule violates eps = 1/64 somewhere on the");
    println!("family; the randomized wave is within eps = 0.1 everywhere.");
}
