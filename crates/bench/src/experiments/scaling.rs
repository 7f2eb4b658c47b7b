//! E14: query cost scaling — message sizes as functions of t, eps, and
//! delta (Theorem 5's `O(t log(1/delta)(loglog N + 1/eps^2))` query
//! bound), in bytes: the referee's work is linear in what it is sent.

use crate::table::{f, Table};
use crate::verdict::word;
use rand::rngs::StdRng;
use rand::SeedableRng;
use waves_rand::{instances_for, RandConfig, UnionParty};
use waves_streamgen::correlated_streams;

pub fn run() {
    println!("E14 — query cost scaling (Theorem 5)");
    println!("====================================\n");
    let (len, n) = (4_000usize, 1_024u64);

    println!("(a) bytes per query vs t (eps = 0.2, delta = 0.1):");
    let mut t = Table::new(&["t", "bytes/query", "bytes/(t)"]);
    let mut per_party = Vec::new();
    for &tp in &[2usize, 4, 8, 16] {
        let streams = correlated_streams(tp, len, 0.3, 0.3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RandConfig::for_positions(n, 0.2, 0.1, &mut rng).unwrap();
        let mut parties: Vec<UnionParty> = (0..tp).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let bytes: usize = parties
            .iter()
            .map(|p| p.message(n).unwrap().wire_bytes(&cfg))
            .sum();
        let each = bytes as f64 / tp as f64;
        per_party.push(each);
        t.row(&[format!("{tp}"), format!("{bytes}"), f(each)]);
    }
    t.print();
    let spread = per_party.iter().copied().fold(0.0, f64::max)
        / per_party.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "bytes per party flat in t (max/min = {spread:.3}, bar 1.05): bytes/query linear in t — {}",
        word(spread <= 1.05)
    );

    println!("\n(b) bytes per party-message vs eps (t = 2, delta = 0.1,");
    println!("    window 2^16 so even the largest queue is content-bound):");
    let mut t = Table::new(&["eps", "queue cap (c/eps^2)", "bytes/message"]);
    let (blen, bn) = (150_000usize, 1u64 << 16);
    let mut msg_bytes = Vec::new();
    for &eps in &[0.4f64, 0.2, 0.1, 0.05] {
        let tp = 2usize;
        let streams = correlated_streams(tp, blen, 0.5, 0.2, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RandConfig::for_positions(bn, eps, 0.1, &mut rng).unwrap();
        let mut parties: Vec<UnionParty> = (0..tp).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..blen {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let bytes = parties[0].message(bn).unwrap().wire_bytes(&cfg);
        msg_bytes.push(bytes as f64);
        t.row(&[
            format!("{eps}"),
            format!("{}", cfg.queue_capacity()),
            format!("{bytes}"),
        ]);
    }
    t.print();
    let quadruples = msg_bytes
        .windows(2)
        .all(|w| (3.6..=4.4).contains(&(w[1] / w[0])));
    println!(
        "message size x4 (+-10%) per halving of eps (~1/eps^2) — {}",
        word(quadruples)
    );

    println!("\n(c) instances and stored-coin bits vs delta (eps = 0.2):");
    let mut t = Table::new(&[
        "delta",
        "instances (18 ln(1/d))",
        "coin bits",
        "synopsis bits/party",
    ]);
    let mut instances_match = true;
    for &delta in &[0.3f64, 0.1, 0.01, 0.001] {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RandConfig::for_positions(n, 0.2, delta, &mut rng).unwrap();
        let mut p = UnionParty::new(&cfg);
        let mut src = correlated_streams(1, len, 0.5, 0.0, 7).remove(0);
        for b in src.drain(..) {
            p.push(b);
        }
        instances_match &= cfg.instances() == instances_for(delta);
        t.row(&[
            format!("{delta}"),
            format!("{}", cfg.instances()),
            format!("{}", cfg.stored_coin_bits()),
            f(p.synopsis_bits(&cfg) as f64),
        ]);
    }
    t.print();
    println!(
        "every configuration runs the Chernoff count of instances, odd(ceil(18 ln(1/delta))) — {}",
        word(instances_match)
    );
}
