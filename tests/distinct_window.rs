// Lockstep iteration over multiple parallel streams reads clearest indexed.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! Integration: distinct-values counting in sliding windows, single and
//! distributed, with predicates (Theorem 6 and Section 5 extensions).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use waves::streamgen::{overlapping_value_streams, ValueSource, ZipfValues};
use waves::{estimate, DistinctParty, RandConfig, Referee};

/// Exact distinct count on the shared axis: a value is in the window if
/// its most recent occurrence (across parties) is.
fn exact_distinct(streams: &[Vec<u64>], n: u64) -> u64 {
    let len = streams[0].len();
    let mut last: HashMap<u64, usize> = HashMap::new();
    for i in 0..len {
        for s in streams {
            last.insert(s[i], i);
        }
    }
    let s_start = len.saturating_sub(n as usize);
    last.values().filter(|&&i| i >= s_start).count() as u64
}

#[test]
fn single_stream_zipf_within_eps() {
    let (n, eps, delta) = (1_024u64, 0.2, 0.05);
    let domain = 1u64 << 16;
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = RandConfig::for_values(n, domain - 1, eps, delta, &mut rng).unwrap();
    let mut p = DistinctParty::new(&cfg);
    let mut gen = ZipfValues::new(domain as usize, 1.0, 17);
    let stream: Vec<u64> = (0..10_000).map(|_| gen.next_value()).collect();
    for &v in &stream {
        p.push(v);
    }
    let actual = exact_distinct(&[stream], n) as f64;
    let referee = Referee::new(cfg);
    let est = estimate(&referee, &[p], n).unwrap();
    assert!(
        (est - actual).abs() / actual <= eps,
        "est {est} actual {actual}"
    );
}

#[test]
fn distributed_union_of_values_within_eps() {
    let (n, eps, delta, t) = (512u64, 0.2, 0.05, 4usize);
    let domain = 1u64 << 14;
    let streams = overlapping_value_streams(t, 6_000, domain, 0.25, 41);
    let mut rng = StdRng::seed_from_u64(6);
    let cfg = RandConfig::for_values(n, domain - 1, eps, delta, &mut rng).unwrap();
    let mut parties: Vec<DistinctParty> = (0..t).map(|_| DistinctParty::new(&cfg)).collect();
    for i in 0..6_000 {
        for (j, p) in parties.iter_mut().enumerate() {
            p.push(streams[j][i]);
        }
    }
    let actual = exact_distinct(&streams, n) as f64;
    let referee = Referee::new(cfg);
    let est = estimate(&referee, &parties, n).unwrap();
    assert!(
        (est - actual).abs() / actual <= eps,
        "est {est} actual {actual}"
    );
}

#[test]
fn predicates_at_query_time() {
    let (n, eps, delta) = (2_048u64, 0.2, 0.05);
    let domain = 1u64 << 16;
    let mut rng = StdRng::seed_from_u64(12);
    let cfg = RandConfig::for_values(n, domain - 1, eps, delta, &mut rng).unwrap();
    let mut p = DistinctParty::new(&cfg);
    let mut gen = ZipfValues::new(domain as usize, 0.8, 19);
    let stream: Vec<u64> = (0..15_000).map(|_| gen.next_value()).collect();
    for &v in &stream {
        p.push(v);
    }
    let referee = Referee::new(cfg);
    let msg = vec![p.message(n).unwrap()];
    let s = (p.pos() + 1) - n;

    // Truth per predicate.
    let mut last: HashMap<u64, u64> = HashMap::new();
    for (i, &v) in stream.iter().enumerate() {
        last.insert(v, i as u64 + 1);
    }
    let preds: Vec<(&str, Box<dyn Fn(u64) -> bool>)> = vec![
        ("even", Box::new(|v| v % 2 == 0)),
        ("low-quarter", Box::new(move |v| v < domain / 4)),
        ("mod-3", Box::new(|v| v % 3 == 0)),
    ];
    for (name, pred) in &preds {
        let actual = last.iter().filter(|&(&v, &p)| p >= s && pred(v)).count() as f64;
        let est = referee.estimate_predicate(&msg, s, pred.as_ref());
        let rel = (est - actual).abs() / actual.max(1.0);
        // Selectivity >= 1/4 here; allow the 1/alpha-degraded bound.
        assert!(rel <= 4.0 * eps, "{name}: est {est} actual {actual}");
    }
}

#[test]
fn window_tracks_value_recency_not_first_seen() {
    let (n, eps, delta) = (16u64, 0.3, 0.2);
    let mut rng = StdRng::seed_from_u64(15);
    let cfg = RandConfig::for_values(n, 255, eps, delta, &mut rng).unwrap();
    let mut p = DistinctParty::new(&cfg);
    // Values 0..8 early, then only value 9 for 32 steps, then 0 again.
    for v in 0..8u64 {
        p.push(v);
    }
    for _ in 0..32 {
        p.push(9);
    }
    p.push(0);
    let referee = Referee::new(cfg);
    let est = estimate(&referee, &[p], n).unwrap();
    // In the last 16 positions: 9 and the refreshed 0.
    assert_eq!(est, 2.0);
}
