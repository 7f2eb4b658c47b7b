// Lockstep iteration over multiple parallel streams reads clearest indexed.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! Integration: the three distributed sliding-window scenarios of
//! Section 3.4, end-to-end.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waves::obs::NoopRecorder;
use waves::streamgen::{correlated_streams, positionwise_union, split_logical_stream};
use waves::{run_threaded, RandConfig, Scenario1Count, Scenario1Sum, Scenario2Count, UnionWave};

#[test]
fn scenario1_counts_within_eps() {
    let (t, n, eps) = (5usize, 512u64, 0.1);
    let streams = correlated_streams(t, 10_000, 0.3, 0.3, 21);
    let mut sc = Scenario1Count::new(t, n, eps).unwrap();
    for i in 0..10_000 {
        for j in 0..t {
            sc.push_bit(j, streams[j][i]);
        }
    }
    let actual: u64 = streams
        .iter()
        .map(|s| s[10_000 - n as usize..].iter().filter(|&&b| b).count() as u64)
        .sum();
    let est = sc.query(n).unwrap();
    assert!(est.brackets(actual));
    assert!(est.relative_error(actual) <= eps + 1e-9);
    // Communication: exactly t constant-size messages per query.
    assert_eq!(sc.comm().messages, t as u64);
    assert_eq!(sc.comm().bytes, (t * 24) as u64);
}

#[test]
fn scenario1_sums_within_eps() {
    let (t, n, r, eps) = (3usize, 256u64, 1_000u64, 0.1);
    let mut sc = Scenario1Sum::new(t, n, r, eps).unwrap();
    let mut truth = vec![Vec::new(); t];
    let mut x = 42u64;
    for _ in 0..5_000 {
        for j in 0..t {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % (r + 1);
            sc.push_value(j, v).unwrap();
            truth[j].push(v);
        }
    }
    let actual: u64 = truth
        .iter()
        .map(|vs| vs[vs.len() - n as usize..].iter().sum::<u64>())
        .sum();
    let est = sc.query(n).unwrap();
    assert!(est.relative_error(actual) <= eps + 1e-9);
}

#[test]
fn scenario2_arbitrary_splits() {
    let (n, eps) = (1_024u64, 0.1);
    let len = 20_000usize;
    let stream: Vec<bool> = (0..len).map(|i| (i * 2654435761) % 11 < 4).collect();
    let actual = stream[len - n as usize..].iter().filter(|&&b| b).count() as u64;
    for t in [1usize, 2, 7] {
        let parts = split_logical_stream(&stream, t, t as u64 * 31);
        let mut sc = Scenario2Count::new(t, n, eps).unwrap();
        for (j, part) in parts.iter().enumerate() {
            for &(seq, b) in part {
                sc.push_item(j, seq, b).unwrap();
            }
        }
        let est = sc.query(len as u64, n).unwrap();
        assert!(
            est.relative_error(actual) <= eps + 1e-9,
            "t={t}: est {} actual {actual}",
            est.value
        );
    }
}

#[test]
fn scenario3_threaded_union_within_eps() {
    let (t, len, window) = (6usize, 30_000usize, 4_096u64);
    let (eps, delta) = (0.15, 0.05);
    let mut rng = StdRng::seed_from_u64(77);
    let cfg = RandConfig::for_positions(window, eps, delta, &mut rng).unwrap();
    let streams = correlated_streams(t, len, 0.1, 0.05, 3);
    let checkpoints = vec![10_000u64, 20_000, 30_000];
    let run = run_threaded::<UnionWave, _>(&cfg, &streams, &checkpoints, window, &NoopRecorder);
    let union = positionwise_union(&streams);
    for &(pos, est) in &run.estimates {
        let w = window.min(pos) as usize;
        let actual = union[pos as usize - w..pos as usize]
            .iter()
            .filter(|&&b| b)
            .count() as f64;
        assert!(
            (est - actual).abs() / actual.max(1.0) <= eps,
            "pos {pos}: est {est} actual {actual}"
        );
    }
    // Communication grows with t and instances but not with the stream.
    assert_eq!(run.comm.messages, (t * checkpoints.len()) as u64);
}

#[test]
fn scenario2_queries_between_arrivals() {
    // The referee may query at a position where a party saw nothing
    // recently; alignment via broadcast pos must still work.
    let (t, n, eps) = (3usize, 64u64, 0.25);
    let mut sc = Scenario2Count::new(t, n, eps).unwrap();
    // Party 0 sees everything early; parties 1, 2 see nothing yet.
    for seq in 1..=100u64 {
        sc.push_item(0, seq, true).unwrap();
    }
    let est = sc.query(100, n).unwrap();
    assert!(est.brackets(64));
    // Later items to another party with a large gap.
    sc.push_item(1, 500, true).unwrap();
    let est = sc.query(500, n).unwrap();
    assert!(est.brackets(1), "[{}, {}]", est.lo, est.hi);
}
