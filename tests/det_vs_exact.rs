// Lockstep iteration over multiple parallel streams reads clearest indexed.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! Integration: deterministic wave and EH baseline against the exact
//! oracle, across workload families (Theorem 1 end-to-end).

use waves::streamgen::{AlternatingRuns, Bernoulli, BitSource, Bursty, Periodic};
use waves::{DetWave, EhCount, ExactCount, Synopsis, XuCount};

/// Push through `push` (the type's own per-bit push) and query
/// through [`Synopsis`], against the exact oracle.
fn check_synopsis<S: Synopsis>(
    synopsis: &mut S,
    push: fn(&mut S, bool),
    source: &mut dyn FnMut() -> bool,
    eps: f64,
    n_max: u64,
    steps: u64,
    windows: &[u64],
) {
    let mut oracle = ExactCount::new(n_max);
    for step in 1..=steps {
        let b = source();
        push(synopsis, b);
        oracle.push_bit(b);
        if step % 101 == 0 || step == steps {
            for &n in windows {
                let actual = oracle.query(n);
                let est = synopsis.query_window(n).expect("valid window");
                assert!(
                    est.brackets(actual),
                    "{} step {step} n {n}: [{}, {}] vs {actual}",
                    synopsis.name(),
                    est.lo,
                    est.hi
                );
                assert!(
                    est.relative_error(actual) <= eps + 1e-9,
                    "{} step {step} n {n}: actual {actual} est {}",
                    synopsis.name(),
                    est.value
                );
            }
        }
    }
}

fn workloads(seed: u64) -> Vec<(&'static str, Box<dyn FnMut() -> bool>)> {
    let mut bern = Bernoulli::new(0.35, seed);
    let mut bursty = Bursty::new(200.0, seed + 1);
    let mut periodic = Periodic::new(7, 13);
    let mut runs = AlternatingRuns::new(60.0, seed + 2);
    vec![
        ("bernoulli", Box::new(move || bern.next_bit())),
        ("bursty", Box::new(move || bursty.next_bit())),
        ("periodic", Box::new(move || periodic.next_bit())),
        ("runs", Box::new(move || runs.next_bit())),
    ]
}

#[test]
fn det_wave_all_workloads() {
    let (eps, n_max) = (0.1, 2_048u64);
    for (name, mut source) in workloads(11) {
        let mut wave = DetWave::new(n_max, eps).unwrap();
        check_synopsis(
            &mut wave,
            DetWave::push_bit,
            &mut source,
            eps,
            n_max,
            30_000,
            &[1, 64, 777, 2_048],
        );
        println!("det-wave ok on {name}");
    }
}

#[test]
fn eh_all_workloads() {
    let (eps, n_max) = (0.1, 2_048u64);
    for (name, mut source) in workloads(13) {
        let mut eh = EhCount::new(n_max, eps).unwrap();
        check_synopsis(
            &mut eh,
            EhCount::push_bit,
            &mut source,
            eps,
            n_max,
            30_000,
            &[1, 64, 777, 2_048],
        );
        println!("eh ok on {name}");
    }
}

/// Xu's boosted basic counting (arXiv:1312.0042), the second baseline,
/// under the same cross-agreement oracle as the wave and the EH: every
/// estimate brackets the exact count and stays within ε across all
/// four workload families.
#[test]
fn xu_all_workloads() {
    let (eps, n_max) = (0.1, 2_048u64);
    for (name, mut source) in workloads(17) {
        let mut xu = XuCount::new(n_max, eps).unwrap();
        check_synopsis(
            &mut xu,
            XuCount::push_bit,
            &mut source,
            eps,
            n_max,
            30_000,
            &[1, 64, 777, 2_048],
        );
        println!("xu ok on {name}");
    }
}

#[test]
fn wave_beats_eh_on_worst_case_structural_cost() {
    // Theorem 1's structural claim: the wave touches exactly one level
    // per arrival while the EH cascades through O(log eps N) classes.
    let (eps, n_max) = (0.01, 1u64 << 20);
    let mut eh = EhCount::new(n_max, eps).unwrap();
    for _ in 0..(1 << 18) {
        eh.push_bit(true);
    }
    assert!(
        eh.max_cascade() >= 8,
        "expected deep cascades, got {}",
        eh.max_cascade()
    );
    // The wave's analogous figure is identically 1 by construction (one
    // queue touched per arrival): nothing to measure, but the query
    // interfaces agree.
    let mut w = DetWave::new(n_max, eps).unwrap();
    for _ in 0..(1 << 18) {
        w.push_bit(true);
    }
    let e = w.query_max();
    assert!(e.relative_error(n_max.min(1 << 18)) <= eps);
}

#[test]
fn space_well_below_exact_window() {
    let (eps, n_max) = (0.05, 1u64 << 16);
    let mut wave = DetWave::new(n_max, eps).unwrap();
    let mut bern = Bernoulli::new(0.5, 3);
    for _ in 0..(1 << 17) {
        wave.push_bit(bern.next_bit());
    }
    let bits = wave.space_report().synopsis_bits;
    assert!(
        bits < n_max / 4,
        "synopsis {bits} bits vs window {n_max} bits"
    );
}
