//! Integration: sum wave and EH-sum against the exact oracle
//! (Theorem 3 end-to-end), including the value-range extremes.

use waves::streamgen::{CallDurations, SpikeValues, UniformValues, ValueSource};
use waves::{EhSum, ExactSum, SumWave, Synopsis, WaveError};

/// Push through `push` (the type's own value push) and query through
/// [`Synopsis`], against the exact oracle.
fn check_sum<S: Synopsis>(
    synopsis: &mut S,
    push: fn(&mut S, u64) -> Result<(), WaveError>,
    source: &mut dyn FnMut() -> u64,
    eps: f64,
    n_max: u64,
    steps: u64,
) {
    let mut oracle = ExactSum::new(n_max);
    for step in 1..=steps {
        let v = source();
        push(synopsis, v).expect("value within bound");
        oracle.push_value(v);
        if step % 97 == 0 || step == steps {
            let actual = oracle.query(n_max);
            let est = synopsis.query_window(n_max).expect("valid window");
            assert!(
                est.brackets(actual),
                "{} step {step}: [{}, {}] vs {actual}",
                synopsis.name(),
                est.lo,
                est.hi
            );
            assert!(
                est.relative_error(actual) <= eps + 1e-9,
                "{} step {step}: actual {actual} est {}",
                synopsis.name(),
                est.value
            );
        }
    }
}

#[test]
fn sum_wave_uniform_values() {
    let (eps, n_max, r) = (0.1, 1_024u64, 1u64 << 10);
    let mut g = UniformValues::new(r, 5);
    let mut w = SumWave::new(n_max, r, eps).unwrap();
    check_sum(
        &mut w,
        SumWave::push_value,
        &mut || g.next_value(),
        eps,
        n_max,
        20_000,
    );
}

#[test]
fn sum_wave_spiky_values() {
    let (eps, n_max, r) = (0.1, 512u64, 1u64 << 18);
    let mut g = SpikeValues::new(r, 0.01, 6);
    let mut w = SumWave::new(n_max, r, eps).unwrap();
    check_sum(
        &mut w,
        SumWave::push_value,
        &mut || g.next_value(),
        eps,
        n_max,
        20_000,
    );
}

#[test]
fn sum_wave_call_durations() {
    let (eps, n_max, r) = (0.05, 2_048u64, 7_200u64);
    let mut g = CallDurations::new(r, 7);
    let mut w = SumWave::new(n_max, r, eps).unwrap();
    check_sum(
        &mut w,
        SumWave::push_value,
        &mut || g.next_value(),
        eps,
        n_max,
        20_000,
    );
}

#[test]
fn eh_sum_same_workloads() {
    let (eps, n_max, r) = (0.1, 512u64, 1u64 << 10);
    let mut g = UniformValues::new(r, 8);
    let mut eh = EhSum::new(n_max, r, eps).unwrap();
    check_sum(
        &mut eh,
        EhSum::push_value,
        &mut || g.next_value(),
        eps,
        n_max,
        15_000,
    );
}

#[test]
fn wave_and_eh_agree_on_truth_interval_validity() {
    let (eps, n_max, r) = (0.2, 256u64, 100u64);
    let mut w = SumWave::new(n_max, r, eps).unwrap();
    let mut eh = EhSum::new(n_max, r, eps).unwrap();
    let mut oracle = ExactSum::new(n_max);
    let mut g = UniformValues::new(r, 9);
    for _ in 0..10_000 {
        let v = g.next_value();
        w.push_value(v).unwrap();
        eh.push_value(v).unwrap();
        oracle.push_value(v);
        let actual = oracle.query(n_max);
        assert!(w.query_max().brackets(actual));
        assert!(eh.query(n_max).unwrap().brackets(actual));
    }
}

#[test]
fn single_item_cost_structural_comparison() {
    // The paper's Section 3.3 point: one large item lands in exactly one
    // wave level but up to O(log N + log R) EH classes.
    let (n_max, r) = (1u64 << 12, 1u64 << 12);
    let mut w = SumWave::new(n_max, r, 0.1).unwrap();
    let mut eh = EhSum::new(n_max, r, 0.1).unwrap();
    for _ in 0..100 {
        w.push_value(r).unwrap();
        EhSum::push_value(&mut eh, r).unwrap();
    }
    assert!(w.entries() <= 100, "one entry per item at most");
    assert!(
        eh.buckets() > w.entries() as u64,
        "EH fragments items: {} buckets vs {} wave entries",
        eh.buckets(),
        w.entries()
    );
}
