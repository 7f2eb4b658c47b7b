// Lockstep iteration over multiple parallel streams reads clearest indexed.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! Differential op-fuzzing: drive every synopsis through long random
//! sequences of interleaved operations — pushes, queries of random
//! window sizes, clock gaps, and encode/decode round-trips — checking
//! each observable against the exact oracle at every step. This is the
//! harness that catches state-machine bugs that fixed scenarios miss.

use proptest::prelude::*;
use waves::streamgen::{Bernoulli, BitSource};
use waves::{
    Bits, DetWave, EhCount, EhSum, ExactCount, ExactSum, SumWave, TimestampSumWave, TimestampWave,
};

/// One scripted operation for the bit-stream machines.
#[derive(Debug, Clone)]
enum BitOp {
    Push(bool),
    /// Query a window of the given fraction of N (scaled at run time).
    Query(u8),
    /// Encode + decode the wave and continue with the reconstruction.
    Roundtrip,
    /// Skip a run of zeros (deterministic wave only; mirrored to the
    /// oracle as individual zero pushes).
    SkipZeros(u8),
    /// One `push_words` batch of this many bits at this density (of
    /// 255), mirrored to the oracle bit by bit. Long and dense enough,
    /// against windows of 8 to 128, to pass over 1s, and to outlast the
    /// window, where nothing may be passed over.
    PushWords {
        len: u16,
        density: u8,
    },
}

/// The bits of a [`BitOp::PushWords`].
fn batch_bits(len: u16, density: u8) -> Vec<bool> {
    let seed = (len as u64) << 8 | density as u64;
    Bernoulli::new(density as f64 / 255.0, seed).take_bits(len as usize)
}

fn bit_ops() -> impl Strategy<Value = Vec<BitOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => prop::bool::ANY.prop_map(BitOp::Push),
            2 => (0u8..=255).prop_map(BitOp::Query),
            1 => Just(BitOp::Roundtrip),
            1 => (1u8..=40).prop_map(BitOp::SkipZeros),
            1 => (1u16..=300, 0u8..=255)
                .prop_map(|(len, density)| BitOp::PushWords { len, density }),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DetWave under arbitrary op interleavings, with codec round-trips
    /// spliced into the middle of the stream — a decoded wave's level
    /// rings start at offset 0, a live wave's wherever eviction left
    /// them — and batches meeting single pushes, gaps and queries. A
    /// twin fed one bit at a time holds the batches to its bytes.
    #[test]
    fn det_wave_differential(ops in bit_ops(), inv_eps in 2u64..=10, n_max in 8u64..=128) {
        let eps = 1.0 / inv_eps as f64;
        let mut wave = DetWave::new(n_max, eps).unwrap();
        let mut per_bit = DetWave::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for op in &ops {
            match op {
                BitOp::Push(b) => {
                    wave.push_bit(*b);
                    per_bit.push_bit(*b);
                    oracle.push_bit(*b);
                }
                BitOp::PushWords { len, density } => {
                    let bits = batch_bits(*len, *density);
                    wave.push_words(Bits::from_bools(&bits).as_ref());
                    for &b in &bits {
                        per_bit.push_bit(b);
                        oracle.push_bit(b);
                    }
                    prop_assert_eq!(wave.encode(), per_bit.encode(), "{:?}", op);
                }
                BitOp::Query(frac) => {
                    let n = 1 + (*frac as u64 * (n_max - 1)) / 255;
                    let actual = oracle.query(n);
                    let est = wave.query(n).unwrap();
                    prop_assert!(est.brackets(actual), "n={n} actual={actual} est={est:?}");
                    prop_assert!(est.relative_error(actual) <= eps + 1e-9);
                }
                BitOp::Roundtrip => {
                    wave = DetWave::decode(&wave.encode()).unwrap();
                }
                BitOp::SkipZeros(k) => {
                    wave.skip_zeros(*k as u64);
                    for _ in 0..*k {
                        per_bit.push_bit(false);
                        oracle.push_bit(false);
                    }
                }
            }
        }
    }

    /// EhCount under the same interleavings (no codec / skip).
    #[test]
    fn eh_count_differential(ops in bit_ops(), inv_eps in 2u64..=10, n_max in 8u64..=128) {
        let eps = 1.0 / inv_eps as f64;
        let mut eh = EhCount::new(n_max, eps).unwrap();
        let mut oracle = ExactCount::new(n_max);
        for op in &ops {
            match op {
                BitOp::Push(b) => {
                    eh.push_bit(*b);
                    oracle.push_bit(*b);
                }
                BitOp::Query(frac) => {
                    let n = 1 + (*frac as u64 * (n_max - 1)) / 255;
                    let actual = oracle.query(n);
                    let est = eh.query(n).unwrap();
                    prop_assert!(est.brackets(actual));
                    prop_assert!(est.relative_error(actual) <= eps + 1e-9);
                }
                BitOp::Roundtrip => {}
                BitOp::SkipZeros(k) => {
                    for _ in 0..*k {
                        eh.push_bit(false);
                        oracle.push_bit(false);
                    }
                }
                BitOp::PushWords { len, density } => {
                    for b in batch_bits(*len, *density) {
                        eh.push_bit(b);
                        oracle.push_bit(b);
                    }
                }
            }
        }
    }

    /// SumWave and EhSum against the exact oracle, with round-trips.
    #[test]
    fn sum_differential(
        ops in prop::collection::vec(
            prop_oneof![
                6 => (0u64..=64).prop_map(Some),
                2 => Just(None), // query
            ],
            1..300,
        ),
        roundtrip_at in 0usize..300,
        inv_eps in 2u64..=8,
        n_max in 8u64..=64,
    ) {
        let eps = 1.0 / inv_eps as f64;
        let r = 64u64;
        let mut wave = SumWave::new(n_max, r, eps).unwrap();
        let mut eh = EhSum::new(n_max, r, eps).unwrap();
        let mut oracle = ExactSum::new(n_max);
        for (i, op) in ops.iter().enumerate() {
            if i == roundtrip_at {
                wave = SumWave::decode(&wave.encode()).unwrap();
            }
            match op {
                Some(v) => {
                    wave.push_value(*v).unwrap();
                    eh.push_value(*v).unwrap();
                    oracle.push_value(*v);
                }
                None => {
                    let actual = oracle.query(n_max);
                    let a = wave.query_max();
                    let b = eh.query(n_max).unwrap();
                    prop_assert!(a.brackets(actual));
                    prop_assert!(b.brackets(actual));
                    prop_assert!(a.relative_error(actual) <= eps + 1e-9);
                    prop_assert!(b.relative_error(actual) <= eps + 1e-9);
                }
            }
        }
    }

    /// Timestamped waves (count + sum) under random clocks with gaps,
    /// duplicates, and codec round-trips.
    #[test]
    fn timestamp_differential(
        steps in prop::collection::vec((0u64..4, 0u64..=31, prop::bool::ANY), 1..300),
        roundtrip_at in 0usize..300,
    ) {
        let (n, u, r, eps) = (32u64, 4_096u64, 31u64, 0.25);
        let mut cw = TimestampWave::new(n, u, eps).unwrap();
        let mut sw = TimestampSumWave::new(n, u, r, eps).unwrap();
        let mut items: Vec<(u64, u64, bool)> = Vec::new();
        let mut ts = 1u64;
        for (i, &(dt, v, bit)) in steps.iter().enumerate() {
            if i == roundtrip_at {
                cw = TimestampWave::decode(&cw.encode()).unwrap();
                sw = TimestampSumWave::decode(&sw.encode()).unwrap();
            }
            ts += dt;
            cw.push(ts, bit).unwrap();
            sw.push(ts, v).unwrap();
            items.push((ts, v, bit));

            let s = ts.saturating_sub(n - 1).max(1);
            let actual_count =
                items.iter().filter(|&&(t, _, b)| t >= s && b).count() as u64;
            let actual_sum: u64 = items
                .iter()
                .filter(|&&(t, _, _)| t >= s)
                .map(|&(_, v, _)| v)
                .sum();
            let ec = cw.query(n).unwrap();
            let es = sw.query(n).unwrap();
            prop_assert!(ec.brackets(actual_count), "{ec:?} vs {actual_count}");
            prop_assert!(es.brackets(actual_sum), "{es:?} vs {actual_sum}");
            prop_assert!(ec.relative_error(actual_count) <= eps + 1e-9);
            prop_assert!(es.relative_error(actual_sum) <= eps + 1e-9);
        }
    }
}

/// A long, seeded soak across all bit synopses at once (not proptest —
/// one deterministic heavy run that exercises deep expiry cycles).
#[test]
fn long_soak_all_bit_synopses() {
    let (eps, n_max) = (0.1, 512u64);
    let mut wave = DetWave::new(n_max, eps).unwrap();
    let mut eh = EhCount::new(n_max, eps).unwrap();
    let mut oracle = ExactCount::new(n_max);
    let mut src = Bernoulli::new(0.47, 2026);
    for step in 1..=200_000u64 {
        let b = src.next_bit();
        wave.push_bit(b);
        eh.push_bit(b);
        oracle.push_bit(b);
        if step % 1_001 == 0 {
            // Splice a codec round-trip mid-soak.
            wave = DetWave::decode(&wave.encode()).unwrap();
        }
        if step % 251 == 0 {
            for n in [1u64, 100, 511, 512] {
                let actual = oracle.query(n);
                assert!(wave.query(n).unwrap().relative_error(actual) <= eps + 1e-9);
                assert!(eh.query(n).unwrap().relative_error(actual) <= eps + 1e-9);
            }
        }
    }
}
