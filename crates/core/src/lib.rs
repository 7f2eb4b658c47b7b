//! `waves-core`: deterministic wave synopses for sliding windows.
//!
//! This crate implements the single-stream synopses from Gibbons &
//! Tirthapura, *Distributed Streams Algorithms for Sliding Windows*
//! (SPAA 2002):
//!
//! * [`BasicWave`] — the pedagogical wave of Section 3.1 (Figure 2);
//! * [`DetWave`] — the optimal deterministic wave of Section 3.2
//!   (Theorem 1): `eps` relative error for Basic Counting over any
//!   window up to `N`, O(1) worst-case per-item time, O(1) query time
//!   for the maximum window, `O((1/eps) log^2(eps N))` bits;
//! * [`SumWave`] — the sum of integers in `[0..R]` (Section 3.3,
//!   Theorem 3), again O(1) worst case per item;
//! * [`TimestampWave`] / [`TimestampSumWave`] — counts and sums over
//!   sliding windows with duplicated positions (Corollary 1);
//! * [`NthRecentWave`] — the position of the `n`-th most recent 1
//!   (Section 5);
//! * [`SlidingAverage`] — the sum/count composition (Section 5);
//! * exact oracles ([`exact`]) and shared substrates: level arithmetic
//!   ([`level`]), mod-N' counters ([`window`]), slab-backed intrusive
//!   lists ([`chain`]), and space accounting ([`space`]).
//!
//! # Quick start
//! ```
//! use waves_core::DetWave;
//!
//! let mut wave = DetWave::new(1_000, 0.1).unwrap(); // N = 1000, eps = 0.1
//! for i in 0..10_000u64 {
//!     wave.push_bit(i % 3 == 0);
//! }
//! let est = wave.query_max(); // O(1): count of 1s in the last 1000 bits
//! let actual = 333; // ones among the last 1000 bits of this stream
//! assert!(est.relative_error(actual) <= 0.1);
//! ```

// Safe Rust but for the calls into the batch push's BMI2 build, after
// the feature test that makes them sound: `ladder/batch.rs` is the one
// file where an item opts out.
#![deny(unsafe_code)]

pub mod average;
pub mod basic_wave;
pub mod bits;
pub mod chain;
pub mod codec;
pub mod decay;
pub mod det_wave;
pub mod error;
pub mod estimate;
pub mod exact;
pub mod histogram;
mod ladder;
pub mod level;
pub mod nth_recent;
pub mod space;
pub mod sum_wave;
pub mod timestamp;
pub mod timestamp_sum;
pub mod traits;
pub mod window;

pub use average::{ratio_error_target, ratio_estimate, RatioEstimate, SlidingAverage};
pub use basic_wave::BasicWave;
pub use bits::{Bits, BitsRef};
pub use decay::{decayed_sum, Decay, DecayedEstimate};
pub use det_wave::DetWave;
pub use error::WaveError;
pub use estimate::{Estimate, SpaceReport};
pub use exact::{ExactCount, ExactDistinct, ExactSum};
pub use histogram::WindowedHistogram;
pub use nth_recent::NthRecentWave;
pub use sum_wave::SumWave;
pub use timestamp::TimestampWave;
pub use timestamp_sum::TimestampSumWave;
pub use traits::{BitSynopsis, Synopsis};
pub use window::ModRing;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn bit_stream() -> impl Strategy<Value = Vec<bool>> {
        prop::collection::vec(prop::bool::weighted(0.4), 0..2000)
    }

    /// Streams biased toward the packed-word boundary cases: lengths
    /// with `len % 64 ∈ {0, 1, 63}`, empty, all-ones, all-zeros, plus
    /// ordinary random streams at sparse and dense densities.
    fn packed_stream() -> impl Strategy<Value = Vec<bool>> {
        const BOUNDARY: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 191, 192];
        prop_oneof![
            2 => bit_stream(),
            1 => prop::collection::vec(prop::bool::weighted(0.01), 0..2000),
            1 => prop::collection::vec(prop::bool::weighted(0.95), 0..2000),
            1 => (prop::collection::vec(any::<bool>(), 192..=192), 0usize..=9)
                .prop_map(|(mut v, i): (Vec<bool>, usize)| {
                    v.truncate(BOUNDARY[i]);
                    v
                }),
            1 => (0usize..=9).prop_map(|i: usize| vec![true; BOUNDARY[i]]),
            1 => (0usize..=9).prop_map(|i: usize| vec![false; BOUNDARY[i]]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The headline invariant of Theorem 1: at every instant, for
        /// every window size, the deterministic wave's interval brackets
        /// the truth and the estimate is within eps of it.
        #[test]
        fn det_wave_eps_guarantee(
            bits in bit_stream(),
            inv_eps in 2u64..=12,
            n_max in 8u64..=256,
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut w = DetWave::new(n_max, eps).unwrap();
            let mut oracle = ExactCount::new(n_max);
            for (i, &b) in bits.iter().enumerate() {
                w.push_bit(b);
                oracle.push_bit(b);
                if i % 31 == 0 || i + 1 == bits.len() {
                    for n in [1, n_max / 3 + 1, n_max] {
                        let actual = oracle.query(n);
                        let est = w.query(n).unwrap();
                        prop_assert!(est.brackets(actual));
                        prop_assert!(est.relative_error(actual) <= eps + 1e-9);
                    }
                }
            }
        }

        /// Same invariant for the sum wave (Theorem 3).
        #[test]
        fn sum_wave_eps_guarantee(
            vals in prop::collection::vec(0u64..=100, 0..1500),
            inv_eps in 2u64..=10,
            n_max in 8u64..=128,
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut w = SumWave::new(n_max, 100, eps).unwrap();
            let mut oracle = ExactSum::new(n_max);
            for (i, &v) in vals.iter().enumerate() {
                w.push_value(v).unwrap();
                oracle.push_value(v);
                if i % 23 == 0 || i + 1 == vals.len() {
                    let actual = oracle.query(n_max);
                    let est = w.query_max();
                    prop_assert!(est.brackets(actual));
                    prop_assert!(est.relative_error(actual) <= eps + 1e-9);
                }
            }
        }

        /// Basic wave and optimal wave satisfy the bound on the same
        /// stream (the A1 ablation invariant).
        #[test]
        fn basic_and_optimal_agree_on_guarantee(
            bits in bit_stream(),
        ) {
            let (eps, n_max) = (0.25, 64);
            let mut basic = BasicWave::new(n_max, eps).unwrap();
            let mut opt = DetWave::new(n_max, eps).unwrap();
            let mut oracle = ExactCount::new(n_max);
            for &b in &bits {
                basic.push_bit(b);
                opt.push_bit(b);
                oracle.push_bit(b);
            }
            let actual = oracle.query(n_max);
            prop_assert!(basic.query(n_max).unwrap().relative_error(actual) <= eps + 1e-9);
            prop_assert!(opt.query_max().relative_error(actual) <= eps + 1e-9);
        }

        /// A batch longer than the window goes in a window's whole words
        /// at a time; the pieces leave what per-bit pushes leave. Windows
        /// of at least a word, batches of one to five windows whose ends
        /// fall inside a word, after a prefix that puts the batch's start
        /// anywhere in a word.
        #[test]
        fn long_batches_match_single_pushes(
            n_max in 64u64..=700,
            windows in 1u64..=5,
            tail in 1u64..=63,
            prefix in 0usize..=200,
            density in 0usize..=3,
            inv_eps in 2u64..=10,
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let eps = 1.0 / inv_eps as f64;
            let p = [0.1, 0.5, 0.9, 1.0][density];
            let len = windows * n_max + tail;
            let len = len + u64::from(len.is_multiple_of(64));
            let mut rng = StdRng::seed_from_u64(seed);
            let head: Vec<bool> = (0..prefix).map(|_| rng.gen_bool(0.5)).collect();
            let long: Vec<bool> = (0..len).map(|_| rng.gen_bool(p)).collect();
            let mut single = DetWave::new(n_max, eps).unwrap();
            let mut worded = DetWave::new(n_max, eps).unwrap();
            for &b in head.iter().chain(&long).chain(&long) {
                single.push_bit(b);
            }
            worded.push_words(bits::Bits::from_bools(&head).as_ref());
            worded.push_words(bits::Bits::from_bools(&long).as_ref());
            worded.push_words(bits::Bits::from_bools(&long).as_ref());
            prop_assert_eq!(single.encode(), worded.encode());
        }


        /// Word-packed ingestion is indistinguishable from per-bit
        /// ingestion for every bit-stream synopsis in this crate: same encoded
        /// bytes (DetWave, on every build of its batch kernel), same
        /// structure (BasicWave), same state and answers (ExactCount) —
        /// including buffers split at arbitrary chunk boundaries, so
        /// `push_words` composes across engine batches exactly like
        /// `push_bit` does.
        #[test]
        fn push_words_matches_single_pushes(
            bits in packed_stream(),
            chunk in 1usize..=200,
            inv_eps in 2u64..=10,
            n_max in 8u64..=256,
        ) {
            let eps = 1.0 / inv_eps as f64;
            let packed = bits::Bits::from_bools(&bits);
            let windows = [1, n_max / 2 + 1, n_max];

            let mut single = DetWave::new(n_max, eps).unwrap();
            for &b in &bits {
                single.push_bit(b);
            }
            for kernel in ladder::Kernel::all() {
                let mut worded = DetWave::new(n_max, eps).unwrap();
                let mut chunked = DetWave::new(n_max, eps).unwrap();
                worded.push_words_with(kernel, packed.as_ref());
                for c in bits.chunks(chunk) {
                    chunked.push_words_with(kernel, bits::Bits::from_bools(c).as_ref());
                }
                prop_assert_eq!(single.encode(), worded.encode(), "{:?}", kernel);
                prop_assert_eq!(single.encode(), chunked.encode(), "{:?}", kernel);
            }

            let mut single = BasicWave::new(n_max, eps).unwrap();
            let mut worded = BasicWave::new(n_max, eps).unwrap();
            for &b in &bits {
                single.push_bit(b);
            }
            worded.push_words(packed.as_ref());
            prop_assert_eq!(single.level_contents(), worded.level_contents());
            prop_assert_eq!(single.pos(), worded.pos());
            for n in windows {
                prop_assert_eq!(single.query(n).unwrap(), worded.query(n).unwrap());
            }

            let mut single = ExactCount::new(n_max);
            let mut worded = ExactCount::new(n_max);
            for &b in &bits {
                single.push_bit(b);
            }
            worded.push_words(packed.as_ref());
            prop_assert_eq!(single.pos(), worded.pos());
            prop_assert_eq!(single.rank(), worded.rank());
            for n in windows {
                prop_assert_eq!(single.query(n), worded.query(n));
            }
        }

        /// Wave state is insensitive to trailing zeros beyond the window:
        /// after N zeros, every wave reports exactly 0.
        #[test]
        fn flushes_to_zero(bits in bit_stream()) {
            let n_max = 32u64;
            let mut w = DetWave::new(n_max, 0.5).unwrap();
            for &b in &bits {
                w.push_bit(b);
            }
            for _ in 0..n_max {
                w.push_bit(false);
            }
            prop_assert_eq!(w.query_max(), Estimate::exact(0));
        }

        /// Encode/decode round-trips on arbitrary streams and preserves
        /// every query answer.
        #[test]
        fn codec_roundtrip_preserves_queries(
            bits in bit_stream(),
            inv_eps in 2u64..=8,
            n_max in 8u64..=128,
        ) {
            let mut w = DetWave::new(n_max, 1.0 / inv_eps as f64).unwrap();
            for &b in &bits {
                w.push_bit(b);
            }
            let decoded = DetWave::decode(&w.encode()).unwrap();
            for n in 1..=n_max {
                prop_assert_eq!(w.query(n).unwrap(), decoded.query(n).unwrap());
            }
        }

        /// Decoding arbitrary bytes never panics — it returns an error
        /// or a structurally valid synopsis.
        #[test]
        fn codec_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            if let Ok(w) = DetWave::decode(&bytes) {
                for n in [1, w.max_window() / 2 + 1, w.max_window()] {
                    let _ = w.query(n);
                }
                let _ = w.profile();
            }
            if let Ok(w) = SumWave::decode(&bytes) {
                for n in [1, w.max_window() / 2 + 1, w.max_window()] {
                    let _ = w.query(n);
                }
            }
            if let Ok(w) = TimestampWave::decode(&bytes) {
                let _ = w.query(w.max_window());
                let _ = w.query(1);
            }
            if let Ok(w) = TimestampSumWave::decode(&bytes) {
                let _ = w.query(w.max_window());
                let _ = w.query(1);
            }
        }

        /// The timestamped sum wave brackets the truth on random
        /// timestamped streams.
        #[test]
        fn timestamp_sum_brackets(
            steps in prop::collection::vec((0u64..3, 0u64..=50), 1..600),
        ) {
            let (n, u, r) = (32u64, 2_048u64, 50u64);
            let mut w = TimestampSumWave::new(n, u, r, 0.25).unwrap();
            let mut items: Vec<(u64, u64)> = Vec::new();
            let mut ts = 1u64;
            for &(dt, v) in &steps {
                ts += dt;
                w.push(ts, v).unwrap();
                items.push((ts, v));
            }
            let s = ts.saturating_sub(n - 1).max(1);
            let actual: u64 = items
                .iter()
                .filter(|&&(t, _)| t >= s)
                .map(|&(_, v)| v)
                .sum();
            let est = w.query(n).unwrap();
            prop_assert!(est.brackets(actual));
            prop_assert!(est.relative_error(actual) <= 0.25 + 1e-9);
        }
    }

    /// What the mutated-valid fuzz asks of one codec: `decode` may
    /// refuse the bytes, but whatever it accepts answers every window
    /// with `lo <= value <= hi`, and re-encodes to bytes that decode to
    /// the same answers. Evaluates to the accepted wave, if any. A macro
    /// because the four types share these method names, not a trait; `k`
    /// is the header's last field, after `$params_before_k` others.
    macro_rules! check_mutant {
        ($wave:ty, $params_before_k:expr, $bytes:expr) => {{
            let bytes: Vec<u8> = $bytes;
            // Known and left open (ROADMAP item 8): the decoder sizes its
            // queues from `k` before it reads an entry, so a mutated `k`
            // between about 2^20 and 2^31 asks for gigabytes (a larger one
            // is refused). Keep the fuzz's memory small.
            let mut header = codec::BitReader::new(&bytes);
            let k = (0..=$params_before_k).map(|_| header.read_gamma()).last();
            let accepted = match k {
                Some(Ok(k)) if k <= 1 << 12 => <$wave>::decode(&bytes).ok(),
                _ => None,
            };
            if let Some(w) = &accepted {
                let again = <$wave>::decode(&w.encode()).expect("an accepted wave re-encodes");
                for n in [1, w.max_window() / 2 + 1, w.max_window()] {
                    let est = w.query(n).expect("n <= max_window");
                    prop_assert!(
                        est.lo as f64 <= est.value && est.value <= est.hi as f64,
                        "n={n}: {est:?}"
                    );
                    prop_assert_eq!(again.query(n).unwrap(), est, "n={}", n);
                }
            }
            accepted
        }};
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mutated-valid fuzz of the one wave decoder through its four
        /// wrappers: a real encoding with 1-3 bits flipped is mostly
        /// still well-framed, so it reaches the per-entry invariant
        /// checks that random bytes (above) almost never get to.
        #[test]
        fn codec_survives_mutated_valid_encodings(
            steps in prop::collection::vec((0u64..3, 0u64..=50), 1..400),
            inv_eps in 2u64..=8,
            n_max in 8u64..=128,
            flips in prop::collection::vec(any::<u64>(), 1..=3),
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut det = DetWave::new(n_max, eps).unwrap();
            let mut sum = SumWave::new(n_max, 50, eps).unwrap();
            let mut ts = TimestampWave::new(n_max, 2_048, eps).unwrap();
            let mut ts_sum = TimestampSumWave::new(n_max, 2_048, 50, eps).unwrap();
            let mut t = 1u64;
            for &(dt, v) in &steps {
                t += dt;
                det.push_bit(v % 2 == 1);
                sum.push_value(v).unwrap();
                ts.push(t, v % 2 == 1).unwrap();
                ts_sum.push(t, v).unwrap();
            }
            let mutate = |mut bytes: Vec<u8>| {
                for f in &flips {
                    let bit = (f % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                }
                bytes
            };
            if let Some(w) = check_mutant!(DetWave, 1, mutate(det.encode())) {
                let _ = w.profile();
                // The batch kernels run on what the decoder admits
                // (install, recovery), so it admits only ladder states.
                w.ladder().check_invariants(1);
            }
            check_mutant!(SumWave, 2, mutate(sum.encode()));
            check_mutant!(TimestampWave, 2, mutate(ts.encode()));
            check_mutant!(TimestampSumWave, 3, mutate(ts_sum.encode()));
        }
    }
}
