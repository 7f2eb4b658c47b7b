//! `waves-eh`: the exponential-histogram baseline.
//!
//! Implements the synopses of Datar, Gionis, Indyk & Motwani,
//! *Maintaining Stream Statistics over Sliding Windows* (SIAM J. Comput.
//! 2002) — reference \[9\] of the waves paper and the algorithms it is
//! benchmarked against:
//!
//! * [`EhCount`] — Basic Counting (eps relative error, O(1) amortized /
//!   O(log N) worst-case per item due to cascading bucket merges);
//! * [`EhSum`] — sums of integers in `[0..R]` (an item may spread across
//!   `O(log N + log R)` buckets).
//!
//! Both are one histogram, written once and generic over what a bucket
//! run stores for its multiplicity: Basic Counting is the sums' `R = 1`
//! case with nothing stored. Both record merge-cascade statistics so
//! experiments can show the worst-case per-item gap that the
//! deterministic wave closes.
//!
//! [`XuCount`] adds Xu's boosted basic counting (arXiv:1312.0042) as a
//! second baseline: O(1) worst-case updates with deferred batch
//! compression instead of per-arrival cascades, cross-checked against
//! the EH and the exact oracle in `tests/det_vs_exact.rs`.
//!
//! ```
//! use waves_eh::EhCount;
//!
//! let mut eh = EhCount::new(1_000, 0.1).unwrap();
//! for i in 0..5_000u64 {
//!     eh.push_bit(i % 2 == 0);
//! }
//! let est = eh.query(1_000).unwrap();
//! assert!(est.relative_error(500) <= 0.1);
//! ```

pub mod basic;
mod histogram;
pub mod sum;
pub mod xu;

pub use basic::EhCount;
pub use sum::EhSum;
pub use xu::XuCount;

use waves_core::error::WaveError;

/// The integer every error bound in this crate is quantized to,
/// `ceil(1 / (scale * eps))`: the histograms' `m` (`scale = 2`) and Xu's
/// `inv` (`scale = 1`). It is computed from `eps` here and nowhere else,
/// and the codecs carry it. Like `waves_core`'s `k`, it is held to
/// `2^32`, the most the decoders accept: past it a synopsis would encode
/// bytes its own decoder refuses.
pub(crate) fn quantize_eps(eps: f64, scale: f64) -> Result<u64, WaveError> {
    let q = (1.0 / (scale * eps)).ceil() as u64;
    if eps > 0.0 && eps < 1.0 && q <= 1 << 32 {
        Ok(q)
    } else {
        Err(WaveError::InvalidEpsilon(eps))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use waves_core::exact::{ExactCount, ExactSum};

    /// Streams biased toward the packed-word boundary cases (len % 64
    /// ∈ {0, 1, 63}, empty, all-ones) plus sparse and dense random
    /// streams.
    fn packed_stream() -> impl Strategy<Value = Vec<bool>> {
        prop_oneof![
            1 => prop::collection::vec(prop::bool::weighted(0.5), 0..1500),
            1 => prop::collection::vec(prop::bool::weighted(0.02), 0..1500),
            1 => (prop::collection::vec(any::<bool>(), 129..=129), 0usize..=7)
                .prop_map(|(mut v, i): (Vec<bool>, usize)| {
                    v.truncate([0usize, 1, 63, 64, 65, 127, 128, 129][i]);
                    v
                }),
            1 => (0usize..=4).prop_map(|i: usize| vec![true; [1usize, 63, 64, 65, 128][i]]),
        ]
    }

    /// The `m` values whose own `eps = 1/(2m)` rounds back up to
    /// `m + 1` (328 of the `m <= 5000`), which the proptests' `m <= 5`
    /// never reach: the decoder must rebuild from the coded `m`.
    const DRIFTING_M: [u64; 5] = [49, 98, 103, 107, 196];

    #[test]
    fn eh_count_roundtrip_survives_non_injective_eps_to_m() {
        for m in DRIFTING_M {
            // ceil((2m - 1) / 2) = m: this eps builds exactly `m`.
            let mut eh = EhCount::new(4096, 1.0 / (2 * m - 1) as f64).unwrap();
            for i in 0..20_000u64 {
                eh.push_bit(i % 3 != 0);
            }
            let bytes = eh.encode();
            let mut decoded = EhCount::decode(&bytes).unwrap();
            assert_eq!(decoded.encode(), bytes, "m={m}");
            for i in 0..4_000u64 {
                eh.push_bit(i % 5 != 0);
                decoded.push_bit(i % 5 != 0);
            }
            assert_eq!(decoded.query(4096), eh.query(4096), "m={m}");
            assert_eq!(decoded.encode(), eh.encode(), "m={m}");
        }
    }

    #[test]
    fn eh_sum_roundtrip_survives_non_injective_eps_to_m() {
        for m in DRIFTING_M {
            let mut eh = EhSum::new(4096, 16, 1.0 / (2 * m - 1) as f64).unwrap();
            for i in 0..20_000u64 {
                eh.push_value(i % 17).unwrap();
            }
            let bytes = eh.encode();
            let mut decoded = EhSum::decode(&bytes).unwrap();
            assert_eq!(decoded.encode(), bytes, "m={m}");
            for i in 0..4_000u64 {
                eh.push_value(i % 13).unwrap();
                decoded.push_value(i % 13).unwrap();
            }
            assert_eq!(decoded.query(4096), eh.query(4096), "m={m}");
            assert_eq!(decoded.encode(), eh.encode(), "m={m}");
        }
    }

    /// A builder accepts an `eps` only if the decoder accepts its `m`
    /// (Xu: `inv`) back, `<= 2^32`. Past it the bytes an engine
    /// checkpoints were bytes its own decoder refused, and at `1e-20`
    /// the saturated `m` overflowed on the first 1. The boundary is
    /// `eps = 2^-33` for `m = ceil(1/(2 eps))` and `2^-32` for
    /// `inv = ceil(1/eps)`: the next float below is refused, and the
    /// boundary itself round-trips.
    #[test]
    fn eps_is_held_to_what_the_decoders_accept() {
        let below = |eps: f64| f64::from_bits(eps.to_bits() - 1);
        let (eh_min, xu_min) = (2f64.powi(-33), 2f64.powi(-32));
        for eps in [1e-10, 1e-20, below(eh_min)] {
            let refused = Err(WaveError::InvalidEpsilon(eps));
            assert_eq!(EhCount::new(1024, eps).map(|_| ()), refused);
            assert_eq!(EhSum::new(1024, 16, eps).map(|_| ()), refused);
        }
        for eps in [1e-10, 1e-20, below(xu_min)] {
            let refused = Err(WaveError::InvalidEpsilon(eps));
            assert_eq!(XuCount::new(1024, eps).map(|_| ()), refused);
        }
        let mut count = EhCount::new(1024, eh_min).unwrap();
        let mut sum = EhSum::new(1024, 16, eh_min).unwrap();
        let mut xu = XuCount::new(1024, xu_min).unwrap();
        for i in 0..3000u64 {
            count.push_bit(i % 3 != 0);
            sum.push_value(i % 17).unwrap();
            xu.push_bit(i % 3 != 0);
        }
        let bytes = count.encode();
        assert_eq!(EhCount::decode(&bytes).unwrap().encode(), bytes);
        let bytes = sum.encode();
        assert_eq!(EhSum::decode(&bytes).unwrap().encode(), bytes);
        let bytes = xu.encode();
        assert_eq!(XuCount::decode(&bytes).unwrap().encode(), bytes);
    }

    /// What every accepted mutant must still do: answer each window
    /// with `lo <= value <= hi`, decode again from its own encoding to
    /// the same answers, and keep ingesting. A macro because the three
    /// types share these method names, not a trait.
    macro_rules! check_mutant {
        ($ty:ty, $bytes:expr, |$syn:ident, $i:ident| $push:expr) => {{
            if let Ok(mut $syn) = <$ty>::decode(&$bytes) {
                let again = <$ty>::decode(&$syn.encode()).expect("an accepted synopsis re-encodes");
                let n_max = $syn.max_window();
                for n in [1, n_max / 2 + 1, n_max] {
                    let est = $syn.query(n).expect("n <= max_window");
                    prop_assert!(
                        est.lo as f64 <= est.value && est.value <= est.hi as f64,
                        "n={n}: {est:?}"
                    );
                    prop_assert_eq!(again.query(n).unwrap(), est, "n={}", n);
                }
                for $i in 0..300u64 {
                    $push;
                }
                let est = $syn.query(n_max).expect("n_max <= max_window");
                prop_assert!(
                    est.lo as f64 <= est.value && est.value <= est.hi as f64,
                    "after 300 pushes: {est:?}"
                );
            }
        }};
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mutated-valid fuzz of the three codecs: a real encoding with
        /// 1-3 bits flipped is mostly still well-framed, so it reaches
        /// the per-bucket checks that random bytes
        /// (`eh_decode_never_panics`) almost never get to.
        #[test]
        fn eh_codecs_survive_mutated_valid_encodings(
            vals in prop::collection::vec(0u64..=50, 1..400),
            inv_eps in 2u64..=8,
            n_max in 8u64..=128,
            flips in prop::collection::vec(any::<u64>(), 1..=3),
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut count = EhCount::new(n_max, eps).unwrap();
            let mut sum = EhSum::new(n_max, 50, eps).unwrap();
            let mut xu = XuCount::new(n_max, eps).unwrap();
            for &v in &vals {
                count.push_bit(v % 2 == 1);
                sum.push_value(v).unwrap();
                xu.push_bit(v % 2 == 1);
            }
            let mutate = |mut bytes: Vec<u8>| {
                for f in &flips {
                    let bit = (f % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                }
                bytes
            };
            check_mutant!(EhCount, mutate(count.encode()), |s, i| s.push_bit(i % 3 != 0));
            check_mutant!(EhSum, mutate(sum.encode()), |s, i| {
                let v = (i % 7).min(s.max_value());
                s.push_value(v).expect("v <= max_value")
            });
            check_mutant!(XuCount, mutate(xu.encode()), |s, i| s.push_bit(i % 3 != 0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn eh_count_eps_guarantee(
            bits in prop::collection::vec(prop::bool::weighted(0.5), 0..1500),
            inv_eps in 2u64..=10,
            n_max in 8u64..=128,
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut eh = EhCount::new(n_max, eps).unwrap();
            let mut oracle = ExactCount::new(n_max);
            for (i, &b) in bits.iter().enumerate() {
                eh.push_bit(b);
                oracle.push_bit(b);
                if i % 19 == 0 || i + 1 == bits.len() {
                    let actual = oracle.query(n_max);
                    let est = eh.query(n_max).unwrap();
                    prop_assert!(est.brackets(actual));
                    prop_assert!(est.relative_error(actual) <= eps + 1e-9);
                }
            }
        }

        /// Encode/decode round-trips: the reconstruction answers every
        /// window query identically and re-encodes byte-for-byte.
        #[test]
        fn eh_count_codec_roundtrip(
            bits in prop::collection::vec(prop::bool::weighted(0.5), 0..1200),
            inv_eps in 2u64..=10,
            n_max in 8u64..=128,
        ) {
            let mut eh = EhCount::new(n_max, 1.0 / inv_eps as f64).unwrap();
            for &b in &bits {
                eh.push_bit(b);
            }
            let bytes = eh.encode();
            let decoded = EhCount::decode(&bytes).unwrap();
            for n in [1u64, n_max / 2 + 1, n_max] {
                prop_assert_eq!(eh.query(n).unwrap(), decoded.query(n).unwrap());
            }
            prop_assert_eq!(decoded.encode(), bytes);
            prop_assert_eq!(decoded.pos(), eh.pos());
            prop_assert_eq!(decoded.buckets(), eh.buckets());
        }

        #[test]
        fn eh_sum_codec_roundtrip(
            vals in prop::collection::vec(0u64..=64, 0..800),
            inv_eps in 2u64..=8,
            n_max in 8u64..=64,
        ) {
            let mut eh = EhSum::new(n_max, 64, 1.0 / inv_eps as f64).unwrap();
            for &v in &vals {
                eh.push_value(v).unwrap();
            }
            let bytes = eh.encode();
            let decoded = EhSum::decode(&bytes).unwrap();
            for n in [1u64, n_max / 2 + 1, n_max] {
                prop_assert_eq!(eh.query(n).unwrap(), decoded.query(n).unwrap());
            }
            prop_assert_eq!(decoded.encode(), bytes);
            prop_assert_eq!(decoded.pos(), eh.pos());
            prop_assert_eq!(decoded.buckets(), eh.buckets());
        }

        /// Word-packed ingestion is indistinguishable from per-bit
        /// ingestion: same encoded bytes, same answers, including
        /// buffers split at arbitrary chunk boundaries and the packed
        /// boundary lengths (len % 64 ∈ {0, 1, 63}, empty, all-ones).
        #[test]
        fn eh_push_words_matches_single_pushes(
            bits in packed_stream(),
            chunk in 1usize..=150,
            inv_eps in 2u64..=10,
            n_max in 8u64..=128,
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut single = EhCount::new(n_max, eps).unwrap();
            let mut worded = EhCount::new(n_max, eps).unwrap();
            let mut chunked = EhCount::new(n_max, eps).unwrap();
            for &b in &bits {
                single.push_bit(b);
            }
            worded.push_words(waves_core::bits::Bits::from_bools(&bits).as_ref());
            for c in bits.chunks(chunk) {
                chunked.push_words(waves_core::bits::Bits::from_bools(c).as_ref());
            }
            prop_assert_eq!(single.encode(), worded.encode());
            prop_assert_eq!(single.encode(), chunked.encode());
            prop_assert_eq!(single.buckets(), worded.buckets());
            for n in [1u64, n_max / 2 + 1, n_max] {
                prop_assert_eq!(single.query(n).unwrap(), worded.query(n).unwrap());
            }
        }

        /// Decoding adversarial bytes returns Err or a structure whose
        /// queries still work — never a panic.
        #[test]
        fn eh_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            if let Ok(eh) = EhCount::decode(&bytes) {
                let _ = eh.query(eh.max_window());
            }
            if let Ok(eh) = EhSum::decode(&bytes) {
                let _ = eh.query(eh.max_window());
            }
            if let Ok(xu) = XuCount::decode(&bytes) {
                let _ = xu.query(xu.max_window());
            }
        }

        #[test]
        fn eh_sum_eps_guarantee(
            vals in prop::collection::vec(0u64..=64, 0..1000),
            inv_eps in 2u64..=8,
            n_max in 8u64..=64,
        ) {
            let eps = 1.0 / inv_eps as f64;
            let mut eh = EhSum::new(n_max, 64, eps).unwrap();
            let mut oracle = ExactSum::new(n_max);
            for (i, &v) in vals.iter().enumerate() {
                eh.push_value(v).unwrap();
                oracle.push_value(v);
                if i % 17 == 0 || i + 1 == vals.len() {
                    let actual = oracle.query(n_max);
                    let est = eh.query(n_max).unwrap();
                    prop_assert!(est.brackets(actual));
                    prop_assert!(est.relative_error(actual) <= eps + 1e-9);
                }
            }
        }
    }
}
