//! `waves-rand`: randomized wave synopses for distributed streams.
//!
//! Implements Section 4 and Section 5 of Gibbons & Tirthapura (SPAA
//! 2002): deterministic algorithms cannot approximate the positionwise
//! union of distributed streams in small space (Theorem 4), so these
//! synopses are randomized, built on the shared pairwise-independent
//! level hash of [`waves_gf2`]. Section 5 is Section 4's wave
//! re-targeted from positions to values, and the crate is built the
//! same way — one [`Wave`] interface, two wave types:
//!
//! * [`UnionWave`] — Union Counting in a sliding window over `t`
//!   distributed bit streams (Theorem 5): an `(eps, delta)`-approximation
//!   using `O(log(1/delta) log^2 N / eps^2)` bits per party, independent
//!   of `t`;
//! * [`DistinctWave`] — distinct-values counting in a sliding window
//!   over distributed value streams (Theorem 6), with predicate queries
//!   at query time;
//! * [`Party`] (one wave per instance; [`UnionParty`], [`DistinctParty`]),
//!   its [`Message`] of per-instance [`Report`]s, the [`Referee`] that
//!   combines them ([`combine_instance`], median of instances) and the
//!   [`estimate`] driver — written once over both;
//! * [`RandConfig`] — the stored-coins configuration shared by parties
//!   and Referee; [`instances_for`] — the median-of-instances count for
//!   a target failure probability `delta`.
//!
//! ```
//! use rand::SeedableRng;
//! use waves_rand::{estimate, RandConfig, Referee, UnionParty};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = RandConfig::for_positions(1_000, 0.2, 0.1, &mut rng).unwrap();
//! let mut a = UnionParty::new(&cfg);
//! let mut b = UnionParty::new(&cfg);
//! for i in 0..2_000u64 {
//!     a.push(i % 5 == 0);
//!     b.push(i % 7 == 0);
//! }
//! let referee = Referee::new(cfg);
//! let est = estimate(&referee, &[a, b], 1_000).unwrap();
//! assert!(est > 0.0);
//! ```

pub mod config;
pub mod distinct;
pub mod referee;
mod sample;
pub mod union_wave;
pub mod wave;

pub use config::{instances_for, median, RandConfig, PAPER_C};
pub use distinct::{DistinctParty, DistinctWave};
pub use referee::{combine_instance, estimate, Message, Party, PartyMessage, Referee};
pub use union_wave::{InstanceReport, UnionParty, UnionWave};
pub use wave::{Element, Report, Wave};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With a single party and a sparse stream the estimator is
        /// exact (level 0 covers the window).
        #[test]
        fn sparse_single_party_exact(
            period in 20u64..60,
            len in 100u64..400,
            seed: u64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = RandConfig::for_positions(64, 0.5, 0.4, &mut rng)
                .unwrap()
                .with_instances(3, &mut rng);
            let mut p = UnionParty::new(&cfg);
            let mut actual = 0u64;
            for i in 1..=len {
                let b = i % period == 0;
                p.push(b);
                if b && i + 64 > len {
                    actual += 1;
                }
            }
            let referee = Referee::new(cfg);
            let est = estimate(&referee, &[p], 64).unwrap();
            prop_assert_eq!(est, actual as f64);
        }

        /// Estimates never go negative and duplicated parties don't
        /// change the answer (union idempotence).
        #[test]
        fn union_idempotent_under_duplication(
            bits in prop::collection::vec(prop::bool::weighted(0.3), 50..300),
            seed: u64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = RandConfig::for_positions(64, 0.4, 0.4, &mut rng)
                .unwrap()
                .with_instances(3, &mut rng);
            let mut a = UnionParty::new(&cfg);
            let mut b = UnionParty::new(&cfg);
            for &bit in &bits {
                a.push(bit);
                b.push(bit);
            }
            let referee = Referee::new(cfg);
            let one = estimate(&referee, &[a.clone()], 64).unwrap();
            let two = estimate(&referee, &[a, b], 64).unwrap();
            prop_assert!((one - two).abs() < 1e-9);
        }
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mutated-valid fuzz of the two decoders: a real encoding with
        /// 1-3 bits flipped is mostly still well-framed, so it reaches
        /// configurations no builder produces — coins over a field
        /// smaller than the window, `q = r = 0`, a degree or capacity
        /// the sampled one never had — and the waves built from them.
        #[test]
        fn decoders_survive_mutated_valid_encodings(
            window in 8u64..=512,
            max_value in 1u64..=4096,
            inv_eps in 2u64..=6,
            m in 0usize..=4,
            seed: u64,
            flips in prop::collection::vec(any::<u64>(), 1..=3),
        ) {
            let mutate = |mut bytes: Vec<u8>| {
                for f in &flips {
                    let bit = (f % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                }
                bytes
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let eps = 1.0 / inv_eps as f64;
            for cfg in [
                RandConfig::for_positions(window, eps, 0.3, &mut rng).unwrap(),
                RandConfig::for_values(window, max_value, eps, 0.3, &mut rng).unwrap(),
            ] {
                let cfg = cfg.with_instances(2 * m + 1, &mut rng);
                let Ok(got) = RandConfig::decode(&mutate(cfg.encode())) else {
                    continue;
                };
                let again = RandConfig::decode(&got.encode()).expect("an accepted config re-encodes");
                prop_assert_eq!(again.max_window(), got.max_window());
                prop_assert_eq!(again.degree(), got.degree());
                prop_assert_eq!(again.queue_capacity(), got.queue_capacity());
                prop_assert_eq!(again.instances(), got.instances());
                for i in 0..got.instances() {
                    prop_assert_eq!(again.hash(i), got.hash(i));
                }
                // Nothing bounds a valid capacity, degree or instance
                // count from above, and the waves allocate by them:
                // keep the fuzz's memory small.
                if got.queue_capacity() > 4096 || got.degree() > 24 || got.instances() > 9 {
                    continue;
                }
                let n = got.max_window().min(300);
                let mut union = UnionParty::new(&got);
                let mut distinct = DistinctParty::new(&got);
                for i in 0..300u64 {
                    union.push(i % 3 != 0);
                    distinct.push(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52);
                }
                let referee = Referee::new(got);
                let est = estimate(&referee, &[union.clone()], n).unwrap();
                prop_assert!(est.is_finite() && est >= 0.0, "union {}", est);
                let est = estimate(&referee, &[distinct], n).unwrap();
                prop_assert!(est.is_finite() && est >= 0.0, "distinct {}", est);

                // A message is wire input too: whatever decodes with
                // the right report count is answered.
                let msg = union.message(n).unwrap();
                if let Ok(msg) = PartyMessage::decode(&mutate(msg.encode())) {
                    if msg.reports.len() == referee.config().instances() {
                        let est = referee.estimate(&[msg], union.pos() + 1 - n);
                        prop_assert!(est.is_finite() && est >= 0.0, "mutated message {}", est);
                    }
                }
            }
        }
    }
}
