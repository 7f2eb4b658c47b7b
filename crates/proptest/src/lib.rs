//! Vendored stand-in for the `proptest` 1.x API subset this workspace
//! uses.
//!
//! The build environment has no registry access, so the workspace
//! vendors a std-only property-testing harness covering exactly the
//! surface its tests consume: the [`proptest!`] macro (with optional
//! `#![proptest_config(...)]` header and `name in strategy` /
//! `name: Type` argument forms), integer-range / tuple / [`Just`] /
//! `prop_map` / [`prop_oneof!`] / `prop::collection::vec` /
//! `prop::bool` strategies, [`any`], and the `prop_assert*` macros.
//!
//! Differences from real proptest: cases are generated from a
//! deterministic per-test seed (derived from the test name), and there
//! is **no automatic shrink tree** — a failing case panics with the
//! case index so it can be replayed by rerunning the test. For
//! vector-shaped values there is explicit *element-removal* shrinking:
//! [`shrink_elements`] (also reachable as
//! `prop::collection::VecStrategy::shrink_failing`) greedily deletes
//! chunks of a failing vector while a caller-supplied predicate keeps
//! failing, which is what the `waves-dst` harness uses to minimize
//! failing fault schedules.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Per-test RNG handed to strategies. Deterministic per (test name,
/// case index), so failures reproduce on rerun.
pub struct TestRng(StdRng);

impl TestRng {
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the test name mixes distinct tests apart.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Greedy element-removal shrinking (delta-debugging style) for a
/// failing vector-shaped input.
///
/// `failing` must currently fail (`still_fails(failing)` is true; this
/// is debug-asserted). The shrinker repeatedly tries deleting chunks —
/// starting at half the vector and halving down to single elements —
/// keeping any candidate for which `still_fails` returns true. The
/// result is 1-minimal with respect to single-element removal: deleting
/// any one remaining element makes the failure disappear. Every
/// candidate handed to `still_fails` is a subsequence of `failing`
/// (order preserved, no mutation), so schedule-shaped inputs whose
/// steps carry materialized data shrink soundly.
pub fn shrink_elements<T, F>(failing: &[T], mut still_fails: F) -> Vec<T>
where
    T: Clone,
    F: FnMut(&[T]) -> bool,
{
    debug_assert!(still_fails(failing), "input to shrink_elements must fail");
    let mut cur: Vec<T> = failing.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if still_fails(&candidate) {
                cur = candidate;
                progressed = true;
                // Do not advance: the next chunk slid into `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            if !progressed {
                return cur;
            }
            // A removal succeeded at granularity 1: one more sweep may
            // now remove elements that were previously load-bearing.
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Runner configuration; only `cases` is meaningful here.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. Unlike real proptest there is no shrink tree —
/// `sample` draws one value.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E));

/// Types with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen()
            }
        }
    )*};
}
impl_arbitrary!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, f32, f64);

/// Full-domain strategy for `T` — `any::<u64>()` etc.
pub struct Any<T>(core::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// One weighted arm of a [`Union`]: `(weight, sampler)`.
pub type UnionArm<T> = (u32, Box<dyn Fn(&mut TestRng) -> T>);

/// Weighted union of same-valued strategies (see [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<UnionArm<T>>,
    total: u64,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<UnionArm<T>>) -> Self {
        let total = arms.iter().map(|&(w, _)| u64::from(w)).sum();
        assert!(total > 0, "prop_oneof! needs positive total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (w, f) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return f(rng);
            }
            pick -= w;
        }
        unreachable!("weights sum to total")
    }
}

pub mod prop {
    pub mod bool {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// `bool` strategy that is `true` with probability `p`.
        pub struct Weighted(f64);

        pub fn weighted(p: f64) -> Weighted {
            assert!((0.0..=1.0).contains(&p));
            Weighted(p)
        }

        impl Strategy for Weighted {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.gen_bool(self.0)
            }
        }

        /// Unbiased `bool` strategy.
        pub struct Any;

        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.gen_bool(0.5)
            }
        }
    }

    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Acceptable length specifications for [`vec()`].
        pub trait IntoSizeRange {
            fn sample_len(&self, rng: &mut TestRng) -> usize;
        }

        impl IntoSizeRange for core::ops::Range<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                rng.gen_range(self.clone())
            }
        }

        impl IntoSizeRange for core::ops::RangeInclusive<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                rng.gen_range(self.clone())
            }
        }

        impl IntoSizeRange for usize {
            fn sample_len(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        /// `Vec` strategy: `len` elements drawn from `element`.
        pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }

        impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.sample_len(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }

        impl<S: Strategy, L: IntoSizeRange> VecStrategy<S, L>
        where
            S::Value: Clone,
        {
            /// Element-removal shrinking for a failing sample drawn from
            /// this strategy: returns a 1-minimal subsequence that still
            /// fails `still_fails`. See [`crate::shrink_elements`].
            pub fn shrink_failing<F>(&self, failing: &[S::Value], still_fails: F) -> Vec<S::Value>
            where
                F: FnMut(&[S::Value]) -> bool,
            {
                crate::shrink_elements(failing, still_fails)
            }
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        shrink_elements, Just, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(
            (
                $weight as u32,
                {
                    let __s = $strat;
                    Box::new(move |rng: &mut $crate::TestRng| $crate::Strategy::sample(&__s, rng))
                        as Box<dyn Fn(&mut $crate::TestRng) -> _>
                },
            )
        ),+])
    };
}

/// Generate `let` bindings for one test case from the proptest argument
/// list (`name in strategy` or `name: Type` forms, in any order).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $n:ident in $s:expr, $($rest:tt)*) => {
        let $n = $crate::Strategy::sample(&($s), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $n:ident in $s:expr) => {
        let $n = $crate::Strategy::sample(&($s), &mut $rng);
    };
    ($rng:ident, $n:ident : $t:ty, $($rest:tt)*) => {
        let $n: $t = $crate::Strategy::sample(&$crate::any::<$t>(), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $n:ident : $t:ty) => {
        let $n: $t = $crate::Strategy::sample(&$crate::any::<$t>(), &mut $rng);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($args:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..u64::from(__cfg.cases) {
                    let __run = std::panic::AssertUnwindSafe(|| {
                        let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                        $crate::__proptest_bind!(__rng, $($args)*);
                        $body
                    });
                    // Panic again with the case named: its index replays it.
                    if let Err(__panic) = std::panic::catch_unwind(__run) {
                        let __message = __panic
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| __panic.downcast_ref::<&str>().copied())
                            .unwrap_or("a non-string panic");
                        panic!(
                            "proptest {}: case {} of {} failed: {}",
                            stringify!($name), __case, __cfg.cases, __message
                        );
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Push(bool),
        Query(u8),
        Skip,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                4 => prop::bool::ANY.prop_map(Op::Push),
                2 => (0u8..=255).prop_map(Op::Query),
                1 => Just(Op::Skip),
            ],
            0..50,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u64..10, b in 5u32..=5, neg in -4i64..=4) {
            prop_assert!((3..10).contains(&a));
            prop_assert_eq!(b, 5);
            prop_assert!((-4..=4).contains(&neg));
        }

        #[test]
        fn typed_args_cover_domain(x: u64, y: u8, flag: bool) {
            // Smoke: values exist and the binding forms mix freely.
            let _ = (x, y, flag);
        }

        #[test]
        fn mixed_forms_and_tuples(
            pair in (0u64..4, 10u64..=20),
            seed: u64,
            v in prop::collection::vec(prop::bool::weighted(0.3), 2..8),
        ) {
            prop_assert!(pair.0 < 4 && (10..=20).contains(&pair.1));
            let _ = seed;
            prop_assert!((2..8).contains(&v.len()));
        }

        #[test]
        fn oneof_produces_every_arm(all in prop::collection::vec(
            prop_oneof![1 => Just(0u8), 1 => Just(1u8), 1 => Just(2u8)],
            200..201,
        )) {
            for arm in 0..3u8 {
                prop_assert!(all.contains(&arm), "arm {arm} never sampled");
            }
        }
    }

    /// Cases run since the process started, for the test below.
    static CASES_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The fourth case fails, and the panic says which it was.
        #[test]
        #[should_panic(expected = "proptest a_failing_case_names_its_index: case 3 of 8 failed: \
                                   the fourth case")]
        fn a_failing_case_names_its_index(x in 0u64..10) {
            let run = CASES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(run < 3 && x < 10, "the fourth case");
        }
    }

    #[test]
    fn composite_strategy_samples() {
        let strat = ops();
        let mut rng = crate::TestRng::for_case("composite", 0);
        let mut saw_push = false;
        for _ in 0..64 {
            let v = strat.sample(&mut rng);
            assert!(v.len() < 50);
            saw_push |= v.iter().any(|o| matches!(o, Op::Push(_)));
        }
        assert!(saw_push);
    }

    #[test]
    fn shrink_elements_reaches_one_minimal_subsequence() {
        // Failure = "contains a 7 and a 3, with the 7 before the 3".
        let failing = vec![1, 7, 9, 2, 3, 3, 7, 5];
        let fails = |v: &[i32]| {
            let first7 = v.iter().position(|&x| x == 7);
            match first7 {
                Some(i) => v[i..].contains(&3),
                None => false,
            }
        };
        let min = crate::shrink_elements(&failing, fails);
        assert!(fails(&min), "shrunk result must still fail");
        assert_eq!(min, vec![7, 3], "expected the minimal witness");
        // 1-minimality: removing any single element un-fails it.
        for i in 0..min.len() {
            let mut sub = min.clone();
            sub.remove(i);
            assert!(!fails(&sub));
        }
    }

    #[test]
    fn shrink_failing_on_vec_strategy_delegates() {
        let strat = crate::prop::collection::vec(0u64..100, 0..20usize);
        let mut rng = crate::TestRng::for_case("shrink_failing", 0);
        let mut sample = strat.sample(&mut rng);
        sample.push(63); // ensure the witness is present
        let fails = |v: &[u64]| v.contains(&63);
        let min = strat.shrink_failing(&sample, fails);
        assert_eq!(min, vec![63]);
    }

    #[test]
    fn shrink_elements_candidates_are_subsequences() {
        let failing: Vec<u32> = (0..57).collect();
        let fails = |v: &[u32]| {
            // Every candidate must be an order-preserving subsequence.
            let mut it = failing.iter();
            assert!(
                v.iter().all(|x| it.any(|y| y == x)),
                "candidate {v:?} is not a subsequence"
            );
            v.iter().copied().sum::<u32>() >= 100
        };
        let min = crate::shrink_elements(&failing, fails);
        assert!(fails(&min));
    }

    #[test]
    fn cases_are_deterministic() {
        let s = 0u64..1000;
        let a: Vec<u64> = (0..10)
            .map(|c| s.sample(&mut crate::TestRng::for_case("det", c)))
            .collect();
        let b: Vec<u64> = (0..10)
            .map(|c| s.sample(&mut crate::TestRng::for_case("det", c)))
            .collect();
        assert_eq!(a, b);
        let other: Vec<u64> = (0..10)
            .map(|c| s.sample(&mut crate::TestRng::for_case("other", c)))
            .collect();
        assert_ne!(a, other);
    }
}
