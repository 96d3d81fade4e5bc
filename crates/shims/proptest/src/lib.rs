//! Offline stand-in for `proptest`.
//!
//! The workspace builds without network access, so this crate provides
//! the slice of the proptest API its test suites use:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * range strategies (`0.0f64..1.0`, `2usize..2048`, …), tuple
//!   strategies, [`collection::vec`], and [`strategy::Strategy::prop_map`].
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! generated from a **fixed deterministic seed** (derived from the test's
//! module path and name), so failures reproduce exactly across runs and
//! machines with no persistence files; and there is **no shrinking** — a
//! failing case panics with the generated values still bound, which the
//! assert message can show.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Runner configuration and the deterministic case RNG.

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// A config running `n` cases.
        pub fn with_cases(n: u32) -> Self {
            Config { cases: n.max(1) }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic per-test RNG (SplitMix64 stream).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the test identified by `ident`
        /// (conventionally `module_path!()::test_name`).
        pub fn deterministic(ident: &str, case: u32) -> Self {
            // FNV-1a over the identifier, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in ident.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, bound)` (`bound >= 1`).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound >= 1);
            // Multiply-shift; bias < 2^-64, irrelevant for test-case gen.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_signed_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + (self.end - self.start) * rng.unit_f64() as $t
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Accepted size specifications for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Strategy generating `Vec`s of values from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of values from `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a `proptest!`-based test module needs.

    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, …)`
/// item expands to a plain `#[test]` that runs the body over
/// deterministically generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            cfg = (<$crate::test_runner::Config as Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (cfg = ($cfg:expr);
     $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::Config = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::TestRng::deterministic(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("shim::bounds", 0);
        for _ in 0..1000 {
            let x = (1.5f64..9.5).generate(&mut rng);
            assert!((1.5..9.5).contains(&x));
            let n = (2usize..2048).generate(&mut rng);
            assert!((2..2048).contains(&n));
            let s = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::deterministic("shim::vec", 1);
        for _ in 0..200 {
            let v = collection::vec(0.0f64..1.0, 2..128).generate(&mut rng);
            assert!((2..128).contains(&v.len()));
            let exact = collection::vec(0u32..10, 300usize).generate(&mut rng);
            assert_eq!(exact.len(), 300);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let gen = |case| {
            let mut rng = TestRng::deterministic("shim::det", case);
            collection::vec(0u64..1000, 1..50).generate(&mut rng)
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
    }

    #[test]
    fn prop_map_and_tuples() {
        let strat = (1usize..6, 0.0f64..10.0).prop_map(|(n, x)| vec![x; n]);
        let mut rng = TestRng::deterministic("shim::map", 0);
        let v = strat.generate(&mut rng);
        assert!(!v.is_empty() && v.len() < 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_form_works(x in 0.0f64..1.0, n in 1usize..10) {
            prop_assert!(x < 1.0);
            prop_assert_eq!(n, n);
            prop_assert_ne!(n, n + 1);
        }
    }
}
