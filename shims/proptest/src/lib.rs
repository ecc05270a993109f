//! Workspace-local stand-in for `proptest`.
//!
//! Provides the subset the repository's property tests call: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`),
//! [`prop_assert!`]/[`prop_assert_eq!`], [`prop_oneof!`],
//! [`ProptestConfig`] (`with_cases`), [`Strategy`] (`prop_map`) for
//! integer `a..b` / `a..=b` and `f64` `a..b` ranges, tuples of two to
//! four strategies and [`Just`], [`any`] over [`Arbitrary`] (`bool`,
//! `u8`, `u64`, `usize`), and [`collection::vec`] (also as
//! `prop::collection::vec`) with an exact or `a..b` length.
//!
//! Unlike upstream proptest there is no shrinking: each test runs a
//! fixed number of deterministic random cases (seeded from the test name
//! and case index, so failures are reproducible across runs and
//! machines).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; the shim trims to keep the heavy
        // second-order meta-gradient properties fast in CI.
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Builds the deterministic RNG for one test case.
pub fn test_rng(test_name: &str, case: u32) -> StdRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A generator of random values for one macro argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f` (upstream's `prop_map`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter applying a function to every generated value.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical full-range strategy (upstream's `Arbitrary`,
/// trimmed to the primitives the workspace generates).
pub trait Arbitrary {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                // Truncating a full-range u64 keeps every bit pattern of
                // the narrower type equally likely.
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

arbitrary_ints!(u8, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen()
    }
}

/// Strategy over a type's full value range — see [`any`].
struct Any<T>(core::marker::PhantomData<T>);

/// Full-range strategy for an [`Arbitrary`] type: `any::<u8>()`.
pub fn any<T: Arbitrary>() -> impl Strategy<Value = T> {
    Any(core::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform choice between strategies of one value type — built by
/// [`prop_oneof!`].
pub struct OneOf<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// A choice of one alternative so far.
    pub fn new(first: impl Strategy<Value = V> + 'static) -> Self {
        OneOf {
            options: vec![Box::new(first)],
        }
    }

    /// Adds one alternative.
    pub fn or(mut self, s: impl Strategy<Value = V> + 'static) -> Self {
        self.options.push(Box::new(s));
        self
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut StdRng) -> V {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

/// Uniformly picks one of several strategies per case (upstream's
/// weightless `prop_oneof!` form).
#[macro_export]
macro_rules! prop_oneof {
    ($first:expr $(, $s:expr)* $(,)?) => {
        $crate::OneOf::new($first)$(.or($s))*
    };
}

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A strategy yielding a constant value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

/// Collection strategies.
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Size specification for [`vec()`]: an exact length or a half-open
    /// range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                min: exact,
                max_excl: exact + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "SizeRange: empty range");
            SizeRange {
                min: r.start,
                max_excl: r.end,
            }
        }
    }

    struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(
        element: S,
        size: impl Into<SizeRange>,
    ) -> impl Strategy<Value = Vec<S::Value>> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = if self.size.min + 1 == self.size.max_excl {
                self.size.min
            } else {
                rng.gen_range(self.size.min..self.size.max_excl)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Namespace mirror of upstream's `prop::` paths (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{any, collection, prop};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{Arbitrary, Just, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` runs
/// `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_rng(stringify!($name), __case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_cases() {
        let mut a = crate::test_rng("t", 3);
        let mut b = crate::test_rng("t", 3);
        let s = 0.0f64..1.0;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_respect_bounds(
            x in -2.0f64..3.0,
            n in 1usize..10,
            v in collection::vec(0u64..100, 0..8),
            pair in (-1.0f64..1.0, 0u32..5),
        ) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&e| e < 100));
            prop_assert!(pair.0.abs() <= 1.0 && pair.1 < 5);
        }

        #[test]
        fn exact_vec_len(v in collection::vec(-1.0f64..1.0, 12)) {
            prop_assert_eq!(v.len(), 12);
        }
    }
}
