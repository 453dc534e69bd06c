//! Offline stand-in for the `proptest` crate, covering the subset this
//! workspace's property tests use: range/tuple/`any` strategies,
//! `prop_map`, weighted `prop_oneof!`, `prop::collection::vec`, the
//! `proptest!` test macro with `#![proptest_config(...)]`, and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic seed sequence (reproducible across runs), and failing
//! inputs are **not shrunk** — the panic message carries the case number so
//! a failure is still reproducible by rerunning the same binary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// RNG handed to strategies while generating one case.
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    /// Runner for case number `case` of test `test_name`.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the test name, mixed with the case index, so every
        // test gets its own deterministic stream.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        TestRunner {
            rng: StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Raw uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen::<u64>()
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.rng.gen_range(0u64..n)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }
}

/// A generator of values of one type (object-safe; no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Box the strategy (used by `prop_oneof!` to unify arm types).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated strategy trait object.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, runner: &mut TestRunner) -> V {
        (**self).generate(runner)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

/// Strategy producing one fixed (cloned) value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut TestRunner) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + runner.below(span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, usize);

impl Strategy for Range<u64> {
    type Value = u64;
    fn generate(&self, runner: &mut TestRunner) -> u64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + runner.below(self.end - self.start)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, runner: &mut TestRunner) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + runner.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(runner),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// Types with a canonical "any value" strategy (subset of `Arbitrary`).
pub trait ArbitraryShim: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(runner: &mut TestRunner) -> Self;
}

impl ArbitraryShim for bool {
    fn arbitrary(runner: &mut TestRunner) -> bool {
        runner.next_u64() & 1 == 1
    }
}

impl ArbitraryShim for u64 {
    fn arbitrary(runner: &mut TestRunner) -> u64 {
        runner.next_u64()
    }
}

impl ArbitraryShim for u32 {
    fn arbitrary(runner: &mut TestRunner) -> u32 {
        (runner.next_u64() >> 32) as u32
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: ArbitraryShim> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        T::arbitrary(runner)
    }
}

/// Strategy for an arbitrary value of `T`.
pub fn any<T: ArbitraryShim>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Weighted union used by `prop_oneof!`.
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Build from weighted boxed arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(!arms.is_empty());
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof: all weights zero");
        Union { arms, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, runner: &mut TestRunner) -> V {
        let mut pick = runner.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(runner);
            }
            pick -= *w as u64;
        }
        unreachable!("weights summed to total")
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRunner};
    use std::ops::Range;

    /// Strategy for a `Vec` of `inner` values with length drawn from `len`.
    pub fn vec<S: Strategy>(inner: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { inner, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        inner: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let n = self.len.start + runner.below((self.len.end - self.len.start) as u64) as usize;
            (0..n).map(|_| self.inner.generate(runner)).collect()
        }
    }
}

/// Per-test configuration (subset of proptest's).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for API compatibility; unused (no shrinking).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// Weighted choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Assert inside a proptest body (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            // Callers write `#[test]` themselves (captured in $meta), as
            // with real proptest.
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..config.cases as u64 {
                    let mut runner = $crate::TestRunner::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut runner);)+
                    let run = move || { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                        eprintln!(
                            "proptest shim: test '{}' failed at case {} (deterministic seed; rerun reproduces it)",
                            stringify!($name), case
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

/// The prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{BoxedStrategy, Just, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        A(u32),
        B(bool),
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, f in 0.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_oneof_compose(ops in prop::collection::vec(prop_oneof![
            3 => (0u32..10).prop_map(Op::A),
            1 => any::<bool>().prop_map(Op::B),
        ], 1..50)) {
            prop_assert!(!ops.is_empty() && ops.len() < 50);
            for op in ops {
                if let Op::A(v) = op { prop_assert!(v < 10); }
            }
        }

        #[test]
        fn tuples_generate(pair in (0u32..5, any::<u64>()), trip in (0u32..2, 0u32..2, any::<bool>())) {
            prop_assert!(pair.0 < 5);
            prop_assert!(trip.0 < 2 && trip.1 < 2);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let gen = |case| {
            let mut r = crate::TestRunner::for_case("det", case);
            (0u32..1000).generate(&mut r)
        };
        assert_eq!(gen(5), gen(5));
    }
}
