//! Offline drop-in subset of the `proptest` crate API used by this
//! workspace.
//!
//! The build environment has no crates.io access, so this vendored shim
//! implements exactly the surface the workspace's property tests consume:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_flat_map`, integer and
//! float range strategies, tuple strategies, [`strategy::Just`],
//! `prop_oneof!`, [`collection::vec`] / [`collection::btree_set`],
//! [`arbitrary::any`], [`test_runner::ProptestConfig`], and the
//! `proptest!` / `prop_assert*` macros.
//!
//! Differences from real proptest: no shrinking (a failing case panics
//! with its case number and seed so it can be replayed deterministically),
//! and generation is driven by a SplitMix64 stream seeded from the test
//! name, so runs are fully reproducible.

#![forbid(unsafe_code)]

pub mod strategy {
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore};
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// Random-value source handed to strategies. Wraps the shim
    /// [`SmallRng`] so strategies stay object-safe-free and simple.
    pub struct TestRng(pub(crate) SmallRng);

    impl TestRng {
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        pub fn gen_usize(&mut self, lo: usize, hi_inclusive: usize) -> usize {
            self.0.gen_range(lo..=hi_inclusive)
        }
    }

    /// A generator of values of type `Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking: `generate`
    /// returns the final value directly.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returning a clone of a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

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

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice between same-typed strategies (`prop_oneof!`).
    pub struct Union<S> {
        options: Vec<S>,
    }

    impl<S: Strategy> Union<S> {
        pub fn new(options: Vec<S>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<S: Strategy> Strategy for Union<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            let i = rng.gen_usize(0, self.options.len() - 1);
            self.options[i].generate(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A / 0)
        (A / 0, B / 1)
        (A / 0, B / 1, C / 2)
        (A / 0, B / 1, C / 2, D / 3)
        (A / 0, B / 1, C / 2, D / 3, E / 4)
    }

    /// Strategy for "any value of `T`" — see [`crate::arbitrary::any`].
    pub struct AnyStrategy<T>(pub(crate) PhantomData<T>);

    macro_rules! any_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for AnyStrategy<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    any_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for AnyStrategy<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod arbitrary {
    use crate::strategy::AnyStrategy;
    use std::marker::PhantomData;

    /// `any::<T>()` — uniform over the whole domain of `T`.
    pub fn any<T>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Size bound accepted by the collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            rng.gen_usize(self.lo, self.hi_inclusive)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty collection size range");
            SizeRange {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, size)` — a vector with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // The element domain may be smaller than `target` (callers
            // clamp, but duplicates still slow convergence): cap the
            // attempts and accept a smaller set once the budget is spent,
            // mirroring proptest's rejection behaviour without the global
            // rejection bookkeeping.
            let mut attempts = 0usize;
            let budget = target * 16 + 64;
            while out.len() < target && attempts < budget {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }

    /// `btree_set(element, size)` — a set of distinct elements.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod test_runner {
    use crate::strategy::TestRng;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runner configuration. Only `cases` is consumed by the shim.
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

    /// Deterministic per-test RNG: seeded from the test's name so every
    /// run (and every machine) explores the same cases.
    pub fn rng_for_test(name: &str, case: u32) -> TestRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(SmallRng::seed_from_u64(
            h ^ ((case as u64) << 32 | 0x5bd1_e995),
        ))
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests. Each argument is drawn from its strategy for
/// `cases` iterations; failures panic with the case index (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_inner! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_inner! {
            @cfg($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_inner {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::rng_for_test(stringify!($name), __case);
                $(
                    let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                // Name the case in panic messages so failures are
                // replayable (the RNG is a pure function of name + case).
                let __guard = $crate::__CaseGuard {
                    test: stringify!($name),
                    case: __case,
                };
                { $body }
                std::mem::forget(__guard);
            }
        }
        $crate::__proptest_inner! { @cfg($cfg) $($rest)* }
    };
}

/// Prints the failing case on unwind so a failure is identifiable even
/// though the shim does not shrink.
#[doc(hidden)]
pub struct __CaseGuard {
    pub test: &'static str,
    pub case: u32,
}

impl Drop for __CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest shim: test `{}` failed at case {} (deterministic; rerun reproduces it)",
                self.test, self.case
            );
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+)
    };
}

/// Skip this case when the assumption fails. Inside the shim's per-case
/// loop this is a plain `continue`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($option),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::collection::{btree_set, vec};
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in 0.0f64..=1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn tuples_and_flat_map(
            (r, c) in (1usize..8, 1usize..8).prop_flat_map(|(r, c)| (Just(r), Just(c))),
            pick in prop_oneof![Just(2usize), Just(8)],
        ) {
            prop_assert!((1..8).contains(&r));
            prop_assert!((1..8).contains(&c));
            prop_assert!(pick == 2 || pick == 8);
        }

        #[test]
        fn collections_respect_sizes(
            v in vec(0u64..256, 1..20),
            s in btree_set(0u64..16, 1..=10),
        ) {
            prop_assert!((1..20).contains(&v.len()));
            prop_assert!(!s.is_empty() && s.len() <= 10);
            prop_assume!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x < 256));
        }

        #[test]
        fn any_u64_and_map(seed in any::<u64>(), doubled in (1u32..5).prop_map(|x| x * 2)) {
            let _ = seed;
            prop_assert!(doubled % 2 == 0 && doubled <= 8);
        }
    }

    #[test]
    fn determinism_across_runs() {
        use crate::strategy::Strategy;
        let s = (1usize..100, 0.0f64..1.0);
        let a: Vec<_> = (0..10)
            .map(|c| s.generate(&mut crate::test_runner::rng_for_test("det", c)))
            .collect();
        let b: Vec<_> = (0..10)
            .map(|c| s.generate(&mut crate::test_runner::rng_for_test("det", c)))
            .collect();
        assert_eq!(a, b);
    }
}
