//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace ships a
//! small property-testing harness that covers exactly the surface the BAPS
//! test suites use:
//!
//! * the [`proptest!`] macro (`fn name(arg in strategy, ...) { .. }`);
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`], [`prop_oneof!`];
//! * [`Strategy`] with `prop_map` / `prop_filter`, tuple strategies up to
//!   arity 12, integer/float range strategies, [`Just`], [`any`], and
//!   [`collection::vec`];
//! * `&str` strategies interpreted as a small regex subset (literals,
//!   escapes, `.`, `[...]` classes with ranges, `{n}` / `{m,n}` repeats).
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with the generated inputs so it can be reproduced. Case count defaults
//! to 64 and can be raised with `PROPTEST_CASES`. Sampling is seeded from
//! the test name (override with `PROPTEST_SEED`) so runs are deterministic.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::rc::Rc;

/// Everything a property test module needs, in one import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        Strategy, TestCaseError,
    };
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The property was violated.
    Fail(String),
    /// The inputs were rejected by `prop_assume!` — the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure error.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection error.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// A generator of random values (sampling-only analogue of
/// `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `f` returns true (resamples otherwise).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            f,
            reason: reason.into(),
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.sample(rng)))
    }
}

/// A type-erased strategy (cheaply clonable).
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut StdRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        (self.0)(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    reason: String,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter exhausted 1000 attempts: {}", self.reason);
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Strategy yielding uniformly distributed values of `T` (see [`any`]).
pub struct Any<T>(PhantomData<T>);

impl<T: rand::Standard + Debug> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

/// Uniform strategy over all values of `T`.
pub fn any<T: rand::Standard + Debug>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11)
}

// ---------------------------------------------------------------------------
// &str strategies: a small regex-subset generator.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RegexNode {
    /// Inclusive character ranges this position draws from.
    ranges: Vec<(char, char)>,
    min: usize,
    max: usize,
}

fn parse_regex(pattern: &str) -> Vec<RegexNode> {
    let mut nodes = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let ranges = match c {
            '\\' => {
                let escaped = chars.next().expect("dangling escape in pattern");
                vec![(escaped, escaped)]
            }
            '.' => vec![(' ', '~')],
            '[' => {
                let mut ranges = Vec::new();
                let mut items: Vec<char> = Vec::new();
                for n in chars.by_ref() {
                    if n == ']' {
                        break;
                    }
                    items.push(n);
                }
                let mut i = 0;
                while i < items.len() {
                    if i + 2 < items.len() && items[i + 1] == '-' {
                        ranges.push((items[i], items[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((items[i], items[i]));
                        i += 1;
                    }
                }
                ranges
            }
            c => vec![(c, c)],
        };
        // Optional {n} / {m,n} quantifier.
        let (min, max) = if chars.peek() == Some(&'{') {
            chars.next();
            let mut spec = String::new();
            for n in chars.by_ref() {
                if n == '}' {
                    break;
                }
                spec.push(n);
            }
            match spec.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("bad quantifier"),
                    hi.trim().parse().expect("bad quantifier"),
                ),
                None => {
                    let n = spec.trim().parse().expect("bad quantifier");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        nodes.push(RegexNode { ranges, min, max });
    }
    nodes
}

fn sample_regex(nodes: &[RegexNode], rng: &mut StdRng) -> String {
    let mut out = String::new();
    for node in nodes {
        let count = rng.gen_range(node.min..=node.max);
        for _ in 0..count {
            // Weight ranges by their width for a uniform char distribution.
            let total: u32 = node
                .ranges
                .iter()
                .map(|&(lo, hi)| hi as u32 - lo as u32 + 1)
                .sum();
            let mut pick = rng.gen_range(0..total);
            for &(lo, hi) in &node.ranges {
                let width = hi as u32 - lo as u32 + 1;
                if pick < width {
                    out.push(char::from_u32(lo as u32 + pick).expect("valid char"));
                    break;
                }
                pick -= width;
            }
        }
    }
    out
}

impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut StdRng) -> String {
        sample_regex(&parse_regex(self), rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Accepted size specifications for [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.min..=self.size.max);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Drives one property: repeatedly samples inputs and runs the body until
/// the configured number of accepted cases pass. Used by [`proptest!`];
/// not part of the public proptest API.
pub fn run_cases<F>(name: &str, mut case: F)
where
    F: FnMut(&mut StdRng, &mut String) -> Result<(), TestCaseError>,
{
    let cases = env_u64("PROPTEST_CASES").unwrap_or(64);
    let seed = env_u64("PROPTEST_SEED").unwrap_or_else(|| {
        // FNV-1a over the test name: stable per-test seeding.
        name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted = 0;
    let mut rejected = 0u64;
    while accepted < cases {
        let mut inputs = String::new();
        let result = {
            let run = std::panic::AssertUnwindSafe(|| case(&mut rng, &mut inputs));
            std::panic::catch_unwind(run)
        };
        match result {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(TestCaseError::Reject(_))) => {
                rejected += 1;
                if rejected > cases * 16 {
                    panic!("{name}: too many rejected cases ({rejected})");
                }
            }
            Ok(Err(TestCaseError::Fail(msg))) => {
                panic!("{name}: property failed: {msg}\nminimal failing input (no shrinking):\n{inputs}");
            }
            Err(payload) => {
                eprintln!("{name}: case panicked; inputs:\n{inputs}");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn p(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), |__rng, __inputs| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                    $(
                        __inputs.push_str(concat!("  ", stringify!($arg), " = "));
                        __inputs.push_str(&format!("{:?}\n", &$arg));
                    )+
                    $body
                    Ok(())
                });
            }
        )+
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Skips the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Uniform choice among type-erased strategies (built by [`prop_oneof!`]).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union over the given alternatives.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "empty prop_oneof");
        Union(options)
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.0.len());
        self.0[i].sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn regex_subset_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = "[A-Za-z][A-Za-z0-9-]{0,20}".sample(&mut rng);
            assert!(!s.is_empty() && s.len() <= 21, "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_alphabetic());
            let t = "[!-~][ -~]{0,40}".sample(&mut rng);
            assert!((1..=41).contains(&t.len()));
            let u = "BAPS/1\\.0".sample(&mut rng);
            assert_eq!(u, "BAPS/1.0");
            let v = ".{0,120}".sample(&mut rng);
            assert!(v.len() <= 120);
            assert!(v.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    proptest! {
        #[test]
        fn harness_runs_and_asserts(x in 0u32..10, v in collection::vec(any::<u8>(), 0..16)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 16);
        }

        #[test]
        fn oneof_and_filter(y in prop_oneof![Just(1u8), Just(2u8), 5u8..7]
            .prop_map(|v| v * 10)
            .prop_filter("nonzero", |v| *v > 0))
        {
            prop_assert!([10, 20, 50, 60].contains(&y));
        }

        #[test]
        fn assume_rejects(z in 0u8..4) {
            prop_assume!(z != 3);
            prop_assert!(z < 3);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics_with_inputs() {
        run_cases("failing", |rng, inputs| {
            let x: u8 = (0u8..10).sample(rng);
            inputs.push_str(&format!("  x = {x:?}\n"));
            prop_assert!(x > 100, "x too small");
            Ok(())
        });
    }
}
