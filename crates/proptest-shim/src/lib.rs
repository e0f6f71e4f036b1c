//! Offline stand-in for the [proptest](https://crates.io/crates/proptest)
//! crate.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! this minimal, dependency-free replacement. It implements the API subset
//! the FractOS property tests use — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `any::<T>()`, integer-range and tuple strategies,
//! `prop::collection::vec`, `prop::option::of`, `prop_oneof!`, `Just`,
//! `.prop_map`, a tiny `[chars]{m,n}` regex-string strategy, and
//! `ProptestConfig::with_cases` — as seeded random sampling.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case reports its inputs and panics as-is.
//! - **Deterministic by default.** Cases derive from a fixed seed so CI
//!   failures reproduce; set `PROPTEST_SEED` to explore other streams.
//! - **Case count** defaults to 64 (env `PROPTEST_CASES` overrides, and
//!   `ProptestConfig::with_cases` takes precedence).

use std::fmt;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG (SplitMix64, same generator family the simulator uses)
// ---------------------------------------------------------------------------

/// Deterministic generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Multiply-shift; bias is irrelevant for test-case sampling.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

/// Object-safe mirror of [`Strategy`] backing [`BoxedStrategy`].
trait DynStrategy<V> {
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Box<dyn DynStrategy<V>>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union; panics when `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Produces arbitrary values of primitive types (see [`any`]).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// `any::<T>()`: the full-range strategy for a primitive type.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                assert!(span > 0, "empty range strategy");
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! any_float {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                // Uniform in [0, 1); full-range floats are rarely useful for
                // the suite's purposes.
                (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t)
            }
        }
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.end > self.start, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

any_float!(f32, f64);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident $part:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($part,)+) = self;
                ($($part.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A a, B b)
    (A a, B b, C c)
    (A a, B b, C c, D d)
    (A a, B b, C c, D d, E e)
    (A a, B b, C c, D d, E e, F f)
    (A a, B b, C c, D d, E e, F f, G g)
    (A a, B b, C c, D d, E e, F f, G g, H h)
}

/// String strategy from a `[chars]{m,n}` pattern (the regex subset the
/// test suite uses). Anything else panics with a clear message.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, min, max) = parse_char_class_repeat(self).unwrap_or_else(|| {
            panic!("unsupported regex strategy {self:?} (shim supports `[chars]{{m,n}}` only)")
        });
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn parse_char_class_repeat(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = expand_class(&rest[..close]);
    let rep = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = rep.split_once(',')?;
    let min = lo.trim().parse().ok()?;
    let max = hi.trim().parse().ok()?;
    if class.is_empty() || min > max {
        return None;
    }
    Some((class, min, max))
}

fn expand_class(class: &str) -> Vec<char> {
    let chars: Vec<char> = class.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (a, b) = (chars[i], chars[i + 2]);
            for c in a..=b {
                out.push(c);
            }
            i += 3;
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// `prop::collection` and `prop::option` module tree.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Size specification for [`vec()`](vec()): an exact length or a range.
        pub struct SizeRange {
            min: usize,
            max: usize, // inclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { min: n, max: n }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.end > r.start, "empty vec size range");
                SizeRange {
                    min: r.start,
                    max: r.end - 1,
                }
            }
        }

        /// Strategy for `Vec`s of values drawn from `element`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `prop::collection::vec(element, size)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.max - self.size.min + 1) as u64;
                let len = self.size.min + rng.below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// Strategy for `Option`s of values drawn from `inner`.
        pub struct OptionStrategy<S> {
            inner: S,
        }

        /// `prop::option::of(inner)`: `None` a quarter of the time.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Error type carried by `prop_assert!` failures inside a property body.
pub struct TestCaseError(pub String);

impl fmt::Debug for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Drives one property: draws inputs per case and panics on failure.
pub struct TestRunner {
    config: ProptestConfig,
    seed: u64,
}

impl TestRunner {
    /// Creates a runner; the seed comes from `PROPTEST_SEED` (default 0).
    pub fn new(config: ProptestConfig) -> Self {
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        TestRunner { config, seed }
    }

    /// Runs `case` once per configured case with a fresh RNG stream.
    ///
    /// `case` receives the per-case RNG and returns `Err` (via
    /// `prop_assert!`) or panics on failure; either aborts the run with the
    /// case number so the failure reproduces under the same seed.
    pub fn run(&mut self, name: &str, case: impl Fn(&mut TestRng) -> Result<(), TestCaseError>) {
        for i in 0..self.config.cases {
            let mut rng = TestRng::new(self.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            if let Err(e) = case(&mut rng) {
                panic!(
                    "property {name} failed at case {i}/{} (seed {}): {}",
                    self.config.cases, self.seed, e.0
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests; see the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::TestRunner::new($cfg);
                runner.run(stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    $body
                    // A body whose every path returns (`return Err(..)`,
                    // a trailing `panic!`) leaves this line dead; the lint
                    // would then fire in the caller's test file.
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts a condition inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property, reporting both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($arm:expr),+ $(,)? ) => {
        $crate::Union::new(vec![ $($crate::Strategy::boxed($arm)),+ ])
    };
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        /// Range strategies stay in bounds.
        #[test]
        fn ranges_in_bounds(v in 10u64..20, w in 0u8..4) {
            prop_assert!((10..20).contains(&v));
            prop_assert!(w < 4);
        }

        /// Vec strategies respect both range and exact sizes.
        #[test]
        fn vec_sizes(xs in prop::collection::vec(any::<u32>(), 1..5),
                     ys in prop::collection::vec(any::<u8>(), 3)) {
            prop_assert!((1..5).contains(&xs.len()));
            prop_assert_eq!(ys.len(), 3);
        }

        /// prop_oneof + prop_map + Just compose.
        #[test]
        fn oneof_composes(v in prop_oneof![
            (0u32..10).prop_map(|x| x as u64),
            Just(99u64),
        ]) {
            prop_assert!(v < 10 || v == 99);
        }

        /// The regex-subset string strategy matches its pattern.
        #[test]
        fn regex_subset(s in "[a-c.]{0,16}") {
            prop_assert!(s.len() <= 16);
            prop_assert!(s.chars().all(|c| c == '.' || ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn deterministic_generation() {
        let strat = prop::collection::vec(any::<u64>(), 0..8);
        let a: Vec<Vec<u64>> = (0..16)
            .map(|i| strat.generate(&mut crate::TestRng::new(i)))
            .collect();
        let b: Vec<Vec<u64>> = (0..16)
            .map(|i| strat.generate(&mut crate::TestRng::new(i)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        proptest! {
            fn always_fails(v in 0u64..10) {
                prop_assert!(v > 100, "v was {v}");
            }
        }
        always_fails();
    }
}
