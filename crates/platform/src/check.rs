//! A minimal property-testing harness (the in-tree `proptest`
//! replacement).
//!
//! A [`Strategy`] knows how to *seed* a value from an [`Rng`], how to
//! *build* the value from that seed, and how to *shrink* a failing seed
//! toward simpler ones. Strategies compose: ranges produce numbers,
//! tuples of strategies produce tuples, [`collection::vec`] produces
//! vectors, and [`Strategy::prop_map`] transforms values while keeping
//! the underlying seed shrinkable — so a mapped rectangle shrinks by
//! shrinking the coordinates it was built from.
//!
//! The [`crate::check!`] macro turns property functions into `#[test]`s:
//!
//! ```
//! use sth_platform::check::prelude::*;
//!
//! sth_platform::check! {
//!     cases = 64;
//!
//!     fn addition_commutes(a in 0i64..1000, b in 0i64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! On failure the harness shrinks the input, then panics with the master
//! seed, the case number, and the minimal counterexample, so the exact
//! failure replays with `STH_CHECK_SEED=<seed>`. `STH_CHECK_CASES`
//! overrides the per-test case count globally.

use std::cell::Cell;
use std::fmt;
use std::sync::Once;

use crate::rng::Rng;

/// Default number of cases per property when the test does not specify
/// one.
pub const DEFAULT_CASES: u32 = 128;

/// Maximum candidate evaluations spent shrinking one failure.
const SHRINK_BUDGET: usize = 1_000;

/// A failed property check. Produced by [`crate::prop_assert!`] /
/// [`crate::prop_assert_eq!`] or returned manually from a property body.
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for TestCaseError {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// A generator of test inputs with integrated shrinking.
///
/// `Seed` is the raw representation the value is built from; shrinking
/// operates on seeds, so mapped strategies ([`Strategy::prop_map`])
/// shrink through the mapping for free.
pub trait Strategy {
    /// Raw representation a value is deterministically built from.
    type Seed: Clone;
    /// The value handed to the property.
    type Value: fmt::Debug;

    /// Draws a fresh random seed.
    fn seed(&self, rng: &mut Rng) -> Self::Seed;

    /// Builds the value from a seed (deterministic).
    fn build(&self, seed: &Self::Seed) -> Self::Value;

    /// Candidate simpler seeds, most aggressive first. Default: none.
    fn shrink(&self, seed: &Self::Seed) -> Vec<Self::Seed> {
        let _ = seed;
        Vec::new()
    }

    /// Transforms generated values while keeping the source shrinkable.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Seed = S::Seed;
    type Value = U;

    fn seed(&self, rng: &mut Rng) -> Self::Seed {
        self.inner.seed(rng)
    }

    fn build(&self, seed: &Self::Seed) -> U {
        (self.f)(self.inner.build(seed))
    }

    fn shrink(&self, seed: &Self::Seed) -> Vec<Self::Seed> {
        self.inner.shrink(seed)
    }
}

impl Strategy for std::ops::Range<f64> {
    type Seed = f64;
    type Value = f64;

    fn seed(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn build(&self, seed: &f64) -> f64 {
        *seed
    }

    fn shrink(&self, seed: &f64) -> Vec<f64> {
        let (lo, v) = (self.start, *seed);
        if !(v > lo) {
            return Vec::new();
        }
        // Halving ladder approaching v from below: greedy shrinking then
        // converges to the failure boundary like a binary search.
        let mut out = vec![lo];
        let mut d = (v - lo) / 2.0;
        for _ in 0..32 {
            let cand = v - d;
            if cand > lo && cand < v {
                out.push(cand);
            }
            d /= 2.0;
            if d <= f64::EPSILON * v.abs().max(1.0) {
                break;
            }
        }
        out
    }
}

// Shrink candidates for an integer `v` toward `lo`: `lo` itself, then a
// halving ladder `v - span/2, v - span/4, …, v - 1` approaching `v` from
// below, so greedy shrinking converges to the failure boundary like a
// binary search.
macro_rules! int_shrink_ladder {
    ($lo:expr, $v:expr) => {{
        let (lo, v) = ($lo, $v);
        if v <= lo {
            Vec::new()
        } else {
            let mut out = vec![lo];
            let mut d = (v - lo) / 2;
            while d > 0 {
                let cand = v - d;
                if cand > lo {
                    out.push(cand);
                }
                d /= 2;
            }
            out
        }
    }};
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Seed = $t;
            type Value = $t;

            fn seed(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }

            fn build(&self, seed: &$t) -> $t {
                *seed
            }

            fn shrink(&self, seed: &$t) -> Vec<$t> {
                int_shrink_ladder!(self.start, *seed)
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Seed = $t;
            type Value = $t;

            fn seed(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }

            fn build(&self, seed: &$t) -> $t {
                *seed
            }

            fn shrink(&self, seed: &$t) -> Vec<$t> {
                int_shrink_ladder!(*self.start(), *seed)
            }
        }
    )*};
}
impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($S:ident : $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Seed = ($($S::Seed,)+);
            type Value = ($($S::Value,)+);

            fn seed(&self, rng: &mut Rng) -> Self::Seed {
                ($(self.$idx.seed(rng),)+)
            }

            fn build(&self, seed: &Self::Seed) -> Self::Value {
                ($(self.$idx.build(&seed.$idx),)+)
            }

            fn shrink(&self, seed: &Self::Seed) -> Vec<Self::Seed> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&seed.$idx) {
                        let mut s = seed.clone();
                        s.$idx = cand;
                        out.push(s);
                    }
                )+
                out
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Inclusive length bounds for [`collection::vec`].
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self { min: r.start, max: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Self { min: *r.start(), max: *r.end() }
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{SizeRange, Strategy, VecStrategy};

    /// A vector whose length is drawn from `size` and whose elements come
    /// from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }
}

/// The strategy returned by [`collection::vec`].
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Seed = Vec<S::Seed>;
    type Value = Vec<S::Value>;

    fn seed(&self, rng: &mut Rng) -> Self::Seed {
        let n = rng.gen_range(self.size.min..=self.size.max);
        (0..n).map(|_| self.elem.seed(rng)).collect()
    }

    fn build(&self, seed: &Self::Seed) -> Self::Value {
        seed.iter().map(|s| self.elem.build(s)).collect()
    }

    fn shrink(&self, seed: &Self::Seed) -> Vec<Self::Seed> {
        let mut out = Vec::new();
        let len = seed.len();
        // Structural shrinks first: shorter vectors fail faster.
        if len > self.size.min {
            let half = (len / 2).max(self.size.min);
            if half < len {
                out.push(seed[..half].to_vec());
            }
            let mut minus_last = seed.clone();
            minus_last.pop();
            out.push(minus_last);
            if len >= 2 {
                let mut minus_first = seed.clone();
                minus_first.remove(0);
                out.push(minus_first);
            }
        }
        // Then element-wise shrinks (bounded to two candidates each).
        for (i, s) in seed.iter().enumerate() {
            for cand in self.elem.shrink(s).into_iter().take(2) {
                let mut v = seed.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent while
/// this thread is evaluating a property case — the harness reports the
/// distilled failure itself instead of spamming one backtrace per shrink
/// attempt. Other threads' panics are unaffected.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Evaluates one case; `Err` carries the failure message.
fn eval<S, F>(strat: &S, seed: &S::Seed, f: &F) -> Result<(), String>
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let value = strat.build(seed);
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(value)));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.0),
        Err(payload) => Err(panic_message(payload)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".into()
    }
}

/// Greedy shrink: repeatedly take the first candidate that still fails,
/// within [`SHRINK_BUDGET`] evaluations.
fn shrink_to_minimal<S, F>(strat: &S, mut seed: S::Seed, f: &F) -> (S::Seed, usize)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let mut steps = 0;
    let mut budget = SHRINK_BUDGET;
    loop {
        let mut advanced = false;
        for cand in strat.shrink(&seed) {
            if budget == 0 {
                return (seed, steps);
            }
            budget -= 1;
            if eval(strat, &cand, f).is_err() {
                seed = cand;
                steps += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return (seed, steps);
        }
    }
}

/// FNV-1a over the test name, so each property gets its own seed stream
/// under one master seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `cases` random cases of the property `f` over inputs from
/// `strat`, shrinking and reporting the first failure. Used through the
/// [`crate::check!`] macro.
///
/// Environment overrides: `STH_CHECK_CASES` (case count),
/// `STH_CHECK_SEED` (master seed, decimal or `0x…`).
pub fn run<S, F>(name: &str, cases: u32, strat: S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    install_quiet_hook();
    let cases = std::env::var("STH_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases)
        .max(1);
    let master = std::env::var("STH_CHECK_SEED")
        .ok()
        .and_then(|v| parse_seed(&v))
        .unwrap_or(0x5EED_0F_57_B0_15);
    let mut seeder = Rng::seed_from_u64(master ^ fnv1a(name.as_bytes()));
    for case in 0..cases {
        let mut case_rng = Rng::seed_from_u64(seeder.next_u64());
        let seed = strat.seed(&mut case_rng);
        if let Err(first_error) = eval(&strat, &seed, &f) {
            let original = format!("{:?}", strat.build(&seed));
            let (min_seed, steps) = shrink_to_minimal(&strat, seed, &f);
            let error = eval(&strat, &min_seed, &f).err().unwrap_or(first_error);
            panic!(
                "property `{name}` falsified at case {case}/{cases} \
                 (master seed {master:#x})\n\
                 minimal input ({steps} shrink steps): {:?}\n\
                 original input: {original}\n\
                 error: {error}\n\
                 replay with STH_CHECK_SEED={master:#x}",
                strat.build(&min_seed),
            );
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use super::{collection, Strategy, TestCaseError};
    pub use crate::{check, prop_assert, prop_assert_eq};
}

/// Fails the surrounding property when the condition is false.
///
/// Must be used inside a [`crate::check!`] body (or any function
/// returning `Result<_, TestCaseError>`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::check::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the surrounding property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`run`] over the tuple of strategies. An
/// optional leading `cases = N;` sets the per-test case count (default
/// [`DEFAULT_CASES`]).
///
/// The macro adds the `#[test]` attribute itself, so a property must not
/// write one: other attributes (doc comments, `#[ignore]`) pass through,
/// but a second `#[test]` registers the property twice and the harness
/// runs it twice.
#[macro_export]
macro_rules! check {
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::check!(@expand ($cases) $($rest)*);
    };
    (@expand ($cases:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let strategy = ($($strat,)+);
            $crate::check::run(stringify!($name), $cases, strategy, |($($arg,)+)| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::check!(@expand ($crate::check::DEFAULT_CASES) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        run("always_true", 50, 0i64..10, |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        assert_eq!(counter.get(), 50);
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        // Property "v < 500" over 0..1000 must shrink to exactly 500.
        let failure = std::panic::catch_unwind(|| {
            run("shrinks", 200, (0i64..1000,), |(v,): (i64,)| {
                prop_assert!(v < 500, "too big: {v}");
                Ok(())
            })
        });
        // A tuple-of-one strategy is what check! generates; mirror it.
        let failure = match failure {
            Err(p) => panic_message(p),
            Ok(()) => {
                // 200 cases over 0..1000 missing [500,1000) entirely has
                // probability 2^-200; treat as harness bug.
                panic!("property was never falsified");
            }
        };
        assert!(failure.contains("(0 shrink steps)") || failure.contains("minimal input"));
        assert!(failure.contains("(500,)"), "did not shrink to 500: {failure}");
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let strat = collection::vec(0.0f64..1.0, 3..7);
        let mut rng = crate::rng::Rng::seed_from_u64(1);
        for _ in 0..100 {
            let seed = strat.seed(&mut rng);
            let v = strat.build(&seed);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn map_shrinks_through_the_mapping() {
        // A "rect-like" mapped strategy: (lo, extent) -> [lo, lo+extent].
        let strat = (0.0f64..100.0, 1.0f64..50.0).prop_map(|(lo, e)| [lo, lo + e]);
        let mut rng = crate::rng::Rng::seed_from_u64(2);
        let seed = strat.seed(&mut rng);
        let shrunk = strat.shrink(&seed);
        assert!(!shrunk.is_empty(), "mapped strategy produced no shrinks");
        for s in &shrunk {
            let [lo, hi] = strat.build(s);
            assert!(hi >= lo + 1.0 - 1e-12);
        }
    }

    check! {
        cases = 32;

        fn macro_generates_working_tests(
            a in 0usize..50,
            v in collection::vec(0.0f64..10.0, 1..5),
        ) {
            prop_assert!(a < 50);
            prop_assert_eq!(v.len(), v.len());
            prop_assert!(v.iter().all(|x| *x < 10.0));
        }
    }
}
