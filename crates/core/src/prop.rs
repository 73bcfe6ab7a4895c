//! A small, dependency-free property-testing harness.
//!
//! Replaces `proptest` for this workspace. A [`Strategy`] describes how to
//! build a random input from a [`Gen`] choice source; [`check`] generates a
//! fixed number of cases from a seeded [`SplitMix64`] stream, runs the
//! property on each, and on failure shrinks the input and panics with a
//! reproducing seed.
//!
//! # Writing a property
//!
//! ```
//! use pro_core::prop::{any, check, Config};
//! use pro_core::{prop_assert, prop_assert_eq};
//!
//! check(Config::default(), (any::<u32>(), any::<u32>()), |&(a, b)| {
//!     prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     Ok(())
//! });
//! ```
//!
//! The property body returns [`CaseResult`]; the [`prop_assert!`](crate::prop_assert),
//! [`prop_assert_eq!`](crate::prop_assert_eq), [`prop_assert_ne!`](crate::prop_assert_ne) and [`prop_assume!`](crate::prop_assume) macros
//! early-return the right variants, mirroring the proptest idiom.
//!
//! # Determinism, seeds, and reproduction
//!
//! Case generation is fully deterministic: [`Config::seed`] seeds a
//! [`SplitMix64`] stream from which each case draws its own sub-seed. A
//! failure report prints that case seed; re-running the test binary with
//! `PRO_PROP_SEED=<seed>` makes [`check`] run exactly that case (then
//! shrink and fail again), which is the supported way to reproduce and
//! debug a failing case.
//!
//! # Shrinking
//!
//! Generation records the raw 64-bit draws it consumed. Shrinking performs
//! linear passes over that recorded choice sequence — trying truncation,
//! then zeroing and geometric reduction at each position — replaying the
//! generator on each mutated sequence, and keeping any mutation that still
//! fails the property. Because every strategy (including [`map`ped](Map)
//! and [`one_of`] strategies) regenerates from the sequence, all inputs
//! produced during shrinking are valid by construction.

use crate::rng::{SplitMix64, UniformRange};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;

/// Why a single case did not pass.
#[derive(Debug)]
pub enum CaseError {
    /// The property's assertion failed (the message is reported).
    Fail(String),
    /// The input did not satisfy a [`prop_assume!`](crate::prop_assume) precondition; the case
    /// is discarded and regenerated, not counted as a failure.
    Reject,
}

impl CaseError {
    /// Construct the failure variant.
    pub fn fail(msg: impl Into<String>) -> Self {
        CaseError::Fail(msg.into())
    }
}

/// Outcome of running the property body on one input.
pub type CaseResult = Result<(), CaseError>;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required (default 256).
    pub cases: u32,
    /// Seed of the run's case-seed stream. Fixed by default so CI runs are
    /// reproducible; override per run with the `PRO_PROP_SEED` env var.
    pub seed: u64,
    /// Budget of replay attempts during shrinking.
    pub max_shrink_steps: u32,
    /// Maximum [`prop_assume!`](crate::prop_assume) discards before the run aborts.
    pub max_rejects: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: crate::rng::GOLDEN_SEED,
            max_shrink_steps: 2048,
            max_rejects: 8192,
        }
    }
}

impl Config {
    /// Default configuration with a custom case count.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// The choice source strategies draw from.
///
/// In recording mode it forwards a seeded [`SplitMix64`] and logs every
/// raw draw; in replay mode it feeds back a (possibly mutated) recorded
/// sequence, returning 0 once the sequence is exhausted so that replayed
/// generation is always total.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
    replay: Option<Vec<u64>>,
    pos: usize,
    log: Vec<u64>,
}

impl Gen {
    /// A recording source seeded with `seed`.
    pub(crate) fn record(seed: u64) -> Self {
        Gen {
            rng: SplitMix64::new(seed),
            replay: None,
            pos: 0,
            log: Vec::new(),
        }
    }

    /// A replaying source over a recorded choice sequence.
    pub(crate) fn replay(choices: Vec<u64>) -> Self {
        Gen {
            rng: SplitMix64::new(0),
            replay: Some(choices),
            pos: 0,
            log: Vec::new(),
        }
    }

    /// One raw 64-bit choice (recorded, or replayed; 0 past the end of a
    /// replay).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        match &self.replay {
            Some(seq) => {
                let v = seq.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                v
            }
            None => {
                let v = self.rng.next_u64();
                self.log.push(v);
                v
            }
        }
    }

    /// One 32-bit choice (high half of a raw draw).
    #[inline]
    pub(crate) fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `[0, 1)` from one choice.
    #[inline]
    pub(crate) fn gen_f64(&mut self) -> f64 {
        crate::rng::f64_from_bits(self.next_u64())
    }

    /// Bernoulli draw from one choice.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in `lo..hi` from one choice.
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample_from(range, self.next_u64())
    }

    fn into_log(self) -> Vec<u64> {
        self.log
    }
}

/// A recipe for building random inputs of type [`Strategy::Value`].
///
/// Strategies are deterministic functions of the [`Gen`] choice stream;
/// all randomness lives in the stream, which is what makes recorded cases
/// replayable and shrinkable.
pub trait Strategy {
    /// The input type this strategy produces.
    type Value: Debug;

    /// Build one value, consuming choices from `g`.
    fn generate(&self, g: &mut Gen) -> Self::Value;
}

/// Combinator methods available on every strategy.
pub trait StrategyExt: Strategy + Sized {
    /// Transform generated values with `f` (shrinking still operates on
    /// the underlying choice sequence, so mapped strategies shrink too).
    /// Named `prop_map` rather than `map` because ranges are both
    /// [`Iterator`]s and strategies.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Type-erase, for use with [`one_of`].
    fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy> StrategyExt for S {}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, g: &mut Gen) -> Self::Value {
        (**self).generate(g)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, g: &mut Gen) -> Self::Value {
        (**self).generate(g)
    }
}

/// Uniform values from a half-open range: `0u32..64` is a strategy.
impl<T: UniformRange + Debug> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        g.gen_range(self.clone())
    }
}

/// Values with the full natural domain of their type, via [`any`].
pub struct Any<T>(PhantomData<T>);

/// Strategy over a type's full natural domain (`any::<u32>()`,
/// `any::<bool>()`, `any::<f32>()` — floats include NaN and infinities;
/// gate with [`prop_assume!`](crate::prop_assume) where finiteness matters).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Types with a canonical full-domain generator, for [`any`].
pub trait Arbitrary: Debug {
    /// Build one arbitrary value from the choice stream.
    fn arbitrary(g: &mut Gen) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        T::arbitrary(g)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[inline]
            fn arbitrary(g: &mut Gen) -> Self {
                g.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    #[inline]
    fn arbitrary(g: &mut Gen) -> Self {
        g.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    #[inline]
    fn arbitrary(g: &mut Gen) -> Self {
        f32::from_bits(g.next_u32())
    }
}

impl Arbitrary for f64 {
    #[inline]
    fn arbitrary(g: &mut Gen) -> Self {
        f64::from_bits(g.next_u64())
    }
}

/// The constant strategy: always produces a clone of its value.
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _g: &mut Gen) -> T {
        self.0.clone()
    }
}

/// See [`StrategyExt::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        (self.f)(self.base.generate(g))
    }
}

/// See [`from_fn`].
pub struct FromFn<F>(F);

/// Escape hatch: a strategy from a closure over the raw choice stream.
pub fn from_fn<T: Debug, F: Fn(&mut Gen) -> T>(f: F) -> FromFn<F> {
    FromFn(f)
}

impl<T: Debug, F: Fn(&mut Gen) -> T> Strategy for FromFn<F> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        (self.0)(g)
    }
}

/// See [`one_of`].
pub struct OneOf<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

/// Choice strategy: picks one of `options` uniformly per case, then
/// generates from it. Panics if `options` is empty.
pub fn one_of<T: Debug>(options: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of: no options");
    OneOf { options }
}

impl<T: Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        let i = g.gen_range(0..self.options.len());
        self.options[i].generate(g)
    }
}

/// See [`select`].
pub struct Select<T: Clone + Debug>(Vec<T>);

/// Choice strategy over concrete values: picks one element of `values`
/// uniformly per case. Panics if `values` is empty.
pub fn select<T: Clone + Debug>(values: impl Into<Vec<T>>) -> Select<T> {
    let v = values.into();
    assert!(!v.is_empty(), "select: no values");
    Select(v)
}

impl<T: Clone + Debug> Strategy for Select<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        let i = g.gen_range(0..self.0.len());
        self.0[i].clone()
    }
}

/// See [`vec_of`].
pub struct VecOf<S> {
    elem: S,
    len: Range<usize>,
}

/// Vector strategy: a length drawn from `len`, then that many elements
/// from `elem`. Use `n..n + 1` for an exact length.
pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "vec_of: empty length range");
    VecOf { elem, len }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, g: &mut Gen) -> Vec<S::Value> {
        let n = g.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(g)).collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident.$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, g: &mut Gen) -> Self::Value {
                ($(self.$idx.generate(g),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// Run `test` on `cfg.cases` inputs generated by `strategy`, panicking
/// with a shrunk counterexample and its reproducing seed on the first
/// failure.
///
/// If the `PRO_PROP_SEED` environment variable is set (decimal, or hex
/// with an `0x` prefix), exactly that one case is generated and run —
/// the supported path for reproducing a printed failure.
pub fn check<S: Strategy>(cfg: Config, strategy: S, test: impl Fn(&S::Value) -> CaseResult) {
    if let Ok(var) = std::env::var("PRO_PROP_SEED") {
        let seed = parse_seed(&var)
            .unwrap_or_else(|| panic!("PRO_PROP_SEED: cannot parse `{var}` as a u64 seed"));
        run_case(&cfg, &strategy, &test, seed, 0);
        return;
    }
    let mut seed_stream = SplitMix64::new(cfg.seed);
    let mut accepted = 0u32;
    let mut rejects = 0u32;
    while accepted < cfg.cases {
        let case_seed = seed_stream.next_u64();
        if run_case(&cfg, &strategy, &test, case_seed, accepted) {
            accepted += 1;
        } else {
            rejects += 1;
            assert!(
                rejects <= cfg.max_rejects,
                "property rejected {rejects} inputs (prop_assume) before reaching \
                 {} accepted cases — loosen the strategy or the assumption",
                cfg.cases
            );
        }
    }
}

/// Returns true if the case counts toward the accepted total (i.e. it was
/// not rejected by an assumption). Panics on failure.
fn run_case<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    test: &impl Fn(&S::Value) -> CaseResult,
    case_seed: u64,
    passed_so_far: u32,
) -> bool {
    let mut g = Gen::record(case_seed);
    let value = strategy.generate(&mut g);
    match test(&value) {
        Ok(()) => true,
        Err(CaseError::Reject) => false,
        Err(CaseError::Fail(msg)) => {
            let choices = g.into_log();
            let (min_value, min_msg) = minimize(cfg, strategy, test, choices, &msg);
            panic!(
                "property failed after {passed_so_far} passing case(s): {min_msg}\n\
                 \x20 minimized input: {min_value:?}\n\
                 \x20 original input:  {value:?}\n\
                 \x20 original error:  {msg}\n\
                 \x20 reproduce with:  PRO_PROP_SEED=0x{case_seed:016x} cargo test <this test>"
            );
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Linear-pass shrinking over the recorded choice sequence: truncate the
/// tail, then shrink each position toward zero, keeping mutations that
/// still fail. Returns the smallest still-failing input found within the
/// step budget.
fn minimize<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    test: &impl Fn(&S::Value) -> CaseResult,
    mut choices: Vec<u64>,
    first_msg: &str,
) -> (S::Value, String) {
    let mut steps = 0u32;
    let mut msg = first_msg.to_string();
    // Re-check a candidate sequence; Some(msg) if the property still fails.
    let attempt = |seq: &[u64], steps: &mut u32| -> Option<String> {
        if *steps >= cfg.max_shrink_steps {
            return None;
        }
        *steps += 1;
        let mut g = Gen::replay(seq.to_vec());
        let v = strategy.generate(&mut g);
        match test(&v) {
            Err(CaseError::Fail(m)) => Some(m),
            _ => None,
        }
    };

    loop {
        let mut improved = false;
        // Pass 1: drop the tail (half, then single trailing element).
        for cut in [choices.len() / 2, choices.len().saturating_sub(1)] {
            if cut < choices.len() {
                if let Some(m) = attempt(&choices[..cut], &mut steps) {
                    choices.truncate(cut);
                    msg = m;
                    improved = true;
                }
            }
        }
        // Pass 2: left-to-right, shrink each choice toward zero. Every
        // candidate is strictly smaller than the current value, so the
        // passes terminate even without the step budget.
        for i in 0..choices.len() {
            let v = choices[i];
            for cand in [0, v / 2, v / 2 + v / 4] {
                if cand == choices[i] {
                    continue;
                }
                let prev = choices[i];
                choices[i] = cand;
                match attempt(&choices, &mut steps) {
                    Some(m) => {
                        msg = m;
                        improved = true;
                        break;
                    }
                    None => choices[i] = prev,
                }
            }
        }
        if !improved || steps >= cfg.max_shrink_steps {
            break;
        }
    }
    let mut g = Gen::replay(choices);
    (strategy.generate(&mut g), msg)
}

/// Assert a condition inside a property body, early-returning a
/// [`CaseError::Fail`] with the stringified condition (or a formatted
/// message) instead of panicking, so the harness can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::CaseError::fail(format!($($fmt)+)));
        }
    };
}

/// [`prop_assert!`](crate::prop_assert) for equality, reporting both operands.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}` ({} != {})",
                va,
                vb,
                stringify!($a),
                stringify!($b)
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                va,
                vb,
                format!($($fmt)+)
            )));
        }
    }};
}

/// [`prop_assert!`](crate::prop_assert) for inequality, reporting the operand.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if va == vb {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}` ({} == {})",
                va,
                vb,
                stringify!($a),
                stringify!($b)
            )));
        }
    }};
}

/// Discard the current case (not a failure) when a generated input misses
/// a precondition. Discards are capped by [`Config::max_rejects`].
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = catch_unwind(f).expect_err("expected the property to fail");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        check(Config::with_cases(50), any::<u32>(), |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        assert_eq!(counter.get(), 50);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = vec_of(any::<u32>(), 0..10);
        let a = strat.generate(&mut Gen::record(42));
        let b = strat.generate(&mut Gen::record(42));
        let c = strat.generate(&mut Gen::record(43));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different vectors");
    }

    #[test]
    fn replay_reproduces_recorded_value() {
        let strat = (0u32..100, vec_of(0u8..10, 1..6));
        let mut g = Gen::record(7);
        let original = strat.generate(&mut g);
        let replayed = strat.generate(&mut Gen::replay(g.into_log()));
        assert_eq!(original, replayed);
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let msg = panic_message(|| {
            check(Config::with_cases(256), any::<u32>(), |&x| {
                prop_assert!(x < 1000, "got {x}");
                Ok(())
            });
        });
        assert!(msg.contains("PRO_PROP_SEED=0x"), "no seed in: {msg}");
        assert!(msg.contains("minimized input:"), "no shrink in: {msg}");
        // The minimized counterexample should be near the boundary.
        let min: u32 = msg
            .lines()
            .find(|l| l.contains("minimized input:"))
            .and_then(|l| l.split(':').next_back())
            .and_then(|v| v.trim().parse().ok())
            .expect("parse minimized value");
        assert!((1000..100_000).contains(&min), "poorly shrunk: {min}");
    }

    #[test]
    fn shrinking_shortens_vectors() {
        let msg = panic_message(|| {
            check(
                Config::with_cases(256),
                vec_of(any::<u32>(), 0..24),
                |v: &Vec<u32>| {
                    prop_assert!(v.iter().all(|&x| x < 500), "big element");
                    Ok(())
                },
            );
        });
        let min_line = msg
            .lines()
            .find(|l| l.contains("minimized input:"))
            .expect("minimized line")
            .to_string();
        // A minimal counterexample needs exactly one offending element.
        let elems = min_line.matches(',').count() + 1;
        assert!(elems <= 2, "vector barely shrunk: {min_line}");
    }

    #[test]
    fn assume_discards_without_failing() {
        let counter = std::cell::Cell::new(0u32);
        check(Config::with_cases(32), any::<u32>(), |&x| {
            prop_assume!(x % 2 == 0);
            counter.set(counter.get() + 1);
            prop_assert!(x % 2 == 0);
            Ok(())
        });
        assert_eq!(counter.get(), 32, "rejected cases must be replaced");
    }

    #[test]
    fn one_of_and_just_and_select_cover_options() {
        let strat = one_of(vec![
            Just(0u32).boxed(),
            (10u32..20).boxed(),
            select(vec![99u32, 100]).boxed(),
        ]);
        let mut seen_const = false;
        let mut seen_range = false;
        let mut seen_select = false;
        let mut g = Gen::record(1);
        for _ in 0..200 {
            match strat.generate(&mut g) {
                0 => seen_const = true,
                10..=19 => seen_range = true,
                99 | 100 => seen_select = true,
                other => panic!("impossible value {other}"),
            }
        }
        assert!(seen_const && seen_range && seen_select);
    }

    #[test]
    fn map_transforms_and_still_shrinks() {
        #[derive(Debug)]
        struct Wrapper(u64);
        let msg = panic_message(|| {
            check(
                Config::with_cases(64),
                (0u64..1 << 40).prop_map(Wrapper),
                |w: &Wrapper| {
                    prop_assert!(w.0 < 1 << 20);
                    Ok(())
                },
            );
        });
        assert!(msg.contains("Wrapper"), "mapped type lost: {msg}");
        assert!(msg.contains("minimized input:"), "no shrink: {msg}");
    }
}
