#![forbid(unsafe_code)]
//! Offline vendored shim for the `proptest` crate.
//!
//! The Ingot build image has no network access and no cargo registry cache, so
//! external crates are vendored as minimal local shims (see DESIGN.md §10.4).
//! This one implements the subset of proptest that Ingot's property tests
//! use: the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map` /
//! `boxed`, [`Just`](strategy::Just), [`prop_oneof!`], integer / float /
//! string-pattern strategies, tuple and collection strategies,
//! [`arbitrary::any`], [`sample::Index`], and the
//! `prop_assert*` macros.
//!
//! Differences from the real crate that matter:
//!
//! * **No shrinking.** A failing case reports its inputs and case number but
//!   is not minimised. Reproduce by re-running the named test — generation is
//!   deterministic per test name (seeded from an FNV hash of
//!   `module_path::test_name`), so failures replay exactly.
//! * **String "regex" strategies** support the subset Ingot's tests use:
//!   literal characters, `[...]` classes with ranges, the `\PC` printable
//!   class, and `{m}` / `{m,n}` repetition.

pub mod test_runner {
    //! Configuration, error type and the deterministic RNG behind case
    //! generation.

    use std::fmt;

    /// Per-block configuration, set via `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// Case count with the `PROPTEST_CASES` environment override, so
        /// torture loops can widen a block's budget without editing it.
        pub fn effective_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|c| c.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single test case failed.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property does not hold.
        Fail(String),
        /// The generated input was rejected (treated as failure here; the
        /// shim has no rejection budget).
        Reject(String),
    }

    impl TestCaseError {
        /// A failed property with a message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejected input with a message.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
            }
        }
    }

    /// Deterministic SplitMix64 generator seeding each property run.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test's fully-qualified name.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a so the seed is stable across runs and platforms.
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in name.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            // `PROPTEST_SEED` perturbs the name-stable stream so repeated
            // CI runs (the wal-torture loop) explore different cases; unset,
            // every run generates the same sequence for reproducibility.
            if let Some(seed) = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
            {
                hash ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            TestRng { state: hash }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform usize in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0, "below: zero bound");
            (self.next_u64() % bound as u64) as usize
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    ///
    /// Unlike real proptest there is no value tree / shrinking; `generate`
    /// produces one concrete value per call.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Erase the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Type-erased strategy, as returned by [`Strategy::boxed`].
    pub struct BoxedStrategy<V> {
        inner: Box<dyn Strategy<Value = V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.inner.generate(rng)
        }
    }

    /// Uniform choice between strategies (backs [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from a non-empty set of equally-weighted options.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.options.len());
            self.options[idx].generate(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "strategy: empty range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = (rng.next_u64() as u128) % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "strategy: empty range");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let draw = (rng.next_u64() as u128) % span;
                    (start as i128 + draw as i128) as $t
                }
            }
        )*};
    }

    int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "strategy: empty range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    /// String pattern strategy: a `&'static str` is interpreted as a small
    /// regex subset (see crate docs) producing `String`s.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }

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
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
    }
}

pub mod string {
    //! Generator for the regex subset used by string strategies.

    use crate::test_runner::TestRng;

    struct Atom {
        charset: Vec<char>,
        min: usize,
        max: usize,
    }

    fn printable() -> Vec<char> {
        (0x20u8..=0x7E).map(char::from).collect()
    }

    fn parse(pattern: &str) -> Vec<Atom> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let charset = match chars[i] {
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let (lo, hi) = (chars[i], chars[i + 2]);
                            assert!(lo <= hi, "bad class range in pattern {pattern:?}");
                            for c in lo..=hi {
                                set.push(c);
                            }
                            i += 3;
                        } else {
                            set.push(chars[i]);
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in pattern {pattern:?}");
                    i += 1; // consume ']'
                    set
                }
                '\\' => {
                    assert!(
                        i + 2 < chars.len() + 1 && chars.get(i + 1) == Some(&'P'),
                        "unsupported escape in pattern {pattern:?}"
                    );
                    assert!(
                        chars.get(i + 2) == Some(&'C'),
                        "unsupported \\P class in pattern {pattern:?}"
                    );
                    i += 3;
                    printable()
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            // Optional {m} / {m,n} repetition (regex semantics: n inclusive).
            let (min, max) = if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unterminated repetition in pattern {pattern:?}"));
                let body: String = chars[i + 1..i + close].iter().collect();
                i += close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (m.trim().parse().unwrap_or(0), n.trim().parse().unwrap_or(0)),
                    None => {
                        let n = body.trim().parse().unwrap_or(1);
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(min <= max, "bad repetition bounds in pattern {pattern:?}");
            atoms.push(Atom { charset, min, max });
        }
        atoms
    }

    /// Generate one string matching `pattern`.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse(pattern) {
            let n = atom.min + rng.below(atom.max - atom.min + 1);
            for _ in 0..n {
                out.push(atom.charset[rng.below(atom.charset.len())]);
            }
        }
        out
    }
}

pub mod arbitrary {
    //! The [`any`] entry point and [`Arbitrary`] impls for primitives.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Sample one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite values spanning a wide magnitude range; the real crate
            // also generates NaN/infinities, which Ingot's tests never rely on.
            (rng.unit_f64() * 2.0 - 1.0) * 1.0e12
        }
    }

    /// Full-domain strategy for an [`Arbitrary`] type.
    pub struct AnyStrategy<T> {
        _marker: PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Strategy producing any value of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Element-count range for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_incl: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "collection: empty size range");
            SizeRange {
                min: r.start,
                max_incl: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "collection: empty size range");
            SizeRange {
                min: *r.start(),
                max_incl: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_incl: n,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below(self.max_incl - self.min + 1)
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generate vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with a target size drawn from `size`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            // Duplicates don't grow the set; cap attempts so a domain
            // smaller than the target size still terminates.
            let mut attempts = 0;
            while set.len() < target && attempts < target * 10 + 16 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// Generate ordered sets of `element` values.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Index sampling, mirroring `proptest::sample`.

    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// An opaque index resolvable against any non-empty collection length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Resolve against a collection of `len` elements (`len > 0`).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced strategy modules (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Define property tests: each `fn name(arg in strategy, ..) { .. }` becomes
/// a deterministic multi-case test. Attributes (including `#[test]` and doc
/// comments) are emitted verbatim.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.effective_cases() {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                let __dbg = format!(
                    concat!("case ", "{}", $(" ", stringify!($arg), "={:?}",)*),
                    __case $(, &$arg)*
                );
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__err) = __result {
                    panic!(
                        "proptest {} failed [{}]: {}",
                        stringify!($name),
                        __dbg,
                        __err
                    );
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Assert a condition inside a `proptest!` body, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l != *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l != *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{} (left: {:?}, right: {:?})",
                format!($($fmt)+),
                __l,
                __r
            )));
        }
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_patterns_match_their_shape() {
        let mut rng = crate::test_runner::TestRng::for_test("string_patterns");
        for _ in 0..200 {
            let ident = crate::string::generate("[a-z][a-z0-9_]{0,10}", &mut rng);
            assert!(!ident.is_empty() && ident.len() <= 11);
            assert!(ident.chars().next().unwrap().is_ascii_lowercase());
            assert!(ident
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));

            let printable = crate::string::generate("\\PC{0,200}", &mut rng);
            assert!(printable.len() <= 200);
            assert!(printable.chars().all(|c| (' '..='~').contains(&c)));

            let lit = crate::string::generate("[a-zA-Z0-9_%' ]{0,24}", &mut rng);
            assert!(lit.len() <= 24);
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let strat = prop_oneof![Just(1i64), 10i64..20, 100i64..200];
        let run = || {
            let mut rng = crate::test_runner::TestRng::for_test("det");
            (0..32)
                .map(|_| strat.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro wires strategies, config and prop_assert together.
        #[test]
        fn macro_end_to_end(
            xs in prop::collection::vec(0i64..100, 1..10),
            flag in any::<bool>(),
            name in "[a-z]{1,8}",
        ) {
            prop_assert!(!xs.is_empty());
            prop_assert!(xs.iter().all(|&x| (0..100).contains(&x)), "out of range: {:?}", xs);
            prop_assert_eq!(name.is_empty(), false);
            if flag {
                prop_assert_ne!(xs.len(), 0);
            }
        }

        #[test]
        fn sets_respect_target_sizes(keys in prop::collection::btree_set(0u32..5000, 1..50)) {
            prop_assert!(!keys.is_empty() && keys.len() < 50);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Attributes pass through verbatim, so a failing property can be
        /// asserted with `should_panic`.
        #[test]
        #[should_panic(expected = "proptest always_fails failed")]
        fn always_fails(x in 0i64..10) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }
}
