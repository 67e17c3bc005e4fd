//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest 1.x that this workspace's property
//! tests use: the [`proptest!`] macro, `prop_assert*`, [`strategy::Strategy`]
//! with `prop_map` / `prop_flat_map` / `boxed`, [`strategy::Just`],
//! [`prop_oneof!`], range and regex-literal strategies,
//! [`collection::vec`], [`option::weighted`], [`any`], and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate:
//!
//! * **no shrinking** — a failing case reports the case number and the
//!   per-test seed instead of a minimal counterexample;
//! * string strategies support the regex *subset* found in this repo's
//!   tests (character classes with ranges/escapes/negation, literals,
//!   groups, and `{m,n}` / `{n}` repetition) and panic on anything else;
//! * streams differ from upstream proptest (tests must not pin generated
//!   values, only properties of them).

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Case driving: config, RNG, and failure plumbing.

    use std::fmt;

    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property inside a test case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// What a `proptest!` body returns.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic generator driving every strategy (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Seeded generator.
        pub fn new(mut seed: u64) -> Self {
            TestRng {
                s: [
                    splitmix64(&mut seed),
                    splitmix64(&mut seed),
                    splitmix64(&mut seed),
                    splitmix64(&mut seed),
                ],
            }
        }

        /// Next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
        }

        /// Uniform in `[0, bound)` (`bound` > 0).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            (wide % bound as u128) as u64
        }
    }

    /// FNV-1a of a static name — stable per-test base seed.
    pub fn fnv(name: &str) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A recipe for generating random values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Build a dependent strategy from each generated value.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erase.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Object-safe strategy (what [`BoxedStrategy`] holds).
    pub trait DynStrategy {
        /// The generated type.
        type Value;
        /// Draw one value.
        fn gen_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn gen_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.gen_value(rng)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn DynStrategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn gen_value(&self, rng: &mut TestRng) -> V {
            self.as_ref().gen_dyn(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// [`Strategy::prop_flat_map`] adapter.
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.gen_value(rng)).gen_value(rng)
        }
    }

    /// Weighted choice between boxed strategies ([`prop_oneof!`]).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Build from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! weights sum to zero");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn gen_value(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.gen_value(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weight bookkeeping is exact")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.next_f64() as $t) * (self.end - self.start)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    /// `&str` literals are regex strategies producing matching [`String`]s.
    impl Strategy for &'static str {
        type Value = String;
        fn gen_value(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }

    /// A `Vec` of strategies generates element-wise (one value per entry).
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.gen_value(rng)).collect()
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.gen_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F);
        (A, B, C, D, E, F, G);
        (A, B, C, D, E, F, G, H);
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw a full-domain value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite floats over a wide magnitude range.
            let m = rng.next_f64() * 2.0 - 1.0;
            let e = (rng.next_u64() % 61) as i32 - 30;
            m * (2.0f64).powi(e)
        }
    }

    /// The strategy behind [`crate::any`].
    pub struct AnyStrategy<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Full-domain strategy for `T`.
pub fn any<T: arbitrary::Arbitrary>() -> arbitrary::AnyStrategy<T> {
    arbitrary::AnyStrategy(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a vec-length specification (mirrors real
    /// proptest's `Into<SizeRange>`: an exact length, `lo..hi`, `lo..=hi`).
    pub trait IntoSizeRange {
        /// Convert to a half-open `lo..hi` length range.
        fn into_size_range(self) -> Range<usize>;
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn into_size_range(self) -> Range<usize> {
            *self.start()..*self.end() + 1
        }
    }

    /// Strategy for `Vec`s with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` whose length is drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let size = size.into_size_range();
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy yielding `Some` with a given probability.
    pub struct WeightedOption<S> {
        p_some: f64,
        inner: S,
    }

    /// `Some(inner)` with probability `p_some`, else `None`.
    pub fn weighted<S: Strategy>(p_some: f64, inner: S) -> WeightedOption<S> {
        assert!((0.0..=1.0).contains(&p_some));
        WeightedOption { p_some, inner }
    }

    impl<S: Strategy> Strategy for WeightedOption<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_f64() < self.p_some {
                Some(self.inner.gen_value(rng))
            } else {
                None
            }
        }
    }
}

pub mod string {
    //! Generation of strings from the regex subset used by the tests.

    use crate::test_runner::TestRng;

    #[derive(Debug, Clone)]
    enum Node {
        Lit(char),
        Class {
            members: Vec<(char, char)>,
            negated: bool,
        },
        Group(Vec<(Node, (u32, u32))>),
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            '0' => '\0',
            other => other,
        }
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars>, pattern: &str) -> Node {
        let negated = chars.peek() == Some(&'^') && {
            chars.next();
            true
        };
        let mut members: Vec<(char, char)> = Vec::new();
        loop {
            let c = chars
                .next()
                .unwrap_or_else(|| panic!("unterminated class in regex {pattern:?}"));
            match c {
                ']' => break,
                '\\' => {
                    let e = unescape(chars.next().expect("escape in class"));
                    members.push((e, e));
                }
                lo => {
                    if chars.peek() == Some(&'-') {
                        // Lookahead: `-` then a closing `]` means literal '-'.
                        let mut clone = chars.clone();
                        clone.next();
                        if clone.peek() == Some(&']') {
                            members.push((lo, lo));
                        } else {
                            chars.next(); // consume '-'
                            let hi = chars.next().expect("range end in class");
                            let hi = if hi == '\\' {
                                unescape(chars.next().expect("escape in class"))
                            } else {
                                hi
                            };
                            members.push((lo, hi));
                        }
                    } else {
                        members.push((lo, lo));
                    }
                }
            }
        }
        Node::Class { members, negated }
    }

    fn parse_quantifier(chars: &mut std::iter::Peekable<std::str::Chars>) -> (u32, u32) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut spec = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                break;
            }
            spec.push(c);
        }
        match spec.split_once(',') {
            Some((lo, hi)) => (
                lo.trim().parse().expect("quantifier lower bound"),
                hi.trim().parse().expect("quantifier upper bound"),
            ),
            None => {
                let n = spec.trim().parse().expect("exact quantifier");
                (n, n)
            }
        }
    }

    fn parse_seq(
        chars: &mut std::iter::Peekable<std::str::Chars>,
        pattern: &str,
        in_group: bool,
    ) -> Vec<(Node, (u32, u32))> {
        let mut out = Vec::new();
        while let Some(&c) = chars.peek() {
            let node = match c {
                ')' if in_group => {
                    chars.next();
                    return out;
                }
                '[' => {
                    chars.next();
                    parse_class(chars, pattern)
                }
                '(' => {
                    chars.next();
                    Node::Group(parse_seq(chars, pattern, true))
                }
                '\\' => {
                    chars.next();
                    Node::Lit(unescape(chars.next().expect("escape")))
                }
                '|' | '*' | '+' | '?' | '.' | '$' | '^' => {
                    panic!(
                        "regex feature {c:?} in {pattern:?} is not supported by the proptest shim"
                    )
                }
                lit => {
                    chars.next();
                    Node::Lit(lit)
                }
            };
            out.push((node, parse_quantifier(chars)));
        }
        assert!(!in_group, "unterminated group in regex {pattern:?}");
        out
    }

    fn gen_node(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Lit(c) => out.push(*c),
            Node::Class { members, negated } => {
                if *negated {
                    // Printable ASCII (plus space) minus the members.
                    loop {
                        let c = (0x20 + rng.below(0x5f) as u8) as char;
                        if !members.iter().any(|&(lo, hi)| lo <= c && c <= hi) {
                            out.push(c);
                            break;
                        }
                    }
                } else {
                    let total: u64 = members
                        .iter()
                        .map(|&(lo, hi)| hi as u64 - lo as u64 + 1)
                        .sum();
                    let mut pick = rng.below(total);
                    for &(lo, hi) in members {
                        let span = hi as u64 - lo as u64 + 1;
                        if pick < span {
                            out.push(char::from_u32(lo as u32 + pick as u32).expect("class char"));
                            break;
                        }
                        pick -= span;
                    }
                }
            }
            Node::Group(seq) => gen_seq(seq, rng, out),
        }
    }

    fn gen_seq(seq: &[(Node, (u32, u32))], rng: &mut TestRng, out: &mut String) {
        for (node, (lo, hi)) in seq {
            let n = if lo == hi {
                *lo
            } else {
                lo + rng.below((*hi - *lo + 1) as u64) as u32
            };
            for _ in 0..n {
                gen_node(node, rng, out);
            }
        }
    }

    /// Generate one string matching `pattern`.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut chars = pattern.chars().peekable();
        let seq = parse_seq(&mut chars, pattern, false);
        let mut out = String::new();
        gen_seq(&seq, rng, &mut out);
        out
    }
}

pub mod prelude {
    //! The glob import the tests use.

    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Weighted / unweighted choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Assert inside a `proptest!` body (fails the case, not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:pat_param in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let base = $crate::test_runner::fnv(concat!(module_path!(), "::", stringify!($name)));
            let strategies = ( $( $strategy, )+ );
            for case in 0..cfg.cases {
                let seed = base ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut rng = $crate::test_runner::TestRng::new(seed);
                let ( $( $arg, )+ ) =
                    $crate::strategy::Strategy::gen_value(&strategies, &mut rng);
                let outcome: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{} (seed {:#x}): {}",
                        stringify!($name), case, cfg.cases, seed, e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let s = crate::string::generate("[a-d]{1,5}", &mut rng);
            assert!((1..=5).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| ('a'..='d').contains(&c)), "{s:?}");

            let p = crate::string::generate("[ab]{0,3}( [ab]{1,3}){0,3}", &mut rng);
            for tok in p.split(' ').skip(1) {
                assert!((1..=3).contains(&tok.len()), "{p:?}");
            }

            let q = crate::string::generate("[a-z ,\"\n]{0,12}", &mut rng);
            assert!(q.chars().count() <= 12);
            assert!(
                q.chars()
                    .all(|c| c.is_ascii_lowercase() || " ,\"\n".contains(c)),
                "{q:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_hit_bounds(x in 0usize..10, y in -3i64..3, f in 0.25f64..0.75) {
            prop_assert!(x < 10);
            prop_assert!((-3..3).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn oneof_and_collections(v in crate::collection::vec(prop_oneof![3 => Just(1u8), 1 => Just(2u8)], 1..9),
                                 o in crate::option::weighted(0.5, "[xy]{2}")) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&b| b == 1 || b == 2));
            if let Some(s) = &o {
                prop_assert_eq!(s.len(), 2);
            }
        }

        #[test]
        fn flat_map_dependent_lengths(v in (1usize..5).prop_flat_map(|n| crate::collection::vec(Just(0u8), n..n + 1))) {
            prop_assert!((1..5).contains(&v.len()));
        }
    }
}
