//! The feature abstraction: one similarity computation over an attribute
//! pair, named the way the paper prints features.

use magellan_table::ValueRef;
use magellan_textsim::tokenize::{AlphanumericTokenizer, Tokenizer};
use magellan_textsim::{numeric, seqsim, setsim};

pub use magellan_textsim::{FeatureKind, TokSpec};

/// The name [`TokSpec`] had while features kept their own copy. Only the
/// `benchmark/` package still imports it; drop the alias with the change
/// that updates that package.
pub type TokSpecF = TokSpec;

/// One feature: a named similarity over an attribute pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Display name, e.g. `jaccard(3gram(A.name), 3gram(B.name))`.
    pub name: String,
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// The computation.
    pub kind: FeatureKind,
}

impl Feature {
    /// Build with the standard paper-style name
    /// ([`FeatureKind::render`]).
    pub fn new(l_attr: &str, r_attr: &str, kind: FeatureKind) -> Self {
        Feature {
            name: kind.render(l_attr, r_attr),
            l_attr: l_attr.to_owned(),
            r_attr: r_attr.to_owned(),
            kind,
        }
    }

    /// Evaluate the feature on one value pair. Returns `NaN` when either
    /// side is missing (the learners treat NaN as "missing").
    pub fn compute(&self, a: ValueRef<'_>, b: ValueRef<'_>) -> f64 {
        if a.is_null() || b.is_null() {
            return f64::NAN;
        }
        match self.kind {
            FeatureKind::ExactNum | FeatureKind::AbsDiff | FeatureKind::RelDiff => {
                let (Some(x), Some(y)) = (a.as_float(), b.as_float()) else {
                    return f64::NAN;
                };
                match self.kind {
                    FeatureKind::ExactNum => numeric::exact_match_num(x, y),
                    FeatureKind::AbsDiff => numeric::abs_diff_sim(x, y),
                    FeatureKind::RelDiff => numeric::rel_diff_sim(x, y),
                    _ => unreachable!(),
                }
            }
            _ => {
                let sa = a.display_string().trim().to_lowercase();
                let sb = b.display_string().trim().to_lowercase();
                match self.kind {
                    FeatureKind::ExactMatch => f64::from(sa == sb),
                    FeatureKind::LevSim => seqsim::levenshtein_sim(&sa, &sb),
                    FeatureKind::Jaro => seqsim::jaro(&sa, &sb),
                    FeatureKind::JaroWinkler => seqsim::jaro_winkler(&sa, &sb),
                    FeatureKind::MongeElkanJw => {
                        // Stack-constructed (zero-sized) tokenizer: no
                        // per-pair heap allocation.
                        let tok = AlphanumericTokenizer::new();
                        setsim::monge_elkan_jw(&tok.tokenize(&sa), &tok.tokenize(&sb))
                    }
                    FeatureKind::Jaccard(t)
                    | FeatureKind::Cosine(t)
                    | FeatureKind::Dice(t)
                    | FeatureKind::OverlapCoeff(t) => {
                        // A stack tokenizer: no per-pair boxing.
                        let ta = t.tokenize_set(&sa);
                        let tb = t.tokenize_set(&sb);
                        if ta.is_empty() || tb.is_empty() {
                            return f64::NAN;
                        }
                        match self.kind {
                            FeatureKind::Jaccard(_) => setsim::jaccard(&ta, &tb),
                            FeatureKind::Cosine(_) => setsim::cosine(&ta, &tb),
                            FeatureKind::Dice(_) => setsim::dice(&ta, &tb),
                            FeatureKind::OverlapCoeff(_) => setsim::overlap_coefficient(&ta, &tb),
                            _ => unreachable!(),
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_names_match_paper_style() {
        let f = Feature::new("name", "name", FeatureKind::Jaccard(TokSpec::Qgram(3)));
        assert_eq!(f.name, "jaccard(3gram(A.name), 3gram(B.name))");
        let f = Feature::new("age", "age", FeatureKind::AbsDiff);
        assert_eq!(f.name, "abs_diff(A.age, B.age)");
    }

    #[test]
    fn string_features_compute() {
        let f = Feature::new("n", "n", FeatureKind::LevSim);
        let v = f.compute(ValueRef::Str("dave"), ValueRef::Str("dav"));
        assert!((v - 0.75).abs() < 1e-12);
        let f = Feature::new("n", "n", FeatureKind::ExactMatch);
        assert_eq!(f.compute(ValueRef::Str("X "), ValueRef::Str("x")), 1.0);
    }

    #[test]
    fn jaccard_word_feature() {
        let f = Feature::new("t", "t", FeatureKind::Jaccard(TokSpec::Word));
        let v = f.compute(
            ValueRef::Str("sony wireless mouse"),
            ValueRef::Str("sony mouse"),
        );
        assert!((v - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_features_accept_ints_and_floats() {
        let f = Feature::new("p", "p", FeatureKind::RelDiff);
        let v = f.compute(ValueRef::Int(100), ValueRef::Float(110.0));
        assert!((v - (1.0 - 10.0 / 110.0)).abs() < 1e-9);
        let f = Feature::new("p", "p", FeatureKind::ExactNum);
        assert_eq!(f.compute(ValueRef::Int(5), ValueRef::Float(5.0)), 1.0);
    }

    #[test]
    fn nulls_produce_nan() {
        let f = Feature::new("n", "n", FeatureKind::Jaro);
        assert!(f.compute(ValueRef::Null, ValueRef::Str("x")).is_nan());
        assert!(f.compute(ValueRef::Str("x"), ValueRef::Null).is_nan());
    }

    #[test]
    fn numeric_feature_on_strings_is_nan() {
        let f = Feature::new("n", "n", FeatureKind::AbsDiff);
        assert!(f
            .compute(ValueRef::Str("abc"), ValueRef::Str("abd"))
            .is_nan());
    }

    #[test]
    fn empty_tokenization_is_nan() {
        let f = Feature::new("n", "n", FeatureKind::Jaccard(TokSpec::Word));
        assert!(f
            .compute(ValueRef::Str("!!!"), ValueRef::Str("abc"))
            .is_nan());
    }
}
