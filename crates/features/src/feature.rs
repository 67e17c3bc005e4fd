//! The feature abstraction: one similarity computation over an attribute
//! pair, named the way the paper prints features.

use magellan_table::ValueRef;
use magellan_textsim::tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};
use magellan_textsim::{numeric, seqsim, setsim};

/// Tokenization spec used inside token-based feature kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokSpecF {
    /// Lowercased alphanumeric word tokens.
    Word,
    /// Padded character q-grams.
    Qgram(usize),
}

impl TokSpecF {
    /// Boxed trait-object tokenizer — for callers that need dynamic
    /// dispatch (e.g. handing a tokenizer to the sim-join builder). The
    /// per-pair scalar path uses [`TokSpecF::tokenize_set`] instead so no
    /// heap allocation happens inside pair loops.
    pub fn tokenizer(&self) -> Box<dyn Tokenizer> {
        match self {
            TokSpecF::Word => Box::new(AlphanumericTokenizer::as_set()),
            TokSpecF::Qgram(q) => Box::new(QgramTokenizer::as_set(*q)),
        }
    }

    /// Set-semantics tokenization without constructing a boxed tokenizer:
    /// the concrete tokenizers are zero/trivially-sized stack values, so
    /// this is allocation-free apart from the token vector itself.
    pub fn tokenize_set(&self, s: &str) -> Vec<String> {
        match self {
            TokSpecF::Word => AlphanumericTokenizer::as_set().tokenize(s),
            TokSpecF::Qgram(q) => QgramTokenizer::as_set(*q).tokenize(s),
        }
    }

    /// Label used in generated feature names (`word`, `3gram`).
    pub fn label(&self) -> String {
        match self {
            TokSpecF::Word => "word".to_owned(),
            TokSpecF::Qgram(q) => format!("{q}gram"),
        }
    }
}

/// The similarity computation a feature performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureKind {
    /// Case-insensitive exact match of display strings.
    ExactMatch,
    /// Normalized Levenshtein similarity.
    LevSim,
    /// Jaro similarity.
    Jaro,
    /// Jaro–Winkler similarity.
    JaroWinkler,
    /// Monge–Elkan with Jaro–Winkler secondary over word tokens.
    MongeElkanJw,
    /// Jaccard over a tokenization.
    Jaccard(TokSpecF),
    /// Cosine over a tokenization.
    Cosine(TokSpecF),
    /// Dice over a tokenization.
    Dice(TokSpecF),
    /// Overlap coefficient over a tokenization.
    OverlapCoeff(TokSpecF),
    /// Numeric exact equality.
    ExactNum,
    /// `1 / (1 + |a − b|)`.
    AbsDiff,
    /// `1 − |a−b| / max(|a|,|b|)`.
    RelDiff,
}

impl FeatureKind {
    /// Label used in generated names (`jaccard(3gram(·))` renders as
    /// `jaccard_3gram` inside [`Feature::standard_name`]).
    pub fn label(&self) -> String {
        match self {
            FeatureKind::ExactMatch => "exact_match".to_owned(),
            FeatureKind::LevSim => "lev_sim".to_owned(),
            FeatureKind::Jaro => "jaro".to_owned(),
            FeatureKind::JaroWinkler => "jaro_winkler".to_owned(),
            FeatureKind::MongeElkanJw => "monge_elkan".to_owned(),
            FeatureKind::Jaccard(t) => format!("jaccard({})", t.label()),
            FeatureKind::Cosine(t) => format!("cosine({})", t.label()),
            FeatureKind::Dice(t) => format!("dice({})", t.label()),
            FeatureKind::OverlapCoeff(t) => format!("overlap_coeff({})", t.label()),
            FeatureKind::ExactNum => "exact_num".to_owned(),
            FeatureKind::AbsDiff => "abs_diff".to_owned(),
            FeatureKind::RelDiff => "rel_diff".to_owned(),
        }
    }

    /// Does the kind run a character-level sequence kernel (edit
    /// distance, Jaro, Monge–Elkan)? These are the dear features, the
    /// ones a forest deciding a pair tests last (the `deferred` mask of
    /// `magellan_ml`'s `Classifier::decide`). Exact-match, set-overlap and
    /// numeric kinds are not.
    pub fn is_sequence_kernel(&self) -> bool {
        matches!(
            self,
            FeatureKind::LevSim
                | FeatureKind::Jaro
                | FeatureKind::JaroWinkler
                | FeatureKind::MongeElkanJw
        )
    }
}

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
    /// Build with the standard paper-style name.
    pub fn new(l_attr: &str, r_attr: &str, kind: FeatureKind) -> Self {
        let name = match kind {
            FeatureKind::Jaccard(t)
            | FeatureKind::Cosine(t)
            | FeatureKind::Dice(t)
            | FeatureKind::OverlapCoeff(t) => {
                let outer = match kind {
                    FeatureKind::Jaccard(_) => "jaccard",
                    FeatureKind::Cosine(_) => "cosine",
                    FeatureKind::Dice(_) => "dice",
                    FeatureKind::OverlapCoeff(_) => "overlap_coeff",
                    _ => unreachable!(),
                };
                format!(
                    "{outer}({}(A.{l_attr}), {}(B.{r_attr}))",
                    t.label(),
                    t.label()
                )
            }
            _ => format!("{}(A.{l_attr}, B.{r_attr})", kind.label()),
        };
        Feature {
            name,
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
                        // `tokenize_set` dispatches to a concrete stack
                        // tokenizer — the old per-pair `Box<dyn Tokenizer>`
                        // construction is hoisted away entirely.
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
        let f = Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Qgram(3)));
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
        let f = Feature::new("t", "t", FeatureKind::Jaccard(TokSpecF::Word));
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
        let f = Feature::new("n", "n", FeatureKind::Jaccard(TokSpecF::Word));
        assert!(f
            .compute(ValueRef::Str("!!!"), ValueRef::Str("abc"))
            .is_nan());
    }
}
