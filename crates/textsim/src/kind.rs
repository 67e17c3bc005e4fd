//! The similarity vocabulary: what a feature computes and what a blocking
//! rule thresholds on are one [`FeatureKind`] over one [`TokSpec`], named
//! one way ([`FeatureKind::render`]).

use crate::intern::TokenInterner;
use crate::tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};

/// Tokenization inside a token-based [`FeatureKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokSpec {
    /// Lowercased alphanumeric word tokens.
    Word,
    /// Padded character q-grams.
    Qgram(usize),
}

impl TokSpec {
    /// Boxed trait-object tokenizer — for callers that need dynamic
    /// dispatch (e.g. handing a tokenizer to the sim-join builder). Pair
    /// loops use [`TokSpec::tokenize_set`] or [`TokSpec::intern_tokens`]
    /// instead, so no heap allocation happens per pair.
    pub fn tokenizer(&self) -> Box<dyn Tokenizer> {
        match self {
            TokSpec::Word => Box::new(AlphanumericTokenizer::as_set()),
            TokSpec::Qgram(q) => Box::new(QgramTokenizer::as_set(*q)),
        }
    }

    /// Set-semantics tokenization through a stack-constructed concrete
    /// tokenizer: allocation-free apart from the token vector itself.
    pub fn tokenize_set(&self, s: &str) -> Vec<String> {
        match self {
            TokSpec::Word => AlphanumericTokenizer::as_set().tokenize(s),
            TokSpec::Qgram(q) => QgramTokenizer::as_set(*q).tokenize(s),
        }
    }

    /// [`TokSpec::tokenize_set`] straight into sorted deduplicated token
    /// ids (no `String` per token).
    pub fn intern_tokens(&self, interner: &mut TokenInterner, s: &str) -> Vec<u32> {
        match self {
            TokSpec::Word => interner.intern_tokens(&AlphanumericTokenizer::as_set(), s),
            TokSpec::Qgram(q) => interner.intern_tokens(&QgramTokenizer::as_set(*q), s),
        }
    }

    /// Label used in feature names and printed rules (`word`, `3gram`).
    pub fn label(&self) -> String {
        match self {
            TokSpec::Word => "word".to_owned(),
            TokSpec::Qgram(q) => format!("{q}gram"),
        }
    }
}

/// The similarity computation a feature performs, and a blocking rule's
/// predicate thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    Jaccard(TokSpec),
    /// Cosine over a tokenization.
    Cosine(TokSpec),
    /// Dice over a tokenization.
    Dice(TokSpec),
    /// Overlap coefficient over a tokenization.
    OverlapCoeff(TokSpec),
    /// Numeric exact equality.
    ExactNum,
    /// `1 / (1 + |a − b|)`.
    AbsDiff,
    /// `1 − |a−b| / max(|a|,|b|)`.
    RelDiff,
}

impl FeatureKind {
    /// The measure's name (`jaccard`, `lev_sim`).
    pub fn measure(&self) -> &'static str {
        match self {
            FeatureKind::ExactMatch => "exact_match",
            FeatureKind::LevSim => "lev_sim",
            FeatureKind::Jaro => "jaro",
            FeatureKind::JaroWinkler => "jaro_winkler",
            FeatureKind::MongeElkanJw => "monge_elkan",
            FeatureKind::Jaccard(_) => "jaccard",
            FeatureKind::Cosine(_) => "cosine",
            FeatureKind::Dice(_) => "dice",
            FeatureKind::OverlapCoeff(_) => "overlap_coeff",
            FeatureKind::ExactNum => "exact_num",
            FeatureKind::AbsDiff => "abs_diff",
            FeatureKind::RelDiff => "rel_diff",
        }
    }

    /// The tokenization of a token-based kind; `None` for the others.
    pub fn tok(&self) -> Option<TokSpec> {
        match *self {
            FeatureKind::Jaccard(t)
            | FeatureKind::Cosine(t)
            | FeatureKind::Dice(t)
            | FeatureKind::OverlapCoeff(t) => Some(t),
            _ => None,
        }
    }

    /// The kind named `measure` (as [`FeatureKind::measure`] names it)
    /// over `tok`, if there is one.
    pub fn from_parts(measure: &str, tok: Option<TokSpec>) -> Option<FeatureKind> {
        use FeatureKind::*;
        let t = tok.unwrap_or(TokSpec::Word);
        [
            ExactMatch,
            LevSim,
            Jaro,
            JaroWinkler,
            MongeElkanJw,
            Jaccard(t),
            Cosine(t),
            Dice(t),
            OverlapCoeff(t),
            ExactNum,
            AbsDiff,
            RelDiff,
        ]
        .into_iter()
        .find(|k| k.measure() == measure && k.tok() == tok)
    }

    /// The paper's name for the kind over an attribute pair:
    /// `jaccard(3gram(A.name), 3gram(B.name))`, `abs_diff(A.age, B.age)`.
    pub fn render(&self, l_attr: &str, r_attr: &str) -> String {
        let m = self.measure();
        match self.tok() {
            Some(t) => {
                let t = t.label();
                format!("{m}({t}(A.{l_attr}), {t}(B.{r_attr}))")
            }
            None => format!("{m}(A.{l_attr}, B.{r_attr})"),
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
