//! Automatic feature generation — a named "pain point" tool (Table 3).

use magellan_table::Table;

use crate::feature::{Feature, FeatureKind, TokSpecF};
use crate::types::{infer_attr_type, AttrType};

/// The feature kinds instantiated for each attribute type. This is the
/// tokenizer × measure grid the paper alludes to with
/// `jaccard(3gram(A.name), 3gram(B.name))`.
pub fn kinds_for(attr_type: AttrType) -> Vec<FeatureKind> {
    match attr_type {
        AttrType::Numeric => vec![
            FeatureKind::ExactNum,
            FeatureKind::AbsDiff,
            FeatureKind::RelDiff,
        ],
        AttrType::Boolean => vec![FeatureKind::ExactMatch],
        AttrType::ShortString => vec![
            FeatureKind::ExactMatch,
            FeatureKind::LevSim,
            FeatureKind::JaroWinkler,
            FeatureKind::Jaccard(TokSpecF::Qgram(3)),
        ],
        AttrType::MediumString => vec![
            FeatureKind::Jaccard(TokSpecF::Word),
            FeatureKind::Cosine(TokSpecF::Word),
            FeatureKind::Jaccard(TokSpecF::Qgram(3)),
            FeatureKind::MongeElkanJw,
            FeatureKind::LevSim,
        ],
        AttrType::LongString => vec![
            FeatureKind::Jaccard(TokSpecF::Word),
            FeatureKind::Cosine(TokSpecF::Word),
            FeatureKind::Dice(TokSpecF::Word),
            FeatureKind::OverlapCoeff(TokSpecF::Word),
        ],
    }
}

/// Generate features for every attribute name the two tables share, except
/// the listed key attributes (matching on keys would leak the gold
/// standard in synthetic settings and is meaningless in real ones).
///
/// The result is an editable `Vec` — the paper's customizability principle:
/// users delete entries and push their own [`Feature`]s.
///
/// ```
/// use magellan_features::generate_features;
/// use magellan_table::{Dtype, Table};
///
/// let a = Table::from_rows("A", &[("id", Dtype::Str), ("name", Dtype::Str)],
///                          vec![vec!["a0".into(), "dave smith".into()]]).unwrap();
/// let b = Table::from_rows("B", &[("id", Dtype::Str), ("name", Dtype::Str)],
///                          vec![vec!["b0".into(), "david smith".into()]]).unwrap();
/// let features = generate_features(&a, &b, &["id"]).unwrap();
/// assert!(features.iter().any(|f| f.name == "jaccard(3gram(A.name), 3gram(B.name))"));
/// ```
pub fn generate_features(
    a: &Table,
    b: &Table,
    exclude: &[&str],
) -> magellan_table::Result<Vec<Feature>> {
    let mut features = Vec::new();
    for field in a.schema().fields() {
        let name = field.name.as_str();
        if exclude.contains(&name) {
            continue;
        }
        if b.schema().index_of(name).is_none() {
            continue;
        }
        // Use the coarser of the two sides' inferred types so both sides'
        // values make sense for the chosen measures.
        let ta = infer_attr_type(a, name)?;
        let tb = infer_attr_type(b, name)?;
        let ty = coarser(ta, tb);
        for kind in kinds_for(ty) {
            features.push(Feature::new(name, name, kind));
        }
    }
    Ok(features)
}

fn rank(t: AttrType) -> u8 {
    match t {
        AttrType::Numeric => 0,
        AttrType::Boolean => 1,
        AttrType::ShortString => 2,
        AttrType::MediumString => 3,
        AttrType::LongString => 4,
    }
}

/// When the two sides disagree, pick the type that yields the more robust
/// (token-based) features. Numeric/boolean vs string disagreement resolves
/// to the string interpretation.
fn coarser(a: AttrType, b: AttrType) -> AttrType {
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::{Dtype, Value};

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("state", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![vec![
                "a0".into(),
                "dave smith jones".into(),
                "WI".into(),
                Value::Int(40),
            ]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("state", Dtype::Str),
                ("age", Dtype::Int),
                ("extra", Dtype::Str),
            ],
            vec![vec![
                "b0".into(),
                "david smith jones".into(),
                "WI".into(),
                Value::Int(41),
                "only in b".into(),
            ]],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn generates_per_type_grids_and_skips_keys_and_unshared() {
        let (a, b) = tables();
        let feats = generate_features(&a, &b, &["id"]).unwrap();
        // name: medium string -> 5 kinds; state: short -> 4; age: numeric -> 3.
        assert_eq!(feats.len(), 5 + 4 + 3);
        assert!(feats.iter().all(|f| f.l_attr != "id"));
        assert!(feats.iter().all(|f| f.l_attr != "extra"));
        // Paper-style names exist.
        assert!(feats
            .iter()
            .any(|f| f.name == "jaccard(3gram(A.name), 3gram(B.name))"));
        assert!(feats.iter().any(|f| f.name == "abs_diff(A.age, B.age)"));
    }

    #[test]
    fn feature_set_is_editable() {
        let (a, b) = tables();
        let mut feats = generate_features(&a, &b, &["id"]).unwrap();
        let before = feats.len();
        feats.retain(|f| f.l_attr != "age"); // user deletes age features
        feats.push(Feature::new("name", "name", FeatureKind::Jaro)); // adds one
        assert_eq!(feats.len(), before - 3 + 1);
    }

    #[test]
    fn type_disagreement_resolves_to_coarser() {
        assert_eq!(
            coarser(AttrType::ShortString, AttrType::MediumString),
            AttrType::MediumString
        );
        assert_eq!(
            coarser(AttrType::Numeric, AttrType::ShortString),
            AttrType::ShortString
        );
        assert_eq!(
            coarser(AttrType::Numeric, AttrType::Numeric),
            AttrType::Numeric
        );
    }

    #[test]
    fn every_generated_feature_computes_on_the_tables() {
        let (a, b) = tables();
        let feats = generate_features(&a, &b, &["id"]).unwrap();
        for f in &feats {
            let va = a.value_by_name(0, &f.l_attr).unwrap();
            let vb = b.value_by_name(0, &f.r_attr).unwrap();
            let v = f.compute(va, vb);
            assert!(v.is_nan() || (0.0..=1.0).contains(&v), "{} = {v}", f.name);
        }
    }
}
