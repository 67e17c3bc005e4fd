//! Hand-crafted match rules layered over ML predictions.
//!
//! §6 of the paper: "the most accurate EM workflows are likely to involve
//! a combination of ML and rules", and Table 3 lists "Rule specification
//! and execution" as its own guide step (9 commands). A [`RuleLayer`] is
//! an ordered list of [`MatchRule`]s evaluated over the *feature vector*
//! of a pair after the matcher has predicted; the first firing rule
//! overrides the prediction.
//!
//! Rules name features; rows hold columns. [`RuleLayer::bind`] resolves
//! the names against a feature list **once per run** into a
//! [`BoundRules`], which is what evaluates rows — eagerly from a slice or
//! lazily through a feature callback (the production executor's fused
//! pass, where a feature a rule never reaches is never computed).

use magellan_features::FeatureMatrix;

/// Comparison operator for rule conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Feature ≤ threshold.
    Le,
    /// Feature < threshold.
    Lt,
    /// Feature ≥ threshold.
    Ge,
    /// Feature > threshold.
    Gt,
    /// Feature = threshold (exact).
    Eq,
}

impl Cmp {
    fn eval(self, x: f64, t: f64) -> bool {
        match self {
            Cmp::Le => x <= t,
            Cmp::Lt => x < t,
            Cmp::Ge => x >= t,
            Cmp::Gt => x > t,
            Cmp::Eq => x == t,
        }
    }
}

/// What a firing rule does to the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAction {
    /// Force the pair to "match".
    Accept,
    /// Force the pair to "no-match".
    Reject,
}

/// A conjunction of feature conditions with an override action. NaN
/// feature values never satisfy a condition (a rule cannot fire on missing
/// evidence).
#[derive(Debug, Clone)]
pub struct MatchRule {
    /// Display name for debugging reports.
    pub name: String,
    /// Conditions as `(feature name, op, threshold)`.
    pub conditions: Vec<(String, Cmp, f64)>,
    /// Override applied when all conditions hold.
    pub action: RuleAction,
}

impl MatchRule {
    /// A rejection rule (the common precision-saving shape).
    pub fn reject(name: &str, conditions: Vec<(String, Cmp, f64)>) -> Self {
        MatchRule {
            name: name.to_owned(),
            conditions,
            action: RuleAction::Reject,
        }
    }

    /// An acceptance rule.
    pub fn accept(name: &str, conditions: Vec<(String, Cmp, f64)>) -> Self {
        MatchRule {
            name: name.to_owned(),
            conditions,
            action: RuleAction::Accept,
        }
    }
}

/// An ordered rule list applied after ML prediction.
#[derive(Debug, Clone, Default)]
pub struct RuleLayer {
    /// Rules in priority order; the first that fires wins.
    pub rules: Vec<MatchRule>,
}

impl RuleLayer {
    /// No rules: predictions pass through unchanged.
    pub fn empty() -> Self {
        RuleLayer::default()
    }

    /// Build from rules.
    pub fn new(rules: Vec<MatchRule>) -> Self {
        RuleLayer { rules }
    }

    /// Resolve every condition's feature name to its column in `names`.
    ///
    /// A rule naming a feature that is not in `names` can never fire (a
    /// rule cannot fire on evidence that does not exist); it is left out
    /// of the bound layer and one warning per unknown name is logged here,
    /// once, instead of the rule silently never firing row after row.
    pub fn bind<S: AsRef<str>>(&self, names: &[S]) -> BoundRules<'_> {
        let mut rules = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            let mut conditions = Vec::with_capacity(rule.conditions.len());
            for (fname, op, t) in &rule.conditions {
                match names.iter().position(|n| n.as_ref() == fname) {
                    Some(col) => conditions.push((col, *op, *t)),
                    None => magellan_obs::log!(
                        warn,
                        "rule {:?} names unknown feature {fname:?} and will never fire",
                        rule.name
                    ),
                }
            }
            if conditions.len() == rule.conditions.len() {
                rules.push(BoundRule {
                    name: &rule.name,
                    action: rule.action,
                    conditions,
                });
            }
        }
        BoundRules { rules }
    }

    /// Apply to a whole feature matrix + prediction vector.
    pub fn apply(&self, matrix: &FeatureMatrix, predictions: &[bool]) -> Vec<bool> {
        assert_eq!(matrix.len(), predictions.len(), "length mismatch");
        let bound = self.bind(&matrix.names);
        matrix
            .rows
            .iter()
            .zip(predictions)
            .map(|(row, &p)| bound.apply_row(row, p).0)
            .collect()
    }

    /// Count of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the layer has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A [`RuleLayer`] resolved against one feature list (see
/// [`RuleLayer::bind`]): conditions hold column indices, not names.
#[derive(Debug, Clone)]
pub struct BoundRules<'a> {
    rules: Vec<BoundRule<'a>>,
}

#[derive(Debug, Clone)]
struct BoundRule<'a> {
    name: &'a str,
    action: RuleAction,
    conditions: Vec<(usize, Cmp, f64)>,
}

impl<'a> BoundRules<'a> {
    /// Apply to one pair whose feature `i` is `feat(i)`, plus the
    /// matcher's prediction. Returns the (possibly overridden) prediction
    /// and the name of the rule that fired, if any. Conditions are tested
    /// in order and a rule stops at its first failing condition, so `feat`
    /// is asked only for the features the outcome depends on.
    pub fn apply_lazy(
        &self,
        mut feat: impl FnMut(usize) -> f64,
        predicted: bool,
    ) -> (bool, Option<&'a str>) {
        for rule in &self.rules {
            let fires = rule.conditions.iter().all(|&(col, op, t)| {
                let x = feat(col);
                !x.is_nan() && op.eval(x, t)
            });
            if fires {
                return (matches!(rule.action, RuleAction::Accept), Some(rule.name));
            }
        }
        (predicted, None)
    }

    /// [`BoundRules::apply_lazy`] over a materialised feature row.
    pub fn apply_row(&self, row: &[f64], predicted: bool) -> (bool, Option<&'a str>) {
        self.apply_lazy(|i| row[i], predicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix {
            names: vec!["name_sim".into(), "price_sim".into()],
            rows: vec![
                vec![0.95, 0.1],
                vec![0.2, 0.9],
                vec![f64::NAN, 0.05],
            ],
            pairs: vec![(0, 0), (1, 1), (2, 2)],
        }
    }

    #[test]
    fn empty_layer_passes_through() {
        let layer = RuleLayer::empty();
        let m = matrix();
        let preds = vec![true, false, true];
        assert_eq!(layer.apply(&m, &preds), preds);
        assert!(layer.is_empty());
    }

    #[test]
    fn reject_rule_overrides_positive_prediction() {
        // Reject when price similarity is very low despite a predicted
        // match (the precision-on-dirty-data pattern of §6).
        let layer = RuleLayer::new(vec![MatchRule::reject(
            "price guard",
            vec![("price_sim".into(), Cmp::Lt, 0.2)],
        )]);
        let m = matrix();
        let out = layer.apply(&m, &[true, true, true]);
        // Rows 0 and 2 have price_sim < 0.2, so the guard rejects both;
        // row 1's price_sim 0.9 passes through.
        assert_eq!(out, vec![false, true, false]);
    }

    #[test]
    fn accept_rule_rescues_negatives() {
        let layer = RuleLayer::new(vec![MatchRule::accept(
            "strong name",
            vec![("name_sim".into(), Cmp::Ge, 0.9)],
        )]);
        let out = layer.apply(&matrix(), &[false, false, false]);
        assert_eq!(out, vec![true, false, false]);
    }

    #[test]
    fn first_firing_rule_wins() {
        let layer = RuleLayer::new(vec![
            MatchRule::accept("first", vec![("name_sim".into(), Cmp::Ge, 0.9)]),
            MatchRule::reject("second", vec![("name_sim".into(), Cmp::Ge, 0.9)]),
        ]);
        let (out, fired) = layer.bind(&["name_sim"]).apply_row(&[0.95], false);
        assert!(out);
        assert_eq!(fired, Some("first"));
    }

    #[test]
    fn nan_never_satisfies_conditions() {
        let layer = RuleLayer::new(vec![MatchRule::reject(
            "nan guard",
            vec![("name_sim".into(), Cmp::Le, 1.0)],
        )]);
        let (out, fired) = layer.bind(&["name_sim"]).apply_row(&[f64::NAN], true);
        assert!(out, "NaN must not fire the rule");
        assert!(fired.is_none());
    }

    #[test]
    fn unknown_feature_never_fires() {
        let layer = RuleLayer::new(vec![MatchRule::reject(
            "ghost",
            vec![("no_such_feature".into(), Cmp::Ge, 0.0)],
        )]);
        let (out, fired) = layer.bind(&["name_sim"]).apply_row(&[0.5], true);
        assert!(out);
        assert!(fired.is_none());
    }

    #[test]
    fn lazy_application_asks_only_for_what_decides() {
        let layer = RuleLayer::new(vec![
            MatchRule::reject("ghost", vec![("no_such_feature".into(), Cmp::Ge, 0.0)]),
            MatchRule::accept(
                "both",
                vec![
                    ("price_sim".into(), Cmp::Ge, 0.5),
                    ("name_sim".into(), Cmp::Ge, 0.9),
                ],
            ),
        ]);
        let bound = layer.bind(&["name_sim", "price_sim"]);
        let mut asked = Vec::new();
        // price_sim fails first: name_sim is never asked for.
        let (out, fired) = bound.apply_lazy(
            |i| {
                asked.push(i);
                [0.95, 0.1][i]
            },
            false,
        );
        assert!(!out);
        assert!(fired.is_none());
        assert_eq!(asked, [1]);
        let (out, fired) = bound.apply_lazy(|i| [0.95, 0.9][i], false);
        assert!(out);
        assert_eq!(fired, Some("both"));
    }

    #[test]
    fn conjunction_requires_all_conditions() {
        let layer = RuleLayer::new(vec![MatchRule::accept(
            "both",
            vec![
                ("name_sim".into(), Cmp::Ge, 0.9),
                ("price_sim".into(), Cmp::Ge, 0.5),
            ],
        )]);
        let m = matrix();
        // Row 0: name 0.95 but price 0.1 -> no fire.
        let out = layer.apply(&m, &[false, false, false]);
        assert_eq!(out, vec![false, false, false]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_predictions_panic() {
        RuleLayer::empty().apply(&matrix(), &[true]);
    }
}
