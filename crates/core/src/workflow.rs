//! The captured EM workflow — the artifact the development stage produces
//! and the production stage executes (the paper's "Python script W").

use magellan_block::{Blocker, CandidateSet};
use magellan_features::{extract_feature_matrix, Feature, FeatureMatrix};
use magellan_ml::Classifier;
use magellan_table::Table;

use crate::exec::DecisionPlan;
use crate::rules::RuleLayer;

/// A complete, trained EM workflow: blocker → features → matcher → rules,
/// and the plan the production executor decides its pairs by.
pub struct EmWorkflow {
    /// The blocking step.
    pub blocker: Box<dyn Blocker>,
    /// Features computed per candidate pair.
    pub features: Vec<Feature>,
    /// The trained matcher.
    pub matcher: Box<dyn Classifier>,
    /// Post-prediction rule layer (may be empty).
    pub rule_layer: RuleLayer,
    /// Matcher probability threshold for "match" (default 0.5).
    pub threshold: f64,
    /// How the executor decides pairs with this matcher at this threshold:
    /// the features it tests last and its certain-No region. Derived once
    /// by the development stage; [`DecisionPlan::default`] (no deferral, no
    /// region) for a hand-built workflow. It cannot change a match.
    pub plan: DecisionPlan,
}

/// The output of running a workflow.
pub struct WorkflowOutput {
    /// Candidate pairs that survived blocking.
    pub candidates: CandidateSet,
    /// Feature matrix over the candidates.
    pub matrix: FeatureMatrix,
    /// Final per-candidate decisions (post rules), aligned with
    /// `matrix.pairs`.
    pub decisions: Vec<bool>,
}

impl WorkflowOutput {
    /// The predicted matches as a candidate set.
    pub fn matches(&self) -> CandidateSet {
        self.matrix
            .pairs
            .iter()
            .zip(&self.decisions)
            .filter_map(|(&p, &d)| d.then_some(p))
            .collect()
    }

    /// Number of predicted matches.
    pub fn n_matches(&self) -> usize {
        self.decisions.iter().filter(|&&d| d).count()
    }
}

impl EmWorkflow {
    /// Run end to end on two tables (single-threaded; the production
    /// executor in [`crate::exec`] parallelizes the predict loop).
    pub fn execute(&self, a: &Table, b: &Table) -> magellan_table::Result<WorkflowOutput> {
        let candidates = self.blocker.block(a, b)?;
        let matrix = extract_feature_matrix(candidates.pairs(), a, b, &self.features)?;
        let predicted: Vec<bool> = matrix
            .rows
            .iter()
            .map(|row| self.matcher.predict_proba(row) >= self.threshold)
            .collect();
        let decisions = self.rule_layer.apply(&matrix, &predicted);
        Ok(WorkflowOutput {
            candidates,
            matrix,
            decisions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_block::OverlapBlocker;
    use magellan_features::{FeatureKind, TokSpec};
    use magellan_ml::model::ConstantClassifier;
    use magellan_table::Dtype;

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str), ("name", Dtype::Str)],
            vec![
                vec!["a0".into(), "dave smith".into()],
                vec!["a1".into(), "joe wilson".into()],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str), ("name", Dtype::Str)],
            vec![
                vec!["b0".into(), "dave smith".into()],
                vec!["b1".into(), "maria garcia".into()],
            ],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn executes_block_feature_predict_rule() {
        let (a, b) = tables();
        let wf = EmWorkflow {
            blocker: Box::new(OverlapBlocker::words("name", 1)),
            features: vec![Feature::new(
                "name",
                "name",
                FeatureKind::Jaccard(TokSpec::Word),
            )],
            matcher: Box::new(ConstantClassifier { proba: 1.0 }),
            rule_layer: RuleLayer::new(vec![crate::rules::MatchRule::reject(
                "weak name",
                vec![(
                    "jaccard(word(A.name), word(B.name))".into(),
                    crate::rules::Cmp::Lt,
                    0.9,
                )],
            )]),
            threshold: 0.5,
            plan: DecisionPlan::default(),
        };
        let out = wf.execute(&a, &b).unwrap();
        // Blocking keeps only (a0,b0) (shared tokens).
        assert_eq!(out.candidates.pairs(), &[(0, 0)]);
        // Constant matcher says yes; rule layer keeps it (jaccard = 1.0).
        assert_eq!(out.n_matches(), 1);
        assert!(out.matches().contains((0, 0)));
    }

    #[test]
    fn threshold_gates_matches() {
        let (a, b) = tables();
        let wf = EmWorkflow {
            blocker: Box::new(OverlapBlocker::words("name", 1)),
            features: vec![],
            matcher: Box::new(ConstantClassifier { proba: 0.6 }),
            rule_layer: RuleLayer::empty(),
            threshold: 0.7,
            plan: DecisionPlan::default(),
        };
        let out = wf.execute(&a, &b).unwrap();
        assert_eq!(out.n_matches(), 0);
    }
}
