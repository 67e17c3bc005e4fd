//! Blocking-rule extraction from random forests (Fig. 4 of the paper).
//!
//! Every root→"No"-leaf path of a committee tree is a candidate blocking
//! rule: the conjunction of conditions along the path implies "no-match".
//! Falcon then (a) keeps only *precise* rules — here evaluated against the
//! labeled pairs instead of fresh user questions when labels are already
//! in hand — and (b) executes the kept rules at scale. Rules whose
//! conditions are all of the drop direction (`sim ≤ t`) over joinable
//! similarity features translate directly into a
//! [`magellan_block::RuleBasedBlocker`].

use magellan_block::{BlockingRule, Predicate, SimFeature, TokSpec};
use magellan_features::{Feature, FeatureKind, FeatureMatrix, TokSpecF};
use magellan_ml::{Node, RandomForestClassifier};

/// One path condition: `feature ≤ threshold` (`is_le`) or `feature >
/// threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCond {
    /// Feature (column) index.
    pub feature: usize,
    /// True for the `≤` branch.
    pub is_le: bool,
    /// Threshold.
    pub threshold: f64,
}

/// A candidate rule with its evaluation stats.
#[derive(Debug, Clone)]
pub struct ExtractedRule {
    /// The path conditions (conjunction).
    pub conditions: Vec<PathCond>,
    /// Whether it translates into a scalable drop-rule (all `≤` over
    /// joinable features).
    pub executable: bool,
    /// Fraction of firing labeled pairs that are true negatives.
    pub precision: f64,
    /// Fraction of labeled negatives the rule drops.
    pub coverage: f64,
}

impl ExtractedRule {
    /// Does the rule fire on (i.e. drop) a feature row? NaN routes to the
    /// `≤` side, matching tree-prediction semantics.
    pub fn fires(&self, row: &[f64]) -> bool {
        self.conditions.iter().all(|c| {
            let x = row[c.feature];
            let goes_le = x.is_nan() || x <= c.threshold;
            goes_le == c.is_le
        })
    }

    /// Render with feature names, Fig. 4 style.
    pub fn pretty(&self, names: &[String]) -> String {
        let parts: Vec<String> = self
            .conditions
            .iter()
            .map(|c| {
                let op = if c.is_le { "<=" } else { ">" };
                format!("{} {op} {:.3}", names[c.feature], c.threshold)
            })
            .collect();
        format!("{} -> No", parts.join(" AND "))
    }
}

/// Collect all root→"No"-leaf paths across the forest's trees.
pub fn candidate_paths(forest: &RandomForestClassifier) -> Vec<Vec<PathCond>> {
    let mut out = Vec::new();
    for tree in forest.trees() {
        let nodes = tree.nodes();
        let mut stack: Vec<(usize, Vec<PathCond>)> = vec![(0, Vec::new())];
        while let Some((i, path)) = stack.pop() {
            match &nodes[i] {
                Node::Leaf { n, n_pos } => {
                    // "No" leaf: strict negative majority.
                    if *n_pos * 2 < *n && !path.is_empty() {
                        out.push(path);
                    }
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let mut lp = path.clone();
                    lp.push(PathCond {
                        feature: *feature,
                        is_le: true,
                        threshold: *threshold,
                    });
                    stack.push((*left, lp));
                    let mut rp = path;
                    rp.push(PathCond {
                        feature: *feature,
                        is_le: false,
                        threshold: *threshold,
                    });
                    stack.push((*right, rp));
                }
            }
        }
    }
    // Dedupe identical paths across trees.
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out.dedup();
    out
}

/// Map a feature to a join-executable [`SimFeature`], when possible.
fn joinable(kind: FeatureKind) -> Option<SimFeature> {
    let tok = |t: TokSpecF| match t {
        TokSpecF::Word => TokSpec::Word,
        TokSpecF::Qgram(q) => TokSpec::Qgram(q),
    };
    match kind {
        FeatureKind::Jaccard(t) => Some(SimFeature::Jaccard(tok(t))),
        FeatureKind::Cosine(t) => Some(SimFeature::Cosine(tok(t))),
        FeatureKind::Dice(t) => Some(SimFeature::Dice(tok(t))),
        FeatureKind::ExactMatch => Some(SimFeature::ExactMatch),
        _ => None,
    }
}

/// Extract, evaluate, and select blocking rules.
///
/// * `forest` — the committee from the blocking-stage active learning;
/// * `matrix`/`labels` — the labeled pairs (rule precision is estimated on
///   them, standing in for Falcon's extra user verification round);
/// * `features` — the feature definitions aligned with matrix columns;
/// * `min_precision` — keep rules at least this precise (paper: "retains
///   only the precise rules");
/// * `max_rules` — keep at most this many, best coverage first.
///
/// Returns the kept rules and the executable [`BlockingRule`] conversions
/// (for the `RuleBasedBlocker`).
pub fn extract_blocking_rules(
    forest: &RandomForestClassifier,
    matrix: &FeatureMatrix,
    labels: &[(usize, bool)],
    features: &[Feature],
    min_precision: f64,
    max_rules: usize,
) -> (Vec<ExtractedRule>, Vec<BlockingRule>) {
    let paths = candidate_paths(forest);
    let n_neg = labels.iter().filter(|(_, y)| !*y).count();
    let mut rules: Vec<ExtractedRule> = Vec::new();
    for conditions in paths {
        let executable = conditions
            .iter()
            .all(|c| c.is_le && joinable(features[c.feature].kind).is_some());
        let rule = ExtractedRule {
            conditions,
            executable,
            precision: 0.0,
            coverage: 0.0,
        };
        let mut fired = 0usize;
        let mut fired_neg = 0usize;
        for &(i, y) in labels {
            if rule.fires(&matrix.rows[i]) {
                fired += 1;
                if !y {
                    fired_neg += 1;
                }
            }
        }
        if fired == 0 {
            continue;
        }
        let precision = fired_neg as f64 / fired as f64;
        let coverage = if n_neg == 0 {
            0.0
        } else {
            fired_neg as f64 / n_neg as f64
        };
        if precision >= min_precision && coverage > 0.0 {
            rules.push(ExtractedRule {
                precision,
                coverage,
                ..rule
            });
        }
    }
    rules.sort_by(|a, b| {
        b.coverage
            .partial_cmp(&a.coverage)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.conditions.len().cmp(&b.conditions.len()))
    });
    // Prefer executable rules: the blocker can only run those at scale.
    let mut kept: Vec<ExtractedRule> = rules
        .iter()
        .filter(|r| r.executable)
        .take(max_rules)
        .cloned()
        .collect();
    if kept.is_empty() {
        // Fall back to the best non-executable rules (refine-only mode).
        kept = rules.into_iter().take(max_rules).collect();
    }

    let blocking_rules: Vec<BlockingRule> = kept
        .iter()
        .filter_map(|r| to_blocking_rule(r, features))
        .collect();
    (kept, blocking_rules)
}

/// Convert an executable extracted rule into a `RuleBasedBlocker` rule.
/// Returns `None` for non-executable rules.
pub fn to_blocking_rule(rule: &ExtractedRule, features: &[Feature]) -> Option<BlockingRule> {
    if !rule.executable {
        return None;
    }
    Some(BlockingRule {
        predicates: rule
            .conditions
            .iter()
            .map(|c| {
                let f = &features[c.feature];
                Predicate {
                    l_attr: f.l_attr.clone(),
                    r_attr: f.r_attr.clone(),
                    feature: joinable(f.kind).expect("checked executable"),
                    threshold: c.threshold,
                }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_ml::{Dataset, RandomForestLearner};

    /// The Fig. 4 books setting: match iff isbn AND pages agree.
    fn book_setting() -> (
        RandomForestClassifier,
        FeatureMatrix,
        Vec<(usize, bool)>,
        Vec<Feature>,
    ) {
        let features = vec![
            Feature::new("isbn", "isbn", FeatureKind::ExactMatch),
            Feature::new("pages", "pages", FeatureKind::Jaccard(TokSpecF::Word)),
        ];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        // Dense grid of labeled pairs.
        for i in 0..60 {
            let isbn = f64::from(i % 2 == 0);
            let pages = f64::from(i % 3 == 0);
            rows.push(vec![isbn, pages]);
            labels.push(isbn == 1.0 && pages == 1.0);
        }
        let matrix = FeatureMatrix {
            names: features.iter().map(|f| f.name.clone()).collect(),
            rows: rows.clone(),
            pairs: (0..60).map(|i| (i as u32, i as u32)).collect(),
        };
        let mut data = Dataset::new(matrix.names.clone());
        for (r, &y) in rows.iter().zip(&labels) {
            data.push(r, y);
        }
        let forest = RandomForestLearner {
            n_trees: 8,
            max_features: Some(2),
            ..Default::default()
        }
        .fit_forest(&data);
        let labeled: Vec<(usize, bool)> = labels.iter().copied().enumerate().collect();
        (forest, matrix, labeled, features)
    }

    #[test]
    fn extracts_no_paths_from_trees() {
        let (forest, _, _, _) = book_setting();
        let paths = candidate_paths(&forest);
        assert!(!paths.is_empty());
        // Every path must end implying "No": verified structurally by the
        // extractor; here check each path has >= 1 condition.
        assert!(paths.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn kept_rules_are_precise_and_cover_negatives() {
        let (forest, matrix, labeled, features) = book_setting();
        let (rules, blocking) =
            extract_blocking_rules(&forest, &matrix, &labeled, &features, 0.95, 5);
        assert!(!rules.is_empty(), "no rules extracted");
        for r in &rules {
            assert!(r.precision >= 0.95, "{r:?}");
            assert!(r.coverage > 0.0);
        }
        // The canonical Fig. 4 rule shape exists: isbn low -> No.
        assert!(
            rules.iter().any(|r| r.conditions.iter().all(|c| c.is_le)),
            "no all-<= executable-style rule found"
        );
        assert!(!blocking.is_empty(), "no executable blocking rules");
    }

    #[test]
    fn rules_never_drop_labeled_positives_at_full_precision() {
        let (forest, matrix, labeled, features) = book_setting();
        let (rules, _) = extract_blocking_rules(&forest, &matrix, &labeled, &features, 1.0, 10);
        for r in &rules {
            for &(i, y) in &labeled {
                if y {
                    assert!(!r.fires(&matrix.rows[i]), "rule drops a positive: {r:?}");
                }
            }
        }
    }

    #[test]
    fn fires_respects_nan_as_low() {
        let rule = ExtractedRule {
            conditions: vec![PathCond {
                feature: 0,
                is_le: true,
                threshold: 0.5,
            }],
            executable: true,
            precision: 1.0,
            coverage: 1.0,
        };
        assert!(rule.fires(&[f64::NAN]));
        assert!(rule.fires(&[0.3]));
        assert!(!rule.fires(&[0.9]));
    }

    #[test]
    fn pretty_prints_with_names() {
        let rule = ExtractedRule {
            conditions: vec![
                PathCond {
                    feature: 0,
                    is_le: true,
                    threshold: 0.55,
                },
                PathCond {
                    feature: 1,
                    is_le: false,
                    threshold: 0.2,
                },
            ],
            executable: false,
            precision: 1.0,
            coverage: 0.5,
        };
        let names = vec!["isbn_sim".to_owned(), "pages_sim".to_owned()];
        let s = rule.pretty(&names);
        assert_eq!(s, "isbn_sim <= 0.550 AND pages_sim > 0.200 -> No");
    }
}
