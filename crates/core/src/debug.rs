//! Matching debuggers (Table 3, pain-point column: "Matching debuggers").
//!
//! After the quality check, the guide's loop goes "back and debug and
//! modify the previous steps". This module ranks the false positives and
//! false negatives of a labeled evaluation and explains each by the
//! features that most disagree with the verdict, so the user can see
//! *which similarity signals* misled the matcher.

use magellan_features::FeatureMatrix;

/// The kind of mistake a debugged pair represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MistakeKind {
    /// Predicted match, labeled no-match.
    FalsePositive,
    /// Predicted no-match, labeled match.
    FalseNegative,
}

/// One mistaken pair with its explanation.
#[derive(Debug, Clone)]
pub struct Mistake {
    /// Position within the evaluated matrix.
    pub row: usize,
    /// The `(a_row, b_row)` pair.
    pub pair: (u32, u32),
    /// FP or FN.
    pub kind: MistakeKind,
    /// Matcher confidence (probability of match).
    pub proba: f64,
    /// The features most responsible, as `(name, value)`:
    /// for FPs the *highest* similarities (what fooled the matcher),
    /// for FNs the *lowest* (what hid the match). NaNs are skipped.
    pub evidence: Vec<(String, f64)>,
}

/// Analyze mistakes over a labeled matrix.
///
/// `probas` are matcher probabilities aligned with `matrix.rows`; `labels`
/// are the gold labels; `threshold` is the operating point; `top_k`
/// features are reported as evidence per mistake.
pub fn debug_matches(
    matrix: &FeatureMatrix,
    probas: &[f64],
    labels: &[bool],
    threshold: f64,
    top_k: usize,
) -> Vec<Mistake> {
    assert_eq!(matrix.len(), probas.len(), "probas length mismatch");
    assert_eq!(matrix.len(), labels.len(), "labels length mismatch");
    let mut mistakes = Vec::new();
    for (i, (&p, &gold)) in probas.iter().zip(labels).enumerate() {
        let predicted = p >= threshold;
        if predicted == gold {
            continue;
        }
        let kind = if predicted {
            MistakeKind::FalsePositive
        } else {
            MistakeKind::FalseNegative
        };
        let mut feats: Vec<(String, f64)> = matrix
            .names
            .iter()
            .zip(&matrix.rows[i])
            .filter(|(_, v)| !v.is_nan())
            .map(|(n, &v)| (n.clone(), v))
            .collect();
        match kind {
            // FP: sort by value descending — the high sims that fooled us.
            MistakeKind::FalsePositive => {
                feats.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
            }
            // FN: ascending — the low sims that hid the match.
            MistakeKind::FalseNegative => {
                feats.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            }
        }
        feats.truncate(top_k);
        mistakes.push(Mistake {
            row: i,
            pair: matrix.pairs[i],
            kind,
            proba: p,
            evidence: feats,
        });
    }
    // Most confident mistakes first: FPs by proba desc, FNs by proba asc,
    // interleaved by |proba - threshold| descending.
    mistakes.sort_by(|a, b| {
        let da = (a.proba - threshold).abs();
        let db = (b.proba - threshold).abs();
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.row.cmp(&b.row))
    });
    mistakes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix {
            names: vec!["name_sim".into(), "price_sim".into()],
            rows: vec![
                vec![0.9, 0.95],     // true match, predicted match: correct
                vec![0.85, 0.1],     // predicted match, actually not: FP
                vec![0.2, f64::NAN], // predicted no, actually match: FN
                vec![0.1, 0.1],      // correct reject
            ],
            pairs: vec![(0, 0), (1, 1), (2, 2), (3, 3)],
        }
    }

    #[test]
    fn finds_and_classifies_mistakes() {
        let m = matrix();
        let probas = [0.95, 0.8, 0.3, 0.05];
        let labels = [true, false, true, false];
        let mistakes = debug_matches(&m, &probas, &labels, 0.5, 2);
        assert_eq!(mistakes.len(), 2);
        let fp = mistakes
            .iter()
            .find(|x| x.kind == MistakeKind::FalsePositive)
            .unwrap();
        assert_eq!(fp.pair, (1, 1));
        // FP evidence leads with the high name similarity that fooled us.
        assert_eq!(fp.evidence[0].0, "name_sim");
        let fn_ = mistakes
            .iter()
            .find(|x| x.kind == MistakeKind::FalseNegative)
            .unwrap();
        assert_eq!(fn_.pair, (2, 2));
        // NaN feature must be excluded from evidence.
        assert_eq!(fn_.evidence.len(), 1);
        assert_eq!(fn_.evidence[0].0, "name_sim");
    }

    #[test]
    fn most_confident_mistakes_first() {
        let m = matrix();
        let probas = [0.95, 0.99, 0.01, 0.05]; // FP at 0.99 is the worst
        let labels = [true, false, true, false];
        let mistakes = debug_matches(&m, &probas, &labels, 0.5, 1);
        assert_eq!(mistakes[0].pair, (1, 1));
        assert_eq!(mistakes[1].pair, (2, 2));
    }

    #[test]
    fn no_mistakes_no_output() {
        let m = matrix();
        let probas = [0.9, 0.1, 0.9, 0.1];
        let labels = [true, false, true, false];
        assert!(debug_matches(&m, &probas, &labels, 0.5, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "labels length")]
    fn mismatched_labels_panic() {
        debug_matches(&matrix(), &[0.1, 0.2, 0.3, 0.4], &[true], 0.5, 1);
    }
}
