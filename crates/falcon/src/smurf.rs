//! Smurf-lite: blocking rules without labels (§5.3 of the paper).
//!
//! > "we have developed Smurf, which removes the need to label to learn
//! > blocking rules ... This drastically reduces the labeling effort by
//! > 43–76%, yet achieving the same accuracy."
//!
//! The idea reproduced here: instead of asking the user, generate
//! *pseudo-labels* from the unlabeled pair sample itself — pairs whose
//! aggregate similarity is extreme are confidently positive/negative —
//! train the random forest on those, and extract blocking rules exactly as
//! Falcon does. Only the matching stage still asks the user.

use magellan_block::{Blocker, CandidateSet, OverlapBlocker, RuleBasedBlocker};
use magellan_core::labeling::Labeler;
use magellan_features::{extract_with_prepared, PreparedPair};
use magellan_ml::{Dataset, RandomForestLearner};
use magellan_par::ParConfig;
use magellan_table::Table;

use crate::active::active_learn;
use crate::rules::extract_blocking_rules;
use crate::workflow::{
    biased_pool, blocking_features, proxy, sample_pairs, FalconConfig, FalconReport,
};

/// Run Smurf-lite: label-free blocking-rule learning, then Falcon's
/// matching stage. The report's `questions_blocking` is always 0 — that
/// is the whole point.
pub fn run_smurf(
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    labeler: &mut dyn Labeler,
    cfg: &FalconConfig,
) -> magellan_table::Result<FalconReport> {
    // One prepared cache across both stages (same cross-stage reuse as
    // Falcon: sample records seen again in the candidate set are
    // tokenized once).
    let mut prepared = PreparedPair::new(a, b);

    // ---- Blocking stage, zero questions ----
    let s_pairs = sample_pairs(a, b, a_key, b_key, cfg.sample_size, cfg.seed);
    let bfeatures = blocking_features(a, b, &[a_key, b_key])?;
    let (s_matrix, _) =
        extract_with_prepared(&mut prepared, &s_pairs, &bfeatures, &ParConfig::serial())?;

    // Pseudo-labels from the proxy-score extremes.
    let mut scored: Vec<(f64, usize)> = s_matrix
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| (proxy(r), i))
        .collect();
    scored.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = scored.len();
    // Confident positives: the top few percent, and only while the proxy
    // stays clearly high — pseudo-label noise here poisons every rule.
    let n_pos_cap = (n / 12).max(2).min(n / 2);
    let n_pos = scored
        .iter()
        .take(n_pos_cap)
        .take_while(|&&(s, _)| s >= 0.45)
        .count()
        .max(2);
    let n_neg = (n / 2).max(2).min(n - n_pos); // bottom half = negatives
    let mut pseudo: Vec<(usize, bool)> = Vec::with_capacity(n_pos + n_neg);
    pseudo.extend(scored.iter().take(n_pos).map(|&(_, i)| (i, true)));
    pseudo.extend(scored.iter().rev().take(n_neg).map(|&(_, i)| (i, false)));

    let mut data = Dataset::new(s_matrix.names.clone());
    for &(i, y) in &pseudo {
        data.push(&s_matrix.rows[i], y);
    }
    let forest = RandomForestLearner {
        n_trees: cfg.blocking_al.n_trees,
        seed: cfg.seed,
        ..Default::default()
    }
    .fit_forest(&data);

    // Rule extraction: precision 1.0 against the pseudo-labels — a rule
    // may not drop a single confident pseudo-positive.
    let (kept, blocking_rules) =
        extract_blocking_rules(&forest, &s_matrix, &pseudo, &bfeatures, 1.0, cfg.max_rules);
    let rules_pretty: Vec<String> = kept.iter().map(|r| r.pretty(&s_matrix.names)).collect();
    let n_rules_executable = blocking_rules.len();

    // Label-free rules were never user-verified (that is the point of
    // Smurf), so they can over-fire on dirt the pseudo-positives never
    // exhibited. Guard recall by unioning the rule survivors with a
    // permissive one-token overlap blocker on the first textual attribute:
    // the blocking stage then errs toward candidates, and the (still
    // actively-learned) matching stage restores precision.
    let guard_attr = a
        .schema()
        .fields()
        .iter()
        .find(|f| f.name != a_key && f.dtype == magellan_table::Dtype::Str)
        .map(|f| f.name.clone())
        .unwrap_or_else(|| a_key.to_owned());
    // Two shared tokens: loose enough to catch matches the unverified
    // rules would wrongly drop, tight enough not to balloon |C| (which
    // would inflate the matching-stage label budget and erase the very
    // labeling savings Smurf exists for).
    let guard = OverlapBlocker::words(&guard_attr, 2).block(a, b)?;
    let (candidates, used_fallback) = if blocking_rules.is_empty() {
        (guard, true)
    } else {
        let survivors = RuleBasedBlocker::new(blocking_rules).block(a, b)?;
        // Only union the guard in when it stays proportionate: a guard
        // that dwarfs the rule survivors would balloon |C|, inflate the
        // matching-stage label budget, and erase the labeling savings
        // Smurf exists for.
        let guard_is_proportionate =
            guard.len() <= 100_000.max(survivors.len().saturating_mul(10));
        if guard_is_proportionate {
            (survivors.union(&guard), false)
        } else {
            (survivors, false)
        }
    };

    // ---- Matching stage: unchanged Falcon (labels still needed) ----
    let mfeatures = magellan_features::generate_features(a, b, &[a_key, b_key])?;
    let (c_matrix, _) = extract_with_prepared(
        &mut prepared,
        candidates.pairs(),
        &mfeatures,
        &ParConfig::serial(),
    )?;
    if c_matrix.is_empty() {
        return Ok(FalconReport {
            questions_blocking: 0,
            questions_matching: 0,
            rules: rules_pretty,
            n_rules_executable,
            used_fallback_blocker: used_fallback,
            n_candidates: 0,
            matches: CandidateSet::default(),
        });
    }
    let mut matching_al = cfg.matching_al;
    let mut pool_cap = cfg.max_matching_pool;
    if candidates.len() > 100_000 {
        matching_al.max_rounds = matching_al.max_rounds * 2 + 10;
        pool_cap *= 2;
    }
    let pool_matrix;
    let pool_ref = if c_matrix.len() > pool_cap {
        pool_matrix = biased_pool(&c_matrix, pool_cap, cfg.seed ^ 0xC0FFEE);
        &pool_matrix
    } else {
        &c_matrix
    };
    let q0 = labeler.questions_asked();
    let outcome = active_learn(
        pool_ref,
        |i| {
            let (ra, rb) = pool_ref.pairs[i];
            labeler.label(a, ra as usize, b, rb as usize).as_bool()
        },
        &matching_al,
    );
    let questions_matching = labeler.questions_asked() - q0;

    let matches: CandidateSet = c_matrix
        .pairs
        .iter()
        .zip(&c_matrix.rows)
        .filter_map(|(&p, row)| outcome.forest.predict_at(row, cfg.alpha).then_some(p))
        .collect();

    Ok(FalconReport {
        questions_blocking: 0,
        questions_matching,
        rules: rules_pretty,
        n_rules_executable,
        used_fallback_blocker: used_fallback,
        n_candidates: candidates.len(),
        matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::run_falcon;
    use magellan_core::evaluate::evaluate_matches;
    use magellan_core::labeling::OracleLabeler;
    use magellan_datagen::domains::persons;
    use magellan_datagen::{DirtModel, ScenarioConfig};

    #[test]
    fn smurf_cuts_labeling_effort_at_comparable_accuracy() {
        let s = persons(&ScenarioConfig {
            size_a: 350,
            size_b: 350,
            n_matches: 110,
            dirt: DirtModel::light(),
            seed: 71,
        });
        let cfg = FalconConfig::default();

        let mut falcon_labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let falcon = run_falcon(&s.table_a, &s.table_b, "id", "id", &mut falcon_labeler, &cfg)
            .unwrap();
        let mut smurf_labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let smurf = run_smurf(&s.table_a, &s.table_b, "id", "id", &mut smurf_labeler, &cfg)
            .unwrap();

        assert_eq!(smurf.questions_blocking, 0);
        assert!(
            smurf.total_questions() < falcon.total_questions(),
            "smurf {} >= falcon {}",
            smurf.total_questions(),
            falcon.total_questions()
        );

        let mf = evaluate_matches(&falcon.matches, &s.table_a, &s.table_b, "id", "id", &s.gold)
            .unwrap();
        let ms = evaluate_matches(&smurf.matches, &s.table_a, &s.table_b, "id", "id", &s.gold)
            .unwrap();
        // "yet achieving the same accuracy" — allow a modest margin.
        assert!(
            ms.f1() > mf.f1() - 0.12,
            "smurf F1 {} much worse than falcon {}",
            ms.f1(),
            mf.f1()
        );
    }

    #[test]
    fn smurf_blocking_retains_most_gold_pairs() {
        let s = persons(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 90,
            dirt: DirtModel::light(),
            seed: 72,
        });
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let report = run_smurf(
            &s.table_a,
            &s.table_b,
            "id",
            "id",
            &mut labeler,
            &FalconConfig::default(),
        )
        .unwrap();
        // Candidate set must contain most gold pairs (blocking recall).
        let ak = s.table_a.key_index("id").unwrap();
        let _ = ak;
        assert!(report.n_candidates > 0);
        let m = evaluate_matches(&report.matches, &s.table_a, &s.table_b, "id", "id", &s.gold)
            .unwrap();
        assert!(m.recall() > 0.5, "{m}");
    }
}
