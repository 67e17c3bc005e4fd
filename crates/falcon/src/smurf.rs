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
//! Falcon does. Everything else is Falcon's pipeline: the same sample, the
//! same matching stage (the only one that asks the user), so Smurf opens
//! no `falcon_al_blocking` or `falcon_rule_verify` span.

use magellan_block::{Blocker, CandidateSet, OverlapBlocker, RuleBasedBlocker};
use magellan_core::labeling::Labeler;
use magellan_core::sample::{proxy, rank};
use magellan_ml::{Dataset, RandomForestLearner};
use magellan_par::{ParConfig, ParStats};
use magellan_table::Table;

use crate::rules::extract_blocking_rules;
use crate::workflow::{FalconConfig, FalconReport, FalconRun};

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
    // ---- Blocking stage, zero questions ----
    let Some(mut run) = FalconRun::sample(a, b, a_key, b_key, cfg)? else {
        return Ok(FalconReport::default());
    };
    let s_matrix = &run.sample;

    // Pseudo-labels from the proxy-score extremes.
    let keys: Vec<f64> = s_matrix
        .rows
        .iter()
        .map(|r| proxy(r.iter().copied()))
        .collect();
    let ranked = rank(&keys);
    let n = ranked.len();
    // Confident positives: the top few percent, and only while the proxy
    // stays clearly high — pseudo-label noise here poisons every rule. At
    // least two, unless the sample is smaller.
    let n_pos_cap = (n / 12).max(2).min(n / 2);
    let n_pos = ranked
        .iter()
        .take(n_pos_cap)
        .take_while(|&&i| keys[i] >= 0.45)
        .count()
        .max(2)
        .min(n);
    let n_neg = (n / 2).max(2).min(n - n_pos); // bottom half = negatives
    let mut pseudo: Vec<(usize, bool)> = Vec::with_capacity(n_pos + n_neg);
    pseudo.extend(ranked.iter().take(n_pos).map(|&i| (i, true)));
    pseudo.extend(ranked.iter().rev().take(n_neg).map(|&i| (i, false)));

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
    let (kept, blocking_rules) = extract_blocking_rules(
        &forest,
        s_matrix,
        &pseudo,
        &run.bfeatures,
        1.0,
        cfg.max_rules,
    );
    let rules: Vec<String> = kept.iter().map(|r| r.pretty(&s_matrix.names)).collect();
    let n_rules_executable = blocking_rules.len();

    // Label-free rules were never user-verified (that is the point of
    // Smurf), so they can over-fire on dirt the pseudo-positives never
    // exhibited. Guard recall with a permissive overlap blocker on the
    // first textual attribute: the blocking stage then errs toward
    // candidates, and the (still actively-learned) matching stage restores
    // precision. Two shared tokens: loose enough to catch matches the
    // unverified rules would wrongly drop, tight enough not to balloon |C|
    // (which would inflate the matching-stage label budget and erase the
    // very labeling savings Smurf exists for).
    let guard = run.overlap_blocker(2);
    let used_fallback_blocker = blocking_rules.is_empty();
    let blocker: Box<dyn Blocker> = if used_fallback_blocker {
        Box::new(guard)
    } else {
        Box::new(GuardedRules {
            rules: RuleBasedBlocker::new(blocking_rules),
            guard,
        })
    };

    // ---- Matching stage: unchanged Falcon (labels still needed) ----
    Ok(FalconReport {
        questions_blocking: 0,
        rules,
        n_rules_executable,
        used_fallback_blocker,
        ..run.match_candidates(blocker, labeler, cfg)?
    })
}

/// Smurf's blocker when it has rules: their survivors, unioned with the
/// overlap guard's candidates while the guard stays proportionate to them
/// (at most 100 000 pairs, or ten times the survivors), else the
/// survivors alone.
struct GuardedRules {
    rules: RuleBasedBlocker,
    guard: OverlapBlocker,
}

impl Blocker for GuardedRules {
    fn name(&self) -> String {
        format!("guarded({}, {})", self.rules.name(), self.guard.name())
    }

    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        let (guard, mut stats) = self.guard.block_par(a, b, cfg)?;
        let (survivors, rule_stats) = self.rules.block_par(a, b, cfg)?;
        stats.merge(&rule_stats);
        let out = if guard.len() <= 100_000.max(survivors.len().saturating_mul(10)) {
            survivors.union(&guard)
        } else {
            survivors
        };
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::run_falcon;
    use crate::workflow::tests::{run, scenario};
    use magellan_datagen::domains::persons;

    #[test]
    fn smurf_cuts_labeling_effort_at_comparable_accuracy() {
        let s = scenario(persons, 350, 110, 71);
        let cfg = FalconConfig::default();
        let (falcon, mf) = run(run_falcon, &s, &cfg);
        let (smurf, ms) = run(run_smurf, &s, &cfg);
        assert_eq!(smurf.questions_blocking, 0);
        assert!(
            smurf.total_questions() < falcon.total_questions(),
            "smurf {} >= falcon {}",
            smurf.total_questions(),
            falcon.total_questions()
        );
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
        let s = scenario(persons, 300, 90, 72);
        let (report, m) = run(run_smurf, &s, &FalconConfig::default());
        assert!(report.n_candidates > 0);
        assert!(m.recall() > 0.5, "{m}");
    }
}
