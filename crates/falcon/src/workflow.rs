//! The end-to-end Falcon workflow (Fig. 3 of the paper).

use magellan_block::debugger::concat_columns;
use magellan_block::{joinable, Blocker, CandidateSet, OverlapBlocker, RuleBasedBlocker};
use magellan_core::labeling::Labeler;
use magellan_features::{extract_with_prepared, generate_features, Feature, PreparedPair};
use magellan_par::ParConfig;
use magellan_simjoin::{join_tokenized_topk, SetSimMeasure, TokenizedCollection};
use magellan_table::Table;
use magellan_textsim::tokenize::AlphanumericTokenizer;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::active::{active_learn, ActiveLearnConfig};
use crate::rules::extract_blocking_rules;

/// Falcon knobs.
#[derive(Debug, Clone)]
pub struct FalconConfig {
    /// Size of the initial pair sample `S` (Fig. 3 step 1).
    pub sample_size: usize,
    /// Active-learning config for the blocking stage (step 2).
    pub blocking_al: ActiveLearnConfig,
    /// Active-learning config for the matching stage (step 5).
    pub matching_al: ActiveLearnConfig,
    /// Vote-fraction threshold α: a pair matches when ≥ α·n trees agree.
    pub alpha: f64,
    /// Minimum precision for a blocking rule to be retained (step 3).
    pub min_rule_precision: f64,
    /// Maximum blocking rules retained.
    pub max_rules: usize,
    /// Fresh user questions spent verifying each extracted rule's
    /// precision (Fig. 3 step 3: "Falcon enlists the lay user to evaluate
    /// the extracted blocking rules"). Smurf skips this entirely.
    pub rule_verify_questions: usize,
    /// Cap on the matching-stage active-learning pool (prediction still
    /// covers the whole candidate set).
    pub max_matching_pool: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FalconConfig {
    fn default() -> Self {
        FalconConfig {
            sample_size: 600,
            blocking_al: ActiveLearnConfig::default(),
            matching_al: ActiveLearnConfig {
                max_rounds: 15,
                ..Default::default()
            },
            alpha: 0.5,
            min_rule_precision: 0.95,
            max_rules: 4,
            rule_verify_questions: 15,
            max_matching_pool: 3000,
            seed: 7,
        }
    }
}

/// What Falcon did and found.
pub struct FalconReport {
    /// Questions asked in the blocking stage.
    pub questions_blocking: usize,
    /// Questions asked in the matching stage.
    pub questions_matching: usize,
    /// Pretty-printed retained blocking rules (Fig. 4 style).
    pub rules: Vec<String>,
    /// How many retained rules were join-executable.
    pub n_rules_executable: usize,
    /// Whether the fallback overlap blocker had to be used.
    pub used_fallback_blocker: bool,
    /// Candidate pairs after blocking (|C|).
    pub n_candidates: usize,
    /// Predicted matches.
    pub matches: CandidateSet,
}

impl FalconReport {
    /// Total labeling questions (Table 2's "Questions" column).
    pub fn total_questions(&self) -> usize {
        self.questions_blocking + self.questions_matching
    }
}

/// Fig. 3 step 1: sample pairs — half *plausible* (the `n / 2` most
/// similar pairs, by word Jaccard over every non-key attribute, among those
/// at 0.2 or above — so the sample contains real matches at low match
/// density; ties by row ids) and half uniform random. With an empty table
/// there is nothing to draw from and the sample is empty.
pub fn sample_pairs(
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    n: usize,
    seed: u64,
) -> Vec<(u32, u32)> {
    let non_key = |t: &Table, key: &str| -> Vec<usize> {
        let fields = t.schema().fields().iter().enumerate();
        fields
            .filter(|(_, f)| f.name != key)
            .map(|(i, _)| i)
            .collect()
    };
    let la = concat_columns(a, &non_key(a, a_key));
    let rb = concat_columns(b, &non_key(b, b_key));
    let coll = TokenizedCollection::build(&la, &rb, &AlphanumericTokenizer::as_set());
    let (plausible, _) =
        join_tokenized_topk(&coll, SetSimMeasure::Jaccard(0.2), n / 2, |_, _| true);
    let mut pairs: Vec<(u32, u32)> = plausible.iter().map(|p| (p.l as u32, p.r as u32)).collect();
    if a.is_empty() || b.is_empty() {
        return pairs;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
    let mut guard = 0;
    while pairs.len() < n && guard < 20 * n {
        guard += 1;
        let p = (
            rng.gen_range(0..a.nrows()) as u32,
            rng.gen_range(0..b.nrows()) as u32,
        );
        if seen.insert(p) {
            pairs.push(p);
        }
    }
    pairs
}

/// Mean of a row's non-NaN features: the label-free similarity proxy
/// behind [`biased_pool`] and Smurf's pseudo-labels.
pub(crate) fn proxy(row: &[f64]) -> f64 {
    let (mut s, mut k) = (0.0, 0usize);
    for &v in row {
        if !v.is_nan() {
            s += v;
            k += 1;
        }
    }
    if k == 0 {
        0.0
    } else {
        s / k as f64
    }
}

/// Bound an active-learning pool to `cap` rows: half the slots go to the
/// highest-proxy (most plausibly matching) pairs, half to a uniform random
/// sample. A uniform-only subsample of a large candidate set at EM's match
/// densities would hand the learner a pool with almost no positives.
pub fn biased_pool(
    matrix: &magellan_features::FeatureMatrix,
    cap: usize,
    seed: u64,
) -> magellan_features::FeatureMatrix {
    if matrix.len() <= cap {
        return matrix.clone();
    }
    // One key per row; the sort is stable, so equal keys keep row order.
    let keys: Vec<f64> = matrix.rows.iter().map(|r| proxy(r)).collect();
    let mut by_proxy: Vec<usize> = (0..matrix.len()).collect();
    by_proxy.sort_by(|&i, &j| {
        keys[j]
            .partial_cmp(&keys[i])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let top = cap / 2;
    let mut positions: Vec<usize> = by_proxy[..top].to_vec();
    let mut rest: Vec<usize> = by_proxy[top..].to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::seq::SliceRandom;
    rest.shuffle(&mut rng);
    positions.extend(rest.into_iter().take(cap - top));
    positions.sort_unstable();
    matrix.subset(&positions)
}

/// Feature kinds whose drop-direction rules execute as joins.
pub fn blocking_features(
    a: &Table,
    b: &Table,
    exclude: &[&str],
) -> magellan_table::Result<Vec<Feature>> {
    Ok(generate_features(a, b, exclude)?
        .into_iter()
        .filter(|f| joinable(f.kind))
        .collect())
}

/// Run Falcon end to end (Fig. 3): sample → active-learn forest → extract
/// + verify blocking rules → execute → active-learn matcher → predict at α.
pub fn run_falcon(
    a: &Table,
    b: &Table,
    a_key: &str,
    b_key: &str,
    labeler: &mut dyn Labeler,
    cfg: &FalconConfig,
) -> magellan_table::Result<FalconReport> {
    // One record-preparation cache spans both Falcon stages: the
    // blocking-stage sample matrix and the matching-stage candidate
    // matrix share most (attribute, tokenizer) combinations, so records
    // appearing in both the sample and the candidate set are normalized,
    // tokenized, and interned exactly once.
    let mut prepared = PreparedPair::new(a, b);

    // ---- Blocking stage (Fig. 3a) ----
    let s_pairs = sample_pairs(a, b, a_key, b_key, cfg.sample_size, cfg.seed);
    let bfeatures = blocking_features(a, b, &[a_key, b_key])?;
    let (s_matrix, _) =
        extract_with_prepared(&mut prepared, &s_pairs, &bfeatures, &ParConfig::serial())?;

    let q0 = labeler.questions_asked();
    let outcome = active_learn(
        &s_matrix,
        |i| {
            let (ra, rb) = s_matrix.pairs[i];
            labeler.label(a, ra as usize, b, rb as usize).as_bool()
        },
        &cfg.blocking_al,
    );

    // Step 3: extract + verify rules.
    let (kept, blocking_rules) = extract_blocking_rules(
        &outcome.forest,
        &s_matrix,
        &outcome.labeled,
        &bfeatures,
        cfg.min_rule_precision,
        // Verify a wider candidate slate than will be kept: the user
        // evaluates each candidate rule (the expensive part), then the
        // best survivors are retained.
        cfg.max_rules * 4,
    );
    let _ = blocking_rules; // rebuilt below from the user-verified rules

    // Step 3 (second half): the lay user evaluates each candidate rule on
    // fresh pairs the rule would drop. A rule that drops even one labeled
    // match is rejected — this is where Falcon spends extra questions that
    // Smurf saves.
    let mut verified: Vec<crate::rules::ExtractedRule> = Vec::with_capacity(kept.len());
    let labeled_set: std::collections::HashSet<usize> =
        outcome.labeled.iter().map(|&(i, _)| i).collect();
    let mut verify_cache: std::collections::HashMap<usize, bool> =
        outcome.labeled.iter().copied().collect();
    for rule in kept {
        let mut dropped_matches = 0usize;
        let mut asked = 0usize;
        for i in 0..s_matrix.len() {
            if asked >= cfg.rule_verify_questions {
                break;
            }
            if labeled_set.contains(&i) && verify_cache.get(&i).copied() == Some(false) {
                continue; // known negative adds no information here
            }
            if !rule.fires(&s_matrix.rows[i]) {
                continue;
            }
            let y = *verify_cache.entry(i).or_insert_with(|| {
                let (ra, rb) = s_matrix.pairs[i];
                labeler.label(a, ra as usize, b, rb as usize).as_bool()
            });
            asked += 1;
            if y {
                dropped_matches += 1;
                // A second dropped match condemns the rule; a single one
                // may be annotator noise (crowd answers flip a few percent
                // of the time), which must not veto a good rule.
                if dropped_matches >= 2 {
                    break;
                }
            }
        }
        if dropped_matches < 2 {
            verified.push(rule);
        }
    }
    verified.truncate(cfg.max_rules);
    let blocking_rules: Vec<magellan_block::BlockingRule> = verified
        .iter()
        .filter_map(|r| crate::rules::to_blocking_rule(r, &bfeatures))
        .collect();
    let kept = verified;
    let questions_blocking = labeler.questions_asked() - q0;

    let n_rules_executable = blocking_rules.len();
    let rules_pretty: Vec<String> = kept.iter().map(|r| r.pretty(&s_matrix.names)).collect();

    // Step 4: execute the rules (or fall back when none are executable).
    let (candidates, used_fallback) = if blocking_rules.is_empty() {
        let first_str_attr = a
            .schema()
            .fields()
            .iter()
            .find(|f| f.name != a_key && f.dtype == magellan_table::Dtype::Str)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| a_key.to_owned());
        (OverlapBlocker::words(&first_str_attr, 1).block(a, b)?, true)
    } else {
        (RuleBasedBlocker::new(blocking_rules).block(a, b)?, false)
    };

    // ---- Matching stage (Fig. 3b) ----
    // Reuses the blocking stage's prepared records and interner: only
    // combinations new to the matching feature set (and records new to
    // the candidate set) are tokenized here.
    let mfeatures = generate_features(a, b, &[a_key, b_key])?;
    let (c_matrix, _) = extract_with_prepared(
        &mut prepared,
        candidates.pairs(),
        &mfeatures,
        &ParConfig::serial(),
    )?;
    if c_matrix.is_empty() {
        return Ok(FalconReport {
            questions_blocking,
            questions_matching: 0,
            rules: rules_pretty,
            n_rules_executable,
            used_fallback_blocker: used_fallback,
            n_candidates: 0,
            matches: CandidateSet::default(),
        });
    }

    // Bound the AL pool; prediction still covers everything.
    // Very large candidate sets dilute the match density so far that the
    // default label budget cannot control the false-positive rate at
    // prediction time; scale the budget and pool with |C| (Table 2's
    // bigger tasks spend up to 1200 questions for the same reason).
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
    let q1 = labeler.questions_asked();
    let match_outcome = active_learn(
        pool_ref,
        |i| {
            let (ra, rb) = pool_ref.pairs[i];
            labeler.label(a, ra as usize, b, rb as usize).as_bool()
        },
        &matching_al,
    );
    let questions_matching = labeler.questions_asked() - q1;

    // Step 6: apply the forest to all of C at threshold α.
    let matches: CandidateSet = c_matrix
        .pairs
        .iter()
        .zip(&c_matrix.rows)
        .filter_map(|(&p, row)| match_outcome.forest.predict_at(row, cfg.alpha).then_some(p))
        .collect();

    Ok(FalconReport {
        questions_blocking,
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
    use magellan_core::evaluate::evaluate_matches;
    use magellan_core::labeling::OracleLabeler;
    use magellan_datagen::domains::{persons, products};
    use magellan_datagen::{DirtModel, ScenarioConfig};

    #[test]
    fn falcon_matches_persons_with_high_accuracy_and_few_questions() {
        let s = persons(&ScenarioConfig {
            size_a: 400,
            size_b: 400,
            n_matches: 130,
            dirt: DirtModel::light(),
            seed: 51,
        });
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let report = run_falcon(
            &s.table_a,
            &s.table_b,
            "id",
            "id",
            &mut labeler,
            &FalconConfig::default(),
        )
        .unwrap();

        assert!(report.n_candidates > 0);
        assert!(
            report.total_questions() <= 1200,
            "question budget blown: {}",
            report.total_questions()
        );
        let m =
            evaluate_matches(&report.matches, &s.table_a, &s.table_b, "id", "id", &s.gold).unwrap();
        assert!(m.precision() > 0.8, "{m}");
        assert!(m.recall() > 0.7, "{m}");
    }

    #[test]
    fn blocking_rules_shrink_the_cross_product() {
        let s = products(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            seed: 52,
        });
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let report = run_falcon(
            &s.table_a,
            &s.table_b,
            "id",
            "id",
            &mut labeler,
            &FalconConfig::default(),
        )
        .unwrap();
        let cross = s.table_a.nrows() * s.table_b.nrows();
        assert!(
            report.n_candidates * 4 < cross,
            "blocking barely reduced: {} of {cross}",
            report.n_candidates
        );
        assert!(!report.rules.is_empty() || report.used_fallback_blocker);
        for r in &report.rules {
            assert!(r.ends_with("-> No"), "{r}");
        }
    }

    #[test]
    fn alpha_one_is_stricter_than_alpha_half() {
        let s = persons(&ScenarioConfig {
            size_a: 200,
            size_b: 200,
            n_matches: 70,
            dirt: DirtModel::light(),
            seed: 53,
        });
        let run = |alpha: f64| {
            let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
            run_falcon(
                &s.table_a,
                &s.table_b,
                "id",
                "id",
                &mut labeler,
                &FalconConfig {
                    alpha,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let loose = run(0.5);
        let strict = run(1.0);
        assert!(
            strict.matches.len() <= loose.matches.len(),
            "unanimity produced more matches ({} > {})",
            strict.matches.len(),
            loose.matches.len()
        );
    }
}
