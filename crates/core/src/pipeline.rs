//! The development-stage pipeline: Fig. 2 of the paper, end to end.

use magellan_block::debugger::estimate_recall;
use magellan_block::{Blocker, CandidateSet};
use magellan_features::{extract_with_prepared, Feature, PreparedPair, Scorer};
use magellan_ml::cv::select_matcher;
use magellan_ml::{CvReport, Dataset, Learner, Metrics};
use magellan_par::ParConfig;
use magellan_table::Table;

use crate::downsample::down_sample;
use crate::error::MagellanError;
use crate::exec::{DecideCounts, DecisionPlan};
use crate::labeling::Labeler;
use crate::rules::RuleLayer;
use crate::sample::{proxy_keys, sample_positions, stratify};
use crate::workflow::EmWorkflow;

/// Knobs for the development stage.
#[derive(Debug, Clone)]
pub struct DevConfig {
    /// Down-sample B to this many rows first (`None` = use full tables).
    /// Fig. 2's "down sample" step: 1M-row tables are too big to iterate
    /// on, so the guide starts by shrinking them intelligently.
    pub down_sample_to: Option<usize>,
    /// Candidate pairs to sample and label (the labeled set `G`).
    pub sample_size: usize,
    /// Cross-validation folds for matcher selection.
    pub cv_folds: usize,
    /// Fraction of the labeled set held out for the final quality check.
    pub holdout_fraction: f64,
    /// Attributes used for the label-free blocker-recall estimate.
    pub debug_attrs: Vec<String>,
    /// Labels spent on the quality-check calibration of the decision
    /// threshold (0 disables calibration and keeps the 0.5 default).
    pub calibration_labels: usize,
    /// Precision target the calibrated threshold aims for.
    pub target_precision: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for DevConfig {
    fn default() -> Self {
        DevConfig {
            down_sample_to: None,
            sample_size: 400,
            cv_folds: 5,
            holdout_fraction: 0.25,
            debug_attrs: Vec::new(),
            calibration_labels: 60,
            target_precision: 0.9,
            seed: 7,
        }
    }
}

impl DevConfig {
    /// Refuse the knobs the stage cannot run with, naming the field.
    fn validate(&self) -> Result<(), MagellanError> {
        if self.cv_folds < 2 {
            return Err(MagellanError::Config {
                message: format!("cv_folds must be at least 2, got {}", self.cv_folds),
            });
        }
        if self.target_precision.is_nan() {
            return Err(MagellanError::Config {
                message: "target_precision must be a number, got NaN".to_owned(),
            });
        }
        if !(self.holdout_fraction > 0.0 && self.holdout_fraction < 1.0) {
            return Err(MagellanError::Config {
                message: format!(
                    "holdout_fraction must lie strictly between 0 and 1, got {}",
                    self.holdout_fraction
                ),
            });
        }
        Ok(())
    }
}

/// How one candidate blocker scored during selection.
#[derive(Debug, Clone)]
pub struct BlockerChoice {
    /// Blocker display name.
    pub name: String,
    /// Candidate pairs it produced on the (down-sampled) tables.
    pub n_candidates: usize,
    /// Label-free recall estimate (fraction of high-similarity pairs kept).
    pub est_recall: f64,
}

/// Everything the development stage learned, for the quality-check
/// conversation with the domain-expert team.
#[derive(Debug, Clone)]
pub struct DevReport {
    /// Per-blocker selection scores.
    pub blocker_choices: Vec<BlockerChoice>,
    /// The chosen blocker's name.
    pub chosen_blocker: String,
    /// Candidate pairs after blocking the (down-sampled) tables.
    pub n_candidates: usize,
    /// Cross-validation reports, best first (Fig. 2's F1 comparison).
    pub cv_reports: Vec<CvReport>,
    /// The selected matcher's name.
    pub chosen_matcher: String,
    /// Quality-check metrics on the held-out labels.
    pub holdout: Metrics,
    /// Labeling questions spent.
    pub questions: usize,
    /// Positive fraction of the labeled sample.
    pub label_positive_rate: f64,
    /// The calibrated decision threshold (0.5 when calibration is off).
    pub threshold: f64,
    /// Estimated precision at the calibrated threshold (from the
    /// quality-check labels), when calibration ran.
    pub est_precision: Option<f64>,
}

/// Run the development stage (Fig. 2): down-sample → select blocker →
/// block → sample → label → cross-validate → select matcher → train →
/// quality-check → derive the decision plan. Returns the captured workflow
/// and the report.
///
/// `blockers` are the candidates the "user experiments with" (the guide's
/// blockers X and Y); the pipeline picks the one with the best label-free
/// recall estimate, breaking ties toward the smaller candidate set.
///
/// The stage's independent work (down-sample ranking, blocking, the
/// pre-sample's proxy keys, sample extraction, cross-validation folds, the
/// calibration probe) runs on the host's cores, at most two. The result
/// does not depend on how many: each step merges its chunks in input
/// order.
///
/// Under a recorder each step is one span: `dev_down_sample` (when
/// `down_sample_to` is set), `dev_select_blocker`, `dev_pre_sample`,
/// `dev_extract` (the sample's features, labels and training split),
/// `dev_cv`, `dev_fit` (with the holdout check), `dev_probe` (with the plan
/// at 0.5) and `dev_calibrate` (with the plan at the final threshold).
///
/// # Errors
/// [`MagellanError::Config`], before any work, for fewer than two
/// `cv_folds`, a `holdout_fraction` outside `(0, 1)` (NaN included), a
/// NaN `target_precision`, or no `blockers` or no `learners`; a table
/// error from blocking or feature extraction; or a fatal `training`
/// [`MagellanError::Phase`] when no labelled pair is left to train on (a
/// down-sample, candidate set or labelled sample too small for the
/// holdout split).
pub fn run_development_stage(
    a: &Table,
    b: &Table,
    blockers: Vec<Box<dyn Blocker>>,
    features: Vec<Feature>,
    learners: &[&dyn Learner],
    labeler: &mut dyn Labeler,
    cfg: &DevConfig,
) -> Result<(EmWorkflow, DevReport), MagellanError> {
    let par = ParConfig::available().at_most(MAX_STAGE_WORKERS);
    run_development_stage_on(a, b, blockers, features, learners, labeler, cfg, &par)
}

/// Most workers the development stage's steps run on, whatever the host
/// offers. Each worker holds its own scratch (a scorer's stamp arrays, a
/// ranking range's counts per A row) and, under glibc, its own allocator
/// arena: on `match_heavy` every worker past two raised peak RSS by
/// ~1.2–2.3 MB, and no host with more cores has timed the gain yet.
pub(crate) const MAX_STAGE_WORKERS: usize = 2;

/// [`run_development_stage`] on `par`'s workers.
#[allow(clippy::too_many_arguments)]
fn run_development_stage_on(
    a: &Table,
    b: &Table,
    mut blockers: Vec<Box<dyn Blocker>>,
    features: Vec<Feature>,
    learners: &[&dyn Learner],
    labeler: &mut dyn Labeler,
    cfg: &DevConfig,
    par: &ParConfig,
) -> Result<(EmWorkflow, DevReport), MagellanError> {
    cfg.validate()?;
    for (missing, none) in [
        ("blockers", blockers.is_empty()),
        ("learners", learners.is_empty()),
    ] {
        if none {
            return Err(MagellanError::Config {
                message: format!("the development stage needs at least one of its {missing}"),
            });
        }
    }

    // Step 1: down-sample (the guide's A' and B').
    let (a_small, b_small);
    let (wa, wb): (&Table, &Table) = match cfg.down_sample_to {
        Some(size) => {
            let _span = magellan_obs::span("dev_down_sample", 0);
            let (x, y) = down_sample(a, b, size, 4, &[], cfg.seed);
            a_small = x;
            b_small = y;
            (&a_small, &b_small)
        }
        None => (a, b),
    };

    // Step 2: blocker selection.
    let span = magellan_obs::span("dev_select_blocker", 0);
    let debug_attrs: Vec<&str> = if cfg.debug_attrs.is_empty() {
        wa.schema()
            .fields()
            .iter()
            .skip(1) // skip the key column by convention
            .map(|f| f.name.as_str())
            .collect()
    } else {
        cfg.debug_attrs.iter().map(String::as_str).collect()
    };
    let mut choices = Vec::with_capacity(blockers.len());
    let mut candidate_sets: Vec<CandidateSet> = Vec::with_capacity(blockers.len());
    for blocker in &blockers {
        let (cands, _) = blocker.block_par(wa, wb, par)?;
        let est = estimate_recall(&cands, wa, wb, &debug_attrs, 0.65)?;
        choices.push(BlockerChoice {
            name: blocker.name(),
            n_candidates: cands.len(),
            est_recall: est,
        });
        candidate_sets.push(cands);
    }
    let best_idx = (0..choices.len())
        .max_by(|&i, &j| {
            choices[i]
                .est_recall
                .partial_cmp(&choices[j].est_recall)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| choices[j].n_candidates.cmp(&choices[i].n_candidates))
        })
        .expect("at least one blocker");
    let chosen_blocker = blockers.remove(best_idx);
    let candidates = candidate_sets.swap_remove(best_idx);
    drop(span);

    // Step 3–4: sample S from C and label it. S is plausibility-stratified
    // (module `sample`): a wide uniform pre-sample is scored by the
    // label-free proxy, and S mixes the top-scoring half with a uniform
    // remainder. The pre-sample is scored as production scores, through
    // one `Scorer` over its left-sorted pairs, keeping one proxy key per
    // pair and no row.
    let span = magellan_obs::span("dev_pre_sample", 0);
    let pre_pairs = crate::sample::sample_pairs(
        &candidates,
        cfg.sample_size.saturating_mul(30).max(cfg.sample_size),
        cfg.seed ^ 0xA5A5,
    );
    let mut prepared = PreparedPair::new(wa, wb);
    let plan = prepared.plan(&features)?;
    let sample_pairs: Vec<(u32, u32)> = if cfg.sample_size >= pre_pairs.len() {
        pre_pairs // every position is chosen: no pair needs scoring
    } else {
        prepared.prepare_for_pairs(&plan, &pre_pairs);
        let keys = proxy_keys(&prepared, &plan, &pre_pairs, par);
        let chosen = stratify(&keys, cfg.sample_size, cfg.seed ^ 0x7777);
        chosen.iter().map(|&i| pre_pairs[i]).collect()
    };
    drop(span);
    let span = magellan_obs::span("dev_extract", 0);
    let (matrix, _) = extract_with_prepared(&mut prepared, &sample_pairs, &features, par)?;
    let labels: Vec<bool> = sample_pairs
        .iter()
        .map(|&(ra, rb)| labeler.label(wa, ra as usize, wb, rb as usize).as_bool())
        .collect();

    // Step 5: train/holdout split for the quality check.
    let (train_idx, hold_idx) =
        magellan_ml::cv::train_test_split(&labels, cfg.holdout_fraction, cfg.seed ^ 0x5A5A);
    let mut train = Dataset::new(matrix.names.clone());
    for &i in &train_idx {
        train.push(&matrix.rows[i], labels[i]);
    }
    drop(span);
    if train.is_empty() {
        return Err(MagellanError::Phase {
            phase: "training",
            message: format!(
                "the labelled training split is empty ({} candidate pairs, {} labelled, \
                 {} held out): down-sample to more rows or lower holdout_fraction",
                candidates.len(),
                labels.len(),
                hold_idx.len()
            ),
            transient: false,
        });
    }

    // Step 6: cross-validate and pick the matcher.
    let span = magellan_obs::span("dev_cv", 0);
    let n_pos = train.n_positive();
    let degenerate = n_pos < 2 || train.len() - n_pos < 2;
    let cv_reports = if degenerate {
        Vec::new() // single-class sample: CV is meaningless, pick first.
    } else {
        select_matcher(
            learners,
            &train,
            cfg.cv_folds.min(n_pos.max(2)),
            cfg.seed,
            par,
        )
    };
    let chosen_name = cv_reports
        .first()
        .map(|r| r.learner.clone())
        .unwrap_or_else(|| learners[0].name().to_owned());
    let chosen_learner = learners
        .iter()
        .find(|l| l.name() == chosen_name)
        .expect("selected learner exists");
    drop(span);

    // Step 7: fit the chosen matcher on the full training labels.
    let span = magellan_obs::span("dev_fit", 0);
    let matcher = chosen_learner.fit(&train);

    // Step 8: quality check on the holdout.
    let hold_pred: Vec<bool> = hold_idx
        .iter()
        .map(|&i| matcher.predict(&matrix.rows[i]))
        .collect();
    let hold_gold: Vec<bool> = hold_idx.iter().map(|&i| labels[i]).collect();
    let holdout = Metrics::from_predictions(&hold_pred, &hold_gold);
    drop(span);

    // Step 8 (second half): Fig. 2's quality check — "examining a sample
    // of the predictions and computing the resulting accuracy". The
    // matcher's 0.5 operating point is tuned on a labeled sample whose
    // match density is far above the candidate set's, so its full-scale
    // precision is systematically lower; sampling *predicted matches*,
    // labeling them, and raising the threshold until the estimated
    // precision clears the target corrects for the density shift.
    //
    // The probe — a bounded random slice of the candidate set — is also
    // what the workflow's decision plan is derived over, so it is drawn and
    // prepared whether or not calibration runs.
    let span = magellan_obs::span("dev_probe", 0);
    let probe_positions =
        sample_positions(&candidates, 50_000.min(candidates.len()), cfg.seed ^ 0xCA11);
    let probe_pairs: Vec<(u32, u32)> = probe_positions
        .iter()
        .map(|&i| candidates.pairs()[i])
        .collect();
    prepared.prepare_for_pairs(&plan, &probe_pairs);
    let probe_plan = DecisionPlan::derive(&*matcher, 0.5, &prepared, &plan, &probe_pairs);
    drop(span);
    let span = magellan_obs::span("dev_calibrate", 0);
    let mut threshold = 0.5;
    let mut est_precision = None;
    if cfg.calibration_labels > 0 {
        // Decide each probe pair lazily as production does: only a
        // predicted match gets its whole row and its probability. Chunks
        // keep pair positions and are joined in order, so `scored` is in
        // probe order.
        let region = probe_plan.region.as_deref().map(|d| plan.compile_box(d));
        let (chunks, _) = magellan_par::chunk_map(probe_pairs.len(), par, |range| {
            let mut scorer = Scorer::new(&prepared, &plan);
            let mut scored: Vec<(f64, usize)> = Vec::new();
            probe_plan.decide_pairs(
                region.as_ref(),
                &*matcher,
                0.5,
                &mut scorer,
                &probe_pairs[range.clone()],
                &mut DecideCounts::default(),
                |i, predicted, scorer| {
                    if predicted {
                        let row: Vec<f64> = (0..plan.len()).map(|j| scorer.feature(j)).collect();
                        scored.push((matcher.predict_proba(&row), range.start + i));
                    }
                },
            );
            scored
        });
        let mut scored = chunks.concat();
        if !scored.is_empty() {
            // Label a random sample of predicted matches, remembering each
            // one's probability — precision at every threshold >= 0.5 then
            // falls out of a single labeled sample.
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x9999);
            scored.shuffle(&mut rng);
            scored.truncate(cfg.calibration_labels);
            let labeled_preds: Vec<(f64, bool)> = scored
                .iter()
                .map(|&(p, i)| {
                    let (ra, rb) = probe_pairs[i];
                    (p, labeler.label(wa, ra as usize, wb, rb as usize).as_bool())
                })
                .collect();
            let mut best = (0.5, precision_at(&labeled_preds, 0.5));
            for t in [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9] {
                let (n, prec) = precision_at_counted(&labeled_preds, t);
                if n < 8 {
                    break; // too few survivors to estimate
                }
                if best.1 < cfg.target_precision && prec > best.1 {
                    best = (t, prec);
                }
            }
            threshold = best.0;
            est_precision = Some(best.1);
        }
    }
    // The plan at the final threshold: a box derived at 0.5 stays
    // certain-No above it, but is narrower than one derived there.
    let decision_plan = if threshold == 0.5 {
        probe_plan
    } else {
        DecisionPlan::derive(&*matcher, threshold, &prepared, &plan, &probe_pairs)
    };
    drop(span);

    let positive_rate = labels.iter().filter(|&&l| l).count() as f64 / labels.len().max(1) as f64;
    let report = DevReport {
        blocker_choices: choices,
        chosen_blocker: chosen_blocker.name(),
        n_candidates: candidates.len(),
        cv_reports,
        chosen_matcher: chosen_name,
        holdout,
        questions: labeler.questions_asked(),
        label_positive_rate: positive_rate,
        threshold,
        est_precision,
    };
    let workflow = EmWorkflow {
        blocker: chosen_blocker,
        features,
        matcher,
        rule_layer: RuleLayer::empty(),
        threshold,
        plan: decision_plan,
    };
    Ok((workflow, report))
}

/// Precision of the labeled predicted-matches surviving threshold `t`.
fn precision_at(labeled: &[(f64, bool)], t: f64) -> f64 {
    precision_at_counted(labeled, t).1
}

/// `(survivors, precision)` at threshold `t`; vacuous precision 1.0 with
/// zero survivors.
fn precision_at_counted(labeled: &[(f64, bool)], t: f64) -> (usize, f64) {
    let survivors: Vec<bool> = labeled
        .iter()
        .filter(|(p, _)| *p >= t)
        .map(|(_, y)| *y)
        .collect();
    if survivors.is_empty() {
        return (0, 1.0);
    }
    let tp = survivors.iter().filter(|&&y| y).count();
    (survivors.len(), tp as f64 / survivors.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::OracleLabeler;
    use magellan_block::{AttrEquivalenceBlocker, OverlapBlocker};
    use magellan_datagen::domains::persons;
    use magellan_datagen::{DirtModel, ScenarioConfig};
    use magellan_features::generate_features;
    use magellan_ml::{DecisionTreeLearner, RandomForestLearner};

    fn scenario() -> magellan_datagen::EmScenario {
        persons(&ScenarioConfig {
            size_a: 400,
            size_b: 400,
            n_matches: 120,
            dirt: DirtModel::light(),
            seed: 31,
        })
    }

    #[test]
    fn full_development_stage_produces_accurate_workflow() {
        let s = scenario();
        let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let tree = DecisionTreeLearner::default();
        let forest = RandomForestLearner {
            n_trees: 10,
            ..Default::default()
        };
        let blockers: Vec<Box<dyn Blocker>> = vec![
            Box::new(OverlapBlocker::words("name", 1)),
            Box::new(AttrEquivalenceBlocker::on("state")),
        ];
        let cfg = DevConfig {
            sample_size: 300,
            ..Default::default()
        };
        let (workflow, report) = run_development_stage(
            &s.table_a,
            &s.table_b,
            blockers,
            features,
            &[&tree, &forest],
            &mut labeler,
            &cfg,
        )
        .unwrap();

        assert_eq!(report.blocker_choices.len(), 2);
        assert!(report.questions <= 300 + 60); // sample + calibration labels
        assert!(!report.cv_reports.is_empty(), "CV should have run");
        assert!(report.holdout.f1() > 0.6, "holdout {:?}", report.holdout);

        // The captured workflow generalizes: run it on the full tables and
        // score against gold.
        let out = workflow.execute(&s.table_a, &s.table_b).unwrap();
        let m = crate::evaluate::evaluate_matches(
            &out.matches(),
            &s.table_a,
            &s.table_b,
            "id",
            "id",
            &s.gold,
        )
        .unwrap();
        assert!(m.f1() > 0.7, "end-to-end F1 too low: {m}");
    }

    #[test]
    fn blocker_selection_prefers_higher_recall() {
        let s = scenario();
        let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let tree = DecisionTreeLearner::default();
        // Overlap-on-name should beat equality-on-full-name for recall.
        let blockers: Vec<Box<dyn Blocker>> = vec![
            Box::new(AttrEquivalenceBlocker::on("name")),
            Box::new(OverlapBlocker::words("name", 1)),
        ];
        let (_, report) = run_development_stage(
            &s.table_a,
            &s.table_b,
            blockers,
            features,
            &[&tree],
            &mut labeler,
            &DevConfig::default(),
        )
        .unwrap();
        assert!(
            report.chosen_blocker.starts_with("overlap"),
            "{}",
            report.chosen_blocker
        );
    }

    #[test]
    fn down_sampling_path_works() {
        let s = scenario();
        let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let tree = DecisionTreeLearner::default();
        let cfg = DevConfig {
            down_sample_to: Some(150),
            sample_size: 150,
            ..Default::default()
        };
        let (_, report) = run_development_stage(
            &s.table_a,
            &s.table_b,
            vec![Box::new(OverlapBlocker::words("name", 1))],
            features,
            &[&tree],
            &mut labeler,
            &cfg,
        )
        .unwrap();
        assert!(report.n_candidates > 0);
        assert!(report.questions <= 150 + 60); // sample + calibration labels
    }

    #[test]
    fn degenerate_single_class_sample_is_survivable() {
        let s = scenario();
        let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        // Empty gold: every label is no-match.
        let mut labeler = OracleLabeler::new(Default::default(), "id", "id");
        let tree = DecisionTreeLearner::default();
        let (_, report) = run_development_stage(
            &s.table_a,
            &s.table_b,
            vec![Box::new(OverlapBlocker::words("name", 1))],
            features,
            &[&tree],
            &mut labeler,
            &DevConfig {
                sample_size: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.cv_reports.is_empty());
        assert_eq!(report.chosen_matcher, "decision_tree");
        assert_eq!(report.label_positive_rate, 0.0);
    }

    /// The stage over 300 × 300 persons, blocked on one shared name word.
    fn small_stage(cfg: &DevConfig) -> Result<DevReport, MagellanError> {
        let s = persons(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            seed: 0,
        });
        let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let tree = DecisionTreeLearner::default();
        run_development_stage(
            &s.table_a,
            &s.table_b,
            vec![Box::new(OverlapBlocker::words("name", 1))],
            features,
            &[&tree],
            &mut labeler,
            cfg,
        )
        .map(|(_, report)| report)
    }

    /// The refused configuration's error, which must name `field`.
    fn config_error(cfg: DevConfig, field: &str) {
        let err = small_stage(&cfg).unwrap_err();
        assert!(matches!(err, MagellanError::Config { .. }), "{err}");
        assert!(err.to_string().contains(field), "{err}");
    }

    #[test]
    fn zero_cv_folds_is_a_config_error() {
        let cfg = DevConfig {
            cv_folds: 0,
            ..Default::default()
        };
        config_error(cfg, "cv_folds");
    }

    #[test]
    fn one_cv_fold_is_a_config_error() {
        let cfg = DevConfig {
            cv_folds: 1,
            ..Default::default()
        };
        config_error(cfg, "cv_folds");
    }

    #[test]
    fn no_blocker_or_no_learner_is_a_config_error() {
        let s = persons(&ScenarioConfig {
            size_a: 40,
            size_b: 40,
            n_matches: 10,
            dirt: DirtModel::light(),
            seed: 0,
        });
        let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let tree = DecisionTreeLearner::default();
        let refused = |blockers: Vec<Box<dyn Blocker>>, learners: &[&dyn Learner], missing| {
            let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
            let err = run_development_stage(
                &s.table_a,
                &s.table_b,
                blockers,
                features.clone(),
                learners,
                &mut labeler,
                &DevConfig::default(),
            )
            .map(|_| ())
            .unwrap_err();
            assert!(matches!(err, MagellanError::Config { .. }), "{err}");
            assert!(err.to_string().contains(missing), "{err}");
        };
        refused(Vec::new(), &[&tree], "blockers");
        let blocker = OverlapBlocker::words("name", 1);
        refused(vec![Box::new(blocker)], &[], "learners");
        refused(Vec::new(), &[], "blockers");
    }

    #[test]
    fn zero_holdout_fraction_is_a_config_error() {
        let cfg = DevConfig {
            holdout_fraction: 0.0,
            ..Default::default()
        };
        config_error(cfg, "holdout_fraction");
    }

    #[test]
    fn whole_holdout_fraction_is_a_config_error() {
        let cfg = DevConfig {
            holdout_fraction: 1.0,
            ..Default::default()
        };
        config_error(cfg, "holdout_fraction");
    }

    #[test]
    fn nan_holdout_fraction_is_a_config_error() {
        let cfg = DevConfig {
            holdout_fraction: f64::NAN,
            ..Default::default()
        };
        config_error(cfg, "holdout_fraction");
    }

    /// A NaN precision target would never be cleared nor missed: the
    /// calibration labels would be spent and the threshold left at 0.5.
    #[test]
    fn nan_target_precision_is_a_config_error() {
        let cfg = DevConfig {
            target_precision: f64::NAN,
            ..Default::default()
        };
        config_error(cfg, "target_precision");
    }

    /// What one stage run at `workers` returned, bit for bit, plus the
    /// workflow's decision plan and the count and a digest of the matches
    /// it finds in production.
    fn stage_outcome(
        s: &magellan_datagen::EmScenario,
        blocker: Box<dyn Blocker>,
        cfg: &DevConfig,
        workers: usize,
    ) -> String {
        let (a, b) = (&s.table_a, &s.table_b);
        let features = generate_features(a, b, &["id"]).unwrap();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let tree = DecisionTreeLearner::default();
        let forest = RandomForestLearner {
            n_trees: 8,
            ..Default::default()
        };
        let learners: [&dyn Learner; 2] = [&tree, &forest];
        let par = ParConfig::workers(workers);
        let (workflow, r) = run_development_stage_on(
            a,
            b,
            vec![blocker],
            features,
            &learners,
            &mut labeler,
            cfg,
            &par,
        )
        .unwrap();
        let matches = crate::exec::ProductionExecutor::new(2)
            .run(&workflow, a, b)
            .unwrap()
            .matches;
        let bytes: Vec<u8> = matches
            .pairs()
            .iter()
            .flat_map(|&(l, r)| l.to_le_bytes().into_iter().chain(r.to_le_bytes()))
            .collect();
        let choices: Vec<(String, usize, u64)> = r
            .blocker_choices
            .iter()
            .map(|c| (c.name.clone(), c.n_candidates, c.est_recall.to_bits()))
            .collect();
        let cv: Vec<_> = r
            .cv_reports
            .iter()
            .map(|c| {
                let folds: Vec<_> = c.folds.iter().map(|m| (m.tp, m.fp, m.tn, m.fn_)).collect();
                (c.learner.clone(), folds)
            })
            .collect();
        let h = &r.holdout;
        format!(
            "{choices:?} {} {} {cv:?} {} {:?} {} {:x} {:x} {:?} {:?} {} {:x}",
            r.chosen_blocker,
            r.n_candidates,
            r.chosen_matcher,
            (h.tp, h.fp, h.tn, h.fn_),
            r.questions,
            r.label_positive_rate.to_bits(),
            r.threshold.to_bits(),
            r.est_precision.map(f64::to_bits),
            workflow.plan,
            matches.len(),
            magellan_obs::fnv1a(&bytes),
        )
    }

    /// The stage returns the same report and the same production matches
    /// at 1, 2, 3 and 5 workers.
    fn assert_worker_count_invariant(
        s: &magellan_datagen::EmScenario,
        blocker: impl Fn() -> Box<dyn Blocker>,
        sample_size: usize,
    ) {
        let cfg = DevConfig {
            sample_size,
            calibration_labels: 40,
            ..Default::default()
        };
        let serial = stage_outcome(s, blocker(), &cfg, 1);
        for workers in [2, 3, 5] {
            assert_eq!(
                stage_outcome(s, blocker(), &cfg, workers),
                serial,
                "{workers} workers"
            );
        }
    }

    /// `dev_stage_pin`'s pre-sampled scenario: 6 334 candidates, a
    /// 1 800-pair pre-sample.
    #[test]
    fn pre_sampled_stage_is_worker_count_invariant() {
        let s = persons(&ScenarioConfig {
            size_a: 400,
            size_b: 400,
            n_matches: 120,
            dirt: DirtModel::light(),
            seed: 31,
        });
        assert_worker_count_invariant(&s, || Box::new(OverlapBlocker::words("name", 1)), 60);
    }

    /// `dev_stage_pin`'s fully sampled scenario: 151 candidates, all
    /// labelled.
    #[test]
    fn fully_sampled_stage_is_worker_count_invariant() {
        let s = persons(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            seed: 0,
        });
        let jaccard = || -> Box<dyn Blocker> {
            Box::new(magellan_block::SimJoinBlocker {
                l_attr: "name".into(),
                r_attr: "name".into(),
                measure: magellan_simjoin::SetSimMeasure::Jaccard(0.5),
                qgram: None,
                shards: 1,
            })
        };
        assert_worker_count_invariant(&s, jaccard, 400);
    }

    /// Under a pinned recorder each step of the stage is one span, and the
    /// stage returns the same report and workflow as with no recorder.
    #[test]
    fn each_step_is_one_span_and_the_recorder_changes_nothing() {
        let s = scenario();
        let cfg = DevConfig {
            down_sample_to: Some(150),
            sample_size: 60,
            calibration_labels: 40,
            ..Default::default()
        };
        let blocker = || Box::new(OverlapBlocker::words("name", 1));
        let plain = stage_outcome(&s, blocker(), &cfg, 2);
        let obs = magellan_obs::Obs::pinned();
        let traced = {
            let _installed = obs.install();
            stage_outcome(&s, blocker(), &cfg, 2)
        };
        assert_eq!(traced, plain);
        let snap = obs.snapshot();
        for step in [
            "dev_down_sample",
            "dev_select_blocker",
            "dev_pre_sample",
            "dev_extract",
            "dev_cv",
            "dev_fit",
            "dev_probe",
            "dev_calibrate",
        ] {
            assert_eq!(snap.spans_named(step).len(), 1, "{step}");
        }
        assert!(snap.counter("magellan_core_downsample_postings_total") > 0);
    }

    /// A sample size whose thirtyfold pre-sample overflows `usize` labels
    /// every candidate instead of panicking on the multiply.
    #[test]
    fn huge_sample_size_saturates_the_pre_sample() {
        let cfg = DevConfig {
            sample_size: usize::MAX,
            calibration_labels: 0,
            ..Default::default()
        };
        let report = small_stage(&cfg).unwrap();
        assert_eq!(report.questions, report.n_candidates);
    }

    /// A down-sample too small to leave a labelled training pair is a
    /// typed error naming the cause, not a panic in the learner.
    #[test]
    fn empty_training_split_is_an_error_not_a_panic() {
        let s = persons(&ScenarioConfig {
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            seed: 0,
        });
        for size in [0, 1] {
            let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
            let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
            let forest = RandomForestLearner::default();
            let blocker = magellan_block::SimJoinBlocker {
                l_attr: "name".into(),
                r_attr: "name".into(),
                measure: magellan_simjoin::SetSimMeasure::Jaccard(0.5),
                qgram: None,
                shards: 1,
            };
            let err = run_development_stage(
                &s.table_a,
                &s.table_b,
                vec![Box::new(blocker)],
                features,
                &[&forest],
                &mut labeler,
                &DevConfig {
                    down_sample_to: Some(size),
                    ..Default::default()
                },
            )
            .map(|_| ())
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    MagellanError::Phase {
                        phase: "training",
                        transient: false,
                        ..
                    }
                ),
                "down_sample_to {size}: {err}"
            );
            assert!(err.to_string().contains("training split is empty"), "{err}");
        }
    }
}
