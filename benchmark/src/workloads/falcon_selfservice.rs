//! `falcon_selfservice`: the lay user's path (Fig. 3): sample pairs,
//! learn a forest by active learning, turn it into blocking rules, run
//! them, learn a matcher by active learning, predict. The production
//! executor and the storage tier are untouched. Measured, the low-threshold
//! join behind `sample_pairs` (39 %), rule-based blocking (28 %) and record
//! preparation (17 %) are the pass; the two active-learning loops with all
//! their forest fitting are 3 %.
//!
//! Which blocking rules Falcon learns, and so what a task costs, changes
//! from one generated task to the next: over 150 generated `addresses`
//! tasks the time had a coefficient of variation of 0.22 (and `persons`
//! and `products` tasks now and then learn a rule that costs 20x the
//! median). A run therefore cycles its passes over many small tasks drawn
//! from the seed and reports the median pass: the typical task, as Table 2
//! reports machine time per task.

use std::collections::HashSet;
use std::path::Path;

use magellan_block::{Blocker, OverlapBlocker, RuleBasedBlocker};
use magellan_core::labeling::{Labeler, OracleLabeler};
use magellan_datagen::domains::addresses;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_falcon::rules::to_blocking_rule;
use magellan_falcon::workflow::{biased_pool, blocking_features, sample_pairs};
use magellan_falcon::{active_learn, extract_blocking_rules, run_falcon, FalconConfig};
use magellan_features::{generate_features, PreparedPair};
use magellan_ml::{Dataset, RandomForestLearner};
use magellan_par::ParConfig;

use super::{
    digest, extract_traced, gold_rows, put_blocking_counts, put_feature_counts, score, sub_seed,
    timed, PassOut, ReplayCtx, Scale, Workload,
};

struct Task {
    scenario: EmScenario,
    gold: HashSet<(u32, u32)>,
}

pub struct FalconSelfService {
    tasks: Vec<Task>,
}

impl FalconSelfService {
    fn run_task(&self, key: usize) -> Result<PassOut, String> {
        let s = &self.tasks[key].scenario;
        let (a, b) = (&s.table_a, &s.table_b);
        let (out, wall_s, cpu_s) = timed(|| {
            let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
            let rep = run_falcon(a, b, "id", "id", &mut labeler, &FalconConfig::default())
                .map_err(|e| e.to_string())?;
            let quality = score(&rep.matches, a, b, &s.gold)?;
            Ok::<_, String>((
                rep.matches,
                rep.questions_blocking + rep.questions_matching,
                quality,
            ))
        });
        let (matches, questions, quality) = out?;
        Ok(PassOut::one_batch(
            key,
            digest(matches.pairs(), questions as u64),
            quality,
            wall_s,
            cpu_s,
        ))
    }
}

impl Workload for FalconSelfService {
    /// The replay skips the user's rule verification, so it may keep other
    /// rules than `run_falcon` does.
    const REPLAY_REPEATS_PASS: bool = false;

    fn setup(seed: u64, scale: Scale, _dir: &Path) -> Result<Self, String> {
        let n = scale.pick(2_000, 300);
        let tasks = (0..scale.pick(48, 2) as u64)
            .map(|i| {
                let scenario = addresses(&ScenarioConfig {
                    size_a: n,
                    size_b: n,
                    n_matches: n * 3 / 10,
                    dirt: DirtModel::light(),
                    seed: sub_seed(seed, i),
                });
                Ok(Task {
                    gold: gold_rows(&scenario)?,
                    scenario,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FalconSelfService { tasks })
    }

    fn keys(&self) -> usize {
        self.tasks.len()
    }

    fn pass(&mut self, i: usize, _workers: usize) -> Result<PassOut, String> {
        self.run_task(i % self.tasks.len())
    }

    fn references(&mut self, _workers: usize) -> Result<Vec<(&'static str, u64)>, String> {
        // Falcon has no second implementation to compare with; what must
        // hold is that a task repeats exactly, which every pass checks.
        Ok(Vec::new())
    }

    fn replay(&mut self, i: usize, ctx: &mut ReplayCtx<'_>) -> Result<PassOut, String> {
        let key = i % self.tasks.len();
        let task = &self.tasks[key];
        let s = &task.scenario;
        let (a, b) = (&s.table_a, &s.table_b);
        let cfg = FalconConfig::default();
        let serial = ParConfig::serial();
        let untraced = self.run_task(key)?;
        let (t, layers) = (&mut *ctx.tracer, &mut *ctx.layers);
        let pass = i as u32;
        t.begin_pass(pass);
        let te = |e: magellan_table::TableError| e.to_string();

        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        let mut prepared = PreparedPair::new(a, b);
        let (out, wall_s, cpu_s) = timed(|| {
            t.span("pass", |t| {
                // Blocking stage (Fig. 3a).
                let s_pairs = t.span("falcon.sample_pairs_s", |_| {
                    sample_pairs(a, b, "id", "id", cfg.sample_size, cfg.seed)
                });
                let bfeatures = blocking_features(a, b, &["id", "id"]).map_err(te)?;
                let (s_matrix, _) =
                    extract_traced(&mut prepared, &bfeatures, &s_pairs, &serial, t)?;
                let outcome = t.span("falcon.al_blocking_s", |_| {
                    active_learn(
                        &s_matrix,
                        |p| {
                            let (ra, rb) = s_matrix.pairs[p];
                            labeler.label(a, ra as usize, b, rb as usize).as_bool()
                        },
                        &cfg.blocking_al,
                    )
                });
                let rules = t.span("falcon.extract_rules_s", |_| {
                    let (mut kept, _) = extract_blocking_rules(
                        &outcome.forest,
                        &s_matrix,
                        &outcome.labeled,
                        &bfeatures,
                        cfg.min_rule_precision,
                        cfg.max_rules * 4,
                    );
                    kept.truncate(cfg.max_rules);
                    kept.iter()
                        .filter_map(|r| to_blocking_rule(r, &bfeatures))
                        .collect::<Vec<_>>()
                });
                let cands = t
                    .span("block.rules_block_s", |_| {
                        if rules.is_empty() {
                            OverlapBlocker::words("street", 1).block(a, b)
                        } else {
                            RuleBasedBlocker::new(rules).block(a, b)
                        }
                    })
                    .map_err(te)?;

                // Matching stage (Fig. 3b).
                let mfeatures = generate_features(a, b, &["id", "id"]).map_err(te)?;
                let (c_matrix, _) =
                    extract_traced(&mut prepared, &mfeatures, cands.pairs(), &serial, t)?;
                let mut matching_al = cfg.matching_al;
                let mut pool_cap = cfg.max_matching_pool;
                if cands.len() > 100_000 {
                    matching_al.max_rounds = matching_al.max_rounds * 2 + 10;
                    pool_cap *= 2;
                }
                if c_matrix.is_empty() {
                    return Err("replayed blocking rules left no candidates".to_owned());
                }
                let (pool, learned) = t.span("falcon.al_matching_s", |_| {
                    let pool = biased_pool(&c_matrix, pool_cap, cfg.seed ^ 0xC0FFEE);
                    let learned = active_learn(
                        &pool,
                        |p| {
                            let (ra, rb) = pool.pairs[p];
                            labeler.label(a, ra as usize, b, rb as usize).as_bool()
                        },
                        &matching_al,
                    );
                    (pool, learned)
                });
                let matches: magellan_block::CandidateSet = t.span("falcon.predict_s", |_| {
                    c_matrix
                        .pairs
                        .iter()
                        .zip(&c_matrix.rows)
                        .filter_map(|(&p, row)| {
                            learned.forest.predict_at(row, cfg.alpha).then_some(p)
                        })
                        .collect()
                });
                let quality = t.span("core.evaluate_s", |_| score(&matches, a, b, &s.gold))?;
                Ok((cands, c_matrix, pool, learned, matches, quality))
            })
        });
        let (cands, c_matrix, pool, learned, matches, quality) = out?;

        // Forest fitting on its own: the final labelled set, once more.
        let mut labelled = Dataset::new(pool.names.clone());
        for &(p, y) in &learned.labeled {
            labelled.push(&pool.rows[p], y);
        }
        t.span("extra.ml.fit_forest_s", |_| {
            RandomForestLearner {
                n_trees: cfg.matching_al.n_trees,
                ..Default::default()
            }
            .fit_forest(&labelled)
        });

        put_blocking_counts(layers, &cands, &task.gold);
        put_feature_counts(layers, &prepared, &c_matrix);
        let questions = labeler.questions_asked();
        layers.put("falcon.questions", questions as f64);
        layers.put(
            "falcon.replay_gap_ratio",
            wall_s / untraced.wall_s.max(1e-9),
        );
        Ok(PassOut::one_batch(
            key,
            digest(matches.pairs(), questions as u64),
            quality,
            wall_s,
            cpu_s,
        ))
    }
}
