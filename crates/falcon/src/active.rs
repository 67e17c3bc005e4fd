//! Query-by-committee active learning over a random forest (the learning
//! core of Falcon's Steps 2 and 5).
//!
//! The pool matrices scored here are extracted by the Falcon pipeline
//! through one record-preparation cache
//! ([`magellan_features::PreparedPair`]), so both stages' pools reuse one
//! interned vocabulary; this module itself only ever touches the dense
//! `f64` rows. Seeding ranks the pool by the plausibility proxy the
//! development stage samples by ([`magellan_core::sample::proxy`]).

use magellan_core::sample::{proxy, rank};
use magellan_features::FeatureMatrix;
use magellan_ml::{Dataset, RandomForestClassifier, RandomForestLearner};
use magellan_par::ParConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Active-learning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ActiveLearnConfig {
    /// Initial labeled seed size (half similarity-ranked, half random —
    /// random seeding alone would find no positives at EM's low match
    /// densities).
    pub seed_size: usize,
    /// Labels per subsequent round.
    pub batch_size: usize,
    /// Maximum rounds after seeding.
    pub max_rounds: usize,
    /// Trees in the committee.
    pub n_trees: usize,
    /// Early stop when the highest remaining vote entropy falls below
    /// this (committee agrees everywhere).
    pub stop_entropy: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for committee training and pool scoring (the
    /// outcome is **identical for any worker count**: both loops run on
    /// the deterministic `magellan-par` executor).
    pub n_workers: usize,
}

impl Default for ActiveLearnConfig {
    fn default() -> Self {
        ActiveLearnConfig {
            seed_size: 20,
            batch_size: 10,
            max_rounds: 10,
            n_trees: 10,
            stop_entropy: 0.05,
            seed: 7,
            n_workers: 1,
        }
    }
}

/// The result of an active-learning session.
pub struct ActiveLearnOutcome {
    /// The committee trained on everything labeled.
    pub forest: RandomForestClassifier,
    /// `(pool position, label)` in ask order.
    pub labeled: Vec<(usize, bool)>,
    /// Questions asked (= `labeled.len()`).
    pub questions: usize,
    /// Rounds run after seeding.
    pub rounds: usize,
}

/// Run active learning over a feature-matrix pool. `label_fn` is called
/// once per chosen pool position and must answer match (true) / no-match.
pub fn active_learn(
    pool: &FeatureMatrix,
    mut label_fn: impl FnMut(usize) -> bool,
    cfg: &ActiveLearnConfig,
) -> ActiveLearnOutcome {
    assert!(!pool.is_empty(), "cannot active-learn over an empty pool");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = pool.len();
    let mut is_labeled = vec![false; n];
    let mut labeled: Vec<(usize, bool)> = Vec::new();

    // Seeding: top third by similarity proxy (hunting positives), bottom
    // third (confident negatives), and a random third.
    let keys: Vec<f64> = pool.rows.iter().map(|r| proxy(r.iter().copied())).collect();
    let by_proxy = rank(&keys);
    let seed_size = cfg.seed_size.min(n).max(2);
    let third = seed_size.div_ceil(3);
    let mut seed_positions: Vec<usize> = Vec::with_capacity(seed_size);
    seed_positions.extend(by_proxy.iter().take(third));
    seed_positions.extend(by_proxy.iter().rev().take(third));
    let mut random_pool: Vec<usize> = (0..n).collect();
    random_pool.shuffle(&mut rng);
    for i in random_pool {
        if seed_positions.len() >= seed_size {
            break;
        }
        if !seed_positions.contains(&i) {
            seed_positions.push(i);
        }
    }
    for &i in seed_positions.iter().take(seed_size) {
        if !is_labeled[i] {
            is_labeled[i] = true;
            labeled.push((i, label_fn(i)));
        }
    }

    let fit = |labeled: &[(usize, bool)], round: usize| -> RandomForestClassifier {
        let mut data = Dataset::new(pool.names.clone());
        for &(i, y) in labeled {
            data.push(&pool.rows[i], y);
        }
        RandomForestLearner {
            n_trees: cfg.n_trees,
            seed: cfg.seed ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15),
            n_workers: cfg.n_workers,
            ..Default::default()
        }
        .fit_forest(&data)
    };

    let mut forest = fit(&labeled, 0);
    let mut rounds = 0;
    for round in 1..=cfg.max_rounds {
        let n_pos = labeled.iter().filter(|(_, y)| *y).count();
        let n_neg = labeled.len() - n_pos;
        // A committee trained on almost-one-class data is unanimously
        // negative (or positive) everywhere, so its entropy signal is
        // useless *and* its early-stop criterion fires spuriously. Until a
        // minimum of each class is in hand, hunt the missing class along
        // the similarity proxy instead (highest proxy when positives are
        // missing, lowest when negatives are).
        let min_class = 5.min(pool.len() / 4).max(1);
        let single_class = n_pos < min_class || n_neg < min_class;
        // Scoring the unlabeled pool dominates a round's cost; every score
        // is a pure function of the row, so the loop runs on the pool and
        // stays bit-identical for any worker count.
        let par = ParConfig::workers(cfg.n_workers);
        let (maybe_scored, _stats) = magellan_par::map_indexed(n, &par, |i| {
            if is_labeled[i] {
                return None;
            }
            let score = if single_class {
                if n_pos < min_class {
                    keys[i]
                } else {
                    -keys[i]
                }
            } else {
                forest.vote_entropy(&pool.rows[i])
            };
            Some((score, i))
        });
        let mut scored: Vec<(f64, usize)> = maybe_scored.into_iter().flatten().collect();
        if scored.is_empty() {
            break;
        }
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        if !single_class && scored[0].0 < cfg.stop_entropy {
            break; // committee agrees on everything left
        }
        for &(_, i) in scored.iter().take(cfg.batch_size) {
            is_labeled[i] = true;
            labeled.push((i, label_fn(i)));
        }
        forest = fit(&labeled, round);
        rounds = round;
    }

    let questions = labeled.len();
    ActiveLearnOutcome {
        forest,
        labeled,
        questions,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_ml::Classifier;
    use rand::Rng;

    /// Pool with a linear decision boundary on feature 0 and a known gold
    /// labeling; match density ~15%.
    fn pool(seed: u64, n: usize) -> (FeatureMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut gold = Vec::with_capacity(n);
        let mut pairs = Vec::with_capacity(n);
        for i in 0..n {
            let is_match = rng.gen_bool(0.15);
            let base: f64 = if is_match {
                rng.gen_range(0.7..1.0)
            } else {
                rng.gen_range(0.0..0.55)
            };
            rows.push(vec![base, rng.gen_range(0.0..1.0)]);
            gold.push(is_match);
            pairs.push((i as u32, i as u32));
        }
        (
            FeatureMatrix {
                names: vec!["sim".into(), "noise".into()],
                rows,
                pairs,
            },
            gold,
        )
    }

    #[test]
    fn learns_the_boundary_with_few_questions() {
        let (pool, gold) = pool(1, 800);
        let mut asked = 0usize;
        let outcome = active_learn(
            &pool,
            |i| {
                asked += 1;
                gold[i]
            },
            &ActiveLearnConfig::default(),
        );
        assert_eq!(outcome.questions, asked);
        assert!(
            outcome.questions <= 120,
            "too many questions: {}",
            outcome.questions
        );
        // Accuracy on the whole pool.
        let correct = (0..pool.len())
            .filter(|&i| outcome.forest.predict(&pool.rows[i]) == gold[i])
            .count();
        let acc = correct as f64 / pool.len() as f64;
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn beats_random_sampling_at_equal_budget() {
        let (pool, gold) = pool(2, 800);
        let cfg = ActiveLearnConfig::default();
        let outcome = active_learn(&pool, |i| gold[i], &cfg);
        let budget = outcome.questions;

        // Random baseline with the same number of labels.
        let mut rng = StdRng::seed_from_u64(99);
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        idx.shuffle(&mut rng);
        let mut data = Dataset::new(pool.names.clone());
        for &i in idx.iter().take(budget) {
            data.push(&pool.rows[i], gold[i]);
        }
        let baseline = RandomForestLearner {
            n_trees: cfg.n_trees,
            ..Default::default()
        }
        .fit_forest(&data);

        let acc = |f: &RandomForestClassifier| {
            (0..pool.len())
                .filter(|&i| f.predict(&pool.rows[i]) == gold[i])
                .count() as f64
                / pool.len() as f64
        };
        let a_active = acc(&outcome.forest);
        let a_random = acc(&baseline);
        assert!(
            a_active >= a_random - 0.02,
            "active {a_active} clearly worse than random {a_random}"
        );
    }

    #[test]
    fn seed_finds_positives_at_low_density() {
        let (pool, gold) = pool(3, 600);
        let outcome = active_learn(&pool, |i| gold[i], &ActiveLearnConfig::default());
        let pos = outcome.labeled.iter().filter(|(_, y)| *y).count();
        assert!(pos >= 2, "seeding found only {pos} positives");
    }

    #[test]
    fn early_stop_on_unanimous_committee() {
        // Perfectly separable, trivially learnable: should stop well short
        // of max_rounds.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![if i % 7 == 0 { 1.0 } else { 0.0 }])
            .collect();
        let gold: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
        let pool = FeatureMatrix {
            names: vec!["sim".into()],
            rows,
            pairs: (0..200).map(|i| (i as u32, i as u32)).collect(),
        };
        let cfg = ActiveLearnConfig {
            max_rounds: 50,
            ..Default::default()
        };
        let outcome = active_learn(&pool, |i| gold[i], &cfg);
        assert!(
            outcome.rounds < 50,
            "no early stop: {} rounds",
            outcome.rounds
        );
    }

    #[test]
    fn exhausts_tiny_pools_without_panic() {
        let pool = FeatureMatrix {
            names: vec!["sim".into()],
            rows: vec![vec![0.1], vec![0.9], vec![0.5]],
            pairs: vec![(0, 0), (1, 1), (2, 2)],
        };
        let outcome = active_learn(&pool, |i| i == 1, &ActiveLearnConfig::default());
        assert!(outcome.questions <= 3);
    }

    /// The whole active-learning session — seeding, committee training,
    /// pool scoring, batch selection — is bit-identical for any worker
    /// count: the same questions in the same order, the same rounds, and a
    /// committee with the same scores.
    #[test]
    fn outcome_is_worker_count_invariant() {
        let (pool, gold) = pool(7, 500);
        let run = |w: usize| {
            let cfg = ActiveLearnConfig {
                n_workers: w,
                ..Default::default()
            };
            active_learn(&pool, |i| gold[i], &cfg)
        };
        let reference = run(1);
        for w in [2, 3, 7, 16] {
            let outcome = run(w);
            assert_eq!(outcome.labeled, reference.labeled, "{w} workers");
            assert_eq!(outcome.questions, reference.questions);
            assert_eq!(outcome.rounds, reference.rounds);
            for i in 0..pool.len() {
                assert_eq!(
                    outcome.forest.predict_proba(&pool.rows[i]).to_bits(),
                    reference.forest.predict_proba(&pool.rows[i]).to_bits(),
                    "{w} workers diverged at row {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn empty_pool_panics() {
        let pool = FeatureMatrix {
            names: vec![],
            rows: vec![],
            pairs: vec![],
        };
        active_learn(&pool, |_| false, &ActiveLearnConfig::default());
    }
}
