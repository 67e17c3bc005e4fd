//! The determinism contract of the `magellan-par` executor, enforced end
//! to end: **parallel output is bit-identical to serial for any worker
//! count and any chunk size** — same matches, same order, same feature
//! matrix — including empty tables, 1-row tables, odd sizes, and chunk
//! sizes that do not divide the input.

use magellan_block::{
    AttrEquivalenceBlocker, BlackBoxBlocker, Blocker, HashBlocker, OverlapBlocker,
    SimJoinBlocker, SortedNeighborhoodBlocker,
};
use magellan_core::exec::{parallel_map, ProductionExecutor};
use magellan_core::par::ParConfig;
use magellan_core::rules::RuleLayer;
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{
    extract_feature_matrix, extract_feature_matrix_par, Feature, FeatureKind, TokSpecF,
};
use magellan_ml::model::ConstantClassifier;
use magellan_ml::{Classifier, Dataset, RandomForestLearner};
use magellan_simjoin::{set_sim_join, SetSimMeasure};
use magellan_table::{Dtype, Table, Value};
use proptest::prelude::*;

/// The worker counts every property is checked against.
const WORKERS: [usize; 5] = [1, 2, 3, 7, 16];
/// Chunk sizes chosen to not divide most input lengths.
const CHUNKS: [Option<usize>; 4] = [None, Some(1), Some(3), Some(7)];

fn configs() -> Vec<ParConfig> {
    let mut out = Vec::new();
    for w in WORKERS {
        for c in CHUNKS {
            let mut cfg = ParConfig::workers(w);
            cfg.chunk_size = c;
            out.push(cfg);
        }
    }
    out
}

/// Build a table with `id`, `name`, `state` columns from optional strings.
fn table(name: &str, rows: &[(Option<String>, Option<String>)]) -> Table {
    let data: Vec<Vec<Value>> = rows
        .iter()
        .enumerate()
        .map(|(i, (n, s))| {
            vec![
                Value::Str(format!("{name}{i}")),
                n.clone().map_or(Value::Null, Value::Str),
                s.clone().map_or(Value::Null, Value::Str),
            ]
        })
        .collect();
    Table::from_rows(
        name,
        &[("id", Dtype::Str), ("name", Dtype::Str), ("state", Dtype::Str)],
        data,
    )
    .unwrap()
}

fn row_strategy() -> impl Strategy<Value = (Option<String>, Option<String>)> {
    (
        proptest::option::weighted(0.9, "([a-z]{1,6} ){0,2}[a-z]{1,6}"),
        proptest::option::weighted(0.9, "[a-c]{2}"),
    )
}

/// Tables of 0..12 rows — covers empty, 1-row, and odd sizes.
fn tables_strategy(
) -> impl Strategy<Value = (Vec<(Option<String>, Option<String>)>, Vec<(Option<String>, Option<String>)>)>
{
    (
        proptest::collection::vec(row_strategy(), 0..12),
        proptest::collection::vec(row_strategy(), 0..12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every built-in blocker: `block_par` returns the same candidate set
    /// as `block` for every worker count × chunk size.
    #[test]
    fn blockers_par_equal_serial((ra, rb) in tables_strategy()) {
        let a = table("a", &ra);
        let b = table("b", &rb);
        let blockers: Vec<Box<dyn Blocker>> = vec![
            Box::new(AttrEquivalenceBlocker::on("state")),
            Box::new(HashBlocker {
                l_attr: "state".into(),
                r_attr: "state".into(),
                n_buckets: 4,
            }),
            Box::new(OverlapBlocker::words("name", 1)),
            Box::new(OverlapBlocker {
                l_attr: "name".into(),
                r_attr: "name".into(),
                overlap_size: 2,
                qgram: Some(3),
                shards: 1,
            }),
            Box::new(SimJoinBlocker {
                l_attr: "name".into(),
                r_attr: "name".into(),
                measure: SetSimMeasure::Jaccard(0.4),
                qgram: None,
                shards: 1,
            }),
            // Sharded variants must emit the same candidate set as the
            // monolithic ones above (covered pairwise in block's own tests;
            // here they ride the serial-vs-parallel determinism check).
            Box::new(OverlapBlocker::words("name", 1).with_shards(4)),
            Box::new(SimJoinBlocker {
                l_attr: "name".into(),
                r_attr: "name".into(),
                measure: SetSimMeasure::Jaccard(0.4),
                qgram: None,
                shards: 1,
            }
            .with_shards(3)),
            Box::new(SortedNeighborhoodBlocker {
                l_attr: "name".into(),
                r_attr: "name".into(),
                window: 3,
            }),
            Box::new(BlackBoxBlocker::new("parity", |a, ra, b, rb| {
                let _ = (a, b);
                (ra + rb) % 2 == 0
            })),
        ];
        for blocker in &blockers {
            let serial = blocker.block(&a, &b).unwrap();
            for cfg in configs() {
                let (par, stats) = blocker.block_par(&a, &b, &cfg).unwrap();
                prop_assert_eq!(
                    par.pairs(),
                    serial.pairs(),
                    "{} diverged at {:?}",
                    blocker.name(),
                    cfg
                );
                prop_assert!(stats.chunks_stolen <= stats.chunks_total);
            }
        }
    }

    /// Sim-join: parallel probe partitioning returns the exact serial pair
    /// stream (same pairs, same order, same similarity bits).
    #[test]
    fn simjoin_par_equals_serial((ra, rb) in tables_strategy()) {
        use magellan_simjoin::{join_tokenized_par, TokenizedCollection};
        use magellan_textsim::tokenize::AlphanumericTokenizer;
        let left: Vec<Option<String>> = ra.iter().map(|(n, _)| n.clone()).collect();
        let right: Vec<Option<String>> = rb.iter().map(|(n, _)| n.clone()).collect();
        let tok = AlphanumericTokenizer::as_set();
        for measure in [
            SetSimMeasure::Jaccard(0.3),
            SetSimMeasure::Cosine(0.5),
            SetSimMeasure::OverlapSize(1),
        ] {
            let serial = set_sim_join(&left, &right, &tok, measure);
            let coll = TokenizedCollection::build(&left, &right, &tok);
            for cfg in configs() {
                let (par, _) = join_tokenized_par(&coll, measure, &cfg);
                prop_assert_eq!(par.len(), serial.len());
                for (x, y) in par.iter().zip(&serial) {
                    prop_assert_eq!(x.l, y.l);
                    prop_assert_eq!(x.r, y.r);
                    prop_assert_eq!(x.sim.to_bits(), y.sim.to_bits());
                }
            }
        }
    }

    /// Feature extraction: the parallel matrix is bit-identical to the
    /// serial one (NaN patterns included).
    #[test]
    fn feature_matrix_par_equals_serial((ra, rb) in tables_strategy()) {
        let a = table("a", &ra);
        let b = table("b", &rb);
        let features = vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
            Feature::new("state", "state", FeatureKind::ExactMatch),
        ];
        // All cross pairs (small tables, exhaustive is fine).
        let pairs: Vec<(u32, u32)> = (0..ra.len() as u32)
            .flat_map(|x| (0..rb.len() as u32).map(move |y| (x, y)))
            .collect();
        let serial = extract_feature_matrix(&pairs, &a, &b, &features).unwrap();
        for cfg in configs() {
            let (par, stats) =
                extract_feature_matrix_par(&pairs, &a, &b, &features, &cfg).unwrap();
            prop_assert_eq!(&par.names, &serial.names);
            prop_assert_eq!(&par.pairs, &serial.pairs);
            prop_assert_eq!(par.rows.len(), serial.rows.len());
            for (x, y) in par.rows.iter().zip(&serial.rows) {
                let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(xb, yb);
            }
            prop_assert_eq!(stats.items, pairs.len());
        }
    }

    /// `parallel_map` preserves index order for awkward lengths.
    #[test]
    fn parallel_map_is_ordered(n in 0usize..200, w in 1usize..17) {
        let out = parallel_map(n, w, |i| i * 31 + 7);
        prop_assert_eq!(out, (0..n).map(|i| i * 31 + 7).collect::<Vec<_>>());
    }
}

/// Forest training is bit-identical for any worker count: per-tree RNGs
/// are derived from `(seed, tree index)`, never from scheduling.
#[test]
fn forest_training_is_worker_count_invariant() {
    let mut data = Dataset::with_dims(3);
    for i in 0..120 {
        let x = (i % 17) as f64 / 17.0;
        let y = (i % 5) as f64 / 5.0;
        let z = (i % 3) as f64 / 3.0;
        data.push(&[x, y, z], x + y > 0.9);
    }
    let fit = |w: usize| {
        RandomForestLearner {
            n_trees: 9,
            seed: 42,
            n_workers: w,
            ..Default::default()
        }
        .fit_forest(&data)
    };
    let reference = fit(1);
    let grid: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![(i % 7) as f64 / 7.0, (i % 11) as f64 / 11.0, 0.5])
        .collect();
    for w in WORKERS {
        let forest = fit(w);
        for row in &grid {
            assert_eq!(
                forest.predict_proba(row).to_bits(),
                reference.predict_proba(row).to_bits(),
                "forest diverged at {w} workers"
            );
        }
    }
    // Batch scoring equals per-row scoring for every config.
    let serial: Vec<u64> = grid
        .iter()
        .map(|r| reference.predict_proba(r).to_bits())
        .collect();
    for cfg in configs() {
        let batch = reference.predict_proba_batch(&grid, &cfg);
        let bits: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, serial, "batch scoring diverged at {cfg:?}");
    }
}

/// The full production run — blocking, extraction, prediction, rules —
/// returns identical matches for every worker count, and the report
/// surfaces the per-phase executor counters.
#[test]
fn production_run_is_worker_count_invariant() {
    let s = persons(&ScenarioConfig {
        size_a: 120,
        size_b: 120,
        n_matches: 40,
        dirt: DirtModel::light(),
        seed: 9,
    });
    let workflow = EmWorkflow {
        blocker: Box::new(OverlapBlocker::words("name", 1)),
        features: vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
        ],
        matcher: Box::new(ConstantClassifier { proba: 1.0 }),
        rule_layer: RuleLayer::empty(),
        threshold: 0.5,
        plan: Default::default(),
    };
    let reference = ProductionExecutor::new(1)
        .run(&workflow, &s.table_a, &s.table_b)
        .unwrap();
    for w in WORKERS {
        let report = ProductionExecutor::new(w)
            .run(&workflow, &s.table_a, &s.table_b)
            .unwrap();
        assert_eq!(report.matches, reference.matches, "{w} workers changed matches");
        assert_eq!(report.n_candidates, reference.n_candidates);
        // Counter surface: phases report their ParStats.
        assert_eq!(report.counters.blocking.n_workers, w);
        assert_eq!(report.counters.blocking.items, 120);
        assert_eq!(report.counters.matching.items, report.n_candidates);
        assert_eq!(report.counters.matching.worker_busy.len(), w);
        assert!(report.counters.matching.throughput() >= 0.0);
        assert!(
            report.counters.blocking.chunks_stolen + report.counters.matching.chunks_stolen
                <= report.counters.blocking.chunks_total
                    + report.counters.matching.chunks_total
        );
    }
}

/// Degenerate inputs: empty and single-row tables run through the whole
/// parallel path without panicking and still match serial.
#[test]
fn degenerate_tables_are_handled() {
    let empty = table("e", &[]);
    let one = table("o", &[(Some("ann smith".into()), Some("aa".into()))]);
    let blocker = OverlapBlocker::words("name", 1);
    for (x, y) in [(&empty, &empty), (&empty, &one), (&one, &empty), (&one, &one)] {
        let serial = blocker.block(x, y).unwrap();
        for cfg in configs() {
            let (par, _) = blocker.block_par(x, y, &cfg).unwrap();
            assert_eq!(par.pairs(), serial.pairs());
        }
    }
}
