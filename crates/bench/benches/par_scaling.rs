//! Worker-count scaling of the `magellan-par` hot paths (the ISSUE's
//! 1/2/4/8-worker speedup record).
//!
//! Every benchmark below runs the *same* computation at 1, 2, 4, and 8
//! workers; the determinism contract guarantees the outputs are
//! bit-identical, so the only thing that changes across the parameter
//! axis is wall-clock. Compare the per-worker medians to read off the
//! speedup curve.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_block::{Blocker, OverlapBlocker};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{extract_feature_matrix_par, generate_features};
use magellan_ml::{Dataset, RandomForestLearner};
use magellan_par::ParConfig;
use magellan_simjoin::{join_tokenized_par, SetSimMeasure, TokenizedCollection};
use magellan_textsim::tokenize::AlphanumericTokenizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn scenario() -> magellan_datagen::EmScenario {
    persons(&ScenarioConfig {
        size_a: 1500,
        size_b: 1500,
        n_matches: 400,
        dirt: DirtModel::light(),
        seed: 17,
    })
}

fn strings(n: usize, seed: u64) -> Vec<Option<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(3..8);
            Some(
                (0..k)
                    .map(|_| format!("tok{}", rng.gen_range(0..800)))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        })
        .collect()
}

fn bench_simjoin_scaling(c: &mut Criterion) {
    let left = strings(4000, 1);
    let right = strings(4000, 2);
    let tok = AlphanumericTokenizer::as_set();
    let coll = TokenizedCollection::build(&left, &right, &tok);
    let mut g = c.benchmark_group("par_scaling/simjoin");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(BenchmarkId::new("jaccard_0.5", w), &w, |b, &w| {
            let cfg = ParConfig::workers(w);
            b.iter(|| {
                black_box(join_tokenized_par(
                    black_box(&coll),
                    SetSimMeasure::Jaccard(0.5),
                    &cfg,
                ))
            });
        });
    }
    g.finish();
}

fn bench_blocking_scaling(c: &mut Criterion) {
    let s = scenario();
    let blocker = OverlapBlocker::words("name", 1);
    let mut g = c.benchmark_group("par_scaling/blocking");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(BenchmarkId::new("overlap_words", w), &w, |b, &w| {
            let cfg = ParConfig::workers(w);
            b.iter(|| {
                black_box(
                    blocker
                        .block_par(black_box(&s.table_a), black_box(&s.table_b), &cfg)
                        .unwrap(),
                )
            });
        });
    }
    g.finish();
}

fn bench_features_scaling(c: &mut Criterion) {
    let s = scenario();
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let (pairs, _) = OverlapBlocker::words("name", 1)
        .block_par(&s.table_a, &s.table_b, &ParConfig::workers(4))
        .unwrap();
    let pairs = pairs.pairs().to_vec();
    let mut g = c.benchmark_group("par_scaling/features");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(
            BenchmarkId::new(format!("extract_{}_pairs", pairs.len()), w),
            &w,
            |b, &w| {
                let cfg = ParConfig::workers(w);
                b.iter(|| {
                    black_box(
                        extract_feature_matrix_par(
                            black_box(&pairs),
                            &s.table_a,
                            &s.table_b,
                            &features,
                            &cfg,
                        )
                        .unwrap(),
                    )
                });
            },
        );
    }
    g.finish();
}

fn bench_forest_scaling(c: &mut Criterion) {
    // Training data: synthetic blobs, big enough that tree fitting is the
    // dominant cost.
    let mut rng = StdRng::seed_from_u64(3);
    let mut data = Dataset::with_dims(8);
    for _ in 0..4000 {
        let pos: bool = rng.gen_bool(0.5);
        let center = if pos { 0.8 } else { 0.2 };
        let row: Vec<f64> = (0..8).map(|_| center + rng.gen_range(-0.3..0.3)).collect();
        data.push(&row, pos);
    }
    let rows: Vec<Vec<f64>> = (0..20_000)
        .map(|_| (0..8).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let forest = RandomForestLearner {
        n_trees: 32,
        n_workers: 1,
        ..Default::default()
    }
    .fit_forest(&data);

    let mut g = c.benchmark_group("par_scaling/forest");
    g.sample_size(10);
    for w in WORKERS {
        g.bench_with_input(BenchmarkId::new("fit_32_trees", w), &w, |b, &w| {
            let learner = RandomForestLearner {
                n_trees: 32,
                n_workers: w,
                ..Default::default()
            };
            b.iter(|| black_box(learner.fit_forest(black_box(&data))));
        });
        g.bench_with_input(BenchmarkId::new("predict_20k", w), &w, |b, &w| {
            let cfg = ParConfig::workers(w);
            b.iter(|| black_box(forest.predict_proba_batch(black_box(&rows), &cfg)));
        });
    }
    g.finish();
}

criterion_group!(
    par_scaling,
    bench_simjoin_scaling,
    bench_blocking_scaling,
    bench_features_scaling,
    bench_forest_scaling
);
criterion_main!(par_scaling);
