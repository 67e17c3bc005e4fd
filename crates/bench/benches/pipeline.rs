//! End-to-end phase costs: feature extraction, active-learning rounds, and
//! the production executor at several worker counts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_block::{Blocker, OverlapBlocker};
use magellan_core::exec::ProductionExecutor;
use magellan_core::labeling::{Labeler, OracleLabeler};
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_core::EmWorkflow;
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::active::{active_learn, ActiveLearnConfig};
use magellan_features::{extract_feature_matrix, generate_features};
use magellan_ml::{Learner, RandomForestLearner};

fn scenario(n: usize) -> magellan_datagen::EmScenario {
    persons(&ScenarioConfig {
        size_a: n,
        size_b: n,
        n_matches: n / 3,
        dirt: DirtModel::light(),
        seed: 17,
    })
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("feature_extraction");
    g.sample_size(10);
    let s = scenario(1500);
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let cands = OverlapBlocker::words("name", 1)
        .block(&s.table_a, &s.table_b)
        .unwrap();
    g.bench_function(
        format!("{}_pairs_x_{}_features", cands.len(), features.len()),
        |b| {
            b.iter(|| {
                black_box(
                    extract_feature_matrix(cands.pairs(), &s.table_a, &s.table_b, &features)
                        .unwrap(),
                )
            })
        },
    );
    g.finish();
}

fn bench_active_learning(c: &mut Criterion) {
    let mut g = c.benchmark_group("active_learning");
    g.sample_size(10);
    let s = scenario(1500);
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let cands = OverlapBlocker::words("name", 1)
        .block(&s.table_a, &s.table_b)
        .unwrap();
    let matrix = extract_feature_matrix(cands.pairs(), &s.table_a, &s.table_b, &features).unwrap();
    g.bench_function("session_over_candidates", |b| {
        b.iter(|| {
            let mut oracle = OracleLabeler::new(s.gold.clone(), "id", "id");
            black_box(active_learn(
                &matrix,
                |i| {
                    let (ra, rb) = matrix.pairs[i];
                    oracle
                        .label(&s.table_a, ra as usize, &s.table_b, rb as usize)
                        .as_bool()
                },
                &ActiveLearnConfig::default(),
            ))
        })
    });
    g.finish();
}

fn trained_workflow(s: &magellan_datagen::EmScenario) -> EmWorkflow {
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let forest = RandomForestLearner {
        n_trees: 10,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&forest];
    run_development_stage(
        &s.table_a,
        &s.table_b,
        vec![Box::new(OverlapBlocker::words("name", 1))],
        features,
        &learners,
        &mut labeler,
        &DevConfig::default(),
    )
    .unwrap()
    .0
}

fn bench_production_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("production_executor");
    g.sample_size(10);
    let s = scenario(2000);
    let workflow = trained_workflow(&s);
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            let exec = ProductionExecutor::new(w);
            b.iter(|| black_box(exec.run(&workflow, &s.table_a, &s.table_b).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_feature_extraction,
    bench_active_learning,
    bench_production_scaling
);
criterion_main!(benches);
