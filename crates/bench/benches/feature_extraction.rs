//! Feature-extraction throughput: the interned tokenize-once-per-record
//! prepared cache (`magellan_features::PreparedPair`) against the per-pair
//! scalar path it replaced, at 1/2/4/8 workers.
//!
//! Both paths produce **bit-identical** matrices (asserted once below
//! before measuring), so the axis is pure wall-clock. `pairs/sec` for the
//! EXPERIMENTS.md record is produced by the `exp_feature_cache` binary;
//! this bench is the Criterion view of the same comparison.
//!
//! Set `BENCH_SMOKE=1` to shrink the workload to a seconds-scale smoke
//! run (used by the CI bench-smoke job).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_block::{Blocker, OverlapBlocker};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{
    extract_feature_matrix_par, extract_feature_matrix_scalar_par, extract_with_prepared,
    generate_features, PreparedPair,
};
use magellan_par::ParConfig;
use magellan_textsim::seqsim::{jaro_winkler_chars, levenshtein_chars};
use magellan_textsim::setsim::monge_elkan_jw_chars;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn workload() -> (magellan_datagen::EmScenario, Vec<(u32, u32)>) {
    let n = if smoke() { 250 } else { 1200 };
    let s = persons(&ScenarioConfig {
        size_a: n,
        size_b: n,
        n_matches: n / 4,
        dirt: DirtModel::light(),
        seed: 23,
    });
    let (pairs, _) = OverlapBlocker::words("name", 1)
        .block_par(&s.table_a, &s.table_b, &ParConfig::workers(4))
        .expect("blocking");
    let pairs = pairs.pairs().to_vec();
    (s, pairs)
}

fn bench_feature_extraction(c: &mut Criterion) {
    let (s, pairs) = workload();
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).expect("features");

    // Sanity: cached and scalar paths agree bitwise before we time them.
    let (cached, _) = extract_feature_matrix_par(
        &pairs,
        &s.table_a,
        &s.table_b,
        &features,
        &ParConfig::serial(),
    )
    .unwrap();
    let (scalar, _) = extract_feature_matrix_scalar_par(
        &pairs,
        &s.table_a,
        &s.table_b,
        &features,
        &ParConfig::serial(),
    )
    .unwrap();
    for (cr, sr) in cached.rows.iter().zip(&scalar.rows) {
        for (cv, sv) in cr.iter().zip(sr) {
            assert_eq!(cv.to_bits(), sv.to_bits(), "paths diverged");
        }
    }

    let mut g = c.benchmark_group("feature_extraction");
    g.sample_size(if smoke() { 2 } else { 10 });
    let tag = format!("{}_pairs", pairs.len());
    for w in WORKERS {
        // Per-pair scalar baseline (the pre-cache implementation).
        g.bench_with_input(BenchmarkId::new(format!("scalar/{tag}"), w), &w, |b, &w| {
            let cfg = ParConfig::workers(w);
            b.iter(|| {
                black_box(
                    extract_feature_matrix_scalar_par(
                        black_box(&pairs),
                        &s.table_a,
                        &s.table_b,
                        &features,
                        &cfg,
                    )
                    .unwrap(),
                )
            });
        });
        // Prepared cache, cold: preparation cost included every iteration.
        g.bench_with_input(
            BenchmarkId::new(format!("cached_cold/{tag}"), w),
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
        // Prepared cache, warm: records already prepared (the Falcon
        // cross-stage shape — second and later extractions over the same
        // PreparedPair).
        g.bench_with_input(
            BenchmarkId::new(format!("cached_warm/{tag}"), w),
            &w,
            |b, &w| {
                let cfg = ParConfig::workers(w);
                let mut prepared = PreparedPair::new(&s.table_a, &s.table_b);
                extract_with_prepared(&mut prepared, &pairs, &features, &cfg).unwrap();
                b.iter(|| {
                    black_box(
                        extract_with_prepared(
                            black_box(&mut prepared),
                            &pairs,
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

/// The sequence kernels the prepared path runs per pair, on the strings
/// the workload's candidate pairs actually compare: names (two or three
/// words), cities (one or two) and states (two letters), decoded once as
/// the prepared cache holds them.
fn bench_seqsim(c: &mut Criterion) {
    let (s, pairs) = workload();
    let pairs = &pairs[..pairs.len().min(if smoke() { 500 } else { 20_000 })];
    let mut g = c.benchmark_group("seqsim");
    g.sample_size(if smoke() { 2 } else { 10 });
    for attr in ["name", "city", "state"] {
        let decoded = |t: &magellan_table::Table, r: u32| -> Vec<char> {
            let col = t.schema().try_index_of(attr).expect("attribute");
            let v = t.value(r as usize, col).display_string();
            v.trim().to_lowercase().chars().collect()
        };
        let sides: Vec<(Vec<char>, Vec<char>)> = pairs
            .iter()
            .map(|&(ra, rb)| (decoded(&s.table_a, ra), decoded(&s.table_b, rb)))
            .collect();
        g.bench_function(format!("levenshtein/{attr}").as_str(), |b| {
            let mut rows = Vec::new();
            b.iter(|| {
                for (x, y) in &sides {
                    black_box(levenshtein_chars(black_box(x), y, &mut rows));
                }
            })
        });
        g.bench_function(format!("jaro_winkler/{attr}").as_str(), |b| {
            b.iter(|| {
                for (x, y) in &sides {
                    black_box(jaro_winkler_chars(black_box(x), y));
                }
            })
        });
        if attr == "name" {
            let bag = |chars: &[char]| -> Vec<Vec<char>> {
                chars
                    .split(|c| !c.is_alphanumeric())
                    .filter(|t| !t.is_empty())
                    .map(<[char]>::to_vec)
                    .collect()
            };
            let bags: Vec<_> = sides.iter().map(|(x, y)| (bag(x), bag(y))).collect();
            g.bench_function("monge_elkan/name", |b| {
                b.iter(|| {
                    for (x, y) in &bags {
                        black_box(monge_elkan_jw_chars(black_box(x), y));
                    }
                })
            });
        }
    }
    g.finish();
}

criterion_group!(feature_extraction, bench_feature_extraction, bench_seqsim);
criterion_main!(feature_extraction);
