//! Sim-join vs naive cross product — the scalability claim behind
//! `py_stringsimjoin` (and behind executing blocking rules as join plans).
//!
//! Set `BENCH_SMOKE=1` to shrink the `tokenize_collection` group (100 000
//! × 6 000 product titles) to a seconds-scale run; it asserts the build
//! bit-identical to the preserved one before timing either way.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_bench::legacy;
use magellan_datagen::{domains, DirtModel, ScenarioConfig};
use magellan_textsim::setsim;
use magellan_textsim::tokenize::{AlphanumericTokenizer, Tokenizer, WhitespaceTokenizer};
use magellan_simjoin::{
    join_tokenized, join_tokenized_hashmap, set_sim_join, set_sim_join_parallel, SetSimMeasure,
    TokenizedCollection,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_strings(n: usize, seed: u64) -> Vec<Option<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(2..6);
            Some(
                (0..k)
                    .map(|_| format!("tok{}", rng.gen_range(0..500)))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        })
        .collect()
}

/// Token soup with a controllable frequency skew: `skew = 0` is uniform;
/// larger values concentrate mass on a few heavy-hitter tokens (the
/// regime where postings lists get long and pruning pays).
fn make_skewed_strings(n: usize, seed: u64, vocab: usize, skew: f64) -> Vec<Option<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(3..9);
            Some(
                (0..k)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        format!("tok{}", (vocab as f64 * u.powf(1.0 + skew)) as usize)
                    })
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        })
        .collect()
}

fn naive_join(left: &[Option<String>], right: &[Option<String>], t: f64) -> usize {
    let tok = WhitespaceTokenizer::new();
    let ltoks: Vec<Vec<String>> = left
        .iter()
        .map(|s| s.as_deref().map(|s| tok.tokenize(s)).unwrap_or_default())
        .collect();
    let rtoks: Vec<Vec<String>> = right
        .iter()
        .map(|s| s.as_deref().map(|s| tok.tokenize(s)).unwrap_or_default())
        .collect();
    let mut n = 0;
    for a in &ltoks {
        for b in &rtoks {
            if !a.is_empty() && !b.is_empty() && setsim::jaccard(a, b) >= t {
                n += 1;
            }
        }
    }
    n
}

fn bench_join_vs_naive(c: &mut Criterion) {
    let mut g = c.benchmark_group("jaccard_join_vs_naive");
    g.sample_size(10);
    for n in [500usize, 2000] {
        let left = make_strings(n, 1);
        let right = make_strings(n, 2);
        let tok = WhitespaceTokenizer::new();
        g.bench_with_input(BenchmarkId::new("prefix_filter_join", n), &n, |b, _| {
            b.iter(|| {
                black_box(set_sim_join(
                    black_box(&left),
                    black_box(&right),
                    &tok,
                    SetSimMeasure::Jaccard(0.6),
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("naive_cross_product", n), &n, |b, _| {
            b.iter(|| black_box(naive_join(black_box(&left), black_box(&right), 0.6)))
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_parallelism");
    g.sample_size(10);
    let left = make_strings(6_000, 3);
    let right = make_strings(6_000, 4);
    let tok = WhitespaceTokenizer::new();
    for workers in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(set_sim_join_parallel(
                    black_box(&left),
                    black_box(&right),
                    &tok,
                    SetSimMeasure::Jaccard(0.7),
                    w,
                ))
            })
        });
    }
    g.finish();
}

/// Scaling grid of the CSR engine vs the preserved HashMap engine:
/// collection size × threshold × token-frequency skew, same tokenized
/// input for both (the engines are bit-identical, so only time differs).
fn bench_engine_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_engine_grid");
    g.sample_size(10);
    let tok = WhitespaceTokenizer::new();
    for n in [1_000usize, 4_000] {
        for (skew_name, skew) in [("uniform", 0.0), ("skewed", 3.0)] {
            let left = make_skewed_strings(n, 11, 600, skew);
            let right = make_skewed_strings(n, 13, 600, skew);
            let coll = TokenizedCollection::build(&left, &right, &tok);
            for t in [0.5f64, 0.8] {
                let id = format!("n{n}/{skew_name}/t{t}");
                g.bench_with_input(BenchmarkId::new("csr", &id), &coll, |b, coll| {
                    b.iter(|| {
                        black_box(join_tokenized(black_box(coll), SetSimMeasure::Jaccard(t)))
                    })
                });
                g.bench_with_input(BenchmarkId::new("hashmap", &id), &coll, |b, coll| {
                    b.iter(|| {
                        black_box(join_tokenized_hashmap(
                            black_box(coll),
                            SetSimMeasure::Jaccard(t),
                        ))
                    })
                });
            }
        }
    }
    g.finish();
}

/// Records/s of `TokenizedCollection::build` on the `products` titles —
/// the text → token-id encoding every blocker pays before its join —
/// against the preserved `String`-per-token, HashMap-ranked build.
fn bench_tokenize_collection(c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (rows_left, rows_right) = if smoke { (8_000, 400) } else { (100_000, 6_000) };
    let scenario = domains::products(&ScenarioConfig {
        size_a: rows_left,
        size_b: rows_right,
        n_matches: rows_right / 2,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let left = scenario.table_a.column_strs("title").expect("products have titles");
    let right = scenario.table_b.column_strs("title").expect("products have titles");
    let tok = AlphanumericTokenizer::as_set();
    let coll = legacy::assert_build_is_bit_identical(&left, &right, &tok, &[]);
    let old = legacy::tokenized_collection(&left, &right, &legacy::alphanumeric_set, &[]);
    assert_eq!(
        old.left.iter().collect::<magellan_simjoin::TokenColumn>(),
        coll.left,
        "preserved tokenizer diverged"
    );

    let mut g = c.benchmark_group("tokenize_collection");
    g.sample_size(if smoke { 2 } else { 10 });
    let id = format!("{rows_left}x{rows_right}");
    g.bench_with_input(BenchmarkId::new("build", &id), &id, |b, _| {
        b.iter(|| black_box(TokenizedCollection::build(black_box(&left), &right, &tok)))
    });
    g.bench_with_input(BenchmarkId::new("preserved_build", &id), &id, |b, _| {
        b.iter(|| {
            black_box(legacy::tokenized_collection(
                black_box(&left),
                &right,
                &legacy::alphanumeric_set,
                &[],
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_join_vs_naive,
    bench_parallel,
    bench_engine_grid,
    bench_tokenize_collection
);
criterion_main!(benches);
