//! Feature-extraction cache experiment: pairs/sec of the interned
//! tokenize-once-per-record prepared path vs. the per-pair scalar path it
//! replaced, at 1/2/4/8 workers, plus the cache telemetry, plus the
//! run-aware `Scorer` vs. the pairwise reference over the same prepared
//! records (`run_scoring`).
//!
//! Writes `results/exp_feature_cache.txt` (human-readable table) and
//! `BENCH_feature_extraction.json` at the repo root (the ISSUE's
//! before/after record; "before" = the scalar path, byte-for-byte the
//! seed implementation, still compiled in as
//! `extract_feature_matrix_scalar_par`).

use std::fmt::Write as _;
use std::time::Instant;

use magellan_block::{Blocker, OverlapBlocker};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{
    extract_feature_matrix_par, extract_feature_matrix_scalar_par, extract_with_prepared,
    generate_features, PreparedPair, Scorer,
};
use magellan_par::ParConfig;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let n = if smoke { 250 } else { 1500 };
    let reps = if smoke { 2 } else { 5 };
    let s = persons(&ScenarioConfig {
        size_a: n,
        size_b: n,
        n_matches: n / 4,
        dirt: DirtModel::light(),
        seed: 23,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    let features = generate_features(a, b, &["id"]).expect("features");
    let (cands, _) = OverlapBlocker::words("name", 1)
        .block_par(a, b, &ParConfig::workers(4))
        .expect("blocking");
    let pairs = cands.pairs().to_vec();
    let n_pairs = pairs.len();

    // Bit-identity check before timing anything.
    let (cached_m, cache_stats) =
        extract_feature_matrix_par(&pairs, a, b, &features, &ParConfig::serial()).unwrap();
    let (scalar_m, _) =
        extract_feature_matrix_scalar_par(&pairs, a, b, &features, &ParConfig::serial()).unwrap();
    for (cr, sr) in cached_m.rows.iter().zip(&scalar_m.rows) {
        for (cv, sv) in cr.iter().zip(sr) {
            assert_eq!(
                cv.to_bits(),
                sv.to_bits(),
                "cached path diverged from scalar"
            );
        }
    }

    let mut txt = String::new();
    let mut json_rows = String::new();
    writeln!(
        txt,
        "Feature-extraction cache — {} x {} tuples, {} features, |pairs| = {}",
        a.nrows(),
        b.nrows(),
        features.len(),
        n_pairs
    )
    .unwrap();
    let cores = ParConfig::available().n_workers;
    writeln!(
        txt,
        "host exposes {cores} core(s); the w>1 rows measure threading overhead on a 1-core host"
    )
    .unwrap();
    writeln!(
        txt,
        "cache telemetry (serial run): records_prepared={} tokenize_calls={} saved={} interner_tokens={}",
        cache_stats.cache.records_prepared,
        cache_stats.cache.tokenize_calls,
        cache_stats.cache.tokenize_calls_saved,
        cache_stats.cache.interner_tokens
    )
    .unwrap();
    writeln!(txt).unwrap();
    writeln!(
        txt,
        "{:>3}  {:>15}  {:>15}  {:>15}  {:>8}  {:>8}",
        "w", "scalar p/s", "cached p/s", "warm p/s", "speedup", "warm x"
    )
    .unwrap();

    let mut speedup_w1 = 0.0;
    for w in WORKERS {
        let cfg = ParConfig::workers(w);
        let t_scalar = median_secs(reps, || {
            std::hint::black_box(
                extract_feature_matrix_scalar_par(&pairs, a, b, &features, &cfg).unwrap(),
            );
        });
        let t_cached = median_secs(reps, || {
            std::hint::black_box(
                extract_feature_matrix_par(&pairs, a, b, &features, &cfg).unwrap(),
            );
        });
        let mut prepared = PreparedPair::new(a, b);
        extract_with_prepared(&mut prepared, &pairs, &features, &cfg).unwrap();
        let t_warm = median_secs(reps, || {
            std::hint::black_box(
                extract_with_prepared(&mut prepared, &pairs, &features, &cfg).unwrap(),
            );
        });
        let (ps_scalar, ps_cached, ps_warm) = (
            n_pairs as f64 / t_scalar,
            n_pairs as f64 / t_cached,
            n_pairs as f64 / t_warm,
        );
        let speedup = ps_cached / ps_scalar;
        if w == 1 {
            speedup_w1 = speedup;
        }
        writeln!(
            txt,
            "{w:>3}  {ps_scalar:>15.0}  {ps_cached:>15.0}  {ps_warm:>15.0}  {speedup:>7.2}x  {:>7.2}x",
            ps_warm / ps_scalar
        )
        .unwrap();
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        write!(
            json_rows,
            "    {{\"workers\": {w}, \"scalar_pairs_per_sec\": {ps_scalar:.0}, \"cached_pairs_per_sec\": {ps_cached:.0}, \"warm_pairs_per_sec\": {ps_warm:.0}, \"speedup\": {speedup:.2}}}"
        )
        .unwrap();
    }
    // Run-aware scoring at 1 worker: one `Scorer` over the whole (sorted)
    // pair list against the pairwise reference, over the same prepared
    // records. Same bits, checked before timing.
    let mut prepared = PreparedPair::new(a, b);
    let plan = prepared.plan(&features).expect("plan");
    prepared.prepare_for_pairs(&plan, &pairs);
    let pairwise = || -> Vec<Vec<f64>> {
        pairs
            .iter()
            .map(|&(ra, rb)| prepared.compute_row(&plan, ra as usize, rb as usize))
            .collect()
    };
    let scored = || -> Vec<Vec<f64>> {
        let mut scorer = Scorer::new(&prepared, &plan);
        pairs
            .iter()
            .map(|&(ra, rb)| scorer.row(ra as usize, rb as usize))
            .collect()
    };
    for (sr, pr) in scored().iter().zip(&pairwise()) {
        for (sv, pv) in sr.iter().zip(pr) {
            assert_eq!(
                sv.to_bits(),
                pv.to_bits(),
                "scorer diverged from the pairwise reference"
            );
        }
    }
    let t_pairwise = median_secs(reps, || {
        std::hint::black_box(pairwise());
    });
    let t_scored = median_secs(reps, || {
        std::hint::black_box(scored());
    });
    let left_rows = pairs
        .iter()
        .map(|p| p.0)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let (ps_pairwise, ps_scored) = (n_pairs as f64 / t_pairwise, n_pairs as f64 / t_scored);
    let scoring_speedup = ps_scored / ps_pairwise;

    writeln!(txt).unwrap();
    writeln!(
        txt,
        "run scoring (w=1, {:.1} pairs per left row): pairwise {ps_pairwise:.0} p/s vs scorer {ps_scored:.0} p/s -> {scoring_speedup:.2}x (floor: 1.3x)",
        n_pairs as f64 / left_rows.max(1) as f64
    )
    .unwrap();
    writeln!(
        txt,
        "speedup at 1 worker: {speedup_w1:.2}x (acceptance floor: 3x cached vs scalar)"
    )
    .unwrap();
    magellan_obs::log!(info, "{txt}");

    let json = format!(
        "{{\n  \"experiment\": \"feature_extraction\",\n  \"workload\": {{\"rows_a\": {}, \"rows_b\": {}, \"n_features\": {}, \"n_pairs\": {n_pairs}, \"reps\": {reps}, \"smoke\": {smoke}}},\n  \"cache\": {{\"records_prepared\": {}, \"tokenize_calls\": {}, \"tokenize_calls_saved\": {}, \"interner_tokens\": {}}},\n  \"run_scoring\": {{\"pairs_per_left_row\": {:.1}, \"pairwise_pairs_per_sec\": {ps_pairwise:.0}, \"scorer_pairs_per_sec\": {ps_scored:.0}, \"speedup_vs_pairwise\": {scoring_speedup:.2}}},\n  \"results\": [\n{json_rows}\n  ]\n}}\n",
        a.nrows(),
        b.nrows(),
        features.len(),
        cache_stats.cache.records_prepared,
        cache_stats.cache.tokenize_calls,
        cache_stats.cache.tokenize_calls_saved,
        cache_stats.cache.interner_tokens,
        n_pairs as f64 / left_rows.max(1) as f64,
    );

    // Best-effort writes (CI smoke may run from a read-only checkout).
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/exp_feature_cache.txt", &txt);
    if !smoke {
        let _ = std::fs::write("BENCH_feature_extraction.json", &json);
    }
}
