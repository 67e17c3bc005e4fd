//! Forest-inference experiment: rows/sec of the forest's flat layout
//! ([`magellan_ml::FlatForest`], one array of 16-byte `(thresh, feat,
//! left)` nodes, what `predict_proba_batch` walks) vs the
//! pointer-chasing arena walk preserved in
//! [`magellan_bench::legacy::arena_forest_batch`], at 1/2/4/8 workers.
//!
//! Writes `results/exp_forest_inference.txt` (human-readable table) and
//! `BENCH_forest_inference.json` at the repo root (the before/after
//! record; "before" = the arena walk, asserted bit-identical to the flat
//! scores before anything is timed).

use std::fmt::Write as _;
use std::time::Instant;

use magellan_bench::legacy::arena_forest_batch;
use magellan_ml::dataset::Dataset;
use magellan_ml::forest::RandomForestLearner;
use magellan_ml::FlatForest;
use magellan_par::ParConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Messy EM-flavored feature rows: separable structure on the first two
/// dimensions, noise elsewhere, and NaNs for missing similarities.
fn rows(seed: u64, n: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| {
                    if rng.gen_bool(0.08) {
                        f64::NAN
                    } else {
                        rng.gen_range(-1.5..1.5)
                    }
                })
                .collect()
        })
        .collect()
}

fn training_data(seed: u64, n: usize, dims: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::with_dims(dims);
    for _ in 0..n {
        let pos: bool = rng.gen_bool(0.5);
        let c = if pos { 0.7 } else { -0.7 };
        let row: Vec<f64> = (0..dims)
            .map(|j| {
                if rng.gen_bool(0.05) {
                    f64::NAN
                } else if j < 2 {
                    c + rng.gen_range(-1.0..1.0)
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        d.push(&row, pos);
    }
    d
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (n_rows, n_train, n_trees, reps) =
        if smoke { (2_000, 300, 15, 2) } else { (40_000, 800, 31, 5) };
    let dims = 8;

    let forest = RandomForestLearner {
        n_trees,
        seed: 42,
        ..Default::default()
    }
    .fit_forest(&training_data(42, n_train, dims));
    let flat = FlatForest::from_forest(&forest);
    let batch = rows(4242, n_rows, dims);

    // Bit-identity check before timing anything.
    let reference = arena_forest_batch(&forest, &batch, &ParConfig::serial());
    for w in WORKERS {
        let got = flat.predict_proba_batch(&batch, &ParConfig::workers(w));
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits(), "flat forest diverged (w={w})");
        }
    }

    let mut txt = String::new();
    writeln!(
        txt,
        "Forest inference — flat layout vs preserved arena walk"
    )
    .unwrap();
    writeln!(
        txt,
        "{n_trees} trees, {} nodes, {dims} dims, {n_rows} rows, reps = {reps}, smoke = {smoke}",
        flat.n_nodes()
    )
    .unwrap();
    let cores = ParConfig::available().n_workers;
    writeln!(txt, "host exposes {cores} core(s); the w>1 rows measure threading overhead on a 1-core host").unwrap();
    writeln!(txt).unwrap();
    writeln!(
        txt,
        "{:>3}  {:>15}  {:>15}  {:>8}",
        "w", "arena rows/s", "flat rows/s", "speedup"
    )
    .unwrap();

    let mut json_rows = String::new();
    let mut speedup_w1 = 0.0;
    for w in WORKERS {
        let cfg = ParConfig::workers(w);
        let t_arena = median_secs(reps, || {
            std::hint::black_box(arena_forest_batch(&forest, &batch, &cfg));
        });
        let t_flat = median_secs(reps, || {
            std::hint::black_box(flat.predict_proba_batch(&batch, &cfg));
        });
        let (rs_arena, rs_flat) = (n_rows as f64 / t_arena, n_rows as f64 / t_flat);
        let speedup = t_arena / t_flat;
        if w == 1 {
            speedup_w1 = speedup;
        }
        writeln!(txt, "{w:>3}  {rs_arena:>15.0}  {rs_flat:>15.0}  {speedup:>7.2}x").unwrap();
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        write!(
            json_rows,
            "    {{\"workers\": {w}, \"arena_rows_per_sec\": {rs_arena:.0}, \"flat_rows_per_sec\": {rs_flat:.0}, \"speedup\": {speedup:.2}}}"
        )
        .unwrap();
    }
    writeln!(txt).unwrap();
    writeln!(txt, "speedup at 1 worker: {speedup_w1:.2}x").unwrap();
    magellan_obs::log!(info, "{txt}");

    let json = format!(
        "{{\n  \"experiment\": \"forest_inference\",\n  \"workload\": {{\"n_trees\": {n_trees}, \"n_nodes\": {}, \"dims\": {dims}, \"n_rows\": {n_rows}, \"reps\": {reps}, \"smoke\": {smoke}}},\n  \"speedup_w1\": {speedup_w1:.2},\n  \"results\": [\n{json_rows}\n  ]\n}}\n",
        flat.n_nodes(),
    );

    // Best-effort writes (CI smoke may run from a read-only checkout).
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/exp_forest_inference.txt", &txt);
    if !smoke {
        let _ = std::fs::write("BENCH_forest_inference.json", &json);
    }
}
