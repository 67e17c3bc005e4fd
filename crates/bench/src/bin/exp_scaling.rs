//! §4.1 production stage — multi-core scaling of a captured workflow (the
//! Dask-substitute executor) and the candidate-schema space ablation.
//!
//! Shapes to reproduce: near-linear matching-phase speedup with worker
//! count, and (the §4.1 efficiency principle) an `(l_id, r_id)`-only
//! candidate table being an order of magnitude smaller than one that
//! materializes both tuples' attributes.

use std::time::Instant;

use magellan_bench::score;
use magellan_block::{Blocker, OverlapBlocker};
use magellan_core::exec::ProductionExecutor;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::generate_features;
use magellan_ml::{Learner, RandomForestLearner};
use magellan_par::ParConfig;

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let s = persons(&ScenarioConfig {
        size_a: 8_000,
        size_b: 8_000,
        n_matches: 2_500,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let (a, b) = (&s.table_a, &s.table_b);

    // Develop a workflow once (on a down-sample), then scale it out.
    let features = generate_features(a, b, &["id"]).expect("features");
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let forest = RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&forest];
    let (workflow, _) = run_development_stage(
        a,
        b,
        vec![Box::new(OverlapBlocker::words("name", 1))],
        features,
        &learners,
        &mut labeler,
        &DevConfig {
            down_sample_to: Some(2000),
            sample_size: 700,
            ..Default::default()
        },
    )
    .expect("development stage");

    let cores = ParConfig::available().n_workers;
    magellan_obs::log!(info, "Production-stage scaling — {} x {} tuples", a.nrows(), b.nrows());
    magellan_obs::log!(info, 
        "host exposes {cores} core(s); near-linear speedup requires a multi-core host —\n\
         on a single core the table below measures pure threading overhead instead"
    );
    magellan_obs::log!(info, 
        "{:>8} {:>12} {:>12} {:>10} {:>8}",
        "workers", "blocking", "matching", "total", "speedup"
    );
    let mut base = None;
    for workers in [1usize, 2, 4] {
        let exec = ProductionExecutor::new(workers);
        let rep = exec.run(&workflow, a, b).expect("production run");
        let total = rep.timings.total().as_secs_f64();
        let matching = rep.timings.matching.as_secs_f64();
        let speedup = base.get_or_insert(matching).max(1e-9) / matching.max(1e-9);
        magellan_obs::log!(info, 
            "{:>8} {:>11.2}s {:>11.2}s {:>9.2}s {:>7.2}x",
            workers,
            rep.timings.blocking.as_secs_f64(),
            matching,
            total,
            speedup
        );
        if workers == 4 {
            let m = score(&rep.matches, a, b, &s.gold);
            magellan_obs::log!(info, "\naccuracy at 4 workers (identical at any count): {m}");
        }
    }

    // --- candidate-schema ablation (the (A.id, B.id)-only principle) ---
    magellan_obs::log!(info, "\nCandidate-schema ablation (§4.1 space-efficiency principle):");
    let cands = OverlapBlocker::words("name", 1).block(a, b).expect("blocker");
    let t0 = Instant::now();
    let id_only_bytes: usize = cands
        .pairs()
        .iter()
        .map(|_| 2 * std::mem::size_of::<u32>() + 8) // two short ids
        .sum();
    let id_only_t = t0.elapsed();
    let t1 = Instant::now();
    let materialized_bytes: usize = cands
        .pairs()
        .iter()
        .map(|&(ra, rb)| {
            let mut n = 0usize;
            for c in 0..a.ncols() {
                n += a.value(ra as usize, c).display_string().len();
            }
            for c in 0..b.ncols() {
                n += b.value(rb as usize, c).display_string().len();
            }
            n
        })
        .sum();
    let materialized_t = t1.elapsed();
    magellan_obs::log!(info, 
        "  |C| = {} pairs;  (l_id, r_id) schema ≈ {:.1} MB ({id_only_t:?});",
        cands.len(),
        id_only_bytes as f64 / 1e6
    );
    magellan_obs::log!(info, 
        "  fully materialized schema ≈ {:.1} MB ({materialized_t:?});  ratio {:.0}x",
        materialized_bytes as f64 / 1e6,
        materialized_bytes as f64 / id_only_bytes.max(1) as f64
    );
}
