//! §5.3 ablation — Smurf: label-free blocking-rule learning.
//!
//! Paper claim: "This drastically reduces the labeling effort by 43-76%,
//! yet achieving the same accuracy." Falcon and Smurf-lite run on the same
//! scenarios with the same oracle; we report questions and F1 for both,
//! plus the per-scenario labeling reduction.
//!
//! A second ablation contrasts active learning against random sampling at
//! the same label budget (why Falcon uses query-by-committee at all).

use magellan_bench::score;
use magellan_core::labeling::OracleLabeler;
use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::smurf::run_smurf;
use magellan_falcon::{run_falcon, FalconConfig};

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    magellan_obs::log!(info, "Smurf ablation — labeling effort vs Falcon\n");
    magellan_obs::log!(
        info,
        "{:14} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "scenario",
        "falcon Q",
        "smurf Q",
        "falcon F1",
        "smurf F1",
        "Q reduction",
        "dF1"
    );
    let mut reductions = Vec::new();
    for (i, name) in ["persons", "products", "restaurants", "citations"]
        .iter()
        .enumerate()
    {
        let s = domains::by_name(
            name,
            &ScenarioConfig {
                size_a: 1200,
                size_b: 1200,
                n_matches: 400,
                dirt: DirtModel::light(),
                seed: 700 + i as u64,
            },
        )
        .expect("known scenario");
        let cfg = FalconConfig::default();

        let mut l1 = OracleLabeler::new(s.gold.clone(), "id", "id");
        let falcon = run_falcon(&s.table_a, &s.table_b, "id", "id", &mut l1, &cfg).expect("falcon");
        let mut l2 = OracleLabeler::new(s.gold.clone(), "id", "id");
        let smurf = run_smurf(&s.table_a, &s.table_b, "id", "id", &mut l2, &cfg).expect("smurf");

        let mf = score(&falcon.matches, &s.table_a, &s.table_b, &s.gold);
        let ms = score(&smurf.matches, &s.table_a, &s.table_b, &s.gold);
        let reduction =
            1.0 - smurf.total_questions() as f64 / falcon.total_questions().max(1) as f64;
        reductions.push(reduction);
        magellan_obs::log!(
            info,
            "{:14} {:>9} {:>9} {:>9.3} {:>9.3} {:>10.0}% {:>+9.3}",
            name,
            falcon.total_questions(),
            smurf.total_questions(),
            mf.f1(),
            ms.f1(),
            100.0 * reduction,
            ms.f1() - mf.f1()
        );
    }
    let lo = reductions.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = reductions.iter().cloned().fold(0.0, f64::max);
    magellan_obs::log!(
        info,
        "\nlabeling reduction range: {:.0}%–{:.0}% (paper: 43%–76%)",
        100.0 * lo,
        100.0 * hi
    );

    // --- Active learning vs random sampling at equal budget ---
    magellan_obs::log!(info, "\nActive learning vs random labeling (equal budget):");
    let s = domains::by_name(
        "persons",
        &ScenarioConfig {
            size_a: 1200,
            size_b: 1200,
            n_matches: 400,
            dirt: DirtModel::light(),
            seed: 55,
        },
    )
    .unwrap();
    let cfg = FalconConfig::default();
    let mut l = OracleLabeler::new(s.gold.clone(), "id", "id");
    let falcon = run_falcon(&s.table_a, &s.table_b, "id", "id", &mut l, &cfg).unwrap();
    let m_active = score(&falcon.matches, &s.table_a, &s.table_b, &s.gold);

    // Random-labeling variant: batch selection replaced by random picks
    // (simulated by zeroing the committee rounds and labeling the same
    // number of random pairs via the dev-stage pipeline without CV).
    use magellan_block::{Blocker, OverlapBlocker};
    use magellan_features::{extract_feature_matrix, generate_features};
    use magellan_ml::{Dataset, Learner, RandomForestLearner};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let cands = OverlapBlocker::words("name", 1)
        .block(&s.table_a, &s.table_b)
        .unwrap();
    let features = generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
    let matrix = extract_feature_matrix(cands.pairs(), &s.table_a, &s.table_b, &features).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut order: Vec<usize> = (0..matrix.len()).collect();
    order.shuffle(&mut rng);
    let budget = falcon.total_questions();
    let mut oracle = OracleLabeler::new(s.gold.clone(), "id", "id");
    let mut data = Dataset::new(matrix.names.clone());
    use magellan_core::labeling::Labeler;
    for &i in order.iter().take(budget) {
        let (ra, rb) = matrix.pairs[i];
        let y = oracle
            .label(&s.table_a, ra as usize, &s.table_b, rb as usize)
            .as_bool();
        data.push(&matrix.rows[i], y);
    }
    let forest = RandomForestLearner {
        n_trees: 10,
        ..Default::default()
    }
    .fit(&data);
    let predicted: magellan_block::CandidateSet = matrix
        .pairs
        .iter()
        .zip(&matrix.rows)
        .filter_map(|(&p, row)| forest.predict(row).then_some(p))
        .collect();
    let m_random = score(&predicted, &s.table_a, &s.table_b, &s.gold);
    magellan_obs::log!(
        info,
        "  active learning: F1 {:.3} with {budget} labels",
        m_active.f1()
    );
    magellan_obs::log!(
        info,
        "  random labeling: F1 {:.3} with {budget} labels",
        m_random.f1()
    );
}
