//! Figure 3 — the Falcon workflow, step by step with per-step outputs.

use magellan_bench::score;
use magellan_core::labeling::OracleLabeler;
use magellan_datagen::domains::products;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::{run_falcon, FalconConfig};

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let s = products(&ScenarioConfig {
        size_a: 2000,
        size_b: 2000,
        n_matches: 600,
        dirt: DirtModel::moderate(),
        seed: 33,
    });
    let (a, b) = (&s.table_a, &s.table_b);
    magellan_obs::log!(info, "Fig. 3 walkthrough — Falcon self-service EM");
    magellan_obs::log!(info, "tables: {} x {} products\n", a.nrows(), b.nrows());

    let cfg = FalconConfig::default();
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let report = run_falcon(a, b, "id", "id", &mut labeler, &cfg).expect("falcon");

    magellan_obs::log!(
        info,
        "step 1  sampled |S| = {} tuple pairs",
        cfg.sample_size
    );
    magellan_obs::log!(
        info,
        "step 2  active learning (blocking stage): {} labels from the lay user",
        report.questions_blocking
    );
    magellan_obs::log!(info, "step 3  extracted + user-verified blocking rules:");
    for r in &report.rules {
        magellan_obs::log!(info, "        {r}");
    }
    magellan_obs::log!(
        info,
        "        ({} executable as sim-join plans{})",
        report.n_rules_executable,
        if report.used_fallback_blocker {
            "; fallback overlap blocker used"
        } else {
            ""
        }
    );
    magellan_obs::log!(
        info,
        "step 4  executed rules on A x B: |C| = {} of {} cross pairs",
        report.n_candidates,
        a.nrows() * b.nrows()
    );
    magellan_obs::log!(
        info,
        "step 5  active learning (matching stage): {} more labels",
        report.questions_matching
    );
    let m = score(&report.matches, a, b, &s.gold);
    magellan_obs::log!(
        info,
        "step 6  applied forest at alpha = {}: {} predicted matches",
        cfg.alpha,
        report.matches.len()
    );
    magellan_obs::log!(info, "\nresult: {m}");
    magellan_obs::log!(
        info,
        "total lay-user questions: {} (paper's Table 2 range: 160-1200)",
        report.total_questions()
    );
}
