//! Figure 4 — a decision tree learned by Falcon and the blocking rules
//! extracted from it.
//!
//! The paper's example: a tree over book pairs that "predicts that two
//! book tuples match only if their ISBNs match and the number of pages
//! match", and the two rules extracted from its root→No paths.

use magellan_core::labeling::{Labeler, OracleLabeler};
use magellan_datagen::domains::citations;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::active::{active_learn, ActiveLearnConfig};
use magellan_falcon::rules::extract_blocking_rules;
use magellan_falcon::workflow::blocking_features;
use magellan_features::extract_feature_matrix;

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    // Book-like records: citations carry title/authors/venue/year, the
    // closest in-repo analog of the figure's ISBN/pages books.
    let s = citations(&ScenarioConfig {
        size_a: 800,
        size_b: 800,
        n_matches: 250,
        dirt: DirtModel::light(),
        seed: 44,
    });
    let (a, b) = (&s.table_a, &s.table_b);

    // Sample pairs and features the way Falcon's blocking stage does.
    let bfeatures = blocking_features(a, b, &["id"]).expect("blocking features");
    // Plausible + random pairs.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for i in 0..400u32 {
        pairs.push((i % a.nrows() as u32, (i * 7 + 3) % b.nrows() as u32));
    }
    // Ensure the sample contains true matches: 120 gold pairs in key order
    // (a `HashSet` iterates in a different order on every run).
    let ak = a.key_index("id").expect("key");
    let bk = b.key_index("id").expect("key");
    let mut gold: Vec<&(String, String)> = s.gold.iter().collect();
    gold.sort();
    for (x, y) in gold.into_iter().take(120) {
        pairs.push((ak[x] as u32, bk[y] as u32));
    }
    let matrix = extract_feature_matrix(&pairs, a, b, &bfeatures).expect("matrix");

    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let outcome = active_learn(
        &matrix,
        |i| {
            let (ra, rb) = matrix.pairs[i];
            labeler.label(a, ra as usize, b, rb as usize).as_bool()
        },
        &ActiveLearnConfig {
            n_trees: 5,
            ..Default::default()
        },
    );

    magellan_obs::log!(
        info,
        "Fig. 4 analog — one committee tree and its extracted rules\n"
    );
    magellan_obs::log!(info, "(a) a decision tree learned by Falcon:");
    let tree = &outcome.forest.trees()[0];
    // Print with feature names substituted.
    let mut rendered = tree.pretty();
    for (i, name) in matrix.names.iter().enumerate() {
        rendered = rendered.replace(&format!("f{i} "), &format!("{name} "));
    }
    magellan_obs::log!(info, "{rendered}");

    magellan_obs::log!(info, "(b) blocking rules extracted from root -> No paths:");
    let (kept, executable) = extract_blocking_rules(
        &outcome.forest,
        &matrix,
        &outcome.labeled,
        &bfeatures,
        0.95,
        6,
    );
    for r in &kept {
        magellan_obs::log!(
            info,
            "  {}   [precision {:.2}, drops {:.0}% of labeled negatives]",
            r.pretty(&matrix.names),
            r.precision,
            100.0 * r.coverage
        );
    }
    magellan_obs::log!(
        info,
        "\n{} rules kept, {} executable as sim-join plans",
        kept.len(),
        executable.len()
    );
}
