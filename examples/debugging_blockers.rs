//! The blocking-debugger pain-point tool in action.
//!
//! ```text
//! cargo run --release --example debugging_blockers
//! ```
//!
//! The paper's guide warns that an over-aggressive blocker silently kills
//! matches before anyone labels anything — which is why PyMatcher ships a
//! dedicated blocking debugger (Table 3, column D). This example blocks a
//! product catalog with a too-strict equality blocker, lets the debugger
//! surface the near-miss pairs it killed, then loosens the blocker and
//! shows the recall recovering.

use magellan_block::debugger::{debug_blocker, estimate_recall};
use magellan_block::metrics::evaluate_blocking;
use magellan_block::{AttrEquivalenceBlocker, Blocker, OverlapBlocker};
use magellan_datagen::domains::products;
use magellan_datagen::{DirtModel, ScenarioConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = products(&ScenarioConfig {
        size_a: 600,
        size_b: 600,
        n_matches: 200,
        dirt: DirtModel::moderate(),
        seed: 7,
    });
    let (a, b) = (&scenario.table_a, &scenario.table_b);

    // Attempt 1: exact title equality. Catalogs render titles differently,
    // so this is (quietly) catastrophic.
    let strict = AttrEquivalenceBlocker::on("title");
    let c1 = strict.block(a, b)?;
    let r1 = evaluate_blocking(&c1, a, b, "id", "id", &scenario.gold)?;
    println!(
        "blocker {:40} candidates={:6} true recall={:.2}",
        strict.name(),
        r1.n_candidates,
        r1.recall()
    );

    // The debugger needs no gold labels: it estimates recall and lists the
    // most-similar killed pairs.
    let est = estimate_recall(&c1, a, b, &["title", "brand"], 0.65)?;
    println!("label-free recall estimate: {est:.2}");
    let dropped = debug_blocker(&c1, a, b, &["title", "brand"], 5, 0.3)?;
    println!("top killed near-misses:");
    for d in &dropped {
        let ta = a.value_by_name(d.l_row, "title")?.display_string();
        let tb = b.value_by_name(d.r_row, "title")?.display_string();
        println!("  sim={:.2}  {ta:40} | {tb}", d.sim);
    }

    // Attempt 2: loosen to 2-token overlap on the title, as the debugger
    // output suggests (the killed pairs share brand + model tokens).
    let loose = OverlapBlocker::words("title", 2);
    let c2 = loose.block(a, b)?;
    let r2 = evaluate_blocking(&c2, a, b, "id", "id", &scenario.gold)?;
    println!(
        "\nblocker {:40} candidates={:6} true recall={:.2} (reduction {:.3})",
        loose.name(),
        r2.n_candidates,
        r2.recall(),
        r2.reduction_ratio()
    );

    assert!(
        r2.recall() > r1.recall() + 0.3,
        "loosening must recover recall"
    );
    assert!(!dropped.is_empty(), "debugger must surface killed pairs");
    Ok(())
}
