//! Self-service EM with CloudMatcher (Fig. 5): a lay user who can only
//! answer match/no-match questions uploads two tables and gets matches.
//!
//! ```text
//! cargo run --release --example self_service
//! ```
//!
//! Runs the Falcon workflow twice — once with a single (free, fast) user
//! and once with a (paid, slow) simulated Mechanical Turk crowd — and
//! prints the Table 2 style accounting row for each.

use magellan_datagen::domains::restaurants;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::cloud::{LabelingMode, TaskSpec};
use magellan_falcon::{CloudMatcher, FalconConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = restaurants(&ScenarioConfig {
        size_a: 800,
        size_b: 800,
        n_matches: 250,
        dirt: DirtModel::moderate(),
        seed: 99,
    });
    println!(
        "task: match {} x {} restaurant listings ({} gold matches)\n",
        scenario.table_a.nrows(),
        scenario.table_b.nrows(),
        scenario.gold.len()
    );

    let cloud = CloudMatcher::default();
    let falcon = FalconConfig::default();

    let mk_spec = |name: &str, labeling| TaskSpec {
        name: name.to_owned(),
        table_a: &scenario.table_a,
        table_b: &scenario.table_b,
        a_key: "id".to_owned(),
        b_key: "id".to_owned(),
        gold: &scenario.gold,
        labeling,
        on_cloud: true,
        falcon: falcon.clone(),
    };

    let (outcomes, schedule) = cloud.run_tasks(&[
        mk_spec(
            "restaurants (single user)",
            LabelingMode::SingleUser { error_rate: 0.0 },
        ),
        mk_spec(
            "restaurants (crowd)",
            LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
        ),
    ])?;

    println!(
        "{:28} {:>7} {:>7} {:>6} {:>6} {:>9} {:>9} {:>10} {:>10}",
        "task", "P(%)", "R(%)", "quest", "cand", "crowd $", "compute $", "label time", "total time"
    );
    for o in &outcomes {
        println!(
            "{:28} {:7.1} {:7.1} {:6} {:6} {:9.2} {:9.4} {:>10} {:>10}",
            o.name,
            100.0 * o.precision,
            100.0 * o.recall,
            o.questions,
            o.n_candidates,
            o.crowd_cost,
            o.compute_cost,
            human_time(o.label_time_s),
            human_time(o.total_time_s()),
        );
    }
    println!(
        "\nmetamanager: serial {} vs interleaved {} ({:.1}x speedup, {} batch slots)",
        human_time(schedule.serial_total_s),
        human_time(schedule.interleaved_makespan_s),
        schedule.speedup(),
        schedule.batch_slots,
    );

    // The shapes Table 2 shows: the crowd costs dollars and takes far
    // longer; both reach high accuracy on reasonably clean data.
    let user = &outcomes[0];
    let crowd = &outcomes[1];
    assert_eq!(user.crowd_cost, 0.0);
    assert!(crowd.crowd_cost > 0.0);
    assert!(crowd.label_time_s > 5.0 * user.label_time_s);
    Ok(())
}

fn human_time(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.1}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.0}m", seconds / 60.0)
    } else {
        format!("{seconds:.0}s")
    }
}
