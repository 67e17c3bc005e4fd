//! Table 2 — real-world deployment of CloudMatcher: 13 EM tasks with
//! accuracy, labeling-question, cost, and time accounting.
//!
//! Substitutions (DESIGN.md): synthetic scenario generators with
//! paper-matched dirt profiles stand in for the proprietary datasets;
//! a simulated majority-vote crowd stands in for Mechanical Turk; compute
//! dollars are metered machine-seconds. Table sizes are scaled down from
//! the paper's 300–4.9M range to keep the run minutes-long, preserving the
//! ordering (smallest 300, largest tens of thousands).
//!
//! Shapes to reproduce: ≥90% P/R on clean tasks; collapsed accuracy on
//! the three dirty tasks (vehicles = an erring expert on mostly-missing
//! data, addresses = heavy dirt, vendors = undecidable generic-address
//! records); the "Vendors (no Brazil)" rerun recovering; crowd tasks
//! costing dollars and wall-clock hours while single-user tasks are free.

use magellan_bench::{dollars, human_time};
use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::cloud::{LabelingMode, TaskSpec};
use magellan_falcon::{CloudMatcher, FalconConfig};

struct Task {
    name: &'static str,
    scenario: &'static str,
    size_a: usize,
    size_b: usize,
    n_matches: usize,
    dirt: DirtModel,
    labeling: LabelingMode,
    on_cloud: bool,
}

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    // 13 rows mirroring the paper's task list.
    let tasks = [
        Task {
            name: "Products",
            scenario: "products",
            size_a: 2500,
            size_b: 2500,
            n_matches: 800,
            dirt: DirtModel::light(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        Task {
            name: "Electronics",
            scenario: "products",
            size_a: 1500,
            size_b: 1500,
            n_matches: 500,
            dirt: DirtModel::moderate(),
            labeling: LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
            on_cloud: true,
        },
        Task {
            name: "Restaurants",
            scenario: "restaurants",
            size_a: 2000,
            size_b: 2000,
            n_matches: 600,
            dirt: DirtModel::moderate(),
            labeling: LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
            on_cloud: true,
        },
        Task {
            name: "Customers",
            scenario: "persons",
            size_a: 3000,
            size_b: 3000,
            n_matches: 900,
            dirt: DirtModel::light(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        Task {
            name: "Bibliography",
            scenario: "citations",
            size_a: 2000,
            size_b: 2000,
            n_matches: 700,
            dirt: DirtModel::light(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        Task {
            name: "Ranches",
            scenario: "ranches",
            size_a: 2500,
            size_b: 2500,
            n_matches: 800,
            dirt: DirtModel::moderate(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        Task {
            name: "Tiny vendors",
            scenario: "vendors_no_brazil",
            size_a: 300,
            size_b: 300,
            n_matches: 100,
            dirt: DirtModel::light(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        Task {
            name: "Households (large)",
            scenario: "persons",
            size_a: 8000,
            size_b: 8000,
            n_matches: 2500,
            dirt: DirtModel::light(),
            labeling: LabelingMode::Crowd {
                worker_error_rate: 0.08,
            },
            on_cloud: true,
        },
        Task {
            name: "Catalog (large)",
            scenario: "products",
            size_a: 6000,
            size_b: 6000,
            n_matches: 2000,
            dirt: DirtModel::moderate(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: true,
        },
        // The three dirty-data rows.
        Task {
            name: "Vehicles",
            scenario: "vehicles",
            size_a: 1500,
            size_b: 1500,
            n_matches: 500,
            dirt: DirtModel::heavy(),
            labeling: LabelingMode::SingleUser { error_rate: 0.10 },
            on_cloud: false,
        },
        Task {
            name: "Addresses",
            scenario: "addresses",
            size_a: 1500,
            size_b: 1500,
            n_matches: 500,
            dirt: DirtModel {
                typo_rate: 0.25,
                abbrev_rate: 0.35,
                token_swap_rate: 0.12,
                token_drop_rate: 0.12,
                missing_rate: 0.12,
                numeric_drift_rate: 0.10,
            },
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        Task {
            name: "Vendors",
            scenario: "vendors",
            size_a: 1500,
            size_b: 1500,
            n_matches: 500,
            dirt: DirtModel::moderate(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
        // The cleaning rerun.
        Task {
            name: "Vendors (no Brazil)",
            scenario: "vendors_no_brazil",
            size_a: 1500,
            size_b: 1500,
            n_matches: 500,
            dirt: DirtModel::moderate(),
            labeling: LabelingMode::SingleUser { error_rate: 0.0 },
            on_cloud: false,
        },
    ];

    let cloud = CloudMatcher::default();
    magellan_obs::log!(info, "Table 2 analog — CloudMatcher on 13 EM tasks");
    magellan_obs::log!(
        info,
        "{:20} {:>7} {:>7} {:>6} {:>6} {:>6} {:>8} {:>9} {:>10} {:>9} {:>9}",
        "task",
        "|A|",
        "|B|",
        "P(%)",
        "R(%)",
        "quest",
        "crowd",
        "compute",
        "user/crowd",
        "machine",
        "total"
    );

    // Generate all scenarios first (they borrow into the specs).
    let scenarios: Vec<_> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let cfg = ScenarioConfig {
                size_a: t.size_a,
                size_b: t.size_b,
                n_matches: t.n_matches,
                dirt: t.dirt,
                seed: 1000 + i as u64,
            };
            domains::by_name(t.scenario, &cfg).expect("known scenario")
        })
        .collect();
    let specs: Vec<TaskSpec<'_>> = tasks
        .iter()
        .zip(&scenarios)
        .map(|(t, s)| TaskSpec {
            name: t.name.to_owned(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".to_owned(),
            b_key: "id".to_owned(),
            gold: &s.gold,
            labeling: t.labeling,
            on_cloud: t.on_cloud,
            falcon: FalconConfig::default(),
        })
        .collect();

    let (outcomes, schedule) = cloud.run_tasks(&specs).expect("cloudmatcher run");
    for o in &outcomes {
        magellan_obs::log!(
            info,
            "{:20} {:>7} {:>7} {:6.1} {:6.1} {:6} {:>8} {:>9} {:>10} {:>9} {:>9}",
            o.name,
            o.rows.0,
            o.rows.1,
            100.0 * o.precision,
            100.0 * o.recall,
            o.questions,
            dollars(o.crowd_cost),
            if o.compute_cost == 0.0 {
                "-".to_owned()
            } else {
                format!("${:.2}", o.compute_cost)
            },
            human_time(o.label_time_s),
            human_time(o.machine_time_s),
            human_time(o.total_time_s()),
        );
    }
    magellan_obs::log!(
        info,
        "\nmetamanager schedule: serial {} vs interleaved {} ({:.1}x, {} batch slots)",
        human_time(schedule.serial_total_s),
        human_time(schedule.interleaved_makespan_s),
        schedule.speedup(),
        schedule.batch_slots
    );
    magellan_obs::log!(
        info,
        "\npaper shapes to check: clean tasks ≥ ~90% P/R; Vehicles/Addresses/Vendors"
    );
    magellan_obs::log!(
        info,
        "degraded; Vendors (no Brazil) recovered; crowd rows cost $ and hours."
    );
}
