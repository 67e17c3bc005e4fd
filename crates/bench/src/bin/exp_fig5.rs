//! Figure 5 — self-service EM with CloudMatcher: several scientists submit
//! EM workflows concurrently; the metamanager interleaves their DAG
//! fragments across the user-interaction, crowd, and batch engines.
//!
//! The reproduced claim (§5.1): "CloudMatcher 0.1 does not scale, because
//! it can execute only one EM workflow at a time", while CloudMatcher 1.0
//! interleaves fragments — so the interleaved makespan lands well below
//! the serial sum.

use magellan_bench::human_time;
use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::cloud::{LabelingMode, TaskSpec};
use magellan_falcon::{CloudMatcher, Engine, FalconConfig};

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    // Five scientists upload five EM tasks at the same time.
    let submissions = [
        (
            "limnology lakes",
            "addresses",
            LabelingMode::SingleUser { error_rate: 0.0 },
        ),
        (
            "ranch registry",
            "ranches",
            LabelingMode::SingleUser { error_rate: 0.0 },
        ),
        (
            "survey dedup",
            "persons",
            LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
        ),
        (
            "paper linkage",
            "citations",
            LabelingMode::SingleUser { error_rate: 0.0 },
        ),
        (
            "menu matching",
            "restaurants",
            LabelingMode::Crowd {
                worker_error_rate: 0.1,
            },
        ),
    ];
    let scenarios: Vec<_> = submissions
        .iter()
        .enumerate()
        .map(|(i, (_, scenario, _))| {
            domains::by_name(
                scenario,
                &ScenarioConfig {
                    size_a: 1000,
                    size_b: 1000,
                    n_matches: 300,
                    dirt: DirtModel::moderate(),
                    seed: 500 + i as u64,
                },
            )
            .expect("known scenario")
        })
        .collect();
    let specs: Vec<TaskSpec<'_>> = submissions
        .iter()
        .zip(&scenarios)
        .map(|((name, _, labeling), s)| TaskSpec {
            name: (*name).to_owned(),
            table_a: &s.table_a,
            table_b: &s.table_b,
            a_key: "id".to_owned(),
            b_key: "id".to_owned(),
            gold: &s.gold,
            labeling: *labeling,
            on_cloud: true,
            falcon: FalconConfig::default(),
        })
        .collect();

    let cloud = CloudMatcher::default();
    let (outcomes, schedule) = cloud.run_tasks(&specs).expect("cloudmatcher");

    magellan_obs::log!(
        info,
        "Fig. 5 analog — concurrent self-service EM workflows\n"
    );
    for o in &outcomes {
        magellan_obs::log!(
            info,
            "  {:18} P {:5.1}%  R {:5.1}%  {:4} questions  label {:>7}  machine {:>6}",
            o.name,
            100.0 * o.precision,
            100.0 * o.recall,
            o.questions,
            human_time(o.label_time_s),
            human_time(o.machine_time_s)
        );
    }
    magellan_obs::log!(info, "\nmetamanager schedule:");
    magellan_obs::log!(
        info,
        "  one-workflow-at-a-time (CloudMatcher 0.1): {}",
        human_time(schedule.serial_total_s)
    );
    magellan_obs::log!(
        info,
        "  interleaved fragments  (CloudMatcher 1.0): {}  -> {:.1}x speedup",
        human_time(schedule.interleaved_makespan_s),
        schedule.speedup()
    );
    for (engine, busy) in &schedule.busy {
        let label = match engine {
            Engine::UserInteraction => "user-interaction engine",
            Engine::Crowd => "crowd engine",
            Engine::Batch => "batch engine",
        };
        magellan_obs::log!(info, "  {:24} busy {}", label, human_time(*busy));
    }
    assert!(schedule.speedup() > 1.5, "interleaving must beat serial");
}
