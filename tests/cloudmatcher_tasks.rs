//! Table 2 shapes, as assertions: clean tasks reach high accuracy, the
//! dirty trio collapses, the vendors rerun without the Brazilian slice
//! recovers, and the cost/latency accounting behaves.

use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::cloud::{LabelingMode, TaskSpec};
use magellan_falcon::{CloudMatcher, FalconConfig};

fn cfg(dirt: DirtModel, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        size_a: 400,
        size_b: 400,
        n_matches: 130,
        dirt,
        seed,
    }
}

fn run(
    scenario: &magellan_datagen::EmScenario,
    labeling: LabelingMode,
    on_cloud: bool,
) -> magellan_falcon::TaskOutcome {
    let cloud = CloudMatcher::default();
    let spec = TaskSpec {
        name: scenario.name.clone(),
        table_a: &scenario.table_a,
        table_b: &scenario.table_b,
        a_key: "id".to_owned(),
        b_key: "id".to_owned(),
        gold: &scenario.gold,
        labeling,
        on_cloud,
        falcon: FalconConfig::default(),
    };
    cloud.run_task(&spec).unwrap().0
}

#[test]
fn clean_task_reaches_high_accuracy_for_free() {
    let s = domains::by_name("persons", &cfg(DirtModel::light(), 11)).unwrap();
    let o = run(&s, LabelingMode::SingleUser { error_rate: 0.0 }, false);
    assert!(o.precision > 0.8, "{o:?}");
    assert!(o.recall > 0.7, "{o:?}");
    assert_eq!(o.crowd_cost, 0.0);
    assert_eq!(o.compute_cost, 0.0);
    assert!(o.questions >= 20 && o.questions <= 1200, "{}", o.questions);
}

#[test]
fn vendors_rerun_without_brazil_recovers() {
    let dirty = domains::by_name("vendors", &cfg(DirtModel::moderate(), 12)).unwrap();
    let clean = domains::by_name("vendors_no_brazil", &cfg(DirtModel::moderate(), 12)).unwrap();
    let o_dirty = run(&dirty, LabelingMode::SingleUser { error_rate: 0.0 }, false);
    let o_clean = run(&clean, LabelingMode::SingleUser { error_rate: 0.0 }, false);
    let f1 = |o: &magellan_falcon::TaskOutcome| {
        if o.precision + o.recall == 0.0 {
            0.0
        } else {
            2.0 * o.precision * o.recall / (o.precision + o.recall)
        }
    };
    assert!(
        f1(&o_clean) > f1(&o_dirty) + 0.05,
        "no-brazil {:.3} should beat dirty {:.3}",
        f1(&o_clean),
        f1(&o_dirty)
    );
}

#[test]
fn erring_expert_on_heavy_vehicles_degrades_accuracy() {
    let s = domains::by_name("vehicles", &cfg(DirtModel::heavy(), 13)).unwrap();
    let careless = run(&s, LabelingMode::SingleUser { error_rate: 0.2 }, false);
    let careful_s = domains::by_name("persons", &cfg(DirtModel::light(), 13)).unwrap();
    let careful = run(
        &careful_s,
        LabelingMode::SingleUser { error_rate: 0.0 },
        false,
    );
    // The AmFam story: heavy missingness + labeling mistakes -> visibly
    // worse than a clean task.
    let f1 = |o: &magellan_falcon::TaskOutcome| {
        if o.precision + o.recall == 0.0 {
            0.0
        } else {
            2.0 * o.precision * o.recall / (o.precision + o.recall)
        }
    };
    assert!(
        f1(&careless) < f1(&careful) - 0.1,
        "vehicles {:.3} vs clean {:.3}",
        f1(&careless),
        f1(&careful)
    );
}

#[test]
fn crowd_accounting_scales_with_questions() {
    let s = domains::by_name("restaurants", &cfg(DirtModel::light(), 14)).unwrap();
    let o = run(
        &s,
        LabelingMode::Crowd {
            worker_error_rate: 0.1,
        },
        true,
    );
    let model = CloudMatcher::default().cost_model;
    let expected = o.questions as f64 * model.crowd_votes as f64 * model.crowd_fee_per_vote;
    assert!((o.crowd_cost - expected).abs() < 1e-9);
    assert!(o.compute_cost > 0.0);
    assert!(o.label_time_s >= o.questions as f64 * model.crowd_latency_s * 0.99);
}

#[test]
fn single_user_is_much_faster_than_crowd_at_same_task() {
    let s = domains::by_name("citations", &cfg(DirtModel::light(), 15)).unwrap();
    let user = run(&s, LabelingMode::SingleUser { error_rate: 0.0 }, false);
    let crowd = run(
        &s,
        LabelingMode::Crowd {
            worker_error_rate: 0.05,
        },
        false,
    );
    // Per-question latency dominates: Table 2's 9m–2h vs 22h–36h split.
    assert!(crowd.label_time_s > 5.0 * user.label_time_s);
}
