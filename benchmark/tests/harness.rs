//! The harness checked against its own contract, at smoke size.

use magellan_benchmark::json::{parse as parse_json, Json};
use magellan_benchmark::workloads::{Scale, NAMES};
use magellan_benchmark::{compare, out_dir, run, spec, RunOpts};

fn smoke(workload: &str, trace: bool) -> magellan_benchmark::RunResult {
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed: 77,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One test drives every workload: runs share `out/` and the process-wide
/// CPU clock, so they must not overlap.
#[test]
fn every_workload_reports_every_metric_and_a_consistent_trace() {
    let spec = spec::spec();
    assert_eq!(
        spec.workloads, NAMES,
        "BENCHMARK.json lists the workloads the harness has"
    );
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid_name(&m.name), "metric name {:?}", m.name);
    }

    for workload in NAMES {
        for (trace, wanted) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let result = smoke(workload, trace);
            assert!(
                result.correct && result.failed == 0,
                "{workload} trace={trace} failed checks"
            );
            assert!(result.attempted >= 1 && result.samples >= 1);
            let got: Vec<&str> = result.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, want, "{workload} trace={trace}: metric names");
            for (name, value, _) in &result.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            if !trace {
                for (name, value, _) in &result.metrics {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end {name} must never read 0"
                    );
                }
            }
            let line = parse_json(&result.to_json_line()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }

        // The trace the traced run just wrote: self times add up to the
        // root spans, and every child lies inside its parent.
        let path = out_dir().join(format!("trace_{workload}.json"));
        let doc = parse_json(&std::fs::read_to_string(&path).unwrap()).expect("trace parses");
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert!(!spans.is_empty());
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
        let (mut self_total, mut root_total) = (0.0, 0.0);
        for s in spans {
            let (start, end, own) = (num(s, "start_ns"), num(s, "end_ns"), num(s, "self_ns"));
            assert!(
                end >= start && own >= 0.0 && own <= end - start,
                "{workload}: span {s:?}"
            );
            self_total += own;
            match s.get("parent").and_then(Json::as_f64) {
                None => root_total += end - start,
                Some(p) => {
                    let parent = &spans[p as usize];
                    assert!(num(parent, "start_ns") <= start && end <= num(parent, "end_ns"));
                    assert_eq!(num(parent, "pass"), num(s, "pass"));
                }
            }
        }
        assert_eq!(
            self_total, root_total,
            "{workload}: self times sum to the replay total"
        );
    }
}

fn result_file(wall: &[f64], f1: f64) -> String {
    let values: Vec<String> = wall.iter().map(f64::to_string).collect();
    format!(
        "{{\"host\": {{\"seed\": 77}}, \"smoke\": false, \"workloads\": {{\"match_heavy\": {{\"attempted\": 40, \"failed\": 0, \"end_to_end\": {{\"wall_s\": {{\"unit\": \"s\", \"values\": [{}]}}, \"f1\": {{\"unit\": \"ratio\", \"values\": [{f1}, {f1}, {f1}]}}, \"batch_p50_ms\": {{\"unit\": \"ms\", \"values\": null}}}}}}}}}}",
        values.join(", ")
    )
}

#[test]
fn compare_accepts_a_repeat_and_rejects_a_doctored_run() {
    let base = [1.00, 1.02, 0.99];
    let (table, regressed) = compare::compare(
        &result_file(&base, 0.9),
        &result_file(&[1.01, 0.99, 1.00], 0.9),
    )
    .unwrap();
    assert!(!regressed, "{table}");
    let row = |table: &str, metric: &str, verdict: &str| {
        table
            .lines()
            .any(|l| l.contains(metric) && l.ends_with(verdict))
    };
    for metric in ["wall_s", "f1", "failed_share"] {
        assert!(row(&table, metric, "within_bound"), "{metric}\n{table}");
    }
    assert!(!table.contains("batch_p50_ms"), "null is skipped\n{table}");

    // Every run 20 % slower.
    let slower: Vec<f64> = base.iter().map(|w| w * 1.2).collect();
    let (table, regressed) =
        compare::compare(&result_file(&base, 0.9), &result_file(&slower, 0.9)).unwrap();
    assert!(regressed, "{table}");
    assert!(row(&table, "wall_s", "regressed"), "{table}");
    assert!(row(&table, "f1", "within_bound"), "{table}");

    // Quality repeats exactly on the same seed: half a point lost is a regression.
    let (table, regressed) =
        compare::compare(&result_file(&base, 0.9), &result_file(&base, 0.895)).unwrap();
    assert!(regressed && row(&table, "f1", "regressed"), "{table}");

    // Files of different seeds are not comparable.
    let other_seed = result_file(&base, 0.9).replace("\"seed\": 77", "\"seed\": 78");
    assert!(compare::compare(&result_file(&base, 0.9), &other_seed).is_err());
}

#[test]
fn every_end_to_end_metric_has_a_same_seed_bound() {
    for m in &spec::spec().end_to_end {
        assert!(compare::bound_of(&m.name).is_some(), "{}", m.name);
    }
    assert_eq!(
        compare::bound_of("failed_share"),
        Some(compare::Bound::Absolute(0.0))
    );
}
