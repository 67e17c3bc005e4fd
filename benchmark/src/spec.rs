//! The benchmark's contract, read from `BENCHMARK.json` at the repo root
//! so that workload and metric names, units and directions are written
//! once. The bounds in that file are the driver's, for medians across
//! seeds; `compare` has its own for same-seed runs.

use crate::json::{parse as parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let text = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
        })
        .collect()
}

pub fn spec() -> Spec {
    let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is checked in and parses");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(10.0),
        workloads: doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
