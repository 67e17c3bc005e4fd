//! Command line of the benchmark. Three forms:
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--smoke]` — one run of
//!   one workload; the last line of stdout is the result as JSON.
//! * `run [--seed N] [--workload W] [--smoke]` — every workload, [`ROUNDS`]
//!   untraced runs and one traced run each, `run_seconds` of
//!   `BENCHMARK.json` long, every run in a process of its own,
//!   round-robin; prints every metric and writes `benchmark/out/result.json`.
//! * `compare A.json B.json` — judge two result files against the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use magellan_benchmark::json::{parse as parse_json, Json};
use magellan_benchmark::stats::{median, quartiles};
use magellan_benchmark::workloads::{applies, Scale, NAMES};
use magellan_benchmark::{compare, host, out_dir, spec, RunOpts};

/// Untraced runs per workload in `run`; their median is what is reported.
const ROUNDS: usize = 5;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("smoke") => {
                args.flags.insert("smoke".into(), "1".into());
            }
            Some(name @ ("workload" | "seed" | "seconds" | "trace")) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                args.flags.insert(name.to_owned(), value);
            }
            Some(name) => return Err(format!("unknown option --{name}")),
            None => args.positional.push(a),
        }
    }
    Ok(args)
}

impl Args {
    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a valid number")),
        }
    }

    fn scale(&self) -> Scale {
        if self.flags.contains_key("smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.positional.first().map(String::as_str) {
        None => one_run(&args),
        Some("run") => run_all(&args),
        Some("compare") => compare_files(&args),
        Some(other) => Err(format!(
            "unknown command `{other}`; expected `run` or `compare`"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The driver contract: one workload, one result line.
fn one_run(args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        workload: args
            .flags
            .get("workload")
            .cloned()
            .ok_or("--workload is required")?,
        seed: args.number("seed", 77)?,
        seconds: args.number("seconds", spec::spec().run_seconds)?,
        trace: args.number::<u8>("trace", 0)? != 0,
        scale: args.scale(),
    };
    let result = magellan_benchmark::run(&opts)?;
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

/// What one child run printed, by metric name.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed no result"))?;
    let doc = parse_json(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Child {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics: doc
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                    unit.to_owned(),
                )
            })
            .collect(),
    })
}

fn run_all(args: &Args) -> Result<bool, String> {
    if let Some(fixed) = ["seconds", "trace"]
        .iter()
        .find(|f| args.flags.contains_key(**f))
    {
        return Err(format!(
            "`run` takes no --{fixed}: it runs `run_seconds` of BENCHMARK.json, untraced and traced"
        ));
    }
    let seed: u64 = args.number("seed", 77)?;
    let smoke = args.scale() == Scale::Smoke;
    // At smoke size a run is its minimum of two timed passes.
    let seconds = if smoke { 0.0 } else { spec::spec().run_seconds };
    let chosen: Vec<&str> = match args.flags.get("workload") {
        Some(w) => vec![NAMES
            .iter()
            .copied()
            .find(|n| n == w)
            .ok_or_else(|| format!("unknown workload `{w}`"))?],
        None => NAMES.to_vec(),
    };

    // Round-robin over the workloads, so that a slow phase of a shared
    // host lands on every workload alike. The last round is the traced one.
    let mut untraced: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, Child> = BTreeMap::new();
    for round in 0..=ROUNDS {
        for &w in &chosen {
            let child = spawn_run(w, seed, seconds, round == ROUNDS, smoke)?;
            if round == ROUNDS {
                traced.insert(w, child);
            } else {
                untraced.entry(w).or_default().push(child);
            }
        }
    }

    let mut ok = true;
    let mut noisy = false;
    let mut sections = Vec::new();
    for &w in &chosen {
        let runs = &untraced[w];
        let layer = &traced[w];
        let attempted: f64 = runs.iter().map(|c| c.attempted).sum::<f64>() + layer.attempted;
        let failed: f64 = runs.iter().map(|c| c.failed).sum::<f64>() + layer.failed;
        ok &= runs.iter().all(|c| c.correct) && layer.correct;
        println!(
            "\n== {w}: {} untraced runs, failed_share {}",
            runs.len(),
            failed / attempted.max(1.0)
        );
        let mut e2e = Vec::new();
        for (i, (name, _, unit)) in runs[0].metrics.iter().enumerate() {
            if !applies(w, name) {
                println!("  {name:<34} {:>14} {unit}", "null");
                e2e.push(format!(
                    "\"{name}\": {{\"unit\": \"{unit}\", \"values\": null}}"
                ));
                continue;
            }
            let values: Vec<f64> = runs.iter().map(|c| c.metrics[i].1).collect();
            let (q1, q3) = quartiles(&values);
            println!(
                "  {name:<34} {:>14.6} {unit:<6} [{q1:.6}, {q3:.6}]",
                median(&values)
            );
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            e2e.push(format!(
                "\"{name}\": {{\"unit\": \"{unit}\", \"values\": [{}]}}",
                list.join(", ")
            ));
        }
        let mut per_layer = Vec::new();
        for (name, value, unit) in &layer.metrics {
            println!("  {name:<34} {value:>14.6} {unit}");
            per_layer.push(format!(
                "\"{name}\": {{\"unit\": \"{unit}\", \"value\": {value}}}"
            ));
            noisy |= name == "host.probe_spread" && *value > magellan_benchmark::NOISY_PROBE_SPREAD;
        }
        sections.push(format!(
            "\"{w}\": {{\"attempted\": {attempted}, \"failed\": {failed}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            e2e.join(", "),
            per_layer.join(", ")
        ));
    }

    let doc = format!(
        "{{\"claim\": null, \"host\": {{{}}}, \"noisy\": {noisy}, \"smoke\": {smoke}, \"rounds\": {ROUNDS}, \"seconds\": {seconds}, \"workloads\": {{{}}}}}\n",
        host::stamp(seed),
        sections.join(", ")
    );
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {}{}",
        path.display(),
        if noisy { " (noisy host)" } else { "" }
    );
    Ok(ok)
}
