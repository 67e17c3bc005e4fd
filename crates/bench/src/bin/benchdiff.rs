//! `benchdiff` — the bench-regression observatory CLI.
//!
//! ```text
//! benchdiff check <baseline.json> <current.json>   # regression gate
//! benchdiff check-baselines [repo-root]            # ROADMAP floors on checked-in BENCH files
//! benchdiff record <bench.json> [history-dir]      # append to results/history/<exp>.jsonl
//! benchdiff selftest [repo-root]                   # gate must fail a doctored file, pass real ones
//! ```
//!
//! Exit code 0 = gate passed, 1 = violations, 2 = usage/parse error.

use magellan_bench::benchdiff::{
    baseline_file, check_bounds, compare, record_history, registry, report,
};
use magellan_obs::{parse_json, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn check(baseline: &Path, current: &Path) -> Result<bool, String> {
    let base = load(baseline)?;
    let cur = load(current)?;
    let violations = compare(&base, &cur);
    print!(
        "{}",
        report(
            &format!("{} vs {}", current.display(), baseline.display()),
            &violations
        )
    );
    Ok(violations.is_empty())
}

/// Enforce hard bounds (the ROADMAP floors) on every checked-in BENCH
/// file that exists under `root`. Missing files are skipped with a note
/// — not every machine regenerates every experiment — but a present file
/// must pass.
fn check_baselines(root: &Path) -> Result<bool, String> {
    let files: BTreeSet<&'static str> = registry()
        .iter()
        .filter_map(|s| baseline_file(s.experiment))
        .collect();
    let mut ok = true;
    let mut seen = 0;
    for file in files {
        let path = root.join(file);
        if !path.exists() {
            println!("benchdiff: {file}: absent, skipped");
            continue;
        }
        seen += 1;
        let json = load(&path)?;
        let violations = check_bounds(&json);
        print!("{}", report(file, &violations));
        ok &= violations.is_empty();
    }
    if seen == 0 {
        return Err(format!(
            "no BENCH_*.json baselines found under {}",
            root.display()
        ));
    }
    Ok(ok)
}

fn record(bench: &Path, history_dir: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let path = record_history(history_dir, &text)?;
    println!("benchdiff: recorded {} -> {path}", bench.display());
    Ok(())
}

/// Prove the gate has teeth: doctor a real baseline below its floor and
/// assert `check_bounds` rejects it, then assert the real files pass.
fn selftest(root: &Path) -> Result<bool, String> {
    // A regressed incremental run: 4x is far under the 10x floor.
    let doctored = parse_json(
        r#"{"experiment":"incremental","delta_vs_rebuild_speedup":4.0,"updates_per_sec":77245.0}"#,
    )?;
    if check_bounds(&doctored).is_empty() {
        println!("benchdiff: selftest FAILED: doctored regression passed the gate");
        return Ok(false);
    }
    println!("benchdiff: selftest: doctored regression correctly rejected");
    // A doctored comparison: overhead doubling past the ceiling must fail.
    let base = parse_json(r#"{"experiment":"obs_overhead","overhead_pct":10.0}"#)?;
    let worse = parse_json(r#"{"experiment":"obs_overhead","overhead_pct":55.0}"#)?;
    if compare(&base, &worse).is_empty() {
        println!("benchdiff: selftest FAILED: overhead blowout passed the gate");
        return Ok(false);
    }
    println!("benchdiff: selftest: overhead blowout correctly rejected");
    // And the checked-in baselines must be clean.
    let ok = check_baselines(root)?;
    if ok {
        println!("benchdiff: selftest: OK");
    }
    Ok(ok)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchdiff check <baseline.json> <current.json>\n       \
         benchdiff check-baselines [repo-root]\n       \
         benchdiff record <bench.json> [history-dir]\n       \
         benchdiff selftest [repo-root]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") if args.len() == 3 => check(Path::new(&args[1]), Path::new(&args[2])),
        Some("check-baselines") if args.len() <= 2 => {
            let root = args
                .get(1)
                .map_or_else(|| PathBuf::from("."), PathBuf::from);
            check_baselines(&root)
        }
        Some("record") if (2..=3).contains(&args.len()) => {
            let history = args
                .get(2)
                .map_or_else(|| PathBuf::from("results/history"), PathBuf::from);
            match record(Path::new(&args[1]), &history) {
                Ok(()) => Ok(true),
                Err(e) => Err(e),
            }
        }
        Some("selftest") if args.len() <= 2 => {
            let root = args
                .get(1)
                .map_or_else(|| PathBuf::from("."), PathBuf::from);
            selftest(&root)
        }
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchdiff: error: {e}");
            ExitCode::from(2)
        }
    }
}
