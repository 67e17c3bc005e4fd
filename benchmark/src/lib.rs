//! One end-to-end entity-matching benchmark: four workloads measured from
//! outside the crates, end-to-end metrics with tracing off, and a
//! per-layer budget from a traced replay. See `README.md`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub mod compare;
pub mod host;
pub mod json;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use stats::{median, percentile};
use trace::Tracer;
use workloads::{timed, Layers, PassOut, Quality, ReplayCtx, Scale, Workload};

/// Set-up is repeated at least this often in a run, and on until
/// [`SETUP_SECONDS`] have gone into it or it has run [`SETUPS_MOST`]
/// times; `setup_s` is the median. Timed three times, a set-up of a
/// tenth of a second repeated no better than 27 % between runs, and of
/// three runs' set-up medians the extremes lay more than 15 % apart.
const SETUPS_LEAST: usize = 5;
const SETUPS_MOST: usize = 9;
const SETUP_SECONDS: f64 = 1.0;
/// Untraced passes a traced run takes first, as the base the replay is
/// compared with.
const BASE_PASSES: usize = 3;
/// `host.probe_spread` above this marks a run as taken on a noisy host.
pub const NOISY_PROBE_SPREAD: f64 = 0.10;
/// Reported times are on the scale of a host on which the probe takes this.
pub const PROBE_REFERENCE_MS: f64 = 25.0;
/// A timed region reuses the last probe if it is younger than this.
const PROBE_EVERY_S: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How long the timed passes (or traced replays) go on.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, String);

#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    /// Passes and checks attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Timed passes (or traced replays) behind the medians.
    pub samples: usize,
    pub noisy: bool,
}

impl RunResult {
    /// The result line of the driver contract: exactly these four keys.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where the benchmark writes: `benchmark/out/` of the checkout it was
/// built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    match opts.workload.as_str() {
        "match_heavy" => drive::<workloads::match_heavy::MatchHeavy>(opts),
        "block_heavy" => drive::<workloads::block_heavy::BlockHeavy>(opts),
        "falcon_selfservice" => drive::<workloads::falcon_selfservice::FalconSelfService>(opts),
        "stream_churn" => drive::<workloads::stream_churn::StreamChurn>(opts),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            workloads::NAMES.join(", ")
        )),
    }
}

/// Pass bookkeeping shared by both modes: counts attempts and failures,
/// and holds every pass to the first output seen on its input.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first: BTreeMap<usize, PassOut>,
}

impl Ledger {
    fn fail(&mut self, what: &str, problem: &str) {
        eprintln!("FAILED {what}: {problem}");
        self.failed += 1;
    }

    fn record(
        &mut self,
        what: &str,
        must_repeat: bool,
        out: Result<PassOut, String>,
    ) -> Option<PassOut> {
        self.attempted += 1;
        match out {
            Err(e) => self.fail(what, &e),
            Ok(out) => match self.first.get(&out.key) {
                Some(first) if must_repeat && first.digest != out.digest => {
                    self.fail(
                        what,
                        &format!("output differs from the first pass on input {}", out.key),
                    );
                }
                Some(_) => return Some(out),
                None => {
                    self.first.insert(out.key, out.clone());
                    return Some(out);
                }
            },
        }
        None
    }

    /// Hold the digests other routes produced to the first pass's.
    fn check(&mut self, references: Result<Vec<(&'static str, u64)>, String>) {
        let expected = self.first.get(&0).map(|o| o.digest);
        match references {
            Err(e) => {
                self.attempted += 1;
                self.fail("reference", &e);
            }
            Ok(list) => {
                for (what, digest) in list {
                    self.attempted += 1;
                    if Some(digest) != expected {
                        self.fail(
                            "reference",
                            &format!("{what} gives other matches than the passes"),
                        );
                    }
                }
            }
        }
    }

    /// Mean over the distinct inputs of the quality each produced.
    fn quality(&self) -> Quality {
        let n = self.first.len().max(1) as f64;
        let mean =
            |f: fn(&Quality) -> f64| self.first.values().map(|o| f(&o.quality)).sum::<f64>() / n;
        Quality {
            precision: mean(|q| q.precision),
            recall: mean(|q| q.recall),
            f1: mean(|q| q.f1),
        }
    }
}

/// The fixed CPU probe, taken beside the timed work all through a run.
///
/// On a shared host the same work takes 30-40 % longer for tens of
/// seconds at a time, which is longer than a run: over ten seeds the raw
/// median pass spread 13-41 % (interquartile, per workload), more than
/// any bound may be. The end-to-end times are therefore reported on the
/// scale of a reference host on which the probe takes
/// [`PROBE_REFERENCE_MS`]: each timed region is divided by the probes
/// taken just before and after it, wall time by the probe's wall time
/// and CPU time by the probe's CPU time. The raw medians go to stderr and,
/// from a traced run, to `bench.base_wall_s` and `bench.base_cpu_s`.
#[derive(Default)]
struct Probes {
    /// Wall and process-CPU milliseconds of each probe.
    ms: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl Probes {
    fn take(&mut self) {
        let (wall_ms, _, cpu_s) = timed(host::probe_ms);
        self.ms.push((wall_ms, cpu_s * 1e3));
        self.last = Some(Instant::now());
    }

    /// Take a probe unless one was taken within [`PROBE_EVERY_S`];
    /// returns the index of the latest probe.
    fn before_work(&mut self) -> usize {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S)
        {
            self.take();
        }
        self.ms.len() - 1
    }

    /// Factors that put the wall and the CPU time of work started after
    /// probe `i` on the reference scale (a later probe must exist: call
    /// `take` when the work is done).
    fn scale(&self, i: usize) -> (f64, f64) {
        let (wall, cpu) = self.ms[i];
        let (wall_after, cpu_after) = *self.ms.get(i + 1).unwrap_or(&self.ms[i]);
        (
            PROBE_REFERENCE_MS / ((wall + wall_after) / 2.0),
            PROBE_REFERENCE_MS / ((cpu + cpu_after) / 2.0),
        )
    }

    fn wall_ms(&self) -> Vec<f64> {
        self.ms.iter().map(|&(wall, _)| wall).collect()
    }

    /// Interquartile range of the probes as a share of their median.
    fn spread(&self) -> f64 {
        stats::spread(&self.wall_ms())
    }
}

fn drive<W: Workload>(opts: &RunOpts) -> Result<RunResult, String> {
    let dir = out_dir().join(format!("work-{}-{}", opts.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = if opts.trace {
        drive_traced::<W>(opts, &dir)
    } else {
        drive_untraced::<W>(opts, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// End-to-end metrics: tracing off, on the host's worker count.
fn drive_untraced<W: Workload>(opts: &RunOpts, dir: &std::path::Path) -> Result<RunResult, String> {
    let workers = host::workers();
    let mut probes = Probes::default();
    let (least, most) = if opts.scale == Scale::Smoke {
        (1, 1)
    } else {
        (SETUPS_LEAST, SETUPS_MOST)
    };
    let mut setup_at: Vec<(usize, f64)> = Vec::with_capacity(most);
    let mut workload = None;
    while setup_at.len() < least
        || (setup_at.len() < most && setup_at.iter().map(|s| s.1).sum::<f64>() < SETUP_SECONDS)
    {
        drop(workload.take());
        let probe = probes.before_work();
        let (built, wall, _) = timed(|| W::setup(opts.seed, opts.scale, dir));
        workload = Some(built?);
        setup_at.push((probe, wall));
    }
    let mut w = workload.expect("at least one set-up ran");

    // Warm-up: one untimed pass on every input.
    let mut ledger = Ledger::default();
    for i in 0..w.keys() {
        ledger.record("warm-up pass", true, w.pass(i, workers));
    }

    let mut passes: Vec<(usize, PassOut)> = Vec::new();
    let started = Instant::now();
    let mut i = w.keys();
    while (started.elapsed().as_secs_f64() < opts.seconds || passes.len() < 2) && ledger.failed < 3
    {
        let probe = probes.before_work();
        passes.extend(
            ledger
                .record("pass", true, w.pass(i, workers))
                .map(|o| (probe, o)),
        );
        i += 1;
    }
    probes.take();
    let peak_rss_mb = host::peak_rss_mib();
    ledger.check(w.references(workers));

    // Median over the passes of one reading per pass, scaled pass by pass.
    let over_passes = |f: &dyn Fn(&PassOut, (f64, f64)) -> f64| {
        median(
            &passes
                .iter()
                .map(|(p, o)| f(o, probes.scale(*p)))
                .collect::<Vec<_>>(),
        )
    };
    eprintln!(
        "{} raw medians (executor on {workers} workers): wall_s {:.6}, cpu_s {:.6}, probe {:.3} ms (reference {PROBE_REFERENCE_MS} ms)",
        opts.workload,
        over_passes(&|o, _| o.wall_s),
        over_passes(&|o, _| o.cpu_s),
        median(&probes.wall_ms()),
    );
    let q = ledger.quality();
    let values: BTreeMap<&str, f64> = [
        (
            "setup_s",
            median(
                &setup_at
                    .iter()
                    .map(|&(p, wall)| wall * probes.scale(p).0)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("wall_s", over_passes(&|o, (wall, _)| o.wall_s * wall)),
        ("cpu_s", over_passes(&|o, (_, cpu)| o.cpu_s * cpu)),
        ("peak_rss_mb", peak_rss_mb),
        ("precision", q.precision),
        ("recall", q.recall),
        ("f1", q.f1),
        (
            "batch_p50_ms",
            over_passes(&|o, (wall, _)| percentile(&o.batch_ms, 50.0) * wall),
        ),
        (
            "batch_p99_ms",
            over_passes(&|o, (wall, _)| percentile(&o.batch_ms, 99.0) * wall),
        ),
    ]
    .into();
    finish(
        opts,
        &spec::spec().end_to_end,
        |name| values.get(name).copied(),
        ledger,
        passes.len(),
        &probes,
    )
}

/// Per-layer metrics: the pass replayed under spans, beside untraced
/// passes, both on the host's worker count. Seconds are as measured
/// here, not scaled; `host.probe_ms` says how fast the host was.
fn drive_traced<W: Workload>(opts: &RunOpts, dir: &std::path::Path) -> Result<RunResult, String> {
    let workers = host::workers();
    let mut probes = Probes::default();
    probes.take();
    let mut w = W::setup(opts.seed, opts.scale, dir)?;
    let mut ledger = Ledger::default();
    for i in 0..w.keys() {
        ledger.record("warm-up pass", true, w.pass(i, workers));
    }
    let base: Vec<PassOut> = (0..BASE_PASSES)
        .filter_map(|i| ledger.record("base pass", true, w.pass(i, workers)))
        .collect();
    let base_wall_s = median(&base.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    let base_cpu_s = median(&base.iter().map(|o| o.cpu_s).collect::<Vec<_>>());
    probes.take();

    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let started = Instant::now();
    let mut replays = 0usize;
    while (started.elapsed().as_secs_f64() < opts.seconds || replays == 0) && ledger.failed < 3 {
        let mut ctx = ReplayCtx {
            tracer: &mut tracer,
            layers: &mut layers,
            base_wall_s,
            workers,
        };
        let out = w.replay(replays, &mut ctx);
        if ledger
            .record("traced replay", W::REPLAY_REPEATS_PASS, out)
            .is_some()
        {
            // Every span named like a metric is that metric's seconds.
            let pass = replays as u32;
            for (name, secs) in tracer.self_seconds_by_name(pass) {
                let name = name.strip_prefix(trace::EXTRA).unwrap_or(name);
                if name.ends_with("_s") {
                    layers.put(name, secs);
                }
            }
            let traced = tracer.pass_seconds(pass);
            layers.put("bench.trace_overhead_ratio", traced / base_wall_s.max(1e-9));
        }
        replays += 1;
        probes.before_work();
    }
    probes.take();

    let stamp = host::stamp(opts.seed);
    let path = out_dir().join(format!("trace_{}.json", opts.workload));
    let doc = format!(
        "{{\"workload\": \"{}\", \"host\": {{{stamp}}}, \"base_wall_s\": {base_wall_s}, \"spans\": {}}}\n",
        opts.workload,
        tracer.to_json()
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;

    layers.put("bench.base_wall_s", base_wall_s);
    layers.put("bench.base_cpu_s", base_cpu_s);
    layers.put("host.probe_ms", median(&probes.wall_ms()));
    layers.put("host.probe_spread", probes.spread());
    layers.put("host.cores", host::cores() as f64);
    layers.put("host.workers", workers as f64);
    let known = spec::spec().per_layer;
    for name in layers.names() {
        if !known.iter().any(|m| m.name == name) {
            return Err(format!(
                "layer metric `{name}` is not listed in BENCHMARK.json"
            ));
        }
    }
    // A layer the workload does not drive spent nothing and counted nothing.
    finish(
        opts,
        &known,
        |name| Some(layers.value(name).unwrap_or(0.0)),
        ledger,
        replays,
        &probes,
    )
}

fn finish(
    opts: &RunOpts,
    wanted: &[spec::MetricSpec],
    value: impl Fn(&str) -> Option<f64>,
    mut ledger: Ledger,
    samples: usize,
    probes: &Probes,
) -> Result<RunResult, String> {
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        let v = value(&m.name)
            .ok_or_else(|| format!("metric `{}` of BENCHMARK.json is not measured", m.name))?;
        if !v.is_finite() {
            eprintln!("FAILED metric {}: not a finite number", m.name);
            ledger.attempted += 1;
            ledger.failed += 1;
        }
        metrics.push((
            m.name.clone(),
            if v.is_finite() { v } else { 0.0 },
            m.unit.clone(),
        ));
    }
    let noisy = probes.spread() > NOISY_PROBE_SPREAD;
    eprintln!(
        "{} seed {} trace {}: {samples} samples, {} attempted, {} failed, probe spread {:.3}{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        ledger.attempted,
        ledger.failed,
        probes.spread(),
        if noisy { " (noisy host)" } else { "" },
    );
    Ok(RunResult {
        correct: ledger.failed == 0,
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics,
        samples,
        noisy,
    })
}
