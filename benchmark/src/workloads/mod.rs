//! The four workloads and what they share.
//!
//! Each workload builds its inputs from the seed in `setup` (timed as
//! `setup_s`, never inside a pass), runs untraced `pass`es for the
//! end-to-end metrics, and a traced `replay` that drives the same work
//! stage by stage through the crates' public functions for the per-layer
//! metrics.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use magellan_block::{Blocker, CandidateSet};
use magellan_core::evaluate::evaluate_matches;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_core::workflow::EmWorkflow;
use magellan_datagen::EmScenario;
use magellan_features::{generate_features, Feature, FeatureMatrix, PreparedPair};
use magellan_ml::{Learner, Metrics, RandomForestLearner};
use magellan_par::{ParConfig, ParStats};
use magellan_table::Table;

use crate::host;
use crate::stats::median;
use crate::trace::Tracer;

pub mod block_heavy;
pub mod falcon_selfservice;
pub mod match_heavy;
pub mod stream_churn;

pub const NAMES: [&str; 4] = [
    "match_heavy",
    "block_heavy",
    "falcon_selfservice",
    "stream_churn",
];

/// Whether an end-to-end metric says anything about a workload. A run's
/// result line carries every metric on every workload (a batch workload
/// has one batch per pass, so there the batch latencies repeat `wall_s`);
/// `run` and `compare` leave such a repeat out, so that one regression
/// is counted once.
pub fn applies(workload: &str, metric: &str) -> bool {
    workload == "stream_churn" || !metric.starts_with("batch_")
}

/// `Smoke` shrinks every size about 20x so the whole harness runs in
/// seconds (tests); results at that size are not comparable to `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl From<Metrics> for Quality {
    fn from(m: Metrics) -> Self {
        Quality {
            precision: m.precision(),
            recall: m.recall(),
            f1: m.f1(),
        }
    }
}

/// What one pass produced and cost.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Which input instance the pass ran on (`falcon_selfservice` cycles
    /// over several tasks; the others have one).
    pub key: usize,
    /// Hash of everything that must repeat exactly on the same `key`.
    pub digest: u64,
    pub quality: Quality,
    /// Wall and CPU seconds of the pass's timed region.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Latency of every user-visible batch inside the pass, in ms. A
    /// batch workload has one batch per pass.
    pub batch_ms: Vec<f64>,
}

impl PassOut {
    /// A pass of a batch workload: the whole pass is its one batch.
    pub fn one_batch(key: usize, digest: u64, quality: Quality, wall_s: f64, cpu_s: f64) -> Self {
        PassOut {
            key,
            digest,
            quality,
            wall_s,
            cpu_s,
            batch_ms: vec![wall_s * 1e3],
        }
    }
}

/// Per-layer samples, one per replay and metric name; the reported value
/// is the median across replays (a count repeats, so its median is it).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.samples.keys().map(String::as_str)
    }
}

/// What a traced replay writes to.
pub struct ReplayCtx<'a> {
    pub tracer: &'a mut Tracer,
    pub layers: &'a mut Layers,
    /// Median wall seconds of the untraced passes run just before.
    pub base_wall_s: f64,
    pub workers: usize,
}

pub trait Workload: Sized {
    /// Build every input of the passes from `seed`; files go under `dir`.
    fn setup(seed: u64, scale: Scale, dir: &Path) -> Result<Self, String>;

    /// One untraced pass, the `i`-th of this run, on `workers` threads
    /// where the workload's path is parallel at all.
    fn pass(&mut self, i: usize, workers: usize) -> Result<PassOut, String>;

    /// The same matches by other routes than the passes took on `workers`
    /// threads (a reference implementation, another worker count, a
    /// resumed run), once per run and outside every timed region: each
    /// named digest must equal the passes'.
    fn references(&mut self, workers: usize) -> Result<Vec<(&'static str, u64)>, String>;

    /// The `i`-th pass again, stage by stage under spans, on
    /// `ctx.workers` threads.
    fn replay(&mut self, i: usize, ctx: &mut ReplayCtx<'_>) -> Result<PassOut, String>;

    /// Whether a replay must produce the same digest as a pass.
    const REPLAY_REPEATS_PASS: bool = true;

    /// Distinct input instances passes cycle over (warm-up touches each).
    fn keys(&self) -> usize {
        1
    }
}

/// A worker count the passes did not run on: the match set must not
/// depend on it.
pub fn other_workers(workers: usize) -> usize {
    if workers == 1 {
        2
    } else {
        1
    }
}

/// Run `f`, returning its value with the wall and process-CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c0, t0) = (host::cpu_seconds(), Instant::now());
    let out = f();
    (out, t0.elapsed().as_secs_f64(), host::cpu_seconds() - c0)
}

/// FNV-1a folded over 64-bit words: the checksum behind every "must
/// repeat exactly" check.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Checksum of a match set and one more word that must repeat with it.
pub fn digest(pairs: &[(u32, u32)], extra: u64) -> u64 {
    let mut h = Fnv::default();
    h.add(extra);
    for &(l, r) in pairs {
        h.add(u64::from(l));
        h.add(u64::from(r));
    }
    h.0
}

/// A derived seed for the `i`-th sub-input of a run.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    host::splitmix64(seed ^ host::splitmix64(i))
}

/// Gold `(a_id, b_id)` pairs as row pairs of the generated tables.
pub fn gold_rows(s: &EmScenario) -> Result<HashSet<(u32, u32)>, String> {
    let a = s.table_a.key_index("id").map_err(|e| e.to_string())?;
    let b = s.table_b.key_index("id").map_err(|e| e.to_string())?;
    s.gold
        .iter()
        .map(|(x, y)| match (a.get(x), b.get(y)) {
            (Some(&ra), Some(&rb)) => Ok((ra as u32, rb as u32)),
            _ => Err(format!("gold pair ({x}, {y}) names a missing row")),
        })
        .collect()
}

/// Train a workflow on the scenario the way `exp_scaling` does, through
/// `run_development_stage` with an oracle labeler. The labelled sample is
/// larger than there (4 000 vs 700, calibration 300 vs 60): with the small
/// sample the learned threshold, and so precision and recall, moved by
/// ten points from seed to seed.
pub fn train_workflow(
    s: &EmScenario,
    blocker: Box<dyn Blocker>,
    scale: Scale,
) -> Result<EmWorkflow, String> {
    let (a, b) = (&s.table_a, &s.table_b);
    let features = generate_features(a, b, &["id"]).map_err(|e| e.to_string())?;
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let forest = RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    };
    let learners: Vec<&dyn Learner> = vec![&forest];
    let cfg = DevConfig {
        down_sample_to: Some(scale.pick(2_000, 300).min(b.nrows())),
        sample_size: scale.pick(4_000, 400),
        calibration_labels: scale.pick(300, 60),
        ..Default::default()
    };
    run_development_stage(a, b, vec![blocker], features, &learners, &mut labeler, &cfg)
        .map(|(wf, _)| wf)
        .map_err(|e| e.to_string())
}

pub fn score(
    matches: &CandidateSet,
    a: &Table,
    b: &Table,
    gold: &HashSet<(String, String)>,
) -> Result<Quality, String> {
    evaluate_matches(matches, a, b, "id", "id", gold)
        .map(Quality::from)
        .map_err(|e| e.to_string())
}

/// `extract_with_prepared` stage by stage: plan and prepare the records
/// the pairs reference, then compute one feature row per pair on the pool.
pub fn extract_traced(
    prepared: &mut PreparedPair<'_>,
    features: &[Feature],
    pairs: &[(u32, u32)],
    cfg: &ParConfig,
    t: &mut Tracer,
) -> Result<(FeatureMatrix, ParStats), String> {
    let plan = t
        .span("features.prepare_s", |_| {
            let plan = prepared.plan(features)?;
            prepared.prepare_for_pairs(&plan, pairs);
            Ok(plan)
        })
        .map_err(|e: magellan_table::TableError| e.to_string())?;
    Ok(t.span("features.compute_s", |_| {
        let (rows, stats) = magellan_par::map_indexed(pairs.len(), cfg, |p| {
            let (ra, rb) = pairs[p];
            prepared.compute_row(&plan, ra as usize, rb as usize)
        });
        let matrix = FeatureMatrix {
            names: features.iter().map(|f| f.name.clone()).collect(),
            rows,
            pairs: pairs.to_vec(),
        };
        (matrix, stats)
    }))
}

/// What the record-preparation cache did over a replay, and the size of
/// the last feature matrix it produced.
pub fn put_feature_counts(
    layers: &mut Layers,
    prepared: &PreparedPair<'_>,
    matrix: &FeatureMatrix,
) {
    let cache = prepared.cache_stats();
    layers.put("features.tokenize_calls", cache.tokenize_calls as f64);
    layers.put("features.cache_hit_rate", cache.hit_rate());
    layers.put("features.interner_tokens", prepared.interner_len() as f64);
    let row_bytes = matrix.names.len() * 8 + std::mem::size_of::<Vec<f64>>();
    layers.put("features.matrix_bytes", (matrix.len() * row_bytes) as f64);
}

/// The matching phase of `ProductionExecutor::run`, stage by stage: the
/// same public functions in the same order, each under its own span.
/// Returns the match set and the `ParStats` of every parallel region.
pub fn replay_matching(
    wf: &EmWorkflow,
    a: &Table,
    b: &Table,
    pairs: &[(u32, u32)],
    cfg: &ParConfig,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(CandidateSet, Vec<ParStats>), String> {
    let mut prepared = PreparedPair::new(a, b);
    let (matrix, extract_stats) = extract_traced(&mut prepared, &wf.features, pairs, cfg, t)?;
    put_feature_counts(layers, &prepared, &matrix);
    let (predicted, predict_stats) = t.span("ml.predict_s", |_| {
        magellan_par::map_indexed(matrix.len(), cfg, |i| {
            wf.matcher.predict_proba(&matrix.rows[i]) >= wf.threshold
        })
    });
    let matches: CandidateSet = t.span("core.rule_layer_s", |_| {
        wf.rule_layer
            .apply(&matrix, &predicted)
            .into_iter()
            .zip(pairs.iter().copied())
            .filter_map(|(d, p)| d.then_some(p))
            .collect()
    });
    layers.put(
        "ml.match_rate",
        matches.len() as f64 / pairs.len().max(1) as f64,
    );
    Ok((matches, vec![extract_stats, predict_stats]))
}

/// Layer metrics that are ratios of a replay's own spans and counts.
pub fn put_derived(layers: &mut Layers, t: &Tracer, pass: u32, pairs: usize, regions: &[ParStats]) {
    let secs = t.self_seconds_by_name(pass);
    let rate = |n: usize, name: &str| secs.get(name).map_or(0.0, |s| n as f64 / s.max(1e-9));
    layers.put("features.pairs_per_s", rate(pairs, "features.compute_s"));
    layers.put("ml.rows_per_s", rate(pairs, "ml.predict_s"));
    let busy: f64 = regions
        .iter()
        .flat_map(|r| &r.worker_busy)
        .map(|d| d.as_secs_f64())
        .sum();
    let capacity: f64 = regions
        .iter()
        .map(|r| r.n_workers as f64 * r.elapsed.as_secs_f64())
        .sum();
    layers.put("par.busy_share", busy / capacity.max(1e-9));
    layers.put(
        "par.chunks_stolen",
        regions.iter().map(|r| r.chunks_stolen).sum::<usize>() as f64,
    );
}

/// `par.speedup_vs_1`: the median of three passes on one worker against
/// the median of the base passes on the host's worker count.
pub fn put_speedup(
    layers: &mut Layers,
    base_wall_s: f64,
    mut one_worker_pass: impl FnMut() -> Result<PassOut, String>,
) -> Result<(), String> {
    let walls = (0..3)
        .map(|_| one_worker_pass().map(|o| o.wall_s))
        .collect::<Result<Vec<_>, _>>()?;
    layers.put("par.speedup_vs_1", median(&walls) / base_wall_s.max(1e-9));
    Ok(())
}

/// Share of the gold pairs that survive blocking, and candidates per gold.
pub fn put_blocking_counts(layers: &mut Layers, cands: &CandidateSet, gold: &HashSet<(u32, u32)>) {
    let kept = gold.iter().filter(|&&p| cands.contains(p)).count();
    layers.put("block.candidates", cands.len() as f64);
    layers.put(
        "block.candidates_per_gold",
        cands.len() as f64 / gold.len().max(1) as f64,
    );
    layers.put("block.recall", kept as f64 / gold.len().max(1) as f64);
}

/// What the sim-join layer counted when run on its own beside the pass.
pub fn put_join_counts(layers: &mut Layers, vocab: usize, join: &magellan_par::JoinStats) {
    layers.put("simjoin.vocab", vocab as f64);
    layers.put("simjoin.position_kill_rate", join.position_kill_rate());
    layers.put("simjoin.suffix_kill_rate", join.suffix_kill_rate());
    layers.put("simjoin.verify_steps", join.verify_steps as f64);
}

/// The non-null display strings of a column, as the blockers read them.
pub fn column_strings(t: &Table, attr: &str) -> Result<Vec<Option<String>>, String> {
    let idx = t.schema().try_index_of(attr).map_err(|e| e.to_string())?;
    Ok(t.rows()
        .map(|r| {
            let v = t.value(r, idx);
            (!v.is_null()).then(|| v.display_string())
        })
        .collect())
}
