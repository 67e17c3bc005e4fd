//! Incremental EM engine experiment: O(delta) update cost vs from-scratch
//! rebuild at 1% churn.
//!
//! Seeds a 4k-row-per-side corpus into the delta-maintained join engine,
//! then applies churn batches (1% of the corpus per batch: a seeded mix of
//! inserts, deletes, and in-place updates from a
//! [`magellan_faults::StreamPlan`]). Per batch it measures the delta
//! apply, measures the from-scratch batch rebuild over the same records,
//! and asserts the live view is **bit-identical** to the rebuild at worker
//! counts 1/2/4/8. A second section drives the full streaming pipeline
//! ([`magellan_core::StreamSession`]: join → candidates → dirty-pair
//! features → dirty-pair rescore) and checks its matched view against the
//! from-scratch oracle.
//!
//! Writes `results/exp_incremental.txt` and `BENCH_incremental.json`
//! (updates/sec and the delta-vs-rebuild speedup — acceptance floor 10x);
//! a `BENCH_SMOKE=1` run writes neither.

use std::fmt::Write as _;
use std::time::Instant;

use magellan_core::{StreamSession, TextGen};
use magellan_faults::{SimClock, StreamOp, StreamPlan};
use magellan_features::{Feature, FeatureKind, TokSpec};
use magellan_ml::{Dataset, FlatForest, RandomForestLearner};
use magellan_obs::splitmix64;
use magellan_par::{JoinStats, ParConfig};
use magellan_simjoin::{IncrementalJoin, RecordMutation, SetSimMeasure, Side};
use magellan_textsim::tokenize::WhitespaceTokenizer;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic 3–8-token record text.
fn synth_text(seed: u64, vocab: u64) -> String {
    let n = 3 + splitmix64(seed) % 6;
    (0..n)
        .map(|i| format!("tok{}", splitmix64(seed ^ (i + 1)) % vocab))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Materialize the next `n` plan steps against the engine's current alive
/// population (mirrors `StreamSession::synth_batch`, engine edition).
fn synth_batch(
    engine: &IncrementalJoin,
    plan: &StreamPlan,
    vocab: u64,
    start: u64,
    n: usize,
) -> Vec<RecordMutation> {
    let alive = |side: Side| -> Vec<usize> {
        engine
            .texts(side)
            .iter()
            .enumerate()
            .filter_map(|(rid, t)| t.as_ref().map(|_| rid))
            .collect()
    };
    let (alive_l, alive_r) = (alive(Side::Left), alive(Side::Right));
    (start..start + n as u64)
        .map(|step| {
            let side_of = |l: bool| if l { Side::Left } else { Side::Right };
            let pick = |l: bool, v: u64| -> Option<usize> {
                let pool = if l { &alive_l } else { &alive_r };
                (!pool.is_empty()).then(|| pool[(v % pool.len() as u64) as usize])
            };
            match plan.op(step) {
                StreamOp::Insert { left } => RecordMutation::Insert {
                    side: side_of(left),
                    text: Some(synth_text(plan.text_seed(step), vocab)),
                },
                StreamOp::Delete { left, victim } => match pick(left, victim) {
                    Some(rid) => RecordMutation::Delete {
                        side: side_of(left),
                        rid,
                    },
                    None => RecordMutation::Insert {
                        side: side_of(left),
                        text: Some(synth_text(plan.text_seed(step), vocab)),
                    },
                },
                StreamOp::Update { left, victim } => match pick(left, victim) {
                    Some(rid) => RecordMutation::Update {
                        side: side_of(left),
                        rid,
                        text: Some(synth_text(plan.text_seed(step), vocab)),
                    },
                    None => RecordMutation::Insert {
                        side: side_of(left),
                        text: Some(synth_text(plan.text_seed(step), vocab)),
                    },
                },
            }
        })
        .collect()
}

fn assert_view_equals(
    view: &[magellan_simjoin::JoinPair],
    rebuilt: &[magellan_simjoin::JoinPair],
    what: &str,
) {
    assert_eq!(view.len(), rebuilt.len(), "{what}: cardinality diverged");
    for (a, b) in view.iter().zip(rebuilt) {
        assert_eq!((a.l, a.r), (b.l, b.r), "{what}: pair set diverged");
        assert_eq!(
            a.sim.to_bits(),
            b.sim.to_bits(),
            "{what}: sim bits diverged"
        );
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn fixture_forest() -> FlatForest {
    let mut d = Dataset::with_dims(2);
    for i in 0..60 {
        let hi = i % 2 == 0;
        let base = if hi { 0.8 } else { 0.15 };
        d.push(
            &[
                base + 0.01 * (i % 7) as f64,
                base + 0.01 * ((i + 3) % 5) as f64,
            ],
            hi,
        );
    }
    FlatForest::from_forest(
        &RandomForestLearner {
            n_trees: 5,
            ..Default::default()
        }
        .fit_forest(&d),
    )
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let n = if smoke { 400 } else { 4000 };
    let batches = if smoke { 6 } else { 50 };
    let churn = (n / 100).max(4); // 1% of the corpus per batch
    let vocab = (n / 5).max(40) as u64;
    let measure = SetSimMeasure::Jaccard(0.5);
    let tok = WhitespaceTokenizer::new();
    let plan = StreamPlan::churn(17);

    let mut txt = String::new();
    writeln!(
        txt,
        "Incremental EM engine — delta apply vs from-scratch rebuild"
    )
    .unwrap();
    writeln!(
        txt,
        "{n} rows/side seed corpus, {batches} batches x {churn} mutations (1% churn), jaccard 0.5, smoke = {smoke}"
    )
    .unwrap();

    // Seed corpus: one big insert batch per side, identical for every
    // worker count.
    let seed_batch: Vec<RecordMutation> = (0..2 * n)
        .map(|i| RecordMutation::Insert {
            side: if i % 2 == 0 { Side::Left } else { Side::Right },
            text: Some(synth_text(0xC0FFEE ^ i as u64, vocab)),
        })
        .collect();

    let mut engines: Vec<(usize, IncrementalJoin)> = WORKERS
        .iter()
        .map(|&w| {
            let mut e = IncrementalJoin::new(measure);
            e.apply_batch(&seed_batch, &tok, &ParConfig::workers(w));
            (w, e)
        })
        .collect();

    // Churn loop: time the delta apply (w=1 engine) and the rebuild, and
    // hold every worker count's live view to the rebuild oracle.
    let mut t_delta = Vec::with_capacity(batches);
    let mut t_rebuild = Vec::with_capacity(batches);
    let mut total_ops = 0usize;
    let mut pairs_added = 0u64;
    let mut pairs_removed = 0u64;
    let mut cascade = JoinStats::default();
    let mut step = 0u64;
    for _ in 0..batches {
        let batch = synth_batch(&engines[0].1, &plan, vocab, step, churn);
        step += churn as u64;
        total_ops += batch.len();
        for (w, engine) in &mut engines {
            let cfg = ParConfig::workers(*w);
            if *w == 1 {
                let t = Instant::now();
                let (deltas, stats) = engine.apply_batch(&batch, &tok, &cfg);
                t_delta.push(t.elapsed().as_secs_f64());
                cascade.merge(&stats);
                for d in &deltas {
                    match d {
                        magellan_simjoin::PairDelta::Added(_) => pairs_added += 1,
                        magellan_simjoin::PairDelta::Removed { .. } => pairs_removed += 1,
                    }
                }
            } else {
                engine.apply_batch(&batch, &tok, &cfg);
            }
        }
        let t = Instant::now();
        let rebuilt = engines[0].1.rebuild_from_scratch(&tok);
        t_rebuild.push(t.elapsed().as_secs_f64());
        for (w, engine) in &engines {
            assert_view_equals(
                &engine.live_pairs(),
                &rebuilt,
                &format!("workers={w} after batch {}", t_delta.len()),
            );
        }
    }

    let delta_median = median(t_delta.clone());
    let rebuild_median = median(t_rebuild.clone());
    let speedup = rebuild_median / delta_median;
    let total_delta_s: f64 = t_delta.iter().sum();
    let updates_per_sec = total_ops as f64 / total_delta_s;

    writeln!(txt).unwrap();
    writeln!(
        txt,
        "delta apply:  median {:.3}ms/batch ({updates_per_sec:.0} updates/sec)",
        delta_median * 1e3
    )
    .unwrap();
    writeln!(
        txt,
        "rebuild:      median {:.3}ms/batch",
        rebuild_median * 1e3
    )
    .unwrap();
    writeln!(
        txt,
        "delta-vs-rebuild speedup: {speedup:.1}x (acceptance floor: 10x at 1% churn)"
    )
    .unwrap();
    writeln!(
        txt,
        "deltas: +{pairs_added} -{pairs_removed} pairs over {total_ops} mutations; live={}",
        engines[0].1.n_live_pairs()
    )
    .unwrap();
    writeln!(
        txt,
        "delta cascade: {} probes, {:.1} candidates/probe ({} killed by position), {:.2} verified/pair, {:.2} verify_steps/verified",
        cascade.delta_probes,
        cascade.candidates as f64 / cascade.delta_probes.max(1) as f64,
        cascade.killed_by_position,
        cascade.verified as f64 / cascade.pairs.max(1) as f64,
        cascade.verify_steps as f64 / cascade.verified.max(1) as f64,
    )
    .unwrap();
    writeln!(
        txt,
        "live view bit-identical to rebuild after every batch at workers {:?}",
        WORKERS
    )
    .unwrap();
    if !smoke {
        assert!(
            speedup >= 10.0,
            "delta apply must be >=10x faster than rebuild at 1% churn, got {speedup:.1}x"
        );
    }

    // ------------------------------------------------------------------
    // Full streaming pipeline: join -> candidates -> dirty features ->
    // dirty rescore, held to its own from-scratch oracle.
    // ------------------------------------------------------------------
    let stream_n = (n / 8).max(40);
    let stream_batches = if smoke { 4 } else { 12 };
    let features = vec![
        Feature::new("text", "text", FeatureKind::Jaccard(TokSpec::Word)),
        Feature::new("text", "text", FeatureKind::Dice(TokSpec::Word)),
    ];
    let mut session = StreamSession::new(
        measure,
        features,
        fixture_forest(),
        0.5,
        ParConfig::workers(2),
    );
    // A small fixed vocabulary keeps the matched view non-trivial: the
    // stream section demonstrates the end-to-end pipeline (engine ->
    // candidates -> dirty features -> rescoring), not corpus scale, and
    // a scale-proportional vocabulary starves Jaccard >= 0.5 of matches.
    let gen = TextGen {
        vocab: 14,
        min_tokens: 3,
        max_tokens: 6,
    };
    let mut clock = SimClock::new();
    let t = Instant::now();
    let mut stream_ops = 0usize;
    let mut last = Default::default();
    for _ in 0..stream_batches {
        last = session
            .run_plan_batch(&plan, &gen, stream_n / stream_batches + 1, &mut clock, 1.0)
            .expect("stream batch");
        stream_ops += last.mutations;
    }
    let stream_s = t.elapsed().as_secs_f64();
    let live = session.matched_pairs();
    let oracle = session.rebuild_oracle().expect("oracle");
    assert!(
        !live.is_empty(),
        "stream fixture produced no matches — the oracle check would be vacuous"
    );
    assert_eq!(
        live.len(),
        oracle.len(),
        "stream matched view diverged from oracle"
    );
    for ((lk, lp), (ok, op)) in live.iter().zip(&oracle) {
        assert_eq!(lk, ok, "stream matched pair set diverged");
        assert_eq!(lp.to_bits(), op.to_bits(), "stream score bits diverged");
    }
    let stream_ups = stream_ops as f64 / stream_s;
    writeln!(txt).unwrap();
    writeln!(
        txt,
        "stream pipeline: {stream_ops} mutations in {stream_batches} batches -> {stream_ups:.0} updates/sec end-to-end"
    )
    .unwrap();
    writeln!(
        txt,
        "stream state: {} candidates, {} matches (matched view == from-scratch oracle, bit-exact)",
        last.live_candidates, last.live_matches
    )
    .unwrap();

    magellan_obs::log!(info, "{txt}");

    let json = format!(
        "{{\n  \"experiment\": \"incremental\",\n  \"workload\": {{\"rows_per_side\": {n}, \"churn_per_batch\": {churn}, \"batches\": {batches}, \"measure\": \"jaccard\", \"threshold\": 0.5, \"smoke\": {smoke}}},\n  \"updates_per_sec\": {updates_per_sec:.0},\n  \"delta_batch_median_ms\": {:.4},\n  \"rebuild_median_ms\": {:.4},\n  \"delta_vs_rebuild_speedup\": {speedup:.1},\n  \"pairs_added\": {pairs_added},\n  \"pairs_removed\": {pairs_removed},\n  \"live_pairs\": {},\n  \"workers_bit_identical\": [1, 2, 4, 8],\n  \"stream\": {{\"updates_per_sec\": {stream_ups:.0}, \"matches\": {}, \"oracle_equal\": true}}\n}}\n",
        delta_median * 1e3,
        rebuild_median * 1e3,
        engines[0].1.n_live_pairs(),
        live.len(),
    );

    // Best-effort writes (a read-only checkout is fine); a smoke run's
    // figures are not the checked-in results, so it writes neither file.
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        let _ = std::fs::write("results/exp_incremental.txt", &txt);
        let _ = std::fs::write("BENCH_incremental.json", &json);
    }
}
