//! Sim-join engine experiment: pairs/sec of the CSR engine (flat
//! postings, accumulating positional + suffix pruning, one bounded
//! verifier that gallops on ≥16× skew, cost-based probe side) vs the
//! pre-CSR HashMap engine it replaced, across a collection-size ×
//! threshold × token-frequency-skew grid, plus the pruning-cascade kill
//! rates.
//!
//! A last row, `tokenize_collection`, times what runs *before* any join:
//! `TokenizedCollection::build` over the `products` titles (100 000 ×
//! 6 000, the end-to-end benchmark's `block_heavy` shape) against the
//! preserved `String`-per-token, HashMap-ranked build
//! ([`magellan_bench::legacy`]), after asserting the two are bit-identical.
//!
//! The `short_titles` row joins that collection as `block_heavy` does and
//! holds the position-aware size window and the remainder bitmaps
//! (DESIGN.md §7.1) by two exact counts.
//!
//! The `topk` row times a top-k query — the 300 most similar pairs of two
//! `addresses` tables at Jaccard ≥ 0.2, what Falcon's pair sampling asks —
//! through [`join_tokenized_topk`] against the threshold join + sort +
//! truncate it is defined as, after asserting the two are bit-identical.
//!
//! Writes `results/exp_simjoin.txt` (human-readable table) and
//! `BENCH_simjoin.json` at the repo root (the ISSUE's before/after
//! record; "before" = `join_tokenized_hashmap`, byte-for-byte the seed
//! engine, still compiled in as the oracle baseline). A `BENCH_SMOKE=1`
//! run writes neither.

use std::fmt::Write as _;
use std::time::Instant;

use magellan_bench::legacy;
use magellan_block::debugger::concat_columns;
use magellan_datagen::{domains, DirtModel, ScenarioConfig};
use magellan_par::ParConfig;
use magellan_simjoin::{
    join_tokenized, join_tokenized_hashmap, join_tokenized_par_side, join_tokenized_sharded,
    join_tokenized_stats, join_tokenized_topk, ProbeSide, SetSimMeasure, TokenizedCollection,
};
use magellan_textsim::tokenize::{AlphanumericTokenizer, WhitespaceTokenizer};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Best-of-reps: the minimum is the standard noise-robust estimator for
/// a deterministic workload (every sample is the true cost plus
/// non-negative scheduler/cache noise). Used inside the rep-by-rep A/B
/// rows (`tokenize_collection`, `topk`), whose medians are taken over
/// these.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Deterministic token soup with controllable frequency skew (`skew = 0`
/// is uniform; larger values concentrate mass on heavy-hitter tokens).
fn make_strings(n: usize, seed: u64, vocab: usize, skew: f64) -> Vec<Option<String>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|_| {
            let k = 3 + (next() % 6) as usize;
            Some(
                (0..k)
                    .map(|_| {
                        let u = next() as f64 / u32::MAX as f64;
                        format!("tok{}", (vocab as f64 * u.powf(1.0 + skew)) as usize)
                    })
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        })
        .collect()
}

/// Wide near-duplicate pairs (150–249 tokens over a 1M-token
/// vocabulary) for the wide_sparse grid: each right record is a
/// perturbed twin of its left record (every token kept with p = 0.7,
/// else redrawn), so Jaccard lands around 0.54 and a 0.5 threshold
/// makes almost every verification *succeed* — the per-element failure
/// bound cannot early-exit a succeeding merge, so the verifier walks the
/// full multi-hundred-step merge, where the 3–8-token grids resolve in
/// 1–2 steps. This is the grid on which a block-branchless merge
/// (0.89×) and a bitset kernel (0.62×, dense variant) lost to the plain
/// walk and were retired (DESIGN.md §7.2).
fn make_wide_pairs(
    n: usize,
    seed: u64,
    vocab: usize,
) -> (Vec<Option<String>>, Vec<Option<String>>) {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut left = Vec::with_capacity(n);
    let mut right = Vec::with_capacity(n);
    for _ in 0..n {
        let k = 150 + (next() % 100) as usize;
        let base: Vec<usize> = (0..k).map(|_| next() as usize % vocab).collect();
        let twin: Vec<usize> = base
            .iter()
            .map(|&t| {
                if next() % 100 < 70 {
                    t
                } else {
                    next() as usize % vocab
                }
            })
            .collect();
        let render = |toks: &[usize]| {
            Some(
                toks.iter()
                    .map(|t| format!("tok{t}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        };
        left.push(render(&base));
        right.push(render(&twin));
    }
    (left, right)
}

/// Long records (120–167 tokens) for the size-skew grid: probing a short
/// record against these puts a ≥16× length ratio on the verification
/// operands, the shape the verifier gallops on.
fn make_long_strings(n: usize, seed: u64, vocab: usize) -> Vec<Option<String>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|_| {
            let k = 120 + (next() % 48) as usize;
            Some(
                (0..k)
                    .map(|_| format!("tok{}", next() as usize % vocab))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        })
        .collect()
}

/// The `tokenize_collection` row: records/s of the collection build on
/// product titles, against the preserved build. Returns the row's JSON
/// object and the collection.
fn tokenize_collection_row(
    smoke: bool,
    reps: usize,
    txt: &mut String,
) -> (String, TokenizedCollection) {
    let (rows_left, rows_right) = if smoke {
        (8_000, 400)
    } else {
        (100_000, 6_000)
    };
    let scenario = domains::products(&ScenarioConfig {
        size_a: rows_left,
        size_b: rows_right,
        n_matches: rows_right / 2,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let left = scenario
        .table_a
        .column_strs("title")
        .expect("products have titles");
    let right = scenario
        .table_b
        .column_strs("title")
        .expect("products have titles");
    let tok = AlphanumericTokenizer::as_set();
    let records = (left.len() + right.len()) as f64;

    // Bit-identity before timing: records, vocabulary, interner ids.
    let coll = legacy::assert_build_is_bit_identical(&left, &right, &tok, &[]);
    let build_old = || legacy::tokenized_collection(&left, &right, &legacy::alphanumeric_set, &[]);
    assert_eq!(
        build_old()
            .left
            .iter()
            .collect::<magellan_simjoin::TokenColumn>(),
        coll.left,
        "preserved tokenizer diverged"
    );

    // Rep by rep, so host drift lands on both sides.
    let (mut t_new, mut t_old) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        t_new.push(best_secs(1, || {
            std::hint::black_box(TokenizedCollection::build(&left, &right, &tok));
        }));
        t_old.push(best_secs(1, || {
            std::hint::black_box(build_old());
        }));
    }
    let (t_new, t_old) = (median(&mut t_new), median(&mut t_old));
    let speedup = t_old / t_new;

    writeln!(txt).unwrap();
    writeln!(
        txt,
        "[tokenize_collection] products titles {rows_left} x {rows_right}, alnum set tokens, vocab={}",
        coll.vocab_size
    )
    .unwrap();
    writeln!(
        txt,
        "build: preserved {:.0} records/s ({t_old:.3}s) vs now {:.0} records/s ({t_new:.3}s) -> {speedup:.2}x (floor: 1.5x)",
        records / t_old,
        records / t_new
    )
    .unwrap();
    if !smoke {
        assert!(
            speedup >= 1.5,
            "collection build only {speedup:.2}x over the preserved build (floor 1.5x)"
        );
    }
    let json = format!(
        "{{\"rows_left\": {rows_left}, \"rows_right\": {rows_right}, \"vocab\": {}, \"records_per_sec\": {:.0}, \"legacy_records_per_sec\": {:.0}, \"speedup_vs_legacy\": {speedup:.2}}}",
        coll.vocab_size,
        records / t_new,
        records / t_old,
    );
    (json, coll)
}

/// The cascade counters of one join as a JSON object.
fn join_stats_json(s: &magellan_par::JoinStats) -> String {
    format!(
        "{{\"probes\": {}, \"candidates\": {}, \"killed_by_size\": {}, \"killed_by_position\": {}, \"killed_by_suffix\": {}, \"verified\": {}, \"verify_steps\": {}, \"position_kill_rate\": {:.4}, \"suffix_kill_rate\": {:.4}}}",
        s.probes,
        s.candidates,
        s.killed_by_size,
        s.killed_by_position,
        s.killed_by_suffix,
        s.verified,
        s.verify_steps,
        s.position_kill_rate(),
        s.suffix_kill_rate(),
    )
}

/// The `short_titles` row: `block_heavy`'s join (K ∈ {1, 4}, one worker).
/// Gated, smoke runs too, by two counts: records touched per probe (what
/// the position-narrowed size window keeps out) and records verified per
/// pair (what the remainder bitmaps keep out), both at K = 1.
fn short_titles_row(coll: &TokenizedCollection, reps: usize, txt: &mut String) -> String {
    let cfg = ParConfig::serial();
    let join =
        |k| join_tokenized_sharded(coll, SetSimMeasure::Jaccard(0.7), ProbeSide::Auto, k, &cfg);
    let (nl, nr) = (coll.left.len(), coll.right.len());
    writeln!(
        txt,
        "\n[short_titles] products titles {nl} x {nr}, jaccard=0.7, 1 worker"
    )
    .unwrap();
    let mut shards = Vec::new();
    let (mut per_probe, mut per_pair) = (0.0, 0.0);
    for k in [1usize, 4] {
        let js = join(k).1.join;
        if k == 1 {
            per_probe = js.candidates as f64 / js.probes.max(1) as f64;
            assert!(per_probe <= 3.0, "{per_probe:.2} records touched per probe");
        }
        per_pair = js.verified as f64 / js.pairs.max(1) as f64;
        assert!(
            per_pair <= 1.1,
            "K={k}: {per_pair:.2} records verified per pair"
        );
        let t = median_secs(reps, || {
            std::hint::black_box(join(k));
        });
        let row = format!(
            "{{\"shards\": {k}, \"pairs\": {}, \"probes_per_sec\": {:.0}, \"join_stats\": {}}}",
            js.pairs,
            js.probes as f64 / t,
            join_stats_json(&js)
        );
        writeln!(txt, "{row} ({t:.4}s)").unwrap();
        shards.push(format!("      {row}"));
    }
    writeln!(
        txt,
        "candidates / probes = {per_probe:.3} at K = 1 (ceiling: 3)"
    )
    .unwrap();
    writeln!(txt, "verified / pairs = {per_pair:.3} (ceiling: 1.1)").unwrap();
    format!(
        "{{\"rows_left\": {nl}, \"rows_right\": {nr}, \"measure\": \"jaccard\", \"threshold\": 0.7, \"workers\": 1, \"candidates_per_probe\": {per_probe:.3}, \"verified_per_pair\": {per_pair:.3},\n     \"by_shards\": [\n{}\n     ]}}",
        shards.join(",\n")
    )
}

/// The `topk` row: pairs kept per second by the top-k join on the
/// concatenated `addresses` columns, and its speed-up over join + sort +
/// truncate. Returns the row's JSON object.
fn topk_row(smoke: bool, reps: usize, txt: &mut String) -> String {
    let rows = if smoke { 500 } else { 2_000 };
    // Falcon's shape: a sample of 600 on 2 000 rows, half of it plausible.
    let (k, floor) = (rows * 3 / 20, SetSimMeasure::Jaccard(0.2));
    let scenario = domains::addresses(&ScenarioConfig {
        size_a: rows,
        size_b: rows,
        n_matches: rows * 3 / 10,
        dirt: DirtModel::light(),
        seed: 77,
    });
    let non_key: Vec<usize> = (1..scenario.table_a.ncols()).collect();
    let coll = TokenizedCollection::build(
        &concat_columns(&scenario.table_a, &non_key),
        &concat_columns(&scenario.table_b, &non_key),
        &AlphanumericTokenizer::as_set(),
    );
    let sort_and_take = || {
        let mut joined = join_tokenized(&coll, floor);
        joined.sort_by(|x, y| y.sim.partial_cmp(&x.sim).expect("similarities are finite"));
        joined.truncate(k);
        joined
    };

    // Bit-identity before timing, smoke runs included.
    let (top, stats) = join_tokenized_topk(&coll, floor, k, |_, _| true);
    let bits = |ps: &[magellan_simjoin::JoinPair]| -> Vec<(usize, usize, u64)> {
        ps.iter().map(|p| (p.l, p.r, p.sim.to_bits())).collect()
    };
    assert_eq!(
        bits(&top),
        bits(&sort_and_take()),
        "top-k diverged from sort-and-take"
    );
    let (n_floor, full) = {
        let (joined, full) = join_tokenized_stats(&coll, floor, ProbeSide::Auto);
        (joined.len(), full)
    };

    // Rep by rep, so host drift lands on both sides.
    let (mut t_topk, mut t_sort) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(5) {
        t_topk.push(best_secs(3, || {
            std::hint::black_box(join_tokenized_topk(&coll, floor, k, |_, _| true));
        }));
        t_sort.push(best_secs(3, || {
            std::hint::black_box(sort_and_take());
        }));
    }
    let (t_topk, t_sort) = (median(&mut t_topk), median(&mut t_sort));
    let speedup = t_sort / t_topk;

    writeln!(txt).unwrap();
    writeln!(
        txt,
        "[topk] addresses {rows} x {rows}, all non-key columns, k={k}, floor jaccard 0.2 ({n_floor} pairs at the floor)"
    )
    .unwrap();
    writeln!(
        txt,
        "join+sort+truncate {t_sort:.5}s (verified {}) vs top-k {t_topk:.5}s (verified {}, candidates {}) -> {speedup:.2}x (floor: 2x)",
        full.verified, stats.verified, stats.candidates
    )
    .unwrap();
    if !smoke {
        assert!(
            speedup >= 2.0,
            "top-k join only {speedup:.2}x over join + sort + truncate (floor 2x)"
        );
    }
    format!(
        "{{\"rows_per_side\": {rows}, \"k\": {k}, \"floor\": 0.2, \"pairs_at_floor\": {n_floor}, \"verified\": {}, \"threshold_join_verified\": {}, \"pairs_kept_per_sec\": {:.0}, \"speedup_vs_sort_and_take\": {speedup:.2}}}",
        stats.verified,
        full.verified,
        top.len() as f64 / t_topk,
    )
}

struct Grid {
    name: &'static str,
    skew: f64,
    threshold: f64,
    measure: fn(f64) -> SetSimMeasure,
    measure_name: &'static str,
    vocab: usize,
    /// Shrink the right side to long records (`n / 25` of them): total
    /// tokens stay below the left side's, so Auto probes short-vs-long.
    long_right: bool,
    /// Both sides 250 wide records, right a perturbed twin of left
    /// (see [`make_wide_pairs`]): every verification runs a
    /// multi-hundred-step merge to completion.
    wide: bool,
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let n = if smoke { 400 } else { 4000 };
    let reps = if smoke { 2 } else { 5 };
    let jaccard: fn(f64) -> SetSimMeasure = SetSimMeasure::Jaccard;
    let overlap: fn(f64) -> SetSimMeasure = |t| SetSimMeasure::OverlapSize(t as usize);
    let grids = [
        Grid {
            name: "skewed",
            skew: 3.0,
            threshold: 0.7,
            measure: jaccard,
            measure_name: "jaccard",
            vocab: 800,
            long_right: false,
            wide: false,
        },
        Grid {
            name: "skewed_loose",
            skew: 3.0,
            threshold: 0.5,
            measure: jaccard,
            measure_name: "jaccard",
            vocab: 800,
            long_right: false,
            wide: false,
        },
        Grid {
            name: "uniform",
            skew: 0.0,
            threshold: 0.7,
            measure: jaccard,
            measure_name: "jaccard",
            vocab: 800,
            long_right: false,
            wide: false,
        },
        // ≥16× record-length skew: 3–8-token probes against 120–167-token
        // indexed records. Regression guard for the verifier's gallop —
        // the symmetric grids above never reach the gallop ratio.
        Grid {
            name: "size_skew16",
            skew: 0.0,
            threshold: 2.0,
            measure: overlap,
            measure_name: "overlap_size",
            vocab: 4000,
            long_right: true,
            wide: false,
        },
        // 150–249-token near-duplicate pairs over a 1M-token vocabulary:
        // nearly every verification succeeds and runs a full
        // multi-hundred-step merge — the shape where the cost of the walk
        // itself shows up undiluted (see `make_wide_pairs`).
        Grid {
            name: "wide_sparse",
            skew: 0.0,
            threshold: 0.5,
            measure: jaccard,
            measure_name: "jaccard",
            vocab: 1_000_000,
            long_right: false,
            wide: true,
        },
    ];
    let tok = WhitespaceTokenizer::new();

    let mut txt = String::new();
    let mut json_grids = String::new();
    writeln!(
        txt,
        "Sim-join engine — CSR (flat postings + positional/suffix pruning + bounded verify) vs HashMap seed engine"
    )
    .unwrap();
    writeln!(
        txt,
        "{n} x {n} records per side, reps = {reps}, smoke = {smoke}"
    )
    .unwrap();
    let cores = ParConfig::available().n_workers;
    writeln!(
        txt,
        "host exposes {cores} core(s); the w>1 rows measure threading overhead on a 1-core host"
    )
    .unwrap();

    let mut skewed_speedup_w1 = 0.0;
    for grid in &grids {
        // Wide sides stay at 250 records even in smoke: the grid's
        // premise (sparse multi-hundred-token spans after rarest-first
        // remapping) needs the full-size token universe.
        let (left, right) = if grid.wide {
            make_wide_pairs(250, 101, grid.vocab)
        } else {
            let left = make_strings(n, 101, grid.vocab, grid.skew);
            let right = if grid.long_right {
                make_long_strings((n / 25).max(8), 103, grid.vocab)
            } else {
                make_strings(n, 103, grid.vocab, grid.skew)
            };
            (left, right)
        };
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measure = (grid.measure)(grid.threshold);

        // Bit-identity check before timing anything: pair set, order,
        // and exact f64 similarities must match the seed engine.
        let (csr_pairs, stats) = join_tokenized_stats(&coll, measure, ProbeSide::Auto);
        let hash_pairs = join_tokenized_hashmap(&coll, measure);
        assert_eq!(csr_pairs.len(), hash_pairs.len(), "CSR engine diverged");
        for (cp, hp) in csr_pairs.iter().zip(&hash_pairs) {
            assert_eq!((cp.l, cp.r), (hp.l, hp.r), "CSR engine diverged");
            assert_eq!(
                cp.sim.to_bits(),
                hp.sim.to_bits(),
                "CSR similarity diverged"
            );
        }
        let n_pairs = csr_pairs.len();
        if grid.long_right {
            // The whole point of this grid: the ≥16× operand skew must
            // actually be galloped over (about 6 steps per verification;
            // a linear walk of the same operands takes about 100).
            assert!(
                stats.verify_steps < 20 * stats.verified,
                "size-skew grid walked its long sides: {} steps for {} verifications",
                stats.verify_steps,
                stats.verified
            );
        }
        if grid.wide {
            // The whole point of this grid: verifications must actually
            // run long balanced merges (about 100 steps each).
            assert!(
                stats.verify_steps > 50 * stats.verified,
                "wide grid never ran a long balanced merge"
            );
        }

        writeln!(txt).unwrap();
        writeln!(
            txt,
            "[{}] skew={} {}={} |pairs|={n_pairs}",
            grid.name, grid.skew, grid.measure_name, grid.threshold
        )
        .unwrap();
        writeln!(txt, "cascade: {}", join_stats_json(&stats)).unwrap();

        let t_hash = median_secs(reps, || {
            std::hint::black_box(join_tokenized_hashmap(&coll, measure));
        });
        let ps_hash = n_pairs as f64 / t_hash;

        writeln!(
            txt,
            "{:>3}  {:>15}  {:>15}  {:>8}",
            "w", "hashmap p/s", "csr p/s", "speedup"
        )
        .unwrap();

        let mut json_rows = String::new();
        let mut speedup_w1 = 0.0;
        for w in WORKERS {
            let cfg = ParConfig::workers(w);
            let t_csr = median_secs(reps, || {
                std::hint::black_box(join_tokenized_par_side(
                    &coll,
                    measure,
                    ProbeSide::Auto,
                    &cfg,
                ));
            });
            let ps_csr = n_pairs as f64 / t_csr;
            // Time-based, so a zero-pair grid still reports a ratio.
            let speedup = t_hash / t_csr;
            if w == 1 {
                speedup_w1 = speedup;
            }
            let probes_ps = stats.probes as f64 / t_csr;
            writeln!(
                txt,
                "{w:>3}  {ps_hash:>15.0}  {ps_csr:>15.0}  {speedup:>7.2}x"
            )
            .unwrap();
            if !json_rows.is_empty() {
                json_rows.push_str(",\n");
            }
            write!(
                json_rows,
                "      {{\"workers\": {w}, \"csr_pairs_per_sec\": {ps_csr:.0}, \"probes_per_sec\": {probes_ps:.0}, \"speedup_vs_hashmap\": {speedup:.2}}}"
            )
            .unwrap();
        }
        // Per-worker busy-time evidence for the multi-worker analysis in
        // EXPERIMENTS.md: on a 1-core host the busy sum exceeding the
        // wall clock is the threading-overhead ceiling made visible.
        let (_, pstats) =
            join_tokenized_par_side(&coll, measure, ProbeSide::Auto, &ParConfig::workers(4));
        let busy: Vec<String> = pstats
            .worker_busy
            .iter()
            .map(|d| format!("{:.1}ms", d.as_secs_f64() * 1e3))
            .collect();
        writeln!(
            txt,
            "w=4 evidence: busy=[{}] utilization={:.0}% chunks={} steals={}",
            busy.join(", "),
            100.0 * pstats.utilization(),
            pstats.chunks_total,
            pstats.chunks_stolen,
        )
        .unwrap();
        if grid.name == "skewed" {
            skewed_speedup_w1 = speedup_w1;
        }
        if !json_grids.is_empty() {
            json_grids.push_str(",\n");
        }
        write!(
            json_grids,
            "    {{\"grid\": \"{}\", \"skew\": {}, \"measure\": \"{}\", \"threshold\": {}, \"vocab\": {}, \"n_pairs\": {n_pairs}, \"hashmap_pairs_per_sec\": {ps_hash:.0}, \"speedup_w1\": {speedup_w1:.2},\n     \"join_stats\": {},\n     \"csr\": [\n{json_rows}\n     ]}}",
            grid.name,
            grid.skew,
            grid.measure_name,
            grid.threshold,
            grid.vocab,
            join_stats_json(&stats),
        )
        .unwrap();
    }

    writeln!(txt).unwrap();
    writeln!(
        txt,
        "skewed-grid speedup at 1 worker: {skewed_speedup_w1:.2}x (acceptance floor: 2x CSR vs hashmap)"
    )
    .unwrap();

    let (tokenize_collection, titles) = tokenize_collection_row(smoke, reps, &mut txt);
    let short_titles = short_titles_row(&titles, reps, &mut txt);
    let topk = topk_row(smoke, reps, &mut txt);
    magellan_obs::log!(info, "{txt}");

    let json = format!(
        "{{\n  \"experiment\": \"simjoin\",\n  \"workload\": {{\"rows_per_side\": {n}, \"vocab\": 800, \"reps\": {reps}, \"smoke\": {smoke}}},\n  \"skewed_speedup_w1\": {skewed_speedup_w1:.2},\n  \"tokenize_collection\": {tokenize_collection},\n  \"short_titles\": {short_titles},\n  \"topk\": {topk},\n  \"grids\": [\n{json_grids}\n  ]\n}}\n"
    );

    // Best-effort writes (a read-only checkout is fine); a smoke run's
    // figures are not the checked-in results, so it writes neither file.
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        let _ = std::fs::write("results/exp_simjoin.txt", &txt);
        let _ = std::fs::write("BENCH_simjoin.json", &json);
    }
}
