//! Out-of-core storage tier experiment: the three layers of PR 9
//! measured end to end on a datagen corpus.
//!
//! 1. **`emtbl` vs CSV reload** — write the corpus both ways, then time
//!    "get the table queryable + one full scan of every cell" from cold:
//!    CSV must be re-parsed row by row, `emtbl` is opened (mmapped) and
//!    sliced zero-copy. Acceptance: `emtbl` scan throughput ≥ 2× CSV.
//! 2. **`emckpt` size** — serialize the blocking phase's candidate set
//!    as a checkpoint. Acceptance: ≤ 4.0 bytes per candidate pair.
//! 3. **Hash-sharded blocking under a memory budget** — join with the
//!    1M-row side *forced to be the indexed side* (`ProbeSide::Right`),
//!    under a budget the monolithic index exceeds. Acceptance: the
//!    sharded run's peak index bytes fit the budget; bit-identity vs
//!    the monolithic join is the `shard_oracle` proptest's job, while
//!    this binary records the memory story on a corpus-scale input.
//!
//! Writes `results/exp_outofcore.txt` and `BENCH_outofcore.json` at the
//! repo root (non-smoke only).

use std::fmt::Write as _;
use std::time::Instant;

use magellan_core::checkpoint::Checkpoint;
use magellan_datagen::{domains, DirtModel, ScenarioConfig};
use magellan_par::ParConfig;
use magellan_simjoin::{
    join_tokenized_sharded, shards_for_budget, ProbeSide, SetSimMeasure, TokenizedCollection,
};
use magellan_table::{csv, emtbl, MappedTable, Schema, Table, ValueRef};
use magellan_textsim::tokenize::WhitespaceTokenizer;

/// Touch every cell of a table-like source and fold a checksum, so the
/// scan cannot be optimized away and both paths do identical work.
fn scan_checksum(nrows: usize, ncols: usize, mut value: impl FnMut(usize, usize) -> u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in 0..nrows {
        for c in 0..ncols {
            h = h.wrapping_mul(0x100_0000_01b3) ^ value(r, c);
        }
    }
    h
}

fn value_token(v: ValueRef<'_>) -> u64 {
    match v {
        ValueRef::Null => 0,
        ValueRef::Bool(b) => 1 + u64::from(b),
        ValueRef::Int(i) => i as u64,
        ValueRef::Float(f) => f.to_bits(),
        ValueRef::Str(s) => s.len() as u64 ^ u64::from(s.as_bytes().first().copied().unwrap_or(0)),
    }
}

fn str_column(t: &Table, name: &str) -> Vec<Option<String>> {
    let c = t.schema().index_of(name).expect("column exists");
    (0..t.nrows())
        .map(|r| match t.value(r, c) {
            ValueRef::Str(s) => Some(s.to_owned()),
            _ => None,
        })
        .collect()
}

fn main() {
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    // The indexed side must dwarf the probe side for the memory story
    // to be the real one: 1M indexed rows non-smoke.
    let (rows_indexed, rows_probe) = if smoke { (20_000, 1_000) } else { (1_000_000, 50_000) };
    let dir = std::env::temp_dir().join(format!("magellan_outofcore_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let mut txt = String::new();
    writeln!(txt, "Out-of-core storage tier — emtbl scan, emckpt size, sharded blocking").unwrap();
    writeln!(txt, "corpus: products {rows_indexed} x {rows_probe}, smoke = {smoke}").unwrap();

    // -- corpus ------------------------------------------------------------
    let t_gen = Instant::now();
    let scenario = domains::products(&ScenarioConfig {
        size_a: rows_indexed,
        size_b: rows_probe,
        n_matches: rows_probe / 2,
        dirt: DirtModel::light(),
        seed: 0xEC09,
    });
    writeln!(
        txt,
        "datagen: {} + {} rows in {:.1}s",
        scenario.table_a.nrows(),
        scenario.table_b.nrows(),
        t_gen.elapsed().as_secs_f64()
    )
    .unwrap();
    let big = &scenario.table_a;

    // -- 1. emtbl mmapped scan vs CSV reload -------------------------------
    let csv_path = dir.join("corpus.csv");
    let tbl_path = dir.join("corpus.emtbl");
    {
        let mut buf = Vec::new();
        csv::write_csv(big, &mut buf).expect("csv write");
        std::fs::write(&csv_path, &buf).expect("csv file");
    }
    emtbl::write_path(big, &tbl_path).expect("emtbl write");
    let csv_bytes = std::fs::metadata(&csv_path).unwrap().len();
    let tbl_bytes = std::fs::metadata(&tbl_path).unwrap().len();

    let (ncols, nrows) = (big.ncols(), big.nrows());
    let t0 = Instant::now();
    let csv_sum = {
        let bytes = std::fs::read(&csv_path).expect("csv read");
        let schema = Schema::new(big.schema().fields().to_vec()).unwrap();
        let t = csv::read_csv(bytes.as_slice(), "corpus", schema).expect("csv parse");
        scan_checksum(nrows, ncols, |r, c| value_token(t.value(r, c)))
    };
    let t_csv = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (map_sum, map_mode) = {
        let m = MappedTable::open(&tbl_path).expect("emtbl open");
        let sum = scan_checksum(nrows, ncols, |r, c| value_token(m.value(r, c)));
        (sum, m.mode())
    };
    let t_map = t0.elapsed().as_secs_f64();
    assert_eq!(csv_sum, map_sum, "the two scans saw different cells");

    let cells_per_sec_csv = (nrows * ncols) as f64 / t_csv;
    let cells_per_sec_map = (nrows * ncols) as f64 / t_map;
    let scan_speedup = t_csv / t_map;
    writeln!(
        txt,
        "reload+scan: csv {t_csv:.2}s ({cells_per_sec_csv:.0} cells/s, {csv_bytes}B) vs emtbl[{map_mode}] {t_map:.2}s ({cells_per_sec_map:.0} cells/s, {tbl_bytes}B) -> {scan_speedup:.1}x"
    )
    .unwrap();

    // -- 3. sharded blocking under a budget (run before 2: its candidate
    //       set is what the checkpoint experiment serializes) -------------
    let left = str_column(big, "title");
    let right = str_column(&scenario.table_b, "title");
    let tok = WhitespaceTokenizer::new();
    let coll = TokenizedCollection::build(&left, &right, &tok);
    let measure = SetSimMeasure::Jaccard(0.7);
    // Right = probe with the right (small) collection, index the left
    // (1M-row) one: the configuration whose index cannot be assumed to
    // fit, which is the configuration the shard tier exists for.
    let side = ProbeSide::Right;
    let cfg = ParConfig::workers(4);

    let probe = Instant::now();
    let (_, _, probe_stats) = join_tokenized_sharded(&coll, measure, side, 1, &cfg);
    let t_mono = probe.elapsed().as_secs_f64();
    let monolithic_bytes = probe_stats.monolithic_index_bytes;
    let budget = monolithic_bytes / 4;
    let k = shards_for_budget(&coll, measure, side, budget);
    let t0 = Instant::now();
    let (pairs, _, sstats) = join_tokenized_sharded(&coll, measure, side, k, &cfg);
    let t_shard = t0.elapsed().as_secs_f64();
    writeln!(
        txt,
        "sharded blocking: budget {budget}B (monolithic {monolithic_bytes}B) -> K={k}, peak {}B, total {}B, |pairs|={}, {t_shard:.2}s (monolithic {t_mono:.2}s)",
        sstats.peak_index_bytes,
        sstats.total_index_bytes,
        pairs.len(),
    )
    .unwrap();

    // -- 2. emckpt bytes per pair on the blocking candidate set -------------
    let candidates: Vec<(u32, u32)> = pairs.iter().map(|p| (p.l as u32, p.r as u32)).collect();
    let ckpt = Checkpoint::Blocked { candidates };
    let ckpt_bytes = ckpt.to_bytes().len();
    let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("checkpoint parses");
    assert_eq!(back, ckpt, "checkpoint round-trip diverged");
    let bytes_per_pair = ckpt_bytes as f64 / pairs.len().max(1) as f64;
    writeln!(
        txt,
        "emckpt: {ckpt_bytes}B for {} pairs -> {bytes_per_pair:.2} B/pair",
        pairs.len()
    )
    .unwrap();

    // -- acceptance --------------------------------------------------------
    writeln!(
        txt,
        "acceptance: scan {scan_speedup:.1}x (floor 2x), ckpt {bytes_per_pair:.2} B/pair (ceiling 4.0), peak {} <= budget {} < monolithic {}",
        sstats.peak_index_bytes, budget, monolithic_bytes
    )
    .unwrap();
    if !smoke {
        assert!(
            scan_speedup >= 2.0,
            "emtbl reload+scan did not clear 2x CSV: {scan_speedup:.2}x"
        );
        assert!(
            bytes_per_pair <= 4.0,
            "emckpt spends more than 4.0 bytes per pair: {bytes_per_pair:.2}"
        );
        assert!(
            monolithic_bytes > budget,
            "budget experiment vacuous: monolithic index fits the budget"
        );
        assert!(
            sstats.peak_index_bytes <= budget,
            "sharded peak {}B exceeds budget {budget}B",
            sstats.peak_index_bytes
        );
    }
    magellan_obs::log!(info, "{txt}");

    let json = format!(
        "{{\n  \"experiment\": \"outofcore\",\n  \"workload\": {{\"rows_indexed\": {rows_indexed}, \"rows_probe\": {rows_probe}, \"scenario\": \"products\", \"smoke\": {smoke}}},\n  \"scan\": {{\"csv_secs\": {t_csv:.3}, \"emtbl_secs\": {t_map:.3}, \"emtbl_mode\": \"{map_mode}\", \"speedup\": {scan_speedup:.2}, \"csv_bytes\": {csv_bytes}, \"emtbl_bytes\": {tbl_bytes}}},\n  \"checkpoint\": {{\"pairs\": {}, \"bytes\": {ckpt_bytes}, \"bytes_per_pair\": {bytes_per_pair:.3}}},\n  \"shards\": {{\"budget_bytes\": {budget}, \"monolithic_index_bytes\": {monolithic_bytes}, \"k\": {k}, \"peak_index_bytes\": {}, \"total_index_bytes\": {}, \"sharded_secs\": {t_shard:.2}, \"monolithic_secs\": {t_mono:.2}}}\n}}\n",
        pairs.len(),
        sstats.peak_index_bytes,
        sstats.total_index_bytes,
    );
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/exp_outofcore.txt", &txt);
    if !smoke {
        let _ = std::fs::write("BENCH_outofcore.json", &json);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
