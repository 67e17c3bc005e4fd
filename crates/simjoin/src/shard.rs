//! Hash-sharded out-of-core set-similarity join.
//!
//! The CSR prefix index over a 10M-row indexed side can dwarf RAM. This
//! module partitions the **indexed** side into `K` shards by a
//! splitmix64 hash of each record's rarest token (its first id under the
//! rarest-first order; empty records go to shard 0 — they can never
//! match anyway), then builds the index and runs the probe cascade one
//! shard at a time. Peak index memory is the largest single shard
//! (~1/K of the monolithic build for any reasonably spread hash) while
//! the full pair set still comes out.
//!
//! **Bit-identity argument** (pinned by the `shard_oracle` test grid):
//! every indexed record lives in exactly one shard, so the union over
//! shards of each probe's candidate set equals its monolithic candidate
//! set; [`probe_one`] is a pure function of `(probe record, indexed
//! record)` — the size/positional/suffix filters are conservative and
//! verification is exact, so a pair's presence and its f64 similarity
//! never depend on which other records share the index; and the ordering
//! pass ([`crate::order`]) puts the shards' outputs in `(l, r)` order,
//! whatever the shard order and chunk order. Hence the merged stream is
//! bit-identical to the monolithic join at any `(K, worker count)`.
//!
//! Cascade counters ([`magellan_par::JoinStats`]) merge across shards
//! and remain worker-count invariant at fixed `K`; `probes` scales with
//! `K` (each non-empty probe record walks every shard) and the
//! size-filter kill count is unchanged (postings are partitioned, and
//! in-window membership is per posting).

use magellan_par::{JoinStats, ParConfig, ParStats};

use crate::collection::{TokenColumn, TokenizedCollection};
use crate::index::{estimate_index_bytes, PrefixIndex};
use crate::join::{
    probe_range, with_scratch, JoinPair, Packed, ProbePlan, ProbeSide, SetSimMeasure,
    PROBE_STAMPS,
};
use crate::order::{order_pairs, Pair};

/// Memory + partitioning telemetry of one sharded join run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shards the indexed side was cut into.
    pub n_shards: usize,
    /// Indexed records per shard.
    pub shard_records: Vec<usize>,
    /// Largest single-shard index — the run's peak index residency.
    pub peak_index_bytes: usize,
    /// Sum of all shard indexes (≈ monolithic postings + K× the fixed
    /// per-record/per-token arrays).
    pub total_index_bytes: usize,
    /// What one monolithic index over the same side would allocate.
    pub monolithic_index_bytes: usize,
}

impl ShardStats {
    /// Publish the shard gauges to the metrics registry (no-op when
    /// observability is disabled). Deterministic: every value is a pure
    /// function of the join inputs and `K`.
    pub fn publish(&self) {
        magellan_obs::gauge_set("magellan_simjoin_shards", self.n_shards as f64);
        // Byte gauges are *peaks*: repeated joins on one recorder keep the
        // high-water mark instead of clobbering it last-write-wins.
        magellan_obs::gauge_max(
            "magellan_simjoin_shard_peak_index_bytes",
            self.peak_index_bytes as f64,
        );
        magellan_obs::gauge_max(
            "magellan_simjoin_shard_total_index_bytes",
            self.total_index_bytes as f64,
        );
        magellan_obs::gauge_max(
            "magellan_simjoin_monolithic_index_bytes",
            self.monolithic_index_bytes as f64,
        );
    }
}

/// Which shard an indexed record belongs to: hash of its rarest token.
/// Empty records (nulls) park in shard 0 and never produce postings.
fn shard_of(rec: &[u32], n_shards: usize) -> usize {
    match rec.first() {
        Some(&tok) => (magellan_obs::splitmix64(u64::from(tok)) % n_shards as u64) as usize,
        None => 0,
    }
}

/// Shard count that keeps every single-shard index under `budget_bytes`.
/// Starts from the even-spread lower bound (`monolithic / budget`), then
/// checks the **actual** hash partition: each shard repeats the
/// `(max token + 1)`-sized offsets array and the spread is never
/// perfectly even, so the naive division under-shards. At least 1; a
/// zero budget degrades to the monolithic join; if no K fits (a single
/// rarest-token group can bound the peak from below — co-hashed records
/// never separate), the record count is returned as the densest cut
/// available.
pub fn shards_for_budget(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
    budget_bytes: usize,
) -> usize {
    let plan = ProbePlan::choose(coll, side);
    let est = estimate_index_bytes(plan.indexed, |s| measure.prefix_len(s));
    if budget_bytes == 0 || est <= budget_bytes {
        return 1;
    }
    let n_records = plan.indexed.len();
    let mut k = est.div_ceil(budget_bytes).max(2);
    while k < n_records {
        if predicted_peak_bytes(plan.indexed, measure, k) <= budget_bytes {
            return k;
        }
        k += 1;
    }
    n_records.max(1)
}

/// Exact per-shard index bytes of the hash partition at `K`, maximized
/// over shards — the same accounting as [`estimate_index_bytes`], folded
/// in one pass without materializing the partition.
fn predicted_peak_bytes(indexed: &TokenColumn, measure: SetSimMeasure, k: usize) -> usize {
    let mut n_postings = vec![0usize; k];
    let mut max_token = vec![0u32; k];
    let mut n_records = vec![0usize; k];
    for rec in indexed.iter() {
        let s = shard_of(rec, k);
        n_records[s] += 1;
        let plen = measure.prefix_len(rec.len()).min(rec.len());
        n_postings[s] += plen;
        for &tok in &rec[..plen] {
            max_token[s] = max_token[s].max(tok);
        }
    }
    (0..k)
        .map(|s| {
            let n_tokens = if n_postings[s] == 0 {
                0
            } else {
                max_token[s] as usize + 1
            };
            n_postings[s] * std::mem::size_of::<crate::index::Posting>()
                + (n_tokens + 1) * std::mem::size_of::<u32>()
                + n_records[s] * std::mem::size_of::<u32>()
        })
        .max()
        .unwrap_or(0)
}

/// Hash-sharded variant of [`crate::join_tokenized_par_side`]: same pair
/// stream (bit-identical, `(l, r)`-sorted), built one shard index at a
/// time. `n_shards == 1` is exactly the monolithic join (same code path
/// modulo the local-rid remap, which is then the identity).
///
/// Fault injection composes per shard: the chunk-fault region of `cfg`
/// is offset by the shard number, so seeded chaos plans exercise
/// different shards independently while staying deterministic.
pub fn join_tokenized_sharded(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
    n_shards: usize,
    cfg: &ParConfig,
) -> (Vec<JoinPair>, ParStats, ShardStats) {
    sharded_join(coll, measure, side, n_shards, cfg)
}

/// [`join_tokenized_sharded`], emitting pairs of type `P`.
pub(crate) fn sharded_join<P: Pair>(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
    n_shards: usize,
    cfg: &ParConfig,
) -> (Vec<P>, ParStats, ShardStats) {
    measure.validate();
    assert!(n_shards >= 1, "need at least one shard");
    let plan = ProbePlan::choose(coll, side);
    let monolithic_index_bytes = estimate_index_bytes(plan.indexed, |s| measure.prefix_len(s));

    // Partition the indexed side; local rid order within a shard follows
    // global rid order, so shard builds are deterministic.
    let mut shard_rids: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    for (rid, rec) in plan.indexed.iter().enumerate() {
        // A column holds at most `u32::MAX` records.
        shard_rids[shard_of(rec, n_shards)].push(rid as u32);
    }

    // One stamp block covers the whole run: probe p against shard s gets
    // stamp base + s·|probe| + p, unique across shards, joins, chunks.
    let n_probe = plan.probe.len();
    let stamp_base =
        PROBE_STAMPS.fetch_add((n_probe as u64) * (n_shards as u64), std::sync::atomic::Ordering::Relaxed);

    let mut parts = Vec::new();
    let mut js = JoinStats::default();
    let mut par = ParStats::default();
    let mut shard_stats = ShardStats {
        n_shards,
        shard_records: shard_rids.iter().map(Vec::len).collect(),
        monolithic_index_bytes,
        ..ShardStats::default()
    };

    for (s, rids) in shard_rids.iter().enumerate() {
        // Materialize the shard's records under local rids 0..m and
        // build its index — the only index alive at this point.
        let build_span = magellan_obs::span("shard_build", s as u64);
        let local = plan.indexed.gather(rids);
        let index = PrefixIndex::build_column(&local, 0, |sz| measure.prefix_len(sz));
        let target = Packed {
            records: &local,
            index: &index,
        };
        let bytes = index.index_bytes();
        magellan_obs::span_res_add("shard_index_bytes", bytes as u64);
        drop(build_span);
        shard_stats.peak_index_bytes = shard_stats.peak_index_bytes.max(bytes);
        shard_stats.total_index_bytes += bytes;
        let probe_span = magellan_obs::span("shard_probe", s as u64);

        // Give each shard its own chunk-fault region so seeded chaos
        // draws independent faults per shard.
        let mut shard_cfg = cfg.clone();
        shard_cfg.faults.region = shard_cfg.faults.region.wrapping_add(s as u64);
        let shard_stamp_base = stamp_base + (s as u64) * (n_probe as u64);
        let shard_plan = ProbePlan {
            indexed: &local,
            ..plan
        };

        let (chunks, pstats) = magellan_par::chunk_map(n_probe, &shard_cfg, |range| {
            with_scratch(local.len(), |scratch| {
                let _verify = magellan_obs::span("verify", range.start as u64);
                let mut pairs: Vec<P> = Vec::new();
                let mut stats = JoinStats::default();
                let (plan, at) = (&shard_plan, shard_stamp_base);
                probe_range(range, at, plan, &target, measure, scratch, &mut pairs, &mut stats);
                // Local rids to global ones, in place: local order follows
                // global order, so each record's run stays sorted.
                for p in &mut pairs {
                    p.remap_indexed(plan.swap, |rid| rids[rid]);
                }
                pairs.shrink_to_fit();
                (pairs, stats)
            })
        });
        for (chunk_pairs, chunk_js) in chunks {
            parts.push(chunk_pairs);
            js.merge(&chunk_js);
        }
        par.merge(&pstats);
        drop(probe_span);
        // The shard's index dies here — the next shard's build is the
        // only index alive again. A span marks the teardown so peak
        // residency windows are visible in the profile.
        let drop_span = magellan_obs::span("shard_drop", s as u64);
        drop(index);
        drop(local);
        drop(drop_span);
    }

    let out = order_pairs(parts, plan.n_left(), plan.emitted(n_shards));
    js.pairs = out.len();
    js.probe_swaps = plan.swap as usize;
    js.publish();
    shard_stats.publish();
    par.join = js;
    (out, par, shard_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{join_tokenized_par_side, join_tokenized_stats};
    use magellan_textsim::tokenize::WhitespaceTokenizer;

    fn soup(seed: u64, n: usize, max_len: usize, vocab: usize) -> Vec<Option<String>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..n)
            .map(|i| {
                if i % 17 == 0 {
                    return None; // sprinkle empties into every shard run
                }
                let n = 1 + next() % max_len;
                Some(
                    (0..n)
                        .map(|_| format!("t{}", next() % vocab))
                        .collect::<Vec<_>>()
                        .join(" "),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_equals_monolithic_across_k_workers_and_sides() {
        let tok = WhitespaceTokenizer::new();
        let left = soup(7, 220, 6, 40);
        let right = soup(8, 180, 6, 40);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        for measure in [
            SetSimMeasure::Jaccard(0.5),
            SetSimMeasure::Cosine(0.6),
            SetSimMeasure::OverlapSize(2),
        ] {
            for side in [ProbeSide::Auto, ProbeSide::Left, ProbeSide::Right] {
                let (mono, _) = join_tokenized_stats(&coll, measure, side);
                for k in [1, 2, 5, 16] {
                    for workers in [1, 4] {
                        let (sharded, pstats, sstats) = join_tokenized_sharded(
                            &coll,
                            measure,
                            side,
                            k,
                            &ParConfig::workers(workers),
                        );
                        assert_eq!(
                            sharded, mono,
                            "{measure:?} {side:?} K={k} workers={workers}"
                        );
                        assert_eq!(pstats.join.pairs, mono.len());
                        assert_eq!(sstats.n_shards, k);
                        let total: usize = sstats.shard_records.iter().sum();
                        assert!(
                            total == coll.left.len() || total == coll.right.len(),
                            "every indexed record lands in exactly one shard"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharding_caps_peak_index_memory() {
        let tok = WhitespaceTokenizer::new();
        let left = soup(21, 40, 4, 500);
        let right = soup(23, 800, 8, 500);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measure = SetSimMeasure::Jaccard(0.6);
        // Index the big right side explicitly.
        let (_, _, mono) =
            join_tokenized_sharded(&coll, measure, ProbeSide::Left, 1, &ParConfig::serial());
        assert_eq!(mono.peak_index_bytes, mono.monolithic_index_bytes);
        let (_, _, sharded) =
            join_tokenized_sharded(&coll, measure, ProbeSide::Left, 8, &ParConfig::serial());
        assert!(
            sharded.peak_index_bytes * 2 < mono.peak_index_bytes,
            "8 shards must cut peak index bytes at least in half \
             (peak {} vs monolithic {})",
            sharded.peak_index_bytes,
            mono.peak_index_bytes
        );
        // The budget planner's K must make the *realized* peak fit the
        // budget — it simulates the actual hash partition, not an
        // even-split division (per-shard offset arrays and hash skew
        // make the naive quotient under-shard).
        let budget = mono.monolithic_index_bytes / 4;
        let k = shards_for_budget(&coll, measure, ProbeSide::Left, budget);
        assert!(k >= 4, "a quarter budget needs at least 4 shards, got {k}");
        let (_, _, planned) =
            join_tokenized_sharded(&coll, measure, ProbeSide::Left, k, &ParConfig::serial());
        assert!(
            planned.peak_index_bytes <= budget,
            "planned K={k} realized peak {} over budget {budget}",
            planned.peak_index_bytes
        );
    }

    #[test]
    fn k_larger_than_records_and_empty_sides_work() {
        let tok = WhitespaceTokenizer::new();
        let left = soup(3, 12, 4, 10);
        let right = soup(4, 5, 4, 10);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measure = SetSimMeasure::Jaccard(0.4);
        let (mono, _) = join_tokenized_stats(&coll, measure, ProbeSide::Left);
        let (sharded, _, sstats) =
            join_tokenized_sharded(&coll, measure, ProbeSide::Left, 64, &ParConfig::workers(2));
        assert_eq!(sharded, mono);
        assert_eq!(sstats.shard_records.len(), 64);
        // All-null collections produce no pairs and no postings.
        let nulls: Vec<Option<String>> = vec![None; 6];
        let empty_coll = TokenizedCollection::build(&nulls, &nulls, &tok);
        let (pairs, _, sstats) =
            join_tokenized_sharded(&empty_coll, measure, ProbeSide::Auto, 4, &ParConfig::serial());
        assert!(pairs.is_empty());
        assert_eq!(sstats.shard_records[0], 6, "empty records park in shard 0");
    }

    #[test]
    fn sharded_join_is_deterministic_under_injected_faults() {
        let tok = WhitespaceTokenizer::new();
        let left = soup(31, 150, 5, 30);
        let right = soup(32, 150, 5, 30);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measure = SetSimMeasure::Jaccard(0.5);
        let (clean, _) = join_tokenized_par_side(
            &coll,
            measure,
            ProbeSide::Auto,
            &ParConfig::workers(4),
        );
        let plan = magellan_faults::FaultPlan::seeded(11);
        let cfg = ParConfig::workers(4).with_faults(plan.chunk_faults(0xb10c));
        let (faulted, pstats, _) =
            join_tokenized_sharded(&coll, measure, ProbeSide::Auto, 4, &cfg);
        assert_eq!(faulted, clean, "chunk faults must not change the pair stream");
        assert!(
            pstats.panics_contained > 0,
            "seeded plan should inject at least one chunk panic across 4 shards"
        );
    }
}
