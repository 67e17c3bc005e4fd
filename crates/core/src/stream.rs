//! The streaming daemon tier: `magellan serve` for entity matching.
//!
//! The paper's production stage is batch: block, extract, score, done.
//! But matching workloads rarely stand still — catalogs take inserts,
//! corrections rewrite records, retractions delete them. Rebuilding the
//! whole pipeline per change is O(corpus); this module keeps a **live
//! matched view** maintained in O(delta) per batch by composing the
//! incremental tiers grown underneath it:
//!
//! * [`magellan_simjoin::IncrementalJoin`] — delta-maintained candidate
//!   generation (tombstoned CSR + tail overlay, signed pair deltas); its
//!   live view *is* the session's candidate set;
//! * [`magellan_features::StreamingPreparedPair`] — per-record cache
//!   invalidation, so only dirty records re-tokenize;
//! * [`magellan_ml::FlatForest::rescore_dirty`] — model scores recomputed
//!   for dirty pairs only.
//!
//! ## Determinism contract
//!
//! After **any** stream prefix, [`StreamSession::matched_pairs`] is
//! bit-identical — exact `f64` score bits, identical pair sets — to a
//! from-scratch rebuild over the current records
//! ([`StreamSession::rebuild_oracle`]), at any worker count. The argument
//! composes: the join engine's live view equals a batch join (its own
//! contract), and features/scores are pure per-pair functions of record
//! text, so restricting recomputation to dirty pairs cannot change what
//! any pair scores.
//!
//! ## Durability
//!
//! [`StreamSession::checkpoint_text`] serializes the session as
//! `emstream v1` — record texts, the live candidate view (similarity
//! bits), all model scores (probability bits), per-side index generations,
//! and the stream cursor — under the same FNV-1a trailer convention as
//! `emckpt v1`. A daemon killed mid-stream resumes via
//! [`StreamSession::restore_from_text`] and replays the remaining
//! [`magellan_faults::StreamPlan`] suffix to the identical view.

use magellan_faults::{SimClock, StreamOp, StreamPlan};
use magellan_features::{Feature, StreamingPreparedPair};
use magellan_ml::FlatForest;
use magellan_obs::splitmix64;
use magellan_par::ParConfig;
use magellan_simjoin::{
    IncrementalJoin, JoinPair, PairDelta, RecordMutation, SetSimMeasure, Side,
};
use magellan_table::{Dtype, Schema, Table, Value};
use magellan_textsim::tokenize::AlphanumericTokenizer;

use crate::checkpoint::{append_checksum, verify_checksum};
use crate::error::MagellanError;

/// Deterministic synthetic record text for seeded streams: `n_tokens`
/// words drawn from a `vocab`-sized universe, all decided by `seed`.
#[derive(Debug, Clone, Copy)]
pub struct TextGen {
    /// Distinct token universe size.
    pub vocab: u32,
    /// Minimum tokens per record.
    pub min_tokens: u32,
    /// Maximum tokens per record (inclusive).
    pub max_tokens: u32,
}

impl Default for TextGen {
    fn default() -> Self {
        TextGen {
            vocab: 400,
            min_tokens: 4,
            max_tokens: 9,
        }
    }
}

impl TextGen {
    /// The record text for one stream-plan text seed.
    pub fn text(&self, seed: u64) -> String {
        let span = (self.max_tokens - self.min_tokens + 1) as u64;
        let n = self.min_tokens as u64 + splitmix64(seed) % span;
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            let tok = splitmix64(seed ^ (i + 1)) % self.vocab as u64;
            out.push_str(&format!("tok{tok}"));
        }
        out
    }
}

/// What one ingested batch did — the daemon's per-tick report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamBatchReport {
    /// 1-based index of this batch in the session's lifetime.
    pub batch: u64,
    /// Mutations applied.
    pub mutations: usize,
    /// Candidate pairs that newly qualified.
    pub pairs_added: usize,
    /// Candidate pairs that stopped qualifying.
    pub pairs_removed: usize,
    /// Pairs re-featurized and re-scored (== `pairs_added`).
    pub dirty_pairs: usize,
    /// Index compactions triggered by this batch.
    pub compactions: u64,
    /// Live candidate pairs after the batch.
    pub live_candidates: usize,
    /// Live matched pairs (score ≥ threshold) after the batch.
    pub live_matches: usize,
}

/// A live, incrementally-maintained EM pipeline over two record streams.
///
/// Owns the delta join engine, the streaming feature store (two
/// single-attribute `(id, text)` tables), a flattened random forest, and
/// the candidates' scores. See the module docs for the determinism contract.
pub struct StreamSession {
    engine: IncrementalJoin,
    tokenizer: AlphanumericTokenizer,
    store: StreamingPreparedPair,
    features: Vec<Feature>,
    forest: FlatForest,
    /// Model score of every live candidate, laid out like the engine's
    /// view: left rid → `(right rid, probability)`, unsorted (readers
    /// sort), so retiring a pair scans one record's few partners.
    scores: Vec<Vec<(u32, f64)>>,
    /// Scores at or above `threshold`, kept in step with every insert
    /// and removal so a tick never walks `scores` to count them.
    live_matches: usize,
    threshold: f64,
    par: ParConfig,
    batches: u64,
    ops: u64,
}

fn stream_schema() -> Schema {
    Schema::from_pairs(&[("id", Dtype::Str), ("text", Dtype::Str)])
        .expect("static stream schema is valid")
}

impl StreamSession {
    /// A fresh session: empty collections, nothing matched.
    ///
    /// `features` must reference only the `text` attribute on both sides
    /// (validated on first extraction); `threshold` is the match operating
    /// point over the forest's probability.
    pub fn new(
        measure: SetSimMeasure,
        features: Vec<Feature>,
        forest: FlatForest,
        threshold: f64,
        par: ParConfig,
    ) -> Self {
        let a = Table::with_capacity("stream_left", stream_schema(), 0);
        let b = Table::with_capacity("stream_right", stream_schema(), 0);
        StreamSession {
            engine: IncrementalJoin::new(measure),
            tokenizer: AlphanumericTokenizer::as_set(),
            store: StreamingPreparedPair::new(a, b),
            features,
            forest,
            scores: Vec::new(),
            live_matches: 0,
            threshold,
            par,
            batches: 0,
            ops: 0,
        }
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Stream-plan steps consumed so far (the resume cursor).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Live candidate pairs (the join's delta-maintained view).
    pub fn n_candidates(&self) -> usize {
        self.engine.n_live_pairs()
    }

    /// The live matched view: `(left rid, right rid) → probability` for
    /// every candidate whose score clears the threshold, sorted by pair.
    pub fn matched_pairs(&self) -> Vec<((usize, usize), f64)> {
        let mut out = self.sorted_scores();
        out.retain(|&(_, p)| p >= self.threshold);
        out
    }

    /// Number of live matched pairs, counted by a walk over every score
    /// (a tick reports the running count instead).
    pub fn n_matches(&self) -> usize {
        self.scores
            .iter()
            .flatten()
            .filter(|&&(_, p)| p >= self.threshold)
            .count()
    }

    /// Every score, `(l, r)`-sorted: each left record's list sorted on
    /// read.
    fn sorted_scores(&self) -> Vec<((usize, usize), f64)> {
        let mut out = Vec::with_capacity(self.engine.n_live_pairs());
        for (l, partners) in self.scores.iter().enumerate() {
            let from = out.len();
            out.extend(partners.iter().map(|&(r, p)| ((l, r as usize), p)));
            out[from..].sort_unstable_by_key(|&(k, _)| k);
        }
        out
    }

    /// The underlying delta join engine (generations, pause telemetry).
    pub fn engine(&self) -> &IncrementalJoin {
        &self.engine
    }

    /// Apply one mutation batch through the whole incremental pipeline:
    /// delta join → score retirement → dirty-pair featurization →
    /// dirty-pair rescore. Cost is O(batch × affected neighborhoods), never
    /// O(corpus) or O(live view).
    pub fn ingest(&mut self, batch: &[RecordMutation]) -> Result<StreamBatchReport, MagellanError> {
        self.batches += 1;
        let _span = magellan_obs::span("stream_batch", self.batches);

        // 1. Delta join: signed candidate-pair deltas.
        let delta_span = magellan_obs::span("delta_join", 0);
        let (deltas, stats) = self.engine.apply_batch(batch, &self.tokenizer, &self.par);
        drop(delta_span);

        // 2. Mirror the mutations into the feature store's tables —
        //    insertion order matches the engine's rid assignment, so row
        //    ids line up by construction.
        let mirror_span = magellan_obs::span("mirror_mutations", 0);
        for op in batch {
            match op {
                RecordMutation::Insert { side, text } => {
                    let left = matches!(side, Side::Left);
                    let rid = self.store.tables().0.nrows() * usize::from(left)
                        + self.store.tables().1.nrows() * usize::from(!left);
                    let prefix = if left { 'l' } else { 'r' };
                    let row = vec![
                        Value::Str(format!("{prefix}{rid}")),
                        text.clone().map(Value::Str).unwrap_or(Value::Null),
                    ];
                    self.store.push_row(left, row).map_err(MagellanError::Table)?;
                }
                RecordMutation::Delete { side, rid } => {
                    self.store
                        .set_value(matches!(side, Side::Left), *rid, "text", Value::Null)
                        .map_err(MagellanError::Table)?;
                }
                RecordMutation::Update { side, rid, text } => {
                    let v = text.clone().map(Value::Str).unwrap_or(Value::Null);
                    self.store
                        .set_value(matches!(side, Side::Left), *rid, "text", v)
                        .map_err(MagellanError::Table)?;
                }
            }
        }
        debug_assert_eq!(self.store.tables().0.nrows(), self.engine.n_records(Side::Left));
        debug_assert_eq!(self.store.tables().1.nrows(), self.engine.n_records(Side::Right));
        drop(mirror_span);

        // 3. Retire dead scores (the engine's live view already is the
        //    patched candidate set).
        let patch_span = magellan_obs::span("patch_candidates", 0);
        self.scores
            .resize_with(self.engine.n_records(Side::Left), Vec::new);
        let mut dirty: Vec<(usize, usize)> = Vec::new();
        let mut pairs_removed = 0;
        for d in &deltas {
            match *d {
                PairDelta::Removed { l, r } => {
                    pairs_removed += 1;
                    let partners = &mut self.scores[l];
                    if let Some(at) = partners.iter().position(|&(x, _)| x as usize == r) {
                        let (_, p) = partners.swap_remove(at);
                        self.live_matches -= usize::from(p >= self.threshold);
                    }
                }
                PairDelta::Added(p) => dirty.push((p.l, p.r)),
            }
        }
        drop(patch_span);

        // 4. Featurize + rescore exactly the dirty pairs.
        let rescore_span = magellan_obs::span("rescore_dirty", 0);
        if !dirty.is_empty() {
            let pairs_u32: Vec<(u32, u32)> =
                dirty.iter().map(|&(l, r)| (l as u32, r as u32)).collect();
            let (matrix, _fstats) = self
                .store
                .extract(&pairs_u32, &self.features, &self.par)
                .map_err(MagellanError::Table)?;
            let keyed: Vec<((usize, usize), Vec<f64>)> = dirty
                .iter()
                .copied()
                .zip(matrix.rows)
                .collect();
            // `Removed` precedes `Added` in a batch's deltas, so no dirty
            // pair still holds a score.
            for ((l, r), p) in self.forest.rescore_dirty(&keyed, &self.par) {
                self.live_matches += usize::from(p >= self.threshold);
                self.scores[l].push((r as u32, p));
            }
        }
        drop(rescore_span);
        debug_assert_eq!(self.live_matches, self.n_matches());

        let report = StreamBatchReport {
            batch: self.batches,
            mutations: batch.len(),
            pairs_added: dirty.len(),
            pairs_removed,
            dirty_pairs: dirty.len(),
            compactions: stats.compactions as u64,
            live_candidates: self.engine.n_live_pairs(),
            live_matches: self.live_matches,
        };
        magellan_obs::counter_add("magellan_stream_batches_total", 1);
        magellan_obs::counter_add("magellan_stream_mutations_total", batch.len() as u64);
        magellan_obs::counter_add("magellan_stream_dirty_pairs_total", dirty.len() as u64);
        magellan_obs::gauge_set("magellan_stream_live_matches", report.live_matches as f64);
        magellan_obs::gauge_set(
            "magellan_stream_live_candidates",
            report.live_candidates as f64,
        );
        Ok(report)
    }

    /// Materialize the next `n` stream-plan steps into concrete mutations
    /// against the current alive populations. Victim selectors reduce
    /// modulo the pre-batch alive set (deterministic across kill/resume —
    /// the checkpoint restores the same population); an op against an
    /// empty side degrades to an insert.
    pub fn synth_batch(&self, plan: &StreamPlan, gen: &TextGen, n: usize) -> Vec<RecordMutation> {
        let alive = |side: Side| -> Vec<usize> {
            self.engine
                .texts(side)
                .iter()
                .enumerate()
                .filter_map(|(rid, t)| t.as_ref().map(|_| rid))
                .collect()
        };
        let (alive_l, alive_r) = (alive(Side::Left), alive(Side::Right));
        let mut out = Vec::with_capacity(n);
        for step in self.ops..self.ops + n as u64 {
            let op = plan.op(step);
            let side_of = |left: bool| if left { Side::Left } else { Side::Right };
            let pick = |left: bool, victim: u64| -> Option<usize> {
                let pool = if left { &alive_l } else { &alive_r };
                (!pool.is_empty()).then(|| pool[(victim % pool.len() as u64) as usize])
            };
            let text = || Some(gen.text(plan.text_seed(step)));
            out.push(match op {
                StreamOp::Insert { left } => RecordMutation::Insert {
                    side: side_of(left),
                    text: text(),
                },
                StreamOp::Delete { left, victim } => match pick(left, victim) {
                    Some(rid) => RecordMutation::Delete {
                        side: side_of(left),
                        rid,
                    },
                    None => RecordMutation::Insert {
                        side: side_of(left),
                        text: text(),
                    },
                },
                StreamOp::Update { left, victim } => match pick(left, victim) {
                    Some(rid) => RecordMutation::Update {
                        side: side_of(left),
                        rid,
                        text: text(),
                    },
                    None => RecordMutation::Insert {
                        side: side_of(left),
                        text: text(),
                    },
                },
            });
        }
        out
    }

    /// One daemon tick: synthesize the next `batch_size` plan steps,
    /// ingest them, and advance the simulated clock by `dt_s`. The stream
    /// cursor ([`StreamSession::ops`]) moves so the next tick continues
    /// where this one left off.
    pub fn run_plan_batch(
        &mut self,
        plan: &StreamPlan,
        gen: &TextGen,
        batch_size: usize,
        clock: &mut SimClock,
        dt_s: f64,
    ) -> Result<StreamBatchReport, MagellanError> {
        let batch = self.synth_batch(plan, gen, batch_size);
        self.ops += batch_size as u64;
        let report = self.ingest(&batch)?;
        clock.advance_s(dt_s);
        Ok(report)
    }

    /// The from-scratch oracle: rebuild the entire pipeline — batch join,
    /// cold feature extraction, full-matrix scoring — over the current
    /// records and return the matched view. O(corpus); exists to *prove*
    /// the live view right, not to serve queries.
    pub fn rebuild_oracle(&self) -> Result<Vec<((usize, usize), f64)>, MagellanError> {
        let pairs = self.engine.rebuild_from_scratch(&self.tokenizer);
        let mut a = Table::with_capacity("oracle_left", stream_schema(), 0);
        for (rid, t) in self.engine.texts(Side::Left).iter().enumerate() {
            a.push_row(vec![
                Value::Str(format!("l{rid}")),
                t.clone().map(Value::Str).unwrap_or(Value::Null),
            ])
            .map_err(MagellanError::Table)?;
        }
        let mut b = Table::with_capacity("oracle_right", stream_schema(), 0);
        for (rid, t) in self.engine.texts(Side::Right).iter().enumerate() {
            b.push_row(vec![
                Value::Str(format!("r{rid}")),
                t.clone().map(Value::Str).unwrap_or(Value::Null),
            ])
            .map_err(MagellanError::Table)?;
        }
        let pairs_u32: Vec<(u32, u32)> =
            pairs.iter().map(|p| (p.l as u32, p.r as u32)).collect();
        let mut cold = StreamingPreparedPair::new(a, b);
        let (matrix, _) = cold
            .extract(&pairs_u32, &self.features, &self.par)
            .map_err(MagellanError::Table)?;
        let probs = self.forest.predict_proba_batch(&matrix.rows, &self.par);
        let mut out: Vec<((usize, usize), f64)> = pairs
            .iter()
            .zip(probs)
            .filter(|(_, p)| *p >= self.threshold)
            .map(|(jp, p)| ((jp.l, jp.r), p))
            .collect();
        out.sort_by_key(|&(k, _)| k);
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Checkpointing (`emstream v1`)
    // -----------------------------------------------------------------

    /// Serialize the session as `emstream v1` text: stream cursors, index
    /// generations, both sides' record texts (hex-encoded, null-aware),
    /// the live candidate view with exact similarity bits, and every model
    /// score with exact probability bits — all under the shared FNV-1a
    /// trailer. Model, features, measure, and threshold are *not* stored;
    /// the resuming caller supplies the identical configuration, exactly
    /// like the service layer reattaches label engines on resume.
    pub fn checkpoint_text(&self) -> String {
        let mut out = String::from("emstream v1\n");
        out.push_str(&format!("cursor batches {} ops {}\n", self.batches, self.ops));
        out.push_str(&format!(
            "gens left {} right {} vocab {}\n",
            self.engine.index_generation(Side::Left),
            self.engine.index_generation(Side::Right),
            self.engine.vocab_generation(),
        ));
        for (tag, side) in [("ltexts", Side::Left), ("rtexts", Side::Right)] {
            let texts = self.engine.texts(side);
            out.push_str(&format!("{tag} {}\n", texts.len()));
            for t in texts {
                match t {
                    Some(s) => {
                        out.push_str("t ");
                        for b in s.as_bytes() {
                            out.push_str(&format!("{b:02x}"));
                        }
                        out.push('\n');
                    }
                    None => out.push_str("t -\n"),
                }
            }
        }
        let live = self.engine.live_pairs();
        out.push_str(&format!("live {}\n", live.len()));
        for p in &live {
            out.push_str(&format!("{} {} {:016x}\n", p.l, p.r, p.sim.to_bits()));
        }
        let scores = self.sorted_scores();
        out.push_str(&format!("scores {}\n", scores.len()));
        for ((l, r), p) in scores {
            out.push_str(&format!("{l} {r} {:016x}\n", p.to_bits()));
        }
        out.push_str("end\n");
        append_checksum(&mut out);
        out
    }

    /// Restore a session from `emstream v1` text plus the (identical)
    /// configuration it was created with. Index generations are pinned to
    /// the stored values, so generation monotonicity survives the crash;
    /// the live view and all score bits restore exactly.
    pub fn restore_from_text(
        text: &str,
        measure: SetSimMeasure,
        features: Vec<Feature>,
        forest: FlatForest,
        threshold: f64,
        par: ParConfig,
    ) -> Result<StreamSession, MagellanError> {
        let magic = text.lines().next().ok_or_else(|| stream_corrupt("empty checkpoint"))?;
        if magic.trim() != "emstream v1" {
            return Err(stream_corrupt(format!("bad magic `{magic}`")));
        }
        let payload = verify_checksum(text)?;
        let mut lines = payload.lines();
        lines.next(); // magic
        let cursor = lines
            .next()
            .ok_or_else(|| stream_corrupt("missing cursor line"))?;
        let c: Vec<&str> = cursor.split_whitespace().collect();
        if c.len() != 5 || c[0] != "cursor" || c[1] != "batches" || c[3] != "ops" {
            return Err(stream_corrupt(format!("bad cursor line `{cursor}`")));
        }
        let batches: u64 = c[2].parse().map_err(|_| stream_corrupt("bad batches"))?;
        let ops: u64 = c[4].parse().map_err(|_| stream_corrupt("bad ops"))?;
        let gens = lines.next().ok_or_else(|| stream_corrupt("missing gens line"))?;
        let g: Vec<&str> = gens.split_whitespace().collect();
        if g.len() != 7 || g[0] != "gens" {
            return Err(stream_corrupt(format!("bad gens line `{gens}`")));
        }
        let lgen: u64 = g[2].parse().map_err(|_| stream_corrupt("bad left gen"))?;
        let rgen: u64 = g[4].parse().map_err(|_| stream_corrupt("bad right gen"))?;

        let mut read_texts = |tag: &str| -> Result<Vec<Option<String>>, MagellanError> {
            let header = lines
                .next()
                .ok_or_else(|| stream_corrupt(format!("missing `{tag}` header")))?;
            let n: usize = header
                .strip_prefix(tag)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| stream_corrupt(format!("bad `{tag}` header `{header}`")))?;
            let mut texts = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let line = lines
                    .next()
                    .ok_or_else(|| stream_corrupt("truncated text list"))?;
                let body = line
                    .strip_prefix("t ")
                    .ok_or_else(|| stream_corrupt(format!("bad text line `{line}`")))?;
                if body == "-" {
                    texts.push(None);
                } else {
                    texts.push(Some(hex_to_string(body)?));
                }
            }
            Ok(texts)
        };
        let left_texts = read_texts("ltexts")?;
        let right_texts = read_texts("rtexts")?;

        let mut read_pairs = |tag: &str| -> Result<Vec<(usize, usize, u64)>, MagellanError> {
            let header = lines
                .next()
                .ok_or_else(|| stream_corrupt(format!("missing `{tag}` header")))?;
            let n: usize = header
                .strip_prefix(tag)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| stream_corrupt(format!("bad `{tag}` header `{header}`")))?;
            let mut out = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let line = lines.next().ok_or_else(|| stream_corrupt("truncated pair list"))?;
                let f: Vec<&str> = line.split_whitespace().collect();
                let parsed = (|| {
                    if f.len() != 3 {
                        return None;
                    }
                    Some((
                        f[0].parse::<usize>().ok()?,
                        f[1].parse::<usize>().ok()?,
                        u64::from_str_radix(f[2], 16).ok()?,
                    ))
                })()
                .ok_or_else(|| stream_corrupt(format!("bad pair line `{line}`")))?;
                out.push(parsed);
            }
            Ok(out)
        };
        let live = read_pairs("live")?;
        let scores = read_pairs("scores")?;
        match lines.next() {
            Some(l) if l.trim() == "end" => {}
            other => {
                return Err(stream_corrupt(format!(
                    "expected `end`, got `{}`",
                    other.unwrap_or("<eof>")
                )))
            }
        }

        // What the engine and the score lists index by rid must be what
        // `checkpoint_text` writes, or the restore would panic or keep a
        // pair twice.
        check_live(&live, &left_texts, &right_texts)?;
        if !live
            .iter()
            .map(|&(l, r, _)| (l, r))
            .eq(scores.iter().map(|&(l, r, _)| (l, r)))
        {
            return Err(stream_corrupt(
                "the `scores` pairs differ from the `live` pairs",
            ));
        }

        let tokenizer = AlphanumericTokenizer::as_set();
        let live_pairs: Vec<JoinPair> = live
            .iter()
            .map(|&(l, r, bits)| JoinPair {
                l,
                r,
                sim: f64::from_bits(bits),
            })
            .collect();
        let engine = IncrementalJoin::restore(
            measure,
            &tokenizer,
            left_texts.clone(),
            right_texts.clone(),
            live_pairs,
            lgen,
            rgen,
        );
        let mut a = Table::with_capacity("stream_left", stream_schema(), left_texts.len());
        for (rid, t) in left_texts.iter().enumerate() {
            a.push_row(vec![
                Value::Str(format!("l{rid}")),
                t.clone().map(Value::Str).unwrap_or(Value::Null),
            ])
            .map_err(MagellanError::Table)?;
        }
        let mut b = Table::with_capacity("stream_right", stream_schema(), right_texts.len());
        for (rid, t) in right_texts.iter().enumerate() {
            b.push_row(vec![
                Value::Str(format!("r{rid}")),
                t.clone().map(Value::Str).unwrap_or(Value::Null),
            ])
            .map_err(MagellanError::Table)?;
        }
        let mut score_lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); left_texts.len()];
        let mut live_matches = 0;
        for (l, r, bits) in scores {
            let p = f64::from_bits(bits);
            live_matches += usize::from(p >= threshold);
            score_lists[l].push((r as u32, p));
        }
        Ok(StreamSession {
            engine,
            tokenizer,
            store: StreamingPreparedPair::new(a, b),
            features,
            forest,
            scores: score_lists,
            live_matches,
            threshold,
            par,
            batches,
            ops,
        })
    }
}

/// A checkpointed live view is what `checkpoint_text` writes: strictly
/// `(l, r)`-ascending pairs of records that exist and are not null.
fn check_live(
    live: &[(usize, usize, u64)],
    left: &[Option<String>],
    right: &[Option<String>],
) -> Result<(), MagellanError> {
    for (i, &(l, r, _)) in live.iter().enumerate() {
        if l >= left.len() || r >= right.len() {
            return Err(stream_corrupt(format!(
                "live pair ({l}, {r}) is outside {} x {} records",
                left.len(),
                right.len()
            )));
        }
        if i > 0 && (live[i - 1].0, live[i - 1].1) >= (l, r) {
            return Err(stream_corrupt(format!(
                "live pairs are not strictly ascending at ({l}, {r})"
            )));
        }
        if left[l].is_none() || right[r].is_none() {
            return Err(stream_corrupt(format!(
                "live pair ({l}, {r}) has a null record"
            )));
        }
    }
    Ok(())
}

fn hex_to_string(hex: &str) -> Result<String, MagellanError> {
    if hex.len() % 2 != 0 {
        return Err(stream_corrupt("odd-length hex text"));
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for i in (0..hex.len()).step_by(2) {
        let b = u8::from_str_radix(&hex[i..i + 2], 16)
            .map_err(|_| stream_corrupt(format!("bad hex byte `{}`", &hex[i..i + 2])))?;
        bytes.push(b);
    }
    String::from_utf8(bytes).map_err(|_| stream_corrupt("checkpointed text is not UTF-8"))
}

fn stream_corrupt(msg: impl std::fmt::Display) -> MagellanError {
    MagellanError::Checkpoint {
        message: format!("corrupt stream checkpoint: {msg}"),
        transient: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_features::{FeatureKind, TokSpecF};
    use magellan_ml::{Dataset, RandomForestLearner};

    fn fixture_forest(n_features: usize) -> FlatForest {
        // A tiny forest over synthetic feature rows: positive when the
        // set-similarity features are high. Deterministic via fixed data.
        let mut d = Dataset::with_dims(n_features);
        for i in 0..60 {
            let hi = i % 2 == 0;
            let base = if hi { 0.8 } else { 0.15 };
            let row: Vec<f64> = (0..n_features)
                .map(|j| base + 0.01 * ((i + j) % 7) as f64)
                .collect();
            d.push(&row, hi);
        }
        let forest = RandomForestLearner {
            n_trees: 5,
            ..Default::default()
        }
        .fit_forest(&d);
        FlatForest::from_forest(&forest)
    }

    fn stream_features() -> Vec<Feature> {
        vec![
            Feature::new("text", "text", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("text", "text", FeatureKind::Dice(TokSpecF::Word)),
            Feature::new("text", "text", FeatureKind::JaroWinkler),
        ]
    }

    fn session(workers: usize) -> StreamSession {
        StreamSession::new(
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            if workers <= 1 {
                ParConfig::serial()
            } else {
                ParConfig::workers(workers)
            },
        )
    }

    fn drive(s: &mut StreamSession, seed: u64, batches: usize, batch_size: usize) {
        let plan = StreamPlan::churn(seed);
        let gen = TextGen::default();
        let mut clock = SimClock::new();
        for _ in 0..batches {
            s.run_plan_batch(&plan, &gen, batch_size, &mut clock, 1.0).unwrap();
        }
    }

    /// The live matched view is bit-identical to the from-scratch oracle
    /// after every batch of a seeded churn stream.
    #[test]
    fn live_view_matches_oracle_after_every_batch() {
        let mut s = session(1);
        let plan = StreamPlan::churn(7);
        let gen = TextGen {
            vocab: 12,
            min_tokens: 4,
            max_tokens: 7,
        };
        let mut clock = SimClock::new();
        let mut saw_match = false;
        for _ in 0..12 {
            s.run_plan_batch(&plan, &gen, 8, &mut clock, 1.0).unwrap();
            let live = s.matched_pairs();
            let oracle = s.rebuild_oracle().unwrap();
            assert_eq!(live.len(), oracle.len());
            for ((lk, lp), (ok, op)) in live.iter().zip(&oracle) {
                assert_eq!(lk, ok);
                assert_eq!(lp.to_bits(), op.to_bits(), "score bits diverged at {lk:?}");
            }
            saw_match |= !live.is_empty();
        }
        assert!(saw_match, "stream never produced a match — fixture too sparse");
        assert_eq!(clock.now_s(), 12.0);
    }

    /// Worker count never changes the view (serial vs 4 workers).
    #[test]
    fn stream_is_worker_count_invariant() {
        let mut a = session(1);
        let mut b = session(4);
        drive(&mut a, 11, 10, 6);
        drive(&mut b, 11, 10, 6);
        let (va, vb) = (a.matched_pairs(), b.matched_pairs());
        assert_eq!(va.len(), vb.len());
        for ((ka, pa), (kb, pb)) in va.iter().zip(&vb) {
            assert_eq!(ka, kb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        assert_eq!(a.n_candidates(), b.n_candidates());
    }

    /// Kill the daemon mid-stream, restore from the checkpoint, replay the
    /// remaining plan suffix: the final view is identical to the unkilled
    /// run, and index generations stay pinned across the crash.
    #[test]
    fn checkpoint_resume_replays_identically() {
        // Unkilled reference: 14 batches straight through.
        let mut whole = session(1);
        drive(&mut whole, 23, 14, 7);

        // Killed run: 6 batches, checkpoint, "crash", restore, 8 more.
        let mut first = session(1);
        drive(&mut first, 23, 6, 7);
        let ckpt = first.checkpoint_text();
        let gen_l = first.engine().index_generation(Side::Left);
        let gen_r = first.engine().index_generation(Side::Right);
        drop(first);
        let mut resumed = StreamSession::restore_from_text(
            &ckpt,
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
        .unwrap();
        assert_eq!(resumed.batches(), 6);
        assert_eq!(resumed.ops(), 42);
        assert_eq!(resumed.engine().index_generation(Side::Left), gen_l);
        assert_eq!(resumed.engine().index_generation(Side::Right), gen_r);
        drive(&mut resumed, 23, 8, 7);

        let (vw, vr) = (whole.matched_pairs(), resumed.matched_pairs());
        assert_eq!(vw.len(), vr.len(), "resumed run diverged in match count");
        for ((kw, pw), (kr, pr)) in vw.iter().zip(&vr) {
            assert_eq!(kw, kr);
            assert_eq!(pw.to_bits(), pr.to_bits());
        }
        // And the resumed view still equals its own oracle.
        let oracle = resumed.rebuild_oracle().unwrap();
        assert_eq!(vr.len(), oracle.len());
    }

    /// The running counters are the scans they replace: after every batch
    /// of a seeded stream, and again across a checkpoint round trip.
    #[test]
    fn running_counts_agree_with_the_scans() {
        let mut s = session(1);
        let plan = StreamPlan::churn(31);
        let gen = TextGen {
            vocab: 14,
            min_tokens: 4,
            max_tokens: 7,
        };
        let mut clock = SimClock::new();
        let mut peak = 0;
        for _ in 0..60 {
            let report = s.run_plan_batch(&plan, &gen, 6, &mut clock, 1.0).unwrap();
            assert_eq!(report.live_matches, s.n_matches());
            assert_eq!(report.live_candidates, s.n_candidates());
            assert_eq!(s.n_candidates(), s.engine().n_live_pairs());
            assert_eq!(report.pairs_added, report.dirty_pairs);
            peak = peak.max(report.live_matches);
        }
        assert!(peak > 0, "stream never produced a match — fixture too sparse");
        let mut resumed = StreamSession::restore_from_text(
            &s.checkpoint_text(),
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
        .unwrap();
        assert_eq!(resumed.n_matches(), s.n_matches());
        assert_eq!(resumed.n_candidates(), s.n_candidates());
        let report = resumed.run_plan_batch(&plan, &gen, 6, &mut clock, 1.0).unwrap();
        assert_eq!(report.live_matches, resumed.n_matches());
        assert_eq!(report.live_candidates, resumed.engine().n_live_pairs());
    }

    /// Re-writing a matched record to a non-matching text and back moves
    /// the match counter down and up again.
    #[test]
    fn match_counter_follows_a_record_out_and_back() {
        let mut s = session(1);
        let text = |t: &str| Some(t.to_owned());
        let insert = |side, t| RecordMutation::Insert { side, text: text(t) };
        let update = |t| RecordMutation::Update {
            side: Side::Left,
            rid: 0,
            text: text(t),
        };
        let title = "tok1 tok2 tok3 tok4 tok5";
        let seeded = s
            .ingest(&[insert(Side::Left, title), insert(Side::Right, title)])
            .unwrap();
        assert_eq!((seeded.live_candidates, seeded.live_matches), (1, 1));
        let away = s.ingest(&[update("tok6 tok7 tok8 tok9")]).unwrap();
        assert_eq!((away.pairs_removed, away.live_candidates, away.live_matches), (1, 0, 0));
        let back = s.ingest(&[update(title)]).unwrap();
        assert_eq!((back.pairs_added, back.live_candidates, back.live_matches), (1, 1, 1));
        assert_eq!(s.matched_pairs().len(), 1);
    }

    /// `emstream v1` bytes are pinned: the FNV-1a digest of
    /// `checkpoint_text()` after a fixed churn, recorded at 5a5d677, where
    /// the scores sat in a `BTreeMap` and the engine's view in another.
    /// However the live state is laid out, the text sorts it the same way.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let s = churned();
        let text = s.checkpoint_text();
        let digest = crate::checkpoint::fnv1a(text.as_bytes());
        assert_eq!(
            (s.n_candidates(), s.n_matches(), text.len(), digest),
            (84, 19, 7_361, 0x7829_5930_7ee6_7fe0)
        );
        assert_eq!(restore(&text).unwrap().checkpoint_text(), text);
    }

    /// 40 batches of 8 over a 14-word vocabulary: dozens of live pairs.
    fn churned() -> StreamSession {
        let mut s = session(1);
        let plan = StreamPlan::churn(41);
        let gen = TextGen {
            vocab: 14,
            min_tokens: 4,
            max_tokens: 7,
        };
        let mut clock = SimClock::new();
        for _ in 0..40 {
            s.run_plan_batch(&plan, &gen, 8, &mut clock, 1.0).unwrap();
        }
        s
    }

    fn restore(text: &str) -> Result<StreamSession, MagellanError> {
        StreamSession::restore_from_text(
            text,
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
    }

    /// Restore checks what it indexes by rid. Each edit below is re-sealed
    /// with a fresh checksum, so the trailer cannot be what rejects it.
    #[test]
    fn restore_rejects_pair_lists_it_could_not_index() {
        let good = churned().checkpoint_text();
        let reseal = |edit: &dyn Fn(&mut Vec<String>)| {
            let payload = verify_checksum(&good).unwrap();
            let mut lines: Vec<String> = payload.lines().map(str::to_owned).collect();
            edit(&mut lines);
            let mut text = lines.join("\n") + "\n";
            append_checksum(&mut text);
            text
        };
        assert_eq!(reseal(&|_| {}), good);
        let header = |lines: &[String], tag: &str| {
            let prefix = format!("{tag} ");
            let at = lines.iter().position(|l| l.starts_with(&prefix)).unwrap();
            (at, lines[at][prefix.len()..].parse::<usize>().unwrap())
        };
        // Point rid field `i` of the first pair under `tag` one past the
        // last record counted by the `texts` header.
        let past_the_end = |tag: &'static str, i: usize, texts: &'static str| {
            move |lines: &mut Vec<String>| {
                let at = header(lines, tag).0 + 1;
                let mut f: Vec<String> = lines[at].split(' ').map(str::to_owned).collect();
                f[i] = header(lines, texts).1.to_string();
                lines[at] = f.join(" ");
            }
        };
        // Repeat the first pair under `tag`, counting it in the header.
        let repeat_first = |tag: &'static str| {
            move |lines: &mut Vec<String>| {
                let (at, n) = header(lines, tag);
                lines[at] = format!("{tag} {}", n + 1);
                let dup = lines[at + 1].clone();
                lines.insert(at + 1, dup);
            }
        };
        type Edit<'a> = Box<dyn Fn(&mut Vec<String>) + 'a>;
        let cases: Vec<(&str, Edit)> = vec![
            ("outside", Box::new(past_the_end("live", 0, "ltexts"))),
            ("outside", Box::new(past_the_end("live", 1, "rtexts"))),
            ("differ", Box::new(past_the_end("scores", 0, "ltexts"))),
            (
                "not strictly ascending",
                Box::new(|lines: &mut Vec<String>| {
                    let at = header(lines, "live").0;
                    lines.swap(at + 1, at + 2);
                }),
            ),
            ("not strictly ascending", Box::new(repeat_first("live"))),
            ("differ", Box::new(repeat_first("scores"))),
            (
                "null record",
                Box::new(|lines: &mut Vec<String>| {
                    let (live, _) = header(lines, "live");
                    let l: usize = lines[live + 1].split(' ').next().unwrap().parse().unwrap();
                    let (texts, _) = header(lines, "ltexts");
                    lines[texts + 1 + l] = "t -".to_owned();
                }),
            ),
            (
                "differ",
                Box::new(|lines: &mut Vec<String>| {
                    let (at, n) = header(lines, "scores");
                    lines[at] = format!("scores {}", n - 1);
                    lines.remove(at + 1);
                }),
            ),
        ];
        for (expect, edit) in &cases {
            match restore(&reseal(edit.as_ref())) {
                Err(MagellanError::Checkpoint {
                    message,
                    transient: false,
                }) => {
                    assert!(
                        message.contains(expect),
                        "expected `{expect}`, got `{message}`"
                    );
                }
                Err(e) => panic!("expected a checkpoint error `{expect}`, got {e:?}"),
                Ok(_) => panic!("an edit the restore should reject (`{expect}`) went through"),
            }
        }
    }

    /// Corruption in any checkpoint section is a fatal, precise error.
    #[test]
    fn corrupt_checkpoints_are_fatal() {
        let mut s = session(1);
        drive(&mut s, 5, 3, 5);
        let good = s.checkpoint_text();
        assert!(restore(&good).is_ok());
        assert!(restore("").is_err());
        assert!(restore("emckpt v1\n").is_err());
        let torn = &good[..good.len() / 2];
        assert!(restore(torn).is_err());
        let tampered = good.replace("cursor batches 3", "cursor batches 4");
        assert!(restore(&tampered).is_err(), "checksum must catch tampering");
    }
}
