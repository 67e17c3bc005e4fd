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
//!   generation (one postings list per token, signed pair deltas); its
//!   live view *is* the session's candidate set;
//! * [`magellan_features::StreamingPreparedPair`] — per-record cache
//!   invalidation, so only dirty records re-tokenize;
//! * [`magellan_ml::FlatForest::predict_proba`] — model scores
//!   recomputed for the dirty pairs only, each row handed from the
//!   feature scorer's buffer straight to the forest
//!   ([`StreamingPreparedPair::score`]), with no feature matrix built.
//!
//! A tick's regions — the two delta-probe regions and the rescore — run
//! one chunk per worker ([`ParConfig::one_chunk_per_worker`]) unless the
//! session's pool sets a chunk size: a few dozen probes and pairs leave
//! nothing to steal, and each chunk pays a fixed setup. Their pool
//! counters are published under `phase="stream"`.
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
//! [`StreamSession::checkpoint_bytes`] serializes the session as
//! `emstream v3`, a [`magellan_table::segment`] file — record texts, the
//! live candidate view (similarity bits), each live pair's model score
//! (probability bits), and the stream cursor.
//! A daemon killed mid-stream resumes via
//! [`StreamSession::restore_from_bytes`] and replays the remaining
//! [`magellan_faults::StreamPlan`] suffix to the identical view.

use magellan_faults::{SimClock, StreamOp, StreamPlan};
use magellan_features::{Feature, StreamingPreparedPair};
use magellan_ml::FlatForest;
use magellan_obs::splitmix64;
use magellan_par::ParConfig;
use magellan_simjoin::{IncrementalJoin, JoinPair, PairDelta, RecordMutation, SetSimMeasure, Side};
use magellan_table::segment::{self, Fields, SegmentError, SegmentReader};
use magellan_table::{Dtype, Schema, Table, Value};
use magellan_textsim::tokenize::AlphanumericTokenizer;

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
    /// Candidate pairs that stopped qualifying.
    pub pairs_removed: usize,
    /// Candidate pairs that newly qualified: each is re-featurized and
    /// re-scored.
    pub dirty_pairs: usize,
    /// Always 0: the join edits its index in place and never compacts it.
    /// Kept for the report's readers.
    pub compactions: u64,
    /// Live candidate pairs after the batch.
    pub live_candidates: usize,
    /// Live matched pairs (score ≥ threshold) after the batch.
    pub live_matches: usize,
}

/// A live, incrementally-maintained EM pipeline over two record streams.
///
/// Owns the delta join engine, the streaming feature store (two
/// single-column `text` tables), a flattened random forest, and
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
    /// Each side's rids with a text (left, right), kept in step with
    /// every mutation so a tick never walks the records to pick its
    /// victims.
    alive: [AliveSet; 2],
    threshold: f64,
    par: ParConfig,
    batches: u64,
    ops: u64,
}

/// The rids of one side that hold a text, as an order-statistics set
/// over the dense rids: a Fenwick tree of alive flags, so marking a rid,
/// appending one and finding the `k`-th alive rid in ascending order
/// each cost O(log records).
#[derive(Debug, Default)]
struct AliveSet {
    alive: Vec<bool>,
    /// `tree[i - 1]`: alive rids in `(i − lowbit(i), i]`, 1-based.
    tree: Vec<u32>,
    len: usize,
}

impl AliveSet {
    /// Alive rids.
    fn len(&self) -> usize {
        self.len
    }

    /// Mark `rid` alive or not, growing the set through `rid` (new rids
    /// start not alive).
    fn set(&mut self, rid: usize, alive: bool) {
        while self.alive.len() <= rid {
            // A new node covers `(i − lowbit(i), i − 1]` plus itself.
            let i = self.alive.len() + 1;
            let below = self.prefix(i - 1) - self.prefix(i - (i & i.wrapping_neg()));
            self.alive.push(false);
            self.tree.push(below);
        }
        if self.alive[rid] == alive {
            return;
        }
        self.alive[rid] = alive;
        self.len = self.len + usize::from(alive) - usize::from(!alive);
        let mut i = rid + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.tree[i - 1] + u32::from(alive) - u32::from(!alive);
            i += i & i.wrapping_neg();
        }
    }

    /// Alive rids among the first `n`.
    fn prefix(&self, mut n: usize) -> u32 {
        let mut sum = 0;
        while n > 0 {
            sum += self.tree[n - 1];
            n &= n - 1;
        }
        sum
    }

    /// The `k`-th alive rid in ascending order (`k < len`).
    fn nth(&self, k: usize) -> usize {
        let (mut pos, mut rest) = (0, k as u32 + 1);
        let mut step = self.tree.len().next_power_of_two();
        while step > 0 {
            if pos + step <= self.tree.len() && self.tree[pos + step - 1] < rest {
                pos += step;
                rest -= self.tree[pos - 1];
            }
            step >>= 1;
        }
        pos
    }
}

fn stream_schema() -> Schema {
    Schema::from_pairs(&[("text", Dtype::Str)]).expect("static stream schema is valid")
}

fn text_cell(text: &Option<String>) -> Value {
    text.clone().map(Value::Str).unwrap_or(Value::Null)
}

/// One side's records as a `text` table, row `rid` holding record `rid`.
fn text_table(name: &str, texts: &[Option<String>]) -> Result<Table, MagellanError> {
    let mut t = Table::with_capacity(name, stream_schema(), texts.len());
    for text in texts {
        t.push_row(vec![text_cell(text)])
            .map_err(MagellanError::Table)?;
    }
    Ok(t)
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
            alive: [AliveSet::default(), AliveSet::default()],
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

    /// The underlying delta join engine.
    pub fn engine(&self) -> &IncrementalJoin {
        &self.engine
    }

    /// Apply one mutation batch through the whole incremental pipeline:
    /// delta join → score retirement → dirty-pair featurization and
    /// rescore, one fused pass. Cost is O(batch × affected
    /// neighborhoods), never O(corpus) or O(live view).
    ///
    /// A batch that deletes or updates a rid its side does not have (the
    /// batch's own inserts count) is a [`MagellanError::Config`], returned
    /// before anything changes.
    pub fn ingest(&mut self, batch: &[RecordMutation]) -> Result<StreamBatchReport, MagellanError> {
        self.engine
            .check_batch(batch)
            .map_err(|why| MagellanError::Config {
                message: format!("stream batch refused: {why}"),
            })?;
        self.batches += 1;
        let _span = magellan_obs::span("stream_batch", self.batches);

        // 1. Delta join: signed candidate-pair deltas.
        let delta_span = magellan_obs::span("delta_join", 0);
        let (deltas, _) = self.engine.apply_batch(batch, &self.tokenizer, &self.par);
        drop(delta_span);

        // 2. Mirror the mutations into the feature store's tables —
        //    insertion order matches the engine's rid assignment, so row
        //    ids line up by construction.
        let mirror_span = magellan_obs::span("mirror_mutations", 0);
        for op in batch {
            let (side, rid, text) = match op {
                RecordMutation::Insert { side, text } => {
                    let rid = self
                        .store
                        .push_row(matches!(side, Side::Left), vec![text_cell(text)])
                        .map_err(MagellanError::Table)?;
                    (side, rid, text)
                }
                RecordMutation::Delete { side, rid } => {
                    self.store
                        .set_value(matches!(side, Side::Left), *rid, "text", Value::Null)
                        .map_err(MagellanError::Table)?;
                    (side, *rid, &None)
                }
                RecordMutation::Update { side, rid, text } => {
                    self.store
                        .set_value(matches!(side, Side::Left), *rid, "text", text_cell(text))
                        .map_err(MagellanError::Table)?;
                    (side, *rid, text)
                }
            };
            self.alive[usize::from(matches!(side, Side::Right))].set(rid, text.is_some());
        }
        debug_assert_eq!(
            self.store.tables().0.nrows(),
            self.engine.n_records(Side::Left)
        );
        debug_assert_eq!(
            self.store.tables().1.nrows(),
            self.engine.n_records(Side::Right)
        );
        drop(mirror_span);

        // 3. Retire dead scores (the engine's live view already is the
        //    patched candidate set).
        let patch_span = magellan_obs::span("patch_candidates", 0);
        self.scores
            .resize_with(self.engine.n_records(Side::Left), Vec::new);
        let mut dirty: Vec<(u32, u32)> = Vec::new();
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
                // Rids fit `u32`: the engine numbers its records in one.
                PairDelta::Added(p) => dirty.push((p.l as u32, p.r as u32)),
            }
        }
        drop(patch_span);

        // 4. Featurize + rescore exactly the dirty pairs, in place: each
        //    row goes from its chunk's scorer straight to the forest.
        let rescore_span = magellan_obs::span("rescore_dirty", 0);
        if !dirty.is_empty() {
            let forest = &self.forest;
            let (probs, par) = self
                .store
                .score(
                    &dirty,
                    &self.features,
                    &self.par.one_chunk_per_worker(dirty.len()),
                    |row| forest.predict_proba(row),
                )
                .map_err(MagellanError::Table)?;
            par.publish("stream");
            // `Removed` precedes `Added` in a batch's deltas, so no dirty
            // pair still holds a score.
            for (&(l, r), p) in dirty.iter().zip(probs) {
                self.live_matches += usize::from(p >= self.threshold);
                self.scores[l as usize].push((r, p));
            }
        }
        drop(rescore_span);
        debug_assert_eq!(self.live_matches, self.n_matches());

        let report = StreamBatchReport {
            batch: self.batches,
            mutations: batch.len(),
            pairs_removed,
            dirty_pairs: dirty.len(),
            compactions: 0,
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
    /// modulo the pre-batch alive set, ascending by rid (deterministic
    /// across kill/resume — the checkpoint restores the same population);
    /// an op against an empty side degrades to an insert. O(n): the alive
    /// sets are kept across ticks, not collected from the records.
    pub fn synth_batch(&self, plan: &StreamPlan, gen: &TextGen, n: usize) -> Vec<RecordMutation> {
        let [alive_l, alive_r] = &self.alive;
        let mut out = Vec::with_capacity(n);
        for step in self.ops..self.ops + n as u64 {
            let op = plan.op(step);
            let side_of = |left: bool| if left { Side::Left } else { Side::Right };
            let pick = |left: bool, victim: u64| -> Option<usize> {
                let pool = if left { alive_l } else { alive_r };
                (pool.len() > 0).then(|| pool.nth((victim % pool.len() as u64) as usize))
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
        let a = text_table("oracle_left", self.engine.texts(Side::Left))?;
        let b = text_table("oracle_right", self.engine.texts(Side::Right))?;
        let pairs_u32: Vec<(u32, u32)> = pairs.iter().map(|p| (p.l as u32, p.r as u32)).collect();
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
    // Checkpointing (`emstream v3`)
    // -----------------------------------------------------------------

    /// Serialize the session as `emstream v3`:
    ///
    /// ```text
    /// magic     "emstream v3"
    /// 1 cursor  batches, ops   (u64 each)
    /// 2 ltexts  count:u64, per record len:u64 + UTF-8 bytes (len u64::MAX = null)
    /// 3 rtexts  the same for the right side
    /// 4 live    count:u64, per pair l:u64, r:u64, sim bits:u64, (l, r)-ascending
    /// 5 scores  count:u64, per live pair (same order) probability bits:u64
    /// END
    /// ```
    ///
    /// Model, features, measure, and threshold are *not* stored; the
    /// resuming caller supplies the identical configuration, exactly like
    /// the service layer reattaches label engines on resume.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let live = self.engine.live_pairs();
        let scores = self.sorted_scores();
        debug_assert!(live
            .iter()
            .map(|p| (p.l, p.r))
            .eq(scores.iter().map(|&(k, _)| k)));
        SavedStream {
            batches: self.batches,
            ops: self.ops,
            left: self.engine.texts(Side::Left).to_vec(),
            right: self.engine.texts(Side::Right).to_vec(),
            live,
            scores: scores.iter().map(|(_, p)| p.to_bits()).collect(),
        }
        .encode()
    }

    /// Restore a session from `emstream v3` bytes plus the (identical)
    /// configuration it was created with. The live view and all score
    /// bits restore exactly; the join's index is rebuilt from the texts.
    /// An `emstream v1` or `v2` file is refused by name.
    pub fn restore_from_bytes(
        data: &[u8],
        measure: SetSimMeasure,
        features: Vec<Feature>,
        forest: FlatForest,
        threshold: f64,
        par: ParConfig,
    ) -> Result<StreamSession, MagellanError> {
        let saved = SavedStream::decode(data).map_err(stream_corrupt)?;
        // What the engine and the score lists index by rid must be what
        // `checkpoint_bytes` writes, or the restore would panic or keep a
        // pair twice.
        check_live(&saved.live, &saved.left, &saved.right)?;
        if saved.scores.len() != saved.live.len() {
            return Err(stream_corrupt(format!(
                "{} scores for {} live pairs: the lists differ in length",
                saved.scores.len(),
                saved.live.len()
            )));
        }
        let alive = [&saved.left, &saved.right].map(|texts| {
            let mut set = AliveSet::default();
            for (rid, t) in texts.iter().enumerate() {
                set.set(rid, t.is_some());
            }
            set
        });
        let mut scores = vec![Vec::new(); saved.left.len()];
        let mut live_matches = 0;
        for (p, &bits) in saved.live.iter().zip(&saved.scores) {
            let prob = f64::from_bits(bits);
            live_matches += usize::from(prob >= threshold);
            scores[p.l].push((p.r as u32, prob));
        }
        let store = StreamingPreparedPair::new(
            text_table("stream_left", &saved.left)?,
            text_table("stream_right", &saved.right)?,
        );
        let tokenizer = AlphanumericTokenizer::as_set();
        let engine =
            IncrementalJoin::restore(measure, &tokenizer, saved.left, saved.right, saved.live);
        Ok(StreamSession {
            engine,
            tokenizer,
            store,
            features,
            forest,
            scores,
            live_matches,
            alive,
            threshold,
            par,
            batches: saved.batches,
            ops: saved.ops,
        })
    }
}

const STREAM_MAGIC: &str = "emstream v3";

const SEG_CURSOR: u32 = 1;
const SEG_LTEXTS: u32 = 2;
const SEG_RTEXTS: u32 = 3;
const SEG_LIVE: u32 = 4;
const SEG_SCORES: u32 = 5;

/// The contents of an `emstream v3` file. Decoding checks each segment
/// on its own; how the segments agree is the restore's to check.
struct SavedStream {
    batches: u64,
    ops: u64,
    left: Vec<Option<String>>,
    right: Vec<Option<String>>,
    live: Vec<JoinPair>,
    /// Probability bits of each live pair, in `live` order.
    scores: Vec<u64>,
}

impl SavedStream {
    fn encode(&self) -> Vec<u8> {
        let cursor = words([self.batches, self.ops]);
        let texts = |texts: &[Option<String>]| {
            let mut out = (texts.len() as u64).to_le_bytes().to_vec();
            for t in texts {
                match t {
                    Some(s) => {
                        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    }
                    None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
                }
            }
            out
        };
        let live = words(
            std::iter::once(self.live.len() as u64).chain(
                self.live
                    .iter()
                    .flat_map(|p| [p.l as u64, p.r as u64, p.sim.to_bits()]),
            ),
        );
        let scores =
            words(std::iter::once(self.scores.len() as u64).chain(self.scores.iter().copied()));
        segment::encode(
            STREAM_MAGIC,
            &[
                (SEG_CURSOR, &cursor),
                (SEG_LTEXTS, &texts(&self.left)),
                (SEG_RTEXTS, &texts(&self.right)),
                (SEG_LIVE, &live),
                (SEG_SCORES, &scores),
            ],
        )
    }

    fn decode(data: &[u8]) -> Result<SavedStream, SegmentError> {
        let mut file = SegmentReader::open(data, STREAM_MAGIC)?;
        let mut cursor = file.expect(SEG_CURSOR)?.fields();
        let (batches, ops) = (cursor.u64()?, cursor.u64()?);
        cursor.end()?;
        let left = read_texts(file.expect(SEG_LTEXTS)?.fields())?;
        let right = read_texts(file.expect(SEG_RTEXTS)?.fields())?;
        let mut f = file.expect(SEG_LIVE)?.fields();
        let n = f.count(24)?;
        let mut live = Vec::with_capacity(n);
        for _ in 0..n {
            let (l, r) = (f.u64()? as usize, f.u64()? as usize);
            live.push(JoinPair {
                l,
                r,
                sim: f64::from_bits(f.u64()?),
            });
        }
        f.end()?;
        let mut f = file.expect(SEG_SCORES)?.fields();
        let scores = (0..f.count(8)?)
            .map(|_| f.u64())
            .collect::<Result<_, _>>()?;
        f.end()?;
        file.finish()?;
        Ok(SavedStream {
            batches,
            ops,
            left,
            right,
            live,
            scores,
        })
    }
}

/// Little-endian `u64` words, the unit of most `emstream` payloads.
fn words(ws: impl IntoIterator<Item = u64>) -> Vec<u8> {
    ws.into_iter().flat_map(u64::to_le_bytes).collect()
}

fn read_texts(mut f: Fields<'_>) -> Result<Vec<Option<String>>, SegmentError> {
    let n = f.count(8)?;
    let mut texts = Vec::with_capacity(n);
    for _ in 0..n {
        let len = f.u64()?;
        if len == u64::MAX {
            texts.push(None);
            continue;
        }
        let bytes = f.take(usize::try_from(len).unwrap_or(usize::MAX))?;
        let text =
            std::str::from_utf8(bytes).map_err(|_| f.error("checkpointed text is not UTF-8"))?;
        texts.push(Some(text.to_owned()));
    }
    f.end()?;
    Ok(texts)
}

/// A checkpointed live view is what `checkpoint_bytes` writes: strictly
/// `(l, r)`-ascending pairs of records that exist and are not null.
fn check_live(
    live: &[JoinPair],
    left: &[Option<String>],
    right: &[Option<String>],
) -> Result<(), MagellanError> {
    for (i, &JoinPair { l, r, .. }) in live.iter().enumerate() {
        if l >= left.len() || r >= right.len() {
            return Err(stream_corrupt(format!(
                "live pair ({l}, {r}) is outside {} x {} records",
                left.len(),
                right.len()
            )));
        }
        if i > 0 && (live[i - 1].l, live[i - 1].r) >= (l, r) {
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

fn stream_corrupt(msg: impl std::fmt::Display) -> MagellanError {
    MagellanError::Checkpoint {
        message: format!("corrupt stream checkpoint: {msg}"),
        transient: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_features::{FeatureKind, TokSpec};
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
            Feature::new("text", "text", FeatureKind::Jaccard(TokSpec::Word)),
            Feature::new("text", "text", FeatureKind::Dice(TokSpec::Word)),
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
            s.run_plan_batch(&plan, &gen, batch_size, &mut clock, 1.0)
                .unwrap();
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
        assert!(
            saw_match,
            "stream never produced a match — fixture too sparse"
        );
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

    /// A tick's regions run one chunk per worker when the pool sets no
    /// chunk size, and the pool counters under `phase="stream"` count
    /// exactly the chunks the trace shows: one 20-mutation tick under a
    /// pinned recorder, after 30 seeded ticks, at 1 and 2 workers.
    #[test]
    fn a_tick_runs_one_chunk_per_worker_per_region() {
        for workers in [1, 2] {
            let mut s = session(workers);
            let plan = StreamPlan::churn(19);
            let gen = TextGen {
                vocab: 16,
                min_tokens: 4,
                max_tokens: 7,
            };
            let mut clock = SimClock::new();
            for _ in 0..30 {
                s.run_plan_batch(&plan, &gen, 20, &mut clock, 1.0).unwrap();
            }
            let obs = magellan_obs::Obs::pinned();
            let guard = obs.install();
            s.run_plan_batch(&plan, &gen, 20, &mut clock, 1.0).unwrap();
            drop(guard);
            let snap = obs.snapshot();
            // The tick must hand each region more items than workers, or
            // one chunk per item would pass too.
            assert!(
                snap.counter("magellan_simjoin_delta_probes_total") >= 8
                    && snap.counter("magellan_stream_dirty_pairs_total") >= 4,
                "fixture too sparse at {workers} workers: {}",
                snap.to_prometheus()
            );
            // Chunk spans by the region (span) they ran under.
            let mut per_region: Vec<(u64, usize)> = Vec::new();
            for chunk in snap.spans_named("chunk") {
                match per_region.iter_mut().find(|(r, _)| *r == chunk.parent) {
                    Some((_, n)) => *n += 1,
                    None => per_region.push((chunk.parent, 1)),
                }
            }
            let mut regions: Vec<&str> = per_region
                .iter()
                .filter_map(|&(id, _)| snap.spans.iter().find(|sp| sp.id == id))
                .map(|sp| sp.name)
                .collect();
            regions.sort_unstable();
            assert_eq!(regions, ["delta_probe", "delta_probe", "rescore_dirty"]);
            for &(_, n) in &per_region {
                assert!(n <= workers, "{per_region:?} at {workers} workers");
            }
            let chunks: usize = per_region.iter().map(|&(_, n)| n).sum();
            assert_eq!(
                snap.counter("magellan_par_chunks_total{phase=\"stream\"}"),
                chunks as u64
            );
        }
    }

    /// Kill the daemon mid-stream, restore from the checkpoint, replay the
    /// remaining plan suffix: the final view is identical to the unkilled
    /// run.
    #[test]
    fn checkpoint_resume_replays_identically() {
        // Unkilled reference: 14 batches straight through.
        let mut whole = session(1);
        drive(&mut whole, 23, 14, 7);

        // Killed run: 6 batches, checkpoint, "crash", restore, 8 more.
        let mut first = session(1);
        drive(&mut first, 23, 6, 7);
        let ckpt = first.checkpoint_bytes();
        drop(first);
        let mut resumed = StreamSession::restore_from_bytes(
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
            peak = peak.max(report.live_matches);
        }
        assert!(
            peak > 0,
            "stream never produced a match — fixture too sparse"
        );
        let mut resumed = StreamSession::restore_from_bytes(
            &s.checkpoint_bytes(),
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
        .unwrap();
        assert_eq!(resumed.n_matches(), s.n_matches());
        assert_eq!(resumed.n_candidates(), s.n_candidates());
        let report = resumed
            .run_plan_batch(&plan, &gen, 6, &mut clock, 1.0)
            .unwrap();
        assert_eq!(report.live_matches, resumed.n_matches());
        assert_eq!(report.live_candidates, resumed.engine().n_live_pairs());
    }

    /// Re-writing a matched record to a non-matching text and back moves
    /// the match counter down and up again.
    #[test]
    fn match_counter_follows_a_record_out_and_back() {
        let mut s = session(1);
        let text = |t: &str| Some(t.to_owned());
        let insert = |side, t| RecordMutation::Insert {
            side,
            text: text(t),
        };
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
        assert_eq!(
            (away.pairs_removed, away.live_candidates, away.live_matches),
            (1, 0, 0)
        );
        let back = s.ingest(&[update(title)]).unwrap();
        assert_eq!(
            (back.dirty_pairs, back.live_candidates, back.live_matches),
            (1, 1, 1)
        );
        assert_eq!(s.matched_pairs().len(), 1);
    }

    /// The alive set answers as the ascending list of alive rids it
    /// replaces, under seeded marks that grow it, revive and kill rids.
    #[test]
    fn alive_set_is_the_ascending_alive_list() {
        let mut set = AliveSet::default();
        let mut model: Vec<bool> = Vec::new();
        for step in 0..3_000u64 {
            let r = splitmix64(step);
            let rid = (r % (model.len() as u64 + 3)) as usize;
            let alive = r >> 40 & 3 != 0;
            if model.len() <= rid {
                model.resize(rid + 1, false);
            }
            model[rid] = alive;
            set.set(rid, alive);
            let list: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
            assert_eq!(set.len(), list.len());
            for (k, &rid) in list.iter().enumerate().step_by(7) {
                assert_eq!(set.nth(k), rid, "k = {k} after {step} marks");
            }
        }
    }

    /// A digest of the session's state that does not depend on any file
    /// format: both sides' texts, the live view with sim bits, every
    /// score's bits, and the cursors.
    fn state_digest(s: &StreamSession) -> u64 {
        let mut words = Vec::new();
        for side in [Side::Left, Side::Right] {
            words.push(s.engine().texts(side).len() as u64);
            for t in s.engine().texts(side) {
                let bytes = t.as_deref().map_or(&[][..], str::as_bytes);
                words.push(t.as_ref().map_or(u64::MAX, |t| t.len() as u64));
                words.extend(bytes.iter().map(|&b| u64::from(b)));
            }
        }
        let live = s.engine().live_pairs();
        words.push(live.len() as u64);
        words.extend(
            live.iter()
                .flat_map(|p| [p.l as u64, p.r as u64, p.sim.to_bits()]),
        );
        let scores = s.sorted_scores();
        words.push(scores.len() as u64);
        words.extend(
            scores
                .iter()
                .flat_map(|&((l, r), p)| [l as u64, r as u64, p.to_bits()]),
        );
        words.extend([s.batches(), s.ops()]);
        words.iter().fold(0, |h, &w| splitmix64(h ^ w))
    }

    /// The state a checkpoint carries is pinned twice. The state digest
    /// was recorded at 4e8dac4, the last `emstream v2` writer, with the
    /// index and vocab generations it then carried left out, and holds
    /// before and after an `emstream v3` round trip; the file's length and
    /// digest pin the v3 bytes themselves.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let s = churned();
        let bytes = s.checkpoint_bytes();
        let file_digest = bytes.chunks(8).fold(0u64, |h, w| {
            splitmix64(h ^ u64::from_le_bytes(w.try_into().unwrap()))
        });
        assert_eq!(
            (s.n_candidates(), s.n_matches(), state_digest(&s)),
            (84, 19, 0xe547_58c3_0ef9_998b)
        );
        assert_eq!((bytes.len(), file_digest), (5_216, 0x5bb2_f72d_e0bc_64ae));
        let back = restore(&bytes).unwrap();
        assert_eq!(state_digest(&back), 0xe547_58c3_0ef9_998b);
        assert_eq!(back.checkpoint_bytes(), bytes);
    }

    /// A batch that deletes a rid its side does not have is refused
    /// before anything changes: the session checkpoints to the same bytes
    /// and its next batch still lands on the oracle.
    #[test]
    fn a_batch_naming_an_unknown_rid_leaves_the_session_untouched() {
        let mut s = churned();
        let before = s.checkpoint_bytes();
        let right = s.engine().n_records(Side::Right);
        let refused = [
            RecordMutation::Insert {
                side: Side::Left,
                text: Some("tok1 tok2 tok3".to_owned()),
            },
            RecordMutation::Delete {
                side: Side::Right,
                rid: right,
            },
        ];
        match s.ingest(&refused) {
            Err(MagellanError::Config { message }) => {
                assert!(message.contains(&format!("Right rid {right}")), "{message}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
        assert_eq!(s.checkpoint_bytes(), before);
        s.ingest(&refused[..1]).unwrap();
        assert_eq!(s.batches(), 41);
        drive(&mut s, 41, 3, 8);
        let (live, oracle) = (s.matched_pairs(), s.rebuild_oracle().unwrap());
        assert_eq!(live.len(), oracle.len());
        for ((lk, lp), (ok, op)) in live.iter().zip(&oracle) {
            assert_eq!((lk, lp.to_bits()), (ok, op.to_bits()));
        }
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

    fn restore(bytes: &[u8]) -> Result<StreamSession, MagellanError> {
        StreamSession::restore_from_bytes(
            bytes,
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
    }

    /// Restore checks what it indexes by rid. Each edit below is re-sealed
    /// through the codec writer, so a checksum cannot be what rejects it.
    #[test]
    fn restore_rejects_pair_lists_it_could_not_index() {
        let good = churned().checkpoint_bytes();
        let reseal = |edit: &dyn Fn(&mut SavedStream)| {
            let mut saved = SavedStream::decode(&good).unwrap();
            edit(&mut saved);
            saved.encode()
        };
        assert_eq!(reseal(&|_| {}), good);
        type Edit = Box<dyn Fn(&mut SavedStream)>;
        let cases: Vec<(&str, Edit)> = vec![
            ("outside", Box::new(|s| s.live[0].l = s.left.len())),
            ("outside", Box::new(|s| s.live[0].r = s.right.len())),
            ("not strictly ascending", Box::new(|s| s.live.swap(0, 1))),
            (
                "not strictly ascending",
                Box::new(|s| {
                    s.live.insert(0, s.live[0]);
                    s.scores.insert(0, s.scores[0]);
                }),
            ),
            (
                "null record",
                Box::new(|s| {
                    let l = s.live[0].l;
                    s.left[l] = None;
                }),
            ),
            ("differ", Box::new(|s| s.scores.push(s.scores[0]))),
            (
                "differ",
                Box::new(|s| {
                    s.scores.pop();
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

    /// Corruption in any checkpoint section is a fatal, precise error, and
    /// an `emstream v1` text checkpoint or an `emstream v2` file (index
    /// generations in its cursor) is refused by name.
    #[test]
    fn corrupt_checkpoints_are_fatal() {
        let mut s = session(1);
        drive(&mut s, 5, 3, 5);
        let good = s.checkpoint_bytes();
        assert!(restore(&good).is_ok());
        assert!(restore(b"").is_err());
        let v1 = restore(b"emstream v1\ncursor batches 3 ops 15\n")
            .err()
            .unwrap();
        assert!(
            v1.fatal() && v1.to_string().contains("found `emstream v1`"),
            "{v1}"
        );
        let v2 = segment::encode("emstream v2", &[(SEG_CURSOR, &words([3, 15, 1, 1, 9]))]);
        let v2 = restore(&v2).err().unwrap();
        assert!(
            matches!(v2, MagellanError::Checkpoint { .. })
                && v2.fatal()
                && v2.to_string().contains("found `emstream v2`"),
            "{v2}"
        );
        assert!(restore(&good[..good.len() / 2]).is_err());
        // The cursor's `batches` word, flipped under its stale checksum.
        let mut tampered = good.clone();
        tampered[16 + 16] ^= 0x01;
        let e = restore(&tampered).err().unwrap();
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
        // A text that is not UTF-8, sealed by the codec so only the
        // decoder sees it.
        let mut r = SegmentReader::open(&good, STREAM_MAGIC).unwrap();
        let mut segs: Vec<(u32, Vec<u8>)> =
            [SEG_CURSOR, SEG_LTEXTS, SEG_RTEXTS, SEG_LIVE, SEG_SCORES]
                .iter()
                .map(|&t| (t, r.expect(t).unwrap().payload.to_vec()))
                .collect();
        segs[1].1 = [words([1, 1]), vec![0xff]].concat();
        let segs: Vec<(u32, &[u8])> = segs.iter().map(|(t, p)| (*t, p.as_slice())).collect();
        let e = restore(&segment::encode(STREAM_MAGIC, &segs))
            .err()
            .unwrap();
        assert!(e.to_string().contains("not UTF-8"), "{e}");
    }
}
