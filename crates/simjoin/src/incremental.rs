//! The incremental tier: delta-maintained sim-join with O(delta) updates.
//!
//! The batch engine ([`crate::join`]) re-tokenizes, re-indexes, and
//! re-probes the whole corpus on every run — O(corpus) per update, the
//! exact cost the paper's "EM in the cloud, continuously, over evolving
//! data" agenda calls out. This module maintains the join **under
//! mutation**: records are inserted, deleted, and updated in batches, and
//! each batch emits *signed pair deltas* ([`PairDelta::Added`] /
//! [`PairDelta::Removed`]) against a standing index, in time proportional
//! to the batch, not the corpus.
//!
//! ## Index structure
//!
//! Each side keeps a two-level index:
//!
//! * a **standing CSR prefix index** ([`PrefixIndex`]) packed at the last
//!   compaction, with a per-record staleness bitmap — a delete or update
//!   *tombstones* the record's CSR postings in place (they are skipped at
//!   probe time, never eagerly unlinked);
//! * a **tail overlay** (token → postings map) holding records inserted or
//!   re-written since the compaction. Tail postings carry the record's
//!   *mutation generation*; a posting whose generation lags the record's
//!   current one is a tombstone too.
//!
//! When the tombstoned fraction of all postings crosses the compaction
//! threshold (or the tail outgrows the CSR), the index is **re-packed**:
//! one CSR build over the live records, tail cleared, staleness reset,
//! and the side's *index generation* bumped. Compaction never changes any
//! emitted pair — it is a pure layout event (asserted in tests) — so the
//! threshold is a performance knob, not a correctness knob.
//!
//! ## Token order and determinism
//!
//! The prefix-filter lemma needs only *some* total order shared by both
//! sides — prefix lengths depend on set size and threshold alone — but
//! the order decides what a prefix costs: candidates are the postings
//! under the probe's prefix tokens, so the prefix should hold the rare
//! ones. The batch engine sorts tokens by document frequency; a standing
//! index cannot (frequencies move under mutation, and re-ranking rewrites
//! every stored set). The incremental tier orders tokens
//! **latest-first-seen first**: a record's set is stored as ascending
//! `u32::MAX − interner id` keys. Because the interner is append-only, a
//! new token gets a key *below* every existing one, so no stored set,
//! prefix or posting ever changes under vocabulary growth; and because a
//! token's first sighting comes early in proportion to how common it is
//! (Zipf/Heaps), old means frequent and the prefix leans rare without a
//! frequency table, an epoch or a re-sort at compaction. A stream that
//! introduces its frequent tokens late only loses filter selectivity —
//! speed, never correctness: every measure's similarity is a pure
//! symmetric function of `(|x|, |y|, |x ∩ y|)`, the filters are
//! conservative under any shared order and verification computes the exact
//! overlap, so the live view is **bit-identical** — same pair set, same
//! `f64` bits — to a from-scratch [`crate::join::set_sim_join`] over the
//! surviving records, after any batch, at any worker count, regardless of
//! compaction timing.
//!
//! ## Probing
//!
//! A delta probe runs the batch engine's own cascade (`join::probe_one`:
//! size window → accumulating positional filter → suffix-resumed bounded
//! verification). The tier only supplies what is live (`Standing`, a
//! `join::ProbeTarget`): a token's CSR window minus stale records,
//! then its tail list minus generation mismatches. A live record has its
//! current version in exactly one of the two, so it contributes at most
//! one posting per token, which is all the cascade's counters rely on.
//!
//! A batch's probes run as two regions on the pool, left probes then
//! right (`delta_probe` spans), each cut one chunk per worker unless the
//! caller's [`ParConfig`] sets a chunk size
//! ([`ParConfig::one_chunk_per_worker`]): a stream tick has a dozen or so
//! probes, nothing to steal, and the pool's default of eight chunks per
//! worker gave each probe its own chunk, whose setup (panic containment,
//! timers, an output slot, the scratch) cost more than many a probe. The
//! regions' pool counters are published under `phase="stream"`.
//!
//! ## Live view
//!
//! Rids are dense and never reused, so the view needs no map: it is one
//! partner list per left rid, `(right rid, similarity)`, with a list of
//! left partners per right rid beside it, both vectors growing by one
//! empty list per insert. A batch's `Removed` set is its touched records'
//! lists: each touched left list is drained (every partner unlinks it
//! from its own list by `swap_remove`), then each touched right list, which
//! by then holds only pairs whose left end was untouched, so a pair with
//! both ends re-written is emitted once. The removed pairs are sorted once
//! and the added ones pushed onto the lists. A record has a handful of
//! partners, so the lists stay unsorted and [`IncrementalJoin::live_pairs`]
//! sorts each on read — the cold path of checkpoints and oracles, never a
//! tick.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use magellan_par::{chunk_map, JoinStats, ParConfig};
use magellan_textsim::intern::TokenInterner;
use magellan_textsim::tokenize::Tokenizer;

use crate::index::{for_each_rest, PrefixIndex};
use crate::join::{
    probe_one, set_sim_join, with_scratch, JoinPair, ProbeTarget, SetSimMeasure, PROBE_STAMPS,
};

/// Which collection a mutation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left collection.
    Left,
    /// The right collection.
    Right,
}

/// One record-level mutation. Record ids are assigned densely per side in
/// insertion order and are **never reused**: a delete tombstones the id, an
/// update re-writes it in place.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordMutation {
    /// Append a record (gets the next rid on its side). `None` behaves
    /// like a null attribute: it never matches anything.
    Insert {
        /// Target collection.
        side: Side,
        /// Record text (`None` = null).
        text: Option<String>,
    },
    /// Tombstone an existing record.
    Delete {
        /// Target collection.
        side: Side,
        /// Record id on that side.
        rid: usize,
    },
    /// Re-write an existing record in place (same rid, new content).
    Update {
        /// Target collection.
        side: Side,
        /// Record id on that side.
        rid: usize,
        /// Replacement text (`None` = null).
        text: Option<String>,
    },
}

/// A signed pair delta: the live matched view after a batch is exactly
/// the previous view minus `Removed` plus `Added`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairDelta {
    /// The pair now qualifies (with its exact similarity).
    Added(JoinPair),
    /// The pair no longer exists (one endpoint was deleted or re-written;
    /// a re-write that still qualifies re-appears as a fresh `Added`).
    Removed {
        /// Left record id.
        l: usize,
        /// Right record id.
        r: usize,
    },
}

/// One tail-overlay posting: like [`crate::index::Posting`] plus the
/// record generation it was packed under (stale ⇔ generation lags).
#[derive(Debug, Clone, Copy)]
struct TailPosting {
    rid: u32,
    pos: u32,
    size: u32,
    rest: u32,
    gen: u32,
}

/// Mutable record store for one side.
#[derive(Debug, Default)]
struct SideState {
    /// Live text per rid (`None` = null or tombstoned).
    texts: Vec<Option<String>>,
    /// Ascending deduplicated key set per rid (key = `u32::MAX` − interner
    /// id, see the module docs; empty ⇔ never matches; deletes clear it).
    tokens: Vec<Vec<u32>>,
    /// Mutation generation per rid: bumped on every delete/update, pinned
    /// into tail postings so stale ones are skipped without unlinking.
    gens: Vec<u32>,
    /// Number of `Some`s in `texts`.
    n_alive: usize,
}

impl SideState {
    /// Append a record and return its rid.
    fn push(&mut self, text: Option<String>, tokens: Vec<u32>) -> usize {
        assert!(
            self.texts.len() < u32::MAX as usize,
            "postings and partner lists store rids as u32"
        );
        self.n_alive += usize::from(text.is_some());
        self.texts.push(text);
        self.tokens.push(tokens);
        self.gens.push(0);
        self.texts.len() - 1
    }
}

/// A text's token set under the tier's order: ascending
/// `u32::MAX − interner id`, so later-seen (rarer) tokens come first.
fn key_set(interner: &mut TokenInterner, tokenizer: &dyn Tokenizer, text: &str) -> Vec<u32> {
    let mut set = interner.intern_tokens(tokenizer, text);
    set.reverse();
    for id in &mut set {
        *id = u32::MAX - *id;
    }
    set
}

/// The two-level standing index for one side.
#[derive(Debug, Default)]
struct SideIndex {
    /// CSR prefix index packed at the last compaction.
    csr: PrefixIndex,
    /// Number of rids the CSR covers (rids ≥ this live only in the tail).
    csr_len: usize,
    /// Per-CSR-rid staleness: `true` ⇔ deleted or re-written since the
    /// pack, so every CSR posting of that rid is a tombstone.
    csr_stale: Vec<bool>,
    /// Tombstoned postings still packed in the CSR.
    dead_csr_postings: usize,
    /// Tombstoned postings still held in the tail overlay.
    dead_tail_postings: usize,
    /// Tail overlay: token id → postings added since the compaction.
    tail: HashMap<u32, Vec<TailPosting>>,
    /// Total tail postings (live + tombstoned).
    n_tail_postings: usize,
    /// Index generation: bumped once per compaction.
    generation: u64,
}

impl SideIndex {
    /// Tombstoned fraction of all postings (CSR + tail).
    fn dead_fraction(&self) -> f64 {
        let total = self.csr.n_postings() + self.n_tail_postings;
        if total == 0 {
            0.0
        } else {
            (self.dead_csr_postings + self.dead_tail_postings) as f64 / total as f64
        }
    }

    /// Re-pack: one CSR build over the live records, tail cleared,
    /// staleness reset, generation bumped. Pure layout — no probe output
    /// changes across a compaction.
    fn compact(&mut self, state: &SideState, measure: SetSimMeasure) {
        // Keys crowd the top of the `u32` range; basing the CSR at the
        // smallest one in use keeps its offsets vocabulary-sized.
        let base = state
            .tokens
            .iter()
            .filter_map(|set| set.first().copied())
            .min()
            .unwrap_or(0);
        self.csr = PrefixIndex::build(&state.tokens, base, |s| measure.prefix_len(s));
        self.csr_len = state.tokens.len();
        self.csr_stale.clear();
        self.csr_stale.resize(self.csr_len, false);
        self.dead_csr_postings = 0;
        self.dead_tail_postings = 0;
        self.tail.clear();
        self.n_tail_postings = 0;
        self.generation += 1;
    }

    /// Add the current version of `rid` to the tail overlay.
    fn push_tail(&mut self, rid: usize, state: &SideState, measure: SetSimMeasure) {
        let set = &state.tokens[rid];
        let plen = measure.prefix_len(set.len()).min(set.len());
        for_each_rest(set, plen, |pos, tok, rest| {
            self.tail.entry(tok).or_default().push(TailPosting {
                rid: rid as u32,
                pos: pos as u32,
                size: set.len() as u32,
                rest,
                gen: state.gens[rid],
            });
        });
        self.n_tail_postings += plen;
    }
}

/// One side's standing index as a probe target: what is live under a
/// token is its CSR window minus stale records, then its tail list minus
/// superseded versions.
struct Standing<'a> {
    state: &'a SideState,
    index: &'a SideIndex,
    measure: SetSimMeasure,
    /// Sorted rids never offered as partners (the other direction's probe
    /// emits those pairs). Every one was mutated this batch, so its live
    /// version sits in the tail and only the tail scan consults this.
    skip: &'a [usize],
}

impl ProbeTarget for Standing<'_> {
    #[inline]
    fn for_each_posting(
        &self,
        tok: u32,
        lo: usize,
        hi: usize,
        stats: &mut JoinStats,
        mut f: impl FnMut(u32, u32, u32, u32),
    ) {
        let (win, outside) = self.index.csr.size_window(tok, lo, hi);
        stats.killed_by_size += outside;
        for p in win {
            if self.index.csr_stale[p.rid as usize] {
                stats.tombstones_skipped += 1;
                continue;
            }
            f(p.rid, p.pos, p.size, p.rest);
        }
        // Tail overlay: small, unsorted, scanned with per-posting
        // generation and size checks.
        let Some(list) = self.index.tail.get(&tok) else {
            return;
        };
        stats.tail_postings_scanned += list.len();
        for p in list {
            let rid = p.rid as usize;
            if p.gen != self.state.gens[rid] {
                stats.tombstones_skipped += 1;
                continue;
            }
            let size = p.size as usize;
            if size < lo || size > hi {
                stats.killed_by_size += 1;
                continue;
            }
            if self.skip.binary_search(&rid).is_ok() {
                continue;
            }
            f(p.rid, p.pos, p.size, p.rest);
        }
    }

    #[inline]
    fn record(&self, rid: usize) -> (&[u32], usize) {
        let y = &self.state.tokens[rid];
        (y, self.measure.prefix_len(y.len()).min(y.len()))
    }
}

/// Default tombstoned-postings fraction that triggers a compaction.
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.25;

/// Tail postings below this never trigger the tail-outgrew-CSR repack.
const TAIL_COMPACT_FLOOR: usize = 64;

/// A delta-maintained set-similarity join over two evolving collections.
///
/// Apply [`RecordMutation`] batches with [`IncrementalJoin::apply_batch`];
/// each returns the signed [`PairDelta`]s and delta-phase [`JoinStats`].
/// The maintained view ([`IncrementalJoin::live_pairs`]) is bit-identical
/// to a from-scratch batch join over the surviving records
/// ([`IncrementalJoin::rebuild_from_scratch`]) after every batch.
///
/// ```
/// use magellan_simjoin::incremental::{IncrementalJoin, RecordMutation, Side};
/// use magellan_simjoin::SetSimMeasure;
/// use magellan_par::ParConfig;
/// use magellan_textsim::tokenize::WhitespaceTokenizer;
///
/// let tok = WhitespaceTokenizer::new();
/// let mut join = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
/// let (deltas, _) = join.apply_batch(
///     &[
///         RecordMutation::Insert { side: Side::Left, text: Some("dave smith".into()) },
///         RecordMutation::Insert { side: Side::Right, text: Some("dave smith".into()) },
///     ],
///     &tok,
///     &ParConfig::serial(),
/// );
/// assert_eq!(deltas.len(), 1);
/// assert_eq!(join.live_pairs(), join.rebuild_from_scratch(&tok));
/// ```
pub struct IncrementalJoin {
    measure: SetSimMeasure,
    interner: TokenInterner,
    left: SideState,
    right: SideState,
    /// Standing index over the **left** records (probed by new/changed
    /// right records).
    left_index: SideIndex,
    /// Standing index over the **right** records (probed by new/changed
    /// left records).
    right_index: SideIndex,
    /// The live view, left-major: left rid → `(right partner, exact
    /// similarity)` for every qualifying pair, in no particular order.
    by_left: Vec<Vec<(u32, f64)>>,
    /// Right rid → left partners: the same pairs from the other end, so a
    /// mutated right record finds its pairs without a scan.
    by_right: Vec<Vec<u32>>,
    /// Number of pairs in the live view.
    n_live: usize,
    compaction_threshold: f64,
    /// Wall-clock pause of every compaction so far (bench: pause p99).
    compaction_pauses: Vec<Duration>,
}

impl IncrementalJoin {
    /// Empty engine for a measure, with the default compaction threshold.
    pub fn new(measure: SetSimMeasure) -> Self {
        measure.validate();
        IncrementalJoin {
            measure,
            interner: TokenInterner::new(),
            left: SideState::default(),
            right: SideState::default(),
            left_index: SideIndex::default(),
            right_index: SideIndex::default(),
            by_left: Vec::new(),
            by_right: Vec::new(),
            n_live: 0,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            compaction_pauses: Vec::new(),
        }
    }

    /// Override the tombstoned-postings fraction that triggers compaction
    /// (a pure performance knob — the view is compaction-invariant).
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "compaction threshold must be positive");
        self.compaction_threshold = threshold;
        self
    }

    /// The engine's measure.
    pub fn measure(&self) -> SetSimMeasure {
        self.measure
    }

    /// Record texts of a side, tombstones as `None`, rid-addressed.
    pub fn texts(&self, side: Side) -> &[Option<String>] {
        match side {
            Side::Left => &self.left.texts,
            Side::Right => &self.right.texts,
        }
    }

    /// Records ever inserted on a side (tombstones included — rids are
    /// never reused).
    pub fn n_records(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left.texts.len(),
            Side::Right => self.right.texts.len(),
        }
    }

    /// Live (non-tombstoned) records on a side.
    pub fn n_alive(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left.n_alive,
            Side::Right => self.right.n_alive,
        }
    }

    /// Index generation of a side: bumped once per compaction.
    pub fn index_generation(&self, side: Side) -> u64 {
        match side {
            Side::Left => self.left_index.generation,
            Side::Right => self.right_index.generation,
        }
    }

    /// Vocabulary generation of the shared interner.
    pub fn vocab_generation(&self) -> u64 {
        self.interner.generation()
    }

    /// The live view as `(l, r)`-sorted pairs — the same shape (and, by
    /// the determinism contract, the same bits) as the batch join. Each
    /// record's partner list is sorted here, on read: O(view), for
    /// checkpoints and oracles, not for a tick.
    pub fn live_pairs(&self) -> Vec<JoinPair> {
        let mut out = Vec::with_capacity(self.n_live);
        for (l, partners) in self.by_left.iter().enumerate() {
            let from = out.len();
            out.extend(partners.iter().map(|&(r, sim)| JoinPair {
                l,
                r: r as usize,
                sim,
            }));
            out[from..].sort_unstable_by_key(|p| p.r);
        }
        out
    }

    /// Number of live qualifying pairs.
    pub fn n_live_pairs(&self) -> usize {
        self.n_live
    }

    /// Wall-clock pauses of all compactions so far, in event order.
    pub fn compaction_pauses(&self) -> &[Duration] {
        &self.compaction_pauses
    }

    /// From-scratch oracle: a full batch join over the current record
    /// texts. O(corpus) — exists to *prove* the delta path right (and to
    /// measure what it saves), not to serve queries.
    pub fn rebuild_from_scratch(&self, tokenizer: &dyn Tokenizer) -> Vec<JoinPair> {
        set_sim_join(&self.left.texts, &self.right.texts, tokenizer, self.measure)
    }

    /// Restore an engine from checkpointed state: record texts, the live
    /// view (exact `f64` bits), and the per-side index generations. The
    /// indexes are re-packed from the records (layout is not part of the
    /// contract); the generations are pinned to the stored values.
    ///
    /// # Panics
    ///
    /// If `live` is not strictly `(l, r)`-ascending or names a rid whose
    /// text is missing or `None` — what [`IncrementalJoin::live_pairs`]
    /// returns never is; a caller restoring untrusted input checks first.
    pub fn restore(
        measure: SetSimMeasure,
        tokenizer: &dyn Tokenizer,
        left_texts: Vec<Option<String>>,
        right_texts: Vec<Option<String>>,
        live: Vec<JoinPair>,
        left_generation: u64,
        right_generation: u64,
    ) -> Self {
        let mut eng = IncrementalJoin::new(measure);
        eng.left = Self::restore_side(&mut eng.interner, tokenizer, left_texts);
        eng.right = Self::restore_side(&mut eng.interner, tokenizer, right_texts);
        eng.left_index.compact(&eng.left, measure);
        eng.right_index.compact(&eng.right, measure);
        eng.left_index.generation = left_generation;
        eng.right_index.generation = right_generation;
        eng.grow_view();
        for (i, p) in live.iter().enumerate() {
            assert!(
                i == 0 || (live[i - 1].l, live[i - 1].r) < (p.l, p.r),
                "restored view is not strictly (l, r)-ascending at ({}, {})",
                p.l,
                p.r
            );
            let alive =
                |texts: &[Option<String>], rid: usize| texts.get(rid).is_some_and(Option::is_some);
            assert!(
                alive(&eng.left.texts, p.l) && alive(&eng.right.texts, p.r),
                "restored pair ({}, {}) names a missing or null record",
                p.l,
                p.r
            );
            eng.link(p);
        }
        eng
    }

    /// One empty partner list per record ever inserted, on each side.
    fn grow_view(&mut self) {
        self.by_left.resize_with(self.left.texts.len(), Vec::new);
        self.by_right.resize_with(self.right.texts.len(), Vec::new);
    }

    /// Add a qualifying pair to the live view (it must not be there yet).
    fn link(&mut self, p: &JoinPair) {
        self.by_left[p.l].push((p.r as u32, p.sim));
        self.by_right[p.r].push(p.l as u32);
        self.n_live += 1;
    }

    fn restore_side(
        interner: &mut TokenInterner,
        tokenizer: &dyn Tokenizer,
        texts: Vec<Option<String>>,
    ) -> SideState {
        let mut state = SideState::default();
        for text in texts {
            let tokens = match &text {
                Some(t) => key_set(interner, tokenizer, t),
                None => Vec::new(),
            };
            state.push(text, tokens);
        }
        state
    }

    /// Apply one mutation batch and return the signed pair deltas
    /// (`Removed` first, then `Added`, each `(l, r)`-sorted) plus the
    /// delta-phase counters. Work is O(batch × affected neighborhoods):
    /// only new/changed records are probed — in **both directions**, since
    /// the standing side's index answers "which standing records pair
    /// with this new one" and the probe covers "which new records pair
    /// with each other" by construction.
    pub fn apply_batch(
        &mut self,
        batch: &[RecordMutation],
        tokenizer: &dyn Tokenizer,
        cfg: &ParConfig,
    ) -> (Vec<PairDelta>, JoinStats) {
        let mut stats = JoinStats::default();

        // Phase 1: apply the record mutations, tombstoning superseded
        // postings and pushing the new versions into the tail overlays.
        let mut touched_left: Vec<usize> = Vec::new();
        let mut touched_right: Vec<usize> = Vec::new();
        for op in batch {
            let (side, rid, text, is_insert) = match op {
                RecordMutation::Insert { side, text } => (*side, usize::MAX, text.clone(), true),
                RecordMutation::Delete { side, rid } => (*side, *rid, None, false),
                RecordMutation::Update { side, rid, text } => (*side, *rid, text.clone(), false),
            };
            let tokens = match &text {
                Some(t) => key_set(&mut self.interner, tokenizer, t),
                None => Vec::new(),
            };
            let (state, index, touched) = match side {
                Side::Left => (&mut self.left, &mut self.left_index, &mut touched_left),
                Side::Right => (&mut self.right, &mut self.right_index, &mut touched_right),
            };
            let rid = if is_insert {
                state.push(None, Vec::new())
            } else {
                assert!(rid < state.texts.len(), "mutation of unknown rid {rid}");
                rid
            };
            // Tombstone the superseded version's postings in place.
            if rid < index.csr_len && !index.csr_stale[rid] {
                index.csr_stale[rid] = true;
                index.dead_csr_postings += index.csr.prefix_len(rid);
            } else if !is_insert {
                // The superseded version (possibly an earlier op of this
                // very batch) lives in the tail; its postings go stale via
                // the generation bump below.
                let old = &state.tokens[rid];
                let old_plen = self.measure.prefix_len(old.len()).min(old.len());
                index.dead_tail_postings += old_plen;
            }
            state.n_alive = state.n_alive + usize::from(text.is_some())
                - usize::from(state.texts[rid].is_some());
            state.texts[rid] = text;
            state.tokens[rid] = tokens;
            state.gens[rid] = state.gens[rid].wrapping_add(1);
            if !state.tokens[rid].is_empty() {
                index.push_tail(rid, state, self.measure);
            }
            touched.push(rid);
        }
        for touched in [&mut touched_left, &mut touched_right] {
            touched.sort_unstable();
            touched.dedup();
        }
        self.grow_view();

        // Phase 2: `Removed` deltas — every pre-batch live pair touching
        // a mutated record, straight off the partner lists (no index
        // scan). The left pass unlinks what it drains, so the right pass
        // meets only pairs whose left end was untouched: each pair once.
        let mut removed: Vec<(usize, usize)> = Vec::new();
        for &l in &touched_left {
            for (r, _) in self.by_left[l].drain(..) {
                unlink(&mut self.by_right[r as usize], |&x| x as usize == l);
                removed.push((l, r as usize));
            }
        }
        for &r in &touched_right {
            for l in self.by_right[r].drain(..) {
                unlink(&mut self.by_left[l as usize], |&(x, _)| x as usize == r);
                removed.push((l as usize, r));
            }
        }
        removed.sort_unstable();
        self.n_live -= removed.len();

        // Phase 3: `Added` deltas — probe the surviving touched records
        // against the opposing standing index (CSR + tail). Touched-right
        // probes skip touched-left partners: the touched-left probes
        // already see them through the tail, so each new×new pair is
        // emitted exactly once. (Touched-left records left with no tokens
        // have no postings to skip.)
        let probe_left: Vec<usize> = touched_left
            .iter()
            .copied()
            .filter(|&rid| !self.left.tokens[rid].is_empty())
            .collect();
        let probe_right: Vec<usize> = touched_right
            .iter()
            .copied()
            .filter(|&rid| !self.right.tokens[rid].is_empty())
            .collect();

        let measure = self.measure;
        let mut added = probe_batch(
            &probe_left,
            true,
            &self.left,
            &Standing {
                state: &self.right,
                index: &self.right_index,
                measure,
                skip: &[],
            },
            cfg,
            &mut stats,
        );
        added.extend(probe_batch(
            &probe_right,
            false,
            &self.right,
            &Standing {
                state: &self.left,
                index: &self.left_index,
                measure,
                skip: &probe_left,
            },
            cfg,
            &mut stats,
        ));
        added.sort_unstable_by_key(|p| (p.l, p.r));

        for p in &added {
            self.link(p);
        }

        // Phase 4: compaction check. Compaction is a pure layout event —
        // it happens after the deltas are computed and changes nothing
        // observable except generation counters and probe cost.
        for (side, (state, index)) in [
            (&self.left, &mut self.left_index),
            (&self.right, &mut self.right_index),
        ]
        .into_iter()
        .enumerate()
        {
            let tail_outgrew = index.n_tail_postings > TAIL_COMPACT_FLOOR
                && index.n_tail_postings > index.csr.n_postings();
            if index.dead_fraction() > self.compaction_threshold || tail_outgrew {
                let span = magellan_obs::span("compaction", side as u64);
                let t0 = Instant::now();
                index.compact(state, measure);
                let pause = t0.elapsed();
                magellan_obs::span_res_add("csr_index_bytes", index.csr.index_bytes() as u64);
                drop(span);
                if !magellan_obs::current().is_some_and(|o| o.is_pinned()) {
                    magellan_obs::hist_record(
                        "magellan_simjoin_compaction_pause_us",
                        pause.as_micros() as u64,
                    );
                }
                self.compaction_pauses.push(pause);
                stats.compactions += 1;
            }
        }

        stats.delta_pairs_added = added.len();
        stats.delta_pairs_removed = removed.len();
        stats.pairs = added.len();
        stats.publish();

        let mut deltas: Vec<PairDelta> = removed
            .into_iter()
            .map(|(l, r)| PairDelta::Removed { l, r })
            .collect();
        deltas.extend(added.into_iter().map(PairDelta::Added));
        (deltas, stats)
    }
}

/// Drop the one entry of a partner list that `is_it` picks (order is not
/// kept: the lists are sorted on read).
fn unlink<T>(list: &mut Vec<T>, is_it: impl Fn(&T) -> bool) {
    let at = list
        .iter()
        .position(is_it)
        .expect("the live view's partner lists name each pair from both ends");
    list.swap_remove(at);
}

/// Probe a list of new/changed records against the opposing standing
/// index on the work-stealing pool, one chunk per worker unless `cfg`
/// sets a chunk size: a tick's few dozen probes leave nothing to steal,
/// and a chunk per probe paid its setup per probe. Each probe is a pure
/// function of (record, standing state), so chunk order is irrelevant;
/// per-chunk outputs are merged in chunk order and the caller sorts by
/// `(l, r)` — bit-identical at any worker count. The region is a
/// `delta_probe` span (key 0 left probes, 1 right) and publishes its pool
/// counters under `phase="stream"`.
fn probe_batch(
    probes: &[usize],
    probe_is_left: bool,
    probe_state: &SideState,
    standing: &Standing<'_>,
    cfg: &ParConfig,
    stats: &mut JoinStats,
) -> Vec<JoinPair> {
    if probes.is_empty() {
        return Vec::new();
    }
    let _span = magellan_obs::span("delta_probe", u64::from(!probe_is_left));
    let stamp_base = PROBE_STAMPS.fetch_add(probes.len() as u64, Ordering::Relaxed);
    let pool = cfg.one_chunk_per_worker(probes.len());
    let (chunks, par) = chunk_map(probes.len(), &pool, |range| {
        with_scratch(standing.state.tokens.len(), |scratch| {
            let mut out: Vec<JoinPair> = Vec::new();
            let mut js = JoinStats::default();
            for p in range {
                probe_one(
                    probes[p] as u32, // rids fit `u32` (`SideState::push`)
                    stamp_base + p as u64,
                    &probe_state.tokens[probes[p]],
                    standing,
                    standing.measure,
                    !probe_is_left,
                    scratch,
                    &mut out,
                    &mut js,
                );
            }
            (out, js)
        })
    });
    par.publish("stream");
    let mut out = Vec::new();
    for (pairs, js) in chunks {
        out.extend(pairs);
        stats.merge(&js);
    }
    // Every listed probe has a non-empty set, so each one was a probe.
    stats.delta_probes += probes.len();
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use magellan_textsim::tokenize::WhitespaceTokenizer;

    fn ins(side: Side, text: &str) -> RecordMutation {
        RecordMutation::Insert {
            side,
            text: Some(text.to_owned()),
        }
    }

    fn seed_batch(n: usize, seed: u64) -> Vec<RecordMutation> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..n * 2)
            .map(|i| {
                let side = if i % 2 == 0 { Side::Left } else { Side::Right };
                let len = 2 + next() % 5;
                let text = (0..len)
                    .map(|_| format!("t{}", next() % 30))
                    .collect::<Vec<_>>()
                    .join(" ");
                ins(side, &text)
            })
            .collect()
    }

    /// After every batch the live view equals the from-scratch oracle
    /// bit-for-bit (pairs, order, f64 sims).
    #[test]
    fn live_view_equals_rebuild_under_mixed_mutations() {
        let tok = WhitespaceTokenizer::new();
        for measure in [
            SetSimMeasure::Jaccard(0.5),
            SetSimMeasure::Cosine(0.6),
            SetSimMeasure::Dice(0.6),
            SetSimMeasure::OverlapSize(2),
        ] {
            let mut eng = IncrementalJoin::new(measure);
            let cfg = ParConfig::serial();
            eng.apply_batch(&seed_batch(40, 11), &tok, &cfg);
            assert_eq!(
                eng.live_pairs(),
                eng.rebuild_from_scratch(&tok),
                "{measure:?} seed"
            );
            // Deletes, updates, more inserts, a null update.
            let batch = vec![
                RecordMutation::Delete {
                    side: Side::Left,
                    rid: 3,
                },
                RecordMutation::Delete {
                    side: Side::Right,
                    rid: 7,
                },
                RecordMutation::Update {
                    side: Side::Left,
                    rid: 0,
                    text: Some("t1 t2 t3".into()),
                },
                RecordMutation::Update {
                    side: Side::Right,
                    rid: 1,
                    text: Some("t1 t2 t3".into()),
                },
                RecordMutation::Update {
                    side: Side::Right,
                    rid: 2,
                    text: None,
                },
                ins(Side::Left, "t1 t2 t3 t4"),
                ins(Side::Right, "t1 t2 t3 t4"),
            ];
            eng.apply_batch(&batch, &tok, &cfg);
            assert_eq!(
                eng.live_pairs(),
                eng.rebuild_from_scratch(&tok),
                "{measure:?} mixed"
            );
            // The alive counter agrees with a scan (nulls and deletes both
            // leave `None`).
            for side in [Side::Left, Side::Right] {
                let scanned = eng.texts(side).iter().filter(|t| t.is_some()).count();
                assert_eq!(eng.n_alive(side), scanned, "{measure:?} {side:?}");
            }
        }
    }

    fn update(side: Side, rid: usize, text: &str) -> RecordMutation {
        RecordMutation::Update {
            side,
            rid,
            text: Some(text.to_owned()),
        }
    }

    type Pairs = Vec<(usize, usize)>;

    /// A batch's deltas as its `Removed` and its `Added` pairs.
    fn split(deltas: &[PairDelta]) -> (Pairs, Pairs) {
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for d in deltas {
            match *d {
                PairDelta::Removed { l, r } => removed.push((l, r)),
                PairDelta::Added(p) => added.push((p.l, p.r)),
            }
        }
        (removed, added)
    }

    /// The removal walk empties touched left records' lists first, so a
    /// pair with both ends re-written is found from the left only: one
    /// `Removed`, and the batch's `Removed`s come out `(l, r)`-ascending
    /// whichever end found them.
    #[test]
    fn removal_walk_emits_each_pair_once_in_order() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
        let seed: Vec<RecordMutation> = [Side::Left, Side::Right]
            .into_iter()
            .cycle()
            .take(6)
            .map(|side| ins(side, "a b c"))
            .collect();
        eng.apply_batch(&seed, &tok, &cfg);
        assert_eq!(eng.n_live_pairs(), 9);
        // Right 2 and left 1 move to a text only they share, so (1, 2) has
        // both ends touched; right 0 moves to one nobody shares. Only the
        // right pass finds (0, 0), (0, 2), (2, 0) and (2, 2).
        let (deltas, stats) = eng.apply_batch(
            &[
                update(Side::Right, 2, "x y"),
                update(Side::Left, 1, "x y"),
                update(Side::Right, 0, "p q"),
            ],
            &tok,
            &cfg,
        );
        let (removed, added) = split(&deltas);
        assert_eq!(
            removed,
            [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)]
        );
        assert_eq!(removed.iter().filter(|&&p| p == (1, 2)).count(), 1);
        assert!(removed.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(stats.delta_pairs_removed, removed.len());
        assert_eq!(added, [(1, 2)]);
        assert_eq!(eng.n_live_pairs(), 3);
        assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    }

    /// A rid re-written twice in one batch loses its old pairs once, and
    /// only its last version pairs.
    #[test]
    fn a_rid_rewritten_twice_in_a_batch_is_walked_once() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
        eng.apply_batch(
            &[
                ins(Side::Left, "a b c"),
                ins(Side::Right, "a b c"),
                ins(Side::Right, "d e f"),
            ],
            &tok,
            &cfg,
        );
        let (deltas, _) = eng.apply_batch(
            &[
                update(Side::Left, 0, "d e f"),
                update(Side::Left, 0, "a b c"),
            ],
            &tok,
            &cfg,
        );
        assert_eq!(split(&deltas), (vec![(0, 0)], vec![(0, 0)]));
        assert_eq!(eng.n_live_pairs(), 1);
        assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    }

    /// A record inserted and deleted in the same batch never joins the
    /// view, so the batch emits nothing.
    #[test]
    fn insert_then_delete_in_one_batch_emits_nothing() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
        eng.apply_batch(
            &[ins(Side::Left, "a b c"), ins(Side::Right, "a b c")],
            &tok,
            &cfg,
        );
        let delete = RecordMutation::Delete {
            side: Side::Right,
            rid: 1,
        };
        let (deltas, stats) = eng.apply_batch(&[ins(Side::Right, "a b c"), delete], &tok, &cfg);
        assert!(deltas.is_empty(), "{deltas:?}");
        assert_eq!((stats.delta_pairs_added, stats.delta_pairs_removed), (0, 0));
        assert_eq!(eng.n_live_pairs(), 1);
        assert_eq!(
            (eng.n_records(Side::Right), eng.n_alive(Side::Right)),
            (2, 1)
        );
        assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    }

    /// Latest-first-seen first: a never-seen token sorts before every
    /// stored one, so it leads its record's prefix, moves no stored set,
    /// and probes cleanly past a CSR packed before it existed (its key is
    /// below the pack's base).
    #[test]
    fn fresh_tokens_lead_the_prefix_and_still_join() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng =
            IncrementalJoin::new(SetSimMeasure::Jaccard(0.5)).with_compaction_threshold(1e-9);
        eng.apply_batch(
            &[ins(Side::Left, "a b c d"), ins(Side::Right, "a b c d")],
            &tok,
            &cfg,
        );
        let before = eng.left.tokens[0].clone();
        // Re-write left 0 (which packs the left side), then bring in new
        // tokens.
        eng.apply_batch(
            &[RecordMutation::Update {
                side: Side::Left,
                rid: 0,
                text: Some("a b c d".into()),
            }],
            &tok,
            &cfg,
        );
        assert!(
            eng.index_generation(Side::Left) > 0,
            "the seed must be packed"
        );
        eng.apply_batch(&[ins(Side::Left, "a b x y")], &tok, &cfg);
        assert_eq!(
            eng.left.tokens[0], before,
            "vocabulary growth moved a stored set"
        );
        let newest = &eng.left.tokens[1];
        assert!(
            newest[1] < before[0],
            "x and y must sort before a..d: {newest:?}"
        );
        let (deltas, _) = eng.apply_batch(&[ins(Side::Right, "b x y")], &tok, &cfg);
        assert_eq!(deltas.len(), 1, "{deltas:?}");
        assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
    }

    /// Deltas really are signed: replaying them over the previous view
    /// reproduces the new view.
    #[test]
    fn deltas_replay_to_the_new_view() {
        let tok = WhitespaceTokenizer::new();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.4));
        let cfg = ParConfig::serial();
        eng.apply_batch(&seed_batch(30, 5), &tok, &cfg);
        let mut view: BTreeMap<(usize, usize), f64> = eng
            .live_pairs()
            .iter()
            .map(|p| ((p.l, p.r), p.sim))
            .collect();
        let batch = vec![
            RecordMutation::Delete {
                side: Side::Left,
                rid: 1,
            },
            RecordMutation::Update {
                side: Side::Right,
                rid: 4,
                text: Some("t3 t4".into()),
            },
            ins(Side::Left, "t3 t4 t5"),
        ];
        let (deltas, stats) = eng.apply_batch(&batch, &tok, &cfg);
        for d in &deltas {
            match d {
                PairDelta::Removed { l, r } => {
                    assert!(view.remove(&(*l, *r)).is_some(), "removed a non-live pair");
                }
                PairDelta::Added(p) => {
                    assert!(view.insert((p.l, p.r), p.sim).is_none(), "double-add");
                }
            }
        }
        let replayed: Vec<JoinPair> = view
            .iter()
            .map(|(&(l, r), &sim)| JoinPair { l, r, sim })
            .collect();
        assert_eq!(replayed, eng.live_pairs());
        assert_eq!(
            stats.delta_pairs_added + stats.delta_pairs_removed,
            deltas.len()
        );
    }

    /// The compaction threshold is a pure performance knob: eager and
    /// lazy engines agree on every view and every delta.
    #[test]
    fn compaction_never_changes_the_view() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eager =
            IncrementalJoin::new(SetSimMeasure::Jaccard(0.5)).with_compaction_threshold(1e-9);
        let mut lazy =
            IncrementalJoin::new(SetSimMeasure::Jaccard(0.5)).with_compaction_threshold(1e9);
        let mut batches = vec![seed_batch(25, 3)];
        batches.push(vec![
            RecordMutation::Delete {
                side: Side::Left,
                rid: 2,
            },
            RecordMutation::Update {
                side: Side::Right,
                rid: 3,
                text: Some("t5 t6 t7".into()),
            },
            ins(Side::Right, "t5 t6"),
        ]);
        batches.push(vec![
            RecordMutation::Delete {
                side: Side::Right,
                rid: 3,
            },
            ins(Side::Left, "t5 t6 t7"),
        ]);
        for batch in &batches {
            let (de, se) = eager.apply_batch(batch, &tok, &cfg);
            let (dl, sl) = lazy.apply_batch(batch, &tok, &cfg);
            assert_eq!(de, dl);
            assert_eq!(eager.live_pairs(), lazy.live_pairs());
            assert_eq!(
                (se.delta_pairs_added, se.delta_pairs_removed),
                (sl.delta_pairs_added, sl.delta_pairs_removed)
            );
        }
        assert!(eager.index_generation(Side::Left) > lazy.index_generation(Side::Left));
        assert!(!eager.compaction_pauses().is_empty());
        assert!(eager.compaction_pauses().len() >= eager.index_generation(Side::Left) as usize);
    }

    /// Worker count never changes deltas, stats, or the view.
    #[test]
    fn apply_batch_is_worker_count_invariant() {
        let tok = WhitespaceTokenizer::new();
        let mut engines: Vec<IncrementalJoin> = (0..3)
            .map(|_| IncrementalJoin::new(SetSimMeasure::Dice(0.55)))
            .collect();
        let cfgs = [
            ParConfig::serial(),
            ParConfig::workers(4),
            ParConfig::workers(8),
        ];
        for (batch_seed, n) in [(21u64, 30), (22, 10), (23, 20)] {
            let batch = seed_batch(n, batch_seed);
            let mut results = Vec::new();
            for (eng, cfg) in engines.iter_mut().zip(&cfgs) {
                results.push(eng.apply_batch(&batch, &tok, cfg));
            }
            for (deltas, stats) in &results[1..] {
                assert_eq!(deltas, &results[0].0);
                assert_eq!(stats, &results[0].1);
            }
            for eng in &engines[1..] {
                assert_eq!(eng.live_pairs(), engines[0].live_pairs());
            }
        }
    }

    /// Tombstoned postings are skipped (and counted) until compaction
    /// reclaims them.
    #[test]
    fn tombstones_are_skipped_then_compacted_away() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng =
            IncrementalJoin::new(SetSimMeasure::Jaccard(0.5)).with_compaction_threshold(1e9); // never compact on its own
        eng.apply_batch(
            &[
                ins(Side::Left, "a b c"),
                ins(Side::Right, "a b c"),
                ins(Side::Right, "a b d"),
            ],
            &tok,
            &cfg,
        );
        // Force both sides into a packed CSR so the delete tombstones a
        // CSR posting rather than a tail posting.
        let (_, s0) = eng.apply_batch(
            &[RecordMutation::Delete {
                side: Side::Right,
                rid: 0,
            }],
            &tok,
            &cfg,
        );
        assert_eq!(s0.delta_pairs_removed, 1);
        // A new left record probes past the dead right-0 postings.
        let (_, s1) = eng.apply_batch(&[ins(Side::Left, "a b c d")], &tok, &cfg);
        assert!(s1.tombstones_skipped > 0, "stale postings must be counted");
        assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
        assert_eq!(eng.n_alive(Side::Right), 1);
        assert_eq!(eng.n_records(Side::Right), 2);
    }

    /// Restore rebuilds a bit-identical engine that keeps streaming.
    #[test]
    fn restore_roundtrip_continues_identically() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut a = IncrementalJoin::new(SetSimMeasure::Cosine(0.6));
        a.apply_batch(&seed_batch(20, 9), &tok, &cfg);
        a.apply_batch(
            &[RecordMutation::Delete {
                side: Side::Left,
                rid: 5,
            }],
            &tok,
            &cfg,
        );
        let mut b = IncrementalJoin::restore(
            a.measure(),
            &tok,
            a.texts(Side::Left).to_vec(),
            a.texts(Side::Right).to_vec(),
            a.live_pairs(),
            a.index_generation(Side::Left),
            a.index_generation(Side::Right),
        );
        assert_eq!(a.live_pairs(), b.live_pairs());
        assert_eq!(
            a.index_generation(Side::Left),
            b.index_generation(Side::Left)
        );
        let batch = seed_batch(10, 13);
        let (da, _) = a.apply_batch(&batch, &tok, &cfg);
        let (db, _) = b.apply_batch(&batch, &tok, &cfg);
        assert_eq!(da, db);
        assert_eq!(a.live_pairs(), b.live_pairs());
        assert_eq!(b.live_pairs(), b.rebuild_from_scratch(&tok));
    }
}
