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
//! Each side keeps one postings list per token, indexed by interner id:
//! the [`Posting`]s of the side's records whose prefix holds the token,
//! `(size, rid)`-sorted like the batch engine's lists, and edited in
//! place. A batch removes each touched record's pre-batch postings once,
//! before its texts are applied, and inserts each surviving record's final
//! version after them; either is a binary search and a shift within one
//! token's list. The lists hold exactly the prefixes of the live records,
//! so a probe skips nothing and nothing is ever compacted.
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
//! frequency table, an epoch or a re-sort. A stream that introduces its
//! frequent tokens late only loses filter selectivity — speed, never
//! correctness: every measure's similarity is a pure symmetric function of
//! `(|x|, |y|, |x ∩ y|)`, the filters are conservative under any shared
//! order and verification computes the exact overlap, so the live view is
//! **bit-identical** — same pair set, same `f64` bits — to a from-scratch
//! [`crate::join::set_sim_join`] over the surviving records, after any
//! batch, at any worker count.
//!
//! ## Probing
//!
//! A delta probe runs the batch engine's own cascade (`join::probe_one`:
//! size window → accumulating positional filter → suffix-resumed bounded
//! verification) over the opposing side's lists (`Standing`, a
//! `join::ProbeTarget`). Touched right records are indexed before the
//! left probes and touched left records only after the right probes, so a
//! pair of two touched records is found once, by its left end.
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

use std::sync::atomic::Ordering;

use magellan_par::{chunk_map, JoinStats, ParConfig};
use magellan_textsim::intern::TokenInterner;
use magellan_textsim::tokenize::Tokenizer;

use crate::index::{for_each_rest, size_window, Posting};
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
/// insertion order and are **never reused**: a delete leaves the id
/// behind with no text, an update re-writes it in place.
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
    /// Delete an existing record (its rid stays, with no text).
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

/// One side's records and its standing index.
#[derive(Debug, Default)]
struct SideState {
    /// Live text per rid (`None` = null or deleted).
    texts: Vec<Option<String>>,
    /// Ascending deduplicated key set per rid (key = `u32::MAX` − interner
    /// id, see the module docs; empty ⇔ never matches; deletes clear it).
    tokens: Vec<Vec<u32>>,
    /// Number of `Some`s in `texts`.
    n_alive: usize,
    /// Interner id → the `(size, rid)`-sorted prefix postings of the
    /// records whose prefix holds that token.
    lists: Vec<Vec<Posting>>,
}

impl SideState {
    /// Append a record (not yet indexed) and return its rid.
    fn push(&mut self, text: Option<String>, tokens: Vec<u32>) -> usize {
        assert!(
            self.texts.len() < u32::MAX as usize,
            "postings and partner lists store rids as u32"
        );
        self.n_alive += usize::from(text.is_some());
        self.texts.push(text);
        self.tokens.push(tokens);
        self.texts.len() - 1
    }

    /// Re-write record `rid` (its postings must already be removed).
    fn set(&mut self, rid: usize, text: Option<String>, tokens: Vec<u32>) {
        self.n_alive =
            self.n_alive + usize::from(text.is_some()) - usize::from(self.texts[rid].is_some());
        self.texts[rid] = text;
        self.tokens[rid] = tokens;
    }

    /// The postings list of key `tok` (empty if no prefix holds it).
    #[inline]
    fn list(&self, tok: u32) -> &[Posting] {
        self.lists.get(!tok as usize).map_or(&[], Vec::as_slice)
    }

    /// Insert (`add`) or remove record `rid`'s prefix postings under its
    /// current key set, keeping every list `(size, rid)`-sorted.
    fn post(&mut self, rid: usize, measure: SetSimMeasure, add: bool) {
        let set = &self.tokens[rid];
        let plen = measure.prefix_len(set.len()).min(set.len());
        let (rid, size) = (rid as u32, set.len() as u32);
        let lists = &mut self.lists;
        for_each_rest(set, plen, |pos, tok, rest| {
            let t = !tok as usize;
            if lists.len() <= t {
                lists.resize_with(t + 1, Vec::new);
            }
            let list = &mut lists[t];
            let at = list.partition_point(|p| (p.size, p.rid) < (size, rid));
            if add {
                // Grow by a quarter, not by doubling from four: most lists
                // hold one or two postings, and the default growth left
                // 2.5 slots a posting on `stream_churn`, half of it unused.
                if list.len() == list.capacity() {
                    list.reserve_exact(list.len() / 4 + 1);
                }
                let pos = pos as u32;
                list.insert(
                    at,
                    Posting {
                        rid,
                        pos,
                        size,
                        rest,
                    },
                );
            } else {
                assert_eq!(list[at].rid, rid, "a removed posting must be indexed");
                list.remove(at);
            }
        });
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

/// One side's standing lists as a probe target.
struct Standing<'a> {
    state: &'a SideState,
    measure: SetSimMeasure,
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
        let (win, outside) = size_window(self.state.list(tok), lo, hi);
        stats.killed_by_size += outside;
        for p in win {
            f(p.rid, p.pos, p.size, p.rest);
        }
    }

    #[inline]
    fn record(&self, rid: usize) -> (&[u32], usize) {
        let y = &self.state.tokens[rid];
        (y, self.measure.prefix_len(y.len()).min(y.len()))
    }

    #[inline]
    fn may_hold(&self, tok: u32) -> bool {
        !self.state.list(tok).is_empty()
    }
}

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
    /// The left records, indexed for the touched right records' probes.
    left: SideState,
    /// The right records, indexed for the touched left records' probes.
    right: SideState,
    /// The live view, left-major: left rid → `(right partner, exact
    /// similarity)` for every qualifying pair, in no particular order.
    by_left: Vec<Vec<(u32, f64)>>,
    /// Right rid → left partners: the same pairs from the other end, so a
    /// mutated right record finds its pairs without a scan.
    by_right: Vec<Vec<u32>>,
    /// Number of pairs in the live view.
    n_live: usize,
}

impl IncrementalJoin {
    /// Empty engine for a measure.
    pub fn new(measure: SetSimMeasure) -> Self {
        measure.validate();
        IncrementalJoin {
            measure,
            interner: TokenInterner::new(),
            left: SideState::default(),
            right: SideState::default(),
            by_left: Vec::new(),
            by_right: Vec::new(),
            n_live: 0,
        }
    }

    /// The engine's measure.
    pub fn measure(&self) -> SetSimMeasure {
        self.measure
    }

    fn side(&self, side: Side) -> &SideState {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// Record texts of a side, deleted records as `None`, rid-addressed.
    pub fn texts(&self, side: Side) -> &[Option<String>] {
        &self.side(side).texts
    }

    /// Records ever inserted on a side (deleted ones included — rids are
    /// never reused).
    pub fn n_records(&self, side: Side) -> usize {
        self.side(side).texts.len()
    }

    /// Live (non-deleted, non-null) records on a side.
    pub fn n_alive(&self, side: Side) -> usize {
        self.side(side).n_alive
    }

    /// Record `rid`'s token keys on a side, ascending (the tier's order,
    /// see the module docs).
    pub fn key_set(&self, side: Side, rid: usize) -> &[u32] {
        &self.side(side).tokens[rid]
    }

    /// A side's standing index as `(token key, posting)` pairs, each
    /// token's list in its stored order: what the oracle suite holds to
    /// the live records' prefixes.
    pub fn prefix_postings(&self, side: Side) -> Vec<(u32, Posting)> {
        let lists = self.side(side).lists.iter().enumerate();
        lists
            .flat_map(|(id, list)| list.iter().map(move |&p| (!(id as u32), p)))
            .collect()
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

    /// From-scratch oracle: a full batch join over the current record
    /// texts. O(corpus) — exists to *prove* the delta path right (and to
    /// measure what it saves), not to serve queries.
    pub fn rebuild_from_scratch(&self, tokenizer: &dyn Tokenizer) -> Vec<JoinPair> {
        set_sim_join(&self.left.texts, &self.right.texts, tokenizer, self.measure)
    }

    /// Restore an engine from checkpointed state: record texts and the
    /// live view (exact `f64` bits). The indexes are rebuilt from the
    /// records (a fresh interner may number the tokens differently; no
    /// emitted pair depends on it).
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
    ) -> Self {
        let mut eng = IncrementalJoin::new(measure);
        for (state, texts) in [(&mut eng.left, left_texts), (&mut eng.right, right_texts)] {
            for text in texts {
                let tokens = match &text {
                    Some(t) => key_set(&mut eng.interner, tokenizer, t),
                    None => Vec::new(),
                };
                let rid = state.push(text, tokens);
                state.post(rid, measure, true);
            }
        }
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

    /// The rids a batch touches, per side (left, right), sorted and
    /// deduplicated, or the first mutation naming a rid its side does not
    /// have by then (the batch's own earlier inserts count).
    fn touched(&self, batch: &[RecordMutation]) -> Result<[Vec<usize>; 2], String> {
        let mut n = [self.left.texts.len(), self.right.texts.len()];
        let mut touched = [Vec::new(), Vec::new()];
        for (i, op) in batch.iter().enumerate() {
            let (s, rid) = match *op {
                RecordMutation::Insert { side, .. } => {
                    n[side as usize] += 1;
                    (side as usize, n[side as usize] - 1)
                }
                RecordMutation::Delete { side, rid } | RecordMutation::Update { side, rid, .. } => {
                    if rid >= n[side as usize] {
                        return Err(format!(
                            "mutation {i} names {side:?} rid {rid}, but that side has {} records",
                            n[side as usize]
                        ));
                    }
                    (side as usize, rid)
                }
            };
            touched[s].push(rid);
        }
        for t in &mut touched {
            t.sort_unstable();
            t.dedup();
        }
        Ok(touched)
    }

    /// `Err` naming the first mutation of `batch` that deletes or updates
    /// a rid its side does not have by then (the batch's own earlier
    /// inserts count); [`IncrementalJoin::apply_batch`] panics on it.
    pub fn check_batch(&self, batch: &[RecordMutation]) -> Result<(), String> {
        self.touched(batch).map(drop)
    }

    /// Apply one mutation batch and return the signed pair deltas
    /// (`Removed` first, then `Added`, each `(l, r)`-sorted) plus the
    /// delta-phase counters. Work is O(batch × affected neighborhoods):
    /// only new/changed records are probed — in **both directions**, since
    /// the standing side's index answers "which standing records pair
    /// with this new one" and the right side's touched records are indexed
    /// before the left ones probe, so new pairs with new.
    ///
    /// # Panics
    ///
    /// Before changing anything, if [`IncrementalJoin::check_batch`]
    /// refuses the batch.
    pub fn apply_batch(
        &mut self,
        batch: &[RecordMutation],
        tokenizer: &dyn Tokenizer,
        cfg: &ParConfig,
    ) -> (Vec<PairDelta>, JoinStats) {
        let [touched_left, touched_right] = self.touched(batch).unwrap_or_else(|e| panic!("{e}"));
        let mut stats = JoinStats::default();
        let measure = self.measure;

        // Phase 1: take every touched record's pre-batch postings out of
        // its side's lists, then apply the record mutations in batch order.
        for (state, touched) in [
            (&mut self.left, &touched_left),
            (&mut self.right, &touched_right),
        ] {
            let n = state.texts.len();
            for &rid in touched.iter().take_while(|&&rid| rid < n) {
                state.post(rid, measure, false);
            }
        }
        for op in batch {
            let (side, rid, text) = match op {
                RecordMutation::Insert { side, text } => (*side, None, text.clone()),
                RecordMutation::Delete { side, rid } => (*side, Some(*rid), None),
                RecordMutation::Update { side, rid, text } => (*side, Some(*rid), text.clone()),
            };
            let tokens = match &text {
                Some(t) => key_set(&mut self.interner, tokenizer, t),
                None => Vec::new(),
            };
            let state = match side {
                Side::Left => &mut self.left,
                Side::Right => &mut self.right,
            };
            match rid {
                None => drop(state.push(text, tokens)),
                Some(rid) => state.set(rid, text, tokens),
            }
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

        // Phase 3: `Added` deltas. The touched right records go into the
        // right lists, the touched left records probe them (finding new
        // partners old and new), the touched right records probe the left
        // lists (old partners only), and the touched left records go in
        // last: each pair of two touched records is emitted exactly once.
        let (mut probe_left, mut probe_right) = (touched_left, touched_right);
        probe_left.retain(|&rid| !self.left.tokens[rid].is_empty());
        probe_right.retain(|&rid| !self.right.tokens[rid].is_empty());
        for &rid in &probe_right {
            self.right.post(rid, measure, true);
        }
        let mut added = probe_batch(
            &probe_left,
            true,
            &self.left,
            &Standing {
                state: &self.right,
                measure,
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
                measure,
            },
            cfg,
            &mut stats,
        ));
        for &rid in &probe_left {
            self.left.post(rid, measure, true);
        }
        added.sort_unstable_by_key(|p| (p.l, p.r));
        for p in &added {
            self.link(p);
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

/// Probes a worker must exceed, at two or more workers, before a region
/// keeps the pool's default chunking (about eight stealable chunks a
/// worker) instead of one chunk per worker. Measured on a 2-core host at
/// two workers (median of 31 `apply_batch` calls of fresh 3–8-token
/// inserts, Jaccard 0.5): into an 8 000-record index the default chunking
/// took 0.87–0.90× the time of one chunk per worker from 32 probes a
/// worker up; into an empty one it was even from 64 up and 1.04–1.11×
/// slower at 16–32. A 20-mutation tick probes at most 10 a worker.
const BULK_PROBES_PER_WORKER: usize = 64;

/// Probe a list of new/changed records against the opposing standing
/// index on the work-stealing pool. Unless `cfg` sets a chunk size, a
/// region of at most [`BULK_PROBES_PER_WORKER`] probes a worker runs one
/// chunk per worker: a tick's few dozen probes leave nothing to steal.
/// A bulk batch (a seed corpus) keeps the default chunking, so a worker
/// that finishes early steals from a slow one. Each probe is a pure
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
    let bulk = cfg.n_workers >= 2 && probes.len() > BULK_PROBES_PER_WORKER * cfg.n_workers;
    let pool = if bulk {
        *cfg
    } else {
        cfg.one_chunk_per_worker(probes.len())
    };
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
    /// and joins through lists that did not exist when the seed was
    /// indexed.
    #[test]
    fn fresh_tokens_lead_the_prefix_and_still_join() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
        eng.apply_batch(
            &[ins(Side::Left, "a b c d"), ins(Side::Right, "a b c d")],
            &tok,
            &cfg,
        );
        let before = eng.left.tokens[0].clone();
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

    /// A batch that deletes or updates a rid its side does not have is
    /// refused before anything changes; the batch's own inserts count.
    #[test]
    fn a_batch_naming_an_unknown_rid_is_refused_whole() {
        let tok = WhitespaceTokenizer::new();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
        let delete = |rid| RecordMutation::Delete {
            side: Side::Right,
            rid,
        };
        let batch = [ins(Side::Left, "a b"), ins(Side::Right, "a b"), delete(1)];
        let err = eng.check_batch(&batch).unwrap_err();
        assert!(err.contains("mutation 2 names Right rid 1"), "{err}");
        assert_eq!(eng.check_batch(&batch[..2]), Ok(()));
        eng.apply_batch(&batch[..2], &tok, &ParConfig::serial());
        let grow = [
            ins(Side::Right, "a b"),
            delete(1),
            update(Side::Left, 0, "a"),
        ];
        assert_eq!(eng.check_batch(&grow), Ok(()));
        assert!(eng.check_batch(&[update(Side::Left, 1, "a")]).is_err());
        assert_eq!(eng.n_records(Side::Right), 1);
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

    /// A bulk batch (a seed corpus) keeps the pool's default chunking, so
    /// a worker that finishes its probes early can steal.
    #[test]
    fn a_bulk_batch_runs_more_chunks_than_workers() {
        let tok = WhitespaceTokenizer::new();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
        let batch = seed_batch(400, 31);
        let obs = magellan_obs::Obs::pinned();
        let guard = obs.install();
        eng.apply_batch(&batch, &tok, &ParConfig::workers(2));
        drop(guard);
        let snap = obs.snapshot();
        let (regions, chunks) = (snap.spans_named("delta_probe"), snap.spans_named("chunk"));
        assert!(!regions.is_empty());
        for region in regions {
            let n = chunks.iter().filter(|c| c.parent == region.id).count();
            assert!(n > 2, "{n} chunks under a bulk delta_probe at 2 workers");
        }
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
        );
        assert_eq!(a.live_pairs(), b.live_pairs());
        let batch = seed_batch(10, 13);
        let (da, _) = a.apply_batch(&batch, &tok, &cfg);
        let (db, _) = b.apply_batch(&batch, &tok, &cfg);
        assert_eq!(da, db);
        assert_eq!(a.live_pairs(), b.live_pairs());
        assert_eq!(b.live_pairs(), b.rebuild_from_scratch(&tok));
    }
}
