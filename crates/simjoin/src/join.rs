//! The filter-verify set-similarity join: an adaptive CSR engine.
//!
//! The engine runs a four-stage pruning cascade per probe record:
//!
//! 1. **Position-aware size filter** — each probe token's CSR postings
//!    list is size-sorted, so the admissible partner sizes are a
//!    binary-searched contiguous window ([`PrefixIndex::size_window`]);
//!    out-of-window postings are skipped wholesale. Its upper end falls
//!    with the probe position (a record first met at `px` shares at most
//!    `|x| − px` tokens); a live candidate a later window excludes catches
//!    up on the withheld collisions before stage 3 (DESIGN.md §7.1).
//! 2. **Accumulating positional filter** (PPJoin-style) — per-candidate
//!    overlap counters accumulate across *all* prefix collisions; after
//!    each collision the candidate's remaining-token upper bound is
//!    checked against the required `min_overlap` and the candidate is
//!    abandoned the moment it cannot qualify. The bound is
//!    `cnt + min(rx, ry, (rx + ry − h) / 2)` for remainders of `rx` and
//!    `ry` tokens whose 32-bit bitmaps differ in `h` bits: each posting
//!    carries its record's ([`crate::index::Posting::rest`]), the probe's
//!    is built once, at its first delivered posting (DESIGN.md §7.1).
//! 3. **Suffix-resumed bounded verification** — for survivors, the
//!    counted prefix overlap is *resumed* (not recomputed): only the
//!    token ranges that can still hold uncounted shared tokens are
//!    merged, through [`crate::verify::overlap_sorted_bounded`], which
//!    early-exits on failure and gallops on heavy set-size skew. Stage 2
//!    sees the remainders' bitmaps, so what reaches it mostly qualifies.
//! 4. **Cost-based probe-side selection** — the smaller collection (by
//!    total tokens) is indexed and the larger probed, with pair
//!    orientation remapped so output is **bit-identical** either way
//!    (every measure's similarity and `min_overlap` are symmetric in the
//!    two set sizes, the filters are conservative, and verification is
//!    exact).
//!
//! Per-stage kill counters are reported through
//! [`magellan_par::JoinStats`]; all counters are pure functions of
//! (probe record, index), so they are identical for any worker count.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use magellan_par::{JoinStats, ParConfig, ParStats};
use magellan_textsim::tokenize::Tokenizer;

use crate::collection::{TokenColumn, TokenizedCollection};
use crate::filters;
use crate::index::{for_each_rest, PrefixIndex};
use crate::order::{order_pairs, Emitted, Pair};
use crate::verify::overlap_sorted_bounded;

/// A similarity measure + threshold for a set-similarity join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SetSimMeasure {
    /// Jaccard similarity ≥ threshold (threshold in `(0, 1]`).
    Jaccard(f64),
    /// Cosine (Ochiai) similarity ≥ threshold (threshold in `(0, 1]`).
    Cosine(f64),
    /// Dice similarity ≥ threshold (threshold in `(0, 1]`).
    Dice(f64),
    /// Absolute overlap `|x ∩ y|` ≥ size (size ≥ 1).
    OverlapSize(usize),
}

impl SetSimMeasure {
    /// Why a join cannot run under this measure, if it cannot: a threshold
    /// outside `(0, 1]` (NaN included) or an overlap size of 0. The joins
    /// panic on what this rejects, so input that names a measure is
    /// checked here where it enters.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            SetSimMeasure::Jaccard(t) | SetSimMeasure::Cosine(t) | SetSimMeasure::Dice(t)
                if !(t > 0.0 && t <= 1.0) =>
            {
                Err(format!("threshold must be in (0, 1], got {t}"))
            }
            SetSimMeasure::OverlapSize(0) => Err("overlap size must be at least 1".to_owned()),
            _ => Ok(()),
        }
    }

    pub(crate) fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Prefix length of a set of size `s` on either side of the join.
    pub(crate) fn prefix_len(&self, s: usize) -> usize {
        match *self {
            SetSimMeasure::Jaccard(t) => filters::jaccard_prefix_len(s, t),
            SetSimMeasure::Cosine(t) => filters::cosine_prefix_len(s, t),
            SetSimMeasure::Dice(t) => filters::dice_prefix_len(s, t),
            SetSimMeasure::OverlapSize(c) => filters::overlap_prefix_len(s, c),
        }
    }

    /// Admissible partner sizes for a set of size `s`.
    pub(crate) fn size_bounds(&self, s: usize) -> (usize, usize) {
        match *self {
            SetSimMeasure::Jaccard(t) => filters::jaccard_size_bounds(s, t),
            SetSimMeasure::Cosine(t) => filters::cosine_size_bounds(s, t),
            SetSimMeasure::Dice(t) => filters::dice_size_bounds(s, t),
            SetSimMeasure::OverlapSize(c) => (c, usize::MAX),
        }
    }

    /// Similarity value reported for a verified pair. **Symmetric** in
    /// `(sx, sy)` for every measure — the probe-side swap depends on it.
    pub(crate) fn similarity(&self, sx: usize, sy: usize, overlap: usize) -> f64 {
        match self {
            SetSimMeasure::Jaccard(_) => overlap as f64 / (sx + sy - overlap) as f64,
            SetSimMeasure::Cosine(_) => overlap as f64 / ((sx * sy) as f64).sqrt(),
            SetSimMeasure::Dice(_) => 2.0 * overlap as f64 / (sx + sy) as f64,
            SetSimMeasure::OverlapSize(_) => overlap as f64,
        }
    }

    /// Minimum intersection size a pair of these sizes needs to qualify.
    /// Also symmetric in `(sx, sy)`.
    pub(crate) fn min_overlap(&self, sx: usize, sy: usize) -> usize {
        match *self {
            SetSimMeasure::Jaccard(t) => filters::jaccard_min_overlap(sx, sy, t),
            SetSimMeasure::Cosine(t) => filters::cosine_min_overlap(sx, sy, t),
            SetSimMeasure::Dice(t) => filters::dice_min_overlap(sx, sy, t),
            SetSimMeasure::OverlapSize(c) => c,
        }
    }

    /// The same measure at threshold `sim` where that is higher than its
    /// own (`sim` is a similarity this measure reported): what a top-k run
    /// probes with once its k-th best pair has that similarity.
    pub(crate) fn at_least(self, sim: f64) -> Self {
        match self {
            SetSimMeasure::Jaccard(t) => SetSimMeasure::Jaccard(t.max(sim)),
            SetSimMeasure::Cosine(t) => SetSimMeasure::Cosine(t.max(sim)),
            SetSimMeasure::Dice(t) => SetSimMeasure::Dice(t.max(sim)),
            SetSimMeasure::OverlapSize(c) => SetSimMeasure::OverlapSize(c.max(sim as usize)),
        }
    }

    /// The threshold halfway from this measure's up to the largest
    /// similarity a pair of `coll` can have (1 for the normalized measures,
    /// the smaller side's longest record for an overlap size).
    pub(crate) fn halfway_up(self, coll: &TokenizedCollection) -> Self {
        match self {
            SetSimMeasure::Jaccard(t) => SetSimMeasure::Jaccard((t + 1.0) / 2.0),
            SetSimMeasure::Cosine(t) => SetSimMeasure::Cosine((t + 1.0) / 2.0),
            SetSimMeasure::Dice(t) => SetSimMeasure::Dice((t + 1.0) / 2.0),
            SetSimMeasure::OverlapSize(c) => {
                let longest = |side: &TokenColumn| side.iter().map(<[u32]>::len).max().unwrap_or(0);
                let top = longest(&coll.left).min(longest(&coll.right));
                SetSimMeasure::OverlapSize(c.max((c + top) / 2))
            }
        }
    }

    /// Does a pair with the given sizes and exact overlap qualify?
    pub(crate) fn qualifies(&self, sx: usize, sy: usize, overlap: usize) -> bool {
        overlap >= self.min_overlap(sx, sy)
    }

    /// The size filter by probe position: `cap(o)` bounds from above the
    /// partner sizes `sy ≤ hi` of a set of size `sx` that can qualify on at
    /// most `o` shared tokens — `min_overlap(sx, sy) ≤ o` solved for `sy`:
    /// Jaccard `o·(1+t)/t − sx`, Dice `2o/t − sx`, cosine `o²/(t²·sx)`, no
    /// narrowing for `OverlapSize`. Rounded **up** ([`filters`]' ceil slack
    /// on `o`, a relative `1e-9` on the coefficients): a cap too large
    /// costs a per-posting test, one too small loses a pair.
    pub(crate) fn size_cap(&self, sx: usize, hi: usize) -> impl Fn(usize) -> usize {
        const LOOSE: f64 = 1.0 + 1e-9;
        let (quad, lin, off) = match *self {
            SetSimMeasure::Jaccard(t) => (0.0, LOOSE * (1.0 + t) / t, -(sx as f64)),
            SetSimMeasure::Dice(t) => (0.0, LOOSE * 2.0 / t, -(sx as f64)),
            SetSimMeasure::Cosine(t) => (LOOSE / (t * t * sx as f64), 0.0, 0.0),
            SetSimMeasure::OverlapSize(_) => (0.0, 0.0, f64::INFINITY),
        };
        // Float → int casts saturate: +∞ lands on `hi`, a negative on 0.
        move |o| {
            let o = o as f64 + 2e-9;
            (((quad * o + lin) * o + off) as usize).min(hi)
        }
    }
}

/// One qualifying pair: left record index, right record index, similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPair {
    /// Index into the left collection.
    pub l: usize,
    /// Index into the right collection.
    pub r: usize,
    /// The measure's similarity value (overlap size for `OverlapSize`).
    pub sim: f64,
}

/// Which collection the join probes with (the other side is indexed).
/// Output is **bit-identical** for every choice; only cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeSide {
    /// Cost-based: index the smaller collection (fewer total tokens),
    /// probe with the larger. Ties probe with the left (the historical
    /// orientation).
    #[default]
    Auto,
    /// Probe with the left collection, index the right.
    Left,
    /// Probe with the right collection, index the left.
    Right,
}

/// The resolved orientation of one join run.
#[derive(Clone, Copy)]
pub(crate) struct ProbePlan<'a> {
    pub(crate) probe: &'a TokenColumn,
    pub(crate) indexed: &'a TokenColumn,
    /// `true` when probing with the *right* collection — emitted pairs
    /// then put the indexed rid in `l` and the probe rid in `r`.
    pub(crate) swap: bool,
}

impl<'a> ProbePlan<'a> {
    /// Records on the left side.
    pub(crate) fn n_left(&self) -> usize {
        if self.swap {
            self.indexed.len()
        } else {
            self.probe.len()
        }
    }

    /// The order [`probe_range`]'s output is in, over `n_shards` indexed
    /// shards probed one after the other: left probes sort each record's
    /// run, so one shard's output is ordered; right probes come in rising
    /// `r`, and each left record lives in one shard.
    pub(crate) fn emitted(&self, n_shards: usize) -> Emitted {
        if self.swap {
            Emitted::RisingR
        } else if n_shards <= 1 {
            Emitted::Sorted
        } else {
            Emitted::Unsorted
        }
    }

    pub(crate) fn choose(coll: &'a TokenizedCollection, side: ProbeSide) -> Self {
        let swap = match side {
            ProbeSide::Left => false,
            ProbeSide::Right => true,
            ProbeSide::Auto => {
                // Probe with the larger side (index the smaller); ties
                // keep the historical probe-left orientation.
                coll.right.n_ids() > coll.left.n_ids()
            }
        };
        if swap {
            ProbePlan {
                probe: &coll.right,
                indexed: &coll.left,
                swap: true,
            }
        } else {
            ProbePlan {
                probe: &coll.left,
                indexed: &coll.right,
                swap: false,
            }
        }
    }
}

/// Per-candidate accumulator for the positional filter, fused with its
/// validity stamp so one random access per collision touches one cache
/// line instead of two.
#[derive(Clone, Copy)]
struct Slot {
    /// `stamp == probe stamp` ⇔ the rest of the slot is live for this
    /// probe. Stamps are drawn from a process-wide counter (one block per
    /// join region), so a slot left over from *any* earlier join or chunk
    /// can never false-match — which is what lets the scratch live in
    /// thread-local storage and be reused instead of reallocated.
    stamp: u64,
    /// Prefix collisions counted so far; [`DEAD`] once abandoned.
    cnt: u32,
    /// Probe-side position of the last collision.
    px: u32,
    /// Indexed-side position of the last collision.
    py: u32,
    /// Cached `min_overlap` for this pair's sizes.
    need: u32,
}

/// Sentinel marking a candidate killed by the positional filter.
const DEAD: u32 = u32::MAX;

/// Reusable probe scratch (stamp-validated, never cleared).
pub(crate) struct Scratch {
    slots: Vec<Slot>,
    /// Candidates touched by the current probe, in first-touch order.
    touched: Vec<u32>,
    /// `rest[px]`: the bitmap of the probe's tokens after `px`.
    rest: Vec<u32>,
}

impl Scratch {
    fn new(n_indexed: usize) -> Self {
        let mut s = Scratch {
            slots: Vec::new(),
            touched: Vec::new(),
            rest: Vec::new(),
        };
        s.ensure(n_indexed);
        s
    }

    /// Grow (never shrink) to cover `n_indexed` records. Existing slots
    /// keep their stamps — stale entries are unreachable by construction,
    /// so growth is the only maintenance reuse ever needs.
    fn ensure(&mut self, n_indexed: usize) {
        if self.slots.len() < n_indexed {
            self.slots.resize(
                n_indexed,
                Slot {
                    stamp: u64::MAX,
                    cnt: 0,
                    px: 0,
                    py: 0,
                    need: 0,
                },
            );
        }
    }
}

/// Process-wide probe-stamp allocator. Each join region reserves one
/// contiguous block of stamps (one per probe record), so stamps are
/// unique across every join and chunk a thread's scratch ever serves.
pub(crate) static PROBE_STAMPS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// The worker's probe scratch. Chunks used to allocate (and zero) an
    /// O(n_indexed) slot array *each*; since the chunk count scales with
    /// the worker count, that overhead grew exactly when parallelism was
    /// supposed to help. The thread-local is allocated once per thread
    /// and revalidated purely by stamps.
    static PROBE_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new(0));
}

/// Join two string collections. `None` / empty-token records never match
/// (a positive threshold is unreachable for an empty set).
///
/// Returns pairs sorted by `(l, r)`.
///
/// ```
/// use magellan_simjoin::{set_sim_join, SetSimMeasure};
/// use magellan_textsim::tokenize::WhitespaceTokenizer;
///
/// let left = vec![Some("dave smith"), Some("joe wilson")];
/// let right = vec![Some("david smith"), Some("dave smith")];
/// let pairs = set_sim_join(&left, &right, &WhitespaceTokenizer::new(),
///                          SetSimMeasure::Jaccard(0.9));
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].l, pairs[0].r, pairs[0].sim), (0, 1, 1.0));
/// ```
pub fn set_sim_join<S: AsRef<str>>(
    left: &[Option<S>],
    right: &[Option<S>],
    tokenizer: &dyn Tokenizer,
    measure: SetSimMeasure,
) -> Vec<JoinPair> {
    set_sim_join_stats(left, right, tokenizer, measure).0
}

/// [`set_sim_join`] also returning the pruning-cascade telemetry.
pub fn set_sim_join_stats<S: AsRef<str>>(
    left: &[Option<S>],
    right: &[Option<S>],
    tokenizer: &dyn Tokenizer,
    measure: SetSimMeasure,
) -> (Vec<JoinPair>, JoinStats) {
    measure.validate();
    let coll = TokenizedCollection::build(left, right, tokenizer);
    join_tokenized_stats(&coll, measure, ProbeSide::Auto)
}

/// Join a pre-tokenized collection (lets callers reuse tokenization).
pub fn join_tokenized(coll: &TokenizedCollection, measure: SetSimMeasure) -> Vec<JoinPair> {
    join_tokenized_stats(coll, measure, ProbeSide::Auto).0
}

/// Serial join with an explicit probe side and full [`JoinStats`].
/// Output (pair set, order, and bit-exact similarities) is identical for
/// every [`ProbeSide`].
pub fn join_tokenized_stats(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
) -> (Vec<JoinPair>, JoinStats) {
    measure.validate();
    let plan = ProbePlan::choose(coll, side);
    let index = PrefixIndex::build_column(plan.indexed, 0, |s| measure.prefix_len(s));
    magellan_obs::span_res_add("csr_index_bytes", index.index_bytes() as u64);
    let target = Packed {
        records: plan.indexed,
        index: &index,
    };
    let stamp_base = PROBE_STAMPS.fetch_add(plan.probe.len() as u64, Ordering::Relaxed);
    let mut out = Vec::new();
    let mut stats = JoinStats::default();
    with_scratch(plan.indexed.len(), |scratch| {
        let all = 0..plan.probe.len();
        probe_range(all, stamp_base, &plan, &target, measure, scratch, &mut out, &mut stats);
    });
    let out = order_pairs(vec![out], plan.n_left(), plan.emitted(1));
    stats.pairs = out.len();
    stats.probe_swaps = plan.swap as usize;
    // Re-express the cascade counters as `magellan_simjoin_*` registry
    // metrics (no-op when observability is disabled); the struct remains
    // the report-facing view.
    stats.publish();
    (out, stats)
}

/// Where a probe's postings and candidate records come from: one packed
/// index for the batch and sharded joins, CSR + staleness bitmap + tail
/// overlay for the incremental tier. [`probe_one`] is the only cascade;
/// the target only says what is live.
pub(crate) trait ProbeTarget {
    /// Feed `f` the `(rid, pos, size, rest)` of every **live** posting of
    /// `tok` whose record size lies in `[lo, hi]`, counting what was
    /// skipped into `stats`. A record contributes at most one posting per
    /// token, which is what lets the cascade's collision counter stand for
    /// `|x-prefix ∩ y-prefix|`; `rest` is the bitmap of its tokens after
    /// `pos` ([`crate::index::Posting::rest`]).
    fn for_each_posting(
        &self,
        tok: u32,
        lo: usize,
        hi: usize,
        stats: &mut JoinStats,
        f: impl FnMut(u32, u32, u32, u32),
    );

    /// Sorted token set of indexed record `rid` and its indexed prefix
    /// length (already clamped to the set size).
    fn record(&self, rid: usize) -> (&[u32], usize);

    /// `false` only if `tok` has no posting at all, live or not: the
    /// probe then skips working out the token's window.
    fn may_hold(&self, _tok: u32) -> bool {
        true
    }
}

/// The batch target: every posting of a packed [`PrefixIndex`] is live.
pub(crate) struct Packed<'a> {
    pub(crate) records: &'a TokenColumn,
    pub(crate) index: &'a PrefixIndex,
}

impl ProbeTarget for Packed<'_> {
    #[inline]
    fn for_each_posting(
        &self,
        tok: u32,
        lo: usize,
        hi: usize,
        stats: &mut JoinStats,
        mut f: impl FnMut(u32, u32, u32, u32),
    ) {
        // The size filter as two binary searches over the size-sorted
        // postings list: one contiguous in-window range.
        let (win, outside) = self.index.size_window(tok, lo, hi);
        stats.killed_by_size += outside;
        for p in win {
            f(p.rid, p.pos, p.size, p.rest);
        }
    }

    #[inline]
    fn record(&self, rid: usize) -> (&[u32], usize) {
        (&self.records[rid], self.index.prefix_len(rid))
    }

    #[inline]
    fn may_hold(&self, tok: u32) -> bool {
        !self.index.postings(tok).is_empty()
    }
}

/// Probe a single record against a [`ProbeTarget`] through the
/// size → positional → suffix cascade. Pure in `(probe record, target)`:
/// emitted pairs and every counter increment are chunking-independent.
/// Each qualifying pair is pushed onto `out` as a [`JoinPair`] or as bare
/// `(l, r)` rids, in the order its candidate was first touched.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn probe_one<T: ProbeTarget, P: Pair>(
    probe_rid: u32,
    stamp: u64,
    x: &[u32],
    target: &T,
    measure: SetSimMeasure,
    swap: bool,
    scratch: &mut Scratch,
    out: &mut Vec<P>,
    stats: &mut JoinStats,
) {
    let sx = x.len();
    if sx == 0 {
        return;
    }
    stats.probes += 1;
    let (lo, hi) = measure.size_bounds(sx);
    let probe_len = measure.prefix_len(sx).min(sx);
    let cap = measure.size_cap(sx, hi);
    scratch.touched.clear();

    // Stage 1 + 2: collect prefix collisions, size windows first, then
    // the accumulating positional bound per collision. The window ends
    // at `cap(sx - px)`: a record first met at `px` shares no token before
    // `x[px]` (it would sit in both prefixes and have collided), so at
    // most `sx - px`, and a size that needs more is dead on arrival.
    // `min_overlap` memo: packed postings are size-sorted, so runs of
    // candidates share a size — recompute the (float-ceil) bound only on
    // size change.
    let mut memo_sy = u32::MAX;
    let mut memo_need = 0u32;
    let (mut candidates, mut killed_by_position) = (0usize, 0usize);
    // The probe's remainder bitmaps, built at the first posting delivered:
    // a probe over near-empty lists never pays for them.
    let rest_x = &mut scratch.rest;
    let mut have_rest = false;
    for (px, &tok) in x[..probe_len].iter().enumerate() {
        if !target.may_hold(tok) {
            continue;
        }
        target.for_each_posting(tok, lo, cap(sx - px), stats, |rid, pos, size, rest| {
            let slot = &mut scratch.slots[rid as usize];
            if slot.stamp != stamp {
                slot.stamp = stamp;
                slot.cnt = 0;
                if size != memo_sy {
                    memo_sy = size;
                    memo_need = measure.min_overlap(sx, size as usize) as u32;
                }
                slot.need = memo_need;
                candidates += 1;
                scratch.touched.push(rid);
            } else if slot.cnt == DEAD {
                return;
            }
            slot.cnt += 1;
            slot.px = px as u32;
            slot.py = pos;
            // Positional bound: every uncounted shared token exceeds the
            // current collision token (anything smaller in both sets is
            // already a counted prefix collision), so it must live in
            // both remainders. They share at most min(rx, ry) tokens, and
            // each bit their bitmaps differ in is set by a token only one
            // of them holds, so at most (rx + ry − h) / 2.
            if !have_rest {
                have_rest = true;
                rest_x.resize(probe_len, 0);
                for_each_rest(x, probe_len, |p, _, bits| rest_x[p] = bits);
            }
            let (rx, ry) = (sx - px - 1, (size - pos - 1) as usize);
            let h = (rest_x[px] ^ rest).count_ones() as usize;
            let rem = rx.min(ry).min((rx + ry - h) / 2);
            if (slot.cnt as usize) + rem < slot.need as usize {
                slot.cnt = DEAD;
                killed_by_position += 1;
            }
        });
    }
    stats.candidates += candidates;
    stats.killed_by_position += killed_by_position;

    // Stage 3: suffix-resumed bounded verification of the survivors.
    // `cnt` already equals |x[..probe_len] ∩ y[..plen_y]| — only the
    // ranges that can hold *uncounted* shared tokens are merged. With
    // wx/wy the last prefix tokens: if wx ≤ wy every uncounted shared
    // token is > wx, hence in x's suffix and past y's last collision;
    // symmetrically otherwise.
    //
    // That argument is for records *not met before*: a live one larger
    // than the last window (they only shrink) was denied its later
    // collisions and **catches up** first. Postings delivered all before
    // the first window that excluded it and the slot holds the last, so
    // merging the prefix remainders from there finds exactly the withheld
    // ones, in order, each under stage 2's bound (its `min(rx, ry)` form:
    // no posting, so no bitmap, is in hand there).
    let last_cap = cap(sx - (probe_len - 1));
    'survivors: for &rid in &scratch.touched {
        let st = scratch.slots[rid as usize];
        if st.cnt == DEAD {
            continue;
        }
        let (y, plen_y) = target.record(rid as usize);
        let sy = y.len();
        let need = st.need as usize;
        let (mut cnt, mut px, mut py) = (st.cnt as usize, st.px as usize, st.py as usize);
        if sy > last_cap {
            let (xp, yp) = (&x[..probe_len], &y[..plen_y]);
            let (mut i, mut j) = (px + 1, py + 1);
            while i < xp.len() && j < yp.len() {
                match xp[i].cmp(&yp[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        (cnt, px, py) = (cnt + 1, i, j);
                        if cnt + (sx - i - 1).min(sy - j - 1) < need {
                            stats.killed_by_position += 1;
                            continue 'survivors;
                        }
                        (i, j) = (i + 1, j + 1);
                    }
                }
            }
        }
        let (rest_x, rest_y) = if x[probe_len - 1] <= y[plen_y - 1] {
            (&x[probe_len..], &y[py + 1..])
        } else {
            (&x[px + 1..], &y[plen_y..])
        };
        stats.verified += 1;
        match overlap_sorted_bounded(
            rest_x,
            rest_y,
            need.saturating_sub(cnt),
            &mut stats.verify_steps,
        ) {
            None => stats.killed_by_suffix += 1,
            Some(sub) => {
                let overlap = cnt + sub;
                debug_assert!(measure.qualifies(sx, sy, overlap));
                let (l, r) = if swap { (rid, probe_rid) } else { (probe_rid, rid) };
                out.push(P::emit(l, r, || measure.similarity(sx, sy, overlap)));
            }
        }
    }
}

/// Multi-threaded variant of [`set_sim_join`]: probes are partitioned
/// across the `magellan-par` work-stealing pool (the production-stage
/// "Dask" role in the paper). Results are identical to the serial join.
pub fn set_sim_join_parallel<S: AsRef<str> + Sync>(
    left: &[Option<S>],
    right: &[Option<S>],
    tokenizer: &dyn Tokenizer,
    measure: SetSimMeasure,
    n_workers: usize,
) -> Vec<JoinPair> {
    measure.validate();
    let coll = TokenizedCollection::build(left, right, tokenizer);
    join_tokenized_par(&coll, measure, &ParConfig::workers(n_workers)).0
}

/// Work-stealing probe-side join: probe records are chunked, chunks are
/// claimed dynamically by idle workers, and per-chunk outputs are merged in
/// chunk order — the result is **bit-identical** to [`join_tokenized`] for
/// any worker count (each probe is a pure function of its record and the
/// shared index, and the ordering pass puts the chunks' pairs in `(l, r)`
/// order whatever their chunking; DESIGN.md §7.1).
/// Returns the region's [`ParStats`], with [`ParStats::join`] filled with
/// the cascade's kill counters (themselves worker-count invariant).
pub fn join_tokenized_par(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    cfg: &ParConfig,
) -> (Vec<JoinPair>, ParStats) {
    join_tokenized_par_side(coll, measure, ProbeSide::Auto, cfg)
}

/// [`join_tokenized_par`] with an explicit probe side.
pub fn join_tokenized_par_side(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
    cfg: &ParConfig,
) -> (Vec<JoinPair>, ParStats) {
    par_join(coll, measure, side, cfg)
}

/// The blockers' join: the `(l, r)` rids of every qualifying pair, in
/// `(l, r)` order, as 8 bytes each and without their similarities. The
/// pairs of [`join_tokenized_par_side`] when `n_shards ≤ 1`, of
/// [`crate::join_tokenized_sharded`] over `n_shards` otherwise, and the
/// same counters.
///
/// ```
/// use magellan_par::ParConfig;
/// use magellan_simjoin::{join_tokenized_pairs, ProbeSide, SetSimMeasure, TokenizedCollection};
/// use magellan_textsim::tokenize::WhitespaceTokenizer;
///
/// let left = vec![Some("dave smith"), Some("joe wilson")];
/// let right = vec![Some("david smith"), Some("dave smith")];
/// let coll = TokenizedCollection::build(&left, &right, &WhitespaceTokenizer::new());
/// let measure = SetSimMeasure::OverlapSize(1);
/// let (pairs, _) = join_tokenized_pairs(&coll, measure, ProbeSide::Auto, 1, &ParConfig::serial());
/// assert_eq!(pairs, vec![(0, 0), (0, 1)]);
/// ```
pub fn join_tokenized_pairs(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
    n_shards: usize,
    cfg: &ParConfig,
) -> (Vec<(u32, u32)>, ParStats) {
    if n_shards > 1 {
        let (pairs, stats, _) = crate::shard::sharded_join(coll, measure, side, n_shards, cfg);
        (pairs, stats)
    } else {
        par_join(coll, measure, side, cfg)
    }
}

/// The monolithic parallel join, emitting pairs of type `P`.
fn par_join<P: Pair>(
    coll: &TokenizedCollection,
    measure: SetSimMeasure,
    side: ProbeSide,
    cfg: &ParConfig,
) -> (Vec<P>, ParStats) {
    measure.validate();
    let plan = ProbePlan::choose(coll, side);
    let index = PrefixIndex::build_column(plan.indexed, 0, |s| measure.prefix_len(s));
    magellan_obs::span_res_add("csr_index_bytes", index.index_bytes() as u64);
    let target = Packed {
        records: plan.indexed,
        index: &index,
    };
    let stamp_base = PROBE_STAMPS.fetch_add(plan.probe.len() as u64, Ordering::Relaxed);
    let (chunks, mut stats) = magellan_par::chunk_map(plan.probe.len(), cfg, |range| {
        with_scratch(plan.indexed.len(), |scratch| {
            // Nested under the pool's `chunk` span: candidate generation
            // and verification merges are this scope's self-time in profiles.
            let _verify = magellan_obs::span("verify", range.start as u64);
            let mut out = Vec::new();
            let mut js = JoinStats::default();
            probe_range(range, stamp_base, &plan, &target, measure, scratch, &mut out, &mut js);
            // The chunk waits for the ordering pass: hold no growth slack.
            out.shrink_to_fit();
            (out, js)
        })
    });
    let mut js = JoinStats::default();
    let parts = chunks
        .into_iter()
        .map(|(pairs, chunk_js)| {
            js.merge(&chunk_js);
            pairs
        })
        .collect();
    let out = order_pairs(parts, plan.n_left(), plan.emitted(1));
    js.pairs = out.len();
    js.probe_swaps = plan.swap as usize;
    // Same counters, two surfaces: the merged struct rides along in
    // `ParStats` for reports, and the registry gets the canonical
    // `magellan_simjoin_*` series (deterministic: every field is a pure
    // function of the join inputs, so 1-worker and 8-worker runs publish
    // identical values).
    js.publish();
    stats.join = js;
    (out, stats)
}

/// Run `f` on the calling thread's probe scratch, grown to cover
/// `n_indexed` records. Stamps make slots left by other chunks, joins and
/// probe sides unreachable, so nothing is allocated or zeroed per chunk.
pub(crate) fn with_scratch<R>(n_indexed: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    PROBE_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.ensure(n_indexed);
        f(&mut scratch)
    })
}

/// Probe records `range` of `plan.probe` against `target` in order, probe
/// `p` under stamp `stamp_base + p`. Probing the left side, each record's
/// pairs are sorted by `r` as they come, so the output is in `(l, r)`
/// order (the first step of the ordering pass, on the pool).
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_range<T: ProbeTarget, P: Pair>(
    range: Range<usize>,
    stamp_base: u64,
    plan: &ProbePlan<'_>,
    target: &T,
    measure: SetSimMeasure,
    scratch: &mut Scratch,
    out: &mut Vec<P>,
    stats: &mut JoinStats,
) {
    for p in range {
        let run = out.len();
        // A column holds at most `u32::MAX` records (checked where it
        // is built), so every rid fits.
        let rid = p as u32;
        let x = &plan.probe[p];
        probe_one(rid, stamp_base + p as u64, x, target, measure, plan.swap, scratch, out, stats);
        if !plan.swap {
            out[run..].sort_unstable_by_key(P::r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::setsim;
    use magellan_textsim::tokenize::{QgramTokenizer, WhitespaceTokenizer};

    fn some(items: &[&str]) -> Vec<Option<String>> {
        items.iter().map(|s| Some((*s).to_owned())).collect()
    }

    /// Naive reference join via the full cross product.
    fn naive(
        left: &[Option<String>],
        right: &[Option<String>],
        tokenizer: &dyn magellan_textsim::tokenize::Tokenizer,
        measure: SetSimMeasure,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (l, a) in left.iter().enumerate() {
            for (r, b) in right.iter().enumerate() {
                let (Some(a), Some(b)) = (a, b) else { continue };
                let ta = tokenizer.tokenize(a);
                let tb = tokenizer.tokenize(b);
                if ta.is_empty() || tb.is_empty() {
                    continue;
                }
                let ok = match measure {
                    SetSimMeasure::Jaccard(t) => setsim::jaccard(&ta, &tb) >= t - 1e-9,
                    SetSimMeasure::Cosine(t) => setsim::cosine(&ta, &tb) >= t - 1e-9,
                    SetSimMeasure::Dice(t) => setsim::dice(&ta, &tb) >= t - 1e-9,
                    SetSimMeasure::OverlapSize(c) => setsim::overlap_size(&ta, &tb) >= c,
                };
                if ok {
                    out.push((l, r));
                }
            }
        }
        out
    }

    fn pairs(join: &[JoinPair]) -> Vec<(usize, usize)> {
        join.iter().map(|p| (p.l, p.r)).collect()
    }

    fn soup(seed: u64, n: usize, max_len: usize, vocab: usize) -> Vec<Option<String>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..n)
            .map(|_| {
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
    fn jaccard_join_matches_naive() {
        let left = some(&[
            "dave smith madison",
            "joe wilson san jose",
            "dan smith middleton",
        ]);
        let right = some(&[
            "david smith madison",
            "daniel smith middleton",
            "dave smith madison",
        ]);
        let tok = WhitespaceTokenizer::new();
        for t in [0.3, 0.5, 0.8, 1.0] {
            let fast = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(t));
            let slow = naive(&left, &right, &tok, SetSimMeasure::Jaccard(t));
            assert_eq!(pairs(&fast), slow, "threshold {t}");
        }
    }

    #[test]
    fn exact_threshold_one_means_equal_sets() {
        let left = some(&["a b c", "x y"]);
        let right = some(&["c b a", "x z"]);
        let tok = WhitespaceTokenizer::new();
        let out = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(1.0));
        assert_eq!(pairs(&out), vec![(0, 0)]);
        assert_eq!(out[0].sim, 1.0);
    }

    #[test]
    fn qgram_join_finds_typos() {
        let left = some(&["mississippi"]);
        let right = some(&["mississipi", "minneapolis"]);
        let tok = QgramTokenizer::as_set(3);
        let out = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(0.6));
        assert_eq!(pairs(&out), vec![(0, 0)]);
    }

    #[test]
    fn overlap_size_join() {
        let left = some(&["a b c d", "a"]);
        let right = some(&["c d e", "z"]);
        let tok = WhitespaceTokenizer::new();
        let out = set_sim_join(&left, &right, &tok, SetSimMeasure::OverlapSize(2));
        assert_eq!(pairs(&out), vec![(0, 0)]);
        assert_eq!(out[0].sim, 2.0);
    }

    #[test]
    fn nulls_and_empties_never_match() {
        let left: Vec<Option<String>> = vec![None, Some("   ".into()), Some("a".into())];
        let right = some(&["a"]);
        let tok = WhitespaceTokenizer::new();
        let out = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(0.5));
        assert_eq!(pairs(&out), vec![(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_panics() {
        let tok = WhitespaceTokenizer::new();
        let l = some(&["a"]);
        set_sim_join(&l, &l, &tok, SetSimMeasure::Jaccard(0.0));
    }

    #[test]
    fn parallel_equals_serial() {
        let left = soup(7, 200, 6, 40);
        let right = soup(8, 200, 6, 40);
        let tok = WhitespaceTokenizer::new();
        for measure in [
            SetSimMeasure::Jaccard(0.6),
            SetSimMeasure::Cosine(0.7),
            SetSimMeasure::Dice(0.65),
            SetSimMeasure::OverlapSize(2),
        ] {
            let serial = set_sim_join(&left, &right, &tok, measure);
            let par = set_sim_join_parallel(&left, &right, &tok, measure, 4);
            assert_eq!(serial, par, "{measure:?}");
        }
    }

    #[test]
    fn cosine_and_dice_match_naive_on_random_soup() {
        let left = soup(99, 60, 5, 25);
        let right = soup(100, 60, 5, 25);
        let tok = WhitespaceTokenizer::new();
        for measure in [SetSimMeasure::Cosine(0.6), SetSimMeasure::Dice(0.6)] {
            let fast = set_sim_join(&left, &right, &tok, measure);
            let mut fast = pairs(&fast);
            fast.sort_unstable();
            let mut slow = naive(&left, &right, &tok, measure);
            slow.sort_unstable();
            assert_eq!(fast, slow, "{measure:?}");
        }
    }

    #[test]
    fn reported_similarity_is_exact() {
        let left = some(&["a b c"]);
        let right = some(&["b c d"]);
        let tok = WhitespaceTokenizer::new();
        let out = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(0.3));
        assert_eq!(out.len(), 1);
        assert!((out[0].sim - 0.5).abs() < 1e-12);
    }

    /// The three probe sides must agree **bit-for-bit** — same pair set,
    /// same order, same f64 similarities — on asymmetric collections.
    #[test]
    fn probe_side_is_output_invariant() {
        let tok = WhitespaceTokenizer::new();
        // Deliberately lopsided: left is much bigger than right, so Auto
        // probes left; also run the forced orientations.
        let left = soup(41, 300, 7, 30);
        let right = soup(43, 40, 4, 30);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        for measure in [
            SetSimMeasure::Jaccard(0.5),
            SetSimMeasure::Cosine(0.6),
            SetSimMeasure::Dice(0.6),
            SetSimMeasure::OverlapSize(2),
        ] {
            let (auto, s_auto) = join_tokenized_stats(&coll, measure, ProbeSide::Auto);
            let (l, _) = join_tokenized_stats(&coll, measure, ProbeSide::Left);
            let (r, s_r) = join_tokenized_stats(&coll, measure, ProbeSide::Right);
            assert_eq!(auto, l, "{measure:?} auto vs left");
            assert_eq!(auto, r, "{measure:?} auto vs right");
            assert_eq!(s_auto.pairs, auto.len());
            assert_eq!(s_r.probe_swaps, 1, "forced right probe records a swap");
        }
    }

    /// Cascade counters are internally consistent and worker-count
    /// invariant.
    #[test]
    fn join_stats_are_consistent_and_worker_invariant() {
        let tok = WhitespaceTokenizer::new();
        let left = soup(17, 150, 6, 20);
        let right = soup(19, 150, 6, 20);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measure = SetSimMeasure::Jaccard(0.5);
        let (out, serial) = join_tokenized_stats(&coll, measure, ProbeSide::Auto);
        // Every generated candidate is either killed by position or
        // verified; verification either kills by suffix or emits a pair.
        assert_eq!(
            serial.candidates,
            serial.killed_by_position + serial.verified
        );
        assert_eq!(serial.verified, serial.killed_by_suffix + out.len());
        assert_eq!(serial.pairs, out.len());
        assert!(serial.probes > 0 && serial.verify_steps > 0);
        // `pairs` as at a575b26, `candidates` as at 0a37532 (4412 before the
        // size window narrowed). At 0a37532 the middle four read (746, 2341,
        // 2797, 2943): since stage 2 compares the remainders' bitmaps, all
        // 2341 that died in the merge die at a collision instead.
        assert_eq!(
            (
                serial.candidates,
                serial.killed_by_position,
                serial.killed_by_suffix,
                serial.verified,
                serial.verify_steps,
                serial.pairs
            ),
            (3543, 3087, 0, 456, 324, 456)
        );
        for workers in [1, 4] {
            let (pout, pstats) =
                join_tokenized_par(&coll, measure, &ParConfig::workers(workers));
            assert_eq!(pout, out, "workers={workers}");
            let pj = pstats.join;
            assert_eq!(
                (
                    pj.probes,
                    pj.candidates,
                    pj.killed_by_size,
                    pj.killed_by_position,
                    pj.killed_by_suffix,
                    pj.verified,
                    pj.verify_steps,
                    pj.pairs
                ),
                (
                    serial.probes,
                    serial.candidates,
                    serial.killed_by_size,
                    serial.killed_by_position,
                    serial.killed_by_suffix,
                    serial.verified,
                    serial.verify_steps,
                    serial.pairs
                ),
                "workers={workers}"
            );
        }
    }

    /// Hostile thresholds included, a size above `cap(sx - px)` needs more
    /// than `sx - px` shared tokens (`min_overlap` rises with the size: the
    /// nearest excluded sizes decide), and the window opens at `hi` and only
    /// shrinks, which the catch-up's test relies on.
    #[test]
    fn size_cap_excludes_only_unreachable_sizes() {
        let mut measures = [1, 2, 7].map(SetSimMeasure::OverlapSize).to_vec();
        for t in [1e-9, 0.05, 0.2, 0.5, 0.7, 0.9, 1.0] {
            measures.extend([SetSimMeasure::Jaccard(t), SetSimMeasure::Cosine(t)]);
            measures.push(SetSimMeasure::Dice(t));
        }
        let sizes = |m| (1..=300usize).map(move |sx| (m, sx));
        for (m, sx) in measures.iter().flat_map(sizes) {
            let hi = m.size_bounds(sx).1;
            let cap = m.size_cap(sx, hi);
            assert_eq!(cap(sx), hi, "{m:?} sx={sx}: position 0 sees all of it");
            for px in 0..m.prefix_len(sx).min(sx) {
                let (o, c) = (sx - px, cap(sx - px));
                assert!(c <= cap(o + 1), "{m:?} sx={sx} px={px}: window grew");
                let near = (1..=(hi - c).min(32)).map(|d| c + d);
                for sy in near.chain([c + (hi - c) / 2, hi]).filter(|&sy| sy > c) {
                    let need = m.min_overlap(sx, sy);
                    assert!(need > o, "{m:?} sx={sx} px={px}: {sy} capped at {c}");
                }
            }
        }
    }

    /// Regression: a ≥16× record-length skew must be verified by
    /// galloping (the symmetric soups above never are — their operand
    /// ratios stay under `GALLOP_RATIO`), and the result must still match
    /// the reference engine bit-for-bit.
    #[test]
    fn size_skew_exercises_the_gallop_kernel() {
        let tok = WhitespaceTokenizer::new();
        // 200 short probe records (2–5 tokens) vs 12 long indexed records
        // (120 tokens): suffix merges pit a handful of probe tokens
        // against ~100-token indexed remainders.
        let left = soup(31, 200, 5, 400);
        let mut state = 33u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let right: Vec<Option<String>> = (0..12)
            .map(|_| {
                Some(
                    (0..120)
                        .map(|_| format!("t{}", next() % 400))
                        .collect::<Vec<_>>()
                        .join(" "),
                )
            })
            .collect();
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measure = SetSimMeasure::OverlapSize(2);
        let (pairs, stats) = join_tokenized_stats(&coll, measure, ProbeSide::Left);
        // `candidates` and `pairs` as at a575b26. At 0a37532 the middle four
        // read (151, 418, 850, 5055), 703 of the 850 verifications galloped
        // and a linear walk of the same operands took 24 344 steps. Stage 2's
        // bitmaps now kill 41 of the non-galloping ones at a collision: 703
        // of 809 gallop, against 24 129 linear steps.
        assert_eq!(
            (
                stats.candidates,
                stats.killed_by_position,
                stats.killed_by_suffix,
                stats.verified,
                stats.verify_steps,
                stats.pairs
            ),
            (1001, 192, 377, 809, 4840, 432)
        );
        assert_eq!(
            pairs,
            crate::reference::join_tokenized_hashmap(&coll, measure),
            "gallop path diverged from the reference engine"
        );
    }

    /// The CSR engine agrees bit-for-bit with the preserved HashMap
    /// reference engine.
    #[test]
    fn csr_engine_equals_reference_engine() {
        let tok = WhitespaceTokenizer::new();
        let left = soup(5, 120, 6, 30);
        let right = soup(6, 120, 6, 30);
        let coll = TokenizedCollection::build(&left, &right, &tok);
        for measure in [
            SetSimMeasure::Jaccard(0.4),
            SetSimMeasure::Cosine(0.7),
            SetSimMeasure::Dice(0.6),
            SetSimMeasure::OverlapSize(3),
        ] {
            let new = join_tokenized(&coll, measure);
            let old = crate::reference::join_tokenized_hashmap(&coll, measure);
            assert_eq!(new, old, "{measure:?}");
        }
    }
}
