//! The tokenize-once-per-record prepared layer for batch feature
//! extraction.
//!
//! The scalar path ([`crate::Feature::compute`]) re-normalizes and
//! re-tokenizes both attribute values for **every pair × every feature**.
//! But a feature set only ever needs each record's attribute in a handful
//! of distinct shapes — the feature set's distinct
//! `(attribute, normalization, tokenizer)` combinations — and each shape
//! needs computing **once per record**, not once per pair.
//!
//! [`PreparedPair`] is that cache. Given two tables and a feature list it
//! derives the distinct combinations ([`FeaturePlan`]), prepares exactly
//! the records the candidate pairs reference (lazily, so repeated
//! extractions over the same tables — e.g. Falcon's blocking-stage and
//! matching-stage matrices — reuse earlier work), and computes feature
//! rows from the prepared shapes:
//!
//! * trimmed + lowercased strings, **decoded to `char`s once**, for the
//!   sequence measures (which then run on slices without allocating);
//! * ordered *bags* of interned token ids for Monge–Elkan, each distinct
//!   token's decoded characters stored once beside the interner;
//! * **sorted, deduplicated interned `u32` token sets** (one shared
//!   [`TokenInterner`] across both tables) for the set measures;
//! * parsed floats for the numeric measures.
//!
//! Each `(attribute, shape)` keeps its cells flat: a number column is one
//! `f64` per prepared record (a NaN with its own payload when the value
//! is null or not a number), a string, bag or set column is one buffer of
//! `char`s or ids with a `(start, end)` span per record. A
//! zero-initialised row index leads from a row to its cell, so the rows
//! no pair references cost nothing but untouched pages, and invalidating
//! a record gives its cell up for the next one.
//!
//! ## Two ways to evaluate a pair
//!
//! [`PreparedPair::compute_row`] / [`PreparedPair::compute_feature`] are
//! **the reference**: one pair at a time, each measure through the
//! pairwise kernel of `magellan-textsim`. Nothing in production calls
//! them; every oracle (and the end-to-end benchmark's traced replay)
//! compares against them.
//!
//! [`Scorer`] is **what runs**: the executor's matching pass,
//! [`extract_with_prepared`] and [`StreamingPreparedPair::extract`] all
//! loop through one per chunk. A candidate list is sorted by `(l, r)`, so
//! consecutive pairs share their left record; the scorer keeps that
//! record's side of each measure (stamped id sets, an edit-distance
//! pattern) while it repeats, and a memo in front of Jaro–Winkler for the
//! token pairs Monge–Elkan keeps meeting. A box over the plan's features
//! ([`FeaturePlan::compile_box`], once per run) is tested against the
//! current pair by [`Scorer::in_box`], straight from the numeric and set
//! stores, filling the same memo. Every value has the reference's bits for
//! any pair order (DESIGN.md §7.7; `tests/scorer_oracle.rs`).
//!
//! ## Bit-identity with the scalar path
//!
//! Every prepared shape is produced by the *same* normalization and
//! tokenizer calls the scalar path makes per pair, and the id kernels are
//! arithmetic-identical to the string measures (equal strings ⇔ equal
//! ids, so `|A|`, `|B|`, `|A ∩ B|` — the only inputs of any set measure —
//! are unchanged). `fvtable` pins this with a bitwise equivalence test,
//! and the golden e2e + chaos suites pin it end to end.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use magellan_par::{CacheStats, ParConfig, ParStats};
use magellan_table::{Table, Value};
use magellan_textsim::intern::{self, TokenInterner};
use magellan_textsim::tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};
use magellan_textsim::{numeric, seqsim, setsim};

use crate::feature::{Feature, FeatureKind, TokSpec};
use crate::fvtable::FeatureMatrix;

mod scorer;

use scorer::Scratch;
pub use scorer::{Scorer, ScorerCounts};

/// The shape a feature needs an attribute value prepared into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PrepSpec {
    /// Trimmed, lowercased display string (sequence measures, exact match).
    LowerStr,
    /// Ordered lowercased alphanumeric token bag (Monge–Elkan).
    WordBag,
    /// Sorted deduplicated interned id set over word tokens.
    WordSet,
    /// Sorted deduplicated interned id set over padded q-grams.
    QgramSet(usize),
    /// Parsed float (numeric measures).
    Num,
}

impl PrepSpec {
    fn of(kind: FeatureKind) -> PrepSpec {
        match kind {
            FeatureKind::ExactMatch
            | FeatureKind::LevSim
            | FeatureKind::Jaro
            | FeatureKind::JaroWinkler => PrepSpec::LowerStr,
            FeatureKind::MongeElkanJw => PrepSpec::WordBag,
            FeatureKind::Jaccard(t)
            | FeatureKind::Cosine(t)
            | FeatureKind::Dice(t)
            | FeatureKind::OverlapCoeff(t) => match t {
                TokSpec::Word => PrepSpec::WordSet,
                TokSpec::Qgram(q) => PrepSpec::QgramSet(q),
            },
            FeatureKind::ExactNum | FeatureKind::AbsDiff | FeatureKind::RelDiff => PrepSpec::Num,
        }
    }

    /// Does preparing this shape invoke a tokenizer?
    fn tokenizes(&self) -> bool {
        matches!(
            self,
            PrepSpec::WordBag | PrepSpec::WordSet | PrepSpec::QgramSet(_)
        )
    }
}

/// One prepared cell: an attribute value in one shape, as its column lends
/// it out.
#[derive(Debug, Clone, Copy)]
enum PrepValue<'c> {
    /// The value was null, or a number column's value is not a number
    /// (every measure yields `NaN`).
    Null,
    /// Trimmed lowercased string, decoded.
    Str(&'c [char]),
    /// Ordered bag of interned token ids (duplicates kept); the tokens'
    /// characters are in [`TokenChars`].
    Bag(&'c [u32]),
    /// Sorted deduplicated interned token set.
    Set(&'c [u32]),
    /// Parsed float.
    Num(f64),
}

/// What a number column holds for a value that is null or not a number:
/// a quiet NaN whose payload spells "null". Parsing gives the canonical
/// NaN and arithmetic its negative, so no cell value reaches this pattern
/// but one built bit by bit, which would read as null.
const NO_NUMBER: u64 = 0x7ff8_0000_6e75_6c6c;

/// A number column's cell as a [`PrepValue`].
fn number_cell(x: f64) -> PrepValue<'static> {
    if x.to_bits() == NO_NUMBER {
        PrepValue::Null
    } else {
        PrepValue::Num(x)
    }
}

/// A null cell's span in an [`Arena`]: it starts after it ends.
const NULL_SPAN: (u32, u32) = (u32::MAX, 0);

/// The variable-length cells of one column back to back in one buffer, a
/// `(start, end)` span per cell: a column's cells are read in row order
/// and lie in it in preparation order, which is row order, and a cell is
/// no allocation of its own.
#[derive(Debug, Default)]
struct Arena<T> {
    spans: Vec<(u32, u32)>,
    items: Vec<T>,
    /// Items of invalidated cells, which no span covers any more. Once they
    /// are half of `items`, the live cells are copied into a new buffer, so
    /// a long stream of updates does not grow it.
    dead: usize,
}

impl<T: Copy> Arena<T> {
    /// Cell `at`; `None` if it is null.
    #[inline]
    fn get(&self, at: usize) -> Option<&[T]> {
        let (start, end) = self.spans[at];
        (start <= end).then(|| &self.items[start as usize..end as usize])
    }

    /// Make `at` (an existing cell or the next one) the items pushed since
    /// `start`, or null.
    fn close(&mut self, at: usize, start: Option<usize>) {
        let span = start.map_or(NULL_SPAN, |s| {
            (intern::narrow(s), intern::narrow(self.items.len()))
        });
        match self.spans.get_mut(at) {
            Some(old) => *old = span,
            None => self.spans.push(span),
        }
    }

    /// Make cell `at` null, giving its items up.
    fn clear(&mut self, at: usize) {
        let (start, end) = std::mem::replace(&mut self.spans[at], NULL_SPAN);
        if start <= end {
            self.dead += (end - start) as usize;
        }
        if self.dead * 2 > self.items.len() {
            let mut items = Vec::with_capacity(self.items.len() - self.dead);
            for span in self.spans.iter_mut().filter(|s| s.0 <= s.1) {
                let start = intern::narrow(items.len());
                items.extend_from_slice(&self.items[span.0 as usize..span.1 as usize]);
                *span = (start, intern::narrow(items.len()));
            }
            self.items = items;
            self.dead = 0;
        }
    }
}

/// One column's prepared cells, by shape.
#[derive(Debug)]
enum Store {
    /// `Num`: the parsed float, or [`NO_NUMBER`].
    Num(Vec<f64>),
    /// `LowerStr`: the decoded characters.
    Chars(Arena<char>),
    /// `WordBag`, `WordSet` and `QgramSet`: the interned ids.
    Ids(Arena<u32>),
}

/// The decoded characters of every token that occurs in a bag, by interner
/// id: one pool and a `(start, len)` span per id. Filled the first time a
/// bag shows the token and never rewritten — the interner is append-only —
/// so invalidating a record leaves it alone.
#[derive(Debug, Default)]
struct TokenChars {
    pool: Vec<char>,
    /// Per interner id; `(_, 0)` = not a bag token (so far).
    spans: Vec<(u32, u32)>,
}

impl TokenChars {
    fn note(&mut self, id: u32, token: &str) {
        let id = id as usize;
        if self.spans.len() <= id {
            self.spans.resize(id + 1, (0, 0));
        }
        if self.spans[id].1 == 0 {
            let start = self.pool.len();
            self.pool.extend(token.chars());
            let span = |n: usize| u32::try_from(n).expect("bag tokens hold under 2^32 characters");
            self.spans[id] = (span(start), span(self.pool.len() - start));
        }
    }

    fn get(&self, id: u32) -> &[char] {
        let (start, len) = self.spans[id as usize];
        &self.pool[start as usize..][..len as usize]
    }
}

/// One `(column, shape)` combination's cells, lazily filled per record.
///
/// Sparse: blocking leaves a few thousand of a long table's rows in the
/// candidate set, so the per-row part is a zero-initialised `u32` index
/// (untouched pages of it are never faulted in) over a compact store of
/// the cells actually prepared.
#[derive(Debug)]
struct PrepColumn {
    col: usize,
    spec: PrepSpec,
    /// Per row: `0` = not prepared, else `1 +` its cell's index in `store`.
    slot_of: Vec<u32>,
    /// The prepared cells, each prepared exactly once.
    store: Store,
    /// Cell indexes given up by [`PrepColumn::invalidate`], reused first
    /// so a long stream of updates does not grow the store.
    free: Vec<u32>,
}

impl PrepColumn {
    fn new(col: usize, spec: PrepSpec, nrows: usize) -> Self {
        let store = match spec {
            PrepSpec::Num => Store::Num(Vec::new()),
            PrepSpec::LowerStr => Store::Chars(Arena::default()),
            PrepSpec::WordBag | PrepSpec::WordSet | PrepSpec::QgramSet(_) => {
                Store::Ids(Arena::default())
            }
        };
        PrepColumn {
            col,
            spec,
            slot_of: vec![0; nrows],
            store,
            free: Vec::new(),
        }
    }

    /// The row's cell index, if it was prepared.
    #[inline]
    fn at(&self, row: usize) -> Option<usize> {
        match self.slot_of[row] {
            0 => None,
            slot => Some(slot as usize - 1),
        }
    }

    /// [`PrepColumn::at`] of a row a plan's pair reads.
    #[inline]
    fn prepared(&self, row: usize, side: &str) -> usize {
        match self.at(row) {
            Some(at) => at,
            None => panic!("{side} record {row} was not prepared for this plan"),
        }
    }

    fn get(&self, row: usize) -> Option<PrepValue<'_>> {
        let at = self.at(row)?;
        Some(match &self.store {
            Store::Num(values) => number_cell(values[at]),
            Store::Chars(arena) => arena.get(at).map_or(PrepValue::Null, PrepValue::Str),
            Store::Ids(arena) => match arena.get(at) {
                None => PrepValue::Null,
                Some(ids) if self.spec == PrepSpec::WordBag => PrepValue::Bag(ids),
                Some(ids) => PrepValue::Set(ids),
            },
        })
    }

    /// The row's cell, which a plan's pair reads.
    fn cell(&self, row: usize, side: &str) -> PrepValue<'_> {
        match self.get(row) {
            Some(v) => v,
            None => panic!("{side} record {row} was not prepared for this plan"),
        }
    }

    /// A number column's cell as stored: the float, or [`NO_NUMBER`].
    #[inline]
    fn number(&self, row: usize, side: &str) -> f64 {
        let at = self.prepared(row, side);
        match &self.store {
            Store::Num(values) => values[at],
            _ => f64::from_bits(NO_NUMBER),
        }
    }

    /// An id column's cell; `None` if it is null.
    #[inline]
    fn ids(&self, row: usize, side: &str) -> Option<&[u32]> {
        let at = self.prepared(row, side);
        match &self.store {
            Store::Ids(arena) => arena.get(at),
            _ => None,
        }
    }

    /// The index the row's new cell goes to, a given-up one first. The
    /// caller fills it.
    fn claim(&mut self, row: usize) -> usize {
        debug_assert_eq!(self.slot_of[row], 0, "a cell is prepared once");
        let at = match self.free.pop() {
            Some(at) => at as usize,
            None => match &self.store {
                Store::Num(values) => values.len(),
                Store::Chars(arena) => arena.spans.len(),
                Store::Ids(arena) => arena.spans.len(),
            },
        };
        self.slot_of[row] = intern::narrow(at + 1);
        at
    }

    /// Forget the row's cell (rows past the index were never prepared).
    /// True if there was one.
    fn invalidate(&mut self, row: usize) -> bool {
        let Some(slot) = self.slot_of.get_mut(row).filter(|s| **s != 0) else {
            return false;
        };
        let at = std::mem::take(slot) - 1;
        match &mut self.store {
            Store::Num(values) => values[at as usize] = f64::from_bits(NO_NUMBER),
            Store::Chars(arena) => arena.clear(at as usize),
            Store::Ids(arena) => arena.clear(at as usize),
        }
        self.free.push(at);
        true
    }
}

/// All prepared combinations of one table.
#[derive(Debug, Default)]
struct PreparedSide {
    cols: Vec<PrepColumn>,
    index: HashMap<(usize, PrepSpec), usize>,
}

impl PreparedSide {
    fn slot(&mut self, col: usize, spec: PrepSpec, nrows: usize) -> usize {
        *self.index.entry((col, spec)).or_insert_with(|| {
            self.cols.push(PrepColumn::new(col, spec, nrows));
            self.cols.len() - 1
        })
    }

    /// Grow every combination's cell vector to cover `nrows` records
    /// (appended records start unprepared).
    fn ensure_rows(&mut self, nrows: usize) {
        for c in &mut self.cols {
            if c.slot_of.len() < nrows {
                c.slot_of.resize(nrows, 0);
            }
        }
    }

    /// Drop every prepared shape of one record — the per-record dirty
    /// granularity of the streaming tier. Returns the number of cells
    /// actually cleared (0 = the record was never prepared).
    fn invalidate(&mut self, rid: usize) -> usize {
        self.cols
            .iter_mut()
            .map(|c| usize::from(c.invalidate(rid)))
            .sum()
    }
}

/// Everything prepared over one table pair — what [`PreparedPair`] (which
/// borrows its tables) and [`StreamingPreparedPair`] (which owns them)
/// share, and what a [`Scorer`] reads.
#[derive(Debug, Default)]
struct Cells {
    interner: TokenInterner,
    tokens: TokenChars,
    left: PreparedSide,
    right: PreparedSide,
    stats: CacheStats,
    /// Buffers of the scorers that are not running: a chunk's [`Scorer`]
    /// takes one (or makes one) and puts it back when it is dropped. They
    /// live here, not in the chunk, for two measured reasons. A stream
    /// tick scores a few dozen pairs, which must not pay for a
    /// vocabulary-sized stamp table per chunk. And buffers allocated and
    /// freed chunk by chunk sit *between* the chunks' output rows; what
    /// they leave behind in the allocator's caches is handed to whatever is
    /// allocated next, and when that outlives the matrix it pins the heap
    /// (`match_heavy`'s peak RSS read +20 % that way).
    idle: Mutex<Vec<Scratch>>,
}

impl Cells {
    /// Resolve a feature list against two schemas, registering slots.
    fn plan(
        &mut self,
        a: &Table,
        b: &Table,
        features: &[Feature],
    ) -> magellan_table::Result<FeaturePlan> {
        let mut entries = Vec::with_capacity(features.len());
        let mut n_token_features = 0;
        // Per-run and per-pair state the scorer keeps, one piece per
        // distinct key, in first-use order.
        let mut set_slots: Vec<usize> = Vec::new();
        let mut set_pairs: Vec<(usize, usize)> = Vec::new();
        let mut lev_slots: Vec<usize> = Vec::new();
        fn ordinal<K: PartialEq>(seen: &mut Vec<K>, key: K) -> usize {
            seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                seen.push(key);
                seen.len() - 1
            })
        }
        for f in features {
            let li = a.schema().try_index_of(&f.l_attr)?;
            let ri = b.schema().try_index_of(&f.r_attr)?;
            let spec = PrepSpec::of(f.kind);
            if spec.tokenizes() {
                n_token_features += 1;
            }
            let l_slot = self.left.slot(li, spec, a.nrows());
            let r_slot = self.right.slot(ri, spec, b.nrows());
            let (l_state, inter) = match spec {
                PrepSpec::WordSet | PrepSpec::QgramSet(_) => (
                    ordinal(&mut set_slots, l_slot),
                    ordinal(&mut set_pairs, (l_slot, r_slot)),
                ),
                _ if f.kind == FeatureKind::LevSim => (ordinal(&mut lev_slots, l_slot), 0),
                _ => (0, 0),
            };
            entries.push(PlanEntry {
                kind: f.kind,
                l_slot,
                r_slot,
                l_state,
                inter,
            });
        }
        Ok(FeaturePlan {
            entries,
            names: features.iter().map(|f| f.name.clone()).collect(),
            n_token_features,
            n_set_slots: set_slots.len(),
            n_set_pairs: set_pairs.len(),
            n_lev_slots: lev_slots.len(),
            monge_elkan: features.iter().any(|f| f.kind == FeatureKind::MongeElkanJw),
        })
    }

    /// Prepare every record the pairs reference for every slot the plan
    /// reads. Cells already prepared are counted as hits.
    fn prepare(&mut self, a: &Table, b: &Table, plan: &FeaturePlan, pairs: &[(u32, u32)]) {
        self.left.ensure_rows(a.nrows());
        self.right.ensure_rows(b.nrows());
        let l_rows = referenced_rows(pairs.iter().map(|p| p.0), a.nrows());
        let r_rows = referenced_rows(pairs.iter().map(|p| p.1), b.nrows());
        // Distinct slots per side (several features can share one slot).
        let mut l_slots: Vec<usize> = plan.entries.iter().map(|e| e.l_slot).collect();
        l_slots.sort_unstable();
        l_slots.dedup();
        let mut r_slots: Vec<usize> = plan.entries.iter().map(|e| e.r_slot).collect();
        r_slots.sort_unstable();
        r_slots.dedup();

        let Cells {
            interner,
            tokens,
            left,
            right,
            stats,
            ..
        } = self;
        for &s in &l_slots {
            prepare_column(&mut left.cols[s], a, &l_rows, interner, tokens, stats);
        }
        for &s in &r_slots {
            prepare_column(&mut right.cols[s], b, &r_rows, interner, tokens, stats);
        }
        stats.interner_tokens = interner.len();
    }

    /// [`Cells::prepare`], returning what this call did as a [`CacheStats`]
    /// delta — the counters it moved, the tokenizer calls it saved versus
    /// the scalar path over the pairs, the interner's size after it — and
    /// folding the savings into the cumulative stats.
    fn prepare_counted(
        &mut self,
        a: &Table,
        b: &Table,
        plan: &FeaturePlan,
        pairs: &[(u32, u32)],
    ) -> CacheStats {
        let before = self.stats;
        self.prepare(a, b, plan, pairs);
        let after = self.stats;
        let spent = after.tokenize_calls - before.tokenize_calls;
        let delta = CacheStats {
            records_prepared: after.records_prepared - before.records_prepared,
            tokenize_calls: spent,
            tokenize_calls_saved: plan
                .scalar_tokenize_calls(pairs.len())
                .saturating_sub(spent),
            lookups: after.lookups - before.lookups,
            hits: after.hits - before.hits,
            interner_tokens: after.interner_tokens,
        };
        self.stats.tokenize_calls_saved += delta.tokenize_calls_saved;
        delta
    }

    /// Plan the features, prepare the records the pairs reference, then
    /// compute one feature row per pair on the pool.
    fn extract(
        &mut self,
        a: &Table,
        b: &Table,
        pairs: &[(u32, u32)],
        features: &[Feature],
        cfg: &ParConfig,
    ) -> magellan_table::Result<(FeatureMatrix, ParStats)> {
        let (plan, rows, stats) =
            self.map_pairs(a, b, pairs, features, cfg, |s, ra, rb| s.row(ra, rb))?;
        Ok((
            FeatureMatrix {
                names: plan.names,
                rows,
                pairs: pairs.to_vec(),
            },
            stats,
        ))
    }

    /// Plan the features, prepare the records the pairs reference, then
    /// map every pair through `each` on the pool, a [`Scorer`] per chunk,
    /// and return the outputs in pair order. The scorers' counts and this
    /// call's cache delta are published once the region is over (no-ops
    /// without a recorder); the delta also rides along in the returned
    /// [`ParStats`].
    fn map_pairs<R: Send>(
        &mut self,
        a: &Table,
        b: &Table,
        pairs: &[(u32, u32)],
        features: &[Feature],
        cfg: &ParConfig,
        each: impl Fn(&mut Scorer<'_>, usize, usize) -> R + Sync,
    ) -> magellan_table::Result<(FeaturePlan, Vec<R>, ParStats)> {
        let plan = self.plan(a, b, features)?;
        let cache = self.prepare_counted(a, b, &plan, pairs);
        let cells = &*self;
        let (chunks, mut stats) = magellan_par::chunk_map(pairs.len(), cfg, |range| {
            let mut scorer = Scorer::over(cells, &plan);
            let out: Vec<R> = pairs[range]
                .iter()
                .map(|&(ra, rb)| each(&mut scorer, ra as usize, rb as usize))
                .collect();
            (out, scorer.counts())
        });
        let mut out = Vec::with_capacity(pairs.len());
        let mut counts = ScorerCounts::default();
        for (chunk, c) in chunks {
            out.extend(chunk);
            counts += c;
        }
        counts.publish();
        cache.publish();
        stats.cache = cache;
        Ok((plan, out, stats))
    }

    /// The scorer buffers not in use. A push or a pop leaves the pool valid
    /// whatever panicked while it was locked.
    fn idle(&self) -> MutexGuard<'_, Vec<Scratch>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A pair list this many times shorter than the table is sorted instead
/// of marked into a table-sized bitmap.
const SPARSE_ROWS_PER_PAIR: usize = 8;

/// The distinct row ids a pair list references on one side, ascending.
/// A batch-sized list marks a bitmap and sweeps it; a stream tick's few
/// dozen pairs against a table of thousands are sorted instead, so the
/// call costs O(pairs), not O(rows). Same list either way.
fn referenced_rows(ids: impl ExactSizeIterator<Item = u32>, nrows: usize) -> Vec<u32> {
    if ids.len() * SPARSE_ROWS_PER_PAIR < nrows {
        let mut rows: Vec<u32> = ids.collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    } else {
        let mut referenced = vec![false; nrows];
        for r in ids {
            referenced[r as usize] = true;
        }
        (0..nrows as u32)
            .filter(|&r| referenced[r as usize])
            .collect()
    }
}

/// A feature list resolved against a [`PreparedPair`]: per feature, the
/// computation kind plus the prepared-slot each side reads from.
#[derive(Debug, Clone)]
pub struct FeaturePlan {
    entries: Vec<PlanEntry>,
    names: Vec<String>,
    /// Features whose scalar evaluation tokenizes both sides.
    n_token_features: usize,
    /// Distinct left slots the set features read (one stamp buffer each).
    n_set_slots: usize,
    /// Distinct `(left slot, right slot)` pairs the set features read (one
    /// intersection count per pair of records each).
    n_set_pairs: usize,
    /// Distinct left slots `LevSim` features read (one pattern each).
    n_lev_slots: usize,
    /// Does any feature need the Jaro–Winkler memo?
    monge_elkan: bool,
}

#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    kind: FeatureKind,
    l_slot: usize,
    r_slot: usize,
    /// Which of the scorer's per-run left states this feature uses: a
    /// stamp buffer for a set feature, a pattern for `LevSim`.
    l_state: usize,
    /// Set features: which per-pair intersection count.
    inter: usize,
}

impl FeaturePlan {
    /// Number of planned features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no features are planned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Per planned feature, whether a deciding model should test it last
    /// ([`FeatureKind::is_sequence_kernel`]).
    pub fn deferred(&self) -> Vec<bool> {
        self.entries
            .iter()
            .map(|e| e.kind.is_sequence_kernel())
            .collect()
    }

    /// Tokenizer invocations the scalar path would spend on `n_pairs`
    /// pairs of this plan (two sides per token feature per pair).
    pub fn scalar_tokenize_calls(&self, n_pairs: usize) -> usize {
        2 * n_pairs * self.n_token_features
    }

    /// Compile a box of `(feature, upper bound)` dimensions against the
    /// plan, for [`Scorer::in_box`]: once per run, not per pair. The box
    /// keeps the dimensions' order.
    ///
    /// # Panics
    /// If a dimension is not a feature of the plan.
    pub fn compile_box(&self, dims: &[(usize, f64)]) -> FeatureBox {
        FeatureBox {
            dims: dims
                .iter()
                .map(|&(feature, upper)| BoxDim {
                    feature,
                    upper,
                    entry: self.entries[feature],
                })
                .collect(),
        }
    }
}

/// A box over a plan's features, `f₁ ≤ u₁ ∧ … ∧ f_k ≤ u_k`, with each
/// dimension's columns resolved ([`FeaturePlan::compile_box`]).
#[derive(Debug, Clone)]
pub struct FeatureBox {
    dims: Vec<BoxDim>,
}

#[derive(Debug, Clone, Copy)]
struct BoxDim {
    feature: usize,
    upper: f64,
    entry: PlanEntry,
}

/// The shared record-preparation cache over one `(A, B)` table pair.
///
/// Create once per workload, [`PreparedPair::plan`] each feature list
/// against it, and extract matrices with
/// [`crate::fvtable::extract_with_prepared`]. Preparation is lazy and
/// cumulative: combinations and records prepared for one plan are reused
/// by every later plan that shares them (see [`PreparedPair::cache_stats`]).
#[derive(Debug)]
pub struct PreparedPair<'t> {
    a: &'t Table,
    b: &'t Table,
    cells: Cells,
}

impl<'t> PreparedPair<'t> {
    /// Empty cache over a table pair — nothing is prepared until a plan
    /// asks for it.
    pub fn new(a: &'t Table, b: &'t Table) -> Self {
        PreparedPair {
            a,
            b,
            cells: Cells::default(),
        }
    }

    /// Resolve a feature list into a plan, registering any new
    /// `(attribute, shape)` combinations. Errors on unknown attributes,
    /// exactly like the unprepared extractor.
    pub fn plan(&mut self, features: &[Feature]) -> magellan_table::Result<FeaturePlan> {
        self.cells.plan(self.a, self.b, features)
    }

    /// Prepare every record the given pairs reference, for every slot the
    /// plan reads. Cells already prepared (by this or an earlier plan)
    /// are counted as cache hits and not recomputed.
    pub fn prepare_for_pairs(&mut self, plan: &FeaturePlan, pairs: &[(u32, u32)]) {
        self.cells.prepare(self.a, self.b, plan, pairs);
    }

    /// [`PreparedPair::prepare_for_pairs`], returning what this call did
    /// as a [`CacheStats`] delta — records prepared, tokenize calls spent
    /// and saved versus the scalar path, lookups/hits (hits = reuse of
    /// earlier preparation), the shared interner's vocabulary size — and
    /// folding the savings into the cumulative
    /// [`PreparedPair::cache_stats`].
    pub fn prepare_counted(&mut self, plan: &FeaturePlan, pairs: &[(u32, u32)]) -> CacheStats {
        self.cells.prepare_counted(self.a, self.b, plan, pairs)
    }

    /// **Reference.** Evaluate a planned feature row for one prepared
    /// pair, every measure through its pairwise kernel. Production scores
    /// through a [`Scorer`], whose values are compared with these bit for
    /// bit.
    ///
    /// # Panics
    /// If the pair's records were not prepared for this plan (call
    /// [`PreparedPair::prepare_for_pairs`] first).
    pub fn compute_row(&self, plan: &FeaturePlan, ra: usize, rb: usize) -> Vec<f64> {
        let mut rows = Vec::new();
        (0..plan.len())
            .map(|j| self.compute_feature(plan, j, ra, rb, &mut rows))
            .collect()
    }

    /// **Reference.** Evaluate planned feature `j` alone for one prepared
    /// pair — the value [`PreparedPair::compute_row`] puts at position
    /// `j`, bit for bit. `rows` is scratch for the edit-distance fallback
    /// on strings beyond 64 characters; pass the same buffer to every call
    /// of a batch.
    ///
    /// # Panics
    /// As [`PreparedPair::compute_row`], and if `j` is not a feature of
    /// the plan.
    pub fn compute_feature(
        &self,
        plan: &FeaturePlan,
        j: usize,
        ra: usize,
        rb: usize,
        rows: &mut Vec<usize>,
    ) -> f64 {
        let e = &plan.entries[j];
        let va = self.cells.left.cols[e.l_slot].cell(ra, "left");
        let vb = self.cells.right.cols[e.r_slot].cell(rb, "right");
        compute_prepared(e.kind, va, vb, &self.cells.tokens, rows)
    }

    /// Cumulative cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.cells.stats
    }

    /// Distinct tokens interned so far.
    pub fn interner_len(&self) -> usize {
        self.cells.interner.len()
    }

    /// The tables this cache was built over.
    pub fn tables(&self) -> (&'t Table, &'t Table) {
        (self.a, self.b)
    }
}

/// The owning, mutable variant of [`PreparedPair`] for the streaming
/// tier: the store owns both tables, so records can be appended or
/// rewritten while the preparation caches live on — and an update dirties
/// **exactly that record's cells**, not the whole cache. Every other
/// record's prepared shapes survive the mutation, which is what makes the
/// incremental feature path O(dirty pairs) instead of O(all pairs).
///
/// The shared [`TokenInterner`] is append-only, so already-prepared id
/// sets and bags stay valid as new records grow the vocabulary (same
/// argument as the incremental join's prefix index, whose keys mirror
/// interner ids).
#[derive(Debug)]
pub struct StreamingPreparedPair {
    a: Table,
    b: Table,
    cells: Cells,
    cells_invalidated: u64,
}

impl StreamingPreparedPair {
    /// Take ownership of the two tables with nothing prepared yet.
    pub fn new(a: Table, b: Table) -> Self {
        StreamingPreparedPair {
            a,
            b,
            cells: Cells::default(),
            cells_invalidated: 0,
        }
    }

    /// The current tables (read-only; mutate through the store so caches
    /// stay coherent).
    pub fn tables(&self) -> (&Table, &Table) {
        (&self.a, &self.b)
    }

    /// Append a record to the left (`left = true`) or right table and
    /// return its row id. New rows start unprepared — no invalidation
    /// needed.
    pub fn push_row(&mut self, left: bool, row: Vec<Value>) -> magellan_table::Result<usize> {
        let t = if left { &mut self.a } else { &mut self.b };
        t.push_row(row)?;
        Ok(t.nrows() - 1)
    }

    /// Overwrite one attribute of an existing record and invalidate that
    /// record's prepared cells (and only that record's).
    pub fn set_value(
        &mut self,
        left: bool,
        rid: usize,
        attr: &str,
        value: Value,
    ) -> magellan_table::Result<()> {
        let t = if left { &mut self.a } else { &mut self.b };
        t.set_value(rid, attr, value)?;
        self.invalidate_record(left, rid);
        Ok(())
    }

    /// Drop every prepared shape of one record, forcing re-preparation on
    /// next use. Returns the number of cells actually cleared.
    pub fn invalidate_record(&mut self, left: bool, rid: usize) -> usize {
        let side = if left {
            &mut self.cells.left
        } else {
            &mut self.cells.right
        };
        let cleared = side.invalidate(rid);
        self.cells_invalidated += cleared as u64;
        cleared
    }

    /// Total prepared cells cleared by per-record invalidation since
    /// construction (the streaming tier's "how little did we dirty"
    /// counter).
    pub fn cells_invalidated(&self) -> u64 {
        self.cells_invalidated
    }

    /// Cumulative cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.cells.stats
    }

    /// Distinct tokens interned so far.
    pub fn interner_len(&self) -> usize {
        self.cells.interner.len()
    }

    /// Extract a feature matrix for the given pairs, reusing every cell
    /// prepared by earlier batches that was not invalidated since.
    /// Bit-identical to a fresh [`extract_with_prepared`] over copies of
    /// the current tables, for any worker count.
    pub fn extract(
        &mut self,
        pairs: &[(u32, u32)],
        features: &[Feature],
        cfg: &ParConfig,
    ) -> magellan_table::Result<(FeatureMatrix, ParStats)> {
        self.cells.extract(&self.a, &self.b, pairs, features, cfg)
    }

    /// `score` of each pair's feature row, in pair order: the rows
    /// [`StreamingPreparedPair::extract`] would return, each read from its
    /// chunk scorer's own buffer, so no row or matrix is allocated. Same
    /// preparation, same published counters.
    pub fn score(
        &mut self,
        pairs: &[(u32, u32)],
        features: &[Feature],
        cfg: &ParConfig,
        score: impl Fn(&[f64]) -> f64 + Sync,
    ) -> magellan_table::Result<(Vec<f64>, ParStats)> {
        let (_, scores, stats) =
            self.cells
                .map_pairs(&self.a, &self.b, pairs, features, cfg, |s, ra, rb| {
                    score(s.row_slice(ra, rb))
                })?;
        Ok((scores, stats))
    }
}

/// Fill one combination's cells for every referenced, still-unprepared
/// record (`rows` ascending: interner ids are assigned in visit order).
fn prepare_column(
    column: &mut PrepColumn,
    table: &Table,
    rows: &[u32],
    interner: &mut TokenInterner,
    tokens: &mut TokenChars,
    stats: &mut CacheStats,
) {
    for &r in rows {
        let r = r as usize;
        stats.lookups += 1;
        if column.at(r).is_some() {
            stats.hits += 1;
            continue;
        }
        let v = table.value(r, column.col);
        let at = column.claim(r);
        match &mut column.store {
            Store::Num(values) => {
                let x = v.as_float().unwrap_or(f64::from_bits(NO_NUMBER));
                match values.get_mut(at) {
                    Some(old) => *old = x,
                    None => values.push(x),
                }
            }
            Store::Chars(arena) => {
                let start = (!v.is_null()).then_some(arena.items.len());
                if start.is_some() {
                    arena.items.extend(v.lower_trimmed().chars());
                }
                arena.close(at, start);
            }
            Store::Ids(arena) => {
                let start = (!v.is_null()).then_some(arena.items.len());
                if start.is_some() {
                    stats.tokenize_calls += 1;
                    let text = v.lower_trimmed();
                    let ids = &mut arena.items;
                    match column.spec {
                        PrepSpec::WordBag => {
                            AlphanumericTokenizer::new().for_each_token(&text, &mut |t| {
                                let id = interner.intern(t);
                                tokens.note(id, t);
                                ids.push(id);
                            });
                        }
                        PrepSpec::QgramSet(q) => {
                            interner.intern_tokens_into(&QgramTokenizer::as_set(q), &text, ids)
                        }
                        _ => interner.intern_tokens_into(
                            &AlphanumericTokenizer::as_set(),
                            &text,
                            ids,
                        ),
                    }
                }
                arena.close(at, start);
            }
        }
        stats.records_prepared += 1;
    }
}

/// The kinds with nothing to keep between the pairs of a run: numeric
/// measures, exact match and the two Jaro forms (whose greedy matching has
/// no side that can be prepared ahead). One body for the reference and the
/// scorer; `None` for the kinds each evaluates its own way.
fn compute_stateless(kind: FeatureKind, va: PrepValue<'_>, vb: PrepValue<'_>) -> Option<f64> {
    Some(match kind {
        FeatureKind::ExactNum | FeatureKind::AbsDiff | FeatureKind::RelDiff => {
            let (PrepValue::Num(x), PrepValue::Num(y)) = (va, vb) else {
                return Some(f64::NAN);
            };
            numeric_measure(kind, x, y)
        }
        FeatureKind::ExactMatch | FeatureKind::Jaro | FeatureKind::JaroWinkler => {
            let (sa, sb) = str_cells(va, vb)?;
            match kind {
                FeatureKind::ExactMatch => f64::from(sa == sb),
                FeatureKind::Jaro => seqsim::jaro_chars(sa, sb),
                _ => seqsim::jaro_winkler_chars(sa, sb),
            }
        }
        _ => return None,
    })
}

/// A numeric kind over two numbers, neither of them [`NO_NUMBER`].
fn numeric_measure(kind: FeatureKind, x: f64, y: f64) -> f64 {
    match kind {
        FeatureKind::ExactNum => numeric::exact_match_num(x, y),
        FeatureKind::AbsDiff => numeric::abs_diff_sim(x, y),
        _ => numeric::rel_diff_sim(x, y),
    }
}

/// Both cells of a string feature. `None` (callers answer `NaN`) would be
/// a bug: a plan reads each feature from the slot of its own shape.
fn str_cells<'c>(va: PrepValue<'c>, vb: PrepValue<'c>) -> Option<(&'c [char], &'c [char])> {
    match (va, vb) {
        (PrepValue::Str(sa), PrepValue::Str(sb)) => Some((sa, sb)),
        _ => {
            debug_assert!(false, "string feature over non-string prep");
            None
        }
    }
}

/// Both cells of a Monge–Elkan feature (see [`str_cells`] on `None`).
fn bag_cells<'c>(va: PrepValue<'c>, vb: PrepValue<'c>) -> Option<(&'c [u32], &'c [u32])> {
    match (va, vb) {
        (PrepValue::Bag(ba), PrepValue::Bag(bb)) => Some((ba, bb)),
        _ => {
            debug_assert!(false, "monge-elkan over non-bag prep");
            None
        }
    }
}

/// Both cells of a set feature — `None` also when either tokenization is
/// empty: the scalar path returns `NaN` there, preserved exactly.
fn set_cells<'c>(va: PrepValue<'c>, vb: PrepValue<'c>) -> Option<(&'c [u32], &'c [u32])> {
    match (va, vb) {
        (PrepValue::Set(ia), PrepValue::Set(ib)) => {
            (!ia.is_empty() && !ib.is_empty()).then_some((ia, ib))
        }
        _ => {
            debug_assert!(false, "set feature over non-set prep");
            None
        }
    }
}

/// The reference evaluation of one feature kind over two prepared cells —
/// mirrors [`crate::Feature::compute`] case for case so results are
/// bit-identical. Reached only through [`PreparedPair::compute_feature`].
fn compute_prepared(
    kind: FeatureKind,
    va: PrepValue<'_>,
    vb: PrepValue<'_>,
    tokens: &TokenChars,
    rows: &mut Vec<usize>,
) -> f64 {
    if matches!(va, PrepValue::Null) || matches!(vb, PrepValue::Null) {
        return f64::NAN;
    }
    if let Some(v) = compute_stateless(kind, va, vb) {
        return v;
    }
    match kind {
        FeatureKind::LevSim => {
            let Some((sa, sb)) = str_cells(va, vb) else {
                return f64::NAN;
            };
            seqsim::levenshtein_sim_chars(sa, sb, rows)
        }
        FeatureKind::MongeElkanJw => {
            let Some((ba, bb)) = bag_cells(va, vb) else {
                return f64::NAN;
            };
            // Equal ids are equal tokens, which score 1.0 without Jaro.
            setsim::monge_elkan_upto_one(ba.len(), bb.len(), |i, j| {
                if ba[i] == bb[j] {
                    1.0
                } else {
                    seqsim::jaro_winkler_chars(tokens.get(ba[i]), tokens.get(bb[j]))
                }
            })
        }
        _ => {
            let Some((ia, ib)) = set_cells(va, vb) else {
                return f64::NAN;
            };
            match kind {
                FeatureKind::Jaccard(_) => intern::jaccard_ids(ia, ib),
                FeatureKind::Cosine(_) => intern::cosine_ids(ia, ib),
                FeatureKind::Dice(_) => intern::dice_ids(ia, ib),
                _ => intern::overlap_coefficient_ids(ia, ib),
            }
        }
    }
}

/// Extract a feature matrix through a shared [`PreparedPair`] cache: plan
/// the features, prepare the referenced records once each, then evaluate
/// pair rows on the `magellan-par` pool, one [`Scorer`] per chunk
/// (bit-identical to [`crate::extract_feature_matrix_scalar`] for any
/// worker count).
///
/// The returned [`ParStats`] carries this call's [`CacheStats`] delta —
/// records prepared, tokenize calls spent and saved versus the scalar
/// path, lookups/hits (hits = reuse of earlier preparation), and the
/// shared interner's vocabulary size.
pub fn extract_with_prepared(
    prepared: &mut PreparedPair<'_>,
    pairs: &[(u32, u32)],
    features: &[Feature],
    cfg: &ParConfig,
) -> magellan_table::Result<(FeatureMatrix, ParStats)> {
    prepared
        .cells
        .extract(prepared.a, prepared.b, pairs, features, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureKind, TokSpec};
    use crate::fvtable::extract_feature_matrix_scalar;
    use magellan_table::{Dtype, Value};

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("city", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![
                vec![
                    "a0".into(),
                    "Dave  Smith".into(),
                    "Madison".into(),
                    Value::Int(40),
                ],
                vec!["a1".into(), Value::Null, "Chicago!!".into(), Value::Int(31)],
                vec![
                    "a2".into(),
                    "O'Brien, J.R.".into(),
                    Value::Null,
                    Value::Null,
                ],
                vec!["a3".into(), "!!!".into(), "  ".into(), Value::Int(7)],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("city", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![
                vec![
                    "b0".into(),
                    "dave smith".into(),
                    "madison".into(),
                    Value::Int(41),
                ],
                vec![
                    "b1".into(),
                    "J R O Brien".into(),
                    "chicago".into(),
                    Value::Null,
                ],
            ],
        )
        .unwrap();
        (a, b)
    }

    fn all_kind_features() -> Vec<Feature> {
        vec![
            Feature::new("name", "name", FeatureKind::ExactMatch),
            Feature::new("name", "name", FeatureKind::LevSim),
            Feature::new("name", "name", FeatureKind::Jaro),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
            Feature::new("name", "name", FeatureKind::MongeElkanJw),
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::Cosine(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::Dice(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::OverlapCoeff(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpec::Qgram(3))),
            Feature::new("city", "city", FeatureKind::Cosine(TokSpec::Qgram(2))),
            Feature::new("age", "age", FeatureKind::ExactNum),
            Feature::new("age", "age", FeatureKind::AbsDiff),
            Feature::new("age", "age", FeatureKind::RelDiff),
        ]
    }

    fn all_pairs(a: &Table, b: &Table) -> Vec<(u32, u32)> {
        (0..a.nrows() as u32)
            .flat_map(|ra| (0..b.nrows() as u32).map(move |rb| (ra, rb)))
            .collect()
    }

    /// The prepared path is **bit-identical** to the scalar per-pair path
    /// for every feature kind, including nulls, empty tokenizations,
    /// non-numeric values, and duplicate tokens.
    #[test]
    fn prepared_rows_bit_identical_to_scalar() {
        let (a, b) = tables();
        let features = all_kind_features();
        let pairs = all_pairs(&a, &b);
        let scalar = extract_feature_matrix_scalar(&pairs, &a, &b, &features).unwrap();
        let mut prepared = PreparedPair::new(&a, &b);
        let (cached, stats) =
            extract_with_prepared(&mut prepared, &pairs, &features, &ParConfig::serial()).unwrap();
        assert_eq!(cached.names, scalar.names);
        assert_eq!(cached.pairs, scalar.pairs);
        for (i, (cr, sr)) in cached.rows.iter().zip(&scalar.rows).enumerate() {
            for (j, (cv, sv)) in cr.iter().zip(sr).enumerate() {
                assert_eq!(
                    cv.to_bits(),
                    sv.to_bits(),
                    "pair {i} feature {j} ({}) diverged: {cv} vs {sv}",
                    cached.names[j]
                );
            }
        }
        assert!(stats.cache.records_prepared > 0);
        assert!(stats.cache.tokenize_calls > 0);
        assert!(stats.cache.tokenize_calls_saved > 0);
        assert!(stats.cache.interner_tokens > 0);
    }

    /// `str::to_lowercase` runs *before* the ASCII-alphanumeric split, and
    /// Unicode lowercasing can produce ASCII: the Kelvin sign becomes `k`
    /// (a token character), `İ` becomes `i` + a combining dot (a token
    /// boundary after an `i`). The borrowed, byte-level route is for ASCII
    /// cells only; these must still agree with the scalar path bit for bit,
    /// and intern the same tokens.
    #[test]
    fn unicode_cells_lowercase_before_they_tokenize() {
        let names = [
            "\u{212a}elvin 5\u{212a} probe",
            "\u{130}stanbul \u{130}",
            "STRASSE stra\u{df}e",
            "e\u{301}clair i\u{307}",
            " tab\tand\rCR ",
            "\u{a0}nbsp\u{a0}",
            "Plain ASCII Title 42",
            "plain ascii title 42",
        ];
        let table = |tag: &str| {
            Table::from_rows(
                tag,
                &[
                    ("id", Dtype::Str),
                    ("name", Dtype::Str),
                    ("city", Dtype::Str),
                    ("age", Dtype::Int),
                ],
                names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        vec![
                            format!("{tag}{i}").into(),
                            (*n).into(),
                            (*n).into(),
                            Value::Int(i as i64),
                        ]
                    })
                    .collect(),
            )
            .unwrap()
        };
        let (a, b) = (table("a"), table("b"));
        let features = all_kind_features();
        let pairs = all_pairs(&a, &b);
        let scalar = extract_feature_matrix_scalar(&pairs, &a, &b, &features).unwrap();
        let mut prepared = PreparedPair::new(&a, &b);
        let (cached, _) =
            extract_with_prepared(&mut prepared, &pairs, &features, &ParConfig::serial()).unwrap();
        for (i, (cr, sr)) in cached.rows.iter().zip(&scalar.rows).enumerate() {
            for (j, (cv, sv)) in cr.iter().zip(sr).enumerate() {
                assert_eq!(
                    cv.to_bits(),
                    sv.to_bits(),
                    "pair {:?} feature {} diverged: {cv} vs {sv}",
                    pairs[i],
                    cached.names[j]
                );
            }
        }
        // `k` from the Kelvin sign joined its neighbours into one token;
        // the same words in either case are the same tokens.
        let word_set = |r: usize| {
            let col = &prepared.cells.left.cols[prepared.cells.left.index[&(1, PrepSpec::WordSet)]];
            match col.get(r) {
                Some(PrepValue::Set(ids)) => ids
                    .iter()
                    .map(|&id| prepared.cells.interner.resolve(id).to_owned())
                    .collect::<Vec<_>>(),
                other => panic!("row {r} not a word set: {other:?}"),
            }
        };
        let mut kelvin = word_set(0);
        kelvin.sort();
        assert_eq!(kelvin, ["5k", "kelvin", "probe"]);
        assert_eq!(word_set(6), word_set(7));
    }

    /// Parallel prepared extraction is bit-identical to serial for any
    /// worker count (prepared data is immutable during the pair map).
    #[test]
    fn prepared_extraction_worker_count_invariant() {
        let (a, b) = tables();
        let features = all_kind_features();
        let pairs = all_pairs(&a, &b);
        let mut reference_prep = PreparedPair::new(&a, &b);
        let (reference, _) =
            extract_with_prepared(&mut reference_prep, &pairs, &features, &ParConfig::serial())
                .unwrap();
        for w in [2, 3, 8] {
            let mut prep = PreparedPair::new(&a, &b);
            let (m, _) =
                extract_with_prepared(&mut prep, &pairs, &features, &ParConfig::workers(w))
                    .unwrap();
            for (cr, sr) in m.rows.iter().zip(&reference.rows) {
                for (cv, sv) in cr.iter().zip(sr) {
                    assert_eq!(cv.to_bits(), sv.to_bits(), "{w} workers diverged");
                }
            }
        }
    }

    /// A second plan over the same cache reuses earlier preparation:
    /// shared (attribute, tokenizer) combinations report cache hits and
    /// spend no new tokenize calls for already-prepared records.
    #[test]
    fn cross_plan_reuse_hits_cache() {
        let (a, b) = tables();
        let pairs = all_pairs(&a, &b);
        let mut prepared = PreparedPair::new(&a, &b);
        let stage1 = vec![Feature::new(
            "name",
            "name",
            FeatureKind::Jaccard(TokSpec::Word),
        )];
        let (_, s1) =
            extract_with_prepared(&mut prepared, &pairs, &stage1, &ParConfig::serial()).unwrap();
        assert_eq!(s1.cache.hits, 0);
        assert!(s1.cache.tokenize_calls > 0);

        // Stage 2 shares the word-set combination and adds a new one.
        let stage2 = vec![
            Feature::new("name", "name", FeatureKind::Cosine(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::Dice(TokSpec::Word)),
            Feature::new("city", "city", FeatureKind::Jaccard(TokSpec::Word)),
        ];
        let (_, s2) =
            extract_with_prepared(&mut prepared, &pairs, &stage2, &ParConfig::serial()).unwrap();
        // name word-sets were already prepared: all those lookups hit.
        assert!(s2.cache.hits > 0, "no cross-plan reuse: {:?}", s2.cache);
        // Only the city column prepared anew: 4 A rows + 2 B rows, one of
        // which (a2's city) is Null and therefore prepared without
        // spending a tokenize call.
        assert_eq!(s2.cache.records_prepared, 6);
        assert_eq!(s2.cache.tokenize_calls, 5);
        let total = prepared.cache_stats();
        assert_eq!(total.lookups, s1.cache.lookups + s2.cache.lookups);
        assert!(total.hit_rate() > 0.0);
    }

    /// Per-record invalidation: updating one record through the streaming
    /// store re-prepares only that record, and the resulting rows are
    /// bit-identical to a cold extraction over the mutated tables.
    #[test]
    fn streaming_store_invalidates_per_record_not_globally() {
        let (a, b) = tables();
        let features = all_kind_features();
        let pairs = all_pairs(&a, &b);
        let mut store = StreamingPreparedPair::new(a.clone(), b.clone());
        let (_, s1) = store
            .extract(&pairs, &features, &ParConfig::serial())
            .unwrap();
        assert!(s1.cache.records_prepared > 0);

        // Rewrite one left record's name; only its cells go dirty.
        store
            .set_value(true, 0, "name", Value::Str("David Smith Jr".into()))
            .unwrap();
        assert!(store.cells_invalidated() > 0);
        let (m2, s2) = store
            .extract(&pairs, &features, &ParConfig::serial())
            .unwrap();
        // Exactly the dirty record re-prepared: its (col, shape) cells for
        // the name column, nothing from rows 1..3 or the right table.
        let name_shapes = 6; // LowerStr, WordBag, WordSet, QgramSet(3) on name + none elsewhere
        assert!(
            s2.cache.records_prepared <= name_shapes,
            "re-prepared {} cells, expected at most the dirty record's shapes",
            s2.cache.records_prepared
        );
        assert!(s2.cache.hits > 0, "clean records must hit the cache");

        // Bit-identity with a cold extraction over the mutated tables.
        let mut a2 = a.clone();
        a2.set_value(0, "name", Value::Str("David Smith Jr".into()))
            .unwrap();
        let cold = extract_feature_matrix_scalar(&pairs, &a2, &b, &features).unwrap();
        for (cr, sr) in m2.rows.iter().zip(&cold.rows) {
            for (cv, sv) in cr.iter().zip(sr) {
                assert_eq!(cv.to_bits(), sv.to_bits(), "streaming extract diverged");
            }
        }
    }

    /// Appended records extend the caches without touching prepared cells,
    /// and extraction over pairs referencing them matches a cold run.
    #[test]
    fn streaming_store_grows_with_pushed_rows() {
        let (a, b) = tables();
        let features = vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
        ];
        let pairs = all_pairs(&a, &b);
        let mut store = StreamingPreparedPair::new(a.clone(), b.clone());
        store
            .extract(&pairs, &features, &ParConfig::serial())
            .unwrap();

        let rid = store
            .push_row(
                false,
                vec![
                    "b2".into(),
                    "dave smith jr".into(),
                    "madison wi".into(),
                    Value::Int(40),
                ],
            )
            .unwrap();
        assert_eq!(rid, b.nrows());
        assert_eq!(store.cells_invalidated(), 0, "appends dirty nothing");

        let mut pairs2 = pairs.clone();
        pairs2.extend((0..a.nrows() as u32).map(|ra| (ra, rid as u32)));
        let (m, s) = store
            .extract(&pairs2, &features, &ParConfig::workers(4))
            .unwrap();
        assert!(s.cache.hits > 0);

        let mut b2 = b.clone();
        b2.push_row(vec![
            "b2".into(),
            "dave smith jr".into(),
            "madison wi".into(),
            Value::Int(40),
        ])
        .unwrap();
        let cold = extract_feature_matrix_scalar(&pairs2, &a, &b2, &features).unwrap();
        for (cr, sr) in m.rows.iter().zip(&cold.rows) {
            for (cv, sv) in cr.iter().zip(sr) {
                assert_eq!(cv.to_bits(), sv.to_bits(), "grown extract diverged");
            }
        }
    }

    /// Few pairs against a long table walk the pairs (sorted row ids), many
    /// walk the table (bitmap sweep): the same referenced rows either way,
    /// hence the same cache counters, interner and cells.
    #[test]
    fn sparse_and_dense_preparation_agree() {
        let rows = |n: usize, tag: &str| {
            Table::from_rows(
                tag,
                &[("id", Dtype::Str), ("name", Dtype::Str)],
                (0..n)
                    .map(|i| {
                        let name = match i % 7 {
                            0 => Value::Null,
                            _ => format!("w{} w{} shared", i % 11, i % 5).into(),
                        };
                        vec![format!("{tag}{i}").into(), name]
                    })
                    .collect(),
            )
            .unwrap()
        };
        let (a, b) = (rows(300, "a"), rows(200, "b"));
        let features = vec![
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpec::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
        ];
        // Unsorted, with repeated rows on both sides.
        let few: Vec<(u32, u32)> = vec![(250, 3), (7, 199), (250, 40), (8, 3), (0, 0), (7, 3)];
        // The same pairs listed often enough to count as batch-sized.
        let many: Vec<(u32, u32)> = few.iter().cycle().take(few.len() * 20).copied().collect();
        assert!(
            few.len() * SPARSE_ROWS_PER_PAIR < b.nrows(),
            "`few` must take the sorted route"
        );
        assert!(
            many.len() * SPARSE_ROWS_PER_PAIR >= a.nrows(),
            "`many` must take the bitmap route"
        );
        for side in [0, 1] {
            let ids = |pairs: &[(u32, u32)]| -> Vec<u32> {
                pairs.iter().map(|p| [p.0, p.1][side]).collect()
            };
            let n = [a.nrows(), b.nrows()][side];
            assert_eq!(
                referenced_rows(ids(&few).into_iter(), n),
                referenced_rows(ids(&many).into_iter(), n),
            );
        }

        let cfg = ParConfig::serial();
        let (mut sparse, mut dense) = (PreparedPair::new(&a, &b), PreparedPair::new(&a, &b));
        let (ms, ss) = extract_with_prepared(&mut sparse, &few, &features, &cfg).unwrap();
        let (md, sd) = extract_with_prepared(&mut dense, &many, &features, &cfg).unwrap();
        let counted = |c: &CacheStats| (c.lookups, c.hits, c.records_prepared, c.tokenize_calls);
        assert_eq!(counted(&ss.cache), counted(&sd.cache));
        assert_eq!(
            ss.cache.lookups,
            2 * (4 + 4),
            "two slots over 4 + 4 distinct rows"
        );
        assert_eq!(sparse.interner_len(), dense.interner_len());
        for (rs, rd) in ms.rows.iter().zip(&md.rows) {
            for (vs, vd) in rs.iter().zip(rd) {
                assert_eq!(vs.to_bits(), vd.to_bits());
            }
        }
        // A second call hits every cell on both routes.
        let (_, ss2) = extract_with_prepared(&mut sparse, &few, &features, &cfg).unwrap();
        let (_, sd2) = extract_with_prepared(&mut dense, &many, &features, &cfg).unwrap();
        assert_eq!(counted(&ss2.cache), counted(&sd2.cache));
        assert_eq!(ss2.cache.hits, ss2.cache.lookups);
    }

    /// The sparse cell store: cells for the prepared rows only, rows past
    /// the index read as unprepared, and an invalidated cell's index is the
    /// next one filled — a stream of updates grows neither the store nor,
    /// once half of it is given up, an id column's buffer.
    #[test]
    fn sparse_cells_reuse_invalidated_slots() {
        let t = Table::from_rows(
            "t",
            &[("name", Dtype::Str), ("n", Dtype::Int)],
            (0..1_000)
                .map(|i| vec![format!("w{} x", i % 7).into(), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        let mut side = PreparedSide::default();
        let (mut interner, mut tokens) = (TokenInterner::new(), TokenChars::default());
        let mut stats = CacheStats::default();
        let num = side.slot(1, PrepSpec::Num, t.nrows());
        let set = side.slot(0, PrepSpec::WordSet, t.nrows());
        let mut prepare = |col: &mut PrepColumn, rows: &[u32]| {
            prepare_column(col, &t, rows, &mut interner, &mut tokens, &mut stats);
        };
        for slot in [num, set] {
            let col = &mut side.cols[slot];
            assert!(col.get(999).is_none());
            prepare(col, &[3, 999]);
            assert!(
                !col.invalidate(4) && !col.invalidate(5_000),
                "never prepared"
            );
            for _ in 0..50 {
                assert!(col.invalidate(999));
                assert!(col.get(999).is_none());
                prepare(col, &[999]);
            }
        }
        let col = &side.cols[num];
        assert!(matches!(col.get(999), Some(PrepValue::Num(x)) if x == 999.0));
        assert!(matches!(col.get(3), Some(PrepValue::Num(x)) if x == 3.0));
        assert!(matches!(&col.store, Store::Num(v) if v.len() == 2));
        let col = &side.cols[set];
        assert!(matches!(col.get(3), Some(PrepValue::Set(ids)) if ids.len() == 2));
        assert!(matches!(col.get(999), Some(PrepValue::Set(ids)) if ids.len() == 2));
        let Store::Ids(arena) = &col.store else {
            panic!("a set column keeps ids");
        };
        assert_eq!(arena.spans.len(), 2);
        assert!(arena.items.len() <= 2 * 4, "{} items", arena.items.len());
        side.ensure_rows(2_000);
        assert!(side.cols[num].get(1_999).is_none());
        assert_eq!(side.invalidate(3), 2);
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let (a, b) = tables();
        let mut prepared = PreparedPair::new(&a, &b);
        let bad = vec![Feature::new("nope", "name", FeatureKind::ExactMatch)];
        assert!(prepared.plan(&bad).is_err());
        let (aa, bb) = prepared.tables();
        assert_eq!(aa.nrows(), a.nrows());
        assert_eq!(bb.nrows(), b.nrows());
    }

    #[test]
    fn empty_pairs_prepare_nothing() {
        let (a, b) = tables();
        let mut prepared = PreparedPair::new(&a, &b);
        let features = vec![Feature::new(
            "name",
            "name",
            FeatureKind::Jaccard(TokSpec::Word),
        )];
        let (m, stats) =
            extract_with_prepared(&mut prepared, &[], &features, &ParConfig::serial()).unwrap();
        assert!(m.is_empty());
        assert_eq!(stats.cache.records_prepared, 0);
        assert_eq!(stats.cache.tokenize_calls, 0);
        assert_eq!(prepared.interner_len(), 0);
    }
}
