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
//! * ordered *bags* of decoded tokens for Monge–Elkan;
//! * **sorted, deduplicated interned `u32` token sets** (one shared
//!   [`TokenInterner`] across both tables) for the set measures, which
//!   then run as allocation-free merge intersections
//!   ([`magellan_textsim::intern`]);
//! * parsed floats for the numeric measures.
//!
//! ## Bit-identity with the scalar path
//!
//! Every prepared shape is produced by the *same* normalization and
//! tokenizer calls the scalar path makes per pair, and the id kernels are
//! arithmetic-identical to the string measures (equal strings ⇔ equal
//! ids, so `|A|`, `|B|`, `|A ∩ B|` — the only inputs of any set measure —
//! are unchanged). `fvtable` pins this with a bitwise equivalence test,
//! and the golden e2e + chaos suites pin it end to end.

use std::borrow::Cow;
use std::collections::HashMap;

use magellan_par::{CacheStats, ParConfig, ParStats};
use magellan_table::{Table, Value, ValueRef};
use magellan_textsim::intern::{self, TokenInterner};
use magellan_textsim::tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};
use magellan_textsim::{numeric, seqsim, setsim};

use crate::feature::{Feature, FeatureKind, TokSpecF};
use crate::fvtable::FeatureMatrix;

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
                TokSpecF::Word => PrepSpec::WordSet,
                TokSpecF::Qgram(q) => PrepSpec::QgramSet(q),
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

/// One prepared cell: an attribute value in one shape. Boxed slices, not
/// `Vec`s: a cell is written once, and three words instead of four keep a
/// cell plus its row index below the four words of the dense
/// `Option<PrepValue>` layout this replaced, on tables where every row is
/// referenced.
#[derive(Debug, Clone)]
enum PrepValue {
    /// The value was null (every measure yields `NaN`).
    Null,
    /// Trimmed lowercased string, decoded.
    Str(Box<[char]>),
    /// Ordered bag of decoded tokens.
    Bag(Box<[Box<[char]>]>),
    /// Sorted deduplicated interned token set.
    Set(Box<[u32]>),
    /// Parsed float.
    Num(f64),
    /// Non-null but not parseable as a number (numeric measures → `NaN`).
    NotNum,
}

/// One `(column, shape)` combination's cells, lazily filled per record.
///
/// Sparse: blocking leaves a few thousand of a long table's rows in the
/// candidate set, so the per-row part is a zero-initialised `u32` index
/// (untouched pages of it are never faulted in) over a compact vector of
/// the cells actually prepared.
#[derive(Debug)]
struct PrepColumn {
    col: usize,
    spec: PrepSpec,
    /// Per row: `0` = not prepared, else `1 +` its index into `values`.
    slot_of: Vec<u32>,
    /// The prepared cells, each prepared exactly once.
    values: Vec<PrepValue>,
    /// Indexes of `values` given up by [`PrepColumn::invalidate`], reused
    /// first so a long stream of updates does not grow the vector.
    free: Vec<u32>,
}

impl PrepColumn {
    fn get(&self, row: usize) -> Option<&PrepValue> {
        match self.slot_of[row] {
            0 => None,
            slot => Some(&self.values[slot as usize - 1]),
        }
    }

    fn put(&mut self, row: usize, value: PrepValue) {
        debug_assert_eq!(self.slot_of[row], 0, "a cell is prepared once");
        let at = match self.free.pop() {
            Some(at) => {
                self.values[at as usize] = value;
                at
            }
            None => {
                self.values.push(value);
                self.values.len() as u32 - 1
            }
        };
        self.slot_of[row] = at + 1;
    }

    /// Forget the row's cell (rows past the index were never prepared).
    /// True if there was one.
    fn invalidate(&mut self, row: usize) -> bool {
        let Some(slot) = self.slot_of.get_mut(row).filter(|s| **s != 0) else {
            return false;
        };
        let at = std::mem::take(slot) - 1;
        self.values[at as usize] = PrepValue::Null;
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
            self.cols.push(PrepColumn {
                col,
                spec,
                slot_of: vec![0; nrows],
                values: Vec::new(),
                free: Vec::new(),
            });
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

/// Resolve a feature list against two schemas, registering slots — the
/// shared core of [`PreparedPair::plan`] and [`StreamingPreparedPair`].
fn plan_features(
    a: &Table,
    b: &Table,
    left: &mut PreparedSide,
    right: &mut PreparedSide,
    features: &[Feature],
) -> magellan_table::Result<FeaturePlan> {
    let mut entries = Vec::with_capacity(features.len());
    let mut n_token_features = 0;
    for f in features {
        let li = a.schema().try_index_of(&f.l_attr)?;
        let ri = b.schema().try_index_of(&f.r_attr)?;
        let spec = PrepSpec::of(f.kind);
        if spec.tokenizes() {
            n_token_features += 1;
        }
        entries.push(PlanEntry {
            kind: f.kind,
            l_slot: left.slot(li, spec, a.nrows()),
            r_slot: right.slot(ri, spec, b.nrows()),
        });
    }
    Ok(FeaturePlan {
        entries,
        names: features.iter().map(|f| f.name.clone()).collect(),
        n_token_features,
    })
}

/// Prepare every record the pairs reference for every slot the plan
/// reads — shared by the borrowing and owning caches.
#[allow(clippy::too_many_arguments)]
fn prepare_pairs_for(
    a: &Table,
    b: &Table,
    interner: &mut TokenInterner,
    left: &mut PreparedSide,
    right: &mut PreparedSide,
    stats: &mut CacheStats,
    plan: &FeaturePlan,
    pairs: &[(u32, u32)],
) {
    left.ensure_rows(a.nrows());
    right.ensure_rows(b.nrows());
    let l_rows = referenced_rows(pairs.iter().map(|p| p.0), a.nrows());
    let r_rows = referenced_rows(pairs.iter().map(|p| p.1), b.nrows());
    // Distinct slots per side (several features can share one slot).
    let mut l_slots: Vec<usize> = plan.entries.iter().map(|e| e.l_slot).collect();
    l_slots.sort_unstable();
    l_slots.dedup();
    let mut r_slots: Vec<usize> = plan.entries.iter().map(|e| e.r_slot).collect();
    r_slots.sort_unstable();
    r_slots.dedup();

    for &s in &l_slots {
        prepare_column(&mut left.cols[s], a, &l_rows, interner, stats);
    }
    for &s in &r_slots {
        prepare_column(&mut right.cols[s], b, &r_rows, interner, stats);
    }
    stats.interner_tokens = interner.len();
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

/// One preparation call's [`CacheStats`]: the counters it moved, the
/// tokenizer calls it saved versus the scalar path over `n_pairs` pairs,
/// and the interner's size after it.
fn cache_delta(
    before: &CacheStats,
    after: &CacheStats,
    plan: &FeaturePlan,
    n_pairs: usize,
) -> CacheStats {
    let spent = after.tokenize_calls - before.tokenize_calls;
    CacheStats {
        records_prepared: after.records_prepared - before.records_prepared,
        tokenize_calls: spent,
        tokenize_calls_saved: plan.scalar_tokenize_calls(n_pairs).saturating_sub(spent),
        lookups: after.lookups - before.lookups,
        hits: after.hits - before.hits,
        interner_tokens: after.interner_tokens,
    }
}

/// Evaluate planned feature `j` of one pair from prepared sides. `rows`
/// is scratch for [`seqsim::levenshtein_chars`].
fn compute_feature_from(
    left: &PreparedSide,
    right: &PreparedSide,
    plan: &FeaturePlan,
    j: usize,
    ra: usize,
    rb: usize,
    rows: &mut Vec<usize>,
) -> f64 {
    let e = &plan.entries[j];
    let va = left.cols[e.l_slot].get(ra).expect("left record prepared");
    let vb = right.cols[e.r_slot].get(rb).expect("right record prepared");
    compute_prepared(e.kind, va, vb, rows)
}

/// Evaluate one planned feature row from prepared sides.
fn compute_row_from(
    left: &PreparedSide,
    right: &PreparedSide,
    plan: &FeaturePlan,
    ra: usize,
    rb: usize,
) -> Vec<f64> {
    let mut rows = Vec::new();
    (0..plan.entries.len())
        .map(|j| compute_feature_from(left, right, plan, j, ra, rb, &mut rows))
        .collect()
}

/// A feature list resolved against a [`PreparedPair`]: per feature, the
/// computation kind plus the prepared-slot each side reads from.
#[derive(Debug, Clone)]
pub struct FeaturePlan {
    entries: Vec<PlanEntry>,
    names: Vec<String>,
    /// Features whose scalar evaluation tokenizes both sides.
    n_token_features: usize,
}

#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    kind: FeatureKind,
    l_slot: usize,
    r_slot: usize,
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

    /// Tokenizer invocations the scalar path would spend on `n_pairs`
    /// pairs of this plan (two sides per token feature per pair).
    pub fn scalar_tokenize_calls(&self, n_pairs: usize) -> usize {
        2 * n_pairs * self.n_token_features
    }
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
    interner: TokenInterner,
    left: PreparedSide,
    right: PreparedSide,
    stats: CacheStats,
}

impl<'t> PreparedPair<'t> {
    /// Empty cache over a table pair — nothing is prepared until a plan
    /// asks for it.
    pub fn new(a: &'t Table, b: &'t Table) -> Self {
        PreparedPair {
            a,
            b,
            interner: TokenInterner::new(),
            left: PreparedSide::default(),
            right: PreparedSide::default(),
            stats: CacheStats::default(),
        }
    }

    /// Resolve a feature list into a plan, registering any new
    /// `(attribute, shape)` combinations. Errors on unknown attributes,
    /// exactly like the unprepared extractor.
    pub fn plan(&mut self, features: &[Feature]) -> magellan_table::Result<FeaturePlan> {
        plan_features(self.a, self.b, &mut self.left, &mut self.right, features)
    }

    /// Prepare every record the given pairs reference, for every slot the
    /// plan reads. Cells already prepared (by this or an earlier plan)
    /// are counted as cache hits and not recomputed.
    pub fn prepare_for_pairs(&mut self, plan: &FeaturePlan, pairs: &[(u32, u32)]) {
        let PreparedPair {
            a,
            b,
            interner,
            left,
            right,
            stats,
        } = self;
        prepare_pairs_for(a, b, interner, left, right, stats, plan, pairs);
    }

    /// [`PreparedPair::prepare_for_pairs`], returning what this call did
    /// as a [`CacheStats`] delta — records prepared, tokenize calls spent
    /// and saved versus the scalar path, lookups/hits (hits = reuse of
    /// earlier preparation), the shared interner's vocabulary size — and
    /// folding the savings into the cumulative
    /// [`PreparedPair::cache_stats`].
    pub fn prepare_counted(&mut self, plan: &FeaturePlan, pairs: &[(u32, u32)]) -> CacheStats {
        let before = self.stats;
        self.prepare_for_pairs(plan, pairs);
        let delta = cache_delta(&before, &self.stats, plan, pairs.len());
        self.stats.tokenize_calls_saved += delta.tokenize_calls_saved;
        delta
    }

    /// Evaluate a planned feature row for one prepared pair.
    ///
    /// # Panics
    /// If the pair's records were not prepared for this plan (call
    /// [`PreparedPair::prepare_for_pairs`] first).
    pub fn compute_row(&self, plan: &FeaturePlan, ra: usize, rb: usize) -> Vec<f64> {
        compute_row_from(&self.left, &self.right, plan, ra, rb)
    }

    /// Evaluate planned feature `j` alone for one prepared pair — the
    /// value [`PreparedPair::compute_row`] puts at position `j`, bit for
    /// bit. `rows` is scratch for the edit-distance fallback on strings
    /// beyond 64 characters; pass the same buffer to every call of a batch.
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
        compute_feature_from(&self.left, &self.right, plan, j, ra, rb, rows)
    }

    /// Cumulative cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Distinct tokens interned so far.
    pub fn interner_len(&self) -> usize {
        self.interner.len()
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
/// sets stay valid as new records grow the vocabulary (same argument as
/// the incremental join's prefix index, whose keys mirror interner ids).
#[derive(Debug)]
pub struct StreamingPreparedPair {
    a: Table,
    b: Table,
    interner: TokenInterner,
    left: PreparedSide,
    right: PreparedSide,
    stats: CacheStats,
    cells_invalidated: u64,
}

impl StreamingPreparedPair {
    /// Take ownership of the two tables with nothing prepared yet.
    pub fn new(a: Table, b: Table) -> Self {
        StreamingPreparedPair {
            a,
            b,
            interner: TokenInterner::new(),
            left: PreparedSide::default(),
            right: PreparedSide::default(),
            stats: CacheStats::default(),
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
        let side = if left { &mut self.left } else { &mut self.right };
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
        self.stats
    }

    /// Distinct tokens interned so far.
    pub fn interner_len(&self) -> usize {
        self.interner.len()
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
        let plan = plan_features(
            &self.a,
            &self.b,
            &mut self.left,
            &mut self.right,
            features,
        )?;
        let before = self.stats;
        {
            let StreamingPreparedPair {
                a,
                b,
                interner,
                left,
                right,
                stats,
                ..
            } = self;
            prepare_pairs_for(a, b, interner, left, right, stats, &plan, pairs);
        }
        let cache = cache_delta(&before, &self.stats, &plan, pairs.len());
        self.stats.tokenize_calls_saved += cache.tokenize_calls_saved;

        let (left, right) = (&self.left, &self.right);
        let (rows, mut stats) = magellan_par::map_indexed(pairs.len(), cfg, |p| {
            let (ra, rb) = pairs[p];
            compute_row_from(left, right, &plan, ra as usize, rb as usize)
        });
        cache.publish();
        stats.cache = cache;
        Ok((
            FeatureMatrix {
                names: plan.names.clone(),
                rows,
                pairs: pairs.to_vec(),
            },
            stats,
        ))
    }
}

/// `v.display_string().trim().to_lowercase()` — the normalization the
/// scalar path applies before every string measure — borrowing the cell
/// when it is a string that is already in that form.
///
/// Only an ASCII value is recognised as such. Unicode lowercasing can
/// *produce* ASCII (U+212A KELVIN SIGN → `k`, U+0130 `İ` → `i` + U+0307),
/// so any other value goes through `str::to_lowercase` before a tokenizer
/// sees it, exactly as before.
fn lower_trimmed(v: ValueRef<'_>) -> Cow<'_, str> {
    let ValueRef::Str(s) = v else {
        return Cow::Owned(v.display_string().trim().to_lowercase());
    };
    let s = s.trim();
    if s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(s.to_lowercase())
    }
}

/// Fill one combination's cells for every referenced, still-unprepared
/// record (`rows` ascending: interner ids are assigned in visit order).
fn prepare_column(
    column: &mut PrepColumn,
    table: &Table,
    rows: &[u32],
    interner: &mut TokenInterner,
    stats: &mut CacheStats,
) {
    for &r in rows {
        let r = r as usize;
        stats.lookups += 1;
        if column.get(r).is_some() {
            stats.hits += 1;
            continue;
        }
        let v = table.value(r, column.col);
        let cell = if v.is_null() {
            PrepValue::Null
        } else {
            match column.spec {
                PrepSpec::Num => v
                    .as_float()
                    .map(PrepValue::Num)
                    .unwrap_or(PrepValue::NotNum),
                PrepSpec::LowerStr => PrepValue::Str(lower_trimmed(v).chars().collect()),
                PrepSpec::WordBag => {
                    stats.tokenize_calls += 1;
                    let mut bag: Vec<Box<[char]>> = Vec::new();
                    AlphanumericTokenizer::new()
                        .for_each_token(&lower_trimmed(v), &mut |t| bag.push(t.chars().collect()));
                    PrepValue::Bag(bag.into())
                }
                PrepSpec::WordSet | PrepSpec::QgramSet(_) => {
                    stats.tokenize_calls += 1;
                    let text = lower_trimmed(v);
                    let set = match column.spec {
                        PrepSpec::QgramSet(q) => {
                            interner.intern_tokens(&QgramTokenizer::as_set(q), &text)
                        }
                        _ => interner.intern_tokens(&AlphanumericTokenizer::as_set(), &text),
                    };
                    PrepValue::Set(set.into())
                }
            }
        };
        column.put(r, cell);
        stats.records_prepared += 1;
    }
}

/// The prepared-shape evaluation of one feature kind — mirrors
/// [`crate::Feature::compute`] case for case so results are bit-identical.
fn compute_prepared(
    kind: FeatureKind,
    va: &PrepValue,
    vb: &PrepValue,
    rows: &mut Vec<usize>,
) -> f64 {
    if matches!(va, PrepValue::Null) || matches!(vb, PrepValue::Null) {
        return f64::NAN;
    }
    match kind {
        FeatureKind::ExactNum | FeatureKind::AbsDiff | FeatureKind::RelDiff => {
            let (PrepValue::Num(x), PrepValue::Num(y)) = (va, vb) else {
                return f64::NAN;
            };
            match kind {
                FeatureKind::ExactNum => numeric::exact_match_num(*x, *y),
                FeatureKind::AbsDiff => numeric::abs_diff_sim(*x, *y),
                FeatureKind::RelDiff => numeric::rel_diff_sim(*x, *y),
                _ => unreachable!(),
            }
        }
        FeatureKind::ExactMatch
        | FeatureKind::LevSim
        | FeatureKind::Jaro
        | FeatureKind::JaroWinkler => {
            let (PrepValue::Str(sa), PrepValue::Str(sb)) = (va, vb) else {
                debug_assert!(false, "string feature over non-string prep");
                return f64::NAN;
            };
            match kind {
                FeatureKind::ExactMatch => f64::from(sa == sb),
                FeatureKind::LevSim => seqsim::levenshtein_sim_chars(sa, sb, rows),
                FeatureKind::Jaro => seqsim::jaro_chars(sa, sb),
                FeatureKind::JaroWinkler => seqsim::jaro_winkler_chars(sa, sb),
                _ => unreachable!(),
            }
        }
        FeatureKind::MongeElkanJw => {
            let (PrepValue::Bag(ba), PrepValue::Bag(bb)) = (va, vb) else {
                debug_assert!(false, "monge-elkan over non-bag prep");
                return f64::NAN;
            };
            setsim::monge_elkan_jw_chars(ba, bb)
        }
        FeatureKind::Jaccard(_)
        | FeatureKind::Cosine(_)
        | FeatureKind::Dice(_)
        | FeatureKind::OverlapCoeff(_) => {
            let (PrepValue::Set(ia), PrepValue::Set(ib)) = (va, vb) else {
                debug_assert!(false, "set feature over non-set prep");
                return f64::NAN;
            };
            // The scalar path returns NaN when either tokenization is
            // empty — preserved exactly.
            if ia.is_empty() || ib.is_empty() {
                return f64::NAN;
            }
            match kind {
                FeatureKind::Jaccard(_) => intern::jaccard_ids(ia, ib),
                FeatureKind::Cosine(_) => intern::cosine_ids(ia, ib),
                FeatureKind::Dice(_) => intern::dice_ids(ia, ib),
                FeatureKind::OverlapCoeff(_) => intern::overlap_coefficient_ids(ia, ib),
                _ => unreachable!(),
            }
        }
    }
}

/// Extract a feature matrix through a shared [`PreparedPair`] cache: plan
/// the features, prepare the referenced records once each, then evaluate
/// pair rows on the `magellan-par` pool (bit-identical to
/// [`crate::extract_feature_matrix`] for any worker count).
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
    let plan = prepared.plan(features)?;
    let cache = prepared.prepare_counted(&plan, pairs);

    let shared: &PreparedPair<'_> = prepared;
    let (rows, mut stats) = magellan_par::map_indexed(pairs.len(), cfg, |p| {
        let (ra, rb) = pairs[p];
        shared.compute_row(&plan, ra as usize, rb as usize)
    });
    // Publish this call's cache delta as `magellan_features_cache_*`
    // registry metrics (no-op when observability is disabled); the struct
    // keeps riding along in `ParStats` for reports.
    cache.publish();
    stats.cache = cache;
    Ok((
        FeatureMatrix {
            names: plan.names.clone(),
            rows,
            pairs: pairs.to_vec(),
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureKind, TokSpecF};
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
                vec!["a0".into(), "Dave  Smith".into(), "Madison".into(), Value::Int(40)],
                vec!["a1".into(), Value::Null, "Chicago!!".into(), Value::Int(31)],
                vec!["a2".into(), "O'Brien, J.R.".into(), Value::Null, Value::Null],
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
                vec!["b0".into(), "dave smith".into(), "madison".into(), Value::Int(41)],
                vec!["b1".into(), "J R O Brien".into(), "chicago".into(), Value::Null],
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
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::Cosine(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::Dice(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::OverlapCoeff(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Qgram(3))),
            Feature::new("city", "city", FeatureKind::Cosine(TokSpecF::Qgram(2))),
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
            extract_with_prepared(&mut prepared, &pairs, &features, &ParConfig::serial())
                .unwrap();
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
                &[("id", Dtype::Str), ("name", Dtype::Str), ("city", Dtype::Str), ("age", Dtype::Int)],
                names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        vec![format!("{tag}{i}").into(), (*n).into(), (*n).into(), Value::Int(i as i64)]
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
            let col = &prepared.left.cols[prepared.left.index[&(1, PrepSpec::WordSet)]];
            match col.get(r) {
                Some(PrepValue::Set(ids)) => ids
                    .iter()
                    .map(|&id| prepared.interner.resolve(id).to_owned())
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
        let (reference, _) = extract_with_prepared(
            &mut reference_prep,
            &pairs,
            &features,
            &ParConfig::serial(),
        )
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
        let stage1 = vec![Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word))];
        let (_, s1) =
            extract_with_prepared(&mut prepared, &pairs, &stage1, &ParConfig::serial()).unwrap();
        assert_eq!(s1.cache.hits, 0);
        assert!(s1.cache.tokenize_calls > 0);

        // Stage 2 shares the word-set combination and adds a new one.
        let stage2 = vec![
            Feature::new("name", "name", FeatureKind::Cosine(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::Dice(TokSpecF::Word)),
            Feature::new("city", "city", FeatureKind::Jaccard(TokSpecF::Word)),
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
        let (_, s1) = store.extract(&pairs, &features, &ParConfig::serial()).unwrap();
        assert!(s1.cache.records_prepared > 0);

        // Rewrite one left record's name; only its cells go dirty.
        store
            .set_value(true, 0, "name", Value::Str("David Smith Jr".into()))
            .unwrap();
        assert!(store.cells_invalidated() > 0);
        let (m2, s2) = store.extract(&pairs, &features, &ParConfig::serial()).unwrap();
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
        a2.set_value(0, "name", Value::Str("David Smith Jr".into())).unwrap();
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
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
        ];
        let pairs = all_pairs(&a, &b);
        let mut store = StreamingPreparedPair::new(a.clone(), b.clone());
        store.extract(&pairs, &features, &ParConfig::serial()).unwrap();

        let rid = store
            .push_row(
                false,
                vec!["b2".into(), "dave smith jr".into(), "madison wi".into(), Value::Int(40)],
            )
            .unwrap();
        assert_eq!(rid, b.nrows());
        assert_eq!(store.cells_invalidated(), 0, "appends dirty nothing");

        let mut pairs2 = pairs.clone();
        pairs2.extend((0..a.nrows() as u32).map(|ra| (ra, rid as u32)));
        let (m, s) = store.extract(&pairs2, &features, &ParConfig::workers(4)).unwrap();
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
            Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("name", "name", FeatureKind::JaroWinkler),
        ];
        // Unsorted, with repeated rows on both sides.
        let few: Vec<(u32, u32)> = vec![(250, 3), (7, 199), (250, 40), (8, 3), (0, 0), (7, 3)];
        // The same pairs listed often enough to count as batch-sized.
        let many: Vec<(u32, u32)> = few.iter().cycle().take(few.len() * 20).copied().collect();
        assert!(few.len() * SPARSE_ROWS_PER_PAIR < b.nrows(), "`few` must take the sorted route");
        assert!(many.len() * SPARSE_ROWS_PER_PAIR >= a.nrows(), "`many` must take the bitmap route");
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
        assert_eq!(ss.cache.lookups, 2 * (4 + 4), "two slots over 4 + 4 distinct rows");
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

    /// The sparse cell store: one compact value per prepared row, rows past
    /// the index read as unprepared, and an invalidated slot is the next
    /// one filled — a stream of updates does not grow the store.
    #[test]
    fn sparse_cells_reuse_invalidated_slots() {
        // A cell and its row index fit in the old dense layout's cell.
        assert!(std::mem::size_of::<PrepValue>() + 4 <= 4 * std::mem::size_of::<usize>());
        let mut side = PreparedSide::default();
        let slot = side.slot(0, PrepSpec::Num, 1_000);
        let col = &mut side.cols[slot];
        assert!(col.get(999).is_none() && col.values.is_empty());
        col.put(999, PrepValue::Num(1.0));
        col.put(3, PrepValue::Num(2.0));
        assert!(matches!(col.get(999), Some(PrepValue::Num(x)) if *x == 1.0));
        assert!(matches!(col.get(3), Some(PrepValue::Num(x)) if *x == 2.0));
        assert!(!col.invalidate(4) && !col.invalidate(5_000), "never prepared");
        for round in 0..50 {
            assert!(col.invalidate(999));
            assert!(col.get(999).is_none());
            col.put(999, PrepValue::Num(f64::from(round)));
        }
        assert_eq!(col.values.len(), 2);
        assert!(matches!(col.get(3), Some(PrepValue::Num(x)) if *x == 2.0));
        side.ensure_rows(2_000);
        assert!(side.cols[slot].get(1_999).is_none());
        assert_eq!(side.invalidate(3), 1);
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
        let features = vec![Feature::new("name", "name", FeatureKind::Jaccard(TokSpecF::Word))];
        let (m, stats) =
            extract_with_prepared(&mut prepared, &[], &features, &ParConfig::serial()).unwrap();
        assert!(m.is_empty());
        assert_eq!(stats.cache.records_prepared, 0);
        assert_eq!(stats.cache.tokenize_calls, 0);
        assert_eq!(prepared.interner_len(), 0);
    }
}
