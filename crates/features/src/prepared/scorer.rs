//! Run-aware scoring over prepared records: what production computes a
//! feature value with (see the parent module's docs for the split between
//! this and the pairwise reference).

use std::ops::AddAssign;

use magellan_textsim::intern;
use magellan_textsim::seqsim::{self, LevPattern};
use magellan_textsim::setsim;

use super::{
    bag_cells, compute_stateless, set_cells, str_cells, Cells, FeaturePlan, PlanEntry, PrepValue,
    PreparedPair,
};
use crate::feature::FeatureKind;

/// What a chunk's [`Scorer`] did, for the count guards: how often each
/// piece of per-run state was built and how much pairwise work was left.
/// Opaque — sum the chunks' counts after the region and
/// [`ScorerCounts::publish`] them; the obs registry is where they are read
/// (`magellan_features_scorer_*_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScorerCounts {
    patterns_built: u64,
    sets_stamped: u64,
    intersections: u64,
    token_pairs: u64,
    jw_evals: u64,
}

impl AddAssign for ScorerCounts {
    fn add_assign(&mut self, o: ScorerCounts) {
        self.patterns_built += o.patterns_built;
        self.sets_stamped += o.sets_stamped;
        self.intersections += o.intersections;
        self.token_pairs += o.token_pairs;
        self.jw_evals += o.jw_evals;
    }
}

impl ScorerCounts {
    /// Add the counts to the ambient recorder's registry. All of them are
    /// functions of a chunk's pair range alone, so under a pinned chunk
    /// size they are the same for any worker count. Call it outside the
    /// parallel region: a chunk that is retried must not count twice.
    pub fn publish(&self) {
        let Some(obs) = magellan_par::obs::current() else {
            return;
        };
        for (name, n) in [
            (
                "magellan_features_scorer_patterns_built_total",
                self.patterns_built,
            ),
            (
                "magellan_features_scorer_sets_stamped_total",
                self.sets_stamped,
            ),
            (
                "magellan_features_scorer_intersections_total",
                self.intersections,
            ),
            (
                "magellan_features_scorer_token_pairs_total",
                self.token_pairs,
            ),
            ("magellan_features_scorer_jw_evals_total", self.jw_evals),
        ] {
            if n > 0 {
                obs.counter_add(name, n);
            }
        }
    }
}

/// One left set slot's ids, stamped into a table over interner ids: a
/// right id is in the left set iff its tag is the current epoch, so
/// `|A ∩ B|` is a count over `B` with no merge walk and nothing to clear
/// between left records.
#[derive(Debug, Default)]
struct Stamps {
    /// Per interner id.
    tags: Vec<u32>,
    /// The tag of the ids stamped last; 0 = nothing stamped yet.
    epoch: u32,
    /// The scorer run those ids belong to; 0 = none.
    run: u64,
}

impl Stamps {
    fn stamp(&mut self, ids: &[u32], run: u64) {
        if self.epoch == u32::MAX {
            self.tags.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for &id in ids {
            self.tags[id as usize] = self.epoch;
        }
        self.run = run;
    }

    fn count(&self, ids: &[u32]) -> usize {
        ids.iter()
            .filter(|&&id| self.tags[id as usize] == self.epoch)
            .count()
    }
}

/// One left `LevSim` slot's string as a prepared pattern, when it can be.
#[derive(Debug, Default)]
struct RunPattern {
    pattern: LevPattern,
    /// False: the string is empty, longer than a word or not ASCII, and
    /// the pairwise kernel answers.
    usable: bool,
    /// The scorer run the string belongs to; 0 = none.
    run: u64,
}

/// A [`Scorer`]'s buffers, kept between scorers in [`Cells::idle`].
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// Per feature: its value for the current pair, if `known`.
    values: Vec<f64>,
    /// Per set-slot pair: `|A ∩ B|` for the current pair, if `known`.
    inters: Vec<usize>,
    /// One bit per feature, then one per set-slot pair; cleared per pair.
    known: Vec<u64>,
    sets: Vec<Stamps>,
    patterns: Vec<RunPattern>,
    /// `(left id << 32 | right id, jaro_winkler)`, if the plan has a
    /// Monge–Elkan feature. Key 0 is free to mean "empty": equal ids never
    /// get here.
    jw_memo: Vec<(u64, f64)>,
    lev_rows: Vec<usize>,
}

impl Scratch {
    /// Shape the buffers for `plan` over `vocab` interner ids and forget
    /// what the previous scorer knew: its runs are numbered from 1 like
    /// the next one's, and its memo decided what it counted. Stamp tags
    /// stay — they are older than any epoch to come.
    fn reset(&mut self, plan: &FeaturePlan, vocab: usize) {
        self.values.resize(plan.len(), 0.0);
        self.inters.resize(plan.n_set_pairs, 0);
        self.known
            .resize((plan.len() + plan.n_set_pairs).div_ceil(64), 0);
        self.sets.resize_with(plan.n_set_slots, Stamps::default);
        for set in &mut self.sets {
            set.run = 0;
            if set.tags.len() < vocab {
                set.tags.resize(vocab, 0);
            }
        }
        self.patterns
            .resize_with(plan.n_lev_slots, RunPattern::default);
        for p in &mut self.patterns {
            p.run = 0;
        }
        self.jw_memo.clear();
        self.jw_memo
            .resize(usize::from(plan.monge_elkan) << JW_MEMO_BITS, (0, 0.0));
    }
}

/// Entries of the Jaro–Winkler memo, as a power of two. The memo is
/// direct-mapped, so this trades evaluations of colliding token pairs
/// against cache footprint and the zeroing a new scorer pays. Of the
/// 1.99 M token pairs of a `match_heavy` pass, 508 k / 385 k / 264 k / 171 k
/// / 142 k were evaluated at 1 k / 4 k / 16 k / 64 k / 128 k entries, and a
/// Monge–Elkan call read 373 / 363 / 325 / 310 / 324 cycles (EXPERIMENTS.md
/// §A14): flat from 16 k up, which are 256 KiB — an eighth of a core's L2.
const JW_MEMO_BITS: u32 = 14;

/// Scores pairs against prepared records, keeping the left record's side
/// of the work while consecutive pairs share it.
///
/// One scorer serves one chunk of a pair list: [`Scorer::begin_pair`] each
/// pair, then ask for the features it needs ([`Scorer::feature`], each
/// computed at most once per pair) or for all of them ([`Scorer::row`]).
/// For the left row it saw last it keeps, built on a slot's first demand:
///
/// * per set slot, the id set stamped into an epoch-tagged table
///   ([`Stamps`]), and per pair **one** intersection count per
///   `(left slot, right slot)` that Jaccard, cosine, Dice and the overlap
///   coefficient all read;
/// * per `LevSim` slot, the string as a Myers/Hyyrö pattern
///   ([`LevPattern`]);
///
/// and, for its whole life, a direct-mapped memo of Jaro–Winkler over
/// ordered token-id pairs for Monge–Elkan. Every value equals
/// [`PreparedPair::compute_feature`]'s bit for bit, whatever the order of
/// the pairs; a list sorted by left row is merely the cheap case.
#[derive(Debug)]
pub struct Scorer<'p> {
    cells: &'p Cells,
    plan: &'p FeaturePlan,
    ra: usize,
    rb: usize,
    /// Bumped whenever the left row changes; 0 = no pair begun.
    run: u64,
    buf: Scratch,
    computed: u64,
    counts: ScorerCounts,
}

impl Drop for Scorer<'_> {
    fn drop(&mut self) {
        self.cells.idle().push(std::mem::take(&mut self.buf));
    }
}

impl<'p> Scorer<'p> {
    /// A scorer over the records `prepared` holds, for `plan` (which must
    /// come from `prepared`, with the pairs' records prepared for it).
    pub fn new(prepared: &'p PreparedPair<'_>, plan: &'p FeaturePlan) -> Self {
        Scorer::over(&prepared.cells, plan)
    }

    pub(super) fn over(cells: &'p Cells, plan: &'p FeaturePlan) -> Self {
        let idle = cells.idle().pop();
        let mut buf = idle.unwrap_or_default();
        buf.reset(plan, cells.interner.len());
        Scorer {
            cells,
            plan,
            ra: 0,
            rb: 0,
            run: 0,
            buf,
            computed: 0,
            counts: ScorerCounts::default(),
        }
    }

    /// Make `(ra, rb)` the current pair: nothing of it is known yet, and
    /// what is kept of the left record survives iff `ra` is unchanged.
    pub fn begin_pair(&mut self, ra: usize, rb: usize) {
        if ra != self.ra || self.run == 0 {
            self.run += 1;
        }
        (self.ra, self.rb) = (ra, rb);
        self.buf.known.fill(0);
    }

    /// Planned feature `j` of the current pair, computed on first demand.
    ///
    /// # Panics
    /// If no pair was begun, its records were not prepared for the plan,
    /// or `j` is not a feature of the plan.
    pub fn feature(&mut self, j: usize) -> f64 {
        assert!(self.run > 0, "begin_pair before feature");
        if !self.mark_known(j) {
            self.computed += 1;
            self.buf.values[j] = self.compute(j);
        }
        self.buf.values[j]
    }

    /// The whole feature row of `(ra, rb)`.
    pub fn row(&mut self, ra: usize, rb: usize) -> Vec<f64> {
        self.begin_pair(ra, rb);
        (0..self.plan.len()).map(|j| self.feature(j)).collect()
    }

    /// The number of planned features: the width of a row.
    pub fn width(&self) -> usize {
        self.plan.len()
    }

    /// Features computed so far — demands that were not repeats.
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// What this scorer did so far.
    pub fn counts(&self) -> ScorerCounts {
        self.counts
    }

    /// Set bit `k` of the per-pair mask; was it set already?
    fn mark_known(&mut self, k: usize) -> bool {
        let (word, bit) = (&mut self.buf.known[k / 64], 1u64 << (k % 64));
        let was = *word & bit != 0;
        *word |= bit;
        was
    }

    fn compute(&mut self, j: usize) -> f64 {
        let (cells, e) = (self.cells, self.plan.entries[j]);
        let va = cells.left.cell(e.l_slot, self.ra, "left");
        let vb = cells.right.cell(e.r_slot, self.rb, "right");
        if matches!(va, PrepValue::Null) || matches!(vb, PrepValue::Null) {
            return f64::NAN;
        }
        if let Some(v) = compute_stateless(e.kind, va, vb) {
            return v;
        }
        match e.kind {
            FeatureKind::LevSim => {
                let Some((sa, sb)) = str_cells(va, vb) else {
                    return f64::NAN;
                };
                self.lev_sim(e.l_state, sa, sb)
            }
            FeatureKind::MongeElkanJw => {
                let Some((ba, bb)) = bag_cells(va, vb) else {
                    return f64::NAN;
                };
                self.monge_elkan(ba, bb)
            }
            _ => {
                let Some((ia, ib)) = set_cells(va, vb) else {
                    return f64::NAN;
                };
                let inter = self.intersection(&e, ia, ib);
                match e.kind {
                    FeatureKind::Jaccard(_) => intern::jaccard_counts(ia.len(), ib.len(), inter),
                    FeatureKind::Cosine(_) => intern::cosine_counts(ia.len(), ib.len(), inter),
                    FeatureKind::Dice(_) => intern::dice_counts(ia.len(), ib.len(), inter),
                    _ => intern::overlap_coefficient_counts(ia.len(), ib.len(), inter),
                }
            }
        }
    }

    /// `|ia ∩ ib|`, counted once per pair and set-slot pair.
    fn intersection(&mut self, e: &PlanEntry, ia: &[u32], ib: &[u32]) -> usize {
        if !self.mark_known(self.plan.len() + e.inter) {
            let set = &mut self.buf.sets[e.l_state];
            if set.run != self.run {
                set.stamp(ia, self.run);
                self.counts.sets_stamped += 1;
            }
            self.buf.inters[e.inter] = set.count(ib);
            self.counts.intersections += 1;
        }
        self.buf.inters[e.inter]
    }

    /// [`seqsim::levenshtein_sim_chars`] with the left string as the
    /// pattern of the run.
    fn lev_sim(&mut self, state: usize, sa: &[char], sb: &[char]) -> f64 {
        let p = &mut self.buf.patterns[state];
        if p.run != self.run {
            p.usable = p.pattern.set(sa);
            p.run = self.run;
            self.counts.patterns_built += 1;
        }
        if p.usable {
            p.pattern.sim(sb)
        } else {
            seqsim::levenshtein_sim_chars(sa, sb, &mut self.buf.lev_rows)
        }
    }

    /// The reference's Monge–Elkan loop with a memo in front of
    /// Jaro–Winkler, which is a pure function of the two tokens, so a hit
    /// returns the bits a call would. The key is the *ordered* id pair:
    /// nothing proves Jaro's greedy matching symmetric in its arguments.
    fn monge_elkan(&mut self, ba: &[u32], bb: &[u32]) -> f64 {
        let (memo, counts, tokens) = (&mut self.buf.jw_memo, &mut self.counts, &self.cells.tokens);
        setsim::monge_elkan_upto_one(ba.len(), bb.len(), |i, j| {
            counts.token_pairs += 1;
            let (ta, tb) = (ba[i], bb[j]);
            if ta == tb {
                return 1.0;
            }
            let key = u64::from(ta) << 32 | u64::from(tb);
            // Fibonacci hashing: the top bits of the golden-ratio product.
            let at = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - JW_MEMO_BITS);
            let entry = &mut memo[at as usize];
            if entry.0 != key {
                counts.jw_evals += 1;
                *entry = (
                    key,
                    seqsim::jaro_winkler_chars(tokens.get(ta), tokens.get(tb)),
                );
            }
            entry.1
        })
    }
}
