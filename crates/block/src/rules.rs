//! Rule-based blocking.
//!
//! A blocking rule is a conjunction of *low-similarity* predicates that
//! **drops** a pair when every predicate fires — exactly the shape Falcon
//! extracts from random-forest root→"No"-leaf paths (Fig. 4 of the paper):
//!
//! ```text
//! jaccard(3gram(A.isbn), 3gram(B.isbn)) <= 0.55 -> No
//! ```
//!
//! A pair *survives* a rule by violating at least one predicate, and
//! survives blocking by surviving **every** rule. Because the complement
//! of each predicate (`sim > t`) is a similarity join, a rule's survivor
//! set is a union of sim-joins and the overall candidate set an
//! intersection across rules — so rule blocking scales without touching
//! the cross product.
//!
//! [`RuleBasedBlocker::block`] does not run every rule as joins, though:
//! one rule (the *seed*) is joined, and the others are evaluated pairwise
//! over its survivors — the same set, for the price of the cheapest join.

use std::borrow::Cow;
use std::collections::HashMap;

use magellan_simjoin::{join_tokenized, SetSimMeasure, TokenizedCollection};
use magellan_table::{Table, ValueRef};
use magellan_textsim::tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};
use magellan_textsim::{intern, setsim, TokenInterner};

use crate::blockers::{Blocker, EqualityJoin};
use crate::candidate::CandidateSet;

/// The one cell reader of rule evaluation, joined or pairwise: a cell's
/// display form (an `Int` 53703 is the string `"53703"`, as
/// [`Table::column_strs`] renders it), `None` for nulls.
fn cell_str(v: ValueRef<'_>) -> Option<Cow<'_, str>> {
    match v {
        ValueRef::Null => None,
        ValueRef::Str(s) => Some(Cow::Borrowed(s)),
        v => Some(Cow::Owned(v.display_string())),
    }
}

/// Tokenization spec for a rule feature (kept as plain data so rules are
/// cloneable and printable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokSpec {
    /// Lowercased alphanumeric word tokens.
    Word,
    /// Padded character q-grams (set semantics).
    Qgram(usize),
}

impl TokSpec {
    /// Materialize the tokenizer as a boxed trait object (for callers
    /// that need dynamic dispatch, e.g. the sim-join builder).
    pub fn tokenizer(&self) -> Box<dyn Tokenizer> {
        match self {
            TokSpec::Word => Box::new(AlphanumericTokenizer::as_set()),
            TokSpec::Qgram(q) => Box::new(QgramTokenizer::as_set(*q)),
        }
    }

    /// Set-semantics tokenization via a stack-constructed concrete
    /// tokenizer — no `Box<dyn Tokenizer>` allocation, so this is safe to
    /// call inside pair loops.
    pub fn tokenize_set(&self, s: &str) -> Vec<String> {
        match self {
            TokSpec::Word => AlphanumericTokenizer::as_set().tokenize(s),
            TokSpec::Qgram(q) => QgramTokenizer::as_set(*q).tokenize(s),
        }
    }

    /// [`TokSpec::tokenize_set`] straight into sorted deduplicated token
    /// ids (no `String` per token).
    fn intern_tokens(&self, interner: &mut TokenInterner, s: &str) -> Vec<u32> {
        match self {
            TokSpec::Word => interner.intern_tokens(&AlphanumericTokenizer::as_set(), s),
            TokSpec::Qgram(q) => interner.intern_tokens(&QgramTokenizer::as_set(*q), s),
        }
    }

    /// Display name used in printed rules (`word`, `3gram`).
    pub fn label(&self) -> String {
        match self {
            TokSpec::Word => "word".to_owned(),
            TokSpec::Qgram(q) => format!("{q}gram"),
        }
    }
}

/// The similarity feature a predicate thresholds on. Every variant's
/// complement is executable as a join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimFeature {
    /// Jaccard over the tokenization.
    Jaccard(TokSpec),
    /// Cosine over the tokenization.
    Cosine(TokSpec),
    /// Dice over the tokenization.
    Dice(TokSpec),
    /// Exact string equality (sim ∈ {0, 1}).
    ExactMatch,
}

impl SimFeature {
    /// Compute the similarity for one pair of (possibly missing) values.
    /// Missing values score 0 (a missing attribute cannot demonstrate
    /// similarity, so drop-rules fire on it).
    pub fn similarity(&self, a: Option<&str>, b: Option<&str>) -> f64 {
        let (Some(a), Some(b)) = (a, b) else { return 0.0 };
        match self {
            SimFeature::ExactMatch => f64::from(a.trim().to_lowercase() == b.trim().to_lowercase()),
            SimFeature::Jaccard(t) | SimFeature::Cosine(t) | SimFeature::Dice(t) => {
                // Stack-dispatched tokenization: no per-pair boxing.
                let ta = t.tokenize_set(a);
                let tb = t.tokenize_set(b);
                if ta.is_empty() || tb.is_empty() {
                    return 0.0;
                }
                match self {
                    SimFeature::Jaccard(_) => setsim::jaccard(&ta, &tb),
                    SimFeature::Cosine(_) => setsim::cosine(&ta, &tb),
                    SimFeature::Dice(_) => setsim::dice(&ta, &tb),
                    SimFeature::ExactMatch => unreachable!(),
                }
            }
        }
    }

    /// Display label (`jaccard(3gram(·))`).
    pub fn label(&self) -> String {
        match self {
            SimFeature::Jaccard(t) => format!("jaccard({})", t.label()),
            SimFeature::Cosine(t) => format!("cosine({})", t.label()),
            SimFeature::Dice(t) => format!("dice({})", t.label()),
            SimFeature::ExactMatch => "exact_match".to_owned(),
        }
    }
}

/// One predicate: fires (votes to drop) when
/// `sim(l_attr, r_attr) <= threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// The similarity feature.
    pub feature: SimFeature,
    /// Fires when similarity ≤ this value.
    pub threshold: f64,
}

impl Predicate {
    /// Does the predicate fire (drop-vote) on this value pair?
    pub fn fires(&self, a: Option<&str>, b: Option<&str>) -> bool {
        self.feature.similarity(a, b) <= self.threshold + 1e-12
    }

    /// Render like the paper's Fig. 4 rules.
    pub fn pretty(&self) -> String {
        format!(
            "{}(A.{}, B.{}) <= {:.3}",
            self.feature.label(),
            self.l_attr,
            self.r_attr,
            self.threshold
        )
    }
}

/// A conjunction of predicates; fires (drops the pair) when **all**
/// predicates fire.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingRule {
    /// The conjunction.
    pub predicates: Vec<Predicate>,
}

impl BlockingRule {
    /// Does the rule drop this pair?
    pub fn fires(&self, a: &Table, ra: usize, b: &Table, rb: usize) -> bool {
        self.predicates.iter().all(|p| {
            let va = a.value_by_name(ra, &p.l_attr).ok().and_then(cell_str);
            let vb = b.value_by_name(rb, &p.r_attr).ok().and_then(cell_str);
            p.fires(va.as_deref(), vb.as_deref())
        })
    }

    /// Render like Fig. 4: `p1 AND p2 -> No`.
    pub fn pretty(&self) -> String {
        let parts: Vec<String> = self.predicates.iter().map(Predicate::pretty).collect();
        format!("{} -> No", parts.join(" AND "))
    }
}

/// A set of blocking rules executed as sim-joins.
#[derive(Debug, Clone, Default)]
pub struct RuleBasedBlocker {
    /// The rules; a pair must survive all of them.
    pub rules: Vec<BlockingRule>,
}

impl RuleBasedBlocker {
    /// Blocker from a rule list. At least one rule is required — zero
    /// rules would mean "keep the entire cross product".
    pub fn new(rules: Vec<BlockingRule>) -> Self {
        assert!(!rules.is_empty(), "rule-based blocker needs at least one rule");
        RuleBasedBlocker { rules }
    }

    /// Apply the rules to an existing candidate set (exact, pairwise
    /// semantics — identical to evaluating [`BlockingRule::fires`] per
    /// pair, but each referenced record's attribute is tokenized and
    /// interned **once** instead of once per pair it appears in).
    pub fn refine(&self, cands: &CandidateSet, a: &Table, b: &Table) -> CandidateSet {
        refine_by(&self.rules.iter().collect::<Vec<_>>(), cands, a, b)
    }

    /// Render all rules.
    pub fn pretty(&self) -> String {
        self.rules
            .iter()
            .map(BlockingRule::pretty)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Fail on an unknown attribute before anything is planned, and on
    /// the one an executor that runs every rule as joins meets first: it
    /// tokenizes every set predicate's columns before any rule runs, and
    /// reads an exact-match predicate's columns only if the predicate can
    /// have violators at all. (Pairwise evaluation scores an unknown
    /// attribute 0.0 instead, so the plan must not decide which it is.)
    fn check_attributes(&self, a: &Table, b: &Table) -> magellan_table::Result<()> {
        let preds = || self.rules.iter().flat_map(|r| &r.predicates);
        let is_exact = |p: &&Predicate| p.feature == SimFeature::ExactMatch;
        let sets = preds().filter(|p| !is_exact(p));
        let exacts = preds().filter(is_exact).filter(|p| p.threshold < 1.0);
        for p in sets.chain(exacts) {
            a.schema().try_index_of(&p.l_attr)?;
            b.schema().try_index_of(&p.r_attr)?;
        }
        Ok(())
    }
}

/// The pairs of `cands` that no rule of `rules` drops.
fn refine_by(rules: &[&BlockingRule], cands: &CandidateSet, a: &Table, b: &Table) -> CandidateSet {
    let prep = PreparedRuleEval::build(rules, cands, a, b);
    cands
        .pairs()
        .iter()
        .copied()
        .filter(|&(ra, rb)| {
            !(0..rules.len()).any(|i| prep.rule_fires(rules[i], i, ra as usize, rb as usize))
        })
        .collect()
}

impl Blocker for RuleBasedBlocker {
    fn name(&self) -> String {
        format!("rule_based({} rules)", self.rules.len())
    }

    /// Survivors = ∩_rules ∪_predicates violators(predicate), computed by
    /// a plan that is a pure function of the rules and the tables: the
    /// rule cheapest to run as joins ([`RuleJoins::cost`]) is the *seed*;
    /// every other rule is evaluated pairwise over the seed's survivors —
    /// unless those still outnumber the records a join would tokenize
    /// (`|S| > |A| + |B|`), in which case it is joined and intersected too.
    ///
    /// A negative threshold is executed as 0 on both paths, as joins always
    /// have run it (a join cannot produce the pairs of similarity 0 that
    /// `sim > t` then admits).
    fn block(&self, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        assert!(!self.rules.is_empty(), "rule-based blocker needs at least one rule");
        self.check_attributes(a, b)?;
        let mut rules = self.rules.clone();
        for p in rules.iter_mut().flat_map(|r| &mut r.predicates) {
            p.threshold = p.threshold.max(0.0);
        }
        let mut joins = RuleJoins::new(a, b);
        let costs = rules
            .iter()
            .map(|rule| joins.cost(rule))
            .collect::<magellan_table::Result<Vec<usize>>>()?;
        // The first of the cheapest.
        let seed = (0..rules.len())
            .min_by_key(|&i| costs[i])
            .expect("at least one rule");
        let mut survivors = joins.survivors(&rules[seed])?;
        let mut pairwise = Vec::new();
        for (i, rule) in rules.iter().enumerate() {
            if i == seed {
                continue;
            }
            if survivors.len() > a.nrows() + b.nrows() {
                survivors = survivors.intersect(&joins.survivors(rule)?);
            } else {
                pairwise.push(rule);
            }
        }
        if pairwise.is_empty() {
            return Ok(survivors);
        }
        Ok(refine_by(&pairwise, &survivors, a, b))
    }
}

/// Rules run as joins over one pair of tables. Each distinct
/// `(l_attr, r_attr, tokenization)` is tokenized once, on first use,
/// through one shared [`TokenInterner`]; each distinct exact-match column
/// pair is bucketed once.
struct RuleJoins<'a> {
    a: &'a Table,
    b: &'a Table,
    interner: TokenInterner,
    collections: HashMap<(String, String, TokSpec), TokenizedCollection>,
    equalities: HashMap<(String, String), EqualityJoin<'a>>,
}

impl<'a> RuleJoins<'a> {
    fn new(a: &'a Table, b: &'a Table) -> Self {
        RuleJoins {
            a,
            b,
            interner: TokenInterner::new(),
            collections: HashMap::new(),
            equalities: HashMap::new(),
        }
    }

    fn equality(&mut self, pred: &Predicate) -> magellan_table::Result<&EqualityJoin<'a>> {
        let key = (pred.l_attr.clone(), pred.r_attr.clone());
        if !self.equalities.contains_key(&key) {
            let eq = EqualityJoin::build(self.a, &pred.l_attr, self.b, &pred.r_attr)?;
            self.equalities.insert(key.clone(), eq);
        }
        Ok(&self.equalities[&key])
    }

    /// What running `rule` as joins costs, in the one currency of pairs
    /// materialized and records tokenized: an exact-match predicate's
    /// violators are counted off its buckets, exactly, before a pair
    /// exists; a set-similarity predicate tokenizes both tables. A
    /// predicate nothing can violate (`threshold >= 1`) is free.
    fn cost(&mut self, rule: &BlockingRule) -> magellan_table::Result<usize> {
        let mut cost = 0;
        for pred in rule.predicates.iter().filter(|p| p.threshold < 1.0) {
            cost += match pred.feature {
                SimFeature::ExactMatch => {
                    let eq = self.equality(pred)?;
                    (0..eq.n_left()).map(|l| eq.partners(l).len()).sum()
                }
                _ => self.a.nrows() + self.b.nrows(),
            };
        }
        Ok(cost)
    }

    /// The pairs `rule` keeps — the union of its predicates' violators
    /// (`sim > threshold`), each a join.
    fn survivors(&mut self, rule: &BlockingRule) -> magellan_table::Result<CandidateSet> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        // `sim > t` has no solutions at `t >= 1`.
        for pred in rule.predicates.iter().filter(|p| p.threshold < 1.0) {
            let (ts, measure): (TokSpec, fn(f64) -> SetSimMeasure) = match pred.feature {
                SimFeature::ExactMatch => {
                    let eq = self.equality(pred)?;
                    for l in 0..eq.n_left() {
                        pairs.extend(eq.partners(l).iter().map(|&r| (l as u32, r)));
                    }
                    continue;
                }
                SimFeature::Jaccard(ts) => (ts, SetSimMeasure::Jaccard),
                SimFeature::Cosine(ts) => (ts, SetSimMeasure::Cosine),
                SimFeature::Dice(ts) => (ts, SetSimMeasure::Dice),
            };
            let key = (pred.l_attr.clone(), pred.r_attr.clone(), ts);
            if !self.collections.contains_key(&key) {
                let la = self.a.column_strs(&pred.l_attr)?;
                let rb = self.b.column_strs(&pred.r_attr)?;
                let coll = TokenizedCollection::build_with_interner(
                    &la,
                    &rb,
                    ts.tokenizer().as_ref(),
                    &mut self.interner,
                );
                self.collections.insert(key.clone(), coll);
            }
            // The join returns sim >= threshold; the complement needs the
            // strict sim > threshold.
            pairs.extend(
                join_tokenized(&self.collections[&key], measure(pred.threshold.max(1e-6)))
                    .into_iter()
                    .filter(|p| p.sim > pred.threshold + 1e-12)
                    .map(|p| (p.l as u32, p.r as u32)),
            );
        }
        Ok(CandidateSet::new(pairs))
    }
}

/// The shape a predicate needs an attribute prepared into for pairwise
/// refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RulePrep {
    /// Trimmed lowercased string (exact-match predicates).
    Lower,
    /// Sorted deduplicated interned id set of the **raw** string's tokens
    /// — [`SimFeature::similarity`] tokenizes the un-normalized value, so
    /// the prepared path must too.
    Set(TokSpec),
}

/// One prepared refinement cell, of the value's display form
/// ([`cell_str`]). `None` at the record level means the value was null,
/// which scores 0.0 exactly like the per-pair path.
#[derive(Debug, Clone)]
enum RuleCell {
    Lower(String),
    Ids(Vec<u32>),
}

/// Tokenize-once-per-record state for [`RuleBasedBlocker::refine`]: each
/// distinct `(side, attribute, shape)` combination referenced by any
/// predicate is prepared once per candidate record, and set predicates
/// then evaluate as interned merge intersections
/// ([`magellan_textsim::intern`]) — bit-identical to
/// [`SimFeature::similarity`] on the same values.
struct PreparedRuleEval {
    l_cols: Vec<Vec<Option<RuleCell>>>,
    r_cols: Vec<Vec<Option<RuleCell>>>,
    /// `slots[rule][pred] = (index into l_cols, index into r_cols)`.
    slots: Vec<Vec<(usize, usize)>>,
}

impl PreparedRuleEval {
    fn build(rules: &[&BlockingRule], cands: &CandidateSet, a: &Table, b: &Table) -> Self {
        fn shape(f: SimFeature) -> RulePrep {
            match f {
                SimFeature::ExactMatch => RulePrep::Lower,
                SimFeature::Jaccard(t) | SimFeature::Cosine(t) | SimFeature::Dice(t) => {
                    RulePrep::Set(t)
                }
            }
        }
        // Resolve each predicate to a (left slot, right slot) pair,
        // deduplicating (attr, shape) combinations per side.
        let mut l_index: HashMap<(String, RulePrep), usize> = HashMap::new();
        let mut r_index: HashMap<(String, RulePrep), usize> = HashMap::new();
        let mut l_specs: Vec<(String, RulePrep)> = Vec::new();
        let mut r_specs: Vec<(String, RulePrep)> = Vec::new();
        let slots: Vec<Vec<(usize, usize)>> = rules
            .iter()
            .map(|rule| {
                rule.predicates
                    .iter()
                    .map(|p| {
                        let sh = shape(p.feature);
                        let li = *l_index
                            .entry((p.l_attr.clone(), sh))
                            .or_insert_with(|| {
                                l_specs.push((p.l_attr.clone(), sh));
                                l_specs.len() - 1
                            });
                        let ri = *r_index
                            .entry((p.r_attr.clone(), sh))
                            .or_insert_with(|| {
                                r_specs.push((p.r_attr.clone(), sh));
                                r_specs.len() - 1
                            });
                        (li, ri)
                    })
                    .collect()
            })
            .collect();

        // Which records do the candidates reference?
        let mut l_ref = vec![false; a.nrows()];
        let mut r_ref = vec![false; b.nrows()];
        for &(ra, rb) in cands.pairs() {
            l_ref[ra as usize] = true;
            r_ref[rb as usize] = true;
        }

        // One shared interner across both sides and all combinations.
        let mut interner = TokenInterner::new();
        let fill = |table: &Table,
                        referenced: &[bool],
                        specs: &[(String, RulePrep)],
                        interner: &mut TokenInterner|
         -> Vec<Vec<Option<RuleCell>>> {
            specs
                .iter()
                .map(|(attr, sh)| {
                    let mut cells: Vec<Option<RuleCell>> = vec![None; table.nrows()];
                    // Unknown attribute ⇒ every value is absent ⇒ sim 0.0,
                    // exactly like the `value_by_name(..).ok()` per-pair path.
                    let Ok(idx) = table.schema().try_index_of(attr) else {
                        return cells;
                    };
                    for (r, &wanted) in referenced.iter().enumerate() {
                        if !wanted {
                            continue;
                        }
                        let Some(s) = cell_str(table.value(r, idx)) else {
                            continue;
                        };
                        cells[r] = Some(match sh {
                            RulePrep::Lower => RuleCell::Lower(s.trim().to_lowercase()),
                            RulePrep::Set(ts) => RuleCell::Ids(ts.intern_tokens(interner, &s)),
                        });
                    }
                    cells
                })
                .collect()
        };
        let l_cols = fill(a, &l_ref, &l_specs, &mut interner);
        let r_cols = fill(b, &r_ref, &r_specs, &mut interner);
        PreparedRuleEval {
            l_cols,
            r_cols,
            slots,
        }
    }

    /// Does this rule drop the pair? Mirrors [`BlockingRule::fires`] /
    /// [`Predicate::fires`] exactly (same thresholding epsilon, same
    /// missing-value and empty-tokenization conventions).
    fn rule_fires(&self, rule: &BlockingRule, rule_idx: usize, ra: usize, rb: usize) -> bool {
        rule.predicates.iter().enumerate().all(|(j, p)| {
            let (li, ri) = self.slots[rule_idx][j];
            let sim = match (&self.l_cols[li][ra], &self.r_cols[ri][rb]) {
                (Some(RuleCell::Lower(sa)), Some(RuleCell::Lower(sb))) => f64::from(sa == sb),
                (Some(RuleCell::Ids(ia)), Some(RuleCell::Ids(ib))) => {
                    if ia.is_empty() || ib.is_empty() {
                        0.0
                    } else {
                        match p.feature {
                            SimFeature::Jaccard(_) => intern::jaccard_ids(ia, ib),
                            SimFeature::Cosine(_) => intern::cosine_ids(ia, ib),
                            SimFeature::Dice(_) => intern::dice_ids(ia, ib),
                            SimFeature::ExactMatch => unreachable!(),
                        }
                    }
                }
                // Either side missing ⇒ 0.0 (drop-rules fire).
                _ => 0.0,
            };
            sim <= p.threshold + 1e-12
        })
    }
}

/// The executor [`RuleBasedBlocker::block`] had before it planned: every
/// rule run as joins over collections built up front, survivors
/// intersected. Kept as the oracle the plan is tested against.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::blockers::AttrEquivalenceBlocker;

    type Collections = HashMap<(String, String, TokSpec), TokenizedCollection>;

    fn build_collections(
        rules: &[BlockingRule],
        a: &Table,
        b: &Table,
    ) -> magellan_table::Result<Collections> {
        let mut interner = TokenInterner::new();
        let mut collections = HashMap::new();
        for pred in rules.iter().flat_map(|r| &r.predicates) {
            let (SimFeature::Jaccard(ts) | SimFeature::Cosine(ts) | SimFeature::Dice(ts)) =
                pred.feature
            else {
                continue;
            };
            let key = (pred.l_attr.clone(), pred.r_attr.clone(), ts);
            if collections.contains_key(&key) {
                continue;
            }
            let la = a.column_strs(&pred.l_attr)?;
            let rb = b.column_strs(&pred.r_attr)?;
            let tok = ts.tokenizer();
            collections.insert(
                key,
                TokenizedCollection::build_with_interner(&la, &rb, tok.as_ref(), &mut interner),
            );
        }
        Ok(collections)
    }

    fn violators(
        pred: &Predicate,
        a: &Table,
        b: &Table,
        collections: &Collections,
    ) -> magellan_table::Result<CandidateSet> {
        if pred.threshold >= 1.0 {
            return Ok(CandidateSet::default());
        }
        let (ts, measure) = match pred.feature {
            SimFeature::ExactMatch => {
                return AttrEquivalenceBlocker {
                    l_attr: pred.l_attr.clone(),
                    r_attr: pred.r_attr.clone(),
                }
                .block(a, b);
            }
            SimFeature::Jaccard(ts) => (ts, SetSimMeasure::Jaccard(pred.threshold.max(1e-6))),
            SimFeature::Cosine(ts) => (ts, SetSimMeasure::Cosine(pred.threshold.max(1e-6))),
            SimFeature::Dice(ts) => (ts, SetSimMeasure::Dice(pred.threshold.max(1e-6))),
        };
        let coll = &collections[&(pred.l_attr.clone(), pred.r_attr.clone(), ts)];
        Ok(join_tokenized(coll, measure)
            .into_iter()
            .filter(|p| p.sim > pred.threshold + 1e-12)
            .map(|p| (p.l as u32, p.r as u32))
            .collect())
    }

    /// Survivors = ∩_rules ∪_predicates violators(predicate).
    pub(super) fn block_by_joins(
        rules: &[BlockingRule],
        a: &Table,
        b: &Table,
    ) -> magellan_table::Result<CandidateSet> {
        let collections = build_collections(rules, a, b)?;
        let mut result: Option<CandidateSet> = None;
        for rule in rules {
            let mut rule_survivors = CandidateSet::default();
            for pred in &rule.predicates {
                rule_survivors = rule_survivors.union(&violators(pred, a, b, &collections)?);
            }
            result = Some(match result {
                None => rule_survivors,
                Some(acc) => acc.intersect(&rule_survivors),
            });
        }
        Ok(result.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::block_by_joins;
    use super::*;
    use magellan_table::{Dtype, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TYPED_SCHEMA: [(&str, Dtype); 5] = [
        ("id", Dtype::Str),
        ("name", Dtype::Str),
        ("zip", Dtype::Int),
        ("score", Dtype::Float),
        ("flag", Dtype::Bool),
    ];

    /// A table of `n` rows over [`TYPED_SCHEMA`]: few distinct values per
    /// column (so equalities and token overlaps are common), nulls in
    /// every column, and blank or padded strings.
    fn typed_table(name: &str, n: usize, rng: &mut StdRng) -> Table {
        const WORDS: [&str; 6] = ["oak", "elm", "st", "ave", "Main", "5th"];
        let rows = (0..n)
            .map(|i| {
                let cell = |rng: &mut StdRng, v: Value| {
                    if rng.gen_bool(0.15) {
                        Value::Null
                    } else {
                        v
                    }
                };
                let name = match rng.gen_range(0..8) {
                    0 => "   ".to_owned(),
                    1 => " Oak  ST ".to_owned(),
                    _ => (0..rng.gen_range(1..4))
                        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                        .collect::<Vec<_>>()
                        .join(" "),
                };
                let zip = Value::Int([53703, 53705, 94301][rng.gen_range(0..3)]);
                let score = Value::Float([1.5, 2.0, 3.25][rng.gen_range(0..3)]);
                let flag = Value::Bool(rng.gen_bool(0.5));
                vec![
                    Value::Str(format!("{name}{i}")),
                    cell(rng, Value::Str(name)),
                    cell(rng, zip),
                    cell(rng, score),
                    cell(rng, flag),
                ]
            })
            .collect();
        Table::from_rows(name, &TYPED_SCHEMA, rows).unwrap()
    }

    fn typed_tables(seed: u64) -> (Table, Table) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (na, nb) = (rng.gen_range(0..13), rng.gen_range(0..13));
        (
            typed_table("A", na, &mut rng),
            typed_table("B", nb, &mut rng),
        )
    }

    /// 1–4 rules of 1–3 predicates over [`TYPED_SCHEMA`] (and, with
    /// `unknown_attrs`, now and then a column neither table has).
    fn random_rules(rng: &mut StdRng, unknown_attrs: bool) -> Vec<BlockingRule> {
        const ATTRS: [&str; 4] = ["name", "zip", "score", "flag"];
        const THRESHOLDS: [f64; 7] = [0.0, 0.0, 0.2, 0.5, 0.8, 1.0, 1.5];
        let attr = |rng: &mut StdRng| {
            if unknown_attrs && rng.gen_bool(0.06) {
                // Two names, so that *which* one an error reports is tested.
                ["nope", "gone"][rng.gen_range(0..2)].to_owned()
            } else {
                ATTRS[rng.gen_range(0..ATTRS.len())].to_owned()
            }
        };
        (0..rng.gen_range(1..5))
            .map(|_| BlockingRule {
                predicates: (0..rng.gen_range(1..4))
                    .map(|_| {
                        let l_attr = attr(rng);
                        // Mostly the same column on both sides, as learned
                        // rules have it; sometimes a cross-typed pair.
                        let r_attr = if rng.gen_bool(0.8) {
                            l_attr.clone()
                        } else {
                            attr(rng)
                        };
                        let ts = if rng.gen_bool(0.5) {
                            TokSpec::Word
                        } else {
                            TokSpec::Qgram(3)
                        };
                        Predicate {
                            l_attr,
                            r_attr,
                            feature: match rng.gen_range(0..5) {
                                0 | 1 => SimFeature::ExactMatch,
                                2 => SimFeature::Jaccard(ts),
                                3 => SimFeature::Cosine(ts),
                                _ => SimFeature::Dice(ts),
                            },
                            threshold: THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())],
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    fn cross(a: &Table, b: &Table) -> CandidateSet {
        (0..a.nrows() as u32)
            .flat_map(|ra| (0..b.nrows() as u32).map(move |rb| (ra, rb)))
            .collect()
    }

    /// Per-pair [`BlockingRule::fires`] over the cross product.
    fn survivors_by_fires(rules: &[BlockingRule], a: &Table, b: &Table) -> CandidateSet {
        cross(a, b)
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| {
                !rules
                    .iter()
                    .any(|r| r.fires(a, ra as usize, b, rb as usize))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The plan, the all-joins executor, prepared refinement of the
        /// cross product and per-pair `fires` are one function — and fail
        /// alike on an attribute neither table has.
        #[test]
        fn planned_block_equals_the_join_oracle_and_refinement(seed in any::<u64>()) {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
            let blocker = RuleBasedBlocker::new(random_rules(&mut rng, true));
            let planned = blocker.block(&a, &b);
            let joined = block_by_joins(&blocker.rules, &a, &b);
            match (planned, joined) {
                (Ok(planned), Ok(joined)) => {
                    prop_assert_eq!(&planned, &joined, "{}", blocker.pretty());
                    let known = |p: &Predicate| {
                        a.schema().try_index_of(&p.l_attr).is_ok()
                            && b.schema().try_index_of(&p.r_attr).is_ok()
                    };
                    // An unknown attribute no join reads is an error to
                    // neither executor, but scores 0.0 pairwise.
                    if blocker.rules.iter().flat_map(|r| &r.predicates).all(known) {
                        prop_assert_eq!(&planned, &blocker.refine(&cross(&a, &b), &a, &b));
                        prop_assert_eq!(&planned, &survivors_by_fires(&blocker.rules, &a, &b));
                    }
                }
                (Err(planned), Err(joined)) => {
                    prop_assert_eq!(planned.to_string(), joined.to_string());
                }
                (planned, joined) => {
                    prop_assert!(false, "{planned:?} vs {joined:?}\n{}", blocker.pretty());
                }
            }
        }
    }

    /// Whichever rule seeds the plan, the set is the same: every rotation
    /// of a rule list blocks alike (and large survivor sets take the
    /// join-and-intersect branch).
    #[test]
    fn the_result_does_not_depend_on_rule_order() {
        for seed in 0..60 {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rules = random_rules(&mut rng, false);
            let want = block_by_joins(&rules, &a, &b).unwrap();
            for _ in 0..rules.len() {
                rules.rotate_left(1);
                let got = RuleBasedBlocker::new(rules.clone()).block(&a, &b).unwrap();
                assert_eq!(got, want, "seed {seed}");
            }
        }
    }

    /// Regression: `block` read an `Int` zip as `"53703"` while `refine`
    /// and `fires` read it as missing, so the same rule kept equal zips
    /// under one and dropped every pair under the others.
    #[test]
    fn typed_cells_read_alike_joined_and_pairwise() {
        let zips = |name: &str, zs: &[Option<i64>]| {
            let rows = zs.iter().map(|z| vec![Value::from(*z)]).collect();
            Table::from_rows(name, &[("zip", Dtype::Int)], rows).unwrap()
        };
        let a = zips("A", &[Some(53703), Some(94301), None]);
        let b = zips("B", &[Some(94301), Some(53703), Some(10001)]);
        let rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "zip".into(),
                r_attr: "zip".into(),
                feature: SimFeature::ExactMatch,
                threshold: 0.5,
            }],
        };
        assert!(!rule.fires(&a, 0, &b, 1), "equal zips must not be dropped");
        assert!(rule.fires(&a, 0, &b, 0));
        assert!(rule.fires(&a, 2, &b, 2), "a null zip shows no similarity");
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let kept = CandidateSet::new(vec![(0, 1), (1, 0)]);
        assert_eq!(blocker.block(&a, &b).unwrap(), kept);
        assert_eq!(blocker.refine(&cross(&a, &b), &a, &b), kept);
    }

    /// A negative threshold runs as 0, as the join executor ran it.
    #[test]
    fn negative_thresholds_block_as_zero() {
        for seed in 0..40 {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rules = random_rules(&mut rng, false);
            for p in rules.iter_mut().flat_map(|r| &mut r.predicates) {
                if p.threshold == 0.0 {
                    p.threshold = -0.5;
                }
            }
            let got = RuleBasedBlocker::new(rules.clone()).block(&a, &b).unwrap();
            assert_eq!(got, block_by_joins(&rules, &a, &b).unwrap(), "seed {seed}");
        }
    }

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str), ("isbn", Dtype::Str), ("title", Dtype::Str)],
            vec![
                vec!["a0".into(), "978-0262033848".into(), "introduction to algorithms".into()],
                vec!["a1".into(), "978-1491927083".into(), "programming rust".into()],
                vec!["a2".into(), Value::Null, "mystery book".into()],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str), ("isbn", Dtype::Str), ("title", Dtype::Str)],
            vec![
                vec!["b0".into(), "978-0262033848".into(), "intro to algorithms".into()],
                vec!["b1".into(), "978-3161484100".into(), "unrelated tome".into()],
                vec!["b2".into(), "978-1491927083".into(), "programming rust 2nd".into()],
            ],
        )
        .unwrap();
        (a, b)
    }

    fn isbn_rule() -> BlockingRule {
        BlockingRule {
            predicates: vec![Predicate {
                l_attr: "isbn".into(),
                r_attr: "isbn".into(),
                feature: SimFeature::ExactMatch,
                threshold: 0.5,
            }],
        }
    }

    #[test]
    fn exact_match_rule_keeps_only_equal_isbns() {
        let (a, b) = tables();
        let blocker = RuleBasedBlocker::new(vec![isbn_rule()]);
        let c = blocker.block(&a, &b).unwrap();
        assert_eq!(c.pairs(), &[(0, 0), (1, 2)]);
    }

    #[test]
    fn join_execution_equals_pairwise_refinement() {
        let (a, b) = tables();
        let rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "title".into(),
                r_attr: "title".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: 0.3,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let via_join = blocker.block(&a, &b).unwrap();
        // Reference: cross product refined pairwise.
        let all = cross(&a, &b);
        let via_refine = blocker.refine(&all, &a, &b);
        assert_eq!(via_join, via_refine);
        assert!(via_join.contains((1, 2)), "programming rust pair survives");

        // And on `Int`, `Float`, `Bool` and null cells, one predicate per
        // column and feature family.
        for seed in 0..20 {
            let (a, b) = typed_tables(seed);
            for (attr, feature, threshold) in [
                ("zip", SimFeature::ExactMatch, 0.5),
                ("zip", SimFeature::Jaccard(TokSpec::Qgram(3)), 0.4),
                ("score", SimFeature::Dice(TokSpec::Word), 0.0),
                ("flag", SimFeature::Cosine(TokSpec::Qgram(3)), 0.3),
                ("name", SimFeature::Jaccard(TokSpec::Word), 0.3),
            ] {
                let blocker = RuleBasedBlocker::new(vec![BlockingRule {
                    predicates: vec![Predicate {
                        l_attr: attr.into(),
                        r_attr: attr.into(),
                        feature,
                        threshold,
                    }],
                }]);
                assert_eq!(
                    blocker.block(&a, &b).unwrap(),
                    blocker.refine(&cross(&a, &b), &a, &b),
                    "seed {seed}: {}",
                    blocker.pretty()
                );
            }
        }
    }

    #[test]
    fn conjunction_survives_by_violating_any_predicate() {
        let (a, b) = tables();
        // Drop only if BOTH isbn differs AND title jaccard low — i.e. keep
        // anything with equal isbn OR similar title.
        let rule = BlockingRule {
            predicates: vec![
                Predicate {
                    l_attr: "isbn".into(),
                    r_attr: "isbn".into(),
                    feature: SimFeature::ExactMatch,
                    threshold: 0.5,
                },
                Predicate {
                    l_attr: "title".into(),
                    r_attr: "title".into(),
                    feature: SimFeature::Jaccard(TokSpec::Word),
                    threshold: 0.3,
                },
            ],
        };
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let c = blocker.block(&a, &b).unwrap();
        // (0,0): isbn equal -> survives. (1,2): isbn equal AND title similar.
        assert!(c.contains((0, 0)));
        assert!(c.contains((1, 2)));
        // (0,1): different isbn, dissimilar title -> dropped.
        assert!(!c.contains((0, 1)));
    }

    #[test]
    fn multiple_rules_intersect() {
        let (a, b) = tables();
        let title_rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "title".into(),
                r_attr: "title".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: 0.2,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![isbn_rule(), title_rule]);
        let c = blocker.block(&a, &b).unwrap();
        // Must pass both: equal isbn AND title jaccard > 0.2.
        for &(ra, rb) in c.pairs() {
            let ia = a.value_by_name(ra as usize, "isbn").unwrap().display_string();
            let ib = b.value_by_name(rb as usize, "isbn").unwrap().display_string();
            assert_eq!(ia, ib);
        }
        assert!(c.contains((1, 2)));
    }

    #[test]
    fn null_attributes_fire_drop_rules() {
        let (a, b) = tables();
        let blocker = RuleBasedBlocker::new(vec![isbn_rule()]);
        let c = blocker.block(&a, &b).unwrap();
        // a2 has a null isbn: it can never survive an isbn-based rule.
        assert!(c.pairs().iter().all(|&(ra, _)| ra != 2));
    }

    #[test]
    fn pretty_renders_fig4_style() {
        let rule = BlockingRule {
            predicates: vec![
                Predicate {
                    l_attr: "isbn".into(),
                    r_attr: "isbn".into(),
                    feature: SimFeature::ExactMatch,
                    threshold: 0.5,
                },
                Predicate {
                    l_attr: "title".into(),
                    r_attr: "title".into(),
                    feature: SimFeature::Jaccard(TokSpec::Qgram(3)),
                    threshold: 0.31,
                },
            ],
        };
        let s = rule.pretty();
        assert!(s.contains("exact_match(A.isbn, B.isbn) <= 0.500"), "{s}");
        assert!(s.contains("jaccard(3gram)(A.title, B.title) <= 0.310"), "{s}");
        assert!(s.ends_with("-> No"));
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn empty_rule_list_panics() {
        RuleBasedBlocker::new(vec![]);
    }

    /// The interned prepared refine path is exactly the per-pair
    /// [`BlockingRule::fires`] evaluation, including null / non-string
    /// values, unknown attributes, and empty tokenizations.
    #[test]
    fn prepared_refine_matches_per_pair_fires() {
        let (a, b) = tables();
        let rules = vec![
            BlockingRule {
                predicates: vec![
                    Predicate {
                        l_attr: "isbn".into(),
                        r_attr: "isbn".into(),
                        feature: SimFeature::ExactMatch,
                        threshold: 0.5,
                    },
                    Predicate {
                        l_attr: "title".into(),
                        r_attr: "title".into(),
                        feature: SimFeature::Jaccard(TokSpec::Word),
                        threshold: 0.3,
                    },
                ],
            },
            BlockingRule {
                predicates: vec![
                    Predicate {
                        l_attr: "title".into(),
                        r_attr: "title".into(),
                        feature: SimFeature::Cosine(TokSpec::Qgram(3)),
                        threshold: 0.25,
                    },
                    Predicate {
                        // Unknown attribute: always scores 0.0.
                        l_attr: "nope".into(),
                        r_attr: "title".into(),
                        feature: SimFeature::Dice(TokSpec::Word),
                        threshold: 0.9,
                    },
                ],
            },
        ];
        let blocker = RuleBasedBlocker::new(rules);
        let all = cross(&a, &b);
        let prepared = blocker.refine(&all, &a, &b);
        // Reference: direct per-pair rule evaluation.
        let reference: CandidateSet = all
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| {
                !blocker
                    .rules
                    .iter()
                    .any(|rule| rule.fires(&a, ra as usize, &b, rb as usize))
            })
            .collect();
        assert_eq!(prepared, reference);

        // Typed and null cells: both read the display form.
        for seed in 0..40 {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let blocker = RuleBasedBlocker::new(random_rules(&mut rng, true));
            assert_eq!(
                blocker.refine(&cross(&a, &b), &a, &b),
                survivors_by_fires(&blocker.rules, &a, &b),
                "seed {seed}: {}",
                blocker.pretty()
            );
        }
    }

    /// Several predicates over the same column pair share one tokenized
    /// collection in the join path — output unchanged.
    #[test]
    fn shared_collections_across_predicates_keep_output() {
        let (a, b) = tables();
        // Two rules both thresholding word-jaccard on title (one shared
        // collection) at different cutoffs, plus a qgram predicate.
        let rule = |thr: f64| BlockingRule {
            predicates: vec![Predicate {
                l_attr: "title".into(),
                r_attr: "title".into(),
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: thr,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![rule(0.2), rule(0.4)]);
        let c = blocker.block(&a, &b).unwrap();
        // Reference: cross product refined pairwise.
        let all = cross(&a, &b);
        assert_eq!(c, blocker.refine(&all, &a, &b));
    }

    #[test]
    fn threshold_at_one_drops_everything() {
        let (a, b) = tables();
        let rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: "isbn".into(),
                r_attr: "isbn".into(),
                feature: SimFeature::ExactMatch,
                threshold: 1.0,
            }],
        };
        let c = RuleBasedBlocker::new(vec![rule]).block(&a, &b).unwrap();
        assert!(c.is_empty());
    }
}
