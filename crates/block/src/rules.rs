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
//! A predicate names a feature — a [`FeatureKind`] over an attribute pair,
//! the vocabulary `magellan-features` computes — and fires when that
//! feature's value `x` has `x.is_nan() || x <= t`: the value
//! `Feature::compute` gives (cells trimmed and lowercased by
//! [`ValueRef::lower_trimmed`](magellan_table::ValueRef::lower_trimmed);
//! NaN for a null or an empty token set), routed as the tree the rule came
//! from routes it. So a rule drops exactly the pairs it was verified on.
//!
//! A pair *survives* a rule by violating at least one predicate, and
//! survives blocking by surviving **every** rule. Because the complement
//! of each predicate (`x > t`) is a join — a set-similarity join for
//! Jaccard, cosine and Dice, an equi-join for exact match; the kinds
//! [`joinable`] accepts — a rule's survivor set is a union of joins and
//! the overall candidate set an intersection across rules, so rule
//! blocking scales without touching the cross product.
//!
//! [`RuleBasedBlocker::block`] does not run every rule as joins, though:
//! one rule (the *seed*) is joined, and the others are evaluated pairwise
//! over its survivors — the same set, for the price of the cheapest join.

use std::collections::HashMap;

use magellan_par::{ParConfig, ParStats};
use magellan_simjoin::{join_tokenized, SetSimMeasure, TokenizedCollection};
use magellan_table::{ColView, Table, TableError};
use magellan_textsim::{intern, FeatureKind, TokSpec, TokenInterner};

use crate::blockers::{Blocker, EqualityJoin};
use crate::candidate::CandidateSet;

/// How a predicate's complement runs as a join.
#[derive(Debug, Clone, Copy)]
enum Join {
    /// Exact match: an equi-join on the normalized cells.
    Equal,
    /// A set measure: a set-similarity join over `tok`, whose pairwise
    /// score on interned id sets is `ids`.
    Set {
        tok: TokSpec,
        measure: fn(f64) -> SetSimMeasure,
        ids: fn(&[u32], &[u32]) -> f64,
    },
}

fn join_of(kind: FeatureKind) -> Option<Join> {
    let set = |tok, measure, ids| Some(Join::Set { tok, measure, ids });
    match kind {
        FeatureKind::ExactMatch => Some(Join::Equal),
        FeatureKind::Jaccard(t) => set(t, SetSimMeasure::Jaccard, intern::jaccard_ids),
        FeatureKind::Cosine(t) => set(t, SetSimMeasure::Cosine, intern::cosine_ids),
        FeatureKind::Dice(t) => set(t, SetSimMeasure::Dice, intern::dice_ids),
        _ => None,
    }
}

/// Can a predicate on `kind` run as a join? Jaccard, cosine and Dice over
/// words or q-grams, and exact match. A rule on any other kind is refused
/// by [`RuleBasedBlocker::block`] and [`RuleBasedBlocker::refine`].
pub fn joinable(kind: FeatureKind) -> bool {
    join_of(kind).is_some()
}

/// One predicate: fires (votes to drop) when the feature
/// `kind(l_attr, r_attr)` is NaN or `<= threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute of the left table.
    pub l_attr: String,
    /// Attribute of the right table.
    pub r_attr: String,
    /// What the feature computes; a [`joinable`] kind.
    pub kind: FeatureKind,
    /// Fires when the feature is NaN or ≤ this value.
    pub threshold: f64,
}

impl Predicate {
    /// The threshold both execution paths run: a negative one as 0, as a
    /// join runs it (a join cannot produce the pairs of similarity 0 that
    /// `x > t` would then admit).
    fn cutoff(&self) -> f64 {
        self.threshold.max(0.0)
    }

    /// How the predicate runs, or the error every path reports for it: an
    /// attribute its table lacks, or a kind with no join.
    fn join(&self, a: &Table, b: &Table) -> magellan_table::Result<Join> {
        a.schema().try_index_of(&self.l_attr)?;
        b.schema().try_index_of(&self.r_attr)?;
        join_of(self.kind).ok_or_else(|| TableError::KeyViolation {
            table: a.name().to_owned(),
            attr: self.l_attr.clone(),
            reason: format!("`{}` has no join to run a blocking rule on", self.pretty()),
        })
    }

    /// Render like the paper's Fig. 4 rules:
    /// `jaccard(3gram(A.title), 3gram(B.title)) <= 0.310`.
    pub fn pretty(&self) -> String {
        let feature = self.kind.render(&self.l_attr, &self.r_attr);
        format!("{feature} <= {:.3}", self.threshold)
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
    /// The predicates a pair can violate. One at `threshold >= 1` fires on
    /// every pair (no feature exceeds 1), so a rule's conjunction, its
    /// joins and its pairwise test all leave it out.
    fn violable(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.cutoff() < 1.0)
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
        assert!(
            !rules.is_empty(),
            "rule-based blocker needs at least one rule"
        );
        RuleBasedBlocker { rules }
    }

    /// Apply the rules to an existing candidate set: the pairs on which
    /// no rule fires, each predicate's feature computed pairwise — a set
    /// predicate over its shape's [`TokenizedCollection`], tokenized once
    /// over only the records `cands` references. Fails as
    /// [`Blocker::block`] does.
    pub fn refine(
        &self,
        cands: &CandidateSet,
        a: &Table,
        b: &Table,
    ) -> magellan_table::Result<CandidateSet> {
        check(&self.rules, a, b)?;
        RuleJoins::new(a, b).refine(&self.rules.iter().collect::<Vec<_>>(), cands)
    }

    /// Render all rules.
    pub fn pretty(&self) -> String {
        self.rules
            .iter()
            .map(BlockingRule::pretty)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Fail before anything runs, at the first predicate in rule order that
/// names an unknown attribute or a kind with no join.
fn check(rules: &[BlockingRule], a: &Table, b: &Table) -> magellan_table::Result<()> {
    for p in rules.iter().flat_map(|r| &r.predicates) {
        p.join(a, b)?;
    }
    Ok(())
}

impl Blocker for RuleBasedBlocker {
    fn name(&self) -> String {
        format!("rule_based({} rules)", self.rules.len())
    }

    /// Survivors = ∩_rules ∪_predicates violators(predicate), computed by
    /// a plan that is a pure function of the rules and the tables: the
    /// rule cheapest to run as joins (`RuleJoins::cost`) is the *seed*;
    /// every other rule is evaluated pairwise over the seed's survivors —
    /// unless those still outnumber the records a join would tokenize
    /// (`|S| > |A| + |B|`), in which case it is joined and intersected too.
    /// The plan runs serially whatever `cfg` asks, with empty counters.
    fn block_par(
        &self,
        a: &Table,
        b: &Table,
        _cfg: &ParConfig,
    ) -> magellan_table::Result<(CandidateSet, ParStats)> {
        assert!(
            !self.rules.is_empty(),
            "rule-based blocker needs at least one rule"
        );
        check(&self.rules, a, b)?;
        let mut joins = RuleJoins::new(a, b);
        let costs = self
            .rules
            .iter()
            .map(|rule| joins.cost(rule))
            .collect::<magellan_table::Result<Vec<usize>>>()?;
        // The first of the cheapest.
        let seed = (0..self.rules.len())
            .min_by_key(|&i| costs[i])
            .expect("at least one rule");
        let mut survivors = joins.survivors(&self.rules[seed])?;
        let mut pairwise = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if i == seed {
                continue;
            }
            if survivors.len() > a.nrows() + b.nrows() {
                survivors = survivors.intersect(&joins.survivors(rule)?);
            } else {
                pairwise.push(rule);
            }
        }
        if !pairwise.is_empty() {
            survivors = joins.refine(&pairwise, &survivors)?;
        }
        Ok((survivors, ParStats::default()))
    }
}

/// Rules run over one pair of tables, as joins and then pairwise. Each
/// set shape — `(l_attr, r_attr, tokenization)` — is tokenized once, on
/// first use, into one [`TokenizedCollection`] through one shared
/// [`TokenInterner`]; each distinct exact-match column pair is bucketed
/// once.
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

    /// The collection of `pred`'s shape under `tok`, built on first use
    /// over the rows `rows` marks on each side (every row when `None`);
    /// any other row reads as null, an empty token set.
    fn collection(
        &mut self,
        pred: &Predicate,
        tok: TokSpec,
        rows: Option<[&[bool]; 2]>,
    ) -> magellan_table::Result<&TokenizedCollection> {
        let key = (pred.l_attr.clone(), pred.r_attr.clone(), tok);
        if !self.collections.contains_key(&key) {
            let cells = |t: &'a Table, attr: &str, keep: Option<&[bool]>| {
                let view = t.col_view(t.schema().try_index_of(attr)?);
                let cell = |r| {
                    let v = view.get(r);
                    (!v.is_null() && keep.is_none_or(|k| k[r])).then(|| v.lower_trimmed())
                };
                Ok::<_, TableError>((0..t.nrows()).map(cell).collect::<Vec<_>>())
            };
            let la = cells(self.a, &pred.l_attr, rows.map(|[l, _]| l))?;
            let rb = cells(self.b, &pred.r_attr, rows.map(|[_, r]| r))?;
            let coll = TokenizedCollection::build_with_interner(
                &la,
                &rb,
                tok.tokenizer().as_ref(),
                &mut self.interner,
            );
            self.collections.insert(key.clone(), coll);
        }
        Ok(&self.collections[&key])
    }

    /// What running `rule` as joins costs, in the one currency of pairs
    /// materialized and records tokenized: an exact-match predicate's
    /// violators are counted off its buckets, exactly, before a pair
    /// exists; a set-similarity predicate tokenizes both tables. A
    /// predicate nothing can violate (`threshold >= 1`) is free.
    fn cost(&mut self, rule: &BlockingRule) -> magellan_table::Result<usize> {
        let mut cost = 0;
        for pred in rule.violable() {
            cost += match pred.join(self.a, self.b)? {
                Join::Equal => {
                    let eq = self.equality(pred)?;
                    (0..eq.n_left()).map(|l| eq.partners(l).len()).sum()
                }
                Join::Set { .. } => self.a.nrows() + self.b.nrows(),
            };
        }
        Ok(cost)
    }

    /// The pairs `rule` keeps — the union of its predicates' violators
    /// (`x > threshold`), each a join over the normalized cells.
    fn survivors(&mut self, rule: &BlockingRule) -> magellan_table::Result<CandidateSet> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for pred in rule.violable() {
            let Join::Set { tok, measure, .. } = pred.join(self.a, self.b)? else {
                let eq = self.equality(pred)?;
                for l in 0..eq.n_left() {
                    pairs.extend(eq.partners(l).iter().map(|&r| (l as u32, r)));
                }
                continue;
            };
            // The join returns sim >= its threshold; the complement needs
            // the strict sim > t. A null or an empty token set is in no
            // join pair: its feature is NaN, and NaN fires.
            let t = pred.cutoff();
            let coll = self.collection(pred, tok, None)?;
            pairs.extend(
                join_tokenized(coll, measure(t.max(1e-6)))
                    .into_iter()
                    .filter(|p| p.sim > t)
                    .map(|p| (p.l as u32, p.r as u32)),
            );
        }
        Ok(CandidateSet::new(pairs))
    }

    /// The pairs of `cands` that no rule of `rules` drops, each predicate
    /// resolved once to a [`Slot`]. A set shape reads the collection a join
    /// of this call built, or else one built over only the records `cands`
    /// references. It is the last use of the joins: a collection built
    /// here holds no other record, so no join may read it.
    fn refine(
        mut self,
        rules: &[&BlockingRule],
        cands: &CandidateSet,
    ) -> magellan_table::Result<CandidateSet> {
        let mut referenced = [vec![false; self.a.nrows()], vec![false; self.b.nrows()]];
        for &(ra, rb) in cands.pairs() {
            referenced[0][ra as usize] = true;
            referenced[1][rb as usize] = true;
        }
        for pred in rules.iter().flat_map(|r| r.violable()) {
            if let Join::Set { tok, .. } = pred.join(self.a, self.b)? {
                self.collection(pred, tok, Some([&referenced[0], &referenced[1]]))?;
            }
        }
        let slots = rules
            .iter()
            .map(|r| r.violable().map(|p| self.slot(p)).collect())
            .collect::<magellan_table::Result<Vec<Vec<_>>>>()?;
        Ok(cands
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| {
                let (ra, rb) = (ra as usize, rb as usize);
                !slots
                    .iter()
                    .any(|rule| rule.iter().all(|(slot, t)| slot.fires(ra, rb, *t)))
            })
            .collect())
    }

    /// `pred` resolved for pairwise evaluation, with its cutoff; a set
    /// shape's collection must already be built.
    fn slot(&self, pred: &Predicate) -> magellan_table::Result<(Slot<'_>, f64)> {
        let (a, b) = (self.a, self.b);
        let slot = match pred.join(a, b)? {
            Join::Equal => Slot::Equal(
                a.col_view(a.schema().try_index_of(&pred.l_attr)?),
                b.col_view(b.schema().try_index_of(&pred.r_attr)?),
            ),
            Join::Set { tok, ids, .. } => {
                let key = (pred.l_attr.clone(), pred.r_attr.clone(), tok);
                Slot::Set(&self.collections[&key], ids)
            }
        };
        Ok((slot, pred.cutoff()))
    }
}

/// A predicate as refinement computes its feature on one pair.
enum Slot<'r> {
    /// Exact match of the two normalized cells.
    Equal(ColView<'r>, ColView<'r>),
    /// A set measure over the shape's collection, on its rarest-first ids:
    /// a bijection of interner ids, so every set and intersection size,
    /// and the value, is the one the interned sets give.
    Set(&'r TokenizedCollection, fn(&[u32], &[u32]) -> f64),
}

impl Slot<'_> {
    /// Does the predicate fire on pair `(ra, rb)` at cutoff `t`: is its
    /// feature NaN (a null, or an empty token set, as `Feature::compute`
    /// gives it) or at most `t`?
    fn fires(&self, ra: usize, rb: usize, t: f64) -> bool {
        let x = match *self {
            Slot::Equal(l, r) => match (l.get(ra), r.get(rb)) {
                (va, vb) if va.is_null() || vb.is_null() => f64::NAN,
                (va, vb) => f64::from(va.lower_trimmed() == vb.lower_trimmed()),
            },
            Slot::Set(coll, ids) => match (&coll.left[ra], &coll.right[rb]) {
                (sa, sb) if sa.is_empty() || sb.is_empty() => f64::NAN,
                (sa, sb) => ids(sa, sb),
            },
        };
        x.is_nan() || x <= t
    }
}

/// The executor [`RuleBasedBlocker::block`] had before it planned: every
/// rule run as joins, survivors intersected. Kept apart from [`RuleJoins`]
/// — its own attribute checks, kind-to-join table, collections, equality
/// blocker and `sim > t` filter — as the oracle the plan is tested against.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::blockers::AttrEquivalenceBlocker;

    /// The pairs whose feature is above the threshold (a negative one read
    /// as 0); a null or an empty token set, NaN, is in no join pair.
    fn violators(pred: &Predicate, a: &Table, b: &Table) -> magellan_table::Result<CandidateSet> {
        let t = pred.threshold.max(0.0);
        let (tok, measure) = match pred.kind {
            _ if t >= 1.0 => return Ok(CandidateSet::default()),
            FeatureKind::ExactMatch => {
                let (l_attr, r_attr) = (pred.l_attr.clone(), pred.r_attr.clone());
                return AttrEquivalenceBlocker { l_attr, r_attr }.block(a, b);
            }
            FeatureKind::Jaccard(tok) => (tok, SetSimMeasure::Jaccard(t.max(1e-6))),
            FeatureKind::Cosine(tok) => (tok, SetSimMeasure::Cosine(t.max(1e-6))),
            FeatureKind::Dice(tok) => (tok, SetSimMeasure::Dice(t.max(1e-6))),
            kind => panic!("the oracle runs joinable kinds only, not {kind:?}"),
        };
        let (la, rb) = (a.column_lower(&pred.l_attr)?, b.column_lower(&pred.r_attr)?);
        let coll = TokenizedCollection::build(&la, &rb, tok.tokenizer().as_ref());
        Ok(join_tokenized(&coll, measure)
            .into_iter()
            .filter(|p| p.sim > t)
            .map(|p| (p.l as u32, p.r as u32))
            .collect())
    }

    /// Survivors = ∩_rules ∪_predicates violators(predicate); the first
    /// unknown attribute in rule order is the error.
    pub(super) fn block_by_joins(
        rules: &[BlockingRule],
        a: &Table,
        b: &Table,
    ) -> magellan_table::Result<CandidateSet> {
        for pred in rules.iter().flat_map(|r| &r.predicates) {
            a.schema().try_index_of(&pred.l_attr)?;
            b.schema().try_index_of(&pred.r_attr)?;
        }
        let mut result: Option<CandidateSet> = None;
        for rule in rules {
            let mut kept = CandidateSet::default();
            for pred in &rule.predicates {
                kept = kept.union(&violators(pred, a, b)?);
            }
            result = Some(match result {
                None => kept,
                Some(acc) => acc.intersect(&kept),
            });
        }
        Ok(result.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::block_by_joins;
    use super::*;
    use magellan_features::Feature;
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
    /// every column, blank or padded strings, upper case, and letters
    /// whose lowercase is ASCII (U+212A KELVIN SIGN → `k`) or longer
    /// (U+0130 `İ` → `i` + U+0307).
    fn typed_table(name: &str, n: usize, rng: &mut StdRng) -> Table {
        const WORDS: [&str; 9] = [
            "oak",
            "elm",
            "st",
            "ave",
            "Main",
            "5th",
            "OAK",
            "\u{212A}ing",
            "\u{130}zmir",
        ];
        let rows = (0..n)
            .map(|i| {
                let cell = |rng: &mut StdRng, v: Value| {
                    if rng.gen_bool(0.15) {
                        Value::Null
                    } else {
                        v
                    }
                };
                let name = match rng.gen_range(0..9) {
                    0 => "   ".to_owned(),
                    1 => " Oak  ST ".to_owned(),
                    2 => ["WI", "Wi", " wi"][rng.gen_range(0..3)].to_owned(),
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

    /// A predicate of `kind` on a random column pair of [`TYPED_SCHEMA`]
    /// (with `unknown_attrs`, now and then a column neither table has). Half
    /// the time its threshold is the feature's own value on a random pair,
    /// so that pairs sit exactly at it.
    fn random_predicate(
        rng: &mut StdRng,
        (a, b): (&Table, &Table),
        kind: FeatureKind,
        unknown_attrs: bool,
    ) -> Predicate {
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
        let l_attr = attr(rng);
        // Mostly the same column on both sides, as learned rules have it;
        // sometimes a cross-typed pair.
        let r_attr = if rng.gen_bool(0.8) {
            l_attr.clone()
        } else {
            attr(rng)
        };
        let mut threshold = THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())];
        if rng.gen_bool(0.5) && a.nrows() > 0 && b.nrows() > 0 {
            let (ra, rb) = (rng.gen_range(0..a.nrows()), rng.gen_range(0..b.nrows()));
            if let (Ok(va), Ok(vb)) = (a.value_by_name(ra, &l_attr), b.value_by_name(rb, &r_attr)) {
                let x = Feature::new(&l_attr, &r_attr, kind).compute(va, vb);
                if !x.is_nan() {
                    threshold = x;
                }
            }
        }
        Predicate {
            l_attr,
            r_attr,
            kind,
            threshold,
        }
    }

    /// 1–4 rules of 1–3 [`random_predicate`]s, exact match as often as
    /// every set kind together.
    fn random_rules(rng: &mut StdRng, ab: (&Table, &Table), unknown: bool) -> Vec<BlockingRule> {
        (0..rng.gen_range(1..5))
            .map(|_| BlockingRule {
                predicates: (0..rng.gen_range(1..4))
                    .map(|_| {
                        let kind = JOINABLE[if rng.gen_bool(0.4) {
                            0
                        } else {
                            rng.gen_range(1..JOINABLE.len())
                        }];
                        random_predicate(rng, ab, kind, unknown)
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

    /// The per-pair reference: does `rule` drop pair `(ra, rb)`? Every
    /// predicate's feature, as `Feature::compute` gives it, is NaN or at
    /// most the threshold (a negative one runs as 0).
    fn fires(rule: &BlockingRule, a: &Table, ra: usize, b: &Table, rb: usize) -> bool {
        rule.predicates.iter().all(|p| {
            let x = Feature::new(&p.l_attr, &p.r_attr, p.kind).compute(
                a.value_by_name(ra, &p.l_attr).unwrap(),
                b.value_by_name(rb, &p.r_attr).unwrap(),
            );
            x.is_nan() || x <= p.threshold.max(0.0)
        })
    }

    /// The pairs of the cross product on which no rule [`fires`].
    fn survivors_by_fires(rules: &[BlockingRule], a: &Table, b: &Table) -> CandidateSet {
        cross(a, b)
            .pairs()
            .iter()
            .copied()
            .filter(|&(ra, rb)| {
                !rules
                    .iter()
                    .any(|r| fires(r, a, ra as usize, b, rb as usize))
            })
            .collect()
    }

    /// Every kind a predicate can run.
    const JOINABLE: [FeatureKind; 10] = [
        FeatureKind::ExactMatch,
        FeatureKind::Jaccard(TokSpec::Word),
        FeatureKind::Cosine(TokSpec::Word),
        FeatureKind::Dice(TokSpec::Word),
        FeatureKind::Jaccard(TokSpec::Qgram(2)),
        FeatureKind::Cosine(TokSpec::Qgram(2)),
        FeatureKind::Dice(TokSpec::Qgram(2)),
        FeatureKind::Jaccard(TokSpec::Qgram(3)),
        FeatureKind::Cosine(TokSpec::Qgram(3)),
        FeatureKind::Dice(TokSpec::Qgram(3)),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// A rule computes the feature it was learned on: for every
        /// joinable kind, alone and in random conjunctions, `block`,
        /// `refine` over the cross product and the per-pair reference keep
        /// exactly the pairs on which no rule fires — on cased, padded,
        /// blank, null, typed and non-ASCII cells, at thresholds equal to
        /// feature values.
        #[test]
        fn block_and_refine_keep_what_the_features_keep(seed in any::<u64>()) {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFEA7);
            let mut rule_sets: Vec<Vec<BlockingRule>> = JOINABLE
                .iter()
                .map(|&kind| {
                    let p = random_predicate(&mut rng, (&a, &b), kind, false);
                    vec![BlockingRule { predicates: vec![p] }]
                })
                .collect();
            rule_sets.push(random_rules(&mut rng, (&a, &b), false));
            for rules in rule_sets {
                let want = survivors_by_fires(&rules, &a, &b);
                let blocker = RuleBasedBlocker::new(rules);
                prop_assert_eq!(&blocker.block(&a, &b).unwrap(), &want, "{}", blocker.pretty());
                prop_assert_eq!(
                    &blocker.refine(&cross(&a, &b), &a, &b).unwrap(),
                    &want,
                    "{}",
                    blocker.pretty()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The plan, the all-joins executor, prepared refinement of the
        /// cross product and the per-pair reference are one function — and
        /// the three executors fail alike, at the first unknown attribute
        /// in rule order.
        #[test]
        fn planned_block_equals_the_join_oracle_and_refinement(seed in any::<u64>()) {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
            let blocker = RuleBasedBlocker::new(random_rules(&mut rng, (&a, &b), true));
            let planned = blocker.block(&a, &b);
            let joined = block_by_joins(&blocker.rules, &a, &b);
            match (planned, joined) {
                (Ok(planned), Ok(joined)) => {
                    prop_assert_eq!(&planned, &joined, "{}", blocker.pretty());
                    prop_assert_eq!(&planned, &blocker.refine(&cross(&a, &b), &a, &b).unwrap());
                    prop_assert_eq!(&planned, &survivors_by_fires(&blocker.rules, &a, &b));
                }
                (Err(planned), Err(joined)) => {
                    prop_assert_eq!(planned.to_string(), joined.to_string());
                    let refined = blocker.refine(&cross(&a, &b), &a, &b).unwrap_err();
                    prop_assert_eq!(planned.to_string(), refined.to_string());
                    let first_unknown = blocker
                        .rules
                        .iter()
                        .flat_map(|r| &r.predicates)
                        .flat_map(|p| [(&a, &p.l_attr), (&b, &p.r_attr)])
                        .find_map(|(t, attr)| t.schema().try_index_of(attr).err());
                    prop_assert_eq!(planned.to_string(), first_unknown.unwrap().to_string());
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
            let mut rules = random_rules(&mut rng, (&a, &b), false);
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
            predicates: vec![pred("zip", FeatureKind::ExactMatch, 0.5)],
        };
        assert!(
            !fires(&rule, &a, 0, &b, 1),
            "equal zips must not be dropped"
        );
        assert!(fires(&rule, &a, 0, &b, 0));
        assert!(fires(&rule, &a, 2, &b, 2), "a null zip shows no similarity");
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let kept = CandidateSet::new(vec![(0, 1), (1, 0)]);
        assert_eq!(blocker.block(&a, &b).unwrap(), kept);
        assert_eq!(blocker.refine(&cross(&a, &b), &a, &b).unwrap(), kept);
    }

    /// A negative threshold runs as 0 on every path, as the join executor
    /// ran it: `refine` keeps no pair of similarity 0 that `block` drops.
    #[test]
    fn negative_thresholds_block_as_zero() {
        for seed in 0..40 {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rules = random_rules(&mut rng, (&a, &b), false);
            for p in rules.iter_mut().flat_map(|r| &mut r.predicates) {
                if p.threshold == 0.0 {
                    p.threshold = -0.5;
                }
            }
            let blocker = RuleBasedBlocker::new(rules.clone());
            let got = blocker.block(&a, &b).unwrap();
            assert_eq!(got, block_by_joins(&rules, &a, &b).unwrap(), "seed {seed}");
            let refined = blocker.refine(&cross(&a, &b), &a, &b).unwrap();
            assert_eq!(got, refined, "seed {seed}");
        }
    }

    /// Two small book tables; a2's isbn is null.
    fn tables() -> (Table, Table) {
        let table = |name: &str, rows: [[Option<&str>; 3]; 3]| {
            let schema = [
                ("id", Dtype::Str),
                ("isbn", Dtype::Str),
                ("title", Dtype::Str),
            ];
            let rows = rows
                .iter()
                .map(|r| r.iter().map(|&c| Value::from(c)).collect())
                .collect();
            Table::from_rows(name, &schema, rows).unwrap()
        };
        let a = table(
            "A",
            [
                [
                    Some("a0"),
                    Some("978-0262033848"),
                    Some("introduction to algorithms"),
                ],
                [Some("a1"), Some("978-1491927083"), Some("programming rust")],
                [Some("a2"), None, Some("mystery book")],
            ],
        );
        let b = table(
            "B",
            [
                [
                    Some("b0"),
                    Some("978-0262033848"),
                    Some("intro to algorithms"),
                ],
                [Some("b1"), Some("978-3161484100"), Some("unrelated tome")],
                [
                    Some("b2"),
                    Some("978-1491927083"),
                    Some("programming rust 2nd"),
                ],
            ],
        );
        (a, b)
    }

    /// A predicate on the same attribute of both tables.
    fn pred(attr: &str, kind: FeatureKind, threshold: f64) -> Predicate {
        Predicate {
            l_attr: attr.into(),
            r_attr: attr.into(),
            kind,
            threshold,
        }
    }

    fn isbn_rule() -> BlockingRule {
        BlockingRule {
            predicates: vec![pred("isbn", FeatureKind::ExactMatch, 0.5)],
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
            predicates: vec![pred("title", FeatureKind::Jaccard(TokSpec::Word), 0.3)],
        };
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let via_join = blocker.block(&a, &b).unwrap();
        // Reference: cross product refined pairwise.
        let all = cross(&a, &b);
        let via_refine = blocker.refine(&all, &a, &b).unwrap();
        assert_eq!(via_join, via_refine);
        assert!(via_join.contains((1, 2)), "programming rust pair survives");

        // And on `Int`, `Float`, `Bool` and null cells, one predicate per
        // column and feature family.
        for seed in 0..20 {
            let (a, b) = typed_tables(seed);
            for (attr, kind, threshold) in [
                ("zip", FeatureKind::ExactMatch, 0.5),
                ("zip", FeatureKind::Jaccard(TokSpec::Qgram(3)), 0.4),
                ("score", FeatureKind::Dice(TokSpec::Word), 0.0),
                ("flag", FeatureKind::Cosine(TokSpec::Qgram(3)), 0.3),
                ("name", FeatureKind::Jaccard(TokSpec::Word), 0.3),
            ] {
                let blocker = RuleBasedBlocker::new(vec![BlockingRule {
                    predicates: vec![pred(attr, kind, threshold)],
                }]);
                assert_eq!(
                    blocker.block(&a, &b).unwrap(),
                    blocker.refine(&cross(&a, &b), &a, &b).unwrap(),
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
                pred("isbn", FeatureKind::ExactMatch, 0.5),
                pred("title", FeatureKind::Jaccard(TokSpec::Word), 0.3),
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
            predicates: vec![pred("title", FeatureKind::Jaccard(TokSpec::Word), 0.2)],
        };
        let blocker = RuleBasedBlocker::new(vec![isbn_rule(), title_rule]);
        let c = blocker.block(&a, &b).unwrap();
        // Must pass both: equal isbn AND title jaccard > 0.2.
        for &(ra, rb) in c.pairs() {
            let ia = a
                .value_by_name(ra as usize, "isbn")
                .unwrap()
                .display_string();
            let ib = b
                .value_by_name(rb as usize, "isbn")
                .unwrap()
                .display_string();
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
                pred("isbn", FeatureKind::ExactMatch, 0.5),
                pred("title", FeatureKind::Jaccard(TokSpec::Qgram(3)), 0.31),
            ],
        };
        let s = rule.pretty();
        assert!(s.contains("exact_match(A.isbn, B.isbn) <= 0.500"), "{s}");
        assert!(
            s.contains("jaccard(3gram(A.title), 3gram(B.title)) <= 0.310"),
            "{s}"
        );
        assert!(s.ends_with("-> No"));
    }

    /// A kind with no join is refused by both executors, before any pair.
    #[test]
    fn a_kind_with_no_join_is_refused() {
        let (a, b) = tables();
        assert!(JOINABLE.iter().all(|&k| joinable(k)));
        for kind in [
            FeatureKind::LevSim,
            FeatureKind::OverlapCoeff(TokSpec::Word),
        ] {
            assert!(!joinable(kind));
            let mut rule = isbn_rule();
            rule.predicates[0].kind = kind;
            let blocker = RuleBasedBlocker::new(vec![rule]);
            let err = blocker.block(&a, &b).unwrap_err().to_string();
            assert!(err.contains("has no join"), "{err}");
            let refined = blocker.refine(&cross(&a, &b), &a, &b).unwrap_err();
            assert_eq!(refined.to_string(), err);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn empty_rule_list_panics() {
        RuleBasedBlocker::new(vec![]);
    }

    /// Refinement is exactly the per-pair reference [`fires`], including
    /// null / non-string values and empty tokenizations, over the cross
    /// product and over random parts of it (whose unreferenced records its
    /// collections hold as null); an unknown attribute is an error to both
    /// executors.
    #[test]
    fn prepared_refine_matches_per_pair_fires() {
        let (a, b) = tables();
        let rules = vec![
            BlockingRule {
                predicates: vec![
                    pred("isbn", FeatureKind::ExactMatch, 0.5),
                    pred("title", FeatureKind::Jaccard(TokSpec::Word), 0.3),
                ],
            },
            BlockingRule {
                predicates: vec![
                    pred("title", FeatureKind::Cosine(TokSpec::Qgram(3)), 0.25),
                    Predicate {
                        l_attr: "isbn".into(),
                        r_attr: "title".into(),
                        kind: FeatureKind::Dice(TokSpec::Word),
                        threshold: 0.9,
                    },
                ],
            },
        ];
        let mut blocker = RuleBasedBlocker::new(rules);
        let all = cross(&a, &b);
        let prepared = blocker.refine(&all, &a, &b).unwrap();
        assert_eq!(prepared, survivors_by_fires(&blocker.rules, &a, &b));

        blocker.rules[1].predicates[1].l_attr = "nope".into();
        let err = blocker.refine(&all, &a, &b).unwrap_err().to_string();
        assert!(err.contains("nope"), "{err}");
        assert_eq!(err, blocker.block(&a, &b).unwrap_err().to_string());

        // Typed and null cells: both read the display form.
        for seed in 0..40 {
            let (a, b) = typed_tables(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let blocker = RuleBasedBlocker::new(random_rules(&mut rng, (&a, &b), false));
            let all = cross(&a, &b);
            let refined = blocker.refine(&all, &a, &b).unwrap();
            assert_eq!(
                refined,
                survivors_by_fires(&blocker.rules, &a, &b),
                "seed {seed}: {}",
                blocker.pretty()
            );
            // A part S of the cross product: `refine(S)` is the reference
            // on S, which `refined ∩ S` is, pair by pair.
            for share in [0.05, 0.2, 0.5] {
                let mut part = all.pairs().to_vec();
                part.retain(|_| rng.gen_bool(share));
                let part = CandidateSet::new(part);
                let got = blocker.refine(&part, &a, &b).ok();
                assert_eq!(got, Some(refined.intersect(&part)), "seed {seed}: {share}");
            }
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
            predicates: vec![pred("title", FeatureKind::Jaccard(TokSpec::Word), thr)],
        };
        let blocker = RuleBasedBlocker::new(vec![rule(0.2), rule(0.4)]);
        let c = blocker.block(&a, &b).unwrap();
        // Reference: cross product refined pairwise.
        let all = cross(&a, &b);
        assert_eq!(c, blocker.refine(&all, &a, &b).unwrap());
    }

    #[test]
    fn threshold_at_one_drops_everything() {
        let (a, b) = tables();
        let rule = BlockingRule {
            predicates: vec![pred("isbn", FeatureKind::ExactMatch, 1.0)],
        };
        let c = RuleBasedBlocker::new(vec![rule]).block(&a, &b).unwrap();
        assert!(c.is_empty());
    }
}
