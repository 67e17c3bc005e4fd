//! The forest's inference layout: every tree of a trained
//! [`RandomForestClassifier`] in one flat node array.
//!
//! [`crate::tree`] stores a trained tree as an arena of [`Node`] enums —
//! the right representation for *walking structure* (Falcon extracts
//! blocking rules from root→leaf paths, `forest v1` text is written from
//! it), but a poor one for *scoring*: every step matches on a 40-byte
//! enum and chases two unrelated child indices.
//!
//! [`FlatForest`] re-lays the trees into one array of 16-byte nodes
//! shared by every tree in the forest; node `i` holds
//!
//! * `feat` — the feature index it tests, or [`LEAF`] for a leaf;
//! * `thresh` — the split threshold, or (for a leaf) the leaf's
//!   **precomputed value**;
//! * `left` — the slot of its left child; the right child is **always
//!   `left + 1`**, because sibling slots are allocated together.
//!
//! A forest keeps two layouts of the same trees, which differ only in
//! their leaf values. The *probability layout* holds each leaf's
//! Laplace-smoothed probability `(n_pos+1)/(n+2)`. The *vote layout* holds
//! its tree's vote: 1.0 when that probability is at least 0.5, else 0.0.
//! A layout's score is its leaves added in tree order over the tree
//! count, so the vote layout's score is the fraction of trees voting
//! match (Falcon's α test) bit for bit — its sums are small integers,
//! which floating-point addition keeps exact — and every walk below
//! serves both.
//!
//! Beside the nodes, `ranges[i]` holds the smallest and largest leaf
//! value of the subtree under node `i` (a leaf's is its value twice),
//! read only when a lazy walk parks, resumes or adds up its bound.
//! Each tree is laid out depth first, a split's two children side by
//! side, so a path that keeps going left reads slots two apart.
//!
//! One step of every walk goes to `left` if `x.is_nan() || x <=
//! thresh`, else to `left + 1`: missing values route **left**, as in the
//! arena. The test is written so that it compiles to a branch, not to a
//! branchless `left + (x > thresh)`. Most EM candidates take the same
//! path, so a predicted branch lets the processor load the next node and
//! start the next feature before this one's value is known; the
//! branchless step cost `match_heavy` about 5 % of `cpu_s` (EXPERIMENTS
//! §A26).
//!
//! Both layouts are built once, when the forest is constructed, and they
//! are the only ones the forest is scored through:
//! [`FlatForest::predict_proba`], [`FlatForest::predict_proba_batch`],
//! [`FlatForest::region_max`] and the lazy
//! [`Classifier::decide`](crate::model::Classifier::decide) all walk a
//! layout with one `descend`, and a layout is itself a [`Classifier`] —
//! the vote layout at threshold α is Falcon's matcher. The digests in
//! `crates/ml/tests/forest_flat_invariance.rs` pin what they answer, and
//! the suite compares every score with a walk over the arena.

use std::cell::Cell;

use magellan_par::ParConfig;

use crate::forest::RandomForestClassifier;
use crate::model::Classifier;
use crate::tree::{DecisionTreeClassifier, Node};

/// Sentinel in `feat` marking a leaf slot.
pub const LEAF: u32 = u32::MAX;

/// A random forest laid out for inference: one contiguous node array
/// shared by all trees, siblings adjacent (`right == left + 1`).
#[derive(Debug, Clone)]
pub struct FlatForest {
    nodes: Vec<FlatNode>,
    /// Per node, the smallest and largest leaf value of its subtree.
    ranges: Vec<(f64, f64)>,
    /// Per tree, in forest order.
    roots: Vec<Root>,
}

/// One node of the layout.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Split threshold; a leaf's value.
    thresh: f64,
    /// Tested feature; [`LEAF`] for a leaf.
    feat: u32,
    /// Slot of the left child (right = left + 1); 0 for a leaf.
    left: u32,
}

/// A tree's root slot, its leaf range, and the sum of the leaf ranges of
/// the trees after it (added right to left, so only an estimate of a
/// left-to-right sum).
#[derive(Debug, Clone, Copy)]
struct Root {
    slot: u32,
    range: (f64, f64),
    after: (f64, f64),
}

thread_local! {
    /// [`Classifier::decide`]'s per-tree cursors, reused from one pair to
    /// the next so that deciding a pair allocates nothing.
    static CURSORS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

impl FlatForest {
    /// The forest's own probability layout (a copy of what the forest is
    /// scored through).
    pub fn from_forest(forest: &RandomForestClassifier) -> FlatForest {
        forest.flat().clone()
    }

    /// Lay out `trees` in order, each leaf holding `leaf(n, n_pos)` of its
    /// arena leaf: `leaf_proba` for the probability layout, `leaf_vote`
    /// for the vote layout, the expressions the arena's own walk uses.
    pub(crate) fn new(
        trees: &[DecisionTreeClassifier],
        leaf: fn(usize, usize) -> f64,
    ) -> FlatForest {
        let total: usize = trees.iter().map(|t| t.nodes().len()).sum();
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(total),
            ranges: vec![(0.0, 0.0); total],
            roots: Vec::with_capacity(trees.len()),
        };
        let slots: Vec<usize> = trees
            .iter()
            .map(|tree| flat.push_tree(tree, leaf))
            .collect();
        // Children come after their parent, so one backward pass sees
        // both children of a split before the split.
        for i in (0..total).rev() {
            let node = flat.nodes[i];
            flat.ranges[i] = if node.feat == LEAF {
                (node.thresh, node.thresh)
            } else {
                let l = node.left as usize;
                let (a, b) = (flat.ranges[l], flat.ranges[l + 1]);
                (a.0.min(b.0), a.1.max(b.1))
            };
        }
        let mut after = (0.0, 0.0);
        for &slot in slots.iter().rev() {
            let range = flat.ranges[slot];
            flat.roots.push(Root {
                slot: slot as u32,
                range,
                after,
            });
            after = (after.0 + range.0, after.1 + range.1);
        }
        flat.roots.reverse();
        flat
    }

    /// Depth-first re-layout of one tree into the shared array; returns
    /// its root slot. Sibling slots are allocated together, which is what
    /// makes `right == left + 1` a structural invariant rather than a
    /// convention.
    fn push_tree(&mut self, tree: &DecisionTreeClassifier, leaf: fn(usize, usize) -> f64) -> usize {
        let nodes = tree.nodes();
        let root = self.alloc();
        let mut stack = vec![(0usize, root)];
        while let Some((arena, slot)) = stack.pop() {
            match nodes[arena] {
                Node::Leaf { n, n_pos } => self.nodes[slot].thresh = leaf(n, n_pos),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    assert!(
                        (feature as u64) < LEAF as u64,
                        "feature index collides with sentinel"
                    );
                    let l = self.alloc();
                    let r = self.alloc();
                    debug_assert_eq!(r, l + 1);
                    self.nodes[slot] = FlatNode {
                        thresh: threshold,
                        feat: feature as u32,
                        left: l as u32,
                    };
                    stack.push((right, r));
                    stack.push((left, l));
                }
            }
        }
        root
    }

    fn alloc(&mut self) -> usize {
        self.nodes.push(FlatNode {
            thresh: 0.0,
            feat: LEAF,
            left: 0,
        });
        self.nodes.len() - 1
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Walk down from slot `from` until a leaf, or until a split tests a
    /// feature `j` with `deferred[j]` set (indices past the slice are not
    /// deferred); returns the slot reached and its subtree's leaf range.
    /// Only the features tested on the way are asked for. A leaf's value
    /// is read from its own slot; the range table only where the walk
    /// parks.
    #[inline]
    fn descend(
        &self,
        from: usize,
        deferred: &[bool],
        mut feat: impl FnMut(usize) -> f64,
    ) -> (usize, (f64, f64)) {
        let mut i = from;
        loop {
            let node = &self.nodes[i];
            if node.feat == LEAF {
                return (i, (node.thresh, node.thresh));
            }
            if deferred.get(node.feat as usize) == Some(&true) {
                return (i, self.ranges[i]);
            }
            let x = feat(node.feat as usize);
            let left = node.left as usize;
            i = if x.is_nan() || x <= node.thresh {
                left
            } else {
                left + 1
            };
        }
    }

    /// Tree `t`'s leaf value for `row`.
    #[inline]
    fn leaf(&self, t: &Root, row: &[f64]) -> f64 {
        let (_, (p, _)) = self.descend(t.slot as usize, &[], |j| row[j]);
        p
    }

    /// Mean of the per-tree leaf values, summed in tree order: soft voting
    /// over the Laplace-smoothed probabilities in the probability layout,
    /// the fraction of trees voting match in the vote layout.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let sum: f64 = self.roots.iter().map(|t| self.leaf(t, row)).sum();
        sum / self.roots.len() as f64
    }

    /// Batch scoring over the `magellan-par` pool:
    /// `out[i] == self.predict_proba(&rows[i])` bit-identically for any
    /// worker count. Within a chunk the loop runs **tree-outer,
    /// row-inner**, keeping one tree's nodes hot across the whole chunk;
    /// per-row sums still accumulate in tree order, so the arithmetic is
    /// exactly the per-row walk's.
    pub fn predict_proba_batch(&self, rows: &[Vec<f64>], cfg: &ParConfig) -> Vec<f64> {
        let (chunks, _stats) = magellan_par::chunk_map(rows.len(), cfg, |range| {
            let chunk = &rows[range];
            let mut acc = vec![0.0f64; chunk.len()];
            for t in &self.roots {
                for (out, row) in acc.iter_mut().zip(chunk) {
                    *out += self.leaf(t, row);
                }
            }
            let n = self.roots.len() as f64;
            for out in &mut acc {
                *out /= n;
            }
            acc
        });
        chunks.into_iter().flatten().collect()
    }

    /// The largest score [`FlatForest::predict_proba`] gives a row whose
    /// feature `j` is NaN or at most `upper[j]` wherever that is `Some`
    /// (indices past the slice, and `None`, are unconstrained): per tree,
    /// the largest leaf reachable, added in tree order and divided by the
    /// tree count, as `predict_proba` adds and divides.
    ///
    /// At a split on `j` with threshold `t` the left child is always
    /// reachable — a value at most `t`, or NaN, goes left — and the right
    /// child only if `j` is unconstrained or `upper[j] > t`, strictly,
    /// since a row at most `upper[j] <= t` goes left. Each tree's leaf is
    /// at most its reachable maximum, and float addition and division by a
    /// positive count are monotone in each argument, so `predict_proba(row)
    /// <= region_max(upper)` holds bit for bit for every such row
    /// (`crates/ml/tests/region_bound.rs`). A NaN bound admits no number,
    /// only NaN, which goes left.
    pub fn region_max(&self, upper: &[Option<f64>]) -> f64 {
        let mut stack = Vec::new();
        let sum: f64 = self
            .roots
            .iter()
            .map(|root| {
                let mut max = f64::NEG_INFINITY;
                stack.push(root.slot as usize);
                while let Some(i) = stack.pop() {
                    let node = &self.nodes[i];
                    if node.feat == LEAF {
                        max = max.max(node.thresh);
                    } else if self.ranges[i].1 > max {
                        let left = node.left as usize;
                        stack.push(left);
                        if upper
                            .get(node.feat as usize)
                            .copied()
                            .flatten()
                            .is_none_or(|u| u > node.thresh)
                        {
                            stack.push(left + 1);
                        }
                    }
                }
                max
            })
            .sum();
        sum / self.roots.len() as f64
    }

    /// [`Classifier::decide`] with `cursors[t]` (one per tree) holding the
    /// slot tree `t` stands at.
    ///
    /// The exact bound is added up only when an estimate of it lies within
    /// `margin` of the threshold. The estimate adds the same at most `n`
    /// terms of at most 1 as the bound, in another order or through at most
    /// `4n` updates, so the two differ by less than `margin`, and farther
    /// out the exact check could not have decided. A wrong estimate could
    /// only delay a stop: every decision is taken on the exact bound.
    fn decide_parking(
        &self,
        threshold: f64,
        deferred: &[bool],
        feat: &mut dyn FnMut(usize) -> f64,
        walked: &mut u64,
        cursors: &mut [u32],
    ) -> bool {
        let n = self.roots.len() as f64;
        let at_threshold = threshold * n;
        let margin = 16.0 * f64::EPSILON * (n + 1.0) * (n + 1.0);
        let open = |(lo, hi): (f64, f64)| lo < at_threshold - margin && hi >= at_threshold + margin;
        let decided = |(lo, hi): (f64, f64)| {
            if lo / n >= threshold {
                Some(true)
            } else if hi / n < threshold {
                Some(false)
            } else {
                None
            }
        };

        // Every tree in order, each down to its leaf or its first deferred
        // split. `prefix` adds what the trees so far stand at, left to
        // right; the trees after stand at their roots.
        let mut prefix = (0.0, 0.0);
        for (t, root) in self.roots.iter().enumerate() {
            let (at, (min, max)) = self.descend(root.slot as usize, deferred, &mut *feat);
            cursors[t] = at as u32;
            *walked += 1;
            prefix = (prefix.0 + min, prefix.1 + max);
            if open((prefix.0 + root.after.0, prefix.1 + root.after.1)) {
                continue;
            }
            let bound = self.roots[t + 1..].iter().fold(prefix, |(lo, hi), rest| {
                (lo + rest.range.0, hi + rest.range.1)
            });
            if let Some(decided) = decided(bound) {
                return decided;
            }
        }

        // The parked trees, in order. A subtree whose leaves all agree
        // already stands for its value. `estimate` follows the bound by
        // each resumed tree's change in range.
        let mut estimate = prefix;
        for t in 0..cursors.len() {
            let (from_lo, from_hi) = self.range(cursors[t] as usize);
            if from_lo == from_hi {
                continue;
            }
            let (at, (to_lo, to_hi)) = self.descend(cursors[t] as usize, &[], &mut *feat);
            cursors[t] = at as u32;
            estimate = (
                estimate.0 + (to_lo - from_lo),
                estimate.1 + (to_hi - from_hi),
            );
            if open(estimate) {
                continue;
            }
            if let Some(decided) = decided(self.bound(cursors)) {
                return decided;
            }
        }
        // Every walk is finished and `lo == hi` is the sum, so neither test
        // holding means the threshold is NaN; answer as the eager
        // comparison does.
        self.bound(cursors).0 / n >= threshold
    }

    /// The bound on `predict_proba`'s sum: the ranges of the slots the
    /// trees stand at, added in tree order.
    fn bound(&self, cursors: &[u32]) -> (f64, f64) {
        cursors.iter().fold((0.0, 0.0), |(lo, hi), &at| {
            let (min, max) = self.range(at as usize);
            (lo + min, hi + max)
        })
    }

    /// The leaf range of the subtree under slot `at`; a leaf's from its
    /// own slot, which the walk that ended there has just read.
    fn range(&self, at: usize) -> (f64, f64) {
        let node = &self.nodes[at];
        if node.feat == LEAF {
            (node.thresh, node.thresh)
        } else {
            self.ranges[at]
        }
    }
}

impl Classifier for FlatForest {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        FlatForest::predict_proba(self, row)
    }

    /// [`FlatForest::predict_proba`]` >= threshold`, reading the row through
    /// `feat`: walks trees in order, asking only for the features on each
    /// tree's path, and stops as soon as the trees still unwalked cannot
    /// move the decision. A tree whose next split tests a `deferred`
    /// feature is *parked* at that split; the parked trees are resumed, in
    /// tree order, only if no bound has decided the pair after the last
    /// tree. `walked` counts each tree visited once, parked or not.
    ///
    /// The stop is exact, not approximate. `predict_proba` adds the leaf
    /// values left to right and divides by the tree count. The bound `lo`
    /// repeats those additions with, in each tree's place, its leaf value
    /// if its walk is finished, else the smallest leaf value of the
    /// subtree it stands at (the root's for a tree not yet visited); `hi`
    /// with the largest. Each stand-in is at most
    /// (least) the leaf the tree would reach, and floating-point addition
    /// and division by a positive count are monotone in each argument, so
    /// `lo / n ≤ predict_proba ≤ hi / n` holds bit for bit. Once every
    /// walk is finished both bounds are the sum itself. With no feature
    /// deferred no tree parks, and the walk is the plain in-order one.
    fn decide(
        &self,
        threshold: f64,
        deferred: &[bool],
        feat: &mut dyn FnMut(usize) -> f64,
        walked: &mut u64,
    ) -> bool {
        let mut cursors = CURSORS.take();
        cursors.clear();
        cursors.resize(self.roots.len(), 0);
        let decided = self.decide_parking(threshold, deferred, feat, walked, &mut cursors);
        CURSORS.set(cursors);
        decided
    }

    /// The largest score a row under `upper` can reach
    /// ([`FlatForest::region_max`]).
    fn region_max(&self, upper: &[Option<f64>]) -> Option<f64> {
        Some(FlatForest::region_max(self, upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestLearner;
    use crate::model::Classifier;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob_data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::with_dims(3);
        for _ in 0..n {
            let pos: bool = rng.gen_bool(0.5);
            let c = if pos { 1.0 } else { -1.0 };
            let row = [
                c + rng.gen_range(-0.9..0.9),
                c + rng.gen_range(-0.9..0.9),
                rng.gen_range(-1.0..1.0),
            ];
            d.push(&row, pos);
        }
        d
    }

    #[test]
    fn layout_has_adjacent_siblings_and_same_node_count() {
        let d = blob_data(11, 120);
        let forest = RandomForestLearner {
            n_trees: 5,
            ..Default::default()
        }
        .fit_forest(&d);
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.roots.len(), 5);
        let arena_total: usize = forest.trees().iter().map(|t| t.nodes().len()).sum();
        assert_eq!(flat.n_nodes(), arena_total);
        // Structural invariant: every split's children are adjacent and
        // strictly after it, and its range spans theirs.
        for i in 0..flat.n_nodes() {
            if flat.nodes[i].feat != LEAF {
                let l = flat.nodes[i].left as usize;
                assert!(l > i);
                assert!(l + 1 < flat.n_nodes());
                let (lo, hi) = flat.ranges[i];
                assert_eq!(lo, flat.ranges[l].0.min(flat.ranges[l + 1].0));
                assert_eq!(hi, flat.ranges[l].1.max(flat.ranges[l + 1].1));
            }
        }
    }

    #[test]
    fn flat_scores_match_tree_walk_bitwise() {
        let d = blob_data(12, 150);
        let forest = RandomForestLearner {
            n_trees: 9,
            ..Default::default()
        }
        .fit_forest(&d);
        let trees = forest.trees();
        for i in 0..d.len() {
            let row = d.row(i);
            let sum: f64 = trees.iter().map(|t| t.predict_proba(row)).sum();
            assert_eq!(forest.predict_proba(row).to_bits(), (sum / 9.0).to_bits());
            let votes = trees.iter().filter(|t| t.predict(row)).count();
            assert_eq!(
                forest.vote_fraction(row).to_bits(),
                (votes as f64 / 9.0).to_bits()
            );
        }
    }

    #[test]
    fn nan_routes_left_like_the_tree_walk() {
        let d = Dataset::from_rows(
            &[vec![0.1], vec![0.2], vec![0.8], vec![0.9]],
            &[false, false, true, true],
        );
        let forest = RandomForestLearner {
            n_trees: 3,
            bootstrap: false,
            ..Default::default()
        }
        .fit_forest(&d);
        for row in [[f64::NAN], [0.15], [0.85]] {
            let sum: f64 = forest.trees().iter().map(|t| t.predict_proba(&row)).sum();
            assert_eq!(forest.predict_proba(&row).to_bits(), (sum / 3.0).to_bits());
        }
        assert_eq!(
            forest.predict_proba(&[f64::NAN]),
            forest.predict_proba(&[0.15])
        );
    }

    #[test]
    fn rescore_dirty_matches_full_batch_bitwise() {
        // A stream session rescores only its dirty pairs' rows; each score
        // must equal that row's score in a full serial batch.
        let d = blob_data(21, 160);
        let forest = RandomForestLearner {
            n_trees: 7,
            ..Default::default()
        }
        .fit_forest(&d);
        let flat = FlatForest::from_forest(&forest);
        let all_rows: Vec<Vec<f64>> = (0..d.len()).map(|i| d.row(i).to_vec()).collect();
        let full = flat.predict_proba_batch(&all_rows, &ParConfig::serial());
        // Dirty subset: every third row.
        let dirty: Vec<usize> = (0..d.len()).step_by(3).collect();
        let dirty_rows: Vec<Vec<f64>> = dirty.iter().map(|&i| all_rows[i].clone()).collect();
        for w in [1, 4] {
            let scored = flat.predict_proba_batch(&dirty_rows, &ParConfig::workers(w));
            assert_eq!(scored.len(), dirty.len());
            for (&i, p) in dirty.iter().zip(&scored) {
                assert_eq!(p.to_bits(), full[i].to_bits(), "w={w} diverged");
            }
        }
    }

    #[test]
    fn single_leaf_tree_flattens() {
        let d = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[true, true]);
        let forest = RandomForestLearner {
            n_trees: 2,
            ..Default::default()
        }
        .fit_forest(&d);
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.n_nodes(), 2);
        assert_eq!(flat.predict_proba(&[5.0]), 0.75);
    }
}
