//! CART decision trees.
//!
//! The tree structure is deliberately public ([`Node`], arena-indexed):
//! Falcon (Fig. 4 of the paper) extracts candidate *blocking rules* from
//! root→"No"-leaf paths of forest trees, so downstream crates need to walk
//! trees, not just call `predict`.
//!
//! A tree scores itself through [`DecisionTreeClassifier::leaf_for`], a
//! plain walk over the arena; a forest scores its trees through its flat
//! layout ([`crate::forest_flat`]).
//!
//! Missing values: a `NaN` feature value routes to the **left** (low)
//! branch, both during training (NaN sorts as −∞) and prediction. In EM
//! feature vectors a missing similarity behaves like a low similarity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::model::{Classifier, Learner};

/// Impurity criterion for split selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitCriterion {
    /// Gini impurity `2p(1−p)` (scaled; constants don't affect argmax).
    #[default]
    Gini,
    /// Shannon entropy.
    Entropy,
}

impl SplitCriterion {
    fn impurity(&self, n_pos: usize, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let p = n_pos as f64 / n as f64;
        match self {
            SplitCriterion::Gini => 2.0 * p * (1.0 - p),
            SplitCriterion::Entropy => {
                let mut h = 0.0;
                for q in [p, 1.0 - p] {
                    if q > 0.0 {
                        h -= q * q.log2();
                    }
                }
                h
            }
        }
    }
}

/// One node of a trained tree, arena-indexed (root at index 0).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node holding its training-label counts.
    Leaf {
        /// Training examples that reached the leaf.
        n: usize,
        /// Positive examples among them.
        n_pos: usize,
    },
    /// Internal test `x[feature] <= threshold` (NaN goes left).
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold (midpoint of the training gap).
        threshold: f64,
        /// Arena index of the low/left child.
        left: usize,
        /// Arena index of the high/right child.
        right: usize,
    },
}

/// CART hyper-parameters; [`Learner`] implementation.
#[derive(Debug, Clone)]
pub struct DecisionTreeLearner {
    /// Impurity criterion.
    pub criterion: SplitCriterion,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum examples a node needs to be split.
    pub min_samples_split: usize,
    /// Minimum examples each child must keep.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all). Used by forests.
    pub max_features: Option<usize>,
    /// RNG seed for feature sub-sampling.
    pub seed: u64,
}

impl Default for DecisionTreeLearner {
    fn default() -> Self {
        DecisionTreeLearner {
            criterion: SplitCriterion::Gini,
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 7,
        }
    }
}

/// A trained CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    nodes: Vec<Node>,
    feature_names: Vec<String>,
}

impl DecisionTreeClassifier {
    /// Reconstruct a tree from its parts (the persistence path). Every
    /// child index must be in bounds and greater than its parent's, and
    /// every node but the root the child of exactly one split: the arena
    /// is then a tree, and every walk of it terminates in at most
    /// `nodes.len()` steps.
    pub fn from_parts(
        nodes: Vec<Node>,
        feature_names: Vec<String>,
    ) -> Result<DecisionTreeClassifier, String> {
        if nodes.is_empty() {
            return Err("a tree needs at least one node".to_owned());
        }
        let mut has_parent = vec![false; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Split {
                left,
                right,
                feature,
                ..
            } = *node
            {
                if left <= i || right <= i || left >= nodes.len() || right >= nodes.len() {
                    return Err(format!("node {i}: child index invalid"));
                }
                if feature >= feature_names.len() {
                    return Err(format!("node {i}: feature index out of range"));
                }
                for child in [left, right] {
                    if std::mem::replace(&mut has_parent[child], true) {
                        return Err(format!("node {i}: child {child} has a second parent"));
                    }
                }
            }
        }
        if let Some(orphan) = (1..nodes.len()).find(|&i| !has_parent[i]) {
            return Err(format!("node {orphan}: no parent"));
        }
        Ok(DecisionTreeClassifier {
            nodes,
            feature_names,
        })
    }

    /// The node arena (root at index 0).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Names of the features the tree was trained on.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Maximum depth of any leaf.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }

    /// Walk to a leaf reading feature values through `feat` — only the
    /// features on the path are asked for; returns the leaf's arena index.
    pub fn leaf_for(&self, mut feat: impl FnMut(usize) -> f64) -> usize {
        let mut i = 0;
        while let Node::Split {
            feature,
            threshold,
            left,
            right,
        } = self.nodes[i]
        {
            let x = feat(feature);
            i = if x.is_nan() || x <= threshold {
                left
            } else {
                right
            };
        }
        i
    }

    /// The probability of the leaf `feat` walks to.
    fn score(&self, feat: impl FnMut(usize) -> f64) -> f64 {
        match self.nodes[self.leaf_for(feat)] {
            Node::Leaf { n, n_pos } => leaf_proba(n, n_pos),
            Node::Split { .. } => unreachable!("a walk ends at a leaf"),
        }
    }

    /// Render the tree as an indented rule list (Fig. 4 style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_rec(0, 0, &mut out);
        out
    }

    fn pretty_rec(&self, i: usize, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match &self.nodes[i] {
            Node::Leaf { n, n_pos } => {
                let verdict = if *n_pos * 2 >= *n { "Yes" } else { "No" };
                out.push_str(&format!("{pad}-> {verdict} ({n_pos}/{n})\n"));
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let name = self
                    .feature_names
                    .get(*feature)
                    .map_or_else(|| format!("f{feature}"), Clone::clone);
                out.push_str(&format!("{pad}if {name} <= {threshold:.4}:\n"));
                self.pretty_rec(*left, indent + 1, out);
                out.push_str(&format!("{pad}else:\n"));
                self.pretty_rec(*right, indent + 1, out);
            }
        }
    }
}

impl Classifier for DecisionTreeClassifier {
    /// Laplace-smoothed leaf probability `(n_pos + 1) / (n + 2)`.
    ///
    /// Raw leaf fractions make single trees useless for threshold
    /// calibration: most leaves are pure, so every score is 0 or 1 and no
    /// operating point above 0.5 filters anything. Laplace smoothing (the
    /// standard probability-estimation-tree correction) grades scores by
    /// leaf support — a pure 2-example leaf scores 0.75, a pure 50-example
    /// leaf 0.98 — while leaving the hard prediction untouched:
    /// `(n_pos + 1) / (n + 2) ≥ 0.5  ⟺  2·n_pos ≥ n`.
    fn predict_proba(&self, row: &[f64]) -> f64 {
        self.score(|j| row[j])
    }

    fn decide(
        &self,
        threshold: f64,
        _deferred: &[bool],
        feat: &mut dyn FnMut(usize) -> f64,
        walked: &mut u64,
    ) -> bool {
        *walked += 1;
        self.score(feat) >= threshold
    }
}

/// Laplace-smoothed probability of a leaf with `n_pos` positives among `n`.
pub(crate) fn leaf_proba(n: usize, n_pos: usize) -> f64 {
    (n_pos as f64 + 1.0) / (n as f64 + 2.0)
}

impl Learner for DecisionTreeLearner {
    fn name(&self) -> &str {
        "decision_tree"
    }

    fn fit(&self, data: &Dataset) -> Box<dyn Classifier> {
        Box::new(self.fit_tree(data))
    }
}

struct BuildCtx<'a> {
    data: &'a Dataset,
    params: &'a DecisionTreeLearner,
    rng: StdRng,
    nodes: Vec<Node>,
}

impl DecisionTreeLearner {
    /// Train and return the concrete tree type (callers that need the
    /// structure — forests, Falcon — use this instead of `fit`).
    pub fn fit_tree(&self, data: &Dataset) -> DecisionTreeClassifier {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let mut ctx = BuildCtx {
            data,
            params: self,
            rng: StdRng::seed_from_u64(self.seed),
            nodes: Vec::new(),
        };
        let indices: Vec<usize> = (0..data.len()).collect();
        build_node(&mut ctx, indices, 0);
        DecisionTreeClassifier {
            nodes: ctx.nodes,
            feature_names: data.feature_names().to_vec(),
        }
    }
}

/// Recursively build the subtree over `indices`; returns its arena index.
fn build_node(ctx: &mut BuildCtx<'_>, indices: Vec<usize>, depth: usize) -> usize {
    let n = indices.len();
    let n_pos = indices.iter().filter(|&&i| ctx.data.label(i)).count();
    let make_leaf = |ctx: &mut BuildCtx<'_>| {
        ctx.nodes.push(Node::Leaf { n, n_pos });
        ctx.nodes.len() - 1
    };
    if n_pos == 0 || n_pos == n || depth >= ctx.params.max_depth || n < ctx.params.min_samples_split
    {
        return make_leaf(ctx);
    }

    let Some((feature, threshold)) = best_split(ctx, &indices, n_pos) else {
        return make_leaf(ctx);
    };

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices.into_iter().partition(|&i| {
        let x = ctx.data.row(i)[feature];
        x.is_nan() || x <= threshold
    });
    debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

    // Reserve our slot before children so the root stays at index 0.
    ctx.nodes.push(Node::Leaf { n, n_pos }); // placeholder
    let me = ctx.nodes.len() - 1;
    let left = build_node(ctx, left_idx, depth + 1);
    let right = build_node(ctx, right_idx, depth + 1);
    ctx.nodes[me] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    me
}

/// Largest float strictly below `v` (v must be finite and not MIN).
fn next_down(v: f64) -> f64 {
    debug_assert!(v.is_finite());
    f64::next_down(v)
}

/// Exhaustive best split over (a sample of) features. Returns
/// `(feature, threshold)` of the largest impurity decrease, or `None` when
/// no split satisfies `min_samples_leaf`.
fn best_split(ctx: &mut BuildCtx<'_>, indices: &[usize], n_pos: usize) -> Option<(usize, f64)> {
    let n = indices.len();
    let n_features = ctx.data.n_features();
    let parent_imp = ctx.params.criterion.impurity(n_pos, n);

    let mut features: Vec<usize> = (0..n_features).collect();
    if let Some(k) = ctx.params.max_features {
        let k = k.clamp(1, n_features);
        features.shuffle(&mut ctx.rng);
        features.truncate(k);
        features.sort_unstable(); // deterministic evaluation order
    }

    let mut best: Option<(f64, usize, f64)> = None; // (decrease, feature, threshold)
    let mut vals: Vec<(f64, bool)> = Vec::with_capacity(n);
    for &f in &features {
        vals.clear();
        for &i in indices {
            let x = ctx.data.row(i)[f];
            // NaN sorts as -inf: missing joins the low side.
            let key = if x.is_nan() { f64::NEG_INFINITY } else { x };
            vals.push((key, ctx.data.label(i)));
        }
        vals.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut pos_left = 0usize;
        for split_at in 1..n {
            if vals[split_at - 1].1 {
                pos_left += 1;
            }
            // Can't split between equal values.
            if vals[split_at - 1].0 == vals[split_at].0 {
                continue;
            }
            let nl = split_at;
            let nr = n - split_at;
            if nl < ctx.params.min_samples_leaf || nr < ctx.params.min_samples_leaf {
                continue;
            }
            let imp_l = ctx.params.criterion.impurity(pos_left, nl);
            let imp_r = ctx.params.criterion.impurity(n_pos - pos_left, nr);
            let weighted = (nl as f64 * imp_l + nr as f64 * imp_r) / n as f64;
            let decrease = parent_imp - weighted;
            if decrease <= 1e-12 {
                continue;
            }
            let lo = vals[split_at - 1].0;
            let hi = vals[split_at].0;
            // The partition predicate is `x <= threshold` goes left, so any
            // threshold in [lo, hi) separates the two blocks. The midpoint
            // can round up to `hi` when lo and hi are one ULP apart, and
            // `hi - eps` can round back to `hi` — fall back to values that
            // are provably below `hi`.
            let threshold = if lo == f64::NEG_INFINITY {
                // All-NaN block below: split just under the first real value.
                next_down(hi)
            } else {
                let mid = lo + (hi - lo) / 2.0;
                if mid < hi {
                    mid.max(lo)
                } else {
                    lo
                }
            };
            debug_assert!(threshold < hi);
            let better = match best {
                None => true,
                Some((d, bf, bt)) => {
                    decrease > d + 1e-12
                        || ((decrease - d).abs() <= 1e-12 && (f, threshold) < (bf, bt))
                }
            };
            if better {
                best = Some((decrease, f, threshold));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 4 book-matching scenario: match iff ISBN matches and
    /// #pages match.
    fn book_data() -> Dataset {
        let mut d = Dataset::new(vec!["isbn_match".into(), "pages_match".into()]);
        // (isbn, pages) -> label
        let rows = [
            ([1.0, 1.0], true),
            ([1.0, 1.0], true),
            ([1.0, 0.0], false),
            ([0.0, 1.0], false),
            ([0.0, 0.0], false),
            ([1.0, 1.0], true),
            ([0.0, 1.0], false),
            ([1.0, 0.0], false),
        ];
        for (x, y) in rows {
            d.push(&x, y);
        }
        d
    }

    #[test]
    fn learns_the_conjunction() {
        let tree = DecisionTreeLearner::default().fit_tree(&book_data());
        assert!(tree.predict(&[1.0, 1.0]));
        assert!(!tree.predict(&[1.0, 0.0]));
        assert!(!tree.predict(&[0.0, 1.0]));
        assert!(!tree.predict(&[0.0, 0.0]));
        // Structure: two splits, three leaves (pure conjunction).
        let leaves = tree
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }));
        assert_eq!(leaves.count(), 3);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let d = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[true, true]);
        let tree = DecisionTreeLearner::default().fit_tree(&d);
        assert_eq!(tree.nodes().len(), 1);
        // Laplace-smoothed pure leaf of 2: (2 + 1) / (2 + 2).
        assert_eq!(tree.predict_proba(&[0.5]), 0.75);
        assert!(tree.predict(&[0.5]));
    }

    #[test]
    fn max_depth_zero_yields_majority_stump() {
        let d = book_data();
        let tree = DecisionTreeLearner {
            max_depth: 0,
            ..Default::default()
        }
        .fit_tree(&d);
        assert_eq!(tree.nodes().len(), 1);
        // 3 of 8 positive -> predicts negative everywhere.
        assert!(!tree.predict(&[1.0, 1.0]));
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = book_data();
        let tree = DecisionTreeLearner {
            min_samples_leaf: 4,
            ..Default::default()
        }
        .fit_tree(&d);
        fn check(nodes: &[Node], i: usize, min: usize) {
            match &nodes[i] {
                Node::Leaf { n, .. } => assert!(*n >= min, "leaf with {n} < {min}"),
                Node::Split { left, right, .. } => {
                    check(nodes, *left, min);
                    check(nodes, *right, min);
                }
            }
        }
        check(tree.nodes(), 0, 4);
    }

    #[test]
    fn nan_routes_left_consistently() {
        // Feature perfectly separates; NaN at predict time goes low/left.
        let d = Dataset::from_rows(
            &[vec![0.1], vec![0.2], vec![0.8], vec![0.9]],
            &[false, false, true, true],
        );
        let tree = DecisionTreeLearner::default().fit_tree(&d);
        assert!(!tree.predict(&[f64::NAN]));
        assert!(tree.predict(&[0.85]));
    }

    #[test]
    fn nan_in_training_data_is_tolerated() {
        let d = Dataset::from_rows(
            &[vec![f64::NAN], vec![f64::NAN], vec![0.9], vec![0.8]],
            &[false, false, true, true],
        );
        let tree = DecisionTreeLearner::default().fit_tree(&d);
        assert!(!tree.predict(&[f64::NAN]));
        assert!(tree.predict(&[0.85]));
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let tree = DecisionTreeLearner {
            criterion: SplitCriterion::Entropy,
            ..Default::default()
        }
        .fit_tree(&book_data());
        assert!(tree.predict(&[1.0, 1.0]));
        assert!(!tree.predict(&[0.0, 0.0]));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = book_data();
        let t1 = DecisionTreeLearner {
            max_features: Some(1),
            seed: 42,
            ..Default::default()
        }
        .fit_tree(&d);
        let t2 = DecisionTreeLearner {
            max_features: Some(1),
            seed: 42,
            ..Default::default()
        }
        .fit_tree(&d);
        assert_eq!(t1.nodes(), t2.nodes());
    }

    #[test]
    fn pretty_printer_uses_feature_names() {
        let tree = DecisionTreeLearner::default().fit_tree(&book_data());
        let s = tree.pretty();
        assert!(s.contains("isbn_match") || s.contains("pages_match"), "{s}");
        assert!(s.contains("-> No"));
        assert!(s.contains("-> Yes"));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        DecisionTreeLearner::default().fit_tree(&Dataset::with_dims(1));
    }

    #[test]
    fn predict_proba_is_smoothed_leaf_fraction() {
        // Constant features -> single leaf with 1/4 positives; Laplace
        // smoothing maps it to (1 + 1) / (4 + 2).
        let d = Dataset::from_rows(
            &[vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
            &[true, false, false, false],
        );
        let tree = DecisionTreeLearner::default().fit_tree(&d);
        assert_eq!(tree.predict_proba(&[1.0]), 2.0 / 6.0);
        assert!(!tree.predict(&[1.0]));
    }
}
