//! The certain-No region's bound (DESIGN.md §7.3): `region_max(upper)` is
//! the largest score a forest can give a row whose constrained features lie
//! at or below `upper`. The executor answers No, with no tree walked, for
//! a pair inside a box whose bound is below the threshold, so the bound
//! must be *sound* — no row inside the box scores above it, bit for bit —
//! and it is held *exact* against a walk over the trees' `Node` arenas:
//! at a split whose threshold equals the bound the right child is not
//! reachable (a row at most the threshold goes left), and with no
//! constraint the bound is the roots' largest leaves added up over `n`.
//! Reading the right child as reachable at `upper == threshold` fails
//! `the_bound_is_the_arena_walks_reachable_maximum`. Each property holds
//! at vote semantics too, for the forest's vote layout, whose score is the
//! fraction of trees voting match: Falcon's matcher is that layout at α.

use magellan_ml::dataset::Dataset;
use magellan_ml::forest::RandomForestLearner;
use magellan_ml::model::{Classifier, Learner};
use magellan_ml::tree::Node;
use magellan_ml::{DecisionTreeClassifier, FlatForest, RandomForestClassifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 5;

fn leaf_proba(n: usize, n_pos: usize) -> f64 {
    (n_pos as f64 + 1.0) / (n as f64 + 2.0)
}

/// A tree's vote at a leaf: 1 when its probability is at least 0.5.
fn leaf_vote(n: usize, n_pos: usize) -> f64 {
    f64::from(u8::from(leaf_proba(n, n_pos) >= 0.5))
}

/// The largest leaf value (`leaf`) of `tree` a row under `upper` reaches,
/// walked over its arena: the left child always, the right one iff
/// unconstrained or `upper > threshold`.
fn arena_reachable_max(
    tree: &DecisionTreeClassifier,
    upper: &[Option<f64>],
    leaf: fn(usize, usize) -> f64,
) -> f64 {
    let mut max = f64::NEG_INFINITY;
    let mut stack = vec![0];
    while let Some(i) = stack.pop() {
        match tree.nodes()[i] {
            Node::Leaf { n, n_pos } => max = max.max(leaf(n, n_pos)),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                stack.push(left);
                if upper[feature].is_none_or(|u| u > threshold) {
                    stack.push(right);
                }
            }
        }
    }
    max
}

/// Per-tree maxima of `leaf` added in tree order, over the tree count.
fn arena_region_max(
    forest: &RandomForestClassifier,
    upper: &[Option<f64>],
    leaf: fn(usize, usize) -> f64,
) -> f64 {
    let sum: f64 = forest
        .trees()
        .iter()
        .map(|t| arena_reachable_max(t, upper, leaf))
        .sum();
    sum / forest.trees().len() as f64
}

/// Every split threshold of the forest, per feature.
fn thresholds(forest: &RandomForestClassifier) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); DIMS];
    for tree in forest.trees() {
        for node in tree.nodes() {
            if let Node::Split {
                feature, threshold, ..
            } = *node
            {
                out[feature].push(threshold);
            }
        }
    }
    out
}

/// Separable rows with noise dimensions and NaNs.
fn training_data(rng: &mut StdRng, n: usize) -> Dataset {
    let mut d = Dataset::with_dims(DIMS);
    for _ in 0..n {
        let pos = rng.gen_bool(0.3);
        let c = if pos { 0.6 } else { -0.6 };
        let row: Vec<f64> = (0..DIMS)
            .map(|j| {
                if rng.gen_bool(0.06) {
                    f64::NAN
                } else if j < 3 {
                    c + rng.gen_range(-1.0..1.0)
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        d.push(&row, pos);
    }
    d
}

/// A random forest of 1–16 trees, depth 1–10.
fn forest(rng: &mut StdRng) -> RandomForestClassifier {
    let data = training_data(rng, 160);
    RandomForestLearner {
        n_trees: rng.gen_range(1..17),
        max_depth: rng.gen_range(1..11),
        seed: rng.gen_range(0..1_000_000),
        ..Default::default()
    }
    .fit_forest(&data)
}

/// A random box: each feature unconstrained, bounded at one of the
/// forest's split thresholds exactly, or bounded at a random value.
fn random_box(rng: &mut StdRng, splits: &[Vec<f64>]) -> Vec<Option<f64>> {
    (0..DIMS)
        .map(|j| match rng.gen_range(0..3) {
            0 => None,
            1 if !splits[j].is_empty() => Some(splits[j][rng.gen_range(0..splits[j].len())]),
            _ => Some(rng.gen_range(-2.0..2.0)),
        })
        .collect()
}

/// A row inside `upper`: random values with NaNs, each constrained one
/// pulled to its bound, at or below it, or left NaN.
fn row_inside(rng: &mut StdRng, upper: &[Option<f64>]) -> Vec<f64> {
    (0..DIMS)
        .map(|j| {
            if rng.gen_bool(0.1) {
                return f64::NAN;
            }
            let x: f64 = rng.gen_range(-2.0..2.0);
            match upper[j] {
                Some(u) if rng.gen_bool(0.3) => u,
                Some(u) => x.min(u),
                None => x,
            }
        })
        .collect()
}

#[test]
fn no_row_inside_a_box_scores_above_its_bound() {
    let mut rng = StdRng::seed_from_u64(0x5EED_B0C5);
    let mut on_threshold = 0;
    for _ in 0..40 {
        let forest = forest(&mut rng);
        let splits = thresholds(&forest);
        for _ in 0..25 {
            let upper = random_box(&mut rng, &splits);
            let bound = forest
                .region_max(&upper)
                .expect("a forest bounds its score");
            let vote_bound = forest.vote_layout().region_max(&upper);
            for _ in 0..40 {
                let row = row_inside(&mut rng, &upper);
                let p = forest.predict_proba(&row);
                assert!(p <= bound, "{p:?} > {bound:?} for {row:?} under {upper:?}");
                let v = forest.vote_fraction(&row);
                assert!(
                    v <= vote_bound,
                    "vote {v:?} > {vote_bound:?} for {row:?} under {upper:?}"
                );
                on_threshold += usize::from(
                    (0..DIMS)
                        .any(|j| upper[j].is_some_and(|u| row[j] == u && splits[j].contains(&u))),
                );
            }
        }
    }
    assert!(
        on_threshold > 1000,
        "{on_threshold} rows sat on a split threshold"
    );
}

#[test]
fn the_bound_is_the_arena_walks_reachable_maximum() {
    let mut rng = StdRng::seed_from_u64(0xB0C5_0002);
    let mut tightened = 0;
    for _ in 0..40 {
        let forest = forest(&mut rng);
        let flat = FlatForest::from_forest(&forest);
        let splits = thresholds(&forest);
        let none = vec![None; DIMS];
        for _ in 0..25 {
            let upper = random_box(&mut rng, &splits);
            let bound = flat.region_max(&upper);
            assert_eq!(
                bound.to_bits(),
                arena_region_max(&forest, &upper, leaf_proba).to_bits(),
                "under {upper:?}"
            );
            assert_eq!(
                forest.vote_layout().region_max(&upper).to_bits(),
                arena_region_max(&forest, &upper, leaf_vote).to_bits(),
                "votes under {upper:?}"
            );
            tightened += usize::from(bound < flat.region_max(&none));
        }
    }
    assert!(tightened > 100, "only {tightened} boxes lowered the bound");
}

#[test]
fn a_bound_on_a_split_threshold_keeps_the_right_child_out() {
    // One tree, one split: x <= 0.5 is a No (leaf 1/4), x > 0.5 a Yes
    // (leaf 3/4).
    let data = Dataset::from_rows(
        &[vec![0.0], vec![0.0], vec![1.0], vec![1.0]],
        &[false, false, true, true],
    );
    let forest = RandomForestLearner {
        n_trees: 1,
        bootstrap: false,
        ..Default::default()
    }
    .fit_forest(&data);
    let Node::Split { threshold, .. } = forest.trees()[0].nodes()[0] else {
        panic!("the tree did not split");
    };
    assert_eq!(forest.region_max(&[Some(threshold)]), Some(0.25));
    assert_eq!(forest.predict_proba(&[threshold]), 0.25);
    let above = f64::from_bits(threshold.to_bits() + 1);
    assert_eq!(forest.region_max(&[Some(above)]), Some(0.75));
    assert_eq!(forest.region_max(&[]), Some(0.75));
    assert_eq!(forest.region_max(&[None]), Some(0.75));
}

#[test]
fn unconstrained_the_bound_is_the_roots_largest_leaves_over_n() {
    let mut rng = StdRng::seed_from_u64(0xB0C5_0003);
    for _ in 0..40 {
        let forest = forest(&mut rng);
        let n = forest.trees().len() as f64;
        let largest = |t: &DecisionTreeClassifier| {
            t.nodes()
                .iter()
                .filter_map(|node| match *node {
                    Node::Leaf { n, n_pos } => Some(leaf_proba(n, n_pos)),
                    Node::Split { .. } => None,
                })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let sum: f64 = forest.trees().iter().map(largest).sum();
        let expected = (sum / n).to_bits();
        assert_eq!(forest.region_max(&[]).map(f64::to_bits), Some(expected));
        assert_eq!(
            forest.region_max(&[None; DIMS]).map(f64::to_bits),
            Some(expected)
        );
    }
}

#[test]
fn a_model_with_no_bound_answers_none() {
    let tree = magellan_ml::DecisionTreeLearner::default()
        .fit(&Dataset::from_rows(&[vec![0.0], vec![1.0]], &[false, true]));
    assert_eq!(tree.region_max(&[Some(0.0)]), None);
}
