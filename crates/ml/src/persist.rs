//! Model persistence: a line-oriented text format for trees and forests.
//!
//! The production stage (§4.1) captures the development stage's artifact
//! and ships it to another process; CloudMatcher's `train classifier` /
//! `apply classifier` services likewise store models between service
//! calls. The format is deliberately dependency-free (no serializer
//! crates): one node per line, `f64` values written in Rust's shortest
//! round-trip form, loaded back with full validation (indices in bounds,
//! children strictly after parents — i.e. acyclic).

use std::fmt::Write as _;

use crate::forest::RandomForestClassifier;
use crate::tree::{DecisionTreeClassifier, Node};

/// Errors from [`load_forest`]/[`load_tree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line the problem was found on (0 for structural errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PersistError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError {
        line,
        message: message.into(),
    })
}

/// `n`, the count of `what` stated on line `line`, if the `left` lines
/// after it can hold that many (each takes at least one), or an error
/// naming the line: a stated count bounds a pre-allocation only once the
/// text can back it.
pub fn stated_count(n: usize, left: usize, line: usize, what: &str) -> Result<usize, PersistError> {
    if n > left {
        return err(
            line,
            format!("{n} {what} stated, but only {left} lines follow"),
        );
    }
    Ok(n)
}

/// Serialize a tree. Feature names are escaped per-line (names never
/// contain newlines; tabs are rejected at save time).
pub fn save_tree(tree: &DecisionTreeClassifier) -> String {
    let mut out = String::new();
    writeln!(out, "tree v1").expect("string write");
    writeln!(out, "features {}", tree.feature_names().len()).expect("string write");
    for name in tree.feature_names() {
        debug_assert!(!name.contains('\n') && !name.contains('\t'));
        writeln!(out, "\t{name}").expect("string write");
    }
    writeln!(out, "nodes {}", tree.nodes().len()).expect("string write");
    for node in tree.nodes() {
        match node {
            Node::Leaf { n, n_pos } => writeln!(out, "leaf {n} {n_pos}").expect("string write"),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => writeln!(out, "split {feature} {threshold} {left} {right}")
                .expect("string write"),
        }
    }
    out
}

/// Parse a tree saved by [`save_tree`].
pub fn load_tree(text: &str) -> Result<DecisionTreeClassifier, PersistError> {
    let n_lines = text.lines().count();
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (ln, header) = lines.next().ok_or(PersistError {
        line: 0,
        message: "empty input".into(),
    })?;
    if header != "tree v1" {
        return err(ln, format!("expected `tree v1`, got `{header}`"));
    }
    let (ln, fline) = lines
        .next()
        .ok_or(PersistError { line: 0, message: "missing feature count".into() })?;
    let n_features: usize = fline
        .strip_prefix("features ")
        .and_then(|v| v.parse().ok())
        .ok_or(PersistError { line: ln, message: "bad `features` line".into() })?;
    let mut names = Vec::with_capacity(stated_count(n_features, n_lines - ln, ln, "features")?);
    for _ in 0..n_features {
        let (ln, nline) = lines
            .next()
            .ok_or(PersistError { line: 0, message: "missing feature name".into() })?;
        let name = nline
            .strip_prefix('\t')
            .ok_or(PersistError { line: ln, message: "feature name must be tab-prefixed".into() })?;
        names.push(name.to_owned());
    }
    let (ln, cline) = lines
        .next()
        .ok_or(PersistError { line: 0, message: "missing node count".into() })?;
    let n_nodes: usize = cline
        .strip_prefix("nodes ")
        .and_then(|v| v.parse().ok())
        .ok_or(PersistError { line: ln, message: "bad `nodes` line".into() })?;
    if n_nodes == 0 {
        return err(ln, "a tree needs at least one node");
    }
    let mut nodes = Vec::with_capacity(stated_count(n_nodes, n_lines - ln, ln, "nodes")?);
    for i in 0..n_nodes {
        let (ln, nline) = lines
            .next()
            .ok_or(PersistError { line: 0, message: format!("missing node {i}") })?;
        let parts: Vec<&str> = nline.split(' ').collect();
        let node = match parts.as_slice() {
            ["leaf", n, n_pos] => {
                let n: usize = n.parse().map_err(|_| PersistError {
                    line: ln,
                    message: "bad leaf count".into(),
                })?;
                let n_pos: usize = n_pos.parse().map_err(|_| PersistError {
                    line: ln,
                    message: "bad leaf positive count".into(),
                })?;
                if n_pos > n {
                    return err(ln, "leaf has more positives than examples");
                }
                Node::Leaf { n, n_pos }
            }
            ["split", feature, threshold, left, right] => {
                let feature: usize = feature.parse().map_err(|_| PersistError {
                    line: ln,
                    message: "bad split feature".into(),
                })?;
                let threshold: f64 = threshold.parse().map_err(|_| PersistError {
                    line: ln,
                    message: "bad split threshold".into(),
                })?;
                let left: usize = left.parse().map_err(|_| PersistError {
                    line: ln,
                    message: "bad left child".into(),
                })?;
                let right: usize = right.parse().map_err(|_| PersistError {
                    line: ln,
                    message: "bad right child".into(),
                })?;
                if feature >= n_features {
                    return err(ln, "split feature out of range");
                }
                if threshold.is_nan() {
                    return err(ln, "split threshold is NaN");
                }
                // Children strictly after the parent: guarantees the arena
                // is acyclic and every walk terminates.
                if left <= i || right <= i || left >= n_nodes || right >= n_nodes {
                    return err(ln, "child index out of order or out of range");
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                }
            }
            _ => return err(ln, format!("unrecognized node line `{nline}`")),
        };
        nodes.push(node);
    }
    DecisionTreeClassifier::from_parts(nodes, names).map_err(|message| PersistError {
        line: 0,
        message,
    })
}

/// Serialize a forest as concatenated trees.
pub fn save_forest(forest: &RandomForestClassifier) -> String {
    let mut out = String::new();
    writeln!(out, "forest v1 {}", forest.trees().len()).expect("string write");
    for tree in forest.trees() {
        out.push_str(&save_tree(tree));
    }
    out
}

/// Parse a forest saved by [`save_forest`].
pub fn load_forest(text: &str) -> Result<RandomForestClassifier, PersistError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(PersistError {
        line: 0,
        message: "empty input".into(),
    })?;
    let n_trees: usize = header
        .strip_prefix("forest v1 ")
        .and_then(|v| v.parse().ok())
        .ok_or(PersistError { line: 1, message: "bad forest header".into() })?;
    if n_trees == 0 {
        return err(1, "a forest needs at least one tree");
    }
    // Re-split the remainder into per-tree chunks on "tree v1" markers.
    let body: Vec<&str> = text.lines().skip(1).collect();
    let mut tree_starts: Vec<usize> = body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| (*l == "tree v1").then_some(i))
        .collect();
    if tree_starts.len() != n_trees {
        return err(1, format!("expected {n_trees} trees, found {}", tree_starts.len()));
    }
    tree_starts.push(body.len());
    let mut trees = Vec::with_capacity(n_trees);
    for w in tree_starts.windows(2) {
        let chunk = body[w[0]..w[1]].join("\n");
        trees.push(load_tree(&chunk)?);
    }
    RandomForestClassifier::from_trees(trees).map_err(|message| PersistError {
        line: 0,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestLearner;
    use crate::model::Classifier;
    use crate::tree::DecisionTreeLearner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["sim_a".into(), "sim_b".into()]);
        for _ in 0..150 {
            let pos = rng.gen_bool(0.3);
            let base: f64 = if pos { 0.8 } else { 0.2 };
            d.push(
                &[base + rng.gen_range(-0.15..0.15), rng.gen_range(0.0..1.0)],
                pos,
            );
        }
        d
    }

    #[test]
    fn tree_roundtrips_exactly() {
        let tree = DecisionTreeLearner::default().fit_tree(&data(1));
        let text = save_tree(&tree);
        let back = load_tree(&text).unwrap();
        assert_eq!(tree.nodes(), back.nodes());
        assert_eq!(tree.feature_names(), back.feature_names());
        // Thresholds round-trip bit-exactly -> identical predictions.
        let probe = data(2);
        for i in 0..probe.len() {
            assert_eq!(tree.predict_proba(probe.row(i)), back.predict_proba(probe.row(i)));
        }
    }

    #[test]
    fn forest_roundtrips_exactly() {
        let forest = RandomForestLearner {
            n_trees: 7,
            ..Default::default()
        }
        .fit_forest(&data(3));
        let text = save_forest(&forest);
        let back = load_forest(&text).unwrap();
        assert_eq!(forest.trees().len(), back.trees().len());
        let probe = data(4);
        for i in 0..probe.len() {
            assert_eq!(
                forest.vote_fraction(probe.row(i)),
                back.vote_fraction(probe.row(i))
            );
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected_with_line_numbers() {
        assert!(load_tree("").is_err());
        assert!(load_tree("not a tree").is_err());
        // Tamper with a child index to point backwards (cycle attempt).
        let tree = DecisionTreeLearner::default().fit_tree(&data(5));
        let text = save_tree(&tree);
        if text.contains("split") {
            let tampered = text.replacen("split", "split-bogus", 1);
            assert!(load_tree(&tampered).is_err());
        }
        // Leaf with impossible counts.
        let bad = "tree v1\nfeatures 0\nnodes 1\nleaf 2 5\n";
        let e = load_tree(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("more positives"));
        // Counts no text can back are refused on their own line, before
        // anything is allocated for them, in a tree and in a forest.
        for (bad, line) in [
            ("tree v1\nfeatures 100000000000\n", 2),
            ("tree v1\nfeatures 2\n\tf0\n", 2),
            ("tree v1\nfeatures 0\nnodes 100000000000\nleaf 1 0\n", 3),
        ] {
            for e in [
                load_tree(bad).unwrap_err(),
                load_forest(&format!("forest v1 1\n{bad}")).unwrap_err(),
            ] {
                assert_eq!(e.line, line, "{bad:?}: {e}");
                assert!(e.message.contains("lines follow"), "{bad:?}: {e}");
            }
        }
    }

    #[test]
    fn cyclic_arena_is_rejected() {
        // A split pointing at itself / backwards must not load.
        let bad = "tree v1\nfeatures 1\n\tf0\nnodes 3\nsplit 0 0.5 0 2\nleaf 1 0\nleaf 1 1\n";
        let e = load_tree(bad).unwrap_err();
        assert!(e.to_string().contains("out of order"), "{e}");
        // A node with two parents: every split of such a chain doubles
        // the paths a walk or a re-layout expands.
        for bad in [
            "tree v1\nfeatures 1\n\tf0\nnodes 2\nsplit 0 0.5 1 1\nleaf 1 0\n",
            "tree v1\nfeatures 1\n\tf0\nnodes 5\nsplit 0 0.5 1 2\nsplit 0 0.2 3 4\n\
             split 0 0.8 3 4\nleaf 1 0\nleaf 1 1\n",
        ] {
            let e = load_tree(bad).unwrap_err();
            assert!(e.to_string().contains("second parent"), "{e}");
        }
        let orphan =
            "tree v1\nfeatures 1\n\tf0\nnodes 4\nsplit 0 0.5 1 3\nleaf 1 0\nleaf 1 1\nleaf 1 1\n";
        let e = load_tree(orphan).unwrap_err();
        assert!(e.to_string().contains("no parent"), "{e}");
    }

    #[test]
    fn forest_header_mismatch_rejected() {
        let forest = RandomForestLearner {
            n_trees: 3,
            ..Default::default()
        }
        .fit_forest(&data(6));
        let text = save_forest(&forest);
        let lying = text.replacen("forest v1 3", "forest v1 5", 1);
        assert!(load_forest(&lying).is_err());
    }
}
