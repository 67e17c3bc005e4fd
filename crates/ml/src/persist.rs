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
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// The error `message`, found on line `line`.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        PersistError {
            line,
            message: message.into(),
        }
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::at(line, message))
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
            } => writeln!(out, "split {feature} {threshold} {left} {right}").expect("string write"),
        }
    }
    out
}

/// Parse a tree saved by [`save_tree`].
pub fn load_tree(text: &str) -> Result<DecisionTreeClassifier, PersistError> {
    read_tree(
        &mut text.lines().enumerate().map(|(i, l)| (i + 1, l)),
        text.lines().count(),
    )
}

/// Read one tree from `lines`, `(line number, line)` pairs of a text whose
/// last line is numbered `n_lines`, leaving the lines after its last node;
/// an error names a line of that text.
fn read_tree<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    n_lines: usize,
) -> Result<DecisionTreeClassifier, PersistError> {
    let (ln, header) = lines.next().ok_or(PersistError::at(
        0,
        "expected `tree v1`, got the end of the input",
    ))?;
    if header != "tree v1" {
        return err(ln, format!("expected `tree v1`, got `{header}`"));
    }
    let (ln, fline) = lines
        .next()
        .ok_or(PersistError::at(0, "missing feature count"))?;
    let n_features: usize = fline
        .strip_prefix("features ")
        .and_then(|v| v.parse().ok())
        .ok_or(PersistError::at(ln, "bad `features` line"))?;
    let mut names = Vec::with_capacity(stated_count(n_features, n_lines - ln, ln, "features")?);
    for _ in 0..n_features {
        let (ln, nline) = lines
            .next()
            .ok_or(PersistError::at(0, "missing feature name"))?;
        let name = nline
            .strip_prefix('\t')
            .ok_or(PersistError::at(ln, "feature name must be tab-prefixed"))?;
        names.push(name.to_owned());
    }
    let (ln, cline) = lines
        .next()
        .ok_or(PersistError::at(0, "missing node count"))?;
    let n_nodes: usize = cline
        .strip_prefix("nodes ")
        .and_then(|v| v.parse().ok())
        .ok_or(PersistError::at(ln, "bad `nodes` line"))?;
    if n_nodes == 0 {
        return err(ln, "a tree needs at least one node");
    }
    let mut nodes = Vec::with_capacity(stated_count(n_nodes, n_lines - ln, ln, "nodes")?);
    for i in 0..n_nodes {
        let (ln, nline) = lines
            .next()
            .ok_or(PersistError::at(0, format!("missing node {i}")))?;
        let parts: Vec<&str> = nline.split(' ').collect();
        let node = match parts.as_slice() {
            ["leaf", n, n_pos] => {
                let n: usize = n
                    .parse()
                    .map_err(|_| PersistError::at(ln, "bad leaf count"))?;
                let n_pos: usize = n_pos
                    .parse()
                    .map_err(|_| PersistError::at(ln, "bad leaf positive count"))?;
                if n_pos > n {
                    return err(ln, "leaf has more positives than examples");
                }
                Node::Leaf { n, n_pos }
            }
            ["split", feature, threshold, left, right] => {
                let feature: usize = feature
                    .parse()
                    .map_err(|_| PersistError::at(ln, "bad split feature"))?;
                let threshold: f64 = threshold
                    .parse()
                    .map_err(|_| PersistError::at(ln, "bad split threshold"))?;
                let left: usize = left
                    .parse()
                    .map_err(|_| PersistError::at(ln, "bad left child"))?;
                let right: usize = right
                    .parse()
                    .map_err(|_| PersistError::at(ln, "bad right child"))?;
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
    DecisionTreeClassifier::from_parts(nodes, names).map_err(|message| PersistError::at(0, message))
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
    read_forest(
        &mut text.lines().enumerate().map(|(i, l)| (i + 1, l)),
        text.lines().count(),
    )
}

/// Read a forest — its header, its trees, and nothing after them — from
/// `lines`, `(line number, line)` pairs of a text whose last line is
/// numbered `n_lines`, so that a file holding a forest after other records
/// hands over its remaining lines and an error names a line of that file.
pub fn read_forest<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    n_lines: usize,
) -> Result<RandomForestClassifier, PersistError> {
    let (ln, header) = lines.next().ok_or(PersistError::at(0, "empty input"))?;
    let n_trees: usize = header
        .strip_prefix("forest v1 ")
        .and_then(|v| v.parse().ok())
        .ok_or(PersistError::at(ln, "bad forest header"))?;
    if n_trees == 0 {
        return err(ln, "a forest needs at least one tree");
    }
    let mut trees = Vec::with_capacity(stated_count(n_trees, n_lines - ln, ln, "trees")?);
    for _ in 0..n_trees {
        trees.push(read_tree(lines, n_lines)?);
    }
    if let Some((ln, line)) = lines.next() {
        return err(ln, format!("expected {n_trees} trees, got more: `{line}`"));
    }
    RandomForestClassifier::from_trees(trees).map_err(|message| PersistError::at(0, message))
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
            assert_eq!(
                tree.predict_proba(probe.row(i)),
                back.predict_proba(probe.row(i))
            );
        }
    }

    #[test]
    fn forest_roundtrips_exactly() -> Result<(), PersistError> {
        let forest = RandomForestLearner {
            n_trees: 7,
            ..Default::default()
        }
        .fit_forest(&data(3));
        let text = save_forest(&forest);
        // A CRLF copy reads back to the same forest.
        assert_eq!(
            save_forest(&load_forest(&text.replace('\n', "\r\n"))?),
            text
        );
        let back = load_forest(&text)?;
        assert_eq!(forest.trees().len(), back.trees().len());
        let probe = data(4);
        for i in 0..probe.len() {
            assert_eq!(
                forest.vote_fraction(probe.row(i)),
                back.vote_fraction(probe.row(i))
            );
        }
        Ok(())
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
        // In a forest's second tree it is named by its line in the forest.
        let good = bad.replace("leaf 2 5", "leaf 2 1");
        let e = load_forest(&format!("forest v1 2\n{good}{bad}")).unwrap_err();
        assert_eq!(e.line, 9, "{e}");
        // Counts no text can back are refused on their own line, before
        // anything is allocated for them, in a tree and in a forest, whose
        // lines are one past the tree's own.
        for (bad, line) in [
            ("tree v1\nfeatures 100000000000\n", 2),
            ("tree v1\nfeatures 2\n\tf0\n", 2),
            ("tree v1\nfeatures 0\nnodes 100000000000\nleaf 1 0\n", 3),
        ] {
            for (e, line) in [
                (load_tree(bad).unwrap_err(), line),
                (
                    load_forest(&format!("forest v1 1\n{bad}")).unwrap_err(),
                    line + 1,
                ),
            ] {
                assert_eq!(e.line, line, "{bad:?}: {e}");
                assert!(e.message.contains("lines follow"), "{bad:?}: {e}");
            }
        }
        let e = load_forest("forest v1 100000000000\ntree v1\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.message.contains("lines follow"), "{e}");
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
        for lying in ["forest v1 5", "forest v1 2"] {
            let e = load_forest(&text.replacen("forest v1 3", lying, 1)).unwrap_err();
            assert!(e.message.contains("tree"), "{lying}: {e}");
        }
    }
}
