//! Flattened-forest invariance suite (DESIGN.md §7.2): the forest is
//! scored through one flat layout ([`FlatForest`]), and what it answers
//! must be what a walk over the trees' `Node` arenas answers —
//! bit-identical scores and votes per pair, at every worker count, for a
//! subset of a batch as for the whole, and through a persistence
//! round-trip — with the leaf probabilities keeping the Laplace smoothing
//! exactly. The digests of `scores_votes_and_decisions_are_pinned` were
//! recorded on the pointer-tree walks the layout replaced.

use magellan_ml::dataset::Dataset;
use magellan_ml::forest::RandomForestLearner;
use magellan_ml::model::Classifier;
use magellan_ml::tree::Node;
use magellan_ml::{persist, DecisionTreeClassifier, FlatForest, RandomForestClassifier};
use magellan_par::ParConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tree's Laplace-smoothed leaf probability for `row`, walked over its
/// arena (NaN goes left).
fn arena_leaf(tree: &DecisionTreeClassifier, row: &[f64]) -> f64 {
    let mut i = 0;
    loop {
        match tree.nodes()[i] {
            Node::Leaf { n, n_pos } => return (n_pos as f64 + 1.0) / (n as f64 + 2.0),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let x = row[feature];
                i = if x.is_nan() || x <= threshold {
                    left
                } else {
                    right
                };
            }
        }
    }
}

/// The forest's score and vote fraction, walked over the arenas.
fn arena_score_and_vote(f: &RandomForestClassifier, row: &[f64]) -> (f64, f64) {
    let n = f.trees().len() as f64;
    let leaves: Vec<f64> = f.trees().iter().map(|t| arena_leaf(t, row)).collect();
    let votes = leaves.iter().filter(|&&p| p >= 0.5).count();
    (leaves.iter().sum::<f64>() / n, votes as f64 / n)
}

/// Messy EM-flavored feature rows: a mix of separable structure, noise
/// dimensions, and NaNs (missing similarities).
fn rows(seed: u64, n: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| {
                    if rng.gen_bool(0.08) {
                        f64::NAN
                    } else {
                        rng.gen_range(-1.5..1.5)
                    }
                })
                .collect()
        })
        .collect()
}

fn training_data(seed: u64, n: usize, dims: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::with_dims(dims);
    for _ in 0..n {
        let pos: bool = rng.gen_bool(0.5);
        let c = if pos { 0.7 } else { -0.7 };
        let row: Vec<f64> = (0..dims)
            .map(|j| {
                if rng.gen_bool(0.05) {
                    f64::NAN
                } else if j < 2 {
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

fn forest(seed: u64) -> RandomForestClassifier {
    RandomForestLearner {
        n_trees: 11,
        seed,
        ..Default::default()
    }
    .fit_forest(&training_data(seed, 240, 5))
}

/// Per-pair bit-identity: the forest's and its layouts' scores and
/// votes vs the arena walk on every row, including NaN-bearing ones; the
/// vote layout's score is the vote fraction.
#[test]
fn flat_matches_scalar_per_pair() {
    for seed in [1u64, 2, 3] {
        let f = forest(seed);
        let flat = FlatForest::from_forest(&f);
        for row in rows(seed * 10, 300, 5) {
            let (score, vote) = arena_score_and_vote(&f, &row);
            for got in [f.predict_proba(&row), flat.predict_proba(&row)] {
                assert_eq!(
                    got.to_bits(),
                    score.to_bits(),
                    "proba diverged (seed {seed})"
                );
            }
            for got in [f.vote_fraction(&row), f.vote_layout().predict_proba(&row)] {
                assert_eq!(got.to_bits(), vote.to_bits(), "vote diverged (seed {seed})");
            }
            assert_eq!(f.predict(&row), vote >= 0.5);
        }
    }
}

/// The vote layout decides Falcon's α test lazily: `decide(α, deferred,
/// ..)` equals `predict_at(row, α)` at α = 0, at every attainable fraction
/// k/n and the floats on either side of it, and at 1, under random
/// deferral masks, over rows with NaN features.
#[test]
fn the_vote_layout_decides_as_predict_at() {
    let mut rng = StdRng::seed_from_u64(0x00F0_7E5);
    for seed in [1u64, 2, 3] {
        let f = forest(seed);
        let votes = f.vote_layout();
        let n = f.trees().len();
        let mut alphas = vec![0.0, 1.0];
        for k in 0..=n {
            let at = k as f64 / n as f64;
            alphas.extend([at, at.next_up(), at.next_down()]);
        }
        for row in rows(seed * 10 + 2, 200, 5) {
            let mask: Vec<bool> = (0..5).map(|_| rng.gen_bool(0.4)).collect();
            for &alpha in &alphas {
                let mut walked = 0;
                let decided = votes.decide(alpha, &mask, &mut |j| row[j], &mut walked);
                assert_eq!(
                    decided,
                    f.predict_at(&row, alpha),
                    "seed {seed}, α {alpha}, mask {mask:?}, row {row:?}"
                );
                assert!(walked as usize <= n);
            }
        }
    }
}

/// Worker-count invariance: the batch path equals the arena walk at
/// 1/2/4/8 workers, bit for bit, and a subset of the rows (every third,
/// as a stream tick rescores only its dirty pairs) scores as it does in
/// the full batch.
#[test]
fn flat_batch_invariant_across_worker_counts() {
    let f = forest(7);
    let flat = FlatForest::from_forest(&f);
    let batch = rows(70, 500, 5);
    let reference: Vec<u64> = batch
        .iter()
        .map(|row| arena_score_and_vote(&f, row).0.to_bits())
        .collect();
    let subset: Vec<Vec<f64>> = batch.iter().step_by(3).cloned().collect();
    let bits = |scores: Vec<f64>| scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for workers in [1usize, 2, 4, 8] {
        let cfg = ParConfig::workers(workers);
        assert_eq!(
            bits(flat.predict_proba_batch(&batch, &cfg)),
            reference,
            "w={workers}"
        );
        assert_eq!(
            bits(f.predict_proba_batch(&batch, &cfg)),
            reference,
            "w={workers}"
        );
        let every_third: Vec<u64> = reference.iter().step_by(3).copied().collect();
        assert_eq!(
            bits(f.predict_proba_batch(&subset, &cfg)),
            every_third,
            "w={workers}"
        );
    }
}

/// Persistence round-trip: save → load preserves every prediction
/// bit-identically (the layout is derived purely from the persisted
/// structure).
#[test]
fn persist_round_trip_preserves_flat_predictions() {
    let f = forest(13);
    let loaded = persist::load_forest(&persist::save_forest(&f)).expect("round trip");
    let flat_loaded = FlatForest::from_forest(&loaded);
    for row in rows(130, 250, 5) {
        let want = f.predict_proba(&row).to_bits();
        assert_eq!(arena_score_and_vote(&loaded, &row).0.to_bits(), want);
        assert_eq!(loaded.predict_proba(&row).to_bits(), want);
        assert_eq!(flat_loaded.predict_proba(&row).to_bits(), want);
    }
}

/// Laplace-smoothed leaves: every flat leaf probability is exactly
/// `(n_pos + 1) / (n + 2)` of the corresponding arena leaf (PR 1's
/// probability-estimation-tree fix), verified by scoring rows that pin
/// single-leaf trees.
#[test]
fn flat_leaves_keep_laplace_smoothing() {
    // Constant features → each tree is one leaf over its bootstrap bag;
    // with bootstrap off every tree sees the same 1-of-4-positive bag.
    let d = Dataset::from_rows(
        &[vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
        &[true, false, false, false],
    );
    let f = RandomForestLearner {
        n_trees: 4,
        bootstrap: false,
        ..Default::default()
    }
    .fit_forest(&d);
    let flat = FlatForest::from_forest(&f);
    // (1 + 1) / (4 + 2) per tree; mean over identical trees is the same.
    assert_eq!(
        flat.predict_proba(&[1.0]).to_bits(),
        (2.0f64 / 6.0).to_bits()
    );
    // Cross-check against the arena leaves directly.
    for tree in f.trees() {
        for node in tree.nodes() {
            if let Node::Leaf { n, n_pos } = node {
                let expected = (*n_pos as f64 + 1.0) / (*n as f64 + 2.0);
                assert_eq!(expected.to_bits(), (2.0f64 / 6.0).to_bits());
            }
        }
    }
}

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// What the forest answers, pinned: per seeded forest, a digest of every
/// row's `predict_proba`, `vote_fraction` and `vote_entropy` bits, and a
/// digest of `decide`'s decision, the features it asked for in order and
/// the trees it walked, under three deferral masks (none, all, every other
/// feature) at thresholds 0.5, the row's score, the next float up and NaN.
/// The literals were recorded on the pointer-tree walks; any layout the
/// forest is scored through must reproduce them unedited.
#[test]
fn scores_votes_and_decisions_are_pinned() {
    let mut got = Vec::new();
    for seed in [1u64, 2, 3] {
        let f = forest(seed);
        let width = 5;
        let masks = [
            vec![false; width],
            vec![true; width],
            (0..width).map(|j| j % 2 == 1).collect::<Vec<_>>(),
        ];
        let (mut scores, mut decisions) = (Digest::new(), Digest::new());
        for row in rows(seed * 10 + 1, 300, width) {
            let score = f.predict_proba(&row);
            scores.word(score.to_bits());
            scores.word(f.vote_fraction(&row).to_bits());
            scores.word(f.vote_entropy(&row).to_bits());
            for mask in &masks {
                for threshold in [0.5, score, score.next_up(), f64::NAN] {
                    let (mut asked, mut walked) = (Vec::new(), 0);
                    let decided = f.decide(
                        threshold,
                        mask,
                        &mut |j| {
                            asked.push(j);
                            row[j]
                        },
                        &mut walked,
                    );
                    decisions.word(u64::from(decided));
                    decisions.word(asked.len() as u64);
                    asked.iter().for_each(|&j| decisions.word(j as u64));
                    decisions.word(walked);
                }
            }
        }
        got.push((seed, scores.0, decisions.0));
    }
    assert_eq!(
        got,
        [
            (1, 8866249236318124048, 7760814388227289765),
            (2, 14529926900297197141, 11327033450543257767),
            (3, 17288585918867605083, 3140237028358501366),
        ]
    );
}
