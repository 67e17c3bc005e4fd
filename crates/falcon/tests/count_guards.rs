//! Count guards for the savings Falcon's pass rests on — exact counters
//! on one fixed task, no timing — so that none can be undone without a
//! test saying so: pair sampling is a top-k join that verifies a small
//! fraction of what the threshold join verifies, a rule set is blocked for
//! the join work of one of its rules, and the last step decides the
//! candidate set lazily, walking fewer trees and computing fewer features
//! than scoring every candidate's full row would.

use magellan_block::debugger::concat_columns;
use magellan_block::{Blocker, BlockingRule, FeatureKind, Predicate, RuleBasedBlocker, TokSpec};
use magellan_core::labeling::OracleLabeler;
use magellan_datagen::domains::addresses;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_falcon::{run_falcon, FalconConfig};
use magellan_obs::Obs;
use magellan_simjoin::{
    join_tokenized_stats, join_tokenized_topk, ProbeSide, SetSimMeasure, TokenizedCollection,
};
use magellan_textsim::tokenize::AlphanumericTokenizer;

/// One task of the `falcon_selfservice` workload's shape.
fn task() -> EmScenario {
    addresses(&ScenarioConfig {
        size_a: 2_000,
        size_b: 2_000,
        n_matches: 600,
        dirt: DirtModel::light(),
        seed: 4_242,
    })
}

#[test]
fn topk_sampling_verifies_a_fraction_of_the_threshold_join() {
    let s = task();
    let non_key: Vec<usize> = (0..s.table_a.ncols())
        .filter(|&i| s.table_a.schema().fields()[i].name != "id")
        .collect();
    let coll = TokenizedCollection::build(
        &concat_columns(&s.table_a, &non_key),
        &concat_columns(&s.table_b, &non_key),
        &AlphanumericTokenizer::as_set(),
    );
    let floor = SetSimMeasure::Jaccard(0.2);
    let (joined, full) = join_tokenized_stats(&coll, floor, ProbeSide::Auto);
    let (top, stats) = join_tokenized_topk(&coll, floor, 300, |_, _| true);
    assert_eq!(top.len(), 300);
    assert!(
        joined.len() > 50_000,
        "the floor admits {} pairs",
        joined.len()
    );
    // Measured: 1 188 of 242 127 (0.005x). The issue's prototype, without
    // the halfway pass, read 0.27-0.31x.
    assert!(
        stats.verified * 20 <= full.verified,
        "top-k verified {} of the threshold join's {}",
        stats.verified,
        full.verified
    );
    assert_eq!(stats.candidates, stats.killed_by_position + stats.verified);
    assert_eq!(stats.verified, stats.killed_by_suffix + stats.pairs);
    assert!(stats.pairs >= top.len() && stats.pairs < joined.len());
}

fn rule(attr: &str, kind: FeatureKind, threshold: f64) -> BlockingRule {
    BlockingRule {
        predicates: vec![Predicate {
            l_attr: attr.into(),
            r_attr: attr.into(),
            kind,
            threshold,
        }],
    }
}

/// `magellan_simjoin_probes_total` added by blocking `rules` over `s`.
fn probes(rules: &[BlockingRule], s: &EmScenario) -> (u64, usize) {
    let obs = Obs::pinned();
    let _installed = obs.install();
    let kept = RuleBasedBlocker::new(rules.to_vec())
        .block(&s.table_a, &s.table_b)
        .unwrap();
    (
        obs.snapshot().counter("magellan_simjoin_probes_total"),
        kept.len(),
    )
}

#[test]
fn a_rule_set_is_blocked_for_the_probes_of_one_rule() {
    let s = task();
    let street = [
        rule("street", FeatureKind::Jaccard(TokSpec::Word), 0.375),
        rule("street", FeatureKind::Cosine(TokSpec::Word), 0.537),
        rule("street", FeatureKind::Dice(TokSpec::Word), 0.5),
    ];
    // What Falcon learns on `addresses`: street joins and a zip rule, the
    // latter as an equality or as a 3-gram join.
    for zip in [
        rule("zip", FeatureKind::ExactMatch, 0.5),
        rule("zip", FeatureKind::Jaccard(TokSpec::Qgram(3)), 0.583),
    ] {
        let mut rules = street.to_vec();
        rules.push(zip);
        let costliest = rules
            .iter()
            .map(|r| probes(std::slice::from_ref(r), &s).0)
            .max()
            .unwrap();
        let (all, kept) = probes(&rules, &s);
        assert!(kept > 0 && costliest > 0);
        assert!(
            all <= costliest,
            "the set cost {all} probes, its costliest rule alone {costliest}"
        );
    }
}

/// `tokenize_collection` spans opened by blocking `rules` over `s`.
fn tokenizations(rules: Vec<BlockingRule>, s: &EmScenario) -> usize {
    let obs = Obs::pinned();
    let _installed = obs.install();
    RuleBasedBlocker::new(rules)
        .block(&s.table_a, &s.table_b)
        .unwrap();
    obs.snapshot().spans_named("tokenize_collection").len()
}

/// A rule set tokenizes each set shape (column pair and tokenization)
/// whose cutoff is below 1 once per `block`: the seed's join and the
/// pairwise refinement of the other rules read one collection per shape.
#[test]
fn each_set_shape_is_tokenized_once_per_block() {
    let s = task();
    let street = rule("street", FeatureKind::Jaccard(TokSpec::Word), 0.375);
    // The seed is the first set rule; the others are refined over its
    // survivors only while those number at most |A| + |B|.
    let seeded = RuleBasedBlocker::new(vec![street.clone()])
        .block(&s.table_a, &s.table_b)
        .unwrap();
    assert!(seeded.len() <= s.table_a.nrows() + s.table_b.nrows());
    let same_shape = rule("street", FeatureKind::Cosine(TokSpec::Word), 0.537);
    let zip = rule("zip", FeatureKind::Jaccard(TokSpec::Qgram(3)), 0.583);
    // A predicate at threshold 1 fires on every pair: nothing to tokenize.
    let mut with_city = zip.clone();
    with_city.predicates.push(Predicate {
        l_attr: "city".into(),
        r_attr: "city".into(),
        kind: FeatureKind::Dice(TokSpec::Word),
        threshold: 1.0,
    });
    for (rules, shapes) in [
        (vec![street.clone(), same_shape.clone()], 1),
        (vec![street.clone(), zip.clone()], 2),
        (vec![street.clone(), same_shape, zip, with_city], 2),
    ] {
        let pretty = RuleBasedBlocker::new(rules.clone()).pretty();
        assert_eq!(tokenizations(rules, &s), shapes, "{pretty}");
    }
}

/// Falcon's last step is the production executor's lazy pass over the
/// candidate set C: under a pinned recorder it walks some trees and
/// computes some features, and fewer than |C| × the trees and |C| × the
/// matching features that predicting every full row costs.
#[test]
fn the_last_step_decides_the_candidates_lazily() {
    let s = task();
    let cfg = FalconConfig::default();
    let obs = Obs::pinned();
    let report = {
        let _installed = obs.install();
        let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
        run_falcon(&s.table_a, &s.table_b, "id", "id", &mut labeler, &cfg).unwrap()
    };
    let snap = obs.snapshot();
    let c = report.n_candidates as u64;
    let features = report.workflow.as_ref().map_or(0, |w| w.features.len()) as u64;
    let walked = snap.counter("magellan_core_trees_walked_total");
    let demanded = snap.counter("magellan_core_features_demanded_total");
    assert!(c > 0 && features > 0, "{c} candidates, {features} features");
    let trees = cfg.matching_al.n_trees as u64;
    assert!(
        walked > 0 && walked < c * trees,
        "{walked} trees walked over {c} candidates of {trees} trees"
    );
    assert!(
        demanded > 0 && demanded < c * features,
        "{demanded} features over {c} candidates of {features}"
    );
}
