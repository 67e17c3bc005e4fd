//! Count guards for the two savings Falcon's pass rests on — exact
//! counters on one fixed task, no timing — so that neither can be undone
//! without a test saying so: pair sampling is a top-k join that verifies a
//! small fraction of what the threshold join verifies, and a rule set is
//! blocked for the join work of one of its rules.

use magellan_block::debugger::concat_columns;
use magellan_block::{Blocker, BlockingRule, Predicate, RuleBasedBlocker, SimFeature, TokSpec};
use magellan_datagen::domains::addresses;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
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

fn rule(attr: &str, feature: SimFeature, threshold: f64) -> BlockingRule {
    BlockingRule {
        predicates: vec![Predicate {
            l_attr: attr.into(),
            r_attr: attr.into(),
            feature,
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
        rule("street", SimFeature::Jaccard(TokSpec::Word), 0.375),
        rule("street", SimFeature::Cosine(TokSpec::Word), 0.537),
        rule("street", SimFeature::Dice(TokSpec::Word), 0.5),
    ];
    // What Falcon learns on `addresses`: street joins and a zip rule, the
    // latter as an equality or as a 3-gram join.
    for zip in [
        rule("zip", SimFeature::ExactMatch, 0.5),
        rule("zip", SimFeature::Jaccard(TokSpec::Qgram(3)), 0.583),
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
