//! Blocker ablation: recall vs. reduction ratio for every blocker family
//! across scenario domains — the quantitative version of the guide's
//! "experiment with blockers X and Y" step (Fig. 2), and the data behind
//! choosing overlap blocking as the textual workhorse.

use magellan_block::metrics::evaluate_blocking;
use magellan_block::{
    AttrEquivalenceBlocker, Blocker, BlockingRule, FeatureKind, HashBlocker, OverlapBlocker,
    Predicate, RuleBasedBlocker, SimJoinBlocker, SortedNeighborhoodBlocker, TokSpec,
};
use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_simjoin::SetSimMeasure;

fn main() {
    // Experiment narration is leveled logging: MAGELLAN_LOG=off silences it.
    magellan_obs::init_bin_logging(magellan_obs::Level::Info);
    magellan_obs::log!(
        info,
        "Blocker ablation — recall vs reduction across domains\n"
    );
    for (scenario, attr) in [
        ("persons", "name"),
        ("products", "title"),
        ("restaurants", "name"),
        ("citations", "title"),
    ] {
        let s = domains::by_name(
            scenario,
            &ScenarioConfig {
                size_a: 1500,
                size_b: 1500,
                n_matches: 500,
                dirt: DirtModel::moderate(),
                seed: 2024,
            },
        )
        .expect("known scenario");
        magellan_obs::log!(
            info,
            "== {scenario} (attr `{attr}`, moderate dirt, 500 gold) =="
        );
        magellan_obs::log!(
            info,
            "{:48} {:>10} {:>8} {:>10}",
            "blocker",
            "|C|",
            "recall",
            "reduction"
        );
        let blockers: Vec<Box<dyn Blocker>> = vec![
            Box::new(AttrEquivalenceBlocker::on(attr)),
            Box::new(HashBlocker {
                l_attr: attr.into(),
                r_attr: attr.into(),
                n_buckets: 1024,
            }),
            Box::new(OverlapBlocker::words(attr, 1)),
            Box::new(OverlapBlocker::words(attr, 2)),
            Box::new(OverlapBlocker {
                l_attr: attr.into(),
                r_attr: attr.into(),
                overlap_size: 4,
                qgram: Some(3),
                shards: 1,
            }),
            Box::new(SimJoinBlocker {
                l_attr: attr.into(),
                r_attr: attr.into(),
                measure: SetSimMeasure::Jaccard(0.4),
                qgram: Some(3),
                shards: 1,
            }),
            Box::new(SortedNeighborhoodBlocker {
                l_attr: attr.into(),
                r_attr: attr.into(),
                window: 7,
            }),
            Box::new(RuleBasedBlocker::new(vec![BlockingRule {
                predicates: vec![Predicate {
                    l_attr: attr.into(),
                    r_attr: attr.into(),
                    kind: FeatureKind::Jaccard(TokSpec::Word),
                    threshold: 0.3,
                }],
            }])),
        ];
        for blocker in &blockers {
            let c = blocker
                .block(&s.table_a, &s.table_b)
                .expect("blocker execution");
            let rep = evaluate_blocking(&c, &s.table_a, &s.table_b, "id", "id", &s.gold)
                .expect("evaluation");
            magellan_obs::log!(
                info,
                "{:48} {:>10} {:>8.3} {:>10.4}",
                blocker.name(),
                rep.n_candidates,
                rep.recall(),
                rep.reduction_ratio()
            );
        }
        magellan_obs::log!(info, "");
    }
    magellan_obs::log!(
        info,
        "shape: equality blocking collapses under dirt; token-overlap and"
    );
    magellan_obs::log!(
        info,
        "rule-based (low-threshold jaccard) blockers keep recall ≥ ~0.9 while"
    );
    magellan_obs::log!(
        info,
        "cutting the cross product by 2-4 orders of magnitude."
    );
}
