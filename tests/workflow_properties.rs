//! Property-based cross-crate invariants on randomly generated scenarios.

use magellan_block::metrics::evaluate_blocking;
use magellan_block::{
    AttrEquivalenceBlocker, Blocker, BlockingRule, CandidateSet, OverlapBlocker, Predicate,
    RuleBasedBlocker, SimFeature, TokSpec,
};
use magellan_datagen::domains;
use magellan_datagen::{DirtModel, ScenarioConfig};
use proptest::prelude::*;

fn any_scenario() -> impl Strategy<Value = magellan_datagen::EmScenario> {
    (
        prop_oneof![
            Just("persons"),
            Just("products"),
            Just("restaurants"),
            Just("citations"),
            Just("ranches"),
        ],
        20usize..80,
        20usize..80,
        0u64..1000,
        prop_oneof![
            Just(DirtModel::clean()),
            Just(DirtModel::light()),
            Just(DirtModel::moderate()),
        ],
    )
        .prop_map(|(name, size_a, size_b, seed, dirt)| {
            let n_matches = size_a.min(size_b) / 3;
            domains::by_name(
                name,
                &ScenarioConfig {
                    size_a,
                    size_b,
                    n_matches,
                    dirt,
                    seed,
                },
            )
            .expect("known scenario")
        })
}

/// The full cross product as a candidate set.
fn cross(s: &magellan_datagen::EmScenario) -> CandidateSet {
    (0..s.table_a.nrows() as u32)
        .flat_map(|ra| (0..s.table_b.nrows() as u32).map(move |rb| (ra, rb)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blockers_emit_valid_pairs_within_bounds(s in any_scenario()) {
        let first_attr = s.table_a.schema().field(1).name.clone();
        let blockers: Vec<Box<dyn Blocker>> = vec![
            Box::new(OverlapBlocker::words(&first_attr, 1)),
            Box::new(AttrEquivalenceBlocker::on(&first_attr)),
        ];
        for blocker in &blockers {
            let c = blocker.block(&s.table_a, &s.table_b).unwrap();
            prop_assert!(c.len() <= s.table_a.nrows() * s.table_b.nrows());
            for &(ra, rb) in c.pairs() {
                prop_assert!((ra as usize) < s.table_a.nrows());
                prop_assert!((rb as usize) < s.table_b.nrows());
            }
        }
    }

    #[test]
    fn union_recall_dominates_components(s in any_scenario()) {
        let first_attr = s.table_a.schema().field(1).name.clone();
        let c1 = OverlapBlocker::words(&first_attr, 1).block(&s.table_a, &s.table_b).unwrap();
        let c2 = AttrEquivalenceBlocker::on(&first_attr).block(&s.table_a, &s.table_b).unwrap();
        let u = c1.union(&c2);
        let r = |c: &CandidateSet| {
            evaluate_blocking(c, &s.table_a, &s.table_b, "id", "id", &s.gold)
                .unwrap()
                .recall()
        };
        prop_assert!(r(&u) >= r(&c1) - 1e-12);
        prop_assert!(r(&u) >= r(&c2) - 1e-12);
        // Intersection recall never exceeds either component.
        let i = c1.intersect(&c2);
        prop_assert!(r(&i) <= r(&c1) + 1e-12);
        prop_assert!(r(&i) <= r(&c2) + 1e-12);
    }

    #[test]
    fn rule_blocker_join_execution_equals_pairwise_refinement(s in any_scenario()) {
        let first_attr = s.table_a.schema().field(1).name.clone();
        let rule = BlockingRule {
            predicates: vec![Predicate {
                l_attr: first_attr.clone(),
                r_attr: first_attr,
                feature: SimFeature::Jaccard(TokSpec::Word),
                threshold: 0.4,
            }],
        };
        let blocker = RuleBasedBlocker::new(vec![rule]);
        let via_join = blocker.block(&s.table_a, &s.table_b).unwrap();
        let via_refine = blocker.refine(&cross(&s), &s.table_a, &s.table_b);
        prop_assert_eq!(via_join, via_refine);
    }

    #[test]
    fn gold_pairs_always_resolve(s in any_scenario()) {
        let ak = s.table_a.key_index("id").unwrap();
        let bk = s.table_b.key_index("id").unwrap();
        for (x, y) in &s.gold {
            prop_assert!(ak.contains_key(x));
            prop_assert!(bk.contains_key(y));
        }
        // Gold is one-to-one in these generators.
        let mut lefts: Vec<&String> = s.gold.iter().map(|(x, _)| x).collect();
        lefts.sort_unstable();
        let n = lefts.len();
        lefts.dedup();
        prop_assert_eq!(n, lefts.len());
    }

    #[test]
    fn feature_matrix_values_bounded_or_nan(s in any_scenario()) {
        let features =
            magellan_features::generate_features(&s.table_a, &s.table_b, &["id"]).unwrap();
        let first_attr = s.table_a.schema().field(1).name.clone();
        let cands = OverlapBlocker::words(&first_attr, 1)
            .block(&s.table_a, &s.table_b)
            .unwrap();
        let take: Vec<(u32, u32)> = cands.pairs().iter().copied().take(50).collect();
        let m = magellan_features::extract_feature_matrix(&take, &s.table_a, &s.table_b, &features)
            .unwrap();
        for row in &m.rows {
            for &v in row {
                prop_assert!(v.is_nan() || (-1e-9..=1.0 + 1e-9).contains(&v), "{v}");
            }
        }
    }
}
