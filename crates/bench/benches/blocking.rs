//! Blocker throughput on generated tables, plus the blocking debugger.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_block::debugger::debug_blocker;
use magellan_block::{
    AttrEquivalenceBlocker, Blocker, BlockingRule, OverlapBlocker, Predicate, RuleBasedBlocker,
    SimFeature, SortedNeighborhoodBlocker, TokSpec,
};
use magellan_datagen::domains::persons;
use magellan_datagen::{DirtModel, ScenarioConfig};

fn scenario(n: usize) -> magellan_datagen::EmScenario {
    persons(&ScenarioConfig {
        size_a: n,
        size_b: n,
        n_matches: n / 3,
        dirt: DirtModel::light(),
        seed: 9,
    })
}

fn bench_blockers(c: &mut Criterion) {
    let mut g = c.benchmark_group("blockers");
    g.sample_size(10);
    for n in [1000usize, 3000] {
        let s = scenario(n);
        let blockers: Vec<(&str, Box<dyn Blocker>)> = vec![
            (
                "attr_equiv_state",
                Box::new(AttrEquivalenceBlocker::on("state")),
            ),
            ("overlap_name", Box::new(OverlapBlocker::words("name", 1))),
            (
                "sorted_neighborhood",
                Box::new(SortedNeighborhoodBlocker {
                    l_attr: "name".into(),
                    r_attr: "name".into(),
                    window: 5,
                }),
            ),
            (
                "rule_based",
                Box::new(RuleBasedBlocker::new(vec![BlockingRule {
                    predicates: vec![Predicate {
                        l_attr: "name".into(),
                        r_attr: "name".into(),
                        feature: SimFeature::Jaccard(TokSpec::Word),
                        threshold: 0.3,
                    }],
                }])),
            ),
        ];
        for (name, blocker) in &blockers {
            g.bench_with_input(BenchmarkId::new(*name, n), &n, |b, _| {
                b.iter(|| black_box(blocker.block(&s.table_a, &s.table_b).unwrap()))
            });
        }
    }
    g.finish();
}

fn bench_debugger(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocking_debugger");
    g.sample_size(10);
    let s = scenario(2000);
    let cands = AttrEquivalenceBlocker::on("name")
        .block(&s.table_a, &s.table_b)
        .unwrap();
    g.bench_function("debug_blocker_top20", |b| {
        b.iter(|| {
            black_box(
                debug_blocker(&cands, &s.table_a, &s.table_b, &["name", "city"], 20, 0.3).unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_blockers, bench_debugger);
criterion_main!(benches);
