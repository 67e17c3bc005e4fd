//! Falcon's handoff from a learned rule to the blocker that runs it: a
//! rule verified on the sample's feature rows must drop exactly the sample
//! pairs it fires on when `RuleBasedBlocker` executes it — also on cells
//! the features normalize (upper case, padding), where a rule that read
//! the raw cell would score other numbers. The one documented difference:
//! the blocker runs a negative threshold as 0 (a join cannot produce the
//! pairs of similarity 0 that `x > t` would then keep).

use std::collections::HashSet;

use magellan_block::{Blocker, CandidateSet, RuleBasedBlocker};
use magellan_datagen::domains::addresses;
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_falcon::rules::{to_blocking_rule, PathCond};
use magellan_falcon::workflow::{blocking_features, sample_pairs};
use magellan_falcon::{active_learn, extract_blocking_rules, ActiveLearnConfig};
use magellan_features::extract_feature_matrix;
use magellan_table::{Table, Value};

/// `t` with every non-key string cell passed through `f(row, cell)`.
fn recased(t: &Table, f: impl Fn(usize, &str) -> String) -> Table {
    let fields: Vec<_> = t
        .schema()
        .fields()
        .iter()
        .map(|fd| (fd.name.as_str(), fd.dtype))
        .collect();
    let rows = t
        .rows()
        .map(|r| {
            (0..fields.len())
                .map(|c| match t.value(r, c).as_str() {
                    Some(s) if fields[c].0 != "id" => Value::Str(f(r, s)),
                    _ => t.value(r, c).to_owned(),
                })
                .collect()
        })
        .collect();
    Table::from_rows(t.name(), &fields, rows).unwrap()
}

#[test]
fn a_learned_rule_drops_exactly_the_sample_pairs_it_fires_on() {
    let s = addresses(&ScenarioConfig {
        size_a: 300,
        size_b: 300,
        n_matches: 120,
        dirt: DirtModel::moderate(),
        seed: 11,
    });
    // A's cells upper-cased on even rows; B's padded or upper-cased.
    let a = recased(&s.table_a, |r, v| {
        if r % 2 == 0 {
            v.to_uppercase()
        } else {
            v.to_owned()
        }
    });
    let b = recased(&s.table_b, |r, v| match r % 3 {
        0 => format!("  {v} "),
        1 => v.to_uppercase(),
        _ => v.to_owned(),
    });
    let gold: HashSet<(String, String)> = s.gold.iter().cloned().collect();
    let id = |t: &Table, r: u32| t.value_by_name(r as usize, "id").unwrap().display_string();

    let pairs = sample_pairs(&a, &b, "id", "id", 500, 3);
    let features = blocking_features(&a, &b, &["id"]).unwrap();
    let matrix = extract_feature_matrix(&pairs, &a, &b, &features).unwrap();
    let outcome = active_learn(
        &matrix,
        |p| {
            let (ra, rb) = matrix.pairs[p];
            gold.contains(&(id(&a, ra), id(&b, rb)))
        },
        &ActiveLearnConfig::default(),
    );
    // Every rule, precise or not: the handoff must hold for each.
    let (kept, _) = extract_blocking_rules(
        &outcome.forest,
        &matrix,
        &outcome.labeled,
        &features,
        0.0,
        64,
    );
    let sample = CandidateSet::new(matrix.pairs.clone());
    let (mut checked, mut qgram_rules) = (0, 0);
    for rule in &kept {
        let Some(blocking) = to_blocking_rule(rule, &features) else {
            continue;
        };
        let names = matrix.names.clone();
        qgram_rules += usize::from(blocking.pretty().contains("gram("));
        let mut at_zero = rule.clone();
        for c in &mut at_zero.conditions {
            *c = PathCond {
                threshold: c.threshold.max(0.0),
                ..*c
            };
        }
        let blocker = RuleBasedBlocker::new(vec![blocking]);
        let blocked = blocker.block(&a, &b).unwrap();
        let refined = blocker.refine(&sample, &a, &b).unwrap();
        for (i, &pair) in matrix.pairs.iter().enumerate() {
            let fires = at_zero.fires(&matrix.rows[i]);
            assert_eq!(
                blocked.contains(pair),
                !fires,
                "{pair:?} under {}",
                rule.pretty(&names)
            );
            assert_eq!(refined.contains(pair), !fires, "{pair:?}");
        }
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} executable rules");
    assert!(qgram_rules >= 1, "no q-gram rule among {checked}");
}
