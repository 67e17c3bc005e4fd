//! The generic two-table EM scenario builder.

use std::collections::HashSet;

use magellan_table::{Dtype, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dirt::DirtModel;

/// Which table a rendering lands in. Generators use the side to apply
/// systematic *format drift* (source A writes "main street", source B
/// writes "main st"), on top of the random dirt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left table.
    A,
    /// The right table.
    B,
}

/// Scenario size and dirt knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Rows in table A.
    pub size_a: usize,
    /// Rows in table B.
    pub size_b: usize,
    /// Number of matched pairs (entities rendered into both tables).
    /// Must be ≤ min(size_a, size_b).
    pub n_matches: usize,
    /// Dirt profile applied to every rendering.
    pub dirt: DirtModel,
    /// Master seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A convenient small default: 500×500 with 150 matches, moderate dirt.
    pub fn small(seed: u64) -> Self {
        ScenarioConfig {
            size_a: 500,
            size_b: 500,
            n_matches: 150,
            dirt: DirtModel::moderate(),
            seed,
        }
    }
}

/// A generated two-table EM task with its gold standard.
#[derive(Debug, Clone)]
pub struct EmScenario {
    /// Scenario name (e.g. "products", "vendors_no_brazil").
    pub name: String,
    /// Left table; first column is the key `id` with values `a0, a1, ...`.
    pub table_a: Table,
    /// Right table; key values `b0, b1, ...`.
    pub table_b: Table,
    /// Gold matches as `(a_id, b_id)` pairs.
    pub gold: HashSet<(String, String)>,
}

impl EmScenario {
    /// Is the given id pair a gold match?
    pub fn is_match(&self, a_id: &str, b_id: &str) -> bool {
        self.gold.contains(&(a_id.to_owned(), b_id.to_owned()))
    }

    /// Fraction of the cross product that matches.
    pub fn match_density(&self) -> f64 {
        self.gold.len() as f64 / (self.table_a.nrows() * self.table_b.nrows()) as f64
    }
}

/// Build a scenario from a domain's entity generator and renderer.
///
/// * `gen_entity(rng)` draws one latent entity;
/// * `render(entity, side, rng, dirt)` renders it as a row **without** the
///   id column (the builder prepends `a{i}` / `b{i}` keys).
///
/// The first `n_matches` entities are rendered into both tables (two
/// independent dirt draws — matched rows differ realistically); the rest
/// fill each side. Row order is shuffled so matches are not positionally
/// aligned.
pub fn build_scenario<E>(
    name: &str,
    cfg: &ScenarioConfig,
    columns: &[(&str, Dtype)],
    mut gen_entity: impl FnMut(&mut StdRng) -> E,
    mut render: impl FnMut(&E, Side, &mut StdRng, &DirtModel) -> Vec<Value>,
) -> EmScenario {
    assert!(
        cfg.n_matches <= cfg.size_a.min(cfg.size_b),
        "n_matches exceeds table size"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_entities = cfg.size_a + cfg.size_b - cfg.n_matches;
    let entities: Vec<E> = (0..n_entities).map(|_| gen_entity(&mut rng)).collect();

    // Entity assignment: [0, n_matches) -> both; then A-only; then B-only.
    let mut a_rows: Vec<(usize, Vec<Value>)> = Vec::with_capacity(cfg.size_a);
    let mut b_rows: Vec<(usize, Vec<Value>)> = Vec::with_capacity(cfg.size_b);
    for (e, entity) in entities.iter().enumerate() {
        if e < cfg.n_matches {
            a_rows.push((e, render(entity, Side::A, &mut rng, &cfg.dirt)));
            b_rows.push((e, render(entity, Side::B, &mut rng, &cfg.dirt)));
        } else if e < cfg.n_matches + (cfg.size_a - cfg.n_matches) {
            a_rows.push((e, render(entity, Side::A, &mut rng, &cfg.dirt)));
        } else {
            b_rows.push((e, render(entity, Side::B, &mut rng, &cfg.dirt)));
        }
    }
    a_rows.shuffle(&mut rng);
    b_rows.shuffle(&mut rng);

    let mut schema: Vec<(&str, Dtype)> = vec![("id", Dtype::Str)];
    schema.extend_from_slice(columns);

    let build_table =
        |name: &str, prefix: &str, rows: &[(usize, Vec<Value>)]| -> (Table, Vec<(usize, String)>) {
            let mut ids = Vec::with_capacity(rows.len());
            let mut t = Table::with_capacity(
                name,
                magellan_table::Schema::from_pairs(&schema).expect("valid schema"),
                rows.len(),
            );
            for (i, (entity, row)) in rows.iter().enumerate() {
                let id = format!("{prefix}{i}");
                ids.push((*entity, id.clone()));
                let mut full = Vec::with_capacity(row.len() + 1);
                full.push(Value::Str(id));
                full.extend(row.iter().cloned());
                t.push_row(full).expect("generated row matches schema");
            }
            (t, ids)
        };
    let (table_a, a_ids) = build_table("A", "a", &a_rows);
    let (table_b, b_ids) = build_table("B", "b", &b_rows);

    // Gold: pairs whose renderings came from the same (matched) entity.
    let mut b_by_entity: std::collections::HashMap<usize, &str> = std::collections::HashMap::new();
    for (e, id) in &b_ids {
        if *e < cfg.n_matches {
            b_by_entity.insert(*e, id);
        }
    }
    let gold: HashSet<(String, String)> = a_ids
        .iter()
        .filter(|(e, _)| *e < cfg.n_matches)
        .map(|(e, a_id)| {
            (
                a_id.clone(),
                (*b_by_entity.get(e).expect("matched entity rendered in B")).to_owned(),
            )
        })
        .collect();

    EmScenario {
        name: name.to_owned(),
        table_a,
        table_b,
        gold,
    }
}

impl EmScenario {
    /// Collapse the two-table scenario into a single-table *deduplication*
    /// task (§2 of the paper: "matching tuples within a single table"):
    /// all rows of A then all rows of B in one table with fresh keys
    /// `d0, d1, ...`, and the gold match pairs re-keyed accordingly
    /// (canonically ordered, A-side first).
    pub fn into_dedup(self) -> (Table, HashSet<(String, String)>) {
        let schema = magellan_table::Schema::new(self.table_a.schema().fields().to_vec())
            .expect("scenario schema is valid");
        let n_total = self.table_a.nrows() + self.table_b.nrows();
        let mut t = Table::with_capacity("D", schema, n_total);
        // Old id -> new id, per source table.
        let mut a_map = std::collections::HashMap::new();
        let mut b_map = std::collections::HashMap::new();
        let mut next = 0usize;
        for r in self.table_a.rows() {
            let mut row = self.table_a.row(r);
            let old = row[0].as_ref().display_string();
            let new_id = format!("d{next}");
            next += 1;
            a_map.insert(old, new_id.clone());
            row[0] = Value::Str(new_id);
            t.push_row(row).expect("schema matches");
        }
        for r in self.table_b.rows() {
            let mut row = self.table_b.row(r);
            let old = row[0].as_ref().display_string();
            let new_id = format!("d{next}");
            next += 1;
            b_map.insert(old, new_id.clone());
            row[0] = Value::Str(new_id);
            t.push_row(row).expect("schema matches");
        }
        let gold = self
            .gold
            .iter()
            .map(|(x, y)| (a_map[x].clone(), b_map[y].clone()))
            .collect();
        (t, gold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn toy(cfg: &ScenarioConfig) -> EmScenario {
        build_scenario(
            "toy",
            cfg,
            &[("name", Dtype::Str), ("n", Dtype::Int)],
            |rng| (rng.gen_range(0..1_000_000u64), rng.gen_range(0..100i64)),
            |e, side, rng, dirt| {
                let tag = match side {
                    Side::A => "alpha",
                    Side::B => "beta",
                };
                let name = dirt
                    .corrupt_string(&format!("entity {} {tag}", e.0), rng)
                    .map_or(Value::Null, Value::Str);
                vec![name, Value::Int(e.1)]
            },
        )
    }

    #[test]
    fn sizes_and_gold_cardinality() {
        let cfg = ScenarioConfig {
            size_a: 40,
            size_b: 30,
            n_matches: 10,
            dirt: DirtModel::clean(),
            seed: 1,
        };
        let s = toy(&cfg);
        assert_eq!(s.table_a.nrows(), 40);
        assert_eq!(s.table_b.nrows(), 30);
        assert_eq!(s.gold.len(), 10);
    }

    #[test]
    fn gold_ids_exist_in_tables() {
        let s = toy(&ScenarioConfig::small(2));
        let a_keys = s.table_a.key_index("id").unwrap();
        let b_keys = s.table_b.key_index("id").unwrap();
        for (a, b) in &s.gold {
            assert!(a_keys.contains_key(a), "dangling a id {a}");
            assert!(b_keys.contains_key(b), "dangling b id {b}");
        }
    }

    #[test]
    fn gold_pairs_share_the_latent_entity() {
        // With clean dirt, matched rows carry the same latent token
        // "entity <N>" modulo the side tag.
        let cfg = ScenarioConfig {
            size_a: 20,
            size_b: 20,
            n_matches: 8,
            dirt: DirtModel::clean(),
            seed: 3,
        };
        let s = toy(&cfg);
        let a_keys = s.table_a.key_index("id").unwrap();
        let b_keys = s.table_b.key_index("id").unwrap();
        for (a, b) in &s.gold {
            let ra = a_keys[a];
            let rb = b_keys[b];
            let na = s
                .table_a
                .value_by_name(ra, "name")
                .unwrap()
                .display_string();
            let nb = s
                .table_b
                .value_by_name(rb, "name")
                .unwrap()
                .display_string();
            let stem_a: Vec<&str> = na.split_whitespace().take(2).collect();
            let stem_b: Vec<&str> = nb.split_whitespace().take(2).collect();
            assert_eq!(stem_a, stem_b, "{na} vs {nb}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let s1 = toy(&ScenarioConfig::small(9));
        let s2 = toy(&ScenarioConfig::small(9));
        assert_eq!(s1.gold, s2.gold);
        assert_eq!(s1.table_a.nrows(), s2.table_a.nrows());
        for r in 0..s1.table_a.nrows() {
            assert_eq!(s1.table_a.row(r), s2.table_a.row(r));
        }
    }

    #[test]
    fn match_density() {
        let cfg = ScenarioConfig {
            size_a: 10,
            size_b: 10,
            n_matches: 5,
            dirt: DirtModel::clean(),
            seed: 4,
        };
        let s = toy(&cfg);
        assert!((s.match_density() - 0.05).abs() < 1e-12);
        let (a, b) = s.gold.iter().next().unwrap();
        assert!(s.is_match(a, b));
        assert!(!s.is_match("a999", "b999"));
    }

    #[test]
    fn into_dedup_rekeys_table_and_gold() {
        let cfg = ScenarioConfig {
            size_a: 15,
            size_b: 12,
            n_matches: 6,
            dirt: DirtModel::clean(),
            seed: 21,
        };
        let s = toy(&cfg);
        let (t, gold) = s.into_dedup();
        assert_eq!(t.nrows(), 27);
        assert_eq!(gold.len(), 6);
        let keys = t.key_index("id").unwrap();
        assert_eq!(keys.len(), 27, "fresh dedup keys must be unique");
        for (x, y) in &gold {
            assert!(keys.contains_key(x) && keys.contains_key(y));
            assert_ne!(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "n_matches exceeds")]
    fn oversized_match_count_panics() {
        let cfg = ScenarioConfig {
            size_a: 5,
            size_b: 5,
            n_matches: 6,
            dirt: DirtModel::clean(),
            seed: 0,
        };
        toy(&cfg);
    }
}
