//! Property tests for the tabular substrate: CSV round-trips, row-op
//! invariants, and catalog validation stability.

use magellan_table::{csv, Catalog, Dtype, MappedTable, Schema, Table, Value};
use proptest::prelude::*;

/// Arbitrary cell for a column of the given dtype (with nulls).
fn cell(dtype: Dtype) -> BoxedStrategy<Value> {
    match dtype {
        Dtype::Int => {
            prop_oneof![4 => any::<i64>().prop_map(Value::Int), 1 => Just(Value::Null)].boxed()
        }
        Dtype::Bool => {
            prop_oneof![4 => any::<bool>().prop_map(Value::Bool), 1 => Just(Value::Null)].boxed()
        }
        Dtype::Float => prop_oneof![
            4 => (-1e9f64..1e9).prop_map(Value::Float),
            1 => Just(Value::Null)
        ]
        .boxed(),
        Dtype::Str => prop_oneof![
            // Exercise the CSV quoting paths: commas, quotes, newlines,
            // and carriage returns inside a field and at its end (both
            // used to come back changed).
            4 => "[a-z ,\"\n\r]{0,12}".prop_map(Value::Str),
            1 => Just(Value::Str("x\r\ny".to_owned())),
            1 => Just(Value::Str("tail\r".to_owned())),
            1 => Just(Value::Null)
        ]
        .boxed(),
    }
}

fn table() -> impl Strategy<Value = Table> {
    let dtypes = proptest::collection::vec(
        prop_oneof![
            Just(Dtype::Int),
            Just(Dtype::Float),
            Just(Dtype::Str),
            Just(Dtype::Bool)
        ],
        1..5,
    );
    dtypes.prop_flat_map(|dts| {
        let row = dts.iter().map(|&d| cell(d)).collect::<Vec<_>>();
        let schema_dts = dts.clone();
        proptest::collection::vec(row, 0..15).prop_map(move |rows| {
            let pairs: Vec<(String, Dtype)> = schema_dts
                .iter()
                .enumerate()
                .map(|(i, &d)| (format!("c{i}"), d))
                .collect();
            let pair_refs: Vec<(&str, Dtype)> =
                pairs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
            Table::from_rows("T", &pair_refs, rows).expect("consistent rows")
        })
    })
}

/// Like [`table`] but with non-ASCII string cells (multi-byte UTF-8),
/// for the binary `emtbl` round-trip: offsets in the string heap are
/// byte offsets, so multi-byte codepoints are where an off-by-one
/// would surface.
fn emtbl_table() -> impl Strategy<Value = Table> {
    let dtypes = proptest::collection::vec(
        prop_oneof![
            Just(Dtype::Int),
            Just(Dtype::Float),
            Just(Dtype::Str),
            Just(Dtype::Bool)
        ],
        1..5,
    );
    dtypes.prop_flat_map(|dts| {
        let row = dts
            .iter()
            .map(|&d| match d {
                Dtype::Str => prop_oneof![
                    4 => "[a-zµéλ☃ ,\"\n]{0,8}".prop_map(Value::Str),
                    1 => Just(Value::Null)
                ]
                .boxed(),
                other => cell(other),
            })
            .collect::<Vec<_>>();
        let schema_dts = dts.clone();
        proptest::collection::vec(row, 0..15).prop_map(move |rows| {
            let pairs: Vec<(String, Dtype)> = schema_dts
                .iter()
                .enumerate()
                .map(|(i, &d)| (format!("c{i}"), d))
                .collect();
            let pair_refs: Vec<(&str, Dtype)> =
                pairs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
            Table::from_rows("T", &pair_refs, rows).expect("consistent rows")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csv_roundtrip_preserves_string_tables(t in table()) {
        // Float display forms may not round-trip bit-exactly through text;
        // compare via display strings, which is the CSV contract.
        let mut buf = Vec::new();
        csv::write_csv(&t, &mut buf).unwrap();
        let schema = Schema::new(t.schema().fields().to_vec()).unwrap();
        let back = csv::read_csv(buf.as_slice(), "T", schema).unwrap();
        prop_assert_eq!(back.nrows(), t.nrows());
        for r in 0..t.nrows() {
            for c in 0..t.ncols() {
                prop_assert_eq!(
                    back.value(r, c).display_string(),
                    t.value(r, c).display_string(),
                    "cell ({}, {})", r, c
                );
            }
        }
    }

    #[test]
    fn take_then_take_composes(t in table(), seed in 0u64..100) {
        if t.nrows() == 0 {
            return Ok(());
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows1: Vec<usize> = (0..t.nrows()).map(|_| rng.gen_range(0..t.nrows())).collect();
        let rows2: Vec<usize> = (0..5).map(|_| rng.gen_range(0..rows1.len())).collect();
        let direct: Vec<usize> = rows2.iter().map(|&i| rows1[i]).collect();
        let two_step = t.take(&rows1).take(&rows2);
        let one_step = t.take(&direct);
        for r in 0..two_step.nrows() {
            prop_assert_eq!(two_step.row(r), one_step.row(r));
        }
    }

    #[test]
    fn filter_preserves_schema_and_subsets(t in table()) {
        let even = t.filter(|r| r % 2 == 0);
        prop_assert_eq!(even.schema(), t.schema());
        prop_assert_eq!(even.nrows(), t.nrows().div_ceil(2));
        for (out_r, in_r) in (0..t.nrows()).step_by(2).enumerate() {
            prop_assert_eq!(even.row(out_r), t.row(in_r));
        }
    }

    #[test]
    fn profile_counts_are_consistent(t in table()) {
        for p in magellan_table::profile::profile_table(&t) {
            prop_assert_eq!(p.count, t.nrows());
            prop_assert!(p.nulls <= p.count);
            prop_assert!(p.distinct <= p.count - p.nulls);
            prop_assert!((0.0..=1.0).contains(&p.null_fraction()));
            prop_assert!((0.0..=1.0).contains(&p.distinctness()));
        }
    }

    #[test]
    fn emtbl_roundtrip_is_exact(t in emtbl_table(), salt in any::<u64>()) {
        // Unlike the CSV round-trip above, the binary format owes the
        // caller *bit-exact* cells: floats compare by value (no NaNs in
        // the strategy), strings byte-for-byte, nulls as nulls.
        let path = std::env::temp_dir().join(format!(
            "magellan_emtbl_prop_{}_{salt:x}.emtbl",
            std::process::id()
        ));
        magellan_table::emtbl::write_path(&t, &path).unwrap();

        // Mapped (zero-copy) reads.
        let m = MappedTable::open(&path).unwrap();
        prop_assert_eq!(m.nrows(), t.nrows());
        prop_assert_eq!(m.schema(), t.schema());
        for r in 0..t.nrows() {
            for c in 0..t.ncols() {
                prop_assert_eq!(m.value(r, c), t.value(r, c), "mapped cell ({}, {})", r, c);
            }
        }

        // Materialized open: a full in-RAM Table again.
        let back = magellan_table::emtbl::open_table(&path).unwrap();
        prop_assert_eq!(back.nrows(), t.nrows());
        prop_assert_eq!(back.schema(), t.schema());
        for r in 0..t.nrows() {
            for c in 0..t.ncols() {
                prop_assert_eq!(back.value(r, c), t.value(r, c), "cell ({}, {})", r, c);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn catalog_key_validation_is_stable_under_projection(n in 1usize..30) {
        // A table with a synthetic unique key: validation passes, and the
        // projection (fresh id) starts metadata-free.
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Str(format!("k{i}")), Value::Int(i as i64)])
            .collect();
        let t = Table::from_rows("T", &[("id", Dtype::Str), ("v", Dtype::Int)], rows).unwrap();
        let mut cat = Catalog::new();
        cat.set_key(&t, "id").unwrap();
        cat.validate_key(&t).unwrap();
        let p = t.project(&["id"]).unwrap();
        prop_assert!(cat.key(&p).is_none());
    }
}
