//! String columns against a row model. Random sequences of `push_row`,
//! `set_value` (nulls and empty strings included), `take`, `filter`,
//! `concat`, `ensure_in_ram` and `emtbl` round trips run on a table of
//! three string columns and on a `Vec<Vec<Option<String>>>`, and every
//! cell is compared after every step. Overwrites are the most frequent
//! step and a sequence is 100–300 steps long, so each column's heap
//! fills with dead bytes and is rebuilt in row order many times over
//! (488 rebuilds across the 64 cases).

use magellan_table::{emtbl, Dtype, Storage, Table, Value};
use proptest::prelude::*;

type Model = Vec<Vec<Option<String>>>;

const NAMES: [&str; 3] = ["a", "b", "c"];

#[derive(Debug, Clone)]
enum Op {
    Push(Vec<Option<String>>),
    /// Row (modulo the row count), column, new cell.
    Set(usize, usize, Option<String>),
    /// Rows, each modulo the row count.
    Take(Vec<usize>),
    /// Keep row `r` iff bit `r % 64` is set.
    Filter(u64),
    /// Append a copy of the table to itself.
    Concat,
    InRam,
    Roundtrip,
}

fn cell() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        1 => Just(None),
        1 => Just(Some(String::new())),
        6 => "[a-zé☃ ,\"\n]{0,12}".prop_map(Some),
    ]
    .boxed()
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        3 => proptest::collection::vec(cell(), 3).prop_map(Op::Push),
        8 => (any::<usize>(), 0usize..3, cell()).prop_map(|(r, c, v)| Op::Set(r, c, v)),
        1 => proptest::collection::vec(any::<usize>(), 0..12).prop_map(Op::Take),
        1 => any::<u64>().prop_map(Op::Filter),
        1 => Just(Op::Concat),
        1 => Just(Op::InRam),
        1 => Just(Op::Roundtrip),
    ]
    .boxed()
}

fn check(t: &Table, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.nrows(), model.len());
    for (r, row) in model.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            prop_assert_eq!(
                t.value(r, c).as_str(),
                cell.as_deref(),
                "cell ({}, {})",
                r,
                c
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn string_columns_match_a_row_model(ops in proptest::collection::vec(op(), 100..300)) {
        let schema: Vec<(&str, Dtype)> = NAMES.iter().map(|&n| (n, Dtype::Str)).collect();
        let mut t = Table::from_rows("M", &schema, vec![]).unwrap();
        let mut model: Model = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push(row) => {
                    t.push_row(row.iter().cloned().map(Value::from).collect()).unwrap();
                    model.push(row);
                }
                Op::Set(r, c, cell) if !model.is_empty() => {
                    let r = r % model.len();
                    t.set_value(r, NAMES[c], Value::from(cell.clone())).unwrap();
                    model[r][c] = cell;
                }
                Op::Take(rows) if !model.is_empty() => {
                    let rows: Vec<usize> = rows.iter().map(|r| r % model.len()).collect();
                    t = t.take(&rows);
                    model = rows.iter().map(|&r| model[r].clone()).collect();
                }
                Op::Filter(mask) => {
                    let keep = |r: usize| mask >> (r % 64) & 1 == 1;
                    t = t.filter(keep);
                    model = model
                        .into_iter()
                        .enumerate()
                        .filter(|&(r, _)| keep(r))
                        .map(|(_, row)| row)
                        .collect();
                }
                Op::Concat if model.len() <= 32 => {
                    let copy = t.clone();
                    t.concat(&copy).unwrap();
                    model.extend_from_within(..);
                }
                Op::InRam => {
                    t.ensure_in_ram();
                    prop_assert_eq!(t.storage(), Storage::InRam);
                }
                Op::Roundtrip => {
                    // A fresh file each time: rewriting the one a mapped
                    // table is reading would pull its pages away. The
                    // mapping outlives the file's name.
                    let path = std::env::temp_dir()
                        .join(format!("column_model_{}_{step}.emtbl", std::process::id()));
                    emtbl::write_path(&t, &path).unwrap();
                    t = emtbl::open_table(&path).unwrap();
                    std::fs::remove_file(&path).unwrap();
                }
                _ => {}
            }
            check(&t, &model)?;
        }
    }
}
