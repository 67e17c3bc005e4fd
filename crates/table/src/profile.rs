//! Dataset profiling: the guide's "data exploration" step.
//!
//! The paper recommends pandas-profiling / OpenRefine for exploration
//! (Table 3, row "Data Exploration"); this module provides the equivalent
//! per-column statistics used to choose blocking attributes — null rates,
//! distinctness, and string-length distributions.

use std::collections::HashMap;

use crate::table::Table;
use crate::value::Dtype;
use crate::Result;

/// Summary statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Column dtype.
    pub dtype: Dtype,
    /// Total number of cells.
    pub count: usize,
    /// Number of null cells.
    pub nulls: usize,
    /// Number of distinct non-null values (by display form).
    pub distinct: usize,
    /// Minimum string length over non-null cells (display form).
    pub min_len: usize,
    /// Maximum string length over non-null cells (display form).
    pub max_len: usize,
    /// Mean string length over non-null cells (display form).
    pub mean_len: f64,
    /// The most frequent non-null value and its count, if any.
    pub top: Option<(String, usize)>,
}

impl ColumnProfile {
    /// Fraction of cells that are null.
    pub fn null_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nulls as f64 / self.count as f64
        }
    }

    /// Distinct values per non-null cell: 1.0 means the column is unique
    /// (a key candidate); near 0.0 means heavy repetition (a good
    /// equivalence-blocking attribute only if semantically meaningful).
    pub fn distinctness(&self) -> f64 {
        let nonnull = self.count - self.nulls;
        if nonnull == 0 {
            0.0
        } else {
            self.distinct as f64 / nonnull as f64
        }
    }
}

/// Profile every column of a table.
pub fn profile_table(table: &Table) -> Vec<ColumnProfile> {
    table
        .schema()
        .names()
        .iter()
        .map(|n| profile_column(table, n).expect("name from schema"))
        .collect()
}

/// Profile one column by name.
pub fn profile_column(table: &Table, name: &str) -> Result<ColumnProfile> {
    let idx = table.schema().try_index_of(name)?;
    let dtype = table.schema().field(idx).dtype;
    let mut nulls = 0usize;
    let mut freq: HashMap<String, usize> = HashMap::new();
    let mut min_len = usize::MAX;
    let mut max_len = 0usize;
    let mut total_len = 0usize;
    for r in table.rows() {
        let v = table.value(r, idx);
        if v.is_null() {
            nulls += 1;
            continue;
        }
        let s = v.display_string();
        min_len = min_len.min(s.len());
        max_len = max_len.max(s.len());
        total_len += s.len();
        *freq.entry(s).or_insert(0) += 1;
    }
    let nonnull = table.nrows() - nulls;
    let top = freq
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(v, c)| (v.clone(), *c));
    Ok(ColumnProfile {
        name: name.to_owned(),
        dtype,
        count: table.nrows(),
        nulls,
        distinct: freq.len(),
        min_len: if nonnull == 0 { 0 } else { min_len },
        max_len,
        mean_len: if nonnull == 0 {
            0.0
        } else {
            total_len as f64 / nonnull as f64
        },
        top,
    })
}

/// Suggest key-candidate columns: unique and never null.
pub fn key_candidates(table: &Table) -> Vec<String> {
    profile_table(table)
        .into_iter()
        .filter(|p| p.nulls == 0 && p.count > 0 && p.distinct == p.count)
        .map(|p| p.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t() -> Table {
        Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("city", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![
                vec!["a1".into(), "Madison".into(), Value::Int(40)],
                vec!["a2".into(), "Madison".into(), Value::Null],
                vec!["a3".into(), Value::Null, Value::Int(31)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn profile_counts_nulls_and_distincts() {
        let p = profile_column(&t(), "city").unwrap();
        assert_eq!(p.count, 3);
        assert_eq!(p.nulls, 1);
        assert_eq!(p.distinct, 1);
        assert_eq!(p.top, Some(("Madison".to_owned(), 2)));
        assert!((p.null_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.distinctness() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn length_stats_over_display_form() {
        let p = profile_column(&t(), "age").unwrap();
        assert_eq!(p.min_len, 2);
        assert_eq!(p.max_len, 2);
        assert!((p.mean_len - 2.0).abs() < 1e-12);
    }

    #[test]
    fn key_candidates_require_uniqueness_and_no_nulls() {
        assert_eq!(key_candidates(&t()), vec!["id".to_owned()]);
    }

    #[test]
    fn empty_table_profiles_cleanly() {
        let empty = Table::from_rows("E", &[("x", Dtype::Str)], vec![]).unwrap();
        let p = profile_column(&empty, "x").unwrap();
        assert_eq!(p.count, 0);
        assert_eq!(p.distinct, 0);
        assert_eq!(p.null_fraction(), 0.0);
        assert!(key_candidates(&empty).is_empty());
    }

    #[test]
    fn unknown_column_is_an_error() {
        assert!(profile_column(&t(), "nope").is_err());
    }
}
