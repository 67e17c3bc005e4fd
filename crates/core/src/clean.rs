//! Data cleaning: the §5.3 lesson.
//!
//! > "Our experience also made clear that data cleaning is critical for EM
//! > (e.g., see the 'Vendors' and 'Addresses' cases). It is important that
//! > we can detect dirty data, isolate it, and then clean it, to maximize
//! > EM accuracy."
//!
//! This module provides that toolchain: value normalizers, a detector for
//! *generic placeholder values* (the Brazilian-vendor failure signature —
//! one address string shared by many unrelated records), and an isolator
//! that splits a table into its clean and dirty parts so the clean part
//! can be matched and the dirty part routed back to the domain experts.

use std::collections::HashSet;

use magellan_table::{Table, Value};

/// String normalization operations, applied in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalizeOp {
    /// Lowercase the value.
    Lowercase,
    /// Trim and collapse internal whitespace runs to single spaces.
    CollapseWhitespace,
    /// Remove ASCII punctuation characters.
    StripPunctuation,
}

/// Apply normalization ops to one string.
pub fn normalize(s: &str, ops: &[NormalizeOp]) -> String {
    let mut out = s.to_owned();
    for op in ops {
        out = match op {
            NormalizeOp::Lowercase => out.to_lowercase(),
            NormalizeOp::CollapseWhitespace => out.split_whitespace().collect::<Vec<_>>().join(" "),
            NormalizeOp::StripPunctuation => {
                out.chars().filter(|c| !c.is_ascii_punctuation()).collect()
            }
        };
    }
    out
}

/// Return a copy of the table with `attr` normalized in place.
pub fn normalize_column(
    table: &Table,
    attr: &str,
    ops: &[NormalizeOp],
) -> magellan_table::Result<Table> {
    let idx = table.schema().try_index_of(attr)?;
    // `take` (not `clone`) so the result is a fresh table identity: the
    // catalog must not treat normalized data as the registered original.
    let all: Vec<usize> = (0..table.nrows()).collect();
    let mut out = table.take(&all);
    for r in 0..table.nrows() {
        if let Some(s) = table.value(r, idx).as_str() {
            out.set_value(r, attr, Value::Str(normalize(s, ops)))?;
        }
    }
    Ok(out)
}

/// A value flagged as a probable generic placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericValue {
    /// The (normalized) value.
    pub value: String,
    /// How many rows carry it.
    pub count: usize,
    /// Fraction of non-null rows carrying it.
    pub fraction: f64,
}

/// Detect generic placeholder values in an attribute: values repeated at
/// least `min_count` times *and* covering at least `min_fraction` of the
/// non-null rows. On real master data, a street address shared by dozens
/// of unrelated vendors is not an address — it is a form default.
///
/// Values are compared after lowercasing and whitespace collapsing.
pub fn detect_generic_values(
    table: &Table,
    attr: &str,
    min_count: usize,
    min_fraction: f64,
) -> magellan_table::Result<Vec<GenericValue>> {
    let idx = table.schema().try_index_of(attr)?;
    let mut freq: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut nonnull = 0usize;
    for r in table.rows() {
        if let Some(s) = table.value(r, idx).as_str() {
            nonnull += 1;
            *freq
                .entry(normalize(
                    s,
                    &[NormalizeOp::Lowercase, NormalizeOp::CollapseWhitespace],
                ))
                .or_insert(0) += 1;
        }
    }
    if nonnull == 0 {
        return Ok(Vec::new());
    }
    let mut out: Vec<GenericValue> = freq
        .into_iter()
        .filter(|(_, c)| *c >= min_count)
        .map(|(value, count)| GenericValue {
            value,
            count,
            fraction: count as f64 / nonnull as f64,
        })
        .filter(|g| g.fraction >= min_fraction)
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.value.cmp(&b.value)));
    Ok(out)
}

/// Split a table into `(clean, dirty)` by whether `attr` carries one of
/// the flagged values (normalized comparison). Nulls go to the clean side
/// (missing is not the same pathology as generic).
pub fn isolate_rows(
    table: &Table,
    attr: &str,
    generic: &[GenericValue],
) -> magellan_table::Result<(Table, Table)> {
    let idx = table.schema().try_index_of(attr)?;
    let flagged: HashSet<&str> = generic.iter().map(|g| g.value.as_str()).collect();
    let mut clean_rows = Vec::new();
    let mut dirty_rows = Vec::new();
    for r in table.rows() {
        let is_dirty = table
            .value(r, idx)
            .as_str()
            .map(|s| {
                flagged.contains(
                    normalize(
                        s,
                        &[NormalizeOp::Lowercase, NormalizeOp::CollapseWhitespace],
                    )
                    .as_str(),
                )
            })
            .unwrap_or(false);
        if is_dirty {
            dirty_rows.push(r);
        } else {
            clean_rows.push(r);
        }
    }
    Ok((table.take(&clean_rows), table.take(&dirty_rows)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::Dtype;

    fn vendors() -> Table {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![
                Value::Str(format!("v{i}")),
                Value::Str(format!("{i} oak street")),
            ]);
        }
        // A generic placeholder shared by 10 rows, with case/space drift.
        for i in 20..30 {
            let addr = if i % 2 == 0 {
                "Rua   Principal S N".to_owned()
            } else {
                "rua principal s n".to_owned()
            };
            rows.push(vec![Value::Str(format!("v{i}")), Value::Str(addr)]);
        }
        rows.push(vec![Value::Str("v30".into()), Value::Null]);
        Table::from_rows("V", &[("id", Dtype::Str), ("address", Dtype::Str)], rows).unwrap()
    }

    #[test]
    fn normalize_ops_compose() {
        let s = normalize(
            "  Rua   PRINCIPAL, s/n!  ",
            &[
                NormalizeOp::Lowercase,
                NormalizeOp::StripPunctuation,
                NormalizeOp::CollapseWhitespace,
            ],
        );
        assert_eq!(s, "rua principal sn");
    }

    #[test]
    fn normalize_column_returns_new_table() {
        let t = vendors();
        let cleaned = normalize_column(&t, "address", &[NormalizeOp::Lowercase]).unwrap();
        assert_ne!(t.id(), cleaned.id());
        assert_eq!(
            cleaned.value_by_name(20, "address").unwrap().as_str(),
            Some("rua   principal s n")
        );
        // Nulls survive untouched.
        assert!(cleaned.value_by_name(30, "address").unwrap().is_null());
    }

    #[test]
    fn detects_the_generic_address() {
        let t = vendors();
        let generic = detect_generic_values(&t, "address", 5, 0.1).unwrap();
        assert_eq!(generic.len(), 1);
        assert_eq!(generic[0].value, "rua principal s n");
        assert_eq!(generic[0].count, 10);
        assert!((generic[0].fraction - 10.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn thresholds_suppress_ordinary_repetition() {
        let t = vendors();
        // min_count above the placeholder's count: nothing flagged.
        assert!(detect_generic_values(&t, "address", 11, 0.0)
            .unwrap()
            .is_empty());
        // fraction bar too high: nothing flagged.
        assert!(detect_generic_values(&t, "address", 5, 0.5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn isolate_splits_clean_and_dirty() {
        let t = vendors();
        let generic = detect_generic_values(&t, "address", 5, 0.1).unwrap();
        let (clean, dirty) = isolate_rows(&t, "address", &generic).unwrap();
        assert_eq!(dirty.nrows(), 10);
        assert_eq!(clean.nrows(), 21); // 20 real + the null row
        for r in dirty.rows() {
            let v = dirty.value_by_name(r, "address").unwrap().display_string();
            assert!(v.to_lowercase().contains("rua"));
        }
    }

    #[test]
    fn empty_and_unknown_columns() {
        let t = Table::from_rows("E", &[("x", Dtype::Str)], vec![]).unwrap();
        assert!(detect_generic_values(&t, "x", 1, 0.0).unwrap().is_empty());
        assert!(detect_generic_values(&t, "nope", 1, 0.0).is_err());
    }
}
