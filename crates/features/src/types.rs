//! Attribute-type inference for feature generation.

use magellan_table::{Dtype, Table};

/// The EM-relevant type of an attribute, refining the storage dtype by the
/// observed token-length distribution (short names want q-gram measures,
/// long descriptions want word-token measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// Numeric attribute (int or float storage).
    Numeric,
    /// Boolean attribute.
    Boolean,
    /// String averaging ≤ 2 word tokens (codes, single names, states).
    ShortString,
    /// String averaging ≤ 8 word tokens (full names, titles, addresses).
    MediumString,
    /// Longer free text.
    LongString,
}

/// Infer the [`AttrType`] of a column from its dtype and contents.
pub fn infer_attr_type(table: &Table, attr: &str) -> magellan_table::Result<AttrType> {
    let idx = table.schema().try_index_of(attr)?;
    match table.schema().field(idx).dtype {
        Dtype::Int | Dtype::Float => return Ok(AttrType::Numeric),
        Dtype::Bool => return Ok(AttrType::Boolean),
        Dtype::Str => {}
    }
    let mut total_tokens = 0usize;
    let mut nonnull = 0usize;
    for r in table.rows() {
        let v = table.value(r, idx);
        if let Some(s) = v.as_str() {
            total_tokens += s.split_whitespace().count();
            nonnull += 1;
        }
    }
    if nonnull == 0 {
        // All-null string column: treat as short (cheapest features).
        return Ok(AttrType::ShortString);
    }
    let mean = total_tokens as f64 / nonnull as f64;
    Ok(if mean <= 2.0 {
        AttrType::ShortString
    } else if mean <= 8.0 {
        AttrType::MediumString
    } else {
        AttrType::LongString
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::Value;

    #[test]
    fn numeric_and_boolean_from_dtype() {
        let t = Table::from_rows(
            "T",
            &[("n", Dtype::Int), ("f", Dtype::Float), ("b", Dtype::Bool)],
            vec![vec![Value::Int(1), Value::Float(0.5), Value::Bool(true)]],
        )
        .unwrap();
        assert_eq!(infer_attr_type(&t, "n").unwrap(), AttrType::Numeric);
        assert_eq!(infer_attr_type(&t, "f").unwrap(), AttrType::Numeric);
        assert_eq!(infer_attr_type(&t, "b").unwrap(), AttrType::Boolean);
    }

    #[test]
    fn string_length_classes() {
        let t = Table::from_rows(
            "T",
            &[
                ("code", Dtype::Str),
                ("name", Dtype::Str),
                ("desc", Dtype::Str),
            ],
            vec![
                vec![
                    "WI".into(),
                    "dave smith jr".into(),
                    "a very long product description with many many word tokens inside it".into(),
                ],
                vec![
                    "CA".into(),
                    "joe w wilson".into(),
                    "another quite long description of a thing with lots of words to say".into(),
                ],
            ],
        )
        .unwrap();
        assert_eq!(infer_attr_type(&t, "code").unwrap(), AttrType::ShortString);
        assert_eq!(infer_attr_type(&t, "name").unwrap(), AttrType::MediumString);
        assert_eq!(infer_attr_type(&t, "desc").unwrap(), AttrType::LongString);
    }

    #[test]
    fn all_null_string_defaults_short() {
        let t = Table::from_rows(
            "T",
            &[("s", Dtype::Str)],
            vec![vec![Value::Null], vec![Value::Null]],
        )
        .unwrap();
        assert_eq!(infer_attr_type(&t, "s").unwrap(), AttrType::ShortString);
    }

    #[test]
    fn unknown_attr_errors() {
        let t = Table::from_rows("T", &[("s", Dtype::Str)], vec![]).unwrap();
        assert!(infer_attr_type(&t, "zzz").is_err());
    }
}
