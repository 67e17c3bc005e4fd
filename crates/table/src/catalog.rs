//! The Magellan metadata catalog.
//!
//! §4.1 of the paper: to keep commands interoperable, tables are stored in a
//! generic structure that cannot carry EM metadata, so key and
//! key–foreign-key information lives in a *stand-alone catalog*. Because any
//! tool (including ones that know nothing about the catalog) may mutate a
//! table, every command that consumes metadata must be **self-contained**:
//! it re-validates the metadata before relying on it, and surfaces a clear
//! error when the constraint no longer holds. [`Catalog::validate_key`] and
//! [`Catalog::validate_candidate`] are those checks.

use std::collections::HashMap;

use crate::error::TableError;
use crate::table::{Table, TableId};
use crate::Result;

/// Metadata for a base table: which attribute is its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Key attribute name.
    pub key: String,
}

/// Metadata for a candidate set `C` produced by blocking two tables `A`
/// and `B`. Per the paper's space-efficiency principle, `C` stores only
/// `(A.id, B.id)` pairs; this struct records how those columns relate back
/// to the base tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateMeta {
    /// Column of `C` holding the left table's key values.
    pub fk_ltable: String,
    /// Column of `C` holding the right table's key values.
    pub fk_rtable: String,
    /// Identity of the left base table.
    pub ltable: TableId,
    /// Identity of the right base table.
    pub rtable: TableId,
    /// Key attribute of the left base table.
    pub ltable_key: String,
    /// Key attribute of the right base table.
    pub rtable_key: String,
}

/// The stand-alone metadata store, keyed by [`TableId`].
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    keys: HashMap<TableId, TableMeta>,
    candidates: HashMap<TableId, CandidateMeta>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Declare `attr` as the key of `table`, validating uniqueness and
    /// non-nullness first.
    pub fn set_key(&mut self, table: &Table, attr: &str) -> Result<()> {
        validate_key_constraint(table, attr)?;
        self.keys.insert(
            table.id(),
            TableMeta {
                key: attr.to_owned(),
            },
        );
        Ok(())
    }

    /// The recorded key of `table`, if any.
    pub fn key(&self, table: &Table) -> Option<&str> {
        self.keys.get(&table.id()).map(|m| m.key.as_str())
    }

    /// The recorded key, or a [`TableError::NoMetadata`] error.
    pub fn require_key(&self, table: &Table) -> Result<&str> {
        self.key(table)
            .ok_or_else(|| TableError::NoMetadata(table.name().to_owned()))
    }

    /// Re-validate the key constraint of `table` against its *current*
    /// contents (the self-containment check). Fails if the key column went
    /// missing, grew nulls, or grew duplicates since `set_key`.
    pub fn validate_key(&self, table: &Table) -> Result<()> {
        let key = self.require_key(table)?;
        validate_key_constraint(table, key)
    }

    /// Record candidate-set metadata for `c`, validating it first.
    pub fn set_candidate_meta(
        &mut self,
        c: &Table,
        meta: CandidateMeta,
        ltable: &Table,
        rtable: &Table,
    ) -> Result<()> {
        validate_candidate_constraint(c, &meta, ltable, rtable)?;
        self.candidates.insert(c.id(), meta);
        Ok(())
    }

    /// The recorded candidate metadata of `c`, if any.
    pub fn candidate_meta(&self, c: &Table) -> Option<&CandidateMeta> {
        self.candidates.get(&c.id())
    }

    /// The recorded candidate metadata, or a [`TableError::NoMetadata`] error.
    pub fn require_candidate_meta(&self, c: &Table) -> Result<&CandidateMeta> {
        self.candidate_meta(c)
            .ok_or_else(|| TableError::NoMetadata(c.name().to_owned()))
    }

    /// Re-validate the FK constraints of candidate set `c` against the
    /// current contents of its base tables. This is the check a
    /// self-contained command runs before trusting `(A.id, B.id)` pairs —
    /// e.g. after some other tool deleted tuples from `A` (the exact failure
    /// scenario §4.1 walks through).
    pub fn validate_candidate(&self, c: &Table, ltable: &Table, rtable: &Table) -> Result<()> {
        let meta = self.require_candidate_meta(c)?;
        if meta.ltable != ltable.id() {
            return Err(TableError::ForeignKeyViolation {
                table: c.name().to_owned(),
                attr: meta.fk_ltable.clone(),
                reason: format!(
                    "left base table mismatch: expected table id {}, got `{}` (id {})",
                    meta.ltable.raw(),
                    ltable.name(),
                    ltable.id().raw()
                ),
            });
        }
        if meta.rtable != rtable.id() {
            return Err(TableError::ForeignKeyViolation {
                table: c.name().to_owned(),
                attr: meta.fk_rtable.clone(),
                reason: format!(
                    "right base table mismatch: expected table id {}, got `{}` (id {})",
                    meta.rtable.raw(),
                    rtable.name(),
                    rtable.id().raw()
                ),
            });
        }
        validate_candidate_constraint(c, meta, ltable, rtable)
    }

    /// Drop all metadata recorded for `table`.
    pub fn remove(&mut self, table: &Table) {
        self.keys.remove(&table.id());
        self.candidates.remove(&table.id());
    }

    /// Number of tables with any recorded metadata.
    pub fn len(&self) -> usize {
        let mut ids: Vec<TableId> = self.keys.keys().copied().collect();
        ids.extend(self.candidates.keys().copied());
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// True when no metadata is recorded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.candidates.is_empty()
    }
}

/// Check that `attr` is a valid key of `table`: present, non-null, unique.
fn validate_key_constraint(table: &Table, attr: &str) -> Result<()> {
    let idx = table
        .schema()
        .index_of(attr)
        .ok_or_else(|| TableError::KeyViolation {
            table: table.name().to_owned(),
            attr: attr.to_owned(),
            reason: "column not present".to_owned(),
        })?;
    let mut seen: HashMap<String, usize> = HashMap::with_capacity(table.nrows());
    for r in table.rows() {
        let v = table.value(r, idx);
        if v.is_null() {
            return Err(TableError::KeyViolation {
                table: table.name().to_owned(),
                attr: attr.to_owned(),
                reason: format!("null key at row {r}"),
            });
        }
        let s = v.display_string();
        if let Some(prev) = seen.insert(s, r) {
            return Err(TableError::KeyViolation {
                table: table.name().to_owned(),
                attr: attr.to_owned(),
                reason: format!(
                    "duplicate value `{}` at rows {prev} and {r}",
                    table.value(r, idx)
                ),
            });
        }
    }
    Ok(())
}

/// Check that every FK value in `c` resolves to a key of its base table.
fn validate_candidate_constraint(
    c: &Table,
    meta: &CandidateMeta,
    ltable: &Table,
    rtable: &Table,
) -> Result<()> {
    validate_key_constraint(ltable, &meta.ltable_key)?;
    validate_key_constraint(rtable, &meta.rtable_key)?;
    let lkeys = ltable.key_index(&meta.ltable_key)?;
    let rkeys = rtable.key_index(&meta.rtable_key)?;
    for (attr, keys, side) in [
        (&meta.fk_ltable, &lkeys, "left"),
        (&meta.fk_rtable, &rkeys, "right"),
    ] {
        let idx = c
            .schema()
            .index_of(attr)
            .ok_or_else(|| TableError::ForeignKeyViolation {
                table: c.name().to_owned(),
                attr: attr.clone(),
                reason: "column not present".to_owned(),
            })?;
        for r in c.rows() {
            let v = c.value(r, idx);
            if v.is_null() {
                return Err(TableError::ForeignKeyViolation {
                    table: c.name().to_owned(),
                    attr: attr.clone(),
                    reason: format!("null foreign key at row {r}"),
                });
            }
            let s = v.display_string();
            if !keys.contains_key(&s) {
                return Err(TableError::ForeignKeyViolation {
                    table: c.name().to_owned(),
                    attr: attr.clone(),
                    reason: format!(
                        "value `{s}` at row {r} has no matching key in the {side} table"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Dtype, Value};

    fn base(name: &str, ids: &[&str]) -> Table {
        Table::from_rows(
            name,
            &[("id", Dtype::Str), ("name", Dtype::Str)],
            ids.iter()
                .map(|i| vec![Value::from(*i), Value::from(format!("row {i}"))])
                .collect(),
        )
        .unwrap()
    }

    fn cand(pairs: &[(&str, &str)]) -> Table {
        Table::from_rows(
            "C",
            &[("l_id", Dtype::Str), ("r_id", Dtype::Str)],
            pairs
                .iter()
                .map(|(l, r)| vec![Value::from(*l), Value::from(*r)])
                .collect(),
        )
        .unwrap()
    }

    fn meta(a: &Table, b: &Table) -> CandidateMeta {
        CandidateMeta {
            fk_ltable: "l_id".into(),
            fk_rtable: "r_id".into(),
            ltable: a.id(),
            rtable: b.id(),
            ltable_key: "id".into(),
            rtable_key: "id".into(),
        }
    }

    #[test]
    fn set_key_validates_uniqueness_and_nulls() {
        let mut cat = Catalog::new();
        let a = base("A", &["a1", "a2"]);
        cat.set_key(&a, "id").unwrap();
        assert_eq!(cat.key(&a), Some("id"));

        let dup = base("D", &["x", "x"]);
        assert!(matches!(
            cat.set_key(&dup, "id"),
            Err(TableError::KeyViolation { .. })
        ));

        let mut withnull = base("N", &["x"]);
        withnull
            .push_row(vec![Value::Null, Value::from("ghost")])
            .unwrap();
        assert!(cat.set_key(&withnull, "id").is_err());
        assert!(cat.set_key(&a, "missing").is_err());
    }

    #[test]
    fn self_containment_detects_mutation_behind_catalogs_back() {
        let mut cat = Catalog::new();
        let mut a = base("A", &["a1", "a2"]);
        cat.set_key(&a, "id").unwrap();
        cat.validate_key(&a).unwrap();
        // Some catalog-unaware tool introduces a duplicate key.
        a.push_row(vec![Value::from("a1"), Value::from("clone")])
            .unwrap();
        assert!(matches!(
            cat.validate_key(&a),
            Err(TableError::KeyViolation { .. })
        ));
    }

    #[test]
    fn candidate_metadata_roundtrip_and_validation() {
        let mut cat = Catalog::new();
        let a = base("A", &["a1", "a2", "a3"]);
        let b = base("B", &["b1", "b2"]);
        let c = cand(&[("a1", "b1"), ("a3", "b2")]);
        cat.set_candidate_meta(&c, meta(&a, &b), &a, &b).unwrap();
        cat.validate_candidate(&c, &a, &b).unwrap();
        assert_eq!(cat.require_candidate_meta(&c).unwrap().fk_ltable, "l_id");
    }

    #[test]
    fn fk_violation_after_base_table_shrinks() {
        // The exact §4.1 scenario: a command of some other package removes a
        // tuple from A; the FK metadata on C is now stale and a
        // self-contained command must notice.
        let mut cat = Catalog::new();
        let a = base("A", &["a1", "a2", "a3"]);
        let b = base("B", &["b1", "b2"]);
        let c = cand(&[("a1", "b1"), ("a3", "b2")]);
        cat.set_candidate_meta(&c, meta(&a, &b), &a, &b).unwrap();

        let shrunk = a.filter(|r| r != 2); // drop a3
                                           // `shrunk` is a new table; validating against it as the left table
                                           // reports the base-table identity mismatch...
        assert!(cat.validate_candidate(&c, &shrunk, &b).is_err());
        // ...and rebinding the metadata to the shrunk table reports the
        // dangling FK value itself.
        let m = CandidateMeta {
            ltable: shrunk.id(),
            ..meta(&a, &b)
        };
        let err = cat.set_candidate_meta(&c, m, &shrunk, &b).unwrap_err();
        assert!(matches!(err, TableError::ForeignKeyViolation { .. }));
        assert!(err.to_string().contains("a3"));
    }

    #[test]
    fn missing_metadata_is_an_error() {
        let cat = Catalog::new();
        let a = base("A", &["a1"]);
        assert!(matches!(
            cat.require_key(&a),
            Err(TableError::NoMetadata(_))
        ));
        assert!(cat.validate_key(&a).is_err());
    }

    #[test]
    fn remove_and_len() {
        let mut cat = Catalog::new();
        let a = base("A", &["a1"]);
        let b = base("B", &["b1"]);
        cat.set_key(&a, "id").unwrap();
        cat.set_key(&b, "id").unwrap();
        assert_eq!(cat.len(), 2);
        cat.remove(&a);
        assert_eq!(cat.len(), 1);
        assert!(cat.key(&a).is_none());
        assert!(!cat.is_empty());
    }

    #[test]
    fn candidate_with_null_fk_is_rejected() {
        let mut cat = Catalog::new();
        let a = base("A", &["a1"]);
        let b = base("B", &["b1"]);
        let mut c = cand(&[("a1", "b1")]);
        c.push_row(vec![Value::Null, Value::from("b1")]).unwrap();
        let err = cat
            .set_candidate_meta(&c, meta(&a, &b), &a, &b)
            .unwrap_err();
        assert!(err.to_string().contains("null foreign key"));
    }
}
