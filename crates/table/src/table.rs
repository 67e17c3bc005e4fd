//! The in-memory table: the generic data structure every Magellan-rs tool
//! exchanges (the pandas-DataFrame role in the paper's design).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::column::Column;
use crate::emtbl::{ColumnSlice, MappedTable};
use crate::error::TableError;
use crate::schema::Schema;
use crate::value::{Dtype, Value, ValueRef};
use crate::Result;

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// A process-unique identity for a table instance. The catalog keys its
/// metadata by `TableId`, so metadata never outlives or silently transfers
/// to a different table the way a name-keyed registry would allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(u64);

impl TableId {
    fn fresh() -> Self {
        TableId(NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Which backing a [`Table`] reads its cells from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Columns live in RAM (the default).
    InRam,
    /// Columns are zero-copy views over an open `emtbl` file
    /// ([`MappedTable`]); the first mutation copies them into RAM.
    Mapped,
}

/// A borrowed view of one column that works over either backing: a plain
/// borrow of an in-RAM column or a zero-copy [`ColumnSlice`] into a mapped
/// file. The hot seam for scans that must not copy mapped columns.
#[derive(Debug, Clone, Copy)]
pub struct ColView<'a>(View<'a>);

#[derive(Debug, Clone, Copy)]
enum View<'a> {
    Ram(&'a Column),
    Mapped(ColumnSlice<'a>),
}

impl<'a> ColView<'a> {
    /// Borrow the cell at `row`.
    pub fn get(&self, row: usize) -> ValueRef<'a> {
        match self.0 {
            View::Ram(c) => c.get(row),
            View::Mapped(s) => s.get(row),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.0 {
            View::Ram(c) => c.len(),
            View::Mapped(s) => s.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A typed, column-oriented, nullable table; backed by RAM or by a
/// mapped `emtbl` file (see [`Storage`]).
#[derive(Debug, Clone)]
pub struct Table {
    id: TableId,
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    mapped: Option<Arc<MappedTable>>,
    nrows: usize,
}

impl Table {
    /// An in-RAM table over columns of `nrows` cells each, one per field.
    pub(crate) fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        nrows: usize,
    ) -> Self {
        Table {
            id: TableId::fresh(),
            name: name.into(),
            schema,
            columns,
            mapped: None,
            nrows,
        }
    }

    /// Create an empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::with_capacity(name, schema, 0)
    }

    /// Create an empty table, reserving space for `cap` rows.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, cap: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, cap))
            .collect();
        Table::from_columns(name, schema, columns, 0)
    }

    /// Build a table from `(name, dtype)` pairs and rows of values.
    pub fn from_rows(
        name: impl Into<String>,
        pairs: &[(&str, Dtype)],
        rows: Vec<Vec<Value>>,
    ) -> Result<Self> {
        let schema = Schema::from_pairs(pairs)?;
        let mut t = Table::with_capacity(name, schema, rows.len());
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// The process-unique identity of this table instance.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name (for display and catalog diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.schema.len()
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Wrap an open `emtbl` file as a mapped-backing table.
    pub fn from_mapped(name: impl Into<String>, map: Arc<MappedTable>) -> Self {
        let mut t = Table::from_columns(name, map.schema().clone(), Vec::new(), map.nrows());
        t.mapped = Some(map);
        t
    }

    /// Which backing this table currently reads from.
    pub fn storage(&self) -> Storage {
        if self.mapped.is_some() {
            Storage::Mapped
        } else {
            Storage::InRam
        }
    }

    /// A backing-agnostic view of one column by position: zero-copy for
    /// mapped tables, a plain borrow for in-RAM ones.
    pub fn col_view(&self, idx: usize) -> ColView<'_> {
        ColView(match &self.mapped {
            Some(m) => View::Mapped(m.column_slice(idx)),
            None => View::Ram(&self.columns[idx]),
        })
    }

    /// One column in RAM: borrowed, or copied out of the mapped file.
    pub(crate) fn ram_column(&self, idx: usize) -> Cow<'_, Column> {
        match &self.mapped {
            Some(m) => Cow::Owned(Column::from_slice(
                self.schema.field(idx).dtype,
                m.column_slice(idx),
            )),
            None => Cow::Borrowed(&self.columns[idx]),
        }
    }

    /// Copy every mapped column into RAM and drop the file backing.
    /// Mutating APIs call this first; a no-op for in-RAM tables.
    pub fn ensure_in_ram(&mut self) {
        if self.mapped.is_some() {
            self.columns = (0..self.ncols())
                .map(|c| {
                    let _span = magellan_obs::span("emtbl_scan", c as u64);
                    self.ram_column(c).into_owned()
                })
                .collect();
            self.mapped = None;
        }
    }

    /// Append a row. All-or-nothing: on arity or type error the table is
    /// left unchanged.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.ensure_in_ram();
        if row.len() != self.schema.len() {
            return Err(TableError::RowArity {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        // Check before mutating so a failed push cannot leave ragged
        // columns behind.
        for ((value, col), field) in row.iter().zip(&self.columns).zip(self.schema.fields()) {
            col.check(value.as_ref(), &field.name)?;
        }
        for (value, col) in row.iter().zip(&mut self.columns) {
            col.push(value.as_ref());
        }
        self.nrows += 1;
        Ok(())
    }

    /// Borrow the cell at (`row`, `col`) by column index. Zero-copy for
    /// both backings.
    pub fn value(&self, row: usize, col: usize) -> ValueRef<'_> {
        match &self.mapped {
            Some(m) => m.value(row, col),
            None => self.columns[col].get(row),
        }
    }

    /// Borrow the cell at (`row`, column named `name`).
    pub fn value_by_name(&self, row: usize, name: &str) -> Result<ValueRef<'_>> {
        if row >= self.nrows {
            return Err(TableError::RowOutOfBounds {
                index: row,
                len: self.nrows,
            });
        }
        let idx = self.schema.try_index_of(name)?;
        Ok(self.value(row, idx))
    }

    /// Overwrite the cell at (`row`, column named `name`).
    pub fn set_value(&mut self, row: usize, name: &str, value: Value) -> Result<()> {
        if row >= self.nrows {
            return Err(TableError::RowOutOfBounds {
                index: row,
                len: self.nrows,
            });
        }
        let idx = self.schema.try_index_of(name)?;
        self.ensure_in_ram();
        self.columns[idx].set(row, value.as_ref(), name)
    }

    /// Materialize one row as owned values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.ncols())
            .map(|c| self.value(row, c).to_owned())
            .collect()
    }

    /// A new table with only the named columns, in the requested order.
    /// The projection is a *new* table (fresh [`TableId`]): catalog metadata
    /// does not silently follow derived data.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| {
                let idx = self.schema.try_index_of(n).expect("validated by project");
                self.ram_column(idx).into_owned()
            })
            .collect();
        Ok(Table::from_columns(
            self.name.clone(),
            schema,
            columns,
            self.nrows,
        ))
    }

    /// A new table containing the rows at `rows` (indices may repeat).
    pub fn take(&self, rows: &[usize]) -> Table {
        let columns = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let view = self.col_view(c);
                let mut col = Column::with_capacity(f.dtype, rows.len());
                col.extend(rows.iter().map(|&r| view.get(r)));
                col
            })
            .collect();
        Table::from_columns(self.name.clone(), self.schema.clone(), columns, rows.len())
    }

    /// A new table with the rows for which `pred` returns true.
    pub fn filter(&self, mut pred: impl FnMut(usize) -> bool) -> Table {
        let rows: Vec<usize> = (0..self.nrows).filter(|&r| pred(r)).collect();
        self.take(&rows)
    }

    /// The first `n` rows (or all rows if fewer).
    pub fn head(&self, n: usize) -> Table {
        let rows: Vec<usize> = (0..self.nrows.min(n)).collect();
        self.take(&rows)
    }

    /// Vertically concatenate another table with an identical schema.
    pub fn concat(&mut self, other: &Table) -> Result<()> {
        let (ours, theirs) = (self.schema.fields(), other.schema.fields());
        if ours != theirs {
            let (a, b) = (&self.name, &other.name);
            return Err(TableError::SchemaMismatch(
                match ours.iter().zip(theirs).position(|(x, y)| x != y) {
                    Some(i) => format!(
                        "column {i} is `{}: {}` in `{a}` but `{}: {}` in `{b}`",
                        ours[i].name, ours[i].dtype, theirs[i].name, theirs[i].dtype
                    ),
                    None => format!(
                        "`{a}` has {} columns but `{b}` has {}",
                        ours.len(),
                        theirs.len()
                    ),
                },
            ));
        }
        self.ensure_in_ram();
        for (c, col) in self.columns.iter_mut().enumerate() {
            let view = other.col_view(c);
            col.extend((0..other.nrows).map(|r| view.get(r)));
        }
        self.nrows += other.nrows;
        Ok(())
    }

    /// Build an index from the display form of `attr` values to row indices.
    /// Used by key validation and id-pair joins. Nulls are skipped.
    pub fn key_index(&self, attr: &str) -> Result<HashMap<String, usize>> {
        let idx = self.schema.try_index_of(attr)?;
        let view = self.col_view(idx);
        let mut map = HashMap::with_capacity(self.nrows);
        for r in 0..self.nrows {
            let v = view.get(r);
            if !v.is_null() {
                map.insert(v.display_string(), r);
            }
        }
        Ok(map)
    }

    /// The string rendering of attribute `attr` for each row, `None` for
    /// nulls — the column a tokenizer, key normalizer or sort key reads.
    /// String cells are **borrowed** from the column (in RAM or mapped);
    /// only other dtypes are rendered, through their display form (what
    /// equality blocking on e.g. zip codes wants).
    pub fn column_strs(&self, attr: &str) -> Result<Vec<Option<Cow<'_, str>>>> {
        let view = self.col_view(self.schema.try_index_of(attr)?);
        Ok((0..self.nrows)
            .map(|r| match view.get(r) {
                ValueRef::Null => None,
                ValueRef::Str(s) => Some(Cow::Borrowed(s)),
                v => Some(Cow::Owned(v.display_string())),
            })
            .collect())
    }

    /// Attribute `attr`'s cells under [`ValueRef::lower_trimmed`], `None`
    /// for nulls — the form equality keys and blocking rules read. Cells
    /// already in that form are borrowed from the column.
    pub fn column_lower(&self, attr: &str) -> Result<Vec<Option<Cow<'_, str>>>> {
        let view = self.col_view(self.schema.try_index_of(attr)?);
        Ok((0..self.nrows)
            .map(|r| {
                let v = view.get(r);
                (!v.is_null()).then(|| v.lower_trimmed())
            })
            .collect())
    }

    /// Iterate row indices.
    pub fn rows(&self) -> impl Iterator<Item = usize> {
        0..self.nrows
    }
}

impl fmt::Display for Table {
    /// Pretty-print the table (intended for small tables in examples).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.nrows);
        for r in 0..self.nrows {
            let row: Vec<String> = (0..self.ncols())
                .map(|c| self.value(r, c).display_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        writeln!(f, "# {} ({} rows)", self.name, self.nrows)?;
        for (n, w) in names.iter().zip(&widths) {
            write!(f, "| {n:w$} ")?;
        }
        writeln!(f, "|")?;
        for w in &widths {
            write!(f, "|{:-<width$}", "", width = w + 2)?;
        }
        writeln!(f, "|")?;
        for row in &cells {
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, "| {cell:w$} ")?;
            }
            writeln!(f, "|")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        Table::from_rows(
            "A",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("age", Dtype::Int),
            ],
            vec![
                vec!["a1".into(), "Dave Smith".into(), Value::Int(40)],
                vec!["a2".into(), "Joe Wilson".into(), Value::Null],
                vec!["a3".into(), "Dan Smith".into(), Value::Int(31)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = people();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 3);
        assert_eq!(
            t.value_by_name(0, "name").unwrap().as_str(),
            Some("Dave Smith")
        );
        assert!(t.value_by_name(1, "age").unwrap().is_null());
        assert!(t.value_by_name(9, "age").is_err());
        assert!(t.value_by_name(0, "zzz").is_err());
    }

    #[test]
    fn push_row_is_atomic_on_error() {
        let mut t = people();
        // Wrong arity leaves table untouched.
        assert!(t.push_row(vec!["a4".into()]).is_err());
        assert_eq!(t.nrows(), 3);
        // Type error in the *last* column must not partially append.
        assert!(t
            .push_row(vec!["a4".into(), "X".into(), "not-an-int".into()])
            .is_err());
        assert_eq!(t.nrows(), 3);
        for c in 0..t.ncols() {
            assert_eq!(t.col_view(c).len(), 3);
        }
    }

    #[test]
    fn fresh_ids_for_derived_tables() {
        let t = people();
        let p = t.project(&["id", "name"]).unwrap();
        let h = t.head(2);
        assert_ne!(t.id(), p.id());
        assert_ne!(t.id(), h.id());
        assert_eq!(p.ncols(), 2);
        assert_eq!(h.nrows(), 2);
    }

    #[test]
    fn filter_and_take() {
        let t = people();
        let smiths = t.filter(|r| {
            t.value_by_name(r, "name")
                .unwrap()
                .as_str()
                .is_some_and(|s| s.ends_with("Smith"))
        });
        assert_eq!(smiths.nrows(), 2);
        let rev = t.take(&[2, 1, 0]);
        assert_eq!(rev.value_by_name(0, "id").unwrap().as_str(), Some("a3"));
    }

    #[test]
    fn key_index_skips_nulls() {
        let mut t = people();
        t.push_row(vec![Value::Null, "Ghost".into(), Value::Null])
            .unwrap();
        let idx = t.key_index("id").unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx["a2"], 1);
    }

    #[test]
    fn column_strs_borrows_strings_and_renders_the_rest() {
        let t = people();
        let names = t.column_strs("name").unwrap();
        assert_eq!(names[0].as_deref(), Some("Dave Smith"));
        assert!(names.iter().all(|n| matches!(n, Some(Cow::Borrowed(_)))));
        let ages = t.column_strs("age").unwrap();
        assert_eq!(ages[0].as_deref(), Some("40"));
        assert!(ages[1].is_none(), "nulls stay None");
        assert!(matches!(ages[2], Some(Cow::Owned(_))));
        assert!(t.column_strs("zzz").is_err());

        // Same cells, still borrowed, from a mapped table.
        let path = std::env::temp_dir().join(format!("column_strs_{}.emtbl", std::process::id()));
        crate::emtbl::write_path(&t, &path).unwrap();
        let mapped = crate::emtbl::open_table(&path).unwrap();
        assert_eq!(mapped.storage(), Storage::Mapped);
        assert_eq!(mapped.column_strs("name").unwrap(), names);
        assert_eq!(mapped.column_strs("age").unwrap(), ages);
        assert!(mapped
            .column_strs("name")
            .unwrap()
            .iter()
            .all(|n| matches!(n, Some(Cow::Borrowed(_)))));
        assert_eq!(
            mapped.storage(),
            Storage::Mapped,
            "nothing was materialized"
        );
        drop(mapped);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn concat_same_schema() {
        let mut t = people();
        let u = people();
        t.concat(&u).unwrap();
        assert_eq!(t.nrows(), 6);
        assert_eq!(t.row(4), u.row(1));

        // From a mapped table, column by column.
        let path = std::env::temp_dir().join(format!("concat_{}.emtbl", std::process::id()));
        crate::emtbl::write_path(&u, &path).unwrap();
        let mapped = crate::emtbl::open_table(&path).unwrap();
        t.concat(&mapped).unwrap();
        assert_eq!(mapped.storage(), Storage::Mapped);
        for r in 0..3 {
            assert_eq!(t.row(6 + r), u.row(r));
        }
        drop(mapped);
        let _ = std::fs::remove_file(path);
    }

    /// A schema that differs is named, not reported as a row of the
    /// wrong length ("row has 3 cells but schema has 3 columns").
    #[test]
    fn concat_names_the_schema_mismatch() {
        let mut t = people();
        let pairs = [
            ("id", Dtype::Str),
            ("title", Dtype::Str),
            ("age", Dtype::Int),
        ];
        let renamed = Table::from_rows("B", &pairs, vec![]).unwrap();
        let e = t.concat(&renamed).unwrap_err();
        assert!(matches!(e, TableError::SchemaMismatch(_)), "{e:?}");
        assert_eq!(
            e.to_string(),
            "schema mismatch: column 1 is `name: str` in `A` but `title: str` in `B`"
        );
        let narrow = Table::from_rows("C", &[("id", Dtype::Str)], vec![]).unwrap();
        let e = t.concat(&narrow).unwrap_err().to_string();
        assert!(e.contains("`A` has 3 columns but `C` has 1"), "{e}");
        assert_eq!(t.nrows(), 3);
    }

    #[test]
    fn display_renders_all_rows() {
        let t = people();
        let s = t.to_string();
        assert!(s.contains("Dave Smith") && s.contains("a3"));
    }
}
