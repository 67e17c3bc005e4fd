//! The in-memory table: the generic data structure every Magellan-rs tool
//! exchanges (the pandas-DataFrame role in the paper's design).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::column::Column;
use crate::emtbl::{ColumnSlice, MappedTable};
use crate::error::TableError;
use crate::schema::{Field, Schema};
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
    /// Columns live in RAM as [`Column`] vectors (the default).
    InRam,
    /// Columns are zero-copy views over an open `emtbl` file
    /// ([`MappedTable`]); nothing is materialized until an API that
    /// needs `&Column` or mutation asks for it.
    Mapped,
}

/// The `Storage::Mapped` backing: the open file plus a lazily
/// materialized per-column cache for the `&Column`-returning
/// compatibility APIs. Cloned tables share both (`Arc`).
#[derive(Debug, Clone)]
struct MappedBacking {
    map: Arc<MappedTable>,
    lazy: Arc<Vec<OnceLock<Column>>>,
}

/// A borrowed view of one column that works over either backing:
/// in-RAM tables hand out the [`Column`], mapped tables a zero-copy
/// [`ColumnSlice`] into the file. The hot seam for scans that must not
/// materialize mapped columns.
#[derive(Debug, Clone, Copy)]
pub enum ColView<'a> {
    /// View over an in-RAM column.
    Ram(&'a Column),
    /// Zero-copy view over a mapped column segment.
    Mapped(ColumnSlice<'a>),
}

impl<'a> ColView<'a> {
    /// Borrow the cell at `row`.
    pub fn get(&self, row: usize) -> ValueRef<'a> {
        match self {
            ColView::Ram(c) => c.get(row),
            ColView::Mapped(s) => s.get(row),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColView::Ram(c) => c.len(),
            ColView::Mapped(s) => s.len(),
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
    mapped: Option<MappedBacking>,
    nrows: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, 0))
            .collect();
        Table {
            id: TableId::fresh(),
            name: name.into(),
            schema,
            columns,
            mapped: None,
            nrows: 0,
        }
    }

    /// Create an empty table, reserving space for `cap` rows.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, cap: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, cap))
            .collect();
        Table {
            id: TableId::fresh(),
            name: name.into(),
            schema,
            columns,
            mapped: None,
            nrows: 0,
        }
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

    /// Rename the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
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
        let lazy = Arc::new((0..map.ncols()).map(|_| OnceLock::new()).collect());
        Table {
            id: TableId::fresh(),
            name: name.into(),
            schema: map.schema().clone(),
            columns: Vec::new(),
            nrows: map.nrows(),
            mapped: Some(MappedBacking { map, lazy }),
        }
    }

    /// Which backing this table currently reads from.
    pub fn storage(&self) -> Storage {
        if self.mapped.is_some() {
            Storage::Mapped
        } else {
            Storage::InRam
        }
    }

    /// The open `emtbl` file behind a `Storage::Mapped` table.
    pub fn mapped_table(&self) -> Option<&MappedTable> {
        self.mapped.as_ref().map(|m| &*m.map)
    }

    /// A backing-agnostic view of one column by position: zero-copy for
    /// mapped tables, a plain borrow for in-RAM ones. Scans that must not
    /// materialize mapped columns go through this instead of
    /// [`Table::column_at`].
    pub fn col_view(&self, idx: usize) -> ColView<'_> {
        match &self.mapped {
            Some(m) => ColView::Mapped(m.map.column_slice(idx)),
            None => ColView::Ram(&self.columns[idx]),
        }
    }

    /// Copy every mapped column into RAM and drop the file backing.
    /// Mutating APIs call this first; a no-op for in-RAM tables.
    pub fn ensure_in_ram(&mut self) {
        if let Some(m) = self.mapped.take() {
            self.columns = (0..m.map.ncols())
                .map(|c| match m.lazy[c].get() {
                    Some(col) => col.clone(),
                    None => m.map.materialize_column(c),
                })
                .collect();
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
        // Validate before mutating so a failed push cannot leave ragged
        // columns behind.
        for (value, field) in row.iter().zip(self.schema.fields()) {
            if let Some(d) = value.dtype() {
                let ok = d == field.dtype || (d == Dtype::Int && field.dtype == Dtype::Float);
                if !ok {
                    return Err(TableError::TypeMismatch {
                        column: field.name.clone(),
                        expected: field.dtype,
                        found: d,
                    });
                }
            }
        }
        for ((value, col), field) in row
            .into_iter()
            .zip(self.columns.iter_mut())
            .zip(self.schema.fields())
        {
            col.push(value, &field.name)
                .expect("validated before mutation");
        }
        self.nrows += 1;
        Ok(())
    }

    /// Borrow the cell at (`row`, `col`) by column index. Zero-copy for
    /// both backings.
    pub fn value(&self, row: usize, col: usize) -> ValueRef<'_> {
        match &self.mapped {
            Some(m) => m.map.value(row, col),
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
        self.columns[idx].set(row, value, name)
    }

    /// Borrow a whole column by name. For mapped tables this materializes
    /// (and caches) the column; zero-copy scans use [`Table::col_view`].
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.try_index_of(name)?;
        Ok(self.column_at(idx))
    }

    /// Borrow a whole column by position. For mapped tables this
    /// materializes (and caches) the column; zero-copy scans use
    /// [`Table::col_view`].
    pub fn column_at(&self, idx: usize) -> &Column {
        match &self.mapped {
            Some(m) => m.lazy[idx].get_or_init(|| m.map.materialize_column(idx)),
            None => &self.columns[idx],
        }
    }

    /// Materialize one row as owned values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.ncols())
            .map(|c| self.value(row, c).to_owned())
            .collect()
    }

    /// Append columns of equal length to every existing column (the batch
    /// flush path of [`crate::emtbl::ColumnarBuilder`]). The batch must
    /// match the schema's arity and dtypes.
    pub fn append_batch(&mut self, batch: Vec<Column>) -> Result<()> {
        if batch.len() != self.schema.len() {
            return Err(TableError::RowArity {
                expected: self.schema.len(),
                found: batch.len(),
            });
        }
        let n = batch.first().map_or(0, Column::len);
        for (col, field) in batch.iter().zip(self.schema.fields()) {
            if col.dtype() != field.dtype {
                return Err(TableError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype,
                    found: col.dtype(),
                });
            }
            if col.len() != n {
                return Err(TableError::RowArity {
                    expected: n,
                    found: col.len(),
                });
            }
        }
        self.ensure_in_ram();
        for (dst, src) in self.columns.iter_mut().zip(batch) {
            dst.append(src);
        }
        self.nrows += n;
        Ok(())
    }

    /// Append a fully built column. Must match the row count.
    pub fn add_column(&mut self, field: Field, column: Column) -> Result<()> {
        self.ensure_in_ram();
        if column.len() != self.nrows {
            return Err(TableError::RowArity {
                expected: self.nrows,
                found: column.len(),
            });
        }
        if column.dtype() != field.dtype {
            return Err(TableError::TypeMismatch {
                column: field.name.clone(),
                expected: field.dtype,
                found: column.dtype(),
            });
        }
        self.schema.push(field)?;
        self.columns.push(column);
        Ok(())
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
                self.column_at(idx).clone()
            })
            .collect();
        Ok(Table {
            id: TableId::fresh(),
            name: self.name.clone(),
            schema,
            columns,
            mapped: None,
            nrows: self.nrows,
        })
    }

    /// A new table containing the rows at `rows` (indices may repeat).
    pub fn take(&self, rows: &[usize]) -> Table {
        let columns = (0..self.ncols()).map(|c| self.column_at(c).take(rows)).collect();
        Table {
            id: TableId::fresh(),
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns,
            mapped: None,
            nrows: rows.len(),
        }
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
        if self.schema != *other.schema() {
            return Err(TableError::RowArity {
                expected: self.schema.len(),
                found: other.schema().len(),
            });
        }
        for r in 0..other.nrows() {
            self.push_row(other.row(r))?;
        }
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
            &[("id", Dtype::Str), ("name", Dtype::Str), ("age", Dtype::Int)],
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
        assert_eq!(t.value_by_name(0, "name").unwrap().as_str(), Some("Dave Smith"));
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
            assert_eq!(t.column_at(c).len(), 3);
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
        t.push_row(vec![Value::Null, "Ghost".into(), Value::Null]).unwrap();
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
        assert_eq!(mapped.storage(), Storage::Mapped, "nothing was materialized");
        drop(mapped);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn concat_same_schema() {
        let mut t = people();
        let u = people();
        t.concat(&u).unwrap();
        assert_eq!(t.nrows(), 6);
        let other = Table::from_rows("B", &[("x", Dtype::Int)], vec![]).unwrap();
        assert!(t.concat(&other).is_err());
    }

    #[test]
    fn add_column_validates_shape_and_type() {
        let mut t = people();
        let col = Column::Int(vec![Some(1), Some(2), Some(3)]);
        t.add_column(Field::new("rank", Dtype::Int), col).unwrap();
        assert_eq!(t.value_by_name(2, "rank").unwrap().as_int(), Some(3));

        let short = Column::Int(vec![Some(1)]);
        assert!(t.add_column(Field::new("bad", Dtype::Int), short).is_err());
        let wrong = Column::Str(vec![None, None, None]);
        assert!(t.add_column(Field::new("bad2", Dtype::Int), wrong).is_err());
    }

    #[test]
    fn display_renders_all_rows() {
        let t = people();
        let s = t.to_string();
        assert!(s.contains("Dave Smith") && s.contains("a3"));
    }
}
