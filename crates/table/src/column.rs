//! Typed, nullable column storage.

use crate::emtbl::ColumnSlice;
use crate::error::TableError;
use crate::value::{Dtype, ValueRef};
use crate::Result;

/// A single column of a [`crate::Table`]. Numbers and booleans are one
/// typed vector of nullable cells; strings are laid out the way an `emtbl`
/// file stores them ([`StrColumn`]), so a cell costs no allocation of its
/// own and a column is written out or dropped in a handful of blocks.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    /// Boolean column.
    Bool(Vec<Option<bool>>),
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(StrColumn),
}

/// A string column: a validity bitmap (bit `r % 8` of byte `r / 8`, as in
/// `emtbl`), a `(start, len)` span per row and one heap the spans point
/// into. Where the file has offsets the spans let a cell be overwritten:
/// the new text is appended and the old bytes are dead. Once dead bytes
/// outnumber both the live ones and the rows, the heap is rebuilt in row
/// order, which keeps [`StrColumn::set`] amortised O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct StrColumn {
    valid: Vec<u8>,
    spans: Vec<(usize, usize)>,
    heap: String,
    dead: usize,
}

impl StrColumn {
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The validity bitmap; bits past the last row are clear.
    pub(crate) fn validity(&self) -> &[u8] {
        &self.valid
    }

    pub(crate) fn get(&self, row: usize) -> Option<&str> {
        let (start, len) = self.spans[row];
        (self.valid[row / 8] & (1 << (row % 8)) != 0).then(|| &self.heap[start..start + len])
    }

    pub(crate) fn push(&mut self, cell: Option<&str>) {
        let row = self.spans.len();
        if row.is_multiple_of(8) {
            self.valid.push(0);
        }
        self.spans.push((self.heap.len(), 0));
        self.set(row, cell);
    }

    pub(crate) fn set(&mut self, row: usize, cell: Option<&str>) {
        self.dead += self.spans[row].1;
        self.spans[row] = (self.heap.len(), cell.map_or(0, str::len));
        let mask = 1 << (row % 8);
        match cell {
            Some(s) => {
                self.valid[row / 8] |= mask;
                self.heap.push_str(s);
            }
            None => self.valid[row / 8] &= !mask,
        }
        if self.dead > (self.heap.len() - self.dead).max(self.spans.len()) {
            self.compact();
        }
    }

    /// Rebuild the heap with only the live bytes, in row order.
    fn compact(&mut self) {
        let mut heap = String::with_capacity(self.heap.len() - self.dead);
        for span in &mut self.spans {
            let (start, len) = *span;
            *span = (heap.len(), len);
            heap.push_str(&self.heap[start..start + len]);
        }
        self.heap = heap;
        self.dead = 0;
    }
}

impl Column {
    /// An empty column of the given dtype with room for `cap` rows.
    pub(crate) fn with_capacity(dtype: Dtype, cap: usize) -> Self {
        match dtype {
            Dtype::Bool => Column::Bool(Vec::with_capacity(cap)),
            Dtype::Int => Column::Int(Vec::with_capacity(cap)),
            Dtype::Float => Column::Float(Vec::with_capacity(cap)),
            Dtype::Str => Column::Str(StrColumn {
                valid: Vec::with_capacity(cap.div_ceil(8)),
                spans: Vec::with_capacity(cap),
                ..StrColumn::default()
            }),
        }
    }

    /// A copy of a mapped column; a string column's heap and bitmap are
    /// copied whole and its offsets become spans.
    pub(crate) fn from_slice(dtype: Dtype, slice: ColumnSlice<'_>) -> Self {
        let ColumnSlice::Str {
            validity,
            offsets,
            heap,
        } = slice
        else {
            let mut col = Column::with_capacity(dtype, slice.len());
            col.extend((0..slice.len()).map(|r| slice.get(r)));
            return col;
        };
        let rows = offsets.len() - 1;
        let mut valid = validity[..rows.div_ceil(8)].to_vec();
        if rows % 8 != 0 {
            valid[rows / 8] &= (1 << (rows % 8)) - 1;
        }
        let spans = offsets
            .windows(2)
            .map(|w| (w[0] as usize, (w[1] - w[0]) as usize))
            .collect();
        Column::Str(StrColumn {
            valid,
            spans,
            heap: heap.to_owned(),
            dead: 0,
        })
    }

    /// The dtype of the column.
    pub(crate) fn dtype(&self) -> Dtype {
        match self {
            Column::Bool(_) => Dtype::Bool,
            Column::Int(_) => Dtype::Int,
            Column::Float(_) => Dtype::Float,
            Column::Str(_) => Dtype::Str,
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(s) => s.len(),
        }
    }

    /// Borrow the cell at `row`.
    pub(crate) fn get(&self, row: usize) -> ValueRef<'_> {
        match self {
            Column::Bool(v) => v[row].map_or(ValueRef::Null, ValueRef::Bool),
            Column::Int(v) => v[row].map_or(ValueRef::Null, ValueRef::Int),
            Column::Float(v) => v[row].map_or(ValueRef::Null, ValueRef::Float),
            Column::Str(s) => s.get(row).map_or(ValueRef::Null, ValueRef::Str),
        }
    }

    /// Whether `value` fits the column: its own dtype, an int into a float
    /// column (EM feature tables are float-typed but generators often
    /// produce whole numbers), or a null.
    pub(crate) fn check(&self, value: ValueRef<'_>, column_name: &str) -> Result<()> {
        match value.dtype() {
            Some(d) if d != self.dtype() && !(d == Dtype::Int && self.dtype() == Dtype::Float) => {
                Err(TableError::TypeMismatch {
                    column: column_name.to_owned(),
                    expected: self.dtype(),
                    found: d,
                })
            }
            _ => Ok(()),
        }
    }

    /// Append a cell that passed [`Column::check`] (a cell that did not is
    /// stored as a null).
    pub(crate) fn push(&mut self, value: ValueRef<'_>) {
        match self {
            Column::Bool(v) => v.push(value.as_bool()),
            Column::Int(v) => v.push(value.as_int()),
            Column::Float(v) => v.push(value.as_float()),
            Column::Str(s) => s.push(value.as_str()),
        }
    }

    /// Append cells that passed [`Column::check`].
    pub(crate) fn extend<'a>(&mut self, cells: impl IntoIterator<Item = ValueRef<'a>>) {
        for cell in cells {
            self.push(cell);
        }
    }

    /// Overwrite the cell at `row`, enforcing the dtype.
    pub(crate) fn set(&mut self, row: usize, value: ValueRef<'_>, column_name: &str) -> Result<()> {
        self.check(value, column_name)?;
        match self {
            Column::Bool(v) => v[row] = value.as_bool(),
            Column::Int(v) => v[row] = value.as_int(),
            Column::Float(v) => v[row] = value.as_float(),
            Column::Str(s) => s.set(row, value.as_str()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pushed(dtype: Dtype, cells: &[ValueRef<'_>]) -> Column {
        let mut c = Column::with_capacity(dtype, cells.len());
        for &cell in cells {
            c.check(cell, "c").unwrap();
            c.push(cell);
        }
        c
    }

    #[test]
    fn push_and_get_roundtrip() {
        let c = pushed(
            Dtype::Str,
            &[ValueRef::Str("x"), ValueRef::Null, ValueRef::Str("")],
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), ValueRef::Str("x"));
        assert!(c.get(1).is_null());
        assert_eq!(c.get(2), ValueRef::Str(""), "empty is not null");
    }

    #[test]
    fn type_mismatch_rejected() {
        let c = Column::with_capacity(Dtype::Int, 1);
        let err = c.check(ValueRef::Str("oops"), "n").unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
    }

    #[test]
    fn int_coerces_into_float_column() {
        let c = pushed(Dtype::Float, &[ValueRef::Int(3)]);
        assert_eq!(c.get(0), ValueRef::Float(3.0));
    }

    #[test]
    fn take_duplicates_and_reorders() {
        let cells = [ValueRef::Str("a"), ValueRef::Null, ValueRef::Str("cé")];
        let c = pushed(Dtype::Str, &cells);
        let mut t = Column::with_capacity(Dtype::Str, 3);
        t.extend([2, 0, 2, 1].map(|r| c.get(r)));
        assert_eq!(t.get(0), cells[2]);
        assert_eq!(t.get(1), cells[0]);
        assert_eq!(t.get(2), cells[2]);
        assert!(t.get(3).is_null());
    }

    #[test]
    fn set_overwrites_and_nulls() {
        let mut c = pushed(Dtype::Bool, &[ValueRef::Bool(true)]);
        c.set(0, ValueRef::Null, "b").unwrap();
        assert!(c.get(0).is_null());
        assert!(c.set(0, ValueRef::Int(1), "b").is_err());
    }

    /// Overwrites leave dead bytes behind until they outnumber the live
    /// ones and the rows; the heap is then rebuilt in row order.
    #[test]
    fn overwrites_compact_the_heap() {
        let mut c = pushed(Dtype::Str, &[ValueRef::Str("ab"); 4]);
        for i in 0..40 {
            let cell = format!("v{i}");
            c.set(i % 4, ValueRef::Str(&cell), "s").unwrap();
            let Column::Str(s) = &c else { unreachable!() };
            assert!(
                s.dead <= (s.heap.len() - s.dead).max(s.len()),
                "after set {i}"
            );
            assert_eq!(c.get(i % 4), ValueRef::Str(&cell));
        }
        c.set(1, ValueRef::Null, "s").unwrap();
        let Column::Str(s) = &c else { unreachable!() };
        let cells: Vec<_> = (0..4).map(|r| s.get(r)).collect();
        assert_eq!(cells, [Some("v36"), None, Some("v38"), Some("v39")]);
        let mut s = s.clone();
        s.compact();
        assert_eq!(s.heap, "v36v38v39");
        assert_eq!((0..4).map(|r| s.get(r)).collect::<Vec<_>>(), cells);
    }
}
