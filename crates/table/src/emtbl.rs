//! `emtbl` — the on-disk columnar table format of the out-of-core
//! storage tier.
//!
//! A table is written once as fixed-width typed column segments plus an
//! offset-indexed string heap, then mapped back read-only and sliced
//! zero-copy into [`ValueRef`]/[`ColumnSlice`] views. On Unix the file is
//! `mmap`ed (the kernel pages columns in on demand, so a cold scan of one
//! column touches only that column's pages); everywhere else — or when
//! `mmap` fails — the file is read into an 8-byte-aligned buffer with
//! identical semantics. Either way no row is ever materialized: the chunk
//! executor slices straight into the mapped buffer.
//!
//! ## Layout (`emtbl v2`, little-endian)
//!
//! An `emtbl v2` file is a [`crate::segment`] file — the framing, the
//! checksums and the 8-byte alignment of every payload are the codec's —
//! with one schema segment and one segment per column:
//!
//! ```text
//! magic            "emtbl v2"
//! 1 schema         nrows:u64, ncols:u32, per col: name_len:u32, name (UTF-8), dtype:u8
//! 2 column × ncols payload below
//! END
//! ```
//!
//! Column payloads (the validity bitmap padded to 8 bytes, so the data
//! section that follows casts in place):
//!
//! | dtype | payload                                                    |
//! |-------|------------------------------------------------------------|
//! | bool  | validity bitmap, value bitmap                              |
//! | int   | validity bitmap, `nrows × i64`                             |
//! | float | validity bitmap, `nrows × f64`                             |
//! | str   | validity bitmap, `(nrows+1) × u64` offsets, string heap    |
//!
//! Null cells are zero in the data section and clear in the validity
//! bitmap; a null string and an empty string differ only in validity. A
//! torn write or a flipped byte fails a segment checksum at open time,
//! and what passes the checksum is still checked before it is sliced:
//! the row count against the file's length, each payload's size against
//! the schema, string offsets for monotonicity, and each string heap for
//! UTF-8 with every offset on a char boundary (so every cell is UTF-8).
//!
//! A string column of an in-RAM [`Table`] has the same layout, with a
//! `(start, len)` span per row where the file has offsets: writing one
//! derives the offsets from the spans and copies out of one heap.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::column::Column;
use crate::error::TableError;
use crate::schema::{Field, Schema};
use crate::segment::{SegmentReader, SegmentWriter};
use crate::table::Table;
use crate::value::{Dtype, ValueRef};
use crate::Result;

/// Format name and version: the file's [`crate::segment`] magic.
pub const MAGIC: &str = "emtbl v2";

const SEG_SCHEMA: u32 = 1;
const SEG_COLUMN: u32 = 2;

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

fn err(message: impl Into<String>) -> TableError {
    TableError::Format(message.into())
}

fn dtype_code(d: Dtype) -> u8 {
    match d {
        Dtype::Bool => 0,
        Dtype::Int => 1,
        Dtype::Float => 2,
        Dtype::Str => 3,
    }
}

fn code_dtype(c: u8) -> Option<Dtype> {
    match c {
        0 => Some(Dtype::Bool),
        1 => Some(Dtype::Int),
        2 => Some(Dtype::Float),
        3 => Some(Dtype::Str),
        _ => None,
    }
}

fn bit(bits: &[u8], i: usize) -> bool {
    bits[i / 8] & (1 << (i % 8)) != 0
}

fn set_bit(bits: &mut [u8], i: usize) {
    bits[i / 8] |= 1 << (i % 8);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serialize a table into `emtbl v2` bytes on `w`. Buffers one column
/// payload at a time, never the whole file.
pub fn write<W: Write>(table: &Table, w: &mut W) -> Result<()> {
    let nrows = table.nrows();
    let mut schema = Vec::with_capacity(64);
    schema.extend_from_slice(&(nrows as u64).to_le_bytes());
    schema.extend_from_slice(&(table.ncols() as u32).to_le_bytes());
    for f in table.schema().fields() {
        schema.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
        schema.extend_from_slice(f.name.as_bytes());
        schema.push(dtype_code(f.dtype));
    }
    let mut out = SegmentWriter::new(w, MAGIC)?;
    out.segment(SEG_SCHEMA, &schema)?;

    let vbytes = pad8(nrows.div_ceil(8));
    for c in 0..table.ncols() {
        let col = table.ram_column(c);
        let mut payload = Vec::with_capacity(vbytes + 8 * (nrows + 1));
        payload.resize(vbytes, 0);
        match &*col {
            Column::Bool(v) => {
                payload.resize(2 * vbytes, 0);
                for (r, cell) in v.iter().enumerate() {
                    if let Some(b) = *cell {
                        set_bit(&mut payload, r);
                        if b {
                            set_bit(&mut payload[vbytes..], r);
                        }
                    }
                }
            }
            Column::Int(v) => {
                for (r, cell) in v.iter().enumerate() {
                    if cell.is_some() {
                        set_bit(&mut payload, r);
                    }
                    payload.extend_from_slice(&cell.unwrap_or(0).to_le_bytes());
                }
            }
            Column::Float(v) => {
                for (r, cell) in v.iter().enumerate() {
                    if cell.is_some() {
                        set_bit(&mut payload, r);
                    }
                    payload.extend_from_slice(&cell.unwrap_or(0.0).to_le_bytes());
                }
            }
            Column::Str(s) => {
                payload[..s.validity().len()].copy_from_slice(s.validity());
                let cells = || (0..nrows).map(|r| s.get(r).unwrap_or(""));
                let mut off = 0u64;
                payload.extend_from_slice(&off.to_le_bytes());
                for cell in cells() {
                    off += cell.len() as u64;
                    payload.extend_from_slice(&off.to_le_bytes());
                }
                payload.reserve(off as usize);
                for cell in cells() {
                    payload.extend_from_slice(cell.as_bytes());
                }
            }
        }
        out.segment(SEG_COLUMN, &payload)?;
    }
    out.finish()?;
    Ok(())
}

/// Write a table as an `emtbl v2` file at `path` (create/truncate,
/// flushed and fsynced — the write-once half of the storage tier).
pub fn write_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write(table, &mut w)?;
    w.flush()?;
    w.get_ref().sync_all()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Mapped buffer (mmap on Unix, aligned read fallback elsewhere)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file.
    pub struct Mmap {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // Read-only bytes with no interior mutability.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub fn map(file: &File, len: usize) -> Option<Mmap> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                None
            } else {
                Some(Mmap { ptr, len })
            }
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping is PROT_READ, lives until Drop, and was
            // created over exactly `len` bytes.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: ptr/len are the exact values returned by mmap.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Backing bytes of an open table: an OS mapping or an owned aligned buffer.
enum Buf {
    /// File bytes copied into an 8-byte-aligned owned buffer.
    Owned {
        /// `u64` backing keeps the base address 8-aligned for zero-copy
        /// `i64`/`f64`/`u64` slice casts.
        words: Vec<u64>,
        len: usize,
    },
    #[cfg(unix)]
    Mapped(sys::Mmap),
}

impl Buf {
    fn bytes(&self) -> &[u8] {
        match self {
            Buf::Owned { words, len } => {
                // SAFETY: the Vec<u64> allocation covers ≥ len bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
            #[cfg(unix)]
            Buf::Mapped(m) => m.bytes(),
        }
    }
}

impl fmt::Debug for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Buf({} bytes)", self.bytes().len())
    }
}

/// How [`MappedTable::open_with`] should back the file bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// `mmap` where available, aligned read otherwise (the default).
    Auto,
    /// Always read into an owned aligned buffer.
    Buffered,
}

fn read_aligned(file: &mut File, len: usize) -> Result<Buf> {
    let mut words = vec![0u64; len.div_ceil(8)];
    // SAFETY: the Vec<u64> allocation covers ≥ len bytes and u8 has no
    // validity constraints.
    let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
    file.read_exact(dst)?;
    Ok(Buf::Owned { words, len })
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Byte ranges of one column inside the mapped buffer.
#[derive(Debug, Clone)]
struct ColMeta {
    dtype: Dtype,
    /// Validity bitmap bytes.
    validity: std::ops::Range<usize>,
    /// Fixed-width data (value bitmap / i64s / f64s / u64 offsets).
    data: std::ops::Range<usize>,
    /// String heap (empty for non-string columns).
    heap: std::ops::Range<usize>,
}

/// An open `emtbl` file: schema plus zero-copy column views over the
/// mapped (or pread) file bytes. This is the `Storage::Mapped` backing of
/// a [`Table`].
#[derive(Debug)]
pub struct MappedTable {
    schema: Schema,
    nrows: usize,
    cols: Vec<ColMeta>,
    buf: Buf,
    mode: &'static str,
}

fn cast_slice<T: Copy>(bytes: &[u8]) -> &[T] {
    // SAFETY: callers only pass 8-aligned ranges of the buffer (every
    // section of the format is padded to 8 bytes and the buffer base is
    // page- or Vec<u64>-aligned), and T ∈ {i64, f64, u64} has no validity
    // constraints on any bit pattern.
    let (pre, mid, post) = unsafe { bytes.align_to::<T>() };
    debug_assert!(
        pre.is_empty() && post.is_empty(),
        "misaligned emtbl section"
    );
    mid
}

impl MappedTable {
    /// Open an `emtbl` file (mmap where available).
    pub fn open(path: impl AsRef<Path>) -> Result<MappedTable> {
        MappedTable::open_with(path, OpenMode::Auto)
    }

    /// Open an `emtbl` file with an explicit backing mode.
    pub fn open_with(path: impl AsRef<Path>, mode: OpenMode) -> Result<MappedTable> {
        let _span = magellan_obs::span("emtbl_open", 0);
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        magellan_obs::span_res_add("emtbl_bytes", len as u64);
        magellan_obs::gauge_max("magellan_table_emtbl_mapped_bytes", len as f64);
        #[cfg(unix)]
        let (buf, mode_name) = match mode {
            OpenMode::Auto => match sys::Mmap::map(&file, len) {
                Some(m) => (Buf::Mapped(m), "mmap"),
                None => (read_aligned(&mut file, len)?, "read"),
            },
            OpenMode::Buffered => (read_aligned(&mut file, len)?, "read"),
        };
        #[cfg(not(unix))]
        let (buf, mode_name) = {
            let _ = mode;
            (read_aligned(&mut file, len)?, "read")
        };
        MappedTable::parse(buf, mode_name)
    }

    fn parse(buf: Buf, mode: &'static str) -> Result<MappedTable> {
        let b = buf.bytes();
        let mut file = SegmentReader::open(b, MAGIC)?;
        let mut head = file.expect(SEG_SCHEMA)?.fields();
        let nrows = head.u64()?;
        let ncols = head.u32()? as usize;
        let mut fields = Vec::with_capacity(ncols.min(head.remaining()));
        for i in 0..ncols {
            let nlen = head.u32()? as usize;
            let name = std::str::from_utf8(head.take(nlen)?)
                .map_err(|_| err(format!("column {i} name is not UTF-8")))?;
            let code = head.u8()?;
            let dtype = code_dtype(code)
                .ok_or_else(|| err(format!("column {i} has unknown dtype code {code}")))?;
            fields.push(Field::new(name, dtype));
        }
        head.end()?;
        let schema = Schema::new(fields)?;

        // Every column holds at least a validity bit per row, so a row
        // count the file cannot hold is refused before any size is
        // computed from it.
        let nrows = usize::try_from(nrows)
            .ok()
            .filter(|&n| {
                n.div_ceil(8)
                    .checked_mul(ncols)
                    .is_some_and(|need| need <= b.len())
            })
            .ok_or_else(|| {
                err(format!(
                    "{nrows} rows of {ncols} columns cannot fit a {}-byte file",
                    b.len()
                ))
            })?;
        let vbytes = pad8(nrows.div_ceil(8));
        let data_bytes = nrows.checked_mul(8);
        let offset_bytes = nrows.checked_add(1).and_then(|n| n.checked_mul(8));
        let mut cols = Vec::with_capacity(ncols);
        for f in schema.fields() {
            let seg = file.expect(SEG_COLUMN)?;
            let (start, plen) = (seg.offset, seg.payload.len());
            let is_str = f.dtype == Dtype::Str;
            // The fixed-width sections fill the payload; only a string
            // column has a heap after them.
            let data_len = match f.dtype {
                Dtype::Bool => Some(vbytes),
                Dtype::Int | Dtype::Float => data_bytes,
                Dtype::Str => offset_bytes,
            }
            .filter(|&d| {
                vbytes
                    .checked_add(d)
                    .is_some_and(|need| need == plen || (is_str && need <= plen))
            })
            .ok_or_else(|| err(format!("column `{}` has wrong segment size", f.name)))?;
            let validity = start..start + vbytes;
            let data = validity.end..validity.end + data_len;
            let heap = data.end..start + plen;
            if is_str {
                let offsets: &[u64] = cast_slice(&b[data.clone()]);
                if offsets[0] != 0 {
                    return Err(err(format!(
                        "column `{}` offsets do not start at 0",
                        f.name
                    )));
                }
                for w in offsets.windows(2) {
                    if w[1] < w[0] {
                        return Err(err(format!(
                            "column `{}` offsets are not monotonic",
                            f.name
                        )));
                    }
                }
                if offsets[nrows] != heap.len() as u64 {
                    return Err(err(format!(
                        "column `{}` heap length disagrees with offsets",
                        f.name
                    )));
                }
                // One UTF-8 check per heap plus a char-boundary check per
                // offset: a valid heap cut only at char boundaries gives
                // valid cells, so `column_slice` can hand the heap out as
                // `str`. Only a failure scans cell by cell, for the row.
                let heap_bytes = &b[heap.clone()];
                let whole = std::str::from_utf8(heap_bytes).ok();
                if !whole.is_some_and(|h| offsets.iter().all(|&o| h.is_char_boundary(o as usize))) {
                    let row = offsets
                        .windows(2)
                        .position(|w| {
                            std::str::from_utf8(&heap_bytes[w[0] as usize..w[1] as usize]).is_err()
                        })
                        .expect("UTF-8 cells concatenate to UTF-8 cut at char boundaries");
                    return Err(err(format!("column `{}` row {row} is not UTF-8", f.name)));
                }
            }
            cols.push(ColMeta {
                dtype: f.dtype,
                validity,
                data,
                heap,
            });
        }
        file.finish()?;
        Ok(MappedTable {
            schema,
            nrows,
            cols,
            buf,
            mode,
        })
    }

    /// Schema of the stored table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Backing mode: `"mmap"` or `"read"`.
    pub fn mode(&self) -> &'static str {
        self.mode
    }

    /// Zero-copy view of one column.
    pub fn column_slice(&self, col: usize) -> ColumnSlice<'_> {
        let m = &self.cols[col];
        let b = self.buf.bytes();
        let validity = &b[m.validity.clone()];
        match m.dtype {
            Dtype::Bool => ColumnSlice::Bool {
                validity,
                bits: &b[m.data.clone()],
                len: self.nrows,
            },
            Dtype::Int => ColumnSlice::Int {
                validity,
                data: cast_slice(&b[m.data.clone()]),
            },
            Dtype::Float => ColumnSlice::Float {
                validity,
                data: cast_slice(&b[m.data.clone()]),
            },
            Dtype::Str => ColumnSlice::Str {
                validity,
                offsets: cast_slice(&b[m.data.clone()]),
                // SAFETY: `parse` checked the heap is UTF-8 and every
                // offset into it a char boundary.
                heap: unsafe { std::str::from_utf8_unchecked(&b[m.heap.clone()]) },
            },
        }
    }

    /// Borrow the cell at (`row`, `col`) zero-copy.
    pub fn value(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.column_slice(col).get(row)
    }
}

/// A zero-copy borrowed view of one stored column: validity bitmap plus
/// the typed data section, sliced straight out of the mapped file.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// Boolean column: validity bitmap + value bitmap.
    Bool {
        /// Validity bitmap (bit set ⇒ non-null).
        validity: &'a [u8],
        /// Value bitmap.
        bits: &'a [u8],
        /// Row count (bitmaps are padded past it).
        len: usize,
    },
    /// Integer column.
    Int {
        /// Validity bitmap.
        validity: &'a [u8],
        /// One `i64` per row (zero where null).
        data: &'a [i64],
    },
    /// Float column.
    Float {
        /// Validity bitmap.
        validity: &'a [u8],
        /// One `f64` per row (zero where null).
        data: &'a [f64],
    },
    /// String column: offsets into a shared heap.
    Str {
        /// Validity bitmap.
        validity: &'a [u8],
        /// `nrows + 1` byte offsets into `heap`.
        offsets: &'a [u64],
        /// Concatenated cells (validated at open).
        heap: &'a str,
    },
}

impl<'a> ColumnSlice<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::Bool { len, .. } => *len,
            ColumnSlice::Int { data, .. } => data.len(),
            ColumnSlice::Float { data, .. } => data.len(),
            ColumnSlice::Str { offsets, .. } => offsets.len() - 1,
        }
    }

    /// True if the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the cell at `row`.
    pub fn get(&self, row: usize) -> ValueRef<'a> {
        assert!(row < self.len(), "row {row} out of bounds");
        match self {
            ColumnSlice::Bool { validity, bits, .. } => {
                if bit(validity, row) {
                    ValueRef::Bool(bit(bits, row))
                } else {
                    ValueRef::Null
                }
            }
            ColumnSlice::Int { validity, data } => {
                if bit(validity, row) {
                    ValueRef::Int(data[row])
                } else {
                    ValueRef::Null
                }
            }
            ColumnSlice::Float { validity, data } => {
                if bit(validity, row) {
                    ValueRef::Float(data[row])
                } else {
                    ValueRef::Null
                }
            }
            ColumnSlice::Str {
                validity,
                offsets,
                heap,
            } => {
                if bit(validity, row) {
                    ValueRef::Str(&heap[offsets[row] as usize..offsets[row + 1] as usize])
                } else {
                    ValueRef::Null
                }
            }
        }
    }
}

/// Open an `emtbl` file as a [`Table`] with `Storage::Mapped` backing
/// (named after the file stem, like [`crate::csv::read_csv_path`]).
pub fn open_table(path: impl AsRef<Path>) -> Result<Table> {
    open_table_with(path, OpenMode::Auto)
}

/// Open an `emtbl` file as a [`Table`] with an explicit backing mode.
pub fn open_table_with(path: impl AsRef<Path>, mode: OpenMode) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_owned());
    let map = MappedTable::open_with(path, mode)?;
    Ok(Table::from_mapped(name, Arc::new(map)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Table {
        Table::from_rows(
            "S",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("age", Dtype::Int),
                ("score", Dtype::Float),
                ("ok", Dtype::Bool),
            ],
            vec![
                vec![
                    "a1".into(),
                    "Dave Smith".into(),
                    Value::Int(40),
                    Value::Float(1.5),
                    Value::Bool(true),
                ],
                vec![
                    "a2".into(),
                    "Jöe Wilsön 💡".into(),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
                vec![
                    "a3".into(),
                    "".into(),
                    Value::Int(-7),
                    Value::Float(-0.25),
                    Value::Bool(false),
                ],
            ],
        )
        .unwrap()
    }

    fn roundtrip(t: &Table, mode: OpenMode) -> Table {
        let dir = std::env::temp_dir().join(format!(
            "emtbl_test_{}_{:?}",
            std::process::id(),
            t.id().raw()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.emtbl");
        write_path(t, &path).unwrap();
        let back = open_table_with(&path, mode).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        back
    }

    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.nrows(), b.nrows());
        for r in 0..a.nrows() {
            for c in 0..a.ncols() {
                assert_eq!(a.value(r, c), b.value(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn roundtrips_all_dtypes_nulls_and_non_ascii() {
        let t = sample();
        for mode in [OpenMode::Auto, OpenMode::Buffered] {
            let back = roundtrip(&t, mode);
            assert_tables_equal(&t, &back);
            // Null string and empty string stay distinct.
            assert!(back.value(1, 4).is_null());
            assert_eq!(back.value(2, 1).as_str(), Some(""));
            assert_eq!(back.value(1, 1).as_str(), Some("Jöe Wilsön 💡"));
        }
    }

    #[test]
    fn roundtrips_empty_table() {
        let t = Table::new(
            "E",
            Schema::from_pairs(&[("a", Dtype::Str), ("b", Dtype::Int)]).unwrap(),
        );
        let back = roundtrip(&t, OpenMode::Buffered);
        assert_eq!(back.nrows(), 0);
        assert_eq!(back.schema(), t.schema());
    }

    fn parse(bytes: &[u8]) -> Result<MappedTable> {
        MappedTable::parse(to_buf(bytes), "read")
    }

    /// A schema segment's payload: `nrows`, then `(name, dtype code)`s.
    fn schema(nrows: u64, cols: &[(&str, u8)]) -> Vec<u8> {
        let mut p = nrows.to_le_bytes().to_vec();
        p.extend_from_slice(&(cols.len() as u32).to_le_bytes());
        for (name, code) in cols {
            p.extend_from_slice(&(name.len() as u32).to_le_bytes());
            p.extend_from_slice(name.as_bytes());
            p.push(*code);
        }
        p
    }

    /// 240 rows over every dtype: nulls, empty strings, multi-byte and
    /// CSV-hostile text, both float signs.
    fn pinned_table() -> Table {
        let words = ["", "a", "Dave Smith", "Jöe, \"Wilsön\"", "💡\r\n☃", "λ"];
        let rows = (0..240u64)
            .map(|i| {
                let h = magellan_obs::splitmix64(i);
                let pick = |k: u32| (h >> k) as usize % 7;
                let s = |k: u32| match pick(k) {
                    6 => Value::Null,
                    w => Value::Str(format!("{}{i}", words[w]).repeat(w % 3)),
                };
                let or_null = |k: u32, v: Value| if pick(k) == 0 { Value::Null } else { v };
                vec![
                    s(0),
                    s(8),
                    or_null(16, Value::Int(h as i64 >> 20)),
                    or_null(24, Value::Float((h % 1000) as f64 / -8.0)),
                    or_null(32, Value::Bool(h & 1 == 1)),
                ]
            })
            .collect();
        Table::from_rows(
            "P",
            &[
                ("id", Dtype::Str),
                ("name", Dtype::Str),
                ("n", Dtype::Int),
                ("x", Dtype::Float),
                ("ok", Dtype::Bool),
            ],
            rows,
        )
        .unwrap()
    }

    /// The bytes `write` gave before string columns moved onto one heap
    /// per column, pinned by length and digest, and reached by four routes:
    /// rows pushed in order, cells overwritten out of order, a CSV read,
    /// and the mapped file itself (before and after it is copied to RAM).
    #[test]
    fn v2_bytes_are_pinned() {
        let encode = |t: &Table| {
            let mut bytes = Vec::new();
            write(t, &mut bytes).unwrap();
            (bytes.len(), magellan_obs::fnv1a(&bytes))
        };
        let t = pinned_table();
        let want = encode(&t);
        assert_eq!(want, (11_872, 162_629_612_633_246_409));

        let mut rewritten = t.clone();
        for r in (0..t.nrows()).rev() {
            for name in ["id", "name"] {
                let cell = t.value_by_name(r, name).unwrap().to_owned();
                rewritten.set_value(r, name, "overwritten".into()).unwrap();
                rewritten.set_value(r, name, cell).unwrap();
            }
        }
        assert_eq!(encode(&rewritten), want, "overwritten cells");

        let mut csv = Vec::new();
        crate::csv::write_csv(&t, &mut csv).unwrap();
        let mut read = crate::csv::read_csv(csv.as_slice(), "P", t.schema().clone()).unwrap();
        for r in 0..t.nrows() {
            for name in ["id", "name"] {
                if t.value_by_name(r, name).unwrap() == ValueRef::Str("") {
                    read.set_value(r, name, Value::from("")).unwrap();
                }
            }
        }
        assert_eq!(encode(&read), want, "CSV read");

        let mut mapped = roundtrip(&t, OpenMode::Auto);
        assert_eq!(encode(&mapped), want, "mapped table");
        mapped.ensure_in_ram();
        assert_eq!(encode(&mapped), want, "mapped table copied to RAM");
    }

    /// What the segment checksums cannot vouch for: a payload sealed
    /// with a valid checksum must still agree with the schema.
    #[test]
    fn corruption_is_detected() {
        let mut bytes = Vec::new();
        write(&sample(), &mut bytes).unwrap();
        parse(&bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                parse(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        // Sound framing, wrong contents: each case is sealed by the codec,
        // so only the structural checks can refuse it.
        let file = |nrows, cols: &[(&str, u8)], column: Option<(&[u64], &[u8])>| {
            let schema = schema(nrows, cols);
            let column = column.map(|(words, heap)| {
                let words: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                [&words[..], heap].concat()
            });
            let mut segs = vec![(SEG_SCHEMA, &schema[..])];
            segs.extend(column.as_deref().map(|c| (SEG_COLUMN, c)));
            crate::segment::encode(MAGIC, &segs)
        };
        for (bytes, want) in [
            (file(1, &[("x", 9)], None), "unknown dtype code 9"),
            (file(0, &[("a", 1), ("a", 1)], None), "duplicate"),
            (
                file(0, &[("a", 1)], None),
                "expected segment 2, found segment 0",
            ),
            (
                file(1, &[("x", 1)], Some((&[1], b""))),
                "wrong segment size",
            ),
            (
                file(2, &[("s", 3)], Some((&[3, 0, 2, 1], b""))),
                "not monotonic",
            ),
            (
                file(1, &[("s", 3)], Some((&[1, 0, 5], b""))),
                "heap length disagrees",
            ),
            (
                file(1, &[("s", 3)], Some((&[1, 0, 2], &[0xc3, 0x28]))),
                "row 0 is not UTF-8",
            ),
        ] {
            let e = parse(&bytes).unwrap_err().to_string();
            assert!(e.contains(want), "expected `{want}`, got `{e}`");
        }
    }

    /// A heap that is UTF-8 as a whole but cut inside a character is
    /// refused by the boundary check, naming the row.
    #[test]
    fn offsets_inside_a_character_are_refused() {
        let schema = schema(2, &[("s", 3)]);
        let words: Vec<u8> = [0b11u64, 0, 1, 2]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let column = [&words[..], "é".as_bytes()].concat();
        let segs = [(SEG_SCHEMA, &schema[..]), (SEG_COLUMN, &column[..])];
        let bytes = crate::segment::encode(MAGIC, &segs);
        let e = parse(&bytes).unwrap_err().to_string();
        assert!(e.contains("column `s` row 0 is not UTF-8"), "{e}");
    }

    /// A valid checksum over a schema claiming 2^61 rows of one `Int`
    /// column: the row count is refused before `nrows * 8` is computed
    /// (which overflowed, and panicked in debug builds).
    #[test]
    fn hostile_row_count_is_a_format_error() {
        let file =
            |nrows| crate::segment::encode(MAGIC, &[(SEG_SCHEMA, &schema(nrows, &[("x", 1)]))]);
        match parse(&file(1 << 61)) {
            Err(TableError::Format(m)) => assert!(m.contains("cannot fit"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        // A count the file can hold reads on, to the missing column.
        let e = parse(&file(1)).unwrap_err().to_string();
        assert!(e.contains("expected segment 2"), "{e}");
    }

    /// An `emtbl v1` file is refused by name, not misread.
    #[test]
    fn v1_files_are_refused_by_version() {
        let v1 = [&b"emtbl v1"[..], &3u64.to_le_bytes(), &[0; 12]].concat();
        let e = parse(&v1).unwrap_err().to_string();
        assert!(
            e.contains("bad magic") && e.contains("found `emtbl v1`"),
            "{e}"
        );
    }

    fn to_buf(bytes: &[u8]) -> Buf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        Buf::Owned {
            words,
            len: bytes.len(),
        }
    }

    #[test]
    fn column_slices_are_zero_copy_views() {
        let t = sample();
        let mut bytes = Vec::new();
        write(&t, &mut bytes).unwrap();
        let map = parse(&bytes).unwrap();
        match map.column_slice(2) {
            ColumnSlice::Int { data, .. } => assert_eq!(data, &[40, 0, -7]),
            other => panic!("expected int slice, got {other:?}"),
        }
        match map.column_slice(1) {
            ColumnSlice::Str { offsets, .. } => assert_eq!(offsets.len(), 4),
            other => panic!("expected str slice, got {other:?}"),
        }
        assert_eq!(map.value(0, 1).as_str(), Some("Dave Smith"));
    }

    #[test]
    fn mapped_backing_promotes_to_ram_on_mutation() {
        use crate::table::Storage;
        let t = sample();
        let back = roundtrip(&t, OpenMode::Auto);
        assert_eq!(back.storage(), Storage::Mapped);
        // Read paths stay mapped.
        assert_eq!(back.value(0, 0).as_str(), Some("a1"));
        assert_eq!(back.col_view(2).len(), 3);
        assert_eq!(back.storage(), Storage::Mapped);
        // Mutation promotes to RAM with identical contents.
        let mut back = back;
        back.push_row(vec![
            "a4".into(),
            "New Row".into(),
            Value::Int(1),
            Value::Float(0.5),
            Value::Bool(true),
        ])
        .unwrap();
        assert_eq!(back.storage(), Storage::InRam);
        assert_eq!(back.nrows(), 4);
        for r in 0..3 {
            for c in 0..t.ncols() {
                assert_eq!(t.value(r, c), back.value(r, c));
            }
        }
    }
}
