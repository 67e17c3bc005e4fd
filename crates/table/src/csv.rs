//! CSV reading and writing (RFC-4180 subset).
//!
//! Hand-written rather than pulled in as a dependency: the guide's
//! "read/write data" step needs only headered, comma-separated,
//! double-quote-escaped files, and EM datasets routinely embed commas and
//! quotes inside entity names, so quoting support is mandatory.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::column::Column;
use crate::error::TableError;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{Dtype, ValueRef};
use crate::Result;

fn csv_error(line: usize, message: impl Into<String>) -> TableError {
    TableError::Csv {
        line,
        message: message.into(),
    }
}

/// Whether `line` ends inside a quoted field, entering it in state
/// `in_quotes`. A doubled quote inside a quoted field is an escaped quote;
/// every other quote toggles.
fn quote_state_after(line: &[u8], mut in_quotes: bool) -> bool {
    let mut i = 0;
    while i < line.len() {
        if line[i] == b'"' {
            if in_quotes && line.get(i + 1) == Some(&b'"') {
                i += 1;
            } else {
                in_quotes = !in_quotes;
            }
        }
        i += 1;
    }
    in_quotes
}

/// Record reader over raw bytes: one reused buffer holds the current
/// logical record, and its fields are handed out as `&str` slices of that
/// buffer (or, for a record with quotes, of one reused unescape buffer) —
/// no per-line `String`, no per-field `String`.
///
/// Every failure is charged to a 1-based *physical* line number. Invalid
/// UTF-8 is a [`TableError::Csv`] naming the offending line and byte
/// offset — not an opaque I/O error — so a half-corrupted million-row file
/// is diagnosable. A line terminator (`\n` / `\r\n`) ends a record and is
/// dropped, unless it falls inside a quoted field: there it is data and is
/// kept as read.
struct CsvRecords<R: Read> {
    reader: BufReader<R>,
    /// 1-based number of the last physical line read.
    line_no: usize,
    /// The current logical record, terminator stripped.
    record: Vec<u8>,
    /// Whether `record` contains a quote at all (most do not, and split on
    /// commas alone).
    quoted: bool,
    /// Field contents of a quoted record, quotes resolved.
    unescaped: String,
    /// Byte range of each field in `record` or `unescaped`.
    spans: Vec<(usize, usize)>,
}

/// The fields of one record, borrowed from the reader's buffers.
struct Fields<'a> {
    text: &'a str,
    spans: &'a [(usize, usize)],
}

impl<'a> Fields<'a> {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.spans.iter().map(|&(from, to)| &self.text[from..to])
    }
}

impl<R: Read> CsvRecords<R> {
    fn new(reader: R) -> Self {
        CsvRecords {
            reader: BufReader::new(reader),
            line_no: 0,
            record: Vec::new(),
            quoted: false,
            unescaped: String::new(),
            spans: Vec::new(),
        }
    }

    /// Append the next physical line to `record`, terminator included.
    /// Returns where its content (the line without terminator) ends, or
    /// `None` at end of input.
    fn read_line(&mut self) -> Result<Option<usize>> {
        let start = self.record.len();
        if self.reader.read_until(b'\n', &mut self.record)? == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        let mut end = self.record.len();
        if self.record[end - 1] == b'\n' {
            end -= 1;
            if end > start && self.record[end - 1] == b'\r' {
                end -= 1;
            }
        }
        match std::str::from_utf8(&self.record[start..end]) {
            Ok(_) => Ok(Some(end)),
            Err(e) => Err(csv_error(
                self.line_no,
                format!("invalid UTF-8 at byte {} of the line", e.valid_up_to()),
            )),
        }
    }

    /// The header's fields: those of the first *physical* line, whatever
    /// its quotes.
    fn header(&mut self) -> Result<Fields<'_>> {
        let Some(end) = self.read_line()? else {
            return Err(csv_error(1, "empty input (missing header)"));
        };
        self.record.truncate(end);
        self.quoted = self.record.contains(&b'"');
        self.fields()
    }

    /// Read the next logical record — physical lines up to the first one
    /// that ends outside a quoted field — and return the number of its last
    /// line (what its errors are charged to), or `None` at end of input.
    ///
    /// A blank line is skippable noise under a multi-column header, but
    /// under a single-column one it *is* a record (one null cell) — exactly
    /// what the writer emits for such a row.
    fn next_record(&mut self, ncols: usize) -> Result<Option<usize>> {
        loop {
            self.record.clear();
            self.quoted = false;
            let mut in_quotes = false;
            loop {
                let start = self.record.len();
                let Some(end) = self.read_line()? else {
                    if start == 0 {
                        return Ok(None);
                    }
                    return Err(csv_error(
                        self.line_no,
                        "unterminated quoted field at end of input",
                    ));
                };
                let line = &self.record[start..end];
                if in_quotes || line.contains(&b'"') {
                    self.quoted = true;
                    in_quotes = quote_state_after(line, in_quotes);
                }
                if !in_quotes {
                    self.record.truncate(end);
                    break;
                }
            }
            if !(self.record.is_empty() && ncols > 1) {
                return Ok(Some(self.line_no));
            }
        }
    }

    /// Split the current record into fields. Errors are charged to the
    /// record's last physical line.
    fn fields(&mut self) -> Result<Fields<'_>> {
        let record = std::str::from_utf8(&self.record).expect("validated line by line");
        self.spans.clear();
        if !self.quoted {
            let mut from = 0;
            for (i, &b) in record.as_bytes().iter().enumerate() {
                if b == b',' {
                    self.spans.push((from, i));
                    from = i + 1;
                }
            }
            self.spans.push((from, record.len()));
            return Ok(Fields {
                text: record,
                spans: &self.spans,
            });
        }

        // Copy the record into `unescaped` run by run, leaving out the
        // quotes that delimit and the commas that separate. Both are ASCII,
        // so every run boundary is a char boundary.
        let out = &mut self.unescaped;
        out.clear();
        let bytes = record.as_bytes();
        let (mut field_from, mut run_from) = (0, 0);
        let mut in_quotes = false;
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'"' if in_quotes && bytes.get(i + 1) == Some(&b'"') => {
                    // Escaped quote: keep the first of the pair.
                    out.push_str(&record[run_from..=i]);
                    i += 1;
                    run_from = i + 1;
                }
                b'"' => {
                    out.push_str(&record[run_from..i]);
                    run_from = i + 1;
                    if !in_quotes && out.len() > field_from {
                        return Err(csv_error(self.line_no, "quote inside unquoted field"));
                    }
                    in_quotes = !in_quotes;
                }
                b',' if !in_quotes => {
                    out.push_str(&record[run_from..i]);
                    run_from = i + 1;
                    self.spans.push((field_from, out.len()));
                    field_from = out.len();
                }
                _ => {}
            }
            i += 1;
        }
        if in_quotes {
            return Err(csv_error(self.line_no, "unterminated quoted field"));
        }
        out.push_str(&record[run_from..]);
        self.spans.push((field_from, out.len()));
        Ok(Fields {
            text: &self.unescaped,
            spans: &self.spans,
        })
    }
}

/// Read a headered CSV into a table, parsing every cell according to the
/// provided schema. Empty cells become nulls.
pub fn read_csv<R: Read>(reader: R, name: impl Into<String>, schema: Schema) -> Result<Table> {
    let mut records = CsvRecords::new(reader);
    let header: Vec<&str> = records.header()?.iter().collect();
    let expected: Vec<&str> = schema.names();
    if header != expected {
        return Err(csv_error(
            1,
            format!("header {header:?} does not match schema {expected:?}"),
        ));
    }

    // Each field goes straight into its column: a string cell's bytes are
    // appended to the column's heap, so no cell is a `String` of its own.
    let mut columns = columns_for(schema.fields(), 0);
    let ncols = columns.len();
    let mut nrows = 0;
    while let Some(line_no) = records.next_record(ncols)? {
        let fields = records.fields()?;
        if fields.len() != ncols {
            return Err(csv_error(
                line_no,
                format!(
                    "record has {} fields, schema has {ncols} columns",
                    fields.len()
                ),
            ));
        }
        for (field, col) in fields.iter().zip(&mut columns) {
            push_cell(col, field, line_no)?;
        }
        nrows += 1;
    }
    Ok(Table::from_columns(name, schema, columns, nrows))
}

/// Read a headered CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>, schema: Schema) -> Result<Table> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_owned());
    read_csv(file, name, schema)
}

fn columns_for(fields: &[Field], cap: usize) -> Vec<Column> {
    fields
        .iter()
        .map(|f| Column::with_capacity(f.dtype, cap))
        .collect()
}

/// Parse `raw` by the column's dtype and append it; empty is null.
fn push_cell(col: &mut Column, raw: &str, line_no: usize) -> Result<()> {
    let dtype = col.dtype();
    let cell = if raw.is_empty() {
        Some(ValueRef::Null)
    } else {
        match dtype {
            Dtype::Bool => raw.parse().ok().map(ValueRef::Bool),
            Dtype::Int => raw.parse().ok().map(ValueRef::Int),
            Dtype::Float => raw.parse().ok().map(ValueRef::Float),
            Dtype::Str => Some(ValueRef::Str(raw)),
        }
    };
    let cell =
        cell.ok_or_else(|| csv_error(line_no, format!("cannot parse `{raw}` as {dtype}")))?;
    col.push(cell);
    Ok(())
}

/// Read a headered CSV and *infer* each column's dtype from its contents:
/// a column is `Int` if every non-empty cell parses as `i64`, else `Float`
/// if every non-empty cell parses as `f64`, else `Bool` if every cell is
/// `true`/`false`, else `Str`. All-empty columns default to `Str`.
pub fn read_csv_infer<R: Read>(reader: R, name: impl Into<String>) -> Result<Table> {
    let mut lines = CsvRecords::new(reader);
    let header: Vec<String> = lines.header()?.iter().map(str::to_owned).collect();

    // Materialize all records first (type inference needs a full pass).
    let mut records: Vec<Vec<String>> = Vec::new();
    while let Some(line_no) = lines.next_record(header.len())? {
        let fields = lines.fields()?;
        if fields.len() != header.len() {
            return Err(csv_error(
                line_no,
                format!(
                    "record has {} fields, header has {} columns",
                    fields.len(),
                    header.len()
                ),
            ));
        }
        records.push(fields.iter().map(str::to_owned).collect());
    }

    let infer = |col: usize| -> Dtype {
        let cells = records
            .iter()
            .map(|r| r[col].as_str())
            .filter(|c| !c.is_empty());
        let mut any = false;
        let (mut int_ok, mut float_ok, mut bool_ok) = (true, true, true);
        for c in cells {
            any = true;
            int_ok = int_ok && c.parse::<i64>().is_ok();
            float_ok = float_ok && c.parse::<f64>().is_ok();
            bool_ok = bool_ok && c.parse::<bool>().is_ok();
        }
        if !any {
            Dtype::Str
        } else if int_ok {
            Dtype::Int
        } else if float_ok {
            Dtype::Float
        } else if bool_ok {
            Dtype::Bool
        } else {
            Dtype::Str
        }
    };
    let fields: Vec<Field> = header
        .iter()
        .enumerate()
        .map(|(c, name)| Field::new(name.clone(), infer(c)))
        .collect();
    let mut columns = columns_for(&fields, records.len());
    for (i, rec) in records.iter().enumerate() {
        for (cell, col) in rec.iter().zip(&mut columns) {
            push_cell(col, cell, i + 2)?;
        }
    }
    Ok(Table::from_columns(
        name,
        Schema::new(fields)?,
        columns,
        records.len(),
    ))
}

/// Quote a field if it contains a delimiter, a quote, or either byte of a
/// line terminator (an unquoted trailing `\r` would be read back as part of
/// one).
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_owned()
    }
}

/// Write a table as headered CSV. Nulls are written as empty cells.
pub fn write_csv<W: Write>(table: &Table, mut writer: W) -> Result<()> {
    let header: Vec<String> = table.schema().names().iter().map(|n| escape(n)).collect();
    writeln!(writer, "{}", header.join(","))?;
    for r in table.rows() {
        let cells: Vec<String> = (0..table.ncols())
            .map(|c| escape(&table.value(r, c).display_string()))
            .collect();
        writeln!(writer, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Write a table as headered CSV to a file path.
pub fn write_csv_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(table, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", Dtype::Str), ("name", Dtype::Str), ("n", Dtype::Int)]).unwrap()
    }

    #[test]
    fn roundtrip_with_quoting_and_nulls() {
        let t = Table::from_rows(
            "T",
            &[("id", Dtype::Str), ("name", Dtype::Str), ("n", Dtype::Int)],
            vec![
                vec!["a1".into(), "Smith, David \"Dave\"".into(), Value::Int(4)],
                vec!["a2".into(), Value::Null, Value::Null],
                vec!["a3".into(), "multi\nline".into(), Value::Int(-1)],
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(buf.as_slice(), "T", schema()).unwrap();
        assert_eq!(back.nrows(), 3);
        assert_eq!(
            back.value_by_name(0, "name").unwrap().as_str(),
            Some("Smith, David \"Dave\"")
        );
        assert!(back.value_by_name(1, "name").unwrap().is_null());
        assert_eq!(
            back.value_by_name(2, "name").unwrap(),
            ValueRef::Str("multi\nline")
        );
        assert_eq!(back.value_by_name(2, "n").unwrap().as_int(), Some(-1));
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let data = "id,wrong,n\na1,x,1\n";
        let err = read_csv(data.as_bytes(), "T", schema()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn bad_int_cell_reports_line() {
        let data = "id,name,n\na1,x,1\na2,y,NaNope\n";
        let err = read_csv(data.as_bytes(), "T", schema()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("NaNope"));
    }

    #[test]
    fn ragged_record_is_rejected() {
        let data = "id,name,n\na1,x\n";
        assert!(read_csv(data.as_bytes(), "T", schema()).is_err());
    }

    #[test]
    fn ragged_record_reports_its_line_number() {
        let data = "id,name,n\na1,x,1\na2,y,2,extra\n";
        let err = read_csv(data.as_bytes(), "T", schema()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("4 fields"), "{msg}");
        let data = "id,name,n\na1,x,1\na2,y\n";
        let err = read_csv(data.as_bytes(), "T", schema()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        let data = "id,name,n\na1,\"open,1\n";
        assert!(read_csv(data.as_bytes(), "T", schema()).is_err());
    }

    #[test]
    fn unterminated_quote_reports_last_line() {
        let data = "id,name,n\na1,x,1\na2,\"never closed,2\na3,z,3\n";
        let err = read_csv(data.as_bytes(), "T", schema()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unterminated") && msg.contains("line 4"),
            "{msg}"
        );
    }

    #[test]
    fn invalid_utf8_is_a_csv_error_with_line_number() {
        let mut data: Vec<u8> = b"id,name,n\na1,ok,1\na2,".to_vec();
        data.extend_from_slice(&[0xff, 0xfe]); // not UTF-8
        data.extend_from_slice(b",2\na3,ok,3\n");
        let err = read_csv(data.as_slice(), "T", schema()).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 3, .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("invalid UTF-8") && msg.contains("line 3"),
            "{msg}"
        );

        // Same contract for the inferring reader.
        let err = read_csv_infer(data.as_slice(), "T").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 3, .. }), "{err:?}");

        // ... and for a corrupted header.
        let mut hdr: Vec<u8> = vec![0xC0, 0x80]; // overlong encoding, invalid
        hdr.extend_from_slice(b",name\nx,y\n");
        let err = read_csv_infer(hdr.as_slice(), "T").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn crlf_terminators_are_stripped() {
        let data = "id,name,n\r\na1,x,1\r\na2,y,2\r\n";
        let t = read_csv(data.as_bytes(), "T", schema()).unwrap();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.value_by_name(1, "name").unwrap().as_str(), Some("y"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let data = "id,name,n\na1,x,1\n\na2,y,2\n";
        let t = read_csv(data.as_bytes(), "T", schema()).unwrap();
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn empty_input_fails_cleanly() {
        assert!(read_csv("".as_bytes(), "T", schema()).is_err());
    }

    #[test]
    fn inference_detects_column_types() {
        let data = "id,name,age,score,flag\na1,Dave,40,1.5,true\na2,Joe,,2.25,false\n";
        let t = read_csv_infer(data.as_bytes(), "T").unwrap();
        let types: Vec<Dtype> = t.schema().fields().iter().map(|f| f.dtype).collect();
        assert_eq!(
            types,
            vec![
                Dtype::Str,
                Dtype::Str,
                Dtype::Int,
                Dtype::Float,
                Dtype::Bool
            ]
        );
        assert_eq!(t.value_by_name(0, "age").unwrap().as_int(), Some(40));
        assert!(t.value_by_name(1, "age").unwrap().is_null());
        assert_eq!(t.value_by_name(1, "score").unwrap().as_float(), Some(2.25));
        assert_eq!(t.value_by_name(0, "flag").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn inference_int_column_with_a_decimal_becomes_float() {
        let data = "n\n1\n2.5\n3\n";
        let t = read_csv_infer(data.as_bytes(), "T").unwrap();
        assert_eq!(t.schema().field(0).dtype, Dtype::Float);
        assert_eq!(t.value_by_name(0, "n").unwrap().as_float(), Some(1.0));
    }

    #[test]
    fn inference_all_empty_column_is_string() {
        let data = "a,b\nx,\ny,\n";
        let t = read_csv_infer(data.as_bytes(), "T").unwrap();
        assert_eq!(t.schema().field(1).dtype, Dtype::Str);
        assert!(t.value_by_name(0, "b").unwrap().is_null());
    }

    /// A quoted field keeps a line terminator exactly as written, and a
    /// field ending in a bare `\r` is quoted so the reader cannot take it
    /// for half of one. (Both came back changed: `"x\r\ny"` as `"x\ny"`,
    /// `"tail\r"` as `"tail"`.)
    #[test]
    fn carriage_returns_survive_a_round_trip() {
        let cells = ["x\r\ny", "tail\r", "\r", "a\rb", "\r\n", "q\"\r\n\"q"];
        let t = Table::from_rows(
            "T",
            &[("id", Dtype::Str), ("name", Dtype::Str), ("n", Dtype::Int)],
            cells
                .iter()
                .map(|c| vec![(*c).into(), (*c).into(), Value::Int(1)])
                .collect(),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        for back in [
            read_csv(buf.as_slice(), "T", schema()).unwrap(),
            read_csv_infer(buf.as_slice(), "T").unwrap(),
        ] {
            assert_eq!(back.nrows(), cells.len());
            for (r, cell) in cells.iter().enumerate() {
                assert_eq!(back.value(r, 0).as_str(), Some(*cell), "row {r}");
                assert_eq!(back.value(r, 1).as_str(), Some(*cell), "row {r}");
            }
        }
        // Outside quotes `\r\n` is still just a terminator.
        let t = read_csv("id,name,n\r\na,\"x\r\ny\",1\r\n".as_bytes(), "T", schema()).unwrap();
        assert_eq!(t.value(0, 1).as_str(), Some("x\r\ny"));
    }

    /// The reader this module had before it parsed bytes — a `String` per
    /// physical line, `char`-peekable state machines, a `Vec<String>` per
    /// record — kept as the oracle for [`CsvRecords`]. Its one change is
    /// the carriage-return fix: a line that ends inside quotes is re-joined
    /// with the terminator it had, not with `\n`.
    mod oracle {
        use super::super::*;

        pub struct CsvLines<R: Read> {
            reader: BufReader<R>,
            pub line_no: usize,
        }

        impl<R: Read> CsvLines<R> {
            pub fn new(reader: R) -> Self {
                CsvLines {
                    reader: BufReader::new(reader),
                    line_no: 0,
                }
            }

            /// The next physical line and the terminator stripped off it.
            pub fn next_line(&mut self) -> Result<Option<(String, &'static str)>> {
                let mut buf = Vec::new();
                let n = self.reader.read_until(b'\n', &mut buf)?;
                if n == 0 {
                    return Ok(None);
                }
                self.line_no += 1;
                let mut terminator = "";
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    terminator = "\n";
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                        terminator = "\r\n";
                    }
                }
                match String::from_utf8(buf) {
                    Ok(s) => Ok(Some((s, terminator))),
                    Err(e) => Err(TableError::Csv {
                        line: self.line_no,
                        message: format!(
                            "invalid UTF-8 at byte {} of the line",
                            e.utf8_error().valid_up_to()
                        ),
                    }),
                }
            }
        }

        pub fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>> {
            let mut fields = Vec::new();
            let mut cur = String::new();
            let mut chars = line.chars().peekable();
            let mut in_quotes = false;
            while let Some(ch) = chars.next() {
                if in_quotes {
                    match ch {
                        '"' => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cur.push('"');
                            } else {
                                in_quotes = false;
                            }
                        }
                        _ => cur.push(ch),
                    }
                } else {
                    match ch {
                        ',' => fields.push(std::mem::take(&mut cur)),
                        '"' => {
                            if !cur.is_empty() {
                                return Err(TableError::Csv {
                                    line: line_no,
                                    message: "quote inside unquoted field".to_owned(),
                                });
                            }
                            in_quotes = true;
                        }
                        _ => cur.push(ch),
                    }
                }
            }
            if in_quotes {
                return Err(TableError::Csv {
                    line: line_no,
                    message: "unterminated quoted field".to_owned(),
                });
            }
            fields.push(cur);
            Ok(fields)
        }

        pub fn ends_inside_quotes(line: &str) -> bool {
            let mut in_quotes = false;
            let mut chars = line.chars().peekable();
            while let Some(ch) = chars.next() {
                if ch == '"' {
                    if in_quotes && chars.peek() == Some(&'"') {
                        chars.next();
                    } else {
                        in_quotes = !in_quotes;
                    }
                }
            }
            in_quotes
        }

        /// The old `read_csv` over an all-string schema of `ncols` columns:
        /// the header's fields and every row's cells (`None` = null).
        #[allow(clippy::type_complexity)]
        pub fn read(data: &[u8], ncols: usize) -> Result<(Vec<String>, Vec<Vec<Option<String>>>)> {
            let mut lines = CsvLines::new(data);
            let (header_line, _) = lines.next_line()?.ok_or(TableError::Csv {
                line: 1,
                message: "empty input (missing header)".to_owned(),
            })?;
            let header = parse_record(&header_line, 1)?;
            let mut rows = Vec::new();
            let mut pending: Option<String> = None;
            while let Some((line, terminator)) = lines.next_line()? {
                let line_no = lines.line_no;
                let mut record = match pending.take() {
                    Some(mut buf) => {
                        buf.push_str(&line);
                        buf
                    }
                    None => line,
                };
                if ends_inside_quotes(&record) {
                    record.push_str(terminator);
                    pending = Some(record);
                    continue;
                }
                if record.is_empty() && ncols > 1 {
                    continue;
                }
                let fields = parse_record(&record, line_no)?;
                if fields.len() != ncols {
                    return Err(TableError::Csv {
                        line: line_no,
                        message: format!(
                            "record has {} fields, schema has {} columns",
                            fields.len(),
                            ncols
                        ),
                    });
                }
                rows.push(
                    fields
                        .into_iter()
                        .map(|f| (!f.is_empty()).then_some(f))
                        .collect(),
                );
            }
            if pending.is_some() {
                return Err(TableError::Csv {
                    line: lines.line_no,
                    message: "unterminated quoted field at end of input".to_owned(),
                });
            }
            Ok((header, rows))
        }
    }

    /// `read_csv` over an all-string schema, in the oracle's terms. The
    /// header is read as data (its check against the schema is not the
    /// parser's business), so any header line is accepted.
    #[allow(clippy::type_complexity)]
    fn read_as_cells(data: &[u8], ncols: usize) -> Result<(Vec<String>, Vec<Vec<Option<String>>>)> {
        let mut records = CsvRecords::new(data);
        let header: Vec<String> = records.header()?.iter().map(str::to_owned).collect();
        let mut rows = Vec::new();
        while let Some(line_no) = records.next_record(ncols)? {
            let fields = records.fields()?;
            if fields.len() != ncols {
                return Err(csv_error(
                    line_no,
                    format!(
                        "record has {} fields, schema has {ncols} columns",
                        fields.len()
                    ),
                ));
            }
            rows.push(
                fields
                    .iter()
                    .map(|f| (!f.is_empty()).then(|| f.to_owned()))
                    .collect(),
            );
        }
        Ok((header, rows))
    }

    /// `Ok` cells or the `(line, message)` of a CSV error.
    #[allow(clippy::type_complexity)]
    fn outcome(
        r: Result<(Vec<String>, Vec<Vec<Option<String>>>)>,
    ) -> std::result::Result<(Vec<String>, Vec<Vec<Option<String>>>), (usize, String)> {
        r.map_err(|e| match e {
            TableError::Csv { line, message } => (line, message),
            other => panic!("not a CSV error: {other}"),
        })
    }

    fn assert_matches_oracle(data: &[u8]) {
        for ncols in [1, 3] {
            assert_eq!(
                outcome(read_as_cells(data, ncols)),
                outcome(oracle::read(data, ncols)),
                "ncols {ncols}, input {:?}",
                String::from_utf8_lossy(data)
            );
        }
    }

    #[test]
    fn reader_matches_oracle_on_pinned_inputs() {
        let cases: &[&[u8]] = &[
            b"",
            b"\n",
            b"a,b,c",
            b"a,b,c\n",
            b"a,b,c\r\n1,2,3\r\n",
            b"a,b,c\n1,2,3",
            b"a,b,c\n1,2,3\r",
            b"a,b,c\n\n\r\n1,2,3\n\n",
            b"a,b,c\n,,\n",
            b"a,b,c\n\"\",\"\",\"\"\n",
            b"a,b,c\n\"x,y\",\"say \"\"hi\"\"\",z\n",
            b"a,b,c\n\"multi\nline\",\"crlf\r\nline\",\"cr\rline\"\n",
            b"a,b,c\n\"ab\"cd,e,f\n",
            b"a,b,c\nab\"cd,e,f\n",
            b"a,b,c\nab\"cd\nef\",x,y\n1,2,3\n",
            b"a,b,c\n\"\" \"x\",e,f\n",
            b"a,b,c\n\"\"\"\",\"\"\"x\",\"\"\n",
            b"a,b,c\n1,2\n",
            b"a,b,c\n1,2,3,4\n",
            b"a,b,c\n1,\"never closed,2\n3,4,5\n",
            b"a,\"b,c\n1,2,3\n",
            b"a\"b,c\n",
            b"a,b,c\n1,\xff\xfe,3\n",
            b"a,b,c\n1,\"open\n2,\xc3,3\"\n",
            b"a,b,c\n1,\"open\n2,\xc3",
            b"\xc0\x80,b,c\n1,2,3\n",
            "a,b,c\n\u{e9}t\u{e9},\"\u{3bb},\u{2603}\",\u{212a}\n".as_bytes(),
            b"a,b,c\n1,\0,3\n\0,\"\0\",\0\n",
            b"\xef\xbb\xbfa,b,c\n\xef\xbb\xbf1,2,3\n",
            b"a,b,c\n1,x\ry,3\n1,\"x\ry\",\r\n",
            b"a,b,c\n1,2,\"",
            b"a,b,c\n1,2,3\"",
            b"a,b,c\n1,2,\"3\"\"",
        ];
        for data in cases {
            assert_matches_oracle(data);
        }
        // Lines longer than the reader's 8 KiB buffer, plain and quoted
        // across a line break.
        let long = "x".repeat(9_000);
        for data in [
            format!("a,b,c\n{long},y,z\n1,2,3\n"),
            format!("a,b,c\n1,\"{long}\n{long}\",3\n"),
            format!("{long},b,c\n1,2,3"),
        ] {
            assert_matches_oracle(data.as_bytes());
        }
    }

    /// The pieces random inputs are assembled from: field text, separators,
    /// every quote shape, all three terminators, multi-byte characters,
    /// bytes that are not UTF-8, NUL, a byte-order mark and a run longer
    /// than the reader's 8 KiB buffer.
    const PIECES: &[&[u8]] = &[
        b"a",
        b"bc",
        b" ",
        b",",
        b",",
        b"\"",
        b"\"",
        b"\"\"",
        b"\n",
        b"\n",
        b"\r\n",
        b"\r",
        "\u{e9}".as_bytes(),
        "\u{2603}".as_bytes(),
        b"\xff",
        b"\xc3",
        b"\0",
        "\u{feff}".as_bytes(),
        &[b'x'; 9_000],
    ];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Anything at all: mostly errors, on which line and message agree.
        #[test]
        fn reader_matches_oracle_on_soup(
            picks in proptest::collection::vec(0usize..PIECES.len(), 0..40),
        ) {
            let mut data = b"h1,h2,h3\n".to_vec();
            for p in picks {
                data.extend_from_slice(PIECES[p]);
            }
            assert_matches_oracle(&data);
        }

        /// Rows the writer's own quoting produced, under either terminator,
        /// with an occasional stray quote or missing last terminator.
        #[test]
        fn reader_matches_oracle_on_written_rows(
            rows in proptest::collection::vec(
                proptest::collection::vec("[ab ,\"\n\r\u{e9}]{0,5}", 3),
                0..6,
            ),
            crlf in any::<bool>(),
            stray in 0usize..8,
            cut in any::<bool>(),
        ) {
            let mut data = String::from("h1,h2,h3\n");
            for (i, row) in rows.iter().enumerate() {
                let cells: Vec<String> = row.iter().map(|c| escape(c)).collect();
                data.push_str(&cells.join(","));
                if i == stray {
                    data.push('"');
                }
                data.push_str(if crlf { "\r\n" } else { "\n" });
            }
            if cut {
                data.pop();
            }
            assert_matches_oracle(data.as_bytes());
        }
    }
}
