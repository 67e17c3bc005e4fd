//! Error type shared by the tabular substrate.

use std::fmt;

use crate::value::Dtype;

/// Errors raised by table, catalog, and CSV operations.
#[derive(Debug)]
pub enum TableError {
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// A column name occurs twice in a schema.
    DuplicateColumn(String),
    /// A value of the wrong dtype was pushed into a column.
    TypeMismatch {
        /// Column that rejected the value.
        column: String,
        /// Dtype the column holds.
        expected: Dtype,
        /// Dtype of the offending value.
        found: Dtype,
    },
    /// A row had the wrong number of cells.
    RowArity {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of cells supplied.
        found: usize,
    },
    /// Two tables that must share a schema do not; names the first
    /// difference.
    SchemaMismatch(String),
    /// Row index out of bounds.
    RowOutOfBounds {
        /// Offending index.
        index: usize,
        /// Row count of the table.
        len: usize,
    },
    /// The catalog has no metadata for the given table.
    NoMetadata(String),
    /// Key-constraint validation failed (the self-containment checks of §4.1).
    KeyViolation {
        /// Table whose key failed validation.
        table: String,
        /// Key attribute.
        attr: String,
        /// Human-readable reason (duplicate value, null, missing column...).
        reason: String,
    },
    /// Foreign-key validation failed for a candidate set.
    ForeignKeyViolation {
        /// Candidate-set table name.
        table: String,
        /// FK attribute in the candidate set.
        attr: String,
        /// Reason the FK no longer holds.
        reason: String,
    },
    /// CSV input could not be parsed.
    Csv {
        /// 1-based line where parsing failed.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An on-disk `emtbl` file is malformed, truncated, of another
    /// version, or failed a checksum.
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            TableError::DuplicateColumn(name) => write!(f, "duplicate column `{name}`"),
            TableError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in column `{column}`: expected {expected}, found {found}"
            ),
            TableError::RowArity { expected, found } => {
                write!(f, "row has {found} cells but schema has {expected} columns")
            }
            TableError::SchemaMismatch(what) => write!(f, "schema mismatch: {what}"),
            TableError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for table of {len} rows")
            }
            TableError::NoMetadata(table) => {
                write!(f, "catalog holds no metadata for table `{table}`")
            }
            TableError::KeyViolation { table, attr, reason } => {
                write!(f, "key `{attr}` of table `{table}` is invalid: {reason}")
            }
            TableError::ForeignKeyViolation { table, attr, reason } => write!(
                f,
                "foreign key `{attr}` of candidate set `{table}` is invalid: {reason}"
            ),
            TableError::Csv { line, message } => write!(f, "CSV parse error at line {line}: {message}"),
            TableError::Format(message) => write!(f, "emtbl format error: {message}"),
            TableError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}

impl From<crate::segment::SegmentError> for TableError {
    fn from(e: crate::segment::SegmentError) -> Self {
        TableError::Format(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TableError::TypeMismatch {
            column: "age".into(),
            expected: Dtype::Int,
            found: Dtype::Str,
        };
        let msg = e.to_string();
        assert!(msg.contains("age") && msg.contains("int") && msg.contains("str"));

        let e = TableError::KeyViolation {
            table: "A".into(),
            attr: "id".into(),
            reason: "duplicate value `a1`".into(),
        };
        assert!(e.to_string().contains("duplicate value"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e = TableError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
