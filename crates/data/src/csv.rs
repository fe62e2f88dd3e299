//! Minimal CSV import/export so users can run the library on their own data.
//!
//! Deliberately small: comma separator, one header row, numeric columns,
//! no quoting. Real-world ingestion pipelines should convert to this shape.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use sth_geometry::Rect;

use crate::Dataset;

/// Errors produced by the CSV reader.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// File had no header row.
    MissingHeader,
    /// A row had the wrong number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields implied by the header.
        expected: usize,
        /// Fields found on the line.
        got: usize,
    },
    /// A field failed to parse as `f64`.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based field number.
        field: usize,
    },
    /// A field parsed as an infinity or NaN. Neither has a place in a
    /// half-open box: an infinity cannot bound the domain, and a NaN fails
    /// every comparison, so scans and index boxes would disagree on it.
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// 1-based field number.
        field: usize,
    },
    /// File contained a header but no data rows.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::MissingHeader => write!(f, "missing header row"),
            CsvError::FieldCount { line, expected, got } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            CsvError::Parse { line, field } => {
                write!(f, "line {line}: field {field} is not a number")
            }
            CsvError::NonFinite { line, field } => {
                write!(f, "line {line}: field {field} is not finite")
            }
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Reads a numeric CSV file into a [`Dataset`]. The domain is the bounding
/// box of the data, padded by one part in 10⁶ on the upper side so every
/// point lies inside the half-open domain.
pub fn read_csv(path: &Path, name: &str) -> Result<Dataset, CsvError> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = lines.next().ok_or(CsvError::MissingHeader)??;
    let dim = header.split(',').count();
    if dim == 0 {
        return Err(CsvError::MissingHeader);
    }
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); dim];
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != dim {
            return Err(CsvError::FieldCount { line: lineno + 2, expected: dim, got: fields.len() });
        }
        for (d, f) in fields.iter().enumerate() {
            let v: f64 = f
                .trim()
                .parse()
                .map_err(|_| CsvError::Parse { line: lineno + 2, field: d + 1 })?;
            if !v.is_finite() {
                return Err(CsvError::NonFinite { line: lineno + 2, field: d + 1 });
            }
            cols[d].push(v);
        }
    }
    if cols[0].is_empty() {
        return Err(CsvError::Empty);
    }
    let lo: Vec<f64> = cols.iter().map(|c| c.iter().cloned().fold(f64::INFINITY, f64::min)).collect();
    let hi: Vec<f64> = cols
        .iter()
        .map(|c| {
            let mx = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            mx + (mx.abs().max(1.0)) * 1e-6
        })
        .collect();
    Ok(Dataset::from_columns(name, Rect::from_bounds(&lo, &hi), cols))
}

/// Writes a [`Dataset`] as CSV with `d0..dN` headers.
pub fn write_csv(ds: &Dataset, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let header: Vec<String> = (0..ds.ndim()).map(|d| format!("d{d}")).collect();
    writeln!(w, "{}", header.join(","))?;
    let mut row = vec![0.0; ds.ndim()];
    for i in 0..ds.len() {
        ds.row_into(i, &mut row);
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", line.join(","))?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let ds = crate::cross::CrossSpec::cross2d().scaled(0.01).generate();
        let dir = std::env::temp_dir().join("sth_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path, "back").unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.ndim(), ds.ndim());
        for i in (0..ds.len()).step_by(57) {
            for d in 0..ds.ndim() {
                assert!((back.value(i, d) - ds.value(i, d)).abs() < 1e-9);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_ragged_and_nonnumeric() {
        let dir = std::env::temp_dir().join("sth_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ragged = dir.join("ragged.csv");
        std::fs::write(&ragged, "a,b\n1,2\n3\n").unwrap();
        assert!(matches!(read_csv(&ragged, "r"), Err(CsvError::FieldCount { line: 3, .. })));
        let bad = dir.join("bad.csv");
        std::fs::write(&bad, "a,b\n1,x\n").unwrap();
        assert!(matches!(read_csv(&bad, "b"), Err(CsvError::Parse { line: 2, field: 2 })));
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "a,b\n").unwrap();
        assert!(matches!(read_csv(&empty, "e"), Err(CsvError::Empty)));
    }

    #[test]
    fn rejects_non_finite_fields() {
        let dir = std::env::temp_dir().join("sth_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let inf = dir.join("inf.csv");
        std::fs::write(&inf, "a,b\n1,2\n3,inf\n").unwrap();
        assert!(matches!(read_csv(&inf, "i"), Err(CsvError::NonFinite { line: 3, field: 2 })));
        let nan = dir.join("nan.csv");
        std::fs::write(&nan, "a,b\nNaN,2\n3,4\n").unwrap();
        let err = read_csv(&nan, "n").unwrap_err();
        assert!(matches!(err, CsvError::NonFinite { line: 2, field: 1 }));
        assert_eq!(err.to_string(), "line 2: field 1 is not finite");
    }

    #[test]
    fn domain_covers_all_points() {
        let dir = std::env::temp_dir().join("sth_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dom.csv");
        std::fs::write(&path, "a,b\n0,5\n10,-3\n2,2\n").unwrap();
        let ds = read_csv(&path, "d").unwrap();
        for i in 0..ds.len() {
            assert!(ds.domain().contains_point(&ds.row(i)));
        }
    }
}
