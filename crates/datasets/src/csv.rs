//! The one CSV row reader: bytes in, coordinates out, errors that say
//! where.
//!
//! [`Dataset::read_csv`](crate::Dataset::read_csv), the CLI's streaming
//! build source and its row count all read through [`CsvRows`], so every
//! consumer skips the same blank lines, parses a field to the same bits
//! (`str::parse::<f64>`) and reports a bad row the same way: an
//! [`io::Error`] that displays as `path:line: problem` (`line` 1-based, 0
//! when the file could not be opened).

use std::io::{self, BufRead, ErrorKind::InvalidData};
use std::path::{Path, PathBuf};

fn located(path: &Path, line: u64, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}:{line}: {e}", path.display()))
}

/// The rows of a CSV file — one point per non-blank line, coordinates
/// separated by commas — through one reused line buffer and one reused
/// coordinate buffer.
pub struct CsvRows {
    path: PathBuf,
    reader: io::BufReader<std::fs::File>,
    buf: Vec<u8>,
    coords: Vec<f64>,
    line: u64,
    /// Fields in the first row; 0 before it is read.
    dim: usize,
}

impl CsvRows {
    /// Opens `path` at its first row.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| located(path, 0, e))?;
        Ok(CsvRows {
            path: path.to_path_buf(),
            reader: io::BufReader::new(file),
            buf: Vec::new(),
            coords: Vec::new(),
            line: 0,
            dim: 0,
        })
    }

    /// `problem`, found on the line last read.
    fn invalid(&self, problem: String) -> io::Error {
        located(&self.path, self.line, io::Error::new(InvalidData, problem))
    }

    /// Reads the next non-blank line into `buf`; `false` at the end of
    /// the file.
    fn next_line(&mut self) -> io::Result<bool> {
        loop {
            self.buf.clear();
            self.line += 1;
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => return Ok(false),
                Ok(_) if self.buf.trim_ascii().is_empty() => {}
                Ok(_) => return Ok(true),
                Err(e) => return Err(located(&self.path, self.line, e)),
            }
        }
    }

    /// The next row's coordinates, borrowed until the next call; `None`
    /// at the end of the file. Every row must have as many fields as the
    /// first.
    pub fn next_row(&mut self) -> io::Result<Option<&[f64]>> {
        if !self.next_line()? {
            return Ok(None);
        }
        self.coords.clear();
        for field in self.buf.split(|&b| b == b',') {
            let field = field.trim_ascii();
            match std::str::from_utf8(field).ok().and_then(|f| f.parse().ok()) {
                Some(c) => self.coords.push(c),
                None => {
                    let field = String::from_utf8_lossy(field);
                    return Err(self.invalid(format!("{field:?} is not a number")));
                }
            }
        }
        let (got, expected) = (self.coords.len(), self.dim);
        if expected == 0 {
            self.dim = got;
        } else if got != expected {
            let problem = format!("{got} fields, but the first row has {expected}");
            return Err(self.invalid(problem));
        }
        Ok(Some(&self.coords))
    }

    /// The number of rows in the file at `path` and the number of fields
    /// in the first (0 for a file without rows), parsing nothing.
    pub fn scan(path: &Path) -> io::Result<(u64, usize)> {
        let mut rows = Self::open(path)?;
        let mut len = 0u64;
        while rows.next_line()? {
            if len == 0 {
                rows.dim = rows.buf.split(|&b| b == b',').count();
            }
            len += 1;
        }
        Ok((len, rows.dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(name: &str, body: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqda-csv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    fn all_rows(path: &Path) -> io::Result<Vec<Vec<f64>>> {
        let mut rows = CsvRows::open(path)?;
        let mut out = Vec::new();
        while let Some(coords) = rows.next_row()? {
            out.push(coords.to_vec());
        }
        Ok(out)
    }

    #[test]
    fn rows_skip_blanks_trim_fields_and_count_like_scan() {
        // Blank and whitespace-only lines, padded fields, CRLF, exponents,
        // and no newline after the last row.
        let path = file("ok.csv", b"1.5, -2\n\n   \r\n 3e2 ,\t0.1\r\n\n-0.0,1e-3");
        let want = vec![vec![1.5, -2.0], vec![300.0, 0.1], vec![-0.0, 0.001]];
        assert_eq!(all_rows(&path).unwrap(), want);
        assert_eq!(CsvRows::scan(&path).unwrap(), (3, 2));
        assert_eq!(CsvRows::scan(&file("empty.csv", b"\n \n")).unwrap(), (0, 0));
        // Every field is `str::parse::<f64>`, bit for bit.
        let path = file("bits.csv", b"0.1,0.30000000000000004,1e400,7\n");
        let row = &all_rows(&path).unwrap()[0];
        let want = ["0.1", "0.30000000000000004", "1e400", "7"].map(|f| f.parse::<f64>().unwrap());
        assert_eq!(
            row.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            want.map(f64::to_bits)
        );
    }

    #[test]
    fn errors_name_the_file_and_the_line() {
        for (body, want) in [
            (&b"1,2\n\n3,x4\n"[..], ":3: \"x4\" is not a number"),
            (b"1,2\n3\n", ":2: 1 fields, but the first row has 2"),
            (b"1,2\n3,4,5\n", ":2: 3 fields, but the first row has 2"),
            (b"1,2\n3,\n", ":2: \"\" is not a number"),
            (b"1,\xff\n", ":1: \"\u{fffd}\" is not a number"),
        ] {
            let path = file("bad.csv", body);
            let err = all_rows(&path).unwrap_err();
            assert_eq!(err.kind(), InvalidData);
            assert_eq!(err.to_string(), format!("{}{want}", path.display()));
            // The count does not parse, so it does not mind.
            assert!(CsvRows::scan(&path).is_ok());
        }
        let missing = std::env::temp_dir().join("sqda-csv-test-no-such-file.csv");
        let err = CsvRows::scan(&missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err
            .to_string()
            .starts_with(&format!("{}:0: ", missing.display())));
    }
}
