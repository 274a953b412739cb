//! Minimal TSV table assembly (hand-rolled — no serialization-format
//! dependency needed for tab-separated text).

use std::fmt::Write as _;
use std::path::Path;

/// A simple table: header + rows, rendered as TSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column names.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as TSV.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Print to stdout and, when `dir` is given, also write
    /// `<dir>/<name>.tsv` (the directory must exist).
    ///
    /// # Errors
    /// The I/O error of writing the file.
    pub fn emit(&self, name: &str, dir: Option<&Path>) -> std::io::Result<()> {
        let tsv = self.to_tsv();
        println!("# {name}");
        print!("{tsv}");
        println!();
        match dir {
            Some(dir) => std::fs::write(dir.join(format!("{name}.tsv")), tsv),
            None => Ok(()),
        }
    }
}

/// Format a float with 3 decimal places (the figures' precision).
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_rendering() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["x".into(), f3(1.23456)]);
        let tsv = t.to_tsv();
        assert_eq!(tsv, "a\tb\n1\t2\nx\t1.235\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn emit_writes_file() {
        let dir = std::env::temp_dir().join("hrp_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Table::new(&["v"]);
        t.row(vec!["7".into()]);
        t.emit("unit_test_table", Some(&dir)).unwrap();
        let written = std::fs::read_to_string(dir.join("unit_test_table.tsv")).unwrap();
        assert_eq!(written, "v\n7\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
