//! Plain-text report tables and small-sample statistics.

use ssmfp_core::cli::json_string;
use std::fmt;

/// A titled, column-aligned text table (also exportable as CSV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (experiment id + claim).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// CSV rendering (headers + rows; a field holding a comma or a quote
    /// is quoted, its quotes doubled).
    pub fn to_csv(&self) -> String {
        let field = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON object (`title`, `headers`, `rows` —
    /// all cells as strings, matching the CSV rendering).
    pub fn to_json(&self) -> String {
        let arr = |cells: &[String]| {
            format!(
                "[{}]",
                cells
                    .iter()
                    .map(|c| json_string(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        format!(
            "{{\"title\": {}, \"headers\": {}, \"rows\": [{}]}}",
            json_string(&self.title),
            arr(&self.headers),
            self.rows
                .iter()
                .map(|r| arr(r))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Summary statistics of a sample of `u64` measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower of the two middles for even sizes).
    pub median: u64,
}

impl Stats {
    /// Computes statistics over a sample; `None` for an empty sample.
    pub fn of(sample: &[u64]) -> Option<Stats> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        Some(Stats {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            median: sorted[(sorted.len() - 1) / 2],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.contains("## T"));
        assert!(s.contains("| a   | long-header |"));
        assert!(s.contains("| 333 | 4           |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["x,y".into(), "q\"z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
    }

    #[test]
    fn json_escapes_quotes_and_keeps_shape() {
        let mut t = Table::new("E1 \"claim\"", &["a", "b"]);
        t.row(vec!["1".into(), "x\"y".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\": \"E1 \\\"claim\\\"\""));
        assert!(j.contains("\"headers\": [\"a\", \"b\"]"));
        assert!(j.contains("\"rows\": [[\"1\", \"x\\\"y\"]]"));
    }

    #[test]
    fn stats_basic() {
        let s = Stats::of(&[3, 1, 4, 1, 5]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.median, 3);
        assert!((s.mean - 2.8).abs() < 1e-9);
        assert!(Stats::of(&[]).is_none());
    }
}
