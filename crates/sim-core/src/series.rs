//! Labelled data series and plain-text tables.
//!
//! The benchmark harness regenerates each of the paper's figures as one or
//! more [`Series`] and each table as a [`Table`]. Rendering is plain,
//! column-aligned text so the output can be diffed, pasted into
//! `EXPERIMENTS.md`, or post-processed into real plots.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A named series of `(x, y)` points, e.g. "characterization APE vs number
/// of sampled FIs for us-west-1a".
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Render the series as a two-column text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.name);
        for &(x, y) in &self.points {
            let _ = writeln!(out, "{x:>14.4}  {y:>14.4}");
        }
        out
    }
}

impl FromIterator<(f64, f64)> for Series {
    fn from_iter<T: IntoIterator<Item = (f64, f64)>>(iter: T) -> Self {
        Series {
            name: String::new(),
            points: iter.into_iter().collect(),
        }
    }
}

/// A column-aligned text table with a title, header row, and data rows.
///
/// ```
/// use sky_sim::Table;
/// let mut t = Table::new("Demo", &["region", "share"]);
/// t.row(&["us-west-1a".to_string(), "0.42".to_string()]);
/// let text = t.render();
/// assert!(text.contains("us-west-1a"));
/// assert!(text.contains("region"));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    pub fn title(&self) -> &str {
        &self.title
    }

    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as column-aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:>w$}", w = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Format a dollar amount with four decimal places, e.g. `"$0.0123"`.
pub fn fmt_usd(v: f64) -> String {
    format!("${v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("ape");
        s.push(1.0, 25.0);
        s.push(2.0, 10.0);
        s.push(3.0, 4.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.points()[1], (2.0, 10.0));
    }

    #[test]
    fn series_renders_name_and_points() {
        let mut s = Series::new("test-series");
        s.push(1.0, 2.0);
        let r = s.render();
        assert!(r.contains("# test-series"));
        assert!(r.contains("1.0000"));
        assert!(r.contains("2.0000"));
    }

    #[test]
    fn table_alignment_and_rows() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(&["xxxx".into(), "1".into()]);
        let r = t.render();
        assert!(r.contains("== T =="));
        // Each data line must be at least as wide as the header line.
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[3].len() >= "a  long-header".len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_usd(0.04), "$0.0400");
    }
}
