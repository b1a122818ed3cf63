//! Plain-text table rendering for experiment harnesses.
//!
//! Every figure/table harness in `minato-bench` prints its result as an
//! aligned terminal table (for eyeballing paper-vs-measured). This module
//! keeps that formatting in one place.

use std::fmt::Write as _;

/// An aligned text table with a header row.
///
/// # Examples
///
/// ```
/// use minato_metrics::table::Table;
///
/// let mut t = Table::new(&["loader", "time (s)"]);
/// t.row(&["pytorch", "210"]);
/// t.row(&["minato", "81"]);
/// let text = t.render();
/// assert!(text.contains("pytorch"));
/// assert!(text.contains("81"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows extend the column count.
    pub fn row(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row from owned strings (convenient with `format!`).
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = w[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Renders the table with space-aligned columns and a separator line.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, width) in w.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<width$}");
                if i + 1 < w.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a `f64` with `digits` decimal places, trimming `-0`.
pub fn fnum(v: f64, digits: usize) -> String {
    let s = format!("{v:.digits$}");
    if s.starts_with("-0") && s.trim_start_matches(['-', '0', '.']).is_empty() {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(&["xxxxxx", "1"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Header and row columns start at the same offset.
        let h_off = lines[0].find("long_header").expect("header present");
        let r_off = lines[2].find('1').expect("row present");
        assert_eq!(h_off, r_off);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["only"]);
        let text = t.render();
        assert!(text.contains("only"));
    }

    #[test]
    fn fnum_strips_negative_zero() {
        assert_eq!(fnum(-0.0001, 2), "0.00");
        assert_eq!(fnum(1.234, 2), "1.23");
        assert_eq!(fnum(-1.0, 1), "-1.0");
    }

    #[test]
    fn row_owned_and_len() {
        let mut t = Table::new(&["x"]);
        assert!(t.is_empty());
        t.row_owned(vec![format!("{}", 42)]);
        assert_eq!(t.len(), 1);
    }
}
