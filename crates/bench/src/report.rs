//! Table rendering for the reproduction harness.
//!
//! Each bench target prints the rows/series of one table or figure from the
//! paper. The format is deliberately plain (fixed-width columns) so outputs
//! diff cleanly across runs and paste into EXPERIMENTS.md.

/// A fixed-width text table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (already formatted cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("  ");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&"-".repeat(total.min(100)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a microsecond value.
pub fn us(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["size", "latency"]);
        t.row(&["4".into(), "1.25".into()]);
        t.row(&["4096".into(), "170.12".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("4096"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows end aligned.
        assert!(lines.len() >= 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(1.234), "1.23");
        assert_eq!(ratio(3.0, 1.5), "2.00x");
    }
}
