//! Plain-text table rendering for the `experiments` binary.

/// A simple ASCII table builder with right-aligned numeric columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    // First column left-aligned (labels).
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (for downstream plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as `12.34`.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats bytes as a human-readable quantity.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["name", "hr", "bhr"]);
        t.row(vec!["proxy-only", "12.34", "5.60"]);
        t.row(vec!["baps", "45.00", "30.10"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("proxy-only"));
        // Numeric columns right-aligned: both rows end at the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y", "has \"quote\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"has \"\"quote\"\"\""));
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MB");
        assert!(human_bytes(5 * 1024 * 1024 * 1024).contains("GB"));
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(12.345), "12.35");
        assert_eq!(pct(0.0), "0.00");
    }
}
