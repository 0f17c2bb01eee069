//! Plain-text table formatting for figure regeneration.
//!
//! Each figure's report builds a [`Table`] whose rows mirror the series the
//! paper plots (one row per workload, one column per scheme) and prints it
//! to stdout, alongside a CSV form for downstream plotting.

/// Column alignment for [`Table`] rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

/// A simple text table with a header row.
///
/// # Examples
///
/// ```
/// let mut t = gm_stats::Table::new(vec!["workload".into(), "ratio".into()]);
/// t.row(vec!["mcf".into(), "1.30".into()]);
/// let s = t.render();
/// assert!(s.contains("mcf"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header cells.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width; a ragged
    /// table means a harness bug.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "table row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Convenience: a row whose first cell is a label and the rest are
    /// numbers printed to three decimal places (the figures' precision).
    pub fn row_f64(&mut self, label: &str, values: &[f64]) {
        let mut cells = Vec::with_capacity(values.len() + 1);
        cells.push(label.to_owned());
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned plain-text table: first column left-aligned,
    /// remaining columns right-aligned (label + numbers convention).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let w = widths[i];
                let align = if i == 0 { Align::Left } else { Align::Right };
                match align {
                    Align::Left => out.push_str(&format!("{cell:<w$}")),
                    Align::Right => out.push_str(&format!("{cell:>w$}")),
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as CSV (no quoting needed: cells come from identifiers and
    /// numbers).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Converts to a JSON object `{"header": [...], "rows": [[...]]}` with
    /// all cells as strings, exactly as rendered.
    pub fn to_json(&self) -> crate::Json {
        let cells = |row: &[String]| {
            crate::Json::Array(row.iter().map(|c| crate::Json::from(c.clone())).collect())
        };
        let mut out = crate::Json::object();
        out.set("header", cells(&self.header));
        out.set(
            "rows",
            crate::Json::Array(self.rows.iter().map(|r| cells(r)).collect()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["wl".into(), "a".into(), "b".into()]);
        t.row_f64("mcf", &[1.2987, 1.0]);
        t.row(vec!["gcc".into(), "1.100".into(), "0.990".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 rows
        assert!(lines[0].starts_with("wl"));
        assert!(lines[2].contains("1.299")); // three-decimal rounding
    }

    #[test]
    fn csv_roundtrips_cells() {
        let s = sample().to_csv();
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("wl,a,b\n"));
        assert!(s.contains("gcc,1.100,0.990"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn len_and_is_empty() {
        let t = Table::new(vec!["a".into()]);
        assert!(t.is_empty());
        assert_eq!(sample().len(), 2);
    }

    #[test]
    fn csv_of_empty_table_is_header_only() {
        let t = Table::new(vec!["workload".into(), "ratio".into()]);
        assert_eq!(t.to_csv(), "workload,ratio\n");
    }

    #[test]
    fn csv_of_single_row_table() {
        let mut t = Table::new(vec!["workload".into(), "ratio".into()]);
        t.row_f64("mcf", &[1.2987]);
        assert_eq!(t.to_csv(), "workload,ratio\nmcf,1.299\n");
    }

    #[test]
    fn csv_of_single_column_table_has_no_commas() {
        let mut t = Table::new(vec!["only".into()]);
        t.row(vec!["x".into()]);
        assert_eq!(t.to_csv(), "only\nx\n");
    }

    #[test]
    fn json_mirrors_header_and_rows() {
        let j = sample().to_json().render();
        assert_eq!(
            j,
            "{\"header\":[\"wl\",\"a\",\"b\"],\
             \"rows\":[[\"mcf\",\"1.299\",\"1.000\"],[\"gcc\",\"1.100\",\"0.990\"]]}"
        );
    }

    #[test]
    fn json_of_empty_table_has_empty_rows() {
        let t = Table::new(vec!["h".into()]);
        assert_eq!(t.to_json().render(), "{\"header\":[\"h\"],\"rows\":[]}");
    }
}
