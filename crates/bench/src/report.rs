//! Table rendering, CSV text and JSON artifact emission.

use std::fs;
use std::path::Path;

use serde::Serialize;

/// Renders rows of equal-length string cells as an aligned ASCII table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
///
/// # Example
///
/// ```
/// use mpsoc_bench::render_table;
///
/// let table = render_table(
///     &["M", "cycles"],
///     &[vec!["1".into(), "1145".into()], vec!["32".into(), "639".into()]],
/// );
/// assert!(table.contains("M"));
/// assert!(table.contains("639"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>w$}", w = w));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(sep.iter().map(String::as_str).collect(), &widths));
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Writes a serializable result as pretty-printed JSON, creating parent
/// directories as needed.
///
/// # Errors
///
/// I/O and serialization failures.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, serde_json::to_string_pretty(value)?)?;
    Ok(())
}

/// Renders rows of cells as RFC-4180-ish CSV text (quotes any cell
/// containing a comma, quote or newline), one line per row after the
/// header.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |cell: &str| -> String {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_owned()
        }
    };
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|c| quote(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let text = to_csv(
            &["a", "b,with,commas"],
            &[vec!["1".into(), "say \"hi\"".into()]],
        );
        assert_eq!(text, "a,\"b,with,commas\"\n1,\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn json_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("mpsoc-bench-test");
        let path = dir.join("x.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('1'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
