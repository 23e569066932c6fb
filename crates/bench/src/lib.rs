//! Shared plumbing for the figure/table binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation: it prints the series as an aligned text table and
//! writes the same data as CSV under `results/` so it can be plotted. The
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! each of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

use pim_sim::SimTime;

pub mod sweeps;

/// A simple aligned text table that doubles as a CSV writer.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are pre-formatted).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Display,
    {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// The formatted data rows (header excluded).
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let hdr: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
            .collect();
        out.push_str(&hdr.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(hdr.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// The table as CSV (header row plus one line per row).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut csv = String::new();
        csv.push_str(&self.headers.join(","));
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }

    /// Prints the table to stdout and writes `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_ok() {
            let csv = self.to_csv();
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = fs::write(&path, csv) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[csv] {}\n", path.display());
            }
        }
    }
}

/// Extracts `"key": <number>` from a flat JSON object — the only shape
/// the gates read or write, so no external parser is needed.
#[must_use]
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\""))?;
    let rest = &json[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Where CSV outputs land (`$PIMNET_RESULTS_DIR` or `./results`).
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("PIMNET_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a time in microseconds with 3 decimals (the figures' unit).
#[must_use]
pub fn us(t: SimTime) -> String {
    format!("{:.3}", t.as_us())
}

/// Formats a dimensionless ratio ("speedup") with 2 decimals.
#[must_use]
pub fn x(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats a percentage with 1 decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn committed_baselines_carry_the_keys_their_gates_read() {
        let perf = include_str!("../../../results/perf_baseline.json");
        let layers = include_str!("../../../results/layers_baseline.json");
        assert!(json_number(perf, "wall_ms").is_some_and(|v| v > 0.0));
        assert!(json_number(layers, "min_speedup_x256").is_some_and(|v| v > 0.0));
        assert_eq!(json_number(layers, "no_such_key"), None);
        // Every key of a baseline is one its harness writes: a key it
        // stopped writing reads as a gated figure that nothing checks.
        let writes_every_key = |baseline: &str, file: &str, harness: &str, source: &str| {
            let keys: Vec<&str> = baseline
                .lines()
                .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
                .collect();
            assert!(keys.len() >= 3, "no keys parsed from {baseline}");
            assert!(
                baseline.lines().filter(|l| l.contains(':')).count() == keys.len(),
                "results/{file} holds a value that is not a top-level key"
            );
            for key in keys {
                assert!(
                    source.contains(&format!("\\\"{key}\\\"")),
                    "results/{file} carries `{key}`, which {harness} does not write"
                );
            }
        };
        let gate = include_str!("bin/perf_gate.rs");
        let ledger = include_str!("bin/layer_ledger.rs");
        writes_every_key(perf, "perf_baseline.json", "perf_gate", gate);
        writes_every_key(layers, "layers_baseline.json", "layer_ledger", ledger);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(SimTime::from_us(3)), "3.000");
        assert_eq!(x(2.5), "2.50x");
        assert_eq!(pct(0.831), "83.1%");
    }
}
