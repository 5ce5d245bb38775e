//! EXPERIMENTS.md and README.md quote the full-size transcript: every
//! measured cell of EXPERIMENTS.md's Table 3.3, Figure 4.1 and Table 5.2
//! tables and of README.md's headline table equals the matching row of
//! `repro_full.txt` (what `FLASH_SCALE=1 repro_all` prints; CI compares a
//! fresh run against that file). A model change that moves one of these
//! numbers fails here until the prose moves with it.
//!
//! Reads both files and simulates nothing.

use flash_bench::MissClass;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The rows of the first markdown table under the heading that starts
/// with `heading`, split into trimmed cells with `**` emphasis removed.
fn doc_table(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(heading));
    assert!(lines.next().is_some(), "no `{heading}` heading");
    lines
        .take_while(|l| !l.starts_with('#'))
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // the header and its `|---|` rule
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.replace("**", "").trim().to_string())
                .collect()
        })
        .collect()
}

/// The body lines of the transcript section whose banner title starts
/// with `title`: everything between its banner and the next one.
fn transcript_section<'a>(transcript: &'a str, title: &str) -> Vec<&'a str> {
    let mut lines = transcript.lines().skip_while(|l| !l.starts_with(title));
    assert!(lines.next().is_some(), "repro_full.txt has no `{title}`");
    lines
        .skip_while(|l| !l.starts_with("====="))
        .skip(1)
        .take_while(|l| !l.starts_with("====="))
        .collect()
}

#[test]
fn table_3_3_measured_cells_match_the_transcript() {
    let doc = doc_table(&read("EXPERIMENTS.md"), "## Table 3.3");
    let transcript = read("repro_full.txt");
    let rows: Vec<&str> = transcript_section(&transcript, "Table 3.3:")
        .into_iter()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .collect();
    assert_eq!(doc.len(), MissClass::ALL.len(), "EXPERIMENTS.md rows");
    assert_eq!(rows.len(), MissClass::ALL.len(), "repro_full.txt rows");
    let mut mismatches = Vec::new();
    for ((class, cells), row) in MissClass::ALL.iter().zip(&doc).zip(rows) {
        let label = class.label();
        assert!(row.starts_with(label), "row {row:?} is not {label:?}");
        // The transcript's columns: Ideal, (paper), FLASH, (paper).
        let nums: Vec<&str> = row[label.len()..].split_whitespace().collect();
        for (column, doc_cell, measured) in
            [("Ideal", &cells[2], nums[0]), ("FLASH", &cells[4], nums[2])]
        {
            if doc_cell != measured {
                mismatches.push(format!(
                    "Table 3.3 {label:?}, {column}: EXPERIMENTS.md says {doc_cell}, \
                     repro_full.txt says {measured}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Compares a doc table's FLASH-over-ideal cells (column `pct_col`)
/// with the transcript's Figure 4.1 rows and lists every mismatch. The
/// app name and the cell are compared on their first word: both may go
/// on in prose (`MP3D (stress test)`, `+53.8% (stress-test outlier)`).
fn figure_4_1_mismatches(doc_name: &str, rows: &[Vec<String>], pct_col: usize) -> Vec<String> {
    let transcript = read("repro_full.txt");
    // Each app's two machine rows are followed by "FLASH +x% over ideal".
    let mut app = "";
    let mut measured = Vec::new();
    for line in transcript_section(&transcript, "Figure 4.1:") {
        if let Some(pct) = line
            .trim()
            .strip_prefix("FLASH ")
            .and_then(|l| l.strip_suffix(" over ideal"))
        {
            measured.push((app, pct));
        } else if !line.starts_with(' ') {
            app = line.split_whitespace().next().unwrap_or("");
        }
    }
    assert!(
        !rows.is_empty(),
        "{doc_name}'s Figure 4.1 table has no rows"
    );
    let mut mismatches = Vec::new();
    for cells in rows {
        let name = cells[0].split_whitespace().next().unwrap_or("");
        let doc_pct = cells[pct_col].split_whitespace().next().unwrap_or("");
        match measured.iter().find(|(a, _)| *a == name) {
            Some(&(_, pct)) if pct == doc_pct => {}
            Some(&(_, pct)) => mismatches.push(format!(
                "Figure 4.1 {name:?}: {doc_name} says {doc_pct}, repro_full.txt says {pct}"
            )),
            None => mismatches.push(format!("Figure 4.1 {name:?}: not in repro_full.txt")),
        }
    }
    mismatches
}

#[test]
fn figure_4_1_measured_cells_match_the_transcript() {
    let doc = doc_table(&read("EXPERIMENTS.md"), "## Figure 4.1");
    let mismatches = figure_4_1_mismatches("EXPERIMENTS.md", &doc, 2);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn readme_headline_cells_match_the_transcript() {
    let doc = doc_table(&read("README.md"), "## Headline result");
    let mismatches = figure_4_1_mismatches("README.md", &doc, 2);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// EXPERIMENTS.md's Table 5.2 rows, in order, with the transcript
/// column each of the first four reads.
const TABLE_5_2_METRICS: [&str; 5] = [
    "Dynamic dual-issue efficiency",
    "Special-instruction use",
    "Pairs per handler invocation",
    "Handler invocations per miss",
    "Static code size",
];

#[test]
fn table_5_2_cells_match_the_transcript() {
    let doc = doc_table(&read("EXPERIMENTS.md"), "## Table 5.2");
    let transcript = read("repro_full.txt");
    let section = transcript_section(&transcript, "Table 5.2:");
    let code = section
        .iter()
        .find_map(|l| l.strip_prefix("Static code size of fully-scheduled handlers (with NOPs): "))
        .expect("repro_full.txt's Table 5.2 has a static code size");
    let (code_measured, code_paper) = code
        .strip_suffix(')')
        .and_then(|c| c.split_once(" (paper: "))
        .expect("code size reads `<measured> (paper: <paper>)`");
    // Each cache row: `1 MB    1.37 (1.53)    42% (38%)    ...`, a
    // measured value and its (paper) value per metric.
    let rows: Vec<Vec<&str>> = section
        .iter()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    let caches: Vec<String> = rows.iter().map(|r| r[..2].join(" ")).collect();
    assert_eq!(caches, ["1 MB", "64 KB", "4 KB"], "repro_full.txt rows");
    let column = |k: usize, paper: bool| -> String {
        let cells: Vec<&str> = rows
            .iter()
            .map(|r| r[2 + 2 * k + paper as usize].trim_matches(|c| c == '(' || c == ')'))
            .collect();
        cells.join(" / ")
    };
    let labels: Vec<&str> = doc.iter().map(|cells| cells[0].as_str()).collect();
    assert_eq!(labels, TABLE_5_2_METRICS, "EXPERIMENTS.md rows");
    let mut mismatches = Vec::new();
    for (k, cells) in doc.iter().enumerate() {
        let (paper, measured) = if k < 4 {
            (column(k, true), column(k, false))
        } else {
            (code_paper.to_string(), code_measured.to_string())
        };
        for (what, doc_cell, transcript_cell) in [
            ("paper", &cells[1], paper),
            ("measured", &cells[2], measured),
        ] {
            if *doc_cell != transcript_cell {
                mismatches.push(format!(
                    "Table 5.2 {:?}, {what}: EXPERIMENTS.md says {doc_cell}, \
                     repro_full.txt says {transcript_cell}",
                    cells[0]
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
