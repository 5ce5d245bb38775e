//! EXPERIMENTS.md quotes the full-size transcript: every measured cell of
//! its Table 3.3 and Figure 4.1 tables equals the matching row of
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
    assert!(lines.next().is_some(), "EXPERIMENTS.md has no `{heading}`");
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

#[test]
fn figure_4_1_measured_cells_match_the_transcript() {
    let doc = doc_table(&read("EXPERIMENTS.md"), "## Figure 4.1");
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
    assert!(!doc.is_empty(), "EXPERIMENTS.md Figure 4.1 has no rows");
    let mut mismatches = Vec::new();
    for cells in &doc {
        let (name, cell) = (&cells[0], &cells[2]);
        // The cell leads with the figure and may go on in prose.
        let doc_pct = cell.split_whitespace().next().unwrap_or("");
        match measured.iter().find(|(a, _)| a == name) {
            Some(&(_, pct)) if pct == doc_pct => {}
            Some(&(_, pct)) => mismatches.push(format!(
                "Figure 4.1 {name:?}: EXPERIMENTS.md says {doc_pct}, repro_full.txt says {pct}"
            )),
            None => mismatches.push(format!("Figure 4.1 {name:?}: not in repro_full.txt")),
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
