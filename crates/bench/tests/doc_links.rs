//! The documentation CI: every relative markdown link resolves, every
//! anchor points at a real heading, the README's `FLASH_*` table equals
//! the `flash_engine::knobs` table (the only environment reader), every
//! documented `--bin` and repository path exists, and every documented
//! Rust path names an item in the source.
//!
//! Hand-rolled scanners (no regex/markdown deps, per the frozen-deps
//! rule): fenced code blocks are stripped before link extraction, and
//! anchors are slugified the way GitHub renders heading ids.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use flash_engine::knobs;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The documentation set under link checking: every tracked markdown
/// file at the workspace root.
const DOCS: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "METRICS.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
];

/// Drops fenced code blocks (``` ... ```) so shell snippets and JSON
/// examples can't fake or hide a markdown link.
fn strip_fences(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Extracts the `(target)` of every markdown `[text](target)` link.
fn links(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(rel_end) = text[start..].find(')') {
                out.push(text[start..start + rel_end].to_string());
                i = start + rel_end;
            }
        }
        i += 1;
    }
    out
}

/// GitHub's heading-id slug: lowercase, punctuation removed, spaces to
/// hyphens (so `## JSON schema: \`flash-observe-v1\`` gets the id
/// `json-schema-flash-observe-v1`).
fn slugify(heading: &str) -> String {
    heading
        .to_lowercase()
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == ' ' || *c == '-' || *c == '_')
        .map(|c| if c == ' ' { '-' } else { c })
        .collect()
}

/// All heading anchors a markdown file exports.
fn anchors(text: &str) -> BTreeSet<String> {
    let mut in_fence = false;
    let mut out = BTreeSet::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            let title = line.trim_start_matches('#').trim();
            out.insert(slugify(title));
        }
    }
    out
}

/// Every relative link in the documentation set resolves to an existing
/// file, and every `file#anchor` (or same-file `#anchor`) names a real
/// heading in its target. External (`http`/`https`/`mailto`) links are
/// out of scope.
#[test]
fn relative_links_and_anchors_resolve() {
    let root = workspace_root();
    let mut failures = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("documentation file {doc} unreadable: {e}"));
        for link in links(&strip_fences(&text)) {
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
            {
                continue;
            }
            let (file_part, anchor) = match link.split_once('#') {
                Some((f, a)) => (f, Some(a)),
                None => (link.as_str(), None),
            };
            let target = if file_part.is_empty() {
                path.clone()
            } else {
                root.join(doc).parent().unwrap().join(file_part)
            };
            if !target.exists() {
                failures.push(format!("{doc}: dangling link ({link}) -> {target:?}"));
                continue;
            }
            if let Some(anchor) = anchor {
                let target_text = std::fs::read_to_string(&target).unwrap();
                if !anchors(&target_text).contains(anchor) {
                    failures.push(format!("{doc}: dangling anchor ({link})"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "dangling links:\n{}",
        failures.join("\n")
    );
}

/// Every document in the checked set is reachable by following relative
/// links from README.md — no orphaned documentation. (ARCHITECTURE.md in
/// particular must stay linked from the README.)
#[test]
fn every_doc_is_reachable_from_the_readme() {
    let root = workspace_root();
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut frontier = vec!["README.md"];
    while let Some(doc) = frontier.pop() {
        if !reachable.insert(doc) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for link in links(&strip_fences(&text)) {
            let file = link.split('#').next().unwrap();
            if let Some(&known) = DOCS.iter().find(|d| **d == file) {
                frontier.push(known);
            }
        }
    }
    for doc in DOCS {
        assert!(
            reachable.contains(doc),
            "{doc} is not linked (directly or transitively) from README.md"
        );
    }
}

/// Every file with extension `ext` under `dir`, skipping build output
/// and version control.
fn files_under(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !["target", ".git", ".bench_build"]
                    .iter()
                    .any(|d| path.ends_with(d))
                {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == ext) {
                out.push(path);
            }
        }
    }
    out
}

/// `(name, default)` of each row of the README's operator table (lines
/// opening with a backtick-quoted variable cell), backticks stripped.
fn readme_table_rows(readme: &str) -> Vec<(String, String)> {
    readme
        .lines()
        .filter(|l| l.starts_with("| `FLASH_"))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(|c| c.trim().trim_matches('`')).collect();
            (cells[1].to_string(), cells[2].to_string())
        })
        .collect()
}

/// The README's `FLASH_*` operator table is `flash_engine::knobs::ALL`
/// row for row: the same variables in the same order, with the same
/// Default column. A knob added, removed or re-defaulted in the source
/// fails here before the README can rot.
#[test]
fn readme_env_table_matches_the_source_tree() {
    let readme = std::fs::read_to_string(workspace_root().join("README.md")).unwrap();
    let documented = readme_table_rows(&readme);
    let declared: Vec<(String, String)> = knobs::ALL
        .iter()
        .map(|k| (k.name.to_string(), k.default.to_string()))
        .collect();
    assert_eq!(
        documented, declared,
        "README operator table (variable, Default) rows must equal flash_engine::knobs::ALL"
    );
}

/// `flash_engine::knobs` is the only environment reader under `crates/`,
/// `tests/` and `examples/` (tests may still set and remove variables).
/// The simulator core does not consult it either: neither `flash-magic`
/// nor `flash`'s library names the knob module or any knob variable, so
/// a machine config is a pure value.
#[test]
fn only_the_knob_table_reads_the_environment() {
    let root = workspace_root();
    let reader = root.join("crates/engine/src/knobs.rs");
    let read = concat!("env::", "var");
    let mut offenders = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        for path in files_under(&root.join(dir), "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let rel = path.strip_prefix(&root).unwrap().display().to_string();
            if path != reader && text.contains(read) {
                offenders.push(format!("{rel}: reads the environment"));
            }
            let core = path.starts_with(root.join("crates/magic"))
                || path.starts_with(root.join("crates/core/src"));
            if core
                && (text.contains("knobs::")
                    || text
                        .lines()
                        .any(|l| l.trim_start().starts_with("use ") && l.contains("knobs"))
                    || knobs::ALL.iter().any(|k| text.contains(k.name)))
            {
                offenders.push(format!("{rel}: names a knob"));
            }
        }
    }
    assert!(offenders.is_empty(), "{}", offenders.join("\n"));
}

/// The bin names that follow `--bin` in a text (code fences included:
/// that is where the commands live). A `--bin` followed by something
/// that is not a bin name, such as `<name>`, is skipped.
fn bin_names(text: &str) -> Vec<String> {
    let mut words = text.split_whitespace();
    let mut out = Vec::new();
    while let Some(word) = words.next() {
        if word.trim_start_matches('`') != "--bin" {
            continue;
        }
        let Some(next) = words.next() else { break };
        let name: String = next
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
    }
    out
}

/// The markdown a reader follows for commands and paths: the root
/// [`DOCS`] except CHANGES.md (history names what has since gone) and
/// every markdown file below the root. Other root markdown (the paper
/// abstract, related work, reference snippets) describes no command of
/// this repository.
fn current_docs() -> Vec<PathBuf> {
    let root = workspace_root();
    files_under(&root, "md")
        .into_iter()
        .filter(|p| match p.strip_prefix(&root).unwrap().to_str() {
            Some(rel) if !rel.contains('/') => DOCS.contains(&rel) && rel != "CHANGES.md",
            _ => true,
        })
        .collect()
}

/// Every `--bin <name>` in the documentation names an existing
/// `crates/*/src/bin/<name>.rs`, so documentation for a deleted or
/// renamed bin fails here instead of failing the reader.
#[test]
fn documented_bins_exist() {
    let root = workspace_root();
    let bins: BTreeSet<String> = files_under(&root.join("crates"), "rs")
        .into_iter()
        .filter(|p| p.parent().is_some_and(|d| d.ends_with("src/bin")))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(bins.contains("repro_all"), "bin scan found {bins:?}");
    let mut stale = Vec::new();
    for path in current_docs() {
        let text = std::fs::read_to_string(&path).unwrap();
        for name in bin_names(&text) {
            if !bins.contains(&name) {
                let doc = path.strip_prefix(&root).unwrap_or(&path);
                stale.push(format!("{}: --bin {name}", doc.display()));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documented bins with no crates/*/src/bin/<name>.rs:\n{}",
        stale.join("\n")
    );
}

/// The repository paths named in inline code spans (`` `crates/...` ``,
/// `` `tests/...` ``, `` `examples/...` ``) outside code fences, cut at
/// the first character that cannot be part of a path (so
/// `` `crates/core/src/machine.rs:120` `` names `crates/core/src/machine.rs`).
/// Spans holding a pattern (`*`, `<name>`, `{a,b}`) name no one path
/// and are skipped.
fn repo_paths(text: &str) -> Vec<String> {
    strip_fences(text)
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            ["crates/", "tests/", "examples/"]
                .iter()
                .any(|p| span.starts_with(p))
                && !span.contains(['*', '<', '{'])
        })
        .map(|span| {
            span.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_-./".contains(*c))
                .collect()
        })
        .collect()
}

/// Every repository path the root documentation names in backticks
/// exists, so a moved or deleted file fails here instead of sending the
/// reader to nothing. CHANGES.md is history and may name what is gone.
#[test]
fn documented_repo_paths_exist() {
    let root = workspace_root();
    let named: Vec<(&str, String)> = DOCS
        .iter()
        .filter(|d| **d != "CHANGES.md")
        .flat_map(|doc| {
            let text = std::fs::read_to_string(root.join(doc)).unwrap();
            repo_paths(&text).into_iter().map(move |path| (*doc, path))
        })
        .collect();
    assert!(
        named.iter().any(|(_, p)| p == "crates/core/src/machine.rs"),
        "path scan found {named:?}"
    );
    let stale: Vec<String> = named
        .iter()
        .filter(|(_, path)| !root.join(path).exists())
        .map(|(doc, path)| format!("{doc}: `{path}`"))
        .collect();
    assert!(
        stale.is_empty(),
        "documented repository paths that do not exist:\n{}",
        stale.join("\n")
    );
}

/// The documentation that names Rust items: the root [`DOCS`] except
/// CHANGES.md (history) and ROADMAP.md (plans name items not yet
/// written), plus the paper map and the verify skill.
const RUST_PATH_DOCS: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "METRICS.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    ".claude/skills/verify/SKILL.md",
];

/// The Rust paths (`` `A::b` ``, optionally called: `` `A::b(x)` ``) in
/// inline code spans outside code fences, each as its list of segments.
/// A trailing group (`` `A::{b, c}` ``) yields one path per member.
/// `std::` and `cargo::` paths name nothing in this repository and are
/// skipped, as are spans that are not a path.
fn rust_paths(text: &str) -> Vec<Vec<String>> {
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut out = Vec::new();
    for span in strip_fences(text).split('`').skip(1).step_by(2) {
        let path = match span.split_once('(') {
            Some((path, _)) if span.ends_with(')') => path,
            Some(_) => continue,
            None => span,
        };
        let (stem, members): (&str, Vec<&str>) = match path.split_once("::{") {
            Some((stem, group)) => match group.strip_suffix('}') {
                Some(group) => (stem, group.split(',').map(str::trim).collect()),
                None => continue,
            },
            None => match path.rsplit_once("::") {
                Some((stem, last)) => (stem, vec![last]),
                None => continue,
            },
        };
        let segs: Vec<&str> = stem.split("::").collect();
        let valid =
            segs[0].split('-').all(ident) && segs[1..].iter().chain(&members).all(|s| ident(s));
        if !valid || segs[0] == "std" || segs[0] == "cargo" {
            continue;
        }
        for m in members {
            out.push(segs.iter().chain([&m]).map(|s| s.to_string()).collect());
        }
    }
    out
}

/// Whether `word` occurs in `text` as a whole identifier.
fn has_ident(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(i, _)| {
        let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        !text[..i].ends_with(is_ident) && !text[i + word.len()..].starts_with(is_ident)
    })
}

/// Every Rust path the documentation names exists in the source: a
/// lowercase last segment of a path that does not start at a crate
/// (`Repro::config`, `native::handle`) must be a `fn` defined under
/// `crates/` or `tests/`; any other last segment (a type, variant,
/// constant, or a crate-rooted item such as `flash_engine::knobs`)
/// must appear there as an identifier. A deleted or renamed item then
/// fails here instead of sending the reader to nothing.
#[test]
fn documented_rust_paths_exist() {
    let root = workspace_root();
    let mut sources: Vec<PathBuf> = files_under(&root.join("crates"), "rs");
    sources.extend(
        std::fs::read_dir(root.join("tests"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs")),
    );
    let source: String = sources
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    let crates: BTreeSet<String> = files_under(&root.join("crates"), "toml")
        .iter()
        .filter_map(|p| {
            let toml = std::fs::read_to_string(p).unwrap();
            let line = toml.lines().find(|l| l.starts_with("name = "))?;
            Some(
                line.trim_start_matches("name = ")
                    .trim_matches('"')
                    .to_string(),
            )
        })
        .flat_map(|name| [name.replace('-', "_"), name])
        .chain(["crate".to_string()])
        .collect();
    assert!(
        crates.contains("flash_engine"),
        "crate scan found {crates:?}"
    );
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in RUST_PATH_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for segs in rust_paths(&text) {
            checked += 1;
            let last = segs.last().unwrap();
            let wants_fn =
                !crates.contains(&segs[0]) && last.starts_with(|c: char| c.is_lowercase());
            let found = if wants_fn {
                has_ident(&source, &format!("fn {last}"))
            } else {
                has_ident(&source, last)
            };
            if !found {
                stale.push(format!("{doc}: `{}`", segs.join("::")));
            }
        }
    }
    assert!(checked > 100, "path scan found only {checked} paths");
    assert!(
        stale.is_empty(),
        "documented Rust paths with no definition under crates/ or tests/:\n{}",
        stale.join("\n")
    );
}
