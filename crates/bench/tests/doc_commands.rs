//! Smoke tests for the commands the documentation tells users to run.
//!
//! README.md and METRICS.md promise specific invocations
//! (`observe_breakdown`, `traffic_suite --smoke`, `repro_all NAME...`,
//! `FLASH_OBSERVE_OUT=... repro_all table_3_3`); this suite
//! runs each as a real subprocess so
//! a doc command can never rot into a silent lie. Environment variables
//! are per-subprocess, so the suite is safe under parallel test
//! execution.

use std::process::Command;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("flash-doc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `cargo run --release -p flash-bench --bin observe_breakdown`
/// (README "Observability", METRICS.md "Exports").
#[test]
fn observe_breakdown_renders_all_classes_and_segments() {
    let out = Command::new(env!("CARGO_BIN_EXE_observe_breakdown"))
        .output()
        .expect("spawn observe_breakdown");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for title in ["FLASH:", "Ideal:"] {
        assert!(stdout.contains(title), "missing column {title}\n{stdout}");
    }
    for seg in ["pi", "inbox_wait", "handler", "mem", "ni_wait", "mesh"] {
        assert!(stdout.contains(seg), "missing segment {seg}\n{stdout}");
    }
    assert!(
        stdout.contains("Local read miss, clean in local memory")
            && stdout.contains("Remote read miss, dirty in 3rd node"),
        "all five Table 3.3 rows expected\n{stdout}"
    );
}

/// `FLASH_OBSERVE_OUT=<dir> cargo run ... --bin repro_all -- table_3_3`
/// (METRICS.md "Exports"): table output unchanged, one schema-tagged
/// report and one Chrome trace per job.
#[test]
fn observe_out_exports_schema_tagged_json_per_job() {
    let dir = temp_dir("observe-out");
    let base = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_3")
        .env_remove("FLASH_OBSERVE_OUT")
        .output()
        .expect("spawn repro_all table_3_3");
    let observed = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_3")
        .env("FLASH_OBSERVE_OUT", &dir)
        .output()
        .expect("spawn repro_all table_3_3 observed");
    assert!(observed.status.success());
    assert_eq!(
        base.stdout, observed.stdout,
        "FLASH_OBSERVE_OUT must not change table output"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        20,
        "10 latency jobs (2 kinds x 5 classes), a report and a trace each: {names:?}"
    );
    let (observe, trace) = names.split_at(10);
    for (o, t) in observe.iter().zip(trace) {
        let stem = o.strip_prefix("observe_").expect("observe_ file");
        assert_eq!(t.strip_prefix("trace_"), Some(stem), "{names:?}");
        assert!(stem.ends_with(".json"), "{o}");
        let body = std::fs::read_to_string(dir.join(o)).unwrap();
        assert!(body.contains("\"schema\": \"flash-observe-v1\""), "{o}");
        assert!(body.contains("\"sum_mismatches\": 0"), "{o}: {body}");
        let body = std::fs::read_to_string(dir.join(t)).unwrap();
        assert!(body.starts_with("{\"displayTimeUnit\""), "{t}: {body}");
        assert!(body.contains("\"traceEvents\""), "{t}");
        assert!(body.contains("\"ph\":\"X\""), "{t}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The pinned golden transcript for a bin, from `tests/golden/` at the
/// workspace root.
fn golden(name: &str) -> Vec<u8> {
    let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&p).unwrap_or_else(|e| panic!("golden transcript {p:?}: {e}"))
}

/// Asserts `got` equals the golden transcript `name` byte for byte. On
/// drift it names the first differing line and shows both versions of
/// it, instead of dumping both transcripts.
fn assert_matches_golden(got: &[u8], name: &str) {
    let want = golden(name);
    if got == want {
        return;
    }
    let (g, w) = (String::from_utf8_lossy(got), String::from_utf8_lossy(&want));
    let (mut gl, mut wl) = (g.lines(), w.lines());
    let mut line = 1;
    let (a, b) = loop {
        match (gl.next(), wl.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (None, None) => panic!("stdout differs from tests/golden/{name} only in line endings"),
            other => break other,
        }
    };
    panic!("stdout drifted from tests/golden/{name} at line {line}: got {a:?}, want {b:?}");
}

/// `observe_breakdown` stdout is pinned byte-for-byte against the golden
/// transcript. (The PP backend is a host detail that must never reach
/// an observable; the `pp_backends_agree_on_every_miss_class` unit test
/// pins it in-process.)
#[test]
fn observe_breakdown_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_observe_breakdown"))
        .output()
        .expect("spawn observe_breakdown");
    assert!(out.status.success());
    assert_matches_golden(&out.stdout, "observe_breakdown.txt");
}

/// `traffic_suite --smoke` stdout — the scaled-down load–latency sweep
/// (README "Open-loop traffic and latency percentiles") — is pinned
/// byte-for-byte against its golden transcript, so a knee shift, an
/// arrival-stream change or a determinism break fails here.
#[test]
fn traffic_smoke_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_traffic_suite"))
        .arg("--smoke")
        .output()
        .expect("spawn traffic_suite");
    assert!(out.status.success());
    assert_matches_golden(&out.stdout, "traffic_smoke.txt");
}

/// `repro_all` — the full paper-reproduction sweep — is pinned against
/// its golden transcript. (The benchmark's `repro` workload re-checks
/// this on every CI perf-smoke run.)
#[test]
fn repro_all_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .output()
        .expect("spawn repro_all");
    assert!(out.status.success());
    assert_matches_golden(&out.stdout, "repro_all.txt");
}

/// `repro_all NAME...` (README "Individual artifacts") renders exactly
/// the named artifacts: the first three are the golden's first three
/// sections byte for byte, and the golden's next section is Figure 4.1.
#[test]
fn repro_all_named_artifacts_match_the_golden_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["table_3_2", "table_3_3", "table_3_4"])
        .output()
        .expect("spawn repro_all");
    assert!(out.status.success());
    let want = golden("repro_all.txt");
    assert!(
        want.starts_with(&out.stdout),
        "repro_all table_3_2 table_3_3 table_3_4 is not a prefix of tests/golden/repro_all.txt"
    );
    let next = String::from_utf8_lossy(&want[out.stdout.len()..]);
    assert_eq!(
        next.lines().nth(2).map(|l| l.starts_with("Figure 4.1:")),
        Some(true),
        "the section after Table 3.4 must be Figure 4.1:\n{}",
        &next[..next.len().min(200)]
    );
}

/// An unknown artifact name is rejected before anything is simulated:
/// exit status 2, nothing on stdout, the valid names on stderr.
#[test]
fn repro_all_rejects_an_unknown_artifact() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["table_3_3", "nope"])
        .output()
        .expect("spawn repro_all");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"nope\""), "{stderr}");
    for (name, _) in flash_bench::tables::ARTIFACTS {
        assert!(
            stderr.contains(name),
            "valid name {name} not listed\n{stderr}"
        );
    }
}

/// The documented binaries exist (compile-time check via
/// `CARGO_BIN_EXE_*` for the bins this crate owns), and the cheapest
/// artifact renders its header on a real run.
#[test]
fn documented_binaries_exist() {
    // Compile-time: env!() fails the build if a documented binary is
    // renamed or dropped.
    for bin in [
        env!("CARGO_BIN_EXE_repro_all"),
        env!("CARGO_BIN_EXE_observe_breakdown"),
        env!("CARGO_BIN_EXE_traffic_suite"),
    ] {
        assert!(
            std::path::Path::new(bin).exists(),
            "documented binary missing: {bin}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_2")
        .output()
        .expect("spawn repro_all table_3_2");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 3.2"));
}
