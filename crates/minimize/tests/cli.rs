//! The `minimize` command line turns malformed arguments into exit code 1
//! and a message naming the bad flag, never a panic.

use std::process::Command;

#[test]
fn bad_arguments_exit_1_with_a_message() {
    for (args, msg) in [
        (
            "--timeout -1 --stress 4,2,40,21 --predicate wedge",
            "bad --timeout",
        ),
        (
            "--timeout inf --stress 4,2,40,21 --predicate wedge",
            "bad --timeout",
        ),
        (
            "--traffic 4,0,50,30,11 --predicate wedge",
            "bad --traffic objects",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_minimize"))
            .args(args.split(' '))
            .output()
            .expect("spawn minimize");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`minimize {args}`: {stderr}");
        assert!(stderr.contains(msg), "`minimize {args}`: {stderr}");
    }
}

/// `--replay` of an artifact that could not replay (one field of a
/// checked-in golden made invalid) exits 1 with a message naming the
/// field, never a panic.
#[test]
fn replaying_an_invalid_artifact_exits_1_naming_the_field() {
    let golden = include_str!("../goldens/planted_cpu_invalidated_grant.json");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, (from, to, field)) in [
        (r#""nodes":4,"#, r#""nodes":0,"#, "`nodes`"),
        (r#""nodes":4,"#, r#""nodes":65540,"#, "`nodes`"),
        (r#""nodes":4,"#, r#""nodes":2,"#, "`streams`"),
        (r#""dma":[]"#, r#""dma":[[0,4,0]]"#, "`dma`"),
        (r#""dma":[]"#, r#""dma":[[0,65540,0]]"#, "`dma`"),
        (
            r#""cache_bytes":8192,"#,
            r#""cache_bytes":1000,"#,
            "`cache_bytes`",
        ),
        (r#""mshrs":4,"#, r#""mshrs":0,"#, "`mshrs`"),
        (
            r#"{"kind":"explicit"}"#,
            r#"{"kind":"round_robin_pages","page_bytes":0}"#,
            "`page_bytes`",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        assert!(golden.contains(from), "{from} not in the golden");
        let path = dir.join(format!("invalid_artifact_{i}.json"));
        std::fs::write(&path, golden.replace(from, to)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_minimize"))
            .arg("--replay")
            .arg(&path)
            .output()
            .expect("spawn minimize");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{to}: {stderr}");
        assert!(stderr.contains(field), "{to}: {stderr}");
        assert!(!stderr.contains("panicked"), "{to}: {stderr}");
    }
}
