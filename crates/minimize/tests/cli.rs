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
