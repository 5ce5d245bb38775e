//! A corrupted expectation is counted as a failed run, never passed
//! over: these checks are what the benchmark's error rate counts.

use flash::{MachineConfig, RunResult};
use flash_perfbench::check::{completed, golden, same, Tally};
use flash_perfbench::layers::Counters;
use flash_perfbench::repro::golden_path;
use flash_workloads::{build_machine, by_name, DEFAULT_BUDGET};

/// A small FFT run to completion, and its counters.
fn small_run() -> Counters {
    let mut m = build_machine(&MachineConfig::flash(2), by_name("FFT", 2, 64).as_ref());
    completed(&m.run(DEFAULT_BUDGET)).expect("small FFT completes");
    Counters::of(&m)
}

#[test]
fn a_drifted_golden_is_a_failed_run() {
    let want = std::fs::read(golden_path()).expect("the repro golden is readable");
    let mut drifted = want.clone();
    let at = drifted
        .iter()
        .position(u8::is_ascii_digit)
        .expect("the golden has digits");
    drifted[at] = if drifted[at] == b'9' {
        b'0'
    } else {
        drifted[at] + 1
    };

    let mut tally = Tally::default();
    assert!(tally.record("intact", golden(&want, &want)).is_some());
    assert!(tally.record("drifted", golden(&drifted, &want)).is_none());
    assert!(tally
        .record("truncated", golden(&want[..want.len() / 2], &want))
        .is_none());
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!(tally.notes[0].contains("at line"), "{:?}", tally.notes);
}

#[test]
fn a_wrong_reference_count_is_a_failed_run() {
    let c = small_run();
    assert!(c.refs > 0);
    let mut tally = Tally::default();
    assert!(tally
        .record("right", same("retired references", &c.refs, &c.refs))
        .is_some());
    let corrupted = c.refs + 1;
    assert!(tally
        .record("wrong", same("retired references", &corrupted, &c.refs))
        .is_none());
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!((tally.error_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn an_incomplete_run_is_a_failed_run() {
    let mut m = build_machine(&MachineConfig::flash(2), by_name("FFT", 2, 64).as_ref());
    let r = m.run(10);
    assert!(!matches!(r, RunResult::Completed { .. }));
    let mut tally = Tally::default();
    assert!(tally.record("cut short", completed(&r)).is_none());
    assert_eq!(tally.failed, 1);
}

#[test]
fn counters_that_change_between_runs_fail_the_run() {
    let first = small_run();
    assert_eq!(
        first,
        small_run(),
        "a repeated run reproduces every counter"
    );
    let mut corrupted = first.clone();
    corrupted.heap_pushes += 1;
    let mut tally = Tally::default();
    assert!(tally
        .record("changed", same("counters", &first, &corrupted))
        .is_none());
    assert_eq!(tally.failed, 1);
}
