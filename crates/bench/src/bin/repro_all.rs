//! Regenerates every table and figure in the paper's evaluation in one
//! run. Set `FLASH_FULL=1` for the paper's problem sizes and `FLASH_JOBS=n`
//! to control how many simulations run concurrently (default: all cores).
//!
//! Robustness: each artifact renders under panic isolation, so a single
//! wedged or panicked simulation point degrades the run to a failure
//! summary at the end (and a nonzero exit status) instead of killing the
//! remaining artifacts. On a healthy run the output is byte-identical to
//! the pre-harness binary.
use flash_bench::tables as t;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Simulate the whole deduplicated run matrix up front, in parallel;
    // the table renders below are then pure cache reads. Jobs that fail
    // are recorded by the runner and re-surface as render-time panics in
    // the artifacts that need them.
    t::prefetch_all();
    flash_bench::suite_main(&mut [
        ("table_3_2", Some(Box::new(t::table_3_2))),
        ("table_3_3", Some(Box::new(t::table_3_3))),
        ("table_3_4", Some(Box::new(t::table_3_4))),
        ("fig_4_1", Some(Box::new(t::fig_4_1))),
        ("table_4_1", Some(Box::new(t::table_4_1))),
        ("fig_4_2", Some(Box::new(t::fig_4_2))),
        ("fig_4_3", Some(Box::new(t::fig_4_3))),
        ("table_4_2", Some(Box::new(t::table_4_2))),
        ("sec_4_3_hotspot", Some(Box::new(t::sec_4_3_hotspot))),
        ("sec_4_5_scale64", Some(Box::new(t::sec_4_5_scale64))),
        ("table_5_1", Some(Box::new(t::table_5_1))),
        ("sec_5_2_mdc", Some(Box::new(t::sec_5_2_mdc))),
        ("table_5_2", Some(Box::new(t::table_5_2))),
        ("table_5_3", Some(Box::new(t::table_5_3))),
        ("sec_5_3_ppext", Some(Box::new(t::sec_5_3_ppext))),
        ("ablations", Some(Box::new(t::ablations))),
        ("flexibility_note", Some(Box::new(t::flexibility_note))),
    ])
}
