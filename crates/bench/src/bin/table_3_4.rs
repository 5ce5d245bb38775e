//! Regenerates the paper's table_3_4 artifact. See `flash_bench::tables`.
//!
//! Simulation points run isolated in the runner's worker pool; if any
//! point panics or times out the render is caught at the process
//! boundary, a failure table is printed, and the exit status is nonzero.
use std::process::ExitCode;

fn main() -> ExitCode {
    flash_bench::artifact_main("table_3_4", flash_bench::tables::table_3_4)
}
