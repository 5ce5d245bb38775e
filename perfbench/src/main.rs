//! `flash-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable table, then the JSON result as the last line
//! of stdout. Exits 2 on bad arguments.

use std::process::ExitCode;

use flash_perfbench::alloc::CountingAlloc;
use flash_perfbench::bench::{parse_args, run};
use flash_perfbench::repro::{child_main, CHILD_ARG};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    // The simulator's `FLASH_*` knobs (scale, jobs, shards, exporters)
    // would change what is measured; every run gets the defaults. The
    // `repro` child inherits the cleared environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FLASH_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(CHILD_ARG) {
        return child_main();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flash-perfbench: {e}");
            eprintln!("usage: flash-perfbench --workload repro|mp3d|lu|open1024 --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    for note in &out.tally.notes {
        eprintln!("FAILED {note}");
    }
    print!("{}", out.table());
    println!("{}", out.json());
    ExitCode::SUCCESS
}
