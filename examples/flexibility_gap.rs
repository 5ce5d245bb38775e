//! The paper's headline experiment: how much slower is FLASH's
//! programmable controller than an idealized hardwired one?
//!
//! Runs each application on the detailed FLASH machine (protocol handlers
//! emulated on the PP) and on the ideal machine (protocol operations in
//! zero time), and prints the slowdown — the paper's answer is 2%–12% for
//! optimized applications, with the MP3D communication stress test worse.
//!
//! The optional argument is the problem-size divisor (default 8; 1 is
//! the paper's size):
//!
//! ```sh
//! cargo run --release --example flexibility_gap          # reduced sizes
//! cargo run --release --example flexibility_gap -- 1     # paper sizes
//! ```

use flash::{compare, format_table, MachineConfig};
use flash_engine::knobs::{parse, Kind, Value};
use flash_workloads::{by_name, run_workload, PARALLEL_APPS};

fn main() {
    let scale = match parse(Kind::Count, std::env::args().nth(1).as_deref()) {
        Some(Value::Count(n)) => u32::try_from(n).unwrap_or(8),
        _ => 8,
    };
    let procs = 16;
    let mut rows = Vec::new();
    for name in PARALLEL_APPS.iter().chain(["OS"].iter()) {
        let p = if *name == "OS" { 8 } else { procs };
        let w = by_name(name, p, scale);
        let flash = run_workload(&MachineConfig::flash(p), w.as_ref());
        let ideal = run_workload(&MachineConfig::ideal(p), w.as_ref());
        let c = compare(&flash, &ideal);
        rows.push(vec![
            name.to_string(),
            c.flash_cycles.to_string(),
            c.ideal_cycles.to_string(),
            format!("+{:.1}%", c.slowdown_pct),
            format!("{:.1}%", flash.pp_occupancy.0 * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "App",
                "FLASH cycles",
                "Ideal cycles",
                "Flexibility cost",
                "PP occupancy"
            ],
            &rows
        )
    );
    println!("paper: \"in most cases, FLASH is only 2%-12% slower than the idealized machine\"");
    println!("       (MP3D, the communication stress test, was 25% slower in the paper)");
    if scale > 1 {
        println!("note:  reduced problem sizes raise communication-to-computation ratios and");
        println!("       widen every gap; pass `-- 1` for the paper-size comparison");
    }
}
