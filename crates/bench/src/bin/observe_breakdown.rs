//! Observed decomposition of the Table 3.3 latencies: each no-contention
//! read-miss class split into the six cycle-attribution segments
//! (`METRICS.md`), for the FLASH and ideal machines. The per-class sums
//! reproduce the `table_3_3` column to within a cycle — this is the
//! instrument behind the EXPERIMENTS.md discussion of where our Table 3.3
//! deviations come from.

use flash::{format_table, ControllerKind};
use flash_bench::{base_cfg, measure_class_breakdown, MissClass};
use flash_engine::Segment;
use std::process::ExitCode;

fn render() {
    println!("================================================================");
    println!("Observed Table 3.3 breakdown (cycles per segment, no contention)");
    println!("================================================================");
    for (kind, title) in [
        (ControllerKind::FlashEmulated, "FLASH"),
        (ControllerKind::Ideal, "Ideal"),
    ] {
        let mut headers = vec!["Class"];
        headers.extend(Segment::ALL.iter().map(|s| s.name()));
        headers.push("sum");
        headers.push("measured");
        let rows: Vec<Vec<String>> = MissClass::ALL
            .iter()
            .map(|&class| {
                let (segs, stall) = measure_class_breakdown(&base_cfg(kind, 3), class);
                let mut row = vec![class.label().to_string()];
                row.extend(segs.iter().map(|v| v.to_string()));
                row.push(segs.iter().sum::<u64>().to_string());
                row.push(format!("{stall:.0}"));
                row
            })
            .collect();
        println!("\n{title}:");
        print!("{}", format_table(&headers, &rows));
    }
}

fn main() -> ExitCode {
    flash_bench::suite_main(&mut [("observe_breakdown", Some(Box::new(render)))])
}
