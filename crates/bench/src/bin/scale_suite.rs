//! Scale-out benchmark: the sharded conservative-time-window engine on
//! 64/256/1024-node meshes under 1, 2 and 4 shards, printed as JSON and
//! also written to `output.json` when a path is given. Usage:
//!
//! ```text
//! cargo run --release -p flash-bench --bin scale_suite [output.json]
//! ```
//!
//! Each mesh size runs the same uniform neighbor-sharing workload. Per
//! mesh, one untimed warm-up run comes first, so no shard count pays for
//! a cold allocator; then every shard count runs `REPEATS` times, the
//! order alternating between ascending and descending shard counts so
//! host drift falls evenly on all of them. Two things are recorded per
//! point:
//!
//! * wall-clock time (median, min and max over the repeats), simulated
//!   cycles/sec and the speedup over 1 shard, both from the medians, and
//! * the determinism cross-check: `exec_cycles` must be identical across
//!   shard counts and repeats or the process exits nonzero.

use std::fmt::Write as _;
use std::time::Instant;

use flash::{Machine, MachineConfig, RunResult};
use flash_cpu::{RefStream, SliceStream, WorkItem};
use flash_engine::{Addr, LINE_BYTES};

const BUDGET: u64 = 2_000_000_000;
const SHARDS: [usize; 3] = [1, 2, 4];
/// Timed runs per (mesh, shard count) point.
const REPEATS: usize = 10;

/// Uniform neighbor-sharing traffic: every node works its own home lines
/// and reads its ring neighbor's, producing real mesh traffic (remote
/// gets, forwards, two-sharer invalidations) with bounded per-home load.
fn streams(nodes: u16, lines: u64, rounds: usize) -> Vec<Box<dyn RefStream>> {
    (0..nodes)
        .map(|p| {
            let mut items = Vec::new();
            for _ in 0..rounds {
                for l in 0..lines {
                    let own = Addr::new(((p as u64) << 32) | (l * LINE_BYTES));
                    let neighbor = Addr::new((((p + 1) % nodes) as u64) << 32 | (l * LINE_BYTES));
                    items.push(WorkItem::Read(own));
                    items.push(WorkItem::Write(own));
                    items.push(WorkItem::Read(neighbor));
                    items.push(WorkItem::Busy(8));
                }
            }
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        })
        .collect()
}

/// One timed run.
struct Run {
    wall_s: f64,
    exec_cycles: u64,
    wheel_pushes: u64,
    heap_pushes: u64,
}

fn run_once(nodes: u16, shards: usize, lines: u64, rounds: usize) -> Run {
    let mut m = Machine::new(
        MachineConfig::flash(nodes)
            .with_shards(shards)
            .with_cache_bytes(16 << 10),
        streams(nodes, lines, rounds),
    );
    let t0 = Instant::now();
    let RunResult::Completed { exec_cycles } = m.run(BUDGET) else {
        eprintln!("scale_suite: {nodes}-node run with {shards} shard(s) did not complete");
        std::process::exit(1);
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let (wheel_pushes, heap_pushes) = m.queue_push_routing();
    Run {
        wall_s,
        exec_cycles,
        wheel_pushes,
        heap_pushes,
    }
}

/// Median, min and max of a non-empty sample.
fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (median, v[0], v[n - 1])
}

fn main() {
    let out_path = std::env::args().nth(1);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"description\": \"Sharded conservative-time-window engine: 64/256/1024-node meshes under 1/2/4 shards, uniform neighbor-sharing workload; one warm-up run per mesh, then each point repeated in alternating shard order\",\n");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"cores\": {host_cores} }},\n  \"repeats\": {REPEATS},"
    );
    json.push_str("  \"meshes\": {\n");

    let meshes = [(64u16, 8u64, 64usize), (256, 8, 16), (1024, 4, 8)];
    let mut all_ok = true;
    for (mi, &(nodes, lines, rounds)) in meshes.iter().enumerate() {
        let warm = run_once(nodes, 1, lines, rounds);
        let mut walls = vec![Vec::with_capacity(REPEATS); SHARDS.len()];
        let mut identical = true;
        for rep in 0..REPEATS {
            for k in 0..SHARDS.len() {
                // Ascending shard order on even repeats, descending on odd.
                let i = if rep % 2 == 0 {
                    k
                } else {
                    SHARDS.len() - 1 - k
                };
                let r = run_once(nodes, SHARDS[i], lines, rounds);
                identical &= r.exec_cycles == warm.exec_cycles;
                walls[i].push(r.wall_s);
            }
        }
        all_ok &= identical;
        let base_median = summary(&walls[0]).0;
        let _ = writeln!(json, "    \"{nodes}\": {{");
        let _ = writeln!(json, "      \"exec_cycles\": {},", warm.exec_cycles);
        let _ = writeln!(json, "      \"deterministic_across_shards\": {identical},");
        let _ = writeln!(
            json,
            "      \"wheel_pushes\": {}, \"heap_pushes\": {},",
            warm.wheel_pushes, warm.heap_pushes
        );
        json.push_str("      \"points\": [\n");
        for (i, &shards) in SHARDS.iter().enumerate() {
            let (median, min, max) = summary(&walls[i]);
            let _ = write!(
                json,
                "        {{ \"shards\": {shards}, \"wall_s_median\": {median:.4}, \"wall_s_min\": {min:.4}, \"wall_s_max\": {max:.4}, \"sim_mcycles_per_s\": {:.2}, \"speedup_vs_1_shard\": {:.2} }}",
                warm.exec_cycles as f64 / median / 1e6,
                base_median / median
            );
            json.push_str(if i + 1 < SHARDS.len() { ",\n" } else { "\n" });
        }
        json.push_str("      ]\n");
        json.push_str(if mi + 1 < meshes.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"notes\": \"exec_cycles must be identical across shard counts and repeats (the determinism contract). Speedups are ratios of median wall times on a host with {host_cores} core(s).\""
    );
    json.push_str("}\n");

    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write scale_suite JSON");
    }
    print!("{json}");
    if !all_ok {
        eprintln!("scale_suite: DETERMINISM VIOLATION — exec_cycles differ across shard counts");
        std::process::exit(1);
    }
}
