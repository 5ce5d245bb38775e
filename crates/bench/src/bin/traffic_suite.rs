//! PR 10 open-loop traffic benchmark: load–latency curves for the FLASH
//! machine, printed as JSON and also written to `output.json` when a path
//! is given (`BENCH_PR10.json` is the frozen record of one such run).
//! Usage:
//!
//! ```text
//! cargo run --release -p flash-bench --bin traffic_suite [output.json]
//! cargo run --release -p flash-bench --bin traffic_suite -- --smoke
//! ```
//!
//! The suite first *measures capacity*: it saturates the machine (mean
//! arrival gap of one cycle, so the admission mailboxes never drain) and
//! takes completed references per cycle as the service rate. It then
//! sweeps offered load from 10% to 120% of that capacity — at least five
//! points, straddling the knee — and reports, per point:
//!
//! * p50/p99/p999/max **service latency per read class** (issue to
//!   retire, from the observer's log-bucketed histograms), and
//! * **admission wait** (arrival to admission, the open-loop queueing
//!   delay) mean/max plus the peak backlog depth.
//!
//! Below the knee the admission wait is flat and small; past it the
//! service percentiles saturate while the admission wait grows without
//! bound — the knee row in the JSON marks where queueing delay first
//! overtakes the p50 service latency (see `EXPERIMENTS.md`).
//!
//! Unlike `BENCH_PR1/PR6/PR7`, this report contains **no wall-clock
//! numbers**: every value is simulated, so the file is byte-identical
//! under either PP backend. One load point is additionally re-run under
//! both PP backends inside the process; the suite exits nonzero if the
//! copies diverge.
//!
//! `--smoke` runs a scaled-down sweep and prints a compact table on
//! stdout (no file), which the `doc_commands` test diffs against
//! `tests/golden/traffic_smoke.txt`.

use std::fmt::Write as _;

use flash::{format_table, LatencyReport, Machine, MachineConfig, PpBackend, RunResult};
use flash_traffic::TrafficSpec;

const BUDGET: u64 = 2_000_000_000;
/// Offered load, percent of measured capacity (≥ 5 points, knee inside).
const LOAD_PCT: [u64; 7] = [10, 40, 70, 90, 100, 110, 120];

/// One sweep's fixed shape; only `mean_gap` varies across load points.
#[derive(Clone, Copy)]
struct Shape {
    nodes: u16,
    objects: u64,
    items_per_node: u64,
    seed: u64,
}

const FULL: Shape = Shape {
    nodes: 8,
    objects: 1 << 16, // far beyond cache: nearly every reference misses
    items_per_node: 1_500,
    seed: 10,
};

const SMOKE: Shape = Shape {
    nodes: 4,
    objects: 1 << 14,
    items_per_node: 300,
    seed: 10,
};

fn spec(shape: Shape, mean_gap: u64) -> TrafficSpec {
    TrafficSpec::poisson(
        shape.nodes,
        shape.objects,
        shape.items_per_node,
        mean_gap,
        shape.seed,
    )
}

struct Point {
    pct: u64,
    mean_gap: u64,
    exec_cycles: u64,
    report: LatencyReport,
    /// Aggregated over nodes: (mean admission wait, max wait, peak backlog).
    wait_mean: f64,
    wait_max: u64,
    peak_backlog: u64,
}

fn run_point(shape: Shape, pct: u64, mean_gap: u64, cfg: MachineConfig) -> Point {
    let mut m = Machine::new_open_loop(cfg.with_observe(true), spec(shape, mean_gap).sources());
    let RunResult::Completed { exec_cycles } = m.run(BUDGET) else {
        eprintln!("traffic_suite: load point {pct}% did not complete");
        std::process::exit(1);
    };
    let report = m.latency_report().expect("observer enabled");
    let (mut admitted, mut wait_sum, mut wait_max, mut peak) = (0u64, 0u64, 0u64, 0u64);
    for (_, s) in &report.traffic {
        admitted += s.admitted;
        wait_sum += s.wait_sum;
        wait_max = wait_max.max(s.wait_max);
        peak = peak.max(s.peak_backlog);
    }
    Point {
        pct,
        mean_gap,
        exec_cycles,
        wait_mean: wait_sum as f64 / admitted.max(1) as f64,
        wait_max,
        peak_backlog: peak,
        report,
    }
}

/// Per-node service demand per reference in cycles, measured by
/// saturating the machine: with a one-cycle arrival gap the admission
/// mailboxes never drain, so each node retires references back to back
/// and `exec_cycles / items_per_node` is the cycles one reference costs
/// at full contention. `mean_gap` is a per-node rate, so this is the
/// capacity the sweep's percentages scale.
fn measure_capacity(shape: Shape) -> f64 {
    let mut m = Machine::new_open_loop(MachineConfig::flash(shape.nodes), spec(shape, 1).sources());
    let RunResult::Completed { exec_cycles } = m.run(BUDGET) else {
        eprintln!("traffic_suite: capacity run did not complete");
        std::process::exit(1);
    };
    exec_cycles as f64 / shape.items_per_node as f64
}

fn gap_for(cycles_per_ref: f64, pct: u64) -> u64 {
    ((cycles_per_ref * 100.0 / pct as f64).round() as u64).max(1)
}

/// The "all" row's p50 (service latency proxy for the knee test).
fn p50_all(p: &Point) -> u64 {
    p.report
        .rows
        .iter()
        .find(|r| r.class == "all")
        .map_or(0, |r| r.p50)
}

/// First load point where mean admission wait overtakes p50 service
/// latency — queueing delay stops being a perturbation and becomes the
/// story. `None` if the sweep never crosses (capacity not reached).
fn knee(points: &[Point]) -> Option<u64> {
    points
        .iter()
        .find(|p| p.wait_mean > p50_all(p) as f64)
        .map(|p| p.pct)
}

/// Re-runs one load point under both PP backends and demands identical
/// latency reports (the determinism contract that makes this file
/// reproducible under either PP backend).
fn cross_check(shape: Shape, pct: u64, mean_gap: u64) -> bool {
    let [a, b] = [PpBackend::Translated, PpBackend::Emulated].map(|backend| {
        let cfg = MachineConfig::flash(shape.nodes).with_pp_backend(backend);
        let p = run_point(shape, pct, mean_gap, cfg);
        (p.exec_cycles, p.report)
    });
    a == b
}

fn point_json(p: &Point, out: &mut String) {
    let _ = writeln!(out, "      {{");
    let _ = writeln!(
        out,
        "        \"offered_pct\": {}, \"mean_gap\": {}, \"exec_cycles\": {},",
        p.pct, p.mean_gap, p.exec_cycles
    );
    let _ = writeln!(
        out,
        "        \"admission_wait_mean\": {:.2}, \"admission_wait_max\": {}, \"peak_backlog\": {},",
        p.wait_mean, p.wait_max, p.peak_backlog
    );
    let _ = writeln!(out, "        \"classes\": [");
    let rows: Vec<_> = p.report.rows.iter().filter(|r| r.count > 0).collect();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "          {{ \"class\": \"{}\", \"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {} }}",
            r.class, r.count, r.p50, r.p99, r.p999, r.max
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(out, "        ]");
    let _ = write!(out, "      }}");
}

fn smoke() {
    let shape = SMOKE;
    let cycles_per_ref = measure_capacity(shape);
    let mut rows = Vec::new();
    for pct in [40u64, 90, 120] {
        let gap = gap_for(cycles_per_ref, pct);
        let p = run_point(shape, pct, gap, MachineConfig::flash(shape.nodes));
        rows.push(vec![
            format!("{}%", p.pct),
            p.mean_gap.to_string(),
            p.exec_cycles.to_string(),
            p50_all(&p).to_string(),
            format!("{:.1}", p.wait_mean),
            p.peak_backlog.to_string(),
        ]);
    }
    print!(
        "{}",
        format_table(
            &[
                "load",
                "gap",
                "exec_cycles",
                "p50_all",
                "wait_mean",
                "peak_backlog"
            ],
            &rows,
        )
    );
}

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--smoke") {
        smoke();
        return;
    }
    let shape = FULL;

    let cycles_per_ref = measure_capacity(shape);
    let points: Vec<Point> = LOAD_PCT
        .iter()
        .map(|&pct| {
            run_point(
                shape,
                pct,
                gap_for(cycles_per_ref, pct),
                MachineConfig::flash(shape.nodes),
            )
        })
        .collect();
    let knee_pct = knee(&points);
    let deterministic = cross_check(shape, 100, gap_for(cycles_per_ref, 100));

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 10,\n");
    json.push_str("  \"description\": \"Open-loop load-latency sweep: seeded Poisson arrivals at 10%-120% of measured capacity, service percentiles per read class plus admission-wait accounting\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"nodes\": {}, \"objects\": {}, \"items_per_node\": {}, \"seed\": {} }},",
        shape.nodes, shape.objects, shape.items_per_node, shape.seed
    );
    let _ = writeln!(
        json,
        "  \"capacity_cycles_per_ref\": {:.2},",
        cycles_per_ref
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        point_json(p, &mut json);
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    match knee_pct {
        Some(pct) => {
            let _ = writeln!(json, "  \"knee_pct\": {pct},");
        }
        None => json.push_str("  \"knee_pct\": null,\n"),
    }
    let _ = writeln!(
        json,
        "  \"deterministic_across_backends\": {deterministic},"
    );
    json.push_str("  \"notes\": \"All values are simulated cycles - no wall-clock numbers - so this file is byte-identical under either PP backend (one load point is re-run under both backends in-process to prove it). The knee is where mean admission wait first exceeds p50 service latency: below it the open-loop machine tracks the closed-loop latency tables, above it the backlog grows without bound and latency is queueing, not service (see EXPERIMENTS.md).\"\n");
    json.push_str("}\n");

    if let Some(path) = arg {
        std::fs::write(&path, &json).expect("write traffic_suite JSON");
    }
    print!("{json}");
    if !deterministic {
        eprintln!(
            "traffic_suite: DETERMINISM VIOLATION - latency reports differ across PP backends"
        );
        std::process::exit(1);
    }
}
