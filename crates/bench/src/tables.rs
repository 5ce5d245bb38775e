//! One regeneration function per table/figure in the paper's evaluation.
//!
//! Each function prints its artifact to stdout in plain text, with the
//! paper's published value alongside the measured value wherever the paper
//! reports one. [`ARTIFACTS`] lists them by name in `repro_all`'s output
//! order; `repro_all` renders all of them, or the ones named on its
//! command line.

use crate::{
    apps_at, base_cfg, cached_run, latency_jobs, measure_latency_table, os_procs, parallel_procs,
    pct, prefetch, run_app, run_spec, scale, Job, MissClass, RunSpec, WorkSpec,
};
use flash::config::node_addr;
use flash::{
    compare, format_table, ControllerKind, LatencyTable, MachineConfig, MachineReport, RunResult,
};
use flash_engine::NodeId;
use flash_pp::{CodegenOptions, Instr, Reg};
use flash_protocol::dir::{dir_addr, DirHeader, Directory, PtrEntry, DEFAULT_PS_CAPACITY};
use flash_protocol::fields::aux;
use flash_protocol::handlers::{compile_shared, MemEnv};
use flash_protocol::msg::{InMsg, MsgType};
use flash_protocol::ProtoMem;
use flash_workloads::Fft;

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!(
        "  (scale divisor {}, {} processors)",
        scale(),
        parallel_procs()
    );
    println!("================================================================");
}

/// A signed change in percent, to one decimal; a value that rounds to
/// zero prints unsigned, `0.0%`, from whichever side it came.
fn signed_pct(v: f64) -> String {
    let s = format!("{v:+.1}%");
    if &s[1..] == "0.0%" {
        s[1..].to_string()
    } else {
        s
    }
}

/// Every artifact by name, in `repro_all`'s output order.
pub const ARTIFACTS: [(&str, fn()); 17] = [
    ("table_3_2", table_3_2),
    ("table_3_3", table_3_3),
    ("table_3_4", table_3_4),
    ("fig_4_1", fig_4_1),
    ("table_4_1", table_4_1),
    ("fig_4_2", fig_4_2),
    ("fig_4_3", fig_4_3),
    ("table_4_2", table_4_2),
    ("sec_4_3_hotspot", sec_4_3_hotspot),
    ("sec_4_5_scale64", sec_4_5_scale64),
    ("table_5_1", table_5_1),
    ("sec_5_2_mdc", sec_5_2_mdc),
    ("table_5_2", table_5_2),
    ("table_5_3", table_5_3),
    ("sec_5_3_ppext", sec_5_3_ppext),
    ("ablations", ablations),
    ("flexibility_note", flexibility_note),
];

/// Table 3.2: sub-operation latencies (the machine configuration).
pub fn table_3_2() {
    banner("Table 3.2: Suboperation Latencies in 10 ns Cycles");
    let rows = vec![
        ("Miss detect to request on bus", 5, 5),
        ("Bus transit", 1, 1),
        ("PI inbound processing", 1, 1),
        ("PI outbound processing", 4, 2),
        ("Outbound bus arbitration", 1, 1),
        ("Outbound bus transit for 1st word", 1, 1),
        ("Retrieve state from processor cache", 15, 15),
        ("Retrieve first double word from cache", 20, 20),
        ("NI inbound processing", 8, 8),
        ("NI outbound processing", 4, 4),
        ("Inbox queue selection and arbitration", 1, 1),
        ("Jump table lookup", 2, 0),
        ("MDC miss penalty", 29, 0),
        ("Outbox outbound processing", 1, 0),
        ("Network transit, average (16 nodes)", 22, 22),
        ("Memory access, time to first 8 bytes", 14, 14),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, f, i)| {
            vec![
                n.to_string(),
                f.to_string(),
                if *i == 0 { "N/A".into() } else { i.to_string() },
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["Suboperation", "MAGIC", "Ideal"], &table)
    );
}

/// Table 3.3: no-contention read-miss latencies, measured on this
/// simulator vs the paper's published values.
pub fn table_3_3() {
    banner("Table 3.3: Memory Latencies, No Contention (cycles)");
    prefetch(&latency_jobs());
    let mf = measure_latency_table(ControllerKind::FlashEmulated);
    let mi = measure_latency_table(ControllerKind::Ideal);
    let pf = LatencyTable::paper_flash();
    let pi = LatencyTable::paper_ideal();
    let rows: Vec<Vec<String>> = MissClass::ALL
        .iter()
        .zip(mf.as_array().iter().zip(mi.as_array()))
        .zip(pf.as_array().iter().zip(pi.as_array()))
        .map(|((c, (f, i)), (pfv, piv))| {
            vec![
                c.label().to_string(),
                format!("{i:.0}"),
                format!("{piv:.0}"),
                format!("{f:.0}"),
                format!("{pfv:.0}"),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Operation", "Ideal", "(paper)", "FLASH", "(paper)"],
            &rows
        )
    );
}

fn mk_msg(mtype: MsgType, me: u16, home: u16, req: u16, src: u16, spec: bool, addr: u64) -> InMsg {
    let a = flash_engine::Addr::new(addr);
    InMsg {
        mtype,
        src: NodeId(src),
        addr: a,
        aux: aux::pack(
            NodeId(req),
            match mtype {
                MsgType::NGet | MsgType::NFwdGet => MsgType::NGet,
                _ => MsgType::NGetX,
            },
            NodeId(home),
        ),
        spec,
        self_node: NodeId(me),
        home: NodeId(home),
        diraddr: dir_addr(a),
        with_data: mtype.carries_data(),
    }
}

fn handler_cycles(name: &str, msg: &InMsg, setup: impl FnOnce(&mut Directory<'_>)) -> u64 {
    let program = compile_shared(CodegenOptions::magic());
    let mut mem = ProtoMem::new();
    Directory::init_free_list(&mut mem, DEFAULT_PS_CAPACITY);
    {
        let mut d = Directory::new(&mut mem);
        setup(&mut d);
    }
    let mut env = MemEnv::new(&mut mem, msg);
    let run = flash_pp::emu::run(
        &program,
        program
            .entry(name)
            .unwrap_or_else(|| panic!("no handler {name}")),
        &mut env,
        flash_pp::emu::DEFAULT_PAIR_BUDGET,
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    run.exec_cycles
}

fn sharers(d: &mut Directory<'_>, daddr: u64, nodes: &[u16]) {
    let mut h = DirHeader::default();
    for &n in nodes {
        let idx = d.alloc_entry().expect("free entry");
        d.set_entry(idx, PtrEntry::new(NodeId(n), h.head()));
        h = h.with_head(idx);
    }
    d.set_header(daddr, h);
}

/// Table 3.4: PP occupancies for common operations, measured from the
/// emulated handlers vs the paper's values.
pub fn table_3_4() {
    banner("Table 3.4: PP Occupancies for Common Operations (cycles)");
    let addr = 0x2000u64;
    let da = dir_addr(flash_engine::Addr::new(addr));
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, measured: String, paper: &str| {
        rows.push(vec![name.to_string(), measured, paper.to_string()]);
    };

    // Service read miss from main memory.
    let c = handler_cycles(
        "pi_get_local",
        &mk_msg(MsgType::PiGet, 0, 0, 0, 0, true, addr),
        |_| {},
    );
    row("Service read miss from main memory", c.to_string(), "11");

    // Service write miss: base and per-invalidation increment.
    let base = handler_cycles(
        "pi_getx_local",
        &mk_msg(MsgType::PiGetX, 0, 0, 0, 0, true, addr),
        |_| {},
    );
    let with3 = handler_cycles(
        "pi_getx_local",
        &mk_msg(MsgType::PiGetX, 0, 0, 0, 0, true, addr),
        |d| sharers(d, da, &[1, 2, 3]),
    );
    let per_inval = (with3 - base) as f64 / 3.0;
    row(
        "Service write miss from main memory",
        format!("{base} + {per_inval:.0}/inval"),
        "14 + 10..15/inval",
    );

    let c = handler_cycles(
        "pi_get_remote",
        &mk_msg(MsgType::PiGet, 0, 1, 0, 0, false, addr),
        |_| {},
    );
    row("Forward request to home node", c.to_string(), "3");

    let c = handler_cycles(
        "ni_get",
        &mk_msg(MsgType::NGet, 1, 1, 0, 0, true, addr | (1 << 32)),
        |d| {
            d.set_header(
                dir_addr(flash_engine::Addr::new(addr | (1 << 32))),
                DirHeader::default().with_dirty(true).with_owner(NodeId(2)),
            );
        },
    );
    row(
        "Forward request from home to dirty node",
        c.to_string(),
        "18",
    );

    // The intervention pair: the forward receipt plus the cache-data
    // reply handler (measured for the home-node case, which also updates
    // the directory and sharer list — the fuller variant).
    let fwd = handler_cycles(
        "ni_fwd_getx",
        &mk_msg(MsgType::NFwdGetX, 2, 1, 0, 1, false, addr),
        |_| {},
    );
    let reply = handler_cycles(
        "pi_interv_reply",
        &mk_msg(MsgType::PiIntervReply, 1, 1, 0, 1, true, addr),
        |d| {
            d.set_header(
                da,
                DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(1))
                    .with_pending(true),
            );
        },
    );
    row(
        "Retrieve data from processor cache",
        format!("{}", fwd + reply),
        "38",
    );

    let c = handler_cycles(
        "ni_put",
        &mk_msg(MsgType::NPut, 0, 1, 0, 1, false, addr),
        |_| {},
    );
    row(
        "Forward reply from network to processor",
        c.to_string(),
        "2",
    );

    let c = handler_cycles(
        "pi_wb_local",
        &mk_msg(MsgType::PiWriteback, 0, 0, 0, 0, false, addr),
        |d| {
            d.set_header(
                da,
                DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(0))
                    .with_local(true),
            );
        },
    );
    row("Local writeback", c.to_string(), "10");

    let c = handler_cycles(
        "pi_hint_local",
        &mk_msg(MsgType::PiRplHint, 0, 0, 0, 0, false, addr),
        |d| {
            d.set_header(da, DirHeader::default().with_local(true));
        },
    );
    row("Local replacement hint", c.to_string(), "7");

    let c = handler_cycles(
        "ni_wb",
        &mk_msg(MsgType::NWriteback, 1, 1, 2, 2, false, addr),
        |d| {
            d.set_header(
                da,
                DirHeader::default().with_dirty(true).with_owner(NodeId(2)),
            );
        },
    );
    row("Writeback from a remote processor", c.to_string(), "8");

    let c = handler_cycles(
        "ni_hint",
        &mk_msg(MsgType::NRplHint, 1, 1, 2, 2, false, addr),
        |d| {
            sharers(d, da, &[2]);
        },
    );
    row("Replacement hint, only node on list", c.to_string(), "17");

    // Nth-node hint: node is at the tail of an N-entry list.
    let n = 5u16;
    let c = handler_cycles(
        "ni_hint",
        &mk_msg(MsgType::NRplHint, 1, 1, 2, 2, false, addr),
        |d| {
            // LIFO list: push the hinting node first so it ends up Nth.
            let order: Vec<u16> = (2..2 + n).collect();
            sharers(d, da, &order);
        },
    );
    row(
        &format!("Replacement hint, {n}th node on list"),
        c.to_string(),
        &format!("{}", 23 + 14 * n),
    );

    println!(
        "{}",
        format_table(&["Operation", "Measured", "Paper"], &rows)
    );
}

fn breakdown_row(app: &str, r: &MachineReport, norm: f64) -> Vec<String> {
    let t = 100.0 * r.exec_cycles as f64 / norm;
    let b = r.breakdown;
    vec![
        app.to_string(),
        format!("{:?}", r.controller),
        format!("{:.0}", t),
        format!("{:.0}", t * b[0]),
        format!("{:.0}", t * b[1]),
        format!("{:.0}", t * b[2]),
        format!("{:.0}", t * b[3]),
        format!("{:.0}", t * b[4]),
    ]
}

/// Apps shown in the Figure 4.x breakdowns at `cache_bytes` (the parallel
/// suite, plus OS at 1 MB).
fn figure_apps(cache_bytes: u64) -> Vec<&'static str> {
    let mut apps = apps_at(cache_bytes);
    if cache_bytes >= (1 << 20) {
        apps.push("OS");
    }
    apps
}

/// Every run one Figure 4.x breakdown needs: FLASH and ideal per app.
fn figure_jobs(cache_bytes: u64) -> Vec<Job> {
    figure_apps(cache_bytes)
        .into_iter()
        .flat_map(|app| {
            [
                Job::Run(run_spec(app, ControllerKind::FlashEmulated, cache_bytes)),
                Job::Run(run_spec(app, ControllerKind::Ideal, cache_bytes)),
            ]
        })
        .collect()
}

fn figure_runs(cache_bytes: u64, title: &str) {
    banner(title);
    prefetch(&figure_jobs(cache_bytes));
    let mut rows = Vec::new();
    for app in figure_apps(cache_bytes) {
        let f = run_app(app, ControllerKind::FlashEmulated, cache_bytes);
        let i = run_app(app, ControllerKind::Ideal, cache_bytes);
        let norm = f.exec_cycles as f64;
        rows.push(breakdown_row(app, &f, norm));
        rows.push(breakdown_row(app, &i, norm));
        let c = compare(&f, &i);
        rows.push(vec![
            String::new(),
            format!("FLASH {} over ideal", signed_pct(c.slowdown_pct)),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["App", "Machine", "Total", "Busy", "Cont", "Read", "Write", "Sync"],
            &rows
        )
    );
    println!("(execution time normalized to FLASH = 100 per app, as in the paper's figures)");
}

/// Figure 4.1: execution-time breakdown, 1 MB caches.
pub fn fig_4_1() {
    figure_runs(
        1 << 20,
        "Figure 4.1: Execution times, FLASH vs ideal, 1 MB caches",
    );
}

/// Figure 4.2: execution-time breakdown, 64 KB caches.
pub fn fig_4_2() {
    figure_runs(
        64 << 10,
        "Figure 4.2: Execution times, FLASH vs ideal, 64 KB caches",
    );
}

/// Figure 4.3: execution-time breakdown, 4 KB caches (16 KB Ocean).
pub fn fig_4_3() {
    figure_runs(
        4 << 10,
        "Figure 4.3: Execution times, FLASH vs ideal, 4 KB caches",
    );
}

/// Apps in one Table 4.x distribution (OS only in the 1 MB table).
fn distribution_apps(cache_bytes: u64, include_os: bool) -> Vec<&'static str> {
    let mut apps = apps_at(cache_bytes);
    if include_os {
        apps.push("OS");
    }
    apps
}

/// Every measurement one Table 4.x distribution needs: the latency
/// columns plus one FLASH run per app.
fn distribution_jobs(cache_bytes: u64, include_os: bool) -> Vec<Job> {
    let mut v = latency_jobs();
    for app in distribution_apps(cache_bytes, include_os) {
        v.push(Job::Run(run_spec(
            app,
            ControllerKind::FlashEmulated,
            cache_bytes,
        )));
    }
    v
}

fn distribution_table(cache_bytes: u64, title: &str, include_os: bool) {
    banner(title);
    prefetch(&distribution_jobs(cache_bytes, include_os));
    let lat_f = measure_latency_table(ControllerKind::FlashEmulated);
    let lat_i = measure_latency_table(ControllerKind::Ideal);
    let mut rows = Vec::new();
    for app in distribution_apps(cache_bytes, include_os) {
        let r = run_app(app, ControllerKind::FlashEmulated, cache_bytes);
        let cf = r.class_fractions();
        rows.push(vec![
            app.to_string(),
            pct(r.miss_rate),
            pct(cf[0]),
            pct(cf[1]),
            pct(cf[2]),
            pct(cf[3]),
            pct(cf[4]),
            format!("{:.0}", r.crmt(&lat_f)),
            format!("{:.0}", r.crmt(&lat_i)),
            pct(r.mem_occupancy.0),
            pct(r.pp_occupancy.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "App", "Miss", "LClean", "LDirtyR", "RClean", "RDirtyH", "RDirtyR", "CRMT-F",
                "CRMT-I", "MemOcc", "PPOcc",
            ],
            &rows
        )
    );
}

/// Table 4.1: read-miss distributions and CRMT, 1 MB caches.
pub fn table_4_1() {
    distribution_table(
        1 << 20,
        "Table 4.1: Read Miss Distributions and CRMT, 1 MB caches",
        true,
    );
}

/// Table 4.2: read-miss distributions and CRMT at 64 KB and 4 KB.
pub fn table_4_2() {
    distribution_table(64 << 10, "Table 4.2 (left): 64 KB caches", false);
    distribution_table(
        4 << 10,
        "Table 4.2 (right): 4 KB caches (16 KB Ocean)",
        false,
    );
}

/// The §4.3 original-IRIX-port runs (FLASH and ideal).
fn hotspot_os_jobs() -> Vec<Job> {
    let work = WorkSpec::OsOriginalPort {
        procs: os_procs(),
        scale: scale(),
    };
    vec![
        Job::Run(RunSpec {
            work,
            cfg: base_cfg(ControllerKind::FlashEmulated, os_procs()),
        }),
        Job::Run(RunSpec {
            work,
            cfg: base_cfg(ControllerKind::Ideal, os_procs()),
        }),
    ]
}

/// §4.3: PP occupancy hurts only when memory occupancy is low.
///
/// The FFT-on-node-0 half stays on the caller's thread: it reads
/// chip-level occupancies straight off the live [`flash::Machine`], which
/// the memoized [`MachineReport`] does not carry.
pub fn sec_4_3_hotspot() {
    banner("Section 4.3: PP occupancy and hot-spotting");
    prefetch(&hotspot_os_jobs());
    // FFT with all memory on node 0 (high PP occupancy AND high memory
    // occupancy at node 0: small FLASH/ideal gap).
    let procs = parallel_procs();
    let hot = Fft::hotspot(procs, scale().min(2));
    let cache = 4 << 10;
    let runs: Vec<(&str, MachineReport)> = [ControllerKind::FlashEmulated, ControllerKind::Ideal]
        .iter()
        .map(|&k| {
            let cfg = base_cfg(k, procs).with_cache_bytes(cache);
            let mut m = flash_workloads::build_machine(&cfg, &hot);
            let RunResult::Completed { .. } = m.run(flash_workloads::DEFAULT_BUDGET) else {
                panic!("hotspot run stuck");
            };
            let end = flash_engine::Cycle::new(m.exec_cycles());
            let node0_pp = m.chips()[0].pp_occupancy(end);
            let node0_mem = m.chips()[0].memory().occupancy(end);
            println!(
                "FFT-on-node-0 [{k:?}]: exec {} cycles; node0 PP occ {} mem occ {}",
                m.exec_cycles(),
                pct(node0_pp),
                pct(node0_mem)
            );
            ("fft", MachineReport::from_machine(&m))
        })
        .collect();
    let gap = runs[0].1.exec_cycles as f64 / runs[1].1.exec_cycles.max(1) as f64 - 1.0;
    println!(
        "FFT-on-node-0: FLASH {} over ideal (paper: 2.6% despite 81.6% PP occupancy,\n  because node 0's memory occupancy was also high at 67.7%)",
        signed_pct(gap * 100.0)
    );

    // The original (first-node) IRIX port: high PP occupancy with LOW
    // memory occupancy elsewhere: a large FLASH/ideal gap.
    let work = WorkSpec::OsOriginalPort {
        procs: os_procs(),
        scale: scale(),
    };
    let f = cached_run(&RunSpec {
        work,
        cfg: base_cfg(ControllerKind::FlashEmulated, os_procs()),
    });
    let i = cached_run(&RunSpec {
        work,
        cfg: base_cfg(ControllerKind::Ideal, os_procs()),
    });
    let c = compare(&f, &i);
    println!(
        "OS original port (first-node pages): FLASH {} over ideal;\n  max PP occ {} vs max mem occ {} (paper: 29% degradation, 81% PP vs 33% mem)",
        signed_pct(c.slowdown_pct),
        pct(f.pp_occupancy.1),
        pct(f.mem_occupancy.1)
    );
}

/// The §4.5 64-processor matrix dimension for the scaled-data FFT run.
fn scale64_fft_dim() -> u64 {
    (256 / scale() as u64 * 2).max(128)
}

/// Every §4.5 64-processor run: three apps plus the scaled-data FFT, each
/// on FLASH and ideal.
fn scale64_jobs() -> Vec<Job> {
    let mut works: Vec<WorkSpec> = ["FFT", "Ocean", "LU"]
        .into_iter()
        .map(|app| WorkSpec::Named {
            app,
            procs: 64,
            scale: scale(),
        })
        .collect();
    works.push(WorkSpec::FftDim {
        procs: 64,
        dim: scale64_fft_dim(),
    });
    works
        .into_iter()
        .flat_map(|work| {
            [
                Job::Run(RunSpec {
                    work,
                    cfg: MachineConfig::flash(64),
                }),
                Job::Run(RunSpec {
                    work,
                    cfg: MachineConfig::ideal(64),
                }),
            ]
        })
        .collect()
}

/// §4.5: 64-processor scaling with unscaled problem sizes.
pub fn sec_4_5_scale64() {
    banner("Section 4.5: Scaling to 64 processors (same problem sizes)");
    prefetch(&scale64_jobs());
    let mut rows = Vec::new();
    for app in ["FFT", "Ocean", "LU"] {
        let work = WorkSpec::Named {
            app,
            procs: 64,
            scale: scale(),
        };
        let f = cached_run(&RunSpec {
            work,
            cfg: MachineConfig::flash(64),
        });
        let i = cached_run(&RunSpec {
            work,
            cfg: MachineConfig::ideal(64),
        });
        let c = compare(&f, &i);
        rows.push(vec![
            app.to_string(),
            c.flash_cycles.to_string(),
            c.ideal_cycles.to_string(),
            signed_pct(c.slowdown_pct),
            match app {
                "FFT" => "17%".to_string(),
                "Ocean" => "12%".to_string(),
                _ => "0.7%".to_string(),
            },
        ]);
    }
    // FFT with the data set scaled proportionally (4x the 16-node size).
    let work = WorkSpec::FftDim {
        procs: 64,
        dim: scale64_fft_dim(),
    };
    let f = cached_run(&RunSpec {
        work,
        cfg: MachineConfig::flash(64),
    });
    let i = cached_run(&RunSpec {
        work,
        cfg: MachineConfig::ideal(64),
    });
    let c = compare(&f, &i);
    rows.push(vec![
        "FFT (scaled data)".into(),
        c.flash_cycles.to_string(),
        c.ideal_cycles.to_string(),
        signed_pct(c.slowdown_pct),
        "12%".into(),
    ]);
    println!(
        "{}",
        format_table(&["App (64p)", "FLASH", "Ideal", "Slowdown", "Paper"], &rows)
    );
}

/// The speculation-on / speculation-off pair of run points for one Table
/// 5.1 cell. The "on" spec is exactly the standard [`run_spec`] point, so
/// it dedupes against the Figure 4.x and Table 4.x runs.
fn speculation_specs(app: &'static str, cache: u64) -> (RunSpec, RunSpec) {
    let on = run_spec(app, ControllerKind::FlashEmulated, cache);
    let off = RunSpec {
        work: on.work,
        cfg: on.cfg.clone().with_speculation(false),
    };
    (on, off)
}

/// Every run Table 5.1 needs.
fn table_5_1_jobs() -> Vec<Job> {
    [1u64 << 20, 4 << 10]
        .into_iter()
        .flat_map(|cache| {
            distribution_apps(cache, cache >= (1 << 20))
                .into_iter()
                .flat_map(move |app| {
                    let (on, off) = speculation_specs(app, cache);
                    [Job::Run(on), Job::Run(off)]
                })
        })
        .collect()
}

/// Table 5.1: impact of speculative memory operations.
pub fn table_5_1() {
    banner("Table 5.1: Impact of Speculative Memory Operations");
    prefetch(&table_5_1_jobs());
    let mut rows = Vec::new();
    for (cache, label) in [(1u64 << 20, "1 MB"), (4 << 10, "4 KB")] {
        for app in distribution_apps(cache, cache >= (1 << 20)) {
            let (on_spec, off_spec) = speculation_specs(app, cache);
            let on = cached_run(&on_spec);
            let off = cached_run(&off_spec);
            let slowdown = off.exec_cycles as f64 / on.exec_cycles.max(1) as f64 - 1.0;
            rows.push(vec![
                format!("{app} @ {label}"),
                pct(on.useless_spec_fraction()),
                signed_pct(slowdown * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &["App", "Useless spec reads", "Exec increase w/o speculation"],
            &rows
        )
    );
    println!("(paper: useless 20%-68%, exec increase 0.2%-12.7% at 1 MB; up to 21% at 4 KB)");
}

/// The §5.2 uniprocessor MDC stress point (with or without the MDC
/// penalty modelled).
fn mdc_stress_spec(mdc_on: bool) -> RunSpec {
    RunSpec {
        work: WorkSpec::MdcStress {
            data_mb: 16,
            scale: scale(),
        },
        cfg: MachineConfig::flash(1).with_mdc(mdc_on),
    }
}

/// Every run §5.2 needs: the 1 MB parallel suite (shared with Figure
/// 4.1), the two stress runs, and the OS workload.
fn mdc_jobs() -> Vec<Job> {
    let mut v: Vec<Job> = apps_at(1 << 20)
        .into_iter()
        .map(|app| Job::Run(run_spec(app, ControllerKind::FlashEmulated, 1 << 20)))
        .collect();
    v.push(Job::Run(mdc_stress_spec(true)));
    v.push(Job::Run(mdc_stress_spec(false)));
    v.push(Job::Run(run_spec(
        "OS",
        ControllerKind::FlashEmulated,
        1 << 20,
    )));
    v
}

/// §5.2: MAGIC data cache behaviour.
pub fn sec_5_2_mdc() {
    banner("Section 5.2: MAGIC Data Cache");
    prefetch(&mdc_jobs());
    // Parallel application suite at 1 MB: MDC rates too small to matter.
    let mut misses = 0u64;
    let mut accesses = 0u64;
    for app in apps_at(1 << 20) {
        let r = run_app(app, ControllerKind::FlashEmulated, 1 << 20);
        misses += r.mdc.misses;
        accesses += r.mdc.accesses;
    }
    println!(
        "Parallel suite, 1 MB: overall MDC miss rate {} (paper: 0.84%)",
        pct(misses as f64 / accesses.max(1) as f64)
    );

    // Uniprocessor 16 MB radix-2048 stress (paper: 14.9% MDC miss rate,
    // 14% slowdown vs no MDC penalty).
    let s = scale();
    for mdc_on in [true, false] {
        let r = cached_run(&mdc_stress_spec(mdc_on));
        let exec_cycles = r.exec_cycles;
        if mdc_on {
            println!(
                "Radix stress (16 MB / scale {s}, radix 2048, 1 processor):\n  MDC miss rate {} read miss rate {} (paper: 14.9% / 30%); exec {} cycles",
                pct(r.mdc.miss_rate),
                pct(r.mdc.read_miss_rate),
                exec_cycles
            );
        } else {
            println!("  without MDC penalty: exec {exec_cycles} cycles");
        }
    }
    // OS workload MDC rates (paper: 4.1% overall, 8.7% read).
    let r = run_app("OS", ControllerKind::FlashEmulated, 1 << 20);
    println!(
        "OS workload: MDC miss rate {} read miss rate {} (paper: 4.1% / 8.7%)",
        pct(r.mdc.miss_rate),
        pct(r.mdc.read_miss_rate)
    );
}

/// Every run Table 5.2 aggregates: the FLASH suite at all three cache
/// sizes (all shared with the Figure 4.x jobs).
fn table_5_2_jobs() -> Vec<Job> {
    [1u64 << 20, 64 << 10, 4 << 10]
        .into_iter()
        .flat_map(|cache| {
            apps_at(cache)
                .into_iter()
                .map(move |app| Job::Run(run_spec(app, ControllerKind::FlashEmulated, cache)))
        })
        .collect()
}

/// Table 5.2: PP architecture statistics.
pub fn table_5_2() {
    banner("Table 5.2: PP Architecture Evaluation");
    prefetch(&table_5_2_jobs());
    let program = compile_shared(CodegenOptions::magic());
    println!(
        "Static code size of fully-scheduled handlers (with NOPs): {:.1} KB (paper: 14.8 KB)",
        program.static_bytes() as f64 / 1024.0
    );
    let mut rows = Vec::new();
    for (cache, label, paper) in [
        (1u64 << 20, "1 MB", (1.53, 0.38, 13.5, 3.69)),
        (64 << 10, "64 KB", (1.54, 0.37, 13.1, 3.87)),
        (4 << 10, "4 KB", (1.43, 0.43, 10.8, 3.51)),
    ] {
        let mut pp = flash_pp::RunStats::default();
        let mut misses = 0f64;
        for app in apps_at(cache) {
            let r = run_app(app, ControllerKind::FlashEmulated, cache);
            pp.merge(&r.pp_stats);
            misses += r.references as f64 * r.miss_rate;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2} ({:.2})", pp.dual_issue_efficiency(), paper.0),
            format!(
                "{:.0}% ({:.0}%)",
                pp.special_fraction() * 100.0,
                paper.1 * 100.0
            ),
            format!("{:.1} ({:.1})", pp.pairs_per_invocation(), paper.2),
            format!(
                "{:.2} ({:.2})",
                pp.invocations as f64 / misses.max(1.0),
                paper.3
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Caches",
                "Dual-issue eff (paper)",
                "Special use (paper)",
                "Pairs/handler (paper)",
                "Handlers/miss (paper)",
            ],
            &rows
        )
    );
}

/// Table 5.3: special instructions vs their DLX substitution sequences.
pub fn table_5_3() {
    banner("Table 5.3: Special Instructions vs DLX Substitution");
    use flash_pp::dlx::expansion_len;
    let r = Reg(1);
    let s = Reg(2);
    let bbs_lo = expansion_len(Instr::BranchBit {
        set: true,
        rs: s,
        bit: 3,
        target: flash_pp::isa::Label(0),
    });
    let bbs_hi = expansion_len(Instr::BranchBit {
        set: true,
        rs: s,
        bit: 40,
        target: flash_pp::isa::Label(0),
    });
    let ffs = expansion_len(Instr::Ffs { rd: r, rs: s });
    let fi_min = (0..4)
        .map(|i| {
            expansion_len(Instr::FieldImm {
                op: [
                    flash_pp::isa::FieldOp::AndMask,
                    flash_pp::isa::FieldOp::OrMask,
                    flash_pp::isa::FieldOp::XorMask,
                    flash_pp::isa::FieldOp::AndNotMask,
                ][i],
                rd: r,
                rs: s,
                pos: 0,
                width: 8,
            })
        })
        .min()
        .unwrap();
    let fi_max = (0..4)
        .map(|i| {
            expansion_len(Instr::FieldImm {
                op: [
                    flash_pp::isa::FieldOp::AndMask,
                    flash_pp::isa::FieldOp::OrMask,
                    flash_pp::isa::FieldOp::XorMask,
                    flash_pp::isa::FieldOp::AndNotMask,
                ][i],
                rd: r,
                rs: s,
                pos: 30,
                width: 20,
            })
        })
        .max()
        .unwrap();
    let bfins = expansion_len(Instr::BfIns {
        rd: r,
        rs: s,
        pos: 8,
        width: 4,
    });
    let bfext = expansion_len(Instr::BfExt {
        rd: r,
        rs: s,
        pos: 4,
        width: 8,
    });
    let rows = vec![
        vec![
            "Find first set bit".into(),
            format!("{ffs} instructions (loop)"),
            "6 instrs, 2 + 4/bit".into(),
        ],
        vec![
            "Branch on bit".into(),
            format!("{bbs_lo} or {bbs_hi} instructions"),
            "2 or 4 instructions".into(),
        ],
        vec![
            "ALU field immediate".into(),
            format!("{fi_min}-{fi_max} instructions"),
            "1-5 instructions".into(),
        ],
        vec![
            "Insert field".into(),
            format!("{bfins} instructions"),
            "two field imms + or".into(),
        ],
        vec![
            "Extract field".into(),
            format!("{bfext} instructions"),
            "(shifts)".into(),
        ],
    ];
    println!(
        "{}",
        format_table(&["Instr type", "This repo", "Paper"], &rows)
    );
}

/// The optimized / de-optimized PP run pair for one §5.3 app. The fast
/// spec is the standard 1 MB FLASH point (shared with Figure 4.1).
fn ppext_specs(app: &'static str) -> (RunSpec, RunSpec) {
    let fast = run_spec(app, ControllerKind::FlashEmulated, 1 << 20);
    let slow = RunSpec {
        work: fast.work,
        cfg: fast.cfg.clone().with_codegen(CodegenOptions::deoptimized()),
    };
    (fast, slow)
}

/// Every run §5.3 needs.
fn ppext_jobs() -> Vec<Job> {
    apps_at(1 << 20)
        .into_iter()
        .flat_map(|app| {
            let (fast, slow) = ppext_specs(app);
            [Job::Run(fast), Job::Run(slow)]
        })
        .collect()
}

/// §5.3: performance without the PP ISA extensions (single-issue, no
/// special instructions). Paper: 40% average, 137% maximum degradation.
pub fn sec_5_3_ppext() {
    banner("Section 5.3: de-optimized PP (single-issue, no special instructions)");
    prefetch(&ppext_jobs());
    let mut rows = Vec::new();
    let mut total = 0.0;
    let mut maxd: (f64, &str) = (0.0, "");
    let apps = apps_at(1 << 20);
    for &app in &apps {
        let (fast_spec, slow_spec) = ppext_specs(app);
        let fast = cached_run(&fast_spec);
        let slow = cached_run(&slow_spec);
        let d = slow.exec_cycles as f64 / fast.exec_cycles.max(1) as f64 - 1.0;
        total += d;
        if d > maxd.0 {
            maxd = (d, app);
        }
        rows.push(vec![app.to_string(), signed_pct(d * 100.0)]);
    }
    println!("{}", format_table(&["App", "Degradation"], &rows));
    println!(
        "average {}, maximum {} ({}) — paper: average 40%, maximum 137% (MP3D)",
        signed_pct(total / apps.len() as f64 * 100.0),
        signed_pct(maxd.0 * 100.0),
        maxd.1
    );
}

/// Sanity line proving the custom-protocol hook exists (used by the
/// `custom_protocol` example; exercised here so `repro_all` covers it).
pub fn flexibility_note() {
    let mut jt = flash_protocol::JumpTable::dpa_protocol();
    jt.reprogram(
        MsgType::NGet,
        true,
        flash_protocol::JumpEntry {
            handler: "ni_get",
            speculative: false,
        },
    );
    let _ = node_addr(NodeId(0), 0);
}

/// The ablation variant list: display name plus the exact configuration.
/// The first entry is the baseline every other row is normalized to
/// (identical to the Figure 4.1 FFT FLASH point, so it is shared).
fn ablation_variants() -> Vec<(String, MachineConfig)> {
    let base = base_cfg(ControllerKind::FlashEmulated, parallel_procs());
    let mut v = vec![("baseline".to_string(), base.clone())];
    // Per-hop network latencies instead of the paper's fixed average.
    let mut cfg = base.clone();
    cfg.net.fixed_average = false;
    v.push(("per-hop network latency".into(), cfg));
    // A memory bank that overlaps row access with data transfer.
    let mut cfg = base.clone();
    cfg.mem_timing = flash_mem::MemTiming::pipelined();
    v.push(("pipelined memory bank".into(), cfg));
    // No MAGIC data cache penalty.
    v.push(("MDC disabled".into(), base.clone().with_mdc(false)));
    // Monitoring protocol overhead.
    v.push((
        "monitoring protocol".into(),
        base.clone().with_monitoring(true),
    ));
    // MSHR depth sweep.
    for mshrs in [1usize, 2, 8] {
        let mut cfg = base.clone();
        cfg.mshrs = mshrs;
        v.push((format!("{mshrs} MSHRs"), cfg));
    }
    v
}

/// The FFT workload point every ablation variant runs.
fn ablation_work() -> WorkSpec {
    WorkSpec::Named {
        app: "FFT",
        procs: parallel_procs(),
        scale: scale(),
    }
}

/// Every run the ablation study needs.
fn ablation_jobs() -> Vec<Job> {
    let work = ablation_work();
    ablation_variants()
        .into_iter()
        .map(|(_, cfg)| Job::Run(RunSpec { work, cfg }))
        .collect()
}

/// Ablations of this simulator's own design choices (DESIGN.md): network
/// latency model, memory bank pipelining, MDC, MSHR depth, and the
/// monitoring-protocol overhead. Not a paper artifact — a sensitivity
/// study of the reproduction itself.
pub fn ablations() {
    banner("Ablations: model sensitivity (FFT, detailed FLASH)");
    prefetch(&ablation_jobs());
    let work = ablation_work();
    let variants = ablation_variants();
    let run = |cfg: &MachineConfig| {
        cached_run(&RunSpec {
            work,
            cfg: cfg.clone(),
        })
        .exec_cycles
    };

    let base = run(&variants[0].1);
    let mut rows: Vec<Vec<String>> = vec![vec!["baseline".into(), base.to_string(), "-".into()]];
    for (name, cfg) in &variants[1..] {
        let cycles = run(cfg);
        rows.push(vec![
            name.clone(),
            cycles.to_string(),
            signed_pct((cycles as f64 / base as f64 - 1.0) * 100.0),
        ]);
    }

    println!(
        "{}",
        format_table(&["Variant", "Cycles", "vs baseline"], &rows)
    );
}

/// The full `repro_all` run matrix: one [`Job`] per simulation point each
/// artifact consults, concatenated in artifact order and *not*
/// deduplicated (the per-artifact duplication is exactly what the serial
/// pre-runner code re-simulated; [`crate::runner::prefetch`] collapses
/// it).
pub fn repro_all_jobs() -> Vec<Job> {
    let mut v = latency_jobs();
    for cache in [1u64 << 20, 64 << 10, 4 << 10] {
        v.extend(figure_jobs(cache));
    }
    v.extend(distribution_jobs(1 << 20, true));
    v.extend(distribution_jobs(64 << 10, false));
    v.extend(distribution_jobs(4 << 10, false));
    v.extend(hotspot_os_jobs());
    v.extend(scale64_jobs());
    v.extend(table_5_1_jobs());
    v.extend(mdc_jobs());
    v.extend(table_5_2_jobs());
    v.extend(ppext_jobs());
    v.extend(ablation_jobs());
    v
}

/// Enumerates the union of every simulation point `repro_all` touches and
/// prefetches it across the worker pool in one deduplicated batch, so the
/// subsequent table renders are pure cache reads. A short summary goes to
/// stderr; stdout stays byte-identical to the serial path.
pub fn prefetch_all() {
    let v = repro_all_jobs();
    let unique = crate::runner::prefetch(&v);
    eprintln!(
        "[runner] {unique} unique simulation points prefetched from {} listed jobs",
        v.len()
    );
}
