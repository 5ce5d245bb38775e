//! End-to-end workload smoke tests: every application must complete on
//! every controller kind, with sane statistics.

use flash::{ControllerKind, LatencyTable, MachineConfig};
use flash_workloads::{build_machine, by_name, run_workload, Fft, OsWorkload, PARALLEL_APPS};

fn cfg(kind: ControllerKind, procs: u16) -> MachineConfig {
    match kind {
        ControllerKind::FlashEmulated => MachineConfig::flash(procs),
        ControllerKind::Ideal => MachineConfig::ideal(procs),
    }
}

#[test]
fn parallel_apps_complete_on_all_machines() {
    for name in PARALLEL_APPS {
        let w = by_name(name, 4, 32);
        let mut cycles = Vec::new();
        for kind in [ControllerKind::FlashEmulated, ControllerKind::Ideal] {
            let r = run_workload(&cfg(kind, 4), w.as_ref());
            println!(
                "{name:8} {kind:?}: {} cycles, miss {:.2}%, class {:?}, ppocc {:.1}%/{:.1}%, mem {:.1}%, crmt {:.0}",
                r.exec_cycles,
                r.miss_rate * 100.0,
                r.class_fractions().map(|f| (f * 100.0).round()),
                r.pp_occupancy.0 * 100.0,
                r.pp_occupancy.1 * 100.0,
                r.mem_occupancy.0 * 100.0,
                r.crmt(&LatencyTable::paper_flash()),
            );
            assert!(r.exec_cycles > 0, "{name} {kind:?}");
            assert!(r.references > 100, "{name} {kind:?}");
            cycles.push(r.exec_cycles);
        }
        // Ideal must not be slower than detailed FLASH.
        assert!(
            cycles[1] <= cycles[0],
            "{name}: ideal {} vs flash {}",
            cycles[1],
            cycles[0]
        );
    }
}

#[test]
fn os_workload_completes_with_dma() {
    let w = OsWorkload::scaled(4, 4);
    let r = run_workload(&cfg(ControllerKind::FlashEmulated, 4), &w);
    println!(
        "OS: {} cycles, miss {:.2}%, ppocc avg {:.1}% max {:.1}%",
        r.exec_cycles,
        r.miss_rate * 100.0,
        r.pp_occupancy.0 * 100.0,
        r.pp_occupancy.1 * 100.0
    );
    assert!(r.exec_cycles > 0);
    // DMA writes invalidate cached buffer-cache lines somewhere.
    let i = run_workload(&cfg(ControllerKind::Ideal, 4), &w);
    assert!(i.exec_cycles <= r.exec_cycles);
}

#[test]
fn hotspot_fft_loads_node_zero() {
    let w = Fft::hotspot(4, 16);
    let mut m = build_machine(&cfg(ControllerKind::FlashEmulated, 4), &w);
    let flash::RunResult::Completed { .. } = m.run(flash_workloads::DEFAULT_BUDGET) else {
        panic!("stuck");
    };
    let end = flash_engine::Cycle::new(m.exec_cycles());
    let occ0 = m.chips()[0].pp_occupancy(end);
    let occ_rest: f64 = (1..4).map(|i| m.chips()[i].pp_occupancy(end)).sum::<f64>() / 3.0;
    println!(
        "hotspot: node0 PP occ {:.1}%, others {:.1}%",
        occ0 * 100.0,
        occ_rest * 100.0
    );
    assert!(occ0 > 2.0 * occ_rest, "node 0 must be the hot spot");
}

#[test]
fn miss_class_shapes_match_the_paper() {
    // The dominant read-miss class for each application must match paper
    // Table 4.1 (scale-reduced runs shift percentages, not the dominant
    // communication pattern).
    // Classes: [LocalClean, LocalDirtyRemote, RemoteClean, RemoteDirtyHome,
    // RemoteDirtyRemote].
    let dominant = |name: &str, procs: u16, scale: u32| -> usize {
        let w = by_name(name, procs, scale);
        let r = run_workload(&cfg(ControllerKind::FlashEmulated, procs), w.as_ref());
        let cf = r.class_fractions();
        (0..5)
            .max_by(|&a, &b| cf[a].partial_cmp(&cf[b]).unwrap())
            .unwrap()
    };
    // MP3D: remote dirty remote (paper: 84%).
    assert_eq!(
        dominant("MP3D", 8, 16),
        4,
        "MP3D must be RemoteDirtyRemote-dominated"
    );
    // LU: remote-dominated via pivot-block broadcast (paper: 67% remote
    // clean + 32% dirty-at-home; at 8 processors the clean/dirty split
    // shifts, the remote dominance does not).
    {
        let w = by_name("LU", 8, 8);
        let r = run_workload(&cfg(ControllerKind::FlashEmulated, 8), w.as_ref());
        let cf = r.class_fractions();
        assert!(
            cf[2] + cf[3] > 0.8,
            "LU must be remote-dominated, got {cf:?}"
        );
        assert!(
            cf[4] < 0.05,
            "LU has no dirty-third-node pattern, got {cf:?}"
        );
    }
    // Radix: local classes dominate (paper: 76% local dirty remote).
    let w = by_name("Radix", 8, 16);
    let r = run_workload(&cfg(ControllerKind::FlashEmulated, 8), w.as_ref());
    let cf = r.class_fractions();
    assert!(
        cf[0] + cf[1] > 0.6,
        "Radix must be local-dominated, got {cf:?}"
    );
    assert!(
        cf[1] > 0.2,
        "Radix needs a large local-dirty-remote share, got {cf:?}"
    );
}

#[test]
fn fft_transposes_produce_dirty_at_home() {
    let w = by_name("FFT", 8, 8);
    let r = run_workload(&cfg(ControllerKind::FlashEmulated, 8), w.as_ref());
    let cf = r.class_fractions();
    // Paper: 62% remote dirty at home from the all-to-all transpose.
    assert!(
        cf[3] > 0.25,
        "FFT transpose must show RemoteDirtyHome, got {cf:?}"
    );
    assert!(
        cf[4] < 0.1,
        "FFT has no dirty-third-node pattern, got {cf:?}"
    );
}

#[test]
fn small_caches_shift_radix_toward_local() {
    // Paper Table 4.2: Radix goes from 2.6% LocalClean at 1 MB to 91%+ at
    // small caches.
    let w = by_name("Radix", 8, 16);
    let small = {
        let c = cfg(ControllerKind::FlashEmulated, 8).with_cache_bytes(8 << 10);
        run_workload(&c, w.as_ref())
    };
    let big = run_workload(&cfg(ControllerKind::FlashEmulated, 8), w.as_ref());
    assert!(
        small.class_fractions()[0] > big.class_fractions()[0],
        "smaller caches must raise Radix's local-clean share ({:?} vs {:?})",
        small.class_fractions(),
        big.class_fractions()
    );
}
