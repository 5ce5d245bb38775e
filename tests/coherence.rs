//! Coherence invariants checked over final machine state.
//!
//! After a workload completes and all messages drain, the directory and
//! the processor caches must agree:
//!
//! * no line is left `PENDING` and no acknowledgement counts are stuck;
//! * a line the directory records as dirty is held `Exclusive` by exactly
//!   the recorded owner;
//! * a cache holding a line `Exclusive` is recorded as the dirty owner at
//!   the line's home;
//! * a cache holding a line `Shared` is recorded at the home (sharer list
//!   or `LOCAL` bit).

use flash::config::{node_addr, Placement};
use flash::{Machine, MachineConfig, RunResult};
use flash_cpu::{LineState, RefStream, SliceStream, WorkItem};
use flash_engine::{Addr, DetRng, NodeId};
use flash_protocol::dir_addr;

/// Checks every coherence invariant for `addrs` on a finished machine.
fn check_coherence(m: &Machine, addrs: &[Addr]) {
    let nodes = m.chips().len() as u16;
    for &a in addrs {
        let line = a.line();
        let home = m.config().placement.home_of(line, nodes);
        let h = m.chips()[home.index()].peek_header(dir_addr(line));
        assert!(!h.pending(), "line {line} stuck PENDING at {home}");
        assert_eq!(h.acks(), 0, "line {line} has stuck ack count");

        let holders: Vec<(u16, LineState)> = (0..nodes)
            .filter_map(|n| m.procs()[n as usize].cache().state_of(line).map(|s| (n, s)))
            .collect();
        let exclusive: Vec<u16> = holders
            .iter()
            .filter(|(_, s)| *s == LineState::Exclusive)
            .map(|(n, _)| *n)
            .collect();
        assert!(
            exclusive.len() <= 1,
            "line {line}: multiple exclusive holders {exclusive:?}"
        );
        if h.dirty() {
            assert_eq!(
                exclusive,
                vec![h.owner().0],
                "line {line}: directory says dirty at {}, caches say {holders:?}",
                h.owner()
            );
        } else {
            assert!(
                exclusive.is_empty(),
                "line {line}: clean at home but exclusive in {exclusive:?}"
            );
            // Every Shared holder must be recorded at the home.
            let mut mem = flash_protocol::ProtoMem::new();
            let _ = &mut mem; // (sharer walk uses the chip's own memory)
            let recorded = m.chips()[home.index()].sharer_nodes(dir_addr(line));
            for (n, _) in holders {
                let ok = recorded.contains(&NodeId(n)) || (n == home.0 && h.local());
                assert!(
                    ok,
                    "line {line}: node {n} holds Shared but home records {recorded:?} local={}",
                    h.local()
                );
            }
        }
    }
}

fn random_streams(
    procs: u16,
    refs: usize,
    region_lines: u64,
    seed: u64,
) -> (Vec<Box<dyn RefStream>>, Vec<Addr>) {
    let mut addrs = Vec::new();
    let streams = (0..procs)
        .map(|p| {
            let mut rng = DetRng::for_stream(seed, p as u64);
            let mut items = Vec::new();
            for _ in 0..refs {
                let node = rng.below(procs as u64) as u16;
                let line = rng.below(region_lines);
                let a = node_addr(NodeId(node), line * 128);
                if addrs.len() < 256 {
                    addrs.push(a);
                }
                items.push(WorkItem::Busy(rng.below(32) + 1));
                if rng.chance(0.4) {
                    items.push(WorkItem::Write(a));
                } else {
                    items.push(WorkItem::Read(a));
                }
            }
            items.push(WorkItem::Barrier);
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        })
        .collect();
    (streams, addrs)
}

fn run_and_check(cfg: MachineConfig, refs: usize, region_lines: u64, seed: u64) {
    let procs = cfg.nodes;
    let kind = cfg.controller;
    let (streams, addrs) = random_streams(procs, refs, region_lines, seed);
    let mut m = Machine::new(cfg, streams);
    let RunResult::Completed { .. } = m.run(500_000_000) else {
        panic!("{kind:?}: random workload stuck (seed {seed})");
    };
    check_coherence(&m, &addrs);
}

#[test]
fn random_sharing_preserves_coherence_flash() {
    for seed in 0..6 {
        run_and_check(MachineConfig::flash(4), 400, 24, seed);
    }
}

#[test]
fn random_sharing_preserves_coherence_ideal() {
    for seed in 0..6 {
        run_and_check(MachineConfig::ideal(4), 400, 24, seed);
    }
}

#[test]
fn hot_line_contention_preserves_coherence() {
    // Every processor hammers the same handful of lines: maximal races.
    for seed in 0..4 {
        run_and_check(MachineConfig::flash(8), 300, 3, 100 + seed);
    }
}

#[test]
fn small_cache_evictions_preserve_coherence() {
    // Tiny caches force writebacks and replacement hints mid-transaction.
    for seed in 0..4 {
        run_and_check(
            MachineConfig::flash(4).with_cache_bytes(4 << 10),
            400,
            128,
            200 + seed,
        );
    }
}

#[test]
fn round_robin_placement_preserves_coherence() {
    let cfg =
        MachineConfig::flash(4).with_placement(Placement::RoundRobinPages { page_bytes: 4096 });
    let procs = cfg.nodes;
    let mut addrs = Vec::new();
    let streams: Vec<Box<dyn RefStream>> = (0..procs)
        .map(|p| {
            let mut rng = DetRng::for_stream(7, p as u64);
            let mut items = Vec::new();
            for _ in 0..300 {
                let a = Addr::new(rng.below(64) * 128);
                addrs.push(a);
                items.push(WorkItem::Busy(8));
                if rng.chance(0.5) {
                    items.push(WorkItem::Write(a));
                } else {
                    items.push(WorkItem::Read(a));
                }
            }
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        })
        .collect();
    let mut m = Machine::new(cfg, streams);
    let RunResult::Completed { .. } = m.run(500_000_000) else {
        panic!("stuck");
    };
    addrs.truncate(128);
    check_coherence(&m, &addrs);
}
