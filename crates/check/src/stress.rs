//! Seeded random stress traffic for the correctness net.
//!
//! Generates per-processor reference streams ([`WorkItem`]) from a
//! [`DetRng`] so that a (seed, shape) pair reproduces the exact same
//! traffic on every run. The mix is tuned to exercise the protocol's
//! corner paths, not to model a real application:
//!
//! * a small *hot set* of lines that every node hammers (3-hop
//!   forwarding, invalidation fan-out, upgrade races),
//! * a uniform cold tail sized to overflow small caches (writebacks and
//!   replacement hints),
//! * lock/unlock pairs on a few shared locks (sync traffic),
//! * aligned barriers so every processor's stream has the same barrier
//!   count (a machine requirement).

use flash_cpu::WorkItem;
use flash_engine::{Addr, DetRng, LINE_BYTES};

/// Builds `nodes` reference streams of roughly `items_per_proc` items
/// each. Addresses are spread over `lines_per_node` lines on every home
/// node using the explicit placement convention (`home` in bits 32+).
///
/// Every stream contains exactly `items_per_proc / 64` barriers at the
/// same per-stream positions, so the machine's barrier rendezvous always
/// matches up.
pub fn stress_streams(
    nodes: u16,
    lines_per_node: u64,
    items_per_proc: usize,
    seed: u64,
) -> Vec<Vec<WorkItem>> {
    assert!(nodes > 0 && lines_per_node > 0);
    (0..nodes)
        .map(|p| {
            let mut rng = DetRng::for_stream(seed, p as u64);
            let mut items = Vec::with_capacity(items_per_proc + items_per_proc / 8);
            for i in 0..items_per_proc {
                if i % 64 == 63 {
                    items.push(WorkItem::Barrier);
                    continue;
                }
                let addr = pick_addr(&mut rng, nodes, lines_per_node);
                let r = rng.below(100);
                if r < 46 {
                    items.push(WorkItem::Read(addr));
                } else if r < 82 {
                    items.push(WorkItem::Write(addr));
                } else if r < 88 {
                    let id = rng.below(4) as u32;
                    items.push(WorkItem::Lock(id));
                    items.push(WorkItem::Write(addr));
                    items.push(WorkItem::Unlock(id));
                } else {
                    items.push(WorkItem::Busy(rng.geometric(6.0)));
                }
            }
            // Quiesce: rendezvous, then a little slack so the last
            // writer's traffic drains before the stream ends.
            items.push(WorkItem::Barrier);
            items.push(WorkItem::Busy(4));
            items
        })
        .collect()
}

fn pick_addr(rng: &mut DetRng, nodes: u16, lines_per_node: u64) -> Addr {
    // 30% of references go to a tiny hot set homed on node 0 — maximal
    // sharing and invalidation fan-out. The rest are uniform over all
    // homes, overflowing small processor caches.
    let (home, line) = if rng.chance(0.3) {
        (0u64, rng.below(4.min(lines_per_node)))
    } else {
        (rng.below(nodes as u64), rng.below(lines_per_node))
    };
    let offset = rng.below(LINE_BYTES / 8) * 8;
    Addr::new((home << 32) | (line * LINE_BYTES) | offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = stress_streams(4, 32, 256, 7);
        let b = stress_streams(4, 32, 256, 7);
        assert_eq!(a, b);
        let c = stress_streams(4, 32, 256, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn barrier_counts_match_across_procs() {
        let streams = stress_streams(8, 16, 500, 3);
        let counts: Vec<usize> = streams
            .iter()
            .map(|s| s.iter().filter(|i| matches!(i, WorkItem::Barrier)).count())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert_eq!(counts[0], 500 / 64 + 1);
    }

    #[test]
    fn locks_are_balanced() {
        for s in stress_streams(4, 16, 400, 11) {
            let mut held: Option<u32> = None;
            for it in s {
                match it {
                    WorkItem::Lock(id) => {
                        assert_eq!(held, None, "nested lock");
                        held = Some(id);
                    }
                    WorkItem::Unlock(id) => {
                        assert_eq!(held, Some(id), "unbalanced unlock");
                        held = None;
                    }
                    _ => {}
                }
            }
            assert_eq!(held, None, "lock held at end of stream");
        }
    }

    #[test]
    fn addresses_respect_placement_and_alignment() {
        for s in stress_streams(4, 16, 400, 13) {
            for it in s {
                if let WorkItem::Read(a) | WorkItem::Write(a) = it {
                    assert_eq!(a.raw() % 8, 0);
                    let home = a.raw() >> 32;
                    assert!(home < 4, "home {home} out of range");
                    assert!((a.raw() & 0xffff_ffff) < 16 * LINE_BYTES);
                }
            }
        }
    }
}
