//! The traffic spec and the per-node sources it builds.

use crate::ArrivalSource;
use flash_cpu::WorkItem;
use flash_engine::{Addr, Cycle, DetRng, LINE_BYTES};

/// Store share of every arrival stream, in permille (the rest are loads).
const WRITE_PERMILLE: u64 = 250;

/// Open-loop Poisson/uniform traffic: everything needed to build one
/// deterministic [`ArrivalSource`] per node.
///
/// Each node sees exponential inter-arrival gaps with mean `mean_gap`
/// over objects drawn uniformly from `0..objects`, a quarter of them
/// stores. Object `o` lives at line `o / nodes` of node `o % nodes`'s
/// memory (addresses use the `Placement::Explicit` encoding, home in
/// bits 32..48), so the draws spread homes round-robin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSpec {
    /// Nodes (= processors = per-node sources).
    pub nodes: u16,
    /// Distinct objects (cache lines) the traffic touches.
    pub objects: u64,
    /// References per node over the whole run.
    pub items_per_node: u64,
    /// Mean cycles between arrivals at one node.
    pub mean_gap: u64,
    /// Run seed. Same spec + same seed = bit-identical arrivals.
    pub seed: u64,
}

impl TrafficSpec {
    /// A Poisson/uniform spec — the baseline M-style load.
    pub fn poisson(
        nodes: u16,
        objects: u64,
        items_per_node: u64,
        mean_gap: u64,
        seed: u64,
    ) -> Self {
        TrafficSpec {
            nodes,
            objects,
            items_per_node,
            mean_gap,
            seed,
        }
    }

    /// The address object `o` maps to (see the type docs for the layout).
    pub fn object_addr(&self, o: u64) -> Addr {
        let home = o % self.nodes as u64;
        let line = o / self.nodes as u64;
        Addr::new((home << 32) | (line * LINE_BYTES))
    }

    /// Builds the arrival source for `node`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero nodes, objects or mean
    /// gap) or `node` is out of range.
    pub fn source_for(&self, node: u16) -> Box<dyn ArrivalSource> {
        assert!(
            self.nodes > 0 && self.objects > 0 && self.mean_gap > 0,
            "degenerate spec"
        );
        assert!(node < self.nodes, "node out of range");
        // Distinct, order-independent rng streams per (node, role).
        let id = |role: u64| (role << 48) | ((node as u64) << 16);
        Box::new(OpenLoopSource {
            clock: DetRng::for_stream(self.seed, id(1)),
            draws: DetRng::for_stream(self.seed, id(2)),
            now: 0,
            spec: self.clone(),
            left: self.items_per_node,
        })
    }

    /// All per-node sources, index = node.
    pub fn sources(&self) -> Vec<Box<dyn ArrivalSource>> {
        (0..self.nodes).map(|n| self.source_for(n)).collect()
    }
}

/// One node's arrival stream: an exponential clock, a uniform object
/// draw, and a finite reference budget.
#[derive(Debug, Clone)]
pub struct OpenLoopSource {
    /// Drives the inter-arrival gaps.
    clock: DetRng,
    /// Drives the object and the load/store choice.
    draws: DetRng,
    /// Cycle of the previous arrival.
    now: u64,
    spec: TrafficSpec,
    left: u64,
}

impl ArrivalSource for OpenLoopSource {
    fn next_arrival(&mut self) -> Option<(Cycle, WorkItem)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // Exponential gap by inversion, at least one cycle.
        let u = self.clock.unit().max(1e-12);
        self.now += ((-u.ln() * self.spec.mean_gap as f64).round() as u64).max(1);
        let addr = self.spec.object_addr(self.draws.below(self.spec.objects));
        let item = if self.draws.below(1000) < WRITE_PERMILLE {
            WorkItem::Write(addr)
        } else {
            WorkItem::Read(addr)
        };
        Some((Cycle::new(self.now), item))
    }
}

/// Flattens the first `limit` arrivals of `src` into a closed-loop item
/// vector, turning inter-arrival gaps into `Busy` slots (4 issue slots
/// per cycle).
///
/// This is how `flash-minimize` replays a shrunken open-loop failure
/// with the ordinary stream machinery: the materialized stream paces the
/// processor *approximately* like the arrival schedule did (a busy gap
/// stalls the pipeline where the mailbox kept it parked), which is
/// exactly the fidelity a shrink candidate needs — the predicate decides
/// whether the failure survived.
pub fn materialize(src: &mut dyn ArrivalSource, limit: usize) -> Vec<WorkItem> {
    let mut items = Vec::new();
    let mut last = 0u64;
    for _ in 0..limit {
        let Some((at, item)) = src.next_arrival() else {
            break;
        };
        let gap = at.raw().saturating_sub(last);
        if gap > 0 {
            items.push(WorkItem::Busy(gap * 4));
        }
        items.push(item);
        last = at.raw();
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrafficSpec {
        TrafficSpec::poisson(4, 64, 200, 30, 11)
    }

    #[test]
    fn arrivals_are_monotone_and_budgeted() {
        let mut src = spec().source_for(2);
        let mut last = 0;
        let mut n = 0;
        while let Some((at, item)) = src.next_arrival() {
            assert!(at.raw() >= last);
            assert!(matches!(item, WorkItem::Read(_) | WorkItem::Write(_)));
            last = at.raw();
            n += 1;
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn poisson_mean_roughly_matches() {
        let n = 20_000;
        let mut src = TrafficSpec::poisson(1, 64, n, 40, 7).source_for(0);
        let mut last = 0;
        while let Some((at, _)) = src.next_arrival() {
            last = at.raw();
        }
        let mean = last as f64 / n as f64;
        assert!((mean - 40.0).abs() < 2.0, "mean gap was {mean}");
    }

    #[test]
    fn nodes_get_independent_streams() {
        let take = |node: u16| -> Vec<(u64, WorkItem)> {
            let mut src = spec().source_for(node);
            (0..16)
                .map(|_| {
                    let (at, it) = src.next_arrival().unwrap();
                    (at.raw(), it)
                })
                .collect()
        };
        assert_ne!(take(0), take(1), "per-node streams must differ");
        assert_eq!(take(0), take(0), "and replay identically");
    }

    #[test]
    fn object_addresses_stripe_homes() {
        let s = spec();
        assert_eq!(s.object_addr(0).raw() >> 32, 0);
        assert_eq!(s.object_addr(1).raw() >> 32, 1);
        assert_eq!(s.object_addr(5).raw() >> 32, 1);
        assert_eq!(s.object_addr(4).raw() & 0xFFFF_FFFF, LINE_BYTES);
    }

    #[test]
    fn materialize_preserves_pacing() {
        let mut src = spec().source_for(1);
        let (first_at, first_item) = {
            let mut probe = spec().source_for(1);
            probe.next_arrival().unwrap()
        };
        let items = materialize(src.as_mut(), 10);
        // Leading busy gap covers the first inter-arrival time.
        assert_eq!(items[0], WorkItem::Busy(first_at.raw() * 4));
        assert_eq!(items[1], first_item);
        assert_eq!(
            items
                .iter()
                .filter(|i| matches!(i, WorkItem::Read(_) | WorkItem::Write(_)))
                .count(),
            10
        );
    }
}
