//! Network latency model.

use crate::mesh::Mesh;
use flash_engine::{Counter, Cycle, NodeId};

/// Network configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Per-hop fall-through time in cycles (40 ns = 4 cycles, paper §3.2).
    pub hop_cycles: u64,
    /// Header serialization cycles (3, paper §3.2).
    pub header_cycles: u64,
    /// Charge the mesh-average transit to every message (the paper's
    /// model). When `false`, per-hop distances are charged instead.
    pub fixed_average: bool,
    /// Override the computed fixed transit (the paper's 16-node value is
    /// 22 cycles; `None` derives it from the mesh).
    pub transit_override: Option<u64>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hop_cycles: 4,
            header_cycles: 3,
            fixed_average: true,
            transit_override: None,
        }
    }
}

/// The interconnect: computes message transit latencies and counts
/// traffic. Messages are never queued or dropped here: of paper Table
/// 3.1's MAGIC queue limits the machine models the single-entry memory
/// queue (`flash-mem`) and PP serialization (`flash-magic`).
///
/// # Examples
///
/// ```
/// use flash_net::{Mesh, NetConfig, NetModel};
/// use flash_engine::{Cycle, NodeId};
///
/// let mut net = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
/// // The paper's 16-node average transit: 22 cycles.
/// assert_eq!(net.transit(NodeId(0), NodeId(5)), 22);
/// let arrive = net.send(Cycle::new(100), NodeId(0), NodeId(5));
/// assert_eq!(arrive, Cycle::new(122));
/// ```
#[derive(Debug, Clone)]
pub struct NetModel {
    mesh: Mesh,
    cfg: NetConfig,
    fixed_transit: u64,
    messages: Counter,
    hops_total: Counter,
}

impl NetModel {
    /// Builds the model for a mesh.
    pub fn new(mesh: Mesh, cfg: NetConfig) -> Self {
        let fixed_transit = cfg.transit_override.unwrap_or_else(|| {
            // enter (1 hop) + exit (1 hop) + average transit hops, plus
            // header cycles; the paper rounds its 16-node figure to 22.
            let hops = 2.0 + mesh.average_hops();
            (hops * cfg.hop_cycles as f64).round() as u64 + cfg.header_cycles
        });
        NetModel {
            mesh,
            cfg,
            fixed_transit,
            messages: Counter::default(),
            hops_total: Counter::default(),
        }
    }

    /// Transit latency in cycles from `src` to `dst` (loopback messages
    /// skip the mesh but still pay entry/exit and header costs).
    pub fn transit(&self, src: NodeId, dst: NodeId) -> u64 {
        if src == dst {
            return self.cfg.header_cycles + 2 * self.cfg.hop_cycles;
        }
        if self.cfg.fixed_average {
            self.fixed_transit
        } else {
            (2 + self.mesh.hops(src, dst) as u64) * self.cfg.hop_cycles + self.cfg.header_cycles
        }
    }

    /// Charges a message send at `at`, returning its arrival time at the
    /// destination's network interface.
    pub fn send(&mut self, at: Cycle, src: NodeId, dst: NodeId) -> Cycle {
        self.messages.incr();
        self.hops_total.add(self.mesh.hops(src, dst) as u64);
        at + self.transit(src, dst)
    }

    /// Total messages carried.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Mean hops per message carried.
    pub fn mean_hops(&self) -> f64 {
        self.hops_total.get() as f64 / self.messages.get().max(1) as f64
    }

    /// The mesh this network spans.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The minimum transit latency between two *distinct* nodes — the
    /// conservative-lookahead bound for parallel simulation: no message
    /// posted at time `t` can arrive at another node before
    /// `t + min_remote_transit()`. Loopback (same-node) messages are
    /// cheaper but never cross a shard boundary, so they do not bound the
    /// lookahead. Returns the fixed transit in fixed-average mode (every
    /// remote message pays it) and the adjacent-node cost in per-hop mode.
    pub fn min_remote_transit(&self) -> u64 {
        if let Some(v) = self.cfg.transit_override {
            return v;
        }
        if self.cfg.fixed_average {
            self.fixed_transit
        } else {
            (2 + 1) * self.cfg.hop_cycles + self.cfg.header_cycles
        }
    }

    /// The maximum transit latency between two nodes — the longest
    /// *routine* scheduling distance mesh traffic produces, reached by
    /// corner-to-corner messages crossing the full mesh diameter. Event
    /// queues size their near-future wheel to cover it so steady-state
    /// traffic on big meshes does not degrade to the overflow heap.
    pub fn max_remote_transit(&self) -> u64 {
        if let Some(v) = self.cfg.transit_override {
            return v;
        }
        if self.cfg.fixed_average {
            self.fixed_transit
        } else {
            let (w, h) = self.mesh.dims();
            let diameter = (w.max(1) as u64 - 1) + (h.max(1) as u64 - 1);
            (2 + diameter.max(1)) * self.cfg.hop_cycles + self.cfg.header_cycles
        }
    }

    /// Folds another model's traffic counters into this one (shard
    /// teardown: per-shard models accumulate independently and merge into
    /// the machine's master model for reporting).
    pub fn absorb_counts(&mut self, other: &NetModel) {
        self.messages.add(other.messages.get());
        self.hops_total.add(other.hops_total.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_node_transit_matches_paper() {
        let net = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
        assert_eq!(net.fixed_transit, 22, "paper: 220 ns = 22 cycles");
    }

    #[test]
    fn sixty_four_nodes_cost_more() {
        let n16 = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
        let n64 = NetModel::new(Mesh::for_nodes(64), NetConfig::default());
        assert!(n64.fixed_transit > n16.fixed_transit);
        assert!(
            (30..40).contains(&n64.fixed_transit),
            "{}",
            n64.fixed_transit
        );
    }

    #[test]
    fn override_wins() {
        let cfg = NetConfig {
            transit_override: Some(99),
            ..NetConfig::default()
        };
        let net = NetModel::new(Mesh::for_nodes(16), cfg);
        assert_eq!(net.transit(NodeId(0), NodeId(1)), 99);
    }

    #[test]
    fn per_hop_mode_varies_with_distance() {
        let cfg = NetConfig {
            fixed_average: false,
            ..NetConfig::default()
        };
        let net = NetModel::new(Mesh::for_nodes(16), cfg);
        let near = net.transit(NodeId(0), NodeId(1));
        let far = net.transit(NodeId(0), NodeId(15));
        assert!(far > near);
        assert_eq!(near, (2 + 1) * 4 + 3);
        assert_eq!(far, (2 + 6) * 4 + 3);
    }

    #[test]
    fn loopback_is_cheap_but_not_free() {
        let net = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
        let lb = net.transit(NodeId(3), NodeId(3));
        assert!(lb > 0 && lb < net.fixed_transit);
    }

    #[test]
    fn min_remote_transit_bounds_every_remote_pair() {
        for cfg in [
            NetConfig::default(),
            NetConfig {
                fixed_average: false,
                ..NetConfig::default()
            },
            NetConfig {
                transit_override: Some(99),
                ..NetConfig::default()
            },
        ] {
            let net = NetModel::new(Mesh::for_nodes(16), cfg);
            let min = net.min_remote_transit();
            for a in 0..16 {
                for b in 0..16 {
                    if a != b {
                        assert!(
                            net.transit(NodeId(a), NodeId(b)) >= min,
                            "{cfg:?}: transit({a},{b}) < {min}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn absorb_counts_sums_traffic() {
        let mut a = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
        let mut b = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
        a.send(Cycle::new(0), NodeId(0), NodeId(1));
        b.send(Cycle::new(0), NodeId(0), NodeId(15));
        b.send(Cycle::new(5), NodeId(2), NodeId(3));
        a.absorb_counts(&b);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.mean_hops(), (1 + 6 + 1) as f64 / 3.0);
    }

    #[test]
    fn send_accumulates_stats() {
        let mut net = NetModel::new(Mesh::for_nodes(16), NetConfig::default());
        let t = net.send(Cycle::new(0), NodeId(0), NodeId(15));
        assert_eq!(t.raw(), 22);
        net.send(Cycle::new(0), NodeId(0), NodeId(1));
        assert_eq!(net.messages(), 2);
        assert_eq!(net.mean_hops(), 3.5);
    }
}
