//! Machine configuration.
//!
//! Defaults reproduce the paper's §3.2 common characteristics: 400-MIPS
//! processors, 1 MB two-way processor caches with 4 MSHRs, 128-byte lines,
//! 14-cycle memory, the 16-node mesh's 22-cycle average network transit,
//! and the MAGIC sub-operation latencies of Table 3.2.

use flash_engine::{Addr, NodeId};
use flash_fault::FaultPlan;
use flash_magic::{ControllerKind, PpBackend};
use flash_mem::MemTiming;
use flash_net::NetConfig;
use flash_pp::CodegenOptions;

/// Default forward-progress watchdog window, in cycles. At the paper's
/// 100 MHz clock this is 20 ms of simulated time with no retirement,
/// message delivery, or handler invocation — far beyond any legitimate
/// quiet period in the studied workloads (the worst NACK-retry storms
/// make progress every few hundred cycles).
pub const DEFAULT_WATCHDOG_WINDOW: u64 = 2_000_000;

/// Default watchdog window scaled with machine size. The 2M-cycle base
/// was tuned for the 16/64-node matrix; barrier quiet periods and NACK
/// storms both stretch with node count (more arrivals to wait for, more
/// retry traffic per line), so the window grows linearly beyond 64 nodes:
/// 64 nodes → 2M, 256 → 8M, 1024 → 32M.
pub fn default_watchdog_window(nodes: u16) -> u64 {
    DEFAULT_WATCHDOG_WINDOW * ((nodes as u64).div_ceil(64)).max(1)
}

/// How physical pages map to home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The workload encodes the home node in address bits 32..48 —
    /// explicit data placement, as tuned parallel applications do.
    Explicit,
    /// Pages are allocated round-robin across node memories (the paper's
    /// OS workload policy, §3.4).
    RoundRobinPages {
        /// Page size in bytes.
        page_bytes: u64,
    },
    /// Every page lives on node 0 — the §4.3 hot-spot configurations
    /// ("allocated all of its memory from node zero"; the original IRIX
    /// port that "fills the memory of one node before going on").
    FirstNode,
}

impl Placement {
    /// Home node of an address under this policy.
    pub fn home_of(&self, addr: Addr, nodes: u16) -> NodeId {
        match *self {
            Placement::Explicit => NodeId(((addr.raw() >> 32) as u16) % nodes),
            Placement::RoundRobinPages { page_bytes } => {
                NodeId(((addr.raw() / page_bytes) % nodes as u64) as u16)
            }
            Placement::FirstNode => NodeId(0),
        }
    }
}

/// Helper for [`Placement::Explicit`] address construction: byte `offset`
/// within `node`'s memory.
///
/// # Examples
///
/// ```
/// use flash::config::{node_addr, Placement};
/// use flash_engine::NodeId;
///
/// let a = node_addr(NodeId(3), 0x100);
/// assert_eq!(Placement::Explicit.home_of(a, 16), NodeId(3));
/// ```
pub fn node_addr(node: NodeId, offset: u64) -> Addr {
    debug_assert!(offset < 1 << 32, "offset overflows the node field");
    Addr::new(((node.0 as u64) << 32) | offset)
}

/// Fixed path latencies outside the MAGIC chip, in cycles (Table 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLatencies {
    /// Miss detect to request on bus.
    pub miss_to_bus: u64,
    /// Bus transit.
    pub bus: u64,
    /// PI inbound processing.
    pub pi_in: u64,
    /// NI inbound processing.
    pub ni_in: u64,
    /// Retrieve state from the processor cache (state-only intervention).
    pub cache_state: u64,
    /// Retrieve the first double word of data from the processor cache.
    pub cache_data: u64,
    /// Processor bus retry delay after a NACK.
    pub retry: u64,
    /// Simulation-level lock hand-off time.
    pub lock_grant: u64,
}

impl Default for PathLatencies {
    fn default() -> Self {
        PathLatencies {
            miss_to_bus: 5,
            bus: 1,
            pi_in: 1,
            ni_in: 8,
            cache_state: 15,
            cache_data: 20,
            retry: 4,
            lock_grant: 2,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of nodes (= processors).
    pub nodes: u16,
    /// Controller kind: detailed FLASH, table-driven FLASH, or ideal.
    pub controller: ControllerKind,
    /// Processor cache capacity in bytes.
    pub cache_bytes: u64,
    /// Outstanding-miss registers per processor.
    pub mshrs: usize,
    /// Inbox speculative memory initiation (paper Table 5.1 knob).
    pub speculation: bool,
    /// PP code generation (paper §5.3 knob).
    pub codegen: CodegenOptions,
    /// Model the MDC (disable for the §5.2 no-penalty counterfactual).
    pub mdc_enabled: bool,
    /// Run the monitoring protocol variant: request handlers count
    /// accesses per line in protocol memory (a flexibility showcase with
    /// measurable PP overhead).
    pub monitoring: bool,
    /// Checked mode: run the `flash-check` correctness net (coherence
    /// invariants, directory audits, and — for emulated controllers
    /// running the base protocol — the native-vs-PP differential oracle)
    /// alongside the simulation. Off by default: checked mode never
    /// perturbs timing, but it costs a protocol-memory snapshot per
    /// handler invocation.
    pub check: bool,
    /// Page-placement policy.
    pub placement: Placement,
    /// DRAM timing.
    pub mem_timing: MemTiming,
    /// Network parameters.
    pub net: NetConfig,
    /// Off-chip path latencies.
    pub lat: PathLatencies,
    /// Deterministic fault-injection plan. [`FaultPlan::none()`] (the
    /// default) arms nothing and is timing-invisible: no injector is
    /// constructed and no RNG draw ever happens.
    pub faults: FaultPlan,
    /// Observed mode: run the cycle-attribution observability layer
    /// alongside the simulation. Every completed processor miss is
    /// decomposed into per-[`flash_engine::Segment`] cycles, accumulated
    /// per read class and per handler, and a bounded ring of trace events
    /// is kept for Chrome-trace export (`Machine::trace_json`). Off by
    /// default; like checked and fault modes it never perturbs timing —
    /// `tests/observe.rs` pins cycle-identical schedules with it on.
    /// See `METRICS.md` for the exported schema.
    pub observe: bool,
    /// Forward-progress watchdog window in cycles: if no retirement,
    /// message delivery, or handler invocation happens for this many
    /// cycles, the run returns [`RunResult::Wedged`] with a structured
    /// report instead of spinning to the budget. `0` disables the
    /// watchdog.
    ///
    /// [`RunResult::Wedged`]: crate::machine::RunResult::Wedged
    pub watchdog_window: u64,
    /// PP execution backend for emulated controllers: the reference
    /// per-pair emulator or the pre-translated native fast path. The two
    /// are bit-identical in timing, statistics, and effects, so this is a
    /// host-performance knob, never a model knob. Defaults to
    /// [`PpBackend::Translated`]; the emulator is the reference that
    /// tests select with [`MachineConfig::with_pp_backend`].
    pub pp_backend: PpBackend,
    /// Host-time profiler: bracket every processed event with monotonic
    /// host-clock stamps and attribute the simulator's wall-clock time
    /// per subsystem (the host-time mirror of the cycle-attribution
    /// observer — see [`crate::hostprof`]). Off by default. A pure
    /// observer of the host clock: arming it never changes simulated
    /// timing or any report. Read through `Machine::host_profile`.
    pub host_profile: bool,
    /// Hit fast path: a processor wakeup or quantum yield whose
    /// continuation is provably the next event executes inline in
    /// the run loop instead of round-tripping through the event queue.
    /// The elision condition (`(at, sub) < queue head`, inside the
    /// current window and budget) makes the inlined execution exactly the
    /// pop the queue would have performed next, so every schedule,
    /// report, and export is byte-identical with it on or off — a host
    /// knob kept toggleable only so the equivalence stays pinned by test.
    pub inline_runs: bool,
}

impl MachineConfig {
    /// The detailed FLASH machine at `nodes` nodes.
    pub fn flash(nodes: u16) -> Self {
        MachineConfig {
            nodes,
            controller: ControllerKind::FlashEmulated,
            cache_bytes: 1 << 20,
            mshrs: 4,
            speculation: true,
            codegen: CodegenOptions::magic(),
            mdc_enabled: true,
            monitoring: false,
            check: false,
            placement: Placement::Explicit,
            mem_timing: MemTiming::default(),
            net: NetConfig::default(),
            lat: PathLatencies::default(),
            faults: FaultPlan::none(),
            observe: false,
            watchdog_window: default_watchdog_window(nodes),
            pp_backend: PpBackend::Translated,
            host_profile: false,
            inline_runs: true,
        }
    }

    /// The idealized hardwired machine at `nodes` nodes.
    pub fn ideal(nodes: u16) -> Self {
        MachineConfig {
            controller: ControllerKind::Ideal,
            ..Self::flash(nodes)
        }
    }

    /// The fast table-driven FLASH machine at `nodes` nodes.
    pub fn flash_cost_table(nodes: u16) -> Self {
        MachineConfig {
            controller: ControllerKind::FlashCostTable,
            ..Self::flash(nodes)
        }
    }

    /// Returns the config with a different processor cache size.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Returns the config with speculation enabled or disabled.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Returns the config with a placement policy.
    pub fn with_placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    /// Returns the config with PP code-generation options.
    pub fn with_codegen(mut self, c: CodegenOptions) -> Self {
        self.codegen = c;
        self
    }

    /// Returns the config with the MDC model enabled or disabled.
    pub fn with_mdc(mut self, on: bool) -> Self {
        self.mdc_enabled = on;
        self
    }

    /// Returns the config with the monitoring protocol variant enabled.
    pub fn with_monitoring(mut self, on: bool) -> Self {
        self.monitoring = on;
        self
    }

    /// Returns the config with checked mode (the `flash-check`
    /// correctness net) enabled or disabled.
    pub fn with_check(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Returns the config with a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Returns the config with the cycle-attribution observability layer
    /// enabled or disabled (see [`MachineConfig::observe`]).
    pub fn with_observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Returns the config with a watchdog window (`0` disables).
    pub fn with_watchdog(mut self, window: u64) -> Self {
        self.watchdog_window = window;
        self
    }

    /// Returns the config with a specific PP execution backend.
    pub fn with_pp_backend(mut self, backend: PpBackend) -> Self {
        self.pp_backend = backend;
        self
    }

    /// Returns the config with the host-time profiler armed (see
    /// [`MachineConfig::host_profile`]). Timing-invisible: simulated
    /// results are identical with it on or off.
    pub fn with_host_profile(mut self, on: bool) -> Self {
        self.host_profile = on;
        self
    }

    /// Returns the config with the inline hit fast path enabled or
    /// disabled (see [`MachineConfig::inline_runs`]; results are
    /// byte-identical either way — the toggle exists to keep that
    /// equivalence testable).
    pub fn with_inline_runs(mut self, on: bool) -> Self {
        self.inline_runs = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_policies() {
        let rr = Placement::RoundRobinPages { page_bytes: 4096 };
        assert_eq!(rr.home_of(Addr::new(0), 16), NodeId(0));
        assert_eq!(rr.home_of(Addr::new(4096), 16), NodeId(1));
        assert_eq!(rr.home_of(Addr::new(16 * 4096), 16), NodeId(0));
        assert_eq!(
            Placement::FirstNode.home_of(Addr::new(1 << 40), 16),
            NodeId(0)
        );
        assert_eq!(
            Placement::Explicit.home_of(node_addr(NodeId(7), 123), 16),
            NodeId(7)
        );
        // Node field wraps at the machine size.
        assert_eq!(
            Placement::Explicit.home_of(node_addr(NodeId(17), 0), 16),
            NodeId(1)
        );
    }

    #[test]
    fn presets() {
        let f = MachineConfig::flash(16);
        assert_eq!(f.controller, ControllerKind::FlashEmulated);
        assert_eq!(f.cache_bytes, 1 << 20);
        let i = MachineConfig::ideal(16);
        assert_eq!(i.controller, ControllerKind::Ideal);
        let c = MachineConfig::flash(16)
            .with_cache_bytes(4 << 10)
            .with_speculation(false);
        assert_eq!(c.cache_bytes, 4 << 10);
        assert!(!c.speculation);
    }
}
