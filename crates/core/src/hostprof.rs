//! Host-time profiler: where the *simulator's* wall-clock time goes.
//!
//! PR 5's cycle-attribution observer answers "where did the simulated
//! cycles go"; this module answers the mirror question for host time, so
//! host-performance work is measured instead of guessed. When
//! [`crate::MachineConfig::with_host_profile`] arms it, the machine
//! brackets every event it processes with monotonic-clock stamps and
//! attributes the elapsed nanoseconds to one of six subsystem segments
//! plus a boundary bucket:
//!
//! * `proc_cache` — processor run loop, L1/L2 cache model, reply delivery
//! * `magic_dispatch` — MAGIC inbox bookkeeping, fault hooks, emission
//!   routing (everything in the chip event except the handler itself)
//! * `protocol` — protocol-processor handler execution and directory
//!   state (native, emulated, or translated backend)
//! * `net_mesh` — mesh routing, link fault verdicts, NI egress
//! * `event_queue` — timing-wheel/heap pops, window advance, staged
//!   cross-shard delivery
//! * `observe_check` — cycle-attribution journal replay and coherence
//!   checking (zero unless those modes are armed)
//! * `boundary` — window selection and synchronization replay (the
//!   sharded engine's coordination tax)
//!
//! The profiler is a pure observer of the host clock: it never reads or
//! writes simulation state, so arming it cannot change `exec_cycles`,
//! reports, traces, or any other simulated observable (pinned by
//! `machine_properties::host_profile_is_timing_invisible`). Per-shard
//! accumulators merge at run teardown; on multi-shard runs the segment
//! sum is CPU time across workers and may exceed wall time. Read it
//! through `Machine::host_profile`; perfbench's `--trace 1` reports it.

use std::time::Instant;

/// Host-time segments, in export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostSeg {
    /// Processor run loop and cache model.
    Proc = 0,
    /// MAGIC dispatch outside the handler.
    Magic = 1,
    /// Protocol handler + directory execution.
    Protocol = 2,
    /// Mesh and network interfaces.
    Net = 3,
    /// Event-queue operations.
    Queue = 4,
    /// Observer replay and coherence checks.
    ObsCheck = 5,
    /// Window coordination (sync replay, window selection).
    Boundary = 6,
}

/// Number of host-time segments.
pub const HOST_SEG_COUNT: usize = 7;

/// One accumulator of attributed nanoseconds (per shard, or the
/// coordinator's boundary-side instance).
#[derive(Debug, Default, Clone)]
pub struct HostProfAcc {
    /// Attributed nanoseconds per segment.
    pub ns: [u64; HOST_SEG_COUNT],
    /// Events processed under the bracket (including inlined
    /// continuations, which never touch the queue).
    pub events: u64,
    /// Nanoseconds claimed by nested brackets since the enclosing outer
    /// bracket opened; the outer subtracts this to avoid double counting.
    inner: u64,
}

impl HostProfAcc {
    /// Closes an inner bracket: attributes `start..now` to `seg` and
    /// marks it claimed for the enclosing outer bracket.
    #[inline]
    pub fn add_inner(&mut self, seg: HostSeg, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns[seg as usize] += ns;
        self.inner += ns;
    }

    /// Resets the nested-claim counter (opens an outer bracket at an
    /// externally taken stamp — the chained-lap discipline).
    #[inline]
    pub fn reset_inner(&mut self) {
        self.inner = 0;
    }

    /// Attributes a flat interval (no nesting semantics).
    #[inline]
    pub fn add_flat(&mut self, seg: HostSeg, start: Instant) {
        self.ns[seg as usize] += start.elapsed().as_nanos() as u64;
    }

    /// Chained lap: attributes `t0..now` to `seg` and returns the new
    /// stamp, so consecutive laps leave no unattributed gap (the hot
    /// loop's bracket discipline — one stamp both closes a segment and
    /// opens the next).
    #[inline]
    pub fn lap(&mut self, seg: HostSeg, t0: Instant) -> Instant {
        let t1 = Instant::now();
        self.ns[seg as usize] += t1.duration_since(t0).as_nanos() as u64;
        t1
    }

    /// Chained lap that closes an *outer* bracket: like [`Self::lap`] but
    /// subtracts whatever nested [`Self::add_inner`] brackets claimed
    /// since the bracket opened.
    #[inline]
    pub fn lap_outer(&mut self, seg: HostSeg, t0: Instant) -> Instant {
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.ns[seg as usize] += ns.saturating_sub(self.inner);
        self.inner = 0;
        t1
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &HostProfAcc) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
        self.events += other.events;
    }
}

/// The machine-level profile: merged segment times plus the wall clock
/// the coordinator measured around the drive loop.
#[derive(Debug, Default, Clone)]
pub struct HostProfile {
    /// Merged attributed nanoseconds (shards + coordinator).
    pub acc: HostProfAcc,
    /// Wall nanoseconds of the profiled `run()` calls, measured on the
    /// coordinator around the drive loop.
    pub wall_ns: u64,
    /// Number of `run()` calls profiled.
    pub runs: u64,
}

impl HostProfile {
    /// Total attributed nanoseconds across all segments.
    pub fn attributed_ns(&self) -> u64 {
        self.acc.ns.iter().sum()
    }

    /// Fraction of measured wall time the segments explain. On a
    /// single-shard run this is the coverage guarantee (≥ 0.95 on any
    /// non-trivial run); multi-shard runs sum worker CPU time and can
    /// exceed 1.0.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.attributed_ns() as f64 / self.wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_brackets_do_not_double_count() {
        // The event loop's discipline: an outer bracket opens at a stamp
        // with `reset_inner` and closes with `lap_outer`.
        let mut a = HostProfAcc::default();
        let outer = Instant::now();
        a.reset_inner();
        let inner = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        a.add_inner(HostSeg::Protocol, inner);
        let end = a.lap_outer(HostSeg::Magic, outer);
        let total: u64 = a.ns.iter().sum();
        let wall = end.duration_since(outer).as_nanos() as u64;
        assert!(a.ns[HostSeg::Protocol as usize] > 1_000_000);
        assert_eq!(total, wall, "the nested bracket is counted exactly once");
    }
}
