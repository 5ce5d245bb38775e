//! DRAM controller timing.

use flash_engine::{Counter, Cycle};
use std::collections::VecDeque;

/// Memory timing parameters (paper §3.2: "14-cycle memory access time",
/// "64-bit path to the memory system", 128-byte lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTiming {
    /// Cycles from reaching the front of the controller queue to the first
    /// 8 bytes of data.
    pub access: u64,
    /// Cycles to stream the remaining line over the 64-bit path.
    pub transfer: u64,
    /// Minimum cycles between successive access starts. The paper's model
    /// occupies the memory system "for the duration of the access"
    /// (§5.1), i.e. `access + transfer`; a bank that overlaps row access
    /// with data streaming would use `transfer` here instead.
    pub issue_interval: u64,
}

impl Default for MemTiming {
    fn default() -> Self {
        // 128-byte line over an 8-byte path: 16 transfer beats; a single
        // DRAM bank busy for the whole access, as in the paper.
        MemTiming {
            access: 14,
            transfer: 16,
            issue_interval: 30,
        }
    }
}

impl MemTiming {
    /// A bank that pipelines row access with data transfer (sensitivity
    /// ablation; not the paper's model).
    pub fn pipelined() -> Self {
        MemTiming {
            access: 14,
            transfer: 16,
            issue_interval: 16,
        }
    }
}

/// The completed timing of one memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResult {
    /// When the controller accepted the request (queue-space wait ends).
    pub accept: Cycle,
    /// When service began (previous request finished).
    pub start: Cycle,
    /// When the first 8 bytes are available (critical word first).
    pub first_dword: Cycle,
    /// When the full 128-byte line has streamed.
    pub done: Cycle,
}

/// A single-ported memory controller with a bounded request queue.
///
/// FLASH: `queue_capacity = Some(1)` — a unit needing the queue "stalls
/// until queue entry is available" (paper Table 3.1). Ideal machine:
/// `None` (infinite queue, §3.1).
///
/// Accesses pipeline: the row access of the next request overlaps the
/// data transfer of the previous one, so sustained throughput is one
/// 128-byte line per 16-cycle transfer window (the 64-bit path at
/// 100 MHz) while each access still sees the full 14 + 16 cycle latency.
///
/// # Examples
///
/// ```
/// use flash_engine::Cycle;
/// use flash_mem::{MemController, MemTiming};
///
/// let mut mc = MemController::new(MemTiming::default(), Some(1));
/// let r = mc.request(Cycle::new(10));
/// assert_eq!(r.first_dword, Cycle::new(24)); // 10 + 14
/// assert_eq!(r.done, Cycle::new(40));        // 10 + 14 + 16
/// ```
#[derive(Debug, Clone)]
pub struct MemController {
    timing: MemTiming,
    /// `Some(n)`: at most `n` requests may wait beyond the one in service.
    queue_capacity: Option<usize>,
    /// Service-start times of accepted, unfinished requests (a request
    /// retires `access + transfer` after its start).
    inflight: VecDeque<Cycle>,
    busy: u64,
    requests: Counter,
    /// Refresh-style external block: no request is accepted before this
    /// cycle ([`MemController::block_until`], the fault-injection hook).
    /// `Cycle::ZERO` when unused, making the hook timing-invisible.
    blocked_until: Cycle,
}

impl MemController {
    /// Creates a controller. See the type docs for `queue_capacity`.
    pub fn new(timing: MemTiming, queue_capacity: Option<usize>) -> Self {
        MemController {
            timing,
            queue_capacity,
            inflight: VecDeque::new(),
            busy: 0,
            requests: Counter::default(),
            blocked_until: Cycle::ZERO,
        }
    }

    /// Blocks the controller until `t` (a DRAM refresh-style stall, the
    /// `flash-fault` hook): requests issued earlier wait as they would for
    /// queue space. Timing-only — no request is ever lost or reordered.
    pub fn block_until(&mut self, t: Cycle) {
        if t > self.blocked_until {
            self.blocked_until = t;
        }
    }

    /// Issues a line read or write at time `at`, returning its timing.
    /// If the bounded queue is full, `accept` reflects the stall the
    /// issuing unit (PP or inbox) experiences.
    pub fn request(&mut self, at: Cycle) -> MemResult {
        // An external (refresh) block delays issue like any queue-space
        // wait.
        let issue = at.max(self.blocked_until);
        let service = self.timing.access + self.timing.transfer;
        // Retire finished requests (a request completes `service` cycles
        // after its start).
        while self.inflight.front().is_some_and(|&s| s + service <= issue) {
            self.inflight.pop_front();
        }
        // Wait for queue space: capacity counts waiters beyond the one in
        // service, so at most `1 + cap` requests may be outstanding.
        let accept = match self.queue_capacity {
            Some(cap) if self.inflight.len() > cap => {
                // Accepted when enough older requests have retired.
                let idx = self.inflight.len() - 1 - cap;
                self.inflight[idx] + service
            }
            _ => issue,
        };
        let accept = accept.max(issue);
        // Successive starts are at least one issue interval apart.
        let start = match self.inflight.back() {
            Some(&prev_start) => (prev_start + self.timing.issue_interval).max(accept),
            None => accept,
        };
        let first_dword = start + self.timing.access;
        let done = first_dword + self.timing.transfer;
        self.inflight.push_back(start);
        self.busy += self.timing.issue_interval;
        self.requests.incr();
        MemResult {
            accept,
            start,
            first_dword,
            done,
        }
    }

    /// Issues a request only if the bounded queue can accept it at `at`
    /// without stalling the issuer. Used for inbox speculative reads: a
    /// full memory queue forfeits the speculation opportunity rather than
    /// stalling the inbox pipeline.
    pub fn try_request(&mut self, at: Cycle) -> Option<MemResult> {
        if at < self.blocked_until {
            // Refresh in progress: forfeit the speculation opportunity
            // rather than stalling the inbox pipeline.
            return None;
        }
        let service = self.timing.access + self.timing.transfer;
        while self.inflight.front().is_some_and(|&s| s + service <= at) {
            self.inflight.pop_front();
        }
        if let Some(cap) = self.queue_capacity {
            if self.inflight.len() > cap {
                return None;
            }
        }
        Some(self.request(at))
    }

    /// Total cycles the memory system spent servicing requests.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Busy fraction over a run ending at `end`.
    pub fn occupancy(&self, end: Cycle) -> f64 {
        if end.raw() == 0 {
            0.0
        } else {
            self.busy as f64 / end.raw() as f64
        }
    }

    /// Number of requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// The configured timing.
    pub fn timing(&self) -> MemTiming {
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc(cap: Option<usize>) -> MemController {
        MemController::new(MemTiming::default(), cap)
    }

    #[test]
    fn uncontended_timing_matches_paper() {
        let mut m = mc(Some(1));
        let r = m.request(Cycle::new(100));
        assert_eq!(r.accept, Cycle::new(100));
        assert_eq!(r.start, Cycle::new(100));
        assert_eq!(r.first_dword, Cycle::new(114));
        assert_eq!(r.done, Cycle::new(130));
        assert_eq!(m.busy_cycles(), 30);
        assert_eq!(m.requests(), 1);
    }

    #[test]
    fn back_to_back_requests_pipeline() {
        let mut m = mc(Some(1));
        let a = m.request(Cycle::new(0));
        let b = m.request(Cycle::new(1));
        assert_eq!(b.accept, Cycle::new(1), "one waiter fits in the queue");
        // The next access starts one issue interval after the previous.
        assert_eq!(b.start, a.start + 30);
        assert_eq!(b.first_dword, a.start + 30 + 14);
    }

    #[test]
    fn third_request_stalls_on_queue_space() {
        let mut m = mc(Some(1));
        let a = m.request(Cycle::new(0));
        let _b = m.request(Cycle::new(0));
        let c = m.request(Cycle::new(0));
        // Queue space frees when the first request retires.
        assert_eq!(c.accept, a.done);
    }

    #[test]
    fn unbounded_queue_never_stalls_accept() {
        let mut m = mc(None);
        for _ in 0..10 {
            let r = m.request(Cycle::new(0));
            assert_eq!(r.accept, Cycle::new(0));
        }
        // Service starts one issue interval apart.
        let r = m.request(Cycle::new(0));
        assert_eq!(r.start, Cycle::new(10 * 30));
    }

    #[test]
    fn idle_gap_resets_service() {
        let mut m = mc(Some(1));
        let a = m.request(Cycle::new(0));
        let b = m.request(Cycle::new(1000));
        assert!(b.start > a.done);
        assert_eq!(b.start, Cycle::new(1000));
    }

    #[test]
    fn occupancy_fraction() {
        let mut m = mc(Some(1));
        m.request(Cycle::new(0));
        assert!((m.occupancy(Cycle::new(300)) - 0.1).abs() < 1e-9);
        assert_eq!(mc(None).occupancy(Cycle::ZERO), 0.0);
    }
}
