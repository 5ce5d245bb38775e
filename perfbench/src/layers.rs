//! Per-layer measurements read through public accessors: exact work
//! counters of a finished machine, the host profiler's segments, and
//! per-call host costs of single crate entry points.

use std::hint::black_box;
use std::time::Instant;

use flash::{HostProfile, Machine};
use flash_engine::{Addr, Cycle, EventQueue, NodeId};
use flash_pp::emu::{EffectSink, Regs};
use flash_pp::translate::translate_shared;
use flash_pp::CodegenOptions;
use flash_protocol::dir::{dir_addr, Directory, DEFAULT_PS_CAPACITY};
use flash_protocol::fields::aux;
use flash_protocol::handlers::{compile_shared, fields_of, MemEnv};
use flash_protocol::msg::{InMsg, MsgType};
use flash_protocol::{CostTable, ProtoMem};

use crate::stats::median;

/// Exact work counters of one simulation (or, summed, of a job matrix).
/// Deterministic: a run repeated with the same inputs, traced or not,
/// must reproduce every field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated execution cycles.
    pub exec_cycles: u64,
    /// References issued by the processors (all retired on completion).
    pub refs: u64,
    /// Processor read misses sent to MAGIC.
    pub read_misses: u64,
    /// Processor read-stall time, in quarter cycles.
    pub read_stall_q: u64,
    /// Event-queue pushes that landed in the timing wheel.
    pub wheel_pushes: u64,
    /// Event-queue pushes that overflowed to the heap.
    pub heap_pushes: u64,
    /// PP dual-issue pairs executed.
    pub pp_pairs: u64,
    /// PP non-NOP instructions executed.
    pub pp_instrs: u64,
    /// Protocol handler invocations.
    pub invocations: u64,
    /// Protocol handler occupancy, cycles.
    pub handler_cycles: u64,
    /// Messages MAGIC processed.
    pub magic_messages: u64,
    /// Inbox wait summed over processed messages, cycles.
    pub inbox_wait_cycles: u64,
    /// Speculative memory reads issued.
    pub spec_issued: u64,
    /// Speculative reads that were useless.
    pub spec_useless: u64,
    /// MDC stall cycles.
    pub mdc_stall_cycles: u64,
    /// MDC accesses.
    pub mdc_accesses: u64,
    /// MDC misses.
    pub mdc_misses: u64,
    /// Network messages carried.
    pub net_messages: u64,
    /// Mesh hops summed over carried messages.
    pub net_hops: u64,
    /// Open-loop references admitted.
    pub admitted: u64,
    /// Open-loop admission wait summed over admitted references, cycles.
    pub admit_wait_sum: u64,
    /// Deepest open-loop backlog on any node.
    pub peak_backlog: u64,
}

impl Counters {
    /// Reads the counters of a finished machine.
    pub fn of(m: &Machine) -> Self {
        let mut c = Counters {
            exec_cycles: m.exec_cycles(),
            net_messages: m.network().messages(),
            ..Default::default()
        };
        // `mean_hops` is an integer total over the message count.
        c.net_hops = (m.network().mean_hops() * c.net_messages as f64).round() as u64;
        (c.wheel_pushes, c.heap_pushes) = m.queue_push_routing();
        for p in m.procs() {
            let s = p.stats();
            c.refs += s.references();
            c.read_misses += s.read_misses;
            c.read_stall_q += s.read_stall_q;
        }
        for chip in m.chips() {
            let s = chip.stats();
            c.pp_pairs += s.pp.pairs;
            c.pp_instrs += s.pp.instrs;
            for (n, cyc) in s.handlers.values() {
                c.invocations += n;
                c.handler_cycles += cyc;
            }
            c.magic_messages += s.messages;
            c.inbox_wait_cycles += s.inbox_wait_cycles;
            c.spec_issued += s.spec_issued;
            c.spec_useless += s.spec_useless;
            c.mdc_stall_cycles += s.mdc_stall_cycles;
            if let Some(mdc) = chip.mdc() {
                c.mdc_accesses +=
                    mdc.read_hits() + mdc.read_misses() + mdc.write_hits() + mdc.write_misses();
                c.mdc_misses += mdc.read_misses() + mdc.write_misses();
            }
        }
        for (_, t) in m.traffic_stats().unwrap_or_default() {
            c.admitted += t.admitted;
            c.admit_wait_sum += t.wait_sum;
            c.peak_backlog = c.peak_backlog.max(t.peak_backlog);
        }
        c
    }

    /// Adds another simulation's counters (execution cycles and every
    /// count add; the peak backlog takes the maximum).
    pub fn add(&mut self, o: &Counters) {
        self.exec_cycles += o.exec_cycles;
        self.refs += o.refs;
        self.read_misses += o.read_misses;
        self.read_stall_q += o.read_stall_q;
        self.wheel_pushes += o.wheel_pushes;
        self.heap_pushes += o.heap_pushes;
        self.pp_pairs += o.pp_pairs;
        self.pp_instrs += o.pp_instrs;
        self.invocations += o.invocations;
        self.handler_cycles += o.handler_cycles;
        self.magic_messages += o.magic_messages;
        self.inbox_wait_cycles += o.inbox_wait_cycles;
        self.spec_issued += o.spec_issued;
        self.spec_useless += o.spec_useless;
        self.mdc_stall_cycles += o.mdc_stall_cycles;
        self.mdc_accesses += o.mdc_accesses;
        self.mdc_misses += o.mdc_misses;
        self.net_messages += o.net_messages;
        self.net_hops += o.net_hops;
        self.admitted += o.admitted;
        self.admit_wait_sum += o.admit_wait_sum;
        self.peak_backlog = self.peak_backlog.max(o.peak_backlog);
    }

    /// `(name, unit, value)` for each counter-derived per-layer
    /// metric.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("engine.wheel_pushes", "count", self.wheel_pushes as f64),
            ("engine.heap_pushes", "count", self.heap_pushes as f64),
            ("pp.pairs", "count", self.pp_pairs as f64),
            ("pp.instrs", "count", self.pp_instrs as f64),
            ("protocol.invocations", "count", self.invocations as f64),
            (
                "protocol.handler_cycles",
                "cycles",
                self.handler_cycles as f64,
            ),
            ("magic.messages", "count", self.magic_messages as f64),
            (
                "magic.inbox_wait_cycles",
                "cycles",
                self.inbox_wait_cycles as f64,
            ),
            (
                "magic.spec_useful_ratio",
                "ratio",
                ratio(self.spec_issued - self.spec_useless, self.spec_issued),
            ),
            (
                "magic.mdc_stall_cycles",
                "cycles",
                self.mdc_stall_cycles as f64,
            ),
            (
                "mem.mdc_miss_rate",
                "ratio",
                ratio(self.mdc_misses, self.mdc_accesses),
            ),
            ("cpu.refs", "count", self.refs as f64),
            ("cpu.read_misses", "count", self.read_misses as f64),
            (
                "cpu.read_stall_cycles",
                "cycles",
                self.read_stall_q as f64 / 4.0,
            ),
            ("net.messages", "count", self.net_messages as f64),
            (
                "net.mean_hops",
                "hops",
                ratio(self.net_hops, self.net_messages),
            ),
            ("traffic.admitted", "count", self.admitted as f64),
            ("traffic.peak_backlog", "count", self.peak_backlog as f64),
            (
                "traffic.admit_wait_mean_cycles",
                "cycles",
                ratio(self.admit_wait_sum, self.admitted),
            ),
        ]
    }
}

/// Merges host profiles (segment nanoseconds, events and wall time
/// add).
pub fn merge_profiles(into: &mut HostProfile, other: &HostProfile) {
    into.acc.merge(&other.acc);
    into.wall_ns += other.wall_ns;
    into.runs += other.runs;
}

/// Host-profile segment metric names, in `flash::HOST_SEG_NAMES` order.
pub const SEGMENT_METRICS: [&str; flash::HOST_SEG_COUNT] = [
    "cpu.host_ns",
    "magic.host_ns",
    "protocol.host_ns",
    "net.host_ns",
    "engine.queue_host_ns",
    "core.observe_host_ns",
    "core.boundary_host_ns",
];

/// Calls per timed batch and batches per per-call measurement.
const CALLS: u32 = 200_000;
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the host nanoseconds per call of
/// `f`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    median(&samples)
}

/// The read-miss message the `handler_dispatch` bench presents:
/// requester == home, so `ni_get` is idempotent and the directory does
/// not grow over many calls.
fn ni_get_msg() -> InMsg {
    let a = Addr::new(0x2000);
    InMsg {
        mtype: MsgType::NGet,
        src: NodeId(0),
        addr: a,
        aux: aux::pack(NodeId(0), MsgType::NGet, NodeId(0)),
        spec: true,
        self_node: NodeId(0),
        home: NodeId(0),
        diraddr: dir_addr(a),
        with_data: false,
    }
}

/// Host nanoseconds per call of single entry points, as
/// `(metric, value)`: the translated `ni_get` handler on a real
/// directory, the native handler (its floor), an event-queue push+pop
/// at a steady near-future population, and an L2 hit probe.
pub fn per_call_ns() -> Vec<(&'static str, f64)> {
    let msg = ni_get_msg();
    let program = compile_shared(CodegenOptions::magic());
    let translated = translate_shared(&program);
    let entry = program.entry("ni_get").expect("ni_get handler exists");
    let mut mem = ProtoMem::new();
    Directory::init_free_list(&mut mem, DEFAULT_PS_CAPACITY);
    let (mut regs, mut sink) = (Regs::new(), EffectSink::new());
    let fields = fields_of(&msg);
    let pp = ns_per_call(|| {
        let mut env = MemEnv {
            mem: &mut mem,
            fields,
        };
        black_box(
            translated
                .run_into(entry, &mut env, 100_000, &mut regs, &mut sink)
                .expect("ni_get runs"),
        );
    });

    let mut mem = ProtoMem::new();
    Directory::init_free_list(&mut mem, DEFAULT_PS_CAPACITY);
    let costs = CostTable::paper();
    let mut out = Vec::new();
    let native = ns_per_call(|| {
        out.clear();
        black_box(flash_protocol::native::handle(
            black_box(&msg),
            &mut mem,
            &costs,
            &mut out,
        ));
    });

    // A population of in-flight events, each rescheduling itself a few
    // cycles ahead: the simulator's dominant queue pattern.
    let mut q = EventQueue::new();
    for e in 0..256u64 {
        q.push(Cycle::new(e % 24), e);
    }
    let queue = ns_per_call(|| {
        let (t, e) = q.pop().expect("population is constant");
        q.push(Cycle::new(t.raw() + 1 + (e * 7) % 24), black_box(e));
    });

    let mut l2 = flash_cpu::L2Cache::new(1 << 20);
    l2.install(Addr::new(0x1000), flash_cpu::LineState::Shared);
    let probe = ns_per_call(|| {
        black_box(l2.probe(black_box(Addr::new(0x1000)), false));
    });

    vec![
        ("pp.ni_get_ns", pp),
        ("protocol.native_ni_get_ns", native),
        ("engine.queue_push_pop_ns", queue),
        ("cpu.l2_probe_ns", probe),
    ]
}
