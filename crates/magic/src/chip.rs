//! The MAGIC chip: message processing from inbox to outbox.

use crate::env::MdcEnv;
use flash_engine::{Addr, Cycle, NodeId, OccupancyTracker};
use flash_mem::{CacheGeometry, MagicCache, MemController, MemTiming};
use flash_pp::emu::{self, EffectKind, EffectSink, Regs};
use flash_pp::translate::{translate_shared, Translated};
use flash_pp::{CodegenOptions, Program, RunStats};
use flash_protocol::dir::DEFAULT_PS_CAPACITY;
use flash_protocol::handlers::{effect_to_outgoing, fields_of};
use flash_protocol::native::{self, Outgoing};
use flash_protocol::{CostTable, Directory, InMsg, JumpTable, Msg, ProcMsg, ProtoMem};

use std::sync::Arc;

/// Which controller sits at the heart of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// The detailed FLASH model: protocol handlers run on the emulated PP.
    FlashEmulated,
    /// FLASH with native protocol execution and occupancies charged from
    /// the Table 3.4 cost model (fast mode, large configurations).
    FlashCostTable,
    /// The paper's idealized hardwired machine: protocol operations take
    /// zero time; queues are infinite; the directory is an oracle.
    Ideal,
}

impl ControllerKind {
    /// Whether this kind charges PP occupancy.
    pub fn is_flash(self) -> bool {
        !matches!(self, ControllerKind::Ideal)
    }
}

/// Which execution engine runs PP handlers on a
/// [`ControllerKind::FlashEmulated`] controller. The two backends are
/// bit-identical in timing, statistics, and effects (see
/// `flash_pp::translate` for the equivalence obligations and the suites
/// that pin them), so this is a host-performance knob, never a model
/// knob: results must not depend on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PpBackend {
    /// The per-pair instruction-stepping reference emulator
    /// (`flash_pp::emu`), the semantics of record.
    Emulated,
    /// Handlers pre-translated to native basic-block closures
    /// (`flash_pp::translate`); the default.
    #[default]
    Translated,
}

/// Chip-level latency parameters, in cycles (paper Table 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagicTimings {
    /// Inbox queue selection and arbitration.
    pub inbox_arb: u64,
    /// Jump table lookup (FLASH only).
    pub jump: u64,
    /// Outbox outbound processing (FLASH only).
    pub outbox: u64,
    /// NI outbound processing.
    pub ni_out: u64,
    /// PI outbound processing (4 FLASH / 2 ideal).
    pub pi_out: u64,
    /// Outbound bus arbitration + first-word transit.
    pub pi_arb_word: u64,
    /// Data-buffer staging cycle charged by the FLASH datapath.
    pub buffer_stage: u64,
    /// Extra MDC fill cycles beyond the memory access (14 + 15 = the
    /// paper's 29-cycle MDC miss penalty).
    pub mdc_fill_extra: u64,
}

impl MagicTimings {
    /// FLASH values from Table 3.2.
    pub const fn flash() -> Self {
        MagicTimings {
            inbox_arb: 1,
            jump: 2,
            outbox: 1,
            ni_out: 4,
            pi_out: 4,
            pi_arb_word: 2,
            buffer_stage: 1,
            mdc_fill_extra: 15,
        }
    }

    /// Ideal-machine values: no jump table, no outbox, faster PI outbound.
    pub const fn ideal() -> Self {
        MagicTimings {
            inbox_arb: 1,
            jump: 0,
            outbox: 0,
            ni_out: 4,
            pi_out: 2,
            pi_arb_word: 2,
            buffer_stage: 0,
            mdc_fill_extra: 0,
        }
    }
}

/// A message leaving the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emission {
    /// Handed to the network (transit is the network model's job).
    Net {
        /// Time the message enters the network.
        at: Cycle,
        /// The message.
        msg: Msg,
    },
    /// Delivered to the local processor (or I/O) over the bus.
    Proc {
        /// Time the first word reaches the processor.
        at: Cycle,
        /// The message.
        msg: ProcMsg,
    },
}

impl Emission {
    /// Emission time.
    pub fn at(&self) -> Cycle {
        match self {
            Emission::Net { at, .. } | Emission::Proc { at, .. } => *at,
        }
    }
}

/// Aggregated controller statistics.
#[derive(Debug, Clone, Default)]
pub struct MagicStats {
    /// Messages processed.
    pub messages: u64,
    /// Speculative memory reads issued by the inbox.
    pub spec_issued: u64,
    /// Speculative reads whose data went unused (paper Table 5.1).
    pub spec_useless: u64,
    /// Aggregate PP instruction statistics (emulated mode).
    pub pp: RunStats,
    /// Per-handler invocation counts and total occupancy cycles.
    /// Fast-hash keyed (hot: one entry per handler invocation); consumers
    /// aggregate into sorted maps, so iteration order never leaks out.
    pub handlers: flash_engine::FastMap<&'static str, (u64, u64)>,
    /// Cycles the PP spent stalled on MDC misses.
    pub mdc_stall_cycles: u64,
    /// MAGIC instruction-cache cold misses.
    pub icache_cold_misses: u64,
    /// Total cycles messages waited in the inbox for the PP (queueing
    /// delay behind earlier handlers).
    pub inbox_wait_cycles: u64,
    /// Largest single inbox wait observed.
    pub inbox_wait_max: u64,
    /// Processor cache-miss classifications (reads) counted at the home.
    pub read_class: ReadClassCounts,
}

/// Read-miss classification counts (paper Tables 4.1/4.2 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadClassCounts {
    /// Local address, clean at home.
    pub local_clean: u64,
    /// Local address, dirty in a remote cache.
    pub local_dirty_remote: u64,
    /// Remote address, clean at home.
    pub remote_clean: u64,
    /// Remote address, dirty in the home node's cache.
    pub remote_dirty_home: u64,
    /// Remote address, dirty in a third node's cache.
    pub remote_dirty_remote: u64,
}

impl ReadClassCounts {
    /// Total classified read misses.
    pub fn total(&self) -> u64 {
        self.local_clean
            + self.local_dirty_remote
            + self.remote_clean
            + self.remote_dirty_home
            + self.remote_dirty_remote
    }
}

/// The paper's Table 3.3 read-miss classes, as values (the countable
/// version of [`ReadClassCounts`]). Returned by
/// [`MagicChip::classify_read`] so the observability layer can attribute
/// a request's latency breakdown to its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadClass {
    /// Local address, clean at home.
    LocalClean,
    /// Local address, dirty in a remote cache.
    LocalDirtyRemote,
    /// Remote address, clean at home.
    RemoteClean,
    /// Remote address, dirty in the home node's cache.
    RemoteDirtyHome,
    /// Remote address, dirty in a third node's cache.
    RemoteDirtyRemote,
}

impl ReadClass {
    /// All classes in Table 3.3 row order.
    pub const ALL: [ReadClass; 5] = [
        ReadClass::LocalClean,
        ReadClass::LocalDirtyRemote,
        ReadClass::RemoteClean,
        ReadClass::RemoteDirtyHome,
        ReadClass::RemoteDirtyRemote,
    ];

    /// Stable machine-readable name used in exports (`METRICS.md` schema).
    pub fn name(self) -> &'static str {
        match self {
            ReadClass::LocalClean => "local_clean",
            ReadClass::LocalDirtyRemote => "local_dirty_remote",
            ReadClass::RemoteClean => "remote_clean",
            ReadClass::RemoteDirtyHome => "remote_dirty_home",
            ReadClass::RemoteDirtyRemote => "remote_dirty_remote",
        }
    }

    /// Index of this class in [`ReadClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            ReadClass::LocalClean => 0,
            ReadClass::LocalDirtyRemote => 1,
            ReadClass::RemoteClean => 2,
            ReadClass::RemoteDirtyHome => 3,
            ReadClass::RemoteDirtyRemote => 4,
        }
    }
}

/// Per-emission latency attribution, recorded only when observation is on
/// (see the `flash` crate's `MachineConfig::with_observe`).
///
/// For every [`Emission`] produced by [`MagicChip::process_into`] in an
/// observed run, the chip records how the interval from message arrival
/// to emission decomposes into chip-internal components. The invariant
/// `parts.total() == emission.at() − arrival` holds exactly for all three
/// controller kinds — the observability layer's sums-to-total guarantee
/// rests on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsParts {
    /// Fixed inbox arbitration + jump-table dispatch cycles.
    pub inbox: u64,
    /// Cycles the message waited in the inbox for the PP behind earlier
    /// handlers (always 0 on the ideal controller).
    pub wait: u64,
    /// Handler execution cycles preceding this emission (the send's
    /// instruction offset in emulated mode, the Table 3.4 cost in
    /// cost-table mode, 0 on the ideal controller).
    pub occ: u64,
    /// Memory/data cycles: MAGIC I-cache and MDC miss stalls, DRAM queue
    /// stalls, and waiting for the data the reply carries.
    pub mem: u64,
    /// Outbound cycles: outbox + NI-out for network emissions, outbox +
    /// PI-out + bus arbitration/first-word for processor emissions.
    pub out: u64,
}

impl ObsParts {
    /// Total attributed cycles; equals `emission.at() − arrival` exactly.
    pub fn total(&self) -> u64 {
        self.inbox + self.wait + self.occ + self.mem + self.out
    }
}

/// One observed handler invocation (feeds the event trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsInvocation {
    /// Handler name (the native-dispatch name; identical across modes).
    pub handler: &'static str,
    /// Time the handler began executing.
    pub start: Cycle,
    /// Cycles the PP was occupied (0 on the ideal controller).
    pub occupied: u64,
}

/// One node's MAGIC controller (or its idealized stand-in).
pub struct MagicChip {
    kind: ControllerKind,
    node: NodeId,
    timings: MagicTimings,
    program: Option<Arc<Program>>,
    backend: PpBackend,
    translated: Option<Arc<Translated>>,
    /// Handler name → entry pair index, filled lazily: spares the hot
    /// path a `BTreeMap<String>` lookup per invocation. Deterministic
    /// fast hashing — this map is probed once per emulated invocation.
    entry_pcs: flash_engine::FastMap<&'static str, usize>,
    /// Scratch register file and effect buffer, reused across handler
    /// invocations so the hot path does not allocate.
    pp_regs: Regs,
    pp_sink: EffectSink,
    jump: JumpTable,
    proto: ProtoMem,
    mdc: Option<MagicCache>,
    icache: MagicCache,
    mem: MemController,
    pp: OccupancyTracker,
    pp_free: Cycle,
    costs: CostTable,
    speculation: bool,
    stats: MagicStats,
    out_buf: Vec<Outgoing>,
    oracle: Option<flash_check::OracleState>,
    observe: bool,
    obs_parts: Vec<ObsParts>,
    obs_invocation: Option<ObsInvocation>,
}

impl std::fmt::Debug for MagicChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MagicChip")
            .field("node", &self.node)
            .field("kind", &self.kind)
            .field("messages", &self.stats.messages)
            .finish()
    }
}

impl MagicChip {
    /// Builds a controller of the given kind.
    ///
    /// `program` must be provided for [`ControllerKind::FlashEmulated`]
    /// (obtain it from [`flash_protocol::handlers::compile_shared`], which
    /// compiles once per codegen variant and shares it across nodes,
    /// machines, and worker threads).
    pub fn new(
        kind: ControllerKind,
        node: NodeId,
        program: Option<Arc<Program>>,
        jump: JumpTable,
        mem_timing: MemTiming,
        speculation: bool,
        mdc_enabled: bool,
    ) -> Self {
        assert!(
            !(kind == ControllerKind::FlashEmulated && program.is_none()),
            "emulated controller needs a compiled handler program"
        );
        let mut proto = ProtoMem::new();
        Directory::init_free_list(&mut proto, DEFAULT_PS_CAPACITY);
        let mem_queue = match kind {
            ControllerKind::Ideal => None,
            _ => Some(1),
        };
        let backend = PpBackend::default();
        let translated = (kind == ControllerKind::FlashEmulated
            && backend == PpBackend::Translated)
            .then(|| translate_shared(program.as_ref().expect("checked above")));
        MagicChip {
            kind,
            node,
            timings: if kind == ControllerKind::Ideal {
                MagicTimings::ideal()
            } else {
                MagicTimings::flash()
            },
            program,
            backend,
            translated,
            entry_pcs: flash_engine::FastMap::default(),
            pp_regs: Regs::new(),
            pp_sink: EffectSink::new(),
            jump,
            proto,
            mdc: (mdc_enabled && kind == ControllerKind::FlashEmulated)
                .then(|| MagicCache::new(CacheGeometry::mdc())),
            icache: MagicCache::new(CacheGeometry::micache()),
            mem: MemController::new(mem_timing, mem_queue),
            pp: OccupancyTracker::new(),
            pp_free: Cycle::ZERO,
            costs: CostTable::paper(),
            speculation,
            stats: MagicStats::default(),
            out_buf: Vec::new(),
            oracle: None,
            observe: false,
            obs_parts: Vec::new(),
            obs_invocation: None,
        }
    }

    /// Selects the PP execution backend. Only meaningful for
    /// [`ControllerKind::FlashEmulated`]; the translation is shared
    /// process-wide and built on first use.
    pub fn set_pp_backend(&mut self, backend: PpBackend) {
        self.backend = backend;
        if backend == PpBackend::Translated && self.translated.is_none() {
            if let Some(p) = &self.program {
                self.translated = Some(translate_shared(p));
            }
        }
    }

    /// The active PP execution backend.
    pub fn pp_backend(&self) -> PpBackend {
        self.backend
    }

    /// Turns cycle-attribution recording on or off. When on, every
    /// [`MagicChip::process_into`] call leaves one [`ObsParts`] per emission in
    /// [`MagicChip::obs_parts`] and the invocation record in
    /// [`MagicChip::obs_invocation`]. Recording is timing-invisible: it
    /// only appends to side buffers.
    pub fn set_observe(&mut self, on: bool) {
        self.observe = on;
    }

    /// Per-emission attributions from the most recent
    /// [`MagicChip::process_into`] call (parallel to its emissions; empty
    /// unless observation is on).
    pub fn obs_parts(&self) -> &[ObsParts] {
        &self.obs_parts
    }

    /// The handler invocation from the most recent
    /// [`MagicChip::process_into`] call (`None` unless observation is on).
    pub fn obs_invocation(&self) -> Option<&ObsInvocation> {
        self.obs_invocation.as_ref()
    }

    /// Turns on the differential native-vs-PP oracle (checked mode): every
    /// subsequent handler invocation is replayed through the native
    /// protocol on a snapshot of this chip's protocol memory and diffed.
    /// Only meaningful for [`ControllerKind::FlashEmulated`] running the
    /// base coherence protocol (the native oracle does not implement the
    /// monitoring protocol's counter writes); no-op otherwise.
    pub fn enable_oracle(&mut self) {
        if self.kind == ControllerKind::FlashEmulated {
            self.oracle = Some(flash_check::OracleState::default());
        }
    }

    /// Handler invocations the oracle has diffed so far.
    pub fn oracle_checked(&self) -> u64 {
        self.oracle.as_ref().map_or(0, |o| o.checked)
    }

    /// Divergences the oracle has recorded (empty on a healthy run).
    pub fn oracle_violations(&self) -> &[flash_check::Violation] {
        self.oracle.as_ref().map_or(&[], |o| &o.violations)
    }

    /// The default handler program for emulated controllers, compiled at
    /// most once per codegen variant for the whole process.
    pub fn default_program(options: CodegenOptions) -> Arc<Program> {
        flash_protocol::handlers::compile_shared(options)
    }

    /// The directory header at a protocol-memory address (classification
    /// and test inspection).
    pub fn peek_header(&self, diraddr: u64) -> flash_protocol::DirHeader {
        flash_protocol::DirHeader(self.proto.load64(diraddr))
    }

    /// The request count recorded by the monitoring protocol for a
    /// directory header (see `flash_protocol::handlers::MONITORING_SOURCE`).
    pub fn monitor_count(&self, diraddr: u64) -> u64 {
        self.proto
            .load64(diraddr + (1 << flash_protocol::handlers::MON_SHIFT))
    }

    /// The sharer list recorded for a directory header (test inspection).
    ///
    /// # Panics
    ///
    /// Panics if the list is cyclic (a corrupted directory).
    pub fn sharer_nodes(&self, diraddr: u64) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut idx = self.peek_header(diraddr).head();
        let mut guard = 0;
        while idx != 0 {
            let e =
                flash_protocol::PtrEntry(self.proto.load64(flash_protocol::dir::entry_addr(idx)));
            out.push(e.node());
            idx = e.next();
            guard += 1;
            assert!(guard < 100_000, "cyclic sharer list at {diraddr:#x}");
        }
        out
    }

    /// Classifies a read miss against current directory state and counts
    /// it (call before [`MagicChip::process_into`] for `PiGet`/`NGet` at the
    /// home with a known requester). Returns the class, or `None` for a
    /// pending line (the retry that gets served will be classified).
    pub fn classify_read(&mut self, msg: &InMsg, requester: NodeId) -> Option<ReadClass> {
        let h = self.peek_header(msg.diraddr);
        if h.pending() {
            return None; // the retry that gets served will be classified
        }
        let local = requester == msg.home;
        let c = &mut self.stats.read_class;
        let class = if !h.dirty() {
            if local {
                c.local_clean += 1;
                ReadClass::LocalClean
            } else {
                c.remote_clean += 1;
                ReadClass::RemoteClean
            }
        } else if local {
            c.local_dirty_remote += 1;
            ReadClass::LocalDirtyRemote
        } else if h.owner() == msg.home {
            c.remote_dirty_home += 1;
            ReadClass::RemoteDirtyHome
        } else {
            c.remote_dirty_remote += 1;
            ReadClass::RemoteDirtyRemote
        };
        Some(class)
    }

    /// Processes one incoming message that became available to the inbox
    /// at `arrival` (PI/NI inbound latency already charged by the caller),
    /// leaving everything the chip emits, with timestamps, in `out`.
    ///
    /// `out` is cleared first and reused across calls, so a steady-state
    /// event loop pays zero allocations per message once the buffer has
    /// grown to the protocol's maximum fan-out.
    pub fn process_into(&mut self, mut msg: InMsg, arrival: Cycle, out: &mut Vec<Emission>) {
        out.clear();
        self.stats.messages += 1;
        if self.observe {
            self.obs_parts.clear();
            self.obs_invocation = None;
        }
        let local = msg.home == self.node;
        let entry = self.jump.lookup(msg.mtype, local);
        let t_ready = arrival + self.timings.inbox_arb + self.timings.jump;

        // Speculative memory initiation (inbox-issued, before the PP runs).
        // A full memory queue forfeits the opportunity instead of stalling
        // the inbox (Table 3.1's queue limit, without head-of-line
        // blocking the whole dispatch pipeline).
        let mut data_mem: Option<Cycle> = None;
        if self.kind != ControllerKind::Ideal && self.speculation && entry.speculative && local {
            if let Some(r) = self.mem.try_request(t_ready) {
                data_mem = Some(r.first_dword);
                msg.spec = true;
                self.stats.spec_issued += 1;
            }
        }

        match self.kind {
            ControllerKind::Ideal => {
                self.process_native(msg, t_ready, 0, data_mem, entry.handler, true, out)
            }
            ControllerKind::FlashCostTable => {
                let start = t_ready.max(self.pp_free);
                let wait = start - t_ready;
                self.stats.inbox_wait_cycles += wait;
                self.stats.inbox_wait_max = self.stats.inbox_wait_max.max(wait);
                self.process_native(msg, start, wait, data_mem, entry.handler, false, out)
            }
            ControllerKind::FlashEmulated => {
                self.process_emulated(msg, arrival, t_ready, data_mem, entry.handler, out)
            }
        }
    }

    /// Native-protocol processing (ideal and cost-table modes). `wait` is
    /// the inbox queueing delay already folded into `start` by the caller
    /// (0 for ideal), passed along for attribution.
    #[allow(clippy::too_many_arguments)]
    fn process_native(
        &mut self,
        msg: InMsg,
        start: Cycle,
        wait: u64,
        mut data_mem: Option<Cycle>,
        handler: &'static str,
        ideal: bool,
        emissions: &mut Vec<Emission>,
    ) {
        self.out_buf.clear();
        let mut out = std::mem::take(&mut self.out_buf);
        let costs = self.costs; // Copy: sidesteps the &mut self.proto borrow
        let res = native::handle(&msg, &mut self.proto, &costs, &mut out);
        debug_assert_eq!(res.handler, handler, "jump table vs native dispatch");
        // Occupancy: zero for ideal, cost table for FLASH.
        let occ = if ideal { 0 } else { res.cost };
        let effect_time = if ideal {
            start
        } else {
            let cost = res.cost;
            self.pp.record_busy(cost);
            self.pp_free = start + cost;
            let e = self.stats.handlers.entry(res.handler).or_default();
            e.0 += 1;
            e.1 += cost;
            start + cost
        };
        if self.observe {
            self.obs_invocation = Some(ObsInvocation {
                handler: res.handler,
                start,
                occupied: occ,
            });
        }
        let inbox = self.timings.inbox_arb + self.timings.jump;
        let mut used_mem_data = false;
        for o in out.drain(..) {
            match o {
                Outgoing::MemRead(_) => {
                    let r = self.mem.request(effect_time);
                    data_mem = Some(r.first_dword);
                }
                Outgoing::MemWrite(_) => {
                    self.mem.request(effect_time);
                }
                Outgoing::Net(m) => {
                    let data = self.data_ready(
                        m.with_data,
                        msg.with_data,
                        start,
                        data_mem,
                        &mut used_mem_data,
                    );
                    let header = effect_time + self.timings.outbox + self.timings.ni_out;
                    let at = match data {
                        Some(d) => header.max(d + self.timings.buffer_stage),
                        None => header,
                    };
                    if self.observe {
                        self.obs_parts.push(ObsParts {
                            inbox,
                            wait,
                            occ,
                            mem: at - header,
                            out: self.timings.outbox + self.timings.ni_out,
                        });
                    }
                    emissions.push(Emission::Net { at, msg: m });
                }
                Outgoing::Proc(pm) => {
                    let data = self.data_ready(
                        pm.with_data,
                        msg.with_data,
                        start,
                        data_mem,
                        &mut used_mem_data,
                    );
                    let header = effect_time + self.timings.outbox + self.timings.pi_out;
                    let base = match data {
                        Some(d) => header.max(d + self.timings.buffer_stage),
                        None => header,
                    };
                    let at = base + self.timings.pi_arb_word;
                    if self.observe {
                        self.obs_parts.push(ObsParts {
                            inbox,
                            wait,
                            occ,
                            mem: base - header,
                            out: self.timings.outbox
                                + self.timings.pi_out
                                + self.timings.pi_arb_word,
                        });
                    }
                    emissions.push(Emission::Proc { at, msg: pm });
                }
            }
        }
        self.out_buf = out;
        if msg.spec && !used_mem_data {
            self.stats.spec_useless += 1;
        }
    }

    /// Detailed processing on the emulated PP.
    fn process_emulated(
        &mut self,
        msg: InMsg,
        arrival: Cycle,
        t_ready: Cycle,
        mut data_mem: Option<Cycle>,
        handler: &'static str,
        emissions: &mut Vec<Emission>,
    ) {
        // Borrow (not clone) the shared program: an `Arc` bump per
        // invocation is a contended atomic on multi-shard runs.
        let program = self.program.as_ref().expect("emulated mode has a program");
        let entry_pc = match self.entry_pcs.get(handler) {
            Some(&pc) => pc,
            None => {
                let pc = program
                    .entry(handler)
                    .unwrap_or_else(|| panic!("program lacks handler {handler}"));
                self.entry_pcs.insert(handler, pc);
                pc
            }
        };
        let pp_start = t_ready.max(self.pp_free);
        let wait = pp_start - t_ready;
        self.stats.inbox_wait_cycles += wait;
        self.stats.inbox_wait_max = self.stats.inbox_wait_max.max(wait);

        // Instruction fetch: only cold misses are possible (the handler
        // set fits the 32 KB MAGIC instruction cache, paper §5.3).
        let mut pre_drift = 0u64;
        if matches!(
            self.icache.access(entry_pc as u64 * 8, false),
            flash_mem::Access::Miss { .. }
        ) {
            self.stats.icache_cold_misses += 1;
            let r = self.mem.request(pp_start);
            pre_drift += (r.first_dword - pp_start) + self.timings.mdc_fill_extra;
        }

        // Checked mode: snapshot the protocol memory so the oracle can
        // replay this invocation through the native protocol afterwards.
        let pre = self.oracle.as_ref().map(|_| self.proto.clone());

        // Scratch state reused across invocations (`take` sidesteps the
        // `&mut self` borrow while the environment holds `self.proto`).
        let mut regs = std::mem::take(&mut self.pp_regs);
        let mut sink = std::mem::take(&mut self.pp_sink);
        let res = {
            let fields = fields_of(&msg);
            let mut env = MdcEnv::new(&mut self.proto, self.mdc.as_mut(), fields);
            match (self.backend, self.translated.as_ref()) {
                (PpBackend::Translated, Some(t)) => t.run_into(
                    entry_pc,
                    &mut env,
                    emu::DEFAULT_PAIR_BUDGET,
                    &mut regs,
                    &mut sink,
                ),
                _ => emu::run_into(
                    program,
                    entry_pc,
                    &mut env,
                    emu::DEFAULT_PAIR_BUDGET,
                    &mut regs,
                    &mut sink,
                ),
            }
        };
        let (exec_cycles, run_stats) = res.unwrap_or_else(|e| {
            let h = flash_protocol::DirHeader(self.proto.load64(msg.diraddr));
            let mut idx = h.head();
            let mut walk = Vec::new();
            for _ in 0..20 {
                if idx == 0 {
                    break;
                }
                let e = flash_protocol::PtrEntry(
                    self.proto.load64(flash_protocol::dir::entry_addr(idx)),
                );
                walk.push((idx, e.node().0, e.next()));
                idx = e.next();
            }
            panic!(
                "handler {handler} failed: {e}; msg {:?} hdr {:#x} walk {walk:?}",
                msg.mtype, h.0
            )
        });
        self.stats.pp.merge(&run_stats);

        if let Some(pre) = pre {
            let emu_out: Vec<Outgoing> = sink
                .effects()
                .iter()
                .filter_map(|te| effect_to_outgoing(&te.kind, self.node))
                .collect();
            let verdict = flash_check::diff_invocation(
                &msg,
                pre,
                &self.proto,
                &emu_out,
                handler,
                self.node.0,
            );
            let st = self.oracle.as_mut().expect("oracle enabled");
            st.checked += 1;
            if let Some(v) = verdict {
                st.violations.push(v);
            }
        }

        let mut drift = pre_drift;
        let mut used_mem_data = false;
        for te in sink.effects() {
            let t_e = pp_start + te.offset + drift;
            match te.kind {
                EffectKind::Mdc(m) => {
                    // The fill goes first (the PP is stalled on it); the
                    // dirty victim's writeback is posted behind it.
                    let r = self.mem.request(t_e);
                    if m.victim_writeback.is_some() {
                        self.mem.request(t_e);
                    }
                    let penalty = (r.first_dword - t_e) + self.timings.mdc_fill_extra;
                    drift += penalty;
                    self.stats.mdc_stall_cycles += penalty;
                }
                EffectKind::MemOp { .. } | EffectKind::Send(_) => {
                    let Some(out) = effect_to_outgoing(&te.kind, self.node) else {
                        continue;
                    };
                    match out {
                        Outgoing::MemRead(_) => {
                            let r = self.mem.request(t_e);
                            drift += r.accept - t_e; // PP stalls for queue space
                            data_mem = Some(r.first_dword);
                        }
                        Outgoing::MemWrite(_) => {
                            let r = self.mem.request(t_e);
                            drift += r.accept - t_e;
                        }
                        Outgoing::Net(m) => {
                            let data = self.data_ready(
                                m.with_data,
                                msg.with_data,
                                arrival,
                                data_mem,
                                &mut used_mem_data,
                            );
                            let header = t_e + self.timings.outbox + self.timings.ni_out;
                            let at = match data {
                                Some(d) => header.max(d + self.timings.buffer_stage),
                                None => header,
                            };
                            if self.observe {
                                self.obs_parts.push(ObsParts {
                                    inbox: self.timings.inbox_arb + self.timings.jump,
                                    wait,
                                    occ: te.offset,
                                    mem: drift + (at - header),
                                    out: self.timings.outbox + self.timings.ni_out,
                                });
                            }
                            emissions.push(Emission::Net { at, msg: m });
                        }
                        Outgoing::Proc(pm) => {
                            let data = self.data_ready(
                                pm.with_data,
                                msg.with_data,
                                arrival,
                                data_mem,
                                &mut used_mem_data,
                            );
                            let header = t_e + self.timings.outbox + self.timings.pi_out;
                            let base = match data {
                                Some(d) => header.max(d + self.timings.buffer_stage),
                                None => header,
                            };
                            let at = base + self.timings.pi_arb_word;
                            if self.observe {
                                self.obs_parts.push(ObsParts {
                                    inbox: self.timings.inbox_arb + self.timings.jump,
                                    wait,
                                    occ: te.offset,
                                    mem: drift + (base - header),
                                    out: self.timings.outbox
                                        + self.timings.pi_out
                                        + self.timings.pi_arb_word,
                                });
                            }
                            emissions.push(Emission::Proc { at, msg: pm });
                        }
                    }
                }
            }
        }

        let occupied = exec_cycles + drift;
        if self.observe {
            self.obs_invocation = Some(ObsInvocation {
                handler,
                start: pp_start,
                occupied,
            });
        }
        self.pp.record_busy(occupied);
        self.pp_free = pp_start + occupied;
        let e = self.stats.handlers.entry(handler).or_default();
        e.0 += 1;
        e.1 += occupied;
        if msg.spec && !used_mem_data {
            self.stats.spec_useless += 1;
        }
        self.pp_regs = regs;
        self.pp_sink = sink;
    }

    fn data_ready(
        &self,
        send_with_data: bool,
        incoming_had_data: bool,
        arrival: Cycle,
        data_mem: Option<Cycle>,
        used_mem_data: &mut bool,
    ) -> Option<Cycle> {
        if !send_with_data {
            return None;
        }
        if incoming_had_data {
            Some(arrival)
        } else {
            *used_mem_data = true;
            Some(data_mem.unwrap_or(arrival))
        }
    }

    /// Controller statistics.
    pub fn stats(&self) -> &MagicStats {
        &self.stats
    }

    /// Mutable statistics (for the machine layer's classification hooks).
    pub fn stats_mut(&mut self) -> &mut MagicStats {
        &mut self.stats
    }

    /// The node's memory controller.
    pub fn memory(&self) -> &MemController {
        &self.mem
    }

    /// Delays the protocol processor: no handler may begin before
    /// `until`. A fault-injection hook (PP slowdown burst). Timing-only —
    /// the Ideal controller has zero handler occupancy and ignores
    /// `pp_free`, so bursts do not perturb it; this mirrors the paper's
    /// framing where only the flexible controller pays occupancy costs.
    pub fn stall_pp(&mut self, until: Cycle) {
        if until > self.pp_free {
            self.pp_free = until;
        }
    }

    /// Blocks this node's memory controller until `until` (DRAM
    /// refresh-style stall; see [`MemController::block_until`]).
    pub fn block_memory(&mut self, until: Cycle) {
        self.mem.block_until(until);
    }

    /// The MAGIC data cache model, when enabled.
    pub fn mdc(&self) -> Option<&MagicCache> {
        self.mdc.as_ref()
    }

    /// PP occupancy fraction over a run ending at `end`.
    pub fn pp_occupancy(&self, end: Cycle) -> f64 {
        self.pp.occupancy(end)
    }

    /// Total PP busy cycles.
    pub fn pp_busy_cycles(&self) -> u64 {
        self.pp.busy_cycles()
    }

    /// Protocol memory, read-only (directory audits, checked mode).
    pub fn proto_mem(&self) -> &ProtoMem {
        &self.proto
    }

    /// Protocol memory (tests and custom setups).
    pub fn proto_mem_mut(&mut self) -> &mut ProtoMem {
        &mut self.proto
    }

    /// The controller kind.
    pub fn kind(&self) -> ControllerKind {
        self.kind
    }

    /// This chip's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Replaces the jump table (protocol experimentation; the flexibility
    /// showcase).
    pub fn set_jump_table(&mut self, jump: JumpTable) {
        self.jump = jump;
    }

    /// Computes the home-relative directory address for `addr` (inbox
    /// header preprocessing).
    pub fn dir_addr(addr: Addr) -> u64 {
        flash_protocol::dir_addr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_protocol::msg::MsgType;

    fn mk_chip(kind: ControllerKind) -> MagicChip {
        let program = match kind {
            ControllerKind::FlashEmulated => {
                Some(MagicChip::default_program(CodegenOptions::magic()))
            }
            _ => None,
        };
        MagicChip::new(
            kind,
            NodeId(0),
            program,
            JumpTable::dpa_protocol(),
            MemTiming::default(),
            true,
            true,
        )
    }

    /// One [`MagicChip::process_into`] call into a fresh buffer.
    fn process(chip: &mut MagicChip, msg: InMsg, arrival: Cycle) -> Vec<Emission> {
        let mut out = Vec::new();
        chip.process_into(msg, arrival, &mut out);
        out
    }

    fn local_get(addr: u64) -> InMsg {
        InMsg {
            mtype: MsgType::PiGet,
            src: NodeId(0),
            addr: Addr::new(addr),
            aux: 0,
            spec: false,
            self_node: NodeId(0),
            home: NodeId(0),
            diraddr: flash_protocol::dir_addr(Addr::new(addr)),
            with_data: false,
        }
    }

    #[test]
    fn fresh_chip_materializes_at_most_one_protocol_page() {
        // The free list is a preset: only FREE_HEAD's page is written, and
        // a free entry still reads as the eager list would have left it.
        for kind in [ControllerKind::Ideal, ControllerKind::FlashEmulated] {
            let chip = mk_chip(kind);
            let mem = chip.proto_mem();
            assert!(
                mem.resident_pages() <= 1,
                "{kind:?}: {} pages",
                mem.resident_pages()
            );
            let e = flash_protocol::PtrEntry(mem.load64(flash_protocol::dir::entry_addr(4096)));
            assert_eq!(e.next(), 4097);
        }
    }

    #[test]
    fn ideal_local_read_clean_takes_24_cycles_total() {
        // Paper Table 3.3: ideal local clean read = 24 cycles, of which
        // 7 are the processor-side path (miss detect 5 + bus 1 + PI in 1).
        let mut chip = mk_chip(ControllerKind::Ideal);
        let ems = process(&mut chip, local_get(0x1000), Cycle::new(7));
        assert_eq!(ems.len(), 1);
        match ems[0] {
            Emission::Proc { at, msg } => {
                assert_eq!(msg.mtype, MsgType::PPut);
                assert_eq!(at, Cycle::new(24), "paper Table 3.3");
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flash_local_read_clean_takes_27_cycles_total() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        let ems = process(&mut chip, local_get(0x1000), Cycle::new(7));
        let at = match ems[..] {
            [Emission::Proc { at, msg }] => {
                assert_eq!(msg.mtype, MsgType::PPut);
                at
            }
            ref other => panic!("unexpected {other:?}"),
        };
        // Paper Table 3.3: 27 cycles. Table 3.3 assumes warm MAGIC caches
        // (the steady state: MDC miss rate < 1%), so warm the icache and
        // the MDC line holding this header first with a neighbouring line.
        let mut warm = mk_chip(ControllerKind::FlashEmulated);
        process(&mut warm, local_get(0x1080), Cycle::new(7));
        let ems2 = process(&mut warm, local_get(0x1000), Cycle::new(1007));
        let at2 = ems2[0].at().raw() - 1000;
        assert!(
            (25..=29).contains(&at2),
            "warm FLASH local clean read took {at2} (cold {at})"
        );
    }

    #[test]
    fn speculation_counts_useless_reads() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        // Make the line dirty-remote so the read forwards (spec useless).
        let da = flash_protocol::dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(chip.proto_mem_mut());
            d.set_header(
                da,
                flash_protocol::DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(3)),
            );
        }
        let ems = process(&mut chip, local_get(0x2000), Cycle::new(7));
        assert!(matches!(ems[0], Emission::Net { msg, .. } if msg.mtype == MsgType::NFwdGet));
        assert_eq!(chip.stats().spec_issued, 1);
        assert_eq!(chip.stats().spec_useless, 1);
        // A clean read is useful speculation.
        process(&mut chip, local_get(0x3000), Cycle::new(100));
        assert_eq!(chip.stats().spec_issued, 2);
        assert_eq!(chip.stats().spec_useless, 1);
    }

    #[test]
    fn pp_occupancy_accumulates_and_serializes() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        process(&mut chip, local_get(0x1000), Cycle::new(7));
        let busy1 = chip.pp_busy_cycles();
        assert!(busy1 > 0);
        // A second message arriving while the PP is busy is delayed.
        let ems = process(&mut chip, local_get(0x5000), Cycle::new(7));
        assert!(ems[0].at() > Cycle::new(27));
        assert!(chip.pp_busy_cycles() > busy1);
    }

    #[test]
    fn cost_table_mode_charges_table_3_4() {
        let mut chip = mk_chip(ControllerKind::FlashCostTable);
        process(&mut chip, local_get(0x1000), Cycle::new(7));
        assert_eq!(chip.pp_busy_cycles(), 11, "read from memory = 11 cycles");
        let (count, cycles) = chip.stats().handlers["pi_get_local"];
        assert_eq!((count, cycles), (1, 11));
    }

    #[test]
    fn classification_counts_reads() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        let m = local_get(0x1000);
        chip.classify_read(&m, NodeId(0));
        assert_eq!(chip.stats().read_class.local_clean, 1);
        // Dirty remote:
        let da = flash_protocol::dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(chip.proto_mem_mut());
            d.set_header(
                da,
                flash_protocol::DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(3)),
            );
        }
        let m2 = local_get(0x2000);
        chip.classify_read(&m2, NodeId(5));
        assert_eq!(chip.stats().read_class.remote_dirty_remote, 1);
        chip.classify_read(&m2, NodeId(0));
        assert_eq!(chip.stats().read_class.local_dirty_remote, 1);
    }

    #[test]
    fn inbox_wait_accumulates_when_pp_is_busy() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        process(&mut chip, local_get(0x1000), Cycle::new(7));
        assert_eq!(
            chip.stats().inbox_wait_cycles,
            0,
            "first message never waits"
        );
        // Arrives while the PP is still busy with the first.
        process(&mut chip, local_get(0x5000), Cycle::new(7));
        assert!(chip.stats().inbox_wait_cycles > 0);
        assert!(chip.stats().inbox_wait_max >= chip.stats().inbox_wait_cycles / 2);
    }

    /// NaN-guard pin (Issue 5 satellite): a zero-length run must report
    /// 0.0 PP occupancy, not NaN, even after the PP accumulated busy
    /// cycles.
    #[test]
    fn pp_occupancy_zero_length_run_is_zero_not_nan() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        process(&mut chip, local_get(0x1000), Cycle::new(7));
        assert!(chip.pp_busy_cycles() > 0);
        let occ = chip.pp_occupancy(Cycle::ZERO);
        assert_eq!(occ, 0.0);
        assert!(!occ.is_nan());
    }

    /// The observability invariant: for every emission of an observed
    /// `process` call, the recorded parts sum exactly to
    /// `emission.at() − arrival`, on all three controller kinds, including
    /// under PP queueing and MDC stalls.
    #[test]
    fn obs_parts_sum_exactly_to_emission_minus_arrival() {
        for kind in [
            ControllerKind::FlashEmulated,
            ControllerKind::FlashCostTable,
            ControllerKind::Ideal,
        ] {
            let mut chip = mk_chip(kind);
            chip.set_observe(true);
            // Cold then warm, plus a back-to-back pair to exercise waits.
            for (addr, t) in [(0x1000, 7), (0x1080, 7), (0x5000, 8), (0x1000, 500)] {
                let arrival = Cycle::new(t);
                let ems = process(&mut chip, local_get(addr), arrival);
                let parts = chip.obs_parts();
                assert_eq!(ems.len(), parts.len(), "{kind:?}: parallel vectors");
                for (e, p) in ems.iter().zip(parts) {
                    assert_eq!(
                        p.total(),
                        e.at() - arrival,
                        "{kind:?} @{addr:#x}: {p:?} vs {:?}",
                        e.at()
                    );
                }
                let inv = chip.obs_invocation().expect("invocation recorded");
                if kind == ControllerKind::Ideal {
                    assert_eq!(inv.occupied, 0, "ideal PP takes zero time");
                }
            }
        }
    }

    /// Observation must be timing-invisible: the same message sequence
    /// produces identical emissions with and without `set_observe`.
    #[test]
    fn observe_does_not_perturb_chip_timing() {
        for kind in [
            ControllerKind::FlashEmulated,
            ControllerKind::FlashCostTable,
            ControllerKind::Ideal,
        ] {
            let mut plain = mk_chip(kind);
            let mut observed = mk_chip(kind);
            observed.set_observe(true);
            for (addr, t) in [(0x1000, 7), (0x2000, 9), (0x1000, 400)] {
                let a = process(&mut plain, local_get(addr), Cycle::new(t));
                let b = process(&mut observed, local_get(addr), Cycle::new(t));
                assert_eq!(a, b, "{kind:?}: emissions must match");
            }
            assert_eq!(plain.pp_busy_cycles(), observed.pp_busy_cycles());
        }
    }

    /// The backend is a host-performance knob: the same message sequence
    /// must produce identical emissions, busy cycles, and PP statistics
    /// under the emulator and the translated fast path, including remote
    /// traffic, MDC misses, and back-to-back PP queueing.
    #[test]
    fn backends_produce_identical_emissions() {
        let mut emu = mk_chip(ControllerKind::FlashEmulated);
        let mut fast = mk_chip(ControllerKind::FlashEmulated);
        emu.set_pp_backend(PpBackend::Emulated);
        fast.set_pp_backend(PpBackend::Translated);

        let remote = |addr: u64, mtype: MsgType, src: u16| InMsg {
            mtype,
            src: NodeId(src),
            addr: Addr::new(addr),
            aux: flash_protocol::fields::aux::pack(NodeId(src), mtype, NodeId(0)),
            spec: false,
            self_node: NodeId(0),
            home: NodeId(0),
            diraddr: flash_protocol::dir_addr(Addr::new(addr)),
            with_data: false,
        };
        let seq = [
            (local_get(0x1000), 7),
            (remote(0x1000, MsgType::NGet, 3), 40),
            (remote(0x1000, MsgType::NGetX, 5), 60),
            (local_get(0x5000), 61), // arrives while the PP is busy
            (remote(0x2000, MsgType::NGet, 2), 300),
            (local_get(0x1000), 900),
        ];
        for (msg, t) in seq {
            let a = process(&mut emu, msg, Cycle::new(t));
            let b = process(&mut fast, msg, Cycle::new(t));
            assert_eq!(a, b, "emissions diverged at cycle {t}");
        }
        assert_eq!(emu.pp_busy_cycles(), fast.pp_busy_cycles());
        assert_eq!(emu.stats().pp, fast.stats().pp, "RunStats diverged");
        assert_eq!(emu.stats().handlers, fast.stats().handlers);
        assert_eq!(emu.stats().mdc_stall_cycles, fast.stats().mdc_stall_cycles);
        assert_eq!(
            emu.proto_mem_mut().first_difference(fast.proto_mem_mut()),
            None,
            "protocol memories diverged"
        );
    }

    #[test]
    fn mdc_misses_stall_the_pp() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        // First access to a header line misses in the MDC.
        process(&mut chip, local_get(0x1000), Cycle::new(7));
        assert!(chip.stats().mdc_stall_cycles > 0);
        assert!(chip.mdc().unwrap().read_misses() > 0);
        let stall1 = chip.stats().mdc_stall_cycles;
        // Same header line again: hit, no new stall.
        process(&mut chip, local_get(0x1080), Cycle::new(200));
        assert_eq!(chip.stats().mdc_stall_cycles, stall1);
    }
}
