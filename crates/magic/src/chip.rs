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
    /// The paper's idealized hardwired machine: protocol operations take
    /// zero time; queues are infinite; the directory is an oracle.
    Ideal,
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

/// Per-handler invocation counts and total occupancy cycles, indexed by
/// the jump table's handler ids. Iterating yields `(name, (invocations,
/// cycles))` for the handlers that ran, in handler-id order; consumers
/// aggregate into sorted maps.
#[derive(Clone, Default)]
pub struct HandlerStats {
    names: Arc<[&'static str]>,
    /// Sized to `names` at the first invocation.
    counts: Vec<(u64, u64)>,
}

impl HandlerStats {
    fn new(names: Arc<[&'static str]>) -> Self {
        HandlerStats {
            names,
            counts: Vec::new(),
        }
    }

    /// Counts one invocation of handler `id` that occupied the PP for
    /// `cycles`.
    fn record(&mut self, id: usize, cycles: u64) {
        if self.counts.is_empty() {
            self.counts = vec![(0, 0); self.names.len()];
        }
        let c = &mut self.counts[id];
        c.0 += 1;
        c.1 += cycles;
    }

    /// `(name, (invocations, cycles))` of every handler that ran.
    pub fn iter(&self) -> HandlersRan<'_> {
        self.names.iter().zip(&self.counts).filter(|(_, c)| c.0 > 0)
    }

    /// `(invocations, cycles)` of every handler that ran.
    pub fn values(&self) -> impl Iterator<Item = &(u64, u64)> {
        self.iter().map(|(_, c)| c)
    }
}

/// The iterator of [`HandlerStats::iter`].
pub type HandlersRan<'a> = std::iter::Filter<
    std::iter::Zip<std::slice::Iter<'a, &'static str>, std::slice::Iter<'a, (u64, u64)>>,
    fn(&(&'a &'static str, &'a (u64, u64))) -> bool,
>;

impl<'a> IntoIterator for &'a HandlerStats {
    type Item = (&'a &'static str, &'a (u64, u64));
    type IntoIter = HandlersRan<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for HandlerStats {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for HandlerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
    pub handlers: HandlerStats,
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
/// `parts.total() == emission.at() − arrival` holds exactly for both
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
    /// instruction offset on the emulated PP, 0 on the ideal controller).
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

/// Capacity of the MAGIC instruction cache, in bytes (paper §5.3).
const ICACHE_BYTES: u64 = 32 * 1024;

/// Line size of the MAGIC instruction cache, in bytes.
const ICACHE_LINE_BYTES: u64 = 128;

/// Bytes of one PP issue pair: the PP program counter counts pairs.
const PAIR_BYTES: u64 = 8;

/// The program lines a chip's PP has fetched into the MAGIC instruction
/// cache, one bit per 128-byte line of its 32 KB.
///
/// The cache is 2-way set associative, so a program of at most 32 KB maps
/// at most two of its lines to any set and never evicts one: a line
/// misses exactly on its first fetch. [`MagicChip::new`] asserts that the
/// program fits.
#[derive(Debug, Clone, Copy, Default)]
struct FetchedLines([u64; (ICACHE_BYTES / ICACHE_LINE_BYTES / 64) as usize]);

impl FetchedLines {
    /// Fetches the line holding pair `pc`; returns `true` on the line's
    /// first fetch (a cold miss).
    fn fetch(&mut self, pc: usize) -> bool {
        let line = pc as u64 * PAIR_BYTES / ICACHE_LINE_BYTES;
        let (word, bit) = ((line / 64) as usize, 1 << (line % 64));
        let miss = self.0[word] & bit == 0;
        self.0[word] |= bit;
        miss
    }
}

/// The inbox's dispatch: the jump table, the handler program, and every
/// handler id's entry pair. Resolved once per (program, jump table) and
/// shared by every chip of a machine.
#[derive(Debug)]
pub struct Dispatch {
    jump: JumpTable,
    program: Option<Arc<Program>>,
    /// Handler id → entry pair index; `None` where the program lacks the
    /// handler (an invocation of it panics).
    entry_pcs: Box<[Option<usize>]>,
}

impl Dispatch {
    /// Resolves `jump`'s handlers against `program` (`None` for the
    /// ideal controller, which runs the native protocol).
    pub fn new(jump: JumpTable, program: Option<Arc<Program>>) -> Self {
        let entry_pcs = match &program {
            Some(p) => jump.names().iter().map(|name| p.entry(name)).collect(),
            None => Box::default(),
        };
        Dispatch {
            jump,
            program,
            entry_pcs,
        }
    }

    /// The jump table.
    pub fn jump(&self) -> &JumpTable {
        &self.jump
    }
}

/// What an observed [`MagicChip::process_into`] call records.
#[derive(Debug, Default)]
struct ObsRecord {
    on: bool,
    parts: Vec<ObsParts>,
    invocation: Option<ObsInvocation>,
}

/// Host-side buffers of [`MagicChip::process_into`]: every call
/// overwrites them and nothing reads them across calls, so one scratch
/// serves every chip of a machine. Reusing it keeps the hot path free of
/// allocations.
#[derive(Debug, Default)]
pub struct MagicScratch {
    regs: Regs,
    sink: EffectSink,
    out: Vec<Outgoing>,
    obs: ObsRecord,
}

impl MagicScratch {
    /// An empty scratch. With `observe` on, every
    /// [`MagicChip::process_into`] call through it leaves one
    /// [`ObsParts`] per emission in [`MagicScratch::obs_parts`] and the
    /// invocation record in [`MagicScratch::obs_invocation`]. Recording is
    /// timing-invisible: it only appends to side buffers.
    pub fn new(observe: bool) -> Self {
        MagicScratch {
            obs: ObsRecord {
                on: observe,
                ..ObsRecord::default()
            },
            ..MagicScratch::default()
        }
    }

    /// Per-emission attributions from the most recent
    /// [`MagicChip::process_into`] call (parallel to its emissions; empty
    /// unless observation is on).
    pub fn obs_parts(&self) -> &[ObsParts] {
        &self.obs.parts
    }

    /// The handler invocation from the most recent
    /// [`MagicChip::process_into`] call (`None` unless observation is on).
    pub fn obs_invocation(&self) -> Option<&ObsInvocation> {
        self.obs.invocation.as_ref()
    }
}

/// One node's MAGIC controller (or its idealized stand-in). It holds the
/// node's simulated state only; host-side buffers live in a
/// [`MagicScratch`] and program-derived tables in the shared
/// [`Dispatch`].
pub struct MagicChip {
    kind: ControllerKind,
    node: NodeId,
    timings: MagicTimings,
    dispatch: Arc<Dispatch>,
    backend: PpBackend,
    translated: Option<Arc<Translated>>,
    proto: ProtoMem,
    mdc: Option<MagicCache>,
    icache: FetchedLines,
    mem: MemController,
    pp: OccupancyTracker,
    pp_free: Cycle,
    speculation: bool,
    stats: MagicStats,
    oracle: Option<flash_check::OracleState>,
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

/// Where the data of one handler invocation's outgoing messages comes
/// from: the incoming message's data, else the latest memory read.
struct DataSource {
    /// The incoming message carried data.
    incoming: bool,
    /// When incoming data is ready (also the fallback without a memory
    /// read).
    base: Cycle,
    /// First double word of the latest memory read, if any.
    mem: Option<Cycle>,
    /// Some message took the memory data (speculation accounting).
    used_mem: bool,
}

impl DataSource {
    fn new(incoming: bool, base: Cycle, mem: Option<Cycle>) -> Self {
        DataSource {
            incoming,
            base,
            mem,
            used_mem: false,
        }
    }

    /// When the data of a message is ready (`None` if it carries none).
    fn ready(&mut self, with_data: bool) -> Option<Cycle> {
        if !with_data {
            None
        } else if self.incoming {
            Some(self.base)
        } else {
            self.used_mem = true;
            Some(self.mem.unwrap_or(self.base))
        }
    }
}

impl MagicChip {
    /// Builds a controller of the given kind.
    ///
    /// `dispatch` must hold a program for
    /// [`ControllerKind::FlashEmulated`] (obtain it from
    /// [`flash_protocol::handlers::compile_shared`], which compiles once
    /// per codegen variant and shares it across nodes, machines, and
    /// worker threads).
    ///
    /// # Panics
    ///
    /// Panics if an emulated controller has no program, or if the
    /// program does not fit the 32 KB MAGIC instruction cache (paper
    /// §5.3).
    pub fn new(
        kind: ControllerKind,
        node: NodeId,
        dispatch: Arc<Dispatch>,
        mem_timing: MemTiming,
        speculation: bool,
        mdc_enabled: bool,
    ) -> Self {
        assert!(
            !(kind == ControllerKind::FlashEmulated && dispatch.program.is_none()),
            "emulated controller needs a compiled handler program"
        );
        if let Some(p) = &dispatch.program {
            assert!(
                p.static_bytes() <= ICACHE_BYTES,
                "handler program is {} bytes; it must fit the {ICACHE_BYTES}-byte MAGIC \
                 instruction cache (paper §5.3)",
                p.static_bytes()
            );
        }
        let mut proto = ProtoMem::new();
        Directory::init_free_list(&mut proto, DEFAULT_PS_CAPACITY);
        let mem_queue = (kind == ControllerKind::FlashEmulated).then_some(1);
        let stats = MagicStats {
            handlers: HandlerStats::new(dispatch.jump.names().clone()),
            ..MagicStats::default()
        };
        let backend = PpBackend::default();
        let translated = (kind == ControllerKind::FlashEmulated
            && backend == PpBackend::Translated)
            .then(|| translate_shared(dispatch.program.as_ref().expect("checked above")));
        MagicChip {
            kind,
            node,
            timings: if kind == ControllerKind::Ideal {
                MagicTimings::ideal()
            } else {
                MagicTimings::flash()
            },
            dispatch,
            backend,
            translated,
            proto,
            mdc: (mdc_enabled && kind == ControllerKind::FlashEmulated)
                .then(|| MagicCache::new(CacheGeometry::mdc())),
            icache: FetchedLines::default(),
            mem: MemController::new(mem_timing, mem_queue),
            pp: OccupancyTracker::new(),
            pp_free: Cycle::ZERO,
            speculation,
            stats,
            oracle: None,
        }
    }

    /// Selects the PP execution backend. Only meaningful for
    /// [`ControllerKind::FlashEmulated`]; the translation is shared
    /// process-wide and built on first use.
    pub fn set_pp_backend(&mut self, backend: PpBackend) {
        self.backend = backend;
        if backend == PpBackend::Translated && self.translated.is_none() {
            if let Some(p) = &self.dispatch.program {
                self.translated = Some(translate_shared(p));
            }
        }
    }

    /// The active PP execution backend.
    pub fn pp_backend(&self) -> PpBackend {
        self.backend
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
    /// `out` is cleared first and reused across calls, as is `scratch`,
    /// so a steady-state event loop pays zero allocations per message
    /// once the buffers have grown to the protocol's maximum fan-out.
    pub fn process_into(
        &mut self,
        mut msg: InMsg,
        arrival: Cycle,
        scratch: &mut MagicScratch,
        out: &mut Vec<Emission>,
    ) {
        out.clear();
        self.stats.messages += 1;
        if scratch.obs.on {
            scratch.obs.parts.clear();
            scratch.obs.invocation = None;
        }
        let local = msg.home == self.node;
        let slot = self.dispatch.jump.slot(msg.mtype, local);
        let t_ready = arrival + self.timings.inbox_arb + self.timings.jump;

        // Speculative memory initiation (inbox-issued, before the PP runs).
        // A full memory queue forfeits the opportunity instead of stalling
        // the inbox (Table 3.1's queue limit, without head-of-line
        // blocking the whole dispatch pipeline).
        let mut data_mem: Option<Cycle> = None;
        if self.kind == ControllerKind::FlashEmulated
            && self.speculation
            && slot.speculative
            && local
        {
            if let Some(r) = self.mem.try_request(t_ready) {
                data_mem = Some(r.first_dword);
                msg.spec = true;
                self.stats.spec_issued += 1;
            }
        }

        match self.kind {
            ControllerKind::Ideal => {
                let handler = self.dispatch.jump.names()[slot.handler as usize];
                self.process_native(msg, t_ready, data_mem, handler, scratch, out)
            }
            ControllerKind::FlashEmulated => {
                self.process_emulated(msg, arrival, data_mem, slot.handler, scratch, out)
            }
        }
    }

    /// Ideal processing: the native protocol runs in zero time at `start`.
    fn process_native(
        &mut self,
        msg: InMsg,
        start: Cycle,
        data_mem: Option<Cycle>,
        handler: &'static str,
        scratch: &mut MagicScratch,
        emissions: &mut Vec<Emission>,
    ) {
        let MagicScratch { out, obs, .. } = scratch;
        out.clear();
        let res = native::handle(&msg, &mut self.proto, &CostTable::paper(), out);
        debug_assert_eq!(res.handler, handler, "jump table vs native dispatch");
        if obs.on {
            obs.invocation = Some(ObsInvocation {
                handler,
                start,
                occupied: 0,
            });
        }
        let mut data = DataSource::new(msg.with_data, start, data_mem);
        for o in out.drain(..) {
            match o {
                Outgoing::MemRead(_) => {
                    data.mem = Some(self.mem.request(start).first_dword);
                }
                Outgoing::MemWrite(_) => {
                    self.mem.request(start);
                }
                send => self.emit(send, start, &mut data, ObsParts::default(), obs, emissions),
            }
        }
        if msg.spec && !data.used_mem {
            self.stats.spec_useless += 1;
        }
    }

    /// Detailed processing on the emulated PP.
    fn process_emulated(
        &mut self,
        msg: InMsg,
        arrival: Cycle,
        data_mem: Option<Cycle>,
        id: u16,
        scratch: &mut MagicScratch,
        emissions: &mut Vec<Emission>,
    ) {
        let (id, handler) = (id as usize, self.dispatch.jump.names()[id as usize]);
        // Borrow (not clone) the shared program: an `Arc` bump per
        // invocation is an atomic shared by every machine in the process.
        let program = self
            .dispatch
            .program
            .as_ref()
            .expect("emulated mode has a program");
        let entry_pc = self.dispatch.entry_pcs[id]
            .unwrap_or_else(|| panic!("program lacks handler {handler}"));
        let t_ready = arrival + self.timings.inbox_arb + self.timings.jump;
        let pp_start = t_ready.max(self.pp_free);
        let wait = pp_start - t_ready;
        self.stats.inbox_wait_cycles += wait;
        self.stats.inbox_wait_max = self.stats.inbox_wait_max.max(wait);

        // Instruction fetch: only cold misses are possible, because
        // `MagicChip::new` asserts that the program fits the 32 KB MAGIC
        // instruction cache (paper §5.3).
        let mut pre_drift = 0u64;
        if self.icache.fetch(entry_pc) {
            self.stats.icache_cold_misses += 1;
            let r = self.mem.request(pp_start);
            pre_drift += (r.first_dword - pp_start) + self.timings.mdc_fill_extra;
        }

        // Checked mode: snapshot the protocol memory so the oracle can
        // replay this invocation through the native protocol afterwards.
        let pre = self.oracle.as_ref().map(|_| self.proto.clone());

        let MagicScratch {
            regs, sink, obs, ..
        } = scratch;
        let res = {
            let fields = fields_of(&msg);
            let mut env = MdcEnv::new(&mut self.proto, self.mdc.as_mut(), fields);
            match (self.backend, self.translated.as_ref()) {
                (PpBackend::Translated, Some(t)) => {
                    t.run_into(entry_pc, &mut env, emu::DEFAULT_PAIR_BUDGET, regs, sink)
                }
                _ => emu::run_into(
                    program,
                    entry_pc,
                    &mut env,
                    emu::DEFAULT_PAIR_BUDGET,
                    regs,
                    sink,
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
        let mut data = DataSource::new(msg.with_data, arrival, data_mem);
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
                            data.mem = Some(r.first_dword);
                        }
                        Outgoing::MemWrite(_) => {
                            let r = self.mem.request(t_e);
                            drift += r.accept - t_e;
                        }
                        send => {
                            // PP stalls so far count as memory cycles.
                            let parts = ObsParts {
                                wait,
                                occ: te.offset,
                                mem: drift,
                                ..ObsParts::default()
                            };
                            self.emit(send, t_e, &mut data, parts, obs, emissions);
                        }
                    }
                }
            }
        }

        let occupied = exec_cycles + drift;
        if obs.on {
            obs.invocation = Some(ObsInvocation {
                handler,
                start: pp_start,
                occupied,
            });
        }
        self.pp.record_busy(occupied);
        self.pp_free = pp_start + occupied;
        self.stats.handlers.record(id, occupied);
        if msg.spec && !data.used_mem {
            self.stats.spec_useless += 1;
        }
    }

    /// The one rule that times a message leaving the chip, for both
    /// controllers. Its header passes the outbox and the NI (network) or
    /// the PI (processor) after the handler produces it at `t_e`; a
    /// message carrying data also waits for that data plus one buffer
    /// stage; a processor message then crosses the bus. `parts` carries
    /// the caller's wait, occupancy and memory cycles so far; the rest of
    /// the attribution is filled in here and recorded when observed.
    fn emit(
        &self,
        send: Outgoing,
        t_e: Cycle,
        data: &mut DataSource,
        mut parts: ObsParts,
        obs: &mut ObsRecord,
        emissions: &mut Vec<Emission>,
    ) {
        let t = self.timings;
        let mut stamp = |with_data: bool, out: u64, bus: u64| {
            let header = t_e + out;
            let ready = match data.ready(with_data) {
                Some(d) => header.max(d + t.buffer_stage),
                None => header,
            };
            if obs.on {
                parts.inbox = t.inbox_arb + t.jump;
                parts.mem += ready - header;
                parts.out = out + bus;
                obs.parts.push(parts);
            }
            ready + bus
        };
        emissions.push(match send {
            Outgoing::Net(msg) => Emission::Net {
                at: stamp(msg.with_data, t.outbox + t.ni_out, 0),
                msg,
            },
            Outgoing::Proc(msg) => Emission::Proc {
                at: stamp(msg.with_data, t.outbox + t.pi_out, t.pi_arb_word),
                msg,
            },
            Outgoing::MemRead(_) | Outgoing::MemWrite(_) => {
                unreachable!("memory operations leave no emission")
            }
        });
    }

    /// Controller statistics.
    pub fn stats(&self) -> &MagicStats {
        &self.stats
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
            Arc::new(Dispatch::new(JumpTable::dpa_protocol(), program)),
            MemTiming::default(),
            true,
            true,
        )
    }

    /// One unobserved [`MagicChip::process_into`] call into fresh buffers.
    fn process(chip: &mut MagicChip, msg: InMsg, arrival: Cycle) -> Vec<Emission> {
        process_with(chip, msg, arrival, &mut MagicScratch::default())
    }

    /// One [`MagicChip::process_into`] call through `scratch`.
    fn process_with(
        chip: &mut MagicChip,
        msg: InMsg,
        arrival: Cycle,
        scratch: &mut MagicScratch,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        chip.process_into(msg, arrival, scratch, &mut out);
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
    /// `emission.at() − arrival`, on both controller kinds, including
    /// under PP queueing and MDC stalls.
    #[test]
    fn obs_parts_sum_exactly_to_emission_minus_arrival() {
        for kind in [ControllerKind::FlashEmulated, ControllerKind::Ideal] {
            let mut chip = mk_chip(kind);
            let mut scratch = MagicScratch::new(true);
            // Cold then warm, plus a back-to-back pair to exercise waits.
            for (addr, t) in [(0x1000, 7), (0x1080, 7), (0x5000, 8), (0x1000, 500)] {
                let arrival = Cycle::new(t);
                let ems = process_with(&mut chip, local_get(addr), arrival, &mut scratch);
                let parts = scratch.obs_parts();
                assert_eq!(ems.len(), parts.len(), "{kind:?}: parallel vectors");
                for (e, p) in ems.iter().zip(parts) {
                    assert_eq!(
                        p.total(),
                        e.at() - arrival,
                        "{kind:?} @{addr:#x}: {p:?} vs {:?}",
                        e.at()
                    );
                }
                let inv = scratch.obs_invocation().expect("invocation recorded");
                if kind == ControllerKind::Ideal {
                    assert_eq!(inv.occupied, 0, "ideal PP takes zero time");
                }
            }
        }
    }

    /// Observation must be timing-invisible: the same message sequence
    /// produces identical emissions through an observing scratch and a
    /// plain one.
    #[test]
    fn observe_does_not_perturb_chip_timing() {
        for kind in [ControllerKind::FlashEmulated, ControllerKind::Ideal] {
            let mut plain = mk_chip(kind);
            let mut observed = mk_chip(kind);
            let mut scratch = MagicScratch::new(true);
            for (addr, t) in [(0x1000, 7), (0x2000, 9), (0x1000, 400)] {
                let a = process(&mut plain, local_get(addr), Cycle::new(t));
                let b = process_with(&mut observed, local_get(addr), Cycle::new(t), &mut scratch);
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
    fn handler_stats_list_only_invoked_handlers() {
        let mut chip = mk_chip(ControllerKind::FlashEmulated);
        assert_eq!(chip.stats().handlers.iter().count(), 0);
        process(&mut chip, local_get(0x1000), Cycle::new(7));
        process(&mut chip, local_get(0x5000), Cycle::new(500));
        let busy = chip.pp_busy_cycles();
        let rows: Vec<(&str, (u64, u64))> = (&chip.stats().handlers)
            .into_iter()
            .map(|(&name, &counts)| (name, counts))
            .collect();
        assert_eq!(rows, [("pi_get_local", (2, busy))]);
        assert_eq!(
            chip.stats().handlers.values().collect::<Vec<_>>(),
            [&(2, busy)]
        );
        // The ideal controller has no PP occupancy to record.
        let mut ideal = mk_chip(ControllerKind::Ideal);
        process(&mut ideal, local_get(0x1000), Cycle::new(7));
        assert_eq!(ideal.stats().handlers.iter().count(), 0);
    }

    /// The fetched-lines set is exact: over random entry-pair sequences
    /// into programs of 1 B to 32 KB, every fetch hits or misses as a 32
    /// KB, 2-way, 128-byte-line tag store would have it.
    #[test]
    fn fetched_lines_equal_the_tag_store_model() {
        let geometry = CacheGeometry {
            size_bytes: ICACHE_BYTES,
            ways: 2,
            line_bytes: ICACHE_LINE_BYTES,
        };
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut sizes = vec![1, PAIR_BYTES, ICACHE_LINE_BYTES + 1, ICACHE_BYTES];
        sizes.extend((0..60).map(|_| 1 + next() % ICACHE_BYTES));
        for bytes in sizes {
            let pairs = bytes.div_ceil(PAIR_BYTES);
            let (mut fetched, mut tags) = (FetchedLines::default(), MagicCache::new(geometry));
            for _ in 0..400 {
                let pc = (next() % pairs) as usize;
                let tag_miss = matches!(
                    tags.access(pc as u64 * PAIR_BYTES, false),
                    flash_mem::Access::Miss { .. }
                );
                assert_eq!(fetched.fetch(pc), tag_miss, "{bytes} B program, pair {pc}");
            }
        }
    }

    fn program_of(bytes: u64) -> Arc<Program> {
        let nop = flash_pp::Pair {
            a: flash_pp::Instr::Nop,
            b: flash_pp::Instr::Nop,
        };
        let pairs = vec![nop; (bytes / PAIR_BYTES) as usize];
        Arc::new(Program::new(pairs, Vec::new(), Default::default()))
    }

    fn chip_running(program: Arc<Program>) -> MagicChip {
        MagicChip::new(
            ControllerKind::FlashEmulated,
            NodeId(0),
            Arc::new(Dispatch::new(JumpTable::dpa_protocol(), Some(program))),
            MemTiming::default(),
            true,
            true,
        )
    }

    #[test]
    fn a_32_kb_program_fits() {
        let p = program_of(ICACHE_BYTES);
        assert_eq!(p.static_bytes(), ICACHE_BYTES);
        chip_running(p);
    }

    #[test]
    #[should_panic(expected = "must fit the 32768-byte MAGIC instruction cache (paper §5.3)")]
    fn a_program_over_32_kb_panics() {
        chip_running(program_of(ICACHE_BYTES + PAIR_BYTES));
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
