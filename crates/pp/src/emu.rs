//! The PP instruction-set emulator (the PPsim role).
//!
//! "PPsim, the instruction set emulator for the PP, executes the handlers
//! and reports accurate instruction usage statistics and dynamic cycle
//! counts" (paper §3.3). [`run`] executes one handler from its entry point
//! to its `switch` instruction against an [`Env`] that supplies message
//! header fields and protocol memory, and returns the handler's dynamic
//! cycle count, its instruction statistics, and a timeline of *effects*
//! (message sends, memory operations, MAGIC data cache misses) with their
//! cycle offsets. The machine model replays that timeline on the event
//! queue, inserting stalls for contended resources.

use crate::isa::{
    field_mask, AluOp, FieldOp, Instr, MemOpKind, MemSize, Reg, SendTarget, NUM_REGS,
};
use crate::prog::Program;
use std::error::Error;
use std::fmt;

/// An outgoing message composed by a `send` instruction, in raw register
/// form. The protocol crate gives meaning to `mtype` and `aux`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutMsg {
    /// Where the message goes (local processor or network).
    pub target: SendTarget,
    /// Whether a data buffer travels with the header.
    pub with_data: bool,
    /// Raw message type.
    pub mtype: u64,
    /// Destination node (network sends only).
    pub dest: u64,
    /// Address carried in the header.
    pub addr: u64,
    /// Auxiliary header field (ack counts, forwarding info, ...).
    pub aux: u64,
}

/// A MAGIC data cache miss reported by the environment on a PP load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdcMiss {
    /// Protocol-memory line that must be fetched.
    pub line: u64,
    /// Whether the access was a store.
    pub write: bool,
    /// Dirty victim line that must be written back first, if any.
    pub victim_writeback: Option<u64>,
}

/// One externally visible action of a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// An outgoing message.
    Send(OutMsg),
    /// A memory operation on a 128-byte data line.
    MemOp {
        /// Read into or write from a data buffer.
        kind: MemOpKind,
        /// Byte address of the line.
        addr: u64,
    },
    /// A MAGIC data cache miss (stalls the PP; occupies the memory system).
    Mdc(MdcMiss),
}

/// An effect annotated with the execution-cycle offset (from handler start)
/// at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEffect {
    /// Pairs completed before this effect issued.
    pub offset: u64,
    /// The action itself.
    pub kind: EffectKind,
}

/// Dynamic instruction statistics for one or more handler runs
/// (the raw material for paper Table 5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Dual-issue pairs executed (equals execution cycles).
    pub pairs: u64,
    /// Non-NOP instructions executed.
    pub instrs: u64,
    /// Special (MAGIC-extension) instructions executed.
    pub special: u64,
    /// ALU + branch instructions executed (denominator for special use).
    pub alu_branch: u64,
    /// PP loads executed.
    pub loads: u64,
    /// PP stores executed.
    pub stores: u64,
    /// MDC misses reported by the environment.
    pub mdc_misses: u64,
    /// Handler invocations accumulated.
    pub invocations: u64,
}

impl RunStats {
    /// Accumulates another run's statistics.
    pub fn merge(&mut self, other: &RunStats) {
        self.pairs += other.pairs;
        self.instrs += other.instrs;
        self.special += other.special;
        self.alu_branch += other.alu_branch;
        self.loads += other.loads;
        self.stores += other.stores;
        self.mdc_misses += other.mdc_misses;
        self.invocations += other.invocations;
    }

    /// Dynamic dual-issue efficiency: non-NOP instructions per pair
    /// (2.0 would be perfect; the paper reports 1.43–1.54).
    pub fn dual_issue_efficiency(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.instrs as f64 / self.pairs as f64
        }
    }

    /// Dynamic fraction of ALU and branch instructions that are special.
    pub fn special_fraction(&self) -> f64 {
        if self.alu_branch == 0 {
            0.0
        } else {
            self.special as f64 / self.alu_branch as f64
        }
    }

    /// Mean instruction pairs per handler invocation.
    pub fn pairs_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.pairs as f64 / self.invocations as f64
        }
    }
}

/// The result of emulating one handler.
#[derive(Debug, Clone, Default)]
pub struct HandlerRun {
    /// Externally visible actions, in issue order with cycle offsets.
    pub effects: Vec<TimedEffect>,
    /// Pure execution cycles (pairs executed); resource stalls are added by
    /// the machine model when replaying `effects`.
    pub exec_cycles: u64,
    /// Instruction statistics for this run.
    pub stats: RunStats,
}

/// A PP register file (`r0`–`r31`, 64 bits each). `r0` is hardwired to
/// zero: writes to it through [`Regs::set`] are discarded. One register
/// file can be reused across handler invocations — [`run_into`] resets it
/// on entry — so the hot path never reallocates.
#[derive(Debug, Clone)]
pub struct Regs([u64; NUM_REGS]);

impl Regs {
    /// A fresh, zeroed register file.
    pub fn new() -> Self {
        Regs([0; NUM_REGS])
    }

    /// Reads a register.
    #[inline]
    pub fn get(&self, r: Reg) -> u64 {
        self.0[r.index()]
    }

    /// Writes a register. Writes to `r0` are discarded.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u64) {
        if r != Reg::ZERO {
            self.0[r.index()] = v;
        }
    }

    /// Zeroes every register (the handler entry state).
    #[inline]
    pub fn reset(&mut self) {
        self.0 = [0; NUM_REGS];
    }

    /// Reads by raw index (the translator pre-validates indices).
    #[inline]
    pub(crate) fn get_i(&self, i: u8) -> u64 {
        self.0[i as usize]
    }

    /// Writes by raw index; index 0 is the hardwired zero register.
    #[inline]
    pub(crate) fn set_i(&mut self, i: u8, v: u64) {
        if i != 0 {
            self.0[i as usize] = v;
        }
    }
}

impl Default for Regs {
    fn default() -> Self {
        Self::new()
    }
}

/// A reusable buffer for the effect timeline of a handler run. Clearing
/// and reusing one sink across invocations keeps the hot path
/// allocation-free once the buffer reaches steady-state capacity.
#[derive(Debug, Clone, Default)]
pub struct EffectSink {
    effects: Vec<TimedEffect>,
    mdc_misses: u64,
}

impl EffectSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards buffered effects; capacity is retained.
    pub fn clear(&mut self) {
        self.effects.clear();
        self.mdc_misses = 0;
    }

    /// Appends an effect, counting MDC misses as they stream in.
    #[inline]
    pub fn push(&mut self, e: TimedEffect) {
        if matches!(e.kind, EffectKind::Mdc(_)) {
            self.mdc_misses += 1;
        }
        self.effects.push(e);
    }

    /// The buffered effects, in issue order.
    pub fn effects(&self) -> &[TimedEffect] {
        &self.effects
    }

    /// Number of buffered effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether the sink holds no effects.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// MDC misses among the buffered effects.
    pub fn mdc_misses(&self) -> u64 {
        self.mdc_misses
    }

    /// Adds `base` to the offset of every effect from index `from` on.
    /// The translator's blocks record block-relative offsets and rebase
    /// them to handler-relative offsets after each block completes.
    pub(crate) fn rebase(&mut self, from: usize, base: u64) {
        for e in &mut self.effects[from..] {
            e.offset += base;
        }
    }

    /// Consumes the sink, yielding the owned effect vector.
    pub fn into_effects(self) -> Vec<TimedEffect> {
        self.effects
    }
}

/// The environment a handler executes against: message header fields and
/// protocol memory (directory headers, pointer store), with MDC modelling.
pub trait Env {
    /// Loads `size` bytes at `addr` from protocol memory. Also reports an
    /// MDC miss if the access missed.
    fn load(&mut self, addr: u64, size: MemSize) -> (u64, Option<MdcMiss>);

    /// Stores `size` bytes at `addr` to protocol memory, reporting an MDC
    /// miss if the access missed.
    fn store(&mut self, addr: u64, val: u64, size: MemSize) -> Option<MdcMiss>;

    /// Reads a field of the message header being processed.
    fn msg_field(&mut self, field: u8) -> u64;
}

/// An emulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The handler executed more than the configured pair budget without
    /// reaching `switch` — almost certainly an infinite loop.
    RanAway {
        /// The pair budget that was exhausted.
        budget: u64,
    },
    /// Control transferred outside the program.
    BadPc {
        /// The offending pair index.
        pc: usize,
    },
    /// A load or store used an address not aligned to its size.
    Unaligned {
        /// The offending byte address.
        addr: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::RanAway { budget } => {
                write!(f, "handler exceeded {budget} pairs without switch")
            }
            EmuError::BadPc { pc } => write!(f, "control transfer to invalid pc {pc}"),
            EmuError::Unaligned { addr } => {
                write!(f, "unaligned protocol memory access at {addr:#x}")
            }
        }
    }
}

impl Error for EmuError {}

/// Default pair budget for [`run`]; generous compared to real handlers
/// (tens of pairs, hundreds when walking long sharer lists).
pub const DEFAULT_PAIR_BUDGET: u64 = 1_000_000;

enum Ctl {
    Jump(usize),
    Switch,
}

/// Executes the handler at pair index `entry` until its `switch`.
///
/// # Errors
///
/// Returns an [`EmuError`] on runaway execution, a control transfer outside
/// the program, or an unaligned memory access.
///
/// # Examples
///
/// ```
/// use flash_pp::{asm, sched, emu};
///
/// let module = asm::assemble("h:\n  addi r1, r0, 2\n  addi r2, r0, 3\n  switch\n")?;
/// let prog = sched::schedule(&module, sched::SchedOptions::default());
/// let mut env = emu::FlatEnv::new(256);
/// let run = emu::run(&prog, prog.entry("h").unwrap(), &mut env, emu::DEFAULT_PAIR_BUDGET)?;
/// assert_eq!(run.exec_cycles, 2); // (addi,addi) + (switch,nop)
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(
    program: &Program,
    entry: usize,
    env: &mut impl Env,
    pair_budget: u64,
) -> Result<HandlerRun, EmuError> {
    let mut regs = Regs::new();
    let mut sink = EffectSink::new();
    let (exec_cycles, stats) = run_into(program, entry, env, pair_budget, &mut regs, &mut sink)?;
    Ok(HandlerRun {
        effects: sink.into_effects(),
        exec_cycles,
        stats,
    })
}

/// Non-allocating core of [`run`]: executes into caller-provided scratch
/// state. `regs` is reset and `sink` cleared on entry; on success the
/// effect timeline is left in `sink` and the pure execution cycle count
/// plus the run's statistics are returned. On error the sink's contents
/// are unspecified.
///
/// # Errors
///
/// As [`run`].
pub fn run_into(
    program: &Program,
    entry: usize,
    env: &mut (impl Env + ?Sized),
    pair_budget: u64,
    regs: &mut Regs,
    sink: &mut EffectSink,
) -> Result<(u64, RunStats), EmuError> {
    regs.reset();
    sink.clear();
    let mut stats = RunStats {
        invocations: 1,
        ..RunStats::default()
    };
    resume(program, entry, env, pair_budget, regs, sink, &mut stats).map(|cycles| (cycles, stats))
}

/// The per-pair interpreter loop, resumable mid-run: continues at `pc`
/// with live register, effect, and statistics state. `stats.pairs` counts
/// against `pair_budget`, so a resumed run sees the same budget horizon as
/// an uninterrupted one. The translator drops back into this loop when a
/// basic block might cross the budget, reproducing the emulator's exact
/// per-pair error ordering.
pub(crate) fn resume(
    program: &Program,
    mut pc: usize,
    env: &mut (impl Env + ?Sized),
    pair_budget: u64,
    regs: &mut Regs,
    sink: &mut EffectSink,
    stats: &mut RunStats,
) -> Result<u64, EmuError> {
    loop {
        if stats.pairs >= pair_budget {
            return Err(EmuError::RanAway {
                budget: pair_budget,
            });
        }
        let pair = *program.pairs.get(pc).ok_or(EmuError::BadPc { pc })?;
        let offset = stats.pairs;
        stats.pairs += 1;
        // Pre-decoded at schedule time: both slots of a pair always
        // execute (control applies after the pair), so per-pair counts
        // are exact and the hot loop skips three per-instruction
        // classification matches.
        let meta = program.pair_meta(pc);
        stats.instrs += meta.instrs as u64;
        stats.special += meta.special as u64;
        stats.alu_branch += meta.alu_branch as u64;

        let mut ctl = None;
        for instr in [pair.a, pair.b] {
            if instr == Instr::Nop {
                continue;
            }
            if let Some(c) = exec(instr, regs, env, program, offset, stats, sink)? {
                ctl = Some(c);
            }
        }
        match ctl {
            Some(Ctl::Switch) => {
                stats.mdc_misses = sink.mdc_misses();
                return Ok(stats.pairs);
            }
            Some(Ctl::Jump(target)) => pc = target,
            None => pc += 1,
        }
    }
}

fn exec(
    instr: Instr,
    regs: &mut Regs,
    env: &mut (impl Env + ?Sized),
    program: &Program,
    offset: u64,
    stats: &mut RunStats,
    sink: &mut EffectSink,
) -> Result<Option<Ctl>, EmuError> {
    match instr {
        Instr::Nop => {}
        Instr::Alu { op, rd, rs, rt } => {
            let v = op.apply(regs.get(rs), regs.get(rt));
            regs.set(rd, v);
        }
        Instr::AluImm { op, rd, rs, imm } => {
            // Logical immediates zero-extend; arithmetic immediates
            // sign-extend (DLX convention).
            let b = match op {
                AluOp::And | AluOp::Or | AluOp::Xor => imm as u16 as u64,
                _ => imm as i64 as u64,
            };
            let v = op.apply(regs.get(rs), b);
            regs.set(rd, v);
        }
        Instr::Lui { rd, imm } => regs.set(rd, (imm as u64) << 16),
        Instr::FieldImm {
            op,
            rd,
            rs,
            pos,
            width,
        } => {
            let m = field_mask(pos, width);
            let a = regs.get(rs);
            let v = match op {
                FieldOp::AndMask => a & m,
                FieldOp::AndNotMask => a & !m,
                FieldOp::OrMask => a | m,
                FieldOp::XorMask => a ^ m,
            };
            regs.set(rd, v);
        }
        Instr::BfExt { rd, rs, pos, width } => {
            let v = (regs.get(rs) >> pos) & field_mask(0, width);
            regs.set(rd, v);
        }
        Instr::BfIns { rd, rs, pos, width } => {
            let m = field_mask(pos, width);
            let v = (regs.get(rd) & !m) | ((regs.get(rs) << pos) & m);
            regs.set(rd, v);
        }
        Instr::Ffs { rd, rs } => {
            let v = regs.get(rs);
            let pos = if v == 0 {
                64
            } else {
                v.trailing_zeros() as u64
            };
            regs.set(rd, pos);
        }
        Instr::Load { rd, rs, off, size } => {
            stats.loads += 1;
            let addr = regs.get(rs).wrapping_add(off as i64 as u64);
            if !addr.is_multiple_of(size.bytes()) {
                return Err(EmuError::Unaligned { addr });
            }
            let (v, miss) = env.load(addr, size);
            if let Some(m) = miss {
                sink.push(TimedEffect {
                    offset,
                    kind: EffectKind::Mdc(m),
                });
            }
            regs.set(rd, v);
        }
        Instr::Store { rt, rs, off, size } => {
            stats.stores += 1;
            let addr = regs.get(rs).wrapping_add(off as i64 as u64);
            if !addr.is_multiple_of(size.bytes()) {
                return Err(EmuError::Unaligned { addr });
            }
            if let Some(m) = env.store(addr, regs.get(rt), size) {
                sink.push(TimedEffect {
                    offset,
                    kind: EffectKind::Mdc(m),
                });
            }
        }
        Instr::Branch {
            cond,
            rs,
            rt,
            target,
        } => {
            if cond.taken(regs.get(rs), regs.get(rt)) {
                return Ok(Some(Ctl::Jump(program.label_pc(target))));
            }
        }
        Instr::BranchBit {
            set,
            rs,
            bit,
            target,
        } => {
            let bitval = (regs.get(rs) >> bit) & 1 == 1;
            if bitval == set {
                return Ok(Some(Ctl::Jump(program.label_pc(target))));
            }
        }
        Instr::Jump { target } => return Ok(Some(Ctl::Jump(program.label_pc(target)))),
        Instr::MfMsg { rd, field } => {
            let v = env.msg_field(field);
            regs.set(rd, v);
        }
        Instr::Send {
            target,
            with_data,
            rtype,
            rdest,
            raddr,
            raux,
        } => {
            sink.push(TimedEffect {
                offset,
                kind: EffectKind::Send(OutMsg {
                    target,
                    with_data,
                    mtype: regs.get(rtype),
                    dest: regs.get(rdest),
                    addr: regs.get(raddr),
                    aux: regs.get(raux),
                }),
            });
        }
        Instr::MemOp { kind, raddr } => {
            sink.push(TimedEffect {
                offset,
                kind: EffectKind::MemOp {
                    kind,
                    addr: regs.get(raddr),
                },
            });
        }
        Instr::Switch => return Ok(Some(Ctl::Switch)),
    }
    Ok(None)
}

/// A simple [`Env`] over a flat byte array with no MDC (every access hits):
/// the workhorse for unit tests and for measuring pure handler occupancies.
#[derive(Debug, Clone)]
pub struct FlatEnv {
    mem: Vec<u8>,
    /// Message header fields returned by `mfmsg`.
    pub fields: [u64; 16],
}

impl FlatEnv {
    /// Creates an environment with `bytes` of zeroed protocol memory.
    pub fn new(bytes: usize) -> Self {
        FlatEnv {
            mem: vec![0; bytes],
            fields: [0; 16],
        }
    }

    /// Reads back a 64-bit value (for assertions).
    ///
    /// # Panics
    ///
    /// Panics if `addr + 8` exceeds the memory size.
    pub fn peek64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("in range"))
    }
}

impl Env for FlatEnv {
    fn load(&mut self, addr: u64, size: MemSize) -> (u64, Option<MdcMiss>) {
        let a = addr as usize;
        let v = match size {
            MemSize::Double => u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("in range")),
            MemSize::Word => {
                u32::from_le_bytes(self.mem[a..a + 4].try_into().expect("in range")) as u64
            }
        };
        (v, None)
    }

    fn store(&mut self, addr: u64, val: u64, size: MemSize) -> Option<MdcMiss> {
        let a = addr as usize;
        match size {
            MemSize::Double => self.mem[a..a + 8].copy_from_slice(&val.to_le_bytes()),
            MemSize::Word => self.mem[a..a + 4].copy_from_slice(&(val as u32).to_le_bytes()),
        }
        None
    }

    fn msg_field(&mut self, field: u8) -> u64 {
        self.fields[field as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::sched::{schedule, SchedOptions};

    fn exec_src(src: &str, env: &mut FlatEnv) -> HandlerRun {
        let m = assemble(src).unwrap();
        let p = schedule(&m, SchedOptions::default());
        run(&p, 0, env, DEFAULT_PAIR_BUDGET).unwrap()
    }

    #[test]
    fn arithmetic_and_store() {
        let mut env = FlatEnv::new(64);
        let r = exec_src(
            "h:\n  addi r1, r0, 6\n  addi r2, r0, 7\n  add r3, r1, r2\n  addi r4, r0, 8\n  sd r3, 0(r4)\n  switch\n",
            &mut env,
        );
        assert_eq!(env.peek64(8), 13);
        assert_eq!(r.stats.stores, 1);
        assert!(r.effects.is_empty());
    }

    #[test]
    fn loop_with_branch() {
        // Sum 1..=5 by looping.
        let src = "h:
  addi r1, r0, 5
  addi r2, r0, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bgtz r1, loop
  addi r3, r0, 16
  sd r2, 0(r3)
  switch
";
        let mut env = FlatEnv::new(64);
        exec_src(src, &mut env);
        assert_eq!(env.peek64(16), 15);
    }

    #[test]
    fn bitfield_instructions() {
        let src = "h:
  li r1, 0x1234
  bfext r2, r1, 4, 8      ; (0x1234 >> 4) & 0xff = 0x23
  li r3, 0xff
  bfins r1, r3, 8, 4      ; insert 0xf at bits 8..12
  ffs r4, r1
  addi r5, r0, 0
  ffs r6, r5              ; ffs(0) = 64
  switch
";
        let mut env = FlatEnv::new(0);
        let m = assemble(src).unwrap();
        let p = schedule(&m, SchedOptions::default());
        // Verify by re-running and storing results via a tweaked source
        // instead: simpler to check register effects through memory.
        let src2 = "h:
  li r1, 0x1234
  bfext r2, r1, 4, 8
  addi r9, r0, 0
  sd r2, 0(r9)
  li r3, 0xff
  bfins r1, r3, 8, 4
  sd r1, 8(r9)
  ffs r4, r1
  sd r4, 16(r9)
  addi r5, r0, 0
  ffs r6, r5
  sd r6, 24(r9)
  switch
";
        let mut env2 = FlatEnv::new(64);
        exec_src(src2, &mut env2);
        assert_eq!(env2.peek64(0), 0x23);
        assert_eq!(env2.peek64(8), 0x1f34); // bits 8..12 set to 0xf
        assert_eq!(env2.peek64(16), 2); // lowest set bit of 0x1f34
        assert_eq!(env2.peek64(24), 64);
        let _ = (p, &mut env); // silence unused in first half
    }

    #[test]
    fn field_immediates() {
        let src = "h:
  li r1, 0xabcd
  andfi r2, r1, 4, 8
  andcfi r3, r1, 4, 8
  orfi r4, r0, 2, 3
  addi r9, r0, 0
  sd r2, 0(r9)
  sd r3, 8(r9)
  sd r4, 16(r9)
  switch
";
        let mut env = FlatEnv::new(64);
        exec_src(src, &mut env);
        assert_eq!(env.peek64(0), 0xabcd & 0xff0);
        assert_eq!(env.peek64(8), 0xabcd & !0xff0u64);
        assert_eq!(env.peek64(16), 0b11100);
    }

    #[test]
    fn branch_on_bit() {
        let src = "h:
  li r1, 0b1000
  addi r2, r0, 1
  bbs r1, 3, set
  addi r2, r0, 99
set:
  bbc r1, 0, clear
  addi r2, r0, 98
clear:
  addi r9, r0, 0
  sd r2, 0(r9)
  switch
";
        let mut env = FlatEnv::new(16);
        exec_src(src, &mut env);
        assert_eq!(env.peek64(0), 1);
    }

    #[test]
    fn send_and_memop_effects_in_order() {
        let src = "h:
  addi r1, r0, 5    ; type
  addi r2, r0, 3    ; dest
  li r3, 0x1000     ; addr
  addi r4, r0, 0
  memrd r3
  sendnd r1, r2, r3, r4
  switch
";
        let mut env = FlatEnv::new(0);
        let r = exec_src(src, &mut env);
        assert_eq!(r.effects.len(), 2);
        match r.effects[0].kind {
            EffectKind::MemOp { kind, addr } => {
                assert_eq!(kind, MemOpKind::ReadLine);
                assert_eq!(addr, 0x1000);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        match r.effects[1].kind {
            EffectKind::Send(m) => {
                assert_eq!(m.mtype, 5);
                assert_eq!(m.dest, 3);
                assert_eq!(m.addr, 0x1000);
                assert!(m.with_data);
                assert_eq!(m.target, SendTarget::Network);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert!(r.effects[0].offset <= r.effects[1].offset);
    }

    #[test]
    fn msg_fields_visible() {
        let src = "h:\n  mfmsg r1, 2\n  addi r9, r0, 0\n  sd r1, 0(r9)\n  switch\n";
        let mut env = FlatEnv::new(16);
        env.fields[2] = 0xdead;
        exec_src(src, &mut env);
        assert_eq!(env.peek64(0), 0xdead);
    }

    #[test]
    fn runaway_detection() {
        let m = assemble("h:\n  j h\n").unwrap();
        let p = schedule(&m, SchedOptions::default());
        let mut env = FlatEnv::new(0);
        assert_eq!(
            run(&p, 0, &mut env, 100).unwrap_err(),
            EmuError::RanAway { budget: 100 }
        );
    }

    #[test]
    fn unaligned_access_rejected() {
        let m = assemble("h:\n  addi r1, r0, 3\n  ld r2, 0(r1)\n  switch\n").unwrap();
        let p = schedule(&m, SchedOptions::default());
        let mut env = FlatEnv::new(64);
        assert_eq!(
            run(&p, 0, &mut env, 100).unwrap_err(),
            EmuError::Unaligned { addr: 3 }
        );
    }

    #[test]
    fn word_accesses() {
        let src = "h:\n  li r1, 0x11223344\n  addi r9, r0, 0\n  sw r1, 4(r9)\n  lw r2, 4(r9)\n  sd r2, 8(r9)\n  switch\n";
        let mut env = FlatEnv::new(32);
        exec_src(src, &mut env);
        assert_eq!(env.peek64(8), 0x11223344);
    }

    #[test]
    fn stats_counting() {
        let src = "h:\n  addi r1, r0, 1\n  bfext r2, r1, 0, 1\n  ld r3, 0(r0)\n  switch\n";
        let mut env = FlatEnv::new(16);
        let r = exec_src(src, &mut env);
        assert_eq!(r.stats.instrs, 4);
        assert_eq!(r.stats.special, 1);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.invocations, 1);
        assert!(r.stats.dual_issue_efficiency() > 1.0);
        assert!(r.stats.special_fraction() > 0.0);
    }

    #[test]
    fn single_issue_costs_more_cycles() {
        let src = "h:\n  addi r1, r0, 1\n  addi r2, r0, 2\n  addi r3, r0, 3\n  addi r4, r0, 4\n  switch\n";
        let m = assemble(src).unwrap();
        let dual = schedule(&m, SchedOptions::default());
        let single = schedule(&m, SchedOptions::single_issue());
        let mut env = FlatEnv::new(0);
        let rd = run(&dual, 0, &mut env, 100).unwrap();
        let rs = run(&single, 0, &mut env, 100).unwrap();
        assert!(rs.exec_cycles == 0 || rd.exec_cycles < rs.exec_cycles || rd.exec_cycles <= 3);
        assert_eq!(rs.exec_cycles, 5);
        assert_eq!(rd.exec_cycles, 3); // (1,2)(3,4)(switch,nop)
    }
}
