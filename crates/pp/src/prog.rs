//! Program representations before and after static scheduling.

use crate::isa::{Instr, Label, INSTR_BYTES};
use std::collections::BTreeMap;

/// An assembled but not yet scheduled code module: a flat instruction list
/// with a label table and named entry points.
///
/// Modules are produced by [`crate::asm::assemble`], optionally transformed
/// by [`crate::dlx::expand_specials`], and turned into an executable
/// [`Program`] by [`crate::sched::schedule`].
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Instruction stream in program order.
    pub instrs: Vec<Instr>,
    /// `labels[label.0]` is the instruction index the label refers to.
    pub labels: Vec<usize>,
    /// Named entry points (every assembly label name).
    pub symbols: BTreeMap<String, Label>,
}

impl Module {
    /// Allocates a fresh label pointing at instruction index `at`.
    pub fn new_label(&mut self, at: usize) -> Label {
        self.labels.push(at);
        Label(self.labels.len() as u32 - 1)
    }

    /// Instruction index of `label`.
    ///
    /// # Panics
    ///
    /// Panics if the label was not allocated by this module.
    pub fn label_target(&self, label: Label) -> usize {
        self.labels[label.0 as usize]
    }

    /// Static code size in bytes (each instruction is 4 bytes).
    pub fn static_bytes(&self) -> u64 {
        self.instrs.len() as u64 * INSTR_BYTES
    }
}

/// One dual-issue instruction pair (the PP "executes a pair of
/// instructions every cycle", paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// First issue slot.
    pub a: Instr,
    /// Second issue slot.
    pub b: Instr,
}

impl Pair {
    /// Number of non-NOP instructions in the pair.
    pub fn useful(&self) -> u32 {
        (self.a != Instr::Nop) as u32 + (self.b != Instr::Nop) as u32
    }
}

/// Pre-decoded per-pair statistics, computed once at schedule time so the
/// emulator's hot loop does not re-classify instruction words on every
/// executed pair. The counts are exact because both issue slots of a pair
/// always execute (control transfers apply *after* the pair completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairMeta {
    /// Non-NOP instructions in the pair.
    pub instrs: u8,
    /// Special (MAGIC-extension) instructions in the pair.
    pub special: u8,
    /// ALU + branch instructions in the pair.
    pub alu_branch: u8,
}

impl PairMeta {
    /// Classifies one pair.
    pub fn of(pair: &Pair) -> Self {
        let mut m = PairMeta::default();
        for i in [pair.a, pair.b] {
            if i == Instr::Nop {
                continue;
            }
            m.instrs += 1;
            if i.is_special() {
                m.special += 1;
            }
            if i.is_alu_or_branch() {
                m.alu_branch += 1;
            }
        }
        m
    }
}

/// A scheduled, executable PP program: a sequence of issue pairs with
/// labels resolved to pair indices.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Issue pairs; the PP program counter indexes this vector.
    pub pairs: Vec<Pair>,
    /// `label_pc[label.0]` is the pair index the label starts at.
    pub label_pc: Vec<usize>,
    /// Entry-point name → pair index.
    pub symbols: BTreeMap<String, usize>,
    /// Pre-decoded statistics, index-parallel with `pairs`. Private so
    /// construction through [`Program::new`] keeps it consistent.
    meta: Vec<PairMeta>,
}

impl Program {
    /// Builds an executable program, pre-decoding per-pair statistics.
    pub fn new(pairs: Vec<Pair>, label_pc: Vec<usize>, symbols: BTreeMap<String, usize>) -> Self {
        let meta = pairs.iter().map(PairMeta::of).collect();
        Program {
            pairs,
            label_pc,
            symbols,
            meta,
        }
    }

    /// Pre-decoded statistics for the pair at `pc`. Falls back to on-line
    /// classification for programs assembled without [`Program::new`]
    /// (e.g. `Default`-built test fixtures).
    #[inline]
    pub fn pair_meta(&self, pc: usize) -> PairMeta {
        match self.meta.get(pc) {
            Some(m) => *m,
            None => self.pairs.get(pc).map(PairMeta::of).unwrap_or_default(),
        }
    }
    /// Pair index of a named entry point.
    pub fn entry(&self, name: &str) -> Option<usize> {
        self.symbols.get(name).copied()
    }

    /// Pair index of `label`.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn label_pc(&self, label: Label) -> usize {
        self.label_pc[label.0 as usize]
    }

    /// Static code size in bytes, counting both slots of every pair
    /// ("static code size of fully-scheduled handlers (with NOPs)",
    /// paper Table 5.2).
    pub fn static_bytes(&self) -> u64 {
        self.pairs.len() as u64 * 2 * INSTR_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Reg};

    #[test]
    fn module_labels() {
        let mut m = Module::default();
        m.instrs.push(Instr::Nop);
        let l = m.new_label(1);
        assert_eq!(m.label_target(l), 1);
        assert_eq!(m.static_bytes(), 4);
    }

    #[test]
    fn pair_usefulness() {
        let add = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs: Reg(0),
            imm: 1,
        };
        assert_eq!(Pair { a: add, b: add }.useful(), 2);
        assert_eq!(
            Pair {
                a: add,
                b: Instr::Nop
            }
            .useful(),
            1
        );
        assert_eq!(
            Pair {
                a: Instr::Nop,
                b: Instr::Nop
            }
            .useful(),
            0
        );
    }

    #[test]
    fn program_static_size_counts_nops() {
        let add = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs: Reg(0),
            imm: 1,
        };
        let p = Program::new(
            vec![Pair {
                a: add,
                b: Instr::Nop,
            }],
            vec![],
            BTreeMap::new(),
        );
        assert_eq!(p.static_bytes(), 8);
        let m = p.pair_meta(0);
        assert_eq!((m.instrs, m.special, m.alu_branch), (1, 0, 1));
        // Out-of-range pcs fall back to the zero meta.
        assert_eq!(p.pair_meta(99), PairMeta::default());
    }
}
