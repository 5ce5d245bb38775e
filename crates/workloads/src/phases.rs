//! Phase-structured reference generation.
//!
//! Each application is expressed as a compact list of [`Phase`]s per
//! processor; [`PhaseStream`] expands them lazily into the `WorkItem`
//! stream the processor interprets. This mirrors the Tango Lite
//! methodology: what reaches the memory system is the *address stream* of
//! the algorithm, not its arithmetic.

use flash_cpu::{LineRun, RefStream, Run, WorkItem};
use flash_engine::{Addr, DetRng, LINE_BYTES};

/// One phase of an application's execution on one processor.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Pure computation: `n` instructions.
    Compute(u64),
    /// A strided walk over `lines` cache lines starting at `base`,
    /// touching `refs_per_line` words in each line (re-touches hit in the
    /// cache) with `busy_per_ref` instructions between references.
    Sweep {
        /// First line of the region.
        base: Addr,
        /// Number of lines visited.
        lines: u64,
        /// Stride between visited lines, in lines.
        stride: u64,
        /// Issue writes instead of reads.
        write: bool,
        /// Word references per visited line.
        refs_per_line: u32,
        /// Instructions between consecutive references.
        busy_per_ref: u32,
    },
    /// `count` references to uniformly random lines in a region.
    Random {
        /// First line of the region.
        base: Addr,
        /// Region size in lines.
        lines: u64,
        /// Number of references to issue.
        count: u64,
        /// Probability that a reference is a write.
        write_frac: f64,
        /// Instructions between consecutive references.
        busy_per_ref: u32,
    },
    /// Global barrier.
    Barrier,
    /// Acquire a lock.
    Lock(u32),
    /// Release a lock.
    Unlock(u32),
}

/// Lazily expands a list of phases into work items.
pub struct PhaseStream {
    phases: Vec<Phase>,
    pi: usize,
    // Position within the current phase.
    line: u64,
    r: u32,
    emitted_busy: bool,
    rng: DetRng,
}

impl std::fmt::Debug for PhaseStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseStream")
            .field("phase", &self.pi)
            .field("of", &self.phases.len())
            .finish()
    }
}

impl PhaseStream {
    /// Creates a stream over `phases` with a deterministic RNG stream.
    pub fn new(phases: Vec<Phase>, seed: u64, stream: u64) -> Self {
        PhaseStream {
            phases,
            pi: 0,
            line: 0,
            r: 0,
            emitted_busy: false,
            rng: DetRng::for_stream(seed, stream),
        }
    }

    fn advance_phase(&mut self) {
        self.pi += 1;
        self.line = 0;
        self.r = 0;
        self.emitted_busy = false;
    }
}

impl RefStream for PhaseStream {
    fn next_item(&mut self) -> WorkItem {
        loop {
            let Some(&phase) = self.phases.get(self.pi) else {
                return WorkItem::Done;
            };
            match phase {
                Phase::Compute(n) => {
                    self.advance_phase();
                    if n > 0 {
                        return WorkItem::Busy(n);
                    }
                }
                Phase::Barrier => {
                    self.advance_phase();
                    return WorkItem::Barrier;
                }
                Phase::Lock(id) => {
                    self.advance_phase();
                    return WorkItem::Lock(id);
                }
                Phase::Unlock(id) => {
                    self.advance_phase();
                    return WorkItem::Unlock(id);
                }
                Phase::Sweep {
                    base,
                    lines,
                    stride,
                    write,
                    refs_per_line,
                    busy_per_ref,
                } => {
                    if self.line >= lines {
                        self.advance_phase();
                        continue;
                    }
                    if busy_per_ref > 0 && !self.emitted_busy {
                        self.emitted_busy = true;
                        return WorkItem::Busy(busy_per_ref as u64);
                    }
                    self.emitted_busy = false;
                    let line_addr = base.offset(self.line * stride * LINE_BYTES);
                    // Walk words within the line, wrapping past 16.
                    let word = (self.r as u64 * 8) % LINE_BYTES;
                    let a = line_addr.offset(word);
                    self.r += 1;
                    if self.r >= refs_per_line.max(1) {
                        self.r = 0;
                        self.line += 1;
                    }
                    return if write {
                        WorkItem::Write(a)
                    } else {
                        WorkItem::Read(a)
                    };
                }
                Phase::Random {
                    base,
                    lines,
                    count,
                    write_frac,
                    busy_per_ref,
                } => {
                    if self.line >= count {
                        self.advance_phase();
                        continue;
                    }
                    if busy_per_ref > 0 && !self.emitted_busy {
                        self.emitted_busy = true;
                        return WorkItem::Busy(busy_per_ref as u64);
                    }
                    self.emitted_busy = false;
                    self.line += 1;
                    let l = self.rng.below(lines.max(1));
                    let word = self.rng.below(16) * 8;
                    let a = base.offset(l * LINE_BYTES + word);
                    return if self.rng.chance(write_frac) {
                        WorkItem::Write(a)
                    } else {
                        WorkItem::Read(a)
                    };
                }
            }
        }
    }

    /// The rest of the current sweep line as one run; any other phase
    /// yields a run of one item.
    fn next_run(&mut self) -> Option<Run> {
        while let Some(&Phase::Sweep {
            base,
            lines,
            stride,
            write,
            refs_per_line,
            busy_per_ref,
        }) = self.phases.get(self.pi)
        {
            if self.line >= lines {
                self.advance_phase();
                continue;
            }
            let run = LineRun {
                addr: base.offset(self.line * stride * LINE_BYTES),
                write,
                refs: u64::from(refs_per_line.max(1) - self.r),
                busy_per_ref: u64::from(busy_per_ref),
                busy_first: busy_per_ref > 0 && !self.emitted_busy,
            };
            self.r = 0;
            self.line += 1;
            self.emitted_busy = false;
            return Some(Run::Line(run));
        }
        Some(Run::Item(self.next_item()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: PhaseStream) -> Vec<WorkItem> {
        let mut v = Vec::new();
        loop {
            let it = s.next_item();
            v.push(it);
            if it == WorkItem::Done {
                return v;
            }
            assert!(v.len() < 100_000, "runaway stream");
        }
    }

    #[test]
    fn compute_and_sync_phases() {
        let v = drain(PhaseStream::new(
            vec![
                Phase::Compute(10),
                Phase::Barrier,
                Phase::Lock(1),
                Phase::Unlock(1),
            ],
            0,
            0,
        ));
        assert_eq!(
            v,
            vec![
                WorkItem::Busy(10),
                WorkItem::Barrier,
                WorkItem::Lock(1),
                WorkItem::Unlock(1),
                WorkItem::Done
            ]
        );
    }

    #[test]
    fn sweep_touches_each_line_refs_times() {
        let v = drain(PhaseStream::new(
            vec![Phase::Sweep {
                base: Addr::new(0x1000),
                lines: 3,
                stride: 2,
                write: false,
                refs_per_line: 4,
                busy_per_ref: 0,
            }],
            0,
            0,
        ));
        let reads: Vec<Addr> = v
            .iter()
            .filter_map(|i| match i {
                WorkItem::Read(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 12);
        assert_eq!(reads[0], Addr::new(0x1000));
        assert_eq!(reads[1], Addr::new(0x1008));
        assert_eq!(reads[4], Addr::new(0x1000 + 2 * 128));
        // Distinct lines visited: 3.
        let mut lines: Vec<u64> = reads.iter().map(|a| a.line_index()).collect();
        lines.dedup();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn sweep_interleaves_busy() {
        let v = drain(PhaseStream::new(
            vec![Phase::Sweep {
                base: Addr::new(0),
                lines: 2,
                stride: 1,
                write: true,
                refs_per_line: 1,
                busy_per_ref: 7,
            }],
            0,
            0,
        ));
        assert_eq!(v.len(), 5); // busy, write, busy, write, done
        assert_eq!(v[0], WorkItem::Busy(7));
        assert!(matches!(v[1], WorkItem::Write(_)));
    }

    #[test]
    fn random_phase_stays_in_region_and_is_deterministic() {
        let mk = || {
            PhaseStream::new(
                vec![Phase::Random {
                    base: Addr::new(0x8000),
                    lines: 8,
                    count: 100,
                    write_frac: 0.5,
                    busy_per_ref: 0,
                }],
                42,
                7,
            )
        };
        let a = drain(mk());
        let b = drain(mk());
        assert_eq!(a, b, "deterministic for equal seeds");
        let mut writes = 0;
        for it in &a {
            match it {
                WorkItem::Read(x) | WorkItem::Write(x) => {
                    assert!(x.raw() >= 0x8000 && x.raw() < 0x8000 + 8 * 128);
                    if matches!(it, WorkItem::Write(_)) {
                        writes += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(
            writes > 20 && writes < 80,
            "write fraction ~0.5, got {writes}"
        );
    }

    #[test]
    fn refs_per_line_wraps_words() {
        let v = drain(PhaseStream::new(
            vec![Phase::Sweep {
                base: Addr::new(0),
                lines: 1,
                stride: 1,
                write: false,
                refs_per_line: 20,
                busy_per_ref: 0,
            }],
            0,
            0,
        ));
        let reads: Vec<Addr> = v
            .iter()
            .filter_map(|i| match i {
                WorkItem::Read(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 20);
        assert!(reads.iter().all(|a| a.line_index() == 0));
        assert_eq!(reads[16], reads[0], "wraps to the first word");
    }
}
