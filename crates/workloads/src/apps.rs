//! The seven evaluation workloads (paper Table 3.5), expressed as phase
//! programs whose address streams mirror the real algorithms' sharing
//! patterns:
//!
//! | App | Representative of | Problem size |
//! |---|---|---|
//! | Barnes | hierarchical N-body | 8192 particles |
//! | FFT | transform methods, high radix | 64K complex points |
//! | LU | blocked dense linear algebra | 512×512, 16×16 blocks |
//! | MP3D | high-communication unstructured | 50,000 particles |
//! | Ocean | regular-grid iterative | 258×258 grids |
//! | OS | multiprogramming | 8 "makes" |
//! | Radix | parallel sorting | 256K keys, radix 256 |
//!
//! Every app takes a `scale` divisor that shrinks iteration counts and
//! data sizes proportionally for fast tests; `scale = 1` is the paper's
//! size.

use crate::phases::{Phase, PhaseStream};
use flash::config::{node_addr, Placement};
use flash_cpu::RefStream;
use flash_engine::{Addr, Cycle, NodeId, LINE_BYTES};

/// A complete multiprocessor workload.
pub trait Workload {
    /// Workload name (paper Table 3.5 spelling).
    fn name(&self) -> &'static str;
    /// Number of processors it runs on.
    fn procs(&self) -> u16;
    /// Page-placement policy the machine must use.
    fn placement(&self) -> Placement {
        Placement::Explicit
    }
    /// Builds the per-processor reference streams.
    fn streams(&self) -> Vec<Box<dyn RefStream>>;
    /// DMA traffic to inject (time, node, line address).
    fn dma_events(&self) -> Vec<(Cycle, NodeId, Addr)> {
        Vec::new()
    }
}

fn div(x: u64, scale: u32) -> u64 {
    (x / scale as u64).max(1)
}

// ====================================================================
// FFT — radix-√N six-step transform with all-to-all transposes.
// ====================================================================

/// FFT: 64K complex points, radix √N (256×256 matrix form).
#[derive(Debug, Clone, Copy)]
pub struct Fft {
    procs: u16,
    /// Matrix dimension (√N); the paper's size is 256.
    pub dim: u64,
    /// Multiplier on computation per reference (1 = default density).
    pub compute_scale: u32,
}

impl Fft {
    /// Paper-size FFT on `procs` processors.
    pub fn paper(procs: u16) -> Self {
        Fft {
            procs,
            dim: 256,
            compute_scale: 1,
        }
    }

    /// Scaled-down FFT (`scale` divides the matrix dimension).
    pub fn scaled(procs: u16, scale: u32) -> Self {
        Fft {
            procs,
            dim: div(256, scale).max(procs as u64 * 2),
            compute_scale: 1,
        }
    }

    /// Returns the FFT with `k`-times denser computation per reference
    /// (used to set the §4.3 hot-spot operating point).
    pub fn with_compute_scale(mut self, k: u32) -> Self {
        self.compute_scale = k;
        self
    }

    /// All data on one node — the §4.3 hot-spot experiment. Uses the
    /// computation density that reproduces the paper's operating point
    /// (~80% PP occupancy with commensurate memory occupancy at node 0
    /// when run with 4 KB caches).
    pub fn hotspot(procs: u16, scale: u32) -> HotspotFft {
        HotspotFft(Self::scaled(procs, scale).with_compute_scale(4))
    }

    /// An FFT with an explicit matrix dimension (e.g. the §4.5
    /// proportionally scaled data set).
    pub fn with_dim(procs: u16, dim: u64) -> Self {
        Fft {
            procs,
            dim,
            compute_scale: 1,
        }
    }

    fn rows_per_proc(&self) -> u64 {
        (self.dim / self.procs as u64).max(1)
    }

    /// Lines in one row of the matrix (complex points are 16 bytes).
    fn row_lines(&self) -> u64 {
        (self.dim * 16).div_ceil(LINE_BYTES)
    }

    fn phases_for(&self, p: u16, home_of: impl Fn(u16) -> NodeId) -> Vec<Phase> {
        let cs = self.compute_scale;
        let rpp = self.rows_per_proc();
        let own_lines = rpp * self.row_lines();
        let a_base = |q: u16| node_addr(home_of(q), 0);
        let b_base = |q: u16| node_addr(home_of(q), own_lines * LINE_BYTES + 4096);
        let me = home_of(p);
        let mut ph = Vec::new();
        // Initialization: write own rows of A.
        ph.push(Phase::Sweep {
            base: node_addr(me, 0),
            lines: own_lines,
            stride: 1,
            write: true,
            refs_per_line: 16,
            busy_per_ref: 4 * cs,
        });
        ph.push(Phase::Barrier);
        // Local FFT / transpose / local FFT / transpose / local FFT.
        for step in 0..3u64 {
            let (src, dst): (&dyn Fn(u16) -> Addr, &dyn Fn(u16) -> Addr) = if step % 2 == 0 {
                (&a_base, &b_base)
            } else {
                (&b_base, &a_base)
            };
            // Roots-of-unity table: read-only, never written, so these
            // misses are local clean (cold in the first step, cached after).
            ph.push(Phase::Sweep {
                base: node_addr(me, 0x80_0000),
                lines: own_lines / 2,
                stride: 1,
                write: false,
                refs_per_line: 24,
                busy_per_ref: 4 * cs,
            });
            // Globally shared twiddle coefficients (read-only: remote clean).
            ph.push(Phase::Sweep {
                base: node_addr(
                    NodeId((p + 1 + step as u16) % self.procs),
                    0x90_0000 + step * 0x8_0000,
                ),
                lines: own_lines / 5,
                stride: 1,
                write: false,
                refs_per_line: 16,
                busy_per_ref: 4 * cs,
            });
            // Row FFTs over own rows: log2(dim) passes of read+write.
            ph.push(Phase::Sweep {
                base: src(p),
                lines: own_lines,
                stride: 1,
                write: false,
                refs_per_line: 256,
                busy_per_ref: 6 * cs,
            });
            ph.push(Phase::Sweep {
                base: src(p),
                lines: own_lines,
                stride: 1,
                write: true,
                refs_per_line: 32,
                busy_per_ref: 4 * cs,
            });
            ph.push(Phase::Barrier);
            if step == 2 {
                break; // final step has no transpose
            }
            // Transpose: read the block each other processor produced,
            // write it into our rows of the destination array.
            let block_lines = (rpp * rpp * 16).div_ceil(LINE_BYTES).max(1);
            for dq in 1..self.procs {
                let q = (p + dq) % self.procs;
                ph.push(Phase::Sweep {
                    base: src(q).offset((p as u64 * block_lines) * LINE_BYTES),
                    lines: block_lines,
                    stride: 1,
                    write: false,
                    refs_per_line: 16,
                    busy_per_ref: 4 * cs,
                });
                ph.push(Phase::Sweep {
                    base: dst(p).offset((q as u64 * block_lines % own_lines.max(1)) * LINE_BYTES),
                    lines: block_lines,
                    stride: 1,
                    write: true,
                    refs_per_line: 16,
                    busy_per_ref: 4 * cs,
                });
            }
            ph.push(Phase::Barrier);
        }
        ph
    }
}

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        (0..self.procs)
            .map(|p| {
                Box::new(PhaseStream::new(
                    self.phases_for(p, NodeId),
                    0xFF7,
                    p as u64,
                )) as Box<dyn RefStream>
            })
            .collect()
    }
}

/// FFT with every page allocated from node 0 (paper §4.3).
#[derive(Debug, Clone, Copy)]
pub struct HotspotFft(Fft);

impl From<Fft> for HotspotFft {
    fn from(f: Fft) -> Self {
        HotspotFft(f)
    }
}

impl Workload for HotspotFft {
    fn name(&self) -> &'static str {
        "FFT-hotspot"
    }

    fn procs(&self) -> u16 {
        self.0.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        let inner = self.0;
        (0..inner.procs)
            .map(|p| {
                // Same access pattern as plain FFT, but every region is
                // relocated into (disjoint slices of) node 0's memory.
                let phases = inner.phases_for(p, NodeId);
                // Shift each processor's regions apart in node-0 memory.
                let shifted: Vec<Phase> = phases
                    .into_iter()
                    .map(|ph| shift_phase(ph, |a| remap_to_node0(a, inner.procs)))
                    .collect();
                Box::new(PhaseStream::new(shifted, 0xF07, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }
}

/// Relocates an explicit-placement address into a disjoint slice of node
/// 0's memory (keeping per-owner separation).
fn remap_to_node0(a: Addr, procs: u16) -> Addr {
    let owner = (a.raw() >> 32) as u16 % procs.max(1);
    let off = a.raw() & 0xffff_ffff;
    // Stagger region bases by an odd multiple of the MDC reach so the 16
    // owners' directory headers do not collide in the same MDC sets.
    node_addr(
        NodeId(0),
        ((owner as u64) << 26) + owner as u64 * 76800 + off,
    )
}

fn shift_phase(p: Phase, f: impl Fn(Addr) -> Addr) -> Phase {
    match p {
        Phase::Sweep {
            base,
            lines,
            stride,
            write,
            refs_per_line,
            busy_per_ref,
        } => Phase::Sweep {
            base: f(base),
            lines,
            stride,
            write,
            refs_per_line,
            busy_per_ref,
        },
        Phase::Random {
            base,
            lines,
            count,
            write_frac,
            busy_per_ref,
        } => Phase::Random {
            base: f(base),
            lines,
            count,
            write_frac,
            busy_per_ref,
        },
        other => other,
    }
}

// ====================================================================
// LU — blocked dense factorization with a 2-D scatter decomposition.
// ====================================================================

/// LU: 512×512 matrix, 16×16 blocks.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    procs: u16,
    /// Matrix dimension; the paper's size is 512.
    pub n: u64,
    /// Block dimension (16 in the paper).
    pub block: u64,
}

impl Lu {
    /// Paper-size LU.
    pub fn paper(procs: u16) -> Self {
        Lu {
            procs,
            n: 512,
            block: 16,
        }
    }

    /// Scaled-down LU.
    pub fn scaled(procs: u16, scale: u32) -> Self {
        Lu {
            procs,
            n: div(512, scale).max(64),
            block: 16,
        }
    }

    fn grid(&self) -> u64 {
        (self.procs as f64).sqrt() as u64
    }

    fn owner(&self, bi: u64, bj: u64) -> u16 {
        let g = self.grid().max(1);
        ((bi % g) * g + (bj % g)) as u16 % self.procs
    }

    /// Lines per 16×16 block of doubles.
    fn block_lines(&self) -> u64 {
        (self.block * self.block * 8).div_ceil(LINE_BYTES)
    }

    /// Protocol-address of a block in its owner's memory.
    fn block_addr(&self, bi: u64, bj: u64) -> Addr {
        let nb = self.n / self.block;
        let idx = bi * nb + bj;
        node_addr(
            NodeId(self.owner(bi, bj)),
            idx * self.block_lines() * LINE_BYTES,
        )
    }
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        let nb = self.n / self.block;
        let bl = self.block_lines();
        // Cost of one 16×16 block update: 2·b³ multiply-adds.
        let update_cost = 2 * self.block * self.block * self.block;
        (0..self.procs)
            .map(|p| {
                let mut ph = Vec::new();
                for k in 0..nb {
                    // Diagonal factorization by its owner.
                    if self.owner(k, k) == p {
                        ph.push(Phase::Sweep {
                            base: self.block_addr(k, k),
                            lines: bl,
                            stride: 1,
                            write: true,
                            refs_per_line: 48,
                            busy_per_ref: 24,
                        });
                    }
                    ph.push(Phase::Barrier);
                    // Perimeter: owners of row-k and column-k blocks read
                    // the diagonal and update their blocks.
                    for t in (k + 1)..nb {
                        for (bi, bj) in [(k, t), (t, k)] {
                            if self.owner(bi, bj) == p {
                                ph.push(Phase::Sweep {
                                    base: self.block_addr(k, k),
                                    lines: bl,
                                    stride: 1,
                                    write: false,
                                    refs_per_line: 192,
                                    busy_per_ref: 3,
                                });
                                ph.push(Phase::Sweep {
                                    base: self.block_addr(bi, bj),
                                    lines: bl,
                                    stride: 1,
                                    write: true,
                                    refs_per_line: 192,
                                    busy_per_ref: 3,
                                });
                                ph.push(Phase::Compute(update_cost / 2));
                            }
                        }
                    }
                    ph.push(Phase::Barrier);
                    // Interior updates: A[i][j] -= A[i][k] * A[k][j].
                    for bi in (k + 1)..nb {
                        for bj in (k + 1)..nb {
                            if self.owner(bi, bj) == p {
                                for src in [(bi, k), (k, bj)] {
                                    ph.push(Phase::Sweep {
                                        base: self.block_addr(src.0, src.1),
                                        lines: bl,
                                        stride: 1,
                                        write: false,
                                        refs_per_line: 224,
                                        busy_per_ref: 2,
                                    });
                                }
                                ph.push(Phase::Sweep {
                                    base: self.block_addr(bi, bj),
                                    lines: bl,
                                    stride: 1,
                                    write: true,
                                    refs_per_line: 224,
                                    busy_per_ref: 2,
                                });
                                ph.push(Phase::Compute(update_cost));
                            }
                        }
                    }
                    ph.push(Phase::Barrier);
                }
                Box::new(PhaseStream::new(ph, 0x100, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }
}

// ====================================================================
// Radix — parallel radix sort: histogram, prefix, permute.
// ====================================================================

/// Radix sort: 256K 32-bit keys, radix 256 (4 digit passes).
#[derive(Debug, Clone, Copy)]
pub struct Radix {
    procs: u16,
    /// Total keys; the paper's size is 256K.
    pub keys: u64,
    /// Digit passes (4 for 32-bit keys at radix 256).
    pub passes: u32,
}

impl Radix {
    /// Paper-size radix sort.
    pub fn paper(procs: u16) -> Self {
        Radix {
            procs,
            keys: 256 * 1024,
            passes: 4,
        }
    }

    /// Scaled-down radix sort.
    pub fn scaled(procs: u16, scale: u32) -> Self {
        Radix {
            procs,
            keys: div(256 * 1024, scale).max(procs as u64 * 256),
            passes: if scale > 4 { 2 } else { 4 },
        }
    }

    fn keys_per_proc(&self) -> u64 {
        self.keys / self.procs as u64
    }

    fn chunk_lines(&self) -> u64 {
        (self.keys_per_proc() * 8).div_ceil(LINE_BYTES)
    }
}

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "Radix"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        let cl = self.chunk_lines();
        let radix_digits = 256u64;
        let procs = self.procs as u64;
        (0..self.procs)
            .map(|p| {
                let mut ph = Vec::new();
                // Region bases are staggered per node so corresponding
                // chunks do not collide in the same cache indices.
                let src = |q: u16, pass: u32| {
                    node_addr(
                        NodeId(q),
                        ((pass as u64 % 2) * (cl + 32) + q as u64 * 37) * LINE_BYTES,
                    )
                };
                for pass in 0..self.passes {
                    // Histogram: read own keys (written by everyone during
                    // the previous pass's permute: local, dirty remote),
                    // bumping local counters (cache hits).
                    ph.push(Phase::Sweep {
                        base: src(p, pass),
                        lines: cl,
                        stride: 1,
                        write: false,
                        refs_per_line: 64,
                        busy_per_ref: 6,
                    });
                    // Global prefix over shared bucket counters (homed on
                    // node 0: mild hot-spotting, as in the real code).
                    ph.push(Phase::Random {
                        base: node_addr(NodeId(0), 0x40_0000),
                        lines: (radix_digits * 8).div_ceil(LINE_BYTES),
                        count: radix_digits / 4,
                        write_frac: 0.5,
                        busy_per_ref: 8,
                    });
                    ph.push(Phase::Barrier);
                    // Permute: this processor's keys scatter into disjoint
                    // per-writer segments of every destination chunk (the
                    // prefix sums make writer ranges disjoint in the real
                    // code too).
                    let seg_lines = (cl / procs).max(1);
                    for dd in 0..self.procs {
                        let dest = (p + dd) % self.procs;
                        ph.push(Phase::Sweep {
                            base: src(dest, pass + 1).offset(p as u64 * seg_lines * LINE_BYTES),
                            lines: seg_lines,
                            stride: 1,
                            write: true,
                            refs_per_line: 48,
                            busy_per_ref: 10,
                        });
                    }
                    ph.push(Phase::Barrier);
                }
                Box::new(PhaseStream::new(ph, 0x0AD1, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }
}

// ====================================================================
// Ocean — regular-grid iterative nearest-neighbour relaxation.
// ====================================================================

/// Ocean: 258×258 grids, 25 grids, row-partitioned.
#[derive(Debug, Clone, Copy)]
pub struct Ocean {
    procs: u16,
    /// Grid dimension (258 in the paper).
    pub dim: u64,
    /// Number of grids (25 in the paper).
    pub grids: u32,
    /// Relaxation sweeps.
    pub iters: u32,
}

impl Ocean {
    /// Paper-size Ocean.
    pub fn paper(procs: u16) -> Self {
        Ocean {
            procs,
            dim: 258,
            grids: 25,
            iters: 40,
        }
    }

    /// Scaled-down Ocean.
    pub fn scaled(procs: u16, scale: u32) -> Self {
        Ocean {
            procs,
            dim: div(258, scale).max(procs as u64 * 4),
            grids: (25 / scale).max(2),
            iters: (40 / scale).max(4),
        }
    }

    fn row_lines(&self) -> u64 {
        (self.dim * 8).div_ceil(LINE_BYTES)
    }

    fn rows_per_proc(&self) -> u64 {
        (self.dim / self.procs as u64).max(1)
    }
}

impl Workload for Ocean {
    fn name(&self) -> &'static str {
        "Ocean"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        let rl = self.row_lines();
        let rpp = self.rows_per_proc();
        let part_lines = rl * rpp;
        let grid_base =
            |q: u16, g: u32| node_addr(NodeId(q), g as u64 * (part_lines + 8) * LINE_BYTES);
        (0..self.procs)
            .map(|p| {
                let mut ph = Vec::new();
                for it in 0..self.iters {
                    // Multigrid cycles revisit every grid each sweep round:
                    // the reuse distance is the whole partition working set,
                    // so large caches keep it resident while small ones
                    // take capacity misses (paper §4.2).
                    let g = it % self.grids;
                    // Boundary rows from the neighbours (they wrote them
                    // last sweep: remote dirty at home). Restriction and
                    // interpolation read a few rows deep.
                    for nb in [p.wrapping_sub(1), p + 1] {
                        if nb < self.procs && nb != p {
                            let base = grid_base(nb, g);
                            let row = if nb < p { rpp.saturating_sub(4) } else { 0 };
                            ph.push(Phase::Sweep {
                                base: base.offset(row * rl * LINE_BYTES),
                                lines: rl * 4.min(rpp),
                                stride: 1,
                                write: false,
                                refs_per_line: 16,
                                busy_per_ref: 4,
                            });
                        }
                    }
                    // Five-point stencil over the owned partition.
                    ph.push(Phase::Sweep {
                        base: grid_base(p, g),
                        lines: part_lines,
                        stride: 1,
                        write: false,
                        refs_per_line: 96,
                        busy_per_ref: 5,
                    });
                    ph.push(Phase::Sweep {
                        base: grid_base(p, g),
                        lines: part_lines,
                        stride: 1,
                        write: true,
                        refs_per_line: 16,
                        busy_per_ref: 3,
                    });
                    ph.push(Phase::Barrier);
                }
                Box::new(PhaseStream::new(ph, 0x0CEA, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }
}

// ====================================================================
// Barnes — hierarchical N-body: tree build + force computation.
// ====================================================================

/// Barnes-Hut: 8192 particles, θ = 1.0.
#[derive(Debug, Clone, Copy)]
pub struct Barnes {
    procs: u16,
    /// Particle count (8192 in the paper).
    pub particles: u64,
    /// Time steps.
    pub steps: u32,
}

impl Barnes {
    /// Paper-size Barnes.
    pub fn paper(procs: u16) -> Self {
        Barnes {
            procs,
            particles: 8192,
            steps: 6,
        }
    }

    /// Scaled-down Barnes.
    pub fn scaled(procs: u16, scale: u32) -> Self {
        Barnes {
            procs,
            particles: div(8192, scale).max(procs as u64 * 32),
            steps: (6 / scale).max(2),
        }
    }

    fn cells(&self) -> u64 {
        self.particles * 2
    }

    /// Address of tree cell `i`: cells interleave across homes, so a cell
    /// written by the processor that owns its *space region* is usually
    /// dirty in a third node's cache when read.
    fn cell_addr(&self, i: u64) -> Addr {
        let q = (i % self.procs as u64) as u16;
        // Stagger each node's cell region so corresponding cells do not
        // collide in the same processor-cache set across nodes.
        node_addr(
            NodeId(q),
            0x100_0000 + (q as u64 * 293 + i / self.procs as u64) * LINE_BYTES,
        )
    }
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        let cells = self.cells();
        let cells_per_proc = cells / self.procs as u64;
        let own_particle_lines = (self.particles / self.procs as u64) * 64 / LINE_BYTES + 1;
        (0..self.procs)
            .map(|p| {
                let mut ph = Vec::new();
                for _step in 0..self.steps {
                    // Tree build: this processor writes the cells covering
                    // its space region (index-contiguous, home-interleaved).
                    let first = p as u64 * cells_per_proc;
                    for dq in 0..self.procs {
                        let q = (p + dq) % self.procs;
                        // Cells in [first, first+cpp) homed on q are
                        // contiguous in q's memory.
                        let start = first
                            + ((q as u64 + self.procs as u64 - first % self.procs as u64)
                                % self.procs as u64);
                        if start >= first + cells_per_proc {
                            continue;
                        }
                        let n_at_q = (first + cells_per_proc - start).div_ceil(self.procs as u64);
                        ph.push(Phase::Lock(q as u32));
                        ph.push(Phase::Sweep {
                            base: self.cell_addr(start),
                            lines: n_at_q,
                            stride: 1,
                            write: true,
                            refs_per_line: 12,
                            busy_per_ref: 10,
                        });
                        ph.push(Phase::Unlock(q as u32));
                    }
                    ph.push(Phase::Barrier);
                    // Force computation: tree walks hit the cached top of
                    // the tree almost always; only occasional deep walks
                    // touch distant, freshly rebuilt (dirty) cells.
                    ph.push(Phase::Sweep {
                        base: self.cell_addr(0),
                        lines: 64.min(cells_per_proc),
                        stride: self.procs as u64,
                        write: false,
                        refs_per_line: 1600,
                        busy_per_ref: 12,
                    });
                    for dq in 0..self.procs {
                        let q = (p + dq) % self.procs;
                        ph.push(Phase::Random {
                            base: node_addr(NodeId(q), 0x100_0000 + q as u64 * 293 * LINE_BYTES),
                            lines: cells_per_proc,
                            count: (self.particles / self.procs as u64 / 48).max(4),
                            write_frac: 0.0,
                            busy_per_ref: 60,
                        });
                    }
                    // Per-particle force arithmetic.
                    ph.push(Phase::Compute(self.particles / self.procs as u64 * 420));
                    // Update own particles (local).
                    ph.push(Phase::Sweep {
                        base: node_addr(NodeId(p), 0x200_0000),
                        lines: own_particle_lines,
                        stride: 1,
                        write: true,
                        refs_per_line: 96,
                        busy_per_ref: 10,
                    });
                    ph.push(Phase::Barrier);
                }
                Box::new(PhaseStream::new(ph, 0xBA12, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }
}

// ====================================================================
// MP3D — rarefied-fluid particles colliding in shared space cells.
// ====================================================================

/// MP3D: 50,000 particles; the communication stress test.
#[derive(Debug, Clone, Copy)]
pub struct Mp3d {
    procs: u16,
    /// Particle count (50,000 in the paper).
    pub particles: u64,
    /// Simulated steps.
    pub steps: u32,
}

impl Mp3d {
    /// Paper-size MP3D.
    pub fn paper(procs: u16) -> Self {
        Mp3d {
            procs,
            particles: 50_000,
            steps: 8,
        }
    }

    /// Scaled-down MP3D.
    pub fn scaled(procs: u16, scale: u32) -> Self {
        Mp3d {
            procs,
            particles: div(50_000, scale).max(procs as u64 * 64),
            steps: (8 / scale).max(2),
        }
    }

    fn cells(&self) -> u64 {
        (self.particles / 4).max(64)
    }
}

impl Workload for Mp3d {
    fn name(&self) -> &'static str {
        "MP3D"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        let ppp = self.particles / self.procs as u64;
        let own_lines = (ppp * 64).div_ceil(LINE_BYTES);
        let cells_per_node = self.cells() / self.procs as u64;
        (0..self.procs)
            .map(|p| {
                let mut ph = Vec::new();
                for _ in 0..self.steps {
                    // The move loop interleaves particle updates with cell
                    // collisions, particle by particle; chunking keeps that
                    // interleaving (and staggering the node order keeps the
                    // cell traffic spread across the machine, as real
                    // particles are).
                    let chunks = self.procs as u64;
                    for c in 0..chunks {
                        ph.push(Phase::Sweep {
                            base: node_addr(
                                NodeId(p),
                                c * (own_lines / chunks).max(1) * LINE_BYTES,
                            ),
                            lines: (own_lines / chunks).max(1),
                            stride: 1,
                            write: true,
                            refs_per_line: 24,
                            busy_per_ref: 6,
                        });
                        let q = ((p as u64 + c) % self.procs as u64) as u16;
                        ph.push(Phase::Random {
                            base: node_addr(NodeId(q), 0x100_0000 + q as u64 * 293 * LINE_BYTES),
                            lines: cells_per_node,
                            count: ppp / self.procs as u64,
                            write_frac: 0.85,
                            busy_per_ref: 8,
                        });
                    }
                    ph.push(Phase::Barrier);
                }
                Box::new(PhaseStream::new(ph, 0x3D3D, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }
}

// ====================================================================
// OS — eight "makes" of a small C program under a Unix kernel.
// ====================================================================

/// The OS multiprogramming workload: 8 compiler processes, ~50% kernel
/// time, round-robin page placement (paper §3.4).
#[derive(Debug, Clone, Copy)]
pub struct OsWorkload {
    procs: u16,
    /// Compile iterations per process.
    pub compiles: u32,
    /// Use the original (non-NUMA-aware) first-node page placement of
    /// paper §4.3 instead of round-robin.
    pub first_node: bool,
}

impl OsWorkload {
    /// Paper-size OS workload (8 processors).
    pub fn paper(procs: u16) -> Self {
        OsWorkload {
            procs,
            compiles: 6,
            first_node: false,
        }
    }

    /// Scaled-down OS workload.
    pub fn scaled(procs: u16, scale: u32) -> Self {
        OsWorkload {
            procs,
            compiles: (6 / scale).max(2),
            first_node: false,
        }
    }

    /// The §4.3 configuration: the original IRIX port that fills node 0's
    /// memory first.
    pub fn original_port(mut self) -> Self {
        self.first_node = true;
        self
    }
}

/// Flat-address regions for the OS workload (homed by page policy).
mod os_region {
    /// Shared kernel text + libraries (read-only).
    pub const TEXT: u64 = 0;
    pub const TEXT_LINES: u64 = 2048; // 256 KB
    /// Migratory kernel data structures (run queues, vnodes, locks).
    pub const KERN: u64 = 0x10_0000;
    pub const KERN_LINES: u64 = 384; // 48 KB
    /// File-system buffer cache.
    pub const BUFC: u64 = 0x100_0000;
    pub const BUFC_LINES: u64 = 8192; // 1 MB
    /// Per-process user heap (1 MB apart).
    pub const fn user(p: u16) -> u64 {
        0x1000_0000 + (p as u64) * 0x10_0000
    }
    pub const USER_LINES: u64 = 6144; // 768 KB working set
}

impl Workload for OsWorkload {
    fn name(&self) -> &'static str {
        "OS"
    }

    fn procs(&self) -> u16 {
        self.procs
    }

    fn placement(&self) -> Placement {
        if self.first_node {
            Placement::FirstNode
        } else {
            Placement::RoundRobinPages { page_bytes: 4096 }
        }
    }

    fn streams(&self) -> Vec<Box<dyn RefStream>> {
        use os_region::*;
        (0..self.procs)
            .map(|p| {
                let mut ph = Vec::new();
                for c in 0..self.compiles {
                    // --- user mode: compiler passes over the heap ---
                    ph.push(Phase::Sweep {
                        base: Addr::new(user(p)),
                        lines: USER_LINES,
                        stride: 1,
                        write: (c % 2) == 1,
                        refs_per_line: 224,
                        busy_per_ref: 8,
                    });
                    // Instruction fetches from shared text (clean).
                    ph.push(Phase::Random {
                        base: Addr::new(TEXT),
                        lines: TEXT_LINES,
                        count: 384,
                        write_frac: 0.0,
                        busy_per_ref: 24,
                    });
                    // --- kernel mode: syscalls, scheduler, VM ---
                    for sys in 0..6u32 {
                        ph.push(Phase::Lock(sys % 3));
                        ph.push(Phase::Random {
                            base: Addr::new(KERN),
                            lines: KERN_LINES,
                            count: 160,
                            write_frac: 0.5,
                            busy_per_ref: 10,
                        });
                        ph.push(Phase::Unlock(sys % 3));
                    }
                    // --- file system: read source/objects via the buffer
                    // cache (freshly DMAed pages) ---
                    ph.push(Phase::Random {
                        base: Addr::new(BUFC),
                        lines: BUFC_LINES,
                        count: 768,
                        write_frac: 0.25,
                        busy_per_ref: 12,
                    });
                }
                Box::new(PhaseStream::new(ph, 0x05E5, p as u64)) as Box<dyn RefStream>
            })
            .collect()
    }

    fn dma_events(&self) -> Vec<(Cycle, NodeId, Addr)> {
        use os_region::*;
        // The zero-latency disk DMAs source files and objects into the
        // buffer cache throughout the run.
        let mut ev = Vec::new();
        let mut rng = flash_engine::DetRng::for_stream(0xD15C, 0);
        let events = 64 * self.compiles as u64;
        for i in 0..events {
            let at = Cycle::new(2_000 + i * 3_973);
            let line = rng.below(BUFC_LINES);
            let addr = Addr::new(BUFC + line * 128);
            let node = self.placement().home_of(addr, self.procs);
            ev.push((at, node, addr));
        }
        ev
    }
}
