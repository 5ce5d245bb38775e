//! Failure specifications: the CLI surface of `minimize`.
//!
//! A [`Spec`] names everything needed to rebuild a failing run from
//! scratch — workload (a seeded stress net or a named paper workload,
//! materialized to a bounded explicit list), machine knobs, fault plan,
//! budget — plus the [`Predicate`] to shrink against. It parses from
//! `minimize`'s argument list and renders back to the identical one-line
//! invocation, which is what the randomized test suites print on failure:
//! every red `fault_soak`/`checked_stress` run is one paste away from a
//! minimal artifact.

use crate::predicate::Predicate;
use flash::repro::Repro;
use flash::ControllerKind;
use flash_fault::{FaultPlan, LinkDown};
use flash_workloads::ExplicitWorkload;
use std::fmt;

/// Where the reference streams come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// `flash_check::stress_streams(nodes, lines_per_node, items_per_proc,
    /// seed)` — the generator behind `tests/checked_stress.rs` and
    /// `tests/fault_soak.rs`.
    Stress {
        /// Mesh size.
        nodes: u16,
        /// Distinct lines per node memory.
        lines_per_node: u64,
        /// Work items per processor.
        items_per_proc: usize,
        /// Stream seed.
        seed: u64,
    },
    /// A named paper workload (`flash_workloads::by_name`), materialized
    /// to at most `bound` references per processor.
    Workload {
        /// Workload name (Table 3.5 spelling).
        name: String,
        /// Processor count.
        procs: u16,
        /// Scale divisor.
        scale: u32,
        /// Materialization bound (references per processor).
        bound: usize,
    },
    /// An open-loop Poisson/uniform traffic run
    /// (`flash_traffic::TrafficSpec::poisson`), each node's arrival
    /// stream materialized to a closed-loop item list with `Busy` gaps
    /// standing in for inter-arrival time
    /// (`flash_traffic::materialize`) — the bridge that lets the
    /// existing stream-shrinking machinery chew on `traffic_soak`
    /// failures.
    Traffic {
        /// Mesh size (= per-node sources).
        nodes: u16,
        /// Distinct objects the traffic touches.
        objects: u64,
        /// References per node.
        items_per_node: u64,
        /// Mean cycles between arrivals at one node.
        mean_gap: u64,
        /// Traffic seed.
        seed: u64,
        /// Materialization bound (references per node).
        bound: usize,
    },
}

/// Which fault-plan preset seeds the initial atom list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultsSpec {
    /// No faults.
    None,
    /// Armed, all-zero rates (hook-visibility pinning).
    Zeroed(u64),
    /// `FaultPlan::light(seed)`.
    Light(u64),
    /// `FaultPlan::stress(seed)`.
    Stress(u64),
}

impl FaultsSpec {
    fn plan(self) -> FaultPlan {
        match self {
            FaultsSpec::None => FaultPlan::none(),
            FaultsSpec::Zeroed(s) => FaultPlan::zeroed(s),
            FaultsSpec::Light(s) => FaultPlan::light(s),
            FaultsSpec::Stress(s) => FaultPlan::stress(s),
        }
    }
}

/// A complete failure specification.
///
/// # Examples
///
/// ```
/// use flash_minimize::Spec;
///
/// let args = ["--stress", "8,4,96,7", "--faults", "light,7", "--check",
///             "--predicate", "violation"];
/// let spec = Spec::from_args(&args.map(String::from)).unwrap();
/// assert_eq!(spec.to_string(),
///            "--stress 8,4,96,7 --faults light,7 --check --predicate violation");
/// let round = Spec::from_args(
///     &spec.to_string().split(' ').map(String::from).collect::<Vec<_>>(),
/// ).unwrap();
/// assert_eq!(round, spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Reference-stream source.
    pub source: Source,
    /// Controller kind (default: the detailed emulated FLASH).
    pub controller: ControllerKind,
    /// Cache capacity override (`None`: the 1 MB default).
    pub cache_bytes: Option<u64>,
    /// Checked mode.
    pub check: bool,
    /// Fault preset.
    pub faults: FaultsSpec,
    /// Scripted link outages appended to the preset.
    pub link_down: Vec<LinkDown>,
    /// Watchdog override (`None`: node-scaled default).
    pub watchdog: Option<u64>,
    /// Cycle budget (default 2M — the randomized nets' run length).
    pub budget: u64,
    /// The failure predicate.
    pub predicate: Predicate,
}

impl Spec {
    /// A stress-net spec with the suite defaults — the constructor the
    /// soak tests use to print their repro invocation.
    pub fn stress(nodes: u16, lines_per_node: u64, items_per_proc: usize, seed: u64) -> Spec {
        Spec {
            source: Source::Stress {
                nodes,
                lines_per_node,
                items_per_proc,
                seed,
            },
            controller: ControllerKind::FlashEmulated,
            cache_bytes: None,
            check: false,
            faults: FaultsSpec::None,
            link_down: Vec::new(),
            watchdog: None,
            budget: 2_000_000,
            predicate: Predicate::Wedge { fingerprint: None },
        }
    }

    /// An open-loop traffic spec with the suite defaults — the
    /// constructor `tests/traffic_soak.rs` uses to print its repro
    /// invocation. The materialization bound defaults to the full item
    /// budget; `ddmin` shrinks from there.
    pub fn traffic(
        nodes: u16,
        objects: u64,
        items_per_node: u64,
        mean_gap: u64,
        seed: u64,
    ) -> Spec {
        Spec {
            source: Source::Traffic {
                nodes,
                objects,
                items_per_node,
                mean_gap,
                seed,
                bound: items_per_node as usize,
            },
            ..Spec::stress(0, 0, 0, 0)
        }
    }

    /// Sets the fault preset.
    pub fn with_faults(mut self, faults: FaultsSpec) -> Spec {
        self.faults = faults;
        self
    }

    /// Enables checked mode.
    pub fn with_check(mut self, on: bool) -> Spec {
        self.check = on;
        self
    }

    /// Sets the predicate.
    pub fn with_predicate(mut self, p: Predicate) -> Spec {
        self.predicate = p;
        self
    }

    /// Sets the cycle budget.
    pub fn with_budget(mut self, budget: u64) -> Spec {
        self.budget = budget;
        self
    }

    /// The ready-to-paste shell command reproducing this spec.
    pub fn command_line(&self) -> String {
        format!("cargo run --release -p flash-minimize --bin minimize -- {self}")
    }

    /// Materializes the spec into the initial (unshrunk) [`Repro`].
    pub fn build_repro(&self) -> Repro {
        let (nodes, streams) = match &self.source {
            Source::Stress {
                nodes,
                lines_per_node,
                items_per_proc,
                seed,
            } => (
                *nodes,
                flash_check::stress_streams(*nodes, *lines_per_node, *items_per_proc, *seed),
            ),
            Source::Workload {
                name,
                procs,
                scale,
                bound,
            } => {
                let w = flash_workloads::by_name(name, *procs, *scale);
                let e = ExplicitWorkload::materialize(w.as_ref(), *bound);
                (e.procs, e.streams)
            }
            Source::Traffic {
                nodes,
                objects,
                items_per_node,
                mean_gap,
                seed,
                bound,
            } => {
                let spec = flash_traffic::TrafficSpec::poisson(
                    *nodes,
                    *objects,
                    *items_per_node,
                    *mean_gap,
                    *seed,
                );
                let streams = spec
                    .sources()
                    .into_iter()
                    .map(|mut s| flash_traffic::materialize(s.as_mut(), *bound))
                    .collect();
                (*nodes, streams)
            }
        };
        let mut plan = self.faults.plan();
        for l in &self.link_down {
            plan = plan.with_link_down(l.src, l.dst, l.from, l.until);
        }
        let mut r = Repro::flash(nodes);
        r.controller = self.controller;
        if let Some(bytes) = self.cache_bytes {
            r.cache_bytes = bytes;
        }
        if let Source::Workload {
            name, procs, scale, ..
        } = &self.source
        {
            r.placement = flash_workloads::by_name(name, *procs, *scale).placement();
            let w = flash_workloads::by_name(name, *procs, *scale);
            r.dma = w
                .dma_events()
                .into_iter()
                .map(|(at, node, addr)| (at.raw(), node.0, addr.raw()))
                .collect();
        }
        r.check = self.check || self.predicate.needs_check();
        if let Some(w) = self.watchdog {
            r.watchdog_window = w;
        }
        r.fault_seed = plan.seed;
        r.fault_atoms = plan.atoms();
        r.budget = self.budget;
        r.streams = streams;
        r.predicate = self.predicate.to_string();
        r.provenance = format!("spec: {self}");
        r
    }

    /// Parses a spec from `minimize`'s argument list. Unrecognized flags
    /// are an error (the bin strips its own output flags first).
    pub fn from_args(args: &[String]) -> Result<Spec, String> {
        let mut source: Option<Source> = None;
        let mut spec = Spec::stress(0, 0, 0, 0); // placeholder source
        let mut predicate: Option<Predicate> = None;
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--stress" => {
                    let v = value(&mut i, "--stress")?;
                    let p: Vec<&str> = v.split(',').collect();
                    let [n, l, it, s] = p[..] else {
                        return Err("--stress needs NODES,LINES,ITEMS,SEED".into());
                    };
                    source = Some(Source::Stress {
                        nodes: positive(n, "--stress nodes")?,
                        lines_per_node: positive(l, "--stress lines")?,
                        items_per_proc: it.parse().map_err(|_| "bad --stress items")?,
                        seed: s.parse().map_err(|_| "bad --stress seed")?,
                    });
                }
                "--workload" => {
                    let v = value(&mut i, "--workload")?;
                    let p: Vec<&str> = v.split(',').collect();
                    let (name, procs, scale, bound) = match p[..] {
                        [n, pr, sc] => (n, pr, sc, "100000"),
                        [n, pr, sc, b] => (n, pr, sc, b),
                        _ => return Err("--workload needs NAME,PROCS,SCALE[,BOUND]".into()),
                    };
                    if !flash_workloads::PARALLEL_APPS.contains(&name) && name != "OS" {
                        return Err(format!("unknown workload `{name}`"));
                    }
                    source = Some(Source::Workload {
                        name: name.to_string(),
                        procs: positive(procs, "--workload procs")?,
                        scale: positive(scale, "--workload scale")?,
                        bound: bound.parse().map_err(|_| "bad --workload bound")?,
                    });
                }
                "--traffic" => {
                    let v = value(&mut i, "--traffic")?;
                    let p: Vec<&str> = v.split(',').collect();
                    let (n, o, it, g, s, b) = match p[..] {
                        [n, o, it, g, s] => (n, o, it, g, s, None),
                        [n, o, it, g, s, b] => (n, o, it, g, s, Some(b)),
                        _ => {
                            return Err(
                                "--traffic needs NODES,OBJECTS,ITEMS,GAP,SEED[,BOUND]".into()
                            )
                        }
                    };
                    let items: u64 = it.parse().map_err(|_| "bad --traffic items")?;
                    source = Some(Source::Traffic {
                        nodes: positive(n, "--traffic nodes")?,
                        objects: positive(o, "--traffic objects")?,
                        items_per_node: items,
                        mean_gap: positive(g, "--traffic gap")?,
                        seed: s.parse().map_err(|_| "bad --traffic seed")?,
                        bound: match b {
                            None => items as usize,
                            Some(b) => b.parse().map_err(|_| "bad --traffic bound")?,
                        },
                    });
                }
                "--controller" => {
                    spec.controller = match value(&mut i, "--controller")?.as_str() {
                        "flash" => ControllerKind::FlashEmulated,
                        "ideal" => ControllerKind::Ideal,
                        other => return Err(format!("unknown controller `{other}`")),
                    };
                }
                "--cache" => {
                    spec.cache_bytes = Some(
                        value(&mut i, "--cache")?
                            .parse()
                            .map_err(|_| "bad --cache")?,
                    );
                }
                "--check" => spec.check = true,
                "--faults" => {
                    let v = value(&mut i, "--faults")?;
                    spec.faults = match v.split_once(',') {
                        None if v == "none" => FaultsSpec::None,
                        Some((preset, seed)) => {
                            let seed: u64 = seed.parse().map_err(|_| "bad --faults seed")?;
                            match preset {
                                "zeroed" => FaultsSpec::Zeroed(seed),
                                "light" => FaultsSpec::Light(seed),
                                "stress" => FaultsSpec::Stress(seed),
                                other => return Err(format!("unknown faults preset `{other}`")),
                            }
                        }
                        None => return Err(format!("bad --faults `{v}`")),
                    };
                }
                "--link-down" => {
                    let v = value(&mut i, "--link-down")?;
                    let p: Vec<&str> = v.split(',').collect();
                    let (src, dst, from, until) = match p[..] {
                        [s, d, f] => (s, d, f, None),
                        [s, d, f, u] => (s, d, f, Some(u)),
                        _ => return Err("--link-down needs SRC,DST,FROM[,UNTIL]".into()),
                    };
                    spec.link_down.push(LinkDown {
                        src: src.parse().map_err(|_| "bad --link-down src")?,
                        dst: dst.parse().map_err(|_| "bad --link-down dst")?,
                        from: from.parse().map_err(|_| "bad --link-down from")?,
                        until: match until {
                            None => None,
                            Some(u) => Some(u.parse().map_err(|_| "bad --link-down until")?),
                        },
                    });
                }
                "--watchdog" => {
                    spec.watchdog = Some(
                        value(&mut i, "--watchdog")?
                            .parse()
                            .map_err(|_| "bad --watchdog")?,
                    );
                }
                "--budget" => {
                    spec.budget = value(&mut i, "--budget")?
                        .parse()
                        .map_err(|_| "bad --budget")?;
                }
                "--predicate" => {
                    predicate = Some(value(&mut i, "--predicate")?.parse()?);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
            i += 1;
        }
        spec.source = source.ok_or("a --stress, --workload or --traffic source is required")?;
        spec.predicate = predicate.ok_or("--predicate is required")?;
        Ok(spec)
    }
}

/// Parses a source-tuple field that must be a positive integer: a zero
/// node, line, object, gap or scale count has no machine to build.
fn positive<T: std::str::FromStr + Default + PartialEq>(v: &str, what: &str) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n != T::default())
        .ok_or(format!("bad {what}: need a positive integer"))
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Source::Stress {
                nodes,
                lines_per_node,
                items_per_proc,
                seed,
            } => write!(
                f,
                "--stress {nodes},{lines_per_node},{items_per_proc},{seed}"
            )?,
            Source::Workload {
                name,
                procs,
                scale,
                bound,
            } => write!(f, "--workload {name},{procs},{scale},{bound}")?,
            Source::Traffic {
                nodes,
                objects,
                items_per_node,
                mean_gap,
                seed,
                bound,
            } => write!(
                f,
                "--traffic {nodes},{objects},{items_per_node},{mean_gap},{seed},{bound}"
            )?,
        }
        match self.controller {
            ControllerKind::FlashEmulated => {}
            ControllerKind::Ideal => write!(f, " --controller ideal")?,
        }
        if let Some(bytes) = self.cache_bytes {
            write!(f, " --cache {bytes}")?;
        }
        match self.faults {
            FaultsSpec::None => {}
            FaultsSpec::Zeroed(s) => write!(f, " --faults zeroed,{s}")?,
            FaultsSpec::Light(s) => write!(f, " --faults light,{s}")?,
            FaultsSpec::Stress(s) => write!(f, " --faults stress,{s}")?,
        }
        for l in &self.link_down {
            match l.until {
                None => write!(f, " --link-down {},{},{}", l.src, l.dst, l.from)?,
                Some(u) => write!(f, " --link-down {},{},{},{u}", l.src, l.dst, l.from)?,
            }
        }
        if self.check {
            write!(f, " --check")?;
        }
        if let Some(w) = self.watchdog {
            write!(f, " --watchdog {w}")?;
        }
        if self.budget != 2_000_000 {
            write!(f, " --budget {}", self.budget)?;
        }
        write!(f, " --predicate {}", self.predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Spec, String> {
        Spec::from_args(&line.split(' ').map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn display_parse_round_trip() {
        for line in [
            "--stress 8,4,96,7 --predicate wedge",
            "--stress 16,8,192,3 --faults stress,3 --check --predicate violation",
            "--workload FFT,4,64,500 --cache 65536 --predicate oracle",
            "--traffic 4,64,200,30,11,200 --faults light,3 --check --predicate violation",
            "--stress 8,4,96,7 --faults zeroed,0 --link-down 1,2,120000 --watchdog 150000 --budget 400000 --predicate wedge",
            "--stress 4,2,16,1 --controller ideal --link-down 0,1,100,900 --predicate exit:true",
        ] {
            let spec = parse(line).unwrap();
            assert_eq!(spec.to_string(), line);
            assert_eq!(parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "--predicate wedge",                      // no source
            "--stress 8,4,96,7",                      // no predicate
            "--stress 8,4,96 --predicate wedge",      // short tuple
            "--traffic 4,64,200 --predicate wedge",   // short traffic tuple
            "--stress 8,4,96,7 --predicate nonsense", // bad predicate
            "--stress 8,4,96,7 --faults heavy,1 --predicate wedge",
            "--stress 8,4,96,7 --frobnicate --predicate wedge",
            "--stress 8,4,96,7 --budget --predicate wedge",
            // Zero counts would panic (or divide by zero) building the run.
            "--traffic 4,0,50,30,11 --predicate wedge",
            "--traffic 4,64,50,0,11 --predicate wedge",
            "--traffic 0,64,50,30,11 --predicate wedge",
            "--stress 0,2,40,21 --predicate wedge",
            "--stress 4,0,40,21 --predicate wedge",
            "--workload FFT,0,64 --predicate wedge",
            "--workload FFT,4,0 --predicate wedge",
            "--workload Nope,4,64 --predicate wedge",
            "--stress 8,4,96,7 --controller cost-table --predicate wedge",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stress_spec_builds_a_repro() {
        let spec =
            parse("--stress 4,2,24,9 --faults light,9 --check --predicate violation").unwrap();
        let r = spec.build_repro();
        assert_eq!(r.nodes, 4);
        assert_eq!(r.streams.len(), 4);
        assert!(r.check, "violation predicate forces checked mode");
        assert!(!r.fault_atoms.is_empty());
        assert_eq!(r.fault_seed, 9);
        assert_eq!(r.predicate, "violation");
        assert!(r.provenance.starts_with("spec: --stress 4,2,24,9"));
        // The generator is seeded: same spec, same streams.
        assert_eq!(spec.build_repro().to_json_string(), r.to_json_string());
    }

    #[test]
    fn traffic_spec_materializes_paced_streams() {
        let spec = parse("--traffic 4,64,50,30,11,50 --check --predicate violation").unwrap();
        let r = spec.build_repro();
        assert_eq!(r.nodes, 4);
        assert_eq!(r.streams.len(), 4);
        for s in &r.streams {
            use flash_cpu::WorkItem;
            let refs = s
                .iter()
                .filter(|i| matches!(i, WorkItem::Read(_) | WorkItem::Write(_)))
                .count();
            assert_eq!(refs, 50, "bound covers the whole item budget");
            assert!(
                s.iter().any(|i| matches!(i, WorkItem::Busy(_))),
                "inter-arrival gaps materialize as busy work"
            );
        }
        // Parse → build is seeded: byte-identical repro both times.
        assert_eq!(spec.build_repro().to_json_string(), r.to_json_string());
        // Shortened form defaults the bound to the item budget.
        let short = parse("--traffic 4,64,50,30,11 --check --predicate violation").unwrap();
        assert_eq!(short, spec);
    }

    #[test]
    fn workload_spec_carries_placement_and_dma() {
        let spec = parse("--workload OS,4,16,100 --predicate wedge").unwrap();
        let r = spec.build_repro();
        assert_eq!(r.nodes, 4);
        assert!(!r.dma.is_empty(), "OS workload has DMA traffic");
        assert!(matches!(
            r.placement,
            flash::Placement::RoundRobinPages { .. }
        ));
    }

    #[test]
    fn command_line_is_pasteable() {
        let spec = Spec::stress(8, 4, 96, 7).with_predicate(Predicate::Wedge { fingerprint: None });
        let cmd = spec.command_line();
        assert!(cmd.starts_with("cargo run --release -p flash-minimize"));
        assert!(cmd.ends_with("--stress 8,4,96,7 --predicate wedge"));
    }
}
