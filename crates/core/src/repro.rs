//! Self-contained, replayable failure reproducers (`flash-repro-v1`).
//!
//! A [`Repro`] is everything [`Machine`] needs to replay one run exactly:
//! the model-relevant configuration knobs, the fault plan as a seed plus
//! an editable [`FaultAtom`] list, the fully materialized per-processor
//! reference streams, scripted DMA writes, and the cycle budget. It
//! round-trips through a versioned JSON artifact, so a minimal
//! counterexample found by `flash-minimize` can be checked into the tree,
//! uploaded from CI, or pasted into a regression test, and replayed
//! bit-identically years later.
//!
//! What is deliberately **not** in the artifact: host-performance knobs
//! (`shards`, `pp_backend`, `inline_runs`, observers, the host profiler) —
//! those are pinned byte-identical by the determinism suite and must not
//! fragment reproducers — and the memory/network/path timing tables,
//! which v1 fixes at the paper's §3.2 defaults (every randomized net in
//! this tree runs the default tables; a future schema rev can add
//! overrides if a failure ever depends on them).
//!
//! The schema is documented in `METRICS.md`; the minimization pipeline
//! that emits these artifacts lives in `flash-minimize`.

use crate::config::{MachineConfig, Placement};
use crate::machine::{Machine, RunResult};
use flash_check::Violation;
use flash_cpu::{SliceStream, WorkItem};
use flash_engine::json::Json;
use flash_engine::{Addr, Cycle, NodeId};
use flash_fault::{FaultAtom, FaultPlan};
use flash_magic::ControllerKind;
use flash_pp::CodegenOptions;

/// Schema tag carried by every artifact.
pub const REPRO_SCHEMA: &str = "flash-repro-v1";

/// A self-contained failure reproducer: configuration, faults, streams,
/// DMA script, budget, and the predicate/fingerprint it was minimized
/// against.
///
/// # Examples
///
/// ```
/// use flash::repro::Repro;
/// use flash_cpu::WorkItem;
///
/// let mut r = Repro::flash(2);
/// r.streams = vec![vec![WorkItem::Busy(100)], vec![WorkItem::Busy(50)]];
/// r.budget = 100_000;
/// let text = r.to_json_string();
/// let back = Repro::parse(&text).unwrap();
/// assert_eq!(back, r);
/// assert!(back.replay().is_clean());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Node (= processor) count.
    pub nodes: u16,
    /// Controller kind.
    pub controller: ControllerKind,
    /// Processor cache capacity in bytes.
    pub cache_bytes: u64,
    /// MSHRs per processor.
    pub mshrs: usize,
    /// Inbox speculation knob.
    pub speculation: bool,
    /// PP code generation.
    pub codegen: CodegenOptions,
    /// MDC model knob.
    pub mdc_enabled: bool,
    /// Monitoring protocol variant.
    pub monitoring: bool,
    /// Checked mode (the `flash-check` net). Violation predicates need
    /// this on; wedge predicates usually leave it off.
    pub check: bool,
    /// Page-placement policy.
    pub placement: Placement,
    /// Watchdog window in cycles (0 disables).
    pub watchdog_window: u64,
    /// Fault-plan RNG seed (meaningful only with nonempty `fault_atoms`,
    /// but always carried so shrinks never change it).
    pub fault_seed: u64,
    /// Editable fault-plan ingredients; empty means no injector.
    pub fault_atoms: Vec<FaultAtom>,
    /// Run budget in cycles.
    pub budget: u64,
    /// Materialized reference stream per processor (no trailing `Done`).
    pub streams: Vec<Vec<WorkItem>>,
    /// Scripted DMA writes: `(cycle, node, addr)`.
    pub dma: Vec<(u64, u16, u64)>,
    /// The failure predicate this artifact was minimized against, in
    /// `flash-minimize` CLI syntax (e.g. `"wedge"`, `"violation"`).
    pub predicate: String,
    /// Expected failure fingerprint, when the predicate pinned one.
    pub expect: Option<String>,
    /// Free-form provenance line (original spec, shrink statistics).
    pub provenance: String,
}

impl Repro {
    /// A repro of the detailed FLASH machine at `nodes` nodes with empty
    /// streams, no faults, and the scaled default watchdog — the starting
    /// point minimizers and tests fill in.
    pub fn flash(nodes: u16) -> Self {
        let cfg = MachineConfig::flash(nodes);
        Repro {
            nodes,
            controller: cfg.controller,
            cache_bytes: cfg.cache_bytes,
            mshrs: cfg.mshrs,
            speculation: cfg.speculation,
            codegen: cfg.codegen,
            mdc_enabled: cfg.mdc_enabled,
            monitoring: cfg.monitoring,
            check: false,
            placement: cfg.placement,
            watchdog_window: cfg.watchdog_window,
            fault_seed: 0,
            fault_atoms: Vec::new(),
            budget: 2_000_000,
            streams: Vec::new(),
            dma: Vec::new(),
            predicate: String::new(),
            expect: None,
            provenance: String::new(),
        }
    }

    /// Captures the model-relevant knobs of an existing config. The
    /// timing tables must be the defaults (see the module docs); panics
    /// in debug builds otherwise so a minimizer can't silently emit an
    /// artifact that replays under different timing.
    pub fn from_config(cfg: &MachineConfig) -> Self {
        debug_assert_eq!(
            cfg.mem_timing,
            Default::default(),
            "flash-repro-v1 fixes the default memory timing"
        );
        debug_assert_eq!(
            cfg.net,
            Default::default(),
            "flash-repro-v1 fixes the default network config"
        );
        Repro {
            nodes: cfg.nodes,
            controller: cfg.controller,
            cache_bytes: cfg.cache_bytes,
            mshrs: cfg.mshrs,
            speculation: cfg.speculation,
            codegen: cfg.codegen,
            mdc_enabled: cfg.mdc_enabled,
            monitoring: cfg.monitoring,
            check: cfg.check,
            placement: cfg.placement,
            watchdog_window: cfg.watchdog_window,
            fault_seed: cfg.faults.seed,
            fault_atoms: cfg.faults.atoms(),
            ..Self::flash(cfg.nodes)
        }
    }

    /// The machine configuration this artifact replays under. Host knobs
    /// are byte-identity-pinned and not part of the artifact: `pp_backend`
    /// is the translated default, and `shards` is the `FLASH_SHARDS`
    /// process default of [`MachineConfig::flash`].
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::flash(self.nodes);
        cfg.controller = self.controller;
        cfg.cache_bytes = self.cache_bytes;
        cfg.mshrs = self.mshrs;
        cfg.speculation = self.speculation;
        cfg.codegen = self.codegen;
        cfg.mdc_enabled = self.mdc_enabled;
        cfg.monitoring = self.monitoring;
        cfg.check = self.check;
        cfg.placement = self.placement;
        cfg.watchdog_window = self.watchdog_window;
        cfg.faults = FaultPlan::from_atoms(self.fault_seed, &self.fault_atoms);
        cfg
    }

    /// Builds the machine: config plus one [`SliceStream`] per processor
    /// (missing trailing streams are empty) plus the DMA script.
    ///
    /// # Panics
    ///
    /// Panics if the artifact names more streams than nodes.
    pub fn build(&self) -> Machine {
        self.build_with(self.config())
    }

    /// [`Repro::build`] under a caller-adjusted configuration — the hook
    /// cross-shard-divergence predicates use to force a specific `shards`
    /// value. Only host knobs may differ from [`Repro::config`]; changing
    /// a model knob makes the artifact replay a different machine.
    pub fn build_with(&self, cfg: MachineConfig) -> Machine {
        assert!(
            self.streams.len() <= self.nodes as usize,
            "repro has {} streams for {} nodes",
            self.streams.len(),
            self.nodes
        );
        let mut streams: Vec<Box<dyn flash_cpu::RefStream>> = Vec::new();
        for p in 0..self.nodes as usize {
            let items = self.streams.get(p).cloned().unwrap_or_default();
            streams.push(Box::new(SliceStream::new(items)));
        }
        let mut m = Machine::new(cfg, streams);
        for &(at, node, addr) in &self.dma {
            m.add_dma_write(Cycle::new(at), NodeId(node), Addr::new(addr));
        }
        m
    }

    /// [`Repro::replay`] with a forced shard count (byte-identity across
    /// shard counts is the invariant the `shards:` predicate probes).
    pub fn replay_with_shards(&self, shards: usize) -> ReplayOutcome {
        let mut m = self.build_with(self.config().with_shards(shards));
        let result = m.run(self.budget);
        let violations = m.check_violations();
        let oracle_checked = m.oracle_checked();
        ReplayOutcome {
            result,
            violations,
            oracle_checked,
        }
    }

    /// Replays the artifact to completion (or wedge/deadlock/budget) and
    /// reports what happened.
    pub fn replay(&self) -> ReplayOutcome {
        let mut m = self.build();
        let result = m.run(self.budget);
        let violations = m.check_violations();
        let oracle_checked = m.oracle_checked();
        ReplayOutcome {
            result,
            violations,
            oracle_checked,
        }
    }

    /// Serializes the artifact. Deterministic: same repro → same bytes.
    pub fn to_json(&self) -> Json {
        let placement = match self.placement {
            Placement::Explicit => Json::obj(vec![("kind", Json::str("explicit"))]),
            Placement::RoundRobinPages { page_bytes } => Json::obj(vec![
                ("kind", Json::str("round_robin_pages")),
                ("page_bytes", Json::UInt(page_bytes)),
            ]),
            Placement::FirstNode => Json::obj(vec![("kind", Json::str("first_node"))]),
        };
        Json::obj(vec![
            ("schema", Json::str(REPRO_SCHEMA)),
            ("nodes", Json::UInt(self.nodes as u64)),
            (
                "controller",
                Json::str(match self.controller {
                    ControllerKind::FlashEmulated => "flash-emulated",
                    ControllerKind::FlashCostTable => "flash-cost-table",
                    ControllerKind::Ideal => "ideal",
                }),
            ),
            ("cache_bytes", Json::UInt(self.cache_bytes)),
            ("mshrs", Json::UInt(self.mshrs as u64)),
            ("speculation", Json::Bool(self.speculation)),
            ("special_instrs", Json::Bool(self.codegen.special_instrs)),
            ("dual_issue", Json::Bool(self.codegen.dual_issue)),
            ("mdc_enabled", Json::Bool(self.mdc_enabled)),
            ("monitoring", Json::Bool(self.monitoring)),
            ("check", Json::Bool(self.check)),
            ("placement", placement),
            ("watchdog_window", Json::UInt(self.watchdog_window)),
            ("fault_seed", Json::UInt(self.fault_seed)),
            (
                "fault_atoms",
                Json::Arr(self.fault_atoms.iter().map(FaultAtom::to_json).collect()),
            ),
            ("budget", Json::UInt(self.budget)),
            (
                "streams",
                Json::Arr(
                    self.streams
                        .iter()
                        .map(|s| Json::Arr(s.iter().map(item_to_json).collect()))
                        .collect(),
                ),
            ),
            (
                "dma",
                Json::Arr(
                    self.dma
                        .iter()
                        .map(|&(at, node, addr)| {
                            Json::Arr(vec![
                                Json::UInt(at),
                                Json::UInt(node as u64),
                                Json::UInt(addr),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("predicate", Json::str(self.predicate.clone())),
            (
                "expect",
                match &self.expect {
                    Some(fp) => Json::str(fp.clone()),
                    None => Json::Null,
                },
            ),
            ("provenance", Json::str(self.provenance.clone())),
        ])
    }

    /// [`Repro::to_json`] rendered to text with a trailing newline (the
    /// on-disk artifact form).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }

    /// Parses an artifact from text.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }

    /// Deserializes an artifact from its JSON value form.
    pub fn from_json(v: &Json) -> Result<Repro, String> {
        match v.get("schema").and_then(Json::as_str) {
            Some(REPRO_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported repro schema `{other}`")),
            None => return Err("not a flash repro artifact (no `schema`)".into()),
        }
        let u = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("repro: missing `{key}`"))
        };
        let b = |key: &str| {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or(format!("repro: missing `{key}`"))
        };
        let controller = match v.get("controller").and_then(Json::as_str) {
            Some("flash-emulated") => ControllerKind::FlashEmulated,
            Some("flash-cost-table") => ControllerKind::FlashCostTable,
            Some("ideal") => ControllerKind::Ideal,
            other => return Err(format!("repro: bad `controller` {other:?}")),
        };
        let pv = v.get("placement").ok_or("repro: missing `placement`")?;
        let placement = match pv.get("kind").and_then(Json::as_str) {
            Some("explicit") => Placement::Explicit,
            Some("round_robin_pages") => Placement::RoundRobinPages {
                page_bytes: pv
                    .get("page_bytes")
                    .and_then(Json::as_u64)
                    .ok_or("repro: placement missing `page_bytes`")?,
            },
            Some("first_node") => Placement::FirstNode,
            other => return Err(format!("repro: bad placement {other:?}")),
        };
        let mut fault_atoms = Vec::new();
        for a in v
            .get("fault_atoms")
            .and_then(Json::as_arr)
            .ok_or("repro: missing `fault_atoms`")?
        {
            fault_atoms.push(FaultAtom::from_json(a)?);
        }
        let mut streams = Vec::new();
        for s in v
            .get("streams")
            .and_then(Json::as_arr)
            .ok_or("repro: missing `streams`")?
        {
            let items = s.as_arr().ok_or("repro: stream is not an array")?;
            streams.push(
                items
                    .iter()
                    .map(item_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        let mut dma = Vec::new();
        for d in v
            .get("dma")
            .and_then(Json::as_arr)
            .ok_or("repro: missing `dma`")?
        {
            match d.as_arr() {
                Some([at, node, addr]) => dma.push((
                    at.as_u64().ok_or("repro: bad dma cycle")?,
                    node.as_u64().ok_or("repro: bad dma node")? as u16,
                    addr.as_u64().ok_or("repro: bad dma addr")?,
                )),
                _ => return Err("repro: dma entry is not [at, node, addr]".into()),
            }
        }
        Ok(Repro {
            nodes: u("nodes")? as u16,
            controller,
            cache_bytes: u("cache_bytes")?,
            mshrs: u("mshrs")? as usize,
            speculation: b("speculation")?,
            codegen: CodegenOptions {
                special_instrs: b("special_instrs")?,
                dual_issue: b("dual_issue")?,
            },
            mdc_enabled: b("mdc_enabled")?,
            monitoring: b("monitoring")?,
            check: b("check")?,
            placement,
            watchdog_window: u("watchdog_window")?,
            fault_seed: u("fault_seed")?,
            fault_atoms,
            budget: u("budget")?,
            streams,
            dma,
            predicate: v
                .get("predicate")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            expect: v.get("expect").and_then(Json::as_str).map(str::to_string),
            provenance: v
                .get("provenance")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }

    /// Total reference count across all streams (`Busy` items included —
    /// each is one stream element the minimizer could have removed).
    pub fn reference_count(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

impl MachineConfig {
    /// The configuration a [`Repro`] artifact replays under (see
    /// [`Repro::config`]).
    pub fn from_repro(repro: &Repro) -> Self {
        repro.config()
    }
}

impl Machine {
    /// Builds a machine replaying a [`Repro`] artifact exactly (see
    /// [`Repro::build`]).
    pub fn from_repro(repro: &Repro) -> Self {
        repro.build()
    }
}

/// What replaying a [`Repro`] produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// How the run ended.
    pub result: RunResult,
    /// Checker violations (empty when checked mode was off or clean).
    pub violations: Vec<Violation>,
    /// Handler invocations diffed by the differential oracle (0 when the
    /// oracle was off).
    pub oracle_checked: u64,
}

impl ReplayOutcome {
    /// The wedge fingerprint, when the run wedged.
    pub fn wedge_fingerprint(&self) -> Option<String> {
        match &self.result {
            RunResult::Wedged { report } => Some(report.fingerprint()),
            _ => None,
        }
    }

    /// Sorted, deduplicated violation fingerprints.
    pub fn violation_fingerprints(&self) -> Vec<String> {
        let mut v: Vec<String> = self.violations.iter().map(Violation::fingerprint).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Whether the run completed with no violations — the assertion a
    /// golden-reproducer regression test makes once the underlying bug is
    /// fixed.
    pub fn is_clean(&self) -> bool {
        matches!(self.result, RunResult::Completed { .. }) && self.violations.is_empty()
    }
}

fn item_to_json(item: &WorkItem) -> Json {
    match *item {
        WorkItem::Busy(n) => Json::Arr(vec![Json::str("b"), Json::UInt(n)]),
        WorkItem::Read(a) => Json::Arr(vec![Json::str("r"), Json::UInt(a.raw())]),
        WorkItem::Write(a) => Json::Arr(vec![Json::str("w"), Json::UInt(a.raw())]),
        WorkItem::Barrier => Json::Arr(vec![Json::str("bar")]),
        WorkItem::Lock(id) => Json::Arr(vec![Json::str("l"), Json::UInt(id as u64)]),
        WorkItem::Unlock(id) => Json::Arr(vec![Json::str("u"), Json::UInt(id as u64)]),
        WorkItem::Done => Json::Arr(vec![Json::str("done")]),
    }
}

fn item_from_json(v: &Json) -> Result<WorkItem, String> {
    let arr = v.as_arr().ok_or("repro: stream item is not an array")?;
    let tag = arr
        .first()
        .and_then(Json::as_str)
        .ok_or("repro: stream item has no tag")?;
    let arg = || {
        arr.get(1)
            .and_then(Json::as_u64)
            .ok_or(format!("repro: stream item `{tag}` missing argument"))
    };
    match tag {
        "b" => Ok(WorkItem::Busy(arg()?)),
        "r" => Ok(WorkItem::Read(Addr::new(arg()?))),
        "w" => Ok(WorkItem::Write(Addr::new(arg()?))),
        "bar" => Ok(WorkItem::Barrier),
        "l" => Ok(WorkItem::Lock(arg()? as u32)),
        "u" => Ok(WorkItem::Unlock(arg()? as u32)),
        "done" => Ok(WorkItem::Done),
        other => Err(format!("repro: unknown stream item tag `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::node_addr;

    fn sample() -> Repro {
        let a = node_addr(NodeId(1), 0x4000);
        let mut r = Repro::flash(3);
        r.check = true;
        r.cache_bytes = 64 << 10;
        r.watchdog_window = 100_000;
        r.fault_seed = 7;
        r.fault_atoms = vec![FaultAtom::LinkDown(flash_fault::LinkDown {
            src: 1,
            dst: 2,
            from: 1_000,
            until: None,
        })];
        r.budget = 400_000;
        r.streams = vec![
            vec![WorkItem::Busy(20_000), WorkItem::Read(a), WorkItem::Busy(4)],
            vec![WorkItem::Busy(4)],
            vec![WorkItem::Write(a), WorkItem::Busy(4)],
        ];
        r.dma = vec![(500, 2, node_addr(NodeId(2), 0x800).raw())];
        r.predicate = "wedge".into();
        r.expect = Some("wedge|links=[1->2!]|pending=[...]|waiters=[...]".into());
        r.provenance = "unit test".into();
        r
    }

    #[test]
    fn json_round_trip_is_lossless_and_deterministic() {
        let r = sample();
        let text = r.to_json_string();
        let back = Repro::parse(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json_string(), text, "canonical form is stable");
    }

    #[test]
    fn every_work_item_kind_round_trips() {
        let items = vec![
            WorkItem::Busy(3),
            WorkItem::Read(Addr::new(0x2_0000_0080)),
            WorkItem::Write(Addr::new(0x80)),
            WorkItem::Barrier,
            WorkItem::Lock(5),
            WorkItem::Unlock(5),
            WorkItem::Done,
        ];
        for item in items {
            assert_eq!(item_from_json(&item_to_json(&item)).unwrap(), item);
        }
    }

    #[test]
    fn config_reconstruction_matches() {
        let r = sample();
        let cfg = MachineConfig::from_repro(&r);
        assert_eq!(cfg.nodes, 3);
        assert_eq!(cfg.cache_bytes, 64 << 10);
        assert!(cfg.check);
        assert_eq!(cfg.watchdog_window, 100_000);
        assert_eq!(cfg.faults.seed, 7);
        assert_eq!(cfg.faults.link_down.len(), 1);
        assert!(!cfg.faults.is_none());
        // Dropping every atom disarms the rebuilt plan.
        let mut bare = r.clone();
        bare.fault_atoms.clear();
        assert!(bare.config().faults.is_none());
    }

    #[test]
    fn replay_reproduces_the_canonical_crafted_wedge() {
        // The machine.rs `permanent_link_outage_wedges_with_diagnosis`
        // scenario, expressed as an artifact: the link 1->2 outage traps
        // the write-back/intervention path, node 0's read never completes.
        let mut r = sample();
        r.check = false; // wedge repro; checker not needed
        let out = r.replay();
        let fp = out.wedge_fingerprint().expect("run must wedge");
        assert!(fp.starts_with("wedge|links=[1->2!]|"), "{fp}");
        // Same artifact, same wedge — the identity the minimizer pins.
        assert_eq!(r.replay().wedge_fingerprint().unwrap(), fp);
    }

    #[test]
    fn clean_replay_is_clean() {
        let mut r = Repro::flash(2);
        r.check = true;
        r.budget = 1_000_000;
        r.streams = vec![
            vec![
                WorkItem::Read(node_addr(NodeId(0), 0x80)),
                WorkItem::Busy(4),
            ],
            vec![
                WorkItem::Write(node_addr(NodeId(0), 0x80)),
                WorkItem::Busy(4),
            ],
        ];
        let out = r.replay();
        assert!(out.is_clean(), "{:?}", out.result);
        assert!(out.wedge_fingerprint().is_none());
        assert!(out.violation_fingerprints().is_empty());
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(Repro::parse("{}").is_err());
        assert!(Repro::parse(r#"{"schema":"flash-observe-v1"}"#).is_err());
        assert!(Repro::parse("not json").is_err());
        let truncated = r#"{"schema":"flash-repro-v1","nodes":2}"#;
        assert!(Repro::parse(truncated).is_err());
    }

    #[test]
    fn extra_streams_panic_but_missing_streams_pad() {
        let mut r = Repro::flash(2);
        r.streams = vec![vec![WorkItem::Busy(10)]]; // one of two: pads
        r.budget = 100_000;
        assert!(r.replay().is_clean());
        r.streams = vec![vec![], vec![], vec![]]; // three for two nodes
        assert!(std::panic::catch_unwind(|| r.build()).is_err());
    }
}
