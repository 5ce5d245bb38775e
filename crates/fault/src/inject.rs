//! The fault injector: deterministic runtime for a [`FaultPlan`].
//!
//! Each **(fault class, entity)** pair draws from its own [`DetRng`]
//! stream derived from the plan seed — one stream per directed link, per
//! NI queue direction, per protocol processor. The decision sequence for
//! an entity therefore depends only on that entity's own call sequence,
//! never on how other entities or classes interleave, so adding a fault
//! class or an entity leaves every other entity's schedule unchanged.
//! Every guard is `p > 0.0 && chance(p)`, so a zeroed plan makes no
//! draws at all and an armed-but-zero injector is byte-identical to no
//! injector.

use crate::plan::FaultPlan;
use flash_engine::{Cycle, DetRng, FastMap};
use std::collections::BTreeMap;

/// Per-class RNG stream classes (stable across versions: changing these —
/// or the entity encoding below — invalidates replay tokens). The actual
/// stream index is `class << 32 | entity`, where the entity is
/// `src << 16 | dst` for links and hops, `node << 1 | direction` for NI
/// queues, and `node` for PPs.
const STREAM_LINK: u64 = 1;
const STREAM_NI: u64 = 2;
const STREAM_PP: u64 = 3;
const STREAM_HOP: u64 = 4;

/// How long a message held by a scripted link outage waits before it is
/// re-offered to the network. Small enough that finite outages release
/// promptly; large enough that a permanent outage's re-offer loop is
/// cheap. The loop keeps the event queue alive, which is exactly what
/// turns a permanent outage into a *detectable* livelock for the
/// forward-progress watchdog (instead of a silently drained queue).
pub const HOLD_RECHECK_CYCLES: u64 = 512;

/// What the injector decided about one message offered to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Send normally.
    Clear,
    /// Send with this many extra transit cycles.
    Delay(u64),
    /// Do not send now; re-offer the message at `resume` (the verdict is
    /// re-evaluated then). Used for scripted outages.
    Hold {
        /// When to re-offer the message.
        resume: Cycle,
    },
}

/// Which side of a node's network interface a freeze applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NiDir {
    /// Inbound: messages arriving at the node wait before dispatch.
    In,
    /// Outbound: messages leaving the node wait before entering the mesh.
    Out,
}

/// Counts of injected faults and the delay they added (diagnostics and
/// replay verification; never consulted for timing decisions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Per-hop delay spikes injected.
    pub hop_spikes: u64,
    /// Transient link-stall windows opened.
    pub link_stalls: u64,
    /// Messages held by scripted link outages (re-offer events).
    pub link_holds: u64,
    /// NI queue freezes injected (both directions).
    pub ni_freezes: u64,
    /// PP slowdown bursts injected.
    pub pp_bursts: u64,
    /// DRAM refresh stalls applied to a memory controller.
    pub dram_stalls: u64,
    /// Total extra cycles of delay attached to messages (spikes plus
    /// transient-stall waits; holds are unbounded and counted separately).
    pub delay_cycles: u64,
}

/// The runtime for one machine's [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Lazily created per-(class, entity) RNG streams.
    rngs: FastMap<(u64, u64), DetRng>,
    /// End of the current transient stall per directed link.
    link_stalled_until: FastMap<(u16, u16), u64>,
    /// End of the current freeze per (node, direction).
    ni_frozen_until: FastMap<(u16, NiDir), u64>,
    /// Hold count per scripted-outage link (wedge diagnostics). Stays
    /// a `BTreeMap`: [`Self::held_links`] iterates it and its order is
    /// observable in wedge reports.
    held: BTreeMap<(u16, u16), u64>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds the injector for `plan`, or `None` when the plan is
    /// disarmed (so a disarmed machine carries no fault state at all).
    pub fn new(plan: &FaultPlan) -> Option<Self> {
        if plan.is_none() {
            return None;
        }
        Some(FaultInjector {
            plan: plan.clone(),
            rngs: FastMap::default(),
            link_stalled_until: FastMap::default(),
            ni_frozen_until: FastMap::default(),
            held: BTreeMap::new(),
            stats: FaultStats::default(),
        })
    }

    /// The RNG stream for one (class, entity) pair, created on first use.
    fn rng(&mut self, class: u64, entity: u64) -> &mut DetRng {
        let seed = self.plan.seed;
        self.rngs
            .entry((class, entity))
            .or_insert_with(|| DetRng::for_stream(seed, (class << 32) | entity))
    }

    /// Decides the fate of a message offered to the network at `at` on
    /// the directed link `src -> dst`. Scripted outages dominate; then
    /// transient link stalls; then per-hop spikes. Delays compose.
    pub fn link_verdict(&mut self, at: Cycle, src: u16, dst: u16) -> LinkVerdict {
        let t = at.raw();
        for down in &self.plan.link_down {
            if down.src == src && down.dst == dst && down.covers(t) {
                // Finite outage: wake exactly at its end. Permanent
                // outage: re-offer in bounded increments so the event
                // queue stays alive for the watchdog to observe.
                let resume = match down.until {
                    Some(u) => u.min(t + HOLD_RECHECK_CYCLES),
                    None => t + HOLD_RECHECK_CYCLES,
                };
                self.stats.link_holds += 1;
                *self.held.entry((src, dst)).or_insert(0) += 1;
                return LinkVerdict::Hold {
                    resume: Cycle::new(resume),
                };
            }
        }
        let mut delay = 0u64;
        // An open transient stall on this link delays the message to the
        // stall's end.
        if let Some(&until) = self.link_stalled_until.get(&(src, dst)) {
            if t < until {
                delay += until - t;
            }
        }
        let link_entity = (src as u64) << 16 | dst as u64;
        let p = self.plan.link_stall_p;
        if p > 0.0 && self.rng(STREAM_LINK, link_entity).chance(p) {
            let until = t + delay + self.plan.link_stall_cycles;
            self.link_stalled_until.insert((src, dst), until);
            self.stats.link_stalls += 1;
            delay += self.plan.link_stall_cycles;
        }
        let p = self.plan.hop_spike_p;
        if p > 0.0 && self.rng(STREAM_HOP, link_entity).chance(p) {
            self.stats.hop_spikes += 1;
            delay += self.plan.hop_spike_cycles;
        }
        if delay == 0 {
            LinkVerdict::Clear
        } else {
            self.stats.delay_cycles += delay;
            LinkVerdict::Delay(delay)
        }
    }

    /// NI queue freeze check for one message touching `node`'s interface
    /// in direction `dir` at `at`. Returns `Some(resume)` when the
    /// message must wait (either an open freeze window, or a freshly
    /// drawn one).
    pub fn ni_freeze(&mut self, at: Cycle, node: u16, dir: NiDir) -> Option<Cycle> {
        let t = at.raw();
        if let Some(&until) = self.ni_frozen_until.get(&(node, dir)) {
            if t < until {
                return Some(Cycle::new(until));
            }
        }
        let entity = (node as u64) << 1 | (dir == NiDir::Out) as u64;
        let p = self.plan.ni_freeze_p;
        if p > 0.0 && self.rng(STREAM_NI, entity).chance(p) {
            let until = t + self.plan.ni_freeze_cycles;
            self.ni_frozen_until.insert((node, dir), until);
            self.stats.ni_freezes += 1;
            return Some(Cycle::new(until));
        }
        None
    }

    /// PP slowdown burst for one handler invocation on `node`: extra
    /// cycles the protocol processor is held busy (0 almost always).
    pub fn pp_burst(&mut self, _at: Cycle, node: u16) -> u64 {
        let p = self.plan.pp_burst_p;
        if p > 0.0 && self.rng(STREAM_PP, node as u64).chance(p) {
            self.stats.pp_bursts += 1;
            self.plan.pp_burst_cycles
        } else {
            0
        }
    }

    /// DRAM refresh stall: when `at` falls inside a refresh window of the
    /// phase-locked global refresh clock, returns the cycle the memory
    /// controller unblocks. Purely deterministic (no RNG draws).
    pub fn dram_block(&mut self, at: Cycle) -> Option<Cycle> {
        let period = self.plan.dram_refresh_period;
        if period == 0 || self.plan.dram_refresh_cycles == 0 {
            return None;
        }
        let phase = at.raw() % period;
        if phase < self.plan.dram_refresh_cycles {
            self.stats.dram_stalls += 1;
            Some(Cycle::new(at.raw() - phase + self.plan.dram_refresh_cycles))
        } else {
            None
        }
    }

    /// Cumulative fault statistics.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Links currently (or ever) held by scripted outages, with hold
    /// counts and whether the outage is permanent — wedge diagnostics.
    pub fn held_links(&self) -> Vec<crate::wedge::StalledLink> {
        self.held
            .iter()
            .map(|(&(src, dst), &holds)| crate::wedge::StalledLink {
                src,
                dst,
                holds,
                permanent: self
                    .plan
                    .link_down
                    .iter()
                    .any(|d| d.src == src && d.dst == dst && d.until.is_none()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_builds_no_injector() {
        assert!(FaultInjector::new(&FaultPlan::none()).is_none());
        assert!(FaultInjector::new(&FaultPlan::zeroed(5)).is_some());
    }

    #[test]
    fn zeroed_plan_never_injects() {
        let mut inj = FaultInjector::new(&FaultPlan::zeroed(9)).unwrap();
        for t in 0..5_000u64 {
            assert_eq!(
                inj.link_verdict(Cycle::new(t), (t % 4) as u16, ((t + 1) % 4) as u16),
                LinkVerdict::Clear
            );
            assert_eq!(
                inj.ni_freeze(Cycle::new(t), (t % 4) as u16, NiDir::In),
                None
            );
            assert_eq!(inj.pp_burst(Cycle::new(t), 0), 0);
            assert_eq!(inj.dram_block(Cycle::new(t)), None);
        }
        assert_eq!(*inj.stats(), FaultStats::default());
    }

    #[test]
    fn identical_call_sequences_replay_identically() {
        let drive = |seed: u64| {
            let mut inj = FaultInjector::new(&FaultPlan::stress(seed)).unwrap();
            let mut log = Vec::new();
            for t in 0..3_000u64 {
                log.push(format!(
                    "{:?}|{:?}|{}|{:?}",
                    inj.link_verdict(Cycle::new(t * 7), (t % 4) as u16, ((t + 2) % 4) as u16),
                    inj.ni_freeze(Cycle::new(t * 7), (t % 4) as u16, NiDir::Out),
                    inj.pp_burst(Cycle::new(t * 7), (t % 4) as u16),
                    inj.dram_block(Cycle::new(t * 7)),
                ));
            }
            (log, *inj.stats())
        };
        let (a, sa) = drive(42);
        let (b, sb) = drive(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = drive(43);
        assert_ne!(a, c, "a different seed must change the schedule");
    }

    #[test]
    fn fault_classes_draw_from_independent_streams() {
        // Consuming PP draws must not shift the link-fault schedule.
        let link_schedule = |pp_calls: u64| {
            let mut inj = FaultInjector::new(&FaultPlan::stress(1)).unwrap();
            for t in 0..pp_calls {
                inj.pp_burst(Cycle::new(t), 0);
            }
            (0..500u64)
                .map(|t| format!("{:?}", inj.link_verdict(Cycle::new(t * 11), 0, 1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(link_schedule(0), link_schedule(1_000));
    }

    #[test]
    fn per_entity_streams_are_interleave_invariant() {
        // Two injectors over the same plan, driven with the same
        // per-entity call sequences but a completely different global
        // interleave (entity-major vs. time-major), must produce
        // identical per-entity schedules.
        let plan = FaultPlan::stress(7);
        let mut a = FaultInjector::new(&plan).unwrap();
        let mut b = FaultInjector::new(&plan).unwrap();
        let mut log_a = Vec::new();
        let mut log_b = Vec::new();
        // a: entity-major.
        for link in [(0u16, 1u16), (3, 2), (1, 0)] {
            for t in 0..400u64 {
                log_a.push((
                    link,
                    t,
                    format!("{:?}", a.link_verdict(Cycle::new(t * 5), link.0, link.1)),
                ));
            }
        }
        // b: time-major, with unrelated NI/PP draws mixed in.
        for t in 0..400u64 {
            for link in [(0u16, 1u16), (3, 2), (1, 0)] {
                b.ni_freeze(Cycle::new(t * 5), link.0, NiDir::In);
                b.pp_burst(Cycle::new(t * 5), link.1);
                log_b.push((
                    link,
                    t,
                    format!("{:?}", b.link_verdict(Cycle::new(t * 5), link.0, link.1)),
                ));
            }
        }
        log_a.sort_by_key(|&(link, t, _)| (link, t));
        log_b.sort_by_key(|&(link, t, _)| (link, t));
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn scripted_outage_holds_and_releases() {
        let plan = FaultPlan::zeroed(0).with_link_down(1, 2, 100, Some(700));
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.link_verdict(Cycle::new(50), 1, 2), LinkVerdict::Clear);
        // Inside the window: held, resume bounded by the recheck quantum.
        let LinkVerdict::Hold { resume } = inj.link_verdict(Cycle::new(100), 1, 2) else {
            panic!("expected hold");
        };
        assert_eq!(resume, Cycle::new(612));
        // Near the end of a finite window: resume exactly at its end.
        let LinkVerdict::Hold { resume } = inj.link_verdict(Cycle::new(612), 1, 2) else {
            panic!("expected hold");
        };
        assert_eq!(resume, Cycle::new(700));
        assert_eq!(inj.link_verdict(Cycle::new(700), 1, 2), LinkVerdict::Clear);
        // Other links unaffected.
        assert_eq!(inj.link_verdict(Cycle::new(100), 2, 1), LinkVerdict::Clear);
        assert_eq!(inj.stats().link_holds, 2);
        let held = inj.held_links();
        assert_eq!(held.len(), 1);
        assert_eq!((held[0].src, held[0].dst), (1, 2));
        assert!(!held[0].permanent);
    }

    #[test]
    fn permanent_outage_never_releases() {
        let plan = FaultPlan::zeroed(0).with_link_down(0, 3, 0, None);
        let mut inj = FaultInjector::new(&plan).unwrap();
        let mut t = Cycle::ZERO;
        for _ in 0..50 {
            let LinkVerdict::Hold { resume } = inj.link_verdict(t, 0, 3) else {
                panic!("permanent outage released");
            };
            assert_eq!(resume, t + HOLD_RECHECK_CYCLES);
            t = resume;
        }
        assert!(inj.held_links()[0].permanent);
    }

    #[test]
    fn transient_stall_delays_followers_on_the_same_link() {
        let plan = FaultPlan {
            link_stall_p: 1.0,
            link_stall_cycles: 300,
            ..FaultPlan::zeroed(0)
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let LinkVerdict::Delay(d0) = inj.link_verdict(Cycle::new(10), 0, 1) else {
            panic!("p=1 must stall");
        };
        assert_eq!(d0, 300);
        // A follower 100 cycles later waits out the remaining window and
        // (p=1) opens another stall on top.
        let LinkVerdict::Delay(d1) = inj.link_verdict(Cycle::new(110), 0, 1) else {
            panic!("p=1 must stall");
        };
        assert_eq!(d1, 200 + 300);
        assert!(inj.stats().delay_cycles >= 800);
    }

    #[test]
    fn ni_freeze_window_blocks_until_lift() {
        let plan = FaultPlan {
            ni_freeze_p: 1.0,
            ni_freeze_cycles: 64,
            ..FaultPlan::zeroed(0)
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let resume = inj.ni_freeze(Cycle::new(8), 2, NiDir::In).expect("freeze");
        assert_eq!(resume, Cycle::new(72));
        // Inside the window: same resume, no new draw needed.
        assert_eq!(inj.ni_freeze(Cycle::new(40), 2, NiDir::In), Some(resume));
        // Other direction and other nodes freeze independently.
        assert_ne!(inj.ni_freeze(Cycle::new(40), 2, NiDir::Out), None);
        assert_eq!(inj.stats().ni_freezes, 2);
    }

    #[test]
    fn dram_refresh_is_phase_locked() {
        let plan = FaultPlan {
            dram_refresh_period: 1_000,
            dram_refresh_cycles: 50,
            ..FaultPlan::zeroed(0)
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.dram_block(Cycle::new(10)), Some(Cycle::new(50)));
        assert_eq!(inj.dram_block(Cycle::new(50)), None);
        assert_eq!(inj.dram_block(Cycle::new(999)), None);
        assert_eq!(inj.dram_block(Cycle::new(2_049)), Some(Cycle::new(2_050)));
    }
}
