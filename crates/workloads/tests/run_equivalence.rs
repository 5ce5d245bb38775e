//! Run retirement is invisible: a processor that pulls whole sweep lines
//! as runs ([`PhaseStream`]) behaves, call for call, like one that
//! interprets the same stream item by item ([`SliceStream`]).
//!
//! Both processors see identical bus messages between `run` calls, through
//! [`Processor::deliver`]: miss completions, invalidations, interventions
//! (deferred, served or given up, which poisons the grant) and NACK
//! retries, at random entry times. After every call their outcomes,
//! statistics, clocks and emitted requests must agree, and at the end so
//! must the state of every line the stream touched and the whole tag
//! store.
//!
//! Only the time quantum can cut a phase stream: every phase item costs
//! at least one quarter-cycle, so at most 8,001 items start per call,
//! far below the 50,000-item budget. `flash-cpu`'s processor tests cover
//! the item cut inside a run.

use flash_cpu::{BusReply, CpuOut, Processor, RefStream, RunOutcome, SliceStream, WorkItem};
use flash_engine::{Addr, Cycle, DetRng};
use flash_protocol::{MsgType, ProcMsg};
use flash_workloads::{Phase, PhaseStream};
use proptest::prelude::*;

/// 16 sets, so sweeps and random phases evict one another.
const CACHE_BYTES: u64 = 4 << 10;

fn sweep(
    (base, lines, stride, write, refs_per_line, busy_per_ref): (u64, u64, u64, bool, u32, u32),
) -> Phase {
    Phase::Sweep {
        base: Addr::from_line_index(base),
        lines,
        stride,
        write,
        refs_per_line,
        busy_per_ref,
    }
}

fn phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        6 => (0u64..48, 1u64..6, 1u64..4, any::<bool>(), 1u32..400, 0u32..9).prop_map(sweep),
        // Lines longer than one time quantum.
        1 => (0u64..48, 1u64..3, 1u64..2, any::<bool>(), 2_000u32..12_000, 0u32..4)
            .prop_map(sweep),
        2 => (0u64..3_000).prop_map(Phase::Compute),
        2 => (0u64..48, 1u64..32, 1u64..40, 0u32..=10, 0u32..4).prop_map(
            |(base, lines, count, tenths, busy_per_ref)| Phase::Random {
                base: Addr::from_line_index(base),
                lines,
                count,
                write_frac: f64::from(tenths) / 10.0,
                busy_per_ref,
            }
        ),
        1 => Just(Phase::Barrier),
        1 => Just(Phase::Lock(1)),
        1 => Just(Phase::Unlock(1)),
    ]
}

/// The two processors under test: `runs` pulls runs, `items` the same
/// stream item by item.
struct Pair {
    runs: Processor,
    items: Processor,
}

impl Pair {
    fn new(phases: Vec<Phase>) -> (Pair, Vec<Addr>) {
        let mut drained = PhaseStream::new(phases.clone(), 7, 3);
        let items: Vec<WorkItem> = std::iter::from_fn(|| Some(drained.next_item()))
            .take_while(|it| *it != WorkItem::Done)
            .collect();
        let mut lines: Vec<Addr> = items
            .iter()
            .filter_map(|it| match it {
                WorkItem::Read(a) | WorkItem::Write(a) => Some(a.line()),
                _ => None,
            })
            .collect();
        lines.sort_by_key(|a| a.raw());
        lines.dedup();
        let pair = Pair {
            runs: Processor::new(CACHE_BYTES, 4, Box::new(PhaseStream::new(phases, 7, 3))),
            items: Processor::new(CACHE_BYTES, 4, Box::new(SliceStream::new(items))),
        };
        (pair, lines)
    }

    /// Applies `f` to both processors and asserts equal results and
    /// emitted requests.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        mut f: impl FnMut(&mut Processor, &mut Vec<(Cycle, CpuOut)>) -> T,
    ) -> T {
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        let ra = f(&mut self.runs, &mut oa);
        let rb = f(&mut self.items, &mut ob);
        assert_eq!(ra, rb, "{what}: results diverged");
        assert_eq!(oa, ob, "{what}: emitted requests diverged");
        ra
    }

    /// Delivers `mtype` for `line` to both processors (`tries` earlier
    /// deferrals) and asserts equal replies and emitted requests.
    fn deliver(&mut self, mtype: MsgType, line: Addr, tries: u32, now: Cycle) -> BusReply {
        let pm = ProcMsg {
            mtype,
            addr: line,
            aux: 0,
            with_data: false,
        };
        self.both(&format!("{mtype:?}"), |p, out| {
            p.deliver(pm, tries, now, out)
        })
    }

    /// A random outstanding miss, if any.
    fn some_mshr(&self, rng: &mut DetRng) -> Option<Addr> {
        let lines: Vec<Addr> = self.runs.mshr_entries().map(|m| m.line).collect();
        (!lines.is_empty()).then(|| lines[rng.below(lines.len() as u64) as usize])
    }
}

/// Drives both processors to the end under the event schedule `seed`
/// picks, comparing them after every step.
fn drive(phases: Vec<Phase>, seed: u64) {
    let (mut pair, lines) = Pair::new(phases);
    let mut rng = DetRng::for_stream(seed, 0);
    let mut now = Cycle::ZERO;
    for call in 0..200_000 {
        let outcome = pair.both("run", |p, out| p.run(now, out));
        assert_eq!(pair.runs.stats(), pair.items.stats(), "call {call}: stats");
        assert_eq!(pair.runs.now(), pair.items.now(), "call {call}: clock");
        if outcome == RunOutcome::Finished {
            for &l in &lines {
                assert_eq!(
                    pair.runs.cache().state_of(l),
                    pair.items.cache().state_of(l)
                );
            }
            // Down to the LRU stamps, which no state query shows.
            let tags = |p: &Processor| format!("{:?}", p.cache());
            assert_eq!(tags(&pair.runs), tags(&pair.items));
            return;
        }
        // Events land at or after the processor's clock (no reply precedes
        // its request), sometimes well after it.
        now = Cycle::new(now.max(pair.runs.now()).raw() + rng.below(2) * rng.below(300));
        let blocked = matches!(outcome, RunOutcome::BlockedRead | RunOutcome::BlockedWrite);
        // A blocked processor always gets a completion, so the run ends.
        let mut complete = blocked;
        for _ in 0..rng.below(3) {
            match rng.below(5) {
                0 => complete = true,
                1 if !lines.is_empty() => {
                    let l = lines[rng.below(lines.len() as u64) as usize];
                    pair.deliver(MsgType::PInval, l, 0, now);
                }
                2 if !lines.is_empty() => {
                    // Deferred when the line has a miss in flight.
                    let l = lines[rng.below(lines.len() as u64) as usize];
                    pair.deliver(interv(rng.chance(0.5)), l, 0, now);
                }
                3 => {
                    if let Some(l) = pair.some_mshr(&mut rng) {
                        pair.deliver(MsgType::PNackRetry, l, 0, now);
                    }
                }
                4 => {
                    // Past any deferral limit: the intervention gives up
                    // and poisons the miss.
                    if let Some(l) = pair.some_mshr(&mut rng) {
                        let reply = pair.deliver(interv(rng.chance(0.5)), l, u32::MAX, now);
                        assert_eq!(reply, BusReply::IntervMiss);
                    }
                }
                _ => {}
            }
        }
        if complete {
            if let Some(l) = pair.some_mshr(&mut rng) {
                let put = if rng.chance(0.5) {
                    MsgType::PPutX
                } else {
                    MsgType::PPut
                };
                pair.deliver(put, l, 0, now);
            }
        }
    }
    panic!("the stream did not finish");
}

/// An intervention, exclusive or shared.
fn interv(exclusive: bool) -> MsgType {
    if exclusive {
        MsgType::PIntervGetX
    } else {
        MsgType::PIntervGet
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn runs_retire_like_items(
        phases in proptest::collection::vec(phase(), 1..12),
        seed in any::<u64>(),
    ) {
        drive(phases, seed);
    }
}

/// A write sweep long enough that the time quantum cuts its lines. From
/// time 0 the first cut lands between a Busy and its reference when
/// `busy_per_ref` is 3 (the Busy starts at exactly 8,000 quarter-cycles),
/// between a reference and the next Busy when it is 2, and between two
/// references when it is 0. Every cut line then resumes where it stopped.
#[test]
fn time_cut_lands_mid_line_and_resumes() {
    for (busy_per_ref, busy_items_past_refs) in [(3, 1), (2, 0), (0, 0)] {
        let phases = vec![
            sweep((4, 2, 1, true, 9_000, busy_per_ref)),
            sweep((4, 2, 1, false, 9_000, busy_per_ref)),
        ];
        let (mut pair, _) = Pair::new(phases);
        let mut now = Cycle::ZERO;
        let mut cuts = 0;
        loop {
            let outcome = pair.both("run", |p, out| p.run(now, out));
            let stats = *pair.runs.stats();
            assert_eq!(stats, *pair.items.stats());
            assert_eq!(pair.runs.now(), pair.items.now());
            if cuts == 0 && outcome == RunOutcome::Quantum {
                // Every reference costs 1 and every Busy item `busy_per_ref`.
                let busy_items = (stats.busy_q - stats.writes) / u64::from(busy_per_ref.max(1));
                let expect = if busy_per_ref > 0 { stats.writes } else { 0 };
                assert_eq!(
                    busy_items,
                    expect + busy_items_past_refs,
                    "busy {busy_per_ref}"
                );
            }
            now = now.max(pair.runs.now());
            match outcome {
                RunOutcome::Finished => break,
                RunOutcome::Quantum => cuts += 1,
                _ => {
                    let l = pair.runs.mshr_entries().next().expect("blocked").line;
                    pair.deliver(MsgType::PPutX, l, 0, now);
                }
            }
        }
        assert!(cuts >= 4, "busy {busy_per_ref}: only {cuts} cuts");
    }
}
