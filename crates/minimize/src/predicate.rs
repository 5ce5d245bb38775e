//! Failure predicates: what "still fails" means during shrinking.
//!
//! A predicate evaluates a candidate [`Repro`] and answers with the
//! observed failure fingerprint (`None`: the candidate is healthy, or
//! failed in some *different* way — both mean the shrink step is
//! rejected). Every evaluation runs under
//! [`flash_bench::isolate::call`]: a candidate that panics inside the
//! simulator is simply "not failing the right way", and with a wall-clock
//! limit set, a candidate that hangs (watchdog shrunk too far) costs one
//! timeout instead of hanging the search.

use flash::repro::{ReplayOutcome, Repro};
use flash_bench::isolate;
use std::fmt;
use std::time::Duration;

/// Evaluation policy, shared by every predicate.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Wall-clock limit per candidate evaluation. `None` trusts the
    /// candidate's own cycle budget and watchdog (the deterministic
    /// default — timeouts depend on host speed, so artifact-determinism
    /// tests leave this unset).
    pub timeout: Option<Duration>,
}

impl EvalOptions {
    fn replay(&self, repro: &Repro) -> Option<ReplayOutcome> {
        let r = repro.clone();
        isolate::call(self.timeout, move || r.replay()).ok()
    }
}

/// A failure predicate in `flash-minimize`'s CLI syntax.
///
/// | Syntax | Meaning |
/// |---|---|
/// | `wedge` | any [`RunResult::Wedged`](flash::RunResult::Wedged) |
/// | `wedge:<fp>` | a wedge with exactly this fingerprint |
/// | `violation` | any checker violation (checked mode must be on) |
/// | `violation:<fp>` | a violation with exactly this fingerprint |
/// | `oracle` | any native-vs-PP differential-oracle divergence |
/// | `exit:<cmd>` | `<cmd> <artifact-path>` exits nonzero |
///
/// # Examples
///
/// ```
/// use flash_minimize::Predicate;
///
/// let p: Predicate = "wedge:wedge|links=[1->2!]|pending=[]|waiters=[]".parse().unwrap();
/// assert_eq!(p.to_string(), "wedge:wedge|links=[1->2!]|pending=[]|waiters=[]");
/// assert!("frobnicate".parse::<Predicate>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// The run wedges (optionally with a pinned fingerprint).
    Wedge {
        /// Exact [`flash::WedgeReport::fingerprint`] to require.
        fingerprint: Option<String>,
    },
    /// The checker reports a violation (optionally a pinned fingerprint).
    Violation {
        /// Exact [`flash_check::Violation::fingerprint`] to require.
        fingerprint: Option<String>,
    },
    /// The native-vs-PP differential oracle diverges.
    Oracle,
    /// An external command, invoked as `cmd <artifact-path>`, exits
    /// nonzero.
    ExitNonzero {
        /// The command line prefix (run through `sh -c`, with the
        /// candidate artifact path appended).
        cmd: String,
    },
}

impl Predicate {
    /// Evaluates a candidate. `Some(fingerprint)` when the candidate
    /// fails the predicate's way; `None` when healthy, failing some other
    /// way, panicking, or timing out.
    pub fn eval(&self, repro: &Repro, opts: &EvalOptions) -> Option<String> {
        match self {
            Predicate::Wedge { fingerprint } => {
                let observed = opts.replay(repro)?.wedge_fingerprint()?;
                match fingerprint {
                    Some(want) if *want != observed => None,
                    _ => Some(observed),
                }
            }
            Predicate::Violation { fingerprint } => {
                let fps = opts.replay(repro)?.violation_fingerprints();
                match fingerprint {
                    Some(want) => fps.contains(want).then(|| want.clone()),
                    None => fps.into_iter().next(),
                }
            }
            Predicate::Oracle => opts
                .replay(repro)?
                .violation_fingerprints()
                .into_iter()
                .find(|fp| fp.starts_with("oracle-")),
            Predicate::ExitNonzero { cmd } => {
                let path = std::env::temp_dir().join(format!(
                    "flash-minimize-{}-{:x}.json",
                    std::process::id(),
                    fxhash(repro.to_json_string().as_bytes())
                ));
                std::fs::write(&path, repro.to_json_string()).ok()?;
                let status = std::process::Command::new("sh")
                    .arg("-c")
                    .arg(format!("{cmd} {}", path.display()))
                    .status();
                let _ = std::fs::remove_file(&path);
                match status {
                    Ok(s) if !s.success() => Some(format!("exit:{}", s.code().unwrap_or(-1))),
                    _ => None,
                }
            }
        }
    }

    /// Returns this predicate with the observed fingerprint pinned, so
    /// the shrink keeps *this* failure rather than drifting to any
    /// failure. Only `wedge`/`violation` pin; the others are already
    /// exact.
    pub fn pinned(&self, observed: &str) -> Predicate {
        match self {
            Predicate::Wedge { fingerprint: None } => Predicate::Wedge {
                fingerprint: Some(observed.to_string()),
            },
            Predicate::Violation { fingerprint: None } => Predicate::Violation {
                fingerprint: Some(observed.to_string()),
            },
            other => other.clone(),
        }
    }

    /// Whether the candidate must run in checked mode for this predicate
    /// to be observable.
    pub fn needs_check(&self) -> bool {
        matches!(self, Predicate::Violation { .. } | Predicate::Oracle)
    }
}

/// Tiny FNV-style hash for temp-file naming (not cryptographic).
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Wedge { fingerprint: None } => write!(f, "wedge"),
            Predicate::Wedge {
                fingerprint: Some(fp),
            } => write!(f, "wedge:{fp}"),
            Predicate::Violation { fingerprint: None } => write!(f, "violation"),
            Predicate::Violation {
                fingerprint: Some(fp),
            } => write!(f, "violation:{fp}"),
            Predicate::Oracle => write!(f, "oracle"),
            Predicate::ExitNonzero { cmd } => write!(f, "exit:{cmd}"),
        }
    }
}

impl std::str::FromStr for Predicate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (s, None),
        };
        match (head, rest) {
            ("wedge", fp) => Ok(Predicate::Wedge {
                fingerprint: fp.map(str::to_string),
            }),
            ("violation", fp) => Ok(Predicate::Violation {
                fingerprint: fp.map(str::to_string),
            }),
            ("oracle", None) => Ok(Predicate::Oracle),
            ("exit", Some(cmd)) if !cmd.is_empty() => Ok(Predicate::ExitNonzero {
                cmd: cmd.to_string(),
            }),
            _ => Err(format!(
                "unknown predicate `{s}` (expected wedge[:fp], violation[:fp], oracle, exit:cmd)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash::config::node_addr;
    use flash_cpu::WorkItem;
    use flash_engine::NodeId;
    use flash_fault::{FaultAtom, LinkDown};

    fn wedge_repro() -> Repro {
        let a = node_addr(NodeId(1), 0x4000);
        let mut r = Repro::flash(3);
        r.watchdog_window = 100_000;
        r.fault_atoms = vec![FaultAtom::LinkDown(LinkDown {
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
        r
    }

    #[test]
    fn parse_display_round_trip() {
        for text in [
            "wedge",
            "wedge:wedge|links=[1->2!]|pending=[]|waiters=[]",
            "violation",
            "violation:swmr@n3:0x8000",
            "oracle",
            "exit:cargo run -q --bin replayer --",
        ] {
            let p: Predicate = text.parse().unwrap();
            assert_eq!(p.to_string(), text);
        }
        assert!("".parse::<Predicate>().is_err());
        assert!("oracle:x".parse::<Predicate>().is_err());
        assert!("exit:".parse::<Predicate>().is_err());
    }

    #[test]
    fn wedge_predicate_matches_and_pins() {
        let r = wedge_repro();
        let any = Predicate::Wedge { fingerprint: None };
        let opts = EvalOptions::default();
        let fp = any.eval(&r, &opts).expect("crafted outage must wedge");
        assert!(fp.starts_with("wedge|links=[1->2!]|"));
        let pinned = any.pinned(&fp);
        assert_eq!(pinned.eval(&r, &opts), Some(fp.clone()));
        // A different pinned fingerprint rejects the candidate.
        let other = Predicate::Wedge {
            fingerprint: Some("wedge|links=[0->1!]|pending=[]|waiters=[]".into()),
        };
        assert_eq!(other.eval(&r, &opts), None);
    }

    #[test]
    fn healthy_candidate_fails_no_predicate() {
        let mut r = wedge_repro();
        r.fault_atoms.clear(); // no outage: completes
        r.check = true;
        let opts = EvalOptions::default();
        assert_eq!(Predicate::Wedge { fingerprint: None }.eval(&r, &opts), None);
        assert_eq!(
            Predicate::Violation { fingerprint: None }.eval(&r, &opts),
            None
        );
        assert_eq!(Predicate::Oracle.eval(&r, &opts), None);
    }

    #[test]
    fn exit_predicate_runs_external_command() {
        let r = wedge_repro();
        let opts = EvalOptions::default();
        let fail = Predicate::ExitNonzero {
            cmd: "test ! -s".into(), // artifact is nonempty → nonzero exit
        };
        assert_eq!(fail.eval(&r, &opts), Some("exit:1".into()));
        let pass = Predicate::ExitNonzero {
            cmd: "test -s".into(),
        };
        assert_eq!(pass.eval(&r, &opts), None);
    }

    #[test]
    fn needs_check_is_accurate() {
        assert!(Predicate::Violation { fingerprint: None }.needs_check());
        assert!(Predicate::Oracle.needs_check());
        assert!(!Predicate::Wedge { fingerprint: None }.needs_check());
    }
}
