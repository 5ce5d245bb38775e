//! Opt-in runtime correctness net for the FLASH reproduction.
//!
//! The paper's comparison between the FLASH machine (PP handlers with real
//! occupancy) and the Ideal machine (zero-time controller) is only
//! meaningful if both run the *same* dynamic-pointer-allocation protocol
//! correctly. This crate is the mechanical safety net behind that claim:
//!
//! * [`coherence`] — single-writer / multiple-reader exclusivity across
//!   all processor caches, cross-checked against the directory state;
//! * [`audit`] — directory structural integrity: sharer-list
//!   well-formedness (termination, in-range indices), free-list health,
//!   and pointer-store conservation (no leaked or aliased entries);
//! * [`oracle`] — a differential oracle that replays every PP handler
//!   invocation through the native Rust protocol on a snapshot of the
//!   same protocol memory and diffs the directory mutation and outgoing
//!   message multiset;
//! * [`stress`] — a seeded random traffic generator ([`flash_engine::DetRng`])
//!   that drives the checks across mesh sizes.
//!
//! Everything here is *opt-in*: the machine runs these checks only when
//! checked mode is enabled, so default-mode runs are byte-identical to a
//! build without this crate.
//!
//! Invariants deliberately **not** enforced (all observed as legitimate
//! transients of this protocol):
//!
//! * duplicate node ids inside one sharer list — a node can re-request a
//!   line while its replacement hint is still in flight, and a hint that
//!   arrives during a `PENDING` window is dropped, so the duplicate may
//!   even persist;
//! * directory sharer lists are allowed to be a *superset* of the caches
//!   actually holding copies (hints are hints, and a NACKed/poisoned
//!   grant can leave a stale pointer) — the converse, a cached copy the
//!   directory does not know about, is a violation;
//! * anything while the header's `PENDING` bit is set, beyond structural
//!   well-formedness: mid-transaction the directory intentionally leads
//!   or lags the caches.

pub mod audit;
pub mod coherence;
pub mod oracle;
pub mod stress;

pub use audit::{audit_directory, check_pointer_store, walk_free_list, walk_sharers};
pub use coherence::{check_line_coherence, CachedCopy};
pub use oracle::{diff_invocation, encode, OracleState};
pub use stress::stress_streams;

use std::fmt;

/// One detected invariant violation.
///
/// `kind` is a stable machine-readable tag (e.g. `"swmr"`,
/// `"oracle-out"`, `"dir-list-cycle"`); `detail` is for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable tag naming the violated invariant.
    pub kind: &'static str,
    /// Node where the violation was observed (home node for directory
    /// checks, the chip's node for oracle checks).
    pub node: u16,
    /// Raw byte address of the 128-byte line concerned (0 when the
    /// violation is not line-specific).
    pub line: u64,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    /// A stable structural identifier: invariant kind, node, and line —
    /// everything except the free-form `detail` text, which legitimately
    /// changes as a failing run is shrunk (it quotes cycle counts, sharer
    /// bitmaps, and queue contents). Minimization predicates and CI triage
    /// match on this instead of on the `Display` string.
    ///
    /// # Examples
    ///
    /// ```
    /// use flash_check::Violation;
    ///
    /// let v = Violation {
    ///     kind: "copy-not-listed",
    ///     node: 3,
    ///     line: 0x1_0000_4000,
    ///     detail: "cache holds Shared but directory bitmap is 0x2".into(),
    /// };
    /// assert_eq!(v.fingerprint(), "copy-not-listed@n3:0x100004000");
    /// ```
    pub fn fingerprint(&self) -> String {
        format!("{}@n{}:{:#x}", self.kind, self.node, self.line)
    }

    /// Serializes the violation (fingerprint embedded) for triage
    /// artifacts.
    pub fn to_json(&self) -> flash_engine::json::Json {
        use flash_engine::json::Json;
        Json::obj(vec![
            ("schema", Json::str("flash-violation-v1")),
            ("fingerprint", Json::str(self.fingerprint())),
            ("kind", Json::str(self.kind)),
            ("node", Json::UInt(self.node as u64)),
            ("line", Json::UInt(self.line)),
            ("detail", Json::str(self.detail.clone())),
        ])
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] node n{} line {:#x}: {}",
            self.kind, self.node, self.line, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_is_greppable() {
        let v = Violation {
            kind: "swmr",
            node: 3,
            line: 0x8000,
            detail: "two writers".into(),
        };
        let s = v.to_string();
        assert!(s.contains("[swmr]"));
        assert!(s.contains("n3"));
        assert!(s.contains("0x8000"));
    }

    #[test]
    fn violation_fingerprint_ignores_detail() {
        let a = Violation {
            kind: "swmr",
            node: 3,
            line: 0x8000,
            detail: "two writers at cycle 12345".into(),
        };
        let b = Violation {
            detail: "two writers at cycle 99".into(),
            ..a.clone()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), "swmr@n3:0x8000");
        let c = Violation {
            kind: "copy-not-listed",
            ..a.clone()
        };
        assert_ne!(c.fingerprint(), a.fingerprint());
    }

    #[test]
    fn violation_json_round_trips() {
        use flash_engine::json::Json;
        let v = Violation {
            kind: "swmr",
            node: 3,
            line: 0x8000,
            detail: "two \"writers\"".into(),
        };
        let round = Json::parse(&v.to_json().render()).unwrap();
        assert_eq!(
            round.get("fingerprint").and_then(Json::as_str),
            Some("swmr@n3:0x8000")
        );
        assert_eq!(
            round.get("detail").and_then(Json::as_str),
            Some("two \"writers\"")
        );
    }
}
