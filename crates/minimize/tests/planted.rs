//! Planted-bug shrink suite (`--features planted-bugs`).
//!
//! The feature re-introduces two historical protocol bugs:
//!
//! - **flash-cpu**: `complete_read` ignores the in-flight invalidation of
//!   a pending read grant, so a stale exclusive/shared reply resurrects a
//!   dead copy — checker-visible (`shared-under-dirty` et al.).
//! - **flash-protocol**: the native `pi_interv_reply` drops its
//!   stale-local-reply NACK guard, so a stale intervention reply rewrites
//!   an already-resolved header — the translated PP backend keeps the
//!   guard, so the differential oracle flags the divergence.
//!
//! The suite proves the minimizer earns its keep: a multi-hundred-
//! reference, 250k-cycle failing run shrinks to a handful of references
//! and fault atoms, deterministically (byte-identical to the checked-in
//! golden) and idempotently.
#![cfg(feature = "planted-bugs")]

use flash_minimize::{minimize, FaultsSpec, Predicate, SearchOptions, Spec};

const CPU_GOLDEN: &str = include_str!("../goldens/planted_cpu_invalidated_grant.json");
const PROTO_GOLDEN: &str = include_str!("../goldens/planted_proto_stale_interv_reply.json");

/// The spec the CPU-bug golden was minimized from: a 250k-cycle checked
/// stress run (184 references over 4 nodes) that trips the resurrected-
/// copy bug.
fn cpu_bug_spec() -> Spec {
    Spec::stress(4, 2, 40, 21)
        .with_faults(FaultsSpec::Light(21))
        .with_check(true)
        .with_budget(250_000)
        .with_predicate(Predicate::Violation { fingerprint: None })
}

#[test]
fn planted_cpu_bug_shrinks_to_a_tiny_artifact() {
    let initial = cpu_bug_spec().build_repro();
    assert!(initial.budget >= 200_000, "must start from a long run");
    assert!(initial.reference_count() > 100, "must start big");

    let out = minimize(
        &initial,
        &Predicate::Violation { fingerprint: None },
        &SearchOptions::default(),
    )
    .expect("planted bug fails the predicate");
    assert!(
        out.repro.reference_count() <= 20,
        "{} references survived",
        out.repro.reference_count()
    );
    assert!(
        out.repro.fault_atoms.len() <= 2,
        "{:?}",
        out.repro.fault_atoms
    );
    // Deterministic: byte-identical to the checked-in golden.
    assert_eq!(
        out.repro.to_json_string().trim_end(),
        CPU_GOLDEN.trim_end(),
        "shrink result drifted from the golden artifact"
    );
}

#[test]
fn planted_cpu_bug_shrink_is_idempotent() {
    let golden = flash::repro::Repro::parse(CPU_GOLDEN).unwrap();
    let predicate: Predicate = golden.predicate.parse().unwrap();
    let again = minimize(&golden, &predicate, &SearchOptions::default()).unwrap();
    let mut x = again.repro.clone();
    let mut y = golden.clone();
    x.provenance = String::new();
    y.provenance = String::new();
    assert_eq!(x, y, "re-minimizing the minimal artifact changed it");
}

#[test]
fn planted_protocol_bug_golden_is_minimal_under_reminimization() {
    // The oracle-divergence shrink from scratch costs thousands of
    // attempts (the race needs fault timing to line up); the golden
    // captures its result. Re-minimizing the golden must terminate
    // quickly and change nothing: it is already a fixpoint.
    let golden = flash::repro::Repro::parse(PROTO_GOLDEN).unwrap();
    let predicate: Predicate = golden.predicate.parse().unwrap();
    let again = minimize(&golden, &predicate, &SearchOptions::default()).unwrap();
    let mut x = again.repro.clone();
    let mut y = golden.clone();
    x.provenance = String::new();
    y.provenance = String::new();
    assert_eq!(x, y, "protocol golden is not a shrink fixpoint");
    assert_eq!(again.fingerprint, golden.expect.unwrap());
}
