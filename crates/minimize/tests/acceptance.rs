//! End-to-end acceptance: shrink a crafted permanent-link-outage wedge
//! on an 8-node mesh from a 400k-cycle checked stress run down to a
//! replayable artifact of a handful of references, and prove the
//! artifact replays to the exact same wedge fingerprint, both directly
//! and through its recorded predicate.
//!
//! (Gated off under `planted-bugs`: the planted protocol bugs perturb
//! the stress run this scenario is tuned against.)
#![cfg(not(feature = "planted-bugs"))]

use flash_fault::LinkDown;
use flash_minimize::{minimize, EvalOptions, Predicate, SearchOptions, Spec};

#[test]
fn crafted_link_outage_wedge_shrinks_and_replays() {
    // Permanent outage of the 2->5 link from cycle 2000, under a seeded
    // 8-node stress net: node 2's traffic into node 5's memory (and
    // vice versa) eventually wedges behind the dead link.
    let mut spec = Spec::stress(8, 2, 60, 10)
        .with_check(true)
        .with_budget(400_000)
        .with_predicate(Predicate::Wedge { fingerprint: None });
    spec.link_down.push(LinkDown {
        src: 2,
        dst: 5,
        from: 2_000,
        until: None,
    });
    spec.watchdog = Some(100_000);

    let initial = spec.build_repro();
    assert!(initial.budget >= 200_000, "must start from a long run");
    assert!(initial.reference_count() > 400, "must start big");

    let out = minimize(
        &initial,
        &Predicate::Wedge { fingerprint: None },
        &SearchOptions::default(),
    )
    .expect("the outage wedges the initial run");
    let r = &out.repro;

    assert!(
        r.reference_count() <= 20,
        "{} references survived: {:?}",
        r.reference_count(),
        r.streams
    );
    assert!(r.fault_atoms.len() <= 2, "{:?}", r.fault_atoms);
    assert!(r.nodes <= 8);
    assert!(
        out.fingerprint.contains("links=[2->5!]"),
        "{}",
        out.fingerprint
    );

    // The artifact round-trips through its serialized form and replays
    // to the exact pinned fingerprint.
    let round = flash::repro::Repro::parse(&r.to_json_string()).unwrap();
    assert_eq!(&round, r);
    assert_eq!(
        round.replay().wedge_fingerprint().as_deref(),
        Some(out.fingerprint.as_str())
    );

    // The artifact's own predicate re-observes the identical wedge.
    let p: Predicate = r.predicate.parse().unwrap();
    assert_eq!(
        p.eval(&round, &EvalOptions::default()).as_deref(),
        Some(out.fingerprint.as_str())
    );
}
