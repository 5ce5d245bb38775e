//! Single-writer / multiple-reader exclusivity, cross-checked against the
//! directory.
//!
//! The machine collects, for one 128-byte line, the set of processor
//! caches actually holding a copy ([`CachedCopy`]) and the directory's
//! view (header + sharer list at the home node), and this module decides
//! whether the combination is legal.

use crate::Violation;
use flash_engine::NodeId;
use flash_protocol::DirHeader;

/// One processor cache's copy of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedCopy {
    /// Node whose processor cache holds the copy.
    pub node: u16,
    /// Whether the copy is held exclusively (writable).
    pub exclusive: bool,
}

/// Checks SWMR and directory/cache agreement for one line.
///
/// `header` and `sharers` are the home node's directory view; `copies`
/// is the ground truth gathered from every processor cache; `home` is
/// the line's home node.
///
/// SWMR is enforced in *decomposed* form: rather than one aggregate
/// "writer coexists with other copies" check, every copy is individually
/// compared against the directory. Under a dirty header every non-owner
/// copy is `shared-under-dirty` (or a rogue writer is
/// `excl-wrong-owner`); under a clean header every exclusive copy is
/// `excl-not-dirty`; a shared copy the sharer list cannot account for is
/// `copy-not-listed`. The decomposition is equivalent in coverage but
/// names the *offending copy* in each violation's `node` field, which is
/// what lets a caller that observes the machine over time treat the
/// protocol's self-repairing transient — a deferred intervention
/// answering a forward the home has since abandoned grants a rogue copy
/// via a stale `NPut`/`NPutX`; the home's `ni_swb`/`ni_ownx` stale
/// branches repair it with `NInval`s — as *provisional*: discharged if
/// the copy is invalidated, real if it survives to quiescence. The only
/// aggregate check kept is two simultaneous writers (`swmr`), and it
/// stands down exactly when the directory vouches for one of two writers
/// (the rogue being flagged per-copy instead).
///
/// The per-copy checks only run when the header is not `PENDING`: the
/// protocol grants exclusivity as soon as invalidations are *sent* (the
/// paper's relaxed consistency, §2), so mid-transaction the directory
/// intentionally leads or lags the caches. (Copies whose invalidation or
/// intervention has progressed to a queued bus-side delivery are
/// filtered out of `copies` by the [`Checker`](crate::Checker) first.)
/// Directory agreement tolerates stale sharers (directory ⊇ caches); the
/// converse — a cached copy the directory cannot account for — is a
/// violation.
pub fn check_line_coherence(
    header: DirHeader,
    sharers: &[NodeId],
    home: u16,
    copies: &[CachedCopy],
    line: u64,
) -> Vec<Violation> {
    let mut v = Vec::new();

    // A writer the directory can vouch for: the named owner of a dirty
    // line, or the home processor when LOCAL is set.
    let legit = |w: u16| (header.dirty() && header.owner().0 == w) || (w == home && header.local());
    let writers: Vec<u16> = copies
        .iter()
        .filter(|c| c.exclusive)
        .map(|c| c.node)
        .collect();
    if writers.len() > 1 {
        // Two writers where the directory vouches for exactly one is the
        // stale-transfer race: the other writer holds a rogue copy from a
        // stale `NPutX`, already condemned by the home's repair `NInval`.
        // The per-copy checks below flag that rogue individually (and
        // attributably), so the aggregate form only fires when the
        // directory cannot single out a legitimate owner — which no
        // transient of this protocol produces.
        if !(writers.len() == 2 && writers.iter().filter(|&&w| legit(w)).count() == 1) {
            v.push(Violation {
                kind: "swmr",
                node: home,
                line,
                detail: format!("multiple exclusive copies: nodes {writers:?}"),
            });
        }
    }
    // Note there is no aggregate writer-plus-readers check: it is implied
    // by the per-copy directory agreement below. Under a dirty header
    // every non-owner copy is `shared-under-dirty` (or the rogue writer
    // is `excl-wrong-owner`); under a clean header every exclusive copy
    // is `excl-not-dirty`. The decomposition matters because each piece
    // names the offending copy, which lets the machine discharge the
    // self-repairing transients and keep the rest.
    if header.pending() {
        return v;
    }

    for c in copies {
        if c.exclusive {
            if !header.dirty() {
                v.push(Violation {
                    kind: "excl-not-dirty",
                    node: c.node,
                    line,
                    detail: format!(
                        "n{} holds the line exclusively but header {:#x} is not dirty",
                        c.node, header.0
                    ),
                });
            } else if c.node != home && header.owner().0 != c.node {
                v.push(Violation {
                    kind: "excl-wrong-owner",
                    node: c.node,
                    line,
                    detail: format!(
                        "n{} holds the line exclusively but directory owner is {}",
                        c.node,
                        header.owner()
                    ),
                });
            }
            if c.node == home && !header.local() {
                v.push(Violation {
                    kind: "excl-home-not-local",
                    node: home,
                    line,
                    detail: format!(
                        "home processor holds the line exclusively but LOCAL is clear in {:#x}",
                        header.0
                    ),
                });
            }
        } else if c.node == home {
            if !header.local() {
                v.push(Violation {
                    kind: "home-copy-not-local",
                    node: home,
                    line,
                    detail: format!(
                        "home processor holds a shared copy but LOCAL is clear in {:#x}",
                        header.0
                    ),
                });
            }
        } else if header.dirty() {
            if header.owner().0 != c.node {
                // Reported against the node *holding* the copy (not the
                // home) so callers can track whether the copy is later
                // invalidated: the stale-transfer self-repair race makes
                // this state legal *transiently* — `ni_swb`'s repair
                // `NInval`s are already committed but still in the
                // network when the rogue copy becomes visible.
                v.push(Violation {
                    kind: "shared-under-dirty",
                    node: c.node,
                    line,
                    detail: format!(
                        "n{} holds a shared copy but header {:#x} says dirty at {}",
                        c.node,
                        header.0,
                        header.owner()
                    ),
                });
            }
        } else if !sharers.iter().any(|s| s.0 == c.node) {
            // Like `shared-under-dirty`, attributed to the copy holder:
            // the same stale-grant race produces this shape when the
            // header has already lost its dirty bit by the time the
            // checker observes the window.
            v.push(Violation {
                kind: "copy-not-listed",
                node: c.node,
                line,
                detail: format!(
                    "n{} holds a shared copy absent from the sharer list {sharers:?}",
                    c.node
                ),
            });
        }
    }
    v
}

/// Whether a [`check_line_coherence`] violation kind is *provisional*: a
/// per-copy cache/directory disagreement, attributed to the copy holder,
/// that the stale-transfer self-repair race makes legal until that copy
/// is invalidated. The aggregate `swmr` check is never provisional.
pub fn is_provisional(kind: &str) -> bool {
    matches!(
        kind,
        "shared-under-dirty"
            | "copy-not-listed"
            | "excl-wrong-owner"
            | "excl-not-dirty"
            | "excl-home-not-local"
            | "home-copy-not-local"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> DirHeader {
        DirHeader::default()
    }

    #[test]
    fn clean_shared_state_passes() {
        let copies = [
            CachedCopy {
                node: 1,
                exclusive: false,
            },
            CachedCopy {
                node: 2,
                exclusive: false,
            },
        ];
        let sharers = [NodeId(1), NodeId(2), NodeId(5)]; // stale n5 tolerated
        assert!(check_line_coherence(hdr(), &sharers, 0, &copies, 0x80).is_empty());
    }

    #[test]
    fn two_writers_violate_swmr_even_when_pending() {
        let copies = [
            CachedCopy {
                node: 1,
                exclusive: true,
            },
            CachedCopy {
                node: 2,
                exclusive: true,
            },
        ];
        let h = hdr().with_pending(true);
        let v = check_line_coherence(h, &[], 0, &copies, 0x80);
        assert!(v.iter().any(|x| x.kind == "swmr"), "{v:?}");
    }

    #[test]
    fn writer_plus_reader_flags_the_reader() {
        // SWMR in decomposed form: the legitimate writer is vouched for
        // by the directory, so the violation lands on the reader's copy
        // (attributed to n2, so the machine can track its repair).
        let copies = [
            CachedCopy {
                node: 1,
                exclusive: true,
            },
            CachedCopy {
                node: 2,
                exclusive: false,
            },
        ];
        let h = hdr().with_dirty(true).with_owner(NodeId(1));
        let v = check_line_coherence(h, &[], 0, &copies, 0x80);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, "shared-under-dirty");
        assert_eq!(v[0].node, 2);
    }

    #[test]
    fn two_writers_with_one_vouched_owner_flag_only_the_rogue() {
        // The stale-NPutX race: directory says dirty at n1; n4 holds a
        // rogue exclusive copy. The aggregate swmr check stands down and
        // the rogue is flagged per-copy, attributed to n4.
        let copies = [
            CachedCopy {
                node: 1,
                exclusive: true,
            },
            CachedCopy {
                node: 4,
                exclusive: true,
            },
        ];
        let h = hdr().with_dirty(true).with_owner(NodeId(1));
        let v = check_line_coherence(h, &[], 0, &copies, 0x80);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, "excl-wrong-owner");
        assert_eq!(v[0].node, 4);
        // While PENDING the per-copy checks are gated, so the rogue
        // window is silent — but never reported as aggregate swmr.
        let v = check_line_coherence(h.with_pending(true), &[], 0, &copies, 0x80);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn exclusive_copy_requires_dirty_and_owner() {
        let copies = [CachedCopy {
            node: 3,
            exclusive: true,
        }];
        let v = check_line_coherence(hdr(), &[], 0, &copies, 0x80);
        assert!(v.iter().any(|x| x.kind == "excl-not-dirty"), "{v:?}");
        let h = hdr().with_dirty(true).with_owner(NodeId(7));
        let v = check_line_coherence(h, &[], 0, &copies, 0x80);
        assert!(v.iter().any(|x| x.kind == "excl-wrong-owner"), "{v:?}");
        let h = hdr().with_dirty(true).with_owner(NodeId(3));
        assert!(check_line_coherence(h, &[], 0, &copies, 0x80).is_empty());
    }

    #[test]
    fn unlisted_copy_is_flagged_unless_pending() {
        let copies = [CachedCopy {
            node: 4,
            exclusive: false,
        }];
        let v = check_line_coherence(hdr(), &[NodeId(1)], 0, &copies, 0x80);
        assert!(v.iter().any(|x| x.kind == "copy-not-listed"), "{v:?}");
        let h = hdr().with_pending(true);
        assert!(check_line_coherence(h, &[NodeId(1)], 0, &copies, 0x80).is_empty());
    }

    #[test]
    fn shared_under_dirty_names_the_copy_holder() {
        // Dirty at n1, but n2 holds a shared copy: the violation must be
        // attributed to n2 (the copy holder) so the machine can discharge
        // it when n2's copy is later invalidated.
        let copies = [CachedCopy {
            node: 2,
            exclusive: false,
        }];
        let h = hdr().with_dirty(true).with_owner(NodeId(1));
        let v = check_line_coherence(h, &[], 0, &copies, 0x80);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, "shared-under-dirty");
        assert_eq!(v[0].node, 2);
    }

    #[test]
    fn home_copy_uses_local_bit() {
        let copies = [CachedCopy {
            node: 0,
            exclusive: false,
        }];
        let v = check_line_coherence(hdr(), &[], 0, &copies, 0x80);
        assert!(v.iter().any(|x| x.kind == "home-copy-not-local"), "{v:?}");
        let h = hdr().with_local(true);
        assert!(check_line_coherence(h, &[], 0, &copies, 0x80).is_empty());
    }
}
