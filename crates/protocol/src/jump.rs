//! The inbox jump table.
//!
//! "The inbox uses parts of the message header to index into a small
//! associative memory array called the *jump table*. The output of the
//! jump table specifies the starting program counter value for the PP code
//! sequence (or *handler*) appropriate for the message, as well as whether
//! to initiate a speculative memory operation for the address contained in
//! the message header" (paper §2). The table is programmable — disabling
//! the speculation bits reproduces paper Table 5.1's experiment.

use crate::msg::MsgType;
use std::sync::Arc;

/// One jump-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpEntry {
    /// Entry symbol of the handler to dispatch.
    pub handler: &'static str,
    /// Whether the inbox should issue a speculative memory read for the
    /// message's address (only honoured when this node is the home).
    pub speculative: bool,
}

/// A programmed slot as the inbox reads it: the handler's id (its index
/// in [`JumpTable::names`]) and the speculation bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpSlot {
    /// Dense handler id, stable for the table's lifetime.
    pub handler: u16,
    /// Whether the inbox should issue a speculative memory read.
    pub speculative: bool,
}

/// One row per raw message-type discriminant.
const ROWS: usize = MsgType::PIoData as usize + 1;

/// The programmable dispatch table: (message type, is-local-home) →
/// handler + speculation decision. Like the hardware's, it is indexed
/// directly by header bits (the type's discriminant and the locality);
/// each distinct handler name gets a small id on first programming.
#[derive(Debug, Clone)]
pub struct JumpTable {
    slots: [[Option<JumpSlot>; 2]; ROWS],
    names: Arc<[&'static str]>,
}

impl JumpTable {
    /// The production programming for the dynamic-pointer-allocation
    /// protocol, with speculative reads enabled for the request types that
    /// may be satisfied from home memory.
    pub fn dpa_protocol() -> Self {
        use MsgType::*;
        let mut t = JumpTable {
            slots: [[None; 2]; ROWS],
            names: Arc::default(),
        };
        // PI requests split on home locality.
        for (mtype, local, remote, spec) in [
            (PiGet, "pi_get_local", "pi_get_remote", true),
            (PiGetX, "pi_getx_local", "pi_getx_remote", true),
            (PiUpgrade, "pi_upgrade_local", "pi_upgrade_remote", false),
            (PiWriteback, "pi_wb_local", "pi_wb_remote", false),
            (PiRplHint, "pi_hint_local", "pi_hint_remote", false),
        ] {
            t.set(mtype, true, local, spec);
            t.set(mtype, false, remote, false);
        }
        // One handler for both localities; NI requests at the home may
        // speculate.
        for (mtype, handler, spec) in [
            (PiIntervReply, "pi_interv_reply", false),
            (PiIntervMiss, "pi_interv_miss", false),
            (IoDmaWrite, "io_dma_write", false),
            (IoDmaRead, "io_dma_read", false),
            (NGet, "ni_get", true),
            (NGetX, "ni_getx", true),
            (NUpgrade, "ni_upgrade", false),
            (NFwdGet, "ni_fwd_get", false),
            (NFwdGetX, "ni_fwd_getx", false),
            (NInval, "ni_inval", false),
            (NInvalAck, "ni_inval_ack", false),
            (NPut, "ni_put", false),
            (NPutX, "ni_putx", false),
            (NUpgAck, "ni_upgack", false),
            (NNack, "ni_nack", false),
            (NSwb, "ni_swb", false),
            (NOwnx, "ni_ownx", false),
            (NWriteback, "ni_wb", false),
            (NRplHint, "ni_hint", false),
            (NIntervMiss, "ni_interv_miss", false),
        ] {
            t.set(mtype, true, handler, spec);
            t.set(mtype, false, handler, false);
        }
        t
    }

    /// The production table with the four home-request slots redirected
    /// to counting wrappers (use with
    /// [`crate::handlers::compile_monitoring`]).
    pub fn dpa_with_monitoring() -> Self {
        let mut t = Self::dpa_protocol();
        t.set(MsgType::NGet, true, "mon_ni_get", true);
        t.set(MsgType::NGet, false, "mon_ni_get", false);
        t.set(MsgType::NGetX, true, "mon_ni_getx", true);
        t.set(MsgType::NGetX, false, "mon_ni_getx", false);
        t.set(MsgType::PiGet, true, "mon_pi_get_local", true);
        t.set(MsgType::PiGetX, true, "mon_pi_getx_local", true);
        t
    }

    /// The programmed slot for a message: the inbox's dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the table has no entry for `(mtype, local_home)` — every
    /// incoming type must be programmed.
    #[inline]
    pub fn slot(&self, mtype: MsgType, local_home: bool) -> JumpSlot {
        self.slots[mtype as usize][local_home as usize]
            .unwrap_or_else(|| panic!("jump table hole for {mtype:?}/local={local_home}"))
    }

    /// Looks up the dispatch entry for a message.
    ///
    /// # Panics
    ///
    /// Panics if the table has no entry for `(mtype, local_home)` — every
    /// incoming type must be programmed.
    pub fn lookup(&self, mtype: MsgType, local_home: bool) -> JumpEntry {
        let s = self.slot(mtype, local_home);
        JumpEntry {
            handler: self.names[s.handler as usize],
            speculative: s.speculative,
        }
    }

    /// Replaces the handler for one (type, locality) slot — the
    /// flexibility hook that lets users drop in custom protocol code.
    pub fn reprogram(&mut self, mtype: MsgType, local_home: bool, entry: JumpEntry) {
        self.set(mtype, local_home, entry.handler, entry.speculative);
    }

    fn set(&mut self, mtype: MsgType, local_home: bool, handler: &'static str, speculative: bool) {
        let id = match self.names.iter().position(|&n| n == handler) {
            Some(id) => id,
            None => {
                self.names = self.names.iter().copied().chain([handler]).collect();
                self.names.len() - 1
            }
        };
        self.slots[mtype as usize][local_home as usize] = Some(JumpSlot {
            handler: u16::try_from(id).expect("handler ids fit in u16"),
            speculative,
        });
    }

    /// Every handler name this table was ever programmed with, indexed by
    /// handler id (a reprogrammed-away name keeps its id). Shared, so
    /// per-handler statistics can carry the names without copying them.
    pub fn names(&self) -> &Arc<[&'static str]> {
        &self.names
    }

    /// The sorted, deduplicated set of handler names this table can
    /// dispatch to. The observability layer uses it to give every
    /// per-handler row in an `ObserveReport` a stable name even when the
    /// handler was never invoked in a run.
    pub fn handler_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .slots
            .iter()
            .flatten()
            .flatten()
            .map(|s| self.names[s.handler as usize])
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

impl Default for JumpTable {
    fn default() -> Self {
        Self::dpa_protocol()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use MsgType::*;

    /// The production programming, pinned: type, local-home handler and
    /// speculation bit, remote-home handler (which never speculates).
    const DPA: [(MsgType, &str, bool, &str); 25] = [
        (PiGet, "pi_get_local", true, "pi_get_remote"),
        (PiGetX, "pi_getx_local", true, "pi_getx_remote"),
        (PiUpgrade, "pi_upgrade_local", false, "pi_upgrade_remote"),
        (PiWriteback, "pi_wb_local", false, "pi_wb_remote"),
        (PiRplHint, "pi_hint_local", false, "pi_hint_remote"),
        (PiIntervReply, "pi_interv_reply", false, "pi_interv_reply"),
        (PiIntervMiss, "pi_interv_miss", false, "pi_interv_miss"),
        (IoDmaWrite, "io_dma_write", false, "io_dma_write"),
        (IoDmaRead, "io_dma_read", false, "io_dma_read"),
        (NGet, "ni_get", true, "ni_get"),
        (NGetX, "ni_getx", true, "ni_getx"),
        (NUpgrade, "ni_upgrade", false, "ni_upgrade"),
        (NFwdGet, "ni_fwd_get", false, "ni_fwd_get"),
        (NFwdGetX, "ni_fwd_getx", false, "ni_fwd_getx"),
        (NInval, "ni_inval", false, "ni_inval"),
        (NInvalAck, "ni_inval_ack", false, "ni_inval_ack"),
        (NPut, "ni_put", false, "ni_put"),
        (NPutX, "ni_putx", false, "ni_putx"),
        (NUpgAck, "ni_upgack", false, "ni_upgack"),
        (NNack, "ni_nack", false, "ni_nack"),
        (NSwb, "ni_swb", false, "ni_swb"),
        (NOwnx, "ni_ownx", false, "ni_ownx"),
        (NWriteback, "ni_wb", false, "ni_wb"),
        (NRplHint, "ni_hint", false, "ni_hint"),
        (NIntervMiss, "ni_interv_miss", false, "ni_interv_miss"),
    ];

    fn entry(handler: &'static str, speculative: bool) -> JumpEntry {
        JumpEntry {
            handler,
            speculative,
        }
    }

    /// Every (type, locality) slot of `DPA`, with the monitoring
    /// redirections applied when `monitoring` is set.
    fn expected(monitoring: bool) -> Vec<(MsgType, bool, JumpEntry)> {
        let mut v = Vec::new();
        for (mt, local, spec, remote) in DPA {
            let (local, remote) = match (monitoring, mt) {
                (true, NGet) => ("mon_ni_get", "mon_ni_get"),
                (true, NGetX) => ("mon_ni_getx", "mon_ni_getx"),
                (true, PiGet) => ("mon_pi_get_local", remote),
                (true, PiGetX) => ("mon_pi_getx_local", remote),
                _ => (local, remote),
            };
            v.push((mt, true, entry(local, spec)));
            v.push((mt, false, entry(remote, false)));
        }
        v
    }

    #[test]
    fn dispatch_is_pinned() {
        assert_eq!(DPA.map(|d| d.0), MsgType::INCOMING);
        for (monitoring, t) in [
            (false, JumpTable::dpa_protocol()),
            (true, JumpTable::dpa_with_monitoring()),
        ] {
            for (mt, local, e) in expected(monitoring) {
                assert_eq!(t.lookup(mt, local), e, "{mt:?}/local={local}");
                let s = t.slot(mt, local);
                assert_eq!(t.names()[s.handler as usize], e.handler);
                assert_eq!(s.speculative, e.speculative);
            }
        }
    }

    #[test]
    fn unprogrammed_types_are_holes() {
        let t = JumpTable::dpa_protocol();
        for raw in 0..64 {
            let Some(mt) = MsgType::from_raw(raw) else {
                continue;
            };
            if MsgType::INCOMING.contains(&mt) {
                continue;
            }
            for local in [true, false] {
                let err = std::panic::catch_unwind(|| t.lookup(mt, local))
                    .expect_err("outgoing types have no slot");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains("jump table hole"), "{msg}");
            }
        }
    }

    #[test]
    fn handler_names_are_pinned() {
        let mut dpa: Vec<&str> = DPA.iter().flat_map(|d| [d.1, d.3]).collect();
        dpa.sort_unstable();
        dpa.dedup();
        assert_eq!(dpa.len(), 30);
        assert_eq!(JumpTable::dpa_protocol().handler_names(), dpa);
        // Monitoring replaces both `ni_get`/`ni_getx` slots, so those
        // names drop out; the PI locals keep their remote twins.
        let mut mon: Vec<&str> = dpa
            .iter()
            .copied()
            .filter(|&n| n != "ni_get" && n != "ni_getx")
            .chain([
                "mon_ni_get",
                "mon_ni_getx",
                "mon_pi_get_local",
                "mon_pi_getx_local",
            ])
            .collect();
        mon.retain(|&n| n != "pi_get_local" && n != "pi_getx_local");
        mon.sort_unstable();
        assert_eq!(JumpTable::dpa_with_monitoring().handler_names(), mon);
    }

    #[test]
    fn reprogram_changes_one_slot_and_ids_new_handlers() {
        let before = JumpTable::dpa_protocol();
        let mut t = before.clone();
        let fresh = t.names().len() as u16;
        t.reprogram(NRplHint, true, entry("lazy_hint", false));
        assert_eq!(
            t.slot(NRplHint, true).handler,
            fresh,
            "a new name gets a fresh id"
        );
        assert_eq!(t.names().len(), before.names().len() + 1);
        for (mt, local, e) in expected(false) {
            if (mt, local) != (NRplHint, true) {
                assert_eq!(t.lookup(mt, local), e, "{mt:?}/local={local} untouched");
            }
        }
        // A known name keeps its id.
        t.reprogram(NRplHint, false, entry("lazy_hint", false));
        assert_eq!(t.slot(NRplHint, false).handler, fresh);
        t.reprogram(NGet, true, entry("ni_getx", true));
        assert_eq!(t.slot(NGet, true).handler, t.slot(NGetX, true).handler);
        assert_eq!(t.names().len(), before.names().len() + 1);
    }

    #[test]
    fn every_incoming_type_is_programmed() {
        let t = JumpTable::dpa_protocol();
        for mt in MsgType::INCOMING {
            for local in [true, false] {
                let _ = t.lookup(mt, local);
            }
        }
    }

    #[test]
    fn speculation_policy_matches_paper() {
        let t = JumpTable::dpa_protocol();
        assert!(t.lookup(MsgType::PiGet, true).speculative);
        assert!(
            !t.lookup(MsgType::PiGet, false).speculative,
            "no spec for remote homes"
        );
        assert!(t.lookup(MsgType::NGet, true).speculative);
        assert!(t.lookup(MsgType::NGetX, true).speculative);
        assert!(
            !t.lookup(MsgType::NFwdGet, true).speculative,
            "data comes from a cache"
        );
        assert!(
            !t.lookup(MsgType::PiUpgrade, true).speculative,
            "no data needed"
        );
        assert!(!t.lookup(MsgType::NWriteback, true).speculative);
    }

    #[test]
    fn reprogramming_swaps_handlers() {
        let mut t = JumpTable::dpa_protocol();
        t.reprogram(
            MsgType::NGet,
            true,
            JumpEntry {
                handler: "my_custom_get",
                speculative: false,
            },
        );
        assert_eq!(t.lookup(MsgType::NGet, true).handler, "my_custom_get");
        // The remote-home slot is untouched.
        assert_eq!(t.lookup(MsgType::NGet, false).handler, "ni_get");
    }
}
