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
use flash_engine::FastMap;

/// One jump-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpEntry {
    /// Entry symbol of the handler to dispatch.
    pub handler: &'static str,
    /// Whether the inbox should issue a speculative memory read for the
    /// message's address (only honoured when this node is the home).
    pub speculative: bool,
}

/// The programmable dispatch table: (message type, is-local-home) →
/// handler + speculation decision.
#[derive(Debug, Clone)]
pub struct JumpTable {
    entries: FastMap<(MsgType, bool), JumpEntry>,
}

impl JumpTable {
    /// The production programming for the dynamic-pointer-allocation
    /// protocol, with speculative reads enabled for the request types that
    /// may be satisfied from home memory.
    pub fn dpa_protocol() -> Self {
        let mut entries = FastMap::default();
        fn both(
            entries: &mut FastMap<(MsgType, bool), JumpEntry>,
            t: MsgType,
            handler: &'static str,
            spec: bool,
        ) {
            entries.insert(
                (t, true),
                JumpEntry {
                    handler,
                    speculative: spec,
                },
            );
            entries.insert(
                (t, false),
                JumpEntry {
                    handler,
                    speculative: false,
                },
            );
        }
        use MsgType::*;
        // PI requests split on home locality.
        entries.insert(
            (PiGet, true),
            JumpEntry {
                handler: "pi_get_local",
                speculative: true,
            },
        );
        entries.insert(
            (PiGet, false),
            JumpEntry {
                handler: "pi_get_remote",
                speculative: false,
            },
        );
        entries.insert(
            (PiGetX, true),
            JumpEntry {
                handler: "pi_getx_local",
                speculative: true,
            },
        );
        entries.insert(
            (PiGetX, false),
            JumpEntry {
                handler: "pi_getx_remote",
                speculative: false,
            },
        );
        entries.insert(
            (PiUpgrade, true),
            JumpEntry {
                handler: "pi_upgrade_local",
                speculative: false,
            },
        );
        entries.insert(
            (PiUpgrade, false),
            JumpEntry {
                handler: "pi_upgrade_remote",
                speculative: false,
            },
        );
        entries.insert(
            (PiWriteback, true),
            JumpEntry {
                handler: "pi_wb_local",
                speculative: false,
            },
        );
        entries.insert(
            (PiWriteback, false),
            JumpEntry {
                handler: "pi_wb_remote",
                speculative: false,
            },
        );
        entries.insert(
            (PiRplHint, true),
            JumpEntry {
                handler: "pi_hint_local",
                speculative: false,
            },
        );
        entries.insert(
            (PiRplHint, false),
            JumpEntry {
                handler: "pi_hint_remote",
                speculative: false,
            },
        );
        both(&mut entries, PiIntervReply, "pi_interv_reply", false);
        both(&mut entries, PiIntervMiss, "pi_interv_miss", false);
        both(&mut entries, IoDmaWrite, "io_dma_write", false);
        both(&mut entries, IoDmaRead, "io_dma_read", false);
        // NI messages: requests at the home may speculate.
        both(&mut entries, NGet, "ni_get", true);
        both(&mut entries, NGetX, "ni_getx", true);
        both(&mut entries, NUpgrade, "ni_upgrade", false);
        both(&mut entries, NFwdGet, "ni_fwd_get", false);
        both(&mut entries, NFwdGetX, "ni_fwd_getx", false);
        both(&mut entries, NInval, "ni_inval", false);
        both(&mut entries, NInvalAck, "ni_inval_ack", false);
        both(&mut entries, NPut, "ni_put", false);
        both(&mut entries, NPutX, "ni_putx", false);
        both(&mut entries, NUpgAck, "ni_upgack", false);
        both(&mut entries, NNack, "ni_nack", false);
        both(&mut entries, NSwb, "ni_swb", false);
        both(&mut entries, NOwnx, "ni_ownx", false);
        both(&mut entries, NWriteback, "ni_wb", false);
        both(&mut entries, NRplHint, "ni_hint", false);
        both(&mut entries, NIntervMiss, "ni_interv_miss", false);
        JumpTable { entries }
    }

    /// Looks up the dispatch entry for a message.
    ///
    /// # Panics
    ///
    /// Panics if the table has no entry for `(mtype, local_home)` — every
    /// incoming type must be programmed.
    pub fn lookup(&self, mtype: MsgType, local_home: bool) -> JumpEntry {
        *self
            .entries
            .get(&(mtype, local_home))
            .unwrap_or_else(|| panic!("jump table hole for {mtype:?}/local={local_home}"))
    }

    /// The production table with the four home-request slots redirected
    /// to counting wrappers (use with
    /// [`crate::handlers::compile_monitoring`]).
    pub fn dpa_with_monitoring() -> Self {
        let mut t = Self::dpa_protocol();
        t.reprogram(
            MsgType::NGet,
            true,
            JumpEntry {
                handler: "mon_ni_get",
                speculative: true,
            },
        );
        t.reprogram(
            MsgType::NGet,
            false,
            JumpEntry {
                handler: "mon_ni_get",
                speculative: false,
            },
        );
        t.reprogram(
            MsgType::NGetX,
            true,
            JumpEntry {
                handler: "mon_ni_getx",
                speculative: true,
            },
        );
        t.reprogram(
            MsgType::NGetX,
            false,
            JumpEntry {
                handler: "mon_ni_getx",
                speculative: false,
            },
        );
        t.reprogram(
            MsgType::PiGet,
            true,
            JumpEntry {
                handler: "mon_pi_get_local",
                speculative: true,
            },
        );
        t.reprogram(
            MsgType::PiGetX,
            true,
            JumpEntry {
                handler: "mon_pi_getx_local",
                speculative: true,
            },
        );
        t
    }

    /// Replaces the handler for one (type, locality) slot — the
    /// flexibility hook that lets users drop in custom protocol code.
    pub fn reprogram(&mut self, mtype: MsgType, local_home: bool, entry: JumpEntry) {
        self.entries.insert((mtype, local_home), entry);
    }

    /// Iterates over all programmed entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(MsgType, bool), &JumpEntry)> {
        self.entries.iter()
    }

    /// The sorted, deduplicated set of handler names this table can
    /// dispatch to. The observability layer uses it to give every
    /// per-handler row in an `ObserveReport` a stable name even when the
    /// handler was never invoked in a run.
    pub fn handler_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.entries.values().map(|e| e.handler).collect();
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
