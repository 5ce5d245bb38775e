//! Table-driven PP occupancy cost model.
//!
//! The native handlers report, in [`crate::native::NativeResult::cost`],
//! the PP occupancy this table predicts for each invocation. The base
//! values come straight from paper Table 3.4 ("PP Occupancies for Common
//! Operations"), with the variable components (per-invalidation,
//! per-list-node) applied by the native handlers as they discover list
//! lengths. No controller charges from it: the FLASH machine takes its
//! occupancies from the handlers running on the emulated PP, and the
//! ideal machine charges none.

/// Paper Table 3.4 occupancies, in 10 ns cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTable {
    /// Service read miss from main memory.
    pub read_from_memory: u64,
    /// Service write miss from main memory (base, plus per-invalidation).
    pub write_from_memory: u64,
    /// Additional cycles per invalidation sent.
    pub per_inval: u64,
    /// Forward request to home node (requester side of a remote miss).
    pub forward_to_home: u64,
    /// Forward request from home to dirty node.
    pub forward_to_dirty: u64,
    /// Retrieve data from processor cache (intervention handler chain).
    pub retrieve_from_cache: u64,
    /// Forward reply from network to processor.
    pub reply_to_processor: u64,
    /// Local writeback.
    pub local_writeback: u64,
    /// Local replacement hint.
    pub local_hint: u64,
    /// Writeback from a remote processor.
    pub remote_writeback: u64,
    /// Replacement hint from a remote processor, sole sharer.
    pub remote_hint_only: u64,
    /// Replacement hint base when the processor is the Nth sharer...
    pub remote_hint_base: u64,
    /// ...plus this many cycles per node walked.
    pub remote_hint_per_node: u64,
    /// Invalidation receipt at a sharer (inval + ack send).
    pub inval_receive: u64,
    /// Invalidation-ack receipt at the home.
    pub inval_ack: u64,
    /// NACK receipt / retry issue.
    pub nack_retry: u64,
    /// Sharing-writeback or ownership-transfer receipt at the home.
    pub swb_receive: u64,
}

impl Default for CostTable {
    fn default() -> Self {
        Self::paper()
    }
}

impl CostTable {
    /// The values published in paper Table 3.4 (with small estimates for
    /// the handlers the table does not list individually).
    pub const fn paper() -> Self {
        CostTable {
            read_from_memory: 11,
            write_from_memory: 14,
            per_inval: 12, // paper: 10 to 15 per invalidation
            forward_to_home: 3,
            forward_to_dirty: 18,
            retrieve_from_cache: 38,
            reply_to_processor: 2,
            local_writeback: 10,
            local_hint: 7,
            remote_writeback: 8,
            remote_hint_only: 17,
            remote_hint_base: 23,
            remote_hint_per_node: 14,
            inval_receive: 7,
            inval_ack: 4,
            nack_retry: 4,
            swb_receive: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let t = CostTable::paper();
        assert_eq!(t.read_from_memory, 11);
        assert_eq!(t.write_from_memory, 14);
        assert_eq!(t.forward_to_home, 3);
        assert_eq!(t.forward_to_dirty, 18);
        assert_eq!(t.retrieve_from_cache, 38);
        assert_eq!(t.reply_to_processor, 2);
        assert_eq!(t.local_writeback, 10);
        assert_eq!(t.local_hint, 7);
        assert_eq!(t.remote_writeback, 8);
        assert_eq!(t.remote_hint_only, 17);
        assert_eq!(t.remote_hint_base + t.remote_hint_per_node, 37);
        assert!((10..=15).contains(&t.per_inval));
        assert_eq!(t, CostTable::default());
    }
}
