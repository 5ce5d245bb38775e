//! Flexibility showcase: write a protocol handler in PP assembly and
//! reprogram the MAGIC jump table to run it.
//!
//! The whole point of a programmable node controller is that protocol
//! behaviour is software. This example replaces the replacement-hint
//! handler with a "lazy hints" variant that skips the sharer-list walk
//! entirely (trading stale sharer entries — and therefore spurious
//! invalidations later — for lower PP occupancy), then measures the
//! occupancy difference on the same message sequence.
//!
//! ```sh
//! cargo run --release --example custom_protocol
//! ```

use flash_engine::{Addr, Cycle, NodeId};
use flash_magic::{ControllerKind, Dispatch, MagicChip, MagicScratch};
use flash_mem::MemTiming;
use flash_pp::CodegenOptions;
use flash_protocol::fields::{asm_prologue, aux};
use flash_protocol::{dir_addr, InMsg, JumpEntry, JumpTable, MsgType};
use std::sync::Arc;

/// The custom handler: acknowledge the hint without touching the list.
const LAZY_HINT: &str = "
lazy_hint:
    switch
";

fn chip_with(program: Arc<flash_pp::Program>, jump: JumpTable) -> MagicChip {
    MagicChip::new(
        ControllerKind::FlashEmulated,
        NodeId(0),
        Arc::new(Dispatch::new(jump, Some(program))),
        MemTiming::default(),
        true,
        true,
    )
}

fn hint_msg(src: u16, addr: u64) -> InMsg {
    let a = Addr::new(addr);
    InMsg {
        mtype: MsgType::NRplHint,
        src: NodeId(src),
        addr: a,
        aux: aux::pack(NodeId(src), MsgType::NRplHint, NodeId(0)),
        spec: false,
        self_node: NodeId(0),
        home: NodeId(0),
        diraddr: dir_addr(a),
        with_data: false,
    }
}

fn get_msg(req: u16, addr: u64) -> InMsg {
    let a = Addr::new(addr);
    InMsg {
        mtype: MsgType::NGet,
        src: NodeId(req),
        addr: a,
        aux: aux::pack(NodeId(req), MsgType::NGet, NodeId(0)),
        spec: false,
        self_node: NodeId(0),
        home: NodeId(0),
        diraddr: dir_addr(a),
        with_data: false,
    }
}

fn main() {
    // Assemble the stock protocol plus our custom handler in one image.
    let src = format!(
        "{}\n{}\n{}",
        asm_prologue(),
        flash_protocol::handlers::SOURCE,
        LAZY_HINT
    );
    let program = Arc::new(flash_pp::build(&src, CodegenOptions::magic()).expect("assembles"));

    // Reprogram the jump table: replacement hints now dispatch to
    // `lazy_hint` instead of the list-walking `ni_hint`.
    let mut lazy_jump = JumpTable::dpa_protocol();
    lazy_jump.reprogram(
        MsgType::NRplHint,
        true,
        JumpEntry {
            handler: "lazy_hint",
            speculative: false,
        },
    );

    // Drive both chips through the same sequence: 8 nodes fetch a line
    // (building an 8-deep sharer list), then send replacement hints.
    for (label, jump) in [
        (
            "stock dynamic-pointer-allocation",
            JumpTable::dpa_protocol(),
        ),
        ("lazy-hints custom protocol", lazy_jump),
    ] {
        let mut chip = chip_with(program.clone(), jump);
        let (mut scratch, mut emissions) = (MagicScratch::default(), Vec::new());
        let mut t = Cycle::new(10);
        let addr = 0x4000;
        for req in 1..=8 {
            chip.process_into(get_msg(req, addr), t, &mut scratch, &mut emissions);
            t += 400;
        }
        let before = chip.pp_busy_cycles();
        for src_node in 1..=8 {
            chip.process_into(hint_msg(src_node, addr), t, &mut scratch, &mut emissions);
            t += 400;
        }
        let hint_cycles = chip.pp_busy_cycles() - before;
        let sharers_left = {
            let h = chip.peek_header(dir_addr(Addr::new(addr)));
            h.head() != 0
        };
        println!(
            "{label:38} hint processing {hint_cycles:4} PP cycles; sharer list {} after hints",
            if sharers_left { "non-empty" } else { "empty" }
        );
    }
    println!("\nThe custom handler trades directory precision for PP occupancy —");
    println!("exactly the kind of protocol experimentation MAGIC was built for (paper §1).");
}
