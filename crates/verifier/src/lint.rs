//! Non-fatal lint pass over the CFG: unreachable blocks, self-moves, and
//! dead stores. Lints never gate reassembly; they surface smells the
//! tree-merge process is known to leave behind (NOP-filled holes, redundant
//! prologue moves).

use dexlego_dalvik::Opcode;

use crate::cfg::{Cfg, EdgeKind};
use crate::diag::{Diagnostic, Rule};
use crate::effects::{effects_into, Effects, Need, Write};

pub(crate) fn run(cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    unreachable_blocks(cfg, out);
    self_moves(cfg, out);
    dead_stores(cfg, out);
}

fn unreachable_blocks(cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    for block in cfg.blocks() {
        if !block.reachable {
            out.push(Diagnostic::new(
                Rule::L0001,
                block.start,
                format!(
                    "unreachable code ({} instruction{})",
                    block.insns.len(),
                    if block.insns.len() == 1 { "" } else { "s" }
                ),
            ));
        }
    }
}

fn self_moves(cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    for (insn, &pc) in cfg.insns().iter().zip(cfg.pcs()) {
        let is_move = matches!(
            insn.op,
            Opcode::Move
                | Opcode::MoveFrom16
                | Opcode::Move16
                | Opcode::MoveWide
                | Opcode::MoveWideFrom16
                | Opcode::MoveWide16
                | Opcode::MoveObject
                | Opcode::MoveObjectFrom16
                | Opcode::MoveObject16
        );
        if is_move && insn.a == insn.b {
            out.push(Diagnostic::new(
                Rule::L0002,
                pc,
                format!(
                    "{} v{a}, v{a} has no effect",
                    insn.op.mnemonic(),
                    a = insn.a
                ),
            ));
        }
    }
}

/// The last write to one register not yet read: the block it happened in
/// (an entry from an earlier block is stale) and the writing instruction.
#[derive(Clone, Copy)]
struct Store {
    block: usize,
    insn: usize,
}

const NO_STORE: Store = Store {
    block: usize::MAX,
    insn: 0,
};

fn dead_stores(cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    // Dense per-register table, shared by all blocks and grown on demand
    // (a hostile body may name registers past its frame).
    let mut pending: Vec<Store> = Vec::new();
    let mut reported: Vec<usize> = Vec::new();
    let mut eff = Effects::default();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !block.reachable {
            continue;
        }
        // A handler could observe intermediate states; skip covered blocks.
        if cfg
            .succs(block)
            .iter()
            .any(|e| e.kind == EdgeKind::Exception)
        {
            continue;
        }
        reported.clear();
        for i in block.insns.clone() {
            effects_into(&cfg.insns()[i], &mut eff);
            for &(reg, need) in &eff.reads {
                let width = if need == Need::Wide { 2 } else { 1 };
                for r in reg..reg + width {
                    if let Some(slot) = pending.get_mut(r as usize) {
                        *slot = NO_STORE;
                    }
                }
            }
            if let Some((reg, w)) = eff.write {
                let width = if matches!(w, Write::Wide) { 2 } else { 1 };
                for r in reg..reg + width {
                    let r_idx = r as usize;
                    if r_idx >= pending.len() {
                        let len = (r_idx + 1).max(2 * pending.len());
                        pending.resize(len, NO_STORE);
                    }
                    let prev = pending[r_idx];
                    if prev.block == b && !reported.contains(&prev.insn) {
                        reported.push(prev.insn);
                        out.push(Diagnostic::new(
                            Rule::L0003,
                            cfg.pcs()[prev.insn],
                            format!(
                                "value stored to v{r} is overwritten at {:#06x} without being read",
                                cfg.pcs()[i]
                            ),
                        ));
                    }
                    pending[r_idx] = Store { block: b, insn: i };
                }
            }
        }
    }
}
