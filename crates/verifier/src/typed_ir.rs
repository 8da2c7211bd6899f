//! The typed IR: post-fixpoint register frames, successor edges, and
//! def-use sets, materialized per method so downstream analyses share the
//! verifier's work instead of re-deriving it.
//!
//! This is the Dexpler/Soot move applied at the verifier layer: one
//! fixpoint over the typestate lattice, many consumers. `analysis::taint`
//! drives its worklist directly off [`TypedInsn::succs`] and reads receiver
//! static types out of [`TypedInsn::frame`] to prune infeasible virtual
//! dispatch; a disassembler can render frames; future passes get def-use
//! chains for free.

use std::collections::HashMap;

use dexlego_dalvik::disasm;
use dexlego_dalvik::insn::{Decoded, Insn};
use dexlego_dex::DexFile;

use crate::cfg::Cfg;
use crate::dataflow::FrameSlab;
use crate::effects::{effects, Need, Write};
use crate::hierarchy::{ClassHierarchy, TypeId};
use crate::typestate::RegType;

/// One instruction of a verified method, with everything the fixpoint
/// learned about it.
#[derive(Debug, Clone)]
pub struct TypedInsn {
    /// Code-unit address.
    pub pc: u32,
    /// The decoded instruction.
    pub insn: Insn,
    /// Whether the instruction is reachable from the method entry.
    pub reachable: bool,
    /// Fixpoint register typestate *before* this instruction executes.
    /// Empty for unreachable instructions.
    pub frame: Vec<RegType>,
    /// Normal-flow successors, as indices into [`TypedIr::insns`].
    pub succs: Vec<usize>,
    /// Registers this instruction reads (wide pairs listed as both halves).
    pub uses: Vec<u32>,
    /// Registers this instruction writes.
    pub defs: Vec<u32>,
}

impl TypedInsn {
    /// The static reference type held by `reg` on entry to this
    /// instruction, when the frame proves it is a reference.
    pub fn ref_type(&self, reg: u32) -> Option<TypeId> {
        self.frame.get(reg as usize).and_then(|t| t.ref_type())
    }
}

/// The typed IR of one verified method body.
#[derive(Debug, Clone)]
pub struct TypedIr {
    /// Index of the method in the DEX method pool.
    pub method_idx: u32,
    /// Full method reference (`Lpkg/C;->m(...)R`).
    pub signature: String,
    /// Declaring class descriptor.
    pub class: String,
    /// Method name.
    pub name: String,
    /// Frame size in registers.
    pub registers: u16,
    /// Incoming parameter registers.
    pub ins: u16,
    /// Real instructions in address order (payloads folded away).
    pub insns: Vec<TypedInsn>,
    index_of_pc: HashMap<u32, usize>,
}

impl TypedIr {
    /// Builds the IR from a verified method's CFG and fixpoint frames.
    /// Identity fields start empty; the caller stamps them.
    pub(crate) fn build(cfg: &Cfg, frames: &FrameSlab, registers: u16, ins: u16) -> TypedIr {
        // Payloads are folded away, so IR indices differ from cfg indices.
        let mut index_of_pc = HashMap::new();
        let mut count = 0usize;
        for (pc, d) in cfg.insns() {
            if matches!(d, Decoded::Insn(_)) {
                index_of_pc.insert(*pc, count);
                count += 1;
            }
        }

        let mut insns = Vec::with_capacity(count);
        for (i, (pc, d)) in cfg.insns().iter().enumerate() {
            let Decoded::Insn(insn) = d else { continue };
            let frame = frames.get(i).map(<[RegType]>::to_vec);
            let succs = cfg
                .insn_successors(*pc)
                .iter()
                .filter_map(|t| index_of_pc.get(t).copied())
                .collect();
            let (uses, defs) = def_use(insn);
            insns.push(TypedInsn {
                pc: *pc,
                insn: insn.clone(),
                reachable: cfg.is_reachable(*pc),
                frame: frame.unwrap_or_default(),
                succs,
                uses,
                defs,
            });
        }
        TypedIr {
            method_idx: 0,
            signature: String::new(),
            class: String::new(),
            name: String::new(),
            registers,
            ins,
            insns,
            index_of_pc,
        }
    }

    /// The IR index of the instruction at `pc`.
    pub fn index_of_pc(&self, pc: u32) -> Option<usize> {
        self.index_of_pc.get(&pc).copied()
    }

    /// Total register reads+writes recorded, a cheap size proxy for
    /// reporting.
    pub fn def_use_edges(&self) -> usize {
        self.insns.iter().map(|i| i.uses.len() + i.defs.len()).sum()
    }

    /// Smali-flavoured disassembly with each instruction annotated by its
    /// entry frame. Reference registers are named by descriptor
    /// (`Ljava/lang/String;` rather than "ref"); never-written registers
    /// are omitted. Pool indices resolve against `dex` when provided.
    pub fn disassemble(&self, hier: &ClassHierarchy, dex: Option<&DexFile>) -> Vec<String> {
        self.insns
            .iter()
            .map(|ti| {
                let mut line = disasm::format_insn(&ti.insn, ti.pc, dex);
                if !ti.reachable {
                    line.push_str("  ; unreachable");
                } else {
                    let frame: Vec<String> = ti
                        .frame
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| t != RegType::Uninit)
                        .map(|(r, &t)| format!("v{r}={}", t.describe(hier)))
                        .collect();
                    if !frame.is_empty() {
                        line.push_str(&format!("  ; {}", frame.join(" ")));
                    }
                }
                line
            })
            .collect()
    }
}

/// Registers read and written by one instruction, wide pairs expanded.
fn def_use(insn: &Insn) -> (Vec<u32>, Vec<u32>) {
    let eff = effects(insn);
    let mut uses = Vec::with_capacity(eff.reads.len());
    for &(reg, need) in &eff.reads {
        uses.push(reg);
        if need == Need::Wide {
            uses.push(reg + 1);
        }
    }
    let mut defs = Vec::new();
    if let Some((reg, w)) = eff.write {
        defs.push(reg);
        if matches!(w, Write::Wide) {
            defs.push(reg + 1);
        }
    }
    (uses, defs)
}
