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
//!
//! The IR is flat: per-instruction columns (pc, decoded instruction,
//! reachability), one `registers × instructions` slab of entry frames, and
//! CSR arrays for successors, uses and defs. [`TypedInsn`] is a borrowed
//! view of one row, so reading the IR never copies it.

use std::fmt;

use dexlego_dalvik::disasm;
use dexlego_dalvik::insn::Insn;
use dexlego_dex::DexFile;

use crate::cfg::Cfg;
use crate::dataflow::FrameSlab;
use crate::effects::{effects_into, Effects, Need, Write};
use crate::hierarchy::{ClassHierarchy, TypeId};
use crate::typestate::RegType;

/// One instruction of a verified method, with everything the fixpoint
/// learned about it: a borrowed view of one row of a [`TypedIr`].
#[derive(Clone, Copy)]
pub struct TypedInsn<'a> {
    ir: &'a TypedIr,
    index: usize,
}

impl<'a> TypedInsn<'a> {
    /// Code-unit address.
    pub fn pc(self) -> u32 {
        self.ir.pcs[self.index]
    }

    /// The decoded instruction.
    pub fn insn(self) -> &'a Insn {
        &self.ir.insns[self.index]
    }

    /// Whether the instruction is reachable from the method entry.
    pub fn reachable(self) -> bool {
        self.ir.reachable[self.index]
    }

    /// Fixpoint register typestate *before* this instruction executes.
    /// Empty for unreachable instructions.
    pub fn frame(self) -> &'a [RegType] {
        if !self.reachable() {
            return &[];
        }
        let regs = usize::from(self.ir.registers);
        &self.ir.frames[self.index * regs..(self.index + 1) * regs]
    }

    /// Normal-flow successors, as indices into the method's IR.
    pub fn succs(self) -> &'a [u32] {
        let (start, end) = self.ir.row(self.index);
        &self.ir.succs[start.succs as usize..end.succs as usize]
    }

    /// Registers this instruction reads (wide pairs listed as both halves).
    pub fn uses(self) -> &'a [u32] {
        let (start, end) = self.ir.row(self.index);
        &self.ir.uses[start.uses as usize..end.uses as usize]
    }

    /// Registers this instruction writes.
    pub fn defs(self) -> &'a [u32] {
        let (start, end) = self.ir.row(self.index);
        &self.ir.defs[start.defs as usize..end.defs as usize]
    }

    /// The static reference type held by `reg` on entry to this
    /// instruction, when the frame proves it is a reference.
    pub fn ref_type(self, reg: u32) -> Option<TypeId> {
        self.frame().get(reg as usize).and_then(|t| t.ref_type())
    }
}

impl fmt::Debug for TypedInsn<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedInsn")
            .field("pc", &self.pc())
            .field("insn", self.insn())
            .field("reachable", &self.reachable())
            .field("frame", &self.frame())
            .field("succs", &self.succs())
            .field("uses", &self.uses())
            .field("defs", &self.defs())
            .finish()
    }
}

/// Where one instruction's successors, uses and defs start in the CSR
/// arrays; the next row's starts end them.
#[derive(Debug, Clone, Copy)]
struct Row {
    succs: u32,
    uses: u32,
    defs: u32,
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
    /// Code-unit address of each instruction, ascending.
    pcs: Vec<u32>,
    /// Real instructions in address order (payloads folded away).
    insns: Vec<Insn>,
    reachable: Vec<bool>,
    /// Entry frames, `registers` values per instruction; rows of
    /// unreachable instructions are never read.
    frames: Vec<RegType>,
    /// One row per instruction plus an end row.
    rows: Vec<Row>,
    succs: Vec<u32>,
    uses: Vec<u32>,
    defs: Vec<u32>,
}

impl TypedIr {
    /// Builds the IR from a verified method's CFG, whose instructions it
    /// takes over, and its fixpoint frames. Identity fields start empty;
    /// the caller stamps them.
    pub(crate) fn build(cfg: Cfg, frames: FrameSlab, registers: u16, ins: u16) -> TypedIr {
        let n = cfg.insns().len();
        let mut reachable = Vec::with_capacity(n);
        let mut rows = Vec::with_capacity(n + 1);
        let mut succs = Vec::with_capacity(n);
        let mut uses = Vec::with_capacity(n);
        let mut defs = Vec::with_capacity(n);
        let mut eff = Effects::default();
        for (i, insn) in cfg.insns().iter().enumerate() {
            rows.push(Row {
                succs: succs.len() as u32,
                uses: uses.len() as u32,
                defs: defs.len() as u32,
            });
            let live = cfg.blocks()[cfg.block_of(i)].reachable;
            debug_assert_eq!(live, frames.get(i).is_some(), "frames exist iff reachable");
            reachable.push(live);
            succs.extend(cfg.insn_successors(i).map(|s| s as u32));
            effects_into(insn, &mut eff);
            for &(reg, need) in &eff.reads {
                uses.push(reg);
                if need == Need::Wide {
                    uses.push(reg + 1);
                }
            }
            if let Some((reg, w)) = eff.write {
                defs.push(reg);
                if matches!(w, Write::Wide) {
                    defs.push(reg + 1);
                }
            }
        }
        rows.push(Row {
            succs: succs.len() as u32,
            uses: uses.len() as u32,
            defs: defs.len() as u32,
        });
        let (mut pcs, mut insns) = cfg.into_insns();
        // The IR may outlive verification in the verify cache: hold no
        // slack.
        pcs.shrink_to_fit();
        insns.shrink_to_fit();
        succs.shrink_to_fit();
        uses.shrink_to_fit();
        defs.shrink_to_fit();
        TypedIr {
            method_idx: 0,
            signature: String::new(),
            class: String::new(),
            name: String::new(),
            registers,
            ins,
            pcs,
            insns,
            reachable,
            frames: frames.into_data(),
            rows,
            succs,
            uses,
            defs,
        }
    }

    fn row(&self, i: usize) -> (Row, Row) {
        (self.rows[i], self.rows[i + 1])
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the method has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// The instruction at IR index `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn insn(&self, i: usize) -> TypedInsn<'_> {
        assert!(i < self.len(), "IR index {i} out of range");
        TypedInsn { ir: self, index: i }
    }

    /// The instruction at IR index `i`, if any.
    pub fn get(&self, i: usize) -> Option<TypedInsn<'_>> {
        (i < self.len()).then_some(TypedInsn { ir: self, index: i })
    }

    /// Every instruction in address order.
    pub fn insns(&self) -> impl ExactSizeIterator<Item = TypedInsn<'_>> + '_ {
        (0..self.len()).map(|index| TypedInsn { ir: self, index })
    }

    /// The IR index of the instruction at `pc`.
    pub fn index_of_pc(&self, pc: u32) -> Option<usize> {
        self.pcs.binary_search(&pc).ok()
    }

    /// Total register reads+writes recorded, a cheap size proxy for
    /// reporting.
    pub fn def_use_edges(&self) -> usize {
        self.uses.len() + self.defs.len()
    }

    /// Smali-flavoured disassembly with each instruction annotated by its
    /// entry frame. Reference registers are named by descriptor
    /// (`Ljava/lang/String;` rather than "ref"); never-written registers
    /// are omitted. Pool indices resolve against `dex` when provided.
    pub fn disassemble(&self, hier: &ClassHierarchy, dex: Option<&DexFile>) -> Vec<String> {
        self.insns()
            .map(|ti| {
                let mut line = disasm::format_insn(ti.insn(), ti.pc(), dex);
                if !ti.reachable() {
                    line.push_str("  ; unreachable");
                } else {
                    let frame: Vec<String> = ti
                        .frame()
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
