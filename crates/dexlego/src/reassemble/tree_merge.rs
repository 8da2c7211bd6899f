//! Converting one collection tree into a single instruction array
//! (paper §IV-B, "Converting a Tree into an Instruction Array").
//!
//! The root node's instructions are laid out in `dex_pc` order. At each
//! divergence point a synthetic conditional branch on a static boolean
//! field of the instrument class is inserted, with the taken edge leading to
//! the divergence branch's block (appended after the parent's body) and the
//! fall-through continuing into the baseline. Because the static field's
//! value is unknown to a static analyser, both the baseline and every
//! divergent variant are treated as reachable — which is exactly the
//! property the reassembly needs to expose self-modifying behaviour.
//!
//! All constant-pool indices embedded in the collected units are remapped
//! from the source DEX's pools into the output [`DexFile`], and reflective
//! `Method.invoke` call sites are replaced by direct calls to their
//! recorded targets.

use std::collections::HashMap;

use dexlego_dalvik::asm::Label;
use dexlego_dalvik::{decode_insn, Decoded, Insn, MethodAssembler, Opcode};
use dexlego_dex::{CodeItem, DexFile};

use crate::collect::tree::{CollectedInsn, CollectionTree, NodeId};
use crate::files::{MethodRecord, PoolRecord, ReflectionTarget};
use crate::reassemble::dexgen::GuardAlloc;
use crate::reassemble::parse_descriptor;
use crate::{DexLegoError, Result};

/// Everything needed to merge one tree of one method.
pub struct MergeInput<'a> {
    /// The method's collection record.
    pub record: &'a MethodRecord,
    /// The tree to merge.
    pub tree: &'a CollectionTree,
    /// Constant pools of the source the units reference.
    pub pool: &'a PoolRecord,
    /// Reflection targets by call-site `dex_pc` within this method.
    pub reflection: &'a HashMap<u32, Vec<ReflectionTarget>>,
}

struct Emitter<'d, 'i> {
    dex: &'d mut DexFile,
    guards: &'d mut GuardAlloc,
    asm: MethodAssembler,
    labels: HashMap<(NodeId, u32), Label>,
    trap: Option<Label>,
    guard_reg: u32,
    input: &'i MergeInput<'i>,
}

/// Merges `input.tree` into a [`CodeItem`].
///
/// The produced code has one extra register (the guard/scratch register) and
/// a prologue that moves the argument registers down to their original
/// positions, so every collected instruction keeps its original register
/// numbers.
///
/// # Errors
///
/// Returns [`DexLegoError::Reassembly`] for structurally impossible input
/// (e.g. a method already using 256 registers) and propagates
/// encode/decode failures.
pub fn merge_tree(
    dex: &mut DexFile,
    guards: &mut GuardAlloc,
    input: &MergeInput<'_>,
) -> Result<CodeItem> {
    let old_registers = u32::from(input.record.registers);
    let guard_reg = old_registers;
    if guard_reg > 255 {
        return Err(DexLegoError::Reassembly(format!(
            "{}: cannot allocate guard register above v255",
            input.record.key
        )));
    }

    let mut emitter = Emitter {
        dex,
        guards,
        asm: MethodAssembler::new(),
        labels: HashMap::new(),
        trap: None,
        guard_reg,
        input,
    };

    // Pre-create a label for every collected (node, dex_pc).
    for (node_id, node) in input.tree.nodes().iter().enumerate() {
        for ins in &node.il {
            let label = emitter.asm.new_label();
            emitter.labels.insert((node_id, ins.dex_pc), label);
        }
    }

    emitter.emit_prologue();
    emitter.emit_node(input.tree.root(), &[input.tree.root()])?;
    // Handlers that were never executed are retargeted to the trap block;
    // make sure it exists before assembly when any try region survives.
    let mut root_pcs: Vec<u32> = input.tree.node(0).il.iter().map(|i| i.dex_pc).collect();
    root_pcs.sort_unstable();
    let needs_trap_handler = input.record.tries.iter().any(|t| {
        // The first root pc at or past the range start decides coverage.
        let covered = root_pcs
            .get(root_pcs.partition_point(|&pc| pc < t.start))
            .is_some_and(|&pc| t.covers(pc));
        let unresolved_handler = t
            .catches
            .iter()
            .map(|(_, pc)| *pc)
            .chain(t.catch_all)
            .any(|pc| root_pcs.binary_search(&pc).is_err());
        covered && unresolved_handler
    });
    if needs_trap_handler {
        emitter.trap_label();
    }
    emitter.emit_trap_block();

    let trap = emitter.trap;
    let (insns, labels) = emitter
        .asm
        .assemble_with_labels()
        .map_err(DexLegoError::Dalvik)?;

    // ---- try/catch remapping (paper: the reassembled DEX keeps the
    // method's exception structure; clauses whose handlers were never
    // executed point at the trap block) -----------------------------------
    let addr_of = |pc: u32| -> Option<u32> {
        emitter
            .labels
            .get(&(0, pc))
            .and_then(|l| labels.get(l))
            .copied()
    };
    let trap_addr = trap.and_then(|l| labels.get(&l)).copied();
    let mut tries = Vec::new();
    let mut handlers = Vec::new();
    for record_try in &input.record.tries {
        // New range: the span of collected instructions inside the old one.
        let mut lo: Option<u32> = None;
        let mut hi: Option<u32> = None;
        for ins in &input.tree.node(0).il {
            if record_try.covers(ins.dex_pc) {
                if let Some(addr) = addr_of(ins.dex_pc) {
                    let end = addr + ins.units.len() as u32;
                    lo = Some(lo.map_or(addr, |v: u32| v.min(addr)));
                    hi = Some(hi.map_or(end, |v: u32| v.max(end)));
                }
            }
        }
        let (Some(lo), Some(hi)) = (lo, hi) else {
            continue;
        };
        let mut handler = dexlego_dex::EncodedCatchHandler::default();
        for (desc, pc) in &record_try.catches {
            let Some(addr) = addr_of(*pc).or(trap_addr) else {
                continue;
            };
            handler.catches.push(dexlego_dex::code::CatchClause {
                type_idx: emitter.dex.intern_type(desc),
                addr,
            });
        }
        if let Some(pc) = record_try.catch_all {
            handler.catch_all_addr = addr_of(pc).or(trap_addr);
        }
        if handler.catches.is_empty() && handler.catch_all_addr.is_none() {
            continue;
        }
        tries.push(dexlego_dex::TryItem {
            start_addr: lo,
            insn_count: (hi - lo) as u16,
            handler_index: handlers.len(),
        });
        handlers.push(handler);
    }
    tries.sort_by_key(|t| t.start_addr);

    Ok(CodeItem {
        registers_size: input.record.registers + 1,
        ins_size: input.record.ins,
        outs_size: 8,
        insns,
        tries,
        handlers,
    })
}

impl Emitter<'_, '_> {
    /// Moves the incoming arguments (now one register higher because of the
    /// added guard register) down to their original positions.
    fn emit_prologue(&mut self) {
        let record = self.input.record;
        let ins = u32::from(record.ins);
        if ins == 0 {
            return;
        }
        let old_base = u32::from(record.registers) - ins;
        // Parameter kinds in register order: `this` (instance methods) then
        // declared parameters.
        let is_static = record.access & 0x8 != 0;
        let mut kinds: Vec<MoveKind> = Vec::new();
        if !is_static {
            kinds.push(MoveKind::Object);
        }
        for p in &record.params {
            kinds.push(match p.as_str() {
                "J" | "D" => MoveKind::Wide,
                s if s.starts_with('L') || s.starts_with('[') => MoveKind::Object,
                _ => MoveKind::Single,
            });
        }
        let mut offset = 0u32;
        for kind in kinds {
            let dst = old_base + offset;
            let src = dst + 1;
            let op = match kind {
                MoveKind::Single if dst <= 0xf && src <= 0xf => Opcode::Move,
                MoveKind::Single => Opcode::MoveFrom16,
                MoveKind::Wide if dst <= 0xf && src <= 0xf => Opcode::MoveWide,
                MoveKind::Wide => Opcode::MoveWideFrom16,
                MoveKind::Object if dst <= 0xf && src <= 0xf => Opcode::MoveObject,
                MoveKind::Object => Opcode::MoveObjectFrom16,
            };
            let mut insn = Insn::of(op);
            insn.a = dst;
            insn.b = src;
            self.asm.push(insn);
            offset += match kind {
                MoveKind::Wide => 2,
                _ => 1,
            };
        }
    }

    fn emit_node(&mut self, node_id: NodeId, chain: &[NodeId]) -> Result<()> {
        let node = self.input.tree.node(node_id).clone();
        let mut entries: Vec<&CollectedInsn> = node.il.iter().collect();
        entries.sort_by_key(|e| e.dex_pc);

        for (i, entry) in entries.iter().enumerate() {
            let label = self.labels[&(node_id, entry.dex_pc)];
            self.asm.bind(label);

            // Divergence guards: one per child forking at this dex_pc
            // (paper Code 4: `if (Modification.guard) { baseline } else
            // { divergent }` — here the taken edge is the divergent block).
            for &child in &node.children {
                if self.input.tree.node(child).sm_start == entry.dex_pc {
                    let field = self.guards.next_field(self.dex);
                    let mut sget = Insn::of(Opcode::SgetBoolean);
                    sget.a = self.guard_reg;
                    sget.idx = field;
                    self.asm.push(sget);
                    let child_entry = self.labels[&(child, entry.dex_pc)];
                    self.asm.if_z(Opcode::IfNez, self.guard_reg, child_entry);
                }
            }

            let insn = self.decode_entry(entry)?;
            let op = insn.op;
            self.emit_insn(entry, insn, chain)?;

            // Preserve fall-through: if the next collected instruction in
            // layout order is not the physical successor, redirect.
            if !op.is_terminator() {
                let fall_through = entry.dex_pc + op.format().units() as u32;
                let next_is_contiguous =
                    entries.get(i + 1).is_some_and(|n| n.dex_pc == fall_through);
                if !next_is_contiguous {
                    let target = self.resolve_or_trap(fall_through, chain);
                    self.asm.goto(target);
                }
            }
        }

        // Child divergence blocks, after the parent's body.
        for &child in &node.children {
            let mut child_chain = vec![child];
            child_chain.extend_from_slice(chain);
            self.emit_node(child, &child_chain)?;
            // Convergence: jump back into the parent flow.
            let child_node = self.input.tree.node(child);
            let last = child_node.il.iter().max_by_key(|e| e.dex_pc);
            let ends_with_terminator = last
                .and_then(|e| decode_insn(&e.units, 0).ok())
                .and_then(|d| d.as_insn().map(|i| i.op.is_terminator()))
                .unwrap_or(false);
            if !ends_with_terminator {
                let target = match child_node.sm_end {
                    Some(end) => self.resolve_or_trap(end, chain),
                    None => self.trap_label(),
                };
                self.asm.goto(target);
            }
        }
        Ok(())
    }

    fn decode_entry(&self, entry: &CollectedInsn) -> Result<Insn> {
        match decode_insn(&entry.units, 0).map_err(DexLegoError::Dalvik)? {
            Decoded::Insn(insn) => Ok(insn),
            _ => Err(DexLegoError::Reassembly(format!(
                "{}: collected payload at dex_pc {}",
                self.input.record.key, entry.dex_pc
            ))),
        }
    }

    fn emit_insn(&mut self, entry: &CollectedInsn, mut insn: Insn, chain: &[NodeId]) -> Result<()> {
        // Reflection replacement (paper §IV-D): a recorded Method.invoke
        // call site becomes direct call(s) to the resolved target(s).
        if insn.op.is_invoke() && insn.regs.len() >= 3 {
            if let Some(targets) = self.input.reflection.get(&entry.dex_pc) {
                if self.is_reflective_invoke(&insn) {
                    let targets = targets.clone();
                    return self.emit_direct_calls(&insn, &targets);
                }
            }
        }

        // Remap the constant-pool index into the output DEX.
        insn.idx = self.remap_index(&insn)?;

        match insn.op {
            Opcode::Goto | Opcode::Goto16 | Opcode::Goto32 => {
                let target = self.resolve_or_trap(insn.target(entry.dex_pc), chain);
                self.asm.goto(target);
            }
            op if op.is_conditional_branch() => {
                let target = self.resolve_or_trap(insn.target(entry.dex_pc), chain);
                self.asm.branch(insn, target);
            }
            Opcode::PackedSwitch | Opcode::SparseSwitch | Opcode::FillArrayData => {
                self.emit_payload_insn(entry, &insn, chain)?;
            }
            _ => {
                self.asm.push(insn);
            }
        }
        Ok(())
    }

    fn emit_payload_insn(
        &mut self,
        entry: &CollectedInsn,
        insn: &Insn,
        chain: &[NodeId],
    ) -> Result<()> {
        let Some((_, payload_units)) = &entry.payload else {
            return Err(DexLegoError::Reassembly(format!(
                "{}: {} at dex_pc {} has no captured payload",
                self.input.record.key,
                insn.op.mnemonic(),
                entry.dex_pc
            )));
        };
        match decode_insn(payload_units, 0).map_err(DexLegoError::Dalvik)? {
            Decoded::PackedSwitchPayload { first_key, targets } => {
                let labels: Vec<Label> = targets
                    .iter()
                    .map(|&rel| self.resolve_or_trap(entry.dex_pc.wrapping_add(rel as u32), chain))
                    .collect();
                self.asm.packed_switch(insn.a, first_key, labels);
            }
            Decoded::SparseSwitchPayload { keys, targets } => {
                let labels: Vec<Label> = targets
                    .iter()
                    .map(|&rel| self.resolve_or_trap(entry.dex_pc.wrapping_add(rel as u32), chain))
                    .collect();
                self.asm.sparse_switch(insn.a, keys, labels);
            }
            Decoded::FillArrayDataPayload {
                element_width,
                data,
            } => {
                self.asm.fill_array_data(insn.a, element_width, data);
            }
            Decoded::Insn(_) => {
                return Err(DexLegoError::Reassembly(
                    "captured payload decodes as an instruction".into(),
                ))
            }
        }
        Ok(())
    }

    fn is_reflective_invoke(&self, insn: &Insn) -> bool {
        self.input
            .pool
            .methods
            .get(insn.idx as usize)
            .is_some_and(|(class, name, _)| {
                class == "Ljava/lang/reflect/Method;" && name == "invoke"
            })
    }

    fn emit_direct_calls(&mut self, original: &Insn, targets: &[ReflectionTarget]) -> Result<()> {
        let receiver = original.regs[1];
        let args_array = original.regs[2];
        let join = self.asm.new_label();
        let alt_labels: Vec<Label> = targets
            .iter()
            .skip(1)
            .map(|_| self.asm.new_label())
            .collect();
        // Guard chain selecting among multiple observed targets.
        for &alt in &alt_labels {
            let field = self.guards.next_field(self.dex);
            let mut sget = Insn::of(Opcode::SgetBoolean);
            sget.a = self.guard_reg;
            sget.idx = field;
            self.asm.push(sget);
            self.asm.if_z(Opcode::IfNez, self.guard_reg, alt);
        }
        let emit_one = |this: &mut Self, target: &ReflectionTarget| -> Result<()> {
            let (params, ret) = parse_descriptor(&target.key.descriptor)?;
            let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
            let idx =
                this.dex
                    .intern_method(&target.key.class, &target.key.name, &ret, &param_refs);
            // Argument mapping: the boxed Object[] register stands in for
            // the parameter list (over-approximate; static analysers treat
            // the array's taint as flowing into the callee).
            let regs: Vec<u32> = match (target.is_static, target.param_count) {
                (true, 0) => vec![],
                (true, _) => vec![args_array],
                (false, 0) => vec![receiver],
                (false, _) => vec![receiver, args_array],
            };
            let op = if target.is_static {
                Opcode::InvokeStatic
            } else {
                Opcode::InvokeVirtual
            };
            this.asm.invoke(op, idx, &regs);
            Ok(())
        };
        emit_one(self, &targets[0])?;
        if !alt_labels.is_empty() {
            self.asm.goto(join);
            for (i, (alt, target)) in alt_labels.iter().zip(targets.iter().skip(1)).enumerate() {
                self.asm.bind(*alt);
                emit_one(self, target)?;
                // The last alternative falls through to the join point.
                if i + 2 < targets.len() {
                    self.asm.goto(join);
                }
            }
        }
        self.asm.bind(join);
        Ok(())
    }

    fn remap_index(&mut self, insn: &Insn) -> Result<u32> {
        use dexlego_dalvik::IndexKind;
        let missing = |what: &str, idx: u32| {
            DexLegoError::Reassembly(format!("{what} index {idx} missing from collected pool"))
        };
        Ok(match insn.op.index_kind() {
            IndexKind::None => insn.idx,
            IndexKind::String => {
                let s = self
                    .input
                    .pool
                    .strings
                    .get(insn.idx as usize)
                    .ok_or_else(|| missing("string", insn.idx))?;
                self.dex.intern_string(s)
            }
            IndexKind::Type => {
                let t = self
                    .input
                    .pool
                    .types
                    .get(insn.idx as usize)
                    .ok_or_else(|| missing("type", insn.idx))?;
                self.dex.intern_type(t)
            }
            IndexKind::Field => {
                let (class, name, type_desc) = self
                    .input
                    .pool
                    .fields
                    .get(insn.idx as usize)
                    .ok_or_else(|| missing("field", insn.idx))?;
                self.dex.intern_field(class, type_desc, name)
            }
            IndexKind::Method => {
                let (class, name, descriptor) = self
                    .input
                    .pool
                    .methods
                    .get(insn.idx as usize)
                    .cloned()
                    .ok_or_else(|| missing("method", insn.idx))?;
                let (params, ret) = parse_descriptor(&descriptor)?;
                let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
                self.dex.intern_method(&class, &name, &ret, &param_refs)
            }
        })
    }

    fn resolve_or_trap(&mut self, dex_pc: u32, chain: &[NodeId]) -> Label {
        for &node in chain {
            if let Some(&label) = self.labels.get(&(node, dex_pc)) {
                return label;
            }
        }
        self.trap_label()
    }

    fn trap_label(&mut self) -> Label {
        if let Some(t) = self.trap {
            return t;
        }
        let t = self.asm.new_label();
        self.trap = Some(t);
        t
    }

    fn emit_trap_block(&mut self) {
        // Never-executed branch directions land here: throw, terminating the
        // path for any analyser without inventing behaviour.
        if let Some(trap) = self.trap {
            self.asm.bind(trap);
            let mut zero = Insn::of(Opcode::Const16);
            zero.a = self.guard_reg;
            zero.lit = 0;
            self.asm.push(zero);
            let mut throw = Insn::of(Opcode::Throw);
            throw.a = self.guard_reg;
            self.asm.push(throw);
        }
    }
}

#[derive(Clone, Copy)]
enum MoveKind {
    Single,
    Wide,
    Object,
}
