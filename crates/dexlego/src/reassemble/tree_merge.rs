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
//!
//! # Index-addressed merge
//!
//! The merge reads the tree in place and allocates nothing per
//! instruction:
//!
//! * **Labels.** Each tree takes one block of assembler labels, one per IL
//!   entry. A node's entries, sorted by `dex_pc`, take consecutive labels
//!   from the node's base, so the label of (node, pc) is the base plus the
//!   entry's position in the node's pc-sorted IL, found by binary search.
//! * **Scopes.** A branch target resolves to the innermost node on the path
//!   from the root that recorded the target pc. The walk keeps a per-pc
//!   scope table: entering a node pushes its labels, leaving it pops them,
//!   so each lookup is one hash probe however deep the divergence nesting.
//!   The walk itself runs on an explicit stack, so nesting depth is bounded
//!   by memory, not by the thread's stack.
//! * **Pool remap.** One [`PoolRemap`] per collected pool, shared by every
//!   tree merged from it, maps each pool index to its output-DEX index the
//!   first time an instruction references it; later references are one
//!   array read instead of a descriptor parse and an intern.

use std::collections::HashMap;
use std::ops::Range;

use dexlego_dalvik::asm::Label;
use dexlego_dalvik::{decode_insn, Decoded, IndexKind, Insn, MethodAssembler, Opcode};
use dexlego_dex::{CodeItem, DexFile};

use crate::collect::tree::{CollectedInsn, CollectionTree, NodeId, PcMap};
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

/// Output-DEX indices of one collected pool's entries, filled as
/// instructions first reference them.
#[derive(Debug)]
pub struct PoolRemap {
    strings: Vec<u32>,
    types: Vec<u32>,
    fields: Vec<u32>,
    methods: Vec<u32>,
}

/// A pool entry not interned into the output yet.
const UNMAPPED: u32 = u32::MAX;

impl PoolRemap {
    /// An empty remap table sized for `pool`.
    pub fn new(pool: &PoolRecord) -> PoolRemap {
        PoolRemap {
            strings: vec![UNMAPPED; pool.strings.len()],
            types: vec![UNMAPPED; pool.types.len()],
            fields: vec![UNMAPPED; pool.fields.len()],
            methods: vec![UNMAPPED; pool.methods.len()],
        }
    }
}

/// Where each node's IL sits in the tree's label block.
struct Layout {
    /// The tree's first label.
    first: Label,
    /// `(dex_pc, IL index)` of every node's entries, each node's run
    /// sorted by `dex_pc`; entry `k` carries label `first + k`.
    sorted: Vec<(u32, u32)>,
    /// Node `n`'s run is `starts[n]..starts[n + 1]`.
    starts: Vec<u32>,
}

impl Layout {
    fn new(tree: &CollectionTree, asm: &mut MethodAssembler) -> Layout {
        let mut sorted = Vec::with_capacity(tree.total_insns());
        let mut starts = Vec::with_capacity(tree.node_count() + 1);
        for node in tree.nodes() {
            let start = sorted.len();
            starts.push(start as u32);
            sorted.extend(
                node.il
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.dex_pc, i as u32)),
            );
            // A node records each pc once (the codec rejects repeats).
            sorted[start..].sort_unstable();
        }
        starts.push(sorted.len() as u32);
        Layout {
            first: asm.new_labels(sorted.len() as u32),
            sorted,
            starts,
        }
    }

    /// Positions of node `node`'s entries in [`Self::sorted`].
    fn run(&self, node: NodeId) -> Range<usize> {
        self.starts[node] as usize..self.starts[node + 1] as usize
    }

    /// The label of position `k` in [`Self::sorted`].
    fn label(&self, k: usize) -> Label {
        self.first + k as u32
    }

    /// The label of `node`'s entry at `dex_pc`, if the node recorded it.
    fn label_of(&self, node: NodeId, dex_pc: u32) -> Option<Label> {
        let run = self.run(node);
        let start = run.start;
        self.sorted[run]
            .binary_search_by_key(&dex_pc, |e| e.0)
            .ok()
            .map(|i| self.label(start + i))
    }
}

struct Emitter<'d, 'i> {
    dex: &'d mut DexFile,
    guards: &'d mut GuardAlloc,
    remap: &'d mut PoolRemap,
    asm: MethodAssembler,
    layout: Layout,
    /// Innermost label per `dex_pc` among the nodes on the walk's path.
    scope: PcMap<Label>,
    /// What entering nodes overwrote in [`Self::scope`], restored on leave.
    shadowed: Vec<(u32, Option<Label>)>,
    trap: Option<Label>,
    guard_reg: u32,
    input: &'i MergeInput<'i>,
}

/// Merges `input.tree` into a [`CodeItem`], interning pool entries through
/// `remap`, the table of `input.pool`.
///
/// The produced code has one extra register (the guard/scratch register) and
/// a prologue that moves the argument registers down to their original
/// positions, so every collected instruction keeps its original register
/// numbers.
///
/// # Errors
///
/// Returns [`DexLegoError::Reassembly`] for structurally impossible input
/// (e.g. a method already using 256 registers, or a divergence branch with
/// no entry at the pc it forks at) and propagates encode/decode failures.
pub fn merge_tree(
    dex: &mut DexFile,
    guards: &mut GuardAlloc,
    remap: &mut PoolRemap,
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

    let tree = input.tree;
    let mut asm = MethodAssembler::new();
    let layout = Layout::new(tree, &mut asm);
    let mut scope = PcMap::default();
    scope.reserve(tree.node(tree.root()).il.len());
    let mut emitter = Emitter {
        dex,
        guards,
        remap,
        asm,
        layout,
        scope,
        shadowed: Vec::new(),
        trap: None,
        guard_reg,
        input,
    };

    emitter.emit_prologue();
    emitter.emit_tree()?;
    // Handlers that were never executed are retargeted to the trap block;
    // make sure it exists before assembly when any try region survives.
    let root_run = &emitter.layout.sorted[emitter.layout.run(tree.root())];
    let root_has = |pc: u32| root_run.binary_search_by_key(&pc, |e| e.0).is_ok();
    let needs_trap_handler = input.record.tries.iter().any(|t| {
        // The first root pc at or past the range start decides coverage.
        let covered = root_run
            .get(root_run.partition_point(|e| e.0 < t.start))
            .is_some_and(|e| t.covers(e.0));
        let unresolved_handler = t
            .catches
            .iter()
            .map(|(_, pc)| *pc)
            .chain(t.catch_all)
            .any(|pc| !root_has(pc));
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
    let address = |label: Label| labels.get(label as usize).copied().flatten();
    let addr_of = |pc: u32| emitter.layout.label_of(tree.root(), pc).and_then(address);
    let trap_addr = trap.and_then(address);
    let mut tries = Vec::new();
    let mut handlers = Vec::new();
    for record_try in &input.record.tries {
        // New range: the span of collected instructions inside the old one.
        let mut lo: Option<u32> = None;
        let mut hi: Option<u32> = None;
        for ins in &tree.node(tree.root()).il {
            if record_try.covers(ins.dex_pc) {
                if let Some(addr) = addr_of(ins.dex_pc) {
                    let end = addr + tree.units(ins).len() as u32;
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

    /// Emits every node reachable from the root, depth first: a node's
    /// body, then each child's block followed by its convergence jump.
    fn emit_tree(&mut self) -> Result<()> {
        let tree = self.input.tree;
        // (node, next child to emit, scope mark to restore on leaving)
        let mut stack: Vec<(NodeId, usize, usize)> = Vec::new();
        let mark = self.enter(tree.root());
        stack.push((tree.root(), 0, mark));
        self.emit_body(tree.root())?;
        while let Some(top) = stack.last_mut() {
            let (node, next) = (top.0, top.1);
            if let Some(&child) = tree.node(node).children.get(next) {
                top.1 += 1;
                let mark = self.enter(child);
                stack.push((child, 0, mark));
                self.emit_body(child)?;
            } else {
                let (_, _, mark) = stack.pop().expect("stack is not empty");
                self.leave(mark);
                if !stack.is_empty() {
                    // Resolved in the parent's scope, restored just above.
                    self.emit_convergence(node)?;
                }
            }
        }
        Ok(())
    }

    /// Brings `node`'s labels into scope; returns the mark [`Self::leave`]
    /// restores to.
    fn enter(&mut self, node: NodeId) -> usize {
        let mark = self.shadowed.len();
        for k in self.layout.run(node) {
            let pc = self.layout.sorted[k].0;
            let old = self.scope.insert(pc, self.layout.label(k));
            self.shadowed.push((pc, old));
        }
        mark
    }

    /// Takes the labels entered since `mark` out of scope again.
    fn leave(&mut self, mark: usize) {
        while self.shadowed.len() > mark {
            let (pc, old) = self.shadowed.pop().expect("above the mark");
            match old {
                Some(label) => self.scope.insert(pc, label),
                None => self.scope.remove(&pc),
            };
        }
    }

    /// Lays out `node`'s entries in `dex_pc` order, with a divergence guard
    /// before each entry a child forks at.
    fn emit_body(&mut self, node_id: NodeId) -> Result<()> {
        let tree = self.input.tree;
        let node = tree.node(node_id);
        // Children by the pc they fork at; creation order within a pc.
        let mut forks: Vec<(u32, NodeId)> = node
            .children
            .iter()
            .map(|&c| (tree.node(c).sm_start, c))
            .collect();
        forks.sort_by_key(|f| f.0);
        let mut forks = forks.into_iter().peekable();
        let run = self.layout.run(node_id);
        for k in run.clone() {
            let (dex_pc, il_index) = self.layout.sorted[k];
            let entry = &node.il[il_index as usize];
            self.asm.bind(self.layout.label(k));

            // Divergence guards: one per child forking at this dex_pc
            // (paper Code 4: `if (Modification.guard) { baseline } else
            // { divergent }` — here the taken edge is the divergent block).
            while forks.next_if(|f| f.0 < dex_pc).is_some() {}
            while let Some((_, child)) = forks.next_if(|f| f.0 == dex_pc) {
                let child_entry = self.layout.label_of(child, dex_pc).ok_or_else(|| {
                    DexLegoError::Reassembly(format!(
                        "{}: divergence branch has no entry at its start {dex_pc}",
                        self.input.record.key
                    ))
                })?;
                let field = self.guards.next_field(self.dex);
                let mut sget = Insn::of(Opcode::SgetBoolean);
                sget.a = self.guard_reg;
                sget.idx = field;
                self.asm.push(sget);
                self.asm.if_z(Opcode::IfNez, self.guard_reg, child_entry);
            }

            let insn = self.decode_entry(entry)?;
            let op = insn.op;
            self.emit_insn(entry, insn)?;

            // Preserve fall-through: if the next collected instruction in
            // layout order is not the physical successor, redirect.
            if !op.is_terminator() {
                let fall_through = entry.dex_pc + op.format().units() as u32;
                let next_is_contiguous =
                    k + 1 < run.end && self.layout.sorted[k + 1].0 == fall_through;
                if !next_is_contiguous {
                    let target = self.resolve_or_trap(fall_through);
                    self.asm.goto(target);
                }
            }
        }
        Ok(())
    }

    /// After a child's block: jump back into the parent flow where the
    /// branch converged, unless its last instruction ends the path.
    fn emit_convergence(&mut self, child: NodeId) -> Result<()> {
        let tree = self.input.tree;
        let child_node = tree.node(child);
        let last = self
            .layout
            .run(child)
            .last()
            .map(|k| &child_node.il[self.layout.sorted[k].1 as usize]);
        let ends_with_terminator = last
            .and_then(|e| decode_insn(tree.units(e), 0).ok())
            .and_then(|d| d.as_insn().map(|i| i.op.is_terminator()))
            .unwrap_or(false);
        if !ends_with_terminator {
            let target = match child_node.sm_end {
                Some(end) => self.resolve_or_trap(end),
                None => self.trap_label(),
            };
            self.asm.goto(target);
        }
        Ok(())
    }

    fn decode_entry(&self, entry: &CollectedInsn) -> Result<Insn> {
        match decode_insn(self.input.tree.units(entry), 0).map_err(DexLegoError::Dalvik)? {
            Decoded::Insn(insn) => Ok(insn),
            _ => Err(DexLegoError::Reassembly(format!(
                "{}: collected payload at dex_pc {}",
                self.input.record.key, entry.dex_pc
            ))),
        }
    }

    fn emit_insn(&mut self, entry: &CollectedInsn, mut insn: Insn) -> Result<()> {
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
                let target = self.resolve_or_trap(insn.target(entry.dex_pc));
                self.asm.goto(target);
            }
            op if op.is_conditional_branch() => {
                let target = self.resolve_or_trap(insn.target(entry.dex_pc));
                self.asm.branch(insn, target);
            }
            Opcode::PackedSwitch | Opcode::SparseSwitch | Opcode::FillArrayData => {
                self.emit_payload_insn(entry, &insn)?;
            }
            _ => {
                self.asm.push(insn);
            }
        }
        Ok(())
    }

    fn emit_payload_insn(&mut self, entry: &CollectedInsn, insn: &Insn) -> Result<()> {
        let Some((_, payload_units)) = self.input.tree.payload(entry) else {
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
                    .map(|&rel| self.resolve_or_trap(entry.dex_pc.wrapping_add(rel as u32)))
                    .collect();
                self.asm.packed_switch(insn.a, first_key, labels);
            }
            Decoded::SparseSwitchPayload { keys, targets } => {
                let labels: Vec<Label> = targets
                    .iter()
                    .map(|&rel| self.resolve_or_trap(entry.dex_pc.wrapping_add(rel as u32)))
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

    /// The output-DEX index for `insn`'s pool index, interned on the pool
    /// entry's first reference.
    fn remap_index(&mut self, insn: &Insn) -> Result<u32> {
        let missing = |what: &str, idx: u32| {
            DexLegoError::Reassembly(format!("{what} index {idx} missing from collected pool"))
        };
        let pool = self.input.pool;
        let idx = insn.idx as usize;
        let (slot, what) = match insn.op.index_kind() {
            IndexKind::None => return Ok(insn.idx),
            IndexKind::String => (self.remap.strings.get_mut(idx), "string"),
            IndexKind::Type => (self.remap.types.get_mut(idx), "type"),
            IndexKind::Field => (self.remap.fields.get_mut(idx), "field"),
            IndexKind::Method => (self.remap.methods.get_mut(idx), "method"),
        };
        let slot = slot.ok_or_else(|| missing(what, insn.idx))?;
        if *slot != UNMAPPED {
            return Ok(*slot);
        }
        *slot = match insn.op.index_kind() {
            IndexKind::None => unreachable!("returned above"),
            IndexKind::String => self.dex.intern_string(&pool.strings[idx]),
            IndexKind::Type => self.dex.intern_type(&pool.types[idx]),
            IndexKind::Field => {
                let (class, name, type_desc) = &pool.fields[idx];
                self.dex.intern_field(class, type_desc, name)
            }
            IndexKind::Method => {
                let (class, name, descriptor) = &pool.methods[idx];
                let (params, ret) = parse_descriptor(descriptor)?;
                let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
                self.dex.intern_method(class, name, &ret, &param_refs)
            }
        };
        Ok(*slot)
    }

    /// The label `dex_pc` resolves to in the current scope, or the trap
    /// block when no node on the path recorded it.
    fn resolve_or_trap(&mut self, dex_pc: u32) -> Label {
        match self.scope.get(&dex_pc) {
            Some(&label) => label,
            None => self.trap_label(),
        }
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
