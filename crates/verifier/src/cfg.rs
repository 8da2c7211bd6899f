//! Control-flow graph construction over decoded Dalvik code.
//!
//! Basic blocks are built from the decoded instruction stream: leaders are
//! the entry, every valid branch/switch target, every exception handler,
//! and every instruction following a control transfer. Payload
//! pseudo-instructions are excluded from blocks entirely — branching into or
//! falling through to one is a verification error, recorded as a pending
//! finding and reported by the caller once reachability is known.
//!
//! Everything is addressed by instruction index. The real instructions are
//! two parallel columns, pc and decoded [`Insn`], sorted by pc, so a pc
//! lookup is a binary search; a block is an index range; the successor
//! edges of all blocks share one CSR list; and each instruction's
//! exception-handler targets are another. Construction allocates a fixed
//! number of arrays per method, however many instructions it has.

use std::ops::Range;

use dexlego_dalvik::insn::{Decoded, Insn};
use dexlego_dalvik::{decode_insn, DalvikError, Opcode};
use dexlego_dex::code::{EncodedCatchHandler, TryItem};

use crate::diag::{Diagnostic, Rule};

/// How control reaches a successor block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential flow into the next block.
    FallThrough,
    /// Taken `goto`/`if-*` branch.
    Branch,
    /// One arm of a `packed-switch`/`sparse-switch`.
    Switch,
    /// Transfer to an exception handler from inside a `try` range.
    Exception,
}

/// A successor edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the successor block.
    pub target: usize,
    /// The kind of control transfer.
    pub kind: EdgeKind,
}

/// A basic block: a maximal run of non-payload instructions with a single
/// entry at `start`.
#[derive(Debug, Clone)]
pub struct Block {
    /// dex_pc of the first instruction.
    pub start: u32,
    /// Indices into [`Cfg::insns`] of the member instructions.
    pub insns: Range<usize>,
    /// The block's successor edges (normal flow first, then exception
    /// flow) as a range of the CFG's edge list; see [`Cfg::succs`].
    pub succs: Range<usize>,
    /// Whether the block is reachable from the method entry.
    pub reachable: bool,
}

/// A control-flow graph plus the decoded instructions it was built from.
/// Shared between the verifier dataflow, the lint pass, and the typed IR
/// (which takes the instructions over once verification is done).
#[derive(Debug, Clone)]
pub struct Cfg {
    /// dex_pc of each real instruction, ascending.
    pcs: Vec<u32>,
    /// The real instructions, parallel to `pcs`.
    insns: Vec<Insn>,
    /// Owning block of each instruction.
    block_of: Vec<u32>,
    blocks: Vec<Block>,
    /// Successor edges of every block, each block's a contiguous run.
    edges: Vec<Edge>,
    /// CSR rows: instruction `i` may throw to the handler blocks
    /// `throw_targets[throw_start[i]..throw_start[i + 1]]`. Both are empty
    /// when no throwing instruction is covered by a try range.
    throw_start: Vec<u32>,
    throw_targets: Vec<u32>,
    /// Findings recorded during construction, already filtered to
    /// reachable code.
    findings: Vec<Diagnostic>,
}

/// Construction findings, reported only if the instruction at their pc
/// ends up reachable: (source pc, rule, message).
type Pending = Vec<(u32, Rule, String)>;

impl Cfg {
    /// Builds the CFG for one method body.
    ///
    /// Malformed control flow (branches off instruction boundaries, wrong
    /// payload kinds, fall-through off the end) does not fail construction:
    /// the offending edges are dropped and the problems reported via
    /// [`Cfg::findings`], so dataflow can still run over the rest.
    ///
    /// # Errors
    ///
    /// Returns the decoder error if the code units do not decode at all.
    pub fn build(
        code: &[u16],
        tries: &[TryItem],
        handlers: &[EncodedCatchHandler],
    ) -> Result<Cfg, DalvikError> {
        // Most instructions take one to three code units.
        let estimate = code.len() / 2 + 1;
        let mut pcs = Vec::with_capacity(estimate);
        let mut insns = Vec::with_capacity(estimate);
        let mut payloads = Vec::new();
        let mut pc = 0usize;
        while pc < code.len() {
            let d = decode_insn(code, pc)?;
            let len = d.units();
            match d {
                Decoded::Insn(insn) => {
                    pcs.push(pc as u32);
                    insns.push(insn);
                }
                payload => payloads.push((pc as u32, payload)),
            }
            pc += len;
        }
        let mut cfg = Cfg {
            pcs,
            insns,
            block_of: Vec::new(),
            blocks: Vec::new(),
            edges: Vec::new(),
            throw_start: Vec::new(),
            throw_targets: Vec::new(),
            findings: Vec::new(),
        };
        cfg.connect(&payloads, pc as u32, tries, handlers);
        Ok(cfg)
    }

    /// Carves the decoded instructions into blocks and wires every edge.
    /// `payloads` are the payload pseudo-instructions by ascending pc and
    /// `code_end` the address one past the last code unit.
    fn connect(
        &mut self,
        payloads: &[(u32, Decoded)],
        code_end: u32,
        tries: &[TryItem],
        handlers: &[EncodedCatchHandler],
    ) {
        let n = self.insns.len();
        let mut pending = Pending::new();

        // Branch and switch targets, as (instruction, target instruction,
        // kind) in instruction order.
        let mut out: Vec<(u32, u32, EdgeKind)> = Vec::new();
        let mut leader = vec![false; n];
        for (i, insn) in self.insns.iter().enumerate() {
            let pc = self.pcs[i];
            let first = out.len();
            let mut edge = |target: Option<usize>, kind| {
                if let Some(t) = target {
                    out.push((i as u32, t as u32, kind));
                }
            };
            match insn.op {
                Opcode::Goto | Opcode::Goto16 | Opcode::Goto32 => {
                    let t = self.check_target(payloads, pc, insn.target(pc), "goto", &mut pending);
                    edge(t, EdgeKind::Branch);
                }
                op if op.is_conditional_branch() => {
                    let t =
                        self.check_target(payloads, pc, insn.target(pc), "branch", &mut pending);
                    edge(t, EdgeKind::Branch);
                }
                Opcode::PackedSwitch | Opcode::SparseSwitch => {
                    let arms = match payload_at(payloads, insn.target(pc)) {
                        Some(Decoded::PackedSwitchPayload { targets, .. })
                            if insn.op == Opcode::PackedSwitch =>
                        {
                            Some(targets)
                        }
                        Some(Decoded::SparseSwitchPayload { targets, .. })
                            if insn.op == Opcode::SparseSwitch =>
                        {
                            Some(targets)
                        }
                        _ => {
                            pending.push((
                                pc,
                                Rule::V0008,
                                format!(
                                    "{} at {pc:#06x} does not reference a matching payload",
                                    insn.op.mnemonic()
                                ),
                            ));
                            None
                        }
                    };
                    for &off in arms.into_iter().flatten() {
                        let target = pc.wrapping_add(off as u32);
                        let t = self.check_target(payloads, pc, target, "switch arm", &mut pending);
                        edge(t, EdgeKind::Switch);
                    }
                }
                Opcode::FillArrayData
                    if !matches!(
                        payload_at(payloads, insn.target(pc)),
                        Some(Decoded::FillArrayDataPayload { .. })
                    ) =>
                {
                    pending.push((
                        pc,
                        Rule::V0008,
                        format!("fill-array-data at {pc:#06x} does not reference an array payload"),
                    ));
                }
                _ => {}
            }
            for &(_, t, _) in &out[first..] {
                leader[t as usize] = true;
            }
            // The instruction after any control transfer starts a block.
            if (insn.op.has_branch_target() || insn.op.is_terminator()) && self.adjacent(i + 1) {
                leader[i + 1] = true;
            }
        }

        // Exception handlers are leaders.
        for t in tries {
            if let Some(h) = handlers.get(t.handler_index) {
                for addr in h.catches.iter().map(|c| c.addr).chain(h.catch_all_addr) {
                    if let Some(j) = self.index_of_pc(addr) {
                        leader[j] = true;
                    }
                }
            }
        }

        // Carve the instruction stream into blocks; a payload between two
        // instructions also ends a block.
        self.block_of.reserve_exact(n);
        for (i, &leads) in leader.iter().enumerate() {
            if i == 0 || leads || !self.adjacent(i) {
                self.blocks.push(Block {
                    start: self.pcs[i],
                    insns: i..i,
                    succs: 0..0,
                    reachable: false,
                });
            }
            let bid = self.blocks.len() - 1;
            self.blocks[bid].insns.end = i + 1;
            self.block_of.push(bid as u32);
        }

        self.throw_table(tries, handlers, &mut pending);

        // Wire each block's edges: the branch or switch edges of its last
        // instruction, its fall-through, then one exception edge per
        // handler a covered throwing instruction may reach. A branch or
        // switch always ends its block (what follows it is a leader), so
        // `out` is consumed in block order.
        let mut cursor = 0;
        for b in 0..self.blocks.len() {
            let range = self.blocks[b].insns.clone();
            let last = range.end - 1;
            let first_edge = self.edges.len();
            while cursor < out.len() && out[cursor].0 as usize == last {
                let (_, t, kind) = out[cursor];
                let target = self.block_of[t as usize] as usize;
                self.edges.push(Edge { target, kind });
                cursor += 1;
            }
            let (pc, insn) = (self.pcs[last], &self.insns[last]);
            if !insn.op.is_terminator() {
                let next = pc + insn.units() as u32;
                if self.adjacent(last + 1) {
                    let target = self.block_of[last + 1] as usize;
                    self.edges.push(Edge {
                        target,
                        kind: EdgeKind::FallThrough,
                    });
                } else if next >= code_end {
                    pending.push((
                        pc,
                        Rule::V0005,
                        format!(
                            "{} falls through off the end of the method",
                            insn.op.mnemonic()
                        ),
                    ));
                } else {
                    pending.push((
                        pc,
                        Rule::V0005,
                        format!("{} falls through into payload data", insn.op.mnemonic()),
                    ));
                }
            }
            let normal_end = self.edges.len();
            for i in range {
                for k in self.throw_row(i) {
                    let edge = Edge {
                        target: self.throw_targets[k] as usize,
                        kind: EdgeKind::Exception,
                    };
                    if !self.edges[normal_end..].contains(&edge) {
                        self.edges.push(edge);
                    }
                }
            }
            self.blocks[b].succs = first_edge..self.edges.len();
        }
        debug_assert_eq!(cursor, out.len(), "every branch ends a block");

        // Reachability from the entry block.
        if !self.blocks.is_empty() {
            let mut stack = vec![0usize];
            while let Some(b) = stack.pop() {
                if self.blocks[b].reachable {
                    continue;
                }
                self.blocks[b].reachable = true;
                let succs = self.blocks[b].succs.clone();
                stack.extend(self.edges[succs].iter().map(|e| e.target));
            }
        }

        // Keep only findings whose source instruction is reachable; those
        // anchored off instruction boundaries (handler problems at a try
        // start) are always kept.
        self.findings = pending
            .into_iter()
            .filter(|&(pc, _, _)| {
                self.index_of_pc(pc)
                    .is_none_or(|i| self.blocks[self.block_of[i] as usize].reachable)
            })
            .map(|(pc, rule, message)| Diagnostic::new(rule, pc, message))
            .collect();
    }

    /// Resolves a branch target to an instruction index, recording why
    /// when it is not an instruction boundary.
    fn check_target(
        &self,
        payloads: &[(u32, Decoded)],
        pc: u32,
        target: u32,
        what: &str,
        pending: &mut Pending,
    ) -> Option<usize> {
        if let Some(t) = self.index_of_pc(target) {
            return Some(t);
        }
        let problem = if payload_at(payloads, target).is_some() {
            "lands inside payload data"
        } else {
            "is not on an instruction boundary"
        };
        pending.push((
            pc,
            Rule::V0004,
            format!("{what} target {target:#06x} {problem}"),
        ));
        None
    }

    /// Fills the per-instruction handler targets: every throwing
    /// instruction inside a try range may reach each of the range's
    /// handlers (coverage of non-throwing instructions alone adds nothing —
    /// the ART rule: a handler guarding only arithmetic is dead). Handlers
    /// off instruction boundaries are reported against the try start.
    fn throw_table(
        &mut self,
        tries: &[TryItem],
        handlers: &[EncodedCatchHandler],
        pending: &mut Pending,
    ) {
        // (instruction, handler block), in try order per instruction.
        let mut throws: Vec<(u32, u32)> = Vec::new();
        let mut handler_blocks: Vec<u32> = Vec::new();
        for t in tries {
            let Some(h) = handlers.get(t.handler_index) else {
                continue;
            };
            handler_blocks.clear();
            for clause in &h.catches {
                match self.index_of_pc(clause.addr) {
                    Some(j) => handler_blocks.push(self.block_of[j]),
                    None => pending.push((
                        t.start_addr,
                        Rule::V0004,
                        format!(
                            "catch handler {:#06x} is not on an instruction boundary",
                            clause.addr
                        ),
                    )),
                }
            }
            if let Some(addr) = h.catch_all_addr {
                match self.index_of_pc(addr) {
                    Some(j) => handler_blocks.push(self.block_of[j]),
                    None => pending.push((
                        t.start_addr,
                        Rule::V0004,
                        format!("catch-all handler {addr:#06x} is not on an instruction boundary"),
                    )),
                }
            }
            let first = self.pcs.partition_point(|&p| p < t.start_addr);
            let end = self.pcs.partition_point(|&p| u64::from(p) < t.end_addr());
            for i in first..end {
                if self.insns[i].op.can_throw() {
                    throws.extend(handler_blocks.iter().map(|&hb| (i as u32, hb)));
                }
            }
        }
        if throws.is_empty() {
            return;
        }
        throws.sort_by_key(|&(i, _)| i);
        let n = self.insns.len();
        self.throw_start.reserve_exact(n + 1);
        let mut k = 0;
        for i in 0..n {
            let row = self.throw_targets.len();
            self.throw_start.push(row as u32);
            while k < throws.len() && throws[k].0 as usize == i {
                // Merging is idempotent: each handler once per instruction.
                let hb = throws[k].1;
                if !self.throw_targets[row..].contains(&hb) {
                    self.throw_targets.push(hb);
                }
                k += 1;
            }
        }
        self.throw_start.push(self.throw_targets.len() as u32);
    }

    fn throw_row(&self, i: usize) -> Range<usize> {
        match self.throw_start.get(i..i + 2) {
            Some(&[start, end]) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// Whether instruction `i` exists and directly follows instruction
    /// `i - 1` in code order, with no payload between them.
    fn adjacent(&self, i: usize) -> bool {
        i > 0
            && i < self.insns.len()
            && self.pcs[i - 1] + self.insns[i - 1].units() as u32 == self.pcs[i]
    }

    /// The real instructions in address order (payloads excluded).
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// The dex_pc of each instruction in [`Cfg::insns`], ascending.
    pub fn pcs(&self) -> &[u32] {
        &self.pcs
    }

    /// The index into [`Cfg::insns`] of the instruction at `pc`, if `pc`
    /// is an instruction boundary.
    pub fn index_of_pc(&self, pc: u32) -> Option<usize> {
        self.pcs.binary_search(&pc).ok()
    }

    /// The basic blocks, in address order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The successor edges of `block`.
    pub fn succs(&self, block: &Block) -> &[Edge] {
        &self.edges[block.succs.clone()]
    }

    /// The index of the block holding instruction `i`.
    pub fn block_of(&self, i: usize) -> usize {
        self.block_of[i] as usize
    }

    /// Normal-flow (non-exception) successors of instruction `i`, as
    /// instruction indices: the next instruction inside a block, the first
    /// instruction of each normal successor block at its end.
    pub fn insn_successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let block = &self.blocks[self.block_of(i)];
        let (inner, edges) = if i + 1 < block.insns.end {
            (Some(i + 1), &[][..])
        } else {
            (None, self.succs(block))
        };
        inner.into_iter().chain(
            edges
                .iter()
                .filter(|e| e.kind != EdgeKind::Exception)
                .map(|e| self.blocks[e.target].insns.start),
        )
    }

    /// The handler blocks instruction `i` may throw to, each once.
    pub fn throw_targets(&self, i: usize) -> &[u32] {
        &self.throw_targets[self.throw_row(i)]
    }

    /// The instruction directly before instruction `i` in code order, if
    /// it is a real instruction (payloads break adjacency).
    pub(crate) fn prev_insn(&self, i: usize) -> Option<&Insn> {
        self.adjacent(i).then(|| &self.insns[i - 1])
    }

    /// Control-flow problems discovered during construction (invalid branch
    /// targets, payload mismatches, fall-through off the end), restricted
    /// to reachable code.
    pub fn findings(&self) -> &[Diagnostic] {
        &self.findings
    }

    /// Gives up the pc and instruction columns (for the typed IR).
    pub(crate) fn into_insns(self) -> (Vec<u32>, Vec<Insn>) {
        (self.pcs, self.insns)
    }
}

/// The payload pseudo-instruction starting at `pc`, if any.
fn payload_at(payloads: &[(u32, Decoded)], pc: u32) -> Option<&Decoded> {
    let k = payloads.binary_search_by_key(&pc, |&(p, _)| p).ok()?;
    Some(&payloads[k].1)
}
