//! Worklist fixpoint dataflow over the register typestate lattice.
//!
//! Each basic block has an entry frame (one [`RegType`] per register);
//! blocks are simulated in worklist order, merging the outgoing frame into
//! every successor and re-queueing successors whose entry frame changed.
//! Exception handlers receive the merge of the frame *before* every
//! instruction their try range covers (the ART rule: a throw can occur at
//! any covered instruction). Errors are deduplicated by (rule, pc).
//!
//! Two engines produce the same fixpoint:
//!
//! * [`Strategy::Fast`] — the production path: a FIFO worklist whose block
//!   entry states live in one dense [`FrameSlab`] instead of per-block
//!   `Vec`s, each block walk reuses a single scratch frame instead of
//!   cloning, instruction effects fill a reusable buffer instead of
//!   allocating, and each instruction's exception-handler targets come
//!   precomputed from the CFG ([`Cfg::throw_targets`]) instead of a scan
//!   over every try range per instruction.
//! * [`Strategy::Reference`] — the pre-optimization engine with per-visit
//!   frame clones and per-range scans, kept as the differential oracle
//!   (`bench --bin verifier --baseline`, proptests).
//!
//! Diagnostics are emitted only during the post-fixpoint *replay*: the
//! fixpoint runs muted, then each reached block is replayed once from its
//! converged entry frame, snapshotting per-instruction pre-states into a
//! dense [`FrameSlab`] (what [`crate::typed_ir::TypedIr`] materializes) and
//! reporting findings against the final states. Because the converged
//! fixpoint is unique, the diagnostics are a function of the method alone —
//! independent of worklist order, engine, and (for whole-DEX runs) of how
//! many threads verified sibling methods.
//!
//! With DEX context ([`TypeCtx::dex`]), reference writes are refined to the
//! descriptor the instruction actually produces (`new-instance`,
//! `const-string`, field loads, invoke returns), and declared types are
//! checked at use sites: invoke signatures (V0009), field writes (V0010),
//! return types (V0011), provably-failing `check-cast` (L0004), and
//! provably-incompatible `aput-object` (L0005). All typed checks fire only
//! on *provable* breakage — see [`ClassHierarchy::provably_disjoint`].

use std::collections::{HashSet, VecDeque};

use dexlego_dalvik::insn::Insn;
use dexlego_dalvik::Opcode;
use dexlego_dex::code::{CodeItem, TryItem};
use dexlego_dex::DexFile;

use crate::cfg::{Cfg, EdgeKind};
use crate::diag::{Diagnostic, Rule};
use crate::effects::{effects_into, Effects, Need, Write};
use crate::hierarchy::{ClassHierarchy, TypeId};
use crate::typestate::{join_frames, RegType};
use crate::ParamKind;

/// Which fixpoint engine verifies a method. Both produce identical
/// diagnostics and frames (enforced by the differential proptests); the
/// reference engine exists as the measured baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Strategy {
    /// Dense state slab, reusable scratch frame, precomputed handlers.
    #[default]
    Fast,
    /// FIFO worklist with per-visit clones — the pre-optimization engine.
    Reference,
}

/// One dense slab of `regs` lattice values per slot: per-instruction
/// fixpoint pre-states (indexed like [`Cfg::insns`]; unreachable
/// instructions have no state) and per-block entry states during the
/// fixpoint.
pub(crate) struct FrameSlab {
    regs: usize,
    present: Vec<bool>,
    data: Vec<RegType>,
}

impl FrameSlab {
    fn new(n: usize, regs: usize) -> FrameSlab {
        FrameSlab {
            regs,
            present: vec![false; n],
            data: vec![RegType::Uninit; n * regs],
        }
    }

    fn set(&mut self, i: usize, frame: &[RegType]) {
        self.present[i] = true;
        self.data[i * self.regs..(i + 1) * self.regs].copy_from_slice(frame);
    }

    /// The state of slot `i`, if it was reached.
    pub(crate) fn get(&self, i: usize) -> Option<&[RegType]> {
        if *self.present.get(i)? {
            Some(&self.data[i * self.regs..(i + 1) * self.regs])
        } else {
            None
        }
    }

    /// The slab itself, `regs` values per slot; slots never reached hold
    /// `Uninit`.
    pub(crate) fn into_data(self) -> Vec<RegType> {
        self.data
    }

    /// Joins `frame` into slot `i` in place; returns whether the state
    /// changed (i.e. the block needs requeueing).
    fn merge(&mut self, i: usize, frame: &[RegType], hier: &ClassHierarchy) -> bool {
        if self.present[i] {
            join_frames(
                &mut self.data[i * self.regs..(i + 1) * self.regs],
                frame,
                hier,
            )
        } else {
            self.set(i, frame);
            true
        }
    }
}

/// Typed verification context: the hierarchy is always present (possibly
/// empty); the DEX pools and declared return type only when verifying with
/// full method context.
pub(crate) struct TypeCtx<'a> {
    pub dex: Option<&'a DexFile>,
    pub hier: &'a ClassHierarchy,
    /// Declared return type, when it is a reference type.
    pub ret: Option<TypeId>,
    /// Reference types of the declared parameters, aligned with the
    /// `ParamKind` slice (`None` for non-reference or unknown parameters).
    pub param_refs: &'a [Option<TypeId>],
}

impl TypeCtx<'_> {
    /// A context with no DEX: refs are untyped Objects, typed checks off.
    pub fn bare<'a>(hier: &'a ClassHierarchy) -> TypeCtx<'a> {
        TypeCtx {
            dex: None,
            hier,
            ret: None,
            param_refs: &[],
        }
    }

    /// Renders a register type for diagnostics: reference types by their
    /// descriptor (`Ljava/lang/String;`), everything else by its lattice
    /// name.
    fn describe(&self, ty: RegType) -> String {
        ty.describe(self.hier)
    }

    /// The interned type for a type-pool index, when DEX context exists.
    fn pool_type(&self, idx: u32) -> Option<TypeId> {
        let desc = self.dex?.type_descriptor(idx).ok()?;
        self.hier.lookup(desc)
    }

    /// The interned type of a field's declared type.
    fn field_type(&self, idx: u32) -> Option<TypeId> {
        let field = self.dex?.field_id(idx).ok()?;
        let desc = self.dex?.type_descriptor(field.type_).ok()?;
        if desc.starts_with('L') || desc.starts_with('[') {
            self.hier.lookup(desc)
        } else {
            None
        }
    }
}

struct Ctx {
    regs: usize,
    /// `true` while the fixpoint iterates: findings are suppressed so that
    /// every diagnostic comes from the replay over converged frames.
    mute: bool,
    seen: HashSet<(Rule, u32)>,
    out: Vec<Diagnostic>,
}

impl Ctx {
    fn report(&mut self, rule: Rule, pc: u32, message: String) {
        if self.mute {
            return;
        }
        if self.seen.insert((rule, pc)) {
            self.out.push(Diagnostic::new(rule, pc, message));
        }
    }
}

/// Runs the dataflow verification, appends findings to `out`, and returns
/// the fixpoint per-instruction pre-states.
pub(crate) fn run(
    cfg: &Cfg,
    code: &CodeItem,
    params: &[ParamKind],
    tcx: &TypeCtx<'_>,
    out: &mut Vec<Diagnostic>,
    strategy: Strategy,
) -> FrameSlab {
    let regs = code.registers_size as usize;
    let ins = code.ins_size as usize;
    let mut ctx = Ctx {
        regs,
        mute: false,
        seen: HashSet::new(),
        out: Vec::new(),
    };
    let mut frames = FrameSlab::new(cfg.insns().len(), regs);

    let entry = entry_frame(regs, ins, params, tcx, &mut ctx);
    if cfg.blocks().is_empty() {
        ctx.report(
            Rule::V0005,
            0,
            "method has no instructions: execution falls off the end".to_owned(),
        );
        ctx.out.sort_by_key(|d| (d.dex_pc, d.rule));
        out.append(&mut ctx.out);
        return frames;
    }

    ctx.mute = true;
    let in_states = match strategy {
        Strategy::Fast => fixpoint_fast(cfg, &entry, tcx, &mut ctx),
        Strategy::Reference => fixpoint_reference(cfg, code, &entry, tcx, &mut ctx),
    };
    ctx.mute = false;

    // Replay each reached block once from its converged entry frame: this
    // snapshots per-instruction pre-states and emits every diagnostic
    // against the unique fixpoint (never an intermediate state).
    let mut scratch: Vec<RegType> = Vec::with_capacity(regs);
    let mut eff = Effects::default();
    for (bid, block) in cfg.blocks().iter().enumerate() {
        let Some(state) = in_states.get(bid) else {
            continue;
        };
        scratch.clear();
        scratch.extend_from_slice(state);
        for i in block.insns.clone() {
            frames.set(i, &scratch);
            transfer(
                &cfg.insns()[i],
                cfg.pcs()[i],
                cfg.prev_insn(i),
                &mut scratch,
                &mut ctx,
                tcx,
                &mut eff,
            );
        }
    }

    ctx.out.sort_by_key(|d| (d.dex_pc, d.rule));
    out.append(&mut ctx.out);
    frames
}

/// The fast engine: FIFO worklist over dense block states, one reusable
/// scratch frame, precomputed handler targets.
fn fixpoint_fast(cfg: &Cfg, entry: &[RegType], tcx: &TypeCtx<'_>, ctx: &mut Ctx) -> FrameSlab {
    let nblocks = cfg.blocks().len();
    let mut states = FrameSlab::new(nblocks, entry.len());
    states.set(0, entry);

    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    let mut queued = vec![false; nblocks];
    queued[0] = true;

    let mut scratch: Vec<RegType> = Vec::with_capacity(entry.len());
    let mut eff = Effects::default();
    while let Some(bid) = worklist.pop_front() {
        queued[bid] = false;
        scratch.clear();
        match states.get(bid) {
            Some(state) => scratch.extend_from_slice(state),
            None => continue,
        }
        let block = &cfg.blocks()[bid];
        for i in block.insns.clone() {
            // A throwing instruction in a try range transfers the
            // *pre*-state of that instruction to its handlers (the ART
            // rule); the CFG already folded the range lookup away.
            for &hb in cfg.throw_targets(i) {
                let hb = hb as usize;
                if states.merge(hb, &scratch, tcx.hier) && !queued[hb] {
                    queued[hb] = true;
                    worklist.push_back(hb);
                }
            }
            transfer(
                &cfg.insns()[i],
                cfg.pcs()[i],
                cfg.prev_insn(i),
                &mut scratch,
                ctx,
                tcx,
                &mut eff,
            );
        }
        for edge in cfg.succs(block) {
            if edge.kind == EdgeKind::Exception {
                continue;
            }
            let t = edge.target;
            if states.merge(t, &scratch, tcx.hier) && !queued[t] {
                queued[t] = true;
                worklist.push_back(t);
            }
        }
    }
    states
}

/// The pre-optimization engine, kept verbatim as the measured baseline and
/// differential oracle: FIFO worklist, per-visit entry-frame clone,
/// per-instruction scan over every try range, per-instruction effects
/// allocation, per-merge `to_vec`.
fn fixpoint_reference(
    cfg: &Cfg,
    code: &CodeItem,
    entry: &[RegType],
    tcx: &TypeCtx<'_>,
    ctx: &mut Ctx,
) -> FrameSlab {
    let nblocks = cfg.blocks().len();
    let mut in_states: Vec<Option<Vec<RegType>>> = vec![None; nblocks];
    in_states[0] = Some(entry.to_vec());
    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    let mut queued = vec![false; nblocks];
    queued[0] = true;

    // try range -> handler block ids, resolved once.
    let handler_edges = handler_ranges(cfg, code);

    while let Some(bid) = worklist.pop_front() {
        queued[bid] = false;
        let Some(mut frame) = in_states[bid].clone() else {
            continue;
        };
        let block = &cfg.blocks()[bid];
        for i in block.insns.clone() {
            let (pc, insn) = (cfg.pcs()[i], &cfg.insns()[i]);
            for (range, handler_blocks) in &handler_edges {
                if range.covers(pc) && insn.op.can_throw() {
                    for &hb in handler_blocks {
                        merge_into(
                            &mut in_states,
                            hb,
                            &frame,
                            tcx.hier,
                            &mut worklist,
                            &mut queued,
                        );
                    }
                }
            }
            let mut eff = Effects::default();
            transfer(insn, pc, cfg.prev_insn(i), &mut frame, ctx, tcx, &mut eff);
        }
        for edge in cfg.succs(block) {
            if edge.kind == EdgeKind::Exception {
                continue;
            }
            merge_into(
                &mut in_states,
                edge.target,
                &frame,
                tcx.hier,
                &mut worklist,
                &mut queued,
            );
        }
    }

    let mut states = FrameSlab::new(nblocks, entry.len());
    for (b, s) in in_states.iter().enumerate() {
        if let Some(s) = s {
            states.set(b, s);
        }
    }
    states
}

fn merge_into(
    in_states: &mut [Option<Vec<RegType>>],
    target: usize,
    frame: &[RegType],
    hier: &ClassHierarchy,
    worklist: &mut VecDeque<usize>,
    queued: &mut [bool],
) {
    let changed = match &mut in_states[target] {
        Some(existing) => join_frames(existing, frame, hier),
        slot @ None => {
            *slot = Some(frame.to_vec());
            true
        }
    };
    if changed && !queued[target] {
        queued[target] = true;
        worklist.push_back(target);
    }
}

fn entry_frame(
    regs: usize,
    ins: usize,
    params: &[ParamKind],
    tcx: &TypeCtx<'_>,
    ctx: &mut Ctx,
) -> Vec<RegType> {
    let mut frame = vec![RegType::Uninit; regs];
    if ins > regs {
        ctx.report(
            Rule::V0006,
            0,
            format!("ins_size {ins} exceeds registers_size {regs}"),
        );
        return frame;
    }
    let mut at = regs - ins;
    for (k, kind) in params.iter().enumerate() {
        match kind {
            ParamKind::Wide => {
                if at + 1 < regs {
                    frame[at] = RegType::WideLo;
                    frame[at + 1] = RegType::WideHi;
                }
                at += 2;
            }
            other => {
                if at < regs {
                    frame[at] = match other {
                        ParamKind::Int => RegType::Int,
                        ParamKind::Float => RegType::Float,
                        ParamKind::Object => RegType::Ref(
                            tcx.param_refs
                                .get(k)
                                .copied()
                                .flatten()
                                .unwrap_or(TypeId::OBJECT),
                        ),
                        ParamKind::Opaque => RegType::Any,
                        ParamKind::Wide => unreachable!(),
                    };
                }
                at += 1;
            }
        }
    }
    if at != regs {
        ctx.report(
            Rule::V0006,
            0,
            format!(
                "parameter registers occupy {} slots but ins_size is {ins}",
                at - (regs - ins)
            ),
        );
        // Be permissive about the remainder so dataflow can continue.
        for slot in frame.iter_mut().skip(regs - ins) {
            if *slot == RegType::Uninit {
                *slot = RegType::Any;
            }
        }
    }
    frame
}

/// try ranges with their handler block ids.
fn handler_ranges<'c>(cfg: &Cfg, code: &'c CodeItem) -> Vec<(&'c TryItem, Vec<usize>)> {
    let mut out = Vec::new();
    for t in &code.tries {
        let Some(h) = code.handlers.get(t.handler_index) else {
            continue;
        };
        let mut blocks = Vec::new();
        for addr in h.catches.iter().map(|c| c.addr).chain(h.catch_all_addr) {
            if let Some(i) = cfg.index_of_pc(addr) {
                blocks.push(cfg.block_of(i));
            }
        }
        out.push((t, blocks));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn transfer(
    insn: &Insn,
    pc: u32,
    prev: Option<&Insn>,
    frame: &mut [RegType],
    ctx: &mut Ctx,
    tcx: &TypeCtx<'_>,
    eff: &mut Effects,
) {
    // Structural `move-result*` placement check (V0003): must directly
    // follow an invoke (or `filled-new-array` for the object form) in code
    // order.
    if matches!(
        insn.op,
        Opcode::MoveResult | Opcode::MoveResultWide | Opcode::MoveResultObject
    ) {
        let ok = prev.is_some_and(|p| {
            p.op.is_invoke() || matches!(p.op, Opcode::FilledNewArray | Opcode::FilledNewArrayRange)
        });
        if !ok {
            ctx.report(
                Rule::V0003,
                pc,
                format!(
                    "{} is not immediately preceded by an invoke or filled-new-array",
                    insn.op.mnemonic()
                ),
            );
        }
    }

    effects_into(insn, eff);
    for &(reg, need) in &eff.reads {
        read(reg, need, insn, pc, frame, ctx, tcx);
    }
    if tcx.dex.is_some() {
        typed_checks(insn, pc, frame, ctx, tcx);
    }
    if let Some((reg, w)) = eff.write {
        match w {
            Write::One(ty) => write_one(reg, ty, pc, frame, ctx),
            Write::Ref => {
                let ty = refined_ref(insn, prev, frame, tcx).unwrap_or(TypeId::OBJECT);
                write_one(reg, RegType::Ref(ty), pc, frame, ctx);
            }
            Write::Copy(src) => {
                let ty = frame
                    .get(src as usize)
                    .copied()
                    .filter(|t| t.is_defined() && !matches!(t, RegType::WideLo | RegType::WideHi))
                    .unwrap_or(RegType::Any);
                write_one(reg, ty, pc, frame, ctx);
            }
            Write::Wide => write_wide(reg, pc, frame, ctx),
        }
    }
}

/// The static type of the reference a [`Write::Ref`] instruction produces,
/// when DEX context makes it resolvable.
fn refined_ref(
    insn: &Insn,
    prev: Option<&Insn>,
    frame: &[RegType],
    tcx: &TypeCtx<'_>,
) -> Option<TypeId> {
    match insn.op {
        Opcode::ConstString | Opcode::ConstStringJumbo => tcx.hier.lookup("Ljava/lang/String;"),
        Opcode::ConstClass => tcx.hier.lookup("Ljava/lang/Class;"),
        Opcode::CheckCast | Opcode::NewInstance | Opcode::NewArray => tcx.pool_type(insn.idx),
        Opcode::MoveException => tcx.hier.lookup("Ljava/lang/Throwable;"),
        Opcode::IgetObject | Opcode::SgetObject => tcx.field_type(insn.idx),
        Opcode::AgetObject => {
            let arr = frame.get(insn.b as usize)?.ref_type()?;
            tcx.hier.element(arr)
        }
        Opcode::MoveResultObject => {
            let p = prev?;
            if p.op.is_invoke() {
                let dex = tcx.dex?;
                let method = dex.method_id(p.idx).ok()?;
                let proto = dex.proto(method.proto).ok()?;
                let desc = dex.type_descriptor(proto.return_type).ok()?;
                tcx.hier.lookup(desc)
            } else {
                // filled-new-array carries the array type directly.
                tcx.pool_type(p.idx)
            }
        }
        _ => None,
    }
}

/// Declared-type checks against the pre-state frame: invoke signatures
/// (V0009), field writes (V0010), return types (V0011), provably-failing
/// casts (L0004), and provably-incompatible array stores (L0005).
fn typed_checks(insn: &Insn, pc: u32, frame: &[RegType], ctx: &mut Ctx, tcx: &TypeCtx<'_>) {
    let reg_ref = |reg: u32| frame.get(reg as usize).and_then(|t| t.ref_type());
    let mn = insn.op.mnemonic();
    match insn.op {
        op if op.is_invoke() => check_invoke(insn, pc, frame, ctx, tcx),
        Opcode::CheckCast => {
            if let (Some(src), Some(dst)) = (reg_ref(insn.a), tcx.pool_type(insn.idx)) {
                if tcx.hier.provably_disjoint(src, dst) {
                    ctx.report(
                        Rule::L0004,
                        pc,
                        format!(
                            "check-cast of v{} from {} to {} can never succeed",
                            insn.a,
                            tcx.hier.name(src),
                            tcx.hier.name(dst)
                        ),
                    );
                }
            }
        }
        Opcode::IputObject | Opcode::SputObject => {
            if let (Some(src), Some(field)) = (reg_ref(insn.a), tcx.field_type(insn.idx)) {
                if tcx.hier.provably_disjoint(src, field) {
                    ctx.report(
                        Rule::V0010,
                        pc,
                        format!(
                            "{mn} stores {} into a field of type {}",
                            tcx.hier.name(src),
                            tcx.hier.name(field)
                        ),
                    );
                }
            }
        }
        Opcode::ReturnObject => {
            if let (Some(src), Some(ret)) = (reg_ref(insn.a), tcx.ret) {
                if tcx.hier.provably_disjoint(src, ret) {
                    ctx.report(
                        Rule::V0011,
                        pc,
                        format!(
                            "return-object returns {} from a method declared to return {}",
                            tcx.hier.name(src),
                            tcx.hier.name(ret)
                        ),
                    );
                }
            }
        }
        Opcode::AputObject => {
            let element = reg_ref(insn.b).and_then(|arr| tcx.hier.element(arr));
            if let (Some(src), Some(el)) = (reg_ref(insn.a), element) {
                if tcx.hier.provably_disjoint(src, el) {
                    ctx.report(
                        Rule::L0005,
                        pc,
                        format!(
                            "aput-object stores {} into an array of {}",
                            tcx.hier.name(src),
                            tcx.hier.name(el)
                        ),
                    );
                }
            }
        }
        _ => {}
    }
}

/// Checks an invoke's argument registers against the declared signature:
/// the receiver against the declaring class, each reference parameter
/// against its declared descriptor. Skipped entirely when the register
/// list does not line up with the signature width (other rules cover that).
fn check_invoke(insn: &Insn, pc: u32, frame: &[RegType], ctx: &mut Ctx, tcx: &TypeCtx<'_>) {
    let Some(dex) = tcx.dex else { return };
    let Ok(method) = dex.method_id(insn.idx) else {
        return;
    };
    let Ok(proto) = dex.proto(method.proto) else {
        return;
    };
    let is_static = matches!(insn.op, Opcode::InvokeStatic | Opcode::InvokeStaticRange);
    let mut expected: Vec<(&str, u16)> = Vec::with_capacity(proto.parameters.len() + 1);
    if !is_static {
        let Ok(recv) = dex.type_descriptor(method.class) else {
            return;
        };
        expected.push((recv, 1));
    }
    for &p in &proto.parameters {
        let Ok(desc) = dex.type_descriptor(p) else {
            return;
        };
        let width = if matches!(desc.as_bytes().first(), Some(b'J') | Some(b'D')) {
            2
        } else {
            1
        };
        expected.push((desc, width));
    }
    if expected.iter().map(|&(_, w)| w as usize).sum::<usize>() != insn.regs.len() {
        return;
    }
    let mut at = 0usize;
    for (desc, width) in expected {
        let reg = insn.regs[at];
        at += width as usize;
        if !(desc.starts_with('L') || desc.starts_with('[')) {
            continue;
        }
        let (Some(src), Some(dst)) = (
            frame.get(reg as usize).and_then(|t| t.ref_type()),
            tcx.hier.lookup(desc),
        ) else {
            continue;
        };
        if tcx.hier.provably_disjoint(src, dst) {
            ctx.report(
                Rule::V0009,
                pc,
                format!(
                    "{} passes {} in v{reg} where the signature declares {}",
                    insn.op.mnemonic(),
                    tcx.hier.name(src),
                    tcx.hier.name(dst)
                ),
            );
        }
    }
}

fn read(
    reg: u32,
    need: Need,
    insn: &Insn,
    pc: u32,
    frame: &[RegType],
    ctx: &mut Ctx,
    tcx: &TypeCtx<'_>,
) {
    let mn = insn.op.mnemonic();
    let r = reg as usize;
    let width = if need == Need::Wide { 2 } else { 1 };
    if r + width > ctx.regs {
        ctx.report(
            Rule::V0006,
            pc,
            format!("{mn} reads v{reg} but the frame has {} registers", ctx.regs),
        );
        return;
    }
    if need == Need::Wide {
        let (lo, hi) = (frame[r], frame[r + 1]);
        if lo == RegType::WideLo && hi == RegType::WideHi {
            return;
        }
        if !lo.is_defined() || !hi.is_defined() {
            ctx.report(
                Rule::V0001,
                pc,
                format!(
                    "{mn} reads undefined wide register pair (v{reg}, v{})",
                    reg + 1
                ),
            );
        } else {
            ctx.report(
                Rule::V0002,
                pc,
                format!(
                    "{mn} expects a wide pair in (v{reg}, v{}) but finds {}/{}",
                    reg + 1,
                    tcx.describe(lo),
                    tcx.describe(hi)
                ),
            );
        }
        return;
    }
    let ty = frame[r];
    match ty {
        RegType::Uninit => ctx.report(
            Rule::V0001,
            pc,
            format!("{mn} reads undefined register v{reg}"),
        ),
        RegType::Conflict => ctx.report(
            Rule::V0001,
            pc,
            format!("{mn} reads v{reg}, which holds conflicting definitions"),
        ),
        RegType::WideLo | RegType::WideHi if need != Need::Defined => ctx.report(
            Rule::V0002,
            pc,
            format!("{mn} reads v{reg}, half of a wide pair, as a single register"),
        ),
        _ => {
            let compatible = match need {
                Need::Any1 | Need::Defined => true,
                Need::Num => matches!(
                    ty,
                    RegType::Int | RegType::Float | RegType::Const | RegType::Any
                ),
                Need::IntLike => matches!(ty, RegType::Int | RegType::Const | RegType::Any),
                Need::FloatLike => matches!(ty, RegType::Float | RegType::Const | RegType::Any),
                Need::RefLike => matches!(ty, RegType::Ref(_) | RegType::Const),
                Need::Wide => unreachable!(),
            };
            if !compatible {
                ctx.report(
                    Rule::V0007,
                    pc,
                    format!(
                        "{mn} reads v{reg} as {need:?} but it holds {}",
                        tcx.describe(ty)
                    ),
                );
            }
        }
    }
}

/// Writing over half of an existing wide pair invalidates the other half.
fn invalidate_half(reg: usize, frame: &mut [RegType]) {
    match frame[reg] {
        RegType::WideLo if reg + 1 < frame.len() && frame[reg + 1] == RegType::WideHi => {
            frame[reg + 1] = RegType::Conflict;
        }
        RegType::WideHi if reg >= 1 && frame[reg - 1] == RegType::WideLo => {
            frame[reg - 1] = RegType::Conflict;
        }
        _ => {}
    }
}

fn write_one(reg: u32, ty: RegType, pc: u32, frame: &mut [RegType], ctx: &mut Ctx) {
    let r = reg as usize;
    if r >= ctx.regs {
        ctx.report(
            Rule::V0006,
            pc,
            format!("write to v{reg} but the frame has {} registers", ctx.regs),
        );
        return;
    }
    invalidate_half(r, frame);
    frame[r] = ty;
}

fn write_wide(reg: u32, pc: u32, frame: &mut [RegType], ctx: &mut Ctx) {
    let r = reg as usize;
    if r + 2 > ctx.regs {
        ctx.report(
            Rule::V0006,
            pc,
            format!(
                "wide write to (v{reg}, v{}) but the frame has {} registers",
                reg + 1,
                ctx.regs
            ),
        );
        return;
    }
    invalidate_half(r, frame);
    invalidate_half(r + 1, frame);
    frame[r] = RegType::WideLo;
    frame[r + 1] = RegType::WideHi;
}
