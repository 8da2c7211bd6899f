//! The bytecode interpreter.
//!
//! A faithful (if simplified) analogue of ART's `ExecuteSwitchImpl`: a
//! register frame of 32-bit slots, a `dex_pc` into the method's 16-bit code
//! unit array, and a fetch→observe→execute loop. Observers see every
//! instruction *before* it executes, with its raw units — the hook DexLego's
//! Algorithm 1 builds its collection trees on.
//!
//! The observer picks the fetch path, once per frame:
//!
//! * **Per step** — frames whose observer wants instruction events (the
//!   collector, trace recorders) decode each instruction from the live
//!   method body as they reach it and execute it through the classic full
//!   match ([`exec_generic`]). Such observers see every instruction anyway,
//!   and most of what they see runs once, so there is nothing to amortise a
//!   predecode over. A rewritten body is simply fetched anew: per-step
//!   execution needs no code-epoch check. This path is also the
//!   conformance oracle the quickened tier is tested against.
//! * **Quickened** — frames under a passive observer run segments over the
//!   runtime's predecoded code cache (the analogue of ART's
//!   mterp/predecoded representation), with the three stacked hot-loop
//!   optimisations ART's quickening pass performs:
//!   * *Table dispatch* — each step indexes a 256-entry function-pointer
//!     table by the instruction's dispatch byte. Cold opcodes share a
//!     generic handler that runs the classic match.
//!   * *Quickening* — field accesses, direct/static invokes, and string
//!     constants rewrite their dispatch byte in the cached
//!     [`quick::QuickCells`] overlay to a pre-resolved `*-quick` form after
//!     first execution, skipping constant-pool resolution on every later
//!     hit.
//!   * *Superinstructions* — at predecode time, hot adjacent pairs
//!     (alu+alu, alu+goto, if+alu, cmp+if, const+move, iget+iget) are
//!     fused into one dispatch. The second half keeps its own cell, so
//!     branches into the middle of a pair execute it standalone.
//!
//!   All three are invalidated together by the code epoch: a method
//!   mutation discards the cache entry *and* its quickened cells
//!   (de-quickening), and the frame re-validates the epoch after every
//!   instruction that calls out of it, so self-modifying packers never
//!   observe stale resolutions. Streams that resist linear predecoding
//!   (garbage past unreachable code) and jumps to non-boundary pcs drop
//!   the frame to the per-step loop with identical semantics.
//!
//! Taint is propagated through explicit data flow only (moves, arithmetic,
//! field/array traffic, call arguments and returns) — deliberately *not*
//! through branch conditions, reproducing the implicit-flow blind spot of
//! runtime taint trackers that Table IV of the paper demonstrates.

use std::sync::Arc;

use dexlego_dalvik::quick::{self, QuickCells};
use dexlego_dalvik::{decode_insn, Decoded, Insn, Opcode, PredecodedMethod};

use crate::class::{FieldId, MethodId, MethodImpl};
use crate::heap::{ObjKind, ObjRef};
use crate::natives::native_key;
use crate::observer::{InsnEvent, RuntimeObserver};
use crate::runtime::{Result, Runtime, RuntimeError};
use crate::value::{RetVal, Slot, WideValue};

/// Outcome of running one frame: a return value or a thrown exception that
/// escaped the frame.
enum Outcome {
    Ret(RetVal),
    Threw(ObjRef),
}

/// Executes `method` with `args` (argument slots, wide values pre-split).
///
/// # Errors
///
/// Returns [`RuntimeError::UncaughtException`] if a Java exception escapes
/// the outermost frame (unless the observer tolerates exceptions), or a
/// hard error for linkage/decoding/budget failures.
pub fn execute(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    method: MethodId,
    args: &[Slot],
) -> Result<RetVal> {
    if rt.exec_stack.is_empty() {
        rt.budget_start = rt.stats.insns;
    }
    match execute_inner(rt, obs, method, args, 0)? {
        Outcome::Ret(v) => Ok(v),
        Outcome::Threw(exc) => {
            let (type_desc, message) = describe_throwable(rt, exc);
            Err(RuntimeError::UncaughtException { type_desc, message })
        }
    }
}

fn describe_throwable(rt: &Runtime, exc: ObjRef) -> (String, String) {
    match rt.heap.get(exc).map(|o| &o.kind) {
        Some(ObjKind::Throwable { type_desc, message }) => (type_desc.clone(), message.clone()),
        Some(ObjKind::Instance { class, .. }) => {
            (rt.class(*class).descriptor.clone(), String::new())
        }
        _ => ("Ljava/lang/Throwable;".to_owned(), String::new()),
    }
}

/// The runtime class of an arbitrary heap object (strings and reflection
/// objects map to their framework classes).
pub fn runtime_class_of_obj(rt: &mut Runtime, obj: ObjRef) -> Option<crate::class::ClassId> {
    match rt.heap.get(obj).map(|o| o.kind.clone()) {
        Some(ObjKind::Instance { class, .. }) => Some(class),
        Some(ObjKind::Str(_)) => Some(rt.ensure_class_stub("Ljava/lang/String;")),
        Some(ObjKind::Class(_)) => Some(rt.ensure_class_stub("Ljava/lang/Class;")),
        Some(ObjKind::Method(_)) => Some(rt.ensure_class_stub("Ljava/lang/reflect/Method;")),
        Some(ObjKind::Array { .. }) => Some(rt.ensure_class_stub("Ljava/lang/Object;")),
        Some(ObjKind::Throwable { type_desc, .. }) => Some(rt.ensure_class_stub(&type_desc)),
        None => None,
    }
}

fn execute_inner(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    method: MethodId,
    args: &[Slot],
    depth: usize,
) -> Result<Outcome> {
    if depth >= rt.env.max_depth {
        return Err(RuntimeError::StackOverflow);
    }
    rt.stats.frames += 1;
    obs.on_method_enter(rt, method);

    let outcome = match &rt.method(method).body {
        MethodImpl::Native => {
            rt.stats.native_calls += 1;
            let m = rt.method(method);
            let key = native_key(&rt.class(m.class).descriptor, &m.name, &m.descriptor);
            let f = rt
                .natives
                .lookup(&key)
                .ok_or(RuntimeError::NativeMissing(key))?;
            match f(rt, obs, args) {
                Ok(v) => Ok(Outcome::Ret(v)),
                Err(RuntimeError::UncaughtException { type_desc, message }) => {
                    // Natives throw by returning UncaughtException; convert
                    // to a heap throwable so callers can catch it.
                    let exc = rt.heap.alloc(ObjKind::Throwable { type_desc, message }, 0);
                    Ok(Outcome::Threw(exc))
                }
                Err(e) => Err(e),
            }
        }
        MethodImpl::Abstract => Err(RuntimeError::MethodNotFound(format!(
            "abstract method invoked: {}",
            rt.method_name(method)
        ))),
        MethodImpl::Bytecode { registers, ins, .. } => {
            let registers = *registers as usize;
            let ins = *ins as usize;
            if args.len() != ins {
                return Err(RuntimeError::Internal(format!(
                    "{}: expected {} argument slots, got {}",
                    rt.method_name(method),
                    ins,
                    args.len()
                )));
            }
            rt.exec_stack.push((method, 0));
            let result = run_frame(rt, obs, method, registers, ins, args, depth);
            rt.exec_stack.pop();
            result
        }
    };

    obs.on_method_exit(rt, method);
    outcome
}

/// Longest Dalvik instruction, in 16-bit code units (`const-wide`, 51l).
const MAX_INSN_UNITS: usize = 5;

/// The fetch source a frame executes from.
///
/// `Pre` serves a quickened frame out of the runtime's predecoded code
/// cache, at the code epoch it was built for; its [`QuickCells`] overlay
/// drives table dispatch. `Step` decodes from the live method body on
/// every step — the path of event-wanting frames, unpredecodable streams
/// and jumps to non-boundary pcs.
enum FrameCode {
    Pre {
        pre: Arc<PredecodedMethod>,
        qc: Arc<QuickCells>,
        epoch: u64,
    },
    Step,
}

/// Predecodes `method` for a quickened frame, or `Step` when its body
/// cannot be linearly decoded.
fn acquire_code(rt: &mut Runtime, method: MethodId) -> FrameCode {
    let epoch = rt.code_epoch(method);
    match rt.predecoded(method) {
        Some((pre, qc)) => FrameCode::Pre { pre, qc, epoch },
        None => FrameCode::Step,
    }
}

/// Decodes the instruction at `pc` from the live method body, copying its
/// raw units into a caller-provided fixed buffer — no heap allocation.
fn fetch_step(
    rt: &Runtime,
    method: MethodId,
    pc: u32,
    unit_buf: &mut [u16; MAX_INSN_UNITS],
) -> Result<(Insn, usize)> {
    let MethodImpl::Bytecode { insns, .. } = &rt.method(method).body else {
        return Err(RuntimeError::Internal(
            "fetch on non-bytecode method".into(),
        ));
    };
    if pc as usize >= insns.len() {
        return Err(RuntimeError::Internal(format!(
            "{}: dex_pc {} past end of {}-unit method",
            rt.method_name(method),
            pc,
            insns.len()
        )));
    }
    match decode_insn(insns, pc as usize)? {
        Decoded::Insn(insn) => {
            let len = insn.units();
            unit_buf[..len].copy_from_slice(&insns[pc as usize..pc as usize + len]);
            Ok((insn, len))
        }
        _ => Err(RuntimeError::Internal(format!(
            "{}: execution reached payload at dex_pc {}",
            rt.method_name(method),
            pc
        ))),
    }
}

/// Reads the payload referenced by a 31t instruction from the live body.
fn fetch_payload(rt: &Runtime, method: MethodId, payload_pc: u32) -> Result<Decoded> {
    let MethodImpl::Bytecode { insns, .. } = &rt.method(method).body else {
        return Err(RuntimeError::Internal(
            "fetch on non-bytecode method".into(),
        ));
    };
    Ok(decode_insn(insns, payload_pc as usize)?)
}

struct Frame<'r> {
    regs: &'r mut [Slot],
    last_result: RetVal,
    caught: Option<ObjRef>,
}

impl Frame<'_> {
    fn reg(&self, i: u32) -> Slot {
        self.regs[i as usize]
    }
    fn set(&mut self, i: u32, v: Slot) {
        self.regs[i as usize] = v;
    }
    fn wide(&self, i: u32) -> WideValue {
        WideValue::join(self.regs[i as usize], self.regs[i as usize + 1])
    }
    fn set_wide(&mut self, i: u32, v: WideValue) {
        let (lo, hi) = v.split();
        self.regs[i as usize] = lo;
        self.regs[i as usize + 1] = hi;
    }
}

enum Thrown {
    Java(&'static str, String),
}

/// Serves the payload at `ppc` from the frame's predecoded tables when
/// available, decoding it from the live method body otherwise. `storage`
/// anchors the decoded fallback so both paths return a borrow.
fn payload_ref<'a>(
    code: &'a FrameCode,
    storage: &'a mut Option<Decoded>,
    rt: &Runtime,
    method: MethodId,
    ppc: u32,
) -> Result<&'a Decoded> {
    if let FrameCode::Pre { pre, .. } = code {
        if let Some(p) = pre.payload_at(ppc) {
            return Ok(p);
        }
    }
    Ok(storage.insert(fetch_payload(rt, method, ppc)?))
}

/// Invoke argument counts at or below this use a stack buffer; longer
/// range invokes (rare) fall back to a heap vector.
const INLINE_ARGS: usize = 8;

/// Marshalled invoke arguments: an inline stack array for the common case,
/// a spill vector only for long range invokes. Keeps the steady-state call
/// path allocation-free.
struct ArgBuf {
    inline: [Slot; INLINE_ARGS],
    len: usize,
    spill: Vec<Slot>,
}

impl ArgBuf {
    fn slots(&self) -> &[Slot] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Copies the invoke's argument registers out of the frame.
fn marshal_args(frame: &Frame, insn: &Insn) -> ArgBuf {
    let mut buf = ArgBuf {
        inline: [Slot::default(); INLINE_ARGS],
        len: 0,
        spill: Vec::new(),
    };
    if insn.regs.len() <= INLINE_ARGS {
        for (i, &r) in insn.regs.iter().enumerate() {
            buf.inline[i] = frame.reg(r);
        }
        buf.len = insn.regs.len();
    } else {
        buf.spill = insn.regs.iter().map(|&r| frame.reg(r)).collect();
    }
    buf
}

/// What an executed instruction asks the frame loop to do next.
enum Flow {
    /// Fall through to the instruction after the one(s) just executed.
    Next,
    /// Transfer control to an absolute dex pc.
    Jump(u32),
    /// Return from the frame.
    Ret(RetVal),
    /// Raise a freshly described Java exception at the faulting pc.
    Throw(Thrown),
    /// Raise an existing throwable object at the faulting pc.
    ThrowObj(ObjRef),
}

/// Per-step execution context handed to dispatch handlers.
///
/// `pc`/`next_pc` are *live*: a superinstruction handler advances them to
/// its second half before executing it, so exception delivery and
/// forced-execution resume see the precise faulting instruction — identical
/// to per-step semantics.
struct Ctx<'a, 'r> {
    rt: &'a mut Runtime,
    obs: &'a mut dyn RuntimeObserver,
    method: MethodId,
    frame: &'a mut Frame<'r>,
    code: &'a FrameCode,
    depth: usize,
    pc: u32,
    next_pc: u32,
    /// Set by handlers that transfer control out of the frame (invokes,
    /// the generic fallback): the lean segment loop ends the segment so
    /// the code epoch is re-validated before the next fetch — nested
    /// execution is the only way this frame's body can be mutated.
    called_out: bool,
    /// Hoisted [`RuntimeObserver::wants_branch_hooks`]: when `false`,
    /// conditional branches skip both observer calls.
    branch_hooks: bool,
    /// Hoisted budget ceiling (`budget_start + insn_budget`, saturating):
    /// constant while this context lives, since only call-outs can start
    /// nested budgeted execution and those rebuild the context.
    budget_limit: u64,
}

impl Ctx<'_, '_> {
    /// Marks the current instruction as a call-out: publishes the precise
    /// pc on the exec stack for natives that read their call site, and
    /// requests a lean-segment restart (see [`Self::called_out`]).
    fn mark_call_out(&mut self) {
        if let Some(top) = self.rt.exec_stack.last_mut() {
            top.1 = self.pc;
        }
        self.called_out = true;
    }

    /// The pre-resolved data slot of cell `qidx`, or [`quick::NO_DATA`]
    /// when the frame has no quickening overlay.
    fn cell_data(&self, qidx: u32) -> u32 {
        match self.code {
            FrameCode::Pre { qc, .. } => qc.data(qidx),
            FrameCode::Step => quick::NO_DATA,
        }
    }

    /// Rewrites cell `qidx` to dispatch byte `byte` with resolved `data`,
    /// counting a successful first-time rewrite in the runtime stats.
    fn quicken(&mut self, qidx: u32, byte: u8, data: u32) {
        if let FrameCode::Pre { qc, .. } = self.code {
            if qc.quicken(qidx, byte, data) {
                self.rt.stats.quickens += 1;
            }
        }
    }
}

/// One dispatch-table entry: executes an instruction under its dispatch
/// byte. `qidx` is the instruction's dense cell index in the frame's
/// [`QuickCells`] overlay.
type Handler = fn(&mut Ctx<'_, '_>, &Insn, u32) -> Result<Flow>;

/// The 256-entry dispatch table, indexed by dispatch byte (a Dalvik opcode
/// byte or an internal [`quick`] byte). Cold opcodes share [`h_generic`].
static TABLE: [Handler; 256] = dispatch_table();

const fn dispatch_table() -> [Handler; 256] {
    let mut t = [h_generic as Handler; 256];
    t[0x00] = h_nop as Handler;
    let mut b = 0x01; // move, move/from16, move/16
    while b <= 0x03 {
        t[b] = h_move as Handler;
        b += 1;
    }
    let mut b = 0x04; // move-wide family
    while b <= 0x06 {
        t[b] = h_move_wide as Handler;
        b += 1;
    }
    let mut b = 0x07; // move-object family
    while b <= 0x09 {
        t[b] = h_move as Handler;
        b += 1;
    }
    t[0x0a] = h_move_result as Handler;
    t[0x0b] = h_move_result_wide as Handler;
    t[0x0c] = h_move_result as Handler; // move-result-object
    t[0x0d] = h_move_exception as Handler;
    t[0x0e] = h_return_void as Handler;
    t[0x0f] = h_return as Handler;
    t[0x10] = h_return_wide as Handler;
    t[0x11] = h_return as Handler; // return-object
    let mut b = 0x12; // const/4, const/16, const, const/high16
    while b <= 0x15 {
        t[b] = h_const as Handler;
        b += 1;
    }
    let mut b = 0x16; // const-wide family
    while b <= 0x19 {
        t[b] = h_const_wide as Handler;
        b += 1;
    }
    t[0x1a] = h_const_string as Handler;
    t[0x1b] = h_const_string as Handler; // const-string/jumbo
    let mut b = 0x28; // goto, goto/16, goto/32
    while b <= 0x2a {
        t[b] = h_goto as Handler;
        b += 1;
    }
    let mut b = 0x2d; // cmpl-float .. cmp-long
    while b <= 0x31 {
        t[b] = h_cmp as Handler;
        b += 1;
    }
    let mut b = 0x32; // if-eq .. if-lez (both reg-reg and -z forms)
    while b <= 0x3d {
        t[b] = h_if as Handler;
        b += 1;
    }
    let mut b = 0x52; // iget .. iget-short
    while b <= 0x58 {
        t[b] = h_iget as Handler;
        b += 1;
    }
    let mut b = 0x59; // iput .. iput-short
    while b <= 0x5f {
        t[b] = h_iput as Handler;
        b += 1;
    }
    let mut b = 0x6e; // invoke-virtual .. invoke-interface
    while b <= 0x72 {
        t[b] = h_invoke as Handler;
        b += 1;
    }
    let mut b = 0x74; // invoke-*/range
    while b <= 0x78 {
        t[b] = h_invoke as Handler;
        b += 1;
    }
    let mut b = 0x90; // add-int .. ushr-int
    while b <= 0x9a {
        t[b] = h_int_alu as Handler;
        b += 1;
    }
    let mut b = 0xb0; // add-int/2addr .. ushr-int/2addr
    while b <= 0xba {
        t[b] = h_int_alu as Handler;
        b += 1;
    }
    let mut b = 0xd0; // add-int/lit16 .. ushr-int/lit8
    while b <= 0xe2 {
        t[b] = h_int_alu as Handler;
        b += 1;
    }
    t[quick::IGET_QUICK as usize] = h_iget_quick as Handler;
    t[quick::IGET_WIDE_QUICK as usize] = h_iget_wide_quick as Handler;
    t[quick::IPUT_QUICK as usize] = h_iput_quick as Handler;
    t[quick::IPUT_WIDE_QUICK as usize] = h_iput_wide_quick as Handler;
    t[quick::INVOKE_STATIC_QUICK as usize] = h_invoke_static_quick as Handler;
    t[quick::INVOKE_DIRECT_QUICK as usize] = h_invoke_direct_quick as Handler;
    t[quick::CONST_STRING_QUICK as usize] = h_const_string_quick as Handler;
    t[quick::SWITCH_PRE as usize] = h_switch_pre as Handler;
    t[quick::FUSE_ALU_ALU as usize] = h_fuse_alu_alu as Handler;
    t[quick::FUSE_ALU_GOTO as usize] = h_fuse_alu_goto as Handler;
    t[quick::FUSE_IF_ALU as usize] = h_fuse_if_alu as Handler;
    t[quick::FUSE_CMP_IF as usize] = h_fuse_cmp_if as Handler;
    t[quick::FUSE_CONST_MOVE as usize] = h_fuse_const_move as Handler;
    t[quick::FUSE_IGET_IGET as usize] = h_fuse_iget_iget as Handler;
    t
}

fn run_frame(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    method: MethodId,
    registers: usize,
    ins: usize,
    args: &[Slot],
    depth: usize,
) -> Result<Outcome> {
    let mut regs = rt.acquire_regs(registers);
    regs[registers - ins..].copy_from_slice(args);
    let result = run_frame_inner(rt, obs, method, &mut regs, depth);
    rt.release_regs(regs);
    result
}

fn run_frame_inner(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    method: MethodId,
    regs: &mut [Slot],
    depth: usize,
) -> Result<Outcome> {
    let mut frame = Frame {
        regs,
        last_result: RetVal::Void,
        caught: None,
    };
    let mut pc: u32 = 0;
    // Hoisted once per frame: the observer picks the fetch path.
    let wants_events = obs.wants_insn_events();

    // Quickened path: a passive observer's frame runs in
    // `run_quick_segment`, which strips the per-step protocol overhead
    // (exec-stack pc publication, per-step decode, context rebuild). A
    // segment ends whenever an instruction called out of the frame — the
    // only way this frame's body can be mutated — and the epoch is
    // re-validated here before the next segment starts. A pc the
    // predecoded index does not know (a jump into the middle of an
    // instruction), or a body that cannot be predecoded, drops the frame
    // to the per-step loop below for good.
    if !wants_events {
        let mut code = acquire_code(rt, method);
        while let FrameCode::Pre { epoch, .. } = &code {
            if *epoch != rt.code_epoch(method) {
                code = acquire_code(rt, method);
                continue;
            }
            match run_quick_segment(rt, obs, method, &mut frame, depth, &code, pc)? {
                Seg::Done(outcome) => return Ok(outcome),
                Seg::Resume(at) => pc = at,
                Seg::Fallback(at) => {
                    pc = at;
                    break;
                }
            }
        }
    }

    // Per-step path: decode from the live body, so a rewritten body is
    // seen at the next fetch without any epoch check.
    let branch_hooks = obs.wants_branch_hooks();
    // Fixed-size scratch for the fetched units, so the steady-state loop
    // performs no per-instruction heap allocation.
    let mut unit_buf = [0u16; MAX_INSN_UNITS];
    loop {
        rt.stats.insns += 1;
        if rt.stats.insns - rt.budget_start > rt.env.insn_budget {
            return Err(RuntimeError::BudgetExhausted);
        }
        let (insn, len) = fetch_step(rt, method, pc, &mut unit_buf)?;
        if let Some(top) = rt.exec_stack.last_mut() {
            top.1 = pc;
        }
        if wants_events {
            obs.on_instruction(
                rt,
                &InsnEvent {
                    method,
                    dex_pc: pc,
                    insn: &insn,
                    units: &unit_buf[..len],
                },
            );
        }
        let next_pc = pc + len as u32;

        let budget_limit = rt.budget_start.saturating_add(rt.env.insn_budget);
        let mut ctx = Ctx {
            rt: &mut *rt,
            obs: &mut *obs,
            method,
            frame: &mut frame,
            code: &FrameCode::Step,
            depth,
            pc,
            next_pc,
            called_out: false,
            branch_hooks,
            budget_limit,
        };
        let exc = match exec_generic(&mut ctx, &insn)? {
            Flow::Next => {
                pc = next_pc;
                continue;
            }
            Flow::Jump(target) => {
                pc = target;
                continue;
            }
            Flow::Ret(v) => return Ok(Outcome::Ret(v)),
            Flow::Throw(Thrown::Java(ty, msg)) => rt.heap.alloc(
                ObjKind::Throwable {
                    type_desc: ty.to_owned(),
                    message: msg,
                },
                0,
            ),
            Flow::ThrowObj(exc) => exc,
        };

        // ---- exception delivery ----------------------------------------
        obs.on_exception(rt, method, pc);
        match find_handler(rt, method, pc, exc) {
            Some(handler_pc) => {
                frame.caught = Some(exc);
                rt.last_exception = Some(exc);
                pc = handler_pc;
            }
            None => {
                if obs.tolerate_exceptions() {
                    // Force execution: clear the exception and step over
                    // the faulting instruction (paper §IV-E).
                    rt.last_exception = None;
                    pc = next_pc;
                } else {
                    return Ok(Outcome::Threw(exc));
                }
            }
        }
    }
}

/// Why a lean segment returned to [`run_frame_inner`].
enum Seg {
    /// The frame finished (return or uncaught exception).
    Done(Outcome),
    /// An instruction called out of the frame (or delivered an exception
    /// whose handler search may have loaded classes): re-validate the code
    /// epoch, then continue at this pc.
    Resume(u32),
    /// The pc is not a predecoded instruction boundary: continue in the
    /// fully general per-step loop.
    Fallback(u32),
}

/// The lean dispatch loop for a quickened frame under a passive observer.
///
/// Compared to the per-step loop this elides, per instruction: the decode
/// (instructions come from the predecoded cache, valid for the segment
/// because pure computation cannot mutate code, and every instruction that
/// can — an invoke, the generic fallback — marks itself via
/// [`Ctx::mark_call_out`] and ends the segment), the exec-stack pc
/// publication (only natives read it, and they are only reachable through
/// those same call-outs, which publish the pc themselves), and the
/// per-step context rebuild (one [`Ctx`] lives for the whole segment).
/// Instruction counting and budget enforcement stay exact.
fn run_quick_segment(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    method: MethodId,
    frame: &mut Frame<'_>,
    depth: usize,
    code: &FrameCode,
    start_pc: u32,
) -> Result<Seg> {
    let FrameCode::Pre { pre, qc, .. } = code else {
        return Ok(Seg::Fallback(start_pc));
    };
    let obs_branch_hooks = obs.wants_branch_hooks();
    // Constant within a segment: only call-outs can start nested budgeted
    // execution, and a call-out ends the segment.
    let budget_limit = rt.budget_start.saturating_add(rt.env.insn_budget);
    let mut ctx = Ctx {
        rt,
        obs,
        method,
        frame,
        code,
        depth,
        pc: start_pc,
        next_pc: start_pc,
        called_out: false,
        branch_hooks: obs_branch_hooks,
        budget_limit,
    };
    loop {
        let Some((idx, insn, len)) = pre.fetch_at(ctx.pc) else {
            return Ok(Seg::Fallback(ctx.pc));
        };
        ctx.rt.stats.insns += 1;
        if ctx.rt.stats.insns > budget_limit {
            return Err(RuntimeError::BudgetExhausted);
        }
        ctx.next_pc = ctx.pc + len;
        // The hottest dispatch bytes are direct calls the compiler can
        // inline, so loop state survives in registers; everything else
        // goes through the opaque function-pointer table.
        let byte = qc.dispatch_byte(idx);
        let flow = match byte {
            quick::FUSE_ALU_ALU => h_fuse_alu_alu(&mut ctx, insn, idx)?,
            quick::FUSE_ALU_GOTO => h_fuse_alu_goto(&mut ctx, insn, idx)?,
            quick::FUSE_IF_ALU => h_fuse_if_alu(&mut ctx, insn, idx)?,
            quick::FUSE_CMP_IF => h_fuse_cmp_if(&mut ctx, insn, idx)?,
            quick::SWITCH_PRE => h_switch_pre(&mut ctx, insn, idx)?,
            _ => TABLE[byte as usize](&mut ctx, insn, idx)?,
        };
        let (fault_pc, resume_pc) = (ctx.pc, ctx.next_pc);
        let exc = match flow {
            Flow::Next => {
                if ctx.called_out {
                    return Ok(Seg::Resume(resume_pc));
                }
                ctx.pc = resume_pc;
                continue;
            }
            Flow::Jump(target) => {
                if ctx.called_out {
                    return Ok(Seg::Resume(target));
                }
                ctx.pc = target;
                continue;
            }
            Flow::Ret(v) => return Ok(Seg::Done(Outcome::Ret(v))),
            Flow::Throw(Thrown::Java(ty, msg)) => ctx.rt.heap.alloc(
                ObjKind::Throwable {
                    type_desc: ty.to_owned(),
                    message: msg,
                },
                0,
            ),
            Flow::ThrowObj(exc) => exc,
        };

        // ---- exception delivery (rare) ---------------------------------
        if let Some(top) = ctx.rt.exec_stack.last_mut() {
            top.1 = fault_pc;
        }
        ctx.obs.on_exception(ctx.rt, method, fault_pc);
        match find_handler(ctx.rt, method, fault_pc, exc) {
            Some(handler_pc) => {
                ctx.frame.caught = Some(exc);
                ctx.rt.last_exception = Some(exc);
                return Ok(Seg::Resume(handler_pc));
            }
            None => {
                if ctx.obs.tolerate_exceptions() {
                    // Force execution: clear the exception and step over
                    // the faulting instruction (paper §IV-E).
                    ctx.rt.last_exception = None;
                    return Ok(Seg::Resume(resume_pc));
                }
                return Ok(Seg::Done(Outcome::Threw(exc)));
            }
        }
    }
}

// ---- dedicated dispatch handlers (hot opcodes) -----------------------------

fn h_generic(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    // Conservatively treated as a call-out: some generic-match opcodes
    // (invokes, class-initialising accesses, throw) run nested code.
    ctx.mark_call_out();
    exec_generic(ctx, insn)
}

fn h_nop(_ctx: &mut Ctx<'_, '_>, _insn: &Insn, _qidx: u32) -> Result<Flow> {
    Ok(Flow::Next)
}

fn h_move(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    let v = ctx.frame.reg(insn.b);
    ctx.frame.set(insn.a, v);
    Ok(Flow::Next)
}

fn h_move_wide(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    let v = ctx.frame.wide(insn.b);
    ctx.frame.set_wide(insn.a, v);
    Ok(Flow::Next)
}

fn h_move_result(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    match ctx.frame.last_result {
        RetVal::Single(s) => ctx.frame.set(insn.a, s),
        _ => ctx.frame.set(insn.a, Slot::default()),
    }
    Ok(Flow::Next)
}

fn h_move_result_wide(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    match ctx.frame.last_result {
        RetVal::Wide(w) => ctx.frame.set_wide(insn.a, w),
        _ => ctx.frame.set_wide(insn.a, WideValue::default()),
    }
    Ok(Flow::Next)
}

fn h_move_exception(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    let caught = ctx.frame.caught.take().unwrap_or(0);
    ctx.frame.set(insn.a, Slot::of(caught));
    Ok(Flow::Next)
}

fn h_return_void(_ctx: &mut Ctx<'_, '_>, _insn: &Insn, _qidx: u32) -> Result<Flow> {
    Ok(Flow::Ret(RetVal::Void))
}

fn h_return(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    Ok(Flow::Ret(RetVal::Single(ctx.frame.reg(insn.a))))
}

fn h_return_wide(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    Ok(Flow::Ret(RetVal::Wide(ctx.frame.wide(insn.a))))
}

fn h_const(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    ctx.frame.set(insn.a, Slot::of(insn.lit as i32 as u32));
    Ok(Flow::Next)
}

fn h_const_wide(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    ctx.frame.set_wide(insn.a, WideValue::from_long(insn.lit));
    Ok(Flow::Next)
}

fn h_goto(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    Ok(Flow::Jump(insn.target(ctx.pc)))
}

fn h_cmp(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    exec_cmp(ctx.frame, insn);
    Ok(Flow::Next)
}

fn h_if(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    let would_take = eval_branch(ctx.frame, insn);
    Ok(branch_flow(ctx, insn, would_take))
}

fn h_int_alu(ctx: &mut Ctx<'_, '_>, insn: &Insn, _qidx: u32) -> Result<Flow> {
    match exec_int_alu(ctx.frame, insn) {
        Ok(()) => Ok(Flow::Next),
        Err(t) => Ok(Flow::Throw(t)),
    }
}

/// `iget*` under table dispatch: identical to the generic arm, plus a
/// one-time rewrite of the cell to its pre-resolved quick form.
fn h_iget(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iget on null".into(),
        )));
    }
    let field = resolve_field_ref(ctx.rt, ctx.method, insn.idx)?;
    let byte = if insn.op == Opcode::IgetWide {
        quick::IGET_WIDE_QUICK
    } else {
        quick::IGET_QUICK
    };
    ctx.quicken(qidx, byte, field.0 as u32);
    let v = ctx.rt.heap.read_field(obj, field).unwrap_or_default();
    if insn.op == Opcode::IgetWide {
        ctx.frame.set_wide(insn.a, v);
    } else {
        ctx.frame.set(
            insn.a,
            Slot {
                raw: v.raw as u32,
                taint: v.taint,
            },
        );
    }
    Ok(Flow::Next)
}

/// `iput*` under table dispatch, with the same one-time quickening.
fn h_iput(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iput on null".into(),
        )));
    }
    let field = resolve_field_ref(ctx.rt, ctx.method, insn.idx)?;
    let byte = if insn.op == Opcode::IputWide {
        quick::IPUT_WIDE_QUICK
    } else {
        quick::IPUT_QUICK
    };
    ctx.quicken(qidx, byte, field.0 as u32);
    let v = if insn.op == Opcode::IputWide {
        ctx.frame.wide(insn.a)
    } else {
        let s = ctx.frame.reg(insn.a);
        WideValue {
            raw: u64::from(s.raw),
            taint: s.taint,
        }
    };
    ctx.rt.heap.write_field(obj, field, v);
    Ok(Flow::Next)
}

/// Invokes under table dispatch. Static/direct/super call sites whose
/// target resolves to a non-framework bytecode method quicken to a
/// pre-resolved method id; everything else takes the full resolution path.
fn h_invoke(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.mark_call_out();
    let args = marshal_args(ctx.frame, insn);
    let is_static = matches!(insn.op, Opcode::InvokeStatic | Opcode::InvokeStaticRange);
    let quickable = is_static
        || matches!(
            insn.op,
            Opcode::InvokeDirect
                | Opcode::InvokeDirectRange
                | Opcode::InvokeSuper
                | Opcode::InvokeSuperRange
        );
    if quickable {
        if let Some(target) = resolve_direct_target(ctx.rt, ctx.method, insn)? {
            let byte = if is_static {
                quick::INVOKE_STATIC_QUICK
            } else {
                quick::INVOKE_DIRECT_QUICK
            };
            ctx.quicken(qidx, byte, target.0 as u32);
            return invoke_resolved(ctx, target, args.slots(), is_static);
        }
    }
    match dispatch_invoke(ctx.rt, ctx.obs, ctx.method, insn, args.slots(), ctx.depth)? {
        Outcome::Ret(v) => {
            ctx.frame.last_result = v;
            Ok(Flow::Next)
        }
        Outcome::Threw(exc) => Ok(Flow::ThrowObj(exc)),
    }
}

/// `const-string[/jumbo]`: resolve, intern, and cache the interned object
/// reference in the cell (string interning is stable for the heap's life).
fn h_const_string(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let s = resolve_string(ctx.rt, ctx.method, insn.idx)?;
    let r = ctx.rt.intern_string(&s);
    ctx.frame.set(insn.a, Slot::of(r));
    ctx.quicken(qidx, quick::CONST_STRING_QUICK, r);
    Ok(Flow::Next)
}

// ---- quickened handlers ----------------------------------------------------
//
// These run only for cells already rewritten by their slow-path
// counterparts, so the data slot is authoritative; the NO_DATA fallbacks
// are defensive. Null checks and taint flow are identical to the generic
// arms — only the constant-pool resolution is skipped.

fn h_iget_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iget on null".into(),
        )));
    }
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    let v = ctx
        .rt
        .heap
        .read_field(obj, FieldId(data as usize))
        .unwrap_or_default();
    ctx.frame.set(
        insn.a,
        Slot {
            raw: v.raw as u32,
            taint: v.taint,
        },
    );
    Ok(Flow::Next)
}

fn h_iget_wide_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iget on null".into(),
        )));
    }
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    let v = ctx
        .rt
        .heap
        .read_field(obj, FieldId(data as usize))
        .unwrap_or_default();
    ctx.frame.set_wide(insn.a, v);
    Ok(Flow::Next)
}

fn h_iput_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iput on null".into(),
        )));
    }
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    let s = ctx.frame.reg(insn.a);
    ctx.rt.heap.write_field(
        obj,
        FieldId(data as usize),
        WideValue {
            raw: u64::from(s.raw),
            taint: s.taint,
        },
    );
    Ok(Flow::Next)
}

fn h_iput_wide_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iput on null".into(),
        )));
    }
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    let v = ctx.frame.wide(insn.a);
    ctx.rt.heap.write_field(obj, FieldId(data as usize), v);
    Ok(Flow::Next)
}

fn h_invoke_static_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    let args = marshal_args(ctx.frame, insn);
    invoke_resolved(ctx, MethodId(data as usize), args.slots(), true)
}

fn h_invoke_direct_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    let args = marshal_args(ctx.frame, insn);
    invoke_resolved(ctx, MethodId(data as usize), args.slots(), false)
}

fn h_const_string_quick(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let data = ctx.cell_data(qidx);
    if data == quick::NO_DATA {
        return exec_generic(ctx, insn);
    }
    ctx.frame.set(insn.a, Slot::of(data));
    Ok(Flow::Next)
}

/// `packed-switch`/`sparse-switch` through the table pre-resolved at
/// predecode time (absolute targets, no payload walk).
#[inline]
fn h_switch_pre(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    let FrameCode::Pre { qc, .. } = ctx.code else {
        return exec_generic(ctx, insn);
    };
    let key = ctx.frame.reg(insn.a).as_int();
    match qc.switch_table(qc.data(qidx)).lookup(key) {
        Some(target) => Ok(Flow::Jump(target)),
        None => Ok(Flow::Next),
    }
}

// ---- superinstruction handlers ---------------------------------------------
//
// A fused handler executes the head, then *advances the context* to the
// second half (`begin_second`: instruction count, budget check,
// fault/resume pcs) before executing it — so counters, exceptions, and
// forced execution are indistinguishable from two separate steps. The
// second half keeps its own dispatch cell, so a branch into the middle of
// a pair executes it standalone. Fused bytes are only ever served to
// quickened frames, whose observer wants no per-instruction events, and
// no fusable sub-instruction can mutate code, so the mid-pair epoch check
// is safely elided.

/// The predecoded second half of the fused pair headed by `head_idx`.
/// Fusion only pairs adjacent instructions, so the second half is always
/// the next dense index — no pc lookup needed.
fn fused_second(code: &FrameCode, head_idx: u32) -> Option<(&Insn, u32)> {
    if let FrameCode::Pre { pre, .. } = code {
        return pre.at_index(head_idx + 1);
    }
    None
}

/// Starts the second half of a fused pair: mirrors the top of the dispatch
/// loop so instruction counts and budget enforcement match per-step
/// execution exactly.
fn begin_second(ctx: &mut Ctx<'_, '_>, pc2: u32, units2: u32) -> Result<()> {
    ctx.rt.stats.insns += 1;
    if ctx.rt.stats.insns > ctx.budget_limit {
        return Err(RuntimeError::BudgetExhausted);
    }
    ctx.pc = pc2;
    ctx.next_pc = pc2 + units2;
    Ok(())
}

#[inline]
fn h_fuse_alu_alu(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.rt.stats.superinsn_hits += 1;
    if let Err(t) = exec_int_alu(ctx.frame, insn) {
        return Ok(Flow::Throw(t));
    }
    let pc2 = ctx.next_pc;
    let Some((insn2, len2)) = fused_second(ctx.code, qidx) else {
        return Ok(Flow::Next);
    };
    begin_second(ctx, pc2, len2)?;
    match exec_int_alu(ctx.frame, insn2) {
        Ok(()) => Ok(Flow::Next),
        Err(t) => Ok(Flow::Throw(t)),
    }
}

#[inline]
fn h_fuse_alu_goto(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.rt.stats.superinsn_hits += 1;
    if let Err(t) = exec_int_alu(ctx.frame, insn) {
        return Ok(Flow::Throw(t));
    }
    let pc2 = ctx.next_pc;
    let Some((insn2, len2)) = fused_second(ctx.code, qidx) else {
        return Ok(Flow::Next);
    };
    begin_second(ctx, pc2, len2)?;
    Ok(Flow::Jump(insn2.target(pc2)))
}

#[inline]
fn h_fuse_if_alu(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.rt.stats.superinsn_hits += 1;
    let would_take = eval_branch(ctx.frame, insn);
    if let Flow::Jump(target) = branch_flow(ctx, insn, would_take) {
        return Ok(Flow::Jump(target));
    }
    let pc2 = ctx.next_pc;
    let Some((insn2, len2)) = fused_second(ctx.code, qidx) else {
        return Ok(Flow::Next);
    };
    begin_second(ctx, pc2, len2)?;
    match exec_int_alu(ctx.frame, insn2) {
        Ok(()) => Ok(Flow::Next),
        Err(t) => Ok(Flow::Throw(t)),
    }
}

#[inline]
fn h_fuse_cmp_if(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.rt.stats.superinsn_hits += 1;
    exec_cmp(ctx.frame, insn);
    let pc2 = ctx.next_pc;
    let Some((insn2, len2)) = fused_second(ctx.code, qidx) else {
        return Ok(Flow::Next);
    };
    begin_second(ctx, pc2, len2)?;
    let would_take = eval_branch(ctx.frame, insn2);
    // branch_flow reads ctx.pc, which begin_second moved to the `if` — the
    // branch hooks fire at the if's own pc, exactly as per-step.
    Ok(branch_flow(ctx, insn2, would_take))
}

fn h_fuse_const_move(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.rt.stats.superinsn_hits += 1;
    ctx.frame.set(insn.a, Slot::of(insn.lit as i32 as u32));
    let pc2 = ctx.next_pc;
    let Some((insn2, len2)) = fused_second(ctx.code, qidx) else {
        return Ok(Flow::Next);
    };
    begin_second(ctx, pc2, len2)?;
    let v = ctx.frame.reg(insn2.b);
    ctx.frame.set(insn2.a, v);
    Ok(Flow::Next)
}

/// Two narrow `iget`s off the same object register (fusion requires the
/// first destination not clobber the object register, so one null check
/// and one receiver read cover both).
fn h_fuse_iget_iget(ctx: &mut Ctx<'_, '_>, insn: &Insn, qidx: u32) -> Result<Flow> {
    ctx.rt.stats.superinsn_hits += 1;
    let obj = ctx.frame.reg(insn.b).raw;
    if obj == 0 {
        return Ok(Flow::Throw(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "iget on null".into(),
        )));
    }
    let field = quick_field(ctx, qidx, insn)?;
    let v = ctx.rt.heap.read_field(obj, field).unwrap_or_default();
    ctx.frame.set(
        insn.a,
        Slot {
            raw: v.raw as u32,
            taint: v.taint,
        },
    );
    let pc2 = ctx.next_pc;
    let idx2 = qidx + 1;
    let Some((insn2, len2)) = fused_second(ctx.code, qidx) else {
        return Ok(Flow::Next);
    };
    begin_second(ctx, pc2, len2)?;
    let field2 = quick_field(ctx, idx2, insn2)?;
    let v2 = ctx.rt.heap.read_field(obj, field2).unwrap_or_default();
    ctx.frame.set(
        insn2.a,
        Slot {
            raw: v2.raw as u32,
            taint: v2.taint,
        },
    );
    Ok(Flow::Next)
}

// ---- shared execution helpers ----------------------------------------------

/// The field a narrow `iget` cell refers to: its pre-resolved data slot if
/// quickened, else a full resolution that also quickens the cell.
fn quick_field(ctx: &mut Ctx<'_, '_>, qidx: u32, insn: &Insn) -> Result<FieldId> {
    let data = ctx.cell_data(qidx);
    if data != quick::NO_DATA {
        return Ok(FieldId(data as usize));
    }
    let field = resolve_field_ref(ctx.rt, ctx.method, insn.idx)?;
    ctx.quicken(qidx, quick::IGET_QUICK, field.0 as u32);
    Ok(field)
}

/// Runs the observer branch hooks at `ctx.pc` and converts the decision
/// into control flow. Used by both the dedicated `if` handler and the
/// fused forms, so override/trace semantics are identical everywhere.
fn branch_flow(ctx: &mut Ctx<'_, '_>, insn: &Insn, would_take: bool) -> Flow {
    let take = if ctx.branch_hooks {
        let take = ctx
            .obs
            .override_branch(ctx.rt, ctx.method, ctx.pc, would_take)
            .unwrap_or(would_take);
        ctx.obs.on_branch(ctx.rt, ctx.method, ctx.pc, take);
        take
    } else {
        would_take
    };
    if take {
        Flow::Jump(insn.target(ctx.pc))
    } else {
        Flow::Next
    }
}

/// Evaluates a conditional branch's predicate (all 12 `if*` forms).
fn eval_branch(frame: &Frame, insn: &Insn) -> bool {
    match insn.op {
        Opcode::IfEq => frame.reg(insn.a).as_int() == frame.reg(insn.b).as_int(),
        Opcode::IfNe => frame.reg(insn.a).as_int() != frame.reg(insn.b).as_int(),
        Opcode::IfLt => frame.reg(insn.a).as_int() < frame.reg(insn.b).as_int(),
        Opcode::IfGe => frame.reg(insn.a).as_int() >= frame.reg(insn.b).as_int(),
        Opcode::IfGt => frame.reg(insn.a).as_int() > frame.reg(insn.b).as_int(),
        Opcode::IfLe => frame.reg(insn.a).as_int() <= frame.reg(insn.b).as_int(),
        Opcode::IfEqz => frame.reg(insn.a).as_int() == 0,
        Opcode::IfNez => frame.reg(insn.a).as_int() != 0,
        Opcode::IfLtz => frame.reg(insn.a).as_int() < 0,
        Opcode::IfGez => frame.reg(insn.a).as_int() >= 0,
        Opcode::IfGtz => frame.reg(insn.a).as_int() > 0,
        Opcode::IfLez => frame.reg(insn.a).as_int() <= 0,
        _ => false,
    }
}

/// Executes a `cmp*` instruction (the five comparison opcodes).
fn exec_cmp(frame: &mut Frame, insn: &Insn) {
    let (r, taint) = match insn.op {
        Opcode::CmplFloat | Opcode::CmpgFloat => {
            let a = frame.reg(insn.b);
            let b = frame.reg(insn.c);
            let (x, y) = (a.as_float(), b.as_float());
            let r = if x.is_nan() || y.is_nan() {
                if insn.op == Opcode::CmplFloat {
                    -1
                } else {
                    1
                }
            } else if x < y {
                -1
            } else {
                i32::from(x > y)
            };
            (r, a.taint | b.taint)
        }
        Opcode::CmplDouble | Opcode::CmpgDouble => {
            let a = frame.wide(insn.b);
            let b = frame.wide(insn.c);
            let (x, y) = (a.as_double(), b.as_double());
            let r = if x.is_nan() || y.is_nan() {
                if insn.op == Opcode::CmplDouble {
                    -1
                } else {
                    1
                }
            } else if x < y {
                -1
            } else {
                i32::from(x > y)
            };
            (r, a.taint | b.taint)
        }
        _ => {
            // CmpLong — the only remaining cmp opcode.
            let a = frame.wide(insn.b);
            let b = frame.wide(insn.c);
            let r = match a.as_long().cmp(&b.as_long()) {
                std::cmp::Ordering::Less => -1i32,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            };
            (r, a.taint | b.taint)
        }
    };
    frame.set(
        insn.a,
        Slot {
            raw: r as u32,
            taint,
        },
    );
}

/// Executes an int ALU instruction — 23x, 2addr, lit16, or lit8 form.
fn exec_int_alu(frame: &mut Frame, insn: &Insn) -> std::result::Result<(), Thrown> {
    // One inline jump-table match per operand shape — the hot path must
    // not pay a fn-pointer indirection per arithmetic instruction.
    let op = insn.op;
    if let Some(f) = int_binop(op) {
        let two_addr = (op as u8) >= 0xb0;
        let (b, c) = if two_addr {
            (insn.a, insn.b)
        } else {
            (insn.b, insn.c)
        };
        let x = frame.reg(b);
        let y = frame.reg(c);
        let xi = x.as_int();
        let yi = y.as_int();
        let raw = match op {
            Opcode::AddInt | Opcode::AddInt2addr => xi.wrapping_add(yi),
            Opcode::SubInt | Opcode::SubInt2addr => xi.wrapping_sub(yi),
            Opcode::MulInt | Opcode::MulInt2addr => xi.wrapping_mul(yi),
            Opcode::AndInt | Opcode::AndInt2addr => xi & yi,
            Opcode::OrInt | Opcode::OrInt2addr => xi | yi,
            Opcode::XorInt | Opcode::XorInt2addr => xi ^ yi,
            Opcode::ShlInt | Opcode::ShlInt2addr => xi.wrapping_shl(yi as u32 & 31),
            Opcode::ShrInt | Opcode::ShrInt2addr => xi.wrapping_shr(yi as u32 & 31),
            Opcode::UshrInt | Opcode::UshrInt2addr => ((xi as u32) >> (yi as u32 & 31)) as i32,
            _ => {
                // div/rem share the zero check; f is the matched operation.
                if yi == 0 {
                    return Err(Thrown::Java(
                        "Ljava/lang/ArithmeticException;",
                        "divide by zero".into(),
                    ));
                }
                f(xi, yi)
            }
        };
        frame.set(
            insn.a,
            Slot {
                raw: raw as u32,
                taint: x.taint | y.taint,
            },
        );
        return Ok(());
    }
    if let Some(f) = lit_binop(op) {
        let x = frame.reg(insn.b);
        let lit = insn.lit as i32;
        let xi = x.as_int();
        let raw = match op {
            Opcode::AddIntLit16 | Opcode::AddIntLit8 => xi.wrapping_add(lit),
            Opcode::RsubInt | Opcode::RsubIntLit8 => lit.wrapping_sub(xi),
            Opcode::MulIntLit16 | Opcode::MulIntLit8 => xi.wrapping_mul(lit),
            Opcode::AndIntLit16 | Opcode::AndIntLit8 => xi & lit,
            Opcode::OrIntLit16 | Opcode::OrIntLit8 => xi | lit,
            Opcode::XorIntLit16 | Opcode::XorIntLit8 => xi ^ lit,
            Opcode::ShlIntLit8 => xi.wrapping_shl(lit as u32 & 31),
            Opcode::ShrIntLit8 => xi.wrapping_shr(lit as u32 & 31),
            Opcode::UshrIntLit8 => ((xi as u32) >> (lit as u32 & 31)) as i32,
            _ => {
                if lit == 0 {
                    return Err(Thrown::Java(
                        "Ljava/lang/ArithmeticException;",
                        "divide by zero".into(),
                    ));
                }
                f(xi, lit)
            }
        };
        frame.set(
            insn.a,
            Slot {
                raw: raw as u32,
                taint: x.taint,
            },
        );
        return Ok(());
    }
    debug_assert!(false, "exec_int_alu on non-int-alu opcode {op:?}");
    Ok(())
}

/// Resolves a static/direct/super call site to a concrete target eligible
/// for quickening: the named class and the resolved method's declaring
/// class must both be real loaded classes (framework stubs can gain
/// methods after the fact via native registration, so resolutions through
/// them are never cached).
fn resolve_direct_target(
    rt: &mut Runtime,
    caller: MethodId,
    insn: &Insn,
) -> Result<Option<MethodId>> {
    let table = rt.dex_table(source_of(rt, caller)?);
    let (class_desc, sig) = table
        .methods
        .get(insn.idx as usize)
        .cloned()
        .ok_or_else(|| RuntimeError::Internal(format!("method index {} out of range", insn.idx)))?;
    let Some(class) = rt.find_class(&class_desc) else {
        return Ok(None);
    };
    if rt.class(class).source == "<framework>" {
        return Ok(None);
    }
    let Some(target) = rt.resolve_method(class, &sig) else {
        return Ok(None);
    };
    let declaring = rt.method(target).class;
    if rt.class(declaring).source == "<framework>" {
        return Ok(None);
    }
    // Cross-source calls (e.g. into a dynamically loaded DEX) must keep
    // resolving dynamically: reloading the same payload registers a fresh
    // copy of the class, and a cached target would pin the call site to a
    // stale copy — observably different from per-step execution.
    if rt.class(declaring).source != rt.class(rt.method(caller).class).source {
        return Ok(None);
    }
    Ok(Some(target))
}

/// Invokes an already-resolved target and folds the outcome into control
/// flow — the fast path shared by quickened invokes and first-execution
/// quickening.
fn invoke_resolved(
    ctx: &mut Ctx<'_, '_>,
    target: MethodId,
    args: &[Slot],
    is_static: bool,
) -> Result<Flow> {
    ctx.mark_call_out();
    if is_static {
        let class = ctx.rt.method(target).class;
        ctx.rt.ensure_initialized(ctx.obs, class)?;
    }
    match execute_inner(ctx.rt, ctx.obs, target, args, ctx.depth + 1)? {
        Outcome::Ret(v) => {
            ctx.frame.last_result = v;
            Ok(Flow::Next)
        }
        Outcome::Threw(exc) => Ok(Flow::ThrowObj(exc)),
    }
}

/// The classic full-opcode match — the single source of semantics for every
/// opcode without a dedicated table handler, and the whole interpreter for
/// per-step frames. Never quickens.
#[allow(clippy::too_many_lines)]
fn exec_generic(ctx: &mut Ctx<'_, '_>, insn: &Insn) -> Result<Flow> {
    let method = ctx.method;
    let pc = ctx.pc;
    let depth = ctx.depth;
    let Ctx {
        rt,
        obs,
        frame,
        code,
        ..
    } = ctx;
    let rt = &mut **rt;
    let obs = &mut **obs;
    let frame = &mut **frame;
    let code = &**code;

    // `thrown` carries a pending Java exception raised by this instruction.
    let mut thrown: Option<Thrown> = None;
    let mut thrown_obj: Option<ObjRef> = None;

    macro_rules! throw_java {
        ($ty:expr, $msg:expr) => {{
            thrown = Some(Thrown::Java($ty, $msg));
        }};
    }

    match insn.op {
        Opcode::Nop => {}

        // ---- moves -----------------------------------------------------
        Opcode::Move
        | Opcode::MoveFrom16
        | Opcode::Move16
        | Opcode::MoveObject
        | Opcode::MoveObjectFrom16
        | Opcode::MoveObject16 => {
            frame.set(insn.a, frame.reg(insn.b));
        }
        Opcode::MoveWide | Opcode::MoveWideFrom16 | Opcode::MoveWide16 => {
            let v = frame.wide(insn.b);
            frame.set_wide(insn.a, v);
        }
        Opcode::MoveResult | Opcode::MoveResultObject => match frame.last_result {
            RetVal::Single(s) => frame.set(insn.a, s),
            _ => frame.set(insn.a, Slot::default()),
        },
        Opcode::MoveResultWide => match frame.last_result {
            RetVal::Wide(w) => frame.set_wide(insn.a, w),
            _ => frame.set_wide(insn.a, WideValue::default()),
        },
        Opcode::MoveException => {
            let caught = frame.caught.take().unwrap_or(0);
            frame.set(insn.a, Slot::of(caught));
        }

        // ---- returns ---------------------------------------------------
        Opcode::ReturnVoid => return Ok(Flow::Ret(RetVal::Void)),
        Opcode::Return | Opcode::ReturnObject => {
            return Ok(Flow::Ret(RetVal::Single(frame.reg(insn.a))))
        }
        Opcode::ReturnWide => return Ok(Flow::Ret(RetVal::Wide(frame.wide(insn.a)))),

        // ---- constants -------------------------------------------------
        Opcode::Const4 | Opcode::Const16 | Opcode::Const | Opcode::ConstHigh16 => {
            frame.set(insn.a, Slot::of(insn.lit as i32 as u32));
        }
        Opcode::ConstWide16 | Opcode::ConstWide32 | Opcode::ConstWide | Opcode::ConstWideHigh16 => {
            frame.set_wide(insn.a, WideValue::from_long(insn.lit));
        }
        Opcode::ConstString | Opcode::ConstStringJumbo => {
            let s = resolve_string(rt, method, insn.idx)?;
            let r = rt.intern_string(&s);
            frame.set(insn.a, Slot::of(r));
        }
        Opcode::ConstClass => {
            let desc = resolve_type(rt, method, insn.idx)?;
            let class = rt
                .find_class(&desc)
                .unwrap_or_else(|| rt.ensure_class_stub(&desc));
            let r = rt.heap.alloc(ObjKind::Class(class), 0);
            frame.set(insn.a, Slot::of(r));
        }

        // ---- monitors (single-threaded: no-ops) -------------------------
        Opcode::MonitorEnter | Opcode::MonitorExit => {
            if frame.reg(insn.a).raw == 0 {
                throw_java!("Ljava/lang/NullPointerException;", "monitor on null".into());
            }
        }

        // ---- casts / type tests -----------------------------------------
        Opcode::CheckCast => {
            let obj = frame.reg(insn.a).raw;
            if obj != 0 {
                let desc = resolve_type(rt, method, insn.idx)?;
                if let (Some(target), Some(actual)) =
                    (rt.find_class(&desc), runtime_class_of_obj(rt, obj))
                {
                    // Lenient where hierarchy is only partially known
                    // (stub classes report Object as supertype).
                    let target_is_stub = rt.class(target).source == "<framework>";
                    if !target_is_stub && !rt.is_subtype(actual, target) {
                        throw_java!(
                            "Ljava/lang/ClassCastException;",
                            format!("{} -> {}", rt.class(actual).descriptor, desc)
                        );
                    }
                }
            }
        }
        Opcode::InstanceOf => {
            let obj = frame.reg(insn.b).raw;
            let desc = resolve_type(rt, method, insn.idx)?;
            let result = if obj == 0 {
                false
            } else {
                match (rt.find_class(&desc), runtime_class_of_obj(rt, obj)) {
                    (Some(target), Some(actual)) => rt.is_subtype(actual, target),
                    _ => false,
                }
            };
            frame.set(insn.a, Slot::of(u32::from(result)));
        }

        // ---- allocation --------------------------------------------------
        Opcode::NewInstance => {
            let desc = resolve_type(rt, method, insn.idx)?;
            let class = rt
                .find_class(&desc)
                .unwrap_or_else(|| rt.ensure_class_stub(&desc));
            rt.ensure_initialized(obs, class)?;
            let r = rt.heap.alloc_instance(class);
            frame.set(insn.a, Slot::of(r));
        }
        Opcode::NewArray => {
            let len = frame.reg(insn.b).as_int();
            if len < 0 {
                throw_java!("Ljava/lang/NegativeArraySizeException;", len.to_string());
            } else {
                let desc = resolve_type(rt, method, insn.idx)?;
                let elem = desc.strip_prefix('[').unwrap_or("I").to_owned();
                let r = rt.heap.alloc_array(&elem, len as usize);
                frame.set(insn.a, Slot::of(r));
            }
        }
        Opcode::ArrayLength => {
            let arr = frame.reg(insn.b).raw;
            match rt.heap.array_len(arr) {
                Some(n) => frame.set(insn.a, Slot::of(n as u32)),
                None => throw_java!(
                    "Ljava/lang/NullPointerException;",
                    "array-length on null".into()
                ),
            }
        }
        Opcode::FilledNewArray | Opcode::FilledNewArrayRange => {
            let desc = resolve_type(rt, method, insn.idx)?;
            let elem = desc.strip_prefix('[').unwrap_or("I").to_owned();
            let r = rt.heap.alloc_array(&elem, insn.regs.len());
            for (i, &reg) in insn.regs.iter().enumerate() {
                let v = frame.reg(reg);
                if let Some(obj) = rt.heap.get_mut(r) {
                    if let ObjKind::Array { data, .. } = &mut obj.kind {
                        data[i] = WideValue {
                            raw: u64::from(v.raw),
                            taint: v.taint,
                        };
                    }
                }
            }
            frame.last_result = RetVal::Single(Slot::of(r));
        }
        Opcode::FillArrayData => {
            let arr = frame.reg(insn.a).raw;
            let mut storage = None;
            let payload = payload_ref(code, &mut storage, rt, method, insn.target(pc))?;
            if let Decoded::FillArrayDataPayload {
                element_width,
                data,
            } = payload
            {
                if rt.heap.array_len(arr).is_none() {
                    throw_java!(
                        "Ljava/lang/NullPointerException;",
                        "fill-array-data on null".into()
                    );
                } else if let Some(obj) = rt.heap.get_mut(arr) {
                    if let ObjKind::Array { data: dst, .. } = &mut obj.kind {
                        let w = *element_width as usize;
                        for (i, chunk) in data.chunks(w).enumerate() {
                            if i >= dst.len() {
                                break;
                            }
                            let mut v: u64 = 0;
                            for (j, &b) in chunk.iter().enumerate() {
                                v |= u64::from(b) << (8 * j);
                            }
                            dst[i] = WideValue::of(v);
                        }
                    }
                }
            } else {
                return Err(RuntimeError::Internal(
                    "fill-array-data target is not an array payload".into(),
                ));
            }
        }

        // ---- exceptions ---------------------------------------------------
        Opcode::Throw => {
            let exc = frame.reg(insn.a).raw;
            if exc == 0 {
                throw_java!("Ljava/lang/NullPointerException;", "throw null".into());
            } else {
                thrown_obj = Some(exc);
            }
        }

        // ---- unconditional branches ----------------------------------------
        Opcode::Goto | Opcode::Goto16 | Opcode::Goto32 => {
            return Ok(Flow::Jump(insn.target(pc)));
        }

        // ---- switches --------------------------------------------------------
        Opcode::PackedSwitch | Opcode::SparseSwitch => {
            let key = frame.reg(insn.a).as_int();
            let mut storage = None;
            let payload = payload_ref(code, &mut storage, rt, method, insn.target(pc))?;
            let target = match payload {
                Decoded::PackedSwitchPayload { first_key, targets } => {
                    let idx = i64::from(key) - i64::from(*first_key);
                    if idx >= 0 && (idx as usize) < targets.len() {
                        Some(targets[idx as usize])
                    } else {
                        None
                    }
                }
                Decoded::SparseSwitchPayload { keys, targets } => {
                    keys.iter().position(|&k| k == key).map(|i| targets[i])
                }
                _ => {
                    return Err(RuntimeError::Internal(
                        "switch target is not a switch payload".into(),
                    ))
                }
            };
            if let Some(off) = target {
                return Ok(Flow::Jump(pc.wrapping_add(off as u32)));
            }
        }

        // ---- comparisons ------------------------------------------------------
        Opcode::CmplFloat
        | Opcode::CmpgFloat
        | Opcode::CmplDouble
        | Opcode::CmpgDouble
        | Opcode::CmpLong => exec_cmp(frame, insn),

        // ---- conditional branches ------------------------------------------------
        Opcode::IfEq
        | Opcode::IfNe
        | Opcode::IfLt
        | Opcode::IfGe
        | Opcode::IfGt
        | Opcode::IfLe
        | Opcode::IfEqz
        | Opcode::IfNez
        | Opcode::IfLtz
        | Opcode::IfGez
        | Opcode::IfGtz
        | Opcode::IfLez => {
            let would_take = eval_branch(frame, insn);
            let take = obs
                .override_branch(rt, method, pc, would_take)
                .unwrap_or(would_take);
            obs.on_branch(rt, method, pc, take);
            if take {
                return Ok(Flow::Jump(insn.target(pc)));
            }
        }

        // ---- array element access ---------------------------------------------------
        Opcode::Aget
        | Opcode::AgetObject
        | Opcode::AgetBoolean
        | Opcode::AgetByte
        | Opcode::AgetChar
        | Opcode::AgetShort => match array_read(rt, frame, insn.b, insn.c) {
            Ok(v) => frame.set(
                insn.a,
                Slot {
                    raw: v.raw as u32,
                    taint: v.taint,
                },
            ),
            Err(t) => thrown = Some(t),
        },
        Opcode::AgetWide => match array_read(rt, frame, insn.b, insn.c) {
            Ok(v) => frame.set_wide(insn.a, v),
            Err(t) => thrown = Some(t),
        },
        Opcode::Aput
        | Opcode::AputObject
        | Opcode::AputBoolean
        | Opcode::AputByte
        | Opcode::AputChar
        | Opcode::AputShort => {
            let v = frame.reg(insn.a);
            if let Err(t) = array_write(
                rt,
                frame,
                insn.b,
                insn.c,
                WideValue {
                    raw: u64::from(v.raw),
                    taint: v.taint,
                },
            ) {
                thrown = Some(t);
            }
        }
        Opcode::AputWide => {
            let v = frame.wide(insn.a);
            if let Err(t) = array_write(rt, frame, insn.b, insn.c, v) {
                thrown = Some(t);
            }
        }

        // ---- instance fields -----------------------------------------------------------
        Opcode::Iget
        | Opcode::IgetObject
        | Opcode::IgetBoolean
        | Opcode::IgetByte
        | Opcode::IgetChar
        | Opcode::IgetShort
        | Opcode::IgetWide => {
            let obj = frame.reg(insn.b).raw;
            if obj == 0 {
                throw_java!("Ljava/lang/NullPointerException;", "iget on null".into());
            } else {
                let field = resolve_field_ref(rt, method, insn.idx)?;
                let v = rt.heap.read_field(obj, field).unwrap_or_default();
                if insn.op == Opcode::IgetWide {
                    frame.set_wide(insn.a, v);
                } else {
                    frame.set(
                        insn.a,
                        Slot {
                            raw: v.raw as u32,
                            taint: v.taint,
                        },
                    );
                }
            }
        }
        Opcode::Iput
        | Opcode::IputObject
        | Opcode::IputBoolean
        | Opcode::IputByte
        | Opcode::IputChar
        | Opcode::IputShort
        | Opcode::IputWide => {
            let obj = frame.reg(insn.b).raw;
            if obj == 0 {
                throw_java!("Ljava/lang/NullPointerException;", "iput on null".into());
            } else {
                let field = resolve_field_ref(rt, method, insn.idx)?;
                let v = if insn.op == Opcode::IputWide {
                    frame.wide(insn.a)
                } else {
                    let s = frame.reg(insn.a);
                    WideValue {
                        raw: u64::from(s.raw),
                        taint: s.taint,
                    }
                };
                rt.heap.write_field(obj, field, v);
            }
        }

        // ---- static fields ---------------------------------------------------------------
        Opcode::Sget
        | Opcode::SgetObject
        | Opcode::SgetBoolean
        | Opcode::SgetByte
        | Opcode::SgetChar
        | Opcode::SgetShort
        | Opcode::SgetWide => {
            let field = resolve_field_ref(rt, method, insn.idx)?;
            let v = rt.static_get(obs, field)?;
            if insn.op == Opcode::SgetWide {
                frame.set_wide(insn.a, v);
            } else {
                frame.set(
                    insn.a,
                    Slot {
                        raw: v.raw as u32,
                        taint: v.taint,
                    },
                );
            }
        }
        Opcode::Sput
        | Opcode::SputObject
        | Opcode::SputBoolean
        | Opcode::SputByte
        | Opcode::SputChar
        | Opcode::SputShort
        | Opcode::SputWide => {
            let field = resolve_field_ref(rt, method, insn.idx)?;
            let v = if insn.op == Opcode::SputWide {
                frame.wide(insn.a)
            } else {
                let s = frame.reg(insn.a);
                WideValue {
                    raw: u64::from(s.raw),
                    taint: s.taint,
                }
            };
            rt.static_put(obs, field, v)?;
        }

        // ---- invocations --------------------------------------------------------------------
        op if op.is_invoke() => {
            let args = marshal_args(frame, insn);
            match dispatch_invoke(rt, obs, method, insn, args.slots(), depth)? {
                Outcome::Ret(v) => frame.last_result = v,
                Outcome::Threw(exc) => thrown_obj = Some(exc),
            }
        }

        // ---- unary ops --------------------------------------------------------------------
        Opcode::NegInt => unary_int(frame, insn, |v| v.wrapping_neg()),
        Opcode::NotInt => unary_int(frame, insn, |v| !v),
        Opcode::NegLong => unary_long(frame, insn, |v| v.wrapping_neg()),
        Opcode::NotLong => unary_long(frame, insn, |v| !v),
        Opcode::NegFloat => {
            let v = frame.reg(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: (-v.as_float()).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::NegDouble => {
            let v = frame.wide(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: (-v.as_double()).to_bits(),
                    taint: v.taint,
                },
            );
        }

        // ---- conversions ------------------------------------------------------------------
        Opcode::IntToLong => {
            let v = frame.reg(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: i64::from(v.as_int()) as u64,
                    taint: v.taint,
                },
            );
        }
        Opcode::IntToFloat => {
            let v = frame.reg(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: (v.as_int() as f32).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::IntToDouble => {
            let v = frame.reg(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: f64::from(v.as_int()).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::LongToInt => {
            let v = frame.wide(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: v.as_long() as i32 as u32,
                    taint: v.taint,
                },
            );
        }
        Opcode::LongToFloat => {
            let v = frame.wide(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: (v.as_long() as f32).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::LongToDouble => {
            let v = frame.wide(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: (v.as_long() as f64).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::FloatToInt => {
            let v = frame.reg(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: clamp_f2i(v.as_float()) as u32,
                    taint: v.taint,
                },
            );
        }
        Opcode::FloatToLong => {
            let v = frame.reg(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: clamp_f2l(f64::from(v.as_float())) as u64,
                    taint: v.taint,
                },
            );
        }
        Opcode::FloatToDouble => {
            let v = frame.reg(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: f64::from(v.as_float()).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::DoubleToInt => {
            let v = frame.wide(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: clamp_f2i(v.as_double() as f32) as u32,
                    taint: v.taint,
                },
            );
        }
        Opcode::DoubleToLong => {
            let v = frame.wide(insn.b);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: clamp_f2l(v.as_double()) as u64,
                    taint: v.taint,
                },
            );
        }
        Opcode::DoubleToFloat => {
            let v = frame.wide(insn.b);
            frame.set(
                insn.a,
                Slot {
                    raw: (v.as_double() as f32).to_bits(),
                    taint: v.taint,
                },
            );
        }
        Opcode::IntToByte => unary_int(frame, insn, |v| i32::from(v as i8)),
        Opcode::IntToChar => unary_int(frame, insn, |v| i32::from(v as u16)),
        Opcode::IntToShort => unary_int(frame, insn, |v| i32::from(v as i16)),

        // ---- int arithmetic (23x, 2addr, lit16, lit8) --------------------------------------
        op if int_binop(op).is_some() || lit_binop(op).is_some() => {
            if let Err(t) = exec_int_alu(frame, insn) {
                thrown = Some(t);
            }
        }

        // ---- long arithmetic -----------------------------------------------------------------
        op if long_binop(op).is_some() => {
            let f = long_binop(op).expect("guard");
            let two_addr = (op as u8) >= 0xb0;
            let (b, c) = if two_addr {
                (insn.a, insn.b)
            } else {
                (insn.b, insn.c)
            };
            let x = frame.wide(b);
            // Shift amounts for longs are int registers.
            let is_shift = matches!(
                op,
                Opcode::ShlLong
                    | Opcode::ShrLong
                    | Opcode::UshrLong
                    | Opcode::ShlLong2addr
                    | Opcode::ShrLong2addr
                    | Opcode::UshrLong2addr
            );
            let (y_val, y_taint) = if is_shift {
                let s = frame.reg(c);
                (i64::from(s.as_int()), s.taint)
            } else {
                let w = frame.wide(c);
                (w.as_long(), w.taint)
            };
            if matches!(
                op,
                Opcode::DivLong | Opcode::RemLong | Opcode::DivLong2addr | Opcode::RemLong2addr
            ) && y_val == 0
            {
                throw_java!("Ljava/lang/ArithmeticException;", "divide by zero".into());
            } else {
                frame.set_wide(
                    insn.a,
                    WideValue {
                        raw: f(x.as_long(), y_val) as u64,
                        taint: x.taint | y_taint,
                    },
                );
            }
        }

        // ---- float/double arithmetic ------------------------------------------------------------
        op if float_binop(op).is_some() => {
            let f = float_binop(op).expect("guard");
            let two_addr = (op as u8) >= 0xb0;
            let (b, c) = if two_addr {
                (insn.a, insn.b)
            } else {
                (insn.b, insn.c)
            };
            let x = frame.reg(b);
            let y = frame.reg(c);
            frame.set(
                insn.a,
                Slot {
                    raw: f(x.as_float(), y.as_float()).to_bits(),
                    taint: x.taint | y.taint,
                },
            );
        }
        op if double_binop(op).is_some() => {
            let f = double_binop(op).expect("guard");
            let two_addr = (op as u8) >= 0xb0;
            let (b, c) = if two_addr {
                (insn.a, insn.b)
            } else {
                (insn.b, insn.c)
            };
            let x = frame.wide(b);
            let y = frame.wide(c);
            frame.set_wide(
                insn.a,
                WideValue {
                    raw: f(x.as_double(), y.as_double()).to_bits(),
                    taint: x.taint | y.taint,
                },
            );
        }

        other => {
            return Err(RuntimeError::UnimplementedOpcode {
                opcode: other,
                dex_pc: pc,
            })
        }
    }

    if let Some(t) = thrown {
        return Ok(Flow::Throw(t));
    }
    if let Some(exc) = thrown_obj {
        return Ok(Flow::ThrowObj(exc));
    }
    Ok(Flow::Next)
}

fn clamp_f2i(v: f32) -> i32 {
    if v.is_nan() {
        0
    } else if v >= i32::MAX as f32 {
        i32::MAX
    } else if v <= i32::MIN as f32 {
        i32::MIN
    } else {
        v as i32
    }
}

fn clamp_f2l(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else if v >= i64::MAX as f64 {
        i64::MAX
    } else if v <= i64::MIN as f64 {
        i64::MIN
    } else {
        v as i64
    }
}

fn unary_int(frame: &mut Frame, insn: &Insn, f: impl Fn(i32) -> i32) {
    let v = frame.reg(insn.b);
    frame.set(
        insn.a,
        Slot {
            raw: f(v.as_int()) as u32,
            taint: v.taint,
        },
    );
}

fn unary_long(frame: &mut Frame, insn: &Insn, f: impl Fn(i64) -> i64) {
    let v = frame.wide(insn.b);
    frame.set_wide(
        insn.a,
        WideValue {
            raw: f(v.as_long()) as u64,
            taint: v.taint,
        },
    );
}

type IntOp = fn(i32, i32) -> i32;
type LongOp = fn(i64, i64) -> i64;

fn int_binop(op: Opcode) -> Option<IntOp> {
    Some(match op {
        Opcode::AddInt | Opcode::AddInt2addr => |a, b| a.wrapping_add(b),
        Opcode::SubInt | Opcode::SubInt2addr => |a, b| a.wrapping_sub(b),
        Opcode::MulInt | Opcode::MulInt2addr => |a, b| a.wrapping_mul(b),
        Opcode::DivInt | Opcode::DivInt2addr => |a, b| a.wrapping_div(b),
        Opcode::RemInt | Opcode::RemInt2addr => |a, b| a.wrapping_rem(b),
        Opcode::AndInt | Opcode::AndInt2addr => |a, b| a & b,
        Opcode::OrInt | Opcode::OrInt2addr => |a, b| a | b,
        Opcode::XorInt | Opcode::XorInt2addr => |a, b| a ^ b,
        Opcode::ShlInt | Opcode::ShlInt2addr => |a, b| a.wrapping_shl(b as u32 & 31),
        Opcode::ShrInt | Opcode::ShrInt2addr => |a, b| a.wrapping_shr(b as u32 & 31),
        Opcode::UshrInt | Opcode::UshrInt2addr => |a, b| ((a as u32) >> (b as u32 & 31)) as i32,
        _ => return None,
    })
}

fn long_binop(op: Opcode) -> Option<LongOp> {
    Some(match op {
        Opcode::AddLong | Opcode::AddLong2addr => |a: i64, b| a.wrapping_add(b),
        Opcode::SubLong | Opcode::SubLong2addr => |a: i64, b| a.wrapping_sub(b),
        Opcode::MulLong | Opcode::MulLong2addr => |a: i64, b| a.wrapping_mul(b),
        Opcode::DivLong | Opcode::DivLong2addr => |a: i64, b| a.wrapping_div(b),
        Opcode::RemLong | Opcode::RemLong2addr => |a: i64, b| a.wrapping_rem(b),
        Opcode::AndLong | Opcode::AndLong2addr => |a, b| a & b,
        Opcode::OrLong | Opcode::OrLong2addr => |a, b| a | b,
        Opcode::XorLong | Opcode::XorLong2addr => |a, b| a ^ b,
        Opcode::ShlLong | Opcode::ShlLong2addr => |a: i64, b| a.wrapping_shl(b as u32 & 63),
        Opcode::ShrLong | Opcode::ShrLong2addr => |a: i64, b| a.wrapping_shr(b as u32 & 63),
        Opcode::UshrLong | Opcode::UshrLong2addr => {
            |a: i64, b| ((a as u64) >> (b as u32 & 63)) as i64
        }
        _ => return None,
    })
}

fn float_binop(op: Opcode) -> Option<fn(f32, f32) -> f32> {
    Some(match op {
        Opcode::AddFloat | Opcode::AddFloat2addr => |a, b| a + b,
        Opcode::SubFloat | Opcode::SubFloat2addr => |a, b| a - b,
        Opcode::MulFloat | Opcode::MulFloat2addr => |a, b| a * b,
        Opcode::DivFloat | Opcode::DivFloat2addr => |a, b| a / b,
        Opcode::RemFloat | Opcode::RemFloat2addr => |a, b| a % b,
        _ => return None,
    })
}

fn double_binop(op: Opcode) -> Option<fn(f64, f64) -> f64> {
    Some(match op {
        Opcode::AddDouble | Opcode::AddDouble2addr => |a, b| a + b,
        Opcode::SubDouble | Opcode::SubDouble2addr => |a, b| a - b,
        Opcode::MulDouble | Opcode::MulDouble2addr => |a, b| a * b,
        Opcode::DivDouble | Opcode::DivDouble2addr => |a, b| a / b,
        Opcode::RemDouble | Opcode::RemDouble2addr => |a, b| a % b,
        _ => return None,
    })
}

fn lit_binop(op: Opcode) -> Option<IntOp> {
    Some(match op {
        Opcode::AddIntLit16 | Opcode::AddIntLit8 => |a, b| a.wrapping_add(b),
        Opcode::RsubInt | Opcode::RsubIntLit8 => |a, b| b.wrapping_sub(a),
        Opcode::MulIntLit16 | Opcode::MulIntLit8 => |a, b| a.wrapping_mul(b),
        Opcode::DivIntLit16 | Opcode::DivIntLit8 => |a, b| a.wrapping_div(b),
        Opcode::RemIntLit16 | Opcode::RemIntLit8 => |a, b| a.wrapping_rem(b),
        Opcode::AndIntLit16 | Opcode::AndIntLit8 => |a, b| a & b,
        Opcode::OrIntLit16 | Opcode::OrIntLit8 => |a, b| a | b,
        Opcode::XorIntLit16 | Opcode::XorIntLit8 => |a, b| a ^ b,
        Opcode::ShlIntLit8 => |a, b| a.wrapping_shl(b as u32 & 31),
        Opcode::ShrIntLit8 => |a, b| a.wrapping_shr(b as u32 & 31),
        Opcode::UshrIntLit8 => |a, b| ((a as u32) >> (b as u32 & 31)) as i32,
        _ => return None,
    })
}

fn array_read(
    rt: &Runtime,
    frame: &Frame,
    arr_reg: u32,
    idx_reg: u32,
) -> std::result::Result<WideValue, Thrown> {
    let arr = frame.reg(arr_reg).raw;
    let idx = frame.reg(idx_reg).as_int();
    match rt.heap.get(arr).map(|o| &o.kind) {
        Some(ObjKind::Array { data, .. }) => {
            if idx < 0 || idx as usize >= data.len() {
                Err(Thrown::Java(
                    "Ljava/lang/ArrayIndexOutOfBoundsException;",
                    format!("index {idx}, length {}", data.len()),
                ))
            } else {
                Ok(data[idx as usize])
            }
        }
        _ => Err(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "array access on null".into(),
        )),
    }
}

fn array_write(
    rt: &mut Runtime,
    frame: &Frame,
    arr_reg: u32,
    idx_reg: u32,
    value: WideValue,
) -> std::result::Result<(), Thrown> {
    let arr = frame.reg(arr_reg).raw;
    let idx = frame.reg(idx_reg).as_int();
    match rt.heap.get_mut(arr).map(|o| &mut o.kind) {
        Some(ObjKind::Array { data, .. }) => {
            if idx < 0 || idx as usize >= data.len() {
                Err(Thrown::Java(
                    "Ljava/lang/ArrayIndexOutOfBoundsException;",
                    format!("index {idx}, length {}", data.len()),
                ))
            } else {
                data[idx as usize] = value;
                Ok(())
            }
        }
        _ => Err(Thrown::Java(
            "Ljava/lang/NullPointerException;",
            "array access on null".into(),
        )),
    }
}

// ---- operand resolution against the method's dex table ----------------------

fn source_of(rt: &Runtime, method: MethodId) -> Result<usize> {
    rt.method_source(method).ok_or_else(|| {
        RuntimeError::Internal(format!(
            "no dex source for bytecode method {}",
            rt.method_name(method)
        ))
    })
}

fn resolve_string(rt: &Runtime, method: MethodId, idx: u32) -> Result<String> {
    let table = rt.dex_table(source_of(rt, method)?);
    table
        .strings
        .get(idx as usize)
        .cloned()
        .ok_or_else(|| RuntimeError::Internal(format!("string index {idx} out of range")))
}

fn resolve_type(rt: &Runtime, method: MethodId, idx: u32) -> Result<String> {
    let table = rt.dex_table(source_of(rt, method)?);
    table
        .types
        .get(idx as usize)
        .cloned()
        .ok_or_else(|| RuntimeError::Internal(format!("type index {idx} out of range")))
}

fn resolve_field_ref(rt: &mut Runtime, method: MethodId, idx: u32) -> Result<FieldId> {
    let table = rt.dex_table(source_of(rt, method)?);
    let (class_desc, name, type_desc) = table
        .fields
        .get(idx as usize)
        .cloned()
        .ok_or_else(|| RuntimeError::Internal(format!("field index {idx} out of range")))?;
    let class = match rt.find_class(&class_desc) {
        Some(c) => c,
        None => rt.ensure_class_stub(&class_desc),
    };
    match rt.resolve_field(class, &name) {
        Some(f) => Ok(f),
        // Framework fields appear on demand (e.g. instrument-class guards).
        None => Ok(rt.register_field(&class_desc, &name, &type_desc)),
    }
}

fn dispatch_invoke(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    caller: MethodId,
    insn: &Insn,
    args: &[Slot],
    depth: usize,
) -> Result<Outcome> {
    let table = rt.dex_table(source_of(rt, caller)?);
    let (class_desc, sig) = table
        .methods
        .get(insn.idx as usize)
        .cloned()
        .ok_or_else(|| RuntimeError::Internal(format!("method index {} out of range", insn.idx)))?;

    let is_static = matches!(insn.op, Opcode::InvokeStatic | Opcode::InvokeStaticRange);
    let is_virtual = matches!(
        insn.op,
        Opcode::InvokeVirtual
            | Opcode::InvokeVirtualRange
            | Opcode::InvokeInterface
            | Opcode::InvokeInterfaceRange
    );

    let start_class = if is_virtual {
        let receiver = args.first().copied().unwrap_or_default().raw;
        if receiver == 0 {
            let exc = rt.heap.alloc(
                ObjKind::Throwable {
                    type_desc: "Ljava/lang/NullPointerException;".to_owned(),
                    message: format!("invoke on null receiver: {class_desc}->{}", sig.name),
                },
                0,
            );
            return Ok(Outcome::Threw(exc));
        }
        runtime_class_of_obj(rt, receiver).unwrap_or_else(|| rt.ensure_class_stub(&class_desc))
    } else {
        match rt.find_class(&class_desc) {
            Some(c) => c,
            None => rt.ensure_class_stub(&class_desc),
        }
    };

    let resolved = rt.resolve_method(start_class, &sig).or_else(|| {
        // Fall back to the statically named class (e.g. receiver is a
        // stub but the declaration exists elsewhere).
        rt.find_class(&class_desc)
            .and_then(|c| rt.resolve_method(c, &sig))
    });
    let target = match resolved {
        Some(t) => t,
        None => {
            // Framework fallback: a native registered under the statically
            // named class (e.g. `Context.getSystemService` invoked on an
            // `Activity` receiver) is callable without stub wiring.
            let key = native_key(&class_desc, &sig.name, &sig.descriptor);
            if let Some(f) = rt.natives.lookup(&key) {
                rt.stats.native_calls += 1;
                return match f(rt, obs, args) {
                    Ok(v) => Ok(Outcome::Ret(v)),
                    Err(RuntimeError::UncaughtException { type_desc, message }) => {
                        let exc = rt.heap.alloc(ObjKind::Throwable { type_desc, message }, 0);
                        Ok(Outcome::Threw(exc))
                    }
                    Err(e) => Err(e),
                };
            }
            return Err(RuntimeError::MethodNotFound(format!(
                "{class_desc}->{}{}",
                sig.name, sig.descriptor
            )));
        }
    };

    if is_static {
        let class = rt.method(target).class;
        rt.ensure_initialized(obs, class)?;
    }
    execute_inner(rt, obs, target, args, depth + 1)
}

fn find_handler(rt: &mut Runtime, method: MethodId, pc: u32, exc: ObjRef) -> Option<u32> {
    let exc_desc = describe_throwable(rt, exc).0;
    let MethodImpl::Bytecode {
        tries, handlers, ..
    } = &rt.method(method).body
    else {
        return None;
    };
    let tries = tries.clone();
    let handlers = handlers.clone();
    let source = rt.method_source(method)?;
    for t in &tries {
        if !t.covers(pc) {
            continue;
        }
        let Some(handler) = handlers.get(t.handler_index) else {
            continue;
        };
        for clause in &handler.catches {
            let catch_desc = rt
                .dex_table(source)
                .types
                .get(clause.type_idx as usize)
                .cloned();
            let Some(catch_desc) = catch_desc else {
                continue;
            };
            // Match exact type, or catch broad throwable supertypes.
            let matches = catch_desc == exc_desc
                || catch_desc == "Ljava/lang/Throwable;"
                || catch_desc == "Ljava/lang/Exception;"
                || catch_desc == "Ljava/lang/RuntimeException;";
            if matches {
                return Some(clause.addr);
            }
        }
        if let Some(addr) = handler.catch_all_addr {
            return Some(addr);
        }
    }
    None
}
