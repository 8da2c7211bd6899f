//! The whole-program static taint engine.
//!
//! A register-level abstract interpreter over Dalvik bytecode with
//! interprocedural method summaries, a field-based heap abstraction, and a
//! global fixpoint. Capability axes (flow sensitivity, implicit flows, ICC
//! modelling, array precision, reflection string resolution, call-depth
//! bound) are configuration, which is how the three tool profiles in
//! [`crate::tools`] differ.

use std::collections::{HashMap, HashSet, VecDeque};

use dexlego_dalvik::{Insn, Opcode};
use dexlego_dex::DexFile;
use dexlego_verifier::{
    verify_dex_typed, ClassHierarchy, TypeId, TypedDex, TypedIr, VerifyOptions,
};

use crate::sources_sinks::{classify, is_framework_class, FrameworkModel};

/// Engine configuration: the capability axes of a static analysis tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Strong updates and CFG-ordered propagation (false = flow-insensitive
    /// union over all statements, DroidSafe-style).
    pub flow_sensitive: bool,
    /// Model implicit flows through tainted branch conditions.
    pub implicit_flows: bool,
    /// Connect inter-component `putExtra`/`getExtra` pairs.
    pub icc: bool,
    /// Value-sensitive array modelling: writes at statically unknown
    /// indices are assumed not to alias later reads (an approximation of
    /// HornDroid's value sensitivity; see DESIGN.md).
    pub precise_arrays: bool,
    /// Resolve reflective calls whose class/method names are compile-time
    /// constant strings.
    pub reflection_constant_strings: bool,
    /// Prune virtual-dispatch fallback targets the class hierarchy proves
    /// impossible for the receiver's verifier-inferred static type
    /// (false = the untyped name+descriptor over-approximation, kept as an
    /// ablation of the typed IR's precision win).
    pub hierarchy_dispatch: bool,
    /// Maximum source-to-sink call-chain length (None = unbounded);
    /// models analysis depth/scalability limits.
    pub max_call_depth: Option<u32>,
    /// Cap on global fixpoint iterations.
    pub max_global_iterations: usize,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            flow_sensitive: true,
            implicit_flows: false,
            icc: true,
            precise_arrays: false,
            reflection_constant_strings: true,
            hierarchy_dispatch: true,
            max_call_depth: None,
            max_global_iterations: 20,
        }
    }
}

/// One detected source-to-sink flow.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Leak {
    /// Method containing the sink call.
    pub method: String,
    /// `dex_pc` of the sink invocation.
    pub dex_pc: u32,
    /// Interprocedural hop count of the full chain.
    pub depth: u32,
}

/// Analysis output.
#[derive(Debug, Clone, Default)]
pub struct AnalysisResult {
    /// All detected leaks, deduplicated by (method, pc).
    pub leaks: Vec<Leak>,
    /// Methods analysed.
    pub methods_analyzed: usize,
}

impl AnalysisResult {
    /// Whether any leak was found (the per-sample verdict).
    pub fn leaky(&self) -> bool {
        !self.leaks.is_empty()
    }
}

// ---- abstract domain --------------------------------------------------------

/// Taint of a register: an optional source chain (with hop depth) plus a
/// bitmask of parameter slots it may derive from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Taint {
    source: Option<u32>,
    params: u64,
}

impl Taint {
    const CLEAN: Taint = Taint {
        source: None,
        params: 0,
    };
    fn from_param(slot: usize) -> Taint {
        Taint {
            source: None,
            params: 1u64 << slot.min(63),
        }
    }
    fn source(depth: u32) -> Taint {
        Taint {
            source: Some(depth),
            params: 0,
        }
    }
    fn join(self, other: Taint) -> Taint {
        Taint {
            source: match (self.source, other.source) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            params: self.params | other.params,
        }
    }
    fn is_clean(self) -> bool {
        self.source.is_none() && self.params == 0
    }
    fn bump(self) -> Taint {
        Taint {
            source: self.source.map(|d| d + 1),
            params: self.params,
        }
    }
}

/// Constant tracked in a register (for reflection resolution and array
/// index precision).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Known {
    #[default]
    None,
    Str(String),
    Int(i64),
    Class(String),
    Method(String, String),
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Reg {
    taint: Taint,
    known: Known,
}

fn join_regs(a: &[Reg], b: &[Reg]) -> Vec<Reg> {
    a.iter()
        .zip(b)
        .map(|(x, y)| Reg {
            taint: x.taint.join(y.taint),
            // `Known::None` is the bottom of the constant lattice ("not yet
            // defined"), so a constant survives joining with it; two
            // *different* constants join to unknown.
            known: match (&x.known, &y.known) {
                (Known::None, k) | (k, Known::None) => k.clone(),
                (k1, k2) if k1 == k2 => k1.clone(),
                _ => Known::None,
            },
        })
        .collect()
}

// ---- summaries --------------------------------------------------------------

#[derive(Debug, Clone, Default, PartialEq)]
struct Summary {
    arg_to_ret: u64,
    source_to_ret: Option<u32>,
    arg_to_sink: HashMap<usize, u32>,
}

#[derive(Debug, Default, PartialEq, Clone)]
struct Globals {
    fields: HashMap<String, Taint>,
    icc: Option<u32>,
}

struct Engine<'a> {
    dex: &'a DexFile,
    config: &'a AnalysisConfig,
    /// Typed IR per application method, straight from the verifier's
    /// fixpoint: decoded instructions, normal-flow successor indices
    /// (branch targets validated, switch payloads resolved, exception
    /// edges excluded), and per-instruction register frames.
    methods: Vec<std::sync::Arc<TypedIr>>,
    /// The DEX class hierarchy, shared with the verifier.
    hier: std::sync::Arc<ClassHierarchy>,
    /// Declaring-class type id per method, aligned with `methods`.
    class_ids: Vec<Option<TypeId>>,
    by_sig: HashMap<String, usize>,
    by_name_desc: HashMap<(String, String), Vec<usize>>,
    summaries: HashMap<String, Summary>,
    globals: Globals,
    leaks: HashSet<Leak>,
}

/// Runs the engine over every method of `dex`.
///
/// All application methods are treated as analysis roots (real tools
/// over-approximate Android entry points the same way; this is what makes
/// dead-code false positives possible on original DEX files and impossible
/// on DexLego's executed-code-only output).
pub fn analyze(dex: &DexFile, config: &AnalysisConfig) -> AnalysisResult {
    // One fixpoint, two consumers: the verifier's typed dataflow already
    // built every CFG and register frame, so the taint engine starts from
    // its IR instead of re-deriving either.
    let TypedDex {
        hierarchy, methods, ..
    } = verify_dex_typed(dex, &VerifyOptions::errors_only());
    let methods: Vec<std::sync::Arc<TypedIr>> = methods
        .into_iter()
        .filter(|m| !is_framework_class(&m.class))
        .collect();
    let class_ids: Vec<Option<TypeId>> =
        methods.iter().map(|m| hierarchy.lookup(&m.class)).collect();

    let mut by_sig = HashMap::new();
    let mut by_name_desc: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (i, m) in methods.iter().enumerate() {
        by_sig.insert(m.signature.clone(), i);
        by_name_desc
            .entry((m.name.clone(), descriptor_of_sig(&m.signature)))
            .or_default()
            .push(i);
    }

    let mut engine = Engine {
        dex,
        config,
        methods,
        hier: hierarchy,
        class_ids,
        by_sig,
        by_name_desc,
        summaries: HashMap::new(),
        globals: Globals::default(),
        leaks: HashSet::new(),
    };

    for _ in 0..config.max_global_iterations {
        let before_summaries = engine.summaries.clone();
        let before_globals = engine.globals.clone();
        engine.leaks.clear();
        for i in 0..engine.methods.len() {
            engine.analyze_method(i);
        }
        if engine.summaries == before_summaries && engine.globals == before_globals {
            break;
        }
    }

    let mut leaks: Vec<Leak> = engine.leaks.into_iter().collect();
    leaks.sort_by(|a, b| (&a.method, a.dex_pc).cmp(&(&b.method, b.dex_pc)));
    // Deduplicate per call site, keeping the shallowest chain.
    leaks.dedup_by(|a, b| a.method == b.method && a.dex_pc == b.dex_pc);
    AnalysisResult {
        leaks,
        methods_analyzed: engine.methods.len(),
    }
}

fn descriptor_of_sig(sig: &str) -> String {
    sig.split_once("->")
        .and_then(|(_, rest)| rest.find('(').map(|i| rest[i..].to_owned()))
        .unwrap_or_default()
}

impl Engine<'_> {
    fn analyze_method(&mut self, index: usize) {
        // Two passes when implicit flows are on: the first discovers tainted
        // branch conditions, the second applies the implicit context.
        let ctx = self.run_method(index, Taint::CLEAN);
        if self.config.implicit_flows && !ctx.is_clean() {
            self.run_method(index, ctx);
        }
    }

    /// Runs the abstract interpretation of one method under the given
    /// implicit context; returns the union of branch-condition taints seen.
    fn run_method(&mut self, index: usize, implicit_ctx: Taint) -> Taint {
        // A handle on the shared IR: successors are read from it while
        // `transfer` mutates the engine.
        let ir = std::sync::Arc::clone(&self.methods[index]);
        let registers = ir.registers as usize;
        let ins = ir.ins as usize;
        let sig = ir.signature.clone();
        let insn_count = ir.len();

        // Initial state: parameters in the top `ins` registers.
        let mut init = vec![Reg::default(); registers];
        for (slot, reg) in init.iter_mut().skip(registers - ins).enumerate() {
            reg.taint = Taint::from_param(slot);
        }

        let mut branch_taint = Taint::CLEAN;
        let mut summary = Summary::default();

        if insn_count == 0 {
            return branch_taint;
        }

        if self.config.flow_sensitive {
            // Worklist over instruction granularity (block-free but
            // flow-ordered; joins happen at every instruction). Successor
            // indices come straight from the typed IR.
            let mut states: Vec<Option<Vec<Reg>>> = vec![None; insn_count];
            states[0] = Some(init);
            let mut work: VecDeque<usize> = VecDeque::new();
            work.push_back(0);
            let mut visits = vec![0usize; insn_count];
            while let Some(i) = work.pop_front() {
                visits[i] += 1;
                if visits[i] > 64 {
                    continue; // widen by truncation; states are finite anyway
                }
                let state = states[i].clone().unwrap_or_default();
                let next_state = self.transfer(
                    index,
                    i,
                    state,
                    &mut summary,
                    &mut branch_taint,
                    implicit_ctx,
                );
                for &succ in ir.insn(i).succs() {
                    let succ = succ as usize;
                    match &mut states[succ] {
                        Some(entry) => {
                            let joined = join_regs(entry, &next_state);
                            if joined != *entry {
                                *entry = joined;
                                work.push_back(succ);
                            }
                        }
                        slot => {
                            *slot = Some(next_state.clone());
                            work.push_back(succ);
                        }
                    }
                }
            }
        } else {
            // Flow-insensitive: one shared state, no strong updates,
            // iterate to a local fixpoint.
            let mut state = init;
            for _ in 0..8 {
                let before = state.clone();
                for i in 0..insn_count {
                    let next = self.transfer(
                        index,
                        i,
                        state.clone(),
                        &mut summary,
                        &mut branch_taint,
                        implicit_ctx,
                    );
                    state = join_regs(&state, &next);
                }
                if state == before {
                    break;
                }
            }
        }

        let changed = self.summaries.get(&sig) != Some(&summary);
        if changed {
            let entry = self.summaries.entry(sig).or_default();
            // Join monotonically.
            entry.arg_to_ret |= summary.arg_to_ret;
            entry.source_to_ret = match (entry.source_to_ret, summary.source_to_ret) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            for (k, v) in summary.arg_to_sink {
                let slot = entry.arg_to_sink.entry(k).or_insert(v);
                *slot = (*slot).min(v);
            }
        }
        branch_taint
    }

    /// Abstract transfer of instruction `i`; the caller follows its
    /// normal-flow successors in the typed IR (validated branch targets,
    /// resolved switch payload entries, and fall-through — exception edges
    /// excluded, matching the engine's handler-blind over-approximation).
    #[allow(clippy::too_many_lines)]
    fn transfer(
        &mut self,
        index: usize,
        i: usize,
        mut state: Vec<Reg>,
        summary: &mut Summary,
        branch_taint: &mut Taint,
        implicit_ctx: Taint,
    ) -> Vec<Reg> {
        // Borrow the instruction from a handle on the shared IR, not from
        // `self`, which the transfer mutates.
        let ir = std::sync::Arc::clone(&self.methods[index]);
        let ti = ir.insn(i);
        let (pc, insn) = (ti.pc(), ti.insn());

        let get = |state: &[Reg], r: u32| state.get(r as usize).cloned().unwrap_or_default();
        let set = |state: &mut [Reg], r: u32, v: Reg| {
            if let Some(slot) = state.get_mut(r as usize) {
                *slot = v;
            }
        };

        match insn.op {
            Opcode::Move
            | Opcode::MoveFrom16
            | Opcode::Move16
            | Opcode::MoveObject
            | Opcode::MoveObjectFrom16
            | Opcode::MoveObject16
            | Opcode::MoveWide
            | Opcode::MoveWideFrom16
            | Opcode::MoveWide16 => {
                let v = get(&state, insn.b);
                set(&mut state, insn.a, v);
            }
            Opcode::Const4
            | Opcode::Const16
            | Opcode::Const
            | Opcode::ConstHigh16
            | Opcode::ConstWide16
            | Opcode::ConstWide32
            | Opcode::ConstWide
            | Opcode::ConstWideHigh16 => {
                set(
                    &mut state,
                    insn.a,
                    Reg {
                        taint: Taint::CLEAN,
                        known: Known::Int(insn.lit),
                    },
                );
            }
            Opcode::ConstString | Opcode::ConstStringJumbo => {
                let s = self.dex.string(insn.idx).unwrap_or_default().to_owned();
                set(
                    &mut state,
                    insn.a,
                    Reg {
                        taint: Taint::CLEAN,
                        known: Known::Str(s),
                    },
                );
            }
            Opcode::ConstClass => {
                let c = self
                    .dex
                    .type_descriptor(insn.idx)
                    .unwrap_or_default()
                    .to_owned();
                set(
                    &mut state,
                    insn.a,
                    Reg {
                        taint: Taint::CLEAN,
                        known: Known::Class(c),
                    },
                );
            }
            op if op.is_conditional_branch() => {
                let mut t = get(&state, insn.a).taint;
                if matches!(op.format(), dexlego_dalvik::Format::F22t) {
                    t = t.join(get(&state, insn.b).taint);
                }
                *branch_taint = branch_taint.join(t);
            }
            Opcode::Goto | Opcode::Goto16 | Opcode::Goto32 => {}
            Opcode::PackedSwitch | Opcode::SparseSwitch => {
                *branch_taint = branch_taint.join(get(&state, insn.a).taint);
            }
            Opcode::Return | Opcode::ReturnObject | Opcode::ReturnWide => {
                let t = get(&state, insn.a).taint.join(implicit_ctx);
                summary.arg_to_ret |= t.params;
                if let Some(d) = t.source {
                    let bumped = d + 1;
                    summary.source_to_ret =
                        Some(summary.source_to_ret.map_or(bumped, |cur| cur.min(bumped)));
                }
            }
            Opcode::Aget
            | Opcode::AgetWide
            | Opcode::AgetObject
            | Opcode::AgetBoolean
            | Opcode::AgetByte
            | Opcode::AgetChar
            | Opcode::AgetShort => {
                let arr = get(&state, insn.b);
                set(
                    &mut state,
                    insn.a,
                    Reg {
                        taint: arr.taint,
                        known: Known::None,
                    },
                );
            }
            Opcode::Aput
            | Opcode::AputWide
            | Opcode::AputObject
            | Opcode::AputBoolean
            | Opcode::AputByte
            | Opcode::AputChar
            | Opcode::AputShort => {
                let idx_known = matches!(get(&state, insn.c).known, Known::Int(_));
                if !self.config.precise_arrays || idx_known {
                    let val = get(&state, insn.a).taint;
                    let arr = get(&state, insn.b);
                    set(
                        &mut state,
                        insn.b,
                        Reg {
                            taint: arr.taint.join(val),
                            known: arr.known,
                        },
                    );
                }
            }
            Opcode::Sget
            | Opcode::SgetWide
            | Opcode::SgetObject
            | Opcode::SgetBoolean
            | Opcode::SgetByte
            | Opcode::SgetChar
            | Opcode::SgetShort
            | Opcode::Iget
            | Opcode::IgetWide
            | Opcode::IgetObject
            | Opcode::IgetBoolean
            | Opcode::IgetByte
            | Opcode::IgetChar
            | Opcode::IgetShort => {
                let field = self.dex.field_signature(insn.idx).unwrap_or_default();
                let taint = self
                    .globals
                    .fields
                    .get(&field)
                    .copied()
                    .unwrap_or(Taint::CLEAN);
                set(
                    &mut state,
                    insn.a,
                    Reg {
                        taint,
                        known: Known::None,
                    },
                );
            }
            Opcode::Sput
            | Opcode::SputWide
            | Opcode::SputObject
            | Opcode::SputBoolean
            | Opcode::SputByte
            | Opcode::SputChar
            | Opcode::SputShort
            | Opcode::Iput
            | Opcode::IputWide
            | Opcode::IputObject
            | Opcode::IputBoolean
            | Opcode::IputByte
            | Opcode::IputChar
            | Opcode::IputShort => {
                let field = self.dex.field_signature(insn.idx).unwrap_or_default();
                let val = get(&state, insn.a).taint.join(implicit_ctx);
                // Fields carry source taint only: parameter bits are
                // meaningless outside the current frame.
                if val.source.is_some() {
                    let entry = self.globals.fields.entry(field).or_insert(Taint::CLEAN);
                    *entry = entry.join(Taint {
                        source: val.source,
                        params: 0,
                    });
                }
            }
            op if op.is_invoke() => {
                let args: Vec<Reg> = insn.regs.iter().map(|&r| get(&state, r)).collect();
                // The receiver's static type from the verifier frame, used
                // to prune infeasible virtual-dispatch fallbacks.
                let recv_ty = if matches!(op, Opcode::InvokeStatic | Opcode::InvokeStaticRange) {
                    None
                } else {
                    insn.regs.first().and_then(|&r| ti.ref_type(r))
                };
                let ret = self.apply_invoke(insn, &args, recv_ty, pc, index, summary, implicit_ctx);
                // move-result writes happen via the following instruction;
                // model by stashing in a pseudo-register... simplest: apply
                // to the *next* instruction if it is a move-result.
                if let Some(next) = ir.get(i + 1).map(|next| next.insn()) {
                    if matches!(
                        next.op,
                        Opcode::MoveResult | Opcode::MoveResultWide | Opcode::MoveResultObject
                    ) {
                        let a = next.a;
                        set(&mut state, a, ret);
                    }
                }
                // Receiver mutation for StringBuilder-style propagation.
                if let Some((class, name, _)) = self.invoke_target(insn) {
                    if let FrameworkModel::PropagateToReceiverAndReturn = classify(&class, &name) {
                        let union = args.iter().fold(Taint::CLEAN, |a, r| a.join(r.taint));
                        if let Some(&recv) = insn.regs.first() {
                            let old = get(&state, recv);
                            set(
                                &mut state,
                                recv,
                                Reg {
                                    taint: old.taint.join(union),
                                    known: old.known,
                                },
                            );
                        }
                    }
                }
            }
            Opcode::MoveResult | Opcode::MoveResultWide | Opcode::MoveResultObject => {
                // Handled alongside the invoke; nothing to do here (the
                // state already contains the result if the predecessor was
                // an invoke).
            }
            Opcode::FilledNewArray | Opcode::FilledNewArrayRange => {
                let union = insn
                    .regs
                    .iter()
                    .fold(Taint::CLEAN, |a, &r| a.join(get(&state, r).taint));
                if let Some(next) = ir.get(i + 1).map(|next| next.insn()) {
                    if next.op == Opcode::MoveResultObject {
                        let a = next.a;
                        set(
                            &mut state,
                            a,
                            Reg {
                                taint: union,
                                known: Known::None,
                            },
                        );
                    }
                }
            }
            // Unary/binary arithmetic: dst gets union of operand taints.
            op => {
                let operands: Vec<u32> = match op.format() {
                    dexlego_dalvik::Format::F12x
                    | dexlego_dalvik::Format::F22s
                    | dexlego_dalvik::Format::F22b
                    | dexlego_dalvik::Format::F22x => vec![insn.b],
                    dexlego_dalvik::Format::F23x => vec![insn.b, insn.c],
                    _ => vec![],
                };
                if !operands.is_empty() {
                    let t = operands
                        .iter()
                        .fold(Taint::CLEAN, |a, &r| a.join(get(&state, r).taint));
                    set(
                        &mut state,
                        insn.a,
                        Reg {
                            taint: t,
                            known: Known::None,
                        },
                    );
                }
            }
        }

        state
    }

    fn invoke_target(&self, insn: &Insn) -> Option<(String, String, String)> {
        let m = self.dex.method_id(insn.idx).ok()?;
        let class = self.dex.type_descriptor(m.class).ok()?.to_owned();
        let name = self.dex.string(m.name).ok()?.to_owned();
        let sig = self.dex.method_signature(insn.idx).ok()?;
        Some((class, name, sig))
    }

    fn within_depth(&self, depth: u32) -> bool {
        self.config.max_call_depth.is_none_or(|cap| depth <= cap)
    }

    fn report_leak(&mut self, index: usize, pc: u32, depth: u32) {
        if !self.within_depth(depth) {
            return;
        }
        self.leaks.insert(Leak {
            method: self.methods[index].signature.clone(),
            dex_pc: pc,
            depth,
        });
    }

    fn app_summary_for(
        &self,
        class: &str,
        name: &str,
        desc: &str,
        recv_ty: Option<TypeId>,
    ) -> Option<Summary> {
        let sig = format!("{class}->{name}{desc}");
        if let Some(&i) = self.by_sig.get(&sig) {
            return self.summaries.get(&self.methods[i].signature).cloned();
        }
        // Virtual/interface dispatch fallback: any app method with the same
        // name and descriptor (over-approximation), minus candidates the
        // class hierarchy proves impossible — the runtime receiver is a
        // subtype of its static type, so a method declared in a provably
        // disjoint class can never be selected.
        let candidates = self.by_name_desc.get(&(name.to_owned(), desc.to_owned()))?;
        let mut merged = Summary::default();
        let mut found = false;
        for &i in candidates {
            if self.config.hierarchy_dispatch {
                if let (Some(t), Some(c)) = (recv_ty, self.class_ids[i]) {
                    if self.hier.provably_disjoint(c, t) {
                        continue;
                    }
                }
            }
            if let Some(s) = self.summaries.get(&self.methods[i].signature) {
                found = true;
                merged.arg_to_ret |= s.arg_to_ret;
                merged.source_to_ret = match (merged.source_to_ret, s.source_to_ret) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                for (&k, &v) in &s.arg_to_sink {
                    let e = merged.arg_to_sink.entry(k).or_insert(v);
                    *e = (*e).min(v);
                }
            }
        }
        found.then_some(merged)
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn apply_invoke(
        &mut self,
        insn: &Insn,
        args: &[Reg],
        recv_ty: Option<TypeId>,
        pc: u32,
        index: usize,
        summary: &mut Summary,
        implicit_ctx: Taint,
    ) -> Reg {
        let Some((class, name, sig)) = self.invoke_target(insn) else {
            return Reg::default();
        };
        let desc = descriptor_of_sig(&sig);
        let arg_union = args.iter().fold(Taint::CLEAN, |a, r| a.join(r.taint));

        // Reflection: Method.invoke on a statically known target.
        if class == "Ljava/lang/reflect/Method;" && name == "invoke" {
            if self.config.reflection_constant_strings {
                if let Some(Known::Method(tclass, tname)) = args.first().map(|r| r.known.clone()) {
                    if let Some((t_sig_desc, t_summary)) = self.resolve_reflective(&tclass, &tname)
                    {
                        let _ = t_sig_desc;
                        // Receiver + boxed args both flow into the callee.
                        let passed = args
                            .get(1)
                            .map(|r| r.taint)
                            .unwrap_or(Taint::CLEAN)
                            .join(args.get(2).map(|r| r.taint).unwrap_or(Taint::CLEAN))
                            .join(implicit_ctx);
                        return self.apply_app_summary(
                            &t_summary,
                            &[passed, passed],
                            pc,
                            index,
                            summary,
                        );
                    }
                }
            }
            return Reg::default();
        }

        // Reflection bookkeeping for Known tracking.
        if class == "Ljava/lang/Class;" && name == "forName" {
            if let Some(Known::Str(s)) = args.first().map(|r| r.known.clone()) {
                let desc = if s.starts_with('L') && s.ends_with(';') {
                    s
                } else {
                    format!("L{};", s.replace('.', "/"))
                };
                return Reg {
                    taint: Taint::CLEAN,
                    known: Known::Class(desc),
                };
            }
            return Reg::default();
        }
        if class == "Ljava/lang/Class;" && name == "getMethod" {
            if let (Some(Known::Class(c)), Some(Known::Str(n))) = (
                args.first().map(|r| r.known.clone()),
                args.get(1).map(|r| r.known.clone()),
            ) {
                return Reg {
                    taint: Taint::CLEAN,
                    known: Known::Method(c, n),
                };
            }
            return Reg::default();
        }
        if class == "Ljava/lang/Object;" && name == "getClass" {
            return Reg::default();
        }

        if is_framework_class(&class) {
            match classify(&class, &name) {
                FrameworkModel::Source => {
                    return Reg {
                        taint: Taint::source(0),
                        known: Known::None,
                    }
                }
                FrameworkModel::Sink(slots) => {
                    for slot in slots {
                        let t = args
                            .get(slot)
                            .map(|r| r.taint)
                            .unwrap_or(Taint::CLEAN)
                            .join(implicit_ctx);
                        if let Some(d) = t.source {
                            self.report_leak(index, pc, d);
                        }
                        for p in 0..64 {
                            if t.params & (1 << p) != 0 {
                                let e = summary.arg_to_sink.entry(p).or_insert(0);
                                *e = 0;
                            }
                        }
                    }
                    return Reg::default();
                }
                FrameworkModel::PropagateToReturn
                | FrameworkModel::PropagateToReceiverAndReturn => {
                    return Reg {
                        taint: arg_union,
                        known: Known::None,
                    }
                }
                FrameworkModel::IccPut(slot) => {
                    if self.config.icc {
                        let t = args
                            .get(slot)
                            .map(|r| r.taint)
                            .unwrap_or(Taint::CLEAN)
                            .join(implicit_ctx);
                        if let Some(d) = t.source {
                            let bumped = d + 1;
                            self.globals.icc =
                                Some(self.globals.icc.map_or(bumped, |c| c.min(bumped)));
                        }
                    }
                    return Reg::default();
                }
                FrameworkModel::IccGet => {
                    if self.config.icc {
                        if let Some(d) = self.globals.icc {
                            return Reg {
                                taint: Taint::source(d),
                                known: Known::None,
                            };
                        }
                    }
                    return Reg::default();
                }
                FrameworkModel::Neutral => return Reg::default(),
            }
        }

        // Application callee.
        match self.app_summary_for(&class, &name, &desc, recv_ty) {
            Some(callee) => {
                let taints: Vec<Taint> = args.iter().map(|r| r.taint.join(implicit_ctx)).collect();
                self.apply_app_summary(&callee, &taints, pc, index, summary)
            }
            None => Reg::default(),
        }
    }

    fn resolve_reflective(&self, class: &str, name: &str) -> Option<(String, Summary)> {
        // Match any method of the class with the given name.
        for (i, m) in self.methods.iter().enumerate() {
            if m.class == class && m.name == name {
                let sum = self.summaries.get(&self.methods[i].signature).cloned()?;
                return Some((m.signature.clone(), sum));
            }
        }
        None
    }

    fn apply_app_summary(
        &mut self,
        callee: &Summary,
        arg_taints: &[Taint],
        pc: u32,
        index: usize,
        summary: &mut Summary,
    ) -> Reg {
        // Arg-to-sink flows.
        for (&slot, &hops) in &callee.arg_to_sink {
            let Some(&t) = arg_taints.get(slot) else {
                continue;
            };
            if let Some(d) = t.source {
                self.report_leak(index, pc, d + hops + 1);
            }
            for p in 0..64 {
                if t.params & (1 << p) != 0 {
                    let e = summary.arg_to_sink.entry(p).or_insert(hops + 1);
                    *e = (*e).min(hops + 1);
                }
            }
        }
        // Return taint.
        let mut ret = Taint::CLEAN;
        if let Some(d) = callee.source_to_ret {
            ret = ret.join(Taint::source(d));
        }
        for (slot, &t) in arg_taints.iter().enumerate() {
            if callee.arg_to_ret & (1 << slot.min(63)) != 0 {
                ret = ret.join(t.bump());
            }
        }
        Reg {
            taint: ret,
            known: Known::None,
        }
    }
}
