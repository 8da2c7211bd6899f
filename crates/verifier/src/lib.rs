#![forbid(unsafe_code)]

//! ART-style static bytecode verifier and lint engine over the
//! [`dexlego_dalvik`] instruction model.
//!
//! The DEX container checks in `dexlego_dex::verify` stop at pool
//! referential integrity — nothing there looks *inside* an instruction
//! stream. This crate fills that gap with four layers:
//!
//! 1. **CFG construction** ([`cfg::Cfg`]): basic blocks over the decoded
//!    instruction stream, successor edges for branches/gotos/switch
//!    payloads, exception edges from try/catch tables, payload regions
//!    excluded from reachable code — all addressed by instruction index.
//! 2. **Typestate dataflow** ([`typestate::RegType`]): a worklist fixpoint
//!    over a per-register lattice (`Uninit`, `Const`, int-like, `Float`,
//!    descriptor-carrying `Ref`, `WideLo`/`WideHi` pairing, `Conflict`)
//!    flagging undefined reads, broken wide pairs, stray `move-result`s,
//!    branches off instruction boundaries, and fall-through off the method
//!    end. With DEX context, reference types are tracked per descriptor
//!    over the [`hierarchy::ClassHierarchy`] and checked against declared
//!    signatures, field types, and return types (V0009–V0011).
//! 3. **Lints** (`L####` rules): non-fatal smells — unreachable blocks,
//!    self-moves, dead stores, provably-failing casts and array stores.
//! 4. **Typed IR** ([`typed_ir::TypedIr`]): the fixpoint's per-instruction
//!    register frames, successor edges, and def-use sets, materialized via
//!    [`verify_dex_typed`] so downstream analyses (`analysis::taint`)
//!    consume the verifier's work instead of re-deriving it.
//!
//! Rule codes are stable: `V####` diagnostics are errors and gate
//! reassembly (see `dexlego_core::reassemble`); `L####` diagnostics are
//! warnings. Individual rules can be suppressed via
//! [`VerifyOptions::allow`]. See DESIGN.md ("Verification gate" and "Typed
//! verifier IR") for the full rule table.
//!
//! # Example
//!
//! ```
//! use dexlego_dex::CodeItem;
//! use dexlego_verifier::{verify_method, Rule, VerifyOptions};
//!
//! // add-int v0, v1, v1 reads undefined v1, then return-void.
//! let code = CodeItem::new(2, 0, 0, vec![0x0090, 0x0101, 0x000e]);
//! let diags = verify_method("La;->m()V", &code, &[], &VerifyOptions::default());
//! assert!(diags.iter().any(|d| d.rule == Rule::V0001 && d.dex_pc == 0));
//! ```

mod cache;
pub mod cfg;
mod dataflow;
pub mod diag;
mod effects;
pub mod hierarchy;
mod lint;
pub mod typed_ir;
pub mod typestate;

use std::collections::HashSet;
use std::sync::Arc;

use dexlego_dex::code::CodeItem;
use dexlego_dex::{AccessFlags, DexFile};

pub use cache::VERIFIER_VERSION;
pub use cfg::{Block, Cfg, Edge, EdgeKind};
pub use diag::{Diagnostic, Rule, Severity};
pub use hierarchy::{ClassHierarchy, TypeId};
pub use typed_ir::{TypedInsn, TypedIr};
pub use typestate::RegType;

use dataflow::{Strategy, TypeCtx};

/// Empties the process-level verify cache (benches and tests; production
/// callers never need this — version and epoch digests handle
/// invalidation).
pub fn clear_verify_cache() {
    cache::clear();
}

/// Number of whole-DEX results currently held by the process-level verify
/// cache.
pub fn verify_cache_len() -> usize {
    cache::len()
}

/// Category of one declared method parameter, as seen by the register
/// frame. Derive from descriptors with [`param_kinds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// boolean/byte/char/short/int — one int-like register.
    Int,
    /// float — one float register.
    Float,
    /// long/double — a wide register pair.
    Wide,
    /// Object or array reference (`L...;` / `[...`), including `this`.
    Object,
    /// Unknown category-1 value (used when the signature is unavailable).
    Opaque,
}

impl ParamKind {
    /// The kind for a single type descriptor.
    pub fn of_descriptor(desc: &str) -> ParamKind {
        match desc.as_bytes().first() {
            Some(b'J') | Some(b'D') => ParamKind::Wide,
            Some(b'F') => ParamKind::Float,
            Some(b'L') | Some(b'[') => ParamKind::Object,
            _ => ParamKind::Int,
        }
    }

    /// Registers this parameter occupies.
    pub fn width(self) -> u16 {
        if self == ParamKind::Wide {
            2
        } else {
            1
        }
    }
}

/// Parameter kinds for a method: an implicit `this` reference first unless
/// static, then one entry per declared parameter descriptor.
pub fn param_kinds<S: AsRef<str>>(is_static: bool, params: &[S]) -> Vec<ParamKind> {
    let mut kinds = Vec::with_capacity(params.len() + 1);
    if !is_static {
        kinds.push(ParamKind::Object);
    }
    kinds.extend(params.iter().map(|p| ParamKind::of_descriptor(p.as_ref())));
    kinds
}

/// Verification options: lint enablement, per-rule suppression, and the
/// execution knobs of the fast path (engine, worker count).
///
/// Defaults are the production configuration: the fast fixpoint engine and
/// the worker count resolved from `DEXLEGO_WORKERS`/available parallelism.
/// Both engines produce identical diagnostics and IR (enforced by the
/// differential proptests), so these knobs trade speed, never results.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Skip the lint pass entirely (errors only).
    pub errors_only: bool,
    allowed: HashSet<String>,
    /// Use the pre-optimization engine (the measured baseline).
    reference: bool,
    /// Explicit worker count for whole-DEX verification; `None` resolves
    /// via [`dexlego_pool::resolve_workers`].
    workers: Option<usize>,
}

impl VerifyOptions {
    /// Errors only, no lints.
    pub fn errors_only() -> VerifyOptions {
        VerifyOptions {
            errors_only: true,
            ..VerifyOptions::default()
        }
    }

    /// Suppresses every future diagnostic with the given rule code (e.g.
    /// `"L0003"`). Suppressing a `V####` rule downgrades the gate for that
    /// rule — use with care.
    pub fn allow(mut self, code: &str) -> VerifyOptions {
        self.allowed.insert(code.to_owned());
        self
    }

    /// Selects the pre-optimization sequential engine: per-visit frame
    /// clones, per-range handler scans, no parallelism. This is the
    /// `--baseline` measured by `bench --bin verifier` and the reference
    /// side of the differential proptests. Its results are cached under
    /// their own key, apart from the fast engine's.
    pub fn sequential_reference(mut self) -> VerifyOptions {
        self.reference = true;
        self
    }

    /// Pins the worker count for whole-DEX verification (1 = sequential).
    pub fn with_workers(mut self, workers: usize) -> VerifyOptions {
        self.workers = Some(workers.max(1));
        self
    }

    fn keeps(&self, d: &Diagnostic) -> bool {
        if self.errors_only && !d.is_error() {
            return false;
        }
        !self.allowed.contains(d.rule.code())
    }
}

/// Verifies one method body.
///
/// `method` is the method reference used in diagnostics (any string;
/// `Lpkg/C;->m(...)R` by convention). `params` are the frame's incoming
/// parameter kinds ([`param_kinds`]); pass `&[]` to treat all `ins`
/// registers as unknown-but-defined. Without DEX context, references are
/// tracked untyped; use [`verify_dex_typed`] for descriptor-level checks.
///
/// Returns all diagnostics, errors first within equal pcs. An empty result
/// means the method is verifier-clean.
pub fn verify_method(
    method: &str,
    code: &CodeItem,
    params: &[ParamKind],
    options: &VerifyOptions,
) -> Vec<Diagnostic> {
    let hier = ClassHierarchy::empty();
    let tcx = TypeCtx::bare(&hier);
    verify_method_with(method, code, params, &tcx, options, false).0
}

/// Shared verification core: CFG, dataflow (optionally typed via `tcx`),
/// lints, filtering, and — when `want_ir` — the typed IR with identity
/// fields left for the caller to stamp.
fn verify_method_with(
    method: &str,
    code: &CodeItem,
    params: &[ParamKind],
    tcx: &TypeCtx<'_>,
    options: &VerifyOptions,
    want_ir: bool,
) -> (Vec<Diagnostic>, Option<TypedIr>) {
    let mut diags = Vec::new();
    let mut ir = None;
    match Cfg::build(&code.insns, &code.tries, &code.handlers) {
        Err(e) => {
            diags.push(Diagnostic::new(
                Rule::V0000,
                0,
                format!("bytecode does not decode: {e}"),
            ));
        }
        Ok(cfg) => {
            diags.extend_from_slice(cfg.findings());
            let owned: Vec<ParamKind>;
            let params = if params.is_empty() && code.ins_size > 0 {
                // Unknown signature: treat every in-register as defined.
                owned = vec![ParamKind::Opaque; code.ins_size as usize];
                &owned
            } else {
                params
            };
            let strategy = if options.reference {
                Strategy::Reference
            } else {
                Strategy::Fast
            };
            let frames = dataflow::run(&cfg, code, params, tcx, &mut diags, strategy);
            if !options.errors_only {
                lint::run(&cfg, &mut diags);
            }
            if want_ir {
                ir = Some(TypedIr::build(
                    cfg,
                    frames,
                    code.registers_size,
                    code.ins_size,
                ));
            }
        }
    }
    diags.retain(|d| options.keeps(d));
    for d in &mut diags {
        d.method = method.to_owned();
    }
    diags.sort_by_key(|d| (d.dex_pc, d.rule));
    (diags, ir)
}

/// Verifies every method body in a DEX file.
///
/// Parameter kinds are derived from each method's prototype and access
/// flags, reference types from the DEX class hierarchy. Diagnostics carry
/// full method references.
pub fn verify_dex(dex: &DexFile, options: &VerifyOptions) -> Vec<Diagnostic> {
    verify_dex_inner(dex, options, false).diagnostics
}

/// The result of [`verify_dex_typed`]: diagnostics plus the reusable typed
/// artifacts — the class hierarchy and one [`TypedIr`] per verified method
/// body. This is the "verify + analyze in one fixpoint" entry point:
/// downstream analyses consume the IR instead of re-running the dataflow.
#[derive(Debug, Clone, Default)]
pub struct TypedDex {
    /// The interned class hierarchy of the DEX, shared (`Arc`) with the
    /// verify cache.
    pub hierarchy: Arc<ClassHierarchy>,
    /// Typed IR for every method body, in class-definition order. Shared
    /// (`Arc`) because a verify-cache hit hands out the cached IR without
    /// cloning it.
    pub methods: Vec<Arc<TypedIr>>,
    /// All diagnostics, as from [`verify_dex`].
    pub diagnostics: Vec<Diagnostic>,
    /// Method bodies served from the process-level verify cache. The cache
    /// holds whole-DEX results, so a call hits on every body or on none.
    pub cache_hits: u64,
    /// Method bodies verified from scratch in this call.
    pub cache_misses: u64,
}

impl TypedDex {
    /// Total instructions across all method IRs.
    pub fn insn_count(&self) -> usize {
        self.methods.iter().map(|m| m.len()).sum()
    }
}

/// Verifies every method body and materializes the typed IR. Results are
/// cached per process: re-verifying an identical DEX under the same
/// options is one digest and one lookup.
pub fn verify_dex_typed(dex: &DexFile, options: &VerifyOptions) -> TypedDex {
    verify_dex_inner(dex, options, true)
}

/// Methods below this count are verified sequentially even when more
/// workers are available: thread-scope setup would dominate.
const PARALLEL_THRESHOLD: usize = 16;

/// One method body to verify, in class-definition order.
struct WorkItem<'a> {
    method_idx: u32,
    access: AccessFlags,
    code: &'a CodeItem,
}

fn verify_dex_inner(dex: &DexFile, options: &VerifyOptions, want_ir: bool) -> TypedDex {
    let mut work: Vec<WorkItem<'_>> = Vec::new();
    for class in dex.class_defs() {
        let Some(data) = &class.class_data else {
            continue;
        };
        for method in data.methods() {
            let Some(code) = &method.code else { continue };
            work.push(WorkItem {
                method_idx: method.method_idx,
                access: method.access,
                code,
            });
        }
    }

    // Only typed results are cached: IR-less callers verify each DEX once.
    let key = want_ir.then(|| {
        cache::dex_key(
            dex,
            options,
            work.iter()
                .map(|w| (w.method_idx, w.access.contains(AccessFlags::STATIC), w.code)),
        )
    });
    if let Some(hit) = key.as_ref().and_then(cache::lookup) {
        // The cached result is a fresh one: it missed on every body.
        return TypedDex {
            cache_hits: hit.cache_misses,
            cache_misses: 0,
            ..TypedDex::clone(&hit)
        };
    }
    let hierarchy = Arc::new(ClassHierarchy::from_dex(dex));

    // Verifies one method: the full CFG + fixpoint, returning its
    // diagnostics and, when requested, its identity-stamped shared IR.
    let run_one = |w: &WorkItem<'_>| -> (Vec<Diagnostic>, Option<Arc<TypedIr>>) {
        let sig = dex
            .method_signature(w.method_idx)
            .unwrap_or_else(|_| format!("<method#{}>", w.method_idx));
        let kinds = method_param_kinds(dex, w.method_idx, w.access);
        let param_refs = method_param_refs(dex, &hierarchy, w.method_idx, w.access);
        let tcx = TypeCtx {
            dex: Some(dex),
            hier: &hierarchy,
            ret: method_return_ref(dex, &hierarchy, w.method_idx),
            param_refs: &param_refs,
        };
        let (diags, ir) = verify_method_with(&sig, w.code, &kinds, &tcx, options, want_ir);
        let ir = ir.map(|mut ir| {
            ir.method_idx = w.method_idx;
            ir.signature = sig;
            if let Ok(m) = dex.method_id(w.method_idx) {
                ir.class = dex.type_descriptor(m.class).unwrap_or_default().to_owned();
                ir.name = dex.string(m.name).unwrap_or_default().to_owned();
            }
            Arc::new(ir)
        });
        (diags, ir)
    };

    // Methods are independent and the hierarchy is read-only after
    // interning, so whole-DEX verification fans out per method. The pool
    // preserves submission order, so concatenating per-method results
    // reproduces the sequential output byte for byte regardless of worker
    // count (each method's diagnostics are already sorted; methods stay in
    // class-definition order).
    let workers = dexlego_pool::resolve_workers(options.workers).min(work.len().max(1));
    let results: Vec<(Vec<Diagnostic>, Option<Arc<TypedIr>>)> =
        if workers > 1 && !options.reference && work.len() >= PARALLEL_THRESHOLD {
            let refs: Vec<&WorkItem<'_>> = work.iter().collect();
            dexlego_pool::parallel_map_expect(refs, workers, run_one)
        } else {
            work.iter().map(run_one).collect()
        };

    let mut out = TypedDex {
        hierarchy,
        cache_misses: work.len() as u64,
        ..TypedDex::default()
    };
    for (diags, ir) in results {
        out.diagnostics.extend(diags);
        out.methods.extend(ir);
    }
    if let Some(key) = key {
        cache::insert(key, out.clone());
    }
    out
}

/// Parameter kinds for a pool method, from its prototype and access flags.
pub fn method_param_kinds(dex: &DexFile, method_idx: u32, access: AccessFlags) -> Vec<ParamKind> {
    let mut descs = Vec::new();
    if let Ok(m) = dex.method_id(method_idx) {
        if let Ok(proto) = dex.proto(m.proto) {
            for &p in &proto.parameters {
                if let Ok(d) = dex.type_descriptor(p) {
                    descs.push(d.to_owned());
                }
            }
        }
    }
    param_kinds(access.contains(AccessFlags::STATIC), &descs)
}

/// Interned reference types for a pool method's parameters, aligned with
/// [`method_param_kinds`] (the implicit `this` first unless static).
fn method_param_refs(
    dex: &DexFile,
    hier: &ClassHierarchy,
    method_idx: u32,
    access: AccessFlags,
) -> Vec<Option<TypeId>> {
    let mut refs = Vec::new();
    let Ok(m) = dex.method_id(method_idx) else {
        return refs;
    };
    if !access.contains(AccessFlags::STATIC) {
        refs.push(
            dex.type_descriptor(m.class)
                .ok()
                .and_then(|d| hier.lookup(d)),
        );
    }
    if let Ok(proto) = dex.proto(m.proto) {
        for &p in &proto.parameters {
            let r = dex.type_descriptor(p).ok().and_then(|d| {
                if d.starts_with('L') || d.starts_with('[') {
                    hier.lookup(d)
                } else {
                    None
                }
            });
            refs.push(r);
        }
    }
    refs
}

/// The declared return type of a pool method, when it is a reference type.
fn method_return_ref(dex: &DexFile, hier: &ClassHierarchy, method_idx: u32) -> Option<TypeId> {
    let m = dex.method_id(method_idx).ok()?;
    let proto = dex.proto(m.proto).ok()?;
    let desc = dex.type_descriptor(proto.return_type).ok()?;
    if desc.starts_with('L') || desc.starts_with('[') {
        hier.lookup(desc)
    } else {
        None
    }
}

/// Convenience: true when `diags` contains no error-severity diagnostics.
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    !diags.iter().any(Diagnostic::is_error)
}
