//! The [`Runtime`] — owner of linked classes, heap, natives, and the event
//! log — plus name resolution and class initialisation.

use std::collections::HashMap;
use std::sync::Arc;

use dexlego_dex::AccessFlags;

use crate::class::{
    ClassId, FieldId, MethodId, MethodImpl, RuntimeClass, RuntimeField, RuntimeMethod, SigKey,
};
use crate::code_cache::CodeCache;
use crate::events::EventLog;
use crate::heap::{Heap, ObjRef};
use crate::natives::NativeRegistry;
use crate::observer::RuntimeObserver;
use crate::value::{RetVal, Slot, WideValue};

/// Hard (non-Java-exception) runtime failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A class descriptor could not be resolved.
    ClassNotFound(String),
    /// A method signature could not be resolved.
    MethodNotFound(String),
    /// A field could not be resolved.
    FieldNotFound(String),
    /// An instruction stream failed to decode.
    Dalvik(dexlego_dalvik::DalvikError),
    /// A DEX model was inconsistent.
    Dex(dexlego_dex::DexError),
    /// A Java exception propagated out of the outermost frame.
    UncaughtException {
        /// Exception type descriptor.
        type_desc: String,
        /// Detail message.
        message: String,
    },
    /// The per-execution instruction budget was exhausted (runaway loop).
    BudgetExhausted,
    /// Interpreter frame depth limit exceeded.
    StackOverflow,
    /// A native method had no registered implementation.
    NativeMissing(String),
    /// The interpreter reached an opcode it does not implement.
    UnimplementedOpcode {
        /// The decoded opcode.
        opcode: dexlego_dalvik::Opcode,
        /// Code-unit offset of the instruction within its method.
        dex_pc: u32,
    },
    /// Internal invariant violation.
    Internal(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ClassNotFound(d) => write!(f, "class not found: {d}"),
            RuntimeError::MethodNotFound(m) => write!(f, "method not found: {m}"),
            RuntimeError::FieldNotFound(x) => write!(f, "field not found: {x}"),
            RuntimeError::Dalvik(e) => write!(f, "bytecode error: {e}"),
            RuntimeError::Dex(e) => write!(f, "dex error: {e}"),
            RuntimeError::UncaughtException { type_desc, message } => {
                write!(f, "uncaught exception {type_desc}: {message}")
            }
            RuntimeError::BudgetExhausted => write!(f, "instruction budget exhausted"),
            RuntimeError::StackOverflow => write!(f, "interpreter stack overflow"),
            RuntimeError::NativeMissing(m) => write!(f, "native method not registered: {m}"),
            RuntimeError::UnimplementedOpcode { opcode, dex_pc } => write!(
                f,
                "unimplemented opcode {} ({:#04x}) at {dex_pc:#06x}",
                opcode.mnemonic(),
                *opcode as u8
            ),
            RuntimeError::Internal(m) => write!(f, "internal runtime error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<dexlego_dalvik::DalvikError> for RuntimeError {
    fn from(e: dexlego_dalvik::DalvikError) -> RuntimeError {
        RuntimeError::Dalvik(e)
    }
}

impl From<dexlego_dex::DexError> for RuntimeError {
    fn from(e: dexlego_dex::DexError) -> RuntimeError {
        RuntimeError::Dex(e)
    }
}

/// Convenience alias for results with [`RuntimeError`].
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Per-DEX-source constant-pool resolution table: maps the indices embedded
/// in a loaded DEX's instructions to symbolic names resolvable at runtime
/// (how ART's dex caches behave).
#[derive(Debug, Clone, Default)]
pub struct DexTable {
    /// String pool.
    pub strings: Vec<String>,
    /// Type descriptors.
    pub types: Vec<String>,
    /// Method references: (class descriptor, signature).
    pub methods: Vec<(String, SigKey)>,
    /// Field references: (class descriptor, field name, type descriptor).
    pub fields: Vec<(String, String, String)>,
    /// Tag this table was loaded under.
    pub source: String,
}

/// Environment knobs that samples can probe (anti-analysis behaviours).
#[derive(Debug, Clone)]
pub struct Env {
    /// Whether the runtime reports itself as an emulator
    /// (`EmulatorDetection1` probes this).
    pub is_emulator: bool,
    /// Whether the device is a tablet (the paper's one missed flow leaks
    /// only on tablets).
    pub is_tablet: bool,
    /// Maximum instructions per outermost execution.
    pub insn_budget: u64,
    /// Maximum interpreter frame depth.
    pub max_depth: usize,
}

impl Default for Env {
    fn default() -> Env {
        Env {
            is_emulator: false,
            is_tablet: false,
            insn_budget: 50_000_000,
            // Each interpreter frame is a sizeable recursive Rust call;
            // 64 nested frames stay well inside a 2 MiB test-thread stack
            // while exceeding any call depth the corpus needs.
            max_depth: 64,
        }
    }
}

/// Execution statistics for the performance experiments.
///
/// The last four count the quickened tier, which only frames under a
/// passive observer (one that wants no instruction events) enter; a run
/// under an event-wanting observer leaves them at zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Total bytecode instructions interpreted.
    pub insns: u64,
    /// Total method frames entered.
    pub frames: u64,
    /// Total native invocations.
    pub native_calls: u64,
    /// Full-method predecodes performed by the code cache (misses and
    /// invalidation rebuilds; steady state stays flat).
    pub predecodes: u64,
    /// Instructions rewritten in place to a pre-resolved quickened form
    /// (each cell quickens at most once per predecode).
    pub quickens: u64,
    /// Quickened cells discarded because a method body was mutated
    /// (self-modifying code forcing de-quickening).
    pub dequickens: u64,
    /// Superinstruction executions: each hit dispatches one fused pair
    /// (two bytecode instructions) through a single handler.
    pub superinsn_hits: u64,
}

/// A callback registered with the framework (e.g. an `OnClickListener`),
/// invocable later by the event driver.
#[derive(Debug, Clone)]
pub struct Callback {
    /// Receiver object.
    pub receiver: ObjRef,
    /// Bound method.
    pub method: MethodId,
    /// Framework slot name, e.g. `"onClick"`.
    pub kind: String,
}

/// The simulated Android Runtime. See the crate docs for an overview.
pub struct Runtime {
    pub(crate) classes: Vec<RuntimeClass>,
    pub(crate) methods: Vec<RuntimeMethod>,
    pub(crate) fields: Vec<RuntimeField>,
    pub(crate) class_by_desc: HashMap<String, ClassId>,
    pub(crate) dex_tables: Vec<DexTable>,
    /// The object heap.
    pub heap: Heap,
    /// Registered native methods.
    pub natives: NativeRegistry,
    /// Security event log.
    pub log: EventLog,
    /// Environment configuration.
    pub env: Env,
    /// Framework-registered callbacks awaiting events.
    pub callbacks: Vec<Callback>,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Current framework-callback nesting depth.
    pub callback_depth: u32,
    pub(crate) interned: HashMap<String, ObjRef>,
    pub(crate) next_taint_bit: u32,
    pub(crate) last_exception: Option<ObjRef>,
    /// DEX source index for each bytecode method (operand resolution).
    pub(crate) method_source: HashMap<MethodId, usize>,
    /// StringBuilder backing buffers (content, taint) keyed by object.
    pub sb_buffers: HashMap<ObjRef, (String, u32)>,
    /// Interpreter call stack: (method, current dex_pc) per frame. Natives
    /// read this to learn their call site (reflection resolution).
    pub exec_stack: Vec<(MethodId, u32)>,
    /// Simulated external file storage (path → (content handle taint)).
    pub external_files: HashMap<String, (String, u32)>,
    /// Xorshift state backing the `Lcom/dexlego/Input;` fuzz-input native.
    pub input_state: u64,
    /// Inter-component extras store backing `Lcom/dexlego/Icc;` (key →
    /// (value, taint)).
    pub icc_extras: HashMap<String, (String, u32)>,
    /// `stats.insns` value when the current outermost execution began; the
    /// instruction budget is enforced per outermost execution.
    pub(crate) budget_start: u64,
    /// Predecoded method bodies with epoch invalidation.
    pub(crate) code_cache: CodeCache,
    /// Retired register files, reused by new frames so recursive invokes
    /// stop allocating fresh `Vec<Slot>` storage.
    pub(crate) frame_pool: Vec<Vec<Slot>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("classes", &self.classes.len())
            .field("methods", &self.methods.len())
            .field("fields", &self.fields.len())
            .field("heap", &self.heap.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::new()
    }
}

impl Runtime {
    /// Creates a runtime with the framework natives registered.
    pub fn new() -> Runtime {
        let mut rt = Runtime {
            classes: Vec::new(),
            methods: Vec::new(),
            fields: Vec::new(),
            class_by_desc: HashMap::new(),
            dex_tables: Vec::new(),
            heap: Heap::new(),
            natives: NativeRegistry::new(),
            log: EventLog::new(),
            env: Env::default(),
            callbacks: Vec::new(),
            stats: ExecStats::default(),
            callback_depth: 0,
            interned: HashMap::new(),
            next_taint_bit: 0,
            last_exception: None,
            method_source: HashMap::new(),
            sb_buffers: HashMap::new(),
            exec_stack: Vec::new(),
            external_files: HashMap::new(),
            input_state: 0x2545_f491_4f6c_dd1d,
            icc_extras: HashMap::new(),
            budget_start: 0,
            code_cache: CodeCache::default(),
            frame_pool: Vec::new(),
        };
        crate::natives::register_framework(&mut rt);
        rt
    }

    /// Creates a runtime with a caller-supplied [`Env`] — the re-entrant
    /// construction used by batch harnesses, where every job gets its own
    /// runtime with its own instruction (fuel) budget and depth limit.
    pub fn with_env(env: Env) -> Runtime {
        let mut rt = Runtime::new();
        rt.env = env;
        rt
    }

    // ---- class/method/field access ----------------------------------------

    /// The class with the given id.
    pub fn class(&self, id: ClassId) -> &RuntimeClass {
        &self.classes[id.0]
    }

    /// Mutable access to a class.
    pub fn class_mut(&mut self, id: ClassId) -> &mut RuntimeClass {
        &mut self.classes[id.0]
    }

    /// The method with the given id.
    pub fn method(&self, id: MethodId) -> &RuntimeMethod {
        &self.methods[id.0]
    }

    /// Mutable access to a method (self-modifying natives use this to
    /// rewrite code units). Bumps the method's code epoch, invalidating any
    /// predecoded representation — conservatively, since the caller may
    /// rewrite the body through the returned reference.
    pub fn method_mut(&mut self, id: MethodId) -> &mut RuntimeMethod {
        self.code_cache.bump_epoch(id);
        self.stats.dequickens = self.code_cache.dequickens;
        &mut self.methods[id.0]
    }

    // ---- predecoded code cache ---------------------------------------------

    /// The current code epoch of `method` (bumped by [`Self::method_mut`]).
    #[inline]
    pub fn code_epoch(&self, method: MethodId) -> u64 {
        self.code_cache.epoch(method)
    }

    /// The predecoded representation of `method` with its quickening
    /// overlay, building both on first use and rebuilding after
    /// invalidation. `None` for non-bytecode methods and for bodies that
    /// cannot be linearly decoded (the interpreter then falls back to
    /// per-step fetching).
    pub fn predecoded(
        &mut self,
        method: MethodId,
    ) -> Option<(
        Arc<dexlego_dalvik::PredecodedMethod>,
        Arc<dexlego_dalvik::quick::QuickCells>,
    )> {
        // Split borrow: the cache reads the unit slice while holding its own
        // mutable state; `code_cache` and `methods` are disjoint fields.
        let Runtime {
            code_cache,
            methods,
            stats,
            ..
        } = self;
        let MethodImpl::Bytecode { insns, .. } = &methods[method.0].body else {
            return None;
        };
        let result = code_cache.get_or_build(method, insns);
        stats.predecodes = code_cache.builds;
        stats.dequickens = code_cache.dequickens;
        result
    }

    // ---- frame pool --------------------------------------------------------

    /// A zeroed register file of `n` slots, reusing pooled storage.
    pub(crate) fn acquire_regs(&mut self, n: usize) -> Vec<Slot> {
        let mut regs = self.frame_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(n, Slot::default());
        regs
    }

    /// Returns a register file to the pool for reuse.
    pub(crate) fn release_regs(&mut self, regs: Vec<Slot>) {
        // Bound the pool by the frame-depth limit: deeper recursion than
        // this never existed, so extra capacity would be dead weight.
        if self.frame_pool.len() < self.env.max_depth {
            self.frame_pool.push(regs);
        }
    }

    /// The field with the given id.
    pub fn field(&self, id: FieldId) -> &RuntimeField {
        &self.fields[id.0]
    }

    /// All linked method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> {
        (0..self.methods.len()).map(MethodId)
    }

    /// All linked class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len()).map(ClassId)
    }

    /// Looks up a class by descriptor.
    pub fn find_class(&self, descriptor: &str) -> Option<ClassId> {
        self.class_by_desc.get(descriptor).copied()
    }

    /// Pretty name of a method (`class->name(descriptor)`).
    pub fn method_name(&self, id: MethodId) -> String {
        let m = self.method(id);
        format!(
            "{}->{}{}",
            self.class(m.class).descriptor,
            m.name,
            m.descriptor
        )
    }

    /// The DEX resolution table for a loaded source.
    pub fn dex_table(&self, source: usize) -> &DexTable {
        &self.dex_tables[source]
    }

    /// DEX source index a bytecode method was loaded from.
    pub fn method_source(&self, method: MethodId) -> Option<usize> {
        self.method_source.get(&method).copied()
    }

    /// Number of loaded DEX sources.
    pub fn dex_source_count(&self) -> usize {
        self.dex_tables.len()
    }

    // ---- resolution --------------------------------------------------------

    /// Resolves `sig` starting at `class`, walking the superclass chain and
    /// interfaces (virtual-dispatch resolution).
    pub fn resolve_method(&self, class: ClassId, sig: &SigKey) -> Option<MethodId> {
        let mut current = Some(class);
        while let Some(c) = current {
            let rc = self.class(c);
            if let Some(&m) = rc.methods.get(sig) {
                return Some(m);
            }
            for &iface in &rc.interfaces {
                if let Some(m) = self.resolve_method(iface, sig) {
                    return Some(m);
                }
            }
            current = rc.superclass;
        }
        None
    }

    /// Resolves a field by name starting at `class`.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut current = Some(class);
        while let Some(c) = current {
            let rc = self.class(c);
            if let Some(&f) = rc.fields.get(name) {
                return Some(f);
            }
            current = rc.superclass;
        }
        None
    }

    /// Whether `sub` is `sup` or a transitive subclass/implementor of it.
    pub fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        let rc = self.class(sub);
        if rc.interfaces.iter().any(|&i| self.is_subtype(i, sup)) {
            return true;
        }
        rc.superclass.is_some_and(|s| self.is_subtype(s, sup))
    }

    // ---- statics & strings -------------------------------------------------

    /// Reads a static field (runs `<clinit>` first if needed).
    pub fn static_get(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        field: FieldId,
    ) -> Result<WideValue> {
        let class = self.field(field).class;
        self.ensure_initialized(obs, class)?;
        Ok(self
            .class(class)
            .statics
            .get(&field)
            .copied()
            .unwrap_or_default())
    }

    /// Writes a static field (runs `<clinit>` first if needed).
    pub fn static_put(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        field: FieldId,
        value: WideValue,
    ) -> Result<()> {
        let class = self.field(field).class;
        self.ensure_initialized(obs, class)?;
        self.class_mut(class).statics.insert(field, value);
        Ok(())
    }

    /// Interns a string object.
    pub fn intern_string(&mut self, s: &str) -> ObjRef {
        if let Some(&r) = self.interned.get(s) {
            return r;
        }
        let r = self.heap.alloc_string(s.to_owned(), 0);
        self.interned.insert(s.to_owned(), r);
        r
    }

    /// Mints a fresh taint label bit (wraps after 32 sources).
    pub fn mint_taint(&mut self) -> u32 {
        let bit = 1u32 << (self.next_taint_bit % 32);
        self.next_taint_bit += 1;
        bit
    }

    /// Runs `<clinit>` for `class` if it has not been initialised yet
    /// (superclasses first), installing static values.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors from the initialiser.
    pub fn ensure_initialized(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        class: ClassId,
    ) -> Result<()> {
        if self.class(class).initialized {
            return Ok(());
        }
        self.class_mut(class).initialized = true; // set first: cycles are benign
        if let Some(sup) = self.class(class).superclass {
            self.ensure_initialized(obs, sup)?;
        }
        let clinit = self
            .class(class)
            .methods
            .get(&SigKey::new("<clinit>", "()V"))
            .copied();
        if let Some(m) = clinit {
            crate::interp::execute(self, obs, m, &[])?;
        }
        obs.on_class_init(self, class);
        Ok(())
    }

    // ---- invocation entry points -------------------------------------------

    /// Calls a static method by name.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::ClassNotFound`] / `MethodNotFound` for bad
    /// names, and propagates execution failures.
    pub fn call_static(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        class_desc: &str,
        name: &str,
        descriptor: &str,
        args: &[Slot],
    ) -> Result<RetVal> {
        let class = self
            .find_class(class_desc)
            .ok_or_else(|| RuntimeError::ClassNotFound(class_desc.to_owned()))?;
        let method = self
            .resolve_method(class, &SigKey::new(name, descriptor))
            .ok_or_else(|| {
                RuntimeError::MethodNotFound(format!("{class_desc}->{name}{descriptor}"))
            })?;
        self.ensure_initialized(obs, class)?;
        crate::interp::execute(self, obs, method, args)
    }

    /// Calls an already-resolved method.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn call_method(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        method: MethodId,
        args: &[Slot],
    ) -> Result<RetVal> {
        let class = self.method(method).class;
        self.ensure_initialized(obs, class)?;
        crate::interp::execute(self, obs, method, args)
    }

    /// Creates an instance of `class_desc`, runs its no-arg `<init>` if
    /// present, and returns the handle.
    ///
    /// # Errors
    ///
    /// Fails if the class is unknown or its constructor fails.
    pub fn new_instance(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        class_desc: &str,
    ) -> Result<ObjRef> {
        let class = self
            .find_class(class_desc)
            .ok_or_else(|| RuntimeError::ClassNotFound(class_desc.to_owned()))?;
        self.ensure_initialized(obs, class)?;
        let obj = self.heap.alloc_instance(class);
        if let Some(init) = self.resolve_method(class, &SigKey::new("<init>", "()V")) {
            crate::interp::execute(self, obs, init, &[Slot::of(obj)])?;
        }
        Ok(obj)
    }

    /// Registers a phantom class (framework superclass referenced but not
    /// defined in any loaded DEX), returning its id.
    pub fn ensure_class_stub(&mut self, descriptor: &str) -> ClassId {
        if let Some(id) = self.find_class(descriptor) {
            return id;
        }
        let superclass = if descriptor == "Ljava/lang/Object;" {
            None
        } else {
            Some(self.ensure_class_stub_inner("Ljava/lang/Object;"))
        };
        let id = ClassId(self.classes.len());
        self.classes.push(RuntimeClass {
            descriptor: descriptor.to_owned(),
            superclass,
            interfaces: Vec::new(),
            access: AccessFlags::PUBLIC,
            methods: HashMap::new(),
            fields: HashMap::new(),
            statics: HashMap::new(),
            initialized: true,
            source: "<framework>".to_owned(),
        });
        self.class_by_desc.insert(descriptor.to_owned(), id);
        id
    }

    fn ensure_class_stub_inner(&mut self, descriptor: &str) -> ClassId {
        self.ensure_class_stub(descriptor)
    }

    /// Registers a native method stub on a (possibly phantom) class so the
    /// resolver can find it; the implementation must be present in
    /// [`Self::natives`].
    pub fn register_native_method(
        &mut self,
        class_desc: &str,
        name: &str,
        params: &[&str],
        return_type: &str,
    ) -> MethodId {
        let class = self.ensure_class_stub(class_desc);
        let params: Vec<String> = params.iter().map(|s| s.to_string()).collect();
        let descriptor = crate::class::descriptor_of(&params, return_type);
        let sig = SigKey::new(name, &descriptor);
        if let Some(&m) = self.class(class).methods.get(&sig) {
            return m;
        }
        let id = MethodId(self.methods.len());
        self.methods.push(RuntimeMethod {
            class,
            name: name.to_owned(),
            descriptor,
            params,
            return_type: return_type.to_owned(),
            access: AccessFlags::PUBLIC | AccessFlags::NATIVE,
            body: crate::class::MethodImpl::Native,
        });
        self.class_mut(class).methods.insert(sig, id);
        id
    }

    /// Registers a field on a (possibly phantom) class.
    pub fn register_field(&mut self, class_desc: &str, name: &str, type_desc: &str) -> FieldId {
        let class = self.ensure_class_stub(class_desc);
        if let Some(&f) = self.class(class).fields.get(name) {
            return f;
        }
        let id = FieldId(self.fields.len());
        self.fields.push(RuntimeField {
            class,
            name: name.to_owned(),
            type_desc: type_desc.to_owned(),
            access: AccessFlags::PUBLIC,
        });
        self.class_mut(class).fields.insert(name.to_owned(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;

    #[test]
    fn runtime_is_send() {
        // Batch harnesses move whole runtimes (inside job closures) across
        // worker threads; a non-Send field regression breaks corpus-scale
        // extraction, so pin the bound here.
        fn assert_send<T: Send>() {}
        assert_send::<Runtime>();
    }

    #[test]
    fn with_env_applies_budget_and_depth() {
        let env = Env {
            insn_budget: 123,
            max_depth: 7,
            ..Env::default()
        };
        let rt = Runtime::with_env(env);
        assert_eq!(rt.env.insn_budget, 123);
        assert_eq!(rt.env.max_depth, 7);
        // The framework natives are still registered (re-entrant construction
        // must not skip initialisation).
        assert!(!rt.natives.is_empty());
    }

    #[test]
    fn stub_classes_chain_to_object() {
        let mut rt = Runtime::new();
        let act = rt.ensure_class_stub("Landroid/app/Activity;");
        let obj = rt.find_class("Ljava/lang/Object;").unwrap();
        assert!(rt.is_subtype(act, obj));
        assert!(!rt.is_subtype(obj, act));
    }

    #[test]
    fn stub_registration_is_idempotent() {
        let mut rt = Runtime::new();
        let a = rt.ensure_class_stub("Lx/Y;");
        let b = rt.ensure_class_stub("Lx/Y;");
        assert_eq!(a, b);
        let m1 = rt.register_native_method("Lx/Y;", "go", &["I"], "V");
        let m2 = rt.register_native_method("Lx/Y;", "go", &["I"], "V");
        assert_eq!(m1, m2);
    }

    #[test]
    fn interned_strings_are_shared() {
        let mut rt = Runtime::new();
        let a = rt.intern_string("hello");
        let b = rt.intern_string("hello");
        let c = rt.intern_string("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn taint_labels_are_distinct_bits() {
        let mut rt = Runtime::new();
        let a = rt.mint_taint();
        let b = rt.mint_taint();
        assert_eq!(a.count_ones(), 1);
        assert_eq!(b.count_ones(), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn missing_class_call_fails_cleanly() {
        let mut rt = Runtime::new();
        let mut obs = NullObserver;
        let err = rt
            .call_static(&mut obs, "Lno/Such;", "m", "()V", &[])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ClassNotFound(_)));
    }
}
