//! The just-in-time collecting observer (paper §III-A, Figure 2).
//!
//! [`JitCollector`] implements [`RuntimeObserver`] and records, as the
//! modified ART executes an application:
//!
//! * class metadata when the class linker loads a class,
//! * field metadata and static values when the class is initialised,
//! * method metadata when a method is first entered,
//! * the executed instructions of every method execution, organised into
//!   [`CollectionTree`]s (Algorithm 1) — keeping only unique trees,
//! * resolved targets of reflective calls,
//! * dynamically loaded DEX sources (collected like the main one).
//!
//! Framework classes (source `"<framework>"`) are not collected: the paper
//! collects the application's DEX structures, not the Android framework.

use std::collections::HashMap;

use dexlego_runtime::class::MethodImpl;
use dexlego_runtime::observer::{InsnEvent, RuntimeObserver};
use dexlego_runtime::{ClassId, MethodId, ObjKind, Runtime};

use crate::collect::tree::CollectionTree;
use crate::files::{
    ClassRecord, CollectedValue, CollectionFiles, FieldRecord, MethodKey, MethodRecord,
    ReflectionTarget,
};

/// The collecting observer. Attach to every execution of the target
/// application, then call [`JitCollector::into_files`] to obtain the
/// collection files for offline reassembly.
///
/// Records are kept in first-entry order and reached per `MethodId`
/// through a dense slot table, filled on a method's first entry: a
/// method's source is fixed when it is linked and self-modification only
/// rewrites its units, so whether and where a method is collected never
/// changes afterwards. Trees of finished executions that duplicate a kept
/// tree are cleared and reused by the next frame.
///
/// # Example
///
/// ```no_run
/// use dexlego_core::JitCollector;
/// use dexlego_runtime::Runtime;
///
/// let mut rt = Runtime::new();
/// let mut collector = JitCollector::new();
/// // ... load the app and drive it with `collector` as the observer ...
/// let files = collector.into_files();
/// assert!(files.methods.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct JitCollector {
    // Classes and methods are keyed with their source tag: a packer that
    // loads the original DEX over the shell redefines same-named classes,
    // and both definitions are collected (the reassembler keeps the latest).
    classes: Vec<ClassRecord>,
    class_index: HashMap<(String, String), usize>,
    methods: Vec<MethodRecord>,
    method_index: HashMap<(MethodKey, u32), usize>,
    /// Per `MethodId`: [`UNSEEN`], [`UNCOLLECTED`] or an index into
    /// `methods`.
    method_slots: Vec<u32>,
    pools: Vec<crate::files::PoolRecord>,
    pool_by_source: HashMap<usize, u32>,
    reflection: HashMap<(MethodKey, u32), Vec<ReflectionTarget>>,
    /// One entry per live frame, `None` for a frame that is not collected
    /// (framework or native method).
    frames: Vec<Option<Frame>>,
    /// Cleared trees ready for the next collected frame.
    spare: Vec<CollectionTree>,
}

/// A method slot not filled yet.
const UNSEEN: u32 = u32::MAX;
/// A method slot of a method that is never collected.
const UNCOLLECTED: u32 = u32::MAX - 1;

#[derive(Debug)]
struct Frame {
    /// Index of the method's record.
    record: usize,
    tree: CollectionTree,
}

fn method_key(rt: &Runtime, method: MethodId) -> MethodKey {
    let m = rt.method(method);
    MethodKey {
        class: rt.class(m.class).descriptor.clone(),
        name: m.name.clone(),
        descriptor: m.descriptor.clone(),
    }
}

fn is_app_class(rt: &Runtime, class: ClassId) -> bool {
    rt.class(class).source != "<framework>"
}

impl JitCollector {
    /// Creates an empty collector.
    pub fn new() -> JitCollector {
        JitCollector::default()
    }

    /// Finishes collection and returns the collection files, moving every
    /// record out.
    pub fn into_files(self) -> CollectionFiles {
        let mut sites: Vec<_> = self.reflection.into_iter().collect();
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        CollectionFiles {
            classes: self.classes,
            methods: self.methods,
            pools: self.pools,
            reflection_sites: sites
                .into_iter()
                .map(|((caller, dex_pc), targets)| crate::files::ReflectionSite {
                    caller,
                    dex_pc,
                    targets,
                })
                .collect(),
        }
    }

    /// Number of methods with at least one collected tree so far.
    pub fn collected_method_count(&self) -> usize {
        self.methods.len()
    }

    fn record_class(&mut self, rt: &Runtime, class: ClassId) {
        if !is_app_class(rt, class) {
            return;
        }
        let rc = rt.class(class);
        let key = (rc.descriptor.clone(), rc.source.clone());
        if self.class_index.contains_key(&key) {
            return;
        }
        // Collect the class metadata: the string/type/class structures of
        // §IV-C ("we firstly store string ...; a type structure is
        // constructed; finally a corresponding class structure").
        let mut fields: Vec<FieldRecord> = rc
            .fields
            .values()
            .map(|&fid| {
                let f = rt.field(fid);
                FieldRecord {
                    name: f.name.clone(),
                    type_desc: f.type_desc.clone(),
                    access: f.access.bits(),
                    is_static: f.access.is_static(),
                    static_value: None,
                }
            })
            .collect();
        fields.sort_by(|a, b| a.name.cmp(&b.name));
        self.class_index.insert(key, self.classes.len());
        self.classes.push(ClassRecord {
            descriptor: rc.descriptor.clone(),
            superclass: rc.superclass.map(|s| rt.class(s).descriptor.clone()),
            interfaces: rc
                .interfaces
                .iter()
                .map(|&i| rt.class(i).descriptor.clone())
                .collect(),
            access: rc.access.bits(),
            source: rc.source.clone(),
            fields,
        });
    }

    /// Pool index for a runtime DEX source, capturing it on first use.
    fn pool_for_source(&mut self, rt: &Runtime, source: usize) -> u32 {
        if let Some(&idx) = self.pool_by_source.get(&source) {
            return idx;
        }
        let table = rt.dex_table(source);
        let record = crate::files::PoolRecord {
            source: table.source.clone(),
            strings: table.strings.clone(),
            types: table.types.clone(),
            methods: table
                .methods
                .iter()
                .map(|(c, sig)| (c.clone(), sig.name.clone(), sig.descriptor.clone()))
                .collect(),
            fields: table.fields.clone(),
        };
        let idx = self.pools.len() as u32;
        self.pools.push(record);
        self.pool_by_source.insert(source, idx);
        idx
    }

    fn record_static_values(&mut self, rt: &Runtime, class: ClassId) {
        if !is_app_class(rt, class) {
            return;
        }
        let rc = rt.class(class);
        let key = (rc.descriptor.clone(), rc.source.clone());
        let Some(&index) = self.class_index.get(&key) else {
            return;
        };
        let record = &mut self.classes[index];
        for field in &mut record.fields {
            if !field.is_static {
                continue;
            }
            let Some(&fid) = rc.fields.get(&field.name) else {
                continue;
            };
            let Some(&value) = rc.statics.get(&fid) else {
                continue;
            };
            field.static_value = Some(match field.type_desc.as_str() {
                "Z" => CollectedValue::Bool(value.raw != 0),
                "B" | "S" | "C" | "I" => CollectedValue::Int(value.raw as u32 as i32),
                "J" => CollectedValue::Long(value.as_long()),
                "F" => CollectedValue::Float(f32::from_bits(value.raw as u32)),
                "D" => CollectedValue::Double(value.as_double()),
                "Ljava/lang/String;" => match rt.heap.as_string(value.raw as u32) {
                    Some(s) => CollectedValue::Str(s.to_owned()),
                    None => CollectedValue::Null,
                },
                _ => CollectedValue::Null,
            });
        }
    }

    /// The record of `method`, `None` when it is not collected; filled on
    /// the method's first entry.
    fn record_index(&mut self, rt: &Runtime, method: MethodId) -> Option<usize> {
        match self.method_slots.get(method.0).copied().unwrap_or(UNSEEN) {
            UNSEEN => {}
            UNCOLLECTED => return None,
            index => return Some(index as usize),
        }
        let index = self.find_or_add_record(rt, method);
        if self.method_slots.len() <= method.0 {
            self.method_slots.resize(method.0 + 1, UNSEEN);
        }
        self.method_slots[method.0] = index.map_or(UNCOLLECTED, |i| i as u32);
        index
    }

    /// The record of `method`'s (key, pool), created on first sight.
    /// Framework, native and abstract methods are not collected.
    fn find_or_add_record(&mut self, rt: &Runtime, method: MethodId) -> Option<usize> {
        let m = rt.method(method);
        let source = rt.method_source(method)?;
        let MethodImpl::Bytecode {
            registers,
            ins,
            tries,
            handlers,
            ..
        } = &m.body
        else {
            return None;
        };
        if !is_app_class(rt, m.class) {
            return None;
        }
        let pool = self.pool_for_source(rt, source);
        let key = (method_key(rt, method), pool);
        if let Some(&index) = self.method_index.get(&key) {
            return Some(index);
        }
        // Resolve catch types against the source's pools so the try/catch
        // structure survives reassembly.
        let types = &rt.dex_table(source).types;
        let tries = tries
            .iter()
            .filter_map(|t| {
                let handler = handlers.get(t.handler_index)?;
                Some(crate::files::TryRecord {
                    start: t.start_addr,
                    count: u32::from(t.insn_count),
                    catches: handler
                        .catches
                        .iter()
                        .filter_map(|c| types.get(c.type_idx as usize).map(|d| (d.clone(), c.addr)))
                        .collect(),
                    catch_all: handler.catch_all_addr,
                })
            })
            .collect();
        let index = self.methods.len();
        self.methods.push(MethodRecord {
            key: key.0.clone(),
            pool,
            access: m.access.bits(),
            registers: *registers,
            ins: *ins,
            return_type: m.return_type.clone(),
            params: m.params.clone(),
            tries,
            trees: Vec::new(),
        });
        self.method_index.insert(key, index);
        Some(index)
    }
}

impl RuntimeObserver for JitCollector {
    fn on_class_load(&mut self, rt: &Runtime, class: ClassId) {
        self.record_class(rt, class);
    }

    fn on_class_init(&mut self, rt: &Runtime, class: ClassId) {
        // Initialisation links methods/fields and installs static values.
        self.record_class(rt, class);
        self.record_static_values(rt, class);
    }

    fn on_method_enter(&mut self, rt: &Runtime, method: MethodId) {
        let frame = self.record_index(rt, method).map(|record| Frame {
            record,
            tree: self.spare.pop().unwrap_or_default(),
        });
        self.frames.push(frame);
    }

    fn on_method_exit(&mut self, _rt: &Runtime, _method: MethodId) {
        let Some(Some(Frame { record, mut tree })) = self.frames.pop() else {
            return;
        };
        if !tree.node(0).il.is_empty() {
            let trees = &mut self.methods[record].trees;
            // "We generate multiple collection trees for multiple executions
            // of the method and keep only the unique trees."
            if !trees.iter().any(|t| t.same_shape(&tree)) {
                trees.push(tree);
                return;
            }
        }
        tree.clear();
        self.spare.push(tree);
    }

    fn on_instruction(&mut self, rt: &Runtime, ev: &InsnEvent<'_>) {
        let Some(Some(frame)) = self.frames.last_mut() else {
            return;
        };
        // Capture the payload for payload-referencing instructions so
        // switches and fill-array-data survive reassembly, decoded from the
        // live body the instruction was fetched from when it is recorded.
        frame.tree.observe_with(ev.dex_pc, ev.units, || {
            if !matches!(
                ev.insn.op,
                dexlego_dalvik::Opcode::PackedSwitch
                    | dexlego_dalvik::Opcode::SparseSwitch
                    | dexlego_dalvik::Opcode::FillArrayData
            ) {
                return None;
            }
            let MethodImpl::Bytecode { insns, .. } = &rt.method(ev.method).body else {
                return None;
            };
            let payload_pc = ev.insn.target(ev.dex_pc) as usize;
            dexlego_dalvik::decode_insn(insns, payload_pc)
                .ok()
                .map(|d| (ev.insn.off, &insns[payload_pc..payload_pc + d.units()]))
        });
    }

    fn on_reflective_call(
        &mut self,
        rt: &Runtime,
        caller: MethodId,
        call_site: u32,
        target: MethodId,
    ) {
        let caller_key = method_key(rt, caller);
        let t = rt.method(target);
        let target_rec = ReflectionTarget {
            key: method_key(rt, target),
            is_static: t.access.is_static(),
            param_count: t.params.len() as u32,
        };
        let entry = self.reflection.entry((caller_key, call_site)).or_default();
        if !entry.contains(&target_rec) {
            entry.push(target_rec);
        }
    }

    fn on_dynamic_load(&mut self, rt: &Runtime, _source: &str, classes: &[ClassId]) {
        // "The execution of the code in the dynamic loaded DEX file also
        // follows the same flow": classes are recorded like main-DEX ones.
        for &c in classes {
            self.record_class(rt, c);
        }
    }
}

/// Convenience: reads a string static value back out of the runtime, used
/// by tests.
pub fn heap_string(rt: &Runtime, handle: u32) -> Option<String> {
    match rt.heap.get(handle).map(|o| &o.kind) {
        Some(ObjKind::Str(s)) => Some(s.clone()),
        _ => None,
    }
}
