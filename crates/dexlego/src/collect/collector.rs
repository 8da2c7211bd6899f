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
    classes: HashMap<(String, String), ClassRecord>,
    class_order: Vec<(String, String)>,
    methods: HashMap<(MethodKey, u32), MethodRecord>,
    method_order: Vec<(MethodKey, u32)>,
    pools: Vec<crate::files::PoolRecord>,
    pool_by_source: HashMap<usize, u32>,
    reflection: HashMap<(MethodKey, u32), Vec<ReflectionTarget>>,
    frames: Vec<Frame>,
}

#[derive(Debug)]
struct Frame {
    // None: frame not collected (framework/native method).
    key: Option<(MethodKey, u32)>,
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

    /// Finishes collection and returns the collection files.
    pub fn into_files(self) -> CollectionFiles {
        let mut files = CollectionFiles::default();
        for key in &self.class_order {
            files.classes.push(self.classes[key].clone());
        }
        for key in &self.method_order {
            files.methods.push(self.methods[key].clone());
        }
        files.pools = self.pools;
        let mut sites: Vec<_> = self.reflection.into_iter().collect();
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        for ((caller, dex_pc), targets) in sites {
            files.reflection_sites.push(crate::files::ReflectionSite {
                caller,
                dex_pc,
                targets,
            });
        }
        files
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
        if self.classes.contains_key(&key) {
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
        self.classes.insert(
            key.clone(),
            ClassRecord {
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
            },
        );
        self.class_order.push(key);
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
        let Some(record) = self.classes.get_mut(&key) else {
            return;
        };
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
        let m = rt.method(method);
        let collectable = is_app_class(rt, m.class)
            && matches!(m.body, MethodImpl::Bytecode { .. })
            && rt.method_source(method).is_some();
        let key = if collectable {
            let pool = self.pool_for_source(rt, rt.method_source(method).expect("checked"));
            let m = rt.method(method);
            let key = (method_key(rt, method), pool);
            if !self.methods.contains_key(&key) {
                self.method_order.push(key.clone());
                let (registers, ins, tries) = match &m.body {
                    MethodImpl::Bytecode {
                        registers,
                        ins,
                        tries,
                        handlers,
                        ..
                    } => {
                        // Resolve catch types against the source's pools so
                        // the try/catch structure survives reassembly.
                        let source = rt.method_source(method).expect("checked");
                        let types = &rt.dex_table(source).types;
                        let records = tries
                            .iter()
                            .filter_map(|t| {
                                let handler = handlers.get(t.handler_index)?;
                                Some(crate::files::TryRecord {
                                    start: t.start_addr,
                                    count: u32::from(t.insn_count),
                                    catches: handler
                                        .catches
                                        .iter()
                                        .filter_map(|c| {
                                            types
                                                .get(c.type_idx as usize)
                                                .map(|d| (d.clone(), c.addr))
                                        })
                                        .collect(),
                                    catch_all: handler.catch_all_addr,
                                })
                            })
                            .collect();
                        (*registers, *ins, records)
                    }
                    _ => (0, 0, Vec::new()),
                };
                self.methods.insert(
                    key.clone(),
                    MethodRecord {
                        key: key.0.clone(),
                        pool,
                        access: m.access.bits(),
                        registers,
                        ins,
                        return_type: m.return_type.clone(),
                        params: m.params.clone(),
                        tries,
                        trees: Vec::new(),
                    },
                );
            }
            Some(key)
        } else {
            None
        };
        self.frames.push(Frame {
            key,
            tree: CollectionTree::new(),
        });
    }

    fn on_method_exit(&mut self, _rt: &Runtime, _method: MethodId) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        let Some(key) = frame.key else { return };
        if frame.tree.node(0).il.is_empty() {
            return;
        }
        let record = self.methods.get_mut(&key).expect("recorded at enter");
        // "We generate multiple collection trees for multiple executions of
        // the method and keep only the unique trees."
        if !record.trees.iter().any(|t| t.same_shape(&frame.tree)) {
            record.trees.push(frame.tree);
        }
    }

    fn on_instruction(&mut self, rt: &Runtime, ev: &InsnEvent<'_>) {
        let Some(frame) = self.frames.last_mut() else {
            return;
        };
        if frame.key.is_none() {
            return;
        }
        // Capture the payload for payload-referencing instructions so
        // switches and fill-array-data survive reassembly, decoded from the
        // live body the instruction was fetched from.
        let payload = match &rt.method(ev.method).body {
            MethodImpl::Bytecode { insns, .. }
                if matches!(
                    ev.insn.op,
                    dexlego_dalvik::Opcode::PackedSwitch
                        | dexlego_dalvik::Opcode::SparseSwitch
                        | dexlego_dalvik::Opcode::FillArrayData
                ) =>
            {
                let payload_pc = ev.insn.target(ev.dex_pc) as usize;
                dexlego_dalvik::decode_insn(insns, payload_pc)
                    .ok()
                    .map(|d| {
                        let len = d.units();
                        (ev.insn.off, insns[payload_pc..payload_pc + len].to_vec())
                    })
            }
            _ => None,
        };
        frame.tree.observe(ev.dex_pc, ev.units, payload);
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
