//! Method-level extraction baselines: DexHunter and AppSpear (paper
//! §IV-A "Inadequacy of Method-level Collection", Table III).
//!
//! Both systems dump unpacked code from memory at a single point in time:
//! DexHunter dumps whole DEX images "at the right timing"; AppSpear rebuilds
//! a DEX from Dalvik's runtime data structures. Against packers that simply
//! decrypt-then-run they recover the original code, but:
//!
//! * self-modifying methods yield only whichever version is in memory at
//!   dump time (Code 2 *or* Code 3 — never both), and
//! * reflective calls remain reflective.
//!
//! Our implementations dump from the simulated runtime after execution,
//! which reproduces exactly those semantics.

use std::collections::HashMap;

use dexlego_dalvik::canon::remap_indices;
use dexlego_dalvik::IndexKind;
use dexlego_dex::file::{EncodedField, EncodedMethod};
use dexlego_dex::value::EncodedValue;
use dexlego_dex::{AccessFlags, ClassDef, CodeItem, DexFile, EncodedCatchHandler};
use dexlego_runtime::class::MethodImpl;
use dexlego_runtime::{ClassId, Runtime};

use crate::{DexLegoError, Result};

/// Which baseline behaviour to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// DexHunter: dump every app DEX source currently in memory.
    DexHunter,
    /// AppSpear: rebuild from runtime class structures; only classes that
    /// were actually initialised are considered "reliable".
    AppSpear,
}

/// Dumps the application's code from runtime memory as a single DEX model,
/// emulating a method-level unpacking system.
///
/// # Errors
///
/// Propagates decode/encode failures for methods whose in-memory code is
/// not valid bytecode (still-encrypted method bodies are skipped instead,
/// as real dump tools do).
pub fn dump(rt: &Runtime, kind: BaselineKind) -> Result<DexFile> {
    let mut dex = DexFile::new();

    // Latest definition of each descriptor wins (shadowing redefinition).
    let mut latest: HashMap<&str, ClassId> = HashMap::new();
    let mut order: Vec<ClassId> = Vec::new();
    for class_id in rt.class_ids() {
        let class = rt.class(class_id);
        if class.source == "<framework>" {
            continue;
        }
        if kind == BaselineKind::AppSpear && !class.initialized {
            continue;
        }
        latest.insert(class.descriptor.as_str(), class_id);
        order.push(class_id);
    }
    order.retain(|&id| latest.get(rt.class(id).descriptor.as_str()) == Some(&id));

    for class_id in order {
        let class = rt.class(class_id);
        let class_idx = dex.intern_type(&class.descriptor);
        let mut def = ClassDef::new(class_idx);
        def.access = class.access;
        def.superclass = class
            .superclass
            .map(|s| dex.intern_type(&rt.class(s).descriptor.clone()));
        def.interfaces = class
            .interfaces
            .iter()
            .map(|&i| dex.intern_type(&rt.class(i).descriptor.clone()))
            .collect();

        // Fields, with whatever static values are in memory.
        let mut statics: Vec<(EncodedField, Option<EncodedValue>)> = Vec::new();
        let mut instance_fields = Vec::new();
        let mut field_ids: Vec<_> = class.fields.values().copied().collect();
        field_ids.sort();
        for fid in field_ids {
            let field = rt.field(fid);
            let idx = dex.intern_field(&class.descriptor, &field.type_desc, &field.name);
            let encoded = EncodedField {
                field_idx: idx,
                access: field.access,
            };
            if field.access.is_static() {
                let value = class
                    .statics
                    .get(&fid)
                    .map(|v| match field.type_desc.as_str() {
                        "Z" => EncodedValue::Boolean(v.raw != 0),
                        "B" | "S" | "C" | "I" => EncodedValue::Int(v.raw as u32 as i32),
                        "J" => EncodedValue::Long(v.as_long()),
                        "F" => EncodedValue::Float(f32::from_bits(v.raw as u32)),
                        "D" => EncodedValue::Double(v.as_double()),
                        "Ljava/lang/String;" => match rt.heap.as_string(v.raw as u32) {
                            Some(s) => EncodedValue::String(dex.intern_string(s)),
                            None => EncodedValue::Null,
                        },
                        _ => EncodedValue::Null,
                    });
                statics.push((encoded, value));
            } else {
                instance_fields.push(encoded);
            }
        }
        statics.sort_by_key(|(f, _)| f.field_idx);
        instance_fields.sort_by_key(|f| f.field_idx);
        let last_value = statics.iter().rposition(|(_, v)| v.is_some());
        for (i, (encoded, value)) in statics.iter().enumerate() {
            if last_value.is_some_and(|last| i <= last) {
                def.static_values.push(value.clone().unwrap_or_else(|| {
                    let tidx = dex.field_ids()[encoded.field_idx as usize].type_;
                    let desc = dex
                        .type_descriptor(tidx)
                        .unwrap_or("Ljava/lang/Object;")
                        .to_owned();
                    EncodedValue::default_for_type(&desc)
                }));
            }
        }

        // Methods with their current in-memory code.
        let mut directs = Vec::new();
        let mut virtuals = Vec::new();
        let mut method_ids: Vec<_> = class.methods.values().copied().collect();
        method_ids.sort();
        for mid in method_ids {
            let method = rt.method(mid);
            let param_refs: Vec<&str> = method.params.iter().map(String::as_str).collect();
            let method_idx = dex.intern_method(
                &class.descriptor,
                &method.name,
                &method.return_type,
                &param_refs,
            );
            let code = match &method.body {
                MethodImpl::Bytecode {
                    registers,
                    ins,
                    insns,
                    tries,
                    handlers,
                } => {
                    let Some(source) = rt.method_source(mid) else {
                        continue;
                    };
                    let code = remap_units(rt, source, insns, &mut dex).and_then(|units| {
                        Ok(CodeItem {
                            registers_size: *registers,
                            ins_size: *ins,
                            outs_size: 8,
                            insns: units,
                            tries: tries.clone(),
                            handlers: remap_handlers(rt, source, handlers, &mut dex)?,
                        })
                    });
                    // Still-encrypted bodies do not decode; a dump tool
                    // writes them out as-is and analysis skips them — we
                    // skip the method entirely, which is equivalent for
                    // the analyzers.
                    code.ok()
                }
                _ => None,
            };
            let encoded = EncodedMethod {
                method_idx,
                access: if code.is_none() && !method.access.is_native() {
                    method.access | AccessFlags::NATIVE
                } else {
                    method.access
                },
                code,
            };
            let is_direct = method.access.is_static()
                || method.access.contains(AccessFlags::PRIVATE)
                || method.name.starts_with('<');
            if is_direct {
                directs.push(encoded);
            } else {
                virtuals.push(encoded);
            }
        }
        directs.sort_by_key(|m| m.method_idx);
        virtuals.sort_by_key(|m| m.method_idx);
        let data = def.class_data.as_mut().expect("fresh class data");
        data.static_fields = statics.into_iter().map(|(f, _)| f).collect();
        data.instance_fields = instance_fields;
        data.direct_methods = directs;
        data.virtual_methods = virtuals;
        dex.add_class(def);
    }
    Ok(dex)
}

/// Maps each typed catch clause of a method's handlers into the output
/// DEX's type pool.
fn remap_handlers(
    rt: &Runtime,
    source: usize,
    handlers: &[EncodedCatchHandler],
    dex: &mut DexFile,
) -> Result<Vec<EncodedCatchHandler>> {
    let types = &rt.dex_table(source).types;
    let mut handlers = handlers.to_vec();
    for clause in handlers.iter_mut().flat_map(|h| &mut h.catches) {
        let desc = types
            .get(clause.type_idx as usize)
            .ok_or_else(|| DexLegoError::Reassembly("catch type index out of range".to_owned()))?;
        clause.type_idx = dex.intern_type(desc);
    }
    Ok(handlers)
}

/// Rewrites a method's code units so embedded pool indices point into the
/// output DEX (index widths are format-fixed, so lengths never change).
fn remap_units(rt: &Runtime, source: usize, insns: &[u16], dex: &mut DexFile) -> Result<Vec<u16>> {
    let table = rt.dex_table(source);
    let out_of_range = |pool: &str| DexLegoError::Reassembly(format!("{pool} index out of range"));
    let mut units = insns.to_vec();
    remap_indices(&mut units, |kind, idx| {
        let i = idx as usize;
        Ok::<_, DexLegoError>(match kind {
            IndexKind::None => idx,
            IndexKind::String => {
                dex.intern_string(table.strings.get(i).ok_or_else(|| out_of_range("string"))?)
            }
            IndexKind::Type => {
                dex.intern_type(table.types.get(i).ok_or_else(|| out_of_range("type"))?)
            }
            IndexKind::Field => {
                let (c, n, t) = table.fields.get(i).ok_or_else(|| out_of_range("field"))?;
                dex.intern_field(c, t, n)
            }
            IndexKind::Method => {
                let (c, sig) = table.methods.get(i).ok_or_else(|| out_of_range("method"))?;
                let (params, ret) = crate::reassemble::parse_descriptor(&sig.descriptor)?;
                let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
                dex.intern_method(c, &sig.name, &ret, &param_refs)
            }
        })
    })?;
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dexlego_dalvik::builder::ProgramBuilder;
    use dexlego_dalvik::{Insn, Opcode};
    use dexlego_dex::code::CatchClause;
    use dexlego_dex::TryItem;
    use dexlego_runtime::observer::NullObserver;

    const ARITHMETIC: &str = "Ljava/lang/ArithmeticException;";

    /// `La/Main;->guarded()V`, whose first two code units sit in a try
    /// block that catches `ArithmeticException`, in a DEX whose type pool
    /// holds more types than a dump of it does.
    fn guarded_app() -> DexFile {
        let mut pb = ProgramBuilder::new();
        pb.class("La/Unused;", |c| {
            c.static_method("noop", &[], "V", 1, |m| {
                m.new_instance(0, "La/Other;");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        pb.class("La/Main;", |c| {
            c.static_method("guarded", &[], "V", 2, |m| {
                m.new_instance(0, "Ljava/lang/Object;");
                m.asm.ret(Opcode::ReturnVoid, 0);
                let mut mex = Insn::of(Opcode::MoveException);
                mex.a = 1;
                m.asm.push(mex);
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        let mut dex = pb.build().unwrap();
        let exception = dex.intern_type(ARITHMETIC);
        let main = dex.intern_type("La/Main;");
        let class = dex
            .class_defs_mut()
            .iter_mut()
            .find(|c| c.class_idx == main)
            .unwrap();
        let code = class.class_data.as_mut().unwrap().direct_methods[0]
            .code
            .as_mut()
            .unwrap();
        code.tries.push(TryItem {
            start_addr: 0,
            insn_count: 2,
            handler_index: 0,
        });
        code.handlers.push(EncodedCatchHandler {
            catches: vec![CatchClause {
                type_idx: exception,
                addr: 3,
            }],
            catch_all_addr: None,
        });
        dex
    }

    #[test]
    fn dumps_map_catch_types_into_their_own_type_pool() {
        let mut rt = Runtime::new();
        rt.load_dex(&guarded_app(), "app").unwrap();
        rt.call_static(&mut NullObserver, "La/Main;", "guarded", "()V", &[])
            .unwrap();
        for kind in [BaselineKind::DexHunter, BaselineKind::AppSpear] {
            let dump = dump(&rt, kind).unwrap();
            let class = dump.find_class("La/Main;").unwrap();
            let code = class.class_data.as_ref().unwrap().direct_methods[0]
                .code
                .as_ref()
                .unwrap();
            let clause = &code.handlers[0].catches[0];
            assert_eq!(
                dump.type_descriptor(clause.type_idx).ok(),
                Some(ARITHMETIC),
                "{kind:?}"
            );
        }
    }
}
