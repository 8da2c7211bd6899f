//! Extracting a subset of classes from a [`DexFile`] into a fresh,
//! self-contained [`DexFile`] (used by multi-DEX packers that split an
//! application across separately encrypted payloads).

use dexlego_dex::file::{EncodedField, EncodedMethod};
use dexlego_dex::value::EncodedValue;
use dexlego_dex::{ClassDef, CodeItem, DexFile};

use crate::canon::remap_indices;
use crate::opcode::IndexKind;
use crate::{DalvikError, Result};

/// Copies the classes selected by `keep` into a new model, re-interning
/// every pool reference (including those embedded in instruction streams).
///
/// # Errors
///
/// Fails if a kept method's bytecode cannot be decoded.
///
/// # Example
///
/// ```
/// use dexlego_dex::{DexFile, ClassDef};
/// use dexlego_dalvik::subset::extract_classes;
///
/// # fn main() -> Result<(), dexlego_dalvik::DalvikError> {
/// let mut dex = DexFile::new();
/// let a = dex.intern_type("La;");
/// let b = dex.intern_type("Lb;");
/// dex.add_class(ClassDef::new(a));
/// dex.add_class(ClassDef::new(b));
/// let only_a = extract_classes(&dex, |d| d == "La;")?;
/// assert!(only_a.find_class("La;").is_some());
/// assert!(only_a.find_class("Lb;").is_none());
/// # Ok(())
/// # }
/// ```
pub fn extract_classes(dex: &DexFile, mut keep: impl FnMut(&str) -> bool) -> Result<DexFile> {
    let mut out = DexFile::new();
    for class in dex.class_defs() {
        let Ok(desc) = dex.type_descriptor(class.class_idx) else {
            continue;
        };
        if !keep(desc) {
            continue;
        }
        let class_idx = out.intern_type(desc);
        let mut def = ClassDef::new(class_idx);
        def.access = class.access;
        def.superclass = class
            .superclass
            .and_then(|t| dex.type_descriptor(t).ok())
            .map(|d| out.intern_type(d));
        def.interfaces = class
            .interfaces
            .iter()
            .filter_map(|&t| dex.type_descriptor(t).ok())
            .map(|d| out.intern_type(d))
            .collect();
        def.static_values = class
            .static_values
            .iter()
            .map(|v| remap_value(dex, &mut out, v))
            .collect();
        if let Some(data) = &class.class_data {
            let out_data = def.class_data.as_mut().expect("fresh class data");
            for (is_static, fields) in [(true, &data.static_fields), (false, &data.instance_fields)]
            {
                for field in fields {
                    let Ok(id) = dex.field_id(field.field_idx) else {
                        continue;
                    };
                    let (Ok(c), Ok(t), Ok(n)) = (
                        dex.type_descriptor(id.class),
                        dex.type_descriptor(id.type_),
                        dex.string(id.name),
                    ) else {
                        continue;
                    };
                    let encoded = EncodedField {
                        field_idx: out.intern_field(c, t, n),
                        access: field.access,
                    };
                    if is_static {
                        out_data.static_fields.push(encoded);
                    } else {
                        out_data.instance_fields.push(encoded);
                    }
                }
            }
            for (is_direct, methods) in
                [(true, &data.direct_methods), (false, &data.virtual_methods)]
            {
                for method in methods {
                    let Some(idx) = intern_method_ref(dex, &mut out, method.method_idx) else {
                        continue;
                    };
                    let code = match &method.code {
                        Some(code) => Some(remap_code(dex, &mut out, code)?),
                        None => None,
                    };
                    let encoded = EncodedMethod {
                        method_idx: idx,
                        access: method.access,
                        code,
                    };
                    if is_direct {
                        out_data.direct_methods.push(encoded);
                    } else {
                        out_data.virtual_methods.push(encoded);
                    }
                }
            }
            out_data.static_fields.sort_by_key(|f| f.field_idx);
            out_data.instance_fields.sort_by_key(|f| f.field_idx);
            out_data.direct_methods.sort_by_key(|m| m.method_idx);
            out_data.virtual_methods.sort_by_key(|m| m.method_idx);
        }
        out.add_class(def);
    }
    Ok(out)
}

fn intern_method_ref(dex: &DexFile, out: &mut DexFile, idx: u32) -> Option<u32> {
    let id = dex.method_id(idx).ok()?;
    let class = dex.type_descriptor(id.class).ok()?.to_owned();
    let name = dex.string(id.name).ok()?.to_owned();
    let proto = dex.proto(id.proto).ok()?;
    let params: Vec<String> = proto
        .parameters
        .iter()
        .filter_map(|&t| dex.type_descriptor(t).ok().map(str::to_owned))
        .collect();
    let ret = dex.type_descriptor(proto.return_type).ok()?.to_owned();
    let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
    Some(out.intern_method(&class, &name, &ret, &param_refs))
}

fn intern_field_ref(dex: &DexFile, out: &mut DexFile, idx: u32) -> Option<u32> {
    let id = dex.field_id(idx).ok()?;
    let class = dex.type_descriptor(id.class).ok()?.to_owned();
    let type_ = dex.type_descriptor(id.type_).ok()?.to_owned();
    let name = dex.string(id.name).ok()?.to_owned();
    Some(out.intern_field(&class, &type_, &name))
}

fn remap_value(dex: &DexFile, out: &mut DexFile, value: &EncodedValue) -> EncodedValue {
    match value {
        EncodedValue::String(i) => match dex.string(*i) {
            Ok(s) => EncodedValue::String(out.intern_string(s)),
            Err(_) => EncodedValue::Null,
        },
        EncodedValue::Type(i) => match dex.type_descriptor(*i) {
            Ok(t) => EncodedValue::Type(out.intern_type(t)),
            Err(_) => EncodedValue::Null,
        },
        EncodedValue::Array(items) => {
            EncodedValue::Array(items.iter().map(|v| remap_value(dex, out, v)).collect())
        }
        other => other.clone(),
    }
}

fn remap_code(dex: &DexFile, out: &mut DexFile, code: &CodeItem) -> Result<CodeItem> {
    let mut new = code.clone();
    // An index that does not resolve in `dex` is left as it is.
    remap_indices(&mut new.insns, |kind, idx| {
        let mapped = match kind {
            IndexKind::None => None,
            IndexKind::String => dex.string(idx).ok().map(|s| out.intern_string(s)),
            IndexKind::Type => dex.type_descriptor(idx).ok().map(|t| out.intern_type(t)),
            IndexKind::Field => intern_field_ref(dex, out, idx),
            IndexKind::Method => intern_method_ref(dex, out, idx),
        };
        Ok::<_, DalvikError>(mapped.unwrap_or(idx))
    })?;
    for handler in &mut new.handlers {
        for clause in &mut handler.catches {
            if let Ok(t) = dex.type_descriptor(clause.type_idx) {
                clause.type_idx = out.intern_type(t);
            }
        }
    }
    Ok(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::decode::decode_method;
    use crate::opcode::Opcode;

    #[test]
    fn subset_is_self_contained_and_runs_references() {
        let mut pb = ProgramBuilder::new();
        pb.class("La/Keep;", |c| {
            c.static_method("go", &[], "V", 2, |m| {
                m.const_str(0, "kept-string");
                m.invoke(Opcode::InvokeStatic, "La/Drop;", "helper", &[], "V", &[]);
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        pb.class("La/Drop;", |c| {
            c.static_method("helper", &[], "V", 1, |m| {
                m.const_str(0, "dropped-string");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        let dex = pb.build().unwrap();
        let subset = extract_classes(&dex, |d| d == "La/Keep;").unwrap();
        assert!(subset.find_class("La/Keep;").is_some());
        assert!(subset.find_class("La/Drop;").is_none());
        // Cross-class method reference survives as a method_id.
        assert!(subset
            .method_ids()
            .iter()
            .any(|m| subset.type_descriptor(m.class).unwrap() == "La/Drop;"));
        // The kept code decodes and its string resolves in the new pools.
        let class = subset.find_class("La/Keep;").unwrap();
        let code = class.class_data.as_ref().unwrap().direct_methods[0]
            .code
            .as_ref()
            .unwrap();
        let insns = decode_method(&code.insns).unwrap();
        let cs = insns[0].1.as_insn().unwrap();
        assert_eq!(subset.string(cs.idx).unwrap(), "kept-string");
        dexlego_dex::verify::verify(&subset, dexlego_dex::verify::Strictness::Referential).unwrap();
    }

    /// Kept classes may reference pool entries whose only *owner* is a
    /// dropped class: the dropped class's fields, methods, type, and strings
    /// interned on its behalf. Extraction must re-intern those into the new
    /// pools (at new indices) rather than let stale indices dangle.
    #[test]
    fn reinterns_pool_entries_owned_by_dropped_classes() {
        use crate::builder::StaticInit;

        let mut pb = ProgramBuilder::new();
        // The dropped class is built first and floods the pools so every
        // index the kept class uses shifts after extraction.
        pb.class("La/Drop;", |c| {
            c.static_field("flag", "I", Some(StaticInit::Int(7)));
            c.static_method("pad", &[], "V", 4, |m| {
                for i in 0..12 {
                    m.const_str(0, &format!("pad-{i}"));
                }
                m.new_instance(1, "La/DropOnly0;");
                m.new_instance(1, "La/DropOnly1;");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
            c.static_method("make", &[], "Ljava/lang/String;", 2, |m| {
                m.const_str(0, "made");
                m.asm.ret(Opcode::ReturnObject, 0);
            });
        });
        pb.class("La/Keep;", |c| {
            c.static_method("go", &[], "V", 3, |m| {
                // Field of the dropped class.
                m.sget(Opcode::Sget, 0, "La/Drop;", "flag", "I");
                // Method of the dropped class, with move-result.
                m.invoke(
                    Opcode::InvokeStatic,
                    "La/Drop;",
                    "make",
                    &[],
                    "Ljava/lang/String;",
                    &[],
                );
                let mut mr = crate::Insn::of(Opcode::MoveResultObject);
                mr.a = 1;
                m.asm.push(mr);
                // The dropped class's own type.
                m.const_class(2, "La/Drop;");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        let dex = pb.build().unwrap();

        // Record the original indices the kept body uses.
        let orig_class = dex.find_class("La/Keep;").unwrap();
        let orig_code = orig_class.class_data.as_ref().unwrap().direct_methods[0]
            .code
            .as_ref()
            .unwrap();
        let orig: Vec<u32> = decode_method(&orig_code.insns)
            .unwrap()
            .iter()
            .filter_map(|(_, d)| d.as_insn())
            .filter(|i| i.op.index_kind() != IndexKind::None)
            .map(|i| i.idx)
            .collect();

        let subset = extract_classes(&dex, |d| d == "La/Keep;").unwrap();
        assert!(subset.find_class("La/Drop;").is_none());

        let class = subset.find_class("La/Keep;").unwrap();
        let code = class.class_data.as_ref().unwrap().direct_methods[0]
            .code
            .as_ref()
            .unwrap();
        let insns = decode_method(&code.insns).unwrap();

        // sget: the field reference resolves in the new pool to the same
        // (class, name, type) triple.
        let sget = insns[0].1.as_insn().unwrap();
        assert_eq!(sget.op, Opcode::Sget);
        let field = subset.field_id(sget.idx).unwrap();
        assert_eq!(subset.type_descriptor(field.class).unwrap(), "La/Drop;");
        assert_eq!(subset.string(field.name).unwrap(), "flag");
        assert_eq!(subset.type_descriptor(field.type_).unwrap(), "I");

        // invoke: the method reference resolves with its full prototype.
        let invoke = insns[1].1.as_insn().unwrap();
        assert_eq!(
            subset.method_signature(invoke.idx).unwrap(),
            "La/Drop;->make()Ljava/lang/String;"
        );

        // const-class: the dropped type is still in the type pool.
        let cc = insns[3].1.as_insn().unwrap();
        assert_eq!(cc.op, Opcode::ConstClass);
        assert_eq!(subset.type_descriptor(cc.idx).unwrap(), "La/Drop;");

        // The indices actually moved: the pad strings and drop-only types
        // are gone, so at least one reference was rewritten in the stream.
        let new: Vec<u32> = insns
            .iter()
            .filter_map(|(_, d)| d.as_insn())
            .filter(|i| i.op.index_kind() != IndexKind::None)
            .map(|i| i.idx)
            .collect();
        assert_ne!(orig, new, "expected re-interned instruction indices");
        assert!(subset.strings().len() < dex.strings().len());

        dexlego_dex::verify::verify(&subset, dexlego_dex::verify::Strictness::Referential).unwrap();
    }

    /// Catch-clause exception types owned only by dropped classes are
    /// re-interned into the subset's type pool.
    #[test]
    fn reinterns_catch_types_from_dropped_classes() {
        use dexlego_dex::code::EncodedCatchHandler;
        use dexlego_dex::code::{CatchClause, TryItem};

        let mut pb = ProgramBuilder::new();
        pb.class("La/DropExc;", |c| {
            c.static_method("noop", &[], "V", 1, |m| {
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        pb.class("La/Keep;", |c| {
            c.static_method("guarded", &[], "V", 2, |m| {
                m.new_instance(0, "Ljava/lang/Object;");
                m.asm.ret(Opcode::ReturnVoid, 0);
                let mut mex = crate::Insn::of(Opcode::MoveException);
                mex.a = 1;
                m.asm.push(mex);
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        let mut dex = pb.build().unwrap();
        let exc_type = dex.intern_type("La/DropExc;");
        {
            let class = dex
                .class_defs_mut()
                .iter_mut()
                .find(|c| c.class_idx != exc_type)
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
                    type_idx: exc_type,
                    addr: 3,
                }],
                catch_all_addr: None,
            });
        }

        let subset = extract_classes(&dex, |d| d == "La/Keep;").unwrap();
        let class = subset.find_class("La/Keep;").unwrap();
        let code = class.class_data.as_ref().unwrap().direct_methods[0]
            .code
            .as_ref()
            .unwrap();
        let clause = &code.handlers[0].catches[0];
        assert_eq!(
            subset.type_descriptor(clause.type_idx).unwrap(),
            "La/DropExc;"
        );
        dexlego_dex::verify::verify(&subset, dexlego_dex::verify::Strictness::Referential).unwrap();
    }
}
