//! Structural verification of a [`DexFile`] model.
//!
//! The checks mirror the invariants a real DEX verifier enforces at the
//! container level: every index in range, shorties consistent with
//! prototypes, class-data member lists ascending, no duplicate class
//! definitions, and (in strict mode) pools sorted per the specification.

use std::collections::HashSet;

use crate::error::{DexError, Result};
use crate::file::DexFile;

/// How thorough verification should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Check referential integrity only. Models produced by interning are
    /// valid at this level even before canonicalisation.
    #[default]
    Referential,
    /// Additionally require the pool-sorting invariants of the binary
    /// format (strings by code-point order, types by descriptor index, …).
    Sorted,
}

/// Verifies the structural invariants of `dex`.
///
/// # Errors
///
/// Returns the first violated invariant as a [`DexError`].
///
/// # Example
///
/// ```
/// use dexlego_dex::{DexFile, verify::{verify, Strictness}};
/// let mut dex = DexFile::new();
/// dex.intern_method("La;", "m", "V", &[]);
/// verify(&dex, Strictness::Referential).unwrap();
/// ```
pub fn verify(dex: &DexFile, strictness: Strictness) -> Result<()> {
    // Type ids reference valid strings that look like descriptors.
    for (i, &sidx) in dex.type_ids().iter().enumerate() {
        let desc = dex.string(sidx)?;
        if !is_type_descriptor(desc) {
            return Err(DexError::Invalid(format!(
                "type {i} has malformed descriptor {desc:?}"
            )));
        }
    }
    // Protos: valid indices, shorty consistent.
    for (i, proto) in dex.protos().iter().enumerate() {
        let shorty = dex.string(proto.shorty)?;
        let ret = dex.type_descriptor(proto.return_type)?;
        let mut expected = String::new();
        expected.push(crate::file::shorty_char(ret));
        for &p in &proto.parameters {
            expected.push(crate::file::shorty_char(dex.type_descriptor(p)?));
        }
        if shorty != expected {
            return Err(DexError::Invalid(format!(
                "proto {i} shorty {shorty:?} does not match signature (expected {expected:?})"
            )));
        }
    }
    // Field/method ids reference valid pools.
    for f in dex.field_ids() {
        dex.type_descriptor(f.class)?;
        dex.type_descriptor(f.type_)?;
        dex.string(f.name)?;
    }
    for m in dex.method_ids() {
        dex.type_descriptor(m.class)?;
        dex.proto(m.proto)?;
        dex.string(m.name)?;
    }
    // Class defs.
    let mut seen = HashSet::new();
    for class in dex.class_defs() {
        dex.type_descriptor(class.class_idx)?;
        if !seen.insert(class.class_idx) {
            return Err(DexError::Invalid(format!(
                "duplicate class definition for {}",
                dex.type_descriptor(class.class_idx)?
            )));
        }
        if let Some(sup) = class.superclass {
            dex.type_descriptor(sup)?;
        }
        for &iface in &class.interfaces {
            dex.type_descriptor(iface)?;
        }
        if let Some(src) = class.source_file {
            dex.string(src)?;
        }
        if let Some(data) = &class.class_data {
            for field in data.fields() {
                let id = dex.field_id(field.field_idx)?;
                if id.class != class.class_idx {
                    return Err(DexError::Invalid(format!(
                        "field {} listed in class {}",
                        dex.field_signature(field.field_idx)?,
                        dex.type_descriptor(class.class_idx)?
                    )));
                }
            }
            for method in data.methods() {
                let id = dex.method_id(method.method_idx)?;
                if id.class != class.class_idx {
                    return Err(DexError::Invalid(format!(
                        "method {} listed in class {}",
                        dex.method_signature(method.method_idx)?,
                        dex.type_descriptor(class.class_idx)?
                    )));
                }
                let has_code = method.code.is_some();
                let expects_code = !method.access.is_native() && !method.access.is_abstract();
                if has_code != expects_code {
                    return Err(DexError::Invalid(format!(
                        "method {} {} a body but access flags are {}",
                        dex.method_signature(method.method_idx)?,
                        if has_code { "has" } else { "lacks" },
                        method.access
                    )));
                }
                if let Some(code) = &method.code {
                    if code.ins_size > code.registers_size {
                        return Err(DexError::Invalid(format!(
                            "method {}: ins_size {} exceeds registers_size {}",
                            dex.method_signature(method.method_idx)?,
                            code.ins_size,
                            code.registers_size
                        )));
                    }
                    for t in &code.tries {
                        if t.handler_index >= code.handlers.len() {
                            return Err(DexError::Invalid(format!(
                                "method {}: try references handler {} of {}",
                                dex.method_signature(method.method_idx)?,
                                t.handler_index,
                                code.handlers.len()
                            )));
                        }
                        let end = t.end_addr();
                        if end > code.insns.len() as u64 {
                            return Err(DexError::Invalid(format!(
                                "method {}: try range [{}, {}) outside code of {} units",
                                dex.method_signature(method.method_idx)?,
                                t.start_addr,
                                end,
                                code.insns.len()
                            )));
                        }
                    }
                    for handler in &code.handlers {
                        for clause in &handler.catches {
                            dex.type_descriptor(clause.type_idx)?;
                        }
                    }
                }
            }
            if class.static_values.len() > data.static_fields.len() {
                return Err(DexError::Invalid(format!(
                    "class {} has {} static values for {} static fields",
                    dex.type_descriptor(class.class_idx)?,
                    class.static_values.len(),
                    data.static_fields.len()
                )));
            }
        }
    }

    if strictness == Strictness::Sorted {
        check_sorted(dex)?;
    }
    Ok(())
}

fn check_sorted(dex: &DexFile) -> Result<()> {
    if dex.strings().windows(2).any(|w| w[0] >= w[1]) {
        return Err(DexError::Invalid("string pool not sorted/unique".into()));
    }
    if dex.type_ids().windows(2).any(|w| w[0] >= w[1]) {
        return Err(DexError::Invalid(
            "type pool not sorted by descriptor".into(),
        ));
    }
    let proto_key = |p: &crate::file::ProtoIdItem| (p.return_type, p.parameters.clone());
    if dex
        .protos()
        .windows(2)
        .any(|w| proto_key(&w[0]) >= proto_key(&w[1]))
    {
        return Err(DexError::Invalid("proto pool not sorted".into()));
    }
    if dex
        .field_ids()
        .windows(2)
        .any(|w| (w[0].class, w[0].name, w[0].type_) >= (w[1].class, w[1].name, w[1].type_))
    {
        return Err(DexError::Invalid("field pool not sorted".into()));
    }
    if dex
        .method_ids()
        .windows(2)
        .any(|w| (w[0].class, w[0].name, w[0].proto) >= (w[1].class, w[1].name, w[1].proto))
    {
        return Err(DexError::Invalid("method pool not sorted".into()));
    }
    Ok(())
}

/// Whether `s` is a well-formed single type descriptor.
pub fn is_type_descriptor(s: &str) -> bool {
    let bytes = s.as_bytes();
    match bytes.first() {
        Some(b'V' | b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D') => bytes.len() == 1,
        Some(b'L') => bytes.len() >= 3 && bytes.ends_with(b";") && !s[1..s.len() - 1].is_empty(),
        Some(b'[') => is_type_descriptor(&s[1..]) && s.as_bytes().get(1) != Some(&b'V'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessFlags;
    use crate::code::CodeItem;
    use crate::file::{ClassDef, EncodedMethod};

    #[test]
    fn descriptor_grammar() {
        for good in ["V", "I", "J", "Ljava/lang/Object;", "[I", "[[Lfoo;", "[B"] {
            assert!(is_type_descriptor(good), "{good} should be valid");
        }
        for bad in ["", "X", "L;", "Lfoo", "[V", "II", "foo"] {
            assert!(!is_type_descriptor(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn interned_model_passes_referential() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        let m = dex.intern_method("La;", "m", "V", &[]);
        let mut def = ClassDef::new(t);
        def.class_data
            .as_mut()
            .unwrap()
            .direct_methods
            .push(EncodedMethod {
                method_idx: m,
                access: AccessFlags::PUBLIC | AccessFlags::STATIC,
                code: Some(CodeItem::new(0, 0, 0, vec![0x000e])),
            });
        dex.add_class(def);
        verify(&dex, Strictness::Referential).unwrap();
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        dex.add_class(ClassDef::new(t));
        dex.add_class(ClassDef::new(t));
        assert!(verify(&dex, Strictness::Referential).is_err());
    }

    #[test]
    fn native_method_with_code_rejected() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        let m = dex.intern_method("La;", "n", "V", &[]);
        let mut def = ClassDef::new(t);
        def.class_data
            .as_mut()
            .unwrap()
            .direct_methods
            .push(EncodedMethod {
                method_idx: m,
                access: AccessFlags::NATIVE | AccessFlags::STATIC,
                code: Some(CodeItem::new(0, 0, 0, vec![0x000e])),
            });
        dex.add_class(def);
        assert!(verify(&dex, Strictness::Referential).is_err());
    }

    #[test]
    fn ins_exceeding_registers_rejected() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        let m = dex.intern_method("La;", "m", "V", &[]);
        let mut def = ClassDef::new(t);
        def.class_data
            .as_mut()
            .unwrap()
            .direct_methods
            .push(EncodedMethod {
                method_idx: m,
                access: AccessFlags::STATIC,
                code: Some(CodeItem::new(1, 2, 0, vec![0x000e])),
            });
        dex.add_class(def);
        assert!(verify(&dex, Strictness::Referential).is_err());
    }

    #[test]
    fn unsorted_strings_fail_strict_only() {
        let mut dex = DexFile::new();
        dex.intern_string("b");
        dex.intern_string("a");
        verify(&dex, Strictness::Referential).unwrap();
        assert!(verify(&dex, Strictness::Sorted).is_err());
    }
}
