//! Pool canonicalisation: sorting a [`DexFile`]'s pools per the format
//! specification and rewriting every embedded index.
//!
//! The binary DEX format requires its pools sorted (strings by code-point
//! order, types by descriptor index, fields/methods by class/name/type).
//! Models built by interning are in insertion order, so before a
//! reassembled DEX is written out, [`canonicalize`] produces an equivalent
//! model with sorted pools, remapping indices in id items, class defs,
//! static values, catch handlers, **and instruction streams** (which is why
//! this pass lives here rather than in `dexlego-dex`: it must know each
//! instruction's format). Index operands are patched in place in the one
//! copy of each class, without decoding a method into instruction values.

use dexlego_dex::value::EncodedValue;
use dexlego_dex::{ClassDef, CodeItem, DexFile};

use crate::decode::insn_units;
use crate::opcode::{Format, IndexKind, Opcode};
use crate::{DalvikError, Result};

/// Index remapping tables produced by sorting the pools.
#[derive(Debug, Default)]
struct Remap {
    string: Vec<u32>,
    type_: Vec<u32>,
    proto: Vec<u32>,
    field: Vec<u32>,
    method: Vec<u32>,
}

/// Returns an equivalent `DexFile` whose pools satisfy the binary format's
/// sorting invariants, with all indices (including those inside instruction
/// streams) rewritten.
///
/// # Errors
///
/// Fails if an instruction stream cannot be decoded (e.g. a method body
/// carrying an encrypted payload); canonicalise only fully-revealed models.
///
/// # Example
///
/// ```
/// use dexlego_dex::{DexFile, verify::{verify, Strictness}};
/// use dexlego_dalvik::canon::canonicalize;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dex = DexFile::new();
/// dex.intern_string("zzz");
/// dex.intern_string("aaa");
/// let sorted = canonicalize(&dex)?;
/// verify(&sorted, Strictness::Sorted)?;
/// # Ok(())
/// # }
/// ```
pub fn canonicalize(dex: &DexFile) -> Result<DexFile> {
    let mut remap = Remap::default();

    // Strings: sort by UTF-16 code-point order (Rust string comparison is by
    // Unicode scalar, which matches for BMP content; supplementary planes
    // compare after surrogates either way for our corpus).
    let mut string_order: Vec<usize> = (0..dex.strings().len()).collect();
    string_order.sort_by(|&a, &b| dex.strings()[a].cmp(&dex.strings()[b]));
    remap.string = invert(&string_order);
    let strings: Vec<String> = string_order
        .iter()
        .map(|&i| dex.strings()[i].clone())
        .collect();

    // Types: sorted by (remapped) descriptor string index.
    let mut type_order: Vec<usize> = (0..dex.type_ids().len()).collect();
    type_order.sort_by_key(|&i| remap.string[dex.type_ids()[i] as usize]);
    remap.type_ = invert(&type_order);
    let type_ids: Vec<u32> = type_order
        .iter()
        .map(|&i| remap.string[dex.type_ids()[i] as usize])
        .collect();

    // Protos: sorted by return type then parameter list.
    let proto_key = |p: &dexlego_dex::ProtoIdItem| {
        (
            remap.type_[p.return_type as usize],
            p.parameters
                .iter()
                .map(|&t| remap.type_[t as usize])
                .collect::<Vec<_>>(),
        )
    };
    let mut proto_order: Vec<usize> = (0..dex.protos().len()).collect();
    proto_order.sort_by_key(|&i| proto_key(&dex.protos()[i]));
    remap.proto = invert(&proto_order);
    let protos: Vec<dexlego_dex::ProtoIdItem> = proto_order
        .iter()
        .map(|&i| {
            let p = &dex.protos()[i];
            dexlego_dex::ProtoIdItem {
                shorty: remap.string[p.shorty as usize],
                return_type: remap.type_[p.return_type as usize],
                parameters: p
                    .parameters
                    .iter()
                    .map(|&t| remap.type_[t as usize])
                    .collect(),
            }
        })
        .collect();

    // Fields: by class, then name, then type.
    let mut field_order: Vec<usize> = (0..dex.field_ids().len()).collect();
    field_order.sort_by_key(|&i| {
        let f = &dex.field_ids()[i];
        (
            remap.type_[f.class as usize],
            remap.string[f.name as usize],
            remap.type_[f.type_ as usize],
        )
    });
    remap.field = invert(&field_order);
    let field_ids: Vec<dexlego_dex::FieldIdItem> = field_order
        .iter()
        .map(|&i| {
            let f = &dex.field_ids()[i];
            dexlego_dex::FieldIdItem {
                class: remap.type_[f.class as usize],
                type_: remap.type_[f.type_ as usize],
                name: remap.string[f.name as usize],
            }
        })
        .collect();

    // Methods: by class, then name, then proto.
    let mut method_order: Vec<usize> = (0..dex.method_ids().len()).collect();
    method_order.sort_by_key(|&i| {
        let m = &dex.method_ids()[i];
        (
            remap.type_[m.class as usize],
            remap.string[m.name as usize],
            remap.proto[m.proto as usize],
        )
    });
    remap.method = invert(&method_order);
    let method_ids: Vec<dexlego_dex::MethodIdItem> = method_order
        .iter()
        .map(|&i| {
            let m = &dex.method_ids()[i];
            dexlego_dex::MethodIdItem {
                class: remap.type_[m.class as usize],
                proto: remap.proto[m.proto as usize],
                name: remap.string[m.name as usize],
            }
        })
        .collect();

    // Class defs: remap indices, rewrite bodies, sort member lists, and
    // order the defs by class type index.
    let mut class_defs: Vec<ClassDef> = dex
        .class_defs()
        .iter()
        .map(|c| remap_class(c, &remap))
        .collect::<Result<_>>()?;
    class_defs.sort_by_key(|c| c.class_idx);

    Ok(DexFile::from_pools(
        strings, type_ids, protos, field_ids, method_ids, class_defs,
    ))
}

fn invert(order: &[usize]) -> Vec<u32> {
    let mut inverse = vec![0u32; order.len()];
    for (new, &old) in order.iter().enumerate() {
        inverse[old] = new as u32;
    }
    inverse
}

fn remap_class(class: &ClassDef, remap: &Remap) -> Result<ClassDef> {
    // The one copy; every index below is rewritten in it.
    let mut out = class.clone();
    out.class_idx = remap.type_[class.class_idx as usize];
    out.superclass = class.superclass.map(|t| remap.type_[t as usize]);
    for t in &mut out.interfaces {
        *t = remap.type_[*t as usize];
    }
    out.source_file = class.source_file.map(|s| remap.string[s as usize]);
    for value in &mut out.static_values {
        remap_value(value, remap);
    }
    if let Some(data) = &mut out.class_data {
        for field in data
            .static_fields
            .iter_mut()
            .chain(data.instance_fields.iter_mut())
        {
            field.field_idx = remap.field[field.field_idx as usize];
        }
        data.static_fields.sort_by_key(|f| f.field_idx);
        data.instance_fields.sort_by_key(|f| f.field_idx);
        for method in data.methods_mut() {
            method.method_idx = remap.method[method.method_idx as usize];
            if let Some(code) = &mut method.code {
                remap_code(code, remap)?;
            }
        }
        data.direct_methods.sort_by_key(|m| m.method_idx);
        data.virtual_methods.sort_by_key(|m| m.method_idx);
    }
    Ok(out)
}

fn remap_value(value: &mut EncodedValue, remap: &Remap) {
    match value {
        EncodedValue::String(i) => *i = remap.string[*i as usize],
        EncodedValue::Type(i) => *i = remap.type_[*i as usize],
        EncodedValue::Field(i) | EncodedValue::Enum(i) => *i = remap.field[*i as usize],
        EncodedValue::Method(i) => *i = remap.method[*i as usize],
        EncodedValue::Array(items) => {
            for item in items {
                remap_value(item, remap);
            }
        }
        _ => {}
    }
}

/// Rewrites the index operands of `code` and its catch types in place.
fn remap_code(code: &mut CodeItem, remap: &Remap) -> Result<()> {
    remap_indices(&mut code.insns, |kind, idx| {
        let table = match kind {
            IndexKind::None => return Ok(idx),
            IndexKind::String => &remap.string,
            IndexKind::Type => &remap.type_,
            IndexKind::Field => &remap.field,
            IndexKind::Method => &remap.method,
        };
        Ok::<_, DalvikError>(table[idx as usize])
    })?;
    for handler in &mut code.handlers {
        for clause in &mut handler.catches {
            clause.type_idx = remap.type_[clause.type_idx as usize];
        }
    }
    Ok(())
}

/// Rewrites every index operand of the method body `units` in place: the
/// operand `idx` of an instruction whose opcode has index kind `kind`
/// becomes `map(kind, idx)`, called once per indexed instruction in
/// address order. The units come out as re-encoding each decoded
/// instruction whose index changed would leave them. Every format keeps
/// its unit length when only the index changes (index width is fixed per
/// format), so addresses, branch offsets, and try ranges are unaffected.
///
/// # Errors
///
/// A body that does not decode fails as decoding it fails, before `map`
/// is called; a mapped index too wide for its 16-bit operand fails with
/// [`DalvikError::OperandRange`]; an error of `map` is returned as is.
/// Indices rewritten before an error stay rewritten.
pub fn remap_indices<E: From<DalvikError>>(
    units: &mut [u16],
    mut map: impl FnMut(IndexKind, u32) -> std::result::Result<u32, E>,
) -> std::result::Result<(), E> {
    // The whole body must decode before any index is rewritten, so a
    // malformed method fails exactly as decoding it fails.
    let mut pc = 0;
    while pc < units.len() {
        pc += insn_units(units, pc)?;
    }
    let mut pc = 0;
    while pc < units.len() {
        let len = insn_units(units, pc)?;
        // A payload's first unit has opcode byte 0 (`nop`), which has no
        // index.
        let op = Opcode::from_u8(units[pc] as u8).filter(|op| op.index_kind() != IndexKind::None);
        if let Some(op) = op {
            let insn = &mut units[pc..pc + len];
            // 31c holds a 32-bit index; 21c, 22c, 35c and 3rc a 16-bit
            // index in the second unit.
            let idx = match op.format() {
                Format::F31c => u32::from(insn[1]) | (u32::from(insn[2]) << 16),
                _ => u32::from(insn[1]),
            };
            set_index(insn, op, idx, map(op.index_kind(), idx)?)?;
        }
        pc += len;
    }
    Ok(())
}

/// Changes the index operand of one instruction `insn` (its units, opcode
/// `op`) from `idx` to `mapped`, leaving the units as re-encoding the
/// decoded instruction with the new index would.
fn set_index(insn: &mut [u16], op: Opcode, idx: u32, mapped: u32) -> Result<()> {
    if op.format() == Format::F31c {
        insn[1] = mapped as u16;
        insn[2] = (mapped >> 16) as u16;
        return Ok(());
    }
    if mapped == idx {
        return Ok(());
    }
    if mapped > 0xffff {
        return Err(DalvikError::OperandRange {
            mnemonic: op.mnemonic(),
            operand: "index",
            value: i64::from(mapped),
        });
    }
    insn[1] = mapped as u16;
    // The encoder writes zeros where the decoder ignored bits: the 35c
    // register nibbles past the argument count (and `vG` below five
    // arguments), and a 3rc start register with no arguments.
    match op.format() {
        Format::F35c => {
            let count = insn[0] >> 12;
            if count < 5 {
                insn[0] &= 0xf0ff;
            }
            insn[2] &= match count {
                0..=3 => (1u16 << (4 * count)) - 1,
                _ => 0xffff,
            };
        }
        Format::F3rc if insn[0] >> 8 == 0 => insn[2] = 0,
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::MethodAssembler;
    use crate::decode::decode_method;
    use crate::encode::encode_decoded;
    use crate::insn::Decoded;
    use crate::opcode::Opcode;
    use dexlego_dex::verify::{verify, Strictness};
    use dexlego_dex::{AccessFlags, EncodedMethod};

    fn build_unsorted() -> DexFile {
        let mut dex = DexFile::new();
        // Intern in reverse-alphabetical order to force remapping.
        dex.intern_string("zz-last");
        let t = dex.intern_type("Lzz/Main;");
        dex.intern_type("Laa/Other;");
        let callee = dex.intern_method("Lzz/Main;", "zz_callee", "V", &[]);
        let m = dex.intern_method("Lzz/Main;", "aa_entry", "V", &[]);
        let s = dex.intern_string("aa-string");
        let f = dex.intern_field("Lzz/Main;", "I", "counter");

        let mut asm = MethodAssembler::new();
        asm.const_string(0, s);
        asm.field_op(Opcode::Sget, 1, 0, f);
        asm.invoke(Opcode::InvokeStatic, callee, &[]);
        asm.ret(Opcode::ReturnVoid, 0);
        let code = dexlego_dex::CodeItem::new(2, 0, 0, asm.assemble().unwrap());

        let mut def = ClassDef::new(t);
        let data = def.class_data.as_mut().unwrap();
        data.static_fields.push(dexlego_dex::file::EncodedField {
            field_idx: f,
            access: AccessFlags::STATIC,
        });
        data.direct_methods.push(EncodedMethod {
            method_idx: callee,
            access: AccessFlags::STATIC,
            code: Some(dexlego_dex::CodeItem::new(0, 0, 0, vec![0x000e])),
        });
        data.direct_methods.push(EncodedMethod {
            method_idx: m,
            access: AccessFlags::STATIC,
            code: Some(code),
        });
        // Not ascending by method_idx: canonicalize must fix this.
        dex.add_class(def);
        dex
    }

    #[test]
    fn canonical_model_passes_strict_verify() {
        let dex = build_unsorted();
        assert!(verify(&dex, Strictness::Sorted).is_err());
        let canonical = canonicalize(&dex).unwrap();
        verify(&canonical, Strictness::Sorted).unwrap();
    }

    #[test]
    fn instruction_references_survive() {
        let dex = build_unsorted();
        let canonical = canonicalize(&dex).unwrap();
        let class = canonical.find_class("Lzz/Main;").unwrap();
        let data = class.class_data.as_ref().unwrap();
        // Find aa_entry's code and check its references resolve to the same
        // strings/signatures as before.
        let entry = data
            .methods()
            .find(|m| {
                canonical
                    .method_signature(m.method_idx)
                    .is_ok_and(|s| s.contains("aa_entry"))
            })
            .expect("entry method");
        let code = entry.code.as_ref().unwrap();
        let insns = decode_method(&code.insns).unwrap();
        let const_str = insns[0].1.as_insn().unwrap();
        assert_eq!(canonical.string(const_str.idx).unwrap(), "aa-string");
        let sget = insns[1].1.as_insn().unwrap();
        assert_eq!(
            canonical.field_signature(sget.idx).unwrap(),
            "Lzz/Main;->counter:I"
        );
        let invoke = insns[2].1.as_insn().unwrap();
        assert_eq!(
            canonical.method_signature(invoke.idx).unwrap(),
            "Lzz/Main;->zz_callee()V"
        );
    }

    #[test]
    fn canonicalize_then_write_then_read_roundtrips() {
        let dex = build_unsorted();
        let canonical = canonicalize(&dex).unwrap();
        let bytes = dexlego_dex::writer::write_dex(&canonical).unwrap();
        let back = dexlego_dex::reader::read_dex(&bytes).unwrap();
        assert_eq!(back, canonical);
        verify(&back, Strictness::Sorted).unwrap();
    }

    /// The re-encoding rewrite that patching in place replaced: decode the
    /// body, then re-encode every instruction whose index changes.
    fn remap_by_reencoding(insns: &[u16], remap: &Remap) -> Result<Vec<u16>> {
        let mut units = insns.to_vec();
        for (addr, decoded) in decode_method(insns)? {
            if let Decoded::Insn(mut insn) = decoded {
                let mapped = match insn.op.index_kind() {
                    IndexKind::None => continue,
                    IndexKind::String => remap.string[insn.idx as usize],
                    IndexKind::Type => remap.type_[insn.idx as usize],
                    IndexKind::Field => remap.field[insn.idx as usize],
                    IndexKind::Method => remap.method[insn.idx as usize],
                };
                if mapped == insn.idx {
                    continue;
                }
                insn.idx = mapped;
                let encoded = encode_decoded(&Decoded::Insn(insn))?;
                units[addr as usize..addr as usize + encoded.len()].copy_from_slice(&encoded);
            }
        }
        Ok(units)
    }

    /// Random bodies of indexed instructions with stray bits in the
    /// operands the decoder ignores, switch and array payloads, and the
    /// odd malformed tail, over tables that move most indices (some past
    /// 16 bits): patching in place gives re-encoding's units and errors.
    #[test]
    fn patching_in_place_matches_reencoding() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        const POOL: u32 = 70_000;
        let table = |shift: u32| {
            (0..POOL)
                .map(|i| (i * 7 + shift) % POOL)
                .collect::<Vec<_>>()
        };
        let remap = Remap {
            string: table(3),
            type_: table(5),
            proto: Vec::new(),
            field: (0..POOL).map(|i| (POOL - 1 - i) % 60_000).collect(),
            method: (0..POOL).map(|i| i ^ 1).collect(),
        };
        let indexed = [
            Opcode::ConstString,
            Opcode::ConstStringJumbo,
            Opcode::NewInstance,
            Opcode::Iget,
            Opcode::Sput,
            Opcode::InstanceOf,
            Opcode::InvokeVirtual,
            Opcode::InvokeStaticRange,
            Opcode::FilledNewArray,
            Opcode::AddInt,
        ];
        let mut moved = 0;
        for _ in 0..2_000 {
            let mut body = Vec::new();
            for _ in 0..1 + next(12) {
                let op = indexed[next(indexed.len() as u64) as usize];
                let junk = next(1 << 16) as u16;
                body.push(op as u16 | (junk & 0xff00));
                for _ in 1..op.format().units() {
                    body.push(next(1 << 16) as u16);
                }
                if op.format() == Format::F31c {
                    // Keep the 32-bit index inside the pool.
                    *body.last_mut().unwrap() = 0;
                }
                match next(8) {
                    0 => body.extend([0x0100, 1, 0, 0, 3, 0]),
                    1 => body.extend([0x0200, 1, 5, 0, 3, 0]),
                    2 => body.extend([0x0300, 1, 3, 0, 0x0102, 0x03]),
                    _ => {}
                }
            }
            match next(20) {
                0 => body.push(0x0400),
                1 => body.push(0x003e),
                2 => body.push(Opcode::InvokeDirect as u16),
                _ => {}
            }
            let mut code = CodeItem::new(16, 0, 0, body.clone());
            let patched = remap_code(&mut code, &remap).map(|()| code.insns);
            let expected = remap_by_reencoding(&body, &remap);
            assert_eq!(patched, expected, "body {body:04x?}");
            moved += usize::from(matches!(&expected, Ok(units) if *units != body));
        }
        assert!(moved > 500, "only {moved} bodies changed");
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let dex = build_unsorted();
        let once = canonicalize(&dex).unwrap();
        let twice = canonicalize(&once).unwrap();
        assert_eq!(once, twice);
    }
}
