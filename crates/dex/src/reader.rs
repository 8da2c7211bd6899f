//! Binary parsing of DEX bytes into a [`DexFile`] model.
//!
//! DEX bytes are hostile input (a packed app, or a request line computed
//! by a client with a valid checksum), so the reader never trusts a
//! declared count with memory: every up-front allocation is capped by how
//! many items the rest of the input can hold (`fitting`), nested static
//! values stop at [`crate::value::MAX_DEPTH`], and the items read once per
//! reference to them decode at most `MAX_EXPANSION` times the input.

use std::cell::Cell;

use crate::access::AccessFlags;
use crate::code::{CatchClause, CodeItem, EncodedCatchHandler, TryItem};
use crate::error::{DexError, Result};
use crate::file::{
    ClassData, ClassDef, DexFile, EncodedField, EncodedMethod, FieldIdItem, MethodIdItem,
    ProtoIdItem,
};
use crate::value::EncodedValue;
use crate::{checksum, leb128, mutf8, DEX_MAGIC, ENDIAN_CONSTANT, HEADER_SIZE, NO_INDEX};

/// How many times its own size a file's strings, type lists, code items,
/// class data and static values may decode to, counted in the input bytes
/// each is read from. Each is read once per reference to it, so a file
/// whose many ids point at one large item would otherwise cost memory
/// quadratic in its size; the sharing a valid file has (the writer shares
/// equal type lists) stays well below the bound.
const MAX_EXPANSION: usize = 4;

struct In<'a> {
    buf: &'a [u8],
    /// Input bytes left to decode under [`MAX_EXPANSION`].
    budget: Cell<usize>,
}

impl<'a> In<'a> {
    /// Charges `bytes` of decoded input against the budget.
    fn charge(&self, bytes: usize) -> Result<()> {
        let left = self.budget.get().checked_sub(bytes).ok_or_else(|| {
            DexError::Invalid(format!(
                "shared items decode to more than {MAX_EXPANSION} times the file's size"
            ))
        })?;
        self.budget.set(left);
        Ok(())
    }

    fn u16_at(&self, off: usize) -> Result<u16> {
        let b = self.buf.get(off..off + 2).ok_or(DexError::Truncated {
            offset: off,
            what: "u16",
        })?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32_at(&self, off: usize) -> Result<u32> {
        let b = self.buf.get(off..off + 4).ok_or(DexError::Truncated {
            offset: off,
            what: "u32",
        })?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// How many items of `size` bytes fit in `buf` from `off`: the most an
/// up-front allocation for `count` declared items reserves, so a hostile
/// count costs no more memory than the input could fill.
pub(crate) fn fitting(buf: &[u8], off: usize, size: usize, count: usize) -> usize {
    count.min(buf.len().saturating_sub(off) / size)
}

fn read_string_data(input: &In<'_>, off: usize) -> Result<String> {
    let mut pos = off;
    let _utf16_len = leb128::read_uleb128(input.buf, &mut pos)?;
    let start = pos;
    while *input.buf.get(pos).ok_or(DexError::Truncated {
        offset: pos,
        what: "string_data",
    })? != 0
    {
        pos += 1;
    }
    input.charge(pos + 1 - off)?;
    mutf8::decode(&input.buf[start..pos])
}

fn read_type_list(input: &In<'_>, off: u32) -> Result<Vec<u32>> {
    if off == 0 {
        return Ok(Vec::new());
    }
    let off = off as usize;
    let size = input.u32_at(off)? as usize;
    input.charge(4 + 2 * size)?;
    let mut list = Vec::with_capacity(fitting(input.buf, off + 4, 2, size));
    for i in 0..size {
        list.push(u32::from(input.u16_at(off + 4 + i * 2)?));
    }
    Ok(list)
}

fn read_code_item(input: &In<'_>, off: usize) -> Result<CodeItem> {
    let registers_size = input.u16_at(off)?;
    let ins_size = input.u16_at(off + 2)?;
    let outs_size = input.u16_at(off + 4)?;
    let tries_size = input.u16_at(off + 6)? as usize;
    let insns_size = input.u32_at(off + 12)? as usize;
    let insns_off = off + 16;
    input.charge(16 + 2 * insns_size)?;
    let mut insns = Vec::with_capacity(fitting(input.buf, insns_off, 2, insns_size));
    for i in 0..insns_size {
        insns.push(input.u16_at(insns_off + i * 2)?);
    }
    let mut code = CodeItem {
        registers_size,
        ins_size,
        outs_size,
        insns,
        tries: Vec::new(),
        handlers: Vec::new(),
    };
    if tries_size > 0 {
        let mut pos = insns_off + insns_size * 2;
        if !insns_size.is_multiple_of(2) {
            pos += 2; // padding
        }
        let tries_off = pos;
        let handlers_off = tries_off + tries_size * 8;
        // Parse the handler list; map byte-offset -> handler index.
        let mut hpos = handlers_off;
        let list_size = leb128::read_uleb128(input.buf, &mut hpos)?;
        let mut offset_to_index = std::collections::HashMap::new();
        for i in 0..list_size {
            let rel = (hpos - handlers_off) as u32;
            offset_to_index.insert(rel, i as usize);
            let signed = leb128::read_sleb128(input.buf, &mut hpos)?;
            let n = signed.unsigned_abs() as usize;
            let mut handler = EncodedCatchHandler::default();
            for _ in 0..n {
                let type_idx = leb128::read_uleb128(input.buf, &mut hpos)?;
                let addr = leb128::read_uleb128(input.buf, &mut hpos)?;
                handler.catches.push(CatchClause { type_idx, addr });
            }
            if signed <= 0 {
                handler.catch_all_addr = Some(leb128::read_uleb128(input.buf, &mut hpos)?);
            }
            code.handlers.push(handler);
        }
        input.charge(hpos - tries_off)?;
        for i in 0..tries_size {
            let toff = tries_off + i * 8;
            let start_addr = input.u32_at(toff)?;
            let insn_count = input.u16_at(toff + 4)?;
            let handler_off = u32::from(input.u16_at(toff + 6)?);
            let handler_index = *offset_to_index.get(&handler_off).ok_or_else(|| {
                DexError::Invalid(format!("try_item references handler offset {handler_off}"))
            })?;
            code.tries.push(TryItem {
                start_addr,
                insn_count,
                handler_index,
            });
        }
    }
    Ok(code)
}

fn read_class_data(input: &In<'_>, off: usize) -> Result<ClassData> {
    let mut pos = off;
    let static_n = leb128::read_uleb128(input.buf, &mut pos)?;
    let instance_n = leb128::read_uleb128(input.buf, &mut pos)?;
    let direct_n = leb128::read_uleb128(input.buf, &mut pos)?;
    let virtual_n = leb128::read_uleb128(input.buf, &mut pos)?;
    let mut data = ClassData::default();
    for (count, list) in [
        (static_n, &mut data.static_fields),
        (instance_n, &mut data.instance_fields),
    ] {
        let mut idx = 0u32;
        for i in 0..count {
            let diff = leb128::read_uleb128(input.buf, &mut pos)?;
            idx = if i == 0 { diff } else { idx.wrapping_add(diff) };
            let access = AccessFlags(leb128::read_uleb128(input.buf, &mut pos)?);
            list.push(EncodedField {
                field_idx: idx,
                access,
            });
        }
    }
    for (count, list) in [
        (direct_n, &mut data.direct_methods),
        (virtual_n, &mut data.virtual_methods),
    ] {
        let mut idx = 0u32;
        for i in 0..count {
            let diff = leb128::read_uleb128(input.buf, &mut pos)?;
            idx = if i == 0 { diff } else { idx.wrapping_add(diff) };
            let access = AccessFlags(leb128::read_uleb128(input.buf, &mut pos)?);
            let code_off = leb128::read_uleb128(input.buf, &mut pos)?;
            let code = if code_off == 0 {
                None
            } else {
                Some(read_code_item(input, code_off as usize)?)
            };
            list.push(EncodedMethod {
                method_idx: idx,
                access,
                code,
            });
        }
    }
    input.charge(pos - off)?;
    Ok(data)
}

/// Parses DEX bytes, verifying the header checksum and signature.
///
/// # Errors
///
/// Returns [`DexError::ChecksumMismatch`] or [`DexError::SignatureMismatch`]
/// on corrupted input, and structural errors for malformed content. Use
/// [`read_dex_unchecked`] to skip integrity verification.
pub fn read_dex(bytes: &[u8]) -> Result<DexFile> {
    if bytes.len() >= 32 {
        let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
        let computed = checksum::adler32(&bytes[12..]);
        if stored != computed {
            return Err(DexError::ChecksumMismatch { stored, computed });
        }
        if bytes[12..32] != checksum::sha1(&bytes[32..]) {
            return Err(DexError::SignatureMismatch);
        }
    }
    read_dex_unchecked(bytes)
}

/// Parses DEX bytes without verifying checksum or signature.
///
/// # Errors
///
/// Returns structural [`DexError`]s for malformed content.
pub fn read_dex_unchecked(bytes: &[u8]) -> Result<DexFile> {
    let input = In {
        buf: bytes,
        budget: Cell::new(MAX_EXPANSION * bytes.len()),
    };
    if bytes.len() < HEADER_SIZE as usize {
        return Err(DexError::Truncated {
            offset: bytes.len(),
            what: "header",
        });
    }
    let magic: [u8; 8] = bytes[..8].try_into().expect("length checked");
    if magic != DEX_MAGIC {
        return Err(DexError::BadMagic(magic));
    }
    let endian = input.u32_at(40)?;
    if endian != ENDIAN_CONSTANT {
        return Err(DexError::BadEndianTag(endian));
    }

    let string_ids_size = input.u32_at(56)? as usize;
    let string_ids_off = input.u32_at(60)? as usize;
    let type_ids_size = input.u32_at(64)? as usize;
    let type_ids_off = input.u32_at(68)? as usize;
    let proto_ids_size = input.u32_at(72)? as usize;
    let proto_ids_off = input.u32_at(76)? as usize;
    let field_ids_size = input.u32_at(80)? as usize;
    let field_ids_off = input.u32_at(84)? as usize;
    let method_ids_size = input.u32_at(88)? as usize;
    let method_ids_off = input.u32_at(92)? as usize;
    let class_defs_size = input.u32_at(96)? as usize;
    let class_defs_off = input.u32_at(100)? as usize;

    let mut strings = Vec::with_capacity(fitting(bytes, string_ids_off, 4, string_ids_size));
    for i in 0..string_ids_size {
        let data_off = input.u32_at(string_ids_off + i * 4)? as usize;
        strings.push(read_string_data(&input, data_off)?);
    }

    let mut type_ids = Vec::with_capacity(fitting(bytes, type_ids_off, 4, type_ids_size));
    for i in 0..type_ids_size {
        let sidx = input.u32_at(type_ids_off + i * 4)?;
        if sidx as usize >= strings.len() {
            return Err(DexError::IndexOutOfRange {
                pool: "string",
                index: sidx,
                len: strings.len(),
            });
        }
        type_ids.push(sidx);
    }

    let mut protos = Vec::with_capacity(fitting(bytes, proto_ids_off, 12, proto_ids_size));
    for i in 0..proto_ids_size {
        let off = proto_ids_off + i * 12;
        protos.push(ProtoIdItem {
            shorty: input.u32_at(off)?,
            return_type: input.u32_at(off + 4)?,
            parameters: read_type_list(&input, input.u32_at(off + 8)?)?,
        });
    }

    let mut field_ids = Vec::with_capacity(fitting(bytes, field_ids_off, 8, field_ids_size));
    for i in 0..field_ids_size {
        let off = field_ids_off + i * 8;
        field_ids.push(FieldIdItem {
            class: u32::from(input.u16_at(off)?),
            type_: u32::from(input.u16_at(off + 2)?),
            name: input.u32_at(off + 4)?,
        });
    }

    let mut method_ids = Vec::with_capacity(fitting(bytes, method_ids_off, 8, method_ids_size));
    for i in 0..method_ids_size {
        let off = method_ids_off + i * 8;
        method_ids.push(MethodIdItem {
            class: u32::from(input.u16_at(off)?),
            proto: u32::from(input.u16_at(off + 2)?),
            name: input.u32_at(off + 4)?,
        });
    }

    let mut class_defs = Vec::with_capacity(fitting(bytes, class_defs_off, 32, class_defs_size));
    for i in 0..class_defs_size {
        let off = class_defs_off + i * 32;
        let class_idx = input.u32_at(off)?;
        let access = AccessFlags(input.u32_at(off + 4)?);
        let superclass_raw = input.u32_at(off + 8)?;
        let interfaces = read_type_list(&input, input.u32_at(off + 12)?)?;
        let source_file_raw = input.u32_at(off + 16)?;
        let class_data_off = input.u32_at(off + 24)? as usize;
        let static_values_off = input.u32_at(off + 28)? as usize;

        let class_data = if class_data_off == 0 {
            None
        } else {
            Some(read_class_data(&input, class_data_off)?)
        };
        let static_values = if static_values_off == 0 {
            Vec::new()
        } else {
            let mut pos = static_values_off;
            let values = EncodedValue::read_list(bytes, &mut pos, 0)?;
            input.charge(pos - static_values_off)?;
            values
        };

        class_defs.push(ClassDef {
            class_idx,
            access,
            superclass: if superclass_raw == NO_INDEX {
                None
            } else {
                Some(superclass_raw)
            },
            interfaces,
            source_file: if source_file_raw == NO_INDEX {
                None
            } else {
                Some(source_file_raw)
            },
            class_data,
            static_values,
        });
    }

    Ok(DexFile::from_pools(
        strings, type_ids, protos, field_ids, method_ids, class_defs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_dex;

    fn sample_dex() -> DexFile {
        let mut dex = DexFile::new();
        let t = dex.intern_type("Lcom/test/Main;");
        dex.intern_type("Ljava/lang/Object;");
        let m = dex.intern_method("Lcom/test/Main;", "advancedLeak", "V", &[]);
        let f = dex.intern_field("Lcom/test/Main;", "Ljava/lang/String;", "PHONE");
        let mut def = ClassDef::new(t);
        def.superclass = Some(dex.intern_type("Ljava/lang/Object;"));
        def.static_values
            .push(EncodedValue::String(dex.intern_string("800-123-456")));
        let data = def.class_data.as_mut().unwrap();
        data.static_fields.push(EncodedField {
            field_idx: f,
            access: AccessFlags::STATIC | AccessFlags::FINAL | AccessFlags::PRIVATE,
        });
        data.virtual_methods.push(EncodedMethod {
            method_idx: m,
            access: AccessFlags::PUBLIC,
            code: Some(CodeItem::new(3, 1, 1, vec![0x000e])),
        });
        dex.add_class(def);
        dex
    }

    #[test]
    fn roundtrip_preserves_model() {
        let dex = sample_dex();
        let bytes = write_dex(&dex).unwrap();
        let back = read_dex(&bytes).unwrap();
        assert_eq!(back, dex);
    }

    #[test]
    fn roundtrip_is_fixpoint() {
        let dex = sample_dex();
        let bytes1 = write_dex(&dex).unwrap();
        let back = read_dex(&bytes1).unwrap();
        let bytes2 = write_dex(&back).unwrap();
        assert_eq!(bytes1, bytes2);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let dex = sample_dex();
        let mut bytes = write_dex(&dex).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            read_dex(&bytes),
            Err(DexError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let dex = sample_dex();
        let mut bytes = write_dex(&dex).unwrap();
        bytes[20] ^= 0xff; // inside signature field
                           // Recompute the checksum so only the signature is wrong.
        let sum = checksum::adler32(&bytes[12..]);
        bytes[8..12].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(read_dex(&bytes), Err(DexError::SignatureMismatch));
    }

    #[test]
    fn unchecked_ignores_corruption() {
        let dex = sample_dex();
        let mut bytes = write_dex(&dex).unwrap();
        bytes[20] ^= 0xff;
        assert!(read_dex_unchecked(&bytes).is_ok());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_dex(&DexFile::new()).unwrap();
        bytes[0] = b'x';
        assert!(matches!(
            read_dex_unchecked(&bytes),
            Err(DexError::BadMagic(_))
        ));
    }

    #[test]
    fn try_catch_roundtrip() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        let exc = dex.intern_type("Ljava/lang/Exception;");
        let m = dex.intern_method("La;", "risky", "V", &[]);
        let mut def = ClassDef::new(t);
        let mut code = CodeItem::new(2, 0, 0, vec![0x0000, 0x0000, 0x0000, 0x000e]);
        code.handlers.push(EncodedCatchHandler {
            catches: vec![CatchClause {
                type_idx: exc,
                addr: 3,
            }],
            catch_all_addr: Some(3),
        });
        code.tries.push(TryItem {
            start_addr: 0,
            insn_count: 3,
            handler_index: 0,
        });
        def.class_data
            .as_mut()
            .unwrap()
            .direct_methods
            .push(EncodedMethod {
                method_idx: m,
                access: AccessFlags::STATIC,
                code: Some(code.clone()),
            });
        dex.add_class(def);
        let bytes = write_dex(&dex).unwrap();
        let back = read_dex(&bytes).unwrap();
        let got = back.class_defs()[0]
            .class_data
            .as_ref()
            .unwrap()
            .direct_methods[0]
            .code
            .as_ref()
            .unwrap();
        assert_eq!(*got, code);
    }
}
