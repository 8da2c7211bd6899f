//! Binary serialisation of a [`DexFile`] into spec-conformant bytes.
//!
//! Layout order: header, id pools, class defs, then the data section
//! (type lists, code items, class data, string data, encoded arrays) and the
//! map list, followed by header patching and checksum/signature computation.

use std::collections::HashMap;

use crate::code::CodeItem;
use crate::error::{DexError, Result};
use crate::file::{ClassData, DexFile};
use crate::{checksum, leb128, mutf8, DEX_MAGIC, ENDIAN_CONSTANT, HEADER_SIZE, NO_INDEX};

/// Map-list item type codes from the DEX specification.
pub mod map_type {
    /// `header_item`.
    pub const HEADER: u16 = 0x0000;
    /// `string_id_item` list.
    pub const STRING_ID: u16 = 0x0001;
    /// `type_id_item` list.
    pub const TYPE_ID: u16 = 0x0002;
    /// `proto_id_item` list.
    pub const PROTO_ID: u16 = 0x0003;
    /// `field_id_item` list.
    pub const FIELD_ID: u16 = 0x0004;
    /// `method_id_item` list.
    pub const METHOD_ID: u16 = 0x0005;
    /// `class_def_item` list.
    pub const CLASS_DEF: u16 = 0x0006;
    /// `map_list` itself.
    pub const MAP_LIST: u16 = 0x1000;
    /// `type_list`.
    pub const TYPE_LIST: u16 = 0x1001;
    /// `class_data_item`.
    pub const CLASS_DATA: u16 = 0x2000;
    /// `code_item`.
    pub const CODE: u16 = 0x2001;
    /// `string_data_item`.
    pub const STRING_DATA: u16 = 0x2002;
    /// `encoded_array_item`.
    pub const ENCODED_ARRAY: u16 = 0x2005;
}

struct Out {
    buf: Vec<u8>,
}

impl Out {
    fn new() -> Out {
        Out { buf: Vec::new() }
    }
    fn pos(&self) -> usize {
        self.buf.len()
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn uleb(&mut self, v: u32) {
        leb128::write_uleb128(&mut self.buf, v);
    }
    fn align4(&mut self) {
        while !self.buf.len().is_multiple_of(4) {
            self.buf.push(0);
        }
    }
    fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

fn write_code_item(out: &mut Out, code: &CodeItem) -> Result<()> {
    out.align4();
    out.u16(code.registers_size);
    out.u16(code.ins_size);
    out.u16(code.outs_size);
    out.u16(code.tries.len() as u16);
    out.u32(0); // debug_info_off: not emitted
    out.u32(code.insns.len() as u32);
    for &unit in &code.insns {
        out.u16(unit);
    }
    if !code.tries.is_empty() {
        if !code.insns.len().is_multiple_of(2) {
            out.u16(0); // padding
        }
        // Serialise the handler list first (conceptually) to learn each
        // handler's offset within the encoded_catch_handler_list; we build it
        // into a side buffer so try_items can reference the offsets.
        let mut handler_buf: Vec<u8> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        leb128::write_uleb128(&mut handler_buf, code.handlers.len() as u32);
        for handler in &code.handlers {
            offsets.push(handler_buf.len() as u32);
            let size = handler.catches.len() as i32;
            let signed = if handler.catch_all_addr.is_some() {
                -size
            } else {
                size
            };
            leb128::write_sleb128(&mut handler_buf, signed);
            for clause in &handler.catches {
                leb128::write_uleb128(&mut handler_buf, clause.type_idx);
                leb128::write_uleb128(&mut handler_buf, clause.addr);
            }
            if let Some(addr) = handler.catch_all_addr {
                leb128::write_uleb128(&mut handler_buf, addr);
            }
        }
        for try_item in &code.tries {
            let off = *offsets
                .get(try_item.handler_index)
                .ok_or_else(|| DexError::Invalid("try_item references missing handler".into()))?;
            out.u32(try_item.start_addr);
            out.u16(try_item.insn_count);
            out.u16(off as u16);
        }
        out.buf.extend_from_slice(&handler_buf);
    }
    Ok(())
}

fn write_class_data(
    out: &mut Out,
    data: &ClassData,
    code_offs: &HashMap<(usize, usize), u32>,
    class_i: usize,
) {
    out.uleb(data.static_fields.len() as u32);
    out.uleb(data.instance_fields.len() as u32);
    out.uleb(data.direct_methods.len() as u32);
    out.uleb(data.virtual_methods.len() as u32);
    for fields in [&data.static_fields, &data.instance_fields] {
        let mut prev = 0u32;
        for (i, f) in fields.iter().enumerate() {
            let diff = if i == 0 {
                f.field_idx
            } else {
                f.field_idx - prev
            };
            out.uleb(diff);
            out.uleb(f.access.bits());
            prev = f.field_idx;
        }
    }
    let mut method_seq = 0usize;
    for methods in [&data.direct_methods, &data.virtual_methods] {
        let mut prev = 0u32;
        for (i, m) in methods.iter().enumerate() {
            let diff = if i == 0 {
                m.method_idx
            } else {
                m.method_idx - prev
            };
            out.uleb(diff);
            out.uleb(m.access.bits());
            let code_off = code_offs.get(&(class_i, method_seq)).copied().unwrap_or(0);
            out.uleb(code_off);
            prev = m.method_idx;
            method_seq += 1;
        }
    }
}

/// Serialises `dex` to bytes.
///
/// The output has a correct header, map list, Adler-32 checksum and SHA-1
/// signature, and can be re-parsed by [`crate::reader::read_dex`]. Its
/// capacity equals its length.
///
/// # Errors
///
/// Returns [`DexError::Invalid`] if the model is internally inconsistent
/// (e.g. a try range referencing a missing handler), and
/// [`DexError::TooLarge`] if the encoded file would exceed `u32` offsets.
pub fn write_dex(dex: &DexFile) -> Result<Vec<u8>> {
    // Note: field_idx lists inside class_data must be ascending for the
    // diff encoding to be valid; the model keeps them ascending by
    // construction (builder sorts), and the reader rejects negatives.
    for class in dex.class_defs() {
        if let Some(data) = &class.class_data {
            for fields in [&data.static_fields, &data.instance_fields] {
                if fields.windows(2).any(|w| w[1].field_idx < w[0].field_idx) {
                    return Err(DexError::Invalid(
                        "class_data field list not ascending by field_idx".into(),
                    ));
                }
            }
            for methods in [&data.direct_methods, &data.virtual_methods] {
                if methods
                    .windows(2)
                    .any(|w| w[1].method_idx < w[0].method_idx)
                {
                    return Err(DexError::Invalid(
                        "class_data method list not ascending by method_idx".into(),
                    ));
                }
            }
        }
    }

    let mut out = Out::new();
    let mut map: Vec<(u16, u32, u32)> = Vec::new(); // (type, count, offset)

    // --- header placeholder ---
    map.push((map_type::HEADER, 1, 0));
    out.buf.resize(HEADER_SIZE as usize, 0);

    // --- string_ids ---
    let string_ids_off = out.pos() as u32;
    if !dex.strings().is_empty() {
        map.push((
            map_type::STRING_ID,
            dex.strings().len() as u32,
            string_ids_off,
        ));
    }
    let string_id_patch = out.pos();
    for _ in dex.strings() {
        out.u32(0);
    }

    // --- type_ids ---
    let type_ids_off = out.pos() as u32;
    if !dex.type_ids().is_empty() {
        map.push((map_type::TYPE_ID, dex.type_ids().len() as u32, type_ids_off));
    }
    for &sidx in dex.type_ids() {
        out.u32(sidx);
    }

    // --- proto_ids ---
    let proto_ids_off = out.pos() as u32;
    if !dex.protos().is_empty() {
        map.push((map_type::PROTO_ID, dex.protos().len() as u32, proto_ids_off));
    }
    let proto_patch = out.pos();
    for proto in dex.protos() {
        out.u32(proto.shorty);
        out.u32(proto.return_type);
        out.u32(0); // parameters_off patched later
    }

    // --- field_ids ---
    let field_ids_off = out.pos() as u32;
    if !dex.field_ids().is_empty() {
        map.push((
            map_type::FIELD_ID,
            dex.field_ids().len() as u32,
            field_ids_off,
        ));
    }
    for f in dex.field_ids() {
        out.u16(f.class as u16);
        out.u16(f.type_ as u16);
        out.u32(f.name);
    }

    // --- method_ids ---
    let method_ids_off = out.pos() as u32;
    if !dex.method_ids().is_empty() {
        map.push((
            map_type::METHOD_ID,
            dex.method_ids().len() as u32,
            method_ids_off,
        ));
    }
    for m in dex.method_ids() {
        out.u16(m.class as u16);
        out.u16(m.proto as u16);
        out.u32(m.name);
    }

    // --- class_defs ---
    let class_defs_off = out.pos() as u32;
    if !dex.class_defs().is_empty() {
        map.push((
            map_type::CLASS_DEF,
            dex.class_defs().len() as u32,
            class_defs_off,
        ));
    }
    let class_def_patch = out.pos();
    for class in dex.class_defs() {
        out.u32(class.class_idx);
        out.u32(class.access.bits());
        out.u32(class.superclass.unwrap_or(NO_INDEX));
        out.u32(0); // interfaces_off
        out.u32(class.source_file.unwrap_or(NO_INDEX));
        out.u32(0); // annotations_off: not emitted
        out.u32(0); // class_data_off
        out.u32(0); // static_values_off
    }

    let data_off = out.pos() as u32;

    // --- type_lists (proto parameters + class interfaces), deduplicated ---
    let mut type_list_offs: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut type_list_count = 0u32;
    let type_lists_off = {
        out.align4();
        out.pos() as u32
    };
    {
        let mut emit = |out: &mut Out, list: &[u32]| -> u32 {
            if list.is_empty() {
                return 0;
            }
            if let Some(&off) = type_list_offs.get(list) {
                return off;
            }
            out.align4();
            let off = out.pos() as u32;
            out.u32(list.len() as u32);
            for &t in list {
                out.u16(t as u16);
            }
            type_list_offs.insert(list.to_vec(), off);
            type_list_count += 1;
            off
        };
        for (i, proto) in dex.protos().iter().enumerate() {
            let off = emit(&mut out, &proto.parameters);
            out.patch_u32(proto_patch + i * 12 + 8, off);
        }
        for (i, class) in dex.class_defs().iter().enumerate() {
            let off = emit(&mut out, &class.interfaces);
            out.patch_u32(class_def_patch + i * 32 + 12, off);
        }
    }
    if type_list_count > 0 {
        map.push((map_type::TYPE_LIST, type_list_count, type_lists_off));
    }

    // --- code items ---
    let mut code_offs: HashMap<(usize, usize), u32> = HashMap::new();
    let mut code_count = 0u32;
    out.align4();
    let code_items_off = out.pos() as u32;
    for (ci, class) in dex.class_defs().iter().enumerate() {
        if let Some(data) = &class.class_data {
            for (mi, method) in data.methods().enumerate() {
                if let Some(code) = &method.code {
                    out.align4();
                    code_offs.insert((ci, mi), out.pos() as u32);
                    write_code_item(&mut out, code)?;
                    code_count += 1;
                }
            }
        }
    }
    if code_count > 0 {
        map.push((map_type::CODE, code_count, code_items_off));
    }

    // --- class_data items ---
    let class_data_off_start = out.pos() as u32;
    let mut class_data_count = 0u32;
    for (ci, class) in dex.class_defs().iter().enumerate() {
        if let Some(data) = &class.class_data {
            let off = out.pos() as u32;
            write_class_data(&mut out, data, &code_offs, ci);
            out.patch_u32(class_def_patch + ci * 32 + 24, off);
            class_data_count += 1;
        }
    }
    if class_data_count > 0 {
        map.push((map_type::CLASS_DATA, class_data_count, class_data_off_start));
    }

    // --- string data ---
    let string_data_off_start = out.pos() as u32;
    if !dex.strings().is_empty() {
        map.push((
            map_type::STRING_DATA,
            dex.strings().len() as u32,
            string_data_off_start,
        ));
    }
    for (i, s) in dex.strings().iter().enumerate() {
        let off = out.pos() as u32;
        out.uleb(mutf8::utf16_len(s) as u32);
        out.buf.extend_from_slice(&mutf8::encode(s));
        out.u8(0);
        out.patch_u32(string_id_patch + i * 4, off);
    }

    // --- encoded arrays (static values) ---
    let mut enc_array_count = 0u32;
    let enc_arrays_off = out.pos() as u32;
    for (ci, class) in dex.class_defs().iter().enumerate() {
        if !class.static_values.is_empty() {
            let off = out.pos() as u32;
            out.uleb(class.static_values.len() as u32);
            for value in &class.static_values {
                value.write(&mut out.buf);
            }
            out.patch_u32(class_def_patch + ci * 32 + 28, off);
            enc_array_count += 1;
        }
    }
    if enc_array_count > 0 {
        map.push((map_type::ENCODED_ARRAY, enc_array_count, enc_arrays_off));
    }

    // --- map list ---
    out.align4();
    let map_off = out.pos() as u32;
    map.push((map_type::MAP_LIST, 1, map_off));
    map.sort_by_key(|&(_, _, off)| off);
    out.u32(map.len() as u32);
    for (ty, count, off) in &map {
        out.u16(*ty);
        out.u16(0);
        out.u32(*count);
        out.u32(*off);
    }

    let file_size = out.pos();
    if file_size > u32::MAX as usize {
        return Err(DexError::TooLarge(file_size));
    }

    // --- header ---
    let mut header = Out::new();
    header.buf.extend_from_slice(&DEX_MAGIC);
    header.u32(0); // checksum placeholder
    header.buf.extend_from_slice(&[0u8; 20]); // signature placeholder
    header.u32(file_size as u32);
    header.u32(HEADER_SIZE);
    header.u32(ENDIAN_CONSTANT);
    header.u32(0); // link_size
    header.u32(0); // link_off
    header.u32(map_off);
    header.u32(dex.strings().len() as u32);
    header.u32(if dex.strings().is_empty() {
        0
    } else {
        string_ids_off
    });
    header.u32(dex.type_ids().len() as u32);
    header.u32(if dex.type_ids().is_empty() {
        0
    } else {
        type_ids_off
    });
    header.u32(dex.protos().len() as u32);
    header.u32(if dex.protos().is_empty() {
        0
    } else {
        proto_ids_off
    });
    header.u32(dex.field_ids().len() as u32);
    header.u32(if dex.field_ids().is_empty() {
        0
    } else {
        field_ids_off
    });
    header.u32(dex.method_ids().len() as u32);
    header.u32(if dex.method_ids().is_empty() {
        0
    } else {
        method_ids_off
    });
    header.u32(dex.class_defs().len() as u32);
    header.u32(if dex.class_defs().is_empty() {
        0
    } else {
        class_defs_off
    });
    header.u32(file_size as u32 - data_off);
    header.u32(data_off);
    debug_assert_eq!(header.buf.len(), HEADER_SIZE as usize);
    out.buf[..HEADER_SIZE as usize].copy_from_slice(&header.buf);

    // Signature covers everything after the signature field (offset 32);
    // checksum covers everything after the checksum field (offset 12).
    let signature = checksum::sha1(&out.buf[32..]);
    out.buf[12..32].copy_from_slice(&signature);
    let sum = checksum::adler32(&out.buf[12..]);
    out.buf[8..12].copy_from_slice(&sum.to_le_bytes());

    // Callers keep the bytes (a result store, a reply, a benchmark's
    // record), so hand back exactly their length, not the doubling
    // growth buffer's capacity.
    out.buf.shrink_to_fit();
    Ok(out.buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessFlags;
    use crate::file::{ClassDef, EncodedMethod};
    use crate::EncodedValue;

    #[test]
    fn empty_dex_has_valid_header() {
        let dex = DexFile::new();
        let bytes = write_dex(&dex).unwrap();
        assert_eq!(&bytes[..8], &DEX_MAGIC);
        let file_size = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
        assert_eq!(file_size as usize, bytes.len());
        let sum = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        assert_eq!(sum, checksum::adler32(&bytes[12..]));
        assert_eq!(&bytes[12..32], &checksum::sha1(&bytes[32..]));
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn header_counts_match_model() {
        let mut dex = DexFile::new();
        dex.intern_method("Lcom/a/B;", "m", "V", &["I"]);
        let bytes = write_dex(&dex).unwrap();
        let string_count = u32::from_le_bytes(bytes[56..60].try_into().unwrap());
        assert_eq!(string_count as usize, dex.strings().len());
        let method_count = u32::from_le_bytes(bytes[88..92].try_into().unwrap());
        assert_eq!(method_count, 1);
    }

    #[test]
    fn rejects_unsorted_class_data_fields() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        let f0 = dex.intern_field("La;", "I", "x");
        let f1 = dex.intern_field("La;", "I", "y");
        let mut def = ClassDef::new(t);
        let data = def.class_data.as_mut().unwrap();
        data.static_fields.push(crate::file::EncodedField {
            field_idx: f1,
            access: AccessFlags::STATIC,
        });
        data.static_fields.push(crate::file::EncodedField {
            field_idx: f0,
            access: AccessFlags::STATIC,
        });
        dex.add_class(def);
        assert!(matches!(write_dex(&dex), Err(DexError::Invalid(_))));
    }

    #[test]
    fn writes_code_and_static_values() {
        let mut dex = DexFile::new();
        let t = dex.intern_type("La;");
        let m = dex.intern_method("La;", "go", "V", &[]);
        let mut def = ClassDef::new(t);
        def.static_values.push(EncodedValue::Int(42));
        def.class_data
            .as_mut()
            .unwrap()
            .direct_methods
            .push(EncodedMethod {
                method_idx: m,
                access: AccessFlags::PUBLIC | AccessFlags::STATIC,
                code: Some(CodeItem::new(1, 0, 0, vec![0x000e])),
            });
        dex.add_class(def);
        let bytes = write_dex(&dex).unwrap();
        assert!(bytes.len() > HEADER_SIZE as usize);
    }
}
