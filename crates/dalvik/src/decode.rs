//! Decoding 16-bit code units into [`Insn`] / [`Decoded`] values, and
//! whole-method predecoding into a [`PredecodedMethod`] cache entry.

use std::cell::Cell;

use crate::insn::{Decoded, Insn};
use crate::opcode::{payload, Format, Opcode};
use crate::{DalvikError, Result};

thread_local! {
    // Counts decode_insn calls on this thread. A Cell (not an atomic) so the
    // hook costs one TLS read-modify-write and parallel test threads do not
    // observe each other's decodes.
    static DECODE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`decode_insn`] calls made by the current thread so far.
///
/// A test hook: code-cache regression tests snapshot this counter around a
/// hot loop to prove that predecoded execution performs no per-step (or
/// per-payload) re-decoding.
pub fn decode_calls() -> u64 {
    DECODE_CALLS.with(Cell::get)
}

/// Resets the current thread's [`decode_calls`] counter to zero, so tests
/// asserting absolute decode counts do not depend on what ran earlier on
/// the same test thread.
pub fn reset_decode_calls() {
    DECODE_CALLS.with(|c| c.set(0));
}

fn unit(code: &[u16], at: usize, start: usize) -> Result<u16> {
    code.get(at)
        .copied()
        .ok_or(DalvikError::TruncatedInsn { at: start })
}

/// Decodes the single instruction or payload starting at code unit `pc`.
///
/// # Errors
///
/// Returns [`DalvikError::UnknownOpcode`] for undefined opcode bytes,
/// [`DalvikError::TruncatedInsn`] if the stream ends mid-instruction, and
/// [`DalvikError::BadPayload`] for malformed payloads.
///
/// # Example
///
/// ```
/// use dexlego_dalvik::{decode_insn, Decoded, Opcode};
/// // const/4 v0, #7 ; return v0
/// let code = [0x7012, 0x000f];
/// let d = decode_insn(&code, 0).unwrap();
/// assert_eq!(d.as_insn().unwrap().op, Opcode::Const4);
/// assert_eq!(d.as_insn().unwrap().lit, 7);
/// ```
pub fn decode_insn(code: &[u16], pc: usize) -> Result<Decoded> {
    DECODE_CALLS.with(|c| c.set(c.get() + 1));
    let first = unit(code, pc, pc)?;
    let op_byte = (first & 0xff) as u8;
    let hi = (first >> 8) as u8;

    if op_byte == 0x00 && hi != 0 {
        return decode_payload(code, pc, first);
    }

    let op = Opcode::from_u8(op_byte).ok_or(DalvikError::UnknownOpcode(op_byte))?;
    let mut insn = Insn::of(op);

    match op.format() {
        Format::F10x => {}
        Format::F12x => {
            insn.a = u32::from(hi & 0x0f);
            insn.b = u32::from(hi >> 4);
        }
        Format::F11n => {
            insn.a = u32::from(hi & 0x0f);
            // Sign-extend the 4-bit literal.
            insn.lit = i64::from(((hi >> 4) as i8) << 4 >> 4);
        }
        Format::F11x => {
            insn.a = u32::from(hi);
        }
        Format::F10t => {
            insn.off = i32::from(hi as i8);
        }
        Format::F20t => {
            insn.off = i32::from(unit(code, pc + 1, pc)? as i16);
        }
        Format::F22x => {
            insn.a = u32::from(hi);
            insn.b = u32::from(unit(code, pc + 1, pc)?);
        }
        Format::F21t => {
            insn.a = u32::from(hi);
            insn.off = i32::from(unit(code, pc + 1, pc)? as i16);
        }
        Format::F21s => {
            insn.a = u32::from(hi);
            insn.lit = i64::from(unit(code, pc + 1, pc)? as i16);
        }
        Format::F21h => {
            insn.a = u32::from(hi);
            let raw = i64::from(unit(code, pc + 1, pc)? as i16);
            insn.lit = if op == Opcode::ConstWideHigh16 {
                raw << 48
            } else {
                raw << 16
            };
        }
        Format::F21c => {
            insn.a = u32::from(hi);
            insn.idx = u32::from(unit(code, pc + 1, pc)?);
        }
        Format::F23x => {
            insn.a = u32::from(hi);
            let second = unit(code, pc + 1, pc)?;
            insn.b = u32::from(second & 0xff);
            insn.c = u32::from(second >> 8);
        }
        Format::F22b => {
            insn.a = u32::from(hi);
            let second = unit(code, pc + 1, pc)?;
            insn.b = u32::from(second & 0xff);
            insn.lit = i64::from((second >> 8) as u8 as i8);
        }
        Format::F22t => {
            insn.a = u32::from(hi & 0x0f);
            insn.b = u32::from(hi >> 4);
            insn.off = i32::from(unit(code, pc + 1, pc)? as i16);
        }
        Format::F22s => {
            insn.a = u32::from(hi & 0x0f);
            insn.b = u32::from(hi >> 4);
            insn.lit = i64::from(unit(code, pc + 1, pc)? as i16);
        }
        Format::F22c => {
            insn.a = u32::from(hi & 0x0f);
            insn.b = u32::from(hi >> 4);
            insn.idx = u32::from(unit(code, pc + 1, pc)?);
        }
        Format::F32x => {
            insn.a = u32::from(unit(code, pc + 1, pc)?);
            insn.b = u32::from(unit(code, pc + 2, pc)?);
        }
        Format::F30t => {
            let lo = u32::from(unit(code, pc + 1, pc)?);
            let hi32 = u32::from(unit(code, pc + 2, pc)?);
            insn.off = (lo | (hi32 << 16)) as i32;
        }
        Format::F31t => {
            insn.a = u32::from(hi);
            let lo = u32::from(unit(code, pc + 1, pc)?);
            let hi32 = u32::from(unit(code, pc + 2, pc)?);
            insn.off = (lo | (hi32 << 16)) as i32;
        }
        Format::F31i => {
            insn.a = u32::from(hi);
            let lo = u32::from(unit(code, pc + 1, pc)?);
            let hi32 = u32::from(unit(code, pc + 2, pc)?);
            // Sign-extends for both `const` and `const-wide/32`.
            insn.lit = i64::from((lo | (hi32 << 16)) as i32);
        }
        Format::F31c => {
            insn.a = u32::from(hi);
            let lo = u32::from(unit(code, pc + 1, pc)?);
            let hi32 = u32::from(unit(code, pc + 2, pc)?);
            insn.idx = lo | (hi32 << 16);
        }
        Format::F35c => {
            let count = usize::from(hi >> 4);
            let g = u32::from(hi & 0x0f);
            insn.idx = u32::from(unit(code, pc + 1, pc)?);
            let regs_unit = unit(code, pc + 2, pc)?;
            let all = [
                u32::from(regs_unit & 0xf),
                u32::from((regs_unit >> 4) & 0xf),
                u32::from((regs_unit >> 8) & 0xf),
                u32::from((regs_unit >> 12) & 0xf),
                g,
            ];
            if count > 5 {
                return Err(DalvikError::BadPayload("35c argument count > 5"));
            }
            insn.regs = all[..count].to_vec();
        }
        Format::F3rc => {
            let count = u32::from(hi);
            insn.idx = u32::from(unit(code, pc + 1, pc)?);
            let start = u32::from(unit(code, pc + 2, pc)?);
            insn.regs = (start..start + count).collect();
        }
        Format::F51l => {
            insn.a = u32::from(hi);
            let mut v: u64 = 0;
            for i in 0..4 {
                v |= u64::from(unit(code, pc + 1 + i, pc)?) << (16 * i);
            }
            insn.lit = v as i64;
        }
    }
    Ok(Decoded::Insn(insn))
}

fn decode_payload(code: &[u16], pc: usize, ident: u16) -> Result<Decoded> {
    match ident {
        payload::PACKED_SWITCH => {
            let size = usize::from(unit(code, pc + 1, pc)?);
            let first_key =
                i32::from(unit(code, pc + 2, pc)?) | (i32::from(unit(code, pc + 3, pc)?) << 16);
            let mut targets = Vec::with_capacity(size);
            for i in 0..size {
                let lo = u32::from(unit(code, pc + 4 + i * 2, pc)?);
                let hi = u32::from(unit(code, pc + 5 + i * 2, pc)?);
                targets.push((lo | (hi << 16)) as i32);
            }
            Ok(Decoded::PackedSwitchPayload { first_key, targets })
        }
        payload::SPARSE_SWITCH => {
            let size = usize::from(unit(code, pc + 1, pc)?);
            let mut keys = Vec::with_capacity(size);
            let mut targets = Vec::with_capacity(size);
            for i in 0..size {
                let lo = u32::from(unit(code, pc + 2 + i * 2, pc)?);
                let hi = u32::from(unit(code, pc + 3 + i * 2, pc)?);
                keys.push((lo | (hi << 16)) as i32);
            }
            let base = pc + 2 + size * 2;
            for i in 0..size {
                let lo = u32::from(unit(code, base + i * 2, pc)?);
                let hi = u32::from(unit(code, base + i * 2 + 1, pc)?);
                targets.push((lo | (hi << 16)) as i32);
            }
            Ok(Decoded::SparseSwitchPayload { keys, targets })
        }
        payload::FILL_ARRAY_DATA => {
            let element_width = unit(code, pc + 1, pc)?;
            let size =
                u32::from(unit(code, pc + 2, pc)?) | (u32::from(unit(code, pc + 3, pc)?) << 16);
            let byte_len = element_width as usize * size as usize;
            let unit_len = byte_len.div_ceil(2);
            let mut data = Vec::with_capacity(byte_len);
            for i in 0..unit_len {
                let w = unit(code, pc + 4 + i, pc)?;
                data.push((w & 0xff) as u8);
                data.push((w >> 8) as u8);
            }
            data.truncate(byte_len);
            Ok(Decoded::FillArrayDataPayload {
                element_width,
                data,
            })
        }
        _ => Err(DalvikError::BadPayload("unknown payload identifier")),
    }
}

/// The unit length of the instruction or payload starting at `pc`,
/// checked as [`decode_insn`] checks it (the same error for the same
/// stream) without building the decoded value: a walk over a method body
/// that allocates nothing.
///
/// # Errors
///
/// As [`decode_insn`].
pub fn insn_units(code: &[u16], pc: usize) -> Result<usize> {
    let first = unit(code, pc, pc)?;
    let op_byte = (first & 0xff) as u8;
    let len = if op_byte == 0x00 && first >> 8 != 0 {
        let at = |i: usize| unit(code, pc + i, pc).map(usize::from);
        match first {
            payload::PACKED_SWITCH => 4 + at(1)? * 2,
            payload::SPARSE_SWITCH => 2 + at(1)? * 4,
            payload::FILL_ARRAY_DATA => {
                let (width, size) = (at(1)?, at(2)? | (at(3)? << 16));
                4 + (width * size).div_ceil(2)
            }
            _ => return Err(DalvikError::BadPayload("unknown payload identifier")),
        }
    } else {
        let op = Opcode::from_u8(op_byte).ok_or(DalvikError::UnknownOpcode(op_byte))?;
        let len = op.format().units();
        // Like the decoder, read the whole 35c instruction before
        // rejecting its argument count.
        if op.format() == Format::F35c && pc + len <= code.len() && first >> 12 > 5 {
            return Err(DalvikError::BadPayload("35c argument count > 5"));
        }
        len
    };
    if pc + len > code.len() {
        return Err(DalvikError::TruncatedInsn { at: pc });
    }
    Ok(len)
}

/// Decodes an entire method body into `(address, decoded)` pairs.
///
/// # Errors
///
/// Propagates the first decoding error, tagged with its address.
pub fn decode_method(code: &[u16]) -> Result<Vec<(u32, Decoded)>> {
    let mut out = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let d = decode_insn(code, pc)?;
        let len = d.units();
        out.push((pc as u32, d));
        pc += len;
    }
    Ok(out)
}

/// Sentinel in [`PredecodedMethod::index_of`] for code units that are not
/// the start of a decoded instruction (operand units, payload interiors).
const NOT_AN_INSN: u32 = u32::MAX;

/// A whole method body decoded once, up front: the dense instruction list,
/// a `dex_pc → instruction` map, and pre-resolved payload tables for
/// `fill-array-data` / `packed-switch` / `sparse-switch`.
///
/// This is the interpreter's quickened-tier analogue of ART's
/// predecoded/mterp representation: a method run N times pays one decode,
/// not N.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredecodedMethod {
    /// Decoded instructions in stream order.
    insns: Vec<Insn>,
    /// For each code unit: index into `insns` if an instruction starts
    /// there, else [`NOT_AN_INSN`].
    index_of: Vec<u32>,
    /// Unit length of each instruction, parallel to `insns`. Cached so the
    /// fetch loop does not re-derive it from the format on every step.
    lens: Vec<u8>,
    /// Payload pseudo-instructions, keyed by start `dex_pc`, ascending.
    payloads: Vec<(u32, Decoded)>,
}

impl PredecodedMethod {
    /// The dense index, instruction, and cached unit length at `pc`, or
    /// `None` if `pc` is out of range or not an instruction start — no
    /// slice construction, no format inspection.
    #[inline]
    pub fn fetch_at(&self, pc: u32) -> Option<(u32, &Insn, u32)> {
        let idx = *self.index_of.get(pc as usize)?;
        if idx == NOT_AN_INSN {
            return None;
        }
        Some((
            idx,
            &self.insns[idx as usize],
            u32::from(self.lens[idx as usize]),
        ))
    }

    /// The instruction and cached unit length at dense index `idx` —
    /// the inverse direction of [`Self::fetch_at`], for callers that
    /// already hold a valid index (superinstruction second halves are
    /// always at `head_idx + 1`).
    ///
    /// # Panics
    ///
    /// `idx` is not below [`Self::insn_count`].
    #[inline]
    pub fn at_index(&self, idx: u32) -> (&Insn, u32) {
        let idx = idx as usize;
        (&self.insns[idx], u32::from(self.lens[idx]))
    }

    /// The payload starting at `pc`, if one was predecoded there.
    #[inline]
    pub fn payload_at(&self, pc: u32) -> Option<&Decoded> {
        self.payloads
            .binary_search_by_key(&pc, |&(at, _)| at)
            .ok()
            .map(|i| &self.payloads[i].1)
    }

    /// Number of decoded instructions (payloads not included).
    pub fn insn_count(&self) -> usize {
        self.insns.len()
    }

    /// Number of predecoded payload tables.
    pub fn payload_count(&self) -> usize {
        self.payloads.len()
    }

    /// `(dex_pc, instruction)` pairs in stream order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Insn)> {
        self.index_of
            .iter()
            .enumerate()
            .filter(|&(_, &idx)| idx != NOT_AN_INSN)
            .map(|(pc, &idx)| (pc as u32, &self.insns[idx as usize]))
    }
}

/// Decodes an entire method body once into a [`PredecodedMethod`].
///
/// # Errors
///
/// Propagates the first decoding error. Callers treating predecoding as an
/// optimisation should fall back to per-step decoding on failure: a stream
/// can contain undecodable regions that execution never reaches (data after
/// an unconditional return, partially decrypted bodies).
pub fn predecode(code: &[u16]) -> Result<PredecodedMethod> {
    let mut pre = PredecodedMethod {
        insns: Vec::new(),
        index_of: vec![NOT_AN_INSN; code.len()],
        lens: Vec::new(),
        payloads: Vec::new(),
    };
    let mut pc = 0usize;
    while pc < code.len() {
        let d = decode_insn(code, pc)?;
        let len = d.units();
        match d {
            Decoded::Insn(insn) => {
                pre.index_of[pc] = pre.insns.len() as u32;
                pre.insns.push(insn);
                pre.lens.push(len as u8);
            }
            payload => pre.payloads.push((pc as u32, payload)),
        }
        pc += len;
    }
    Ok(pre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_insn;

    #[test]
    fn decode_return_void() {
        let d = decode_insn(&[0x000e], 0).unwrap();
        assert_eq!(d.as_insn().unwrap().op, Opcode::ReturnVoid);
    }

    #[test]
    fn decode_const4_sign_extends() {
        // const/4 v1, #-1 => B=0xf A=1 op=0x12 => 0xf112
        let d = decode_insn(&[0xf112], 0).unwrap();
        let insn = d.as_insn().unwrap();
        assert_eq!(insn.a, 1);
        assert_eq!(insn.lit, -1);
    }

    #[test]
    fn decode_invoke_virtual_args() {
        // invoke-virtual {v0, v1}, method@5 : A=2 G=0 op=6e | 0005 | regs 10
        let code = [0x206e, 0x0005, 0x0010];
        let d = decode_insn(&code, 0).unwrap();
        let insn = d.as_insn().unwrap();
        assert_eq!(insn.op, Opcode::InvokeVirtual);
        assert_eq!(insn.idx, 5);
        assert_eq!(insn.regs, vec![0, 1]);
    }

    #[test]
    fn decode_invoke_range() {
        // invoke-static/range {v3..v6}, method@2
        let code = [0x0477, 0x0002, 0x0003];
        let d = decode_insn(&code, 0).unwrap();
        let insn = d.as_insn().unwrap();
        assert_eq!(insn.regs, vec![3, 4, 5, 6]);
    }

    #[test]
    fn decode_goto_negative() {
        // goto -2 => AA=0xfe op=0x28
        let d = decode_insn(&[0xfe28], 0).unwrap();
        assert_eq!(d.as_insn().unwrap().off, -2);
    }

    #[test]
    fn decode_const_wide_high16() {
        // const-wide/high16 v0, #0x4000000000000000 (2.0)
        let code = [0x0019, 0x4000];
        let insn = decode_insn(&code, 0).unwrap().as_insn().unwrap().clone();
        assert_eq!(insn.lit, 0x4000_0000_0000_0000);
    }

    #[test]
    fn decode_packed_switch_payload() {
        // ident, size=2, first_key=10, targets 4 and 8
        let code = [
            0x0100, 0x0002, 0x000a, 0x0000, 0x0004, 0x0000, 0x0008, 0x0000,
        ];
        match decode_insn(&code, 0).unwrap() {
            Decoded::PackedSwitchPayload { first_key, targets } => {
                assert_eq!(first_key, 10);
                assert_eq!(targets, vec![4, 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_fill_array_data_payload_odd_bytes() {
        // width=1, size=3 -> 3 bytes, padded to 2 units
        let code = [0x0300, 0x0001, 0x0003, 0x0000, 0x2211, 0x0033];
        match decode_insn(&code, 0).unwrap() {
            Decoded::FillArrayDataPayload {
                element_width,
                data,
            } => {
                assert_eq!(element_width, 1);
                assert_eq!(data, vec![0x11, 0x22, 0x33]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            decode_insn(&[0x0013], 0), // const/16 missing literal unit
            Err(DalvikError::TruncatedInsn { .. })
        ));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            decode_insn(&[0x0040], 0),
            Err(DalvikError::UnknownOpcode(0x40))
        ));
    }

    #[test]
    fn whole_method_decode() {
        // const/4 v0,#2 ; add-int/lit8 v0,v0,#3 ; return v0
        let code = [0x2012, 0x00d8, 0x0300, 0x000f];
        let insns = decode_method(&code).unwrap();
        assert_eq!(insns.len(), 3);
        assert_eq!(insns[0].0, 0);
        assert_eq!(insns[1].0, 1);
        assert_eq!(insns[2].0, 3);
    }

    #[test]
    fn predecode_maps_pcs_and_payloads() {
        // const/4 v0,#1 ; packed-switch v0, +5 ; return v0 ; nop pad ;
        // packed-switch payload (size 1, first_key 0, target +3)
        let code = [
            0x1012, 0x002b, 0x0005, 0x0000, 0x000f, 0x0000, 0x0100, 0x0001, 0x0000, 0x0000, 0x0003,
            0x0000,
        ];
        let pre = predecode(&code).unwrap();
        assert_eq!(pre.insn_count(), 4);
        assert_eq!(pre.payload_count(), 1);
        let (idx, insn, len) = pre.fetch_at(1).unwrap();
        assert_eq!((idx, insn.op, len), (1, Opcode::PackedSwitch, 3));
        assert_eq!(pre.at_index(1).0, insn);
        // Operand units and payload interiors are not instruction starts.
        assert!(pre.fetch_at(2).is_none());
        assert!(pre.fetch_at(7).is_none());
        assert!(pre.fetch_at(code.len() as u32).is_none());
        match pre.payload_at(6).unwrap() {
            Decoded::PackedSwitchPayload { first_key, targets } => {
                assert_eq!(*first_key, 0);
                assert_eq!(targets, &vec![3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(pre.payload_at(5).is_none());
        assert_eq!(pre.iter().count(), 4);
        assert_eq!(pre.iter().next().unwrap().0, 0);
    }

    #[test]
    fn predecode_rejects_undecodable_stream() {
        // return-void followed by an unknown opcode byte: per-step execution
        // would never reach it, but whole-method predecoding must refuse so
        // the interpreter falls back to per-step fetching.
        assert!(predecode(&[0x000e, 0x0040]).is_err());
    }

    #[test]
    fn decode_calls_counter_advances() {
        let before = decode_calls();
        decode_insn(&[0x000e], 0).unwrap();
        assert_eq!(decode_calls(), before + 1);
    }

    #[test]
    fn decode_encode_roundtrip_all_formats() {
        let samples: Vec<Vec<u16>> = vec![
            vec![0x000e],                                 // return-void (10x)
            vec![0x2101],                                 // move v1, v2 (12x)
            vec![0x7f12],                                 // const/4 v2, #7 (11n)
            vec![0x050a],                                 // move-result v5 (11x)
            vec![0x0328],                                 // goto +3 (10t)
            vec![0x0029, 0xfffe],                         // goto/16 -2 (20t)
            vec![0x1202, 0x0123],                         // move/from16 (22x)
            vec![0x0338, 0x0010],                         // if-eqz v3, +16 (21t)
            vec![0x0113, 0x7fff],                         // const/16 (21s)
            vec![0x0015, 0x1234],                         // const/high16 (21h)
            vec![0x001a, 0x0042],                         // const-string (21c)
            vec![0x0590, 0x0201],                         // add-int v5,v1,v2 (23x)
            vec![0x00d8, 0x0102],                         // add-int/lit8 (22b)
            vec![0x2132, 0x0007],                         // if-eq v1,v2,+7 (22t)
            vec![0x21d0, 0x0100],                         // add-int/lit16 (22s)
            vec![0x2152, 0x0003],                         // iget v1,v2,field@3 (22c)
            vec![0x0003, 0x0100, 0x0200],                 // move/16 (32x)
            vec![0x002a, 0x5678, 0x0000],                 // goto/32 (30t)
            vec![0x002b, 0x0004, 0x0000],                 // packed-switch (31t)
            vec![0x0014, 0xffff, 0x7fff],                 // const (31i)
            vec![0x001b, 0x5678, 0x0001],                 // const-string/jumbo (31c)
            vec![0x306e, 0x0002, 0x0210],                 // invoke-virtual {v0,v1,v2} (35c)
            vec![0x0374, 0x0004, 0x0005],                 // invoke-virtual/range (3rc)
            vec![0x0018, 0x1111, 0x2222, 0x3333, 0x4444], // const-wide (51l)
        ];
        for units in samples {
            let d = decode_insn(&units, 0).unwrap();
            let insn = d.as_insn().expect("not a payload");
            let re = encode_insn(insn).unwrap();
            assert_eq!(re, units, "re-encoding {insn:?}");
        }
    }
}
