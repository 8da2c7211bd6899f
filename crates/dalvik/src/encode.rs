//! Encoding [`Insn`] / [`Decoded`] values back into 16-bit code units.

use crate::insn::{Decoded, Insn};
use crate::opcode::{payload, Format, Opcode};
use crate::{DalvikError, Result};

fn check(cond: bool, mnemonic: &'static str, operand: &'static str, value: i64) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(DalvikError::OperandRange {
            mnemonic,
            operand,
            value,
        })
    }
}

fn reg4(insn: &Insn, operand: &'static str, v: u32) -> Result<u16> {
    check(v <= 0xf, insn.op.mnemonic(), operand, i64::from(v))?;
    Ok(v as u16)
}

fn reg8(insn: &Insn, operand: &'static str, v: u32) -> Result<u16> {
    check(v <= 0xff, insn.op.mnemonic(), operand, i64::from(v))?;
    Ok(v as u16)
}

fn reg16(insn: &Insn, operand: &'static str, v: u32) -> Result<u16> {
    check(v <= 0xffff, insn.op.mnemonic(), operand, i64::from(v))?;
    Ok(v as u16)
}

/// Encodes a single instruction into code units.
///
/// # Errors
///
/// Returns [`DalvikError::OperandRange`] when an operand does not fit the
/// opcode's encoding format (e.g. a register above v15 in a `12x`
/// instruction), and [`DalvikError::BranchOutOfRange`] for oversized branch
/// offsets.
///
/// # Example
///
/// ```
/// use dexlego_dalvik::{encode_insn, insn::Insn, Opcode};
/// let mut insn = Insn::of(Opcode::Const4);
/// insn.a = 0;
/// insn.lit = 7;
/// assert_eq!(encode_insn(&insn).unwrap(), vec![0x7012]);
/// ```
pub fn encode_insn(insn: &Insn) -> Result<Vec<u16>> {
    let mut out = Vec::with_capacity(insn.units());
    encode_insn_into(insn, &mut out)?;
    Ok(out)
}

/// Encodes a single instruction onto the end of `out`, which is left
/// unchanged on error. The assembler and pool canonicalisation write
/// whole methods this way without a buffer per instruction.
///
/// # Errors
///
/// See [`encode_insn`].
pub fn encode_insn_into(insn: &Insn, out: &mut Vec<u16>) -> Result<()> {
    let op = insn.op as u8 as u16;
    let m = insn.op.mnemonic();
    match insn.op.format() {
        Format::F10x => out.extend_from_slice(&[op]),
        Format::F12x => {
            let a = reg4(insn, "vA", insn.a)?;
            let b = reg4(insn, "vB", insn.b)?;
            out.extend_from_slice(&[op | (a << 8) | (b << 12)])
        }
        Format::F11n => {
            let a = reg4(insn, "vA", insn.a)?;
            check((-8..=7).contains(&insn.lit), m, "literal", insn.lit)?;
            let b = (insn.lit as u16) & 0xf;
            out.extend_from_slice(&[op | (a << 8) | (b << 12)])
        }
        Format::F11x => {
            let a = reg8(insn, "vA", insn.a)?;
            out.extend_from_slice(&[op | (a << 8)])
        }
        Format::F10t => {
            let off = i64::from(insn.off);
            if !(-128..=127).contains(&off) {
                return Err(DalvikError::BranchOutOfRange {
                    mnemonic: m,
                    offset: off,
                });
            }
            out.extend_from_slice(&[op | (((insn.off as i8) as u8 as u16) << 8)])
        }
        Format::F20t => {
            let off = i64::from(insn.off);
            if !(-32768..=32767).contains(&off) {
                return Err(DalvikError::BranchOutOfRange {
                    mnemonic: m,
                    offset: off,
                });
            }
            out.extend_from_slice(&[op, insn.off as i16 as u16])
        }
        Format::F22x => {
            let a = reg8(insn, "vA", insn.a)?;
            let b = reg16(insn, "vB", insn.b)?;
            out.extend_from_slice(&[op | (a << 8), b])
        }
        Format::F21t => {
            let a = reg8(insn, "vA", insn.a)?;
            let off = i64::from(insn.off);
            if !(-32768..=32767).contains(&off) {
                return Err(DalvikError::BranchOutOfRange {
                    mnemonic: m,
                    offset: off,
                });
            }
            out.extend_from_slice(&[op | (a << 8), insn.off as i16 as u16])
        }
        Format::F21s => {
            let a = reg8(insn, "vA", insn.a)?;
            check((-32768..=32767).contains(&insn.lit), m, "literal", insn.lit)?;
            out.extend_from_slice(&[op | (a << 8), insn.lit as i16 as u16])
        }
        Format::F21h => {
            let a = reg8(insn, "vA", insn.a)?;
            let shift = if insn.op == Opcode::ConstWideHigh16 {
                48
            } else {
                16
            };
            let mask = (1i64 << shift) - 1;
            check(insn.lit & mask == 0, m, "literal", insn.lit)?;
            out.extend_from_slice(&[op | (a << 8), (insn.lit >> shift) as i16 as u16])
        }
        Format::F21c => {
            let a = reg8(insn, "vA", insn.a)?;
            check(insn.idx <= 0xffff, m, "index", i64::from(insn.idx))?;
            out.extend_from_slice(&[op | (a << 8), insn.idx as u16])
        }
        Format::F23x => {
            let a = reg8(insn, "vA", insn.a)?;
            let b = reg8(insn, "vB", insn.b)?;
            let c = reg8(insn, "vC", insn.c)?;
            out.extend_from_slice(&[op | (a << 8), b | (c << 8)])
        }
        Format::F22b => {
            let a = reg8(insn, "vA", insn.a)?;
            let b = reg8(insn, "vB", insn.b)?;
            check((-128..=127).contains(&insn.lit), m, "literal", insn.lit)?;
            out.extend_from_slice(&[op | (a << 8), b | (((insn.lit as i8) as u8 as u16) << 8)])
        }
        Format::F22t => {
            let a = reg4(insn, "vA", insn.a)?;
            let b = reg4(insn, "vB", insn.b)?;
            let off = i64::from(insn.off);
            if !(-32768..=32767).contains(&off) {
                return Err(DalvikError::BranchOutOfRange {
                    mnemonic: m,
                    offset: off,
                });
            }
            out.extend_from_slice(&[op | (a << 8) | (b << 12), insn.off as i16 as u16])
        }
        Format::F22s => {
            let a = reg4(insn, "vA", insn.a)?;
            let b = reg4(insn, "vB", insn.b)?;
            check((-32768..=32767).contains(&insn.lit), m, "literal", insn.lit)?;
            out.extend_from_slice(&[op | (a << 8) | (b << 12), insn.lit as i16 as u16])
        }
        Format::F22c => {
            let a = reg4(insn, "vA", insn.a)?;
            let b = reg4(insn, "vB", insn.b)?;
            check(insn.idx <= 0xffff, m, "index", i64::from(insn.idx))?;
            out.extend_from_slice(&[op | (a << 8) | (b << 12), insn.idx as u16])
        }
        Format::F32x => {
            let a = reg16(insn, "vA", insn.a)?;
            let b = reg16(insn, "vB", insn.b)?;
            out.extend_from_slice(&[op, a, b])
        }
        Format::F30t => {
            let off = insn.off as u32;
            out.extend_from_slice(&[op, (off & 0xffff) as u16, (off >> 16) as u16])
        }
        Format::F31t => {
            let a = reg8(insn, "vA", insn.a)?;
            let off = insn.off as u32;
            out.extend_from_slice(&[op | (a << 8), (off & 0xffff) as u16, (off >> 16) as u16])
        }
        Format::F31i => {
            let a = reg8(insn, "vA", insn.a)?;
            check(
                i64::from(insn.lit as i32) == insn.lit,
                m,
                "literal",
                insn.lit,
            )?;
            let v = insn.lit as i32 as u32;
            out.extend_from_slice(&[op | (a << 8), (v & 0xffff) as u16, (v >> 16) as u16])
        }
        Format::F31c => {
            let a = reg8(insn, "vA", insn.a)?;
            out.extend_from_slice(&[
                op | (a << 8),
                (insn.idx & 0xffff) as u16,
                (insn.idx >> 16) as u16,
            ])
        }
        Format::F35c => {
            check(
                insn.regs.len() <= 5,
                m,
                "argument count",
                insn.regs.len() as i64,
            )?;
            check(insn.idx <= 0xffff, m, "index", i64::from(insn.idx))?;
            let count = insn.regs.len() as u16;
            let mut nibbles = [0u16; 5];
            for (i, &r) in insn.regs.iter().enumerate() {
                check(r <= 0xf, m, "argument register", i64::from(r))?;
                nibbles[i] = r as u16;
            }
            let g = nibbles[4];
            out.extend_from_slice(&[
                op | (count << 12) | (g << 8),
                insn.idx as u16,
                nibbles[0] | (nibbles[1] << 4) | (nibbles[2] << 8) | (nibbles[3] << 12),
            ])
        }
        Format::F3rc => {
            check(
                insn.regs.len() <= 0xff,
                m,
                "argument count",
                insn.regs.len() as i64,
            )?;
            check(insn.idx <= 0xffff, m, "index", i64::from(insn.idx))?;
            let start = insn.regs.first().copied().unwrap_or(0);
            for (i, &r) in insn.regs.iter().enumerate() {
                check(
                    r == start + i as u32,
                    m,
                    "argument registers (must be consecutive)",
                    i64::from(r),
                )?;
            }
            check(start <= 0xffff, m, "start register", i64::from(start))?;
            out.extend_from_slice(&[
                op | ((insn.regs.len() as u16) << 8),
                insn.idx as u16,
                start as u16,
            ])
        }
        Format::F51l => {
            let a = reg8(insn, "vA", insn.a)?;
            let v = insn.lit as u64;
            out.extend_from_slice(&[
                op | (a << 8),
                (v & 0xffff) as u16,
                ((v >> 16) & 0xffff) as u16,
                ((v >> 32) & 0xffff) as u16,
                ((v >> 48) & 0xffff) as u16,
            ])
        }
    }
    Ok(())
}

/// Encodes a decoded element (instruction or payload) into code units.
///
/// # Errors
///
/// See [`encode_insn`]; payloads additionally reject odd element widths.
pub fn encode_decoded(d: &Decoded) -> Result<Vec<u16>> {
    let mut out = Vec::with_capacity(d.units());
    match d {
        Decoded::Insn(insn) => encode_insn_into(insn, &mut out)?,
        Decoded::PackedSwitchPayload { first_key, targets } => {
            packed_switch_payload_into(*first_key, targets, &mut out);
        }
        Decoded::SparseSwitchPayload { keys, targets } => {
            sparse_switch_payload_into(keys, targets, &mut out)?;
        }
        Decoded::FillArrayDataPayload {
            element_width,
            data,
        } => fill_array_payload_into(*element_width, data, &mut out)?,
    }
    Ok(out)
}

fn push_i32(out: &mut Vec<u16>, v: i32) {
    out.push((v as u32 & 0xffff) as u16);
    out.push((v as u32 >> 16) as u16);
}

/// Appends a `packed-switch-payload` with branch offsets `targets`.
pub(crate) fn packed_switch_payload_into(first_key: i32, targets: &[i32], out: &mut Vec<u16>) {
    out.extend_from_slice(&[payload::PACKED_SWITCH, targets.len() as u16]);
    push_i32(out, first_key);
    for &t in targets {
        push_i32(out, t);
    }
}

/// Appends a `sparse-switch-payload`.
///
/// # Errors
///
/// Returns [`DalvikError::BadPayload`] when `keys` and `targets` differ in
/// length.
pub(crate) fn sparse_switch_payload_into(
    keys: &[i32],
    targets: &[i32],
    out: &mut Vec<u16>,
) -> Result<()> {
    if keys.len() != targets.len() {
        return Err(DalvikError::BadPayload("sparse switch key/target mismatch"));
    }
    out.extend_from_slice(&[payload::SPARSE_SWITCH, keys.len() as u16]);
    for &k in keys {
        push_i32(out, k);
    }
    for &t in targets {
        push_i32(out, t);
    }
    Ok(())
}

/// Appends a `fill-array-data-payload` of `element_width`-byte elements.
///
/// # Errors
///
/// Returns [`DalvikError::BadPayload`] for a zero width or a byte count
/// that is not a multiple of it.
pub(crate) fn fill_array_payload_into(
    element_width: u16,
    data: &[u8],
    out: &mut Vec<u16>,
) -> Result<()> {
    if element_width == 0 || !data.len().is_multiple_of(element_width as usize) {
        return Err(DalvikError::BadPayload("fill-array-data size mismatch"));
    }
    let size = (data.len() / element_width as usize) as u32;
    out.extend_from_slice(&[
        payload::FILL_ARRAY_DATA,
        element_width,
        (size & 0xffff) as u16,
        (size >> 16) as u16,
    ]);
    let mut iter = data.chunks_exact(2);
    for pair in &mut iter {
        out.push(u16::from(pair[0]) | (u16::from(pair[1]) << 8));
    }
    if let [last] = iter.remainder() {
        out.push(u16::from(*last));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_insn;

    #[test]
    fn operand_range_enforced() {
        let mut insn = Insn::of(Opcode::Move); // 12x: 4-bit regs
        insn.a = 16;
        assert!(matches!(
            encode_insn(&insn),
            Err(DalvikError::OperandRange { .. })
        ));
    }

    #[test]
    fn branch_range_enforced() {
        let mut insn = Insn::of(Opcode::Goto);
        insn.off = 1000;
        assert!(matches!(
            encode_insn(&insn),
            Err(DalvikError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn const4_literal_range() {
        let mut insn = Insn::of(Opcode::Const4);
        insn.lit = 8;
        assert!(encode_insn(&insn).is_err());
        insn.lit = -8;
        assert!(encode_insn(&insn).is_ok());
    }

    #[test]
    fn high16_requires_clear_low_bits() {
        let mut insn = Insn::of(Opcode::ConstHigh16);
        insn.lit = 0x1234_0000;
        assert!(encode_insn(&insn).is_ok());
        insn.lit = 0x1234_0001;
        assert!(encode_insn(&insn).is_err());
    }

    #[test]
    fn range_invoke_requires_consecutive_regs() {
        let mut insn = Insn::of(Opcode::InvokeStaticRange);
        insn.regs = vec![3, 4, 6];
        assert!(encode_insn(&insn).is_err());
        insn.regs = vec![3, 4, 5];
        assert!(encode_insn(&insn).is_ok());
    }

    #[test]
    fn payload_roundtrips() {
        for p in [
            Decoded::PackedSwitchPayload {
                first_key: -5,
                targets: vec![3, -9, 100000],
            },
            Decoded::SparseSwitchPayload {
                keys: vec![-100, 0, 77],
                targets: vec![5, 6, 7],
            },
            Decoded::FillArrayDataPayload {
                element_width: 4,
                data: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            Decoded::FillArrayDataPayload {
                element_width: 1,
                data: vec![9, 8, 7],
            },
        ] {
            let units = encode_decoded(&p).unwrap();
            let back = decode_insn(&units, 0).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn wide_literal_roundtrip() {
        let mut insn = Insn::of(Opcode::ConstWide);
        insn.a = 2;
        insn.lit = -0x1122_3344_5566_7788;
        let units = encode_insn(&insn).unwrap();
        let back = decode_insn(&units, 0).unwrap();
        assert_eq!(back.as_insn().unwrap().lit, insn.lit);
    }
}
