//! `encoded_value` — the tagged constant representation used for static
//! field initialisers (`encoded_array_item`) in a DEX file.

use crate::error::{DexError, Result};
use crate::reader::fitting;
use crate::{FieldIdx, MethodIdx, StringIdx, TypeIdx};

/// The deepest nesting of [`EncodedValue::Array`]s the reader accepts.
/// Reading, cloning, writing and dropping a value all recurse once per
/// level, so the bound keeps a hostile static value from overflowing the
/// stack of whichever thread touches it.
pub const MAX_DEPTH: usize = 64;

/// A constant value as stored in an `encoded_value` structure.
///
/// Only the variants needed for static-value arrays are modelled
/// (annotation payloads are out of scope for this reproduction).
///
/// # Example
///
/// ```
/// use dexlego_dex::EncodedValue;
/// let mut buf = Vec::new();
/// EncodedValue::Int(-1).write(&mut buf);
/// let mut pos = 0;
/// assert_eq!(EncodedValue::read(&buf, &mut pos).unwrap(), EncodedValue::Int(-1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedValue {
    /// Signed 8-bit constant.
    Byte(i8),
    /// Signed 16-bit constant.
    Short(i16),
    /// UTF-16 code unit constant.
    Char(u16),
    /// Signed 32-bit constant.
    Int(i32),
    /// Signed 64-bit constant.
    Long(i64),
    /// 32-bit float constant.
    Float(f32),
    /// 64-bit float constant.
    Double(f64),
    /// Index into the string pool.
    String(StringIdx),
    /// Index into the type pool.
    Type(TypeIdx),
    /// Index into the field pool.
    Field(FieldIdx),
    /// Index into the method pool.
    Method(MethodIdx),
    /// Index into the field pool, of an enum constant.
    Enum(FieldIdx),
    /// Nested array of values.
    Array(Vec<EncodedValue>),
    /// `null` reference.
    Null,
    /// Boolean constant (encoded in the `value_arg` bits).
    Boolean(bool),
}

const VALUE_BYTE: u8 = 0x00;
const VALUE_SHORT: u8 = 0x02;
const VALUE_CHAR: u8 = 0x03;
const VALUE_INT: u8 = 0x04;
const VALUE_LONG: u8 = 0x06;
const VALUE_FLOAT: u8 = 0x10;
const VALUE_DOUBLE: u8 = 0x11;
const VALUE_STRING: u8 = 0x17;
const VALUE_TYPE: u8 = 0x18;
const VALUE_FIELD: u8 = 0x19;
const VALUE_METHOD: u8 = 0x1a;
const VALUE_ENUM: u8 = 0x1b;
const VALUE_ARRAY: u8 = 0x1c;
const VALUE_NULL: u8 = 0x1e;
const VALUE_BOOLEAN: u8 = 0x1f;

/// Writes a signed integer using the minimal number of little-endian bytes,
/// returning the byte count minus one (the `value_arg`).
fn write_signed(out: &mut Vec<u8>, v: i64) -> u8 {
    let mut n = 1;
    while n < 8 {
        // Does the value survive truncation to n bytes with sign extension?
        let shifted = (v << (64 - 8 * n)) >> (64 - 8 * n);
        if shifted == v {
            break;
        }
        n += 1;
    }
    out.extend_from_slice(&v.to_le_bytes()[..n]);
    (n - 1) as u8
}

/// Writes an unsigned integer (zero-extended) using the minimal number of
/// little-endian bytes; returns `value_arg`.
fn write_unsigned(out: &mut Vec<u8>, v: u64) -> u8 {
    let mut n = 1;
    while n < 8 && (v >> (8 * n)) != 0 {
        n += 1;
    }
    out.extend_from_slice(&v.to_le_bytes()[..n]);
    (n - 1) as u8
}

/// Writes a float/double using the minimal number of bytes, dropping
/// zero-valued low-order bytes (right-zero-extended per the spec); returns
/// `value_arg`.
fn write_float_bits(out: &mut Vec<u8>, bits: u64, width: usize) -> u8 {
    let bytes = bits.to_le_bytes();
    let mut start = 0;
    while start < width - 1 && bytes[start] == 0 {
        start += 1;
    }
    out.extend_from_slice(&bytes[start..width]);
    (width - start - 1) as u8
}

fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = *pos + n;
    let slice = buf.get(*pos..end).ok_or(DexError::Truncated {
        offset: *pos,
        what: "encoded_value payload",
    })?;
    *pos = end;
    Ok(slice)
}

fn read_signed(buf: &[u8], pos: &mut usize, n: usize) -> Result<i64> {
    let bytes = read_bytes(buf, pos, n)?;
    let mut v: u64 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    let shift = 64 - 8 * n;
    Ok(((v << shift) as i64) >> shift)
}

fn read_unsigned(buf: &[u8], pos: &mut usize, n: usize) -> Result<u64> {
    let bytes = read_bytes(buf, pos, n)?;
    let mut v: u64 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    Ok(v)
}

fn read_float_bits(buf: &[u8], pos: &mut usize, n: usize, width: usize) -> Result<u64> {
    if n > width {
        return Err(DexError::Invalid(format!(
            "{n}-byte encoded value of a {width}-byte float"
        )));
    }
    let bytes = read_bytes(buf, pos, n)?;
    let mut v: u64 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b) << (8 * (width - n + i));
    }
    Ok(v)
}

impl EncodedValue {
    /// Serialises this value in `encoded_value` format, appending to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        let header_pos = out.len();
        out.push(0); // placeholder for (value_arg << 5) | value_type
        let (ty, arg) = match self {
            EncodedValue::Byte(v) => {
                out.push(*v as u8);
                (VALUE_BYTE, 0)
            }
            EncodedValue::Short(v) => (VALUE_SHORT, write_signed(out, i64::from(*v))),
            EncodedValue::Char(v) => (VALUE_CHAR, write_unsigned(out, u64::from(*v))),
            EncodedValue::Int(v) => (VALUE_INT, write_signed(out, i64::from(*v))),
            EncodedValue::Long(v) => (VALUE_LONG, write_signed(out, *v)),
            EncodedValue::Float(v) => (
                VALUE_FLOAT,
                write_float_bits(out, u64::from(v.to_bits()), 4),
            ),
            EncodedValue::Double(v) => (VALUE_DOUBLE, write_float_bits(out, v.to_bits(), 8)),
            EncodedValue::String(v) => (VALUE_STRING, write_unsigned(out, u64::from(*v))),
            EncodedValue::Type(v) => (VALUE_TYPE, write_unsigned(out, u64::from(*v))),
            EncodedValue::Field(v) => (VALUE_FIELD, write_unsigned(out, u64::from(*v))),
            EncodedValue::Method(v) => (VALUE_METHOD, write_unsigned(out, u64::from(*v))),
            EncodedValue::Enum(v) => (VALUE_ENUM, write_unsigned(out, u64::from(*v))),
            EncodedValue::Array(items) => {
                crate::leb128::write_uleb128(out, items.len() as u32);
                for item in items {
                    item.write(out);
                }
                (VALUE_ARRAY, 0)
            }
            EncodedValue::Null => (VALUE_NULL, 0),
            EncodedValue::Boolean(b) => (VALUE_BOOLEAN, u8::from(*b)),
        };
        out[header_pos] = (arg << 5) | ty;
    }

    /// Parses one `encoded_value` from `buf` at `*pos`, advancing `*pos`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] or [`DexError::Invalid`] on malformed
    /// input, including arrays nested deeper than [`MAX_DEPTH`].
    pub fn read(buf: &[u8], pos: &mut usize) -> Result<EncodedValue> {
        EncodedValue::read_nested(buf, pos, 0)
    }

    /// Parses an `encoded_array` (a count, then that many values) nested
    /// in `depth` arrays.
    pub(crate) fn read_list(
        buf: &[u8],
        pos: &mut usize,
        depth: usize,
    ) -> Result<Vec<EncodedValue>> {
        if depth > MAX_DEPTH {
            return Err(DexError::Invalid(format!(
                "encoded arrays nested deeper than {MAX_DEPTH}"
            )));
        }
        let n = crate::leb128::read_uleb128(buf, pos)? as usize;
        // Every value takes at least its header byte.
        let mut items = Vec::with_capacity(fitting(buf, *pos, 1, n));
        for _ in 0..n {
            items.push(EncodedValue::read_nested(buf, pos, depth)?);
        }
        Ok(items)
    }

    fn read_nested(buf: &[u8], pos: &mut usize, depth: usize) -> Result<EncodedValue> {
        let header = *buf.get(*pos).ok_or(DexError::Truncated {
            offset: *pos,
            what: "encoded_value header",
        })?;
        *pos += 1;
        let ty = header & 0x1f;
        let arg = usize::from(header >> 5);
        Ok(match ty {
            VALUE_BYTE => EncodedValue::Byte(read_signed(buf, pos, 1)? as i8),
            VALUE_SHORT => EncodedValue::Short(read_signed(buf, pos, arg + 1)? as i16),
            VALUE_CHAR => EncodedValue::Char(read_unsigned(buf, pos, arg + 1)? as u16),
            VALUE_INT => EncodedValue::Int(read_signed(buf, pos, arg + 1)? as i32),
            VALUE_LONG => EncodedValue::Long(read_signed(buf, pos, arg + 1)?),
            VALUE_FLOAT => {
                let bits = read_float_bits(buf, pos, arg + 1, 4)?;
                EncodedValue::Float(f32::from_bits(bits as u32))
            }
            VALUE_DOUBLE => {
                EncodedValue::Double(f64::from_bits(read_float_bits(buf, pos, arg + 1, 8)?))
            }
            VALUE_STRING => EncodedValue::String(read_unsigned(buf, pos, arg + 1)? as u32),
            VALUE_TYPE => EncodedValue::Type(read_unsigned(buf, pos, arg + 1)? as u32),
            VALUE_FIELD => EncodedValue::Field(read_unsigned(buf, pos, arg + 1)? as u32),
            VALUE_METHOD => EncodedValue::Method(read_unsigned(buf, pos, arg + 1)? as u32),
            VALUE_ENUM => EncodedValue::Enum(read_unsigned(buf, pos, arg + 1)? as u32),
            VALUE_ARRAY => EncodedValue::Array(EncodedValue::read_list(buf, pos, depth + 1)?),
            VALUE_NULL => EncodedValue::Null,
            VALUE_BOOLEAN => EncodedValue::Boolean(arg != 0),
            other => return Err(DexError::Invalid(format!("unknown value_type {other:#x}"))),
        })
    }

    /// The "zero" value for a field of the given type descriptor, used when a
    /// static-values array is shorter than the static field list.
    pub fn default_for_type(descriptor: &str) -> EncodedValue {
        match descriptor.as_bytes().first() {
            Some(b'Z') => EncodedValue::Boolean(false),
            Some(b'B') => EncodedValue::Byte(0),
            Some(b'S') => EncodedValue::Short(0),
            Some(b'C') => EncodedValue::Char(0),
            Some(b'I') => EncodedValue::Int(0),
            Some(b'J') => EncodedValue::Long(0),
            Some(b'F') => EncodedValue::Float(0.0),
            Some(b'D') => EncodedValue::Double(0.0),
            _ => EncodedValue::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: EncodedValue) {
        let mut buf = Vec::new();
        v.write(&mut buf);
        let mut pos = 0;
        let got = EncodedValue::read(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "all bytes consumed for {v:?}");
        assert_eq!(got, v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(EncodedValue::Byte(-5));
        roundtrip(EncodedValue::Short(-300));
        roundtrip(EncodedValue::Char(0xffff));
        roundtrip(EncodedValue::Int(i32::MIN));
        roundtrip(EncodedValue::Int(0));
        roundtrip(EncodedValue::Long(i64::MAX));
        roundtrip(EncodedValue::Long(-1));
        roundtrip(EncodedValue::Boolean(true));
        roundtrip(EncodedValue::Boolean(false));
        roundtrip(EncodedValue::Null);
    }

    #[test]
    fn float_roundtrips() {
        roundtrip(EncodedValue::Float(1.5));
        roundtrip(EncodedValue::Float(0.0));
        roundtrip(EncodedValue::Float(f32::MIN_POSITIVE));
        roundtrip(EncodedValue::Double(std::f64::consts::PI));
        roundtrip(EncodedValue::Double(2.0));
    }

    #[test]
    fn index_roundtrips() {
        roundtrip(EncodedValue::String(0));
        roundtrip(EncodedValue::String(70000));
        roundtrip(EncodedValue::Type(255));
        roundtrip(EncodedValue::Field(256));
        roundtrip(EncodedValue::Method(0xff_ffff));
        roundtrip(EncodedValue::Enum(3));
    }

    #[test]
    fn nested_array_roundtrips() {
        roundtrip(EncodedValue::Array(vec![
            EncodedValue::Int(1),
            EncodedValue::Array(vec![EncodedValue::Boolean(true)]),
            EncodedValue::String(7),
        ]));
    }

    #[test]
    fn int_encoding_is_minimal() {
        let mut buf = Vec::new();
        EncodedValue::Int(1).write(&mut buf);
        assert_eq!(buf.len(), 2); // header + 1 byte
        buf.clear();
        EncodedValue::Int(-1).write(&mut buf);
        assert_eq!(buf.len(), 2);
        buf.clear();
        EncodedValue::Int(0x1234).write(&mut buf);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn defaults_match_descriptor() {
        assert_eq!(EncodedValue::default_for_type("I"), EncodedValue::Int(0));
        assert_eq!(
            EncodedValue::default_for_type("Z"),
            EncodedValue::Boolean(false)
        );
        assert_eq!(
            EncodedValue::default_for_type("Ljava/lang/String;"),
            EncodedValue::Null
        );
        assert_eq!(EncodedValue::default_for_type("[I"), EncodedValue::Null);
    }

    /// `depth` arrays, each holding the next, around one `null`.
    fn nested(depth: usize) -> Vec<u8> {
        let mut buf = [VALUE_ARRAY, 1].repeat(depth);
        buf.push(VALUE_NULL);
        buf
    }

    #[test]
    fn nesting_is_bounded() {
        let mut pos = 0;
        assert!(EncodedValue::read(&nested(MAX_DEPTH), &mut pos).is_ok());
        let mut pos = 0;
        assert!(EncodedValue::read(&nested(MAX_DEPTH + 1), &mut pos).is_err());
        // Recursing once per level would overflow this test thread's
        // stack.
        let mut pos = 0;
        assert!(EncodedValue::read(&nested(20_000), &mut pos).is_err());
    }

    #[test]
    fn oversized_floats_rejected() {
        for (ty, arg) in [(VALUE_FLOAT, 4u8), (VALUE_DOUBLE, 7)] {
            let mut pos = 0;
            let buf = [(arg << 5) | ty, 1, 2, 3, 4, 5, 6, 7, 8];
            let ok = EncodedValue::read(&buf, &mut pos);
            assert_eq!(ok.is_ok(), ty == VALUE_DOUBLE, "{ty:#x}/{arg}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut pos = 0;
        assert!(EncodedValue::read(&[0x15], &mut pos).is_err());
    }
}
