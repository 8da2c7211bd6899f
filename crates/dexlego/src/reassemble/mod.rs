//! Offline reassembly: collection files → a valid DEX file (paper §IV-B/C).

pub mod dexgen;
pub mod tree_merge;

pub use dexgen::{
    gate_verified, reassemble, reassemble_verified, reassemble_with_metrics, GuardAlloc,
};
pub use tree_merge::{merge_tree, PoolRemap};

use crate::{DexLegoError, Result};

/// Parses a method descriptor like `(ILjava/lang/String;)V` into parameter
/// descriptors and the return descriptor.
///
/// # Errors
///
/// Returns [`DexLegoError::Reassembly`] on malformed descriptors.
///
/// # Example
///
/// ```
/// let (params, ret) = dexlego_core::reassemble::parse_descriptor("(I[BLjava/lang/String;)V").unwrap();
/// assert_eq!(params, vec!["I", "[B", "Ljava/lang/String;"]);
/// assert_eq!(ret, "V");
/// ```
pub fn parse_descriptor(descriptor: &str) -> Result<(Vec<String>, String)> {
    let bad = || DexLegoError::Reassembly(format!("malformed descriptor {descriptor:?}"));
    let rest = descriptor.strip_prefix('(').ok_or_else(bad)?;
    let close = rest.find(')').ok_or_else(bad)?;
    let (params_str, ret) = rest.split_at(close);
    let ret = &ret[1..];
    if ret.is_empty() {
        return Err(bad());
    }
    let mut params = Vec::new();
    let bytes = params_str.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while bytes.get(i) == Some(&b'[') {
            i += 1;
        }
        match bytes.get(i) {
            Some(b'L') => {
                while bytes.get(i) != Some(&b';') {
                    if i >= bytes.len() {
                        return Err(bad());
                    }
                    i += 1;
                }
                i += 1;
            }
            Some(b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D') => i += 1,
            _ => return Err(bad()),
        }
        params.push(params_str[start..i].to_owned());
    }
    Ok((params, ret.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_descriptors() {
        let (p, r) = parse_descriptor("()V").unwrap();
        assert!(p.is_empty());
        assert_eq!(r, "V");
        let (p, r) = parse_descriptor("(J[[Lfoo/Bar;ZD)Ljava/lang/Object;").unwrap();
        assert_eq!(p, vec!["J", "[[Lfoo/Bar;", "Z", "D"]);
        assert_eq!(r, "Ljava/lang/Object;");
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "I", "(I", "(X)V", "()", "(L)V"] {
            assert!(parse_descriptor(bad).is_err(), "{bad}");
        }
    }
}
