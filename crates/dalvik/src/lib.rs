#![forbid(unsafe_code)]

//! Dalvik bytecode instruction set.
//!
//! This crate provides the instruction-level view of DEX bytecode that the
//! interpreter, collector, and reassembler of the DexLego reproduction work
//! with:
//!
//! * [`opcode`] — the full Dalvik 035 opcode table with per-opcode metadata
//!   (mnemonic, encoding format, constant-pool index kind).
//! * [`insn`] — a decoded instruction value ([`Insn`]) plus switch/array
//!   payloads ([`Decoded`]).
//! * [`decode`] / [`encode`] — lossless translation between 16-bit code
//!   units and decoded instructions, plus whole-method predecoding
//!   ([`predecode`]) into the dense [`PredecodedMethod`] representation the
//!   interpreter's code cache is built from (for frames under a passive
//!   observer; event-wanting frames decode per step).
//! * [`asm`] — a label-based method assembler that sizes branches and lays
//!   out payloads, used to build test programs and by the reassembler.
//! * [`disasm`] — a smali-flavoured pretty printer.
//! * [`quick`] — internal quickened/fused instruction forms (ART's
//!   `iget-quick` analogue) and the per-method [`quick::QuickCells`]
//!   overlay the interpreter's quickening pass rewrites in place.
//! * [`canon`] — pool canonicalisation: sorts a [`dexlego_dex::DexFile`]'s
//!   pools per the format specification and rewrites the indices embedded in
//!   every instruction stream.
//!
//! # Example
//!
//! ```
//! use dexlego_dalvik::{asm::MethodAssembler, opcode::Opcode};
//!
//! # fn main() -> Result<(), dexlego_dalvik::DalvikError> {
//! let mut asm = MethodAssembler::new();
//! asm.const4(0, 7);
//! asm.ret(Opcode::Return, 0);
//! let units = asm.assemble()?;
//! assert_eq!(units.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod builder;
pub mod canon;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod insn;
pub mod opcode;
pub mod quick;
pub mod subset;

pub use asm::MethodAssembler;
pub use decode::{decode_insn, decode_method, predecode, PredecodedMethod};
pub use encode::{encode_insn, encode_insn_into};
pub use insn::{Decoded, Insn};
pub use opcode::{Format, IndexKind, Opcode};

use std::fmt;

/// Error produced by instruction decoding, encoding, or assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DalvikError {
    /// The opcode byte is not a valid Dalvik 035 opcode.
    UnknownOpcode(u8),
    /// The code-unit stream ended inside an instruction.
    TruncatedInsn {
        /// Offset in code units where the instruction began.
        at: usize,
    },
    /// A payload pseudo-instruction was malformed.
    BadPayload(&'static str),
    /// An operand does not fit the instruction's encoding format.
    OperandRange {
        /// The instruction's mnemonic.
        mnemonic: &'static str,
        /// Which operand overflowed.
        operand: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A branch target label was never defined.
    UndefinedLabel(u32),
    /// A label was defined more than once.
    DuplicateLabel(u32),
    /// A branch offset exceeds what its encoding can express.
    BranchOutOfRange {
        /// The instruction's mnemonic.
        mnemonic: &'static str,
        /// The required offset in code units.
        offset: i64,
    },
}

impl fmt::Display for DalvikError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DalvikError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DalvikError::TruncatedInsn { at } => {
                write!(f, "truncated instruction at code unit {at}")
            }
            DalvikError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            DalvikError::OperandRange {
                mnemonic,
                operand,
                value,
            } => write!(
                f,
                "{mnemonic}: operand {operand} value {value} out of range"
            ),
            DalvikError::UndefinedLabel(l) => write!(f, "undefined label {l}"),
            DalvikError::DuplicateLabel(l) => write!(f, "duplicate label {l}"),
            DalvikError::BranchOutOfRange { mnemonic, offset } => {
                write!(f, "{mnemonic}: branch offset {offset} out of range")
            }
        }
    }
}

impl std::error::Error for DalvikError {}

/// Convenience alias for results with [`DalvikError`].
pub type Result<T> = std::result::Result<T, DalvikError>;
