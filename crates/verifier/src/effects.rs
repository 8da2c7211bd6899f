//! Per-opcode register effects: which registers an instruction reads (and
//! with what category requirement) and what it writes. One table shared by
//! the dataflow verifier and the lint pass.

use dexlego_dalvik::insn::Insn;
use dexlego_dalvik::Opcode;

use crate::typestate::RegType;

/// Requirement on a register read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Need {
    /// Any defined category-1 value (including refs) — `if-*`, `move` of
    /// unknown intent.
    Any1,
    /// A category-1 numeric value (int or float).
    Num,
    /// An int-like value.
    IntLike,
    /// A float value.
    FloatLike,
    /// An object reference.
    RefLike,
    /// Any defined register, wide halves included — invoke arguments,
    /// where wide arguments appear as both halves in the register list.
    Defined,
    /// A properly paired wide value in (reg, reg+1).
    Wide,
}

/// What an instruction writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Write {
    /// A category-1 value of the given type into one register.
    One(RegType),
    /// An object reference whose static type the dataflow resolves from
    /// the instruction's pool index (Object without DEX context).
    Ref,
    /// A copy of the source register's type (the `move` family).
    Copy(u32),
    /// A wide pair into (reg, reg+1).
    Wide,
}

/// Register effects of one instruction.
#[derive(Debug, Clone, Default)]
pub(crate) struct Effects {
    pub reads: Vec<(u32, Need)>,
    pub write: Option<(u32, Write)>,
}

impl Effects {
    fn read(mut self, reg: u32, need: Need) -> Effects {
        self.reads.push((reg, need));
        self
    }

    fn write(mut self, reg: u32, w: Write) -> Effects {
        self.write = Some((reg, w));
        self
    }
}

/// The effects table, into a reusable buffer: the buffer's read list is
/// cleared and refilled in place, so a pass over a method performs no
/// per-instruction allocation once the buffer has grown to the method's
/// widest instruction. Control flow (targets, payloads) is handled by the
/// CFG; this covers only register reads/writes.
pub(crate) fn effects_into(insn: &Insn, out: &mut Effects) {
    let mut e = std::mem::take(out);
    e.reads.clear();
    e.write = None;
    *out = fill(insn, e);
}

fn fill(insn: &Insn, e: Effects) -> Effects {
    use Need::*;
    use Opcode as Op;
    use RegType as T;
    let op = insn.op;
    match op {
        Op::Nop | Op::ReturnVoid | Op::Goto | Op::Goto16 | Op::Goto32 => e,

        Op::Move | Op::MoveFrom16 | Op::Move16 => {
            e.read(insn.b, Num).write(insn.a, Write::Copy(insn.b))
        }
        Op::MoveWide | Op::MoveWideFrom16 | Op::MoveWide16 => {
            e.read(insn.b, Wide).write(insn.a, Write::Wide)
        }
        Op::MoveObject | Op::MoveObjectFrom16 | Op::MoveObject16 => {
            e.read(insn.b, RefLike).write(insn.a, Write::Copy(insn.b))
        }

        Op::MoveResult => e.write(insn.a, Write::One(T::Any)),
        Op::MoveResultWide => e.write(insn.a, Write::Wide),
        Op::MoveResultObject | Op::MoveException => e.write(insn.a, Write::Ref),

        Op::Return => e.read(insn.a, Num),
        Op::ReturnWide => e.read(insn.a, Wide),
        Op::ReturnObject => e.read(insn.a, RefLike),

        Op::Const4 | Op::Const16 | Op::Const | Op::ConstHigh16 => {
            e.write(insn.a, Write::One(T::Const))
        }
        Op::ConstWide16 | Op::ConstWide32 | Op::ConstWide | Op::ConstWideHigh16 => {
            e.write(insn.a, Write::Wide)
        }
        Op::ConstString | Op::ConstStringJumbo | Op::ConstClass => e.write(insn.a, Write::Ref),

        Op::MonitorEnter | Op::MonitorExit | Op::Throw | Op::FillArrayData => {
            e.read(insn.a, RefLike)
        }
        Op::CheckCast => e.read(insn.a, RefLike).write(insn.a, Write::Ref),
        Op::InstanceOf => e.read(insn.b, RefLike).write(insn.a, Write::One(T::Int)),
        Op::ArrayLength => e.read(insn.b, RefLike).write(insn.a, Write::One(T::Int)),
        Op::NewInstance => e.write(insn.a, Write::Ref),
        Op::NewArray => e.read(insn.b, IntLike).write(insn.a, Write::Ref),

        Op::FilledNewArray | Op::FilledNewArrayRange => {
            insn.regs.iter().fold(e, |acc, &r| acc.read(r, Defined))
        }

        Op::PackedSwitch | Op::SparseSwitch => e.read(insn.a, IntLike),

        Op::CmplFloat | Op::CmpgFloat => e
            .read(insn.b, FloatLike)
            .read(insn.c, FloatLike)
            .write(insn.a, Write::One(T::Int)),
        Op::CmplDouble | Op::CmpgDouble | Op::CmpLong => e
            .read(insn.b, Wide)
            .read(insn.c, Wide)
            .write(insn.a, Write::One(T::Int)),

        op if op.is_conditional_branch() => {
            if matches!(op.format(), dexlego_dalvik::Format::F22t) {
                e.read(insn.a, Any1).read(insn.b, Any1)
            } else {
                e.read(insn.a, Any1)
            }
        }

        // Array accesses: vB array ref, vC index, vA value.
        Op::Aget => e
            .read(insn.b, RefLike)
            .read(insn.c, IntLike)
            .write(insn.a, Write::One(T::Any)),
        Op::AgetWide => e
            .read(insn.b, RefLike)
            .read(insn.c, IntLike)
            .write(insn.a, Write::Wide),
        Op::AgetObject => e
            .read(insn.b, RefLike)
            .read(insn.c, IntLike)
            .write(insn.a, Write::Ref),
        Op::AgetBoolean | Op::AgetByte | Op::AgetChar | Op::AgetShort => e
            .read(insn.b, RefLike)
            .read(insn.c, IntLike)
            .write(insn.a, Write::One(T::Int)),
        Op::Aput => e
            .read(insn.a, Num)
            .read(insn.b, RefLike)
            .read(insn.c, IntLike),
        Op::AputWide => e
            .read(insn.a, Wide)
            .read(insn.b, RefLike)
            .read(insn.c, IntLike),
        Op::AputObject => e
            .read(insn.a, RefLike)
            .read(insn.b, RefLike)
            .read(insn.c, IntLike),
        Op::AputBoolean | Op::AputByte | Op::AputChar | Op::AputShort => e
            .read(insn.a, IntLike)
            .read(insn.b, RefLike)
            .read(insn.c, IntLike),

        // Instance field accesses: vB object, vA value.
        Op::Iget => e.read(insn.b, RefLike).write(insn.a, Write::One(T::Any)),
        Op::IgetWide => e.read(insn.b, RefLike).write(insn.a, Write::Wide),
        Op::IgetObject => e.read(insn.b, RefLike).write(insn.a, Write::Ref),
        Op::IgetBoolean | Op::IgetByte | Op::IgetChar | Op::IgetShort => {
            e.read(insn.b, RefLike).write(insn.a, Write::One(T::Int))
        }
        Op::Iput => e.read(insn.a, Num).read(insn.b, RefLike),
        Op::IputWide => e.read(insn.a, Wide).read(insn.b, RefLike),
        Op::IputObject => e.read(insn.a, RefLike).read(insn.b, RefLike),
        Op::IputBoolean | Op::IputByte | Op::IputChar | Op::IputShort => {
            e.read(insn.a, IntLike).read(insn.b, RefLike)
        }

        // Static field accesses.
        Op::Sget => e.write(insn.a, Write::One(T::Any)),
        Op::SgetWide => e.write(insn.a, Write::Wide),
        Op::SgetObject => e.write(insn.a, Write::Ref),
        Op::SgetBoolean | Op::SgetByte | Op::SgetChar | Op::SgetShort => {
            e.write(insn.a, Write::One(T::Int))
        }
        Op::Sput => e.read(insn.a, Num),
        Op::SputWide => e.read(insn.a, Wide),
        Op::SputObject => e.read(insn.a, RefLike),
        Op::SputBoolean | Op::SputByte | Op::SputChar | Op::SputShort => e.read(insn.a, IntLike),

        op if op.is_invoke() => insn.regs.iter().fold(e, |acc, &r| acc.read(r, Defined)),

        // Unary operations.
        Op::NegInt | Op::NotInt | Op::IntToByte | Op::IntToChar | Op::IntToShort => {
            e.read(insn.b, IntLike).write(insn.a, Write::One(T::Int))
        }
        Op::NegLong | Op::NotLong | Op::LongToDouble => {
            e.read(insn.b, Wide).write(insn.a, Write::Wide)
        }
        Op::NegFloat => e
            .read(insn.b, FloatLike)
            .write(insn.a, Write::One(T::Float)),
        Op::IntToFloat => e.read(insn.b, IntLike).write(insn.a, Write::One(T::Float)),
        Op::NegDouble | Op::DoubleToLong => e.read(insn.b, Wide).write(insn.a, Write::Wide),
        Op::IntToLong | Op::IntToDouble => e.read(insn.b, IntLike).write(insn.a, Write::Wide),
        Op::LongToInt => e.read(insn.b, Wide).write(insn.a, Write::One(T::Int)),
        Op::LongToFloat | Op::DoubleToFloat => {
            e.read(insn.b, Wide).write(insn.a, Write::One(T::Float))
        }
        Op::FloatToInt => e.read(insn.b, FloatLike).write(insn.a, Write::One(T::Int)),
        Op::FloatToLong | Op::FloatToDouble => e.read(insn.b, FloatLike).write(insn.a, Write::Wide),
        Op::DoubleToInt => e.read(insn.b, Wide).write(insn.a, Write::One(T::Int)),

        // Three-address binary operations.
        Op::ShlLong | Op::ShrLong | Op::UshrLong => e
            .read(insn.b, Wide)
            .read(insn.c, IntLike)
            .write(insn.a, Write::Wide),
        op if (0x90..=0x9a).contains(&(op as u8)) => e
            .read(insn.b, IntLike)
            .read(insn.c, IntLike)
            .write(insn.a, Write::One(T::Int)),
        op if (0x9b..=0xa2).contains(&(op as u8)) => e
            .read(insn.b, Wide)
            .read(insn.c, Wide)
            .write(insn.a, Write::Wide),
        op if (0xa6..=0xaa).contains(&(op as u8)) => e
            .read(insn.b, FloatLike)
            .read(insn.c, FloatLike)
            .write(insn.a, Write::One(T::Float)),
        op if (0xab..=0xaf).contains(&(op as u8)) => e
            .read(insn.b, Wide)
            .read(insn.c, Wide)
            .write(insn.a, Write::Wide),

        // Two-address binary operations.
        Op::ShlLong2addr | Op::ShrLong2addr | Op::UshrLong2addr => e
            .read(insn.a, Wide)
            .read(insn.b, IntLike)
            .write(insn.a, Write::Wide),
        op if (0xb0..=0xba).contains(&(op as u8)) => e
            .read(insn.a, IntLike)
            .read(insn.b, IntLike)
            .write(insn.a, Write::One(T::Int)),
        op if (0xbb..=0xc2).contains(&(op as u8)) => e
            .read(insn.a, Wide)
            .read(insn.b, Wide)
            .write(insn.a, Write::Wide),
        op if (0xc6..=0xca).contains(&(op as u8)) => e
            .read(insn.a, FloatLike)
            .read(insn.b, FloatLike)
            .write(insn.a, Write::One(T::Float)),
        op if (0xcb..=0xcf).contains(&(op as u8)) => e
            .read(insn.a, Wide)
            .read(insn.b, Wide)
            .write(insn.a, Write::Wide),

        // Literal-operand binary operations (lit16/lit8).
        op if (0xd0..=0xe2).contains(&(op as u8)) => {
            e.read(insn.b, IntLike).write(insn.a, Write::One(T::Int))
        }

        // Every opcode is covered above; the ranges make the compiler
        // unable to see that.
        _ => e,
    }
}
