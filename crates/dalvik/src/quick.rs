//! Internal quickened and fused instruction forms.
//!
//! ART rewrites hot `iget`/`invoke` instructions in its in-memory dex
//! representation to pre-resolved "quick" variants (`iget-quick` and
//! friends) that carry a resolved offset instead of a constant-pool index.
//! This module defines the analogous *internal dispatch bytes* for the
//! DexLego interpreter, plus superinstruction (fused pair) forms and the
//! per-method [`QuickCells`] side table that holds them.
//!
//! The internal bytes live in the gaps of the Dalvik opcode map
//! (`0xe3..=0xff` is unused by the real instruction set), so a dispatch
//! byte is either a real [`Opcode`] discriminant or one of these. They are
//! never serialised: [`crate::PredecodedMethod`] keeps the original decoded
//! instructions untouched, and `QuickCells` overlays dispatch bytes and
//! resolved operands per instruction index. Only frames whose observer
//! wants no instruction events run quickened, so no event stream ever
//! carries a quickened or fused form.
//!
//! Invalidation is inherited from the code-epoch machinery: a method-body
//! mutation discards the whole cache entry, `QuickCells` included, which
//! de-quickens every rewritten cell at once.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use crate::insn::{Decoded, Insn};
use crate::opcode::Opcode;
use crate::PredecodedMethod;

/// `iget` / `iget-object` / `iget-boolean|byte|char|short` with a resolved
/// field in the cell's data slot (all narrow kinds share one byte: they
/// differ only in their constant-pool index, not their execution).
pub const IGET_QUICK: u8 = 0xe3;
/// `iget-wide` with a resolved field.
pub const IGET_WIDE_QUICK: u8 = 0xe4;
/// Narrow `iput` kinds with a resolved field.
pub const IPUT_QUICK: u8 = 0xe5;
/// `iput-wide` with a resolved field.
pub const IPUT_WIDE_QUICK: u8 = 0xe6;
/// `invoke-static[/range]` with a resolved method in the data slot.
pub const INVOKE_STATIC_QUICK: u8 = 0xe7;
/// `invoke-direct|super[/range]` with a resolved method in the data slot.
pub const INVOKE_DIRECT_QUICK: u8 = 0xe8;
/// `const-string[/jumbo]` with the interned object in the data slot.
pub const CONST_STRING_QUICK: u8 = 0xe9;
/// `packed-switch` / `sparse-switch` with a pre-resolved target table
/// (index in the data slot), written at build time.
pub const SWITCH_PRE: u8 = 0xea;

/// Fused pair: two adjacent non-throwing int ALU instructions.
pub const FUSE_ALU_ALU: u8 = 0xf0;
/// Fused pair: non-throwing int ALU followed by an unconditional goto.
pub const FUSE_ALU_GOTO: u8 = 0xf1;
/// Fused pair: conditional branch whose fall-through is an int ALU.
pub const FUSE_IF_ALU: u8 = 0xf2;
/// Fused pair: `cmp*` followed by an `if-*z` testing the cmp result.
pub const FUSE_CMP_IF: u8 = 0xf3;
/// Fused pair: narrow const followed by a narrow move.
pub const FUSE_CONST_MOVE: u8 = 0xf4;
/// Fused pair: two narrow `iget`s off the same (unclobbered) object.
pub const FUSE_IGET_IGET: u8 = 0xf5;

/// Human-readable name of an internal dispatch byte; `None` for bytes that
/// are plain [`Opcode`] discriminants (or unused gaps).
pub fn name(byte: u8) -> Option<&'static str> {
    Some(match byte {
        IGET_QUICK => "iget+quick",
        IGET_WIDE_QUICK => "iget-wide+quick",
        IPUT_QUICK => "iput+quick",
        IPUT_WIDE_QUICK => "iput-wide+quick",
        INVOKE_STATIC_QUICK => "invoke-static+quick",
        INVOKE_DIRECT_QUICK => "invoke-direct+quick",
        CONST_STRING_QUICK => "const-string+quick",
        SWITCH_PRE => "switch+quick",
        FUSE_ALU_ALU => "fused[alu,alu]+quick",
        FUSE_ALU_GOTO => "fused[alu,goto]+quick",
        FUSE_IF_ALU => "fused[if,alu]+quick",
        FUSE_CMP_IF => "fused[cmp,if]+quick",
        FUSE_CONST_MOVE => "fused[const,move]+quick",
        FUSE_IGET_IGET => "fused[iget,iget]+quick",
        _ => None?,
    })
}

/// Whether `byte` is one of the internal (quickened or fused) forms.
pub fn is_internal(byte: u8) -> bool {
    name(byte).is_some()
}

/// Whether `byte` is a fused superinstruction head.
pub fn is_fused(byte: u8) -> bool {
    (FUSE_ALU_ALU..=FUSE_IGET_IGET).contains(&byte)
}

/// Int ALU instructions that can never throw: 23x / 2addr / literal forms
/// excluding div and rem (which raise `ArithmeticException` on zero).
pub fn is_simple_int_alu(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::AddInt
            | Opcode::SubInt
            | Opcode::MulInt
            | Opcode::AndInt
            | Opcode::OrInt
            | Opcode::XorInt
            | Opcode::ShlInt
            | Opcode::ShrInt
            | Opcode::UshrInt
            | Opcode::AddInt2addr
            | Opcode::SubInt2addr
            | Opcode::MulInt2addr
            | Opcode::AndInt2addr
            | Opcode::OrInt2addr
            | Opcode::XorInt2addr
            | Opcode::ShlInt2addr
            | Opcode::ShrInt2addr
            | Opcode::UshrInt2addr
            | Opcode::AddIntLit16
            | Opcode::RsubInt
            | Opcode::MulIntLit16
            | Opcode::AndIntLit16
            | Opcode::OrIntLit16
            | Opcode::XorIntLit16
            | Opcode::AddIntLit8
            | Opcode::RsubIntLit8
            | Opcode::MulIntLit8
            | Opcode::AndIntLit8
            | Opcode::OrIntLit8
            | Opcode::XorIntLit8
            | Opcode::ShlIntLit8
            | Opcode::ShrIntLit8
            | Opcode::UshrIntLit8
    )
}

fn is_cmp(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::CmplFloat
            | Opcode::CmpgFloat
            | Opcode::CmplDouble
            | Opcode::CmpgDouble
            | Opcode::CmpLong
    )
}

fn is_if_z(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::IfEqz
            | Opcode::IfNez
            | Opcode::IfLtz
            | Opcode::IfGez
            | Opcode::IfGtz
            | Opcode::IfLez
    )
}

fn is_narrow_const(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Const4 | Opcode::Const16 | Opcode::Const | Opcode::ConstHigh16
    )
}

fn is_narrow_move(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Move
            | Opcode::MoveFrom16
            | Opcode::Move16
            | Opcode::MoveObject
            | Opcode::MoveObjectFrom16
            | Opcode::MoveObject16
    )
}

/// Narrow instance-field reads (wide excluded: it writes a register pair,
/// which the fused handler does not model).
pub fn is_narrow_iget(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Iget
            | Opcode::IgetObject
            | Opcode::IgetBoolean
            | Opcode::IgetByte
            | Opcode::IgetChar
            | Opcode::IgetShort
    )
}

/// Decides whether two *adjacent* instructions form a superinstruction,
/// returning the fused dispatch byte.
///
/// Rules are chosen so the fused handler can replay both halves with
/// per-step-identical semantics: the first half must not fault in a way
/// that leaves the pair half-done unless the fault pc is the head's, a
/// conditional branch may only appear where the handler models it (head of
/// `FUSE_IF_ALU`, tail of `FUSE_CMP_IF`), and register hazards that would
/// change the second half's inputs disqualify the pair.
pub fn fused_pair(first: &Insn, second: &Insn) -> Option<u8> {
    if is_simple_int_alu(first.op) {
        if is_simple_int_alu(second.op) {
            return Some(FUSE_ALU_ALU);
        }
        if matches!(second.op, Opcode::Goto | Opcode::Goto16 | Opcode::Goto32) {
            return Some(FUSE_ALU_GOTO);
        }
        return None;
    }
    if first.op.is_conditional_branch() && is_simple_int_alu(second.op) {
        return Some(FUSE_IF_ALU);
    }
    if is_cmp(first.op) && is_if_z(second.op) && second.a == first.a {
        return Some(FUSE_CMP_IF);
    }
    if is_narrow_const(first.op) && is_narrow_move(second.op) {
        return Some(FUSE_CONST_MOVE);
    }
    if is_narrow_iget(first.op)
        && is_narrow_iget(second.op)
        && first.b == second.b
        && first.a != first.b
    {
        return Some(FUSE_IGET_IGET);
    }
    None
}

/// A pre-resolved switch payload: targets as absolute dex pcs. An empty
/// `keys` vector marks a packed table indexed from `first_key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchTable {
    first_key: i32,
    keys: Vec<i32>,
    targets: Vec<u32>,
}

impl SwitchTable {
    /// The absolute branch target for `key`, or `None` for fall-through.
    pub fn lookup(&self, key: i32) -> Option<u32> {
        if self.keys.is_empty() {
            let idx = i64::from(key) - i64::from(self.first_key);
            if idx >= 0 && (idx as usize) < self.targets.len() {
                Some(self.targets[idx as usize])
            } else {
                None
            }
        } else {
            self.keys
                .iter()
                .position(|&k| k == key)
                .map(|i| self.targets[i])
        }
    }
}

/// Sentinel for an empty per-instruction data slot.
pub const NO_DATA: u32 = u32::MAX;

/// The mutable quickening overlay for one [`PredecodedMethod`].
///
/// One cell per decoded instruction (indexed like the predecoded
/// instruction list): a *dispatch byte* and a *data slot*. The dispatch
/// byte is the superinstruction byte where the cell heads a fused pair
/// (chosen once at build time), else the plain opcode byte, rewritten in
/// place when the instruction quickens. The data slot holds the
/// pre-resolved operand (field/method index, interned object, or
/// switch-table index).
///
/// Cells are atomics only so the owning runtime stays `Send`; execution is
/// single-threaded per runtime and all accesses are `Relaxed`.
pub struct QuickCells {
    bytes: Box<[AtomicU8]>,
    qdata: Box<[AtomicU32]>,
    switches: Vec<SwitchTable>,
    quickened: AtomicU32,
}

impl std::fmt::Debug for QuickCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuickCells")
            .field("cells", &self.bytes.len())
            .field("fused", &self.fused_count())
            .field("switches", &self.switches.len())
            .field("quickened", &self.quickened.load(Ordering::Relaxed))
            .finish()
    }
}

impl QuickCells {
    /// Builds the overlay for `pre`: plain dispatch bytes, pre-resolved
    /// switch tables, and a greedy left-to-right superinstruction pass over
    /// adjacent instruction pairs (a consumed second half is never itself a
    /// head, but keeps its own cell so mid-pair branch targets execute it
    /// standalone).
    pub fn build(pre: &PredecodedMethod) -> QuickCells {
        let items: Vec<(u32, &Insn)> = pre.iter().collect();
        let n = items.len();
        let mut bytes = Vec::with_capacity(n);
        let mut qdata = Vec::with_capacity(n);
        let mut switches = Vec::new();

        for &(pc, insn) in &items {
            let mut byte = insn.op as u8;
            let mut data = NO_DATA;
            if matches!(insn.op, Opcode::PackedSwitch | Opcode::SparseSwitch) {
                if let Some(table) = resolve_switch(pre, pc, insn) {
                    byte = SWITCH_PRE;
                    data = switches.len() as u32;
                    switches.push(table);
                }
            }
            bytes.push(byte);
            qdata.push(AtomicU32::new(data));
        }

        let mut i = 0;
        while i + 1 < n {
            let (pc, first) = items[i];
            let (pc2, second) = items[i + 1];
            if pc + first.units() as u32 == pc2 {
                if let Some(b) = fused_pair(first, second) {
                    bytes[i] = b;
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }

        QuickCells {
            bytes: bytes.into_iter().map(AtomicU8::new).collect(),
            qdata: qdata.into_boxed_slice(),
            switches,
            quickened: AtomicU32::new(0),
        }
    }

    /// The dispatch byte for instruction `idx`: its superinstruction byte
    /// when it heads a fused pair, else its plain (possibly quickened)
    /// byte.
    #[inline]
    pub fn dispatch_byte(&self, idx: u32) -> u8 {
        self.bytes[idx as usize].load(Ordering::Relaxed)
    }

    /// The pre-resolved data slot of instruction `idx` ([`NO_DATA`] when
    /// the cell has not quickened).
    #[inline]
    pub fn data(&self, idx: u32) -> u32 {
        self.qdata[idx as usize].load(Ordering::Relaxed)
    }

    /// Rewrites cell `idx` to quickened form `byte` with resolved `data`.
    /// Returns `true` if the cell was newly quickened (callers count these
    /// into execution stats). A `data` of [`NO_DATA`] is rejected: the
    /// sentinel must keep meaning "unresolved".
    pub fn quicken(&self, idx: u32, byte: u8, data: u32) -> bool {
        if data == NO_DATA || self.qdata[idx as usize].load(Ordering::Relaxed) != NO_DATA {
            return false;
        }
        self.qdata[idx as usize].store(data, Ordering::Relaxed);
        // A fused head keeps dispatching fused; its handler reads the data.
        if !is_fused(self.dispatch_byte(idx)) {
            self.bytes[idx as usize].store(byte, Ordering::Relaxed);
        }
        self.quickened.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Number of cells quickened at runtime so far (build-time switch
    /// pre-resolution not included). The code cache charges this to its
    /// de-quicken counter when an epoch bump discards the overlay.
    pub fn quickened_count(&self) -> u32 {
        self.quickened.load(Ordering::Relaxed)
    }

    /// The pre-resolved switch table at `table_idx`.
    #[inline]
    pub fn switch_table(&self, table_idx: u32) -> &SwitchTable {
        &self.switches[table_idx as usize]
    }

    /// Number of superinstruction heads found at build time.
    pub fn fused_count(&self) -> usize {
        self.bytes
            .iter()
            .filter(|b| is_fused(b.load(Ordering::Relaxed)))
            .count()
    }
}

fn resolve_switch(pre: &PredecodedMethod, pc: u32, insn: &Insn) -> Option<SwitchTable> {
    match pre.payload_at(insn.target(pc))? {
        Decoded::PackedSwitchPayload { first_key, targets } => Some(SwitchTable {
            first_key: *first_key,
            keys: Vec::new(),
            targets: targets
                .iter()
                .map(|&off| pc.wrapping_add(off as u32))
                .collect(),
        }),
        Decoded::SparseSwitchPayload { keys, targets } => Some(SwitchTable {
            first_key: 0,
            keys: keys.clone(),
            targets: targets
                .iter()
                .map(|&off| pc.wrapping_add(off as u32))
                .collect(),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predecode;

    fn insn(op: Opcode) -> Insn {
        Insn::of(op)
    }

    #[test]
    fn internal_bytes_are_opcode_gaps() {
        for byte in 0u16..=255 {
            let byte = byte as u8;
            if is_internal(byte) {
                assert!(
                    Opcode::from_u8(byte).is_none(),
                    "internal byte {byte:#04x} collides with a real opcode"
                );
            }
        }
    }

    #[test]
    fn fuses_alu_pairs_and_alu_goto() {
        let add = {
            let mut i = insn(Opcode::AddInt);
            i.a = 0;
            i.b = 0;
            i.c = 1;
            i
        };
        let xor = {
            let mut i = insn(Opcode::XorIntLit8);
            i.a = 0;
            i.b = 0;
            i.lit = 0x2f;
            i
        };
        assert_eq!(fused_pair(&add, &xor), Some(FUSE_ALU_ALU));
        assert_eq!(fused_pair(&add, &insn(Opcode::Goto)), Some(FUSE_ALU_GOTO));
        // Div can throw: never a fusion half.
        assert_eq!(fused_pair(&insn(Opcode::DivInt), &xor), None);
        assert_eq!(fused_pair(&add, &insn(Opcode::DivIntLit8)), None);
    }

    #[test]
    fn cmp_if_requires_matching_register() {
        let mut cmp = insn(Opcode::CmpLong);
        cmp.a = 2;
        let mut ifz = insn(Opcode::IfGez);
        ifz.a = 2;
        assert_eq!(fused_pair(&cmp, &ifz), Some(FUSE_CMP_IF));
        ifz.a = 3;
        assert_eq!(fused_pair(&cmp, &ifz), None);
    }

    #[test]
    fn iget_pair_requires_unclobbered_object() {
        let mut a = insn(Opcode::Iget);
        a.a = 0;
        a.b = 2;
        let mut b = insn(Opcode::IgetShort);
        b.a = 1;
        b.b = 2;
        assert_eq!(fused_pair(&a, &b), Some(FUSE_IGET_IGET));
        // First half overwrites the shared object register: unsafe.
        a.a = 2;
        assert_eq!(fused_pair(&a, &b), None);
        // Different objects: not the same-object pattern.
        a.a = 0;
        b.b = 3;
        assert_eq!(fused_pair(&a, &b), None);
        // Wide iget never fuses.
        let mut w = insn(Opcode::IgetWide);
        w.a = 0;
        w.b = 2;
        assert_eq!(fused_pair(&w, &b), None);
    }

    #[test]
    fn build_marks_heads_and_preresolves_switches() {
        // if-ge v1, v0, +6 ; add-int/lit8 v1, v1, #1 ; packed-switch v1, +4
        // ; return-void ; nop ; packed-switch-payload (2 entries)
        let code: Vec<u16> = vec![
            0x0135, 0x0006, // if-ge v1, v0, +6
            0x01d8, 0x0101, // add-int/lit8 v1, v1, #1
            0x012b, 0x0004, 0x0000, // packed-switch v1, +4
            0x000e, // return-void
            0x0100, 0x0002, 0x0000, 0x0000, // payload: 2 entries, first_key 0
            0x0003, 0x0000, 0x0003, 0x0000, // targets +3, +3
        ];
        let pre = predecode(&code).unwrap();
        let qc = QuickCells::build(&pre);
        assert_eq!(qc.dispatch_byte(0), FUSE_IF_ALU);
        // The consumed second half keeps its own plain cell.
        assert_eq!(qc.dispatch_byte(1), Opcode::AddIntLit8 as u8);
        // The switch was statically rewritten to its pre-resolved form.
        assert_eq!(qc.dispatch_byte(2), SWITCH_PRE);
        let table = qc.switch_table(qc.data(2));
        // Switch sits at pc 4; payload offsets are +3 → absolute pc 7.
        assert_eq!(table.lookup(0), Some(7));
        assert_eq!(table.lookup(1), Some(7));
        assert_eq!(table.lookup(2), None);
        assert_eq!(qc.fused_count(), 1);
    }

    #[test]
    fn quicken_rewrites_once_and_counts() {
        let pre = predecode(&[0x0052, 0x0000, 0x000e]).unwrap(); // iget v0, v0, field@0 ; ret
        let qc = QuickCells::build(&pre);
        assert_eq!(qc.data(0), NO_DATA);
        assert!(qc.quicken(0, IGET_QUICK, 17));
        assert!(!qc.quicken(0, IGET_QUICK, 18), "second quicken is a no-op");
        assert_eq!(qc.data(0), 17);
        assert_eq!(qc.dispatch_byte(0), IGET_QUICK);
        assert_eq!(qc.quickened_count(), 1);
        assert!(
            !qc.quicken(1, IGET_QUICK, NO_DATA),
            "sentinel data rejected"
        );
    }

    #[test]
    fn sparse_table_lookup() {
        let t = SwitchTable {
            first_key: 0,
            keys: vec![-5, 9],
            targets: vec![10, 20],
        };
        assert_eq!(t.lookup(-5), Some(10));
        assert_eq!(t.lookup(9), Some(20));
        assert_eq!(t.lookup(0), None);
    }
}
