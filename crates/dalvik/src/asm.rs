//! A label-based method assembler.
//!
//! [`MethodAssembler`] accumulates instructions and labels, then lays out
//! the final code-unit array: branch offsets are resolved, `goto`
//! instructions are automatically widened to `goto/16`/`goto/32` when their
//! targets are far, and switch/array payloads are appended after the code
//! with correct 4-byte alignment.
//!
//! Labels are dense indices: [`MethodAssembler::new_label`] hands out the
//! next one and [`MethodAssembler::new_labels`] a block of consecutive
//! ones, so a caller can address its labels arithmetically (the
//! reassembler gives each collection-tree node one block, a label per
//! instruction). Assembly resolves them into a `Vec` indexed by label,
//! reused across the goto-sizing passes, and encodes every instruction
//! straight into the output buffer.
//!
//! The DexLego reassembler uses this to rebuild method bodies from merged
//! collection trees; the benchmark corpus uses it to author samples.

use crate::encode::{
    encode_insn_into, fill_array_payload_into, packed_switch_payload_into,
    sparse_switch_payload_into,
};
use crate::insn::Insn;
use crate::opcode::Opcode;
use crate::{DalvikError, Result};

/// An opaque branch-target label.
pub type Label = u32;

#[derive(Debug, Clone)]
enum PayloadSpec {
    Packed { first_key: i32, targets: Vec<Label> },
    Sparse { keys: Vec<i32>, targets: Vec<Label> },
    FillArray { element_width: u16, data: Vec<u8> },
}

#[derive(Debug, Clone)]
enum Item {
    Plain(Insn),
    Branch { insn: Insn, label: Label },
    Goto(Label),
    WithPayload { insn: Insn, payload: PayloadSpec },
    Bind(Label),
}

/// Assembles one method body from instructions and labels.
///
/// # Example
///
/// ```
/// use dexlego_dalvik::{MethodAssembler, Opcode};
///
/// # fn main() -> Result<(), dexlego_dalvik::DalvikError> {
/// let mut asm = MethodAssembler::new();
/// let done = asm.new_label();
/// asm.const4(0, 1);
/// asm.if_z(Opcode::IfNez, 0, done);
/// asm.const4(0, 5);
/// asm.bind(done);
/// asm.ret(Opcode::Return, 0);
/// let units = asm.assemble()?;
/// assert_eq!(units[0] & 0xff, Opcode::Const4 as u8 as u16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MethodAssembler {
    items: Vec<Item>,
    next_label: Label,
}

impl MethodAssembler {
    /// Creates an empty assembler.
    pub fn new() -> MethodAssembler {
        MethodAssembler::default()
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.new_labels(1)
    }

    /// Allocates `count` fresh, unbound labels with consecutive numbers and
    /// returns the first: the block is `first..first + count`.
    pub fn new_labels(&mut self, count: u32) -> Label {
        let first = self.next_label;
        self.next_label += count;
        first
    }

    /// Binds `label` at the current position. `label` must come from
    /// [`Self::new_label`] or [`Self::new_labels`]; assembly rejects any
    /// other as undefined.
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Appends a fully resolved instruction (no branch target).
    pub fn push(&mut self, insn: Insn) -> &mut MethodAssembler {
        self.items.push(Item::Plain(insn));
        self
    }

    /// Appends a branch instruction whose offset will resolve to `label`.
    ///
    /// Use for `if-*` instructions; for `goto` prefer [`Self::goto`], which
    /// auto-sizes.
    pub fn branch(&mut self, insn: Insn, label: Label) -> &mut MethodAssembler {
        self.items.push(Item::Branch { insn, label });
        self
    }

    /// Appends an auto-sized `goto` to `label`.
    pub fn goto(&mut self, label: Label) -> &mut MethodAssembler {
        self.items.push(Item::Goto(label));
        self
    }

    // ---- convenience constructors -----------------------------------------

    /// `nop`.
    pub fn nop(&mut self) -> &mut MethodAssembler {
        self.push(Insn::of(Opcode::Nop))
    }

    /// `const/4 vA, #lit` (or widens to `const/16`, `const` as needed).
    pub fn const4(&mut self, a: u32, lit: i64) -> &mut MethodAssembler {
        let op = if (-8..=7).contains(&lit) && a <= 0xf {
            Opcode::Const4
        } else if (-32768..=32767).contains(&lit) {
            Opcode::Const16
        } else {
            Opcode::Const
        };
        let mut insn = Insn::of(op);
        insn.a = a;
        insn.lit = lit;
        self.push(insn)
    }

    /// `const-wide vA, #lit` using the narrowest encoding.
    pub fn const_wide(&mut self, a: u32, lit: i64) -> &mut MethodAssembler {
        let op = if (-32768..=32767).contains(&lit) {
            Opcode::ConstWide16
        } else if i64::from(lit as i32) == lit {
            Opcode::ConstWide32
        } else if lit & 0x0000_ffff_ffff_ffff == 0 {
            Opcode::ConstWideHigh16
        } else {
            Opcode::ConstWide
        };
        let mut insn = Insn::of(op);
        insn.a = a;
        insn.lit = lit;
        self.push(insn)
    }

    /// `const-string vA, string@idx`.
    pub fn const_string(&mut self, a: u32, idx: u32) -> &mut MethodAssembler {
        let op = if idx <= 0xffff {
            Opcode::ConstString
        } else {
            Opcode::ConstStringJumbo
        };
        let mut insn = Insn::of(op);
        insn.a = a;
        insn.idx = idx;
        self.push(insn)
    }

    /// A move of any of the three kinds, auto-widened by register numbers.
    pub fn move_reg(&mut self, kind: MoveKind, dst: u32, src: u32) -> &mut MethodAssembler {
        let op = match (kind, dst <= 0xf && src <= 0xf, dst <= 0xff) {
            (MoveKind::Single, true, _) => Opcode::Move,
            (MoveKind::Single, false, true) => Opcode::MoveFrom16,
            (MoveKind::Single, false, false) => Opcode::Move16,
            (MoveKind::Wide, true, _) => Opcode::MoveWide,
            (MoveKind::Wide, false, true) => Opcode::MoveWideFrom16,
            (MoveKind::Wide, false, false) => Opcode::MoveWide16,
            (MoveKind::Object, true, _) => Opcode::MoveObject,
            (MoveKind::Object, false, true) => Opcode::MoveObjectFrom16,
            (MoveKind::Object, false, false) => Opcode::MoveObject16,
        };
        let mut insn = Insn::of(op);
        insn.a = dst;
        insn.b = src;
        self.push(insn)
    }

    /// An invoke of `kind` on `method_idx` with explicit argument registers.
    ///
    /// Uses the `/range` form when needed (more than five arguments or a
    /// register above v15, with consecutive registers).
    pub fn invoke(&mut self, op: Opcode, method_idx: u32, regs: &[u32]) -> &mut MethodAssembler {
        debug_assert!(op.is_invoke());
        let fits_35c = regs.len() <= 5 && regs.iter().all(|&r| r <= 0xf);
        let op = if fits_35c {
            op
        } else {
            match op {
                Opcode::InvokeVirtual => Opcode::InvokeVirtualRange,
                Opcode::InvokeSuper => Opcode::InvokeSuperRange,
                Opcode::InvokeDirect => Opcode::InvokeDirectRange,
                Opcode::InvokeStatic => Opcode::InvokeStaticRange,
                Opcode::InvokeInterface => Opcode::InvokeInterfaceRange,
                other => other,
            }
        };
        let mut insn = Insn::of(op);
        insn.idx = method_idx;
        insn.regs = regs.to_vec();
        self.push(insn)
    }

    /// A two-register `if-*` branch (`22t`).
    pub fn if_cmp(&mut self, op: Opcode, a: u32, b: u32, label: Label) -> &mut MethodAssembler {
        let mut insn = Insn::of(op);
        insn.a = a;
        insn.b = b;
        self.branch(insn, label)
    }

    /// A zero-test `if-*z` branch (`21t`).
    pub fn if_z(&mut self, op: Opcode, a: u32, label: Label) -> &mut MethodAssembler {
        let mut insn = Insn::of(op);
        insn.a = a;
        self.branch(insn, label)
    }

    /// A return instruction (`return-void` if `op` is [`Opcode::ReturnVoid`]).
    pub fn ret(&mut self, op: Opcode, a: u32) -> &mut MethodAssembler {
        let mut insn = Insn::of(op);
        if op != Opcode::ReturnVoid {
            insn.a = a;
        }
        self.push(insn)
    }

    /// A three-register binary operation (`23x`).
    pub fn binop(&mut self, op: Opcode, dst: u32, lhs: u32, rhs: u32) -> &mut MethodAssembler {
        let mut insn = Insn::of(op);
        insn.a = dst;
        insn.b = lhs;
        insn.c = rhs;
        self.push(insn)
    }

    /// A binary operation with an 8-bit literal (`22b`).
    pub fn binop_lit8(&mut self, op: Opcode, dst: u32, src: u32, lit: i64) -> &mut MethodAssembler {
        let mut insn = Insn::of(op);
        insn.a = dst;
        insn.b = src;
        insn.lit = lit;
        self.push(insn)
    }

    /// A field access instruction (`21c` static or `22c` instance).
    pub fn field_op(
        &mut self,
        op: Opcode,
        a: u32,
        obj: u32,
        field_idx: u32,
    ) -> &mut MethodAssembler {
        let mut insn = Insn::of(op);
        insn.a = a;
        insn.b = obj;
        insn.idx = field_idx;
        self.push(insn)
    }

    /// `packed-switch vReg` with consecutive keys from `first_key`.
    pub fn packed_switch(
        &mut self,
        reg: u32,
        first_key: i32,
        targets: Vec<Label>,
    ) -> &mut MethodAssembler {
        let mut insn = Insn::of(Opcode::PackedSwitch);
        insn.a = reg;
        self.items.push(Item::WithPayload {
            insn,
            payload: PayloadSpec::Packed { first_key, targets },
        });
        self
    }

    /// `sparse-switch vReg` with explicit keys.
    pub fn sparse_switch(
        &mut self,
        reg: u32,
        keys: Vec<i32>,
        targets: Vec<Label>,
    ) -> &mut MethodAssembler {
        let mut insn = Insn::of(Opcode::SparseSwitch);
        insn.a = reg;
        self.items.push(Item::WithPayload {
            insn,
            payload: PayloadSpec::Sparse { keys, targets },
        });
        self
    }

    /// `fill-array-data vReg` with raw element bytes.
    pub fn fill_array_data(
        &mut self,
        reg: u32,
        element_width: u16,
        data: Vec<u8>,
    ) -> &mut MethodAssembler {
        let mut insn = Insn::of(Opcode::FillArrayData);
        insn.a = reg;
        self.items.push(Item::WithPayload {
            insn,
            payload: PayloadSpec::FillArray {
                element_width,
                data,
            },
        });
        self
    }

    // ---- assembly ----------------------------------------------------------

    /// Assembles the accumulated items into code units.
    ///
    /// # Errors
    ///
    /// Returns [`DalvikError::UndefinedLabel`], [`DalvikError::DuplicateLabel`],
    /// [`DalvikError::BranchOutOfRange`], or any instruction-encoding error.
    pub fn assemble(&self) -> Result<Vec<u16>> {
        Ok(self.assemble_with_labels()?.0)
    }

    /// Assembles and additionally returns the resolved label addresses,
    /// indexed by label: `None` for a label that was never bound.
    ///
    /// # Errors
    ///
    /// See [`Self::assemble`].
    pub fn assemble_with_labels(&self) -> Result<(Vec<u16>, Vec<Option<u32>>)> {
        // Iteratively size gotos (1, 2, or 3 units). Widening is monotonic
        // so the loop terminates.
        let mut goto_sizes: Vec<u8> = self
            .items
            .iter()
            .map(|item| u8::from(matches!(item, Item::Goto(_))))
            .collect();
        let mut labels: Vec<Option<u32>> = Vec::new();
        let mut item_offsets = Vec::with_capacity(self.items.len());
        let mut payload_offsets = Vec::new();
        let end = loop {
            labels.clear();
            labels.resize(self.next_label as usize, None);
            item_offsets.clear();
            payload_offsets.clear();
            let mut pos = 0usize;
            for (i, item) in self.items.iter().enumerate() {
                item_offsets.push(pos as u32);
                match item {
                    Item::Plain(insn) => pos += insn.units(),
                    Item::Branch { insn, .. } => pos += insn.units(),
                    Item::Goto(_) => pos += usize::from(goto_sizes[i]),
                    Item::WithPayload { insn, .. } => pos += insn.units(),
                    Item::Bind(label) => {
                        // A label this assembler never handed out is as
                        // undefined as one never bound.
                        let slot = labels
                            .get_mut(*label as usize)
                            .ok_or(DalvikError::UndefinedLabel(*label))?;
                        if slot.replace(pos as u32).is_some() {
                            return Err(DalvikError::DuplicateLabel(*label));
                        }
                    }
                }
            }
            // Payloads after the code, in order of appearance, 2-unit
            // aligned.
            for item in &self.items {
                if let Item::WithPayload { payload, .. } = item {
                    if !pos.is_multiple_of(2) {
                        pos += 1; // nop padding
                    }
                    payload_offsets.push(pos as u32);
                    pos += payload.units();
                }
            }

            // Re-derive goto sizes from actual distances.
            let mut changed = false;
            for (i, item) in self.items.iter().enumerate() {
                if let Item::Goto(label) = item {
                    let target = resolve(&labels, *label)?;
                    let off = i64::from(target) - i64::from(item_offsets[i]);
                    let need = if (-128..=127).contains(&off) && off != 0 {
                        1
                    } else if (-32768..=32767).contains(&off) {
                        2
                    } else {
                        3
                    };
                    if need > goto_sizes[i] {
                        goto_sizes[i] = need;
                        changed = true;
                    }
                }
            }
            if !changed {
                break pos;
            }
        };

        // Emission.
        let mut out: Vec<u16> = Vec::with_capacity(end);
        let mut payload_i = 0usize;
        for (i, item) in self.items.iter().enumerate() {
            let addr = item_offsets[i];
            debug_assert_eq!(out.len() as u32, addr);
            match item {
                Item::Plain(insn) => encode_insn_into(insn, &mut out)?,
                Item::Branch { insn, label } => {
                    let target = resolve(&labels, *label)?;
                    let mut resolved = insn.clone();
                    resolved.off = (i64::from(target) - i64::from(addr)) as i32;
                    encode_insn_into(&resolved, &mut out)?;
                }
                Item::Goto(label) => {
                    let target = resolve(&labels, *label)?;
                    let off = (i64::from(target) - i64::from(addr)) as i32;
                    let op = match goto_sizes[i] {
                        1 => Opcode::Goto,
                        2 => Opcode::Goto16,
                        _ => Opcode::Goto32,
                    };
                    let mut insn = Insn::of(op);
                    insn.off = off;
                    encode_insn_into(&insn, &mut out)?;
                }
                Item::WithPayload { insn, .. } => {
                    let payload_off = payload_offsets[payload_i];
                    payload_i += 1;
                    let mut resolved = insn.clone();
                    resolved.off = (i64::from(payload_off) - i64::from(addr)) as i32;
                    encode_insn_into(&resolved, &mut out)?;
                }
                Item::Bind(_) => {}
            }
        }
        // Switch targets resolved relative to their switch, one buffer for
        // every payload.
        let mut rel: Vec<i32> = Vec::new();
        let payloads =
            self.items
                .iter()
                .zip(&item_offsets)
                .filter_map(|(item, &addr)| match item {
                    Item::WithPayload { payload, .. } => Some((payload, addr)),
                    _ => None,
                });
        for ((spec, switch_addr), &payload_off) in payloads.zip(&payload_offsets) {
            while (out.len() as u32) < payload_off {
                out.push(Opcode::Nop as u8 as u16);
            }
            let mut resolve_targets = |targets: &[Label]| -> Result<()> {
                rel.clear();
                for &l in targets {
                    let t = resolve(&labels, l)?;
                    rel.push((i64::from(t) - i64::from(switch_addr)) as i32);
                }
                Ok(())
            };
            match spec {
                PayloadSpec::Packed { first_key, targets } => {
                    resolve_targets(targets)?;
                    packed_switch_payload_into(*first_key, &rel, &mut out);
                }
                PayloadSpec::Sparse { keys, targets } => {
                    resolve_targets(targets)?;
                    sparse_switch_payload_into(keys, &rel, &mut out)?;
                }
                PayloadSpec::FillArray {
                    element_width,
                    data,
                } => fill_array_payload_into(*element_width, data, &mut out)?,
            }
        }
        Ok((out, labels))
    }
}

/// The address `label` is bound to.
fn resolve(labels: &[Option<u32>], label: Label) -> Result<u32> {
    labels
        .get(label as usize)
        .copied()
        .flatten()
        .ok_or(DalvikError::UndefinedLabel(label))
}

impl PayloadSpec {
    /// Size of the encoded payload in code units.
    fn units(&self) -> usize {
        match self {
            PayloadSpec::Packed { targets, .. } => 4 + targets.len() * 2,
            PayloadSpec::Sparse { keys, .. } => 2 + keys.len() * 4,
            PayloadSpec::FillArray { data, .. } => 4 + data.len().div_ceil(2),
        }
    }
}

/// The register kind a move instruction transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// 32-bit category-1 value.
    Single,
    /// 64-bit register pair.
    Wide,
    /// Object reference.
    Object,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_insn, decode_method};
    use crate::insn::Decoded;

    #[test]
    fn forward_branch_resolves() {
        let mut asm = MethodAssembler::new();
        let end = asm.new_label();
        asm.const4(0, 0);
        asm.if_z(Opcode::IfEqz, 0, end);
        asm.const4(0, 1);
        asm.bind(end);
        asm.ret(Opcode::ReturnVoid, 0);
        let (units, labels) = asm.assemble_with_labels().unwrap();
        assert_eq!(labels[end as usize], Some(4));
        let d = decode_insn(&units, 1).unwrap();
        assert_eq!(d.as_insn().unwrap().off, 3); // 1 -> 4
    }

    #[test]
    fn backward_goto_resolves() {
        let mut asm = MethodAssembler::new();
        let top = asm.new_label();
        asm.bind(top);
        asm.nop();
        asm.goto(top);
        let units = asm.assemble().unwrap();
        let d = decode_insn(&units, 1).unwrap();
        assert_eq!(d.as_insn().unwrap().op, Opcode::Goto);
        assert_eq!(d.as_insn().unwrap().off, -1);
    }

    #[test]
    fn goto_widens_to_16() {
        let mut asm = MethodAssembler::new();
        let end = asm.new_label();
        asm.goto(end);
        for _ in 0..200 {
            asm.nop();
        }
        asm.bind(end);
        asm.ret(Opcode::ReturnVoid, 0);
        let units = asm.assemble().unwrap();
        let d = decode_insn(&units, 0).unwrap();
        assert_eq!(d.as_insn().unwrap().op, Opcode::Goto16);
        assert_eq!(d.as_insn().unwrap().off, 202);
    }

    #[test]
    fn goto_widens_to_32() {
        let mut asm = MethodAssembler::new();
        let end = asm.new_label();
        asm.goto(end);
        for _ in 0..40000 {
            asm.nop();
        }
        asm.bind(end);
        asm.ret(Opcode::ReturnVoid, 0);
        let units = asm.assemble().unwrap();
        let d = decode_insn(&units, 0).unwrap();
        assert_eq!(d.as_insn().unwrap().op, Opcode::Goto32);
    }

    #[test]
    fn undefined_label_rejected() {
        let mut asm = MethodAssembler::new();
        let l = asm.new_label();
        asm.goto(l);
        assert_eq!(asm.assemble(), Err(DalvikError::UndefinedLabel(l)));
        // Binding a label the assembler never handed out.
        let mut asm = MethodAssembler::new();
        asm.bind(7);
        asm.nop();
        assert_eq!(asm.assemble(), Err(DalvikError::UndefinedLabel(7)));
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut asm = MethodAssembler::new();
        let l = asm.new_label();
        asm.bind(l);
        asm.nop();
        asm.bind(l);
        assert_eq!(asm.assemble(), Err(DalvikError::DuplicateLabel(l)));
    }

    #[test]
    fn packed_switch_payload_aligned_and_relative() {
        let mut asm = MethodAssembler::new();
        let (c0, c1, end) = (asm.new_label(), asm.new_label(), asm.new_label());
        asm.packed_switch(0, 5, vec![c0, c1]); // at 0, 3 units
        asm.bind(c0);
        asm.const4(1, 0); // at 3
        asm.goto(end);
        asm.bind(c1);
        asm.const4(1, 1); // at 5
        asm.bind(end);
        asm.ret(Opcode::ReturnVoid, 0); // at 6 -> payload at 8 (7 is odd, pad)
        let units = asm.assemble().unwrap();
        let switch = decode_insn(&units, 0).unwrap();
        let payload_addr = switch.as_insn().unwrap().off as usize;
        assert_eq!(payload_addr % 2, 0);
        match decode_insn(&units, payload_addr).unwrap() {
            Decoded::PackedSwitchPayload { first_key, targets } => {
                assert_eq!(first_key, 5);
                assert_eq!(targets, vec![3, 5]); // relative to switch at 0
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whole_stream_decodes() {
        let mut asm = MethodAssembler::new();
        let loop_top = asm.new_label();
        let done = asm.new_label();
        asm.const4(0, 0);
        asm.bind(loop_top);
        asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
        asm.const4(1, 5);
        asm.if_cmp(Opcode::IfGe, 0, 1, done);
        asm.goto(loop_top);
        asm.bind(done);
        asm.ret(Opcode::Return, 0);
        let units = asm.assemble().unwrap();
        assert!(decode_method(&units).is_ok());
    }

    #[test]
    fn const_helpers_pick_narrowest() {
        let mut asm = MethodAssembler::new();
        asm.const4(0, 7);
        asm.const4(0, 1000);
        asm.const4(0, 100_000);
        asm.const_wide(0, 5);
        asm.const_wide(0, 0x7fff_ffff_ffff_ffff);
        let units = asm.assemble().unwrap();
        let ops: Vec<Opcode> = decode_method(&units)
            .unwrap()
            .into_iter()
            .map(|(_, d)| d.as_insn().unwrap().op)
            .collect();
        assert_eq!(
            ops,
            vec![
                Opcode::Const4,
                Opcode::Const16,
                Opcode::Const,
                Opcode::ConstWide16,
                Opcode::ConstWide,
            ]
        );
    }

    #[test]
    fn invoke_switches_to_range_for_high_regs() {
        let mut asm = MethodAssembler::new();
        asm.invoke(Opcode::InvokeStatic, 3, &[16, 17]);
        let units = asm.assemble().unwrap();
        let d = decode_insn(&units, 0).unwrap();
        assert_eq!(d.as_insn().unwrap().op, Opcode::InvokeStaticRange);
        assert_eq!(d.as_insn().unwrap().regs, vec![16, 17]);
    }
}
