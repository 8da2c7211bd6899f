//! Smali-flavoured disassembly for diagnostics and manual verification.
//!
//! The paper verifies reassembled output by manually comparing smali; this
//! module provides the equivalent textual view for our DEX models.

use dexlego_dex::DexFile;

use crate::decode::decode_method;
use crate::insn::{Decoded, Insn};
use crate::opcode::{Format, IndexKind};

/// Renders one instruction at `addr` as a smali-like line.
///
/// Pool indices are resolved against `dex` when provided.
pub fn format_insn(insn: &Insn, addr: u32, dex: Option<&DexFile>) -> String {
    let mut s = format!("{:04x}: {}", addr, insn.op.mnemonic());
    match insn.op.format() {
        Format::F10x => {}
        Format::F12x => s.push_str(&format!(" v{}, v{}", insn.a, insn.b)),
        Format::F11n => s.push_str(&format!(" v{}, #{}", insn.a, insn.lit)),
        Format::F11x => s.push_str(&format!(" v{}", insn.a)),
        Format::F10t | Format::F20t | Format::F30t => {
            s.push_str(&format!(" -> {:04x}", insn.target(addr)))
        }
        Format::F22x | Format::F32x => s.push_str(&format!(" v{}, v{}", insn.a, insn.b)),
        Format::F21t => s.push_str(&format!(" v{}, -> {:04x}", insn.a, insn.target(addr))),
        Format::F21s | Format::F31i | Format::F51l => {
            s.push_str(&format!(" v{}, #{}", insn.a, insn.lit))
        }
        Format::F21h => s.push_str(&format!(" v{}, #{:#x}", insn.a, insn.lit)),
        Format::F21c | Format::F31c => {
            s.push_str(&format!(" v{}, {}", insn.a, describe_index(insn, dex)))
        }
        Format::F23x => s.push_str(&format!(" v{}, v{}, v{}", insn.a, insn.b, insn.c)),
        Format::F22b | Format::F22s => {
            s.push_str(&format!(" v{}, v{}, #{}", insn.a, insn.b, insn.lit))
        }
        Format::F22t => s.push_str(&format!(
            " v{}, v{}, -> {:04x}",
            insn.a,
            insn.b,
            insn.target(addr)
        )),
        Format::F22c => s.push_str(&format!(
            " v{}, v{}, {}",
            insn.a,
            insn.b,
            describe_index(insn, dex)
        )),
        Format::F31t => s.push_str(&format!(" v{}, payload@{:04x}", insn.a, insn.target(addr))),
        Format::F35c | Format::F3rc => {
            let regs: Vec<String> = insn.regs.iter().map(|r| format!("v{r}")).collect();
            s.push_str(&format!(
                " {{{}}}, {}",
                regs.join(", "),
                describe_index(insn, dex)
            ));
        }
    }
    s
}

/// Renders an instruction executing under an internal quickened or fused
/// dispatch byte (see [`crate::quick`]). Falls back to the plain rendering
/// for ordinary opcode bytes, and never panics: unknown internal bytes are
/// printed as `<internal NN>+quick` rather than misread as opcodes.
///
/// `data` is the cell's pre-resolved operand (field/method id, interned
/// object, or switch-table index); it is always labelled `data@` so a
/// resolved index can never be mistaken for a raw constant-pool index.
pub fn format_quick_insn(
    byte: u8,
    insn: &Insn,
    addr: u32,
    data: Option<u32>,
    dex: Option<&DexFile>,
) -> String {
    let Some(name) = crate::quick::name(byte) else {
        if byte == insn.op as u8 {
            return format_insn(insn, addr, dex);
        }
        return format!("{addr:04x}: <internal {byte:#04x}>+quick");
    };
    let mut s = format!("{addr:04x}: {name}");
    if crate::quick::is_fused(byte) {
        s.push_str(&format!(" head={}", insn.op.mnemonic()));
    } else {
        let regs: Vec<String> = insn.registers().iter().map(|r| format!("v{r}")).collect();
        if !regs.is_empty() {
            s.push_str(&format!(" {{{}}}", regs.join(", ")));
        }
    }
    match data {
        Some(d) => s.push_str(&format!(" data@{d}")),
        None => s.push_str(" data@?"),
    }
    s
}

fn describe_index(insn: &Insn, dex: Option<&DexFile>) -> String {
    let idx = insn.idx;
    match (insn.op.index_kind(), dex) {
        (IndexKind::String, Some(d)) => d
            .string(idx)
            .map(|s| format!("\"{s}\""))
            .unwrap_or_else(|_| format!("string@{idx}")),
        (IndexKind::Type, Some(d)) => d
            .type_descriptor(idx)
            .map(str::to_owned)
            .unwrap_or_else(|_| format!("type@{idx}")),
        (IndexKind::Field, Some(d)) => d
            .field_signature(idx)
            .unwrap_or_else(|_| format!("field@{idx}")),
        (IndexKind::Method, Some(d)) => d
            .method_signature(idx)
            .unwrap_or_else(|_| format!("method@{idx}")),
        (IndexKind::String, None) => format!("string@{idx}"),
        (IndexKind::Type, None) => format!("type@{idx}"),
        (IndexKind::Field, None) => format!("field@{idx}"),
        (IndexKind::Method, None) => format!("method@{idx}"),
        (IndexKind::None, _) => format!("@{idx}"),
    }
}

/// Disassembles a whole method body into lines; undecodable tails are
/// rendered as `.data` lines rather than failing.
pub fn disassemble(code: &[u16], dex: Option<&DexFile>) -> Vec<String> {
    match decode_method(code) {
        Ok(insns) => insns
            .into_iter()
            .map(|(addr, d)| match d {
                Decoded::Insn(insn) => format_insn(&insn, addr, dex),
                Decoded::PackedSwitchPayload { first_key, targets } => {
                    format!("{addr:04x}: .packed-switch first={first_key} targets={targets:?}")
                }
                Decoded::SparseSwitchPayload { keys, targets } => {
                    format!("{addr:04x}: .sparse-switch keys={keys:?} targets={targets:?}")
                }
                Decoded::FillArrayDataPayload {
                    element_width,
                    data,
                } => format!(
                    "{addr:04x}: .array-data width={element_width} bytes={}",
                    data.len()
                ),
            })
            .collect(),
        Err(_) => vec![format!(".data {} units (not decodable)", code.len())],
    }
}

/// Dumps a whole DEX as smali-flavoured text (classes, fields, methods,
/// bodies) — the artifact the paper's RQ1 compares manually against source.
pub fn dump_dex(dex: &DexFile) -> String {
    let mut out = String::new();
    for class in dex.class_defs() {
        let desc = dex
            .type_descriptor(class.class_idx)
            .unwrap_or("<bad class>");
        out.push_str(&format!(".class {} {desc}\n", class.access));
        if let Some(sup) = class.superclass {
            if let Ok(s) = dex.type_descriptor(sup) {
                out.push_str(&format!(".super {s}\n"));
            }
        }
        for &iface in &class.interfaces {
            if let Ok(i) = dex.type_descriptor(iface) {
                out.push_str(&format!(".implements {i}\n"));
            }
        }
        if let Some(data) = &class.class_data {
            for field in data.fields() {
                if let Ok(sig) = dex.field_signature(field.field_idx) {
                    out.push_str(&format!(".field {} {sig}\n", field.access));
                }
            }
            for method in data.methods() {
                let sig = dex
                    .method_signature(method.method_idx)
                    .unwrap_or_else(|_| "<bad method>".to_owned());
                out.push_str(&format!("\n.method {} {sig}\n", method.access));
                if let Some(code) = &method.code {
                    out.push_str(&format!(
                        "    .registers {} (.ins {})\n",
                        code.registers_size, code.ins_size
                    ));
                    for line in disassemble(&code.insns, Some(dex)) {
                        out.push_str("    ");
                        out.push_str(&line);
                        out.push('\n');
                    }
                    for (i, t) in code.tries.iter().enumerate() {
                        out.push_str(&format!(
                            "    .try {:04x}..{:04x} handler#{}\n",
                            t.start_addr,
                            t.end_addr(),
                            i
                        ));
                    }
                }
                out.push_str(".end method\n");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::MethodAssembler;
    use crate::opcode::Opcode;

    #[test]
    fn dump_dex_renders_structure() {
        let mut pb = crate::builder::ProgramBuilder::new();
        pb.class("Ldump/Main;", |c| {
            c.superclass("Landroid/app/Activity;");
            c.static_field("N", "I", Some(crate::builder::StaticInit::Int(3)));
            c.static_method("go", &[], "V", 2, |m| {
                m.const_str(0, "hello-dump");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        let dex = pb.build().unwrap();
        let text = dump_dex(&dex);
        assert!(text.contains(".class"), "{text}");
        assert!(text.contains("Ldump/Main;"));
        assert!(text.contains(".super Landroid/app/Activity;"));
        assert!(text.contains("Ldump/Main;->N:I"));
        assert!(text.contains("Ldump/Main;->go()V"));
        assert!(text.contains("\"hello-dump\""));
        assert!(text.contains("return-void"));
    }

    #[test]
    fn formats_resolve_pool_entries() {
        let mut dex = DexFile::new();
        let s = dex.intern_string("hello");
        let m = dex.intern_method("La;", "go", "V", &[]);
        let mut asm = MethodAssembler::new();
        asm.const_string(0, s);
        asm.invoke(Opcode::InvokeStatic, m, &[]);
        asm.ret(Opcode::ReturnVoid, 0);
        let units = asm.assemble().unwrap();
        let lines = disassemble(&units, Some(&dex));
        assert!(lines[0].contains("\"hello\""), "{lines:?}");
        assert!(lines[1].contains("La;->go()V"), "{lines:?}");
        assert!(lines[2].contains("return-void"));
    }

    #[test]
    fn branch_targets_absolute() {
        let mut asm = MethodAssembler::new();
        let end = asm.new_label();
        asm.if_z(Opcode::IfEqz, 0, end);
        asm.nop();
        asm.bind(end);
        asm.ret(Opcode::ReturnVoid, 0);
        let units = asm.assemble().unwrap();
        let lines = disassemble(&units, None);
        assert!(lines[0].contains("-> 0003"), "{lines:?}");
    }

    #[test]
    fn undecodable_rendered_as_data() {
        let lines = disassemble(&[0xffff, 0x1234], None);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("not decodable"));
    }

    #[test]
    fn quick_forms_render_with_marker() {
        let mut iget = Insn::of(Opcode::Iget);
        iget.a = 0;
        iget.b = 1;
        iget.idx = 9;
        let line = format_quick_insn(crate::quick::IGET_QUICK, &iget, 4, Some(12), None);
        assert!(line.contains("iget+quick"), "{line}");
        assert!(line.contains("data@12"), "{line}");
        assert!(line.starts_with("0004:"), "{line}");

        // Fused heads name the superinstruction and the head opcode.
        let mut add = Insn::of(Opcode::AddInt);
        add.a = 0;
        let line = format_quick_insn(crate::quick::FUSE_ALU_ALU, &add, 2, None, None);
        assert!(line.contains("fused[alu,alu]+quick"), "{line}");
        assert!(line.contains("add-int"), "{line}");

        // A resolved slot that has not quickened yet never prints a bare
        // index; unknown internal bytes never panic.
        let line = format_quick_insn(0xff, &iget, 0, None, None);
        assert!(line.contains("+quick"), "{line}");
        // A plain opcode byte routes to the ordinary renderer.
        let line = format_quick_insn(Opcode::Iget as u8, &iget, 0, None, None);
        assert!(line.contains("iget"), "{line}");
        assert!(!line.contains("+quick"), "{line}");
    }
}
