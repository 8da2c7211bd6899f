//! Integration tests for the typed verification layer: descriptor-carrying
//! reference tracking, class-hierarchy joins, and the typed rules
//! V0009/V0010/V0011 (errors) and L0004/L0005 (lints).
//!
//! Programs are assembled with `ProgramBuilder` so every method verifies
//! with full DEX context. The hierarchy under test: `La;` and `Lb;` are
//! unrelated classes, `Lc;` and `Ld;` both extend `La;`.

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::insn::Insn;
use dexlego_dalvik::Opcode;
use dexlego_dex::DexFile;
use dexlego_verifier::{verify_dex, verify_dex_typed, RegType, Rule, VerifyOptions};

fn rules_of(dex: &DexFile) -> Vec<Rule> {
    verify_dex(dex, &VerifyOptions::default())
        .iter()
        .map(|d| d.rule)
        .collect()
}

/// Declares the shared hierarchy: La;, Lb; (unrelated), Lc;/Ld; extend La;.
fn with_hierarchy(pb: &mut ProgramBuilder) {
    pb.class("La;", |_| {});
    pb.class("Lb;", |_| {});
    pb.class("Lc;", |c| {
        c.superclass("La;");
    });
    pb.class("Ld;", |c| {
        c.superclass("La;");
    });
}

#[test]
fn invoke_with_provably_wrong_argument_is_v0009() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("take", &["La;"], "V", 1, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("caller", &[], "V", 1, |m| {
            m.new_instance(0, "Lb;");
            m.invoke(Opcode::InvokeStatic, "Lt;", "take", &["La;"], "V", &[0]);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    assert!(rules_of(&dex).contains(&Rule::V0009));
}

#[test]
fn invoke_with_subtype_argument_is_clean() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("take", &["La;"], "V", 1, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("caller", &[], "V", 1, |m| {
            m.new_instance(0, "Lc;");
            m.invoke(Opcode::InvokeStatic, "Lt;", "take", &["La;"], "V", &[0]);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    assert!(rules_of(&dex).is_empty());
}

#[test]
fn field_write_of_unrelated_type_is_v0010() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_field("slot", "La;", None);
        c.static_method("store", &[], "V", 1, |m| {
            m.new_instance(0, "Lb;");
            m.sput(Opcode::SputObject, 0, "Lt;", "slot", "La;");
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    assert!(rules_of(&dex).contains(&Rule::V0010));
}

#[test]
fn return_of_unrelated_type_is_v0011() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("make", &[], "La;", 1, |m| {
            m.new_instance(0, "Lb;");
            m.asm.ret(Opcode::ReturnObject, 0);
        });
    });
    let dex = pb.build().unwrap();
    assert!(rules_of(&dex).contains(&Rule::V0011));
}

#[test]
fn provably_failing_check_cast_is_l0004() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("cast", &[], "V", 1, |m| {
            m.new_instance(0, "Lb;");
            m.check_cast(0, "La;");
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    let diags = verify_dex(&dex, &VerifyOptions::default());
    let l0004: Vec<_> = diags.iter().filter(|d| d.rule == Rule::L0004).collect();
    assert_eq!(l0004.len(), 1);
    assert!(!l0004[0].is_error(), "L0004 is a lint, not a gate");
    // The message names descriptors, not lattice kinds.
    assert!(l0004[0].message.contains("Lb;"), "{}", l0004[0].message);
    assert!(l0004[0].message.contains("La;"), "{}", l0004[0].message);
}

#[test]
fn incompatible_array_store_is_l0005() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("fill", &[], "V", 3, |m| {
            m.asm.const4(2, 1);
            m.new_array(0, 2, "[La;");
            m.new_instance(1, "Lb;");
            m.asm.const4(2, 0);
            m.aput(Opcode::AputObject, 1, 0, 2);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    assert!(rules_of(&dex).contains(&Rule::L0005));
}

#[test]
fn unknown_framework_types_stay_quiet() {
    // Both sides framework classes: nothing is provable, nothing fires.
    let mut pb = ProgramBuilder::new();
    pb.class("Lt;", |c| {
        c.static_method("take", &["Ljava/io/File;"], "V", 1, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("caller", &[], "V", 1, |m| {
            m.new_instance(0, "Ljava/util/ArrayList;");
            m.invoke(
                Opcode::InvokeStatic,
                "Lt;",
                "take",
                &["Ljava/io/File;"],
                "V",
                &[0],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    assert!(rules_of(&dex).is_empty());
}

#[test]
fn typed_ir_joins_to_least_common_ancestor() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("pick", &["Z"], "La;", 2, |m| {
            let flag = m.param_reg(0);
            let els = m.asm.new_label();
            let join = m.asm.new_label();
            let mut branch = Insn::of(Opcode::IfEqz);
            branch.a = flag;
            m.asm.branch(branch, els);
            m.new_instance(0, "Lc;");
            m.asm.goto(join);
            m.asm.bind(els);
            m.new_instance(0, "Ld;");
            m.asm.bind(join);
            m.asm.ret(Opcode::ReturnObject, 0);
        });
    });
    let dex = pb.build().unwrap();
    let typed = verify_dex_typed(&dex, &VerifyOptions::default());
    // Lc; and Ld; merge to their common superclass La;, so returning the
    // merged value from a method declared `La;` raises nothing.
    assert!(typed.diagnostics.is_empty(), "{:?}", typed.diagnostics);
    let ir = typed
        .methods
        .iter()
        .find(|m| m.name == "pick")
        .expect("pick has a body");
    let ret = ir
        .insns()
        .find(|i| i.insn().op == Opcode::ReturnObject)
        .expect("return-object present");
    let a = typed.hierarchy.lookup("La;").unwrap();
    assert_eq!(ret.frame()[0], RegType::Ref(a));
    assert!(ret.reachable());
    assert_eq!(ret.uses(), [0]);
    assert!(ret.succs().is_empty(), "return has no successors");
}

#[test]
fn typed_ir_exposes_def_use_and_successors() {
    let mut pb = ProgramBuilder::new();
    pb.class("Lt;", |c| {
        c.static_method("m", &["I"], "I", 1, |m| {
            let p = m.param_reg(0);
            m.asm.const4(0, 2);
            m.asm.binop(Opcode::AddInt, 0, 0, p);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let typed = verify_dex_typed(&dex, &VerifyOptions::default());
    assert!(typed.diagnostics.is_empty());
    let ir = &typed.methods[0];
    assert_eq!(ir.len(), 3);
    // const/4 defines v0 and flows to add-int, which reads v0/v1 and
    // redefines v0.
    assert_eq!(ir.insn(0).defs(), [0]);
    assert_eq!(ir.insn(0).succs(), [1]);
    assert_eq!(ir.insn(1).uses(), [0, 1]);
    assert_eq!(ir.insn(1).defs(), [0]);
    assert_eq!(ir.index_of_pc(ir.insn(2).pc()), Some(2));
    assert!(ir.def_use_edges() >= 5);
}

#[test]
fn annotated_disassembly_names_descriptors() {
    let mut pb = ProgramBuilder::new();
    with_hierarchy(&mut pb);
    pb.class("Lt;", |c| {
        c.static_method("mk", &[], "La;", 1, |m| {
            m.new_instance(0, "Lc;");
            m.asm.ret(Opcode::ReturnObject, 0);
        });
    });
    let dex = pb.build().unwrap();
    let typed = verify_dex_typed(&dex, &VerifyOptions::default());
    let ir = typed.methods.iter().find(|m| m.name == "mk").unwrap();
    let lines = ir.disassemble(&typed.hierarchy, Some(&dex));
    assert_eq!(lines.len(), 2);
    // The new-instance operand resolves through the pool...
    assert!(lines[0].contains("new-instance v0, Lc;"), "{lines:?}");
    // ...and the return's frame names the register's descriptor instead
    // of a bare "ref".
    assert!(lines[1].contains("v0=Lc;"), "{lines:?}");
}
