//! Property-based tests for the instruction codec and assembler.

use dexlego_dalvik::insn::{Decoded, Insn};
use dexlego_dalvik::{
    decode_insn, decode_method, encode_insn, insn_units, Format, MethodAssembler, Opcode,
};
use proptest::prelude::*;

/// Strategy producing a random valid instruction for a random opcode.
fn insn_strategy() -> impl Strategy<Value = Insn> {
    let opcode = proptest::sample::select(Opcode::ALL.to_vec());
    (opcode, any::<u64>(), any::<i64>(), any::<u32>()).prop_map(|(op, regs, lit, idx)| {
        let mut insn = Insn::of(op);
        let r = |shift: u32, mask: u64| ((regs >> shift) & mask) as u32;
        match op.format() {
            Format::F10x => {}
            Format::F12x => {
                insn.a = r(0, 0xf);
                insn.b = r(4, 0xf);
            }
            Format::F11n => {
                insn.a = r(0, 0xf);
                insn.lit = lit.rem_euclid(16) - 8;
            }
            Format::F11x => insn.a = r(0, 0xff),
            Format::F10t => insn.off = (lit.rem_euclid(255) - 127) as i32,
            Format::F20t => {
                insn.off = (lit.rem_euclid(65535) - 32767) as i32;
            }
            Format::F21t => {
                insn.a = r(0, 0xff);
                insn.off = (lit.rem_euclid(65535) - 32767) as i32;
            }
            Format::F22x => {
                insn.a = r(0, 0xff);
                insn.b = r(8, 0xffff);
            }
            Format::F21s => {
                insn.a = r(0, 0xff);
                insn.lit = lit.rem_euclid(65536) - 32768;
            }
            Format::F21h => {
                insn.a = r(0, 0xff);
                let shift = if op == Opcode::ConstWideHigh16 {
                    48
                } else {
                    16
                };
                insn.lit = (lit.rem_euclid(65536) - 32768) << shift;
            }
            Format::F21c => {
                insn.a = r(0, 0xff);
                insn.idx = idx & 0xffff;
            }
            Format::F23x => {
                insn.a = r(0, 0xff);
                insn.b = r(8, 0xff);
                insn.c = r(16, 0xff);
            }
            Format::F22b => {
                insn.a = r(0, 0xff);
                insn.b = r(8, 0xff);
                insn.lit = lit.rem_euclid(256) - 128;
            }
            Format::F22t | Format::F22s => {
                insn.a = r(0, 0xf);
                insn.b = r(4, 0xf);
                if matches!(op.format(), Format::F22t) {
                    insn.off = (lit.rem_euclid(65535) - 32767) as i32;
                } else {
                    insn.lit = lit.rem_euclid(65536) - 32768;
                }
            }
            Format::F22c => {
                insn.a = r(0, 0xf);
                insn.b = r(4, 0xf);
                insn.idx = idx & 0xffff;
            }
            Format::F32x => {
                insn.a = r(0, 0xffff);
                insn.b = r(16, 0xffff);
            }
            Format::F30t => insn.off = lit as i32,
            Format::F31t => {
                insn.a = r(0, 0xff);
                insn.off = lit as i32;
            }
            Format::F31i => {
                insn.a = r(0, 0xff);
                insn.lit = i64::from(lit as i32);
            }
            Format::F31c => {
                insn.a = r(0, 0xff);
                insn.idx = idx;
            }
            Format::F35c => {
                let count = (regs % 6) as usize;
                insn.idx = idx & 0xffff;
                insn.regs = (0..count).map(|i| r(4 * i as u32 + 8, 0xf)).collect();
            }
            Format::F3rc => {
                let count = (regs % 20) as u32;
                let start = r(32, 0xfff);
                insn.idx = idx & 0xffff;
                insn.regs = (start..start + count).collect();
            }
            Format::F51l => {
                insn.a = r(0, 0xff);
                insn.lit = lit;
            }
        }
        insn
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → decode is the identity on valid instructions.
    #[test]
    fn insn_codec_roundtrips(insn in insn_strategy()) {
        let units = encode_insn(&insn).unwrap();
        prop_assert_eq!(units.len(), insn.units());
        let back = decode_insn(&units, 0).unwrap();
        prop_assert_eq!(back, Decoded::Insn(insn));
    }

    /// Decoding never panics on arbitrary code units.
    #[test]
    fn decode_never_panics(units in proptest::collection::vec(any::<u16>(), 1..12)) {
        let _ = decode_insn(&units, 0);
        let _ = decode_method(&units);
    }

    /// Measuring an instruction gives the decoder's length and error on
    /// arbitrary units, the first one often a payload identifier with a
    /// small size.
    #[test]
    fn insn_units_agrees_with_decode(
        ident in prop_oneof![any::<u16>(), (1u16..4).prop_map(|k| k << 8)],
        sizes in proptest::collection::vec(0u16..6, 3),
        rest in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let units: Vec<u16> = std::iter::once(ident).chain(sizes).chain(rest).collect();
        for end in 1..=units.len() {
            let code = &units[..end];
            prop_assert_eq!(insn_units(code, 0), decode_insn(code, 0).map(|d| d.units()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A straight-line program of random constants and arithmetic always
    /// assembles and decodes back to the same instruction count.
    #[test]
    fn assembler_straight_line(ops in proptest::collection::vec((0u8..4, any::<i8>()), 1..40)) {
        let mut asm = MethodAssembler::new();
        for (kind, v) in &ops {
            match kind {
                0 => {
                    asm.const4(0, i64::from(*v));
                }
                1 => {
                    asm.binop_lit8(Opcode::AddIntLit8, 1, 0, i64::from(*v));
                }
                2 => {
                    asm.nop();
                }
                _ => {
                    asm.binop(Opcode::XorInt, 0, 0, 1);
                }
            }
        }
        asm.ret(Opcode::ReturnVoid, 0);
        let units = asm.assemble().unwrap();
        let decoded = decode_method(&units).unwrap();
        prop_assert_eq!(decoded.len(), ops.len() + 1);
    }

    /// Random forward/backward jump structures resolve (no undefined
    /// labels, offsets in range after auto-widening).
    #[test]
    fn assembler_jump_soup(jumps in proptest::collection::vec(0usize..8, 1..8), pad in 1usize..200) {
        let mut asm = MethodAssembler::new();
        let labels: Vec<_> = (0..8).map(|_| asm.new_label()).collect();
        for &j in &jumps {
            asm.goto(labels[j]);
            for _ in 0..pad {
                asm.nop();
            }
        }
        for &l in &labels {
            asm.bind(l);
            asm.nop();
        }
        asm.ret(Opcode::ReturnVoid, 0);
        let units = asm.assemble().unwrap();
        prop_assert!(decode_method(&units).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Canonicalisation of a random interned program yields a model that
    /// passes strict verification, round-trips through the writer, and is
    /// a fixpoint of canonicalisation.
    #[test]
    fn canonicalize_random_programs(
        names in proptest::collection::vec("[a-z]{1,6}", 1..5),
        lits in proptest::collection::vec(-8i64..8, 1..6),
    ) {
        use dexlego_dalvik::builder::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        for (i, name) in names.iter().enumerate() {
            let class = format!("Lgen/{name}{i};");
            let lits = lits.clone();
            let callee = format!("Lgen/{}{};", names[(i + 1) % names.len()], (i + 1) % names.len());
            pb.class(&class, move |c| {
                c.static_field("f", "I", None);
                c.static_method("m", &[], "V", 3, move |m| {
                    for &v in &lits {
                        m.asm.const4(0, v);
                    }
                    m.const_str(1, "shared");
                    m.sget(Opcode::Sget, 2, &callee, "f", "I");
                    m.invoke(Opcode::InvokeStatic, &callee, "m", &[], "V", &[]);
                    m.asm.ret(Opcode::ReturnVoid, 0);
                });
            });
        }
        let dex = pb.build().unwrap();
        let canonical = dexlego_dalvik::canon::canonicalize(&dex).unwrap();
        dexlego_dex::verify::verify(&canonical, dexlego_dex::verify::Strictness::Sorted).unwrap();
        let twice = dexlego_dalvik::canon::canonicalize(&canonical).unwrap();
        prop_assert_eq!(&twice, &canonical);
        let bytes = dexlego_dex::writer::write_dex(&canonical).unwrap();
        let back = dexlego_dex::reader::read_dex(&bytes).unwrap();
        prop_assert_eq!(&back, &canonical);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any method the builder emits — constants, arithmetic, wide pairs,
    /// guarded branches, switches, calls with move-result — survives
    /// encode → decode → verify with zero bytecode-verifier errors, both
    /// as the in-memory model and after a full writer/reader round trip.
    #[test]
    fn built_methods_verify_cleanly(
        ops in proptest::collection::vec((0u8..8, any::<i8>()), 1..30),
    ) {
        use dexlego_dalvik::asm::MoveKind;
        use dexlego_dalvik::builder::ProgramBuilder;
        use dexlego_dalvik::Insn;
        use dexlego_verifier::VerifyOptions;

        let mut pb = ProgramBuilder::new();
        let class = "Lgen/Prop;";
        pb.class(class, |c| {
            c.static_method("g", &[], "I", 1, |m| {
                m.asm.const4(0, 3);
                m.asm.ret(Opcode::Return, 0);
            });
            let ops = ops.clone();
            c.static_method("m", &[], "V", 6, move |m| {
                // Prologue defines every register the body may touch:
                // v0/v1/v4/v5 int, (v2, v3) wide.
                m.asm.const4(0, 0);
                m.asm.const4(1, 1);
                m.asm.const_wide(2, 9);
                m.asm.const4(4, 0);
                m.asm.const4(5, 0);
                for &(kind, v) in &ops {
                    match kind {
                        0 => {
                            m.asm.const4(0, i64::from(v % 8));
                        }
                        1 => {
                            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, i64::from(v));
                        }
                        2 => {
                            m.asm.binop(Opcode::XorInt, 0, 0, 1);
                        }
                        3 => {
                            // Guarded block: both paths leave all registers
                            // in joinable states.
                            let skip = m.asm.new_label();
                            m.asm.if_z(Opcode::IfEqz, 4, skip);
                            m.asm.binop_lit8(Opcode::MulIntLit8, 1, 1, 3);
                            m.asm.bind(skip);
                        }
                        4 => {
                            let mut neg = Insn::of(Opcode::NegLong);
                            neg.a = 2;
                            neg.b = 2;
                            m.asm.push(neg);
                        }
                        5 => {
                            m.invoke(Opcode::InvokeStatic, class, "g", &[], "I", &[]);
                            let mut mr = Insn::of(Opcode::MoveResult);
                            mr.a = 5;
                            m.asm.push(mr);
                        }
                        6 => {
                            let (a, b) = (m.asm.new_label(), m.asm.new_label());
                            let done = m.asm.new_label();
                            m.asm.packed_switch(4, 0, vec![a, b]);
                            m.asm.goto(done);
                            m.asm.bind(a);
                            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
                            m.asm.goto(done);
                            m.asm.bind(b);
                            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 2);
                            m.asm.bind(done);
                        }
                        _ => {
                            m.asm.move_reg(MoveKind::Single, 4, 0);
                        }
                    }
                }
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        let dex = pb.build().unwrap();
        let options = VerifyOptions::errors_only();
        let diags = dexlego_verifier::verify_dex(&dex, &options);
        prop_assert!(diags.is_empty(), "model: {:?}", diags);

        // Full byte-level round trip, then verify what a consumer would read.
        let canonical = dexlego_dalvik::canon::canonicalize(&dex).unwrap();
        let bytes = dexlego_dex::writer::write_dex(&canonical).unwrap();
        let back = dexlego_dex::reader::read_dex(&bytes).unwrap();
        let diags = dexlego_verifier::verify_dex(&back, &options);
        prop_assert!(diags.is_empty(), "roundtrip: {:?}", diags);
    }
}
