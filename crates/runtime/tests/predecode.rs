//! Predecoded code cache (the quickened tier, entered under a passive
//! observer): payload-decode-once behaviour, epoch invalidation (including
//! mid-frame self-modification), and per-step fallback for streams the
//! linear predecode rejects.

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::decode::{decode_calls, reset_decode_calls};
use dexlego_dalvik::{encode_insn, Insn, Opcode};
use dexlego_dex::file::EncodedMethod;
use dexlego_dex::{AccessFlags, ClassDef, CodeItem, DexFile};
use dexlego_runtime::class::{MethodImpl, SigKey};
use dexlego_runtime::observer::{NullObserver, RuntimeObserver};
use dexlego_runtime::{Runtime, Slot};

/// A no-op observer that wants instruction events, so every frame runs
/// per step.
struct PerStep;

impl RuntimeObserver for PerStep {}

/// Builds `Lsw/Loop;::spin(I)I` — a loop whose every iteration dispatches
/// through a packed-switch payload.
fn switch_loop() -> (DexFile, String) {
    let entry = "Lsw/Loop;".to_owned();
    let mut pb = ProgramBuilder::new();
    pb.class(&entry, |c| {
        c.static_method("spin", &["I"], "I", 4, |m| {
            let n = m.param_reg(0);
            let (top, done, inc) = (m.asm.new_label(), m.asm.new_label(), m.asm.new_label());
            let cases: Vec<u32> = (0..3).map(|_| m.asm.new_label()).collect();
            m.asm.const4(0, 0); // acc
            m.asm.const4(1, 0); // i
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop_lit8(Opcode::RemIntLit8, 2, 1, 3);
            m.asm.packed_switch(2, 0, cases.clone());
            m.asm.goto(inc);
            m.asm.bind(cases[0]);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.goto(inc);
            m.asm.bind(cases[1]);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 2);
            m.asm.goto(inc);
            m.asm.bind(cases[2]);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 3);
            m.asm.bind(inc);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    (pb.build().unwrap(), entry)
}

#[test]
fn switch_payload_is_decoded_exactly_once() {
    let (dex, entry) = switch_loop();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;

    // Cold run: 1000 iterations through the switch. The only decoding is
    // the single predecode pass over the method (one decode_insn call per
    // instruction plus one per payload) — not one per executed step.
    reset_decode_calls();
    let insns_before = rt.stats.insns;
    let ret = rt
        .call_static(&mut obs, &entry, "spin", "(I)I", &[Slot::from_int(1000)])
        .unwrap();
    // i%3==0 for 334 of 0..1000, the other residues 333 times each:
    // 334*1 + 333*2 + 333*3 = 1999.
    assert_eq!(ret.as_int(), Some(1999));
    let cold_decodes = decode_calls();
    let executed = rt.stats.insns - insns_before;
    assert!(executed > 5_000, "loop actually ran ({executed} insns)");
    assert!(
        cold_decodes < 100,
        "cold run decoded {cold_decodes} times; expected one predecode pass, \
         not per-step decoding"
    );
    assert_eq!(rt.stats.predecodes, 1);

    // Warm run: everything — instructions and the switch payload — is
    // served from the cache; zero decode calls.
    reset_decode_calls();
    rt.call_static(&mut obs, &entry, "spin", "(I)I", &[Slot::from_int(1000)])
        .unwrap();
    assert_eq!(decode_calls(), 0, "warm run must not decode at all");
    assert_eq!(rt.stats.predecodes, 1, "no rebuild without body mutation");
}

#[test]
fn rewritten_body_is_not_served_stale() {
    let mut pb = ProgramBuilder::new();
    pb.class("Lrw/C;", |c| {
        c.static_method("answer", &[], "I", 1, |m| {
            m.asm.const4(0, 100); // widens to const/16 (2 units)
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;

    let class = rt.find_class("Lrw/C;").unwrap();
    let answer = rt
        .resolve_method(class, &SigKey::new("answer", "()I"))
        .unwrap();

    let first = rt.call_method(&mut obs, answer, &[]).unwrap();
    assert_eq!(first.as_int(), Some(100));
    assert_eq!(rt.stats.predecodes, 1, "cached after first run");
    let epoch = rt.code_epoch(answer);

    // Rewrite the literal through method_mut: the epoch bump must
    // invalidate the cached representation.
    if let MethodImpl::Bytecode { insns, .. } = &mut rt.method_mut(answer).body {
        let mut patched = Insn::of(Opcode::Const16);
        patched.a = 0;
        patched.lit = 200;
        insns[..2].copy_from_slice(&encode_insn(&patched).unwrap());
    }
    assert!(
        rt.code_epoch(answer) > epoch,
        "mutation must invalidate the cached entry"
    );

    let second = rt.call_method(&mut obs, answer, &[]).unwrap();
    assert_eq!(second.as_int(), Some(200), "rewritten body must execute");
    assert_eq!(rt.stats.predecodes, 2, "body rebuild after invalidation");
}

#[test]
fn mid_frame_self_modification_takes_effect() {
    // main() calls a native that rewrites main's OWN later instruction
    // while main's frame is live. The per-step epoch check must
    // re-predecode so the frame does not serve its stale representation.
    let mut pb = ProgramBuilder::new();
    pb.class("Lmf/C;", |c| {
        c.static_native_method("tamper", &[], "V");
        c.static_method("main", &[], "I", 1, |m| {
            m.invoke(Opcode::InvokeStatic, "Lmf/C;", "tamper", &[], "V", &[]);
            m.asm.const4(0, 100); // widens to const/16 at pc 3
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();

    let class = rt.find_class("Lmf/C;").unwrap();
    let main = rt
        .resolve_method(class, &SigKey::new("main", "()I"))
        .unwrap();
    rt.natives
        .register("Lmf/C;", "tamper", "()V", move |rt, _, _| {
            if let MethodImpl::Bytecode { insns, .. } = &mut rt.method_mut(main).body {
                // invoke-static is 3 units; the const/16 sits at pc 3.
                assert_eq!(insns[3], 0x0013, "patch target is the const/16");
                let mut patched = Insn::of(Opcode::Const16);
                patched.a = 0;
                patched.lit = 200;
                insns[3..5].copy_from_slice(&encode_insn(&patched).unwrap());
            }
            Ok(dexlego_runtime::value::RetVal::Void)
        });

    let mut obs = NullObserver;
    let ret = rt.call_method(&mut obs, main, &[]).unwrap();
    assert_eq!(
        ret.as_int(),
        Some(200),
        "mid-frame rewrite must be visible to the executing frame"
    );
}

#[test]
fn unpredecodable_stream_falls_back_to_per_step() {
    // Garbage past the return: linear predecode fails on the unknown
    // opcode, but execution never reaches it — per-step fetching runs the
    // method fine, and the negative outcome is cached.
    let mut dex = DexFile::new();
    let t = dex.intern_type("Lu/C;");
    let m = dex.intern_method("Lu/C;", "four", "I", &[]);
    let mut def = ClassDef::new(t);
    def.class_data
        .as_mut()
        .unwrap()
        .direct_methods
        .push(EncodedMethod {
            method_idx: m,
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            // const/4 v0, #4 ; return v0 ; unknown opcode 0x40
            code: Some(CodeItem::new(1, 0, 0, vec![0x4012, 0x000f, 0x0040])),
        });
    dex.add_class(def);

    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    let ret = rt
        .call_static(&mut obs, "Lu/C;", "four", "()I", &[])
        .unwrap();
    assert_eq!(ret.as_int(), Some(4));

    let class = rt.find_class("Lu/C;").unwrap();
    let four = rt
        .resolve_method(class, &SigKey::new("four", "()I"))
        .unwrap();
    assert!(rt.predecoded(four).is_none(), "stream is unpredecodable");
    assert_eq!(rt.stats.predecodes, 1, "one failed build attempt");

    let again = rt
        .call_static(&mut obs, "Lu/C;", "four", "()I", &[])
        .unwrap();
    assert_eq!(again.as_int(), Some(4));
    assert_eq!(
        rt.stats.predecodes, 1,
        "failure outcome is cached, not retried"
    );
}

#[test]
fn jump_to_non_boundary_pc_falls_back_per_step() {
    // goto +2 lands in the middle of a const/16 whose literal unit is
    // itself a valid return-void. The predecoded index has no entry for
    // that pc; a quickened frame must drop to decoding it from the live
    // body exactly as a per-step frame does.
    let code = vec![0x0228, 0x0013, 0x000e]; // goto +2 ; const/16 v0 ; (lit =) return-void
    let observers: [(&str, &mut dyn RuntimeObserver); 2] =
        [("quickened", &mut NullObserver), ("per-step", &mut PerStep)];
    for (path, obs) in observers {
        let mut dex = DexFile::new();
        let t = dex.intern_type("Lj/C;");
        let m = dex.intern_method("Lj/C;", "go", "V", &[]);
        let mut def = ClassDef::new(t);
        def.class_data
            .as_mut()
            .unwrap()
            .direct_methods
            .push(EncodedMethod {
                method_idx: m,
                access: AccessFlags::PUBLIC | AccessFlags::STATIC,
                code: Some(CodeItem::new(1, 0, 0, code.clone())),
            });
        dex.add_class(def);

        let mut rt = Runtime::new();
        rt.load_dex(&dex, "app").unwrap();
        let ret = rt.call_static(obs, "Lj/C;", "go", "()V", &[]);
        assert!(ret.is_ok(), "{path}: {ret:?}");
    }
}
