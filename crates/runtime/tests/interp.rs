//! End-to-end interpreter tests driving real assembled bytecode.

use dexlego_dalvik::builder::{ProgramBuilder, StaticInit};
use dexlego_dalvik::{encode_insn, Insn, Opcode};
use dexlego_runtime::observer::{InsnEvent, NullObserver, RuntimeObserver};
use dexlego_runtime::value::RetVal;
use dexlego_runtime::{Runtime, RuntimeError, Slot};

fn run_static(
    pb: &mut ProgramBuilder,
    class: &str,
    name: &str,
    desc: &str,
    args: &[Slot],
) -> (Runtime, Result<RetVal, RuntimeError>) {
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    let ret = rt.call_static(&mut obs, class, name, desc, args);
    (rt, ret)
}

#[test]
fn arithmetic_loop_sums() {
    // int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("sum", &["I"], "I", 2, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0); // s
            m.asm.const4(1, 0); // i
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop(Opcode::AddInt, 0, 0, 1);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let (_, ret) = run_static(&mut pb, "La;", "sum", "(I)I", &[Slot::from_int(10)]);
    assert_eq!(ret.unwrap().as_int(), Some(45));
}

#[test]
fn wide_arithmetic() {
    // long cube(long x) { return x * x * x; }
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("cube", &["J"], "J", 4, |m| {
            let x = m.param_reg(0);
            m.asm.binop(Opcode::MulLong, 0, x, x);
            m.asm.binop(Opcode::MulLong, 0, 0, x);
            m.asm.ret(Opcode::ReturnWide, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    let w = dexlego_runtime::value::WideValue::from_long(-7);
    let (lo, hi) = w.split();
    let ret = rt
        .call_static(&mut obs, "La;", "cube", "(J)J", &[lo, hi])
        .unwrap();
    assert_eq!(ret.as_long(), Some(-343));
}

#[test]
fn float_and_double_ops() {
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        // float half(float x) { return x / 2.0f; }
        c.static_method("half", &["F"], "F", 1, |m| {
            let x = m.param_reg(0);
            let mut insn = Insn::of(Opcode::ConstHigh16);
            insn.a = 0;
            insn.lit = i64::from(2.0f32.to_bits() as i32); // 0x4000_0000
            m.asm.push(insn);
            m.asm.binop(Opcode::DivFloat, 0, x, 0);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let (_, ret) = run_static(&mut pb, "La;", "half", "(F)F", &[Slot::from_float(5.0)]);
    let bits = ret.unwrap().as_obj().unwrap();
    assert_eq!(f32::from_bits(bits), 2.5);
}

#[test]
fn division_by_zero_throws_and_is_catchable() {
    // int safeDiv(int a, int b) { try { return a / b; } catch (any) { return -1; } }
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("div", &["I", "I"], "I", 1, |m| {
            let (a, b) = (m.param_reg(0), m.param_reg(1));
            m.asm.binop(Opcode::DivInt, 0, a, b);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    // Wrap the division range in a catch-all try.
    let mut dex = dex;
    {
        let class = dex.class_defs_mut().get_mut(0).unwrap();
        let data = class.class_data.as_mut().unwrap();
        let code = data.direct_methods[0].code.as_mut().unwrap();
        // Append handler: const/4 v0, -1 ; return v0
        let handler_addr = code.insns.len() as u32;
        code.insns.extend([0xf012u16, 0x000f]); // const/4 v0,#-1 ; return v0
        code.handlers.push(dexlego_dex::EncodedCatchHandler {
            catches: vec![],
            catch_all_addr: Some(handler_addr),
        });
        code.tries.push(dexlego_dex::TryItem {
            start_addr: 0,
            insn_count: 2,
            handler_index: 0,
        });
    }
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    let ok = rt
        .call_static(
            &mut obs,
            "La;",
            "div",
            "(II)I",
            &[Slot::from_int(10), Slot::from_int(2)],
        )
        .unwrap();
    assert_eq!(ok.as_int(), Some(5));
    let caught = rt
        .call_static(
            &mut obs,
            "La;",
            "div",
            "(II)I",
            &[Slot::from_int(10), Slot::from_int(0)],
        )
        .unwrap();
    assert_eq!(caught.as_int(), Some(-1));
}

#[test]
fn uncaught_exception_reports_type() {
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("boom", &[], "I", 2, |m| {
            m.asm.const4(0, 1);
            m.asm.const4(1, 0);
            m.asm.binop(Opcode::DivInt, 0, 0, 1);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let (_, ret) = run_static(&mut pb, "La;", "boom", "()I", &[]);
    match ret.unwrap_err() {
        RuntimeError::UncaughtException { type_desc, .. } => {
            assert_eq!(type_desc, "Ljava/lang/ArithmeticException;");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn virtual_dispatch_selects_override() {
    // Base.describe() returns 1, Derived.describe() returns 2.
    // pick(flag) instantiates one or the other and calls describe().
    let mut pb = ProgramBuilder::new();
    pb.class("LBase;", |c| {
        c.method("describe", &[], "I", 1, |m| {
            m.asm.const4(0, 1);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.class("LDerived;", |c| {
        c.superclass("LBase;");
        c.method("describe", &[], "I", 1, |m| {
            m.asm.const4(0, 2);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.class("LMain;", |c| {
        c.static_method("pick", &["I"], "I", 2, |m| {
            let flag = m.param_reg(0);
            let (use_derived, call) = (m.asm.new_label(), m.asm.new_label());
            m.asm.if_z(Opcode::IfNez, flag, use_derived);
            m.new_instance(0, "LBase;");
            m.asm.goto(call);
            m.asm.bind(use_derived);
            m.new_instance(0, "LDerived;");
            m.asm.bind(call);
            m.invoke(Opcode::InvokeVirtual, "LBase;", "describe", &[], "I", &[0]);
            let mut mr = Insn::of(Opcode::MoveResult);
            mr.a = 1;
            m.asm.push(mr);
            m.asm.ret(Opcode::Return, 1);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    let base = rt
        .call_static(&mut obs, "LMain;", "pick", "(I)I", &[Slot::from_int(0)])
        .unwrap();
    assert_eq!(base.as_int(), Some(1));
    let derived = rt
        .call_static(&mut obs, "LMain;", "pick", "(I)I", &[Slot::from_int(1)])
        .unwrap();
    assert_eq!(derived.as_int(), Some(2));
}

#[test]
fn static_fields_and_clinit() {
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_field("counter", "I", Some(StaticInit::Int(41)));
        c.static_method("bump", &[], "I", 1, |m| {
            m.sget(Opcode::Sget, 0, "La;", "counter", "I");
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.sput(Opcode::Sput, 0, "La;", "counter", "I");
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let (mut rt, ret) = run_static(&mut pb, "La;", "bump", "()I", &[]);
    assert_eq!(ret.unwrap().as_int(), Some(42));
    let mut obs = NullObserver;
    let again = rt.call_static(&mut obs, "La;", "bump", "()I", &[]).unwrap();
    assert_eq!(again.as_int(), Some(43));
}

#[test]
fn instance_fields_roundtrip() {
    let mut pb = ProgramBuilder::new();
    pb.class("LBox;", |c| {
        c.instance_field("value", "I");
        c.static_method("test", &[], "I", 2, |m| {
            m.new_instance(0, "LBox;");
            m.asm.const4(1, 7);
            m.iput(Opcode::Iput, 1, 0, "LBox;", "value", "I");
            m.iget(Opcode::Iget, 1, 0, "LBox;", "value", "I");
            m.asm.ret(Opcode::Return, 1);
        });
    });
    let (_, ret) = run_static(&mut pb, "LBox;", "test", "()I", &[]);
    assert_eq!(ret.unwrap().as_int(), Some(7));
}

#[test]
fn arrays_and_fill_array_data() {
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("third", &[], "I", 3, |m| {
            m.asm.const4(0, 5);
            m.new_array(1, 0, "[I");
            m.asm.fill_array_data(
                1,
                4,
                vec![1, 0, 0, 0, 2, 0, 0, 0, 30, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0],
            );
            m.asm.const4(0, 2);
            m.asm.binop(Opcode::Aget, 2, 1, 0);
            m.asm.ret(Opcode::Return, 2);
        });
    });
    let (_, ret) = run_static(&mut pb, "La;", "third", "()I", &[]);
    assert_eq!(ret.unwrap().as_int(), Some(30));
}

#[test]
fn array_index_out_of_bounds_throws() {
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("oob", &[], "I", 3, |m| {
            m.asm.const4(0, 2);
            m.new_array(1, 0, "[I");
            m.asm.const4(0, 5);
            m.asm.binop(Opcode::Aget, 2, 1, 0);
            m.asm.ret(Opcode::Return, 2);
        });
    });
    let (_, ret) = run_static(&mut pb, "La;", "oob", "()I", &[]);
    match ret.unwrap_err() {
        RuntimeError::UncaughtException { type_desc, .. } => {
            assert_eq!(type_desc, "Ljava/lang/ArrayIndexOutOfBoundsException;");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn packed_switch_dispatches() {
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("pick", &["I"], "I", 1, |m| {
            let x = m.param_reg(0);
            let (c10, c11, default) = (m.asm.new_label(), m.asm.new_label(), m.asm.new_label());
            m.asm.packed_switch(x, 10, vec![c10, c11]);
            m.asm.bind(default);
            m.asm.const4(0, -1);
            m.asm.ret(Opcode::Return, 0);
            m.asm.bind(c10);
            m.asm.const4(0, 1);
            m.asm.ret(Opcode::Return, 0);
            m.asm.bind(c11);
            m.asm.const4(0, 2);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    for (input, expect) in [(10, 1), (11, 2), (9, -1), (99, -1)] {
        let ret = rt
            .call_static(&mut obs, "La;", "pick", "(I)I", &[Slot::from_int(input)])
            .unwrap();
        assert_eq!(ret.as_int(), Some(expect), "pick({input})");
    }
}

#[test]
fn taint_flows_through_stringbuilder_to_sink() {
    // String s = getSensitiveData(); sb = new StringBuilder();
    // sb.append(s); Net.send(sb.toString());
    let mut pb = ProgramBuilder::new();
    pb.class("LLeak;", |c| {
        c.static_method("go", &[], "V", 3, |m| {
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Sensitive;",
                "getSensitiveData",
                &[],
                "Ljava/lang/String;",
                &[],
            );
            let mut mr = Insn::of(Opcode::MoveResultObject);
            mr.a = 0;
            m.asm.push(mr);
            m.new_instance(1, "Ljava/lang/StringBuilder;");
            m.invoke(
                Opcode::InvokeDirect,
                "Ljava/lang/StringBuilder;",
                "<init>",
                &[],
                "V",
                &[1],
            );
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/StringBuilder;",
                "append",
                &["Ljava/lang/String;"],
                "Ljava/lang/StringBuilder;",
                &[1, 0],
            );
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/StringBuilder;",
                "toString",
                &[],
                "Ljava/lang/String;",
                &[1],
            );
            let mut mr2 = Insn::of(Opcode::MoveResultObject);
            mr2.a = 2;
            m.asm.push(mr2);
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Net;",
                "send",
                &["Ljava/lang/String;"],
                "V",
                &[2],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let (rt, ret) = run_static(&mut pb, "LLeak;", "go", "()V", &[]);
    ret.unwrap();
    assert_eq!(rt.log.tainted_sinks().count(), 1);
}

#[test]
fn reflection_invoke_resolves_target_and_notifies() {
    #[derive(Default)]
    struct ReflObs {
        resolved: Vec<String>,
    }
    impl RuntimeObserver for ReflObs {
        fn on_reflective_call(
            &mut self,
            rt: &Runtime,
            _caller: dexlego_runtime::MethodId,
            _site: u32,
            target: dexlego_runtime::MethodId,
        ) {
            self.resolved.push(rt.method_name(target));
        }
    }

    let mut pb = ProgramBuilder::new();
    pb.class("LRefl;", |c| {
        c.static_method("target", &[], "I", 1, |m| {
            m.asm.const4(0, 6);
            m.asm.ret(Opcode::Return, 0);
        });
        c.static_method("go", &[], "I", 4, |m| {
            m.const_class(0, "LRefl;");
            m.const_str(1, "target");
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/Class;",
                "getMethod",
                &["Ljava/lang/String;"],
                "Ljava/lang/reflect/Method;",
                &[0, 1],
            );
            let mut mr = Insn::of(Opcode::MoveResultObject);
            mr.a = 2;
            m.asm.push(mr);
            m.asm.const4(3, 0); // null receiver + null args
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/reflect/Method;",
                "invoke",
                &["Ljava/lang/Object;", "[Ljava/lang/Object;"],
                "Ljava/lang/Object;",
                &[2, 3, 3],
            );
            let mut mr2 = Insn::of(Opcode::MoveResult);
            mr2.a = 0;
            m.asm.push(mr2);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = ReflObs::default();
    let ret = rt
        .call_static(&mut obs, "LRefl;", "go", "()I", &[])
        .unwrap();
    assert_eq!(ret.as_int(), Some(6));
    assert_eq!(obs.resolved, vec!["LRefl;->target()I".to_owned()]);
}

#[test]
fn self_modifying_native_changes_behavior_immediately() {
    // answer() begins as `const/16 v0, #100; nop; return v0`. A native
    // rewrites the constant to 200 *while the program runs*: main() calls
    // tamper() then answer().
    let mut pb = ProgramBuilder::new();
    pb.class("LSm;", |c| {
        c.static_method("answer", &[], "I", 1, |m| {
            m.asm.const4(0, 100); // widens to const/16 (2 units)
            m.asm.nop();
            m.asm.ret(Opcode::Return, 0);
        });
        c.static_native_method("tamper", &[], "V");
        c.static_method("main", &[], "I", 1, |m| {
            m.invoke(Opcode::InvokeStatic, "LSm;", "tamper", &[], "V", &[]);
            m.invoke(Opcode::InvokeStatic, "LSm;", "answer", &[], "I", &[]);
            let mut mr = Insn::of(Opcode::MoveResult);
            mr.a = 0;
            m.asm.push(mr);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();

    // Register the tamper native: rewrite answer()'s literal to 200.
    let sm = rt.find_class("LSm;").unwrap();
    let answer = rt
        .resolve_method(sm, &dexlego_runtime::class::SigKey::new("answer", "()I"))
        .unwrap();
    rt.natives
        .register("LSm;", "tamper", "()V", move |rt, _, _| {
            if let dexlego_runtime::class::MethodImpl::Bytecode { insns, .. } =
                &mut rt.method_mut(answer).body
            {
                let mut patched = Insn::of(Opcode::Const16);
                patched.a = 0;
                patched.lit = 200;
                let units = encode_insn(&patched).unwrap();
                insns[..2].copy_from_slice(&units);
            }
            Ok(RetVal::Void)
        });

    let mut obs = NullObserver;
    let before = rt
        .call_static(&mut obs, "LSm;", "answer", "()I", &[])
        .unwrap();
    assert_eq!(before.as_int(), Some(100));
    let after = rt
        .call_static(&mut obs, "LSm;", "main", "()I", &[])
        .unwrap();
    assert_eq!(after.as_int(), Some(200));
}

#[test]
fn callbacks_register_and_fire() {
    let mut pb = ProgramBuilder::new();
    pb.class("LListener;", |c| {
        c.implements("Landroid/view/View$OnClickListener;");
        c.method("onClick", &["Landroid/view/View;"], "V", 1, |m| {
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Sensitive;",
                "getSensitiveData",
                &[],
                "Ljava/lang/String;",
                &[],
            );
            let mut mr = Insn::of(Insn::of(Opcode::MoveResultObject).op);
            mr.a = 0;
            m.asm.push(mr);
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Net;",
                "send",
                &["Ljava/lang/String;"],
                "V",
                &[0],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    pb.class("LMain;", |c| {
        c.static_method("setup", &[], "V", 2, |m| {
            m.new_instance(0, "LListener;");
            m.asm.const4(1, 0); // a null "view"; listener registration only needs the listener
            m.invoke(
                Opcode::InvokeStatic,
                "LMain;",
                "attach",
                &["Landroid/view/View$OnClickListener;"],
                "V",
                &[0],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method(
            "attach",
            &["Landroid/view/View$OnClickListener;"],
            "V",
            1,
            |m| {
                let l = m.param_reg(0);
                // view.setOnClickListener(l) with a fabricated view instance.
                m.new_instance(0, "Landroid/view/View;");
                m.invoke(
                    Opcode::InvokeVirtual,
                    "Landroid/view/View;",
                    "setOnClickListener",
                    &["Landroid/view/View$OnClickListener;"],
                    "V",
                    &[0, l],
                );
                m.asm.ret(Opcode::ReturnVoid, 0);
            },
        );
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = NullObserver;
    rt.call_static(&mut obs, "LMain;", "setup", "()V", &[])
        .unwrap();
    assert_eq!(rt.callbacks.len(), 1);
    // Fire the callback the way the event driver does.
    rt.fire_callback(&mut obs, 0).unwrap();
    assert_eq!(rt.callback_depth, 0);
    let has_cb_leak = rt.log.tainted_sinks().any(|e| {
        matches!(e, dexlego_runtime::RuntimeEvent::SinkCall { callback_depth, .. } if *callback_depth == 1)
    });
    assert!(has_cb_leak);
}

#[test]
fn observer_sees_every_instruction_with_units() {
    #[derive(Default)]
    struct Trace {
        pcs: Vec<u32>,
        unit_lens: Vec<usize>,
    }
    impl RuntimeObserver for Trace {
        fn on_instruction(&mut self, _rt: &Runtime, ev: &InsnEvent<'_>) {
            self.pcs.push(ev.dex_pc);
            self.unit_lens.push(ev.units.len());
        }
    }
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("two", &[], "I", 1, |m| {
            m.asm.const4(0, 2); // 1 unit at pc 0
            m.asm.ret(Opcode::Return, 0); // 1 unit at pc 1
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = Trace::default();
    rt.call_static(&mut obs, "La;", "two", "()I", &[]).unwrap();
    assert_eq!(obs.pcs, vec![0, 1]);
    assert_eq!(obs.unit_lens, vec![1, 1]);
}

#[test]
fn force_branch_override_flips_outcome() {
    struct ForceTake;
    impl RuntimeObserver for ForceTake {
        fn override_branch(
            &mut self,
            _rt: &Runtime,
            _m: dexlego_runtime::MethodId,
            _pc: u32,
            _would: bool,
        ) -> Option<bool> {
            Some(true)
        }
    }
    // if (0 != 0) return 1; else return 0;  — forced to take the branch.
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("forced", &[], "I", 1, |m| {
            let taken = m.asm.new_label();
            m.asm.const4(0, 0);
            m.asm.if_z(Opcode::IfNez, 0, taken);
            m.asm.const4(0, 0);
            m.asm.ret(Opcode::Return, 0);
            m.asm.bind(taken);
            m.asm.const4(0, 1);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = ForceTake;
    let ret = rt
        .call_static(&mut obs, "La;", "forced", "()I", &[])
        .unwrap();
    assert_eq!(ret.as_int(), Some(1));
}

#[test]
fn exception_tolerance_steps_over_faults() {
    struct Tolerant;
    impl RuntimeObserver for Tolerant {
        fn tolerate_exceptions(&self) -> bool {
            true
        }
    }
    // v0 = 9; v1 = 0; v0 = v0 / v1 (faults, tolerated, v0 keeps 9); return v0.
    let mut pb = ProgramBuilder::new();
    pb.class("La;", |c| {
        c.static_method("survive", &[], "I", 2, |m| {
            m.asm.const4(0, 9);
            m.asm.const4(1, 0);
            m.asm.binop(Opcode::DivInt, 0, 0, 1);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();
    let mut obs = Tolerant;
    let ret = rt
        .call_static(&mut obs, "La;", "survive", "()I", &[])
        .unwrap();
    assert_eq!(ret.as_int(), Some(9));
}

#[test]
fn dynamic_dex_loading_links_new_classes() {
    // A "payload" dex defines LPayload;->value()I. The host app loads it
    // dynamically from a byte array and the harness then calls into it.
    let mut payload_pb = ProgramBuilder::new();
    payload_pb.class("LPayload;", |c| {
        c.static_method("value", &[], "I", 1, |m| {
            m.asm.const4(0, 7);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let payload_dex = payload_pb.build().unwrap();
    let payload_bytes =
        dexlego_dex::writer::write_dex(&dexlego_dalvik::canon::canonicalize(&payload_dex).unwrap())
            .unwrap();

    let mut rt = Runtime::new();
    // Build the byte array on the heap and call the loader native directly.
    let arr = rt.heap.alloc_array("B", payload_bytes.len());
    if let Some(obj) = rt.heap.get_mut(arr) {
        if let dexlego_runtime::ObjKind::Array { data, .. } = &mut obj.kind {
            for (i, &b) in payload_bytes.iter().enumerate() {
                data[i] = dexlego_runtime::value::WideValue::of(u64::from(b));
            }
        }
    }
    let mut obs = NullObserver;
    rt.call_static(
        &mut obs,
        "Ldalvik/system/DexClassLoader;",
        "loadDexBytes",
        "([B)V",
        &[Slot::of(0), Slot::of(arr)],
    )
    .unwrap();
    let ret = rt
        .call_static(&mut obs, "LPayload;", "value", "()I", &[])
        .unwrap();
    assert_eq!(ret.as_int(), Some(7));
    assert!(rt
        .log
        .events()
        .iter()
        .any(|e| matches!(e, dexlego_runtime::RuntimeEvent::DynamicLoad { .. })));
}
