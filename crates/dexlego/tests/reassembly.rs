//! Reassembly-focused integration tests: method variants, multi-target
//! reflection sites, payload preservation, and force-assisted revelation.

use dexlego_core::pipeline::{reveal, reveal_with_force};
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::{decode_method, Decoded, Insn, Opcode};
use dexlego_dex::verify::{verify, Strictness};
use dexlego_runtime::class::SigKey;
use dexlego_runtime::{Runtime, Slot};

fn invoked_names(dex: &dexlego_dex::DexFile, insns: &[u16]) -> Vec<String> {
    decode_method(insns)
        .unwrap()
        .into_iter()
        .filter_map(|(_, d)| match d {
            Decoded::Insn(insn) if insn.op.is_invoke() => {
                Some(dex.method_signature(insn.idx).unwrap())
            }
            _ => None,
        })
        .collect()
}

/// Two executions take different switch arms — two unique trees — so the
/// reassembler must emit method variants plus a guarded dispatcher.
#[test]
fn divergent_control_flow_produces_variants_and_dispatcher() {
    let entry = "Lvar/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.static_method("pick", &["I"], "I", 2, |m| {
            let p = m.param_reg(0);
            let (a, b) = (m.asm.new_label(), m.asm.new_label());
            m.asm.if_z(Opcode::IfEqz, p, a);
            m.asm.goto(b);
            m.asm.bind(a);
            m.asm.const4(0, 10);
            m.asm.ret(Opcode::Return, 0);
            m.asm.bind(b);
            m.asm.const4(0, 20);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        for arg in [0, 1] {
            rt.call_static(obs, entry, "pick", "(I)I", &[Slot::from_int(arg)])
                .unwrap();
        }
    })
    .unwrap();

    // The record holds two unique trees.
    let record = outcome
        .files
        .methods
        .iter()
        .find(|m| m.key.name == "pick")
        .unwrap();
    assert_eq!(record.trees.len(), 2, "two distinct execution shapes");

    // The output has pick, pick$v0, pick$v1; the dispatcher invokes both
    // variants behind instrument-class guards.
    let out = &outcome.dex;
    verify(out, Strictness::Sorted).unwrap();
    let class = out.find_class(entry).unwrap();
    let data = class.class_data.as_ref().unwrap();
    let names: Vec<String> = data
        .methods()
        .map(|m| out.method_signature(m.method_idx).unwrap())
        .collect();
    assert!(names.iter().any(|n| n.contains("->pick(")), "{names:?}");
    assert!(names.iter().any(|n| n.contains("pick$v0")), "{names:?}");
    assert!(names.iter().any(|n| n.contains("pick$v1")), "{names:?}");
    let dispatcher = data
        .methods()
        .find(|m| {
            out.method_signature(m.method_idx)
                .is_ok_and(|s| s.contains("->pick(I)I"))
        })
        .unwrap();
    let invoked = invoked_names(out, &dispatcher.code.as_ref().unwrap().insns);
    assert!(invoked.iter().any(|s| s.contains("pick$v0")));
    assert!(invoked.iter().any(|s| s.contains("pick$v1")));
}

/// One reflective call site resolving to two different targets across
/// executions becomes a guard-selected pair of direct calls.
#[test]
fn multi_target_reflection_site_emits_guarded_direct_calls() {
    let entry = "Lmulti/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.static_method("alpha", &[], "V", 1, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("beta", &[], "V", 1, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        // call(name): Class.forName("multi.Main").getMethod(name).invoke()
        c.static_method("call", &["Ljava/lang/String;"], "V", 5, |m| {
            let name = m.param_reg(0);
            m.const_str(0, "multi.Main");
            m.invoke(
                Opcode::InvokeStatic,
                "Ljava/lang/Class;",
                "forName",
                &["Ljava/lang/String;"],
                "Ljava/lang/Class;",
                &[0],
            );
            let mut mr = Insn::of(Opcode::MoveResultObject);
            mr.a = 1;
            m.asm.push(mr);
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/Class;",
                "getMethod",
                &["Ljava/lang/String;"],
                "Ljava/lang/reflect/Method;",
                &[1, name],
            );
            let mut mr2 = Insn::of(Opcode::MoveResultObject);
            mr2.a = 2;
            m.asm.push(mr2);
            m.asm.const4(3, 0);
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/reflect/Method;",
                "invoke",
                &["Ljava/lang/Object;", "[Ljava/lang/Object;"],
                "Ljava/lang/Object;",
                &[2, 3, 3],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut dex = dex;
    let alpha_str = dex.intern_string("alpha");
    let beta_str = dex.intern_string("beta");
    let _ = (alpha_str, beta_str);

    let mut rt = Runtime::new();
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        for target in ["alpha", "beta"] {
            let s = rt.intern_string(target);
            rt.call_static(obs, entry, "call", "(Ljava/lang/String;)V", &[Slot::of(s)])
                .unwrap();
        }
    })
    .unwrap();

    // One site, two targets.
    assert_eq!(outcome.files.reflection_sites.len(), 1);
    assert_eq!(outcome.files.reflection_sites[0].targets.len(), 2);

    // The reassembled `call` variants collectively invoke alpha and beta
    // directly and no longer reference Method.invoke.
    let out = &outcome.dex;
    let class = out.find_class(entry).unwrap();
    let mut all_invoked = Vec::new();
    for method in class.class_data.as_ref().unwrap().methods() {
        if let Some(code) = &method.code {
            all_invoked.extend(invoked_names(out, &code.insns));
        }
    }
    assert!(
        all_invoked.iter().any(|s| s.contains("->alpha()V")),
        "{all_invoked:?}"
    );
    assert!(
        all_invoked.iter().any(|s| s.contains("->beta()V")),
        "{all_invoked:?}"
    );
    assert!(
        !all_invoked
            .iter()
            .any(|s| s.contains("Ljava/lang/reflect/Method;->invoke")),
        "reflective call replaced: {all_invoked:?}"
    );
}

/// Switch payloads and fill-array-data payloads survive collection and
/// reassembly: the reassembled method still branches correctly.
#[test]
fn switch_and_array_payloads_survive_reassembly() {
    let entry = "Lpay/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.static_method("classify", &["I"], "I", 3, |m| {
            let p = m.param_reg(0);
            let arms: Vec<_> = (0..3).map(|_| m.asm.new_label()).collect();
            let end = m.asm.new_label();
            m.asm.packed_switch(p, 0, arms.clone());
            m.asm.const4(0, -1);
            m.asm.ret(Opcode::Return, 0);
            for (k, arm) in arms.iter().enumerate() {
                m.asm.bind(*arm);
                m.asm.const4(0, (k as i64) * 10);
                m.asm.goto(end);
            }
            m.asm.bind(end);
            m.asm.ret(Opcode::Return, 0);
        });
        c.static_method("sum", &[], "I", 4, |m| {
            m.asm.const4(0, 3);
            m.new_array(1, 0, "[I");
            m.asm
                .fill_array_data(1, 4, vec![5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0]);
            m.asm.const4(2, 1);
            m.asm.binop(Opcode::Aget, 3, 1, 2);
            m.asm.ret(Opcode::Return, 3);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        for arg in [0, 1, 2, 9] {
            rt.call_static(obs, entry, "classify", "(I)I", &[Slot::from_int(arg)])
                .unwrap();
        }
        rt.call_static(obs, entry, "sum", "()I", &[]).unwrap();
    })
    .unwrap();

    // `sum` was collected from a single execution shape, so the
    // reassembled method must *run* identically in a fresh runtime —
    // including its fill-array-data payload.
    let mut rt2 = Runtime::new();
    rt2.load_dex(&outcome.dex, "revealed").unwrap();
    let mut obs = dexlego_runtime::observer::NullObserver;
    let ret = rt2.call_static(&mut obs, entry, "sum", "()I", &[]).unwrap();
    assert_eq!(ret.as_int(), Some(6));

    // `classify` split into per-execution variants (the dispatcher's guard
    // fields select variants statically, not by input — the paper accepts
    // this indeterminacy since the output targets static analysis). What
    // must hold: every collected arm constant and a packed-switch payload
    // exist somewhere in the reassembled class.
    let out = &outcome.dex;
    let class = out.find_class(entry).unwrap();
    let mut consts = std::collections::HashSet::new();
    let mut has_switch_payload = false;
    for method in class.class_data.as_ref().unwrap().methods() {
        let Some(code) = &method.code else { continue };
        for (_, d) in decode_method(&code.insns).unwrap() {
            match d {
                Decoded::Insn(insn) if matches!(insn.op, Opcode::Const4 | Opcode::Const16) => {
                    consts.insert(insn.lit);
                }
                Decoded::PackedSwitchPayload { .. } => has_switch_payload = true,
                _ => {}
            }
        }
    }
    for expected in [0i64, 10, 20, -1] {
        assert!(
            consts.contains(&expected),
            "arm constant {expected} collected"
        );
    }
    assert!(has_switch_payload, "packed-switch payload reassembled");
}

/// `reveal_with_force` collects code that plain fuzzing cannot reach.
#[test]
fn force_assisted_reveal_collects_gated_code() {
    let entry = "Lgate/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.superclass("Landroid/app/Activity;");
        c.method("onCreate", &["Landroid/os/Bundle;"], "V", 3, |m| {
            // if (Input.nextIntBound(1 << 30) == 12345) hidden();
            m.asm.const4(0, 1 << 30);
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Input;",
                "nextIntBound",
                &["I"],
                "I",
                &[0],
            );
            let mut mr = Insn::of(Opcode::MoveResult);
            mr.a = 1;
            m.asm.push(mr);
            m.asm.const4(2, 12345);
            let skip = m.asm.new_label();
            m.asm.if_cmp(Opcode::IfNe, 1, 2, skip);
            m.invoke(Opcode::InvokeStatic, "Lgate/Main;", "hidden", &[], "V", &[]);
            m.asm.bind(skip);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("hidden", &[], "V", 2, |m| {
            m.const_str(0, "gated-code-ran");
            m.invoke(
                Opcode::InvokeStatic,
                "Landroid/util/Log;",
                "i",
                &["Ljava/lang/String;", "Ljava/lang/String;"],
                "I",
                &[0, 0],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();

    let drive = |rt: &mut Runtime, obs: &mut dyn dexlego_runtime::RuntimeObserver| {
        if rt.find_class(entry).is_none() && rt.load_dex_observed(&dex, "app", obs).is_err() {
            return;
        }
        let Ok(activity) = rt.new_instance(obs, entry) else {
            return;
        };
        let class = rt.find_class(entry).unwrap();
        let on_create = rt
            .resolve_method(class, &SigKey::new("onCreate", "(Landroid/os/Bundle;)V"))
            .unwrap();
        let _ = rt.call_method(obs, on_create, &[Slot::of(activity), Slot::of(0)]);
    };

    // Plain reveal misses `hidden`.
    let mut rt = Runtime::new();
    let plain = reveal(&mut rt, drive).unwrap();
    assert!(
        !plain.files.methods.iter().any(|m| m.key.name == "hidden"),
        "fuzzing alone should not reach the gated method"
    );

    // Force-assisted reveal collects it.
    let mut rt = Runtime::new();
    let (forced, stats) = reveal_with_force(&mut rt, drive, 4).unwrap();
    assert!(stats.forced_runs > 0);
    assert!(
        forced.files.methods.iter().any(|m| m.key.name == "hidden"),
        "force execution reaches and collects the gated method"
    );
    // And the collected method appears in the reassembled DEX.
    let class = forced.dex.find_class(entry).unwrap();
    let names: Vec<String> = class
        .class_data
        .as_ref()
        .unwrap()
        .methods()
        .map(|m| forced.dex.method_signature(m.method_idx).unwrap())
        .collect();
    assert!(names.iter().any(|n| n.contains("hidden")), "{names:?}");
}

/// Try/catch structure survives collection and reassembly: a method whose
/// executed handler caught a division fault keeps an exception table in
/// the revealed DEX, and re-running the revealed code still catches.
#[test]
fn try_catch_tables_survive_reassembly() {
    let entry = "Ltry/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.static_method("safeDiv", &["I", "I"], "I", 1, |m| {
            let (a, b) = (m.param_reg(0), m.param_reg(1));
            m.asm.binop(Opcode::DivInt, 0, a, b);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let mut dex = pb.build().unwrap();
    // Wrap the division in a catch-all try whose handler returns -1.
    {
        let class = dex.class_defs_mut().get_mut(0).unwrap();
        let code = class.class_data.as_mut().unwrap().direct_methods[0]
            .code
            .as_mut()
            .unwrap();
        let handler_addr = code.insns.len() as u32;
        code.insns.extend([0xf012, 0x000f]); // const/4 v0,#-1 ; return v0
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
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        // Execute both the normal path and the handler path so both are
        // collected.
        rt.call_static(
            obs,
            entry,
            "safeDiv",
            "(II)I",
            &[Slot::from_int(8), Slot::from_int(2)],
        )
        .unwrap();
        rt.call_static(
            obs,
            entry,
            "safeDiv",
            "(II)I",
            &[Slot::from_int(8), Slot::from_int(0)],
        )
        .unwrap();
    })
    .unwrap();

    let out = &outcome.dex;
    dexlego_dex::verify::verify(out, dexlego_dex::verify::Strictness::Sorted).unwrap();
    let class = out.find_class(entry).unwrap();
    let methods: Vec<_> = class.class_data.as_ref().unwrap().methods().collect();
    // At least one reassembled variant keeps an exception table.
    let with_tries = methods
        .iter()
        .filter(|m| m.code.as_ref().is_some_and(|c| !c.tries.is_empty()))
        .count();
    assert!(with_tries >= 1, "exception table reassembled");

    // Every reassembled exception table is structurally sound: handler
    // addresses land on real instructions and ranges stay in bounds (the
    // strict verifier checks the latter; check the former explicitly).
    for method in &methods {
        let Some(code) = &method.code else { continue };
        let pcs: std::collections::HashSet<u32> = decode_method(&code.insns)
            .unwrap()
            .iter()
            .map(|(pc, _)| *pc)
            .collect();
        for handler in &code.handlers {
            for clause in &handler.catches {
                assert!(pcs.contains(&clause.addr), "catch addr on an instruction");
            }
            if let Some(addr) = handler.catch_all_addr {
                assert!(pcs.contains(&addr), "catch-all addr on an instruction");
            }
        }
    }

    // The variant collected from the faulting execution carries its handler
    // code: some method contains the `const/4 v0, #-1` handler constant.
    let has_handler_const = methods.iter().any(|m| {
        m.code.as_ref().is_some_and(|c| {
            decode_method(&c.insns).unwrap().iter().any(|(_, d)| {
                matches!(d, Decoded::Insn(i)
                    if i.op == Opcode::Const4 && i.lit == -1)
            })
        })
    });
    assert!(has_handler_const, "executed handler code collected");
}

/// Recursion: each frame of a recursive method is its own execution and
/// yields its own tree; distinct shapes (base vs recursive case) become
/// method variants, and validate_reveal holds.
#[test]
fn recursive_method_collection_and_validation() {
    let entry = "Lrec/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        // int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        c.static_method("fact", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let base = m.asm.new_label();
            m.asm.const4(0, 1);
            m.asm.if_cmp(Opcode::IfLe, n, 0, base);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, n, -1);
            m.invoke(
                Opcode::InvokeStatic,
                "Lrec/Main;",
                "fact",
                &["I"],
                "I",
                &[1],
            );
            let mut mr = Insn::of(Opcode::MoveResult);
            mr.a = 2;
            m.asm.push(mr);
            m.asm.binop(Opcode::MulInt, 0, n, 2);
            m.asm.bind(base);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        let r = rt
            .call_static(obs, entry, "fact", "(I)I", &[Slot::from_int(5)])
            .unwrap();
        assert_eq!(r.as_int(), Some(120));
    })
    .unwrap();
    let record = outcome
        .files
        .methods
        .iter()
        .find(|m| m.key.name == "fact")
        .unwrap();
    // Two shapes: the recursive case and the base case.
    assert_eq!(record.trees.len(), 2);
    assert!(
        dexlego_core::pipeline::validate_reveal(&outcome.files, &outcome.dex).is_empty(),
        "validation holds for recursive collection"
    );
}

/// `validate_reveal` actually detects a broken reveal.
#[test]
fn validate_reveal_detects_missing_method() {
    let entry = "Lval/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.static_method("go", &[], "I", 1, |m| {
            m.asm.const4(0, 1);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        rt.call_static(obs, entry, "go", "()I", &[]).unwrap();
    })
    .unwrap();
    assert!(dexlego_core::pipeline::validate_reveal(&outcome.files, &outcome.dex).is_empty());
    // Break it: validate against an empty DEX.
    let broken = dexlego_dex::DexFile::new();
    let problems = dexlego_core::pipeline::validate_reveal(&outcome.files, &broken);
    assert!(!problems.is_empty());
    assert!(problems[0].contains("class missing"));
}

/// The paper's hardest reflection case (§IV-D): a reflective call that
/// involves *no string parameter at all* — the Method object comes out of
/// `getDeclaredMethods()[i]`. Statically unresolvable even with string
/// analysis; DexLego records the runtime-resolved target and emits a
/// direct call.
#[test]
fn stringless_reflection_is_revealed() {
    let entry = "Lnostr/Main;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.static_method("victim", &["Ljava/lang/String;"], "V", 1, |m| {
            let p = m.param_reg(0);
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Net;",
                "send",
                &["Ljava/lang/String;"],
                "V",
                &[p],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("go", &[], "V", 8, |m| {
            m.invoke(
                Opcode::InvokeStatic,
                "Lcom/dexlego/Sensitive;",
                "getSensitiveData",
                &[],
                "Ljava/lang/String;",
                &[],
            );
            let mut mr = Insn::of(Opcode::MoveResultObject);
            mr.a = 7;
            m.asm.push(mr);
            // Class object without a string: const-class.
            m.const_class(0, "Lnostr/Main;");
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/Class;",
                "getDeclaredMethods",
                &[],
                "[Ljava/lang/reflect/Method;",
                &[0],
            );
            let mut mr2 = Insn::of(Opcode::MoveResultObject);
            mr2.a = 1;
            m.asm.push(mr2);
            // Methods are sorted by name: [go, victim] -> index 1.
            m.asm.const4(2, 1);
            m.asm.binop(Opcode::AgetObject, 3, 1, 2);
            // Box the payload.
            m.asm.const4(4, 1);
            m.new_array(5, 4, "[Ljava/lang/Object;");
            m.asm.const4(6, 0);
            m.asm.binop(Opcode::AputObject, 7, 5, 6);
            m.asm.const4(4, 0);
            m.invoke(
                Opcode::InvokeVirtual,
                "Ljava/lang/reflect/Method;",
                "invoke",
                &["Ljava/lang/Object;", "[Ljava/lang/Object;"],
                "Ljava/lang/Object;",
                &[3, 4, 5],
            );
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    let dex = pb.build().unwrap();

    // Statically invisible for every tool on the original.
    for tool in dexlego_analysis::tools::all_tools() {
        assert!(
            !tool.run(&dex).leaky(),
            "{}: stringless reflection must be unresolvable",
            tool.name
        );
    }

    // Runtime leak happens; DexLego reveals it.
    let mut rt = Runtime::new();
    let outcome = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        rt.call_static(obs, entry, "go", "()V", &[]).unwrap();
    })
    .unwrap();
    assert_eq!(
        rt.log.tainted_sinks().count(),
        1,
        "the attack works at runtime"
    );
    assert_eq!(outcome.files.reflection_sites.len(), 1);
    assert!(outcome.files.reflection_sites[0].targets[0]
        .key
        .name
        .contains("victim"));
    for tool in dexlego_analysis::tools::all_tools() {
        assert!(
            tool.run(&outcome.dex).leaky(),
            "{}: revealed direct call is analyzable",
            tool.name
        );
    }
}

/// A method record of `Ldeep/Main;->run()V` whose one tree is `layers`
/// nested divergence branches: `const/16 v0, #k` rewritten at pc 0 once
/// per layer, then `return-void` in the innermost branch.
fn nested_divergence_files(layers: u16) -> dexlego_core::files::CollectionFiles {
    use dexlego_core::collect::CollectionTree;
    use dexlego_core::files::{ClassRecord, CollectionFiles, MethodKey, MethodRecord, PoolRecord};
    let mut tree = CollectionTree::new();
    for k in 0..layers {
        tree.observe(0, &[0x0013, k], None);
    }
    tree.observe(2, &[0x000e], None);
    assert_eq!(tree.node_count(), usize::from(layers));
    let class = "Ldeep/Main;";
    CollectionFiles {
        classes: vec![ClassRecord {
            descriptor: class.into(),
            superclass: Some("Ljava/lang/Object;".into()),
            access: 1,
            source: "app".into(),
            ..ClassRecord::default()
        }],
        methods: vec![MethodRecord {
            key: MethodKey {
                class: class.into(),
                name: "run".into(),
                descriptor: "()V".into(),
            },
            pool: 0,
            access: 0x9,
            registers: 1,
            ins: 0,
            return_type: "V".into(),
            params: vec![],
            tries: vec![],
            trees: vec![tree],
        }],
        pools: vec![PoolRecord {
            source: "app".into(),
            ..PoolRecord::default()
        }],
        reflection_sites: vec![],
    }
}

/// Nesting depth is bounded by memory, not by the thread's stack: 20,000
/// layers of self-modification at one pc (which the codec accepts)
/// reassemble on a default-sized test thread, one guard per layer, and
/// the output verifies with no errors.
#[test]
fn deeply_nested_divergence_reassembles_iteratively() {
    use dexlego_core::files::CollectionFiles;
    use dexlego_core::reassemble::reassemble_verified;
    let files = nested_divergence_files(20_000);
    let files =
        CollectionFiles::from_bytes(&files.to_bytes()).expect("the codec accepts deep trees");
    let (dex, _lints) = reassemble_verified(&files).expect("reassembles and verifies");
    let class = dex.find_class("Ldeep/Main;").expect("class emitted");
    let run = class
        .class_data
        .as_ref()
        .unwrap()
        .methods()
        .next()
        .expect("run emitted");
    let decoded = decode_method(&run.code.as_ref().unwrap().insns).unwrap();
    let count = |op: Opcode| {
        decoded
            .iter()
            .filter(|(_, d)| d.as_insn().is_some_and(|i| i.op == op))
            .count()
    };
    // One guard per divergence branch, every layer's constant, one return.
    assert_eq!(count(Opcode::SgetBoolean), 19_999);
    assert_eq!(count(Opcode::Const16), 20_000 + 1); // + the trap block's
    assert_eq!(count(Opcode::ReturnVoid), 1);
}
