//! Quickening behaviour: call sites rewrite to pre-resolved fast-path
//! cells exactly once, body mutation de-quickens mid-frame, the quickened
//! tier (superinstructions included) runs only under a passive observer,
//! and a branch into the middle of a fused pair executes the second half
//! standalone.

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::{encode_insn, Insn, Opcode};
use dexlego_dex::DexFile;
use dexlego_runtime::class::{MethodImpl, SigKey};
use dexlego_runtime::observer::{InsnEvent, NullObserver, RuntimeObserver};
use dexlego_runtime::value::RetVal;
use dexlego_runtime::{Runtime, Slot};

/// `Lqk/C;::go()I` exercises every quickenable site: new-instance +
/// invoke-direct `<init>`, iput/iget on an instance field, const-string,
/// and invoke-static to a same-dex helper. Returns x + seven() = 12.
fn quickenable_app() -> DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lqk/C;", |c| {
        c.instance_field("x", "I");
        c.constructor(&[], 1, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
        c.static_method("seven", &[], "I", 1, |m| {
            m.asm.const4(0, 7);
            m.asm.ret(Opcode::Return, 0);
        });
        c.static_method("go", &[], "I", 5, |m| {
            m.new_instance(0, "Lqk/C;");
            m.invoke(Opcode::InvokeDirect, "Lqk/C;", "<init>", &[], "V", &[0]);
            m.asm.const4(1, 5);
            m.iput(Opcode::Iput, 1, 0, "Lqk/C;", "x", "I");
            m.iget(Opcode::Iget, 2, 0, "Lqk/C;", "x", "I");
            m.const_str(3, "qk");
            m.invoke(Opcode::InvokeStatic, "Lqk/C;", "seven", &[], "I", &[]);
            let mut mr = Insn::of(Opcode::MoveResult);
            mr.a = 4;
            m.asm.push(mr);
            m.asm.binop(Opcode::AddInt, 0, 2, 4);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

fn runtime_with(dex: &DexFile) -> Runtime {
    let mut rt = Runtime::new();
    rt.load_dex(dex, "app").unwrap();
    rt
}

#[test]
fn call_sites_quicken_once() {
    let dex = quickenable_app();
    let mut rt = runtime_with(&dex);
    let mut obs = NullObserver;

    let first = rt
        .call_static(&mut obs, "Lqk/C;", "go", "()I", &[])
        .unwrap();
    assert_eq!(first.as_int(), Some(12));
    let after_first = rt.stats.quickens;
    // iput, iget, const-string, invoke-static, invoke-direct all rewrote.
    assert!(
        after_first >= 5,
        "expected >=5 sites quickened, got {after_first}"
    );
    assert_eq!(rt.stats.dequickens, 0);

    let second = rt
        .call_static(&mut obs, "Lqk/C;", "go", "()I", &[])
        .unwrap();
    assert_eq!(second.as_int(), Some(12), "quickened re-run result");
    assert_eq!(
        rt.stats.quickens, after_first,
        "warm execution must not re-quicken already-rewritten cells"
    );
}

#[test]
fn mid_frame_mutation_dequickens() {
    // main() quickens its const-string, then calls a native that rewrites
    // main's OWN later const/16 while the frame is live. The epoch bump
    // must discard the quickened cells (counted as de-quickens) and the
    // re-predecoded body must execute the patched literal.
    let mut pb = ProgramBuilder::new();
    pb.class("Ldq/C;", |c| {
        c.static_native_method("tamper", &[], "V");
        c.static_method("main", &[], "I", 1, |m| {
            m.const_str(0, "dq"); // quickens on first execution (2 units)
            m.invoke(Opcode::InvokeStatic, "Ldq/C;", "tamper", &[], "V", &[]);
            m.asm.const4(0, 100); // widens to const/16 at pc 5
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let mut rt = Runtime::new();
    rt.load_dex(&dex, "app").unwrap();

    let class = rt.find_class("Ldq/C;").unwrap();
    let main = rt
        .resolve_method(class, &SigKey::new("main", "()I"))
        .unwrap();
    rt.natives
        .register("Ldq/C;", "tamper", "()V", move |rt, _, _| {
            if let MethodImpl::Bytecode { insns, .. } = &mut rt.method_mut(main).body {
                assert_eq!(insns[5], 0x0013, "patch target is the const/16");
                let mut patched = Insn::of(Opcode::Const16);
                patched.a = 0;
                patched.lit = 200;
                insns[5..7].copy_from_slice(&encode_insn(&patched).unwrap());
            }
            Ok(RetVal::Void)
        });

    let mut obs = NullObserver;
    let ret = rt.call_method(&mut obs, main, &[]).unwrap();
    assert_eq!(ret.as_int(), Some(200), "patched literal must execute");
    assert!(
        rt.stats.quickens >= 1,
        "const-string quickened before tamper"
    );
    assert!(
        rt.stats.dequickens >= 1,
        "epoch bump must charge the discarded quickened cells"
    );
}

/// A tight loop whose body is back-to-back fusable pairs (alu+alu,
/// alu+goto, cmp-free if+alu). Returns the accumulator after n rounds.
fn fusable_loop_app() -> DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lfu/Hot;", |c| {
        c.static_method("spin", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.const4(1, 0);
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop(Opcode::AddInt, 0, 0, 1);
            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 0x2f);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

/// Counts instruction events without recording them — its frames run per
/// step, never quickened or fused.
#[derive(Default)]
struct Counting(u64);

impl RuntimeObserver for Counting {
    fn on_instruction(&mut self, _rt: &Runtime, _ev: &InsnEvent<'_>) {
        self.0 += 1;
    }
}

#[test]
fn superinstructions_fire_only_for_passive_observers() {
    let dex = fusable_loop_app();
    let args = [Slot::from_int(500)];

    let mut rt = runtime_with(&dex);
    let mut obs = NullObserver;
    let quiet = rt
        .call_static(&mut obs, "Lfu/Hot;", "spin", "(I)I", &args)
        .unwrap();
    assert!(
        rt.stats.superinsn_hits > 0,
        "fusable pairs must dispatch fused under a passive observer"
    );

    let mut rt = runtime_with(&dex);
    let mut counter = Counting::default();
    let observed = rt
        .call_static(&mut counter, "Lfu/Hot;", "spin", "(I)I", &args)
        .unwrap();
    assert_eq!(
        (rt.stats.predecodes, rt.stats.superinsn_hits),
        (0, 0),
        "event-delivering observers run per step: no predecode, no fusion"
    );
    assert_eq!(
        quiet.as_int(),
        observed.as_int(),
        "fused == per-step result"
    );
    assert_eq!(counter.0, rt.stats.insns, "one event per instruction");
}

#[test]
fn branch_into_middle_of_fused_pair_runs_second_half() {
    // The loop body starts with a fusable add+xor pair, but the entry
    // goto jumps straight to the xor: the pair's second half must also be
    // executable standalone through its own cell.
    let mut pb = ProgramBuilder::new();
    pb.class("Lmid/C;", |c| {
        c.static_method("run", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let (top, mid) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.const4(1, 0);
            m.asm.goto(mid); // first entry lands mid-pair
            m.asm.bind(top);
            m.asm.binop(Opcode::AddInt, 0, 0, 1); // fused head
            m.asm.bind(mid);
            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 0x11); // fused second
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.if_cmp(Opcode::IfLt, 1, n, top);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    let dex = pb.build().unwrap();
    let args = [Slot::from_int(200)];

    let run = |obs: &mut dyn RuntimeObserver| {
        let mut rt = runtime_with(&dex);
        let mut last = None;
        for _ in 0..2 {
            last = rt
                .call_static(obs, "Lmid/C;", "run", "(I)I", &args)
                .unwrap()
                .as_int();
        }
        (last, rt.stats.superinsn_hits)
    };

    let (quick, hits) = run(&mut NullObserver);
    let (step, _) = run(&mut Counting::default());
    assert_eq!(quick, step, "mid-pair entry must not change the result");
    assert!(
        hits > 0,
        "the pair still dispatches fused when entered at its head"
    );
}
