//! Property: for arbitrary assembled methods, execution through the
//! quickened/fused fast path over the predecoded code cache and per-step
//! decoding produce the identical result.
//!
//! The observer picks the path: under `NullObserver` the interpreter runs
//! the quickened tier with superinstruction fusion, and under an
//! instruction-event observer it decodes every instruction per step — the
//! conformance oracle.

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_dex::DexFile;
use dexlego_runtime::observer::{InsnEvent, NullObserver, RuntimeObserver};
use dexlego_runtime::{Runtime, RuntimeError, Slot};
use proptest::prelude::*;

/// Records every instruction event: (dex_pc, opcode byte, raw units).
#[derive(Default)]
struct Recorder {
    events: Vec<(u32, u8, Vec<u16>)>,
}

impl RuntimeObserver for Recorder {
    fn on_instruction(&mut self, _rt: &Runtime, ev: &InsnEvent<'_>) {
        self.events
            .push((ev.dex_pc, ev.insn.op as u8, ev.units.to_vec()));
    }
}

/// One generated operation in the method body.
#[derive(Debug, Clone, Copy)]
enum GenOp {
    Const(i8),
    Xor(i8),
    Mul(i8),
    SkipIfNeg,
    PackedSwitch,
    SparseSwitch,
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        any::<i8>().prop_map(GenOp::Const),
        any::<i8>().prop_map(GenOp::Xor),
        any::<i8>().prop_map(GenOp::Mul),
        Just(GenOp::SkipIfNeg),
        Just(GenOp::PackedSwitch),
        Just(GenOp::SparseSwitch),
    ]
}

/// Assembles `Lgen/P;::run(I)I` from the generated ops. Registers:
/// v0 = accumulator, v1 = scratch, v2 = the parameter.
fn build(ops: &[GenOp]) -> DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lgen/P;", |c| {
        c.static_method("run", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            m.asm.const4(0, 0);
            m.asm.binop(Opcode::AddInt, 0, 0, n);
            for op in ops {
                match op {
                    GenOp::Const(v) => {
                        m.asm.const4(1, i64::from(*v));
                        m.asm.binop(Opcode::AddInt, 0, 0, 1);
                    }
                    GenOp::Xor(v) => {
                        m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, i64::from(*v));
                    }
                    GenOp::Mul(v) => {
                        m.asm.binop_lit8(Opcode::MulIntLit8, 0, 0, i64::from(*v));
                    }
                    GenOp::SkipIfNeg => {
                        let skip = m.asm.new_label();
                        m.asm.if_z(Opcode::IfLtz, 0, skip);
                        m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
                        m.asm.bind(skip);
                    }
                    GenOp::PackedSwitch => {
                        let after = m.asm.new_label();
                        let cases: Vec<u32> = (0..3).map(|_| m.asm.new_label()).collect();
                        m.asm.binop_lit8(Opcode::AndIntLit8, 1, 0, 3);
                        m.asm.packed_switch(1, 0, cases.clone());
                        m.asm.goto(after);
                        for (i, &case) in cases.iter().enumerate() {
                            m.asm.bind(case);
                            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 5 + i as i64);
                            m.asm.goto(after);
                        }
                        m.asm.bind(after);
                    }
                    GenOp::SparseSwitch => {
                        let after = m.asm.new_label();
                        let cases: Vec<u32> = (0..2).map(|_| m.asm.new_label()).collect();
                        m.asm.binop_lit8(Opcode::AndIntLit8, 1, 0, 7);
                        m.asm.sparse_switch(1, vec![2, 5], cases.clone());
                        m.asm.goto(after);
                        for (i, &case) in cases.iter().enumerate() {
                            m.asm.bind(case);
                            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 9 + i as i64);
                            m.asm.goto(after);
                        }
                        m.asm.bind(after);
                    }
                }
            }
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().unwrap()
}

/// Runs `run(arg)` twice on one runtime under `obs` and returns the second
/// result, so a quickened second execution exercises already-quickened
/// cells.
fn run_twice(
    dex: &DexFile,
    obs: &mut dyn RuntimeObserver,
    arg: i32,
) -> Result<Option<i32>, String> {
    let mut rt = Runtime::new();
    rt.load_dex(dex, "app").unwrap();
    let mut last = Err("never ran".to_owned());
    for _ in 0..2 {
        last = rt
            .call_static(obs, "Lgen/P;", "run", "(I)I", &[Slot::from_int(arg)])
            .map(|v| v.as_int())
            .map_err(|e: RuntimeError| e.to_string());
    }
    last
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With fusion engaged (passive observer, warm second call) the
    /// quickened fast path computes the per-step result.
    #[test]
    fn fused_execution_matches_per_step_results(
        ops in proptest::collection::vec(op_strategy(), 0..24),
        arg in any::<i16>(),
    ) {
        let dex = build(&ops);
        let quick = run_twice(&dex, &mut NullObserver, i32::from(arg));
        let mut rec = Recorder::default();
        let step = run_twice(&dex, &mut rec, i32::from(arg));
        prop_assert!(!rec.events.is_empty());
        prop_assert_eq!(quick, step);
    }
}
