//! Criterion micro-benchmarks backing Figure 6 and Table VIII: interpreter
//! throughput with and without JIT collection, reassembly cost, and DEX
//! serialisation cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dexlego_core::pipeline::reveal;
use dexlego_core::JitCollector;
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_dex::{reader, writer, DexFile};
use dexlego_droidbench::appgen::{generate, AppSpec};
use dexlego_runtime::observer::NullObserver;
use dexlego_runtime::{Runtime, Slot};

/// Builds the arithmetic-loop workload used by the interpreter benches.
fn loop_app() -> DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class("Lbench/Loop;", |c| {
        c.static_method("spin", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.const4(1, 0);
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop(Opcode::AddInt, 0, 0, 1);
            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 0x33);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.build().expect("assembles")
}

fn bench_interpreter(c: &mut Criterion) {
    let dex = loop_app();
    let mut group = c.benchmark_group("interpreter");
    group.bench_function("plain_10k_insns", |b| {
        let mut rt = Runtime::new();
        rt.load_dex(&dex, "app").unwrap();
        let mut obs = NullObserver;
        b.iter(|| {
            rt.call_static(
                &mut obs,
                "Lbench/Loop;",
                "spin",
                "(I)I",
                &[Slot::from_int(2_500)],
            )
            .unwrap()
        });
    });
    group.bench_function("collected_10k_insns", |b| {
        let mut rt = Runtime::new();
        rt.load_dex(&dex, "app").unwrap();
        let mut collector = JitCollector::new();
        b.iter(|| {
            rt.call_static(
                &mut collector,
                "Lbench/Loop;",
                "spin",
                "(I)I",
                &[Slot::from_int(2_500)],
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let app = generate(&AppSpec::plain_profile("bench/pipeline", 2_500));
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.bench_function("reveal_2500_insn_app", |b| {
        b.iter_batched(
            Runtime::new,
            |mut rt| {
                let dex = app.dex.clone();
                let entry = app.entry.clone();
                reveal(&mut rt, move |rt, obs| {
                    if rt.load_dex_observed(&dex, "app", obs).is_ok() {
                        let _ = rt.launch(obs, &entry);
                    }
                })
                .unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_verifier(c: &mut Criterion) {
    let app = generate(&AppSpec::plain_profile("bench/verify", 10_000));
    let options = dexlego_verifier::VerifyOptions::default();
    let mut group = c.benchmark_group("verifier");
    group.bench_function("verify_10k_insn_dex", |b| {
        b.iter(|| dexlego_verifier::verify_dex(&app.dex, &options));
    });
    group.bench_function("verify_loop_method", |b| {
        let dex = loop_app();
        b.iter(|| dexlego_verifier::verify_dex(&dex, &options));
    });
    group.finish();
}

fn bench_dex_io(c: &mut Criterion) {
    let app = generate(&AppSpec::plain_profile("bench/io", 10_000));
    let canonical = dexlego_dalvik::canon::canonicalize(&app.dex).unwrap();
    let bytes = writer::write_dex(&canonical).unwrap();
    let mut group = c.benchmark_group("dex_io");
    group.bench_function("write_10k_insn_dex", |b| {
        b.iter(|| writer::write_dex(&canonical).unwrap());
    });
    group.bench_function("read_10k_insn_dex", |b| {
        b.iter(|| reader::read_dex(&bytes).unwrap());
    });
    group.bench_function("canonicalize_10k_insn_dex", |b| {
        b.iter(|| dexlego_dalvik::canon::canonicalize(&app.dex).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_pipeline,
    bench_verifier,
    bench_dex_io
);
criterion_main!(benches);
