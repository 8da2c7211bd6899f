//! Figure 6: CF-Bench-style performance scores under the unmodified
//! runtime versus the runtime with DexLego's JIT collection attached.
//!
//! A *score* is work completed per unit time (higher is better), measured
//! for a Java-heavy workload (pure bytecode), a native-heavy workload
//! (most time inside native methods, which the collector does not trace),
//! and the CF-Bench-style overall blend.

use std::time::Instant;

use dexlego_core::JitCollector;
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::{Insn, Opcode};
use dexlego_dex::DexFile;
use dexlego_runtime::observer::NullObserver;
use dexlego_runtime::{RetVal, Runtime, Slot};

use crate::stats::median;

/// Scores for one runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scores {
    /// Java (bytecode-interpretation) score.
    pub java: f64,
    /// Native score.
    pub native: f64,
    /// Overall score (CF-Bench weights the memory/overall mix; we use the
    /// geometric mean of the two components).
    pub overall: f64,
}

/// Figure 6 result: both configurations plus derived slowdowns.
#[derive(Debug, Clone, Copy)]
pub struct Fig6 {
    /// Unmodified ART scores.
    pub unmodified: Scores,
    /// DexLego-instrumented scores.
    pub dexlego: Scores,
}

impl Fig6 {
    /// (java, native, overall) slowdown factors.
    pub fn slowdown(&self) -> (f64, f64, f64) {
        (
            self.unmodified.java / self.dexlego.java,
            self.unmodified.native / self.dexlego.native,
            self.unmodified.overall / self.dexlego.overall,
        )
    }
}

/// Builds the benchmark app: `javaWork(n)` spins in bytecode, `nativeWork
/// (n)` spends its time inside a native method.
fn benchmark_app() -> (DexFile, String) {
    let entry = "Lcfbench/Main;".to_owned();
    let mut pb = ProgramBuilder::new();
    pb.class(&entry, |c| {
        // int javaWork(int n): tight arithmetic loop.
        c.static_method("javaWork", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0); // acc
            m.asm.const4(1, 0); // i
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop(Opcode::AddInt, 0, 0, 1);
            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 0x2f);
            m.asm.binop_lit8(Opcode::MulIntLit8, 0, 0, 3);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
        // int nativeWork(int n): loop of calls into a heavy native.
        c.static_method("nativeWork", &["I"], "I", 3, |m| {
            let n = m.param_reg(0);
            let (top, done) = (m.asm.new_label(), m.asm.new_label());
            m.asm.const4(0, 0);
            m.asm.const4(1, 0);
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.invoke(
                Opcode::InvokeStatic,
                "Lcfbench/NativeWork;",
                "spin",
                &["I"],
                "I",
                &[0],
            );
            let mut mr = Insn::of(Opcode::MoveResult);
            mr.a = 0;
            m.asm.push(mr);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    (pb.build().expect("assembles"), entry)
}

fn setup_runtime(dex: &DexFile) -> Runtime {
    let mut rt = Runtime::new();
    rt.load_dex(dex, "app").expect("loads");
    // The heavy native: a Rust-side spin that dwarfs its call overhead.
    rt.natives
        .register("Lcfbench/NativeWork;", "spin", "(I)I", |_, _, args| {
            let mut acc = args[0].as_int();
            for i in 0..2_000 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            Ok(RetVal::Single(Slot::from_int(acc)))
        });
    rt
}

/// Work per millisecond over a fixed number of calls.
fn score<F>(mut run_once: F) -> f64
where
    F: FnMut(),
{
    const ITERS: u32 = 12;
    let start = Instant::now();
    for _ in 0..ITERS {
        run_once();
    }
    let elapsed = start.elapsed().as_secs_f64();
    f64::from(ITERS) / (elapsed * 1000.0)
}

/// Rounds per configuration. Each round times both configurations back to
/// back, so host drift during a run hits both alike, and the median of
/// the rounds drops the ones a stall landed in.
pub const ROUNDS: usize = 9;

/// One configuration's runtimes and observer, kept across rounds.
struct Config {
    java_rt: Runtime,
    native_rt: Runtime,
    collector: Option<JitCollector>,
    java: Vec<f64>,
    native: Vec<f64>,
}

impl Config {
    fn new(dex: &DexFile, collected: bool) -> Config {
        Config {
            java_rt: setup_runtime(dex),
            native_rt: setup_runtime(dex),
            collector: collected.then(JitCollector::new),
            java: Vec::new(),
            native: Vec::new(),
        }
    }

    /// Times one round of both workloads.
    fn round(&mut self, entry: &str) {
        let mut null = NullObserver;
        let obs: &mut dyn dexlego_runtime::RuntimeObserver = match &mut self.collector {
            Some(collector) => collector,
            None => &mut null,
        };
        let java_rt = &mut self.java_rt;
        self.java.push(score(|| {
            java_rt
                .call_static(obs, entry, "javaWork", "(I)I", &[Slot::from_int(20_000)])
                .expect("runs");
        }));
        let native_rt = &mut self.native_rt;
        self.native.push(score(|| {
            native_rt
                .call_static(obs, entry, "nativeWork", "(I)I", &[Slot::from_int(300)])
                .expect("runs");
        }));
    }

    fn scores(&self) -> Scores {
        let java = median(&self.java);
        let native = median(&self.native);
        Scores {
            java,
            native,
            overall: (java * native).sqrt(),
        }
    }
}

/// Runs Figure 6: [`ROUNDS`] rounds, each timing the unmodified and the
/// DexLego configuration back to back (in alternating order), and the
/// median score of each.
pub fn run() -> Fig6 {
    let (dex, entry) = benchmark_app();
    let mut unmodified = Config::new(&dex, false);
    let mut dexlego = Config::new(&dex, true);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            unmodified.round(&entry);
            dexlego.round(&entry);
        } else {
            dexlego.round(&entry);
            unmodified.round(&entry);
        }
    }
    Fig6 {
        unmodified: unmodified.scores(),
        dexlego: dexlego.scores(),
    }
}

/// Formats Figure 6.
pub fn format(f: &Fig6) -> String {
    let (java, native, overall) = f.slowdown();
    format!(
        "Figure 6 — CF-Bench-style scores (higher is better), median of {ROUNDS} alternating rounds\n\
         config      | java    | native  | overall\n\
         unmodified  | {:>7.2} | {:>7.2} | {:>7.2}\n\
         DexLego     | {:>7.2} | {:>7.2} | {:>7.2}\n\
         slowdown    | {:>6.2}x | {:>6.2}x | {:>6.2}x\n",
        f.unmodified.java,
        f.unmodified.native,
        f.unmodified.overall,
        f.dexlego.java,
        f.dexlego.native,
        f.dexlego.overall,
        java,
        native,
        overall,
    )
}
