//! Interpreter fetch microbenchmark: decode-per-step versus the
//! quickened/fused fast path over the predecoded code cache, reported as
//! instructions per second.
//!
//! Two workloads exercise the two fetch-sensitive paths: a tight
//! arithmetic loop (pure instruction fetch) and a switch-heavy loop
//! whose every iteration dispatches through a packed-switch payload
//! (payload-table fetch). The observer picks the path: the quickened
//! column runs under [`NullObserver`], the per-step column under a no-op
//! observer that wants instruction events, as the collector does.

use std::time::Instant;

use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_dex::DexFile;
use dexlego_harness::json;
use dexlego_runtime::observer::{NullObserver, RuntimeObserver};
use dexlego_runtime::{Runtime, Slot};

/// A no-op observer that wants instruction events, so every frame runs
/// per step.
struct PerStep;

impl RuntimeObserver for PerStep {}

/// One workload measured on both fetch paths.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (`hot_loop` or `switch_loop`).
    pub name: String,
    /// Instructions interpreted per timed call.
    pub insns_per_call: u64,
    /// Best-of-N instructions/sec with per-step decoding.
    pub decode_per_step: f64,
    /// Best-of-N instructions/sec with quickening, superinstructions, and
    /// table dispatch on top of the predecoded cache.
    pub quickened: f64,
}

impl WorkloadResult {
    /// Quickened speedup over per-step decoding.
    pub fn quick_speedup(&self) -> f64 {
        self.quickened / self.decode_per_step.max(1e-9)
    }
}

/// Builds the benchmark app: `hotLoop(n)` is a tight arithmetic loop,
/// `switchLoop(n)` dispatches through a packed switch every iteration.
fn benchmark_app() -> (DexFile, String) {
    let entry = "Linterp/Bench;".to_owned();
    let mut pb = ProgramBuilder::new();
    pb.class(&entry, |c| {
        // int hotLoop(int n): fetch-bound arithmetic loop.
        c.static_method("hotLoop", &["I"], "I", 3, |m| {
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
        // int switchLoop(int n): packed-switch dispatch per iteration.
        c.static_method("switchLoop", &["I"], "I", 4, |m| {
            let n = m.param_reg(0);
            let (top, done, inc) = (m.asm.new_label(), m.asm.new_label(), m.asm.new_label());
            let cases: Vec<u32> = (0..4).map(|_| m.asm.new_label()).collect();
            m.asm.const4(0, 0); // acc
            m.asm.const4(1, 0); // i
            m.asm.bind(top);
            m.asm.if_cmp(Opcode::IfGe, 1, n, done);
            m.asm.binop_lit8(Opcode::AndIntLit8, 2, 1, 3);
            m.asm.packed_switch(2, 0, cases.clone());
            m.asm.goto(inc); // unreachable default
            m.asm.bind(cases[0]);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.goto(inc);
            m.asm.bind(cases[1]);
            m.asm.binop_lit8(Opcode::XorIntLit8, 0, 0, 0x2f);
            m.asm.goto(inc);
            m.asm.bind(cases[2]);
            m.asm.binop_lit8(Opcode::MulIntLit8, 0, 0, 3);
            m.asm.goto(inc);
            m.asm.bind(cases[3]);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, -1);
            m.asm.bind(inc);
            m.asm.binop_lit8(Opcode::AddIntLit8, 1, 1, 1);
            m.asm.goto(top);
            m.asm.bind(done);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    (pb.build().expect("assembles"), entry)
}

/// Best-of-`repeats` instructions/sec for one method under `obs`, plus
/// the per-call instruction count.
fn measure(
    dex: &DexFile,
    entry: &str,
    method: &str,
    obs: &mut dyn RuntimeObserver,
    n: i32,
    repeats: u32,
) -> (f64, u64) {
    let mut rt = Runtime::new();
    rt.load_dex(dex, "app").expect("loads");
    let args = [Slot::from_int(n)];
    // Warm-up call: class init, the code-cache build (quickened path), and
    // call-site quickening, so timed calls hit rewritten cells.
    rt.call_static(obs, entry, method, "(I)I", &args)
        .expect("runs");
    let mut best = 0.0f64;
    let mut per_call = 0u64;
    for _ in 0..repeats {
        let before = rt.stats.insns;
        let start = Instant::now();
        rt.call_static(obs, entry, method, "(I)I", &args)
            .expect("runs");
        let elapsed = start.elapsed().as_secs_f64();
        per_call = rt.stats.insns - before;
        best = best.max(per_call as f64 / elapsed.max(1e-9));
    }
    (best, per_call)
}

/// Runs both workloads on both paths.
pub fn run(iterations: i32, repeats: u32) -> Vec<WorkloadResult> {
    let (dex, entry) = benchmark_app();
    [("hot_loop", "hotLoop"), ("switch_loop", "switchLoop")]
        .into_iter()
        .map(|(name, method)| {
            let (step, insns) = measure(&dex, &entry, method, &mut PerStep, iterations, repeats);
            let (quick, _) = measure(&dex, &entry, method, &mut NullObserver, iterations, repeats);
            WorkloadResult {
                name: name.to_owned(),
                insns_per_call: insns,
                decode_per_step: step,
                quickened: quick,
            }
        })
        .collect()
}

/// Formats the results as one JSON object.
pub fn format(results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            json::object(&[
                ("name", json::string(&r.name)),
                ("insns_per_call", r.insns_per_call.to_string()),
                (
                    "decode_per_step_insns_per_s",
                    format!("{:.0}", r.decode_per_step),
                ),
                ("quickened_insns_per_s", format!("{:.0}", r.quickened)),
                ("quick_speedup", format!("{:.2}", r.quick_speedup())),
            ])
        })
        .collect();
    json::object(&[
        ("experiment", json::string("interp")),
        ("workloads", json::array(&workloads)),
    ])
}
