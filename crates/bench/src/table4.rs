//! Table IV: dynamic taint trackers (TaintDroid, TaintART) versus
//! DexLego + HornDroid on the five DroidBench samples the paper selects.

use dexlego_analysis::dynamic::{taintart, taintdroid, DynamicTool};
use dexlego_analysis::tools::horndroid;
use dexlego_core::pipeline::reveal;
use dexlego_dalvik::builder::{MethodBuilder, ProgramBuilder};
use dexlego_dalvik::{Insn, Opcode};
use dexlego_droidbench::drive_sample;
use dexlego_droidbench::samples::Sample;
use dexlego_droidbench::Category;
use dexlego_runtime::Runtime;

fn mr_obj(m: &mut MethodBuilder<'_>, reg: u32) {
    let mut mr = Insn::of(Opcode::MoveResultObject);
    mr.a = reg;
    m.asm.push(mr);
}

fn mr_int(m: &mut MethodBuilder<'_>, reg: u32) {
    let mut mr = Insn::of(Opcode::MoveResult);
    mr.a = reg;
    m.asm.push(mr);
}

fn emit_source(m: &mut MethodBuilder<'_>, reg: u32) {
    m.invoke(
        Opcode::InvokeStatic,
        "Lcom/dexlego/Sensitive;",
        "getSensitiveData",
        &[],
        "Ljava/lang/String;",
        &[],
    );
    mr_obj(m, reg);
}

fn emit_sink(m: &mut MethodBuilder<'_>, reg: u32) {
    m.invoke(
        Opcode::InvokeStatic,
        "Lcom/dexlego/Net;",
        "send",
        &["Ljava/lang/String;"],
        "V",
        &[reg],
    );
}

fn listener_class(pb: &mut ProgramBuilder, name: &str) {
    pb.class(name, |c| {
        c.implements("Landroid/view/View$OnClickListener;");
        c.method("onClick", &["Landroid/view/View;"], "V", 2, |m| {
            emit_source(m, 0);
            emit_sink(m, 0);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
}

fn register_listener(m: &mut MethodBuilder<'_>, listener: &str) {
    m.new_instance(0, listener);
    m.new_instance(1, "Landroid/view/View;");
    m.invoke(
        Opcode::InvokeVirtual,
        "Landroid/view/View;",
        "setOnClickListener",
        &["Landroid/view/View$OnClickListener;"],
        "V",
        &[1, 0],
    );
}

/// Builds the five Table IV samples (as [`Sample`]s with a `Direct`
/// category placeholder — ground truth is the per-sample leak count below).
fn build_samples() -> Vec<(Sample, usize)> {
    let mut out = Vec::new();

    // Button1 — one leak via a callback.
    {
        let entry = "Lt4/button1/Main;".to_owned();
        let mut pb = ProgramBuilder::new();
        listener_class(&mut pb, "Lt4/button1/L;");
        pb.class(&entry, |c| {
            c.superclass("Landroid/app/Activity;");
            c.method("onCreate", &["Landroid/os/Bundle;"], "V", 2, |m| {
                register_listener(m, "Lt4/button1/L;");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        out.push((
            Sample {
                name: "Button1".into(),
                category: Category::Callback,
                dex: pb.build().expect("assembles"),
                entry,
                tampers: vec![],
            },
            1,
        ));
    }

    // Button3 — two leaks via two callbacks.
    {
        let entry = "Lt4/button3/Main;".to_owned();
        let mut pb = ProgramBuilder::new();
        listener_class(&mut pb, "Lt4/button3/L1;");
        listener_class(&mut pb, "Lt4/button3/L2;");
        pb.class(&entry, |c| {
            c.superclass("Landroid/app/Activity;");
            c.method("onCreate", &["Landroid/os/Bundle;"], "V", 2, |m| {
                register_listener(m, "Lt4/button3/L1;");
                register_listener(m, "Lt4/button3/L2;");
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        out.push((
            Sample {
                name: "Button3".into(),
                category: Category::Callback,
                dex: pb.build().expect("assembles"),
                entry,
                tampers: vec![],
            },
            2,
        ));
    }

    // EmulatorDetection1 — leaks only off-emulator.
    {
        let entry = "Lt4/emu/Main;".to_owned();
        let mut pb = ProgramBuilder::new();
        pb.class(&entry, |c| {
            c.superclass("Landroid/app/Activity;");
            c.method("onCreate", &["Landroid/os/Bundle;"], "V", 3, |m| {
                m.invoke(
                    Opcode::InvokeStatic,
                    "Lcom/dexlego/Env;",
                    "isEmulator",
                    &[],
                    "Z",
                    &[],
                );
                mr_int(m, 0);
                let skip = m.asm.new_label();
                m.asm.if_z(Opcode::IfNez, 0, skip);
                emit_source(m, 1);
                emit_sink(m, 1);
                m.asm.bind(skip);
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        out.push((
            Sample {
                name: "EmulatorDetection1".into(),
                category: Category::Direct,
                dex: pb.build().expect("assembles"),
                entry,
                tampers: vec![],
            },
            1,
        ));
    }

    // ImplicitFlow1 — two implicit leaks.
    {
        let entry = "Lt4/implicit/Main;".to_owned();
        let mut pb = ProgramBuilder::new();
        pb.class(&entry, |c| {
            c.superclass("Landroid/app/Activity;");
            c.method("onCreate", &["Landroid/os/Bundle;"], "V", 4, |m| {
                emit_source(m, 0);
                m.invoke(
                    Opcode::InvokeVirtual,
                    "Ljava/lang/String;",
                    "length",
                    &[],
                    "I",
                    &[0],
                );
                mr_int(m, 1);
                for _ in 0..2 {
                    let skip = m.asm.new_label();
                    m.const_str(2, "a");
                    m.asm.if_z(Opcode::IfEqz, 1, skip);
                    m.const_str(2, "b");
                    m.asm.bind(skip);
                    emit_sink(m, 2);
                }
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        out.push((
            Sample {
                name: "ImplicitFlow1".into(),
                category: Category::Implicit,
                dex: pb.build().expect("assembles"),
                entry,
                tampers: vec![],
            },
            2,
        ));
    }

    // PrivateDataLeak3 — one direct leak, one through an external file.
    {
        let entry = "Lt4/pdl3/Main;".to_owned();
        let mut pb = ProgramBuilder::new();
        pb.class(&entry, |c| {
            c.superclass("Landroid/app/Activity;");
            c.method("onCreate", &["Landroid/os/Bundle;"], "V", 4, |m| {
                emit_source(m, 0);
                emit_sink(m, 0); // direct leak
                m.const_str(1, "/sdcard/stash");
                m.invoke(
                    Opcode::InvokeStatic,
                    "Lcom/dexlego/Files;",
                    "write",
                    &["Ljava/lang/String;", "Ljava/lang/String;"],
                    "V",
                    &[1, 0],
                );
                m.invoke(
                    Opcode::InvokeStatic,
                    "Lcom/dexlego/Files;",
                    "read",
                    &["Ljava/lang/String;"],
                    "Ljava/lang/String;",
                    &[1],
                );
                mr_obj(m, 2);
                emit_sink(m, 2); // leak through the file system
                m.asm.ret(Opcode::ReturnVoid, 0);
            });
        });
        out.push((
            Sample {
                name: "PrivateDataLeak3".into(),
                category: Category::Direct,
                dex: pb.build().expect("assembles"),
                entry,
                tampers: vec![],
            },
            2,
        ));
    }

    out
}

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct Row {
    /// Sample name.
    pub sample: String,
    /// Ground-truth leak count.
    pub leaks: usize,
    /// Leaks detected by TaintDroid.
    pub taintdroid: usize,
    /// Leaks detected by TaintART.
    pub taintart: usize,
    /// Leaks detected by DexLego + HornDroid.
    pub dexlego_hd: usize,
}

fn dynamic_detect(tool: DynamicTool, sample: &Sample) -> usize {
    tool.detect_leaks(
        |rt| {
            let mut obs = dexlego_runtime::observer::NullObserver;
            let _ = sample.install(rt, &mut obs);
        },
        |rt, obs| {
            drive_sample(rt, obs, sample, 7, 4);
        },
    )
}

/// Runs Table IV.
pub fn run() -> Vec<Row> {
    // One row per sample, each with three tool runs on private runtimes —
    // sharded across the harness pool.
    dexlego_harness::parallel_map_expect(
        build_samples(),
        dexlego_harness::default_workers(),
        |(sample, leaks)| {
            let td = dynamic_detect(taintdroid(), &sample);
            let ta = dynamic_detect(taintart(), &sample);
            // DexLego on a real device, then HornDroid on the result.
            let mut rt = Runtime::new();
            let outcome = reveal(&mut rt, |rt, obs| {
                if sample.install(rt, obs).is_err() {
                    return;
                }
                drive_sample(rt, obs, &sample, 7, 4);
                // Fire the callbacks registered so far once each, in order.
                let _ = rt.fire_callbacks(obs, 0, rt.callbacks.len());
            })
            .expect("reveal succeeds");
            let hd = horndroid().run(&outcome.dex).leaks.len();
            Row {
                sample: sample.name,
                leaks,
                taintdroid: td,
                taintart: ta,
                dexlego_hd: hd,
            }
        },
    )
}

/// Formats Table IV.
pub fn format(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("Table IV — dynamic tools vs DexLego+HornDroid\n");
    out.push_str("sample              | leaks | TD | TA | DexLego+HD\n");
    for r in rows {
        out.push_str(&format!(
            "{:<19} | {:>5} | {:>2} | {:>2} | {:>10}\n",
            r.sample, r.leaks, r.taintdroid, r.taintart, r.dexlego_hd
        ));
    }
    out
}
