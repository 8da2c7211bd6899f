//! A job at or above [`OVERLAP_THRESHOLD`] code units runs its
//! independent stages side by side; one below it runs them in order.
//! Either way the job must report what the sequential composition of the
//! public calls reports: the same status and detail, the same counters
//! and phase names, the same revealed bytes. Each test here compares
//! `execute_job_revealing` against that composition, above and below the
//! threshold and on the failure paths where a side branch's result must
//! not count.

use std::sync::Mutex;
use std::time::Instant;

use dexlego_core::pipeline::{reveal, OVERLAP_THRESHOLD};
use dexlego_core::DexLegoError;
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::{Insn, Opcode};
use dexlego_dex::reader::read_dex;
use dexlego_dex::writer::write_dex;
use dexlego_dex::DexFile;
use dexlego_droidbench::appgen::{generate, AppSpec};
use dexlego_droidbench::build_suite;
use dexlego_harness::job::{drive, Stop};
use dexlego_harness::{
    all_packers, check_reveal, check_revealed, execute_job_revealing, trace_original, JobReport,
    JobSpec, JobStatus,
};
use dexlego_packer::pack;
use dexlego_runtime::{Env, Runtime};
use dexlego_verifier::clear_verify_cache;

/// The verify cache is process-wide and its hit counters are part of a
/// report, so the tests of this file run one at a time, each run starting
/// from an empty cache.
static SERIAL: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The job as the sequential composition of public calls: pack, collect
/// and reassemble under `reveal`, then its gates in order, then
/// `check_reveal` and `write_dex`.
fn serial(spec: &JobSpec) -> (JobReport, Option<Vec<u8>>) {
    let mut report = JobReport::empty(spec.name.clone(), spec.packer.map(|id| id.profile().name));
    let packed = match spec.packer.map(|id| pack(&spec.dex, &spec.entry, id)) {
        Some(Err(e)) => {
            report.status = JobStatus::SetupFailed(format!("pack failed: {e}"));
            return (report, None);
        }
        packed => packed.map(Result::unwrap),
    };
    let mut rt = Runtime::with_env(Env {
        insn_budget: spec.fuel,
        ..Env::default()
    });
    let mut stop = None;
    let result = reveal(&mut rt, |rt, obs| {
        stop = drive(rt, obs, spec, packed.as_ref(), spec.effective_events()).err();
    });
    report.insns = rt.stats.insns;
    report.frames = rt.stats.frames;
    let mut bytes = None;
    report.status = match (stop, result) {
        (Some(Stop::Setup(e)), _) => JobStatus::SetupFailed(e),
        (Some(Stop::Timeout), Ok(outcome)) => {
            report.absorb(&outcome);
            JobStatus::Timeout
        }
        (Some(Stop::Timeout), Err(_)) => JobStatus::Timeout,
        (None, Err(DexLegoError::Verification(diags))) => {
            report.verifier_errors = diags.len() as u64;
            let details: Vec<String> = diags.iter().map(ToString::to_string).collect();
            JobStatus::VerifierRejected(details.join("; "))
        }
        (None, Err(e)) => JobStatus::ReassemblyFailed(e.to_string()),
        (None, Ok(outcome)) => {
            report.absorb(&outcome);
            let conforms = || {
                if !spec.check_conformance {
                    return Ok(());
                }
                let events = spec.effective_events();
                check_reveal(
                    &spec.dex,
                    &outcome.dex,
                    &spec.entry,
                    &spec.seeds,
                    events,
                    spec.fuel,
                )
            };
            if !outcome.validation.is_empty() {
                JobStatus::ValidationFailed(outcome.validation.clone())
            } else if let Err(diff) = conforms() {
                JobStatus::ConformanceMismatch(diff)
            } else {
                bytes = write_dex(&outcome.dex).ok();
                JobStatus::Ok
            }
        }
    };
    (report, bytes)
}

/// Runs `spec` through `execute_job_revealing` and through [`serial`],
/// each from an empty verify cache, requires every observable part of the
/// two results to match, and returns the job's report.
fn assert_matches_serial(spec: &JobSpec) -> JobReport {
    clear_verify_cache();
    let (job, job_bytes) = execute_job_revealing(spec.clone());
    clear_verify_cache();
    let (want, want_bytes) = serial(spec);
    let name = &spec.name;
    assert_eq!(job.status.label(), want.status.label(), "{name}");
    assert_eq!(job.status.detail(), want.status.detail(), "{name}");
    let counters = |r: &JobReport| r.counters().collect::<Vec<_>>();
    assert_eq!(counters(&job), counters(&want), "{name}");
    let phases = |r: &JobReport| {
        r.phases_us
            .iter()
            .map(|(p, _)| p.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(phases(&job), phases(&want), "{name}");
    assert_eq!(job_bytes, want_bytes, "{name}");
    if let Some(bytes) = &job_bytes {
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "{name}: revealed bytes exact-size"
        );
    }
    job
}

/// A static method of `units` `nop`s that nothing calls: it takes an app
/// over the threshold without changing what the app does.
fn pad(pb: &mut ProgramBuilder, class: &str, units: usize) {
    pb.class(class, |c| {
        c.static_method("pad", &[], "V", 1, |m| {
            for _ in 0..units {
                m.asm.nop();
            }
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
}

fn above_threshold(dex: &DexFile) -> bool {
    dex.code_units() >= OVERLAP_THRESHOLD
}

#[test]
fn overlapped_jobs_match_the_serial_composition() {
    let _serial = one_at_a_time();
    let app = generate(&AppSpec::plain_profile("overlap/app", 10_000));
    assert!(above_threshold(&app.dex), "{} units", app.dex.code_units());
    let mut ok = 0;
    for packer in all_packers() {
        let tag = packer.map_or("plain", |id| id.profile().name);
        let mut spec = JobSpec::new(&format!("overlap@{tag}"), app.dex.clone(), &app.entry);
        spec.packer = packer;
        spec.seeds = vec![1, 5];
        spec.events = 2;
        spec.check_conformance = true;
        ok += usize::from(assert_matches_serial(&spec).status.is_ok());
    }
    assert!(ok > 0, "no configuration revealed a DEX");
}

#[test]
fn sequential_jobs_match_the_serial_composition() {
    let _serial = one_at_a_time();
    let mut ok = 0;
    for sample in build_suite().into_iter().filter(|s| s.tampers.is_empty()) {
        assert!(!above_threshold(&sample.dex), "{}", sample.name);
        let mut spec = JobSpec::new(&sample.name, sample.dex, &sample.entry);
        spec.check_conformance = true;
        ok += usize::from(assert_matches_serial(&spec).status.is_ok());
    }
    assert!(ok > 0, "no sample revealed a DEX");
}

#[test]
fn runaway_app_above_the_threshold_times_out() {
    let _serial = one_at_a_time();
    const FUEL: u64 = 100_000;
    let entry = "Lovl/Spin;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.superclass("Landroid/app/Activity;");
        c.method("onCreate", &["Landroid/os/Bundle;"], "V", 2, |m| {
            m.asm.const4(0, 0);
            let top = m.asm.new_label();
            m.asm.bind(top);
            m.asm.binop_lit8(Opcode::AddIntLit8, 0, 0, 1);
            m.asm.goto(top);
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    pad(&mut pb, "Lovl/Pad;", OVERLAP_THRESHOLD);
    let mut spec = JobSpec::new("spin", pb.build().unwrap(), entry);
    assert!(above_threshold(&spec.dex));
    spec.fuel = FUEL;
    spec.check_conformance = true;
    let start = Instant::now();
    let report = assert_matches_serial(&spec);
    assert_eq!(report.status, JobStatus::Timeout);
    // The job stopped at its budget, and so did the original's trace
    // beside it: the job returned.
    assert!(
        (FUEL..=2 * FUEL).contains(&report.insns),
        "{}",
        report.insns
    );
    eprintln!(
        "runaway job and its serial composition: {:?}",
        start.elapsed()
    );
}

/// An app whose entry activity's constructor throws, so tracing the
/// original fails ("cannot instantiate"). A packed job still collects and
/// reveals it: the shell's launch failing is an app crash, not a setup
/// failure. With `unverifiable`, the constructor first adds the receiver
/// as an int, which the interpreter's untyped slots run and the verifier
/// rejects.
fn throwing_entry_job(name: &str, unverifiable: bool) -> JobSpec {
    let entry = "Lovl/Throws;";
    let mut pb = ProgramBuilder::new();
    pb.class(entry, |c| {
        c.superclass("Landroid/app/Activity;");
        c.constructor(&[], 2, |m| {
            let this = m.this_reg();
            m.asm.const4(0, 0);
            if unverifiable {
                m.asm.binop(Opcode::AddInt, 1, 0, this);
            }
            let mut throw = Insn::of(Opcode::Throw);
            throw.a = 0;
            m.asm.push(throw);
        });
        c.method("onCreate", &["Landroid/os/Bundle;"], "V", 0, |m| {
            m.asm.ret(Opcode::ReturnVoid, 0);
        });
    });
    pad(&mut pb, "Lovl/Pad;", OVERLAP_THRESHOLD);
    let mut spec = JobSpec::new(name, pb.build().unwrap(), entry);
    assert!(above_threshold(&spec.dex));
    spec.packer = Some(dexlego_packer::PackerId::P360);
    spec.check_conformance = true;
    spec
}

#[test]
fn failing_original_trace_is_read_only_where_the_serial_order_reads_it() {
    let _serial = one_at_a_time();
    // The reveal passes every gate: the original trace's failure is the
    // conformance verdict.
    let report = assert_matches_serial(&throwing_entry_job("trace-fails", false));
    let detail = report.status.detail().unwrap_or_default();
    assert_eq!(report.status.label(), "conformance-mismatch", "{detail}");
    assert!(detail.contains("original trace failed"), "{detail}");
    // The reveal fails verification: the serial order never traces.
    let report = assert_matches_serial(&throwing_entry_job("rejected", true));
    assert_eq!(report.status.label(), "verifier-rejected");
}

#[test]
fn mutated_reveal_keeps_its_mismatch_detail() {
    let _serial = one_at_a_time();
    let app = generate(&AppSpec::plain_profile("overlap/mutated", 10_000));
    assert!(above_threshold(&app.dex));
    let mut spec = JobSpec::new("mutated", app.dex.clone(), &app.entry);
    spec.seeds = vec![1, 5];
    let (report, bytes) = execute_job_revealing(spec.clone());
    assert!(report.status.is_ok(), "{:?}", report.status);
    let mut revealed = read_dex(&bytes.expect("revealed bytes")).unwrap();
    // Empty the entry's longest method body: the revealed app then stops
    // short of the original's events.
    let entry_class = (0..revealed.class_defs().len())
        .find(|&i| {
            revealed.type_descriptor(revealed.class_defs()[i].class_idx) == Ok(app.entry.as_str())
        })
        .expect("entry class revealed");
    let data = revealed.class_defs_mut()[entry_class]
        .class_data
        .as_mut()
        .unwrap();
    let code = data
        .direct_methods
        .iter_mut()
        .chain(data.virtual_methods.iter_mut())
        .filter_map(|m| m.code.as_mut())
        .max_by_key(|c| c.insns.len())
        .unwrap();
    code.insns = vec![0x000e];
    code.tries.clear();
    code.handlers.clear();
    let events = spec.effective_events();
    let composed = check_reveal(
        &app.dex,
        &revealed,
        &app.entry,
        &spec.seeds,
        events,
        spec.fuel,
    );
    let traces = trace_original(&app.dex, &app.entry, &spec.seeds, events, spec.fuel);
    let split = check_revealed(traces, &revealed, &app.entry, events, spec.fuel);
    let diff = composed.expect_err("the mutation is caught");
    assert_eq!(split, Err(diff.clone()));
    assert!(diff.starts_with("seed 1: "), "{diff}");
}
