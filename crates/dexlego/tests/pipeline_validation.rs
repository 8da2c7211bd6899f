//! The pipeline surfaces [`validate_reveal`] findings in
//! [`RevealOutcome::validation`] instead of requiring a separate call:
//! a clean reveal reports no findings, while a deliberately truncated
//! collection (dropped class record, emptied method trees) reassembles into
//! a DEX that is *missing* collected code — and the pipeline says so.
//!
//! [`validate_reveal`]: dexlego_core::pipeline::validate_reveal
//! [`RevealOutcome::validation`]: dexlego_core::pipeline::RevealOutcome

use dexlego_core::pipeline::{reassemble_collection, reveal, validate_reveal};
use dexlego_core::CollectionFiles;
use dexlego_dalvik::builder::ProgramBuilder;
use dexlego_dalvik::Opcode;
use dexlego_runtime::Runtime;

const MAIN: &str = "Lval/Main;";
const HELPER: &str = "Lval/Helper;";

fn build_app() -> dexlego_dex::DexFile {
    let mut pb = ProgramBuilder::new();
    pb.class(HELPER, |c| {
        c.static_method("triple", &["I"], "I", 2, |m| {
            let n = m.param_reg(0);
            m.asm.binop_lit8(Opcode::MulIntLit8, 0, n, 3);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    pb.class(MAIN, |c| {
        c.static_method("run", &[], "I", 2, |m| {
            m.asm.const4(0, 5);
            m.invoke(Opcode::InvokeStatic, HELPER, "triple", &["I"], "I", &[0]);
            let mut mr = dexlego_dalvik::Insn::of(Opcode::MoveResult);
            mr.a = 1;
            m.asm.push(mr);
            m.asm.ret(Opcode::Return, 1);
        });
    });
    pb.build().expect("assembles")
}

/// Reveals the small two-class app and returns its collection files.
fn collect() -> CollectionFiles {
    let mut rt = Runtime::new();
    let dex = build_app();
    let outcome = reveal(&mut rt, |rt, obs| {
        if rt.load_dex_observed(&dex, "app", obs).is_err() {
            return;
        }
        let _ = rt.call_static(obs, MAIN, "run", "()I", &[]);
    })
    .expect("reveal succeeds");
    assert!(
        outcome.validation.is_empty(),
        "clean reveal must validate: {:?}",
        outcome.validation
    );
    outcome.files
}

#[test]
fn clean_collection_reports_no_findings_and_phase_timings() {
    let mut rt = Runtime::new();
    let dex = build_app();
    let outcome = reveal(&mut rt, |rt, obs| {
        if rt.load_dex_observed(&dex, "app", obs).is_err() {
            return;
        }
        let _ = rt.call_static(obs, MAIN, "run", "()I", &[]);
    })
    .expect("reveal succeeds");
    assert!(outcome.validation.is_empty());
    // Every pipeline phase shows up in the metrics, in execution order.
    let names: Vec<&str> = outcome.metrics.phases().iter().map(|&(n, _)| n).collect();
    assert_eq!(
        names,
        [
            "collect",
            "serialize",
            "tree_merge",
            "dexgen",
            "canonicalize",
            "verify",
            "validate"
        ]
    );
    assert!(outcome.metrics.counter("methods_collected").unwrap() >= 2);
    assert!(outcome.metrics.counter("insns_collected").unwrap() > 0);
    assert_eq!(outcome.metrics.counter("validation_findings"), Some(0));
}

#[test]
fn truncated_class_file_is_flagged_by_the_pipeline() {
    let mut files = collect();
    // Truncate the class-data file: drop the helper class record. Its
    // collected method can no longer be emitted, so the reassembled DEX is
    // missing code that was observed executing.
    let before = files.classes.len();
    files.classes.retain(|c| c.descriptor != HELPER);
    assert_eq!(
        files.classes.len(),
        before - 1,
        "helper class was collected"
    );
    let outcome = reassemble_collection(files).expect("reassembly still succeeds");
    assert!(
        outcome
            .validation
            .iter()
            .any(|p| p.contains(HELPER) && p.contains("class missing from output")),
        "truncated class must be reported: {:?}",
        outcome.validation
    );
}

#[test]
fn truncated_method_trees_are_flagged_by_the_pipeline() {
    let mut files = collect();
    // Truncate the bytecode file: empty one collected method's trees. The
    // reassembler skips bodiless records, so the method vanishes from the
    // output while remaining in the collection.
    let record = files
        .methods
        .iter_mut()
        .find(|m| m.key.class == HELPER)
        .expect("helper method collected");
    record.trees.clear();
    let outcome = reassemble_collection(files).expect("reassembly still succeeds");
    assert!(
        outcome
            .validation
            .iter()
            .any(|p| p.contains("triple") && p.contains("method missing from output")),
        "truncated method must be reported: {:?}",
        outcome.validation
    );
}

/// The finding texts are part of the job status a client sees, so they
/// are pinned exactly. A `name$v…` variant stands in for its method; a
/// method whose name merely starts with the collected one does not.
#[test]
fn findings_name_the_exact_missing_class_method_and_opcode() {
    let files = collect();

    // `run` survives only as the variant `run$v1`; the helper class is gone.
    let mut pb = ProgramBuilder::new();
    pb.class(MAIN, |c| {
        c.static_method("run$v1", &[], "I", 2, |m| {
            m.asm.const4(0, 5);
            m.invoke(Opcode::InvokeStatic, HELPER, "triple", &["I"], "I", &[0]);
            let mut mr = dexlego_dalvik::Insn::of(Opcode::MoveResult);
            mr.a = 1;
            m.asm.push(mr);
            m.asm.ret(Opcode::Return, 1);
        });
    });
    let variant_only = pb.build().expect("assembles");
    assert_eq!(
        validate_reveal(&files, &variant_only),
        ["Lval/Helper;->triple(I)I: class missing from output"]
    );

    // `runner` is not a variant of `run`, and `triple` lost its multiply.
    let mut pb = ProgramBuilder::new();
    pb.class(HELPER, |c| {
        c.static_method("triple", &["I"], "I", 2, |m| {
            let n = m.param_reg(0);
            m.asm.ret(Opcode::Return, n);
        });
    });
    pb.class(MAIN, |c| {
        c.static_method("runner", &[], "I", 2, |m| {
            m.asm.const4(0, 5);
            m.asm.ret(Opcode::Return, 0);
        });
    });
    assert_eq!(
        validate_reveal(&files, &pb.build().expect("assembles")),
        [
            "Lval/Main;->run()I: method missing from output",
            "Lval/Helper;->triple(I)I: collected opcode 0xda at pc 0 missing from output",
        ]
    );
}

/// Phase and counter names of an outcome, in recording order.
fn names(outcome: &dexlego_core::RevealOutcome) -> (Vec<&'static str>, Vec<&'static str>) {
    let phases = outcome.metrics.phases().iter().map(|&(n, _)| n).collect();
    let counters = outcome.metrics.counters().iter().map(|&(n, _)| n).collect();
    (phases, counters)
}

/// A reassembled DEX of at least `OVERLAP_THRESHOLD` code units is
/// validated beside the verifier. Its findings, phases and counters must
/// be what the sequential order records for a small one.
#[test]
fn large_truncated_collection_keeps_its_findings_and_order() {
    use dexlego_core::pipeline::OVERLAP_THRESHOLD;
    let dex = {
        let mut pb = ProgramBuilder::new();
        pb.class(HELPER, |c| {
            c.static_method("triple", &["I"], "I", 2, |m| {
                let n = m.param_reg(0);
                m.asm.binop_lit8(Opcode::MulIntLit8, 0, n, 3);
                m.asm.ret(Opcode::Return, 0);
            });
        });
        pb.class(MAIN, |c| {
            c.static_method("run", &[], "I", 2, |m| {
                for _ in 0..OVERLAP_THRESHOLD {
                    m.asm.nop();
                }
                m.asm.const4(0, 5);
                m.invoke(Opcode::InvokeStatic, HELPER, "triple", &["I"], "I", &[0]);
                let mut mr = dexlego_dalvik::Insn::of(Opcode::MoveResult);
                mr.a = 1;
                m.asm.push(mr);
                m.asm.ret(Opcode::Return, 1);
            });
        });
        pb.build().expect("assembles")
    };
    let mut rt = Runtime::new();
    let mut files = reveal(&mut rt, |rt, obs| {
        rt.load_dex_observed(&dex, "app", obs).unwrap();
        rt.call_static(obs, MAIN, "run", "()I", &[]).unwrap();
    })
    .expect("reveal succeeds")
    .files;
    files.classes.retain(|c| c.descriptor != HELPER);
    let large = reassemble_collection(files.clone()).expect("reassembly still succeeds");
    assert!(large.dex.code_units() >= OVERLAP_THRESHOLD);
    assert_eq!(large.validation, validate_reveal(&files, &large.dex));
    assert!(
        large
            .validation
            .iter()
            .any(|p| p.contains(HELPER) && p.contains("class missing from output")),
        "{:?}",
        large.validation
    );

    let mut small = collect();
    small.classes.retain(|c| c.descriptor != HELPER);
    let small = reassemble_collection(small).expect("reassembly still succeeds");
    assert!(small.dex.code_units() < OVERLAP_THRESHOLD);
    assert_eq!(names(&large), names(&small));
}
