//! Golden digests of the verifier's observable output.
//!
//! Every diagnostic and every typed-IR value the verifier produces is
//! rendered to text and hashed, one SHA-1 per input DEX, under three
//! option sets: the default, `errors_only()`, and one sequential worker
//! from an empty cache (labelled `reference`, the name the digests were
//! first recorded under), so the third section is an independent run and
//! not a cache hit of the first. The digests in `golden/verify_digests.txt`
//! pin that output, so a change to CFG construction, the fixpoint or IR
//! materialisation that alters any diagnostic, frame, successor list,
//! def-use set or pc lookup fails here, whatever the certificate checker
//! accepts.
//!
//! Inputs: the DroidBench suite, two coverage-profile apps (catch handlers
//! and dead code, so lints fire) and one generated app revealed under all
//! seven packer configurations. The revealed files' own SHA-1 is pinned
//! too, so a reassembly change shows up as that and not as a verifier
//! change.
//!
//! On a mismatch the test prints every actual `name digest` line. After an
//! intended change of verifier output (which also bumps
//! `VERIFIER_VERSION`), those lines replace the golden file's.

use std::fmt::Write as _;

use dexlego_suite::dex::checksum::sha1;
use dexlego_suite::dex::reader::read_dex;
use dexlego_suite::dex::DexFile;
use dexlego_suite::droidbench::appgen::{generate, AppSpec};
use dexlego_suite::droidbench::build_suite;
use dexlego_suite::harness::{all_packers, execute_job_revealing, JobSpec};
use dexlego_suite::verifier::{
    clear_verify_cache, verify_dex_typed, Diagnostic, TypedDex, VerifyOptions,
};

const GOLDEN: &str = include_str!("golden/verify_digests.txt");

fn hex(digest: [u8; 20]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Appends everything observable about one typed verification: each
/// diagnostic, then per method its identity fields and, per instruction,
/// the pc, instruction, reachability, entry frame, successors, uses, defs
/// and the `index_of_pc` round trip (at the pc and one unit past it).
fn render(out: &mut String, typed: &TypedDex) {
    for d in &typed.diagnostics {
        writeln!(out, "{d:?}").unwrap();
    }
    for ir in &typed.methods {
        writeln!(
            out,
            "method #{} {} class={} name={} regs={} ins={} len={}",
            ir.method_idx,
            ir.signature,
            ir.class,
            ir.name,
            ir.registers,
            ir.ins,
            ir.len()
        )
        .unwrap();
        for (i, ti) in ir.insns().enumerate() {
            writeln!(
                out,
                "{i} pc={} {:?} reachable={} frame={:?} succs={:?} uses={:?} defs={:?} at={:?} next={:?}",
                ti.pc(),
                ti.insn(),
                ti.reachable(),
                ti.frame(),
                ti.succs(),
                ti.uses(),
                ti.defs(),
                ir.index_of_pc(ti.pc()),
                ir.index_of_pc(ti.pc() + 1),
            )
            .unwrap();
        }
    }
}

/// One digest over the DEX's renderings under all three option sets,
/// and the diagnostics of the default run.
fn verify_digest(dex: &DexFile) -> (String, Vec<Diagnostic>) {
    let mut out = String::new();
    let mut diagnostics = Vec::new();
    for (label, opts) in [
        ("default", VerifyOptions::default()),
        ("errors_only", VerifyOptions::errors_only()),
        ("reference", VerifyOptions::default().with_workers(1)),
    ] {
        writeln!(out, "== {label}").unwrap();
        if label == "reference" {
            clear_verify_cache();
        }
        let typed = verify_dex_typed(dex, &opts);
        render(&mut out, &typed);
        if label == "default" {
            diagnostics = typed.diagnostics;
        }
    }
    (hex(sha1(out.as_bytes())), diagnostics)
}

/// Values paired with the names the golden file lists them under.
type Named<T> = Vec<(String, T)>;

/// The named input DEX files, plus the pinned SHA-1 of each revealed
/// file's bytes.
fn inputs() -> (Named<DexFile>, Named<String>) {
    let mut dexes: Named<DexFile> = build_suite()
        .into_iter()
        .map(|s| (format!("droidbench/{}", s.name), s.dex))
        .collect();
    for (name, insns) in [("a", 600), ("b", 1_500)] {
        let app = generate(&AppSpec::coverage_profile(
            &format!("golden/cov/{name}"),
            insns,
        ));
        dexes.push((format!("coverage/{name}"), app.dex));
    }
    let app = generate(&AppSpec::plain_profile("golden/reveal", 1_200));
    let mut revealed = Vec::new();
    for packer in all_packers() {
        let tag = packer.map_or("plain", |id| id.profile().name);
        let mut spec = JobSpec::new(&format!("golden@{tag}"), app.dex.clone(), &app.entry);
        spec.packer = packer;
        let (report, bytes) = execute_job_revealing(spec);
        assert!(report.status.is_ok(), "{tag}: {:?}", report.status);
        let bytes = bytes.expect("a successful job yields its DEX");
        revealed.push((format!("revealed-bytes/{tag}"), hex(sha1(&bytes))));
        dexes.push((
            format!("revealed/{tag}"),
            read_dex(&bytes).expect("revealed DEX parses"),
        ));
    }
    (dexes, revealed)
}

#[test]
fn verifier_output_matches_golden_digests() {
    let (dexes, revealed) = inputs();
    let mut actual = revealed;
    let mut diagnostics = Vec::new();
    for (name, dex) in &dexes {
        let (digest, diags) = verify_digest(dex);
        actual.push((name.clone(), digest));
        diagnostics.extend(diags);
    }
    // The inputs raise lints (34 under the default options), so the
    // digests pin findings and not only clean runs.
    assert!(!diagnostics.is_empty(), "the golden inputs raise no lints");
    let expected: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.rsplit_once(' ').expect("`name digest` lines"))
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|((name, digest), (want_name, want))| name != want_name || digest != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    if mismatched.is_empty() && actual.len() == expected.len() {
        return;
    }
    for (name, digest) in &actual {
        eprintln!("{name} {digest}");
    }
    panic!(
        "{} of {} digests differ from golden/verify_digests.txt ({} expected): {mismatched:?}",
        mismatched.len(),
        actual.len(),
        expected.len()
    );
}
