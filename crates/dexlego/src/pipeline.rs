//! The end-to-end DexLego pipeline of Figure 1: execute the target
//! application under JIT collection (optionally with force execution), then
//! reassemble the collected files into a new DEX offline.
//!
//! The offline half runs serialise-count → tree merge → DEX generation →
//! canonicalisation → verification → validation. On a reassembled DEX of
//! at least [`OVERLAP_THRESHOLD`] code units, validation runs on a helper
//! thread beside verification; its findings, phase timing and counters
//! are recorded in the sequential order, and only read once the
//! verification gate has passed.

use std::collections::HashMap;
use std::panic::resume_unwind;
use std::time::Instant;

use dexlego_dalvik::canon::canonicalize;
use dexlego_dex::{ClassDef, DexFile};
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::Runtime;

use crate::collect::JitCollector;
use crate::files::{CollectionFiles, MethodKey};
use crate::force::{iterative_force, ForceStats};
use crate::metrics::PipelineMetrics;
use crate::reassemble::reassemble_with_metrics;
use crate::Result;

/// The result of revealing an application.
#[derive(Debug)]
pub struct RevealOutcome {
    /// The collection files produced by JIT collection.
    pub files: CollectionFiles,
    /// The reassembled DEX (canonicalised, verified, ready to serialise).
    pub dex: DexFile,
    /// Size in bytes of the serialised collection files ("dump file size",
    /// Table VI).
    pub dump_size: usize,
    /// Warning-severity verifier lints over the reassembled DEX
    /// (error-severity diagnostics abort the pipeline instead).
    pub lints: Vec<dexlego_verifier::Diagnostic>,
    /// [`validate_reveal`] findings over the outcome (empty = every
    /// collected method and instruction made it into the reassembled DEX).
    /// Computed as part of the pipeline so callers cannot forget the check.
    pub validation: Vec<String>,
    /// Per-phase timings and counters recorded while producing this
    /// outcome (collected methods and instructions, `dump_size`, verifier
    /// lints, typed-IR methods and instructions, verify-cache hits and
    /// misses, …).
    pub metrics: PipelineMetrics,
}

/// Runs `drive` under JIT collection and reassembles the result.
///
/// `drive` receives the runtime and the collecting observer and should
/// execute the application however the experiment requires (launch an
/// activity, run a fuzzer, replay events). Execution errors inside the
/// driver should be swallowed by the driver itself — a crashed app still
/// yields a valid partial collection, as in the paper.
///
/// # Errors
///
/// Propagates reassembly failures.
///
/// # Example
///
/// ```
/// use dexlego_core::pipeline::reveal;
/// use dexlego_runtime::Runtime;
///
/// let mut rt = Runtime::new();
/// let outcome = reveal(&mut rt, |_rt, _obs| {
///     // drive the app here
/// }).unwrap();
/// assert_eq!(outcome.files.methods.len(), 0);
/// ```
pub fn reveal<F>(rt: &mut Runtime, mut drive: F) -> Result<RevealOutcome>
where
    F: FnMut(&mut Runtime, &mut dyn RuntimeObserver),
{
    let mut collector = JitCollector::new();
    let mut metrics = PipelineMetrics::new();
    metrics.time("collect", || drive(rt, &mut collector));
    finish_files(collector.into_files(), metrics)
}

/// Like [`reveal`], but additionally runs the iterative force-execution
/// module (Figure 4) to improve coverage, collecting throughout.
///
/// # Errors
///
/// Propagates reassembly failures.
pub fn reveal_with_force<F>(
    rt: &mut Runtime,
    mut drive: F,
    max_iterations: usize,
) -> Result<(RevealOutcome, ForceStats)>
where
    F: FnMut(&mut Runtime, &mut dyn RuntimeObserver),
{
    let mut collector = JitCollector::new();
    let mut metrics = PipelineMetrics::new();
    let (_coverage, stats) = metrics.time("collect", || {
        iterative_force(rt, &mut drive, &mut collector, max_iterations)
    });
    let outcome = finish_files(collector.into_files(), metrics)?;
    Ok((outcome, stats))
}

/// Validates a reveal result mechanically (the automated form of the
/// paper's RQ1 manual check): every collected instruction's opcode appears
/// in the reassembled body of its method (original or a variant), and
/// every collected method is present.
///
/// The pipeline runs this itself and surfaces the findings in
/// [`RevealOutcome::validation`]; calling it directly is only needed to
/// cross-validate a collection against some *other* DEX.
///
/// Returns the list of violations (empty = validated).
pub fn validate_reveal(files: &CollectionFiles, dex: &DexFile) -> Vec<String> {
    // Classes by descriptor, keeping the first definition as
    // `DexFile::find_class` does.
    let mut classes: HashMap<&str, &ClassDef> = HashMap::with_capacity(dex.class_defs().len());
    for class in dex.class_defs() {
        if let Ok(descriptor) = dex.type_descriptor(class.class_idx) {
            classes.entry(descriptor).or_insert(class);
        }
    }
    let mut problems = Vec::new();
    for record in &files.methods {
        let Some(class) = classes.get(record.key.class.as_str()) else {
            problems.push(format!("{}: class missing from output", record.key));
            continue;
        };
        // Which opcodes the method and its variants were reassembled with.
        let mut reassembled = [false; 256];
        let mut found_method = false;
        if let Some(data) = &class.class_data {
            for method in data.methods() {
                if !is_method_or_variant(dex, method.method_idx, &record.key) {
                    continue;
                }
                found_method = true;
                if let Some(code) = &method.code {
                    mark_opcodes(&code.insns, &mut reassembled);
                }
            }
        }
        if !found_method {
            problems.push(format!("{}: method missing from output", record.key));
            continue;
        }
        // Collected opcodes (union over trees; variants cover per-tree).
        for tree in &record.trees {
            for node in tree.nodes() {
                for ins in &node.il {
                    let op = (tree.units(ins)[0] & 0xff) as u8;
                    if !reassembled[usize::from(op)]
                        && dexlego_dalvik::Opcode::from_u8(op).is_some()
                    {
                        problems.push(format!(
                            "{}: collected opcode {:#04x} at pc {} missing from output",
                            record.key, op, ins.dex_pc
                        ));
                    }
                }
            }
        }
    }
    problems
}

/// Marks the opcode of every instruction in `insns`, walking the stream
/// without decoding it. A stream that does not decode marks nothing.
fn mark_opcodes(insns: &[u16], marked: &mut [bool; 256]) {
    let mut seen = [false; 256];
    let mut pc = 0;
    while pc < insns.len() {
        let Ok(len) = dexlego_dalvik::insn_units(insns, pc) else {
            return;
        };
        // A payload's first unit has opcode byte 0 and a nonzero high byte.
        let unit = insns[pc];
        if unit & 0xff != 0 || unit >> 8 == 0 {
            seen[usize::from(unit & 0xff)] = true;
        }
        pc += len;
    }
    for (m, s) in marked.iter_mut().zip(seen) {
        *m |= s;
    }
}

/// Whether pool method `method_idx` is the collected method `key` or one
/// of its `name$v…` variants: same declaring class, and a name equal to
/// the key's or extending it with `$v`. Like formatting the signature, the
/// method's prototype must resolve.
fn is_method_or_variant(dex: &DexFile, method_idx: u32, key: &MethodKey) -> bool {
    let Ok(m) = dex.method_id(method_idx) else {
        return false;
    };
    let (Ok(class), Ok(name)) = (dex.type_descriptor(m.class), dex.string(m.name)) else {
        return false;
    };
    let named = name
        .strip_prefix(key.name.as_str())
        .is_some_and(|rest| rest.is_empty() || rest.starts_with("$v"));
    named
        && class == key.class
        && dex.proto(m.proto).is_ok_and(|proto| {
            std::iter::once(proto.return_type)
                .chain(proto.parameters.iter().copied())
                .all(|t| dex.type_descriptor(t).is_ok())
        })
}

/// Reassembles already-collected files into a full [`RevealOutcome`] — the
/// offline half of the pipeline, shared by [`reveal`], the batch harness
/// (which collects on worker threads and reassembles from the files), and
/// tests that tamper with a collection before reassembly.
///
/// # Errors
///
/// Propagates reassembly failures and verifier rejections, exactly like
/// [`reveal`].
pub fn reassemble_collection(files: CollectionFiles) -> Result<RevealOutcome> {
    finish_files(files, PipelineMetrics::new())
}

/// Code units below which a job runs its independent stages one after
/// another instead of side by side on a helper thread: for a smaller
/// input, spawning the helper costs more than the overlap saves. Each
/// overlapping stage reads the size of its own input: the reassembled DEX
/// here, the app a job starts from in the batch harness.
pub const OVERLAP_THRESHOLD: usize = 16_384;

/// Runs `f`, returning its value and the microseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_micros() as u64)
}

fn finish_files(files: CollectionFiles, mut metrics: PipelineMetrics) -> Result<RevealOutcome> {
    metrics.count("classes_collected", files.classes.len() as u64);
    metrics.count("methods_collected", files.methods.len() as u64);
    metrics.count("insns_collected", files.total_insns() as u64);
    let dump_size = metrics.time("serialize", || files.encoded_len());
    metrics.count("dump_size", dump_size as u64);
    // `reassemble_with_metrics` records the `tree_merge` and `dexgen`
    // phases itself.
    let dex = reassemble_with_metrics(&files, &mut metrics)?;
    let dex = metrics
        .time("canonicalize", || canonicalize(&dex))
        .map_err(crate::DexLegoError::Dalvik)?;
    // Verification gate: the canonicalised DEX is the artifact handed to
    // static analysis, so it is the one that must satisfy the verifier.
    // This is the pipeline's single verification pass — the result is
    // gated here (error-severity diagnostics abort) and its typed IR and
    // cache counters ride along in the outcome instead of anyone
    // re-verifying the same bytes.
    //
    // Validation reads the same DEX, so on a large one it runs beside the
    // verifier. Its result, or its panic, counts only where the
    // sequential order would have reached it: after a passing gate.
    let verify = || {
        timed(|| {
            dexlego_verifier::verify_dex_typed(&dex, &dexlego_verifier::VerifyOptions::default())
        })
    };
    let validate = || timed(|| validate_reveal(&files, &dex));
    let ((typed, verify_us), validated) = if dex.code_units() >= OVERLAP_THRESHOLD {
        let (typed, validated) = dexlego_pool::join(verify, validate);
        (typed.unwrap_or_else(|p| resume_unwind(p)), Some(validated))
    } else {
        (verify(), None)
    };
    metrics.record_phase_us("verify", verify_us);
    metrics.count("verify_cache_hits", typed.cache_hits);
    metrics.count("verify_cache_misses", typed.cache_misses);
    metrics.count("typed_methods", typed.methods.len() as u64);
    metrics.count("typed_insns", typed.insn_count() as u64);
    let (_typed, lints) = crate::reassemble::gate_verified(typed)?;
    let (validation, validate_us) = match validated {
        Some(validated) => validated.unwrap_or_else(|p| resume_unwind(p)),
        None => validate(),
    };
    metrics.record_phase_us("validate", validate_us);
    metrics.count("verifier_lints", lints.len() as u64);
    metrics.count("validation_findings", validation.len() as u64);
    Ok(RevealOutcome {
        files,
        dex,
        dump_size,
        lints,
        validation,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walking a stream marks what decoding it marks: instructions, not
    /// payloads, and nothing at all in a stream that does not decode.
    #[test]
    fn walking_marks_what_decoding_marks() {
        let decoded = |insns: &[u16]| {
            let mut marked = [false; 256];
            for (_, d) in dexlego_dalvik::decode_method(insns).unwrap_or_default() {
                if let dexlego_dalvik::Decoded::Insn(insn) = d {
                    marked[insn.op as usize] = true;
                }
            }
            marked
        };
        let streams: [&[u16]; 6] = [
            &[0x0000, 0x000e],
            &[0x0012, 0x0100, 1, 0, 0, 3, 0],
            &[0x0300, 1, 3, 0, 0x0102, 3, 0x000e],
            &[0x0012, 0x003e],
            &[0x0012, 0x0070],
            &[0x0400, 0x000e],
        ];
        for insns in streams {
            let mut walked = [false; 256];
            mark_opcodes(insns, &mut walked);
            assert_eq!(walked, decoded(insns), "{insns:04x?}");
        }
    }
}
