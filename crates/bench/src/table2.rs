//! Tables II and III: static-analysis accuracy on the DroidBench-style
//! corpus — original samples, DexLego-revealed samples, samples packed with
//! the 360 packer and processed by DexHunter/AppSpear, and packed samples
//! processed by DexLego.

use dexlego_analysis::metrics::Confusion;
use dexlego_analysis::tools::{all_tools, ToolProfile};
use dexlego_core::baseline::{dump, BaselineKind};
use dexlego_droidbench::{build_suite, Sample};
use dexlego_packer::{pack, PackerId};
use dexlego_runtime::Runtime;

use crate::common::{reveal_samples, EVENTS, SEEDS};

/// Per-tool confusion counts for one treatment of the corpus.
#[derive(Debug, Clone)]
pub struct ToolOutcome {
    /// Tool name.
    pub tool: &'static str,
    /// Confusion matrix over all samples.
    pub confusion: Confusion,
}

/// All four treatments of the corpus.
#[derive(Debug)]
pub struct Table2Results {
    /// Tools on the original samples.
    pub original: Vec<ToolOutcome>,
    /// Tools on DexLego-revealed samples.
    pub dexlego: Vec<ToolOutcome>,
    /// Tools on 360-packed samples unpacked by DexHunter/AppSpear (both
    /// produce the same dump here, as in the paper).
    pub baseline_unpacked: Vec<ToolOutcome>,
    /// Number of samples / leaky samples.
    pub totals: (usize, usize),
}

fn judge(tools: &[ToolProfile], samples: &[(bool, dexlego_dex::DexFile)]) -> Vec<ToolOutcome> {
    tools
        .iter()
        .map(|tool| {
            let mut confusion = Confusion::default();
            for (leaky, dex) in samples {
                confusion.record(*leaky, tool.run(dex).leaky());
            }
            ToolOutcome {
                tool: tool.name,
                confusion,
            }
        })
        .collect()
}

/// Packs a sample with the 360 packer, runs it, and dumps with a
/// method-level baseline. Samples a packer cannot transport (none in the
/// corpus) would fall back to the original.
fn baseline_unpack(sample: &Sample, kind: BaselineKind) -> dexlego_dex::DexFile {
    let packed = pack(&sample.dex, &sample.entry, PackerId::P360)
        .unwrap_or_else(|e| panic!("{}: packing failed: {e}", sample.name));
    let mut rt = Runtime::new();
    let mut obs = dexlego_runtime::observer::NullObserver;
    packed
        .install(&mut rt)
        .unwrap_or_else(|e| panic!("{}: install failed: {e}", sample.name));
    // Register the sample's tamper natives too (the packed app still
    // carries its self-modifying natives).
    install_tampers_only(sample, &mut rt);
    // Drive through the shell with the same fuzzing campaign.
    for seed in SEEDS {
        rt.input_state = seed | 1;
        let _ = packed.launch(&mut rt, &mut obs);
        let _ = rt.fire_callbacks(&mut obs, seed, EVENTS);
    }
    dump(&rt, kind).unwrap_or_else(|e| panic!("{}: dump failed: {e}", sample.name))
}

/// Runs the full Table II / Table III experiment.
pub fn run() -> Table2Results {
    let suite = build_suite();
    let tools = all_tools();
    let totals = (suite.len(), suite.iter().filter(|s| s.leaky()).count());

    let original: Vec<(bool, dexlego_dex::DexFile)> =
        suite.iter().map(|s| (s.leaky(), s.dex.clone())).collect();

    // Both corpus treatments are per-sample independent: shard them across
    // the harness pool (each reveal/unpack builds its own runtime).
    let revealed: Vec<(bool, dexlego_dex::DexFile)> = suite
        .iter()
        .map(Sample::leaky)
        .zip(reveal_samples(&suite).into_iter().map(|r| r.dex))
        .collect();

    let unpacked: Vec<(bool, dexlego_dex::DexFile)> = dexlego_harness::parallel_map_expect(
        suite.iter().collect(),
        dexlego_harness::default_workers(),
        |s: &Sample| (s.leaky(), baseline_unpack(s, BaselineKind::DexHunter)),
    );

    Table2Results {
        original: judge(&tools, &original),
        dexlego: judge(&tools, &revealed),
        baseline_unpacked: judge(&tools, &unpacked),
        totals,
    }
}

/// Formats the results in the shape of Tables II and III.
pub fn format(results: &Table2Results) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table II — {} samples, {} leaky\n",
        results.totals.0, results.totals.1
    ));
    out.push_str("tool        | original TP/FP | DexLego TP/FP\n");
    for (orig, dexlego) in results.original.iter().zip(&results.dexlego) {
        out.push_str(&format!(
            "{:<11} | {:>3} / {:<3}      | {:>3} / {:<3}\n",
            orig.tool,
            orig.confusion.tp,
            orig.confusion.fp,
            dexlego.confusion.tp,
            dexlego.confusion.fp,
        ));
    }
    out.push_str("\nTable III — packed with 360\n");
    out.push_str("tool        | DexHunter/AppSpear TP/FP | DexLego TP/FP\n");
    for (base, dexlego) in results.baseline_unpacked.iter().zip(&results.dexlego) {
        out.push_str(&format!(
            "{:<11} | {:>3} / {:<3}                | {:>3} / {:<3}\n",
            base.tool,
            base.confusion.tp,
            base.confusion.fp,
            dexlego.confusion.tp,
            dexlego.confusion.fp,
        ));
    }
    out
}

/// Registers a sample's tamper natives without loading its DEX (the code
/// arrives through the packer shell instead; natives are keyed by
/// signature, so early registration is harmless).
fn install_tampers_only(sample: &Sample, rt: &mut Runtime) {
    use dexlego_runtime::class::{MethodImpl, SigKey};
    for spec in &sample.tampers {
        let target = spec.target.clone();
        let patches = spec.patches.clone();
        rt.natives.register(
            &spec.native_class,
            &spec.native_name,
            "(I)V",
            move |rt, _, args| {
                let arg = args.last().copied().unwrap_or_default().as_int();
                let Some(class) = rt.find_class(&target.0) else {
                    return Ok(dexlego_runtime::RetVal::Void);
                };
                let Some(method) = rt.resolve_method(class, &SigKey::new(&target.1, &target.2))
                else {
                    return Ok(dexlego_runtime::RetVal::Void);
                };
                if let MethodImpl::Bytecode { insns, .. } = &mut rt.method_mut(method).body {
                    for patch in patches.iter().filter(|p| p.when_arg == arg) {
                        insns[patch.at..patch.at + patch.units.len()].copy_from_slice(&patch.units);
                    }
                }
                Ok(dexlego_runtime::RetVal::Void)
            },
        );
    }
}

/// Revealing a packed sample with DexLego gives the same verdicts as on the
/// original (Table III's DexLego column) — exposed for tests.
pub fn reveal_packed(sample: &Sample) -> dexlego_dex::DexFile {
    let packed = pack(&sample.dex, &sample.entry, PackerId::P360)
        .unwrap_or_else(|e| panic!("{}: packing failed: {e}", sample.name));
    let mut rt = Runtime::new();
    let outcome = dexlego_core::pipeline::reveal(&mut rt, |rt, obs| {
        if packed.install_observed(rt, obs).is_err() {
            return;
        }
        install_tampers_only(sample, rt);
        for seed in SEEDS {
            rt.input_state = seed | 1;
            let _ = packed.launch(rt, obs);
            let _ = rt.fire_callbacks(obs, seed, EVENTS);
        }
    })
    .unwrap_or_else(|e| panic!("{}: reveal failed: {e}", sample.name));
    outcome.dex
}
