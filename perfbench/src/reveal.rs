//! `reveal`: one client extracts distinct packed apps one job at a time
//! through `dexlego_harness::execute_job_revealing`, the paper's core
//! operation. Packer, runtime and collection, reassembly,
//! canonicalisation, verification, validation and conformance do all the
//! work; service, store and router do none.
//!
//! The job stream is a sequence of cycles. Each cycle generates
//! [`STRATA`](crate::inputs::STRATA) new apps on the size schedule
//! (Table I's four instruction counts and the midpoints between them),
//! crosses each with all seven packer configurations, and shuffles the
//! jobs. The measured phase runs whole cycles until the requested time
//! has passed, and at least [`MIN_CYCLES`]; the next cycle's apps are
//! generated between cycles with the clock stopped.
//!
//! The traced run composes every job from the same public calls
//! `execute_job_revealing` makes, with a span around each, and checks the
//! DEX it produces against the untraced job's byte for byte.

use std::path::Path;
use std::time::Instant;

use dexlego_core::collect::JitCollector;
use dexlego_core::pipeline::validate_reveal;
use dexlego_core::reassemble::{gate_verified, reassemble_with_metrics};
use dexlego_core::PipelineMetrics;
use dexlego_dalvik::canon::canonicalize;
use dexlego_dex::checksum::sha1;
use dexlego_dex::writer::write_dex;
use dexlego_droidbench::register_tamper_specs;
use dexlego_harness::{all_packers, check_reveal, execute_job_revealing, JobSpec};
use dexlego_packer::{pack, PackedApp, PackerError};
use dexlego_runtime::class::SigKey;
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::{Env, Runtime, RuntimeError, Slot};
use dexlego_verifier::{clear_verify_cache, verify_dex_typed, VerifyOptions};

use crate::inputs::{
    fuzz_seed, generate_app, packer_name, request, size_class, size_schedule, Rng,
};
use crate::report::{end_to_end, json_number, with_base, Block, Layers, Outcome, Timed};
use crate::stats::{peak_rss_mb, process_cpu_s, ratio, steal_share, Mark};
use crate::trace::Tracer;
use crate::{set_up, trace_path, Args};

/// Cycles the measured phase runs at least. A cycle is 7 apps × 7 packer
/// configurations = 49 jobs, and three cycles put 14 samples beyond the
/// 90th latency percentile, which needs 10.
const MIN_CYCLES: u64 = 3;

/// One job of the stream.
struct Job {
    spec: JobSpec,
    class: &'static str,
}

/// The jobs of cycle `cycle`: new apps on the size schedule, each
/// crossed with every packer configuration, in seeded order.
fn cycle_jobs(seed: u64, cycle: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 1000 + cycle);
    let mut jobs = Vec::new();
    for (i, insns) in size_schedule(&mut rng).into_iter().enumerate() {
        let app = generate_app(&format!("s{seed}/c{cycle}/a{i}"), insns, &mut rng);
        for packer in all_packers() {
            let name = format!("c{cycle}a{i}@{}", packer_name(packer));
            let req = request(&app, packer, fuzz_seed(&mut rng));
            jobs.push(Job {
                spec: req.to_spec(&name).expect("generated requests convert"),
                class: size_class(app.insns),
            });
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Warm-up jobs on apps outside every measured cycle.
fn warm_up(seed: u64) {
    let mut rng = Rng::new(seed, 7);
    for (i, insns) in [300usize, 2_000].into_iter().enumerate() {
        let app = generate_app(&format!("s{seed}/warm{i}"), insns, &mut rng);
        for packer in all_packers() {
            let req = request(&app, packer, fuzz_seed(&mut rng));
            let spec = req.to_spec("warm").expect("generated requests convert");
            let (report, _) = execute_job_revealing(spec);
            assert!(
                report.status.is_ok(),
                "warm-up job failed: {:?}",
                report.status
            );
        }
    }
}

/// Set-up: the first cycle's inputs and a warm-up. The verify cache is
/// emptied last, so every measured phase starts from the same state.
fn setup(seed: u64) -> Vec<Job> {
    let jobs = cycle_jobs(seed, 0);
    warm_up(seed);
    clear_verify_cache();
    jobs
}

/// Runs the untraced measured phase; returns what it observed, the
/// revealed DEX of every job in order, and the cycles run.
fn measure(args: &Args, mut jobs: Vec<Job>) -> (Timed, Vec<Vec<u8>>, u64) {
    // Every cycle is one block, and all of them count: a run holds only
    // three or so long cycles.
    let mut timed = Timed {
        keep: 1.0,
        ..Timed::default()
    };
    let mut outputs = Vec::new();
    let mut cycle = 0;
    let mut steal = (0, 0);
    let phase = Instant::now();
    loop {
        let start = Mark::take(phase);
        let first = timed.latency_ms.len();
        for job in jobs {
            let start = Instant::now();
            let (report, dex) = execute_job_revealing(job.spec);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let ok = report.status.is_ok() && dex.is_some();
            let dex = dex.unwrap_or_default();
            timed.op(ok.then_some(ms), dex.len());
            if ok {
                timed.miss_ms.push(ms);
            }
            timed.mark(&format!("size.{}", job.class));
            if report.verify_cache_hits > 0 {
                timed.mark("repeated_verification");
            }
            outputs.push(dex);
        }
        // Each cycle is one block: the same size mix every time.
        let end = Mark::take(phase);
        let block = Block::between(&start, &end, first..timed.latency_ms.len());
        steal.0 += end.jiffies.0 - start.jiffies.0;
        steal.1 += end.jiffies.1 - start.jiffies.1;
        timed.wall_s += block.wall_s;
        timed.cpu_s += block.cpu_s;
        timed.blocks.push(block);
        cycle += 1;
        if cycle >= MIN_CYCLES && timed.wall_s >= args.seconds.as_secs_f64() {
            break;
        }
        jobs = cycle_jobs(args.seed, cycle);
    }
    timed.steal_share = steal_share((0, 0), steal);
    timed.peak_rss_mb = peak_rss_mb();
    (timed, outputs, cycle)
}

/// SHA-1 over the revealed DEX of the first cycle's jobs, in job order:
/// identical for every run with the same seed.
fn first_cycle_digest(outputs: &[Vec<u8>]) -> String {
    let per_cycle = crate::inputs::STRATA * all_packers().len();
    let mut all = Vec::new();
    for dex in &outputs[..per_cycle.min(outputs.len())] {
        all.extend_from_slice(&sha1(dex));
    }
    sha1(&all).iter().map(|b| format!("{b:02x}")).collect()
}

/// Entry point.
pub fn run(args: &Args, _dir: &Path) -> Option<Outcome> {
    if args.trace {
        return Some(traced(args));
    }
    let (jobs, setup_s, setups) = set_up(args, || setup(args.seed), drop);
    let rss_after_setup = peak_rss_mb();
    let (timed, outputs, cycles) = measure(args, jobs);
    let mut out = Outcome::default();
    let complete = end_to_end(&mut out, &timed, setup_s);
    out.correct = timed.failed == 0;
    out.note("setup_s_samples", format!("{setups:?}"));
    out.note("peak_rss_mb_after_setup", json_number(rss_after_setup));
    out.note("cycles", cycles.to_string());
    out.note(
        "dex_digest_first_cycle",
        format!("\"{}\"", first_cycle_digest(&outputs)),
    );
    complete.then_some(out)
}

/// Per-job counters the traced composition reads at layer boundaries.
#[derive(Default)]
struct Counters {
    insns: u64,
    dump_bytes: u64,
    tree_merge_us: u64,
    dexgen_us: u64,
    typed_insns: u64,
    verify_hits: u64,
    verify_misses: u64,
}

/// Fires up to `events` registered callbacks, as `dexlego_harness::job` does.
fn fire_callbacks(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    seed: u64,
    events: usize,
) -> Result<(), String> {
    for n in 0..events {
        if rt.callbacks.is_empty() {
            break;
        }
        let pick = (seed as usize + n) % rt.callbacks.len();
        let cb = rt.callbacks[pick].clone();
        rt.callback_depth += 1;
        let outcome = rt.call_method(obs, cb.method, &[Slot::of(cb.receiver), Slot::of(0)]);
        rt.callback_depth -= 1;
        if let Err(RuntimeError::BudgetExhausted) = outcome {
            return Err("instruction budget exhausted".to_owned());
        }
    }
    Ok(())
}

/// Drives the app under `obs` exactly as `dexlego_harness::job` does.
fn drive(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    spec: &JobSpec,
    packed: Option<&PackedApp>,
) -> Result<(), String> {
    let events = spec.effective_events();
    match packed {
        Some(app) => {
            app.install_observed(rt, obs)
                .map_err(|e| format!("install failed: {e}"))?;
            register_tamper_specs(rt, &spec.tampers);
            rt.input_state = spec.seeds.first().copied().unwrap_or(1) | 1;
            match app.launch(rt, obs) {
                Err(PackerError::Runtime(RuntimeError::BudgetExhausted)) => {
                    return Err("instruction budget exhausted".to_owned())
                }
                Err(PackerError::BadInput(e)) => return Err(format!("launch failed: {e}")),
                _ => {}
            }
            for &seed in &spec.seeds {
                rt.input_state = seed | 1;
                fire_callbacks(rt, obs, seed, events)?;
            }
        }
        None => {
            rt.load_dex_observed(&spec.dex, "app", obs)
                .map_err(|e| format!("load failed: {e}"))?;
            register_tamper_specs(rt, &spec.tampers);
            for &seed in &spec.seeds {
                rt.input_state = seed | 1;
                let activity = rt
                    .new_instance(obs, &spec.entry)
                    .map_err(|e| format!("cannot instantiate {}: {e}", spec.entry))?;
                let class = rt
                    .find_class(&spec.entry)
                    .ok_or_else(|| format!("{} not linked", spec.entry))?;
                if let Some(on_create) =
                    rt.resolve_method(class, &SigKey::new("onCreate", "(Landroid/os/Bundle;)V"))
                {
                    let outcome =
                        rt.call_method(obs, on_create, &[Slot::of(activity), Slot::of(0)]);
                    if matches!(outcome, Err(RuntimeError::BudgetExhausted)) {
                        return Err("instruction budget exhausted".to_owned());
                    }
                }
                fire_callbacks(rt, obs, seed, events)?;
            }
        }
    }
    Ok(())
}

/// One job composed from the public calls `execute_job_revealing` makes,
/// each inside a span. Returns the serialised revealed DEX.
fn compose(t: &mut Tracer, spec: &JobSpec, c: &mut Counters) -> Result<Vec<u8>, String> {
    let packed = match spec.packer {
        Some(id) => Some(
            t.span("packer", || pack(&spec.dex, &spec.entry, id))
                .map_err(|e| format!("pack failed: {e}"))?,
        ),
        None => None,
    };
    let files = t.span("collect", || {
        let mut rt = Runtime::with_env(Env {
            insn_budget: spec.fuel,
            ..Env::default()
        });
        let mut collector = JitCollector::new();
        let driven = drive(&mut rt, &mut collector, spec, packed.as_ref());
        c.insns += rt.stats.insns;
        driven.map(|()| collector.into_files())
    })?;
    c.dump_bytes += t.span("files", || files.to_bytes()).len() as u64;
    let mut metrics = PipelineMetrics::new();
    let dex = t
        .span("reassemble", || {
            reassemble_with_metrics(&files, &mut metrics)
        })
        .map_err(|e| e.to_string())?;
    c.tree_merge_us += metrics.phase_us("tree_merge").unwrap_or(0);
    c.dexgen_us += metrics.phase_us("dexgen").unwrap_or(0);
    let dex = t
        .span("dalvik.canonicalize", || canonicalize(&dex))
        .map_err(|e| e.to_string())?;
    t.span("verifier", || {
        let typed = verify_dex_typed(&dex, &VerifyOptions::default());
        c.typed_insns += typed.insn_count() as u64;
        c.verify_hits += typed.cache_hits;
        c.verify_misses += typed.cache_misses;
        gate_verified(typed).map(drop)
    })
    .map_err(|e| e.to_string())?;
    let findings = t.span("pipeline.validate", || validate_reveal(&files, &dex));
    if !findings.is_empty() {
        return Err(format!("validation failed: {}", findings.join("; ")));
    }
    t.span("harness.conformance", || {
        check_reveal(
            &spec.dex,
            &dex,
            &spec.entry,
            &spec.seeds,
            spec.effective_events(),
            spec.fuel,
        )
    })?;
    t.span("dex.write", || write_dex(&dex))
        .map_err(|e| e.to_string())
}

/// The traced run: an untraced measured phase, then a fresh set-up and
/// the same jobs composed under spans.
fn traced(args: &Args) -> Outcome {
    let (jobs, _, _) = set_up(args, || setup(args.seed), drop);
    let (untraced, expected, cycles) = measure(args, jobs);

    let (mut jobs, _, _) = set_up(args, || setup(args.seed), drop);
    let mut t = Tracer::new(Instant::now());
    let mut c = Counters::default();
    let mut mismatches = 0u64;
    let mut failed = 0u64;
    let cpu0 = process_cpu_s();
    let mut op = 0usize;
    for cycle in 0..cycles {
        if cycle > 0 {
            jobs = cycle_jobs(args.seed, cycle);
        }
        for job in jobs.drain(..) {
            t.set_op(op as u64);
            let span = t.enter("op");
            let result = compose(&mut t, &job.spec, &mut c);
            t.exit(span);
            match result {
                Ok(dex) if dex == expected[op] => {}
                Ok(_) => mismatches += 1,
                Err(e) => {
                    eprintln!("perfbench: traced job {} failed: {e}", job.spec.name);
                    failed += 1;
                }
            }
            op += 1;
        }
    }
    let cpu_s = process_cpu_s() - cpu0;
    let _ = t.write_jsonl(&trace_path(args));

    let ops = op as u64;
    let mut layers = Layers::default();
    for (name, span) in [
        ("packer.ms_per_op", "packer"),
        ("collect.ms_per_op", "collect"),
        ("files.ms_per_op", "files"),
        ("reassemble.ms_per_op", "reassemble"),
        ("dalvik.canonicalize_ms_per_op", "dalvik.canonicalize"),
        ("verifier.ms_per_op", "verifier"),
        ("pipeline.validate_ms_per_op", "pipeline.validate"),
        ("dex.write_ms_per_op", "dex.write"),
        ("harness.conformance_ms_per_op", "harness.conformance"),
    ] {
        layers.per(name, t.total_ms(span), ops);
    }
    layers.per("runtime.insns_per_op", c.insns as f64, ops);
    layers.set(
        "runtime.minsns_per_s",
        ratio(c.insns as f64 / 1e6, t.total_ms("collect") / 1e3),
        c.insns,
    );
    layers.per("files.dump_kb_per_op", c.dump_bytes as f64 / 1024.0, ops);
    layers.per(
        "reassemble.tree_merge_ms_per_op",
        c.tree_merge_us as f64 / 1e3,
        ops,
    );
    layers.per("reassemble.dexgen_ms_per_op", c.dexgen_us as f64 / 1e3, ops);
    layers.set(
        "verifier.kinsns_per_s",
        ratio(c.typed_insns as f64 / 1e3, t.total_ms("verifier") / 1e3),
        c.typed_insns,
    );
    let lookups = c.verify_hits + c.verify_misses;
    layers.set(
        "verifier.cache_hit_ratio",
        ratio(c.verify_hits as f64, lookups as f64),
        lookups,
    );
    let op_ms = t.total_ms("op");
    let child_ms: f64 = t
        .totals()
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, totals)| totals.total_ns as f64 / 1e6)
        .sum();
    layers.set("trace.coverage_ratio", ratio(child_ms, op_ms), ops);
    let traced_cpu_ms = ratio(cpu_s * 1e3, ops as f64);
    layers.set(
        "trace.overhead_ratio",
        ratio(traced_cpu_ms, untraced.cpu_ms_per_op()),
        ops,
    );

    let mut out = Outcome {
        attempted: ops,
        failed: failed + mismatches,
        ..Outcome::default()
    };
    layers.emit(&mut out, "reveal", &t);
    out.correct = out.failed == 0 && untraced.failed == 0;
    out.note(
        "traced_dex_identical",
        with_base((ops - mismatches - failed) as f64, ops),
    );
    out.note(
        "untraced_cpu_ms_per_op",
        crate::report::json_number(untraced.cpu_ms_per_op()),
    );
    out.note("trace_file", format!("\"{}\"", trace_path(args).display()));
    out
}
