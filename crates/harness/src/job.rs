//! Job specification and isolated execution.
//!
//! A [`JobSpec`] names one (application, packer-profile) extraction run.
//! [`execute_job`] runs it inside its own freshly constructed [`Runtime`]
//! with two isolation layers:
//!
//! * **panic capture** — the whole run is wrapped in `catch_unwind`, so a
//!   panicking interpreter or native becomes [`JobStatus::Panicked`]
//!   instead of tearing down the worker pool;
//! * **fuel timeout** — the runtime's per-execution instruction budget is
//!   set from [`JobSpec::fuel`]; a runaway loop exhausts it and the job is
//!   reported as [`JobStatus::Timeout`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dexlego_core::pipeline::reveal;
use dexlego_core::{DexLegoError, RevealOutcome};
use dexlego_dex::writer::write_dex;
use dexlego_dex::DexFile;
use dexlego_droidbench::{register_tamper_specs, TamperSpec};
use dexlego_packer::{pack, PackerError, PackerId};
use dexlego_runtime::class::SigKey;
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::{Env, Runtime, RuntimeError, Slot};

use crate::conformance::check_reveal;
use crate::report::JobReport;

/// Default per-job instruction budget. Generous for any corpus app (the
/// biggest scale experiments interpret a few million instructions) while
/// still bounding a runaway loop to well under a second of wall time.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// One unit of harness work: extract (and optionally conformance-check)
/// one app, optionally through a packer profile.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name for the report, e.g. `corpus003@360`.
    pub name: String,
    /// The original application DEX.
    pub dex: DexFile,
    /// Entry activity descriptor.
    pub entry: String,
    /// Pack the app with this profile before extraction (None = run the
    /// plain app).
    pub packer: Option<PackerId>,
    /// Bytecode-tampering natives to register (self-modifying samples).
    pub tampers: Vec<TamperSpec>,
    /// Fuzzing seeds; each seed drives one input session.
    pub seeds: Vec<u64>,
    /// Callback events to fire per session.
    pub events: usize,
    /// Instruction budget for the job's runtime (the timeout mechanism).
    pub fuel: u64,
    /// Differentially compare original vs extracted behaviour after a
    /// successful reveal. Only meaningful for non-self-modifying apps
    /// (tampering legitimately changes the original's event stream).
    pub check_conformance: bool,
}

impl JobSpec {
    /// A job with default driving parameters (one seed, three events,
    /// default fuel, plain app, no conformance check).
    pub fn new(name: &str, dex: DexFile, entry: &str) -> JobSpec {
        JobSpec {
            name: name.to_owned(),
            dex,
            entry: entry.to_owned(),
            packer: None,
            tampers: Vec::new(),
            seeds: vec![1],
            events: 3,
            fuel: DEFAULT_FUEL,
            check_conformance: false,
        }
    }

    /// Events actually fired after launch. The Advanced (re-hiding) packer
    /// garbles unpacked code in memory once the entry activity returns, so
    /// firing callbacks afterwards would enter methods whose bodies no
    /// longer decode — collection would record empty methods and the job
    /// would fail validation for a reason that is an artifact of the
    /// driver, not of extraction. Those jobs drive `onCreate` only.
    pub fn effective_events(&self) -> usize {
        match self.packer {
            Some(id) if id.profile().rehide_after_run => 0,
            _ => self.events,
        }
    }
}

/// Terminal status of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Extraction succeeded, the reassembled DEX verified, validation and
    /// (if requested) conformance passed.
    Ok,
    /// The instruction budget was exhausted while driving the app.
    Timeout,
    /// The job panicked; payload message attached.
    Panicked(String),
    /// The app could not be packed or loaded at all.
    SetupFailed(String),
    /// Reassembly of the collection failed.
    ReassemblyFailed(String),
    /// The reassembled DEX was rejected by the bytecode verifier.
    VerifierRejected(String),
    /// [`validate_reveal`](dexlego_core::pipeline::validate_reveal)
    /// findings were non-empty.
    ValidationFailed(Vec<String>),
    /// The extracted DEX's event stream diverged from the original's.
    ConformanceMismatch(String),
}

impl JobStatus {
    /// Whether the job succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }

    /// Stable machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Timeout => "timeout",
            JobStatus::Panicked(_) => "panicked",
            JobStatus::SetupFailed(_) => "setup-failed",
            JobStatus::ReassemblyFailed(_) => "reassembly-failed",
            JobStatus::VerifierRejected(_) => "verifier-rejected",
            JobStatus::ValidationFailed(_) => "validation-failed",
            JobStatus::ConformanceMismatch(_) => "conformance-mismatch",
        }
    }

    /// Reconstructs a status from its wire `label` and optional `detail` —
    /// the inverse of [`JobStatus::label`]/[`JobStatus::detail`], used when
    /// a report travels back over the daemon protocol. Unknown labels map
    /// to `None` so protocol evolution degrades to "failed, unrecognised"
    /// at the caller rather than a panic here.
    pub fn from_label(label: &str, detail: Option<&str>) -> Option<JobStatus> {
        let msg = || detail.unwrap_or_default().to_owned();
        Some(match label {
            "ok" => JobStatus::Ok,
            "timeout" => JobStatus::Timeout,
            "panicked" => JobStatus::Panicked(msg()),
            "setup-failed" => JobStatus::SetupFailed(msg()),
            "reassembly-failed" => JobStatus::ReassemblyFailed(msg()),
            "verifier-rejected" => JobStatus::VerifierRejected(msg()),
            "validation-failed" => JobStatus::ValidationFailed(
                detail
                    .map(|d| d.split("; ").map(str::to_owned).collect())
                    .unwrap_or_default(),
            ),
            "conformance-mismatch" => JobStatus::ConformanceMismatch(msg()),
            _ => return None,
        })
    }

    /// Human-readable failure detail, if any.
    pub fn detail(&self) -> Option<String> {
        match self {
            JobStatus::Ok | JobStatus::Timeout => None,
            JobStatus::Panicked(m)
            | JobStatus::SetupFailed(m)
            | JobStatus::ReassemblyFailed(m)
            | JobStatus::VerifierRejected(m)
            | JobStatus::ConformanceMismatch(m) => Some(m.clone()),
            JobStatus::ValidationFailed(findings) => Some(findings.join("; ")),
        }
    }
}

pub(crate) use dexlego_pool::panic_message;

/// Runs a job with panic capture. Never panics itself; a panicking job
/// yields a [`JobStatus::Panicked`] report.
pub fn execute_job(spec: JobSpec) -> JobReport {
    execute_job_revealing(spec).0
}

/// Like [`execute_job`], but additionally returns the serialised revealed
/// DEX when the job succeeded — what the result store caches and the
/// `dexlegod` service sends back over the wire. `None` whenever the job
/// did not produce a verified, validated DEX.
pub fn execute_job_revealing(spec: JobSpec) -> (JobReport, Option<Vec<u8>>) {
    let name = spec.name.clone();
    let packer = spec.packer.map(|id| id.profile().name);
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| run_job(&spec))) {
        Ok((report, dex)) => {
            let bytes = if report.status.is_ok() {
                dex.as_ref().and_then(|d| write_dex(d).ok())
            } else {
                None
            };
            (report, bytes)
        }
        Err(payload) => (
            JobReport {
                status: JobStatus::Panicked(panic_message(payload.as_ref())),
                wall_us: start.elapsed().as_micros() as u64,
                ..JobReport::empty(name, packer)
            },
            None,
        ),
    }
}

/// Fires up to `events` registered callbacks, mirroring the standard
/// sample driver but reporting budget exhaustion instead of swallowing it.
fn fire_callbacks(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    seed: u64,
    events: usize,
) -> Result<(), RuntimeError> {
    for n in 0..events {
        if rt.callbacks.is_empty() {
            break;
        }
        let pick = (seed as usize + n) % rt.callbacks.len();
        let cb = rt.callbacks[pick].clone();
        rt.callback_depth += 1;
        let outcome = rt.call_method(obs, cb.method, &[Slot::of(cb.receiver), Slot::of(0)]);
        rt.callback_depth -= 1;
        // Other faults are tolerated: a crashing app still yields a
        // (partial) collection.
        if let Err(RuntimeError::BudgetExhausted) = outcome {
            return Err(RuntimeError::BudgetExhausted);
        }
    }
    Ok(())
}

fn run_job(spec: &JobSpec) -> (JobReport, Option<DexFile>) {
    let start = Instant::now();
    let name = spec.name.clone();
    let packer_name = spec.packer.map(|id| id.profile().name);
    let events = spec.effective_events();

    // Pack before the runtime exists: a packing failure is a setup failure.
    let packed = match spec.packer {
        Some(id) => match pack(&spec.dex, &spec.entry, id) {
            Ok(p) => Some(p),
            Err(e) => {
                return (
                    JobReport {
                        status: JobStatus::SetupFailed(format!("pack failed: {e}")),
                        wall_us: start.elapsed().as_micros() as u64,
                        ..JobReport::empty(name, packer_name)
                    },
                    None,
                )
            }
        },
        None => None,
    };

    let mut rt = Runtime::with_env(Env {
        insn_budget: spec.fuel,
        ..Env::default()
    });
    let mut timed_out = false;
    let mut setup_err: Option<String> = None;

    let result = reveal(&mut rt, |rt, obs| match &packed {
        Some(app) => {
            if let Err(e) = app.install_observed(rt, obs) {
                setup_err = Some(format!("install failed: {e}"));
                return;
            }
            register_tamper_specs(rt, &spec.tampers);
            let first_seed = spec.seeds.first().copied().unwrap_or(1);
            rt.input_state = first_seed | 1;
            match app.launch(rt, obs) {
                Err(PackerError::Runtime(RuntimeError::BudgetExhausted)) => {
                    timed_out = true;
                    return;
                }
                Err(PackerError::BadInput(e)) => {
                    setup_err = Some(format!("launch failed: {e}"));
                    return;
                }
                _ => {} // app crashes still leave a valid partial collection
            }
            for &seed in &spec.seeds {
                rt.input_state = seed | 1;
                if fire_callbacks(rt, obs, seed, events).is_err() {
                    timed_out = true;
                    return;
                }
            }
        }
        None => {
            if let Err(e) = rt.load_dex_observed(&spec.dex, "app", obs) {
                setup_err = Some(format!("load failed: {e}"));
                return;
            }
            register_tamper_specs(rt, &spec.tampers);
            for &seed in &spec.seeds {
                rt.input_state = seed | 1;
                let activity = match rt.new_instance(obs, &spec.entry) {
                    Ok(a) => a,
                    Err(RuntimeError::BudgetExhausted) => {
                        timed_out = true;
                        return;
                    }
                    Err(e) => {
                        setup_err = Some(format!("cannot instantiate {}: {e}", spec.entry));
                        return;
                    }
                };
                let Some(class) = rt.find_class(&spec.entry) else {
                    setup_err = Some(format!("{} not linked", spec.entry));
                    return;
                };
                if let Some(on_create) =
                    rt.resolve_method(class, &SigKey::new("onCreate", "(Landroid/os/Bundle;)V"))
                {
                    let outcome =
                        rt.call_method(obs, on_create, &[Slot::of(activity), Slot::of(0)]);
                    if matches!(outcome, Err(RuntimeError::BudgetExhausted)) {
                        timed_out = true;
                        return;
                    }
                }
                if fire_callbacks(rt, obs, seed, events).is_err() {
                    timed_out = true;
                    return;
                }
            }
        }
    });

    let mut report = JobReport {
        insns: rt.stats.insns,
        frames: rt.stats.frames,
        ..JobReport::empty(name, packer_name)
    };

    // Status precedence: a setup failure means nothing was really driven; a
    // timeout trumps downstream failures (a truncated collection routinely
    // fails reassembly or validation, but the root cause is the timeout).
    let mut revealed = None;
    report.status = if let Some(e) = setup_err {
        JobStatus::SetupFailed(e)
    } else {
        match result {
            Ok(outcome) => {
                report.absorb(&outcome);
                let status = if timed_out {
                    JobStatus::Timeout
                } else {
                    finish_status(spec, events, &outcome)
                };
                if status.is_ok() {
                    revealed = Some(outcome.dex);
                }
                status
            }
            Err(_) if timed_out => JobStatus::Timeout,
            Err(DexLegoError::Verification(diags)) => {
                report.verifier_errors = diags.len();
                JobStatus::VerifierRejected(
                    diags
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; "),
                )
            }
            Err(e) => JobStatus::ReassemblyFailed(e.to_string()),
        }
    };
    report.wall_us = start.elapsed().as_micros() as u64;
    (report, revealed)
}

/// Post-reveal checks for a job that ran to completion.
fn finish_status(spec: &JobSpec, events: usize, outcome: &RevealOutcome) -> JobStatus {
    if !outcome.validation.is_empty() {
        return JobStatus::ValidationFailed(outcome.validation.clone());
    }
    if spec.check_conformance {
        if let Err(diff) = check_reveal(
            &spec.dex,
            &outcome.dex,
            &spec.entry,
            &spec.seeds,
            events,
            spec.fuel,
        ) {
            return JobStatus::ConformanceMismatch(diff);
        }
    }
    JobStatus::Ok
}
