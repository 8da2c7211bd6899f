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
//!
//! The app is driven by the runtime's input session ([`drive`]): a packed
//! app's shell is launched once ([`PackedApp::launch`]) and a plain app's
//! entry activity once per seed ([`Runtime::start_session`]), and each
//! seed then fires its callbacks ([`Runtime::fire_callbacks`]). Budget
//! exhaustion anywhere is the fuel timeout, a plain entry activity that
//! cannot be instantiated is a setup failure, and every other execution
//! fault is tolerated: a crashing app still yields a partial collection.
//!
//! A job whose app holds at least [`OVERLAP_THRESHOLD`] code units runs
//! its independent stages side by side on a second thread: the
//! original app's conformance traces beside the whole reveal, and the DEX
//! write beside the revealed app's traces (validation beside verification
//! happens inside the pipeline). Each branch's result, failure or panic is
//! read only where the sequential order reads it, so status precedence,
//! details, counters and revealed bytes are the sequential order's. Below
//! the threshold, a spawned thread costs more than the overlap saves.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use dexlego_core::pipeline::{reveal, OVERLAP_THRESHOLD};
use dexlego_core::DexLegoError;
use dexlego_dex::writer::write_dex;
use dexlego_dex::DexFile;
use dexlego_droidbench::{register_tamper_specs, TamperSpec};
use dexlego_packer::{pack, PackedApp, PackerError, PackerId};
use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::{Env, LaunchError, Runtime, RuntimeError};

use crate::conformance::{check_revealed, trace_original, OriginalTraces};
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

/// Terminal status of a job. A report starts out [`JobStatus::Ok`] (the
/// default) and records the first gate the job fails.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum JobStatus {
    /// Extraction succeeded, the reassembled DEX verified, validation and
    /// (if requested) conformance passed.
    #[default]
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
/// did not produce a verified, validated DEX. The bytes' capacity equals
/// their length, and they are allocated on the calling thread.
pub fn execute_job_revealing(spec: JobSpec) -> (JobReport, Option<Vec<u8>>) {
    let name = spec.name.clone();
    let packer = spec.packer.map(|id| id.profile().name);
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| run_job(&spec))) {
        Ok(done) => done,
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

/// Runs the whole job. On an app of at least [`OVERLAP_THRESHOLD`] code
/// units, the stages that do not feed each other run side by side: the
/// original app's conformance traces beside the reveal, and the DEX write
/// beside the revealed app's traces. A branch's result, failure or panic
/// counts only where the sequential order would have read it, so the
/// report and the bytes are the sequential order's.
fn run_job(spec: &JobSpec) -> (JobReport, Option<Vec<u8>>) {
    let start = Instant::now();
    let events = spec.effective_events();
    let overlap = spec.dex.code_units() >= OVERLAP_THRESHOLD;
    let ((mut report, revealed), original) = if spec.check_conformance && overlap {
        let (revealed, original) = dexlego_pool::join(
            || reveal_job(spec, events),
            || trace_original(&spec.dex, &spec.entry, &spec.seeds, events, spec.fuel),
        );
        (
            revealed.unwrap_or_else(|p| resume_unwind(p)),
            Some(original),
        )
    } else {
        (reveal_job(spec, events), None)
    };
    let mut bytes = None;
    if let Some(dex) = revealed {
        let original = original.map(|traced| traced.unwrap_or_else(|p| resume_unwind(p)));
        match check_and_write(spec, events, overlap, original, &dex) {
            Ok(written) => bytes = written,
            Err(diff) => report.status = JobStatus::ConformanceMismatch(diff),
        }
    }
    report.wall_us = start.elapsed().as_micros() as u64;
    (report, bytes)
}

/// The last two stages of a job whose reveal passed every gate: the
/// conformance check (when requested) and the DEX write. `original` holds
/// the original app's traces when they were recorded beside the reveal.
///
/// # Errors
///
/// The conformance check's first divergence.
fn check_and_write(
    spec: &JobSpec,
    events: usize,
    overlap: bool,
    original: Option<OriginalTraces>,
    dex: &DexFile,
) -> Result<Option<Vec<u8>>, String> {
    if !spec.check_conformance {
        return Ok(write_dex(dex).ok());
    }
    let original = original
        .unwrap_or_else(|| trace_original(&spec.dex, &spec.entry, &spec.seeds, events, spec.fuel));
    let check = || check_revealed(original, dex, &spec.entry, events, spec.fuel);
    if !overlap {
        check()?;
        return Ok(write_dex(dex).ok());
    }
    // The bytes are written on this thread while the helper traces the
    // revealed app; they count only if the check passes.
    let (written, checked) = dexlego_pool::join(|| write_dex(dex), check);
    checked.unwrap_or_else(|p| resume_unwind(p))?;
    Ok(written.unwrap_or_else(|p| resume_unwind(p)).ok())
}

/// Why a job stopped driving its app early.
#[doc(hidden)]
pub enum Stop {
    /// The instruction budget ran out.
    Timeout,
    /// The app could not be installed, loaded, launched or instantiated.
    Setup(String),
}

/// Installs the job's app (the packed shell, or the plain DEX) and runs
/// one input session per seed, firing `events` callbacks each. A packed
/// app launches its shell once, seeded by the first seed; a plain app
/// starts a session on its entry activity per seed. Faults other than
/// budget exhaustion are tolerated: a crashing app still yields a
/// (partial) collection.
///
/// # Errors
///
/// [`Stop::Timeout`] when the budget runs out, and [`Stop::Setup`] when
/// the app cannot be installed, loaded or launched, or a plain entry
/// activity cannot be instantiated.
#[doc(hidden)]
pub fn drive(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    spec: &JobSpec,
    packed: Option<&PackedApp>,
    events: usize,
) -> Result<(), Stop> {
    match packed {
        Some(app) => {
            app.install_observed(rt, obs)
                .map_err(|e| Stop::Setup(format!("install failed: {e}")))?;
            register_tamper_specs(rt, &spec.tampers);
            rt.input_state = spec.seeds.first().copied().unwrap_or(1) | 1;
            match app.launch(rt, obs) {
                Err(PackerError::Runtime(RuntimeError::BudgetExhausted)) => {
                    return Err(Stop::Timeout)
                }
                Err(PackerError::BadInput(e)) => {
                    return Err(Stop::Setup(format!("launch failed: {e}")))
                }
                _ => {} // app crashes still leave a valid partial collection
            }
        }
        None => {
            rt.load_dex_observed(&spec.dex, "app", obs)
                .map_err(|e| Stop::Setup(format!("load failed: {e}")))?;
            register_tamper_specs(rt, &spec.tampers);
        }
    }
    for &seed in &spec.seeds {
        rt.input_state = seed | 1;
        if packed.is_none() {
            match rt.start_session(obs, &spec.entry) {
                Ok(()) => {}
                Err(
                    LaunchError::OnCreate(_)
                    | LaunchError::Instantiate(RuntimeError::BudgetExhausted),
                ) => return Err(Stop::Timeout),
                Err(LaunchError::Instantiate(e)) => {
                    return Err(Stop::Setup(format!(
                        "cannot instantiate {}: {e}",
                        spec.entry
                    )))
                }
            }
        }
        rt.fire_callbacks(obs, seed, events)
            .map_err(|_| Stop::Timeout)?;
    }
    Ok(())
}

/// Packs, collects, reassembles, verifies and validates the job's app.
/// Returns the revealed DEX only when every one of those gates passed.
fn reveal_job(spec: &JobSpec, events: usize) -> (JobReport, Option<DexFile>) {
    let name = spec.name.clone();
    let packer_name = spec.packer.map(|id| id.profile().name);

    // Pack before the runtime exists: a packing failure is a setup failure.
    let packed = match spec.packer {
        Some(id) => match pack(&spec.dex, &spec.entry, id) {
            Ok(p) => Some(p),
            Err(e) => {
                return (
                    JobReport {
                        status: JobStatus::SetupFailed(format!("pack failed: {e}")),
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
    let mut stop = None;
    let result = reveal(&mut rt, |rt, obs| {
        stop = drive(rt, obs, spec, packed.as_ref(), events).err();
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
    let timed_out = matches!(stop, Some(Stop::Timeout));
    report.status = if let Some(Stop::Setup(e)) = stop {
        JobStatus::SetupFailed(e)
    } else {
        match result {
            Ok(outcome) => {
                report.absorb(&outcome);
                let status = if timed_out {
                    JobStatus::Timeout
                } else if !outcome.validation.is_empty() {
                    JobStatus::ValidationFailed(outcome.validation.clone())
                } else {
                    JobStatus::Ok
                };
                if status.is_ok() {
                    revealed = Some(outcome.dex);
                }
                status
            }
            Err(_) if timed_out => JobStatus::Timeout,
            Err(DexLegoError::Verification(diags)) => {
                report.verifier_errors = diags.len() as u64;
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
    (report, revealed)
}
