//! Differential conformance checking: the extracted and reassembled DEX
//! must *behave* like the original, not merely verify. Both are executed
//! under an observer that records the observable event stream — method
//! entries, field writes, and conditional-branch outcomes — restricted to
//! the application's own package, and the two streams must be equal.
//!
//! Each trace is one input session per seed, the one every driver runs
//! ([`Runtime::start_session`], then [`Runtime::fire_callbacks`]; see
//! [`trace_app`]), so both apps see the same inputs.
//!
//! Program counters are deliberately excluded from the trace: tree merging
//! and canonicalisation may legally shift instruction offsets, and the
//! conformance claim is about behaviour, not layout.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use dexlego_dalvik::Opcode;
use dexlego_dex::DexFile;
use dexlego_runtime::class::MethodId;
use dexlego_runtime::observer::{InsnEvent, RuntimeObserver};
use dexlego_runtime::{Env, LaunchError, Runtime};

/// One observable event in an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A method frame was entered (`class->name(descriptor)`).
    Enter(String),
    /// A conditional branch in `method` evaluated to `taken`.
    Branch {
        /// Pretty name of the branching method.
        method: String,
        /// Whether the branch was taken.
        taken: bool,
    },
    /// A field- or array-write instruction executed in `method`.
    FieldWrite {
        /// Pretty name of the writing method.
        method: String,
        /// The write instruction's mnemonic (`iput`, `sput-object`, …).
        mnemonic: &'static str,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Enter(m) => write!(f, "enter {m}"),
            TraceEvent::Branch { method, taken } => {
                write!(
                    f,
                    "branch {} in {method}",
                    if *taken { "taken" } else { "not-taken" }
                )
            }
            TraceEvent::FieldWrite { method, mnemonic } => {
                write!(f, "{mnemonic} in {method}")
            }
        }
    }
}

/// An observer that records the conformance-relevant event stream for
/// methods whose class descriptor starts with `prefix`.
///
/// Whether a method is in scope, and its pretty name, are settled on its
/// first event and kept per `MethodId`; a class's descriptor and a
/// method's signature never change once linked.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    prefix: String,
    /// The recorded stream, in execution order.
    pub events: Vec<TraceEvent>,
    /// Per `MethodId`, what [`Self::scoped_name`] found.
    names: Vec<Scope>,
}

/// Whether a method is in the recorder's scope, and if so its name.
#[derive(Debug, Clone, Default)]
enum Scope {
    #[default]
    Unseen,
    Out,
    In(String),
}

impl TraceRecorder {
    /// A recorder restricted to classes under `prefix`
    /// (e.g. `"Lconf/p360/"`).
    pub fn new(prefix: &str) -> TraceRecorder {
        TraceRecorder {
            prefix: prefix.to_owned(),
            ..TraceRecorder::default()
        }
    }

    /// The pretty name of `method` if it is in scope.
    fn scoped_name(&mut self, rt: &Runtime, method: MethodId) -> Option<String> {
        if self.names.len() <= method.0 {
            self.names.resize(method.0 + 1, Scope::Unseen);
        }
        let slot = &mut self.names[method.0];
        if let Scope::Unseen = slot {
            let in_scope = rt
                .class(rt.method(method).class)
                .descriptor
                .starts_with(&self.prefix);
            *slot = if in_scope {
                Scope::In(rt.method_name(method))
            } else {
                Scope::Out
            };
        }
        match slot {
            Scope::In(name) => Some(name.clone()),
            _ => None,
        }
    }
}

/// Whether `op` writes a field or an array element: the `aput*`, `iput*`
/// and `sput*` opcode ranges.
fn is_write(op: Opcode) -> bool {
    let in_range = |first: Opcode, last: Opcode| (first as u8..=last as u8).contains(&(op as u8));
    in_range(Opcode::Aput, Opcode::AputShort)
        || in_range(Opcode::Iput, Opcode::IputShort)
        || in_range(Opcode::Sput, Opcode::SputShort)
}

impl RuntimeObserver for TraceRecorder {
    fn on_method_enter(&mut self, rt: &Runtime, method: MethodId) {
        if let Some(name) = self.scoped_name(rt, method) {
            self.events.push(TraceEvent::Enter(name));
        }
    }

    fn on_branch(&mut self, rt: &Runtime, method: MethodId, _dex_pc: u32, taken: bool) {
        if let Some(method) = self.scoped_name(rt, method) {
            self.events.push(TraceEvent::Branch { method, taken });
        }
    }

    fn on_instruction(&mut self, rt: &Runtime, event: &InsnEvent<'_>) {
        if !is_write(event.insn.op) {
            return;
        }
        if let Some(method) = self.scoped_name(rt, event.method) {
            self.events.push(TraceEvent::FieldWrite {
                method,
                mnemonic: event.insn.op.mnemonic(),
            });
        }
    }
}

/// The package prefix of an entry descriptor: `"Lconf/p360/Main;"` →
/// `"Lconf/p360/"`. Falls back to the full descriptor for classes in the
/// unnamed package.
pub fn package_prefix(entry: &str) -> String {
    match entry.rfind('/') {
        Some(i) => entry[..=i].to_owned(),
        None => entry.to_owned(),
    }
}

/// Executes `entry` of `dex` in a fresh runtime for one input session
/// ([`Runtime::start_session`], then `events` firings of
/// [`Runtime::fire_callbacks`], inputs seeded by `seed`) and returns the
/// recorded in-package event stream.
///
/// The session's fault rule applies: execution faults other than budget
/// exhaustion are swallowed, so a crashing app still has a (truncated)
/// trace, and the truncation itself will surface as a stream mismatch.
///
/// # Errors
///
/// Returns an error if the DEX cannot be loaded, the entry cannot be
/// instantiated, or the instruction budget is exhausted (the trace would be
/// meaninglessly truncated).
pub fn trace_app(
    dex: &DexFile,
    entry: &str,
    seed: u64,
    events: usize,
    fuel: u64,
) -> Result<Vec<TraceEvent>, String> {
    let mut rt = Runtime::with_env(Env {
        insn_budget: fuel,
        ..Env::default()
    });
    let mut recorder = TraceRecorder::new(&package_prefix(entry));
    rt.load_dex_observed(dex, "conformance", &mut recorder)
        .map_err(|e| format!("load failed: {e}"))?;
    rt.input_state = seed | 1;
    let exhausted = || "budget exhausted during trace".to_owned();
    rt.start_session(&mut recorder, entry)
        .map_err(|e| match e {
            LaunchError::Instantiate(e) => format!("cannot instantiate {entry}: {e}"),
            LaunchError::OnCreate(_) => exhausted(),
        })?;
    rt.fire_callbacks(&mut recorder, seed, events)
        .map_err(|_| exhausted())?;
    Ok(recorder.events)
}

/// Compares two traces; `None` means they are equal, otherwise a diagnostic
/// naming the first divergence.
pub fn diff_traces(original: &[TraceEvent], revealed: &[TraceEvent]) -> Option<String> {
    for (i, (a, b)) in original.iter().zip(revealed.iter()).enumerate() {
        if a != b {
            return Some(format!("event {i} differs: original [{a}], revealed [{b}]"));
        }
    }
    if original.len() != revealed.len() {
        let (longer, which) = if original.len() > revealed.len() {
            (&original[revealed.len()], "original")
        } else {
            (&revealed[original.len()], "revealed")
        };
        return Some(format!(
            "stream lengths differ ({} vs {}): {which} continues with [{longer}]",
            original.len(),
            revealed.len()
        ));
    }
    None
}

/// The original app's traces, one per seed in seed order, as
/// [`check_revealed`] reads them. They depend only on the job's input,
/// so they can be recorded before, or beside, the reveal they are checked
/// against.
#[derive(Debug)]
pub struct OriginalTraces {
    /// Per seed, in order. Tracing stops at the first seed that does not
    /// yield a trace: [`check_revealed`] never reads past it.
    seeds: Vec<(u64, SeedTrace)>,
}

/// One seed's trace of the original: the events, the trace failure, or
/// the payload of the panic that stopped it.
type SeedTrace = std::thread::Result<Result<Vec<TraceEvent>, String>>;

/// Traces `entry` in `original` under every seed, the first half of
/// [`check_reveal`].
///
/// A panicking trace is caught and kept, so [`check_revealed`] re-raises
/// it with its payload untouched where a sequential [`check_reveal`]
/// would have panicked, and never if an earlier seed already diverged.
pub fn trace_original(
    original: &DexFile,
    entry: &str,
    seeds: &[u64],
    events: usize,
    fuel: u64,
) -> OriginalTraces {
    let mut traces = OriginalTraces { seeds: Vec::new() };
    for &seed in seeds {
        let trace = catch_unwind(AssertUnwindSafe(|| {
            trace_app(original, entry, seed, events, fuel)
        }));
        let traced = matches!(trace, Ok(Ok(_)));
        traces.seeds.push((seed, trace));
        if !traced {
            break;
        }
    }
    traces
}

/// Checks `revealed` against the original's traces, seed by seed, the
/// second half of [`check_reveal`].
///
/// # Errors
///
/// Returns the first divergence (or trace failure) found.
pub fn check_revealed(
    original: OriginalTraces,
    revealed: &DexFile,
    entry: &str,
    events: usize,
    fuel: u64,
) -> Result<(), String> {
    for (seed, trace) in original.seeds {
        let a = trace
            .unwrap_or_else(|payload| resume_unwind(payload))
            .map_err(|e| format!("seed {seed}: original trace failed: {e}"))?;
        let b = trace_app(revealed, entry, seed, events, fuel)
            .map_err(|e| format!("seed {seed}: revealed trace failed: {e}"))?;
        if a.is_empty() {
            return Err(format!(
                "seed {seed}: original trace is empty — nothing to compare"
            ));
        }
        if let Some(diff) = diff_traces(&a, &b) {
            return Err(format!("seed {seed}: {diff}"));
        }
    }
    Ok(())
}

/// Full differential check: traces `entry` in `original` and in `revealed`
/// under every seed and requires identical event streams.
///
/// # Errors
///
/// Returns the first divergence (or trace failure) found.
pub fn check_reveal(
    original: &DexFile,
    revealed: &DexFile,
    entry: &str,
    seeds: &[u64],
    events: usize,
    fuel: u64,
) -> Result<(), String> {
    let traces = trace_original(original, entry, seeds, events, fuel);
    check_revealed(traces, revealed, entry, events, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_prefix_strips_class_name() {
        assert_eq!(package_prefix("Lconf/p360/Main;"), "Lconf/p360/");
        assert_eq!(package_prefix("LMain;"), "LMain;");
    }

    #[test]
    fn writes_are_classified_by_opcode_as_by_mnemonic() {
        for byte in 0..=u8::MAX {
            let Some(op) = Opcode::from_u8(byte) else {
                continue;
            };
            let m = op.mnemonic();
            let by_mnemonic =
                m.starts_with("iput") || m.starts_with("sput") || m.starts_with("aput");
            assert_eq!(is_write(op), by_mnemonic, "{m}");
        }
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = vec![TraceEvent::Enter("La;->m()V".into())];
        let b = vec![TraceEvent::Enter("Lb;->m()V".into())];
        assert!(diff_traces(&a, &a.clone()).is_none());
        let d = diff_traces(&a, &b).unwrap();
        assert!(d.contains("event 0"), "{d}");
        let d = diff_traces(&a, &[]).unwrap();
        assert!(d.contains("lengths differ"), "{d}");
    }

    /// A panic kept from the original's traces is raised where the
    /// sequential check would have panicked, with its payload, and not
    /// at all when an earlier seed already diverged.
    #[test]
    fn kept_panic_is_raised_only_where_the_sequential_check_reaches_it() {
        use dexlego_droidbench::appgen::{generate, AppSpec};
        const FUEL: u64 = 1_000_000;
        let app = generate(&AppSpec::plain_profile("conf/kept", 120));
        let first = trace_app(&app.dex, &app.entry, 1, 2, FUEL).unwrap();
        let traces = || OriginalTraces {
            seeds: vec![
                (1, Ok(Ok(first.clone()))),
                (5, Err(Box::new("tracing seed 5 broke"))),
            ],
        };
        let payload = catch_unwind(AssertUnwindSafe(|| {
            check_revealed(traces(), &app.dex, &app.entry, 2, FUEL)
        }))
        .expect_err("seed 1 matches, so seed 5's panic is reached");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"tracing seed 5 broke")
        );
        let other = generate(&AppSpec::plain_profile("conf/other", 120));
        let diff = check_revealed(traces(), &other.dex, &app.entry, 2, FUEL)
            .expect_err("seed 1 diverges first");
        assert!(diff.starts_with("seed 1: revealed trace failed"), "{diff}");
    }

    #[test]
    fn identical_apps_trace_identically() {
        let app = dexlego_droidbench::appgen::generate(
            &dexlego_droidbench::appgen::AppSpec::plain_profile("conf/self", 120),
        );
        let a = trace_app(&app.dex, &app.entry, 7, 2, 1_000_000).unwrap();
        let b = trace_app(&app.dex, &app.entry, 7, 2, 1_000_000).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // A different seed changes the recorded stream eventually, but the
        // deterministic onCreate prefix is shared.
        assert_eq!(a[0], b[0]);
    }
}
