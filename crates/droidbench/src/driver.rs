//! The standard sample driver: one input session (instantiate the entry
//! activity, run `onCreate`, then fire registered callbacks with
//! pseudo-random inputs), the "Sapienz-generated inputs" role from §V-B.
//! The session is [`Runtime::start_session`] followed by
//! [`Runtime::fire_callbacks`], the primitives every driver runs.

use dexlego_runtime::observer::RuntimeObserver;
use dexlego_runtime::Runtime;

use crate::samples::Sample;

/// Drives one sample for a complete fuzzing session, seeding the input
/// native with `seed`. Budget exhaustion ends the session; every other
/// execution fault is swallowed (a crashing sample still yields partial
/// collection).
pub fn drive_sample(
    rt: &mut Runtime,
    obs: &mut dyn RuntimeObserver,
    sample: &Sample,
    seed: u64,
    events: usize,
) {
    rt.input_state = seed | 1;
    if rt.start_session(obs, &sample.entry).is_ok() {
        let _ = rt.fire_callbacks(obs, seed, events);
    }
}

/// Installs and drives a fresh runtime for `sample`, returning the runtime
/// for event-log inspection.
pub fn run_fresh(sample: &Sample, seed: u64, events: usize) -> Runtime {
    let mut rt = Runtime::new();
    let mut obs = dexlego_runtime::observer::NullObserver;
    if sample.install(&mut rt, &mut obs).is_ok() {
        drive_sample(&mut rt, &mut obs, sample, seed, events);
    }
    rt
}
