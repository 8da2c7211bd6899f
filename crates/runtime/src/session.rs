//! The input session every driver runs: instantiate the entry activity,
//! run its `onCreate(Bundle)`, then fire the callbacks it registered. This
//! is the stand-in for the generated inputs of the paper's §V-B; reveals,
//! conformance traces, baseline dumps and every table drive apps through
//! these primitives.
//!
//! One fault rule holds throughout a session: running out of instruction
//! budget ends it, and every other execution fault (an uncaught exception,
//! a missing native) is tolerated, so a crashing app still yields a
//! partial collection. An entry activity that cannot be instantiated ends
//! the session before it starts. [`Runtime::start_session`] and
//! [`Runtime::fire_callbacks`] apply the rule; [`Runtime::launch`] reports
//! every fault, for callers that must see whether an app ran cleanly.

use crate::class::SigKey;
use crate::observer::RuntimeObserver;
use crate::runtime::{Result, Runtime, RuntimeError};
use crate::value::{RetVal, Slot};

/// Why [`Runtime::launch`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The entry activity could not be instantiated: its class is not
    /// linked, or its `<clinit>` or `<init>` failed (budget exhaustion
    /// there included).
    Instantiate(RuntimeError),
    /// `onCreate` failed.
    OnCreate(RuntimeError),
}

impl Runtime {
    /// Instantiates `entry` and runs its `onCreate(Landroid/os/Bundle;)V`,
    /// if that resolves, with a null bundle. Returns whether `onCreate`
    /// resolved.
    ///
    /// # Errors
    ///
    /// [`LaunchError::Instantiate`] if `entry` cannot be instantiated, and
    /// [`LaunchError::OnCreate`] with whatever `onCreate` fails with.
    pub fn launch(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        entry: &str,
    ) -> std::result::Result<bool, LaunchError> {
        let activity = self
            .new_instance(obs, entry)
            .map_err(LaunchError::Instantiate)?;
        let on_create = self.heap.instance_class(activity).and_then(|class| {
            self.resolve_method(class, &SigKey::new("onCreate", "(Landroid/os/Bundle;)V"))
        });
        let Some(on_create) = on_create else {
            return Ok(false);
        };
        self.call_method(obs, on_create, &[Slot::of(activity), Slot::of(0)])
            .map_err(LaunchError::OnCreate)?;
        Ok(true)
    }

    /// Starts an input session: [`launch`](Runtime::launch) under the
    /// session's fault rule.
    ///
    /// # Errors
    ///
    /// [`LaunchError::Instantiate`] if `entry` cannot be instantiated, and
    /// [`LaunchError::OnCreate`] with [`RuntimeError::BudgetExhausted`] if
    /// `onCreate` runs out of budget. Every other fault of `onCreate` is
    /// tolerated.
    pub fn start_session(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        entry: &str,
    ) -> std::result::Result<(), LaunchError> {
        match self.launch(obs, entry) {
            Err(LaunchError::OnCreate(e)) if e != RuntimeError::BudgetExhausted => Ok(()),
            outcome => outcome.map(drop),
        }
    }

    /// Fires registered callback `i` (an index into
    /// [`callbacks`](Runtime::callbacks)) with a null argument, one
    /// framework-callback level deeper for the call's duration.
    ///
    /// # Errors
    ///
    /// Whatever the callback's execution fails with.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn fire_callback(&mut self, obs: &mut dyn RuntimeObserver, i: usize) -> Result<RetVal> {
        let (receiver, method) = (self.callbacks[i].receiver, self.callbacks[i].method);
        self.callback_depth += 1;
        let outcome = self.call_method(obs, method, &[Slot::of(receiver), Slot::of(0)]);
        self.callback_depth -= 1;
        outcome
    }

    /// Fires up to `events` registered callbacks, the n-th being callback
    /// `(seed + n) % len` of the list as it stands when it fires (the sum
    /// wraps: a job's seeds arrive from clients).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BudgetExhausted`] from the first callback that runs
    /// out of budget, which ends the firing. Every other fault is
    /// tolerated.
    pub fn fire_callbacks(
        &mut self,
        obs: &mut dyn RuntimeObserver,
        seed: u64,
        events: usize,
    ) -> Result<()> {
        for n in 0..events {
            if self.callbacks.is_empty() {
                break;
            }
            let pick = (seed as usize).wrapping_add(n) % self.callbacks.len();
            if let Err(RuntimeError::BudgetExhausted) = self.fire_callback(obs, pick) {
                return Err(RuntimeError::BudgetExhausted);
            }
        }
        Ok(())
    }
}
