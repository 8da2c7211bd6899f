//! Dependency-free parallel primitives shared across the workspace.
//!
//! This crate sits *below* every other `dexlego-*` crate so that leaf
//! libraries (the verifier, the bench drivers, the batch harness) can all
//! share one worker-pool idiom without forming dependency cycles:
//!
//! * [`parallel_map`] / [`parallel_map_expect`] — apply a function across a
//!   bounded pool of `std::thread` workers, preserving submission order and
//!   capturing per-item panics.
//! * [`join`] — two closures side by side, each outcome (panic payload
//!   included) handed back untouched.
//! * [`default_workers`] / [`resolve_workers`] / [`WORKERS_ENV`] — the
//!   worker-count policy every driver resolves through.
//!
//! `dexlego-harness` re-exports everything here from its `pool` module, so
//! existing callers keep their import paths; the verifier reaches the same
//! machinery directly for parallel per-method verification.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (≥ 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Environment variable overriding the default worker count, so CI boxes
/// can pin parallelism without threading a flag through every driver.
pub const WORKERS_ENV: &str = "DEXLEGO_WORKERS";

/// Resolves a worker count: an explicit request (CLI flag) wins, then the
/// [`WORKERS_ENV`] environment variable, then [`default_workers`]. The
/// result is always clamped to ≥ 1; unparseable env values are ignored.
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var(WORKERS_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(default_workers)
        .max(1)
}

/// Renders a panic payload as the human-readable message it was raised
/// with, falling back to a fixed string for non-string payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Applies `f` to every item on a pool of `workers` threads, preserving
/// order. Each application is individually panic-captured: a panicking item
/// yields `Err(message)` without disturbing its neighbours.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let items = &items;
            let results = &results;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i]
                    .lock()
                    .expect("item lock")
                    .take()
                    .expect("each index claimed once");
                let out = catch_unwind(AssertUnwindSafe(|| f(item)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                *results[i].lock().expect("result lock") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock")
                .expect("every index processed")
        })
        .collect()
}

/// [`parallel_map`] for infallible work: panics (with the original message)
/// if any item panicked. Bench drivers use this where a failure should
/// fail the whole experiment.
pub fn parallel_map_expect<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map(items, workers, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("parallel task failed: {e}")))
        .collect()
}

/// Runs `a` on the calling thread and `b` on one scoped helper thread, and
/// returns both outcomes, in argument order, once both have finished.
///
/// A panic in either closure is caught and handed back as its `Err`
/// payload, untouched (not rendered to a string as [`parallel_map`]
/// does), so the caller can re-raise it with
/// [`std::panic::resume_unwind`] exactly where a sequential run would
/// have panicked, or drop it where a sequential run would never have got
/// that far.
pub fn join<RA, RB>(
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send,
) -> (std::thread::Result<RA>, std::thread::Result<RB>)
where
    RB: Send,
{
    std::thread::scope(|scope| {
        let helper = scope.spawn(b);
        let ra = catch_unwind(AssertUnwindSafe(a));
        (ra, helper.join())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..37).collect(), 4, |i: i32| i * 2);
        assert_eq!(out.len(), 37);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as i32 * 2);
        }
    }

    #[test]
    fn parallel_map_captures_panics_per_item() {
        let out = parallel_map(vec![1, 2, 3], 2, |i: i32| {
            assert!(i != 2, "item two explodes");
            i
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        let err = out[1].as_ref().unwrap_err();
        assert!(err.contains("item two explodes"), "{err}");
    }

    #[test]
    fn parallel_map_handles_empty_and_single_worker() {
        assert!(parallel_map(Vec::<i32>::new(), 4, |i| i).is_empty());
        let out = parallel_map(vec![5, 6], 1, |i: i32| i + 1);
        assert_eq!(out, vec![Ok(6), Ok(7)]);
    }

    #[test]
    fn join_returns_both_results_in_argument_order() {
        let caller = std::thread::current().id();
        let (a, b) = join(
            || (std::thread::current().id(), "a"),
            || (std::thread::current().id(), 2_u8),
        );
        let (a_thread, a) = a.unwrap();
        let (b_thread, b) = b.unwrap();
        assert_eq!((a, b), ("a", 2));
        assert_eq!(a_thread, caller, "the first closure runs on the caller");
        assert_ne!(b_thread, caller, "the second runs on a helper");
    }

    #[test]
    fn join_keeps_each_panic_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let (a, b) = join(
            || -> u8 { std::panic::panic_any(Payload(7)) },
            || -> u8 { std::panic::panic_any(String::from("helper broke")) },
        );
        let a = a.unwrap_err();
        assert_eq!(a.downcast_ref::<Payload>(), Some(&Payload(7)));
        let b = b.unwrap_err();
        assert_eq!(b.downcast_ref::<String>().unwrap(), "helper broke");
        // One side panicking leaves the other's result intact.
        let (a, b) = join(|| 1, || -> u8 { panic!("only b") });
        assert_eq!(a.unwrap(), 1);
        assert_eq!(panic_message(b.unwrap_err().as_ref()), "only b");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn resolve_workers_prefers_explicit_then_env() {
        // This is the only test touching the variable, so set/remove is
        // safe even under the parallel test runner.
        std::env::remove_var(WORKERS_ENV);
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1, "clamped to >= 1");
        assert!(resolve_workers(None) >= 1);
        std::env::set_var(WORKERS_ENV, "2");
        assert_eq!(resolve_workers(None), 2);
        assert_eq!(resolve_workers(Some(5)), 5, "explicit beats env");
        std::env::set_var(WORKERS_ENV, "0");
        assert_eq!(resolve_workers(None), 1, "env clamped to >= 1");
        std::env::set_var(WORKERS_ENV, "not-a-number");
        assert!(resolve_workers(None) >= 1, "garbage env ignored");
        std::env::remove_var(WORKERS_ENV);
    }

    #[test]
    fn panic_message_downcasts_strings() {
        assert_eq!(panic_message(&"s" as &(dyn std::any::Any + Send)), "s");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let other: Box<dyn std::any::Any + Send> = Box::new(17_u8);
        assert!(panic_message(other.as_ref()).contains("non-string"));
    }
}
