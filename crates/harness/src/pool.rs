//! The sharded worker pool.
//!
//! Two layers:
//!
//! * [`run_batch`] — the harness proper: spreads [`JobSpec`]s over
//!   `std::thread` workers with [`parallel_map`], each of which executes
//!   jobs via [`execute_job`] (own runtime, panic capture, fuel timeout),
//!   and returns the [`JobReport`]s in submission order as a
//!   [`RunReport`].
//! * [`parallel_map`] — the generic work-stealing layer the bench drivers
//!   use: apply a function across a worker pool with per-item panic
//!   capture.

use std::time::Instant;

use crate::job::{execute_job, JobSpec};
use crate::report::{JobReport, RunReport};

// The generic layer lives in `dexlego-pool` (dependency-free, below every
// other crate) so the verifier shares it; re-exported here so existing
// `harness::pool` callers keep their import paths.
pub use dexlego_pool::{
    default_workers, parallel_map, parallel_map_expect, resolve_workers, WORKERS_ENV,
};

/// Worker-pool configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
}

impl HarnessConfig {
    /// A config with `workers` threads.
    pub fn with_workers(workers: usize) -> HarnessConfig {
        HarnessConfig {
            workers: workers.max(1),
        }
    }
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig::with_workers(default_workers())
    }
}

/// Runs every job across the worker pool and aggregates the reports in
/// submission order. Individual job failures (panic, timeout, verifier
/// rejection, …) are recorded in their report and never abort the batch.
pub fn run_batch(jobs: Vec<JobSpec>, config: &HarnessConfig) -> RunReport {
    run_batch_with(jobs, config, execute_job)
}

/// [`run_batch`] with a pluggable per-job executor — the seam through which
/// cache-aware runs ([`crate::cache::run_batch_cached`]) reuse the sharding
/// machinery. No more workers run than there are jobs.
///
/// # Panics
///
/// If `exec` itself panics (the executors here capture a job's panic in
/// its report instead).
pub fn run_batch_with<E>(jobs: Vec<JobSpec>, config: &HarnessConfig, exec: E) -> RunReport
where
    E: Fn(JobSpec) -> JobReport + Sync,
{
    let start = Instant::now();
    let workers = config.workers.max(1).min(jobs.len().max(1));
    let jobs = parallel_map_expect(jobs, workers, exec);
    RunReport {
        workers,
        wall_us: start.elapsed().as_micros() as u64,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        assert!(HarnessConfig::default().workers >= 1);
    }
}
