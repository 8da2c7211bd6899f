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

use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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

/// A unit of work for a [`JobPool`]: it runs once, on a worker thread,
/// and hands its result back by its own means.
pub type Job = Box<dyn FnOnce() + Send>;

/// A *persistent* worker pool with bounded admission — the service-facing
/// sibling of [`run_batch`]. Where `run_batch` owns a finite work-list, a
/// server takes work as it arrives and must never block its event loop on
/// a backlog: [`JobPool::try_submit`] either enqueues the job or hands it
/// straight back so the caller can keep it queued or shed it.
///
/// Dropping the pool (or calling [`JobPool::shutdown`]) closes admission
/// and *drains*: queued and running jobs finish before the worker
/// threads exit.
pub struct JobPool {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl JobPool {
    /// A pool of `workers` threads admitting at most `queue_depth` queued
    /// jobs beyond the ones running.
    pub fn new(workers: usize, queue_depth: usize) -> JobPool {
        let (tx, rx) = sync_channel::<Job>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the lock only for the dequeue, not the job.
                    let next = rx.lock().expect("pool queue lock").recv();
                    let Ok(job) = next else { break };
                    job();
                })
            })
            .collect();
        JobPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueues `job` if the queue has room; `Err` hands it back unrun.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let tx = self.tx.as_ref().expect("pool not shut down");
        tx.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
        })
    }

    /// Closes admission and blocks until every admitted job has completed
    /// and the workers have exited.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn default_config_is_sane() {
        assert!(HarnessConfig::default().workers >= 1);
    }

    /// A pool of one worker and a one-slot queue whose jobs block until
    /// released, so occupancy is deterministic.
    #[test]
    fn job_pool_rejects_when_saturated_and_drains_on_shutdown() {
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let done = Arc::new(AtomicUsize::new(0));
        let blocking = || -> Job {
            let release_rx = Arc::clone(&release_rx);
            let done = Arc::clone(&done);
            Box::new(move || {
                release_rx
                    .lock()
                    .expect("release lock")
                    .recv()
                    .expect("released");
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        let pool = JobPool::new(1, 1);

        assert!(pool.try_submit(blocking()).is_ok(), "first admitted");
        // Wait until the worker has dequeued the first job (the queue is
        // empty again), then fill the queue with the second.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while pool.try_submit(blocking()).is_err() {
            assert!(
                Instant::now() < deadline,
                "queue never accepted the second job"
            );
            std::thread::yield_now();
        }
        // Depending on dequeue timing the pool may briefly have capacity
        // for one more; saturate until it refuses.
        let mut admitted = 2;
        while pool.try_submit(blocking()).is_ok() {
            admitted += 1;
            assert!(admitted <= 3, "queue depth 1 admitted too much");
        }

        // Release every admitted job and require the drain to finish them.
        for _ in 0..admitted {
            release_tx.send(()).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), admitted);
    }

    #[test]
    fn job_pool_notify_hook_delivers_from_the_worker() {
        let pool = JobPool::new(1, 1);
        let (tx, rx) = channel();
        let caller = std::thread::current().id();
        let admitted = pool.try_submit(Box::new(move || {
            tx.send(std::thread::current().id() != caller).unwrap();
        }));
        assert!(admitted.is_ok(), "admitted");
        assert!(rx.recv().unwrap(), "the job ran on a worker thread");
        pool.shutdown();
    }

    #[test]
    fn job_pool_runs_real_jobs() {
        let pool = JobPool::new(2, 4);
        let apps = dexlego_droidbench::appgen::corpus_apps(1, 60);
        let (_, app) = &apps[0];
        let spec = JobSpec::new("real", app.dex.clone(), &app.entry);
        let (tx, rx) = channel();
        let admitted = pool.try_submit(Box::new(move || {
            tx.send(crate::job::execute_job_revealing(spec)).unwrap();
        }));
        assert!(admitted.is_ok(), "admitted");
        let (report, dex) = rx.recv().unwrap();
        assert!(report.status.is_ok(), "{:?}", report.status);
        let bytes = dex.expect("successful job carries revealed DEX");
        assert!(dexlego_dex::reader::read_dex(&bytes).is_ok());
        pool.shutdown();
    }
}
