#![forbid(unsafe_code)]

//! The corpus-scale batch-extraction harness.
//!
//! DexLego's evaluation runs the collect/reassemble pipeline over whole
//! corpora of (application, packer-profile) pairs. This crate makes such
//! runs practical:
//!
//! - **Sharding** ([`pool`]): a work-list of [`JobSpec`]s is spread over a
//!   `std::thread` worker pool, and the reports come back in submission
//!   order.
//! - **Fault isolation** ([`job`]): each job runs in its own freshly
//!   constructed [`Runtime`], wrapped in `catch_unwind` so a panicking
//!   interpreter run is reported as a failed job instead of killing the
//!   batch, and with a *fuel* (instruction-budget) timeout so a runaway
//!   loop in a sample becomes a reported [`JobStatus::Timeout`].
//! - **Reporting** ([`report`]): every job yields a structured
//!   [`JobReport`] — status, wall time, the job counters named once in
//!   [`COUNTERS`] (interpreted instructions, collection counts,
//!   verifier outcome, …), and the per-phase pipeline timings recorded by
//!   [`dexlego_core::PipelineMetrics`] — aggregated into a [`RunReport`]
//!   serialisable as JSON.
//! - **Conformance** ([`conformance`]): differential checking that the
//!   extracted+reassembled DEX behaves like the original — equal observable
//!   event streams (method entries, field writes, branch outcomes).
//! - **Corpus generation** ([`corpus`]): work-lists over generated apps ×
//!   packer profiles for smoke runs and scale experiments.
//! - **Result caching** ([`cache`]): jobs are content-addressed
//!   (input DEX + profile + parameters + extractor version) into the
//!   persistent `dexlego-store`, so identical extractions are served from
//!   disk and a rerun of the same corpus is near-free
//!   ([`cache::run_batch_cached`]).
//!
//! The generic layer ([`pool::parallel_map`]) is what `dexlego-bench` uses
//! to execute every paper experiment with parallel execution and panic
//! capture.
//!
//! [`Runtime`]: dexlego_runtime::Runtime
//! [`JobStatus::Timeout`]: job::JobStatus::Timeout
//!
//! # Example
//!
//! ```
//! use dexlego_harness::{corpus, pool};
//!
//! let spec = corpus::CorpusSpec {
//!     apps: 2,
//!     base_insns: 80,
//!     ..corpus::CorpusSpec::default()
//! };
//! let jobs = corpus::work_list(&spec);
//! let report = pool::run_batch(jobs, &pool::HarnessConfig::with_workers(2));
//! assert!(report.ok(), "{}", report.summary());
//! ```

pub mod cache;
pub mod conformance;
pub mod corpus;
pub mod job;
pub mod json;
pub mod pool;
pub mod report;

pub use cache::{execute_job_cached, execute_job_keyed, input_key, job_key, run_batch_cached};
pub use conformance::{
    check_reveal, check_revealed, diff_traces, trace_app, trace_original, OriginalTraces,
    TraceEvent, TraceRecorder,
};
pub use corpus::{all_packers, work_list, CorpusSpec};
pub use job::{execute_job, execute_job_revealing, JobSpec, JobStatus, DEFAULT_FUEL};
pub use pool::{
    default_workers, parallel_map, parallel_map_expect, resolve_workers, run_batch, run_batch_with,
    HarnessConfig, WORKERS_ENV,
};
pub use report::{Counters, JobReport, RunReport, COUNTERS};
