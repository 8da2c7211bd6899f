// `deny` rather than `forbid`: the `poll(2)` FFI submodule in `poll` opts
// back in with a scoped `allow`; everything else stays safe.
#![deny(unsafe_code)]

//! `dexlegod`: a persistent extraction service in front of the DexLego
//! pipeline.
//!
//! Batch extraction (the `dexlego-harness` crate) pays the full
//! collect/reassemble cost for every job, every run. In practice the same
//! packed application is analysed repeatedly — across experiment reruns,
//! across analysts, across tool versions that only change downstream
//! stages. This crate keeps the pipeline warm behind a daemon:
//!
//! - [`core`] — the server core: a single-threaded readiness-based event
//!   loop ([`poll`], over `poll(2)`) multiplexing every connection,
//!   speaking pipelined newline-delimited JSON ([`protocol`], framed by
//!   [`framing`]) with optional request ids and deadlines, handing
//!   deferred work round-robin to the worker threads it owns, one request
//!   per free worker, while the rest wait in one bounded queue per
//!   connection; it sheds load with structured `overloaded` /
//!   `deadline_exceeded` replies instead of queueing unboundedly, and
//!   drains gracefully on shutdown. The router in `dexlego-router` runs
//!   on the same core with no workers: it dials its backends as the
//!   core's upstream connections and answers its parked replies on the
//!   loop.
//! - [`server`] — the daemon itself: the core plus a handler that serves
//!   cache hits on the loop and runs misses on the workers.
//! - results are content-addressed into the persistent `dexlego-store`:
//!   a repeated request is served from disk, byte-identical to the fresh
//!   extraction, and a corrupted entry is quarantined and transparently
//!   re-extracted.
//! - [`client`] — the original blocking [`Client`] (id-less, strictly
//!   ordered — the compatibility dialect) and the [`PipelinedClient`]
//!   that keeps many tagged requests in flight, used by the latency-
//!   distribution load harness in `dexlego-bench`, perfbench, and the
//!   integration tests.

pub mod client;
pub mod core;
pub mod framing;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{
    decode_extract_reply, Client, ClientError, ClientResult, ExtractReply, PipelinedClient,
};
pub use framing::{FrameError, Framer};
pub use protocol::{
    parse_reply, parse_reply_line, parse_request, parse_request_line, ExtractRequest, Reply,
    Request, RequestId,
};
pub use server::{Daemon, PoolExecutor, ServiceConfig};
