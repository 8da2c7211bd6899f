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
//! - [`server`] — the daemon itself: a single-threaded readiness-based
//!   event loop ([`poll`], over `poll(2)`)
//!   multiplexing every connection, speaking pipelined newline-delimited
//!   JSON ([`protocol`], framed by [`framing`]) with optional request ids
//!   and deadlines, dispatching extractions round-robin onto a bounded
//!   [`JobPool`] and shedding load with structured `overloaded` /
//!   `deadline_exceeded` replies instead of queueing unboundedly, with
//!   graceful drain on shutdown.
//! - results are content-addressed into the persistent `dexlego-store`:
//!   a repeated request is served from disk, byte-identical to the fresh
//!   extraction, and a corrupted entry is quarantined and transparently
//!   re-extracted.
//! - [`client`] — the original blocking [`Client`] (id-less, strictly
//!   ordered — the compatibility dialect) and the [`PipelinedClient`]
//!   that keeps many tagged requests in flight, used by the `dexlegod`
//!   binaries, the latency-distribution load harness in `dexlego-bench`,
//!   and the integration tests.
//!
//! [`JobPool`]: dexlego_harness::JobPool

pub mod client;
pub mod framing;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{
    decode_extract_reply, Backoff, Client, ClientError, ClientResult, ExtractReply,
    PipelinedClient, PipelinedReceiver, PipelinedSender,
};
pub use framing::{FrameError, Framer};
pub use protocol::{
    parse_reply, parse_reply_line, parse_request, parse_request_line, ExtractRequest, Reply,
    Request, RequestId,
};
pub use server::{Daemon, ServiceConfig};
