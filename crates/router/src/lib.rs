//! `dexlego-router`: a sharding tier in front of a fleet of `dexlegod`
//! backends.
//!
//! The paper's harness extracts one app at a time; the service tier
//! (PR 8) made one daemon serve many clients. This crate scales the
//! other axis: many daemons behind one endpoint. The router computes
//! each job's content-addressed store key itself — the same SHA-1
//! input digest the daemon uses — and places it on a consistent-hash
//! ring of backends, so every extraction lands where its cached result
//! lives. Around that placement it layers the reliability mechanics a
//! fleet needs: hedged retries against the tail, R-way replication of
//! fresh results, read-repair when replicas drift, and per-backend
//! health ejection so a dead shard degrades to cache misses instead of
//! client-visible errors.
//!
//! Both faces speak the `dexlegod` newline-JSON dialect, so existing
//! clients, the load harness, and the bench drive a fleet unchanged. A
//! router is one thread: `dexlegod`'s own server core
//! ([`dexlego_service::core`]), started with no worker threads, runs the front
//! with the daemon's framing, pending bound, backpressure and drain, and
//! routes on its loop, with the backends as the core's upstream
//! connections and each routed request a parked reply. It serves
//! `extract` and `stats` and refuses the store ops. Its `stats` reply
//! sums the backends' and adds a `router` member, the routing counters
//! of [`RouterStats`] and the front core's own request counters, and a
//! `fleet` member with each backend's health and send counters, each
//! written by walking its counter table.

#![warn(missing_docs)]

mod backend;
pub mod ring;
pub mod router;

pub use backend::BackendStats;
pub use ring::Ring;
pub use router::{Router, RouterConfig, RouterStats};
