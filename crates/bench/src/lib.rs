#![forbid(unsafe_code)]

//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each with a function that computes the result and a
//! formatter that prints it in the paper's shape.
//!
//! Binaries under `src/bin/` (`table1` … `table8`, `fig5`, `fig6`, `all`)
//! call these functions; `cargo run -p dexlego-bench --bin all` regenerates
//! every number for EXPERIMENTS.md. The extra `service` binary is a load
//! generator for a live `dexlegod` daemon — concurrent pipelined
//! connections, cold vs warm passes, and a per-request latency
//! distribution ([`service`] + [`stats`], emitting BENCH_service.json);
//! `service --router N` drives the same shape through a `dexlego-router`
//! fleet ([`router`], emitting BENCH_router.json).
//! `interp` compares decode-per-step against the quickened fast path
//! in instructions/sec ([`interp`], emitting BENCH_interp.json),
//! `verifier` compares the reference sequential fixpoint against the fast
//! verification path and its whole-DEX cache ([`verifier`], emitting
//! BENCH_verifier.json), and `taint_gate` is the taint-precision
//! regression gate run by `verify.sh` ([`taint_gate`]).

pub mod common;
pub mod fig5;
pub mod fig6;
pub mod interp;
pub mod router;
pub mod service;
pub mod stats;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod taint_gate;
pub mod verifier;

pub use common::{reveal_sample, reveal_samples, RevealedSample};
