//! The DexLego extraction daemon.
//!
//! ```text
//! dexlegod [--addr HOST:PORT] [--workers N] [--store DIR]
//!          [--budget BYTES] [--max-pending N]
//! ```
//!
//! Binds (port 0 picks an ephemeral port), prints
//! `dexlegod: listening on <addr>` on stdout, and serves the pipelined
//! newline-delimited JSON protocol until a `shutdown` request drains it.
//! Worker count falls back to `DEXLEGO_WORKERS`, then to the CPU count.
//! Connections are multiplexed on one `poll(2)` event loop; a request no
//! worker is free for waits in its connection's queue, and `--max-pending`
//! caps how many a single connection may hold before the newest are shed
//! `overloaded`.
//! Exits 0 after a graceful shutdown.

use std::process::ExitCode;

use dexlego_harness::pool;
use dexlego_service::{Daemon, ServiceConfig};
use dexlego_store::StoreConfig;

fn parse_args() -> Result<ServiceConfig, String> {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut workers: Option<usize> = None;
    let mut store_root = std::env::temp_dir().join("dexlegod-store");
    let mut budget: Option<u64> = None;
    let mut max_pending: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers expects a number".to_owned())?,
                );
            }
            "--store" => store_root = value("--store")?.into(),
            "--max-pending" => {
                max_pending = Some(
                    value("--max-pending")?
                        .parse()
                        .map_err(|_| "--max-pending expects a number".to_owned())?,
                );
            }
            "--budget" => {
                budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|_| "--budget expects a byte count".to_owned())?,
                );
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }

    let mut store = StoreConfig::new(store_root);
    if let Some(bytes) = budget {
        store = store.with_budget(bytes);
    }
    let mut config = ServiceConfig::new(store.root.clone());
    config.addr = addr;
    config.workers = pool::resolve_workers(workers);
    config.store = store;
    if let Some(bound) = max_pending {
        config.max_pending_per_conn = bound;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(reason) => {
            eprintln!("dexlegod: {reason}");
            return ExitCode::FAILURE;
        }
    };
    let store_root = config.store.root.display().to_string();
    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("dexlegod: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The launch script greps this line for the resolved port.
    println!("dexlegod: listening on {}", daemon.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("dexlegod: store at {store_root}");
    daemon.wait();
    eprintln!("dexlegod: drained, exiting");
    ExitCode::SUCCESS
}
