//! The DexLego fleet router.
//!
//! ```text
//! dexlego-router --backend HOST:PORT [--backend HOST:PORT ...]
//!                [--addr HOST:PORT] [--replicas N] [--hedge-ms N]
//!                [--vnodes N] [--seed N]
//! ```
//!
//! Binds the front socket (port 0 picks an ephemeral port), prints
//! `dexlego-router: listening on <addr>` on stdout, and serves the
//! `dexlegod` wire dialect until a front `shutdown` request drains it.
//! Backends are dialled lazily, so the fleet may come up in any order.
//! The router is one thread; it has no worker pool to size. Exits 0
//! after a graceful shutdown.

use std::process::ExitCode;

use dexlego_router::{Router, RouterConfig};

fn parse_args() -> Result<RouterConfig, String> {
    fn parse_num<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String> {
        raw.parse().map_err(|_| format!("{name} expects a number"))
    }

    let mut config = RouterConfig::new(Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let raw = args.next();
        let value = || raw.ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--addr" => config.listen = value()?,
            "--backend" => config.backends.push(value()?),
            "--replicas" => config.replicas = parse_num::<usize>(&arg, value()?)?.max(1),
            "--hedge-ms" => config.hedge_ms = parse_num(&arg, value()?)?,
            "--vnodes" => config.vnodes = parse_num::<usize>(&arg, value()?)?.max(1),
            "--seed" => config.seed = parse_num(&arg, value()?)?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if config.backends.is_empty() {
        return Err("at least one --backend is required".to_owned());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(reason) => {
            eprintln!("dexlego-router: {reason}");
            return ExitCode::FAILURE;
        }
    };
    let fleet = config.backends.join(", ");
    let router = match Router::start(config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("dexlego-router: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The launch script greps this line for the resolved port.
    println!("dexlego-router: listening on {}", router.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("dexlego-router: fleet: {fleet}");
    router.wait();
    eprintln!("dexlego-router: drained, exiting");
    ExitCode::SUCCESS
}
