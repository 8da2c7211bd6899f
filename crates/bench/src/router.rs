//! Fleet load harness: the same pipelined load shape as [`service`],
//! but driven through `dexlego-router` fronting N `dexlegod` backends.
//!
//! Four measured configurations answer the questions the router design
//! raises:
//!
//! 1. **cold** — first pass through the hedged fleet: every request is
//!    a miss, runs the pipeline on its primary, and replicates.
//! 2. **warm hedged / warm unhedged** — identical warm replays through
//!    two routers over the *same* backends, differing only in whether
//!    hedging is armed. The delta is what hedging buys (or costs) on
//!    the tail.
//! 3. **single** — the same total load through a router fronting one
//!    backend configured exactly like each shard. Both sides pay the
//!    router hop, so the comparison isolates sharding + hedging.
//! 4. **kill** — a warm replay during which one backend is shut down
//!    mid-pass. The fleet's contract is that this degrades to failover
//!    and cache misses, never client-visible errors.
//!
//! Every warm configuration (the kill pass included) replays the request
//! set for the same wall time, [`WARM_PERIODS`] stall periods, so each
//! topology meets the same number of injected stalls whatever its hit
//! rate. Beside the p999s, each warm configuration reports how many
//! replies waited longer than a whole stall (`stall_slow_replies`): a
//! count with no timing margin, zero exactly when every stall was
//! absorbed.
//!
//! [`service`]: crate::service

use std::time::Duration;

use dexlego_harness::json;
use dexlego_harness::Counters;
use dexlego_router::{Router, RouterConfig, RouterStats};
use dexlego_service::{Client, Daemon, ServiceConfig};
use dexlego_store::TempDir;

use crate::service::{build_requests, pass_json, run_pass, LoadConfig, PassResult};

/// Stall periods each warm configuration runs for.
pub const WARM_PERIODS: u64 = 10;

/// Fleet shape: the per-pass load plus the fleet dimensions.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backends in the fleet.
    pub backends: usize,
    /// Hedge budget (ms) for the hedged router.
    pub hedge_ms: u64,
    /// Straggler injection: each backend stalls its event loop for
    /// `stall_ms` once per `stall_period_ms` window (0 disables). The
    /// same per-node profile applies to every configuration — fleet
    /// shards get phase-staggered schedules (offset `period / n`), the
    /// single baseline stalls on the same period — so the comparison
    /// measures how each topology *absorbs* stalls.
    pub stall_period_ms: u64,
    /// Injected stall duration, milliseconds.
    pub stall_ms: u64,
    /// Per-pass load shape; `workers` is per backend.
    pub load: LoadConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            backends: 3,
            hedge_ms: 20,
            stall_period_ms: 280,
            stall_ms: 90,
            load: LoadConfig::default(),
        }
    }
}

/// Results of one full fleet run.
#[derive(Debug, Clone)]
pub struct FleetBench {
    /// The shape that produced these numbers.
    pub config: FleetConfig,
    /// Cold fill through the hedged fleet.
    pub cold: PassResult,
    /// Warm replay through the hedged router.
    pub warm_hedged: PassResult,
    /// Warm replay through the unhedged router, same backends.
    pub warm_unhedged: PassResult,
    /// Warm replay through a router fronting one identically-configured
    /// backend.
    pub single_warm: PassResult,
    /// Warm replay during which one backend was shut down.
    pub kill: PassResult,
    /// Hedged-router counters at the end of the fleet phase.
    pub counters: RouterStats,
}

impl FleetBench {
    /// Replies of `pass` slower than a whole injected stall.
    pub fn stall_slow_replies(&self, pass: &PassResult) -> usize {
        pass.slower_than(self.config.stall_ms * 1000)
    }
}

fn start_fleet(
    n: usize,
    workers: usize,
    stall: (u64, u64),
) -> (Vec<TempDir>, Vec<Daemon>, Vec<String>) {
    let dirs: Vec<TempDir> = (0..n)
        .map(|i| TempDir::new(&format!("bench-fleet-{i}")).expect("temp store"))
        .collect();
    let daemons: Vec<Daemon> = dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| {
            let mut service = ServiceConfig::new(dir.path());
            service.workers = workers;
            service.stall_period_ms = stall.0;
            service.stall_ms = stall.1;
            // De-phase the shards' stall windows: real fleets rarely
            // pause in lockstep, and a hedge is only an escape hatch if
            // some replica is healthy while another is stuck.
            service.stall_phase_ms = stall.0 * i as u64 / n as u64;
            Daemon::start(service).expect("backend starts")
        })
        .collect();
    let addrs = daemons.iter().map(|d| d.addr().to_string()).collect();
    (dirs, daemons, addrs)
}

fn front(addrs: Vec<String>, hedge_ms: u64) -> Router {
    let mut config = RouterConfig::new(addrs);
    config.hedge_ms = hedge_ms;
    Router::start(config).expect("router starts")
}

/// Effectively disables hedging without risking `Instant` overflow.
const NO_HEDGE_MS: u64 = 3_600_000;

fn shutdown_front(addr: &str, router: Router) {
    let mut control = Client::connect(addr).expect("router control");
    control.shutdown().expect("router shutdown");
    drop(control);
    router.wait();
}

/// Runs the full fleet shape.
///
/// # Panics
///
/// Daemon/router start or transport failures — this is an experiment
/// driver, not a library.
pub fn run_fleet(config: FleetConfig) -> FleetBench {
    assert!(config.backends >= 1, "a fleet needs at least one backend");
    let load = &config.load;
    assert!(load.conns > 0 && load.requests_per_conn > 0 && load.window > 0);
    let requests = build_requests(load);

    // --- the fleet: N backends, one hedged and one unhedged router ---
    let stall = (config.stall_period_ms, config.stall_ms);
    let (_dirs, daemons, addrs) = start_fleet(config.backends, load.workers, stall);
    let hedged = front(addrs.clone(), config.hedge_ms);
    let unhedged = front(addrs, NO_HEDGE_MS);
    let hedged_addr = hedged.addr().to_string();
    let unhedged_addr = unhedged.addr().to_string();

    let cold = run_pass(&hedged_addr, &requests, load.window, Duration::ZERO);
    // Let the replication backfills land before measuring warm reads —
    // the kill pass below leans on every result having two copies.
    std::thread::sleep(Duration::from_millis(300));

    let warm_wall = Duration::from_millis(config.stall_period_ms * WARM_PERIODS);
    let warm = |addr: &str| run_pass(addr, &requests, load.window, warm_wall);
    let warm_hedged = warm(&hedged_addr);
    let warm_unhedged = warm(&unhedged_addr);

    // --- kill one backend mid-pass ---
    let mut daemons = daemons;
    let victim = daemons.remove(0);
    let kill = std::thread::scope(|scope| {
        let pass = scope.spawn(|| warm(&hedged_addr));
        // Aim for roughly a third of the way into the pass; if the pass
        // is already done the kill still precedes the assertions.
        let warm_ms = (warm_hedged.wall_s * 1000.0 / 3.0).max(1.0);
        std::thread::sleep(Duration::from_millis(warm_ms as u64));
        victim.trigger_shutdown();
        victim.wait();
        pass.join().expect("kill pass thread")
    });

    let mut control = Client::connect(&hedged_addr).expect("router control");
    let stats = control.stats().expect("router stats");
    let counters = stats
        .get("router")
        .map_or_else(RouterStats::default, RouterStats::read_counters);
    drop(control);
    shutdown_front(&hedged_addr, hedged);
    shutdown_front(&unhedged_addr, unhedged);
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }

    // --- single-backend baseline, also behind a router ---
    // One shard with the same per-node configuration: the comparison
    // answers what sharding + hedging buy at this offered load with
    // the per-backend deployment held fixed.
    let (_single_dir, single_daemons, single_addrs) = start_fleet(1, load.workers, stall);
    let single = front(single_addrs, NO_HEDGE_MS);
    let single_addr = single.addr().to_string();
    let fill = run_pass(&single_addr, &requests, load.window, Duration::ZERO);
    assert_eq!(fill.protocol_errors, 0, "single-backend fill errored");
    let single_warm = warm(&single_addr);
    shutdown_front(&single_addr, single);
    for daemon in single_daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }

    FleetBench {
        config,
        cold,
        warm_hedged,
        warm_unhedged,
        single_warm,
        kill,
        counters,
    }
}

/// Formats the result as one JSON object (the BENCH_router.json shape),
/// ending with the hedged router's counters in table order.
pub fn format(bench: &FleetBench) -> String {
    let mut out = String::new();
    let mut obj = json::ObjectWriter::new(&mut out);
    for (name, value) in [
        ("experiment", json::string("router_fleet")),
        ("backends", bench.config.backends.to_string()),
        ("hedge_ms", bench.config.hedge_ms.to_string()),
        ("stall_period_ms", bench.config.stall_period_ms.to_string()),
        ("stall_ms", bench.config.stall_ms.to_string()),
        ("conns", bench.config.load.conns.to_string()),
        (
            "requests_per_conn",
            bench.config.load.requests_per_conn.to_string(),
        ),
        ("window", bench.config.load.window.to_string()),
        ("insns", bench.config.load.insns.to_string()),
        ("workers_per_backend", bench.config.load.workers.to_string()),
        ("warm_periods", WARM_PERIODS.to_string()),
        ("cold", pass_json(&bench.cold)),
        ("warm_hedged", pass_json(&bench.warm_hedged)),
        ("warm_unhedged", pass_json(&bench.warm_unhedged)),
        ("single_warm", pass_json(&bench.single_warm)),
        ("kill_one_backend", pass_json(&bench.kill)),
        (
            "stall_slow_replies",
            json::object(&[
                (
                    "warm_hedged",
                    bench.stall_slow_replies(&bench.warm_hedged).to_string(),
                ),
                (
                    "warm_unhedged",
                    bench.stall_slow_replies(&bench.warm_unhedged).to_string(),
                ),
                (
                    "single_warm",
                    bench.stall_slow_replies(&bench.single_warm).to_string(),
                ),
            ]),
        ),
    ] {
        obj.raw(name, &value);
    }
    bench.counters.write_counters(&mut obj);
    obj.finish();
    out
}
