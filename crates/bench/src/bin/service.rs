//! `dexlegod` load generator: latency distribution and sustained RPS, as
//! one JSON line (the format checked in as BENCH_service.json).
//!
//! ```text
//! cargo run -p dexlego-bench --bin service --release -- \
//!     [--conns N] [--requests N] [--window N] [--insns N] \
//!     [--deadline-ms N] [--workers N] [--router N] [--hedge-ms N] \
//!     [--stall-period-ms N] [--stall-ms N] [--smoke]
//! ```
//!
//! `--router N` switches to fleet mode: the same load shape driven
//! through `dexlego-router` fronting `N` in-process backends, emitting
//! the BENCH_router.json shape (warm tails with and without hedging, a
//! single-backend-via-router baseline, and a kill-one-backend pass).
//! Every backend — fleet and baseline alike — gets the same injected
//! straggler profile (`--stall-period-ms` / `--stall-ms`), the tail-at-scale
//! methodology: stalls cost no CPU, so the comparison measures how each
//! topology absorbs a stuck shard rather than raw machine parallelism.
//!
//! `--smoke` runs a small fixed shape and asserts the qualitative
//! invariants (`verify.sh` uses it as a regression gate): no protocol
//! errors, a fully warm second pass, and pipelining beating the serial
//! one-in-flight protocol on the warm path. Combined with `--router`,
//! the smoke instead asserts the fleet contract: replication happened,
//! the hedged fleet's warm p999 does not lose to the single-backend
//! baseline, no hedged warm reply waited out a whole stall while the
//! unhedged fleet and the single backend each had some that did, and
//! killing a backend mid-pass produced zero error replies.

use dexlego_bench::router::{run_fleet, FleetConfig};
use dexlego_bench::service::{run, LoadConfig};

fn main() {
    let mut config = LoadConfig::default();
    let mut smoke = false;
    let mut router_backends = 0usize;
    let mut hedge_ms = 20u64;
    let mut stall_period_ms = 280u64;
    let mut stall_ms = 90u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects a number"))
        };
        match arg.as_str() {
            "--conns" => config.conns = value("--conns"),
            "--requests" => config.requests_per_conn = value("--requests"),
            "--window" => config.window = value("--window"),
            "--insns" => config.insns = value("--insns"),
            "--deadline-ms" => config.deadline_ms = Some(value("--deadline-ms") as u64),
            "--workers" => config.workers = value("--workers"),
            "--router" => router_backends = value("--router"),
            "--hedge-ms" => hedge_ms = value("--hedge-ms") as u64,
            "--stall-period-ms" => stall_period_ms = value("--stall-period-ms") as u64,
            "--stall-ms" => stall_ms = value("--stall-ms") as u64,
            "--smoke" => smoke = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    if smoke {
        config = LoadConfig {
            conns: 3,
            requests_per_conn: 20,
            window: 8,
            insns: 40,
            deadline_ms: None,
            workers: 2,
        };
        if router_backends > 0 {
            router_backends = 3;
            // Warm passes run for a fixed number of stall periods, so the
            // request count only sizes the cold fill.
            config.requests_per_conn = 40;
            // Light pipelining keeps the healthy-path latency well under
            // the hedge budget, so hedges fire on stalls, not on load.
            config.window = 2;
            hedge_ms = 20;
            stall_period_ms = 280;
            stall_ms = 90;
        }
    }

    if router_backends > 0 {
        run_router_mode(
            router_backends,
            hedge_ms,
            (stall_period_ms, stall_ms),
            config,
            smoke,
        );
        return;
    }

    let bench = run(config);
    println!("{}", dexlego_bench::service::format(&bench));

    if smoke {
        assert_eq!(bench.cold.protocol_errors, 0, "cold pass protocol errors");
        assert_eq!(bench.warm.protocol_errors, 0, "warm pass protocol errors");
        let expected = bench.config.conns * bench.config.requests_per_conn;
        assert_eq!(bench.cold.completed, expected, "cold pass lost replies");
        assert_eq!(bench.warm.completed, expected, "warm pass lost replies");
        assert!(
            bench.warm.rps > bench.cold.rps,
            "warm pass should outrun the cold pass: {:.1} vs {:.1} rps",
            bench.warm.rps,
            bench.cold.rps
        );
        assert!(
            bench.pipelining_speedup > 1.0,
            "pipelining should beat serial turnaround: {:.2}x",
            bench.pipelining_speedup
        );
        eprintln!("service load smoke: ok");
    }
}

fn run_router_mode(
    backends: usize,
    hedge_ms: u64,
    stall: (u64, u64),
    load: LoadConfig,
    smoke: bool,
) {
    let bench = run_fleet(FleetConfig {
        backends,
        hedge_ms,
        stall_period_ms: stall.0,
        stall_ms: stall.1,
        load,
    });
    println!("{}", dexlego_bench::router::format(&bench));

    if smoke {
        let expected = bench.config.load.conns * bench.config.load.requests_per_conn;
        assert_eq!(bench.cold.completed, expected, "cold pass lost replies");
        for (name, pass) in [
            ("cold", &bench.cold),
            ("warm_hedged", &bench.warm_hedged),
            ("warm_unhedged", &bench.warm_unhedged),
            ("single_warm", &bench.single_warm),
            ("kill_one_backend", &bench.kill),
        ] {
            assert_eq!(pass.protocol_errors, 0, "{name} pass saw error replies");
            // Warm passes replay the set until their wall time is up.
            assert!(pass.completed >= expected, "{name} pass lost replies");
        }
        assert_eq!(
            bench.counters.fleet_errors, 0,
            "no request exhausted every candidate"
        );
        assert!(
            bench.counters.replica_fills > 0,
            "fresh fills were replicated"
        );
        assert!(
            bench.warm_hedged.latency.p999_us <= bench.single_warm.latency.p999_us,
            "hedged fleet warm p999 ({}us) lost to the single-backend baseline ({}us)",
            bench.warm_hedged.latency.p999_us,
            bench.single_warm.latency.p999_us
        );
        // No timing margin: a reply either waited out a whole stall or it
        // did not.
        let slow = |pass| bench.stall_slow_replies(pass);
        assert_eq!(
            slow(&bench.warm_hedged),
            0,
            "a hedged warm reply waited out a whole {} ms stall",
            bench.config.stall_ms
        );
        for (name, pass) in [
            ("unhedged fleet", &bench.warm_unhedged),
            ("single backend", &bench.single_warm),
        ] {
            assert!(slow(pass) > 0, "the {name} never waited out a stall");
        }
        eprintln!("router fleet smoke: ok");
    }
}
