//! `dexlegod` load harness: latency distribution and sustained RPS under
//! concurrent, pipelined load.
//!
//! Starts an in-process daemon on an ephemeral loop-back port with a
//! fresh store, then drives it with `conns` concurrent connections, each
//! keeping up to `window` tagged requests in flight (the pipelined
//! dialect) until it has pushed `requests_per_conn` extractions through.
//! Every request carries unique fuzzing seeds, so the cold pass is all
//! pipeline misses; the warm pass replays the identical requests and is
//! served entirely from the content-addressed store.
//!
//! Per pass the harness reports wall time, sustained requests/sec, and
//! the per-request latency distribution (p50/p90/p99/p999, send to
//! reply). A final single-connection comparison replays a warm
//! minimal-payload probe two ways — strictly serially (the old
//! one-in-flight protocol) and pipelined — to measure what multiplexing
//! alone buys on the protocol turnaround.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::{self, Value};
use dexlego_packer::PackerId;
use dexlego_service::{
    Client, Daemon, ExtractReply, ExtractRequest, PipelinedClient, ServiceConfig,
};
use dexlego_store::TempDir;

use crate::stats::{latency_stats, LatencyStats};

/// Load-generator shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections.
    pub conns: usize,
    /// Extractions pushed through each connection per pass.
    pub requests_per_conn: usize,
    /// Maximum tagged requests in flight per connection.
    pub window: usize,
    /// Instruction count of each generated app (payload size knob).
    pub insns: usize,
    /// Optional per-request deadline to exercise shedding under load.
    pub deadline_ms: Option<u64>,
    /// Daemon worker threads.
    pub workers: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            conns: 4,
            requests_per_conn: 32,
            window: 8,
            insns: 60,
            deadline_ms: None,
            workers: 2,
        }
    }
}

/// One pass (cold or warm) across all connections.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Completed requests across all connections.
    pub completed: usize,
    /// Sustained requests/sec over the pass.
    pub rps: f64,
    /// Send-to-reply latency distribution, microseconds.
    pub latency: LatencyStats,
    /// Every send-to-reply latency, microseconds, ascending.
    pub samples_us: Vec<u64>,
    /// Requests shed `overloaded`.
    pub overloaded: usize,
    /// Requests shed `deadline_exceeded`.
    pub deadline_exceeded: usize,
    /// Replies that failed to parse, carried an unknown id, or answered
    /// `error`/`failed` — any of these is a harness failure.
    pub protocol_errors: usize,
}

/// Results of one full load run.
#[derive(Debug, Clone)]
pub struct ServiceBench {
    /// The shape that produced these numbers.
    pub config: LoadConfig,
    /// First pass: every request runs the extraction pipeline.
    pub cold: PassResult,
    /// Second pass: identical requests, served from the store.
    pub warm: PassResult,
    /// Warm replay of the single-connection turnaround probe, one request
    /// in flight at a time (the old blocking protocol): best round,
    /// requests/sec.
    pub serial_one_conn_rps: f64,
    /// The same warm probe with `window` requests in flight: best round,
    /// requests/sec.
    pub pipelined_one_conn_rps: f64,
    /// What pipelining alone buys on the warm path: the median over
    /// paired rounds of (pipelined rps / serial rps). Each pair runs
    /// back-to-back so both sides see the same machine conditions; the
    /// median shrugs off rounds a scheduler hiccup distorted. This is
    /// deliberately not the quotient of the two best-round rates above —
    /// those may come from different rounds.
    pub pipelining_speedup: f64,
    /// Cache hits / extracts over both passes, from the daemon's stats.
    pub hit_rate: f64,
}

impl PassResult {
    /// Replies slower than `us` microseconds.
    pub fn slower_than(&self, us: u64) -> usize {
        self.samples_us.len() - self.samples_us.partition_point(|&s| s <= us)
    }
}

/// Builds each connection's request list. Seeds are part of the job
/// digest, so giving every request a unique seed makes every cold
/// request a genuine miss and every warm replay a genuine hit.
pub(crate) fn build_requests(config: &LoadConfig) -> Vec<Vec<ExtractRequest>> {
    let packers = PackerId::table1();
    let apps = corpus_apps(config.conns, config.insns);
    apps.into_iter()
        .enumerate()
        .map(|(conn, (name, app))| {
            let dex = write_dex(&app.dex).expect("serialise app");
            (0..config.requests_per_conn)
                .map(|i| {
                    let mut req = ExtractRequest::new(dex.clone(), &app.entry);
                    req.name = Some(format!("{name}/c{conn}r{i}"));
                    req.packer = Some(
                        packers[(conn + i) % packers.len()]
                            .profile()
                            .name
                            .to_owned(),
                    );
                    req.seeds = vec![(conn * config.requests_per_conn + i + 1) as u64];
                    req.deadline_ms = config.deadline_ms;
                    req
                })
                .collect()
        })
        .collect()
}

/// Builds the single-connection turnaround probe: one tiny app replayed
/// with seeds disjoint from the load passes (offset far past them), so
/// per-request protocol turnaround — not payload parsing — dominates the
/// serial-vs-pipelined comparison.
fn build_turnaround_probe(config: &LoadConfig) -> Vec<ExtractRequest> {
    // Fixed length regardless of the pass shape: a round must be long
    // enough to measure, even when the passes themselves are small.
    const PROBE_REQUESTS: usize = 64;
    let seed_base = (config.conns * config.requests_per_conn) as u64 + 1_000;
    let (name, app) = corpus_apps(1, 10).into_iter().next().expect("probe app");
    let dex = write_dex(&app.dex).expect("serialise probe app");
    (0..PROBE_REQUESTS)
        .map(|i| {
            let mut req = ExtractRequest::new(dex.clone(), &app.entry);
            req.name = Some(format!("{name}/probe{i}"));
            req.seeds = vec![seed_base + i as u64];
            req
        })
        .collect()
}

/// Drives one connection for one pass: windowed pipelining through
/// `requests` once, then round them again until `until` has passed;
/// returns once every request sent has its reply, with the latency
/// samples (µs) and counters.
pub(crate) fn drive_conn(
    addr: &str,
    requests: &[ExtractRequest],
    window: usize,
    until: Instant,
) -> (Vec<u64>, PassResult) {
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let mut result = PassResult::default();
    let mut samples = Vec::with_capacity(requests.len());
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize;
    let more = |next: usize| next < requests.len() || Instant::now() < until;
    // Refill in half-window batches rather than one send per receive:
    // sends are buffered, so each refill is one write for the whole
    // batch while the pipeline stays at least half full.
    let refill_at = (window / 2).max(1);
    while more(next) || !sent_at.is_empty() {
        while more(next) && sent_at.len() < window {
            let id = client
                .send_extract(&requests[next % requests.len()])
                .expect("send");
            sent_at.insert(id, Instant::now());
            next += 1;
        }
        let drain_to = if more(next) { refill_at } else { 0 };
        while sent_at.len() > drain_to {
            match client.recv_extract() {
                Ok((id, reply)) => {
                    let Some(sent) = sent_at.remove(&id) else {
                        result.protocol_errors += 1;
                        continue;
                    };
                    samples.push(sent.elapsed().as_micros() as u64);
                    result.completed += 1;
                    match reply {
                        ExtractReply::Done { .. } => {}
                        ExtractReply::Overloaded => result.overloaded += 1,
                        ExtractReply::DeadlineExceeded { .. } => result.deadline_exceeded += 1,
                        ExtractReply::Failed { .. } => result.protocol_errors += 1,
                    }
                }
                Err(_) => {
                    result.protocol_errors += 1;
                    // An undecodable reply still consumed one in-flight
                    // slot; drop the oldest so the window cannot wedge.
                    if let Some(&oldest) = sent_at.keys().min() {
                        sent_at.remove(&oldest);
                    }
                }
            }
        }
    }
    (samples, result)
}

/// One pass over all connections concurrently: every request once, then
/// round the lists again until `min_wall` has passed. Merges the
/// per-connection samples and counters under a single pass-wide clock.
pub(crate) fn run_pass(
    addr: &str,
    requests: &[Vec<ExtractRequest>],
    window: usize,
    min_wall: Duration,
) -> PassResult {
    let start = Instant::now();
    let until = start + min_wall;
    let per_conn: Vec<(Vec<u64>, PassResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|reqs| scope.spawn(move || drive_conn(addr, reqs, window, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut merged = PassResult {
        wall_s,
        ..PassResult::default()
    };
    let mut samples = Vec::new();
    for (conn_samples, conn_result) in per_conn {
        samples.extend(conn_samples);
        merged.completed += conn_result.completed;
        merged.overloaded += conn_result.overloaded;
        merged.deadline_exceeded += conn_result.deadline_exceeded;
        merged.protocol_errors += conn_result.protocol_errors;
    }
    merged.rps = merged.completed as f64 / wall_s.max(1e-9);
    merged.latency = latency_stats(&mut samples);
    merged.samples_us = samples;
    merged
}

/// Warm single-connection replay, one request in flight at a time — the
/// old protocol's turnaround, measured with the old blocking client.
fn serial_replay(addr: &str, requests: &[ExtractRequest]) -> f64 {
    let mut client = Client::connect(addr).expect("connect");
    let start = Instant::now();
    for req in requests {
        match client.extract(req).expect("serial extract") {
            ExtractReply::Done { .. } => {}
            other => panic!("serial replay did not complete: {other:?}"),
        }
    }
    requests.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the full load shape against a fresh daemon.
///
/// # Panics
///
/// Daemon start, transport, or job failures — this is an experiment
/// driver, not a library.
pub fn run(config: LoadConfig) -> ServiceBench {
    assert!(config.conns > 0 && config.requests_per_conn > 0 && config.window > 0);
    let dir = TempDir::new("bench-service").expect("temp store");
    let mut service = ServiceConfig::new(dir.path());
    service.workers = config.workers;
    // The generator never exceeds its window, so nothing is shed as long
    // as the window fits the per-connection bound.
    assert!(
        config.window <= service.max_pending_per_conn,
        "window {} exceeds the server's per-connection bound {}",
        config.window,
        service.max_pending_per_conn
    );
    let daemon = Daemon::start(service).expect("daemon starts");
    let addr = daemon.addr().to_string();

    let requests = build_requests(&config);
    let cold = run_pass(&addr, &requests, config.window, Duration::ZERO);
    let warm = run_pass(&addr, &requests, config.window, Duration::ZERO);

    // Single-connection protocol-turnaround comparison: identical warm
    // requests, one connection, only the in-flight budget differs.
    // Pipelining saves per-request turnaround (wakeups, syscalls, the
    // client's idle round trip), so the probe uses minimal payloads to
    // keep that cost visible next to request parsing; an untimed
    // pipelined pass warms the store first. Each round finishes in
    // milliseconds — all scheduler noise individually — so run the two
    // modes as back-to-back pairs and take the median of the per-pair
    // ratios (see [`ServiceBench::pipelining_speedup`]).
    const ONE_CONN_ROUNDS: usize = 7;
    let probe_requests = build_turnaround_probe(&config);
    let (_, warmup) = drive_conn(&addr, &probe_requests, config.window, Instant::now());
    assert_eq!(warmup.protocol_errors, 0, "probe warm-up errored");
    let mut serial_one_conn_rps = 0f64;
    let mut pipelined_one_conn_rps = 0f64;
    let mut ratios = Vec::with_capacity(ONE_CONN_ROUNDS);
    for _ in 0..ONE_CONN_ROUNDS {
        let serial_rps = serial_replay(&addr, &probe_requests);
        let start = Instant::now();
        let (_, pass) = drive_conn(&addr, &probe_requests, config.window, start);
        assert_eq!(pass.protocol_errors, 0, "pipelined replay errored");
        let pipelined_rps = pass.completed as f64 / start.elapsed().as_secs_f64().max(1e-9);
        serial_one_conn_rps = serial_one_conn_rps.max(serial_rps);
        pipelined_one_conn_rps = pipelined_one_conn_rps.max(pipelined_rps);
        ratios.push(pipelined_rps / serial_rps.max(1e-9));
    }
    ratios.sort_unstable_by(|a, b| a.total_cmp(b));
    let pipelining_speedup = ratios[ratios.len() / 2];

    let mut control = Client::connect(&addr).expect("control connection");
    let stats = control.stats().expect("stats");
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap_or(0) as f64;
    let extracts = stats.get("extracts").and_then(Value::as_u64).unwrap_or(0) as f64;
    control.shutdown().expect("shutdown");
    drop(control);
    daemon.wait();

    ServiceBench {
        config,
        cold,
        warm,
        serial_one_conn_rps,
        pipelined_one_conn_rps,
        pipelining_speedup,
        hit_rate: hits / extracts.max(1.0),
    }
}

pub(crate) fn pass_json(pass: &PassResult) -> String {
    json::object(&[
        ("wall_s", format!("{:.3}", pass.wall_s)),
        ("completed", pass.completed.to_string()),
        ("rps", format!("{:.1}", pass.rps)),
        ("p50_us", pass.latency.p50_us.to_string()),
        ("p90_us", pass.latency.p90_us.to_string()),
        ("p99_us", pass.latency.p99_us.to_string()),
        ("p999_us", pass.latency.p999_us.to_string()),
        ("min_us", pass.latency.min_us.to_string()),
        ("max_us", pass.latency.max_us.to_string()),
        ("mean_us", pass.latency.mean_us.to_string()),
        ("overloaded", pass.overloaded.to_string()),
        ("deadline_exceeded", pass.deadline_exceeded.to_string()),
        ("protocol_errors", pass.protocol_errors.to_string()),
    ])
}

/// Formats the result as one JSON object.
pub fn format(bench: &ServiceBench) -> String {
    json::object(&[
        ("experiment", json::string("service_load")),
        ("conns", bench.config.conns.to_string()),
        (
            "requests_per_conn",
            bench.config.requests_per_conn.to_string(),
        ),
        ("window", bench.config.window.to_string()),
        ("insns", bench.config.insns.to_string()),
        ("workers", bench.config.workers.to_string()),
        ("cold", pass_json(&bench.cold)),
        ("warm", pass_json(&bench.warm)),
        (
            "serial_one_conn_rps",
            format!("{:.1}", bench.serial_one_conn_rps),
        ),
        (
            "pipelined_one_conn_rps",
            format!("{:.1}", bench.pipelined_one_conn_rps),
        ),
        (
            "pipelining_speedup",
            format!("{:.2}", bench.pipelining_speedup),
        ),
        ("hit_rate", format!("{:.3}", bench.hit_rate)),
    ])
}
