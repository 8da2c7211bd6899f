//! End-to-end tests of the `dexlegod` daemon over a real TCP socket:
//! the ISSUE acceptance path (identical requests byte-identical, second
//! served from cache, corrupted entry transparently re-extracted),
//! overload shedding while every worker is busy, and graceful shutdown.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_harness::{job_key, JobReport, JobSpec, COUNTERS};
use dexlego_service::{Client, Daemon, ExtractReply, ExtractRequest, PoolExecutor, ServiceConfig};
use dexlego_store::{object_path, CachedResult, Key, Store, StoreConfig, TempDir};

fn sample_request(insns: usize) -> ExtractRequest {
    let (_, app) = corpus_apps(1, insns).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).expect("serialise generated app");
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.packer = Some("360".to_owned());
    req
}

fn extract_done(client: &mut Client, req: &ExtractRequest) -> (bool, Vec<u8>) {
    match client.extract(req).expect("extract round-trip") {
        ExtractReply::Done { cached, dex, .. } => (cached, dex),
        other => panic!("extract did not complete: {other:?}"),
    }
}

/// Whether the reply was a cache hit, and its report.
fn extract_report(client: &mut Client, req: &ExtractRequest) -> (bool, JobReport) {
    match client.extract(req).expect("extract round-trip") {
        ExtractReply::Done { cached, report, .. } => (
            cached,
            JobReport::from_json(&report).expect("report parses"),
        ),
        other => panic!("extract did not complete: {other:?}"),
    }
}

fn stat_u64(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key:?}: {stats:?}"))
}

#[test]
fn identical_requests_hit_the_cache_and_corruption_reextracts() {
    let dir = TempDir::new("service-e2e").unwrap();
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 2;
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");

    let req = sample_request(60);

    // Cold: runs the pipeline.
    let (cold_cached, cold_dex) = extract_done(&mut client, &req);
    assert!(!cold_cached, "first request cannot be a cache hit");
    assert!(!cold_dex.is_empty(), "revealed DEX is non-empty");

    // Warm: byte-identical, served from the store, no new pipeline run.
    let (warm_cached, warm_dex) = extract_done(&mut client, &req);
    assert!(warm_cached, "second identical request is a cache hit");
    assert_eq!(warm_dex, cold_dex, "cache hit is byte-identical");

    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "hits"), 1);
    assert_eq!(stat_u64(&stats, "misses"), 1);
    assert_eq!(stat_u64(&stats, "extracts"), 2);
    assert_eq!(stat_u64(&stats, "in_flight"), 0);
    let phases = stats.get("phases_us").expect("phase aggregates");
    assert!(
        phases.get("collect").is_some() || phases.get("reassemble").is_some(),
        "fresh extraction recorded phase timings: {phases:?}"
    );

    // Corrupt the stored entry on disk; the daemon must detect the bad
    // checksum, quarantine the entry, and transparently re-extract.
    let spec = req.to_spec("probe").expect("valid request");
    let key = job_key(&spec).expect("cacheable job");
    let path = object_path(dir.path(), key);
    let mut blob = std::fs::read(&path).expect("stored object exists");
    let mid = blob.len() / 2;
    blob[mid] ^= 0xff;
    std::fs::write(&path, &blob).unwrap();

    let (recovered_cached, recovered_dex) = extract_done(&mut client, &req);
    assert!(!recovered_cached, "corrupt entry forces a fresh extraction");
    assert_eq!(recovered_dex, cold_dex, "re-extraction reproduces bytes");

    let stats = client.stats().expect("stats after corruption");
    let store = stats.get("store").expect("store stats");
    assert_eq!(stat_u64(store, "quarantined"), 1);
    assert_eq!(stat_u64(store, "entries"), 1, "fresh result re-cached");

    // Malformed input gets an error reply and leaves the connection
    // usable.
    client.send_line("this is not json").unwrap();
    match client.recv().expect("error reply") {
        dexlego_service::Reply::Error(_) => {}
        other => panic!("expected error reply, got {other:?}"),
    }
    client.ping().expect("connection survives a bad request");

    client.shutdown().expect("graceful shutdown acknowledged");
    daemon.wait();
}

#[test]
fn saturated_pool_sheds_requests_and_drains_on_shutdown() {
    let dir = TempDir::new("service-overload").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());

    // Every job announces itself, then blocks until the test releases it,
    // keeping the only worker busy deterministically.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let started_tx = std::sync::Mutex::new(started_tx);
    let release_rx = std::sync::Mutex::new(release_rx);
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        started_tx.lock().unwrap().send(()).expect("started signal");
        release_rx.lock().unwrap().recv().expect("release signal");
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });

    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    // No request may wait: one that finds the worker busy is shed at
    // once, reproducing strict admission-control shedding.
    config.max_pending_per_conn = 0;
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");
    let addr = daemon.addr().to_string();

    let req = sample_request(40);
    let line = req.encode();
    let mut control = Client::connect(&addr).expect("control connection");

    // Job A: admitted and picked up by the single worker.
    let mut client_a = Client::connect(&addr).expect("connect A");
    client_a.send_line(&line).unwrap();
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker started job A");

    // Job B: the worker is busy and nothing may wait, so the daemon must
    // shed it immediately with a structured reply instead of blocking.
    let mut client_b = Client::connect(&addr).expect("connect B");
    match client_b.extract(&req).expect("reply for B") {
        ExtractReply::Overloaded => {}
        other => panic!("expected overloaded, got {other:?}"),
    }
    let stats = control.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "in_flight"), 1, "only A ever runs");

    // Release A; its client gets its result — nothing admitted is lost.
    release_tx.send(()).unwrap();
    match client_a.recv().expect("drained reply") {
        dexlego_service::Reply::Ok(_) => {}
        other => panic!("unexpected drained reply: {other:?}"),
    }

    let stats = control.stats().expect("final stats");
    assert_eq!(stat_u64(&stats, "rejected"), 1, "rejections are counted");
    assert_eq!(stat_u64(&stats, "in_flight"), 0, "worker drained");

    control.shutdown().expect("graceful shutdown");
    daemon.wait();
}

/// `stats` sums every job counter by name, over hits and misses alike.
#[test]
fn stats_sums_every_job_counter() {
    let dir = TempDir::new("service-counters").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let exec: PoolExecutor = Arc::new(|spec: JobSpec, _: Key| {
        let mut report = JobReport::empty(spec.name.clone(), None);
        for (i, c) in COUNTERS.iter().enumerate() {
            report.set_counter(c.name, 1_000 + 7 * i as u64);
        }
        (report, Some(Vec::new()))
    });
    let daemon = Daemon::start_with_executor(ServiceConfig::new(dir.path()), store, exec)
        .expect("daemon starts");
    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");
    let req = sample_request(40);
    for _ in 0..2 {
        let (cached, _) = extract_done(&mut client, &req);
        assert!(!cached, "the stand-in executor stores nothing");
    }
    let stats = client.stats().expect("stats");
    for (i, c) in COUNTERS.iter().enumerate() {
        assert_eq!(
            stat_u64(&stats, c.name),
            2 * (1_000 + 7 * i as u64),
            "{}",
            c.name
        );
    }
    client.shutdown().expect("graceful shutdown");
    daemon.wait();
}

/// A daemon restarted on the same store answers the first repeat of a
/// request as a hit whose report is the fresh extraction's, every counter
/// and phase included. Its `stats` count only the work it did: one hit,
/// and no job counter, since it ran no job.
#[test]
fn restarted_daemon_serves_the_fresh_report_as_a_hit() {
    let dir = TempDir::new("service-restart").unwrap();
    let req = sample_request(60);
    let run = |req: &ExtractRequest| {
        let daemon = Daemon::start(ServiceConfig::new(dir.path())).expect("daemon starts");
        let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");
        let (cached, report) = extract_report(&mut client, req);
        let stats = client.stats().expect("stats");
        client.shutdown().expect("graceful shutdown");
        daemon.wait();
        (cached, report, stats)
    };
    let (cached, fresh, stats) = run(&req);
    assert!(!cached);
    assert!(fresh.insns > 0 && fresh.dump_size > 0 && fresh.typed_insns > 0);
    for (name, value) in fresh.counters() {
        assert_eq!(stat_u64(&stats, name), value, "{name}");
    }
    let (cached, hit, stats) = run(&req);
    assert!(cached, "the restarted daemon serves the stored result");
    assert!(hit.counters().eq(fresh.counters()), "{hit:?}\n{fresh:?}");
    assert_eq!(hit.phases_us, fresh.phases_us);
    assert_eq!(stat_u64(&stats, "hits"), 1);
    for c in COUNTERS {
        assert_eq!(stat_u64(&stats, c.name), 0, "{}", c.name);
    }
}

/// An entry from a build that counts something this one does not, and
/// lacks counters this one has, is served: the unknown counter is skipped
/// and the missing ones read 0.
#[test]
fn entry_with_unknown_counters_is_served() {
    let dir = TempDir::new("service-unknown-counter").unwrap();
    let req = sample_request(40);
    let key = job_key(&req.to_spec("probe").expect("valid request")).expect("cacheable job");
    Store::open(StoreConfig::new(dir.path()))
        .unwrap()
        .put(
            &key,
            &CachedResult {
                dex_bytes: b"dex\n".to_vec(),
                counters: vec![
                    ("frames".to_owned(), 4),
                    ("from_a_newer_build".to_owned(), 99),
                ],
                phases_us: vec![("collect".to_owned(), 5)],
            },
        )
        .unwrap();
    let daemon = Daemon::start(ServiceConfig::new(dir.path())).expect("daemon starts");
    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");
    let (cached, report) = extract_report(&mut client, &req);
    assert!(cached);
    for (name, value) in report.counters() {
        assert_eq!(value, u64::from(name == "frames") * 4, "{name}");
    }
    assert_eq!(report.phases_us, vec![("collect".to_owned(), 5)]);
    client.shutdown().expect("graceful shutdown");
    daemon.wait();
}
