//! The fleet-facing protocol extensions end to end: `fetch` reads a
//! shippable store entry, `backfill` installs it on a second daemon
//! (which then serves the result as a cache hit without ever running the
//! pipeline), and `cancel` revokes a pending tagged request before it
//! reaches a worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_harness::{job_key, JobReport, JobSpec};
use dexlego_service::{
    Client, Daemon, ExtractRequest, PipelinedClient, PoolExecutor, Reply, RequestId, ServiceConfig,
};
use dexlego_store::hex::from_hex;
use dexlego_store::{Key, Store, StoreConfig, TempDir};

fn sample_request(name: &str) -> ExtractRequest {
    let (_, app) = corpus_apps(1, 40).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).expect("serialise generated app");
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.name = Some(name.to_owned());
    req
}

fn ok_value(reply: Reply) -> Value {
    match reply {
        Reply::Ok(value) => value,
        other => panic!("expected ok reply, got {other:?}"),
    }
}

fn stat_u64(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key:?}: {stats:?}"))
}

/// A result extracted on daemon A travels to daemon B as a backfill and
/// is then served by B as a cache hit — B never runs the pipeline.
#[test]
fn fetch_and_backfill_replicate_a_result() {
    let dir_a = TempDir::new("repl-a").unwrap();
    let dir_b = TempDir::new("repl-b").unwrap();
    let daemon_a = Daemon::start(ServiceConfig::new(dir_a.path())).expect("daemon a");
    let daemon_b = Daemon::start(ServiceConfig::new(dir_b.path())).expect("daemon b");

    let plain = sample_request("repl");
    let key = job_key(&plain.to_spec("repl").expect("valid request")).expect("cacheable");

    // Extract on A: the reply carries the DEX and never the store entry.
    let mut client_a = PipelinedClient::connect(&daemon_a.addr().to_string()).expect("connect a");
    let sent = client_a.send_extract(&plain).expect("send");
    let (id, reply) = client_a.recv_any().expect("reply");
    assert_eq!(id, Some(RequestId::Num(sent)));
    let value = ok_value(reply);
    assert!(value.get("dex").is_some());
    assert!(value.get("entry").is_none(), "extract replies stay thin");

    // Pull the shippable entry from A with an explicit fetch.
    client_a.send_fetch(&key).expect("send fetch");
    let (_, reply) = client_a.recv_any().expect("fetch reply");
    let value = ok_value(reply);
    assert_eq!(value.get("found").and_then(Value::as_bool), Some(true));
    let entry_hex = value
        .get("entry")
        .and_then(Value::as_str)
        .expect("a found entry is attached");
    let entry = from_hex(entry_hex).expect("entry is hex");
    assert!(!entry.is_empty());

    // Backfill onto B: first offer lands, the repeat is a no-op.
    let mut client_b = PipelinedClient::connect(&daemon_b.addr().to_string()).expect("connect b");
    client_b.send_backfill(&key, &entry).expect("send backfill");
    let (_, reply) = client_b.recv_any().expect("backfill reply");
    assert_eq!(
        ok_value(reply).get("stored").and_then(Value::as_bool),
        Some(true)
    );
    client_b.send_backfill(&key, &entry).expect("send repeat");
    let (_, reply) = client_b.recv_any().expect("repeat reply");
    assert_eq!(
        ok_value(reply).get("stored").and_then(Value::as_bool),
        Some(false),
        "a present key is never overwritten"
    );

    // B now serves the job from its store: a hit, zero pipeline runs.
    client_b.send_extract(&plain).expect("send to b");
    let (_, reply) = client_b.recv_any().expect("b reply");
    let value = ok_value(reply);
    assert_eq!(value.get("cached").and_then(Value::as_bool), Some(true));

    let mut stats_b = Client::connect(&daemon_b.addr().to_string()).expect("stats conn");
    let stats = stats_b.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "hits"), 1);
    assert_eq!(stat_u64(&stats, "misses"), 0);
    assert_eq!(stat_u64(&stats, "backfills"), 1);
    assert!(stat_u64(&stats, "uptime_ms") < 600_000, "uptime is sane");

    client_a.shutdown().expect("shutdown a");
    client_b.shutdown().expect("shutdown b");
    daemon_a.wait();
    daemon_b.wait();
}

/// Cancelling a tagged request that is still queued behind a busy worker
/// removes it: the canceller gets `cancelled: true`, the victim's reply
/// never materialises, and later requests proceed normally.
#[test]
fn cancel_revokes_a_pending_request() {
    let dir = TempDir::new("repl-cancel").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        if spec.name == "slow" {
            std::thread::sleep(Duration::from_millis(300));
        }
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1; // "slow" pins the only worker; "victim" must queue
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");

    let mut client = PipelinedClient::connect(&daemon.addr().to_string()).expect("connect");
    let slow = client.send_extract(&sample_request("slow")).expect("slow");
    let victim = client
        .send_extract(&sample_request("victim"))
        .expect("victim");
    let cancel = client.send_cancel(victim).expect("cancel");

    // The cancel is answered immediately, while "slow" still runs.
    let (id, reply) = client.recv_any().expect("cancel reply");
    assert_eq!(id, Some(RequestId::Num(cancel)));
    assert_eq!(
        ok_value(reply).get("cancelled").and_then(Value::as_bool),
        Some(true)
    );

    let (id, reply) = client.recv_any().expect("slow reply");
    assert_eq!(id, Some(RequestId::Num(slow)));
    ok_value(reply);

    // A ping overtakes nothing: if the victim had survived, its reply
    // would arrive before the ping's.
    let ping = client.send_op("ping").expect("ping");
    let (id, reply) = client.recv_any().expect("ping reply");
    assert_eq!(id, Some(RequestId::Num(ping)), "victim reply never comes");
    ok_value(reply);

    let mut stats_conn = Client::connect(&daemon.addr().to_string()).expect("stats conn");
    let stats = stats_conn.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "cancelled"), 1);

    client.shutdown().expect("shutdown");
    daemon.wait();
}

/// A `cancel` reaches a tagged request that was read and is waiting for
/// the only worker, which another request holds: the canceller gets
/// `cancelled: true` and the executor never runs the victim. The victim is
/// read before the cancel is sent (a ping after it is answered first), so
/// the cancel finds it where it waits, not still unread beside it.
#[test]
fn cancel_reaches_a_request_waiting_for_the_only_worker() {
    let dir = TempDir::new("repl-cancel-one").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
    let runs = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&runs);
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        counted.fetch_add(1, Ordering::SeqCst);
        if spec.name == "held" {
            started_tx.lock().unwrap().send(()).expect("started signal");
            release_rx.lock().unwrap().recv().expect("release signal");
        }
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");

    let mut client = PipelinedClient::connect(&daemon.addr().to_string()).expect("connect");
    let held = client.send_extract(&sample_request("held")).expect("held");
    client.flush().expect("flush held");
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker took the held request");
    let victim = client
        .send_extract(&sample_request("victim"))
        .expect("victim");
    let ping = client.send_op("ping").expect("ping");
    let (id, reply) = client.recv_any().expect("ping reply");
    assert_eq!(id, Some(RequestId::Num(ping)));
    ok_value(reply);

    let cancel = client.send_cancel(victim).expect("cancel");
    let (id, reply) = client.recv_any().expect("cancel reply");
    assert_eq!(id, Some(RequestId::Num(cancel)));
    let cancelled = ok_value(reply).get("cancelled").and_then(Value::as_bool);
    release_tx.send(()).expect("release held");
    assert_eq!(cancelled, Some(true), "the waiting victim is revoked");

    let (id, reply) = client.recv_any().expect("held reply");
    assert_eq!(id, Some(RequestId::Num(held)));
    ok_value(reply);
    client.shutdown().expect("shutdown");
    daemon.wait();
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the victim never ran");
}
