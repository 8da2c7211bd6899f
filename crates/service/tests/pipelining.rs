//! Multiplexing semantics over a live daemon: tagged requests complete
//! out of order, id-less requests keep the old strictly-ordered contract
//! (the blocking [`Client`] compatibility dialect), and deadlines shed
//! work that cannot start in time. The contract tests that need no
//! admission control of their own also run through a router with the
//! daemon behind it, whose front is the same server core, and a router
//! forwards a deadline for its backend to enforce.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_harness::{JobReport, JobSpec};
use dexlego_router::{Router, RouterConfig};
use dexlego_service::{
    Client, Daemon, ExtractReply, ExtractRequest, PipelinedClient, PoolExecutor, Reply, RequestId,
    ServiceConfig,
};
use dexlego_store::{Key, Store, StoreConfig, TempDir};

fn sample_request(name: &str) -> ExtractRequest {
    let (_, app) = corpus_apps(1, 40).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).expect("serialise generated app");
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.name = Some(name.to_owned());
    req
}

/// A daemon whose executor sleeps for a per-job duration looked up by job
/// name, so tests control exactly which request finishes first.
fn delay_daemon(dir: &TempDir, delays: Vec<(&'static str, u64)>) -> Daemon {
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        let ms = delays
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map_or(0, |(_, ms)| *ms);
        std::thread::sleep(Duration::from_millis(ms));
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 3; // every job of a test runs concurrently
    Daemon::start_with_executor(config, store, exec).expect("daemon starts")
}

/// The address to talk to: `daemon` itself, or a router with `daemon` as
/// its only backend.
fn front(daemon: &Daemon, through_router: bool) -> (Option<Router>, String) {
    if !through_router {
        return (None, daemon.addr().to_string());
    }
    let router =
        Router::start(RouterConfig::new(vec![daemon.addr().to_string()])).expect("router starts");
    let addr = router.addr().to_string();
    (Some(router), addr)
}

/// Shuts down what [`front`] started.
fn stop(router: Option<Router>, daemon: Daemon) {
    if let Some(router) = router {
        router.trigger_shutdown();
        router.wait();
    }
    daemon.trigger_shutdown();
    daemon.wait();
}

fn report_name(reply: &Reply) -> String {
    let Reply::Ok(value) = reply else {
        panic!("expected ok reply, got {reply:?}");
    };
    value
        .get("report")
        .and_then(|r| r.get("name"))
        .and_then(Value::as_str)
        .expect("report carries the job name")
        .to_owned()
}

/// Old dialect, new server: two pipelined id-less extracts — a slow one
/// then a fast one — must reply strictly in request order, even though
/// the fast one finishes first. This is the contract the blocking
/// [`Client`] silently relies on.
#[test]
fn idless_requests_reply_strictly_in_request_order() {
    let dir = TempDir::new("service-ordered").unwrap();
    let daemon = delay_daemon(&dir, vec![("slow", 400), ("fast", 0)]);

    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");
    client
        .send_line(&sample_request("slow").encode())
        .expect("send slow");
    client
        .send_line(&sample_request("fast").encode())
        .expect("send fast");

    let first = client.recv().expect("first reply");
    let second = client.recv().expect("second reply");
    assert_eq!(report_name(&first), "slow", "first in, first answered");
    assert_eq!(report_name(&second), "fast");

    client.shutdown().expect("shutdown");
    daemon.wait();
}

/// New dialect: the same slow/fast pair with ids completes out of order —
/// the fast job's reply overtakes the slow one on the same connection.
#[test]
fn tagged_requests_reply_out_of_order() {
    let dir = TempDir::new("service-unordered").unwrap();
    let daemon = delay_daemon(&dir, vec![("slow", 400), ("fast", 0)]);

    let mut client = PipelinedClient::connect(&daemon.addr().to_string()).expect("connect");
    let slow_id = client
        .send_extract(&sample_request("slow"))
        .expect("send slow");
    let fast_id = client
        .send_extract(&sample_request("fast"))
        .expect("send fast");

    let (first_id, first) = client.recv_extract().expect("first reply");
    let (second_id, second) = client.recv_extract().expect("second reply");
    assert_eq!(first_id, fast_id, "fast job overtakes the slow one");
    assert_eq!(second_id, slow_id);
    assert!(matches!(first, ExtractReply::Done { .. }));
    assert!(matches!(second, ExtractReply::Done { .. }));

    client.shutdown().expect("shutdown");
    daemon.wait();
}

/// A request whose deadline passes while it waits for a worker is shed
/// with `deadline_exceeded` — and the reply overtakes the jobs that are
/// still holding or waiting for the worker.
#[test]
fn deadlines_shed_requests_that_cannot_start_in_time() {
    let dir = TempDir::new("service-deadline").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        release_rx.lock().unwrap().recv().expect("release signal");
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");

    let mut client = PipelinedClient::connect(&daemon.addr().to_string()).expect("connect");
    // A holds the only worker and B waits behind it; C waits too, and its
    // 80ms deadline expires long before anything is released.
    let a = client.send_extract(&sample_request("a")).expect("send a");
    let b = client.send_extract(&sample_request("b")).expect("send b");
    let mut hopeless = sample_request("c");
    hopeless.deadline_ms = Some(80);
    let c = client.send_extract(&hopeless).expect("send c");

    let (first_id, first) = client.recv_extract().expect("shed reply");
    assert_eq!(first_id, c, "the deadline casualty answers first");
    let ExtractReply::DeadlineExceeded { waited_ms } = first else {
        panic!("expected deadline_exceeded, got {first:?}");
    };
    assert!(waited_ms >= 80, "waited at least the deadline: {waited_ms}");

    release_tx.send(()).expect("release a");
    release_tx.send(()).expect("release b");
    let (id1, done1) = client.recv_extract().expect("a completes");
    let (id2, done2) = client.recv_extract().expect("b completes");
    let mut ids = [id1, id2];
    ids.sort_unstable();
    assert_eq!(ids, [a, b], "admitted work still completes");
    assert!(matches!(done1, ExtractReply::Done { .. }));
    assert!(matches!(done2, ExtractReply::Done { .. }));

    client.shutdown().expect("shutdown");
    daemon.wait();
}

/// With the only worker held, a request whose deadline passes while it
/// waits right behind it is answered `deadline_exceeded`: a deferred
/// request waits in its connection's queue, where deadlines are kept, and
/// nowhere else. A timer thread frees the worker, so a request that is
/// never shed fails this test instead of hanging it.
#[test]
fn a_deadline_reaches_a_request_waiting_for_the_only_worker() {
    let dir = TempDir::new("service-deadline-one").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
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
    let held = client
        .send_extract(&sample_request("held"))
        .expect("send held");
    client.flush().expect("flush held");
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker took the held request");
    let mut late = sample_request("late");
    late.deadline_ms = Some(80);
    let late = client.send_extract(&late).expect("send late");
    let timer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(500));
        release_tx.send(()).expect("release held");
    });

    let (id, reply) = client.recv_extract().expect("first reply");
    assert_eq!(id, late, "the waiting request answers first: {reply:?}");
    let ExtractReply::DeadlineExceeded { waited_ms } = reply else {
        panic!("expected deadline_exceeded, got {reply:?}");
    };
    assert!(waited_ms >= 80, "waited at least the deadline: {waited_ms}");
    let (id, reply) = client.recv_extract().expect("held reply");
    assert_eq!(id, held);
    assert!(matches!(reply, ExtractReply::Done { .. }), "{reply:?}");

    timer.join().expect("timer thread");
    client.shutdown().expect("shutdown");
    daemon.wait();
}

/// A one-worker daemon whose executor sleeps `ms` per job.
fn sleeping_daemon(dir: &TempDir, ms: u64) -> Daemon {
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        std::thread::sleep(Duration::from_millis(ms));
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    Daemon::start_with_executor(config, store, exec).expect("daemon starts")
}

/// A deadline bounds how long a request may wait to start, not how long
/// it runs, through a router as on the daemon: a 300 ms job that starts
/// at once on a free worker outlives its 100 ms deadline and is still
/// answered `Done`.
#[test]
fn a_deadline_bounds_the_wait_not_the_run_through_a_router() {
    for through_router in [false, true] {
        let dir = TempDir::new("service-deadline-run").unwrap();
        let daemon = sleeping_daemon(&dir, 300);
        let (router, addr) = front(&daemon, through_router);

        let mut client = PipelinedClient::connect(&addr).expect("connect");
        let mut req = sample_request("long");
        req.deadline_ms = Some(100);
        let id = client.send_extract(&req).expect("send");
        let (got, reply) = client.recv_extract().expect("reply");
        assert_eq!(got, id);
        assert!(
            matches!(reply, ExtractReply::Done { .. }),
            "router: {through_router}: {reply:?}"
        );

        drop(client);
        stop(router, daemon);
    }
}

/// Through a router, a request whose deadline passes while it waits for
/// the backend's only worker is answered `deadline_exceeded`: the router
/// forwards the deadline, the backend sheds by it, and the router relays
/// the shed. A timer thread frees the worker, so a request that is never
/// shed fails this test instead of hanging it.
#[test]
fn a_router_relays_its_backends_deadline_shed() {
    let dir = TempDir::new("service-deadline-routed").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        if spec.name == "held" {
            started_tx.lock().unwrap().send(()).expect("started signal");
            release_rx.lock().unwrap().recv().expect("release signal");
        }
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");
    let (router, addr) = front(&daemon, true);

    let mut client = PipelinedClient::connect(&addr).expect("connect");
    let held = client
        .send_extract(&sample_request("held"))
        .expect("send held");
    client.flush().expect("flush held");
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker took the held request");
    let mut late = sample_request("late");
    late.deadline_ms = Some(80);
    let late = client.send_extract(&late).expect("send late");
    let timer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(500));
        release_tx.send(()).expect("release held");
    });

    let (id, reply) = client.recv_extract().expect("first reply");
    assert_eq!(id, late, "the waiting request answers first: {reply:?}");
    let ExtractReply::DeadlineExceeded { waited_ms } = reply else {
        panic!("expected deadline_exceeded, got {reply:?}");
    };
    assert!(waited_ms >= 80, "waited at least the deadline: {waited_ms}");
    let (id, reply) = client.recv_extract().expect("held reply");
    assert_eq!(id, held);
    assert!(matches!(reply, ExtractReply::Done { .. }), "{reply:?}");

    timer.join().expect("timer thread");
    drop(client);
    stop(router, daemon);
}

/// A deadline generous enough for the queue wait changes nothing: the
/// request executes normally and the deadline never appears on the wire.
#[test]
fn unexpired_deadlines_do_not_shed() {
    let dir = TempDir::new("service-deadline-ok").unwrap();
    let daemon = delay_daemon(&dir, vec![("fine", 0)]);

    let mut client = PipelinedClient::connect(&daemon.addr().to_string()).expect("connect");
    let mut req = sample_request("fine");
    req.deadline_ms = Some(30_000);
    let id = client.send_extract(&req).expect("send");
    let (got, reply) = client.recv_extract().expect("reply");
    assert_eq!(got, id);
    assert!(matches!(reply, ExtractReply::Done { .. }));

    client.shutdown().expect("shutdown");
    daemon.wait();
}

/// Id-less requests keep their order while a slower tagged request on the
/// same connection is still running: the tagged reply may land anywhere,
/// the id-less ones come back in request order even though the second
/// finishes first.
#[test]
fn idless_order_holds_beside_a_slower_tagged_request() {
    for through_router in [false, true] {
        let dir = TempDir::new("service-mixed-order").unwrap();
        let daemon = delay_daemon(&dir, vec![("tagged", 400), ("mid", 200), ("fast", 0)]);
        let (router, addr) = front(&daemon, through_router);

        let mut client = Client::connect(&addr).expect("connect");
        let tagged = sample_request("tagged").encode_with_id(&RequestId::Num(77));
        client.send_line(&tagged).expect("send tagged");
        client
            .send_line(&sample_request("mid").encode())
            .expect("send mid");
        client
            .send_line(&sample_request("fast").encode())
            .expect("send fast");

        let mut ordered = Vec::new();
        let mut tagged_seen = false;
        for _ in 0..3 {
            let reply = client.recv().expect("reply");
            let name = report_name(&reply);
            if name == "tagged" {
                tagged_seen = true;
            } else {
                ordered.push(name);
            }
        }
        assert!(tagged_seen, "the tagged request is answered");
        assert_eq!(ordered, ["mid", "fast"], "router: {through_router}");

        drop(client);
        stop(router, daemon);
    }
}

/// A `shutdown` drains: every request read before it still gets its
/// reply, flushed before `wait` returns.
#[test]
fn shutdown_flushes_every_admitted_reply_before_wait_returns() {
    for through_router in [false, true] {
        let dir = TempDir::new("service-drain").unwrap();
        let names = ["d0", "d1", "d2", "d3", "d4", "d5"];
        let daemon = delay_daemon(&dir, names.iter().map(|&n| (n, 100)).collect());
        let (router, addr) = front(&daemon, through_router);

        let mut client = PipelinedClient::connect(&addr).expect("connect");
        let mut sent = Vec::new();
        for name in names {
            sent.push(client.send_extract(&sample_request(name)).expect("send"));
        }
        let shutdown = client.send_op("shutdown").expect("send shutdown");
        client.flush().expect("flush");

        // Every reply is small enough to sit in the socket buffers, so the
        // drain can finish while this client reads nothing.
        let backend = match router {
            Some(router) => {
                router.wait();
                Some(daemon)
            }
            None => {
                daemon.wait();
                None
            }
        };
        let mut ids = collect_ids(&mut client, names.len() + 1);
        ids.sort_unstable();
        sent.push(shutdown);
        assert_eq!(ids, sent, "router: {through_router}");
        if let Some(daemon) = backend {
            daemon.trigger_shutdown();
            daemon.wait();
        }
    }
}

/// Reads `n` replies and returns their ids.
fn collect_ids(client: &mut PipelinedClient, n: usize) -> Vec<u64> {
    (0..n)
        .map(
            |_| match client.recv_any().expect("reply after the drain") {
                (Some(RequestId::Num(id)), Reply::Ok(_)) => id,
                other => panic!("unexpected reply: {other:?}"),
            },
        )
        .collect()
}
