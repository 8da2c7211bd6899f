//! The router against a live fleet: fills replicate, before `wait`
//! returns too, a killed shard degrades to failover instead of
//! client-visible errors, a primary that drops its connection fails
//! over, the front counts what it refuses, and hedged requests beat a
//! slow primary.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_harness::{job_key, Counters, JobReport, JobSpec};
use dexlego_router::{BackendStats, Ring, Router, RouterConfig, RouterStats};
use dexlego_service::core::CoreStats;
use dexlego_service::{
    Client, Daemon, ExtractReply, ExtractRequest, PipelinedClient, PoolExecutor, Reply, Request,
    ServiceConfig,
};
use dexlego_store::{Key, Store, StoreConfig, TempDir};

fn corpus_requests(count: usize) -> Vec<ExtractRequest> {
    corpus_apps(count, 40)
        .into_iter()
        .enumerate()
        .map(|(i, (_, app))| {
            let dex = write_dex(&app.dex).expect("serialise generated app");
            let mut req = ExtractRequest::new(dex, &app.entry);
            req.name = Some(format!("fleet{i:02}"));
            req
        })
        .collect()
}

fn start_fleet(n: usize) -> (Vec<TempDir>, Vec<Daemon>, Vec<String>) {
    let dirs: Vec<TempDir> = (0..n)
        .map(|i| TempDir::new(&format!("fleet-backend-{i}")).unwrap())
        .collect();
    let daemons: Vec<Daemon> = dirs
        .iter()
        .map(|dir| Daemon::start(ServiceConfig::new(dir.path())).expect("backend starts"))
        .collect();
    let addrs = daemons.iter().map(|d| d.addr().to_string()).collect();
    (dirs, daemons, addrs)
}

fn extract_all(client: &mut PipelinedClient, reqs: &[ExtractRequest]) -> Vec<Value> {
    let mut ids = Vec::new();
    for req in reqs {
        ids.push(client.send_extract(req).expect("send"));
    }
    let mut replies = vec![Value::Null; reqs.len()];
    for _ in 0..reqs.len() {
        let (id, reply) = client.recv_any().expect("reply");
        let Some(dexlego_service::RequestId::Num(id)) = id else {
            panic!("tagged request lost its id");
        };
        let slot = ids.iter().position(|&x| x == id).expect("known id");
        match reply {
            Reply::Ok(value) => replies[slot] = value,
            other => panic!("fleet produced a non-ok reply: {other:?}"),
        }
    }
    replies
}

/// The send counters of backend `b` in a router's `stats`.
fn shard_counters(stats: &Value, b: usize) -> BackendStats {
    let Some(Value::Arr(fleet)) = stats.get("fleet") else {
        panic!("stats carry per-backend fleet health: {stats:?}");
    };
    BackendStats::read_counters(&fleet[b])
}

/// The key's primary among `addrs`, placed exactly as the router will.
fn primary(addrs: &[String], req: &ExtractRequest) -> usize {
    let config = RouterConfig::new(addrs.to_vec());
    let ring = Ring::new(addrs, config.vnodes, config.seed);
    let key = req.key().expect("a known packer");
    ring.candidates(Ring::key_position(&key))[0]
}

/// Fill a 3-backend fleet through the router, kill one shard, and read
/// everything back: zero error replies, and the surviving replicas
/// serve (mostly cached) results.
#[test]
fn killed_shard_degrades_to_failover_not_errors() {
    let (_dirs, daemons, addrs) = start_fleet(3);
    let mut config = RouterConfig::new(addrs);
    // Hedging off for determinism: this test is about failover.
    config.hedge_ms = 5_000;
    let router = Router::start(config).expect("router starts");
    let front = router.addr().to_string();

    let reqs = corpus_requests(6);
    let mut client = PipelinedClient::connect(&front).expect("connect front");
    let fills = extract_all(&mut client, &reqs);
    assert_eq!(fills.len(), 6);
    for value in &fills {
        assert_eq!(value.get("cached").and_then(Value::as_bool), Some(false));
        assert!(
            value.get("entry").is_none(),
            "router plumbing must not leak into front replies"
        );
    }

    // Let the replication backfills drain before pulling the plug.
    std::thread::sleep(Duration::from_millis(400));
    let mut stats_conn = Client::connect(&front).expect("stats conn");
    let before = shard_counters(&stats_conn.stats().expect("stats"), 0);
    assert!(before.sent > 0, "shard 0 served the fill: {before:?}");
    assert_eq!(before.lost, 0, "a healthy fleet loses nothing");

    // Kill shard 0 abruptly (drain, socket closes; further connects are
    // refused — the router sees exactly what a crashed process causes).
    let mut daemons = daemons;
    let victim = daemons.remove(0);
    victim.trigger_shutdown();
    victim.wait();

    let reads = extract_all(&mut client, &reqs);
    let cached = reads
        .iter()
        .filter(|v| v.get("cached").and_then(Value::as_bool) == Some(true))
        .count();
    assert!(
        cached >= reqs.len() / 2,
        "replication kept most results warm: {cached}/{} cached",
        reqs.len()
    );

    // Fleet stats still answer (the dead shard is skipped) and carry
    // the router's own counters.
    let stats = stats_conn.stats().expect("stats");
    let router_stats = stats.get("router").expect("router counters");
    let routed = router_stats
        .get("routed")
        .and_then(Value::as_u64)
        .expect("routed count");
    assert!(routed >= 12, "all extracts were routed: {routed}");
    let fills = router_stats
        .get("replica_fills")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(fills > 0, "fresh fills were replicated");
    let Some(Value::Arr(fleet)) = stats.get("fleet").cloned() else {
        panic!("stats carry per-backend fleet health: {stats:?}");
    };
    assert_eq!(fleet.len(), 3);
    // Whatever reached the killed shard after its death was lost, and
    // nothing else was.
    let killed = shard_counters(&stats, 0);
    assert_eq!(killed.sent - before.sent, killed.lost, "{killed:?}");
    for b in 1..3 {
        assert_eq!(shard_counters(&stats, b).lost, 0, "shard {b}");
    }

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// The router counts its own front: the lines the front refuses (a
/// malformed line and a `fetch`, which a router keeps no store to serve)
/// and the refusal it relays for an extract whose `dex` is no DEX show up
/// in the `router` member, which carries every routing and front counter
/// by name. The router reads no DEX, so that extract reaches one backend
/// of the three, which refuses it once: the refusal is definitive, not
/// failed over.
#[test]
fn router_counts_the_lines_its_front_refuses() {
    let (_dirs, daemons, addrs) = start_fleet(3);
    let router = Router::start(RouterConfig::new(addrs)).expect("router starts");
    let mut client = Client::connect(&router.addr().to_string()).expect("connect front");
    let not_a_dex = ExtractRequest::new(b"not a dex".to_vec(), "LMain;->main()V");
    for line in [
        "{\"op\": ".to_owned(),
        not_a_dex.encode(),
        Request::encode_fetch(None, &Key::new([7; 20])),
    ] {
        client.send_line(&line).expect("send a refused line");
        let reply = client.recv().expect("reply");
        assert!(matches!(reply, Reply::Error(_)), "{line}: {reply:?}");
    }

    let stats = client.stats().expect("stats");
    let member = stats.get("router").expect("router counters");
    let names = RouterStats::COUNTERS.iter().map(|c| c.name);
    for name in names.chain(CoreStats::COUNTERS.iter().map(|c| c.name)) {
        assert!(
            member.get(name).and_then(Value::as_u64).is_some(),
            "router member lacks {name}: {member:?}"
        );
    }
    let front = CoreStats::read_counters(member);
    assert_eq!(front.errors, 3, "{member:?}");
    assert_eq!(
        front.requests, 4,
        "the refused lines and this stats request"
    );
    assert_eq!(RouterStats::read_counters(member).failovers, 0);
    assert_eq!(stats.get("errors").and_then(Value::as_u64), Some(1));

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// A slow primary is out-raced by a hedge to the next replica: the
/// client sees the fast backend's answer well before the slow one
/// finishes, and the router records the hedge win.
#[test]
fn hedged_request_beats_a_slow_primary() {
    let delays: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let dirs: Vec<TempDir> = (0..2)
        .map(|i| TempDir::new(&format!("hedge-{i}")).unwrap())
        .collect();
    let daemons: Vec<Daemon> = dirs
        .iter()
        .zip(&delays)
        .map(|(dir, delay)| {
            let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
            let delay = Arc::clone(delay);
            let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
                let ms = delay.load(Ordering::SeqCst);
                if ms > 0 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
            });
            Daemon::start_with_executor(ServiceConfig::new(dir.path()), store, exec)
                .expect("daemon starts")
        })
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();

    let req = {
        let mut reqs = corpus_requests(1);
        reqs.remove(0)
    };
    // The test must slow whichever backend the ring makes primary, so
    // recompute the placement exactly as the router will.
    let config = RouterConfig::new(addrs.clone());
    let ring = Ring::new(&addrs, config.vnodes, config.seed);
    let spec = req.to_spec("probe").expect("valid request");
    let key = job_key(&spec).expect("cacheable");
    let primary = ring.candidates(Ring::key_position(&key))[0];
    delays[primary].store(500, Ordering::SeqCst);

    let mut config = config;
    config.hedge_ms = 40;
    let router = Router::start(config).expect("router starts");
    let front = router.addr().to_string();

    let mut client = PipelinedClient::connect(&front).expect("connect");
    let started = Instant::now();
    client.send_extract(&req).expect("send");
    let (_, reply) = client.recv_any().expect("reply");
    let elapsed = started.elapsed();
    assert!(matches!(reply, Reply::Ok(_)), "hedged extract succeeds");
    assert!(
        elapsed < Duration::from_millis(400),
        "hedge beat the 500ms primary: took {elapsed:?}"
    );

    let mut stats_conn = Client::connect(&front).expect("stats conn");
    let stats = stats_conn.stats().expect("stats");
    let router_stats = stats.get("router").expect("router counters");
    assert_eq!(
        router_stats.get("hedges").and_then(Value::as_u64),
        Some(1),
        "exactly one hedge fired"
    );
    assert_eq!(
        router_stats.get("hedge_wins").and_then(Value::as_u64),
        Some(1),
        "the hedge won"
    );

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// `Router::wait` drains replication: shut down the moment a fill is
/// answered, the router still offers the fill to the rest of its replica
/// set before `wait` returns.
#[test]
fn router_wait_offers_the_fill_to_the_other_replica() {
    let (_dirs, daemons, addrs) = start_fleet(2);
    let mut config = RouterConfig::new(addrs.clone());
    // Hedging off: the primary alone runs the fill.
    config.hedge_ms = 5_000;
    let router = Router::start(config).expect("router starts");
    let req = corpus_requests(1).remove(0);
    let other = 1 - primary(&addrs, &req);

    let mut client = PipelinedClient::connect(&router.addr().to_string()).expect("connect");
    client.send_extract(&req).expect("send");
    let (_, reply) = client.recv_extract().expect("fill reply");
    assert!(matches!(reply, ExtractReply::Done { cached: false, .. }));
    client.shutdown().expect("front shutdown");
    router.wait();

    // The router is gone, so a backfill not sent by now never arrives;
    // the retries only wait for the backend to read what was sent.
    let mut backend = Client::connect(&addrs[other]).expect("connect backend");
    let deadline = Instant::now() + Duration::from_secs(5);
    let backfills = loop {
        let stats = backend.stats().expect("backend stats");
        let backfills = stats.get("backfills").and_then(Value::as_u64);
        if backfills == Some(1) || Instant::now() > deadline {
            break backfills;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(backfills, Some(1), "the other replica holds the fill");

    drop(backend);
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// A primary that reads the request and drops its connection is the
/// `Lost` path: the router fails the request over to the next replica,
/// and the client gets that replica's answer.
#[test]
fn a_primary_that_drops_the_request_fails_over() {
    let (_dirs, daemons, real) = start_fleet(1);
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind the fake backend");
    let addrs = vec![real[0].clone(), fake.local_addr().unwrap().to_string()];
    // Vary the request until the fake is its primary; each seed moves
    // the key.
    let mut req = corpus_requests(1).remove(0);
    while primary(&addrs, &req) != 1 {
        req.seeds[0] += 1;
    }
    let fake = std::thread::spawn(move || {
        let (stream, _) = fake.accept().expect("the router dials the fake");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read the request");
        // Dropping the stream and the listener closes the connection
        // and refuses every later dial.
        line
    });
    let mut config = RouterConfig::new(addrs);
    config.hedge_ms = 5_000;
    let router = Router::start(config).expect("router starts");

    let mut client = PipelinedClient::connect(&router.addr().to_string()).expect("connect");
    client.send_extract(&req).expect("send");
    let (_, reply) = client.recv_extract().expect("reply");
    assert!(matches!(reply, ExtractReply::Done { .. }), "{reply:?}");
    let line = fake.join().expect("fake backend thread");
    assert!(line.contains("\"op\": \"extract\""), "{line}");

    let stats = Client::connect(&router.addr().to_string())
        .and_then(|mut c| c.stats())
        .expect("stats");
    let router_stats = RouterStats::read_counters(stats.get("router").expect("router counters"));
    assert!(router_stats.failovers >= 1, "{router_stats:?}");

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}
