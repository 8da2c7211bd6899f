//! Partial-I/O and backpressure tests: one misbehaving connection — a
//! byte-dribbling writer or a client that stops reading its replies —
//! must never stall the other connections sharing the event loop, on the
//! daemon or on a router's front.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::{JobReport, JobSpec};
use dexlego_router::{Router, RouterConfig};
use dexlego_service::{
    Client, Daemon, ExtractRequest, PipelinedClient, PoolExecutor, ServiceConfig,
};
use dexlego_store::{Key, Store, StoreConfig, TempDir};

fn sample_request(insns: usize) -> ExtractRequest {
    let (_, app) = corpus_apps(1, insns).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).expect("serialise generated app");
    ExtractRequest::new(dex, &app.entry)
}

/// A daemon whose executor returns instantly with a fixed-size payload,
/// so reply volume (not pipeline time) is the variable under test.
fn stub_daemon(dir: &TempDir, payload: usize) -> Daemon {
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec, _: Key| {
        (
            JobReport::empty(spec.name.clone(), None),
            Some(vec![0xabu8; payload]),
        )
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    // Small enough that a stalled reader trips backpressure quickly.
    config.write_soft_cap = 16 * 1024;
    Daemon::start_with_executor(config, store, exec).expect("daemon starts")
}

#[test]
fn byte_dribbling_writer_does_not_stall_other_connections() {
    let dir = TempDir::new("service-dribble").unwrap();
    let daemon = stub_daemon(&dir, 16);
    let addr = daemon.addr().to_string();

    // The dribbler trickles a valid request one byte at a time from a
    // separate thread, holding its connection mid-frame for the whole
    // duration of the fast client's work.
    let line = {
        let mut req = sample_request(40);
        req.name = Some("dribble".to_owned());
        let mut line = req.encode();
        line.push('\n');
        line
    };
    let dribble_addr = addr.clone();
    let dribbler = std::thread::spawn(move || {
        let mut sock = TcpStream::connect(&dribble_addr).expect("dribbler connects");
        sock.set_nodelay(true).unwrap();
        for byte in line.as_bytes() {
            sock.write_all(std::slice::from_ref(byte)).expect("dribble");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(sock);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("dribbler reply");
        reply
    });

    // Meanwhile a well-behaved client round-trips repeatedly; each one
    // must complete while the dribbler is still mid-frame.
    let mut fast = Client::connect(&addr).expect("fast client connects");
    let started = Instant::now();
    for _ in 0..20 {
        fast.ping().expect("fast ping");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "pings behind a dribbling peer took {elapsed:?}"
    );

    let reply = dribbler.join().expect("dribbler thread");
    assert!(
        reply.contains("\"status\": \"ok\""),
        "dribbled request still completes: {reply}"
    );

    daemon.trigger_shutdown();
    drop(fast);
    daemon.wait();
}

#[test]
fn stalled_reader_gets_backpressure_without_stalling_others() {
    for through_router in [false, true] {
        stalled_reader_does_not_stall_others(through_router);
    }
}

fn stalled_reader_does_not_stall_others(through_router: bool) {
    let dir = TempDir::new("service-stalled").unwrap();
    // ~16 KiB of hex per reply: a few unread replies trip the soft cap.
    let daemon = stub_daemon(&dir, 8 * 1024);
    let router = through_router.then(|| {
        Router::start(RouterConfig::new(vec![daemon.addr().to_string()])).expect("router starts")
    });
    let addr = router
        .as_ref()
        .map_or(daemon.addr(), Router::addr)
        .to_string();

    // The stalled client pipelines many tagged requests and reads nothing.
    // Sends run on their own thread: once the server pauses intake, the
    // socket fills and the writes themselves block — that must stall the
    // sender, not this test.
    let total = 40usize;
    let stalled = TcpStream::connect(&addr).expect("stalled connects");
    stalled.set_nodelay(true).unwrap();
    let mut stalled_writer = stalled.try_clone().unwrap();
    let mut stalled_reader = BufReader::new(stalled);
    let mut req = sample_request(40);
    req.name = Some("stalled".to_owned());
    let sender = std::thread::spawn(move || {
        for id in 0..total {
            let line = req.encode_with_id(&dexlego_service::RequestId::Num(id as u64));
            stalled_writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("stalled send");
        }
    });

    // Give the server time to execute and buffer up to the soft cap.
    std::thread::sleep(Duration::from_millis(200));

    // Other connections keep making progress while that client sulks:
    // requests the loop answers, and requests that need the pool.
    let mut fast = Client::connect(&addr).expect("fast connects");
    let mut fast_tagged = PipelinedClient::connect(&addr).expect("fast tagged connects");
    let started = Instant::now();
    for _ in 0..20 {
        fast.ping().expect("fast ping behind a stalled reader");
    }
    for _ in 0..5 {
        fast_tagged
            .send_extract(&sample_request(40))
            .expect("fast extract");
        fast_tagged
            .recv_extract()
            .expect("fast extract behind a stalled reader");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stalled reader held up the event loop"
    );

    // The sulking client starts reading: every reply it is owed arrives,
    // each exactly once.
    let mut seen = vec![false; total];
    for _ in 0..total {
        let mut line = String::new();
        assert!(
            stalled_reader.read_line(&mut line).expect("stalled reply") > 0,
            "connection closed before all replies arrived"
        );
        let (id, _) = dexlego_service::parse_reply_line(line.trim_end()).expect("reply parses");
        let Some(dexlego_service::RequestId::Num(id)) = id else {
            panic!("reply without the sent numeric id: {line}");
        };
        let slot = usize::try_from(id).expect("small id");
        assert!(!seen[slot], "duplicate reply for id {id}");
        seen[slot] = true;
    }
    assert!(seen.iter().all(|&s| s), "every request got its reply");
    sender.join().expect("sender finished");

    drop(stalled_reader);
    drop(fast);
    drop(fast_tagged);
    if let Some(router) = router {
        router.trigger_shutdown();
        router.wait();
    }
    daemon.trigger_shutdown();
    daemon.wait();
}

/// EOF mid-frame (client dies after half a request) must be cleaned up
/// without disturbing the daemon.
#[test]
fn half_frame_then_eof_is_cleaned_up() {
    let dir = TempDir::new("service-halfframe").unwrap();
    let daemon = stub_daemon(&dir, 16);
    let addr = daemon.addr().to_string();

    {
        let mut sock = TcpStream::connect(&addr).expect("connect");
        sock.write_all(b"{\"op\": \"pi").expect("half frame");
        // Dropped here: EOF lands with a partial line buffered.
    }

    let mut fast = Client::connect(&addr).expect("fast connects");
    fast.ping().expect("daemon unaffected by a torn-off client");

    // A client that disappears with replies still in flight is also fine.
    {
        let mut vanisher = PipelinedClient::connect(&addr).expect("vanisher");
        let req = sample_request(40);
        vanisher.send_extract(&req).expect("send then vanish");
    }
    std::thread::sleep(Duration::from_millis(100));
    fast.ping().expect("daemon survives an orphaned completion");

    daemon.trigger_shutdown();
    drop(fast);
    daemon.wait();
}

/// A connection pipelining past its pending bound gets the newest
/// requests shed with `overloaded` while everything admitted (on the
/// worker or within the bound) still completes — the per-client queue is
/// bounded, not elastic.
#[test]
fn pipelining_past_the_pending_bound_sheds_the_newest() {
    use dexlego_service::ExtractReply;
    use std::sync::mpsc;

    let dir = TempDir::new("service-bound").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    // Every job blocks until released, so admission is fully deterministic.
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    let exec: PoolExecutor = Arc::new(move |spec: dexlego_harness::JobSpec, _: Key| {
        release_rx.lock().unwrap().recv().expect("release signal");
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    config.max_pending_per_conn = 5;
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");

    let total = 10u64;
    let mut client = PipelinedClient::connect(&daemon.addr().to_string()).expect("connect");
    let req = sample_request(40);
    for _ in 0..total {
        client.send_extract(&req).expect("send");
    }
    client.flush().expect("flush the burst");

    // The burst lands at once: exactly 1 request goes to the worker, 5
    // are held within the bound, and the rest are shed, so the executed
    // ids are the oldest 6 and the shed ids the newest 4. Give the shed
    // replies a moment to be queued, then release one job more than that,
    // so an over-admission fails the count below instead of hanging.
    let executed = 1 + 5;
    std::thread::sleep(std::time::Duration::from_millis(100));
    for _ in 0..=executed {
        release_tx.send(()).expect("release");
    }
    let (mut done, mut shed) = (Vec::new(), Vec::new());
    for _ in 0..total {
        let (id, reply) = client.recv_extract().expect("reply");
        match reply {
            ExtractReply::Done { .. } => done.push(id),
            ExtractReply::Overloaded => shed.push(id),
            other => panic!("unexpected reply for id {id}: {other:?}"),
        }
    }
    done.sort_unstable();
    shed.sort_unstable();
    assert_eq!(done, (0..executed).collect::<Vec<_>>(), "oldest kept");
    assert_eq!(shed, (executed..total).collect::<Vec<_>>(), "newest shed");

    // The shutdown op composes with the tagged dialect.
    client.shutdown().expect("graceful shutdown");
    daemon.wait();
}
