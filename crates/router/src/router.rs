//! The routing tier: a `dexlegod`-protocol front end over a fleet of
//! `dexlegod` backends.
//!
//! For each extract the router computes the store key *client-side*
//! (the same `job_key` the daemon uses), places it on the consistent
//! ring, and forwards to the key's primary replica. Each time a full
//! hedge budget elapses unanswered it fires another copy at the next
//! untried replica — first answer wins, losers are cancelled — so a
//! request escapes even when a hedge target is itself stuck. A fresh
//! extraction is
//! replicated to the rest of the replica set; a cache hit served by a
//! non-primary replica triggers a read-repair backfill of the primary.
//! Replication payloads travel on the background repair thread (an
//! explicit `fetch` from the backend that served the result, then
//! `backfill` offers to the targets), so hot-path replies never carry
//! entry bytes the client did not ask for. Backends that keep failing are
//! ejected for a growing probation window, and a dead shard degrades
//! to cache misses on its neighbours — a client sees an error only
//! when the whole fleet is unreachable.
//!
//! The front side speaks the exact daemon dialect — ids, deadlines,
//! `stats`, `shutdown` — so [`dexlego_service::Client`] and
//! [`dexlego_service::PipelinedClient`] work against a router without
//! knowing it is one.

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dexlego_harness::job_key;
use dexlego_harness::json::{self, Value};
use dexlego_service::protocol::push_reply_line;
use dexlego_service::{parse_request_line, ExtractRequest, Reply, Request, RequestId};
use dexlego_store::entry::encode as encode_entry;
use dexlego_store::hex::from_hex;
use dexlego_store::Key;

use crate::backend::{Backend, Event, HealthConfig, Waiter};
use crate::ring::Ring;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Front bind address; port 0 picks an ephemeral port.
    pub listen: String,
    /// Backend addresses — the fleet. Order is identity: the ring is a
    /// pure function of these strings, so every router configured with
    /// the same list routes identically.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Ring placement seed.
    pub seed: u64,
    /// Replication factor: how many backends should end up holding
    /// each result (and how far hedging reaches).
    pub replicas: usize,
    /// Latency budget before a hedge fires at the next replica,
    /// milliseconds.
    pub hedge_ms: u64,
    /// Hard per-request fleet budget, milliseconds (bounds requests
    /// that carry no deadline of their own).
    pub request_timeout_ms: u64,
    /// Routing worker threads (concurrent tagged requests in flight).
    pub workers: usize,
    /// Backend health gate.
    pub health: HealthConfig,
}

impl RouterConfig {
    /// Loop-back config on an ephemeral port over `backends`.
    #[must_use]
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            listen: "127.0.0.1:0".to_owned(),
            backends,
            vnodes: 64,
            seed: 0x6465_786c_6567_6f00, // "dexlego\0"
            replicas: 2,
            hedge_ms: 30,
            request_timeout_ms: 30_000,
            workers: 8,
            health: HealthConfig::default(),
        }
    }
}

/// Router-level counters, all monotonically increasing.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Extracts routed.
    pub routed: u64,
    /// Hedge requests fired.
    pub hedges: u64,
    /// Winners that were the hedged (non-first) send.
    pub hedge_wins: u64,
    /// Sends retried on another replica after a transport loss or shed.
    pub failovers: u64,
    /// Backfills scheduled because a fresh fill must reach the rest of
    /// its replica set.
    pub replica_fills: u64,
    /// Backfills scheduled because a non-primary replica served a hit
    /// the primary was missing.
    pub read_repairs: u64,
    /// Cancels sent to revoke hedged losers.
    pub cancels: u64,
    /// Requests answered with an error because the whole fleet was
    /// unreachable.
    pub fleet_errors: u64,
}

/// A routing task handed to the worker pool.
type Job = Box<dyn FnOnce() + Send>;

enum RepairJob {
    /// An entry payload already in hand: offer it to `target`.
    Push {
        target: usize,
        key: Key,
        entry: Vec<u8>,
    },
    /// Pull the entry from `source` (which just served it) and offer it
    /// to each of `targets`. Extract replies stay thin — the payload
    /// transfer happens here, off the request hot path.
    Pull {
        source: usize,
        targets: Vec<usize>,
        key: Key,
    },
}

struct Ctx {
    config: RouterConfig,
    ring: Ring,
    backends: Vec<Arc<Backend>>,
    stats: Mutex<RouterStats>,
    started: Instant,
    seq: AtomicU64,
    shutting_down: AtomicBool,
    repair_tx: Mutex<Option<mpsc::Sender<RepairJob>>>,
    job_tx: Mutex<Option<mpsc::Sender<Job>>>,
    /// `(target, key)` pairs already repaired/replicated, so hedged hits
    /// do not re-offer the same entry every read. Bounded: cleared
    /// wholesale when full (a re-repair is a harmless `put_if_absent`).
    repaired: Mutex<HashSet<(usize, Key)>>,
}

impl Ctx {
    fn schedule_push(&self, target: usize, key: Key, entry: &[u8]) {
        self.schedule(RepairJob::Push {
            target,
            key,
            entry: entry.to_vec(),
        });
    }

    fn schedule_pull(&self, source: usize, targets: Vec<usize>, key: Key) {
        self.schedule(RepairJob::Pull {
            source,
            targets,
            key,
        });
    }

    fn schedule(&self, job: RepairJob) {
        let tx = self.repair_tx.lock().expect("repair lock").clone();
        if let Some(tx) = tx {
            let _ = tx.send(job);
        }
    }

    /// Records that `key` is being offered to `target`; returns false if
    /// that offer already happened (and should be skipped).
    fn first_offer(&self, target: usize, key: Key) -> bool {
        let mut repaired = self.repaired.lock().expect("repaired lock");
        if repaired.len() >= 65_536 {
            repaired.clear();
        }
        repaired.insert((target, key))
    }

    fn submit(&self, job: Job) {
        let tx = self.job_tx.lock().expect("job lock").clone();
        let rejected = match tx {
            Some(tx) => match tx.send(job) {
                Ok(()) => None,
                Err(mpsc::SendError(job)) => Some(job),
            },
            None => Some(job),
        };
        // Pool gone (drain): run inline rather than drop the reply.
        if let Some(job) = rejected {
            job();
        }
    }
}

/// A running router; dropping the handle does not stop it — use
/// [`Router::trigger_shutdown`] + [`Router::wait`].
pub struct Router {
    ctx: Arc<Ctx>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    repair: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Router {
    /// Binds the front socket, spawns the accept/worker/repair threads,
    /// and returns the handle. Backends are dialled lazily on first
    /// use, so a fleet can be wired up in any order.
    ///
    /// # Errors
    ///
    /// Binding the listen address fails.
    ///
    /// # Panics
    ///
    /// An empty backend list (a router that can route nowhere is a
    /// configuration bug).
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        assert!(
            !config.backends.is_empty(),
            "router needs at least one backend"
        );
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let ring = Ring::new(&config.backends, config.vnodes.max(1), config.seed);
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| Backend::new(i, addr, config.health.clone()))
            .collect();

        let (repair_tx, repair_rx) = mpsc::channel::<RepairJob>();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let ctx = Arc::new(Ctx {
            ring,
            backends,
            stats: Mutex::new(RouterStats::default()),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            repair_tx: Mutex::new(Some(repair_tx)),
            job_tx: Mutex::new(Some(job_tx)),
            repaired: Mutex::new(HashSet::new()),
            config,
        });

        let repair_ctx = Arc::clone(&ctx);
        let repair = std::thread::spawn(move || {
            for job in repair_rx {
                match job {
                    RepairJob::Push { target, key, entry } => {
                        let _ = repair_ctx.backends[target].send_backfill(&key, &entry);
                    }
                    RepairJob::Pull {
                        source,
                        targets,
                        key,
                    } => {
                        let Some(entry) = fetch_entry(&repair_ctx, source, &key) else {
                            continue;
                        };
                        for target in targets {
                            let _ = repair_ctx.backends[target].send_backfill(&key, &entry);
                        }
                    }
                }
            }
        });

        let workers: Vec<JoinHandle<()>> = (0..ctx.config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&job_rx);
                std::thread::spawn(move || loop {
                    let job = rx.lock().expect("job queue lock").recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                })
            })
            .collect();

        let accept_ctx = Arc::clone(&ctx);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_ctx.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_ctx = Arc::clone(&accept_ctx);
                std::thread::spawn(move || serve_conn(&conn_ctx, stream));
            }
        });

        Ok(Router {
            ctx,
            addr,
            accept: Some(accept),
            repair: Some(repair),
            workers,
        })
    }

    /// The bound front address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Starts a drain exactly as a front `shutdown` request would.
    pub fn trigger_shutdown(&self) {
        begin_shutdown(&self.ctx, self.addr);
    }

    /// Blocks until the router has drained: the accept loop has exited
    /// and the routing and repair workers have finished their queues.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Closing the channels lets the workers drain and exit.
        self.ctx.job_tx.lock().expect("job lock").take();
        self.ctx.repair_tx.lock().expect("repair lock").take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(repair) = self.repair.take() {
            let _ = repair.join();
        }
    }
}

fn begin_shutdown(ctx: &Arc<Ctx>, addr: std::net::SocketAddr) {
    if ctx.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock the accept loop so it observes the flag.
    let _ = TcpStream::connect(addr);
}

fn error_reply(reason: &str) -> String {
    json::object(&[
        ("status", json::string("error")),
        ("reason", json::string(reason)),
    ])
}

fn write_reply(writer: &Mutex<TcpStream>, id: Option<&RequestId>, body: &str) {
    let mut framed = Vec::new();
    push_reply_line(&mut framed, id, body);
    let mut stream = writer.lock().expect("front writer lock");
    let _ = stream.write_all(&framed);
    let _ = stream.flush();
}

fn serve_conn(ctx: &Arc<Ctx>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let local_addr = stream.local_addr().ok();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let (id, request) = parse_request_line(trimmed);
        match request {
            Err(reason) => write_reply(&writer, id.as_ref(), &error_reply(&reason)),
            Ok(Request::Ping) => write_reply(
                &writer,
                id.as_ref(),
                &json::object(&[("status", json::string("ok"))]),
            ),
            Ok(Request::Stats) => {
                let body = stats_reply(ctx);
                write_reply(&writer, id.as_ref(), &body);
            }
            Ok(Request::Shutdown) => {
                write_reply(
                    &writer,
                    id.as_ref(),
                    &json::object(&[("status", json::string("ok"))]),
                );
                if let Some(addr) = local_addr {
                    begin_shutdown(ctx, addr);
                }
                return;
            }
            Ok(Request::Cancel(_)) => {
                // The router dispatches extracts the moment they arrive,
                // so there is never a front-side pending queue to revoke
                // from; report the no-op honestly.
                write_reply(
                    &writer,
                    id.as_ref(),
                    &json::object(&[
                        ("status", json::string("ok")),
                        ("cancelled", "false".to_owned()),
                    ]),
                );
            }
            Ok(Request::Backfill { key, entry }) => {
                let body = route_backfill(ctx, key, &entry);
                write_reply(&writer, id.as_ref(), &body);
            }
            Ok(Request::Fetch(key)) => {
                let body = route_fetch(ctx, &key);
                write_reply(&writer, id.as_ref(), &body);
            }
            Ok(Request::Extract(req)) => match id {
                // Tagged: fan out through the worker pool so many
                // requests ride this connection concurrently.
                Some(id) => {
                    let job_ctx = Arc::clone(ctx);
                    let job_writer = Arc::clone(&writer);
                    ctx.submit(Box::new(move || {
                        let body = route_extract(&job_ctx, &req);
                        write_reply(&job_writer, Some(&id), &body);
                    }));
                }
                // Id-less: the ordered compatibility dialect. Routing
                // inline on the connection thread preserves strict
                // request-order replies for free.
                None => {
                    let body = route_extract(ctx, &req);
                    write_reply(&writer, None, &body);
                }
            },
        }
        if ctx.shutting_down.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Removes `keys` members from an object value (no-op otherwise).
fn strip_members(value: Value, keys: &[&str]) -> Value {
    match value {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    }
}

/// Re-encodes a backend reply for the front connection. The backend's
/// own `id` echo is stripped (the front framing adds the front id).
fn encode_reply(reply: Reply) -> String {
    match reply {
        Reply::Ok(value) => strip_members(value, &["id"]).to_json(),
        Reply::Failed {
            job_status,
            detail,
            report,
        } => {
            let mut members = vec![
                ("status", json::string("failed")),
                ("job_status", json::string(&job_status)),
            ];
            if let Some(detail) = detail {
                members.push(("detail", json::string(&detail)));
            }
            members.push(("report", report.to_json()));
            json::object(&members)
        }
        Reply::Overloaded { in_flight } => json::object(&[
            ("status", json::string("overloaded")),
            ("in_flight", in_flight.to_string()),
        ]),
        Reply::DeadlineExceeded { waited_ms } => json::object(&[
            ("status", json::string("deadline_exceeded")),
            ("waited_ms", waited_ms.to_string()),
        ]),
        Reply::Error(reason) => error_reply(&reason),
    }
}

/// Routes one extract through the fleet and returns the front reply
/// body (id-less; the caller frames it).
#[allow(clippy::too_many_lines)]
fn route_extract(ctx: &Arc<Ctx>, req: &ExtractRequest) -> String {
    let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
    let fallback = format!("req{seq:06}");
    let spec = match req.to_spec(&fallback) {
        Ok(spec) => spec,
        Err(reason) => return error_reply(&reason),
    };
    // The client-side key computation: identical input digest to the
    // backend's own, so router placement and backend storage agree.
    let key = job_key(&spec);
    let pos = key.map_or_else(|| Ring::data_position(&req.dex), |k| Ring::key_position(&k));
    let candidates = ctx.ring.candidates(pos);
    let r = ctx.config.replicas.clamp(1, candidates.len());
    let replica_set: Vec<usize> = candidates[..r].to_vec();

    // Forwarded copy. `want_entry` is passed through untouched: the
    // hot-path reply stays thin, and the repair thread pulls the entry
    // with an explicit `fetch` when replication or read-repair needs
    // it.
    let fwd = req.clone();

    ctx.stats.lock().expect("stats lock").routed += 1;

    let started = Instant::now();
    let deadline = started
        + req
            .deadline_ms
            .map_or(Duration::from_millis(ctx.config.request_timeout_ms), |ms| {
                Duration::from_millis(ms.min(ctx.config.request_timeout_ms))
            });
    let hedge_after = Duration::from_millis(ctx.config.hedge_ms);

    let waiter = Waiter::new();
    let mut cursor = 0usize;
    let mut outstanding: Vec<(usize, u64)> = Vec::new();
    let mut fallback_reply: Option<String> = None;
    let first_backend;

    // First send: walk the candidate order until a backend accepts.
    loop {
        if cursor >= candidates.len() {
            ctx.stats.lock().expect("stats lock").fleet_errors += 1;
            return error_reply("no backend available");
        }
        let b = candidates[cursor];
        cursor += 1;
        if !ctx.backends[b].available() {
            continue;
        }
        if let Some(id) = ctx.backends[b].send_extract(&fwd, &waiter) {
            first_backend = b;
            outstanding.push((b, id));
            break;
        }
    }
    let mut last_send = Instant::now();

    loop {
        // Hedge ladder: while untried candidates remain, another copy
        // fires each time a full hedge budget elapses unanswered, so a
        // request escapes even when the first hedge lands on a shard
        // that is itself stuck.  Bounded by the candidate list.
        let hedge_at = (!outstanding.is_empty() && cursor < candidates.len())
            .then_some(last_send + hedge_after);
        let wake = hedge_at.map_or(deadline, |h| h.min(deadline));
        let events = waiter.wait_until(wake);

        if events.is_empty() {
            if Instant::now() >= deadline {
                for (b, pending_id) in outstanding {
                    ctx.backends[b].cancel(pending_id);
                }
                return fallback_reply.unwrap_or_else(|| {
                    let waited = started.elapsed().as_millis();
                    json::object(&[
                        ("status", json::string("deadline_exceeded")),
                        ("waited_ms", waited.to_string()),
                    ])
                });
            }
            // Hedge budget elapsed: fire a copy at the next candidate.
            let mut sent = false;
            while cursor < candidates.len() {
                let b = candidates[cursor];
                cursor += 1;
                if !ctx.backends[b].available() {
                    continue;
                }
                if let Some(id) = ctx.backends[b].send_extract(&fwd, &waiter) {
                    outstanding.push((b, id));
                    last_send = Instant::now();
                    sent = true;
                    break;
                }
            }
            if sent {
                ctx.stats.lock().expect("stats lock").hedges += 1;
            }
            continue;
        }

        for event in events {
            match event {
                Event::Lost(b) => {
                    outstanding.retain(|(x, _)| *x != b);
                }
                Event::Reply(b, reply) => {
                    outstanding.retain(|(x, _)| *x != b);
                    match reply {
                        Reply::Ok(value) => {
                            return finish_ok(
                                ctx,
                                req,
                                key,
                                &replica_set,
                                first_backend,
                                b,
                                value,
                                outstanding,
                            );
                        }
                        terminal @ Reply::Failed { .. } => {
                            // A definitive job outcome: retrying on a
                            // replica would just fail the same way.
                            let mut stats = ctx.stats.lock().expect("stats lock");
                            if b != first_backend {
                                stats.hedge_wins += 1;
                            }
                            drop(stats);
                            for (ob, oid) in outstanding {
                                ctx.backends[ob].cancel(oid);
                                ctx.stats.lock().expect("stats lock").cancels += 1;
                            }
                            return encode_reply(terminal);
                        }
                        soft @ (Reply::Overloaded { .. }
                        | Reply::DeadlineExceeded { .. }
                        | Reply::Error(_)) => {
                            // This backend shed or garbled the request;
                            // remember its answer but try further
                            // replicas before giving it to the client.
                            fallback_reply = Some(encode_reply(soft));
                        }
                    }
                }
            }
        }

        // Everything in flight died or shed: fail over down the ring.
        if outstanding.is_empty() {
            let mut sent = false;
            while cursor < candidates.len() {
                let b = candidates[cursor];
                cursor += 1;
                if !ctx.backends[b].available() {
                    continue;
                }
                if let Some(id) = ctx.backends[b].send_extract(&fwd, &waiter) {
                    outstanding.push((b, id));
                    last_send = Instant::now();
                    sent = true;
                    break;
                }
            }
            if sent {
                ctx.stats.lock().expect("stats lock").failovers += 1;
            } else {
                return fallback_reply.unwrap_or_else(|| {
                    ctx.stats.lock().expect("stats lock").fleet_errors += 1;
                    error_reply("all backends unavailable")
                });
            }
        }
    }
}

/// Winner bookkeeping for a successful reply from backend `winner`:
/// cancel the losers, schedule replication / read-repair, and shape
/// the front reply.
#[allow(clippy::too_many_arguments)]
fn finish_ok(
    ctx: &Arc<Ctx>,
    req: &ExtractRequest,
    key: Option<Key>,
    replica_set: &[usize],
    first_backend: usize,
    winner: usize,
    value: Value,
    losers: Vec<(usize, u64)>,
) -> String {
    {
        let mut stats = ctx.stats.lock().expect("stats lock");
        if winner != first_backend {
            stats.hedge_wins += 1;
        }
        stats.cancels += losers.len() as u64;
    }
    for (b, id) in losers {
        ctx.backends[b].cancel(id);
    }

    if let Some(key) = key {
        let cached = value
            .get("cached")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        // If the front asked for the entry itself the reply already
        // carries it — reuse it instead of re-fetching.
        let entry = value
            .get("entry")
            .and_then(Value::as_str)
            .and_then(from_hex);
        let targets: Vec<usize> = if cached {
            // A replica served a hit the primary did not: repair the
            // primary so the next read finds it in one hop.
            if winner == replica_set[0] {
                Vec::new()
            } else {
                vec![replica_set[0]]
            }
        } else {
            // Fresh fill: fan it out to the rest of the replica set.
            replica_set
                .iter()
                .copied()
                .filter(|&b| b != winner)
                .collect()
        };
        // Offer each (target, key) once: hedged hits would otherwise
        // re-repair the same key on every read.
        let targets: Vec<usize> = targets
            .into_iter()
            .filter(|&b| ctx.first_offer(b, key))
            .collect();
        if !targets.is_empty() {
            {
                let mut stats = ctx.stats.lock().expect("stats lock");
                if cached {
                    stats.read_repairs += 1;
                } else {
                    stats.replica_fills += targets.len() as u64;
                }
            }
            if let Some(entry) = entry {
                for b in targets {
                    ctx.schedule_push(b, key, &entry);
                }
            } else {
                ctx.schedule_pull(winner, targets, key);
            }
        }
    }

    // The entry payload is router plumbing; forward it only when the
    // front client asked for it itself.
    let strip: &[&str] = if req.want_entry {
        &["id"]
    } else {
        &["id", "entry"]
    };
    strip_members(value, strip).to_json()
}

/// Pulls the entry payload for `key` from `source` with an explicit
/// `fetch` round-trip (the repair thread's read path). `None` when the
/// backend is unreachable, times out, or no longer has the entry.
fn fetch_entry(ctx: &Arc<Ctx>, source: usize, key: &Key) -> Option<Vec<u8>> {
    let waiter = Waiter::new();
    ctx.backends[source].send_fetch(key, &waiter)?;
    let deadline = Instant::now() + Duration::from_millis(ctx.config.request_timeout_ms);
    // A fetch has exactly one in-flight request, so the first event (or a
    // timeout's empty batch) settles it.
    match waiter.wait_until(deadline).into_iter().next() {
        Some(Event::Reply(_, Reply::Ok(value))) => value
            .get("entry")
            .and_then(Value::as_str)
            .and_then(from_hex),
        _ => None, // timed out, transport lost, or the entry is gone
    }
}

/// Routes a front-side fetch: ask the key's replicas in placement
/// order, return the first entry found (with the same shape a backend
/// answers), `found: false` if no replica has it.
fn route_fetch(ctx: &Arc<Ctx>, key: &Key) -> String {
    let candidates = ctx.ring.candidates(Ring::key_position(key));
    let r = ctx.config.replicas.clamp(1, candidates.len());
    for &b in &candidates[..r] {
        if let Some(entry) = fetch_entry(ctx, b, key) {
            let mut reply = String::with_capacity(entry.len() * 2 + 64);
            let mut obj = json::ObjectWriter::new(&mut reply);
            obj.string("status", "ok");
            obj.raw("found", "true");
            obj.hex("entry", &entry);
            obj.finish();
            return reply;
        }
    }
    json::object(&[
        ("status", json::string("ok")),
        ("found", "false".to_owned()),
    ])
}

/// Routes a front-side backfill to the key's replica set and reports
/// whether any replica newly stored it.
fn route_backfill(ctx: &Arc<Ctx>, key: Key, entry: &dexlego_store::CachedResult) -> String {
    let payload = encode_entry(entry);
    let pos = Ring::key_position(&key);
    let candidates = ctx.ring.candidates(pos);
    let r = ctx.config.replicas.clamp(1, candidates.len());
    let waiter = Waiter::new();
    let mut expected = 0usize;
    for &b in &candidates[..r] {
        if ctx.backends[b]
            .send_backfill_waited(&key, &payload, &waiter)
            .is_some()
        {
            expected += 1;
        }
    }
    if expected == 0 {
        ctx.stats.lock().expect("stats lock").fleet_errors += 1;
        return error_reply("no backend available");
    }
    let deadline = Instant::now() + Duration::from_millis(ctx.config.request_timeout_ms);
    let mut stored = false;
    let mut heard = 0usize;
    while heard < expected {
        let events = waiter.wait_until(deadline);
        if events.is_empty() {
            break;
        }
        for event in events {
            heard += 1;
            if let Event::Reply(_, Reply::Ok(value)) = event {
                stored |= value
                    .get("stored")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
            }
        }
    }
    json::object(&[
        ("status", json::string("ok")),
        ("stored", stored.to_string()),
    ])
}

/// Numeric-summing recursive merge for backend stats objects.
fn merge_stats(into: &mut Value, from: &Value) {
    match (into, from) {
        (Value::Obj(am), Value::Obj(bm)) => {
            for (k, bv) in bm {
                if let Some((_, av)) = am.iter_mut().find(|(ak, _)| ak == k) {
                    merge_stats(av, bv);
                } else {
                    am.push((k.clone(), bv.clone()));
                }
            }
        }
        (Value::Num(ar), Value::Num(br)) => {
            if let (Some(a), Some(b)) = (ar.parse::<u64>().ok(), br.parse::<u64>().ok()) {
                *ar = (a + b).to_string();
            }
        }
        _ => {}
    }
}

/// Fans `stats` out to every reachable backend and aggregates: numeric
/// counters sum, `uptime_ms` is the fleet maximum, and the router adds
/// its own `router` / `fleet` members.
fn stats_reply(ctx: &Arc<Ctx>) -> String {
    let waiter = Waiter::new();
    let mut expected = 0usize;
    for backend in &ctx.backends {
        if backend.available() && backend.send_op("stats", &waiter).is_some() {
            expected += 1;
        }
    }
    let deadline = Instant::now() + Duration::from_millis(1_000);
    let mut merged: Option<Value> = None;
    let mut max_uptime: u64 = 0;
    let mut heard = 0usize;
    while heard < expected {
        let events = waiter.wait_until(deadline);
        if events.is_empty() {
            break;
        }
        for event in events {
            heard += 1;
            let Event::Reply(_, Reply::Ok(value)) = event else {
                continue;
            };
            let Some(stats) = value.get("stats").cloned() else {
                continue;
            };
            max_uptime =
                max_uptime.max(stats.get("uptime_ms").and_then(Value::as_u64).unwrap_or(0));
            match merged.as_mut() {
                Some(acc) => merge_stats(acc, &stats),
                None => merged = Some(stats),
            }
        }
    }
    let mut merged = merged.unwrap_or(Value::Obj(Vec::new()));
    if let Value::Obj(members) = &mut merged {
        // Summed uptimes are meaningless; report the eldest backend.
        members.retain(|(k, _)| k != "uptime_ms" && k != "router" && k != "fleet");
        members.push(("uptime_ms".to_owned(), Value::Num(max_uptime.to_string())));
        let s = ctx.stats.lock().expect("stats lock");
        let router_obj = json::object(&[
            ("routed", s.routed.to_string()),
            ("hedges", s.hedges.to_string()),
            ("hedge_wins", s.hedge_wins.to_string()),
            ("failovers", s.failovers.to_string()),
            ("replica_fills", s.replica_fills.to_string()),
            ("read_repairs", s.read_repairs.to_string()),
            ("cancels", s.cancels.to_string()),
            ("fleet_errors", s.fleet_errors.to_string()),
            ("uptime_ms", ctx.started.elapsed().as_millis().to_string()),
        ]);
        drop(s);
        let fleet: Vec<String> = ctx
            .backends
            .iter()
            .map(|b| {
                json::object(&[
                    ("addr", json::string(b.addr())),
                    ("up", b.available().to_string()),
                    ("consecutive_failures", b.consecutive_failures().to_string()),
                    ("sent", b.sent.load(Ordering::Relaxed).to_string()),
                    ("lost", b.lost.load(Ordering::Relaxed).to_string()),
                    (
                        "backfills_sent",
                        b.backfills_sent.load(Ordering::Relaxed).to_string(),
                    ),
                ])
            })
            .collect();
        members.push((
            "router".to_owned(),
            dexlego_harness::json::parse(&router_obj).expect("router stats are valid json"),
        ));
        members.push((
            "fleet".to_owned(),
            dexlego_harness::json::parse(&json::array(&fleet)).expect("fleet stats are valid json"),
        ));
    }
    format!("{{\"status\": \"ok\", \"stats\": {}}}", merged.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dexlego_service::parse_reply_line;
    use std::path::Path;

    /// The wire golden files, kept next to the daemon's encoders.
    fn golden(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../service/tests/golden")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn relayed_replies_are_golden() {
        for (backend, front) in [
            ("extract_ok_reply.line", "router_ok_reply.line"),
            ("extract_failed_reply.line", "router_failed_reply.line"),
        ] {
            let (_, reply) = parse_reply_line(golden(backend).trim_end()).expect("golden parses");
            let mut framed = Vec::new();
            push_reply_line(&mut framed, Some(&RequestId::Num(3)), &encode_reply(reply));
            assert!(
                framed == golden(front).as_bytes(),
                "{front}: relayed bytes changed\n got: {}",
                String::from_utf8_lossy(&framed)
            );
        }
    }
}
