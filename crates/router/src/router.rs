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
//! entry bytes. Backends that keep failing are
//! ejected for a growing probation window, and a dead shard degrades
//! to cache misses on its neighbours — a client sees an error only
//! when the whole fleet is unreachable.
//!
//! The front side is `dexlegod`'s own [server core](dexlego_service::core)
//! — framing, ids, deadlines, pending queues, shedding, backpressure and
//! drain — with a handler that serves `extract` and `stats`: an extract
//! whose request does not describe a job is refused on the loop, and
//! every other extract and every `stats` runs as a closure on one of the
//! core's routing workers, so [`dexlego_service::Client`] and
//! [`dexlego_service::PipelinedClient`] work against a router without
//! knowing it is one. A router keeps no store of its own, so it refuses
//! `fetch` and `backfill`. Backend replies are relayed as received, with
//! only their `id` swapped.
//!
//! A `stats` reply sums the backends' replies and adds a `router` member
//! that walks two counter tables ([`Counters`]): the routing counters of
//! [`RouterStats`], then the front core's [`CoreStats`], which count the
//! lines the front refuses or sheds before any backend sees them.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dexlego_harness::json::{self, Value};
use dexlego_harness::{counters, job_key, Counters, JobSpec};
use dexlego_service::core::{Action, CoreStats, Handler, Limits, Server};
use dexlego_service::protocol::error_reply;
use dexlego_service::{ExtractRequest, Reply};
use dexlego_store::hex::from_hex;
use dexlego_store::Key;

use crate::backend::{Backend, Event, Waiter};
use crate::ring::Ring;

/// Hard per-request fleet budget, milliseconds: bounds requests that
/// carry no deadline of their own, and each fetch or backfill round trip.
const REQUEST_TIMEOUT_MS: u64 = 30_000;

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
    /// Routing worker threads: requests routed at once. The rest wait in
    /// the front's per-connection queues.
    pub workers: usize,
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
            workers: 8,
        }
    }
}

counters! {
    /// Router-level counters, all monotonically increasing, each named
    /// once, as a field: the [`Counters`] table the `router` member of a
    /// `stats` reply and the fleet bench walk lists them in field order.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RouterStats {
        /// Extracts routed.
        routed,
        /// Hedge requests fired.
        hedges,
        /// Winners that were the hedged (non-first) send.
        hedge_wins,
        /// Sends retried on another replica after a transport loss or shed.
        failovers,
        /// Backfills scheduled because a fresh fill must reach the rest of
        /// its replica set.
        replica_fills,
        /// Backfills scheduled because a non-primary replica served a hit
        /// the primary was missing.
        read_repairs,
        /// Cancels sent to revoke hedged losers.
        cancels,
        /// Requests answered with an error because the whole fleet was
        /// unreachable.
        fleet_errors,
    }
}

/// A replication or read-repair job for the repair thread: pull the
/// entry for `key` from `source` (which just served it) and offer it to
/// each of `targets`. Extract replies stay thin — the payload transfer
/// happens here, off the request hot path.
struct RepairJob {
    source: usize,
    targets: Vec<usize>,
    key: Key,
}

struct Ctx {
    config: RouterConfig,
    ring: Ring,
    backends: Vec<Arc<Backend>>,
    stats: Mutex<RouterStats>,
    started: Instant,
    repair_tx: Mutex<Option<mpsc::Sender<RepairJob>>>,
    /// `(target, key)` pairs already repaired/replicated, so hedged hits
    /// do not re-offer the same entry every read. Bounded: cleared
    /// wholesale when full (a re-repair is a harmless `put_if_absent`).
    repaired: Mutex<HashSet<(usize, Key)>>,
}

impl Ctx {
    fn schedule_pull(&self, source: usize, targets: Vec<usize>, key: Key) {
        let tx = self.repair_tx.lock().expect("repair lock").clone();
        if let Some(tx) = tx {
            let _ = tx.send(RepairJob {
                source,
                targets,
                key,
            });
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
}

/// The router's front [`Handler`]: on the loop it parses each extract's
/// job, refusing one that describes none, and it routes the parsed jobs
/// and `stats` on the core's workers. `fetch` and `backfill` keep the
/// core's refusal: nothing sends them to a router.
struct Front {
    ctx: Arc<Ctx>,
}

impl Handler for Front {
    fn extract(&mut self, req: Box<ExtractRequest>) -> Action {
        // The spec only yields the placement key, which ignores the name.
        let spec = match req.to_spec("routed") {
            Ok(spec) => spec,
            Err(reason) => return Action::Error(reason),
        };
        let ctx = Arc::clone(&self.ctx);
        Action::Defer {
            deadline_ms: req.deadline_ms,
            work: Box::new(move || route_extract(&ctx, &req, &spec)),
        }
    }

    fn stats(&mut self, core: &CoreStats) -> Action {
        let (ctx, front) = (Arc::clone(&self.ctx), *core);
        Action::Defer {
            deadline_ms: None,
            work: Box::new(move || stats_reply(&ctx, &front)),
        }
    }
}

/// A running router; dropping the handle does not stop it — use
/// [`Router::trigger_shutdown`] + [`Router::wait`].
pub struct Router {
    server: Server,
    ctx: Arc<Ctx>,
    repair: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the front socket, starts the front's event loop, routing
    /// workers and repair thread, and returns the handle. Backends are
    /// dialled lazily on first use, so a fleet can be wired up in any
    /// order.
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
        let ring = Ring::new(&config.backends, config.vnodes.max(1), config.seed);
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| Backend::new(i, addr))
            .collect();

        let (repair_tx, repair_rx) = mpsc::channel::<RepairJob>();
        let workers = config.workers;
        let listen = config.listen.clone();
        let ctx = Arc::new(Ctx {
            ring,
            backends,
            stats: Mutex::new(RouterStats::default()),
            started: Instant::now(),
            repair_tx: Mutex::new(Some(repair_tx)),
            repaired: Mutex::new(HashSet::new()),
            config,
        });

        let server = Server::start(
            "dexlego-router-loop",
            &listen,
            workers,
            Limits::default(),
            Front {
                ctx: Arc::clone(&ctx),
            },
        )?;

        let repair_ctx = Arc::clone(&ctx);
        let repair = std::thread::spawn(move || {
            for job in repair_rx {
                let Some(entry) = fetch_entry(&repair_ctx, job.source, &job.key) else {
                    continue;
                };
                for target in job.targets {
                    let _ = repair_ctx.backends[target].send_backfill(&job.key, &entry, None);
                }
            }
        });

        Ok(Router {
            server,
            ctx,
            repair: Some(repair),
        })
    }

    /// The bound front address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Starts a drain exactly as a front `shutdown` request would.
    pub fn trigger_shutdown(&self) {
        self.server.trigger_shutdown();
    }

    /// Blocks until the router has drained: every admitted front request
    /// has been answered and flushed, and the repair thread has finished
    /// its queue.
    pub fn wait(mut self) {
        self.server.wait();
        // Closing the channel lets the repair thread drain and exit.
        self.ctx.repair_tx.lock().expect("repair lock").take();
        if let Some(repair) = self.repair.take() {
            let _ = repair.join();
        }
    }
}

/// Routes one extract, whose job `req` describes as `spec`, through the
/// fleet and returns the front reply body (id-less; the caller frames
/// it).
#[allow(clippy::too_many_lines)]
fn route_extract(ctx: &Ctx, req: &ExtractRequest, spec: &JobSpec) -> String {
    // The client-side key computation: identical input digest to the
    // backend's own, so router placement and backend storage agree.
    let key = job_key(spec);
    let pos = key.map_or_else(|| Ring::data_position(&req.dex), |k| Ring::key_position(&k));
    let candidates = ctx.ring.candidates(pos);
    let r = ctx.config.replicas.clamp(1, candidates.len());
    let replica_set: Vec<usize> = candidates[..r].to_vec();

    // The client's request is forwarded as it came; the repair thread
    // pulls the entry with an explicit `fetch` when replication or
    // read-repair needs it.
    ctx.stats.lock().expect("stats lock").routed += 1;

    let started = Instant::now();
    let deadline = started
        + req
            .deadline_ms
            .map_or(Duration::from_millis(REQUEST_TIMEOUT_MS), |ms| {
                Duration::from_millis(ms.min(REQUEST_TIMEOUT_MS))
            });
    let hedge_after = Duration::from_millis(ctx.config.hedge_ms);

    let waiter = Waiter::new();
    let mut cursor = 0usize;
    let mut outstanding: Vec<(usize, u64)> = Vec::new();
    let mut fallback_reply: Option<String> = None;

    // Each send walks the candidate order from `cursor` to the next
    // available backend that accepts the request.
    let send_next = |cursor: &mut usize, outstanding: &mut Vec<(usize, u64)>| {
        while let Some(&b) = candidates.get(*cursor) {
            *cursor += 1;
            if !ctx.backends[b].available() {
                continue;
            }
            if let Some(id) = ctx.backends[b].send_extract(req, &waiter) {
                outstanding.push((b, id));
                return Some(b);
            }
        }
        None
    };

    let Some(first_backend) = send_next(&mut cursor, &mut outstanding) else {
        ctx.stats.lock().expect("stats lock").fleet_errors += 1;
        return error_reply("no backend available");
    };
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
            if send_next(&mut cursor, &mut outstanding).is_some() {
                last_send = Instant::now();
                ctx.stats.lock().expect("stats lock").hedges += 1;
            }
            continue;
        }

        for event in events {
            match event {
                Event::Lost(b) => {
                    outstanding.retain(|(x, _)| *x != b);
                }
                Event::Reply(b, reply, body) => {
                    outstanding.retain(|(x, _)| *x != b);
                    match reply {
                        Reply::Ok(value) => {
                            finish_ok(
                                ctx,
                                key,
                                &replica_set,
                                first_backend,
                                b,
                                &value,
                                outstanding,
                            );
                            return body;
                        }
                        Reply::Failed { .. } => {
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
                            return body;
                        }
                        Reply::Overloaded { .. }
                        | Reply::DeadlineExceeded { .. }
                        | Reply::Error(_) => {
                            // This backend shed or garbled the request;
                            // remember its answer but try further
                            // replicas before giving it to the client.
                            fallback_reply = Some(body);
                        }
                    }
                }
            }
        }

        // Everything in flight died or shed: fail over down the ring.
        if outstanding.is_empty() {
            if send_next(&mut cursor, &mut outstanding).is_some() {
                last_send = Instant::now();
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
/// cancel the losers and schedule replication / read-repair, which pull
/// the entry from the winner. The reply itself is relayed as the backend
/// wrote it.
fn finish_ok(
    ctx: &Ctx,
    key: Option<Key>,
    replica_set: &[usize],
    first_backend: usize,
    winner: usize,
    value: &Value,
    losers: Vec<(usize, u64)>,
) {
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
            ctx.schedule_pull(winner, targets, key);
        }
    }
}

/// Pulls the entry payload for `key` from `source` with an explicit
/// `fetch` round-trip (the repair thread's read path). `None` when the
/// backend is unreachable, times out, or no longer has the entry.
fn fetch_entry(ctx: &Ctx, source: usize, key: &Key) -> Option<Vec<u8>> {
    let waiter = Waiter::new();
    ctx.backends[source].send_fetch(key, &waiter)?;
    let deadline = Instant::now() + Duration::from_millis(REQUEST_TIMEOUT_MS);
    // A fetch has exactly one in-flight request, so the first event (or a
    // timeout's empty batch) settles it.
    match waiter.wait_until(deadline).into_iter().next() {
        Some(Event::Reply(_, Reply::Ok(value), _)) => value
            .get("entry")
            .and_then(Value::as_str)
            .and_then(from_hex),
        _ => None, // timed out, transport lost, or the entry is gone
    }
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
/// its own `router` / `fleet` members; `front` holds the counters of the
/// router's own front core.
fn stats_reply(ctx: &Ctx, front: &CoreStats) -> String {
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
            let Event::Reply(_, Reply::Ok(value), _) = event else {
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
    let router = *ctx.stats.lock().expect("stats lock");
    let mut stats = String::new();
    let mut obj = json::ObjectWriter::new(&mut stats);
    if let Some(Value::Obj(members)) = &merged {
        for (name, value) in members {
            // The router writes these itself: summed uptimes are
            // meaningless, so it reports the eldest backend's.
            if !matches!(name.as_str(), "uptime_ms" | "router" | "fleet") {
                obj.raw(name, &value.to_json());
            }
        }
    }
    obj.raw("uptime_ms", &max_uptime.to_string());
    obj.raw(
        "router",
        &router_member(&router, front, ctx.started.elapsed()),
    );
    obj.raw("fleet", &json::array(&fleet));
    obj.finish();
    json::object(&[("status", json::string("ok")), ("stats", stats)])
}

/// The `router` member of a `stats` reply: the routing counters, the
/// front core's request counters, and the router's uptime.
fn router_member(router: &RouterStats, front: &CoreStats, uptime: Duration) -> String {
    let mut out = String::new();
    let mut obj = json::ObjectWriter::new(&mut out);
    router.write_counters(&mut obj);
    front.write_counters(&mut obj);
    obj.raw("uptime_ms", &uptime.as_millis().to_string());
    obj.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dexlego_service::protocol::{push_reply_line, reply_body};
    use dexlego_service::{parse_reply_line, RequestId};
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
            let line = golden(backend).trim_end().to_owned();
            let (id, _) = parse_reply_line(&line).expect("golden parses");
            let mut framed = Vec::new();
            push_reply_line(
                &mut framed,
                Some(&RequestId::Num(3)),
                &reply_body(line, id.as_ref()),
            );
            assert!(
                framed == golden(front).as_bytes(),
                "{front}: relayed bytes changed\n got: {}",
                String::from_utf8_lossy(&framed)
            );
        }
    }

    /// Every routing and front counter goes through the `router` member's
    /// table writer and the reader the fleet bench uses unchanged, in
    /// table order.
    #[test]
    fn every_router_counter_survives_json_in_table_order() {
        let mut routed = RouterStats::default();
        for (i, c) in RouterStats::COUNTERS.iter().enumerate() {
            *c.field(&mut routed) = 1_000 + 7 * i as u64;
        }
        let mut front = CoreStats::default();
        for (i, c) in CoreStats::COUNTERS.iter().enumerate() {
            *c.field(&mut front) = 2_000 + 7 * i as u64;
        }
        let member = router_member(&routed, &front, Duration::from_millis(5));
        let value = json::parse(&member).expect("the router member parses");
        let Value::Obj(members) = &value else {
            panic!("the router member is an object")
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = RouterStats::COUNTERS
            .iter()
            .map(|c| c.name)
            .chain(CoreStats::COUNTERS.iter().map(|c| c.name))
            .chain(["uptime_ms"])
            .collect();
        assert_eq!(names, table);
        assert_eq!(RouterStats::read_counters(&value), routed);
        assert_eq!(CoreStats::read_counters(&value), front);
    }
}
