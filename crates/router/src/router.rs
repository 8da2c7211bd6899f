//! The routing tier: a `dexlegod`-protocol front end over a fleet of
//! `dexlegod` backends.
//!
//! For each extract the router computes the store key *client-side*
//! (the same [`ExtractRequest::key`] the daemon serves hits by: the DEX
//! bytes as received, never parsed), places it on the consistent ring,
//! and forwards to the key's primary replica. Each time a full
//! hedge budget elapses unanswered it fires another copy at the next
//! untried replica — first answer wins, losers are cancelled — so a
//! request escapes even when a hedge target is itself stuck. A fresh
//! extraction is replicated to the rest of the replica set; a cache hit
//! served by a non-primary replica triggers a read-repair backfill of
//! the primary. Replication pulls the entry with an explicit `fetch`
//! from the backend that served the result, then offers it to the
//! targets with `backfill`, so hot-path replies never carry entry bytes.
//! Backends that keep failing are ejected for a growing probation
//! window, and a dead shard degrades to cache misses on its neighbours —
//! a client sees an error only when the whole fleet is unreachable.
//!
//! The router is one thread: `dexlegod`'s own [server
//! core](dexlego_service::core), with no worker threads, runs a [`Handler`]
//! that routes on the loop. Its backends are the core's upstream
//! connections and every routed request is a parked reply, so the
//! core's framing, ids, pending bound, backpressure and drain hold for
//! the router as for the daemon, and [`dexlego_service::Client`] and
//! [`dexlego_service::PipelinedClient`] work against a router without
//! knowing it is one. Each request is encoded once, and every send
//! splices in its own backend id and goes to the backend's socket at
//! once. Replies, lost connections, the hedge ladder, the request
//! budget, replication and the `stats` fan-out are events on that one
//! thread. A router keeps no store of its own, so it refuses `fetch`
//! and `backfill`. Backend replies are relayed as received, with only
//! their `id` swapped, and a fetched entry is forwarded to `backfill` as
//! the hex it arrived in. A backend's `error` reply to an extract is
//! definitive: the router does not read the DEX, so the backend is what
//! refuses a bad one, and every replica would refuse it alike.
//!
//! A `stats` reply sums the backends' replies and adds a `router` member
//! that walks two counter tables ([`Counters`]): the routing counters of
//! [`RouterStats`], then the front core's [`CoreStats`], which count the
//! lines the front refuses or sheds before any backend sees them, and in
//! `errors` the backends' refusals it relays too.

use std::collections::{HashMap, HashSet};
use std::io;
use std::time::{Duration, Instant};

use dexlego_harness::json::{self, Value};
use dexlego_harness::{counters, Counters};
use dexlego_service::core::{Action, CoreStats, Handler, Io, Limits, Parked, Peer, Server};
use dexlego_service::protocol::{error_reply, reply_body};
use dexlego_service::{parse_reply_line, ExtractRequest, Reply, Request, RequestId};
use dexlego_store::Key;

use crate::backend::Backend;
use crate::ring::Ring;

/// The router's own budget for a routed request, and for each `fetch`
/// round trip. A request's `deadline_ms` is the backend's to enforce.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a `stats` fan-out waits for the backends' replies.
const STATS_TIMEOUT: Duration = Duration::from_secs(1);

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

/// What the router is waiting on backends for.
enum Task {
    Route(Route),
    /// Replication or read-repair: the entry for the key is being fetched
    /// from the backend that served it, to be offered to each target,
    /// until the deadline.
    Pull(Key, Vec<usize>, Instant),
    Stats(Fanout),
}

/// One routed extract.
struct Route {
    parked: Parked,
    /// The client's request, encoded once without an id; each send
    /// splices in its own.
    line: String,
    key: Key,
    /// The ring's walk from the key: the first `replicas` are its
    /// replica set, the whole walk the hedge and failover order.
    candidates: Vec<usize>,
    replicas: usize,
    /// The next candidate to try.
    cursor: usize,
    /// `(backend, id on the backend)` of every copy still unanswered.
    outstanding: Vec<(usize, u64)>,
    /// The backend the first copy went to.
    first: usize,
    /// A backend's shed reply, relayed if no replica does better.
    fallback: Option<String>,
    started: Instant,
    last_send: Instant,
}

/// A front `stats` request gathering the backends' counters.
struct Fanout {
    parked: Parked,
    /// The front core's counters when the request arrived.
    front: CoreStats,
    /// Backends whose reply is still to come.
    awaiting: usize,
    merged: Option<Value>,
    max_uptime: u64,
    deadline: Instant,
}

/// The router's front [`Handler`]: it routes every extract and fans out
/// every `stats` on the loop, refusing an extract that names an unknown
/// packer. `fetch` and `backfill` keep the core's refusal: nothing sends
/// them to a router.
struct Front {
    ring: Ring,
    replicas: usize,
    hedge: Duration,
    backends: Vec<Backend>,
    stats: RouterStats,
    started: Instant,
    /// `(target, key)` pairs already repaired/replicated, so hedged hits
    /// do not re-offer the same entry every read. Bounded: cleared
    /// wholesale when full (a re-repair is a harmless `put_if_absent`).
    repaired: HashSet<(usize, Key)>,
    tasks: HashMap<u64, Task>,
    next_task: u64,
}

impl Front {
    fn task_id(&mut self) -> u64 {
        self.next_task += 1;
        self.next_task
    }

    /// Records that `key` is being offered to `target`; returns false if
    /// that offer already happened (and should be skipped).
    fn first_offer(&mut self, target: usize, key: Key) -> bool {
        if self.repaired.len() >= 65_536 {
            self.repaired.clear();
        }
        self.repaired.insert((target, key))
    }

    /// Task `id` hears from backend `b`: the reply, parsed and as it is
    /// relayed, or `None` when the connection lost the request.
    fn hear(&mut self, io: &mut Io, id: u64, b: usize, heard: Option<(Reply, String)>) {
        match self.tasks.remove(&id) {
            Some(Task::Route(route)) => self.hear_route(io, id, route, b, heard),
            Some(Task::Pull(key, targets, _)) => self.hear_pull(io, key, targets, heard),
            Some(Task::Stats(fanout)) => self.hear_stats(io, id, fanout, heard),
            None => {}
        }
    }

    fn hear_route(
        &mut self,
        io: &mut Io,
        id: u64,
        mut route: Route,
        b: usize,
        heard: Option<(Reply, String)>,
    ) {
        route.outstanding.retain(|&(x, _)| x != b);
        match heard {
            Some((Reply::Ok(value), body)) => {
                self.settle(io, &route, b);
                let cached = value
                    .get("cached")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                self.replicate(io, &route, b, cached);
                io.answer(route.parked, body);
                return;
            }
            // A definitive job outcome: retrying on a replica would just
            // fail the same way.
            Some((Reply::Failed { .. }, body)) => {
                self.settle(io, &route, b);
                io.answer(route.parked, body);
                return;
            }
            // A definitive refusal (a DEX that does not parse, say): every
            // replica would refuse the request alike, and the front counts
            // it as its own.
            Some((Reply::Error(_), body)) => {
                self.settle(io, &route, b);
                io.answer_error(route.parked, body);
                return;
            }
            // This backend shed the request; remember its answer but
            // try further replicas before giving it to the client.
            Some((_, body)) => route.fallback = Some(body),
            None => {}
        }
        // Everything in flight died or shed: fail over down the ring.
        if route.outstanding.is_empty() {
            if send_next(&mut self.backends, io, id, &mut route) {
                self.stats.failovers += 1;
            } else {
                let body = route.fallback.unwrap_or_else(|| {
                    self.stats.fleet_errors += 1;
                    error_reply("all backends unavailable")
                });
                io.answer(route.parked, body);
                return;
            }
        }
        self.tasks.insert(id, Task::Route(route));
    }

    /// A winner's bookkeeping: the hedge win, if it was one, and the
    /// losers revoked.
    fn settle(&mut self, io: &mut Io, route: &Route, winner: usize) {
        if winner != route.first {
            self.stats.hedge_wins += 1;
        }
        for &(b, sent) in &route.outstanding {
            self.backends[b].cancel(io, sent);
            self.stats.cancels += 1;
        }
    }

    /// Schedules replication of a fresh fill, or read-repair of a hit a
    /// non-primary served: a `fetch` of the entry from `winner`, whose
    /// reply is then offered to the targets.
    fn replicate(&mut self, io: &mut Io, route: &Route, winner: usize, cached: bool) {
        let key = route.key;
        // A hit a replica served that the primary did not repairs the
        // primary, so the next read finds it in one hop; a fresh fill goes
        // to the rest of the replica set. Each (target, key) is offered
        // once: hedged hits would otherwise re-repair the same key on
        // every read.
        let targets = if cached {
            &route.candidates[..1]
        } else {
            &route.candidates[..route.replicas]
        };
        let targets: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&b| b != winner && self.first_offer(b, key))
            .collect();
        if targets.is_empty() {
            return;
        }
        if cached {
            self.stats.read_repairs += 1;
        } else {
            self.stats.replica_fills += targets.len() as u64;
        }
        let id = self.task_id();
        let fetch = Request::encode_fetch(None, &key);
        if self.backends[winner].send(io, &fetch, Some(id)).is_some() {
            let deadline = Instant::now() + REQUEST_TIMEOUT;
            self.tasks.insert(id, Task::Pull(key, targets, deadline));
        }
    }

    /// Offers a fetched entry to the pull's targets, as the hex it
    /// arrived in. A pull whose fetch was lost, or whose source no longer
    /// has the entry, has failed.
    fn hear_pull(
        &mut self,
        io: &mut Io,
        key: Key,
        targets: Vec<usize>,
        heard: Option<(Reply, String)>,
    ) {
        let Some((Reply::Ok(value), _)) = heard else {
            return;
        };
        let Some(backfill) = value
            .get("entry")
            .and_then(Value::as_str)
            .and_then(|entry| Request::encode_backfill_hex(None, &key, entry))
        else {
            return;
        };
        for target in targets {
            let backend = &mut self.backends[target];
            if backend.send(io, &backfill, None).is_some() {
                backend.stats.backfills_sent += 1;
            }
        }
    }

    fn hear_stats(
        &mut self,
        io: &mut Io,
        id: u64,
        mut fanout: Fanout,
        heard: Option<(Reply, String)>,
    ) {
        fanout.awaiting -= 1;
        if let Some(stats) = heard.and_then(|(reply, _)| match reply {
            Reply::Ok(value) => value.get("stats").cloned(),
            _ => None,
        }) {
            let uptime = stats.get("uptime_ms").and_then(Value::as_u64).unwrap_or(0);
            fanout.max_uptime = fanout.max_uptime.max(uptime);
            match fanout.merged.as_mut() {
                Some(acc) => merge_stats(acc, &stats),
                None => fanout.merged = Some(stats),
            }
        }
        if fanout.awaiting > 0 {
            self.tasks.insert(id, Task::Stats(fanout));
            return;
        }
        io.answer(fanout.parked, self.stats_reply(&fanout));
    }

    /// Aggregates the backends' `stats`: numeric counters sum,
    /// `uptime_ms` is the fleet maximum, and the router adds its own
    /// `router` / `fleet` members.
    fn stats_reply(&self, fanout: &Fanout) -> String {
        let fleet: Vec<String> = self
            .backends
            .iter()
            .map(|b| {
                let mut entry = String::new();
                let mut obj = json::ObjectWriter::new(&mut entry);
                obj.string("addr", b.addr());
                obj.raw("up", &b.available().to_string());
                obj.raw(
                    "consecutive_failures",
                    &b.consecutive_failures().to_string(),
                );
                b.stats.write_counters(&mut obj);
                obj.finish();
                entry
            })
            .collect();
        let mut stats = String::new();
        let mut obj = json::ObjectWriter::new(&mut stats);
        if let Some(Value::Obj(members)) = &fanout.merged {
            for (name, value) in members {
                // The router writes these itself: summed uptimes are
                // meaningless, so it reports the eldest backend's.
                if !matches!(name.as_str(), "uptime_ms" | "router" | "fleet") {
                    obj.raw(name, &value.to_json());
                }
            }
        }
        obj.raw("uptime_ms", &fanout.max_uptime.to_string());
        obj.raw(
            "router",
            &router_member(&self.stats, &fanout.front, self.started.elapsed()),
        );
        obj.raw("fleet", &json::array(&fleet));
        obj.finish();
        json::object(&[("status", json::string("ok")), ("stats", stats)])
    }
}

/// Sends `route`'s request, as task `id`, to the next available candidate
/// that takes it.
fn send_next(backends: &mut [Backend], io: &mut Io, id: u64, route: &mut Route) -> bool {
    while let Some(&b) = route.candidates.get(route.cursor) {
        route.cursor += 1;
        if !backends[b].available() {
            continue;
        }
        if let Some(sent) = backends[b].send(io, &route.line, Some(id)) {
            route.outstanding.push((b, sent));
            route.last_send = Instant::now();
            return true;
        }
    }
    false
}

impl Handler for Front {
    fn extract(&mut self, req: Box<ExtractRequest>, io: &mut Io, parked: Parked) -> Action {
        // The client-side key: the backend's own, so router placement and
        // backend storage agree. It reads no DEX; a bad one is the
        // backend's to refuse.
        let key = match req.key() {
            Ok(key) => key,
            Err(reason) => return Action::Error(reason),
        };
        let candidates = self.ring.candidates(Ring::key_position(&key));
        let now = Instant::now();
        let mut route = Route {
            parked,
            line: req.encode(),
            key,
            replicas: self.replicas.clamp(1, candidates.len()),
            candidates,
            cursor: 0,
            outstanding: Vec::new(),
            first: 0,
            fallback: None,
            started: now,
            last_send: now,
        };
        self.stats.routed += 1;
        let id = self.task_id();
        if !send_next(&mut self.backends, io, id, &mut route) {
            self.stats.fleet_errors += 1;
            return Action::Reply(error_reply("no backend available"));
        }
        route.first = route.outstanding[0].0;
        self.tasks.insert(id, Task::Route(route));
        Action::Park
    }

    fn stats(&mut self, core: &CoreStats, io: &mut Io, parked: Parked) -> Action {
        let id = self.task_id();
        let line = Request::encode_simple("stats");
        let awaiting = self
            .backends
            .iter_mut()
            .filter(|b| b.available())
            .filter_map(|b| b.send(io, &line, Some(id)))
            .count();
        let fanout = Fanout {
            parked,
            front: *core,
            awaiting,
            merged: None,
            max_uptime: 0,
            deadline: Instant::now() + STATS_TIMEOUT,
        };
        if awaiting == 0 {
            return Action::Reply(self.stats_reply(&fanout));
        }
        self.tasks.insert(id, Task::Stats(fanout));
        Action::Park
    }

    fn upstream(&mut self, peer: Peer, line: Option<String>, io: &mut Io) {
        let Some(b) = self.backends.iter().position(|b| b.is_on(peer)) else {
            return;
        };
        let Some(line) = line else {
            for id in self.backends[b].lost() {
                self.hear(io, id, b, None);
            }
            return;
        };
        match parse_reply_line(&line) {
            Ok((Some(RequestId::Num(sent)), reply)) => {
                // No task: a cancelled loser's straggling reply, or an
                // ack nothing waits for. Drop it.
                if let Some(id) = self.backends[b].take(sent) {
                    let body = reply_body(line, Some(&RequestId::Num(sent)));
                    self.hear(io, id, b, Some((reply, body)));
                }
            }
            // Replies this router never asks for (id-less or
            // string-tagged); ignore rather than die.
            Ok(_) => {}
            // Not the protocol: the connection is not trustworthy.
            Err(_) => io.close(peer),
        }
    }

    fn wake(&mut self, io: &mut Io) -> Option<Instant> {
        let (now, hedge) = (Instant::now(), self.hedge);
        let mut next: Option<Instant> = None;
        let ids: Vec<u64> = self.tasks.keys().copied().collect();
        for id in ids {
            let due = match self.tasks.remove(&id) {
                Some(Task::Route(mut route)) => {
                    let deadline = route.started + REQUEST_TIMEOUT;
                    if now >= deadline {
                        for &(b, sent) in &route.outstanding {
                            self.backends[b].cancel(io, sent);
                        }
                        let body = route.fallback.unwrap_or_else(|| {
                            json::object(&[
                                ("status", json::string("deadline_exceeded")),
                                ("waited_ms", route.started.elapsed().as_millis().to_string()),
                            ])
                        });
                        io.answer(route.parked, body);
                        continue;
                    }
                    // Hedge ladder: while untried candidates remain,
                    // another copy fires each time a full hedge budget
                    // elapses unanswered, so a request escapes even when
                    // the first hedge lands on a shard that is itself
                    // stuck. Bounded by the candidate list.
                    let ladder = |route: &Route| {
                        (!route.outstanding.is_empty() && route.cursor < route.candidates.len())
                            .then_some(route.last_send + hedge)
                    };
                    if ladder(&route).is_some_and(|at| now >= at)
                        && send_next(&mut self.backends, io, id, &mut route)
                    {
                        self.stats.hedges += 1;
                    }
                    let due = ladder(&route).map_or(deadline, |at| at.min(deadline));
                    self.tasks.insert(id, Task::Route(route));
                    due
                }
                Some(Task::Pull(key, targets, deadline)) if now < deadline => {
                    self.tasks.insert(id, Task::Pull(key, targets, deadline));
                    deadline
                }
                Some(Task::Stats(fanout)) if now < fanout.deadline => {
                    let due = fanout.deadline;
                    self.tasks.insert(id, Task::Stats(fanout));
                    due
                }
                // Past its budget: a pull has failed, a fan-out answers
                // with what it heard.
                Some(Task::Stats(fanout)) => {
                    io.answer(fanout.parked, self.stats_reply(&fanout));
                    continue;
                }
                Some(Task::Pull(..)) | None => continue,
            };
            next = Some(next.map_or(due, |n| n.min(due)));
        }
        next
    }
}

/// A running router; dropping the handle does not stop it — use
/// [`Router::trigger_shutdown`] + [`Router::wait`].
pub struct Router {
    server: Server,
}

impl Router {
    /// Binds the front socket, starts the router's one thread, and
    /// returns the handle. Backends are dialled lazily on first use, so a
    /// fleet can be wired up in any order.
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
        let front = Front {
            ring: Ring::new(&config.backends, config.vnodes.max(1), config.seed),
            replicas: config.replicas,
            hedge: Duration::from_millis(config.hedge_ms),
            backends: config.backends.iter().map(|a| Backend::new(a)).collect(),
            stats: RouterStats::default(),
            started: Instant::now(),
            repaired: HashSet::new(),
            tasks: HashMap::new(),
            next_task: 0,
        };
        let server = Server::start(
            "dexlego-router-loop",
            &config.listen,
            0,
            Limits::default(),
            front,
        )?;
        Ok(Router { server })
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
    /// has been answered and flushed, and every scheduled replication has
    /// been offered or has failed.
    pub fn wait(self) {
        self.server.wait();
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
