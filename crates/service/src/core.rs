//! The server core `dexlegod` and the router both run on: one event-loop
//! thread multiplexing every client connection, over a fixed set of
//! worker threads the core owns for work that must not block the loop.
//!
//! The core owns the wire and the load discipline; a [`Handler`] owns
//! what requests mean. The core answers `ping`, `cancel` and `shutdown`
//! itself and hands every other request to the handler, which either
//! answers on the loop or returns [`Work`] for a worker, whose result is
//! the finished reply body.
//!
//! Concurrency shape:
//!
//! - **one event-loop thread** owns the listener and every connection —
//!   nonblocking sockets behind a `poll(2)` [`Poller`](crate::poll),
//!   per-connection read framers that survive partial reads and write
//!   buffers that survive short writes;
//! - **the workers** run deferred work, one request each; they hand
//!   finished replies back through a completion queue plus a wake pipe,
//!   so the loop never blocks on a job, and the loop hands a worker a
//!   request only when one is free;
//! - **pipelining**: requests carrying an `id` get their replies as soon
//!   as they are ready, in any order; id-less requests keep the strictly
//!   ordered one-reply-per-request contract via per-connection sequence
//!   slots.
//!
//! Load discipline:
//!
//! - **one wait queue** — a deferred request waits in its connection's
//!   pending queue and nowhere else; a round-robin scheduler hands a free
//!   worker one request per connection per turn, so one firehose client
//!   cannot starve the rest;
//! - **bounded queues** — a connection may hold at most
//!   [`Limits::max_pending_per_conn`] requests waiting for a worker;
//!   beyond that the newest are shed with `overloaded` (with the bound at
//!   0 a request that finds every worker busy is shed at once);
//! - **deadline shedding** — a request whose deadline passes before it
//!   reaches a worker is answered `deadline_exceeded` without occupying
//!   one;
//! - **cancellation** — a `cancel` revokes a tagged request of the same
//!   connection that no worker has started;
//! - **write backpressure** — a client that stops reading accumulates
//!   replies up to a soft cap, after which the core stops reading (and
//!   therefore stops accepting work) from that connection until it
//!   drains;
//! - **drain** — `shutdown` stops reading everywhere and closes the
//!   listener; every request already read still gets its reply, and
//!   [`Server::wait`] returns once every reply is flushed and every
//!   worker has exited.
//!
//! The core counts what it sees in [`CoreStats`], a counter table
//! ([`dexlego_harness::Counters`]), and hands a copy to the handler's
//! `stats`: `dexlegod` writes it at the top level of its reply, the
//! router in its `router` member.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dexlego_harness::{counters, json};
use dexlego_store::{CachedResult, Key};

use crate::framing::Framer;
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{
    error_reply, parse_request_line, push_reply_line, ExtractRequest, Request, RequestId,
};

/// Default bound on undispatched requests per connection.
pub const MAX_PENDING_PER_CONN: usize = 64;
/// Default request-line byte cap.
pub const MAX_LINE_BYTES: usize = 64 << 20;
/// Default per-connection reply-buffer soft cap.
pub const WRITE_SOFT_CAP: usize = 4 << 20;
/// After a shutdown drain starts, how long to keep flushing replies to
/// clients that have stopped reading before abandoning them.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Per-connection bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Requests one connection may hold waiting for a worker; arrivals
    /// beyond it are shed with `overloaded`.
    pub max_pending_per_conn: usize,
    /// Request-line byte cap; longer lines get an `error` reply and are
    /// discarded without being buffered.
    pub max_line_bytes: usize,
    /// Reply-buffer soft cap; past it the core stops reading from the
    /// connection until the client drains its replies.
    pub write_soft_cap: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_pending_per_conn: MAX_PENDING_PER_CONN,
            max_line_bytes: MAX_LINE_BYTES,
            write_soft_cap: WRITE_SOFT_CAP,
        }
    }
}

/// Work a handler defers to a worker: it runs on a worker thread and
/// returns the reply body.
pub type Work = Box<dyn FnOnce() -> String + Send>;

/// What a handler makes of one request.
pub enum Action {
    /// Answered on the loop with this reply body.
    Reply(String),
    /// A bad request: answered `error` with this reason and counted.
    Error(String),
    /// Queued on its connection until a worker is free, then run on it.
    /// A request still queued `deadline_ms` after it was read is shed
    /// instead.
    Defer {
        /// The request's own deadline, if it carried one.
        deadline_ms: Option<u64>,
        /// What the worker runs.
        work: Work,
    },
}

counters! {
    /// Request counters the core keeps, each named once, as a field: the
    /// [`Counters`](dexlego_harness::Counters) table every `stats` reply
    /// walks lists them in field order.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CoreStats {
        /// Request lines read, frame errors included.
        requests,
        /// Malformed or invalid requests (including frame errors).
        errors,
        /// Requests shed past the per-connection bound.
        rejected,
        /// Requests shed because their deadline passed before dispatch.
        deadline_exceeded,
        /// Pending tagged requests revoked by a `cancel` op before dispatch.
        cancelled,
        /// Deferred requests on a worker whose replies are not yet queued;
        /// never more than the core's worker count.
        in_flight,
    }
}

/// What a server makes of the requests the core does not answer itself.
/// Every method runs on the loop thread, so it must answer quickly or
/// defer.
pub trait Handler: Send + 'static {
    /// An `extract` request.
    fn extract(&mut self, req: Box<ExtractRequest>) -> Action;
    /// A `fetch` of the stored entry under `key`. A server without a
    /// store refuses it.
    fn fetch(&mut self, _key: Key) -> Action {
        Action::Error("fetch is not served here".to_owned())
    }
    /// A `backfill` offering `entry` for `key`. A server without a store
    /// refuses it.
    fn backfill(&mut self, _key: Key, _entry: CachedResult) -> Action {
        Action::Error("backfill is not served here".to_owned())
    }
    /// A `stats` request; `core` holds the core's own counters.
    fn stats(&mut self, core: &CoreStats) -> Action;
}

/// How a reply finds its way back onto the wire: tagged replies carry the
/// client's id and go out the moment they are ready; ordered replies fill
/// a per-connection sequence slot and go out strictly in request order
/// (the id-less compatibility contract).
#[derive(Debug)]
enum ReplySlot {
    Tagged(RequestId),
    Ordered(u64),
}

/// A deferred request on its way to a worker.
struct Task {
    token: usize,
    slot: ReplySlot,
    work: Work,
}

/// A finished deferred reply on its way back to the loop.
struct Completion {
    token: usize,
    slot: ReplySlot,
    body: String,
}

/// What the loop shares with the workers and the [`Server`] handle: the
/// completion queue, the wake pipe and the shutdown flag. Deliberately
/// not the handler or the connections, so a running task never keeps
/// them alive.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    shutting_down: AtomicBool,
}

impl Shared {
    fn wake(&self) {
        // A full pipe means the loop is already guaranteed to wake, so
        // WouldBlock (or any error) is ignorable.
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn push(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion queue lock")
            .push(completion);
        self.wake();
    }
}

/// A running server. Dropping it without [`Server::wait`] detaches the
/// loop thread; call [`Server::trigger_shutdown`] then `wait` for a
/// graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and serves `handler` on a loop thread named `name`,
    /// running deferred work on `workers` worker threads (at least one).
    ///
    /// # Errors
    ///
    /// Bind, wake-pipe or thread-spawn failures.
    pub fn start(
        name: &str,
        addr: &str,
        workers: usize,
        limits: Limits,
        handler: impl Handler,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            wake_tx,
            shutting_down: AtomicBool::new(false),
        });
        let (tasks, task_rx) = mpsc::channel();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let workers = (0..workers.max(1))
            .map(|_| {
                let (task_rx, shared) = (Arc::clone(&task_rx), Arc::clone(&shared));
                thread::Builder::new()
                    .name(format!("{name}-worker"))
                    .spawn(move || run_tasks(&task_rx, &shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut poller = Poller::new();
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ);
        let event_loop = EventLoop {
            handler,
            limits,
            listener: Some(listener),
            wake_rx,
            poller,
            tasks,
            workers,
            shared: Arc::clone(&shared),
            conns: HashMap::new(),
            rr: VecDeque::new(),
            next_token: TOKEN_FIRST_CONN,
            stats: CoreStats::default(),
            drain_started: None,
        };
        let event_loop = thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || event_loop.run())?;
        Ok(Server {
            addr,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop accepting and drain. Idempotent; also
    /// reachable over the wire via the `shutdown` op.
    pub fn trigger_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.wake();
    }

    /// Joins the loop, which exits only after a triggered shutdown has
    /// run every admitted request and flushed every reply; the loop joins
    /// the workers on the way out.
    pub fn wait(mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKE: usize = 1;
const TOKEN_FIRST_CONN: usize = 2;

/// One deferred request waiting for a free worker.
struct PendingJob {
    slot: ReplySlot,
    work: Work,
    received: Instant,
    deadline: Option<Instant>,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    framer: Framer,
    /// Reply bytes not yet accepted by the kernel; `out_pos` marks how far
    /// the short writes have gotten.
    out: Vec<u8>,
    out_pos: usize,
    /// Deferred requests awaiting a worker, FIFO.
    pending: VecDeque<PendingJob>,
    /// Requests from this connection currently on a worker.
    dispatched: usize,
    /// Next sequence number to assign to an id-less request.
    ordered_next_assign: u64,
    /// Next sequence number whose reply may go on the wire.
    ordered_next_send: u64,
    /// Completed ordered replies waiting for their turn.
    ordered_ready: BTreeMap<u64, String>,
    /// EOF seen (or shutdown): no more requests will be read.
    read_closed: bool,
    /// Reading suspended by write backpressure.
    paused: bool,
    /// Fatal transport error; awaiting cleanup.
    dead: bool,
    /// Whether this token is already queued for round-robin dispatch.
    in_rr: bool,
    /// The interest set currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn queue_reply(&mut self, slot: &ReplySlot, reply: String) {
        match slot {
            ReplySlot::Tagged(id) => push_reply_line(&mut self.out, Some(id), &reply),
            ReplySlot::Ordered(seq) => {
                self.ordered_ready.insert(*seq, reply);
                while let Some(line) = self.ordered_ready.remove(&self.ordered_next_send) {
                    push_reply_line(&mut self.out, None, &line);
                    self.ordered_next_send += 1;
                }
            }
        }
    }

    /// Derives the reply slot for a request: its id, or the connection's
    /// next ordered sequence number.
    fn next_slot(&mut self, id: Option<RequestId>) -> ReplySlot {
        match id {
            Some(id) => ReplySlot::Tagged(id),
            None => {
                let seq = self.ordered_next_assign;
                self.ordered_next_assign += 1;
                ReplySlot::Ordered(seq)
            }
        }
    }

    /// Work that still ties this connection to the loop.
    fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.dispatched == 0
            && self.unsent() == 0
            && self.ordered_ready.is_empty()
    }
}

struct EventLoop<H> {
    handler: H,
    limits: Limits,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    poller: Poller,
    /// Where dispatched requests go; the workers take them one at a time,
    /// so it never holds more than `workers.len()`.
    tasks: Sender<Task>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    conns: HashMap<usize, Conn>,
    /// Round-robin dispatch order over connections with pending requests.
    rr: VecDeque<usize>,
    next_token: usize,
    /// `in_flight` counts requests on a worker across all connections
    /// (dead ones included, until their completions drain).
    stats: CoreStats,
    /// When the shutdown drain began.
    drain_started: Option<Instant>,
}

impl<H: Handler> EventLoop<H> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.drain_completions();
            if self.shared.shutting_down.load(Ordering::SeqCst) && self.drain_started.is_none() {
                self.begin_drain();
            }
            self.shed_expired();
            self.dispatch();
            self.enforce_pending_bounds();
            self.flush_and_update_interests();
            self.reap();
            if self.drain_started.is_some() && self.stats.in_flight == 0 && self.conns.is_empty() {
                break;
            }
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller is unrecoverable; drop everything so
                // clients see EOF rather than a wedged server.
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => drain_wake_pipe(&self.wake_rx),
                    token => self.conn_ready(token, *ev),
                }
            }
        }
        // Closing the task queue lets each worker exit once its current
        // task is done.
        drop(self.tasks);
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Moves finished deferred replies into their connections' write
    /// buffers.
    fn drain_completions(&mut self) {
        let batch = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion queue lock"),
        );
        for completion in batch {
            self.stats.in_flight -= 1;
            // A vanished connection just drops the reply; the work ran
            // either way.
            if let Some(conn) = self.conns.get_mut(&completion.token) {
                conn.dispatched -= 1;
                conn.queue_reply(&completion.slot, completion.body);
            }
        }
    }

    fn begin_drain(&mut self) {
        self.drain_started = Some(Instant::now());
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(listener.as_raw_fd());
        }
        // Stop reading new requests everywhere; everything already parsed
        // (pending or dispatched) still completes and its reply flushes.
        for conn in self.conns.values_mut() {
            conn.read_closed = true;
        }
    }

    /// Sheds every pending request whose deadline passed before dispatch.
    fn shed_expired(&mut self) {
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            let jobs = std::mem::take(&mut conn.pending);
            for job in jobs {
                match job.deadline {
                    Some(deadline) if now >= deadline => {
                        self.stats.deadline_exceeded += 1;
                        let waited_ms = now.duration_since(job.received).as_millis() as u64;
                        conn.queue_reply(
                            &job.slot,
                            json::object(&[
                                ("status", json::string("deadline_exceeded")),
                                ("waited_ms", waited_ms.to_string()),
                            ]),
                        );
                    }
                    _ => conn.pending.push_back(job),
                }
            }
        }
    }

    /// Hands pending requests to free workers round-robin, one per
    /// connection per turn, while a worker is free.
    fn dispatch(&mut self) {
        while self.stats.in_flight < self.workers.len() as u64 {
            let Some(token) = self.rr.pop_front() else {
                break;
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.in_rr = false;
            if conn.dead {
                continue;
            }
            let Some(PendingJob { slot, work, .. }) = conn.pending.pop_front() else {
                continue;
            };
            conn.dispatched += 1;
            self.stats.in_flight += 1;
            if !conn.pending.is_empty() {
                conn.in_rr = true;
                self.rr.push_back(token);
            }
            // The send fails only once every worker has panicked out of
            // its loop; the request then never completes, like the ones
            // they were running.
            let _ = self.tasks.send(Task { token, slot, work });
        }
    }

    /// Sheds the newest pending requests of any connection holding more
    /// than the bound (the oldest keep their place in line).
    fn enforce_pending_bounds(&mut self) {
        let limit = self.limits.max_pending_per_conn;
        let in_flight = self.stats.in_flight.to_string();
        for conn in self.conns.values_mut() {
            while conn.pending.len() > limit {
                let job = conn.pending.pop_back().expect("len checked");
                self.stats.rejected += 1;
                conn.queue_reply(
                    &job.slot,
                    json::object(&[
                        ("status", json::string("overloaded")),
                        ("in_flight", in_flight.clone()),
                    ]),
                );
            }
        }
    }

    /// Flushes write buffers, applies backpressure state transitions, and
    /// keeps each connection's poller registration in sync.
    fn flush_and_update_interests(&mut self) {
        let soft_cap = self.limits.write_soft_cap;
        let mut resume: Vec<usize> = Vec::new();
        for (&token, conn) in &mut self.conns {
            if conn.dead {
                continue;
            }
            flush_conn(conn);
            if conn.dead {
                continue;
            }
            if conn.paused && conn.unsent() <= soft_cap {
                conn.paused = false;
                // Lines may already be framed and waiting; pump them now
                // that the client is reading again.
                resume.push(token);
            } else if !conn.paused && conn.unsent() > soft_cap {
                conn.paused = true;
            }
        }
        for token in resume {
            self.pump_conn(token);
        }
        for (&token, conn) in &mut self.conns {
            if conn.dead {
                continue;
            }
            let desired = Interest {
                readable: !conn.read_closed && !conn.paused,
                writable: conn.unsent() > 0,
            };
            if desired != conn.interest {
                self.poller
                    .register(conn.stream.as_raw_fd(), token, desired);
                conn.interest = desired;
            }
        }
    }

    /// Closes connections with nothing left to do or say.
    fn reap(&mut self) {
        let force_close = self
            .drain_started
            .is_some_and(|t| t.elapsed() > SHUTDOWN_FLUSH_GRACE);
        let goners: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.dead || (c.read_closed && c.idle()) || (force_close && c.dispatched == 0)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in goners {
            if let Some(conn) = self.conns.remove(&token) {
                self.poller.deregister(conn.stream.as_raw_fd());
                // Dropping the stream closes it; any unflushed bytes are
                // lost, which only happens on transport errors or a client
                // that stopped reading across the whole shutdown grace.
            }
        }
    }

    /// The poller timeout: the earliest pending deadline, if any.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut soonest: Option<Duration> = self
            .conns
            .values()
            .flat_map(|conn| &conn.pending)
            .filter_map(|job| job.deadline)
            .map(|deadline| deadline.saturating_duration_since(now))
            .min();
        // While draining, wake periodically so the flush grace can expire
        // even if no I/O ever becomes ready.
        if self.drain_started.is_some() {
            let tick = Duration::from_millis(50);
            soonest = Some(soonest.map_or(tick, |s| s.min(tick)));
        }
        soonest
    }

    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller
                        .register(stream.as_raw_fd(), token, Interest::READ);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            framer: Framer::new(self.limits.max_line_bytes),
                            out: Vec::new(),
                            out_pos: 0,
                            pending: VecDeque::new(),
                            dispatched: 0,
                            ordered_next_assign: 0,
                            ordered_next_send: 0,
                            ordered_ready: BTreeMap::new(),
                            read_closed: false,
                            paused: false,
                            dead: false,
                            in_rr: false,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.writable {
            flush_conn(conn);
        }
        if ev.readable && !conn.read_closed && !conn.paused {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.framer.push(&buf[..n]);
                        // A short read took everything there was, and one
                        // firehose client must not be slurped unboundedly
                        // in a single turn: level-triggered polling
                        // delivers the rest (or the EOF) next iteration.
                        if n < buf.len() || conn.framer.buffered() > 256 * 1024 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            self.pump_conn(token);
        }
    }

    /// Parses and handles every complete line buffered on `token`, until
    /// backpressure pauses the connection.
    fn pump_conn(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.dead || conn.paused {
                return;
            }
            if conn.unsent() > self.limits.write_soft_cap {
                conn.paused = true;
                return;
            }
            let Some(frame) = conn.framer.pop() else {
                return;
            };
            self.stats.requests += 1;
            let (id, parsed) = match frame {
                Ok(line) => parse_request_line(&line),
                Err(e) => (None, Err(e.reason())),
            };
            let slot = conn.next_slot(id);
            let action = match parsed {
                Err(reason) => Action::Error(reason),
                Ok(Request::Ping) => Action::Reply(ok_reply()),
                Ok(Request::Shutdown) => {
                    self.shared.shutting_down.store(true, Ordering::SeqCst);
                    Action::Reply(ok_reply())
                }
                Ok(Request::Cancel(target)) => {
                    // Only pending (undispatched) tagged requests on this
                    // very connection can be revoked; a request already on
                    // a worker runs to completion (its reply is still
                    // delivered). A cancelled request gets no reply of its
                    // own — the canceller explicitly forfeited it.
                    let before = conn.pending.len();
                    conn.pending
                        .retain(|job| !matches!(&job.slot, ReplySlot::Tagged(id) if *id == target));
                    let cancelled = conn.pending.len() < before;
                    self.stats.cancelled += u64::from(cancelled);
                    Action::Reply(json::object(&[
                        ("status", json::string("ok")),
                        ("cancelled", cancelled.to_string()),
                    ]))
                }
                Ok(Request::Stats) => self.handler.stats(&self.stats),
                Ok(Request::Fetch(key)) => self.handler.fetch(key),
                Ok(Request::Backfill { key, entry }) => self.handler.backfill(key, *entry),
                Ok(Request::Extract(req)) => self.handler.extract(req),
            };
            self.act(token, slot, action);
        }
    }

    /// Carries out a request's [`Action`] on connection `token`.
    fn act(&mut self, token: usize, slot: ReplySlot, action: Action) {
        let conn = self.conns.get_mut(&token).expect("conn present in pump");
        match action {
            Action::Reply(body) => conn.queue_reply(&slot, body),
            Action::Error(reason) => {
                self.stats.errors += 1;
                conn.queue_reply(&slot, error_reply(&reason));
            }
            Action::Defer { deadline_ms, work } => {
                let received = Instant::now();
                conn.pending.push_back(PendingJob {
                    slot,
                    work,
                    received,
                    deadline: deadline_ms.map(|ms| received + Duration::from_millis(ms)),
                });
                if !conn.in_rr {
                    conn.in_rr = true;
                    self.rr.push_back(token);
                }
            }
        }
    }
}

/// A worker's life: run tasks until the loop closes the queue, handing
/// each reply back through `shared`.
fn run_tasks(tasks: &Mutex<Receiver<Task>>, shared: &Shared) {
    loop {
        // Hold the lock only for the dequeue, not the work.
        let next = tasks.lock().expect("task queue lock").recv();
        let Ok(Task { token, slot, work }) = next else {
            break;
        };
        let body = work();
        shared.push(Completion { token, slot, body });
    }
}

fn ok_reply() -> String {
    json::object(&[("status", json::string("ok"))])
}

fn flush_conn(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > 64 * 1024 {
        // Compact occasionally so a long-lived slow reader does not pin
        // the already-sent prefix forever.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}

fn drain_wake_pipe(wake_rx: &UnixStream) {
    let mut buf = [0u8; 256];
    // A short read (or an error, WouldBlock included) ends the drain; a
    // byte left behind keeps the pipe readable, so the next poll returns
    // at once and drains it.
    while let Ok(n) = (&*wake_rx).read(&mut buf) {
        if n < buf.len() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// Defers every `stats` to a worker, whose reply names its thread and
    /// says whether it is the loop's.
    struct WhereItRuns;

    impl Handler for WhereItRuns {
        fn extract(&mut self, _req: Box<ExtractRequest>) -> Action {
            Action::Error("no extracts here".to_owned())
        }

        fn stats(&mut self, _core: &CoreStats) -> Action {
            let event_loop = thread::current().id();
            Action::Defer {
                deadline_ms: None,
                work: Box::new(move || {
                    let worker = thread::current();
                    let stats = json::object(&[
                        ("thread", json::string(worker.name().unwrap_or_default())),
                        ("off_loop", (worker.id() != event_loop).to_string()),
                    ]);
                    json::object(&[("status", json::string("ok")), ("stats", stats)])
                }),
            }
        }
    }

    #[test]
    fn deferred_work_runs_on_a_worker_off_the_loop() {
        let server = Server::start(
            "core-test",
            "127.0.0.1:0",
            1,
            Limits::default(),
            WhereItRuns,
        )
        .expect("server starts");
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        let stats = client.stats().expect("deferred reply");
        assert_eq!(
            stats.get("off_loop").and_then(json::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            stats.get("thread").and_then(json::Value::as_str),
            Some("core-test-worker")
        );
        client.shutdown().expect("shutdown");
        server.wait();
    }
}
