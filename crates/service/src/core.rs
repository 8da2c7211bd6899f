//! The server core `dexlegod` and the router both run on: one event-loop
//! thread multiplexing every client connection, over a fixed set of
//! worker threads the core owns for work that must not block the loop.
//!
//! The core owns the wire and the load discipline; a [`Handler`] owns
//! what requests mean. The core answers `ping`, `cancel` and `shutdown`
//! itself and hands every other request to the handler, which answers on
//! the loop, returns [`Work`] for a worker (whose result is the finished
//! reply body), or parks the reply to answer it later on the loop.
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
//!   request only when one is free. A handler that never defers runs
//!   with none;
//! - **upstream connections** a handler dials through [`Io::dial`] are
//!   read, framed and flushed like client connections, on the same loop;
//!   each line a peer sends reaches [`Handler::upstream`];
//! - **parked replies** ([`Action::Park`]) are answered later on the loop
//!   through [`Io::answer`], typically when an upstream replies;
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
//!   [`Limits::max_pending_per_conn`] requests waiting for a worker, and
//!   at most that many (at least one) parked replies; beyond that the
//!   newest are shed with `overloaded` (with the bound at 0 a request
//!   that finds every worker busy is shed at once);
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
//!   [`Server::wait`] returns once every reply is flushed, every worker
//!   has exited, the handler has no wake-up time left and every line
//!   written upstream is flushed.
//!
//! The core counts what it sees in [`CoreStats`], a counter table
//! ([`dexlego_harness::Counters`]), and hands a copy to the handler's
//! `stats`: `dexlegod` writes it at the top level of its reply, the
//! router in its `router` member.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
/// The longest [`Io::dial`] blocks the loop.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-connection bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Requests one connection may hold waiting for a worker; arrivals
    /// beyond it are shed with `overloaded`. It also bounds the replies a
    /// connection may hold parked (at least one).
    pub max_pending_per_conn: usize,
    /// Request-line byte cap; longer lines get an `error` reply and are
    /// discarded without being buffered. Upstream lines share it.
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
    /// Answered later, on the loop, through [`Io::answer`] with the
    /// request's [`Parked`] handle. Until then the reply counts in
    /// `in_flight` and against its connection's bound.
    Park,
}

/// The handle of one request's reply slot, given to the handler with the
/// request; after [`Action::Park`] the handler answers through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parked(u64);

/// An upstream connection a handler dialled through [`Io::dial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Peer(usize);

counters! {
    /// Request counters the core keeps, each named once, as a field: the
    /// [`Counters`](dexlego_harness::Counters) table every `stats` reply
    /// walks lists them in field order.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CoreStats {
        /// Request lines read, frame errors included.
        requests,
        /// Malformed or invalid requests (including frame errors, and
        /// the `error` replies a handler relays with [`Io::answer_error`]).
        errors,
        /// Requests shed past the per-connection bound.
        rejected,
        /// Requests shed because their deadline passed before dispatch.
        deadline_exceeded,
        /// Pending tagged requests revoked by a `cancel` op before dispatch.
        cancelled,
        /// Requests on a worker whose replies are not yet queued, and
        /// parked replies not yet answered.
        in_flight,
    }
}

/// What a server makes of the requests the core does not answer itself.
/// Every method runs on the loop thread, so it must answer quickly, park
/// or defer.
pub trait Handler: Send + 'static {
    /// An `extract` request; `parked` is its reply slot's handle.
    fn extract(&mut self, req: Box<ExtractRequest>, io: &mut Io, parked: Parked) -> Action;
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
    /// A `stats` request; `core` holds the core's own counters and
    /// `parked` is the reply slot's handle.
    fn stats(&mut self, core: &CoreStats, io: &mut Io, parked: Parked) -> Action;
    /// A line upstream `peer` sent, or `None` once the peer is gone: it
    /// closed, failed, sent a line that does not frame, or was closed
    /// with [`Io::close`]. A gone peer is reported once, and never again.
    fn upstream(&mut self, _peer: Peer, _line: Option<String>, _io: &mut Io) {}
    /// Runs once per loop turn: does the handler's due timed work and
    /// returns when it next needs the loop, if ever. A draining loop
    /// exits only once this is `None`.
    fn wake(&mut self, _io: &mut Io) -> Option<Instant> {
        None
    }
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
    /// running deferred work on `workers` worker threads (none for a
    /// handler that never defers).
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
        let workers = (0..workers)
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
            io: Io {
                limits,
                poller,
                conns: HashMap::new(),
                upstreams: HashMap::new(),
                parked: HashMap::new(),
                next_parked: 0,
                next_token: TOKEN_FIRST_CONN,
                stats: CoreStats::default(),
            },
            listener: Some(listener),
            wake_rx,
            tasks,
            workers,
            busy: 0,
            shared: Arc::clone(&shared),
            rr: VecDeque::new(),
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

/// One connection the loop drives: a client's, or an upstream a handler
/// dialled, whose lines go to the handler instead of being requests.
struct Conn {
    stream: TcpStream,
    framer: Framer,
    /// Bytes not yet accepted by the kernel; `out_pos` marks how far the
    /// short writes have gotten.
    out: Vec<u8>,
    out_pos: usize,
    /// Deferred requests awaiting a worker, FIFO.
    pending: VecDeque<PendingJob>,
    /// Requests from this connection currently on a worker.
    dispatched: usize,
    /// Replies of this connection parked and not yet answered.
    parked: usize,
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
    /// Fatal transport error (or, upstream, a close); awaiting cleanup.
    dead: bool,
    /// Whether this token is already queued for round-robin dispatch.
    in_rr: bool,
    /// The interest set currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, max_line_bytes: usize) -> Conn {
        Conn {
            stream,
            framer: Framer::new(max_line_bytes),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            dispatched: 0,
            parked: 0,
            ordered_next_assign: 0,
            ordered_next_send: 0,
            ordered_ready: BTreeMap::new(),
            read_closed: false,
            paused: false,
            dead: false,
            in_rr: false,
            interest: Interest::READ,
        }
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Reads what the socket holds into the framer; true at end of
    /// stream.
    fn read(&mut self) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return true,
                Ok(n) => {
                    self.framer.push(&buf[..n]);
                    // A short read took everything there was, and one
                    // firehose peer must not be slurped unboundedly in a
                    // single turn: level-triggered polling delivers the
                    // rest (or the EOF) next iteration.
                    if n < buf.len() || self.framer.buffered() > 256 * 1024 {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return false;
                }
            }
        }
    }

    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            // Compact occasionally so a long-lived slow reader does not
            // pin the already-sent prefix forever.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Keeps the poller registration at `desired`.
    fn update_interest(&mut self, poller: &mut Poller, token: usize, desired: Interest) {
        if desired != self.interest {
            poller.register(self.stream.as_raw_fd(), token, desired);
            self.interest = desired;
        }
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
            && self.parked == 0
            && self.unsent() == 0
            && self.ordered_ready.is_empty()
    }
}

/// The loop's connections as a handler may act on them: the upstream
/// peers it dials and writes to, and the parked replies it answers.
pub struct Io {
    limits: Limits,
    poller: Poller,
    conns: HashMap<usize, Conn>,
    upstreams: HashMap<usize, Conn>,
    /// Parked replies by handle: the connection and the slot each fills.
    parked: HashMap<u64, (usize, ReplySlot)>,
    next_parked: u64,
    next_token: usize,
    /// `in_flight` counts requests on a worker and parked replies across
    /// all connections (dead ones included, until they are answered).
    stats: CoreStats,
}

impl Io {
    /// Dials `addr` with a blocking connect of at most a second, and
    /// serves the connection on the loop from then on.
    ///
    /// # Errors
    ///
    /// Resolution and connect failures.
    pub fn dial(&mut self, addr: &str) -> io::Result<Peer> {
        let resolved = addr.to_socket_addrs()?.next();
        let resolved = resolved.ok_or_else(|| io::Error::other("no address to dial"))?;
        let stream = TcpStream::connect_timeout(&resolved, DIAL_TIMEOUT)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let token = self.next_token;
        self.next_token += 1;
        self.poller
            .register(stream.as_raw_fd(), token, Interest::READ);
        self.upstreams
            .insert(token, Conn::new(stream, self.limits.max_line_bytes));
        Ok(Peer(token))
    }

    /// Frames `body` under `id`, splicing the id in as [`push_reply_line`]
    /// does for a reply, and writes it to `peer` at once; the loop
    /// flushes what the socket does not take. False if the peer is gone
    /// or the write failed, which the handler then hears as the peer's
    /// `None`.
    pub fn send(&mut self, peer: Peer, id: &RequestId, body: &str) -> bool {
        let Some(conn) = self.upstreams.get_mut(&peer.0).filter(|c| !c.dead) else {
            return false;
        };
        push_reply_line(&mut conn.out, Some(id), body);
        conn.flush();
        !conn.dead
    }

    /// Closes `peer`; the handler hears its `None` next.
    pub fn close(&mut self, peer: Peer) {
        if let Some(conn) = self.upstreams.get_mut(&peer.0) {
            conn.dead = true;
        }
    }

    /// Answers the parked reply `parked` with `body`. An answered handle,
    /// or one whose connection is gone, drops the body.
    pub fn answer(&mut self, parked: Parked, body: String) {
        let Some((token, slot)) = self.parked.remove(&parked.0) else {
            return;
        };
        self.stats.in_flight -= 1;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.parked -= 1;
            conn.queue_reply(&slot, body);
        }
    }

    /// [`Io::answer`] with an `error` reply the handler did not make
    /// itself, such as one relayed from upstream: counted in `errors` as
    /// if the core had refused the request.
    pub fn answer_error(&mut self, parked: Parked, body: String) {
        self.stats.errors += 1;
        self.answer(parked, body);
    }
}

struct EventLoop<H> {
    handler: H,
    io: Io,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    /// Where dispatched requests go; the workers take them one at a time,
    /// so it never holds more than `workers.len()`.
    tasks: Sender<Task>,
    workers: Vec<JoinHandle<()>>,
    /// Requests on a worker (dead connections' included, until their
    /// completions drain).
    busy: usize,
    shared: Arc<Shared>,
    /// Round-robin dispatch order over connections with pending requests.
    rr: VecDeque<usize>,
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
            self.bury_upstreams();
            let handler_wake = self.handler.wake(&mut self.io);
            self.flush_and_update_interests();
            self.reap();
            // A drain ends once every reply is answered and flushed, the
            // handler is idle, and every upstream line is flushed (or
            // abandoned with the clients after the grace).
            if self.drain_started.is_some_and(|started| {
                self.io.stats.in_flight == 0
                    && self.io.conns.is_empty()
                    && handler_wake.is_none()
                    && (started.elapsed() > SHUTDOWN_FLUSH_GRACE
                        || self
                            .io
                            .upstreams
                            .values()
                            .all(|c| c.dead || c.unsent() == 0))
            }) {
                break;
            }
            let timeout = self.next_timeout(handler_wake);
            if self.io.poller.wait(&mut events, timeout).is_err() {
                // A failing poller is unrecoverable; drop everything so
                // clients see EOF rather than a wedged server.
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => drain_wake_pipe(&self.wake_rx),
                    token if self.io.conns.contains_key(&token) => self.conn_ready(token, *ev),
                    token => self.upstream_ready(token, *ev),
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
            self.busy -= 1;
            self.io.stats.in_flight -= 1;
            // A vanished connection just drops the reply; the work ran
            // either way.
            if let Some(conn) = self.io.conns.get_mut(&completion.token) {
                conn.dispatched -= 1;
                conn.queue_reply(&completion.slot, completion.body);
            }
        }
    }

    fn begin_drain(&mut self) {
        self.drain_started = Some(Instant::now());
        if let Some(listener) = self.listener.take() {
            self.io.poller.deregister(listener.as_raw_fd());
        }
        // Stop reading new requests everywhere; everything already parsed
        // (pending, dispatched or parked) still completes and its reply
        // flushes.
        for conn in self.io.conns.values_mut() {
            conn.read_closed = true;
        }
    }

    /// Sheds every pending request whose deadline passed before dispatch.
    fn shed_expired(&mut self) {
        let now = Instant::now();
        for conn in self.io.conns.values_mut() {
            let jobs = std::mem::take(&mut conn.pending);
            for job in jobs {
                match job.deadline {
                    Some(deadline) if now >= deadline => {
                        self.io.stats.deadline_exceeded += 1;
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
        while self.busy < self.workers.len() {
            let Some(token) = self.rr.pop_front() else {
                break;
            };
            let Some(conn) = self.io.conns.get_mut(&token) else {
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
            self.busy += 1;
            self.io.stats.in_flight += 1;
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
        let limit = self.io.limits.max_pending_per_conn;
        let in_flight = self.io.stats.in_flight;
        for conn in self.io.conns.values_mut() {
            while conn.pending.len() > limit {
                let job = conn.pending.pop_back().expect("len checked");
                self.io.stats.rejected += 1;
                conn.queue_reply(&job.slot, overloaded(in_flight));
            }
        }
    }

    /// Forgets every dead upstream and tells the handler it is gone.
    fn bury_upstreams(&mut self) {
        let dead: Vec<usize> = self
            .io
            .upstreams
            .iter()
            .filter(|(_, conn)| conn.dead)
            .map(|(&token, _)| token)
            .collect();
        for token in dead {
            if let Some(conn) = self.io.upstreams.remove(&token) {
                self.io.poller.deregister(conn.stream.as_raw_fd());
            }
            self.handler.upstream(Peer(token), None, &mut self.io);
        }
    }

    /// Flushes write buffers, applies backpressure state transitions, and
    /// keeps each connection's poller registration in sync.
    fn flush_and_update_interests(&mut self) {
        let soft_cap = self.io.limits.write_soft_cap;
        let mut resume: Vec<usize> = Vec::new();
        for (&token, conn) in &mut self.io.conns {
            if conn.dead {
                continue;
            }
            conn.flush();
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
        let io = &mut self.io;
        for (&token, conn) in &mut io.conns {
            if !conn.dead {
                let desired = Interest {
                    readable: !conn.read_closed && !conn.paused,
                    writable: conn.unsent() > 0,
                };
                conn.update_interest(&mut io.poller, token, desired);
            }
        }
        // Upstreams are always read; what a send could not write goes now.
        for (&token, conn) in &mut io.upstreams {
            conn.flush();
            if !conn.dead {
                let desired = Interest {
                    readable: true,
                    writable: conn.unsent() > 0,
                };
                conn.update_interest(&mut io.poller, token, desired);
            }
        }
    }

    /// Closes connections with nothing left to do or say.
    fn reap(&mut self) {
        let force_close = self
            .drain_started
            .is_some_and(|t| t.elapsed() > SHUTDOWN_FLUSH_GRACE);
        let goners: Vec<usize> = self
            .io
            .conns
            .iter()
            .filter(|(_, c)| {
                c.dead
                    || (c.read_closed && c.idle())
                    || (force_close && c.dispatched == 0 && c.parked == 0)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in goners {
            if let Some(conn) = self.io.conns.remove(&token) {
                self.io.poller.deregister(conn.stream.as_raw_fd());
                // Dropping the stream closes it; any unflushed bytes are
                // lost, which only happens on transport errors or a client
                // that stopped reading across the whole shutdown grace.
            }
        }
    }

    /// The poller timeout: the earliest pending deadline or handler
    /// wake-up, if any; none at all while a dead upstream awaits burial.
    fn next_timeout(&self, handler_wake: Option<Instant>) -> Option<Duration> {
        if self.io.upstreams.values().any(|c| c.dead) {
            return Some(Duration::ZERO);
        }
        let now = Instant::now();
        let mut soonest: Option<Duration> = self
            .io
            .conns
            .values()
            .flat_map(|conn| &conn.pending)
            .filter_map(|job| job.deadline)
            .chain(handler_wake)
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
                    let token = self.io.next_token;
                    self.io.next_token += 1;
                    self.io
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ);
                    let conn = Conn::new(stream, self.io.limits.max_line_bytes);
                    self.io.conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.io.conns.get_mut(&token) else {
            return;
        };
        if ev.writable {
            conn.flush();
        }
        if ev.readable && !conn.read_closed && !conn.paused {
            conn.read_closed = conn.read();
            self.pump_conn(token);
        }
    }

    /// Reads an upstream peer and hands each complete line it sent to the
    /// handler; a line that does not frame, or the end of the stream,
    /// kills the peer.
    fn upstream_ready(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.io.upstreams.get_mut(&token) else {
            return;
        };
        if ev.writable {
            conn.flush();
        }
        if !ev.readable || conn.dead {
            return;
        }
        let ended = conn.read();
        let peer = Peer(token);
        while let Some(frame) = self
            .io
            .upstreams
            .get_mut(&token)
            .filter(|c| !c.dead)
            .and_then(|c| c.framer.pop())
        {
            match frame {
                Ok(line) => self.handler.upstream(peer, Some(line), &mut self.io),
                Err(_) => self.io.close(peer),
            }
        }
        if ended {
            self.io.close(peer);
        }
    }

    /// Parses and handles every complete line buffered on `token`, until
    /// backpressure pauses the connection.
    fn pump_conn(&mut self, token: usize) {
        loop {
            let Some(conn) = self.io.conns.get_mut(&token) else {
                return;
            };
            if conn.dead || conn.paused {
                return;
            }
            if conn.unsent() > self.io.limits.write_soft_cap {
                conn.paused = true;
                return;
            }
            let Some(frame) = conn.framer.pop() else {
                return;
            };
            self.io.stats.requests += 1;
            let (id, parsed) = match frame {
                Ok(line) => parse_request_line(&line),
                Err(e) => (None, Err(e.reason())),
            };
            let slot = conn.next_slot(id);
            // A request that may park finds no room on a connection that
            // already holds as many parked replies as its bound allows.
            let full = conn.parked >= self.io.limits.max_pending_per_conn.max(1);
            let parked = Parked(self.io.next_parked);
            self.io.next_parked += 1;
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
                    // a worker or parked runs to completion (its reply is
                    // still delivered). A cancelled request gets no reply
                    // of its own — the canceller explicitly forfeited it.
                    let before = conn.pending.len();
                    conn.pending
                        .retain(|job| !matches!(&job.slot, ReplySlot::Tagged(id) if *id == target));
                    let cancelled = conn.pending.len() < before;
                    self.io.stats.cancelled += u64::from(cancelled);
                    Action::Reply(json::object(&[
                        ("status", json::string("ok")),
                        ("cancelled", cancelled.to_string()),
                    ]))
                }
                Ok(Request::Stats | Request::Extract(_)) if full => {
                    self.io.stats.rejected += 1;
                    Action::Reply(overloaded(self.io.stats.in_flight))
                }
                Ok(Request::Stats) => {
                    let core = self.io.stats;
                    self.handler.stats(&core, &mut self.io, parked)
                }
                Ok(Request::Fetch(key)) => self.handler.fetch(key),
                Ok(Request::Backfill { key, entry }) => self.handler.backfill(key, *entry),
                Ok(Request::Extract(req)) => self.handler.extract(req, &mut self.io, parked),
            };
            self.act(token, slot, action, parked);
        }
    }

    /// Carries out a request's [`Action`] on connection `token`.
    fn act(&mut self, token: usize, slot: ReplySlot, action: Action, parked: Parked) {
        let io = &mut self.io;
        let conn = io.conns.get_mut(&token).expect("conn present in pump");
        match action {
            Action::Reply(body) => conn.queue_reply(&slot, body),
            Action::Error(reason) => {
                io.stats.errors += 1;
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
            Action::Park => {
                conn.parked += 1;
                io.stats.in_flight += 1;
                io.parked.insert(parked.0, (token, slot));
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

fn overloaded(in_flight: u64) -> String {
    json::object(&[
        ("status", json::string("overloaded")),
        ("in_flight", in_flight.to_string()),
    ])
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
    use crate::client::{Client, PipelinedClient};
    use crate::protocol::Reply;

    /// Defers every `stats` to a worker, whose reply names its thread and
    /// says whether it is the loop's.
    struct WhereItRuns;

    impl Handler for WhereItRuns {
        fn extract(&mut self, _req: Box<ExtractRequest>, _io: &mut Io, _parked: Parked) -> Action {
            Action::Error("no extracts here".to_owned())
        }

        fn stats(&mut self, _core: &CoreStats, _io: &mut Io, _parked: Parked) -> Action {
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

    /// Parks every `stats` and answers what it parked once its wake-up
    /// time, 50 ms after the first park, comes round.
    #[derive(Default)]
    struct Parker {
        parked: Vec<Parked>,
        release_at: Option<Instant>,
    }

    impl Handler for Parker {
        fn extract(&mut self, _req: Box<ExtractRequest>, _io: &mut Io, _parked: Parked) -> Action {
            Action::Error("no extracts here".to_owned())
        }

        fn stats(&mut self, _core: &CoreStats, _io: &mut Io, parked: Parked) -> Action {
            self.parked.push(parked);
            self.release_at
                .get_or_insert(Instant::now() + Duration::from_millis(50));
            Action::Park
        }

        fn wake(&mut self, io: &mut Io) -> Option<Instant> {
            if self.release_at.is_some_and(|at| Instant::now() >= at) {
                self.release_at = None;
                for parked in self.parked.drain(..) {
                    io.answer(parked, ok_reply());
                }
            }
            self.release_at
        }
    }

    /// A connection holds at most its bound of parked replies, the next
    /// request is shed at once, and the parked ones are answered when the
    /// handler's wake-up time comes, with no I/O to wake the loop, before
    /// a drain lets `wait` return.
    #[test]
    fn parked_replies_are_bounded_and_answered_at_the_handlers_wake_up() {
        let limits = Limits {
            max_pending_per_conn: 2,
            ..Limits::default()
        };
        let server = Server::start("core-park", "127.0.0.1:0", 0, limits, Parker::default())
            .expect("server starts");
        let mut client = PipelinedClient::connect(&server.addr().to_string()).expect("connect");
        let parked: Vec<u64> = (0..2).map(|_| client.send_op("stats").unwrap()).collect();
        let shed = client.send_op("stats").expect("send the third");
        let shutdown = client.send_op("shutdown").expect("send shutdown");
        let replies: Vec<(u64, Reply)> = (0..4)
            .map(|_| match client.recv_any().expect("reply") {
                (Some(RequestId::Num(id)), reply) => (id, reply),
                other => panic!("untagged reply: {other:?}"),
            })
            .collect();
        assert!(matches!(replies[0], (id, Reply::Overloaded { .. }) if id == shed));
        assert!(matches!(replies[1], (id, Reply::Ok(_)) if id == shutdown));
        let answered: Vec<u64> = replies[2..].iter().map(|(id, _)| *id).collect();
        assert_eq!(answered, parked);
        server.wait();
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
