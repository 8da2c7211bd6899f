//! The `dexlegod` daemon: a readiness-based event loop multiplexing every
//! client connection onto one thread, dispatching extractions onto a
//! persistent [`JobPool`] with per-request caching through the
//! content-addressed result [`Store`].
//!
//! Concurrency shape:
//!
//! - **one event-loop thread** owns the listener and every connection —
//!   nonblocking sockets behind a `poll(2)` [`Poller`](crate::poll),
//!   per-connection read framers that survive partial reads and write
//!   buffers that survive short writes;
//! - **the shared worker pool** executes extractions; workers hand results
//!   back through a completion queue plus a wake pipe, so the loop never
//!   blocks on a job;
//! - **pipelining**: requests carrying an `id` get their replies as soon
//!   as the job finishes, in any order; id-less requests keep the old
//!   strictly-ordered one-reply-per-request contract via per-connection
//!   sequence slots.
//!
//! Load discipline:
//!
//! - **per-client fairness** — parsed extract requests wait in a
//!   per-connection queue; a round-robin scheduler feeds the pool one
//!   request per connection per turn, so one firehose client cannot starve
//!   the rest;
//! - **bounded queues everywhere** — a connection may hold at most
//!   `max_pending_per_conn` undispatched requests; beyond that the newest
//!   are shed with `overloaded` (with the bound at 0 this degenerates to
//!   the old shed-when-pool-full behaviour);
//! - **deadline shedding** — a request whose `deadline_ms` passes before
//!   execution starts is answered `deadline_exceeded` without occupying a
//!   worker;
//! - **write backpressure** — a client that stops reading accumulates
//!   replies up to a soft cap, after which the server stops reading (and
//!   therefore stops accepting work) from that connection until it drains.
//!
//! Cache hits bypass admission control: if the store already holds the
//! result, the loop serves it inline instead of failing a cheap read just
//! because the extraction queue is full. (A corrupt entry falls through to
//! a normal pool dispatch rather than running the pipeline on the loop.)

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dexlego_harness::cache::{from_cached, to_cached};
use dexlego_harness::{execute_job_cached, job_key, JobPool, JobReport, JobSpec, PoolExecutor};
use dexlego_harness::{json, JobResult};
use dexlego_store::entry::encode as encode_entry;
use dexlego_store::{Store, StoreConfig, StoreStats};

use crate::framing::Framer;
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{parse_request_line, push_reply_line, Request, RequestId};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Extraction worker threads.
    pub workers: usize,
    /// Pool admission queue depth (jobs queued beyond the ones executing).
    pub queue_depth: usize,
    /// Result store configuration.
    pub store: StoreConfig,
    /// Undispatched extract requests a single connection may queue in the
    /// event loop; arrivals beyond it are shed with `overloaded`. 0 means
    /// requests are shed as soon as the pool itself is saturated.
    pub max_pending_per_conn: usize,
    /// Request-line byte cap; longer lines get an `error` reply and are
    /// discarded without being buffered.
    pub max_line_bytes: usize,
    /// Per-connection reply-buffer soft cap; past it the server stops
    /// reading from the connection until the client drains its replies.
    pub write_soft_cap: usize,
    /// After a shutdown drain, how long to keep trying to flush replies to
    /// clients that have stopped reading before abandoning them.
    pub shutdown_flush_grace: Duration,
    /// Synthetic straggler injection for tail-latency experiments: with
    /// `stall_period_ms = P > 0`, the event loop sleeps `stall_ms`
    /// **on the event-loop thread** once per `P`-millisecond window —
    /// deliberately head-of-line-blocking every connection, the shape
    /// of a GC pause or page-cache stall. The schedule is wall-clock
    /// driven (first stall `stall_phase_ms` after the first request,
    /// then every `P` ms), so duplicate or retried load cannot change
    /// the stall rate. 0 disables (the default; never enable in
    /// production).
    pub stall_period_ms: u64,
    /// Stall duration in milliseconds when a scheduled stall fires.
    pub stall_ms: u64,
    /// Offset of the first stall from the first request, so a fleet of
    /// daemons can de-phase their stall windows.
    pub stall_phase_ms: u64,
}

impl ServiceConfig {
    /// Loop-back config on an ephemeral port with the store rooted at
    /// `store_root`.
    pub fn new(store_root: impl Into<std::path::PathBuf>) -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 8,
            store: StoreConfig::new(store_root),
            max_pending_per_conn: 64,
            max_line_bytes: 64 << 20,
            write_soft_cap: 4 << 20,
            shutdown_flush_grace: Duration::from_secs(5),
            stall_period_ms: 0,
            stall_ms: 0,
            stall_phase_ms: 0,
        }
    }
}

/// Service-level counters, separate from the store's own hit/miss
/// accounting (which also sees internal probes).
#[derive(Debug, Default)]
struct ServiceStats {
    /// Request lines parsed (any op).
    requests: u64,
    /// Extract requests admitted (cache hit or pipeline run).
    extracts: u64,
    /// Extract requests answered from the store.
    hits: u64,
    /// Extract requests that ran the pipeline.
    misses: u64,
    /// Extract requests shed due to a full queue.
    rejected: u64,
    /// Extract requests shed because their deadline passed before start.
    deadline_exceeded: u64,
    /// Malformed or invalid requests (including frame errors).
    errors: u64,
    /// Pending tagged requests revoked by a `cancel` op before dispatch.
    cancelled: u64,
    /// Entries written into the store by `backfill` ops (replication and
    /// read-repair traffic from the routing tier).
    backfills: u64,
    /// Store entries read out by `fetch` ops (the routing tier pulling
    /// payloads for replication off the hot path).
    fetches: u64,
    /// Jobs that ran but did not reach [`JobStatus::Ok`].
    ///
    /// [`JobStatus::Ok`]: dexlego_harness::JobStatus::Ok
    failed: u64,
    /// Warning-severity verifier lints across extractions served.
    verifier_lints: u64,
    /// Error-severity verifier diagnostics across rejected extractions.
    verifier_errors: u64,
    /// Method bodies with typed IR materialized across extractions.
    typed_methods: u64,
    /// Instructions across all typed-IR methods, across extractions.
    typed_insns: u64,
    /// Method verifications served from the digest-keyed verify cache
    /// across extractions.
    verify_cache_hits: u64,
    /// Method verifications that ran the fixpoint across extractions.
    verify_cache_misses: u64,
    /// Per-phase `(count, total_us)` aggregates over fresh extractions.
    phases_us: BTreeMap<String, (u64, u64)>,
}

impl ServiceStats {
    fn absorb(&mut self, report: &JobReport) {
        self.extracts += 1;
        self.verifier_lints += report.verifier_lints as u64;
        self.verifier_errors += report.verifier_errors as u64;
        self.typed_methods += report.typed_methods as u64;
        self.typed_insns += report.typed_insns;
        self.verify_cache_hits += report.verify_cache_hits;
        self.verify_cache_misses += report.verify_cache_misses;
        if report.cached {
            self.hits += 1;
        } else {
            self.misses += 1;
            for (phase, us) in &report.phases_us {
                let slot = self.phases_us.entry(phase.clone()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += us;
            }
        }
        if !report.status.is_ok() {
            self.failed += 1;
        }
    }
}

/// How a reply finds its way back onto the wire: tagged replies carry the
/// client's id and go out the moment they are ready; ordered replies fill
/// a per-connection sequence slot and go out strictly in request order
/// (the id-less compatibility contract).
#[derive(Debug, Clone)]
enum ReplySlot {
    Tagged(RequestId),
    Ordered(u64),
}

/// A completed pool job on its way back to the event loop.
struct Completion {
    token: usize,
    slot: ReplySlot,
    want_entry: bool,
    result: JobResult,
}

/// What workers share to hand completions back: the queue plus the wake
/// pipe. Deliberately *not* the whole [`Shared`], so job callbacks queued
/// in the pool never keep the daemon state alive (no Arc cycle through the
/// pool's own queue).
struct Notifier {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl Notifier {
    fn push(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion queue lock")
            .push(completion);
        // One byte per completion; a full pipe means the loop is already
        // guaranteed to wake, so WouldBlock (or any error) is ignorable.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

struct Shared {
    store: Arc<Store>,
    pool: JobPool,
    stats: Mutex<ServiceStats>,
    store_stats_at_open: StoreStats,
    started: Instant,
    shutting_down: AtomicBool,
    next_job: AtomicU64,
    notifier: Arc<Notifier>,
}

/// A running daemon. Dropping it without [`Daemon::wait`] detaches the
/// event-loop thread; call [`Daemon::trigger_shutdown`] then `wait` for a
/// graceful drain.
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, opens the store, and starts serving.
    ///
    /// # Errors
    ///
    /// Bind, poller, or store-open failures.
    pub fn start(config: ServiceConfig) -> io::Result<Daemon> {
        let store = Arc::new(Store::open(config.store.clone())?);
        let exec_store = Arc::clone(&store);
        let exec: PoolExecutor = Arc::new(move |spec| execute_job_cached(spec, &exec_store));
        Daemon::start_with_executor(config, store, exec)
    }

    /// [`Daemon::start`] with an injected job executor — the
    /// deterministic-test hook (e.g. an executor that blocks on a channel
    /// to hold the queue full).
    ///
    /// # Errors
    ///
    /// Bind or poller failures.
    pub fn start_with_executor(
        config: ServiceConfig,
        store: Arc<Store>,
        exec: PoolExecutor,
    ) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let store_stats_at_open = store.stats();
        let shared = Arc::new(Shared {
            pool: JobPool::with_executor(config.workers, config.queue_depth, exec),
            store,
            stats: Mutex::new(ServiceStats::default()),
            store_stats_at_open,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            notifier: Arc::new(Notifier {
                completions: Mutex::new(Vec::new()),
                wake_tx,
            }),
        });
        let mut poller = Poller::new();
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ);
        let loop_shared = Arc::clone(&shared);
        let event_loop = thread::Builder::new()
            .name("dexlegod-loop".to_owned())
            .spawn(move || {
                EventLoop::new(config, listener, wake_rx, poller, loop_shared).run();
            })?;
        Ok(Daemon {
            addr,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop accepting and drain. Idempotent;
    /// also reachable over the wire via the `shutdown` op.
    pub fn trigger_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = (&self.shared.notifier.wake_tx).write(&[1]);
    }

    /// Joins the event loop (which exits only after a triggered shutdown
    /// has drained every admitted job and flushed every reply), then
    /// drains the worker pool.
    pub fn wait(mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        // Dropping the last `Shared` reference drains the pool
        // (`JobPool`'s `Drop` joins its workers).
    }
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKE: usize = 1;
const TOKEN_FIRST_CONN: usize = 2;

/// One parsed extract request waiting for pool capacity.
struct PendingJob {
    slot: ReplySlot,
    spec: JobSpec,
    received: Instant,
    deadline: Option<Instant>,
    want_entry: bool,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    framer: Framer,
    /// Reply bytes not yet accepted by the kernel; `out_pos` marks how far
    /// the short writes have gotten.
    out: Vec<u8>,
    out_pos: usize,
    /// Parsed extract requests awaiting dispatch, FIFO.
    pending: VecDeque<PendingJob>,
    /// Jobs from this connection currently in the pool.
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

    /// Work that still ties this connection to the loop.
    fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.dispatched == 0
            && self.unsent() == 0
            && self.ordered_ready.is_empty()
    }
}

struct EventLoop {
    config: ServiceConfig,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    poller: Poller,
    shared: Arc<Shared>,
    conns: HashMap<usize, Conn>,
    /// Round-robin dispatch order over connections with pending requests.
    rr: VecDeque<usize>,
    next_token: usize,
    /// Jobs currently in the pool across all connections (dead ones
    /// included, until their completions drain).
    total_dispatched: usize,
    draining: bool,
    drain_started: Option<Instant>,
    /// Next scheduled straggler-injection stall (`None` until the first
    /// extract arrives, and always `None` when injection is disabled).
    next_stall: Option<Instant>,
}

impl EventLoop {
    fn new(
        config: ServiceConfig,
        listener: TcpListener,
        wake_rx: UnixStream,
        poller: Poller,
        shared: Arc<Shared>,
    ) -> EventLoop {
        EventLoop {
            config,
            listener: Some(listener),
            wake_rx,
            poller,
            shared,
            conns: HashMap::new(),
            rr: VecDeque::new(),
            next_token: TOKEN_FIRST_CONN,
            total_dispatched: 0,
            draining: false,
            drain_started: None,
            next_stall: None,
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.drain_completions();
            if self.shared.shutting_down.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            self.shed_expired();
            self.dispatch();
            self.enforce_pending_bounds();
            self.flush_and_update_interests();
            self.reap();
            if self.drained() {
                break;
            }
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller is unrecoverable; drop everything so
                // clients see EOF rather than a wedged daemon.
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
    }

    /// Moves completed pool jobs into their connections' write buffers.
    fn drain_completions(&mut self) {
        let batch = std::mem::take(
            &mut *self
                .shared
                .notifier
                .completions
                .lock()
                .expect("completion queue lock"),
        );
        for completion in batch {
            self.total_dispatched -= 1;
            let (report, dex) = completion.result;
            self.shared
                .stats
                .lock()
                .expect("stats lock")
                .absorb(&report);
            let reply = extract_reply(&report, dex.as_deref(), completion.want_entry);
            if let Some(conn) = self.conns.get_mut(&completion.token) {
                conn.dispatched -= 1;
                conn.queue_reply(&completion.slot, reply);
            }
            // A vanished connection just drops the reply; the job ran and
            // (if cacheable) was stored either way.
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
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
        let mut shed: u64 = 0;
        for conn in self.conns.values_mut() {
            let mut kept = VecDeque::with_capacity(conn.pending.len());
            let jobs: Vec<PendingJob> = conn.pending.drain(..).collect();
            for job in jobs {
                match job.deadline {
                    Some(deadline) if now >= deadline => {
                        shed += 1;
                        let waited_ms = now.duration_since(job.received).as_millis() as u64;
                        conn.queue_reply(
                            &job.slot,
                            json::object(&[
                                ("status", json::string("deadline_exceeded")),
                                ("waited_ms", waited_ms.to_string()),
                            ]),
                        );
                    }
                    _ => kept.push_back(job),
                }
            }
            conn.pending = kept;
        }
        if shed > 0 {
            self.shared
                .stats
                .lock()
                .expect("stats lock")
                .deadline_exceeded += shed;
        }
    }

    /// Feeds the pool round-robin, one pending request per connection per
    /// turn, until the pool refuses.
    fn dispatch(&mut self) {
        while let Some(token) = self.rr.pop_front() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.in_rr = false;
            if conn.dead {
                continue;
            }
            let Some(PendingJob {
                slot,
                spec,
                received,
                deadline,
                want_entry,
            }) = conn.pending.pop_front()
            else {
                continue;
            };
            let notify_token = token;
            let notify_slot = slot.clone();
            let notifier = Arc::clone(&self.shared.notifier);
            match self.shared.pool.try_submit_notify(
                spec,
                Box::new(move |result| {
                    notifier.push(Completion {
                        token: notify_token,
                        slot: notify_slot,
                        want_entry,
                        result,
                    });
                }),
            ) {
                Ok(()) => {
                    conn.dispatched += 1;
                    self.total_dispatched += 1;
                    if !conn.pending.is_empty() {
                        conn.in_rr = true;
                        self.rr.push_back(token);
                    }
                }
                Err(spec) => {
                    // Pool saturated: put the job back at the head and this
                    // connection back at the front so order is preserved,
                    // then stop until a completion frees a slot.
                    conn.pending.push_front(PendingJob {
                        slot,
                        spec,
                        received,
                        deadline,
                        want_entry,
                    });
                    conn.in_rr = true;
                    self.rr.push_front(token);
                    break;
                }
            }
        }
    }

    /// Sheds the newest pending requests of any connection holding more
    /// than the configured bound (the oldest keep their place in line).
    fn enforce_pending_bounds(&mut self) {
        let limit = self.config.max_pending_per_conn;
        let in_flight = self.shared.pool.in_flight().to_string();
        let mut shed: u64 = 0;
        for conn in self.conns.values_mut() {
            while conn.pending.len() > limit {
                let job = conn.pending.pop_back().expect("len checked");
                shed += 1;
                conn.queue_reply(
                    &job.slot,
                    json::object(&[
                        ("status", json::string("overloaded")),
                        ("in_flight", in_flight.clone()),
                    ]),
                );
            }
        }
        if shed > 0 {
            self.shared.stats.lock().expect("stats lock").rejected += shed;
        }
    }

    /// Flushes write buffers, applies backpressure state transitions, and
    /// keeps each connection's poller registration in sync.
    fn flush_and_update_interests(&mut self) {
        let soft_cap = self.config.write_soft_cap;
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
            .is_some_and(|t| t.elapsed() > self.config.shutdown_flush_grace);
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

    fn drained(&self) -> bool {
        self.draining && self.total_dispatched == 0 && self.conns.is_empty()
    }

    /// The poller timeout: the earliest pending deadline, if any.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut soonest: Option<Duration> = None;
        for conn in self.conns.values() {
            for job in &conn.pending {
                if let Some(deadline) = job.deadline {
                    let left = deadline.saturating_duration_since(now);
                    soonest = Some(match soonest {
                        Some(cur) => cur.min(left),
                        None => left,
                    });
                }
            }
        }
        // While draining, wake periodically so the flush grace can expire
        // even if no I/O ever becomes ready.
        if self.draining {
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
                            framer: Framer::new(self.config.max_line_bytes),
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
                        // Don't slurp unboundedly from one firehose client
                        // in a single turn; level-triggered polling will
                        // deliver the rest next iteration.
                        if conn.framer.buffered() > 256 * 1024 {
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
            if conn.unsent() > self.config.write_soft_cap {
                conn.paused = true;
                return;
            }
            let Some(frame) = conn.framer.pop() else {
                return;
            };
            match frame {
                Ok(line) => self.handle_line(token, &line),
                Err(e) => {
                    let conn = self.conns.get_mut(&token).expect("conn still present");
                    let slot = next_slot(conn, None);
                    let mut stats = self.shared.stats.lock().expect("stats lock");
                    stats.requests += 1;
                    stats.errors += 1;
                    drop(stats);
                    conn.queue_reply(&slot, error_reply(&e.reason()));
                }
            }
        }
    }

    fn handle_line(&mut self, token: usize, line: &str) {
        self.shared.stats.lock().expect("stats lock").requests += 1;
        let (id, parsed) = parse_request_line(line);
        let conn = self.conns.get_mut(&token).expect("conn present in pump");
        let slot = next_slot(conn, id);
        match parsed {
            Err(reason) => {
                self.shared.stats.lock().expect("stats lock").errors += 1;
                conn.queue_reply(&slot, error_reply(&reason));
            }
            Ok(Request::Ping) => {
                conn.queue_reply(&slot, json::object(&[("status", json::string("ok"))]));
            }
            Ok(Request::Stats) => {
                let reply = stats_reply(&self.shared);
                let conn = self.conns.get_mut(&token).expect("conn present");
                conn.queue_reply(&slot, reply);
            }
            Ok(Request::Shutdown) => {
                conn.queue_reply(&slot, json::object(&[("status", json::string("ok"))]));
                self.shared.shutting_down.store(true, Ordering::SeqCst);
            }
            Ok(Request::Cancel(target)) => {
                // Only pending (undispatched) tagged requests on this very
                // connection can be revoked; a job already on a worker runs
                // to completion (its reply is still delivered). A cancelled
                // request gets no reply of its own — the canceller
                // explicitly forfeited it.
                let before = conn.pending.len();
                conn.pending
                    .retain(|job| !matches!(&job.slot, ReplySlot::Tagged(id) if *id == target));
                let cancelled = conn.pending.len() < before;
                if cancelled {
                    self.shared.stats.lock().expect("stats lock").cancelled += 1;
                }
                conn.queue_reply(
                    &slot,
                    json::object(&[
                        ("status", json::string("ok")),
                        ("cancelled", cancelled.to_string()),
                    ]),
                );
            }
            Ok(Request::Backfill { key, entry }) => {
                let stored = self
                    .shared
                    .store
                    .put_if_absent(&key, &entry)
                    .unwrap_or(false);
                if stored {
                    self.shared.stats.lock().expect("stats lock").backfills += 1;
                }
                conn.queue_reply(
                    &slot,
                    json::object(&[
                        ("status", json::string("ok")),
                        ("stored", stored.to_string()),
                    ]),
                );
            }
            Ok(Request::Fetch(key)) => {
                // Raw store read for the routing tier: entries travel on
                // explicit fetches instead of fattening every extract
                // reply with a just-in-case payload.
                let hit = self.shared.store.get(&key);
                self.shared.stats.lock().expect("stats lock").fetches += 1;
                let entry = hit.as_ref().map(encode_entry);
                let mut reply = String::with_capacity(entry.as_ref().map_or(0, Vec::len) * 2 + 64);
                let mut obj = json::ObjectWriter::new(&mut reply);
                obj.string("status", "ok");
                obj.raw("found", &entry.is_some().to_string());
                if let Some(entry) = &entry {
                    obj.hex("entry", entry);
                }
                obj.finish();
                conn.queue_reply(&slot, reply);
            }
            Ok(Request::Extract(req)) => self.handle_extract(token, slot, &req),
        }
    }

    fn handle_extract(
        &mut self,
        token: usize,
        slot: ReplySlot,
        req: &crate::protocol::ExtractRequest,
    ) {
        let seq = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        if self.config.stall_period_ms > 0 {
            let now = Instant::now();
            let period = Duration::from_millis(self.config.stall_period_ms);
            let width = Duration::from_millis(self.config.stall_ms);
            let due = *self
                .next_stall
                .get_or_insert(now + Duration::from_millis(self.config.stall_phase_ms));
            if now >= due {
                // Anchor the schedule to the nominal timeline (never to
                // the fire time): drifting schedules let a fleet's
                // phase-staggered stalls collapse into lockstep after
                // an idle gap, and hedges or retries must not be able
                // to change the stall rate.
                let mut next = due + period;
                while next <= now {
                    next += period;
                }
                self.next_stall = Some(next);
                // Injected straggler: the daemon is stuck for the
                // wall-clock window [due, due+stall_ms), blocking the
                // loop the way a real stall would so everything queued
                // behind this request eats it. A request landing
                // mid-window waits out the remainder; a window that
                // passed while idle costs nothing.
                if now < due + width {
                    thread::sleep(due + width - now);
                }
            }
        }
        let fallback = format!("req{seq:06}");
        let spec = match req.to_spec(&fallback) {
            Ok(spec) => spec,
            Err(reason) => {
                self.shared.stats.lock().expect("stats lock").errors += 1;
                let conn = self.conns.get_mut(&token).expect("conn present");
                conn.queue_reply(&slot, error_reply(&reason));
                return;
            }
        };

        // Fast path: a result already in the store is served inline, so
        // cache hits are never shed by admission control or queued behind
        // slow extractions. A corrupt entry (get quarantines it and
        // returns None) falls through to a normal dispatch.
        if let Some(key) = job_key(&spec).filter(|key| self.shared.store.contains(key)) {
            let start = Instant::now();
            if let Some(hit) = self.shared.store.get(&key) {
                let packer = spec.packer.map(|id| id.profile().name);
                let mut report = from_cached(&spec.name, packer, &hit);
                report.wall_us = start.elapsed().as_micros() as u64;
                self.shared
                    .stats
                    .lock()
                    .expect("stats lock")
                    .absorb(&report);
                let reply = extract_reply(&report, Some(&hit.dex_bytes), req.want_entry);
                let conn = self.conns.get_mut(&token).expect("conn present");
                conn.queue_reply(&slot, reply);
                return;
            }
        }

        let received = Instant::now();
        let deadline = req
            .deadline_ms
            .map(|ms| received + Duration::from_millis(ms));
        let conn = self.conns.get_mut(&token).expect("conn present");
        conn.pending.push_back(PendingJob {
            slot,
            spec,
            received,
            deadline,
            want_entry: req.want_entry,
        });
        if !conn.in_rr {
            conn.in_rr = true;
            self.rr.push_back(token);
        }
    }
}

/// Derives the reply slot for a request: its id, or the connection's next
/// ordered sequence number.
fn next_slot(conn: &mut Conn, id: Option<RequestId>) -> ReplySlot {
    match id {
        Some(id) => ReplySlot::Tagged(id),
        None => {
            let seq = conn.ordered_next_assign;
            conn.ordered_next_assign += 1;
            ReplySlot::Ordered(seq)
        }
    }
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
    loop {
        match (&*wake_rx).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // WouldBlock: drained
        }
    }
}

fn extract_reply(report: &JobReport, dex: Option<&[u8]>, want_entry: bool) -> String {
    if report.status.is_ok() {
        // The caller intends to replicate this result elsewhere (the
        // router's R=2 fill and read-repair paths), so hand back the store
        // encoding ready to ship in a backfill request.
        let entry = match dex {
            Some(dex) if want_entry => Some(encode_entry(&to_cached(report, dex))),
            _ => None,
        };
        let dex = dex.unwrap_or_default();
        let report_json = report.to_json();
        let hex_len = (dex.len() + entry.as_ref().map_or(0, Vec::len)) * 2;
        let mut reply = String::with_capacity(hex_len + report_json.len() + 96);
        let mut obj = json::ObjectWriter::new(&mut reply);
        obj.string("status", "ok");
        obj.raw("cached", &report.cached.to_string());
        obj.hex("dex", dex);
        obj.raw("report", &report_json);
        if let Some(entry) = &entry {
            obj.hex("entry", entry);
        }
        obj.finish();
        reply
    } else {
        let mut members = vec![
            ("status", json::string("failed")),
            ("job_status", json::string(report.status.label())),
        ];
        if let Some(detail) = report.status.detail() {
            members.push(("detail", json::string(&detail)));
        }
        members.push(("report", report.to_json()));
        json::object(&members)
    }
}

fn error_reply(reason: &str) -> String {
    json::object(&[
        ("status", json::string("error")),
        ("reason", json::string(reason)),
    ])
}

fn stats_reply(shared: &Shared) -> String {
    let store = shared.store.stats();
    let opened = &shared.store_stats_at_open;
    let store_json = json::object(&[
        ("entries", store.entries.to_string()),
        ("bytes", store.bytes.to_string()),
        (
            "evictions",
            (store.evictions - opened.evictions).to_string(),
        ),
        (
            "quarantined",
            (store.quarantined - opened.quarantined).to_string(),
        ),
    ]);
    let stats = shared.stats.lock().expect("stats lock");
    let phases: Vec<(String, String)> = stats
        .phases_us
        .iter()
        .map(|(phase, (count, total_us))| {
            (
                phase.clone(),
                json::object(&[
                    ("count", count.to_string()),
                    ("total_us", total_us.to_string()),
                ]),
            )
        })
        .collect();
    let phase_members: Vec<(&str, String)> = phases
        .iter()
        .map(|(phase, obj)| (phase.as_str(), obj.clone()))
        .collect();
    let body = json::object(&[
        ("requests", stats.requests.to_string()),
        ("extracts", stats.extracts.to_string()),
        ("hits", stats.hits.to_string()),
        ("misses", stats.misses.to_string()),
        ("rejected", stats.rejected.to_string()),
        ("deadline_exceeded", stats.deadline_exceeded.to_string()),
        // Aliases for the admission-control counters under the names the
        // fleet tooling aggregates; the original fields stay byte-for-byte
        // so old clients keep parsing.
        ("shed_overloaded", stats.rejected.to_string()),
        ("shed_deadline", stats.deadline_exceeded.to_string()),
        (
            "uptime_ms",
            shared.started.elapsed().as_millis().to_string(),
        ),
        ("cancelled", stats.cancelled.to_string()),
        ("backfills", stats.backfills.to_string()),
        ("fetches", stats.fetches.to_string()),
        ("errors", stats.errors.to_string()),
        ("failed", stats.failed.to_string()),
        ("verifier_lints", stats.verifier_lints.to_string()),
        ("verifier_errors", stats.verifier_errors.to_string()),
        ("typed_methods", stats.typed_methods.to_string()),
        ("typed_insns", stats.typed_insns.to_string()),
        ("verify_cache_hits", stats.verify_cache_hits.to_string()),
        ("verify_cache_misses", stats.verify_cache_misses.to_string()),
        ("in_flight", shared.pool.in_flight().to_string()),
        ("store", store_json),
        ("phases_us", json::object(&phase_members)),
    ]);
    json::object(&[("status", json::string("ok")), ("stats", body)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::golden::{assert_golden, DEX};
    use dexlego_harness::JobStatus;
    use dexlego_store::Key;

    /// A fixed report whose name and detail need every kind of escape.
    fn report(status: JobStatus) -> JobReport {
        JobReport {
            status,
            cached: true,
            wall_us: 1_234,
            insns: 56_789,
            frames: 321,
            methods_collected: 6,
            insns_collected: 789,
            dump_size: 4_096,
            verifier_lints: 1,
            verifier_errors: 0,
            typed_methods: 5,
            typed_insns: 777,
            verify_cache_hits: 2,
            verify_cache_misses: 1,
            phases_us: vec![("collect".to_owned(), 42), ("verify".to_owned(), 7)],
            ..JobReport::empty("golden \"job\"\u{2028}\u{e9}\u{1}".to_owned(), Some("360"))
        }
    }

    fn framed(id: Option<&RequestId>, reply: &str) -> Vec<u8> {
        let mut out = Vec::new();
        push_reply_line(&mut out, id, reply);
        out
    }

    #[test]
    fn ok_reply_with_entry_is_golden() {
        let reply = extract_reply(&report(JobStatus::Ok), Some(DEX), true);
        let id = RequestId::Str("hit/1".to_owned());
        assert_golden("extract_ok_reply.line", &framed(Some(&id), &reply));
    }

    #[test]
    fn failed_reply_is_golden() {
        let status = JobStatus::VerifierRejected("v3: \"int\" vs ref\tat 0x1c".to_owned());
        let reply = extract_reply(&report(status), None, false);
        assert_golden("extract_failed_reply.line", &framed(None, &reply));
    }

    #[test]
    fn backfill_request_line_is_golden() {
        let entry = encode_entry(&to_cached(&report(JobStatus::Ok), DEX));
        let line =
            Request::encode_backfill(Some(&RequestId::Num(9)), &Key::new([0x5a; 20]), &entry);
        assert_golden("backfill_request.line", line.as_bytes());
    }
}
