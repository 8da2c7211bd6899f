//! The `dexlegod` daemon: the [`core`](crate::core) server with a
//! handler that answers extractions from the content-addressed result
//! [`Store`] and runs the misses on the core's workers.
//!
//! Everything cheap stays on the loop thread: cache hits (served inline,
//! so they bypass the pending queues and are never shed by admission
//! control), `fetch`, `backfill`, `stats` and the injected stalls. A hit
//! is keyed by the request's DEX bytes as received
//! ([`ExtractRequest::key`]) and never parses them. A miss reads the DEX
//! and is deferred: its worker runs the pipeline, stores the result under
//! the key the hit looked up, absorbs the job's counters and builds the
//! reply. (A corrupt entry falls through to a normal deferred miss rather
//! than running the pipeline on the loop.)
//!
//! `stats` walks three counter tables ([`dexlego_harness::Counters`]) and
//! names no counter itself: the core's [`CoreStats`], the daemon's own
//! extraction counters, and the job counters of [`COUNTERS`] summed over
//! fresh extractions. A new counter in any of them reaches the reply with
//! no edit here.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dexlego_harness::cache::from_cached;
use dexlego_harness::json;
use dexlego_harness::{counters, execute_job_keyed, Counters, JobReport, JobSpec, COUNTERS};
use dexlego_packer::PackerId;
use dexlego_store::entry::encode as encode_entry;
use dexlego_store::{CachedResult, Key, Store, StoreConfig, StoreStats};

use crate::core::{
    Action, CoreStats, Handler, Io, Limits, Parked, Server, MAX_LINE_BYTES, MAX_PENDING_PER_CONN,
    WRITE_SOFT_CAP,
};
use crate::protocol::ExtractRequest;

/// The job executor a daemon's workers run on a miss: the job and the
/// key its hit was looked up under ([`ExtractRequest::key`]), so the fill
/// lands where the next hit looks. [`execute_job_keyed`] over the
/// daemon's store, or a stand-in injected through
/// [`Daemon::start_with_executor`]. It yields the report and, for
/// successful jobs, the serialised revealed DEX.
pub type PoolExecutor = Arc<dyn Fn(JobSpec, Key) -> (JobReport, Option<Vec<u8>>) + Send + Sync>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Extraction worker threads: misses extracted at once. The rest wait
    /// in their connections' pending queues.
    pub workers: usize,
    /// Result store configuration.
    pub store: StoreConfig,
    /// Extract requests a single connection may hold waiting for a
    /// worker; arrivals beyond it are shed with `overloaded`. 0 means a
    /// request that finds every worker busy is shed at once.
    pub max_pending_per_conn: usize,
    /// Request-line byte cap; longer lines get an `error` reply and are
    /// discarded without being buffered.
    pub max_line_bytes: usize,
    /// Per-connection reply-buffer soft cap; past it the server stops
    /// reading from the connection until the client drains its replies.
    pub write_soft_cap: usize,
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
            store: StoreConfig::new(store_root),
            max_pending_per_conn: MAX_PENDING_PER_CONN,
            max_line_bytes: MAX_LINE_BYTES,
            write_soft_cap: WRITE_SOFT_CAP,
            stall_period_ms: 0,
            stall_ms: 0,
            stall_phase_ms: 0,
        }
    }
}

counters! {
    /// Extraction counters, separate from the core's request counters and
    /// from the store's own hit/miss accounting (which also sees internal
    /// probes).
    #[derive(Debug, Default)]
    struct ServiceStats {
        /// Extract requests admitted (cache hit or pipeline run).
        extracts,
        /// Extract requests answered from the store.
        hits,
        /// Extract requests that ran the pipeline.
        misses,
        /// Entries written into the store by `backfill` ops (replication
        /// and read-repair traffic from the routing tier).
        backfills,
        /// Store entries read out by `fetch` ops (the routing tier pulling
        /// payloads for replication off the hot path).
        fetches,
        /// Jobs that ran but did not reach [`JobStatus::Ok`].
        ///
        /// [`JobStatus::Ok`]: dexlego_harness::JobStatus::Ok
        failed;
        /// Every job counter summed over the fresh extractions. A hit's
        /// counters describe the run that stored it, not work this daemon
        /// did, so hits add nothing.
        jobs: JobReport,
        /// Per-phase `(count, total_us)` aggregates over fresh extractions.
        phases_us: BTreeMap<String, (u64, u64)>,
    }
}

impl ServiceStats {
    fn absorb(&mut self, report: &JobReport) {
        self.extracts += 1;
        if report.cached {
            self.hits += 1;
        } else {
            self.misses += 1;
            for c in COUNTERS {
                *c.field(&mut self.jobs) += c.get(report);
            }
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

/// A running daemon. Dropping it without [`Daemon::wait`] detaches the
/// event-loop thread; call [`Daemon::trigger_shutdown`] then `wait` for a
/// graceful drain.
pub struct Daemon {
    server: Server,
}

impl Daemon {
    /// Binds, opens the store, and starts serving.
    ///
    /// # Errors
    ///
    /// Bind or store-open failures.
    pub fn start(config: ServiceConfig) -> io::Result<Daemon> {
        let store = Arc::new(Store::open(config.store.clone())?);
        let exec_store = Arc::clone(&store);
        let exec: PoolExecutor =
            Arc::new(move |spec, key| execute_job_keyed(spec, key, &exec_store));
        Daemon::start_with_executor(config, store, exec)
    }

    /// [`Daemon::start`] with an injected job executor — the
    /// deterministic-test hook (e.g. an executor that blocks on a channel
    /// to hold the queue full).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start_with_executor(
        config: ServiceConfig,
        store: Arc<Store>,
        exec: PoolExecutor,
    ) -> io::Result<Daemon> {
        let limits = Limits {
            max_pending_per_conn: config.max_pending_per_conn,
            max_line_bytes: config.max_line_bytes,
            write_soft_cap: config.write_soft_cap,
        };
        let handler = Extractor {
            store_stats_at_open: store.stats(),
            store,
            exec,
            stats: Arc::new(Mutex::new(ServiceStats::default())),
            started: Instant::now(),
            next_job: 0,
            stall_period: Duration::from_millis(config.stall_period_ms),
            stall_width: Duration::from_millis(config.stall_ms),
            stall_phase: Duration::from_millis(config.stall_phase_ms),
            next_stall: None,
        };
        let server = Server::start(
            "dexlegod-loop",
            &config.addr,
            config.workers.max(1),
            limits,
            handler,
        )?;
        Ok(Daemon { server })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Asks the daemon to stop accepting and drain. Idempotent;
    /// also reachable over the wire via the `shutdown` op.
    pub fn trigger_shutdown(&self) {
        self.server.trigger_shutdown();
    }

    /// Joins the event loop (which exits only after a triggered shutdown
    /// has drained every admitted job and flushed every reply) and the
    /// workers.
    pub fn wait(self) {
        self.server.wait();
    }
}

/// The daemon's [`Handler`]: store lookups on the loop, pipeline runs on
/// the workers.
struct Extractor {
    store: Arc<Store>,
    exec: PoolExecutor,
    stats: Arc<Mutex<ServiceStats>>,
    store_stats_at_open: StoreStats,
    started: Instant,
    next_job: u64,
    /// Synthetic straggler injection ([`ServiceConfig::stall_period_ms`]);
    /// a zero period disables it.
    stall_period: Duration,
    stall_width: Duration,
    stall_phase: Duration,
    /// Next scheduled stall (`None` until the first extract arrives).
    next_stall: Option<Instant>,
}

impl Extractor {
    /// Sleeps out the injected stall window this request lands in, if any.
    fn stall(&mut self) {
        if self.stall_period.is_zero() {
            return;
        }
        let now = Instant::now();
        let due = *self.next_stall.get_or_insert(now + self.stall_phase);
        if now >= due {
            // Anchor the schedule to the nominal timeline (never to the
            // fire time): drifting schedules let a fleet's phase-staggered
            // stalls collapse into lockstep after an idle gap, and hedges
            // or retries must not be able to change the stall rate.
            let mut next = due + self.stall_period;
            while next <= now {
                next += self.stall_period;
            }
            self.next_stall = Some(next);
            // Injected straggler: the daemon is stuck for the wall-clock
            // window [due, due+stall_ms), blocking the loop the way a real
            // stall would so everything queued behind this request eats
            // it. A request landing mid-window waits out the remainder; a
            // window that passed while idle costs nothing.
            if now < due + self.stall_width {
                thread::sleep(due + self.stall_width - now);
            }
        }
    }
}

impl Handler for Extractor {
    fn extract(&mut self, req: Box<ExtractRequest>, _io: &mut Io, _parked: Parked) -> Action {
        let seq = self.next_job;
        self.next_job += 1;
        self.stall();
        let key = match req.key() {
            Ok(key) => key,
            Err(reason) => return Action::Error(reason),
        };
        let name = req.name.clone().unwrap_or_else(|| format!("req{seq:06}"));

        // Fast path: a result already in the store is served inline, keyed
        // by the request's bytes with no parse of its DEX, so cache hits
        // are never shed by admission control or queued behind slow
        // extractions. A corrupt entry (get quarantines it and returns
        // None) falls through to a normal dispatch.
        if self.store.contains(&key) {
            let start = Instant::now();
            if let Some(hit) = self.store.get(&key) {
                let packer = req.packer.as_deref().and_then(PackerId::by_name);
                let mut report = from_cached(&name, packer.map(|id| id.profile().name), &hit);
                report.wall_us = start.elapsed().as_micros() as u64;
                self.stats.lock().expect("stats lock").absorb(&report);
                return Action::Reply(extract_reply(&report, Some(&hit.dex_bytes)));
            }
        }

        // Only a miss reads the DEX; its worker fills the key looked up.
        let spec = match req.to_spec(&name) {
            Ok(spec) => spec,
            Err(reason) => return Action::Error(reason),
        };
        let (exec, stats) = (Arc::clone(&self.exec), Arc::clone(&self.stats));
        Action::Defer {
            deadline_ms: req.deadline_ms,
            work: Box::new(move || {
                let (report, dex) = exec(spec, key);
                stats.lock().expect("stats lock").absorb(&report);
                extract_reply(&report, dex.as_deref())
            }),
        }
    }

    fn fetch(&mut self, key: Key) -> Action {
        // Raw store read for the routing tier: entries travel on explicit
        // fetches instead of fattening every extract reply with a
        // just-in-case payload.
        let hit = self.store.get(&key);
        self.stats.lock().expect("stats lock").fetches += 1;
        let entry = hit.as_ref().map(encode_entry);
        let mut reply = String::with_capacity(entry.as_ref().map_or(0, Vec::len) * 2 + 64);
        let mut obj = json::ObjectWriter::new(&mut reply);
        obj.string("status", "ok");
        obj.raw("found", &entry.is_some().to_string());
        if let Some(entry) = &entry {
            obj.hex("entry", entry);
        }
        obj.finish();
        Action::Reply(reply)
    }

    fn backfill(&mut self, key: Key, entry: CachedResult) -> Action {
        let stored = self.store.put_if_absent(&key, &entry).unwrap_or(false);
        if stored {
            self.stats.lock().expect("stats lock").backfills += 1;
        }
        Action::Reply(json::object(&[
            ("status", json::string("ok")),
            ("stored", stored.to_string()),
        ]))
    }

    fn stats(&mut self, core: &CoreStats, _io: &mut Io, _parked: Parked) -> Action {
        Action::Reply(stats_reply(self, core))
    }
}

fn extract_reply(report: &JobReport, dex: Option<&[u8]>) -> String {
    if report.status.is_ok() {
        let dex = dex.unwrap_or_default();
        let report_json = report.to_json();
        let mut reply = String::with_capacity(dex.len() * 2 + report_json.len() + 96);
        let mut obj = json::ObjectWriter::new(&mut reply);
        obj.string("status", "ok");
        obj.raw("cached", &report.cached.to_string());
        obj.hex("dex", dex);
        obj.raw("report", &report_json);
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

fn stats_reply(daemon: &Extractor, core: &CoreStats) -> String {
    let store = daemon.store.stats();
    let opened = &daemon.store_stats_at_open;
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
    let stats = daemon.stats.lock().expect("stats lock");
    let mut phases = String::new();
    let mut obj = json::ObjectWriter::new(&mut phases);
    for (phase, (count, total_us)) in &stats.phases_us {
        let aggregate = json::object(&[
            ("count", count.to_string()),
            ("total_us", total_us.to_string()),
        ]);
        obj.raw(phase, &aggregate);
    }
    obj.finish();
    let mut members = String::new();
    let mut obj = json::ObjectWriter::new(&mut members);
    core.write_counters(&mut obj);
    stats.write_counters(&mut obj);
    stats.jobs.write_counters(&mut obj);
    obj.raw(
        "uptime_ms",
        &daemon.started.elapsed().as_millis().to_string(),
    );
    obj.raw("store", &store_json);
    obj.raw("phases_us", &phases);
    obj.finish();
    json::object(&[("status", json::string("ok")), ("stats", members)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::golden::{assert_golden, DEX};
    use crate::protocol::{push_reply_line, Request, RequestId};
    use dexlego_harness::cache::to_cached;
    use dexlego_harness::JobStatus;

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
    fn ok_reply_is_golden() {
        let reply = extract_reply(&report(JobStatus::Ok), Some(DEX));
        let id = RequestId::Str("hit/1".to_owned());
        assert_golden("extract_ok_reply.line", &framed(Some(&id), &reply));
    }

    #[test]
    fn failed_reply_is_golden() {
        let status = JobStatus::VerifierRejected("v3: \"int\" vs ref\tat 0x1c".to_owned());
        let reply = extract_reply(&report(status), None);
        assert_golden("extract_failed_reply.line", &framed(None, &reply));
    }

    #[test]
    fn backfill_request_line_is_golden() {
        let entry = encode_entry(&to_cached(&report(JobStatus::Ok), DEX));
        let line =
            Request::encode_backfill(Some(&RequestId::Num(9)), &Key::new([0x5a; 20]), &entry);
        assert_golden("backfill_request.line", line.as_bytes());
    }

    /// The daemon's `stats` carry every core, daemon and job counter at
    /// the top level, under the names their tables give them.
    #[test]
    fn stats_carry_every_table_counter() {
        let dir = dexlego_store::TempDir::new("service-stats-names").unwrap();
        let daemon = Daemon::start(ServiceConfig::new(dir.path())).expect("daemon starts");
        let mut client = crate::Client::connect(&daemon.addr().to_string()).expect("connect");
        let stats = client.stats().expect("stats");
        let names = CoreStats::COUNTERS
            .iter()
            .map(|c| c.name)
            .chain(ServiceStats::COUNTERS.iter().map(|c| c.name))
            .chain(COUNTERS.iter().map(|c| c.name));
        for name in names {
            assert!(
                stats.get(name).and_then(json::Value::as_u64).is_some(),
                "stats lack {name}: {stats:?}"
            );
        }
        client.shutdown().expect("graceful shutdown");
        daemon.wait();
    }
}
