//! `fleet_mixed`: a `dexlego-router` with its default configuration (R=2,
//! hedging on) over two in-process `dexlegod` backends with one
//! extraction worker each, driven by one connection with one request in
//! flight.
//!
//! The client sends one seeded stream, a sequence of cycles of
//! [`CYCLE`] requests in seeded order: most repeat the prefilled hot set
//! (store hits, served on a backend's loop thread), one is a first-seen
//! app (a full miss: the pipeline runs on a worker, then a store put and
//! a replica backfill), and one is a hot app under a fresh fuzz seed (a
//! store miss whose verification replays the verify cache). Store writes
//! happen beside reads, and the router forwards, hedges and backfills the
//! second replica beside the requests that follow. Every [`BLOCK_CYCLES`]
//! cycles hold the same mix, so the measured phase splits into blocks of
//! equal work.
//!
//! The stream is generated a cycle at a time when the last one is drawn,
//! outside any request's latency. Set-up therefore does the same work,
//! and the process holds the same inputs, however fast the program runs,
//! and the stream never runs out. The generation (about 0.5 ms per cycle
//! on a 2-vCPU VM, against roughly 70 ms of process CPU for the cycle's
//! requests) counts in the measured phase.
//!
//! Hits are checked against the in-process results computed during
//! set-up. A miss keeps only the SHA-1 of its DEX; after the measured
//! phase the stream is generated again from the seed and every miss is
//! checked against a fresh in-process run of the same job, so set-up does
//! not pay for requests the run never reaches.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dexlego_dex::checksum::sha1;
use dexlego_harness::cache::to_cached;
use dexlego_harness::json::Value;
use dexlego_harness::{execute_job_revealing, job_key, JobReport};
use dexlego_router::{Ring, Router, RouterConfig};
use dexlego_service::{Daemon, ExtractReply, ExtractRequest, PipelinedClient, ServiceConfig};
use dexlego_store::{Key, Store, StoreConfig};
use dexlego_verifier::clear_verify_cache;

use crate::inputs::{fuzz_seed, generate_app, hot_sizes, pick_packer, request, size_class, Rng};
use crate::report::{
    blocks, end_to_end, json_number, with_base, Layers, Outcome, Timed, FASTER_HALF,
};
use crate::serve::{check, counter, fill, hot_requests, stats, HotEntry, RawConn};
use crate::stats::{peak_rss_mb, process_cpu_s, ratio, steal_share, BlockClock, Mark};
use crate::trace::Tracer;
use crate::{set_up, trace_path, Args};

/// Requests per cycle: `CYCLE - 2` hot hits, one first-seen app, one
/// fuzz variant of a hot app. No traffic was measured to set this mix; it
/// is an assumption, chosen so one request in five misses and the 90th
/// latency percentile lies inside the misses instead of on the step
/// between hits and misses, which keeps runs repeatable.
const CYCLE: usize = 10;
/// Hot-set size.
const HOT: usize = 32;
/// Cycles per block: two passes over the hot set's hits, and one app from
/// each of this many size strata among the first-seen apps and among the
/// fuzz variants.
const BLOCK_CYCLES: usize = 8;
/// The hot set and the misses come from the lower third of the size
/// distribution: between Table I's HTMLViewer and Calculator. A request
/// for one of the largest apps holds a backend's loop thread or worker
/// for a large share of a second, so where the hash ring happens to
/// place it (the ring hashes the backends' ephemeral ports) would swing
/// the whole run; `reveal` and `serve_hits` cover the large apps.
const MAX_U: f64 = 1.0 / 3.0;
/// Backends in the fleet.
const BACKENDS: usize = 2;

/// What a stream item sends.
enum Req {
    /// Hot entry `i`'s request: a store hit.
    Hot(usize),
    /// A first-seen app or a hot app under a fresh fuzz seed: a miss.
    Miss(ExtractRequest),
}

struct Item {
    req: Req,
    class: &'static str,
}

/// The request `item` sends.
fn request_of<'a>(hot: &'a [HotEntry], item: &'a Item) -> &'a ExtractRequest {
    match &item.req {
        Req::Hot(i) => &hot[*i].req,
        Req::Miss(req) => req,
    }
}

/// The seeded request stream, generated a cycle at a time.
struct Stream<'a> {
    hot: &'a [HotEntry],
    seed: u64,
    rng: Rng,
    /// Cycles generated so far.
    cycles: usize,
    sizes: Vec<usize>,
    hot_order: Vec<usize>,
    fuzz_order: Vec<usize>,
    /// Hot entries by app size, smallest first.
    by_size: Vec<usize>,
    /// The rest of the current cycle.
    pending: VecDeque<Item>,
    /// Requests drawn so far.
    drawn: usize,
}

impl<'a> Stream<'a> {
    fn new(seed: u64, hot: &'a [HotEntry]) -> Stream<'a> {
        let mut by_size: Vec<usize> = (0..hot.len()).collect();
        by_size.sort_by_key(|&i| hot[i].insns);
        Stream {
            hot,
            seed,
            rng: Rng::new(seed, 5000),
            cycles: 0,
            sizes: Vec::new(),
            hot_order: Vec::new(),
            fuzz_order: Vec::new(),
            by_size,
            pending: VecDeque::new(),
            drawn: 0,
        }
    }

    /// The next request and its position in the stream.
    fn next(&mut self) -> (usize, Item) {
        if self.pending.is_empty() {
            self.pending = self.next_cycle().into();
        }
        let item = self.pending.pop_front().expect("a cycle is never empty");
        self.drawn += 1;
        (self.drawn - 1, item)
    }

    /// The next cycle's [`CYCLE`] requests, in seeded order.
    fn next_cycle(&mut self) -> Vec<Item> {
        let (hot, rng) = (self.hot, &mut self.rng);
        let mut batch = Vec::with_capacity(CYCLE);
        for _ in 0..CYCLE - 2 {
            if self.hot_order.is_empty() {
                self.hot_order = (0..hot.len()).collect();
                rng.shuffle(&mut self.hot_order);
            }
            let i = self.hot_order.pop().expect("refilled above");
            batch.push(Item {
                req: Req::Hot(i),
                class: hot[i].class(),
            });
        }
        if self.sizes.is_empty() {
            self.sizes = hot_sizes(BLOCK_CYCLES, MAX_U, rng);
        }
        let insns = self.sizes.pop().expect("refilled above");
        let tag = format!("s{}/new{}", self.seed, self.cycles);
        let app = generate_app(&tag, insns, rng);
        let packer = pick_packer(rng);
        batch.push(Item {
            req: Req::Miss(request(&app, packer, fuzz_seed(rng))),
            class: size_class(app.insns),
        });
        if self.fuzz_order.is_empty() {
            // One hot entry from each size stratum.
            let stratum = hot.len() / BLOCK_CYCLES;
            self.fuzz_order = self
                .by_size
                .chunks(stratum)
                .map(|s| s[rng.below(s.len())])
                .collect();
            rng.shuffle(&mut self.fuzz_order);
        }
        let i = self.fuzz_order.pop().expect("refilled above");
        let mut req = hot[i].req.clone();
        let old = req.seeds[0];
        req.seeds = vec![fuzz_seed(rng)];
        if req.seeds[0] == old {
            req.seeds[0] += 1;
        }
        batch.push(Item {
            req: Req::Miss(req),
            class: hot[i].class(),
        });
        rng.shuffle(&mut batch);
        self.cycles += 1;
        batch
    }
}

struct Fleet {
    daemons: Vec<Daemon>,
    router: Router,
    addr: String,
    backend_addrs: Vec<String>,
    hot: Vec<HotEntry>,
    dirs: Vec<PathBuf>,
}

fn placement(ring: &Ring, req: &ExtractRequest) -> (Key, usize) {
    let spec = req
        .to_spec("placement")
        .expect("generated requests convert");
    let key = job_key(&spec).expect("stream jobs are cacheable");
    (key, ring.owner(Ring::key_position(&key)))
}

fn setup(args: &Args, dir: &Path, round: usize) -> Fleet {
    // Every set-up starts from the same verify-cache state; the hot set's
    // fill then leaves its verifications cached, as a warm fleet has them.
    clear_verify_cache();
    let dirs: Vec<PathBuf> = (0..BACKENDS)
        .map(|b| dir.join(format!("fleet-{round}-b{b}")))
        .collect();
    let daemons: Vec<Daemon> = dirs
        .iter()
        .map(|d| {
            let mut config = ServiceConfig::new(d);
            config.workers = 1;
            Daemon::start(config).expect("backend starts")
        })
        .collect();
    let backend_addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();
    let router = Router::start(RouterConfig::new(backend_addrs.clone())).expect("router starts");
    let addr = router.addr().to_string();

    let hot = fill(&addr, hot_requests(args.seed, 4000, HOT, MAX_U));

    // Warm-up: one pass of hits through the router.
    let mut client = PipelinedClient::connect(&addr).expect("warm-up connection");
    for entry in &hot {
        client.send_extract(&entry.req).expect("warm-up send");
        let (_, reply) = client.recv_extract().expect("warm-up reply");
        assert!(
            check(&reply, &entry.expected).is_some(),
            "warm-up hit failed"
        );
    }
    Fleet {
        daemons,
        router,
        addr,
        backend_addrs,
        hot,
        dirs,
    }
}

fn teardown(f: Fleet) {
    f.router.trigger_shutdown();
    f.router.wait();
    for d in &f.daemons {
        d.trigger_shutdown();
    }
    for d in f.daemons {
        d.wait();
    }
    for dir in &f.dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One op as the client saw it.
struct Record {
    /// Position of the request in the stream (and of the op in
    /// completion order).
    at: usize,
    class: &'static str,
    /// Whether the stream meant the request to miss.
    designated_miss: bool,
    ms: f64,
    /// A `Done` reply that matched (hits) or awaits its post-run check
    /// (misses); `None` for a failed op.
    done: Option<Done>,
}

/// What a `Done` reply leaves for the summary.
struct Done {
    bytes: usize,
    cached: bool,
    repeated_verification: bool,
    /// SHA-1 of a designated miss's DEX, for [`post_check`].
    digest: Option<[u8; 20]>,
}

fn report_of(value: &Value) -> Option<JobReport> {
    JobReport::from_json(value).ok()
}

/// Checks a hit's DEX against the expected one now; a designated miss
/// keeps the digest of its DEX for [`post_check`].
fn done_of(
    hot: &[HotEntry],
    item: &Item,
    dex: &[u8],
    cached: bool,
    report: &Value,
) -> Option<Done> {
    let digest = match item.req {
        Req::Hot(i) if dex != hot[i].expected => return None,
        Req::Hot(_) => None,
        Req::Miss(_) => Some(sha1(dex)),
    };
    Some(Done {
        bytes: dex.len(),
        cached,
        repeated_verification: !cached
            && report_of(report).is_some_and(|rep| rep.verify_cache_hits > 0),
        digest,
    })
}

/// Checks every designated miss against a fresh in-process run of the
/// same job, on two threads that each take half the records (in stream
/// order) and generate the stream again from the seed. A miss whose DEX
/// differs loses its result (it then counts as failed).
fn post_check(f: &Fleet, seed: u64, records: &mut [Record]) {
    let half = records.len() / 2;
    let (first, second) = records.split_at_mut(half);
    std::thread::scope(|scope| {
        for part in [first, second] {
            scope.spawn(move || {
                let mut stream = Stream::new(seed, &f.hot);
                let mut current: Option<(usize, Item)> = None;
                for r in part.iter_mut() {
                    let Some(digest) = r.done.as_ref().and_then(|d| d.digest) else {
                        continue;
                    };
                    while current.as_ref().is_none_or(|(at, _)| *at < r.at) {
                        current = Some(stream.next());
                    }
                    let (_, item) = current.as_ref().expect("drawn above");
                    let spec = request_of(&f.hot, item)
                        .to_spec("check")
                        .expect("generated requests convert");
                    let (_, expected) = execute_job_revealing(spec);
                    if expected.map(|dex| sha1(&dex)) != Some(digest) {
                        r.done = None;
                    }
                }
            });
        }
    });
}

fn summarize(records: &[Record], timed: &mut Timed) {
    for r in records {
        timed.mark(&format!("size.{}", r.class));
        let Some(done) = &r.done else {
            timed.op(None, 0);
            continue;
        };
        timed.op(Some(r.ms), done.bytes);
        if done.cached {
            timed.hit_ms.push(r.ms);
            timed.mark("store_hit");
        } else {
            timed.miss_ms.push(r.ms);
            if done.repeated_verification {
                timed.mark("repeated_verification");
            }
        }
    }
}

/// The measured phase: one connection, one request in flight, the seeded
/// stream until the deadline. A single client keeps the client, the
/// router and the backends' loop threads from queueing behind each other
/// on two vCPUs; a miss's extraction still runs on a worker beside the
/// router's backfill and the next request.
fn measure(args: &Args, f: &Fleet) -> Timed {
    let mut stream = Stream::new(args.seed, &f.hot);
    let mut client = PipelinedClient::connect(&f.addr).expect("client connection");
    let mut records = Vec::new();
    let cpu0 = process_cpu_s();
    let mut clock = BlockClock::start(BLOCK_CYCLES * CYCLE);
    let t0 = clock.t0();
    let deadline = t0 + args.seconds;
    while Instant::now() < deadline {
        let (at, item) = stream.next();
        let start = Instant::now();
        let result = client
            .send_extract(request_of(&f.hot, &item))
            .and_then(|_| client.recv_extract());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.complete();
        let done = match result {
            Ok((
                _,
                ExtractReply::Done {
                    dex,
                    cached,
                    report,
                },
            )) => done_of(&f.hot, &item, &dex, cached, &report),
            _ => None,
        };
        records.push(Record {
            at,
            class: item.class,
            designated_miss: matches!(item.req, Req::Miss(_)),
            ms,
            done,
        });
    }
    let end = Mark::take(t0);
    let mut timed = Timed {
        wall_s: end.at_s,
        cpu_s: process_cpu_s() - cpu0,
        keep: FASTER_HALF,
        peak_rss_mb: peak_rss_mb(),
        ..Timed::default()
    };
    drop(client);
    post_check(f, args.seed, &mut records);
    summarize(&records, &mut timed);
    timed.blocks = blocks(clock.marks(), BLOCK_CYCLES * CYCLE);
    timed.steal_share = steal_share(clock.marks()[0].jiffies, end.jiffies);
    timed
}

/// Entry point.
pub fn run(args: &Args, dir: &Path) -> Option<Outcome> {
    if args.trace {
        return Some(traced(args, dir));
    }
    let mut round = 0;
    let (fleet, setup_s, setups) = set_up(
        args,
        || {
            round += 1;
            setup(args, dir, round)
        },
        teardown,
    );
    let rss_after_setup = peak_rss_mb();
    let before = stats(&fleet.addr);
    let timed = measure(args, &fleet);
    let after = stats(&fleet.addr);
    teardown(fleet);
    let mut out = Outcome::default();
    let complete = end_to_end(&mut out, &timed, setup_s);
    out.correct = timed.failed == 0;
    out.note("setup_s_samples", format!("{setups:?}"));
    out.note("peak_rss_mb_after_setup", json_number(rss_after_setup));
    for (key, path) in [
        ("router_hedges", &["router", "hedges"][..]),
        ("router_hedge_wins", &["router", "hedge_wins"][..]),
        ("backend_misses", &["misses"][..]),
        ("backend_hits", &["hits"][..]),
        ("backend_backfills", &["backfills"][..]),
    ] {
        let delta = counter(&after, path) - counter(&before, path);
        out.note(key, delta.to_string());
    }
    complete.then_some(out)
}

/// Per-thread figures of the traced phase.
#[derive(Default)]
struct TraceTotals {
    ops: u64,
    hits: u64,
    overhead_ms: f64,
    misses: u64,
    pool_wait_ms: f64,
    verify_hits: u64,
    verify_misses: u64,
    request_bytes: u64,
    reply_bytes: u64,
}

/// What the traced run needs beside the fleet: where each hot entry's key
/// lives, the ring to place a miss's key, and a store to replay puts on.
struct Replay<'a> {
    hot_owner: Vec<usize>,
    ring: Ring,
    put_store: &'a Store,
}

fn traced_client(
    f: &Fleet,
    replay: &Replay,
    seed: u64,
    epoch: Instant,
    deadline: Instant,
) -> (Tracer, TraceTotals, Vec<Record>) {
    let mut t = Tracer::new(epoch);
    let mut totals = TraceTotals::default();
    let mut records = Vec::new();
    let mut conn_raw = RawConn::connect(&f.addr);
    let mut direct: Vec<RawConn> = f
        .backend_addrs
        .iter()
        .map(|a| RawConn::connect(a))
        .collect();
    let mut stream = Stream::new(seed, &f.hot);
    while Instant::now() < deadline {
        let (at, item) = stream.next();
        let req = request_of(&f.hot, &item);
        t.set_op(at as u64);
        let raw = conn_raw.round_trip(&mut t, req);
        let rtt_ms = raw.rtt_ms;
        totals.ops += 1;
        totals.request_bytes += raw.request_line.len() as u64 + 1;
        totals.reply_bytes += raw.reply_bytes as u64;
        let mut done = None;
        if let Ok(ExtractReply::Done {
            dex,
            cached,
            report,
        }) = raw.reply
        {
            if cached {
                // The same request straight to the owning backend.
                let owner = match &item.req {
                    Req::Hot(i) => replay.hot_owner[*i],
                    Req::Miss(req) => placement(&replay.ring, req).1,
                };
                let started = Instant::now();
                let direct_reply =
                    t.span("router.direct_rtt", || direct[owner].round_trip_quiet(req));
                totals.hits += 1;
                totals.overhead_ms += rtt_ms - started.elapsed().as_secs_f64() * 1e3;
                if direct_reply.is_ok_and(|r| check(&r, &dex).is_some()) {
                    done = done_of(&f.hot, &item, &dex, cached, &report);
                }
            } else if let Some(rep) = report_of(&report) {
                totals.misses += 1;
                totals.pool_wait_ms += rtt_ms - rep.wall_us as f64 / 1e3;
                totals.verify_hits += rep.verify_cache_hits;
                totals.verify_misses += rep.verify_cache_misses;
                let (key, _) = placement(&replay.ring, req);
                let entry = to_cached(&rep, &dex);
                let stored = t.span("store.put", || replay.put_store.put(&key, &entry));
                if stored.is_ok() {
                    done = done_of(&f.hot, &item, &dex, cached, &report);
                }
            }
        }
        records.push(Record {
            at,
            class: item.class,
            designated_miss: matches!(item.req, Req::Miss(_)),
            ms: rtt_ms,
            done,
        });
    }
    (t, totals, records)
}

fn traced(args: &Args, dir: &Path) -> Outcome {
    let (fleet, _, _) = set_up(args, || setup(args, dir, 1), teardown);
    let untraced = measure(args, &fleet);
    teardown(fleet);

    let (f, _, _) = set_up(args, || setup(args, dir, 2), teardown);
    let put_dir = dir.join("put-replay");
    let put_store = Store::open(StoreConfig::new(&put_dir)).expect("put replay store");
    let config = RouterConfig::new(f.backend_addrs.clone());
    let ring = Ring::new(&config.backends, config.vnodes, config.seed);
    let replay = Replay {
        hot_owner: f.hot.iter().map(|h| placement(&ring, &h.req).1).collect(),
        ring,
        put_store: &put_store,
    };
    let before = stats(&f.addr);
    let epoch = Instant::now();
    let deadline = epoch + args.seconds;
    let cpu0 = process_cpu_s();
    let (t, totals, mut records) = traced_client(&f, &replay, args.seed, epoch, deadline);
    let cpu_s = process_cpu_s() - cpu0;
    let after = stats(&f.addr);
    post_check(&f, args.seed, &mut records);
    let failed = records.iter().filter(|r| r.done.is_none()).count() as u64;
    let designated_misses = records.iter().filter(|r| r.designated_miss).count() as u64;
    teardown(f);
    drop(replay);
    drop(put_store);
    let _ = std::fs::remove_dir_all(&put_dir);
    let _ = t.write_jsonl(&trace_path(args));

    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let ops = totals.ops;
    let mut layers = Layers::default();
    layers.per("service.rtt_ms_per_op", t.total_ms("service.rtt"), ops);
    layers.per(
        "service.request_encode_ms_per_op",
        t.total_ms("service.request_encode"),
        ops,
    );
    layers.per(
        "service.reply_parse_ms_per_op",
        t.total_ms("service.reply_parse"),
        ops,
    );
    layers.per(
        "service.request_kb_per_op",
        totals.request_bytes as f64 / 1024.0,
        ops,
    );
    layers.per(
        "service.reply_kb_per_op",
        totals.reply_bytes as f64 / 1024.0,
        ops,
    );
    layers.per("router.overhead_ms_per_op", totals.overhead_ms, totals.hits);
    let hedges = delta(&["router", "hedges"]);
    layers.per("router.hedges_per_op", hedges as f64, ops);
    layers.set(
        "router.hedge_win_ratio",
        ratio(delta(&["router", "hedge_wins"]) as f64, hedges as f64),
        hedges,
    );
    let backend_misses = delta(&["misses"]);
    layers.set(
        "router.duplicate_extract_ratio",
        ratio(
            backend_misses.saturating_sub(designated_misses) as f64,
            designated_misses as f64,
        ),
        designated_misses,
    );
    layers.per("router.backfills_per_op", delta(&["backfills"]) as f64, ops);
    layers.per("store.put_ms_per_op", t.total_ms("store.put"), ops);
    // Each direct replay of a hit is one more hit on the owning backend.
    let store_hits = delta(&["hits"]).saturating_sub(totals.hits);
    let lookups = store_hits + backend_misses;
    layers.set(
        "store.hit_ratio",
        ratio(store_hits as f64, lookups as f64),
        lookups,
    );
    layers.per(
        "service.pool_wait_ms_per_miss",
        totals.pool_wait_ms,
        totals.misses,
    );
    let verify = totals.verify_hits + totals.verify_misses;
    layers.set(
        "verifier.cache_hit_ratio",
        ratio(totals.verify_hits as f64, verify as f64),
        verify,
    );
    // Only the spans nested in the routed round trip; the direct round
    // trip and the put replay run after it.
    let rtt_ms = t.total_ms("service.rtt");
    let attributed = t.total_ms("service.request_encode") + t.total_ms("service.reply_parse");
    layers.set("trace.coverage_ratio", ratio(attributed, rtt_ms), ops);
    layers.set(
        "trace.overhead_ratio",
        ratio(ratio(cpu_s * 1e3, ops as f64), untraced.cpu_ms_per_op()),
        ops,
    );
    let mut out = Outcome {
        attempted: ops,
        failed,
        ..Outcome::default()
    };
    layers.emit(&mut out, "fleet_mixed", &t);
    out.correct = failed == 0 && untraced.failed == 0;
    out.note(
        "untraced_cpu_ms_per_op",
        json_number(untraced.cpu_ms_per_op()),
    );
    out.note(
        "backend_misses",
        with_base(backend_misses as f64, designated_misses),
    );
    out.note("trace_file", format!("\"{}\"", trace_path(args).display()));
    out
}
