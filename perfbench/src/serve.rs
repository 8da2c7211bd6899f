//! `serve_hits`: an in-process `dexlegod` whose store holds a seeded hot
//! set, driven by one `PipelinedClient` connection with one request in
//! flight. Every request is a hit, so the repeat-lookup path does all
//! the work and the pipeline does none: request encode, framing and JSON
//! parse, DEX parse, job-key digest, store read and checksum, and the
//! hex-in-JSON reply.
//!
//! The client sends seeded passes over the hot set, so every block of
//! one pass's worth of consecutive completions holds the same request mix.
//!
//! The traced run sends the same request stream on one raw connection
//! and, next to each client-observed round trip, times on the same thread
//! each public call the daemon's hit path makes on that request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dexlego_harness::cache::{from_cached, to_cached};
use dexlego_harness::json::{self, Value};
use dexlego_harness::{all_packers, execute_job_revealing, job_key, JobReport};
use dexlego_service::{
    decode_extract_reply, parse_reply_line, parse_request_line, Client, Daemon, ExtractReply,
    ExtractRequest, PipelinedClient, Request, RequestId, ServiceConfig,
};
use dexlego_store::hex::to_hex;
use dexlego_store::{Store, StoreConfig};
use dexlego_verifier::clear_verify_cache;

use crate::inputs::{
    fuzz_seed, generate_app, hot_sizes, packer_name, pick_packed, request, size_class, Rng,
};
use crate::report::{
    blocks, end_to_end, json_number, with_base, Layers, Outcome, Timed, FASTER_HALF,
};
use crate::stats::{peak_rss_mb, process_cpu_s, ratio, steal_share, BlockClock, Mark};
use crate::trace::Tracer;
use crate::{set_up, trace_path, Args};

/// Apps in the hot set, one per size stratum, each crossed with all seven
/// packer configurations. Every seed then serves the same sizes under the
/// same packers, and with 35 entries requested equally often the median
/// falls in the middle of the third size's seven entries and the 90th
/// percentile in the middle of the fifth's (ranks 17.5 and 31.5 of 35),
/// not on the step between two sizes.
const HOT_APPS: usize = 5;
/// The hot set comes from the lower two thirds of the size distribution:
/// Table I's HTMLViewer up to Calendar. Contacts-sized apps would make
/// each set-up's fill several times longer; `reveal` covers them.
const HOT_MAX_U: f64 = 2.0 / 3.0;

/// One prefilled request and the result it must produce.
pub struct HotEntry {
    /// The request, as sent.
    pub req: ExtractRequest,
    /// What in-process `execute_job_revealing` produced for it.
    pub expected: Vec<u8>,
    /// The in-process job report (for replaying the store entry).
    pub report: JobReport,
    /// Instructions in the app.
    pub insns: usize,
}

impl HotEntry {
    /// Size class of the app.
    pub fn class(&self) -> &'static str {
        size_class(self.insns)
    }
}

/// A seeded hot set of `count` apps on [`hot_sizes`]`(count, max_u)`, each
/// under a seeded packed configuration (`fleet_mixed`'s).
pub fn hot_requests(
    seed: u64,
    stream: u64,
    count: usize,
    max_u: f64,
) -> Vec<(ExtractRequest, usize)> {
    let mut rng = Rng::new(seed, stream);
    hot_sizes(count, max_u, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, insns)| {
            let app = generate_app(&format!("s{seed}/h{stream}/{i}"), insns, &mut rng);
            let packer = pick_packed(&mut rng);
            let mut req = request(&app, packer, fuzz_seed(&mut rng));
            req.name = Some(format!("hot{i}"));
            (req, app.insns)
        })
        .collect()
}

/// A seeded hot set of `apps` apps on [`hot_sizes`]`(apps, max_u)`, each
/// crossed with every packer configuration (`serve_hits`').
pub fn crossed_hot_requests(
    seed: u64,
    stream: u64,
    apps: usize,
    max_u: f64,
) -> Vec<(ExtractRequest, usize)> {
    let mut rng = Rng::new(seed, stream);
    let mut reqs = Vec::new();
    for (i, insns) in hot_sizes(apps, max_u, &mut rng).into_iter().enumerate() {
        let app = generate_app(&format!("s{seed}/h{stream}/{i}"), insns, &mut rng);
        for packer in all_packers() {
            let mut req = request(&app, packer, fuzz_seed(&mut rng));
            req.name = Some(format!("hot{i}@{}", packer_name(packer)));
            reqs.push((req, app.insns));
        }
    }
    reqs
}

/// Sends every request to `addr` at once and collects the replies, then
/// computes each expected result in process and checks the replies
/// against them. Panics on any failure: a set-up that cannot fill its
/// store has nothing to measure.
pub fn fill(addr: &str, reqs: Vec<(ExtractRequest, usize)>) -> Vec<HotEntry> {
    let mut client = PipelinedClient::connect(addr).expect("fill connection");
    let ids: Vec<u64> = reqs
        .iter()
        .map(|(req, _)| client.send_extract(req).expect("fill send"))
        .collect();
    let mut replies: Vec<Option<ExtractReply>> = vec![None; ids.len()];
    for _ in 0..ids.len() {
        let (id, reply) = client.recv_extract().expect("fill reply");
        let at = ids
            .iter()
            .position(|&x| x == id)
            .expect("reply to a fill request");
        replies[at] = Some(reply);
    }
    let entries: Vec<HotEntry> = reqs
        .into_iter()
        .map(|(req, insns)| {
            let spec = req.to_spec("expected").expect("generated requests convert");
            let (report, dex) = execute_job_revealing(spec);
            let expected =
                dex.unwrap_or_else(|| panic!("in-process job failed: {:?}", report.status));
            HotEntry {
                req,
                expected,
                report,
                insns,
            }
        })
        .collect();
    for (entry, reply) in entries.iter().zip(replies) {
        match reply {
            Some(ExtractReply::Done { dex, .. }) if dex == entry.expected => {}
            other => panic!("fill of {:?} went wrong: {other:?}", entry.req.name),
        }
    }
    entries
}

/// A `stats` snapshot of the daemon or router at `addr`.
pub fn stats(addr: &str) -> Value {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats round trip")
}

/// Counter at `path` in a stats snapshot (0 if absent).
pub fn counter(stats: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// A request stream over `n` hot entries: seeded passes, each a fresh
/// permutation, so every `n` consecutive ops cover the hot set once.
pub struct Passes {
    rng: Rng,
    order: Vec<usize>,
}

impl Passes {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Passes {
        Passes {
            rng: Rng::new(seed, 3000),
            order: Vec::new(),
        }
    }

    /// The next hot-entry index out of `n`.
    pub fn next(&mut self, n: usize) -> usize {
        if self.order.is_empty() {
            self.order = (0..n).collect();
            self.rng.shuffle(&mut self.order);
        }
        self.order.pop().expect("refilled above")
    }
}

/// Checks one extract reply against `expected`; returns the revealed DEX
/// size and whether it was a store hit, or `None` for any failure.
pub fn check(reply: &ExtractReply, expected: &[u8]) -> Option<(usize, bool)> {
    match reply {
        ExtractReply::Done { dex, cached, .. } if dex == expected => Some((dex.len(), *cached)),
        _ => None,
    }
}

struct Serve {
    daemon: Daemon,
    addr: String,
    hot: Vec<HotEntry>,
    store_dir: PathBuf,
}

fn setup(seed: u64, dir: &Path, round: usize) -> Serve {
    // Every set-up starts from the same verify-cache state.
    clear_verify_cache();
    let store_dir = dir.join(format!("serve-{round}"));
    let mut config = ServiceConfig::new(&store_dir);
    config.workers = 1;
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr().to_string();
    let hot = fill(&addr, crossed_hot_requests(seed, 2000, HOT_APPS, HOT_MAX_U));
    // Warm-up: one pass of hits over the hot set.
    let mut client = PipelinedClient::connect(&addr).expect("warm-up connection");
    for entry in &hot {
        client.send_extract(&entry.req).expect("warm-up send");
        let (_, reply) = client.recv_extract().expect("warm-up reply");
        assert!(
            check(&reply, &entry.expected).is_some(),
            "warm-up hit failed"
        );
    }
    Serve {
        daemon,
        addr,
        hot,
        store_dir,
    }
}

fn teardown(s: Serve) {
    s.daemon.trigger_shutdown();
    s.daemon.wait();
    let _ = std::fs::remove_dir_all(&s.store_dir);
}

/// The measured phase: one connection, one request in flight, seeded
/// passes over the hot set until the deadline. A single client keeps the
/// client, the daemon's loop thread and its worker from queueing behind
/// each other on two vCPUs, so a run measures the program, not the
/// scheduler.
fn measure(args: &Args, s: &Serve) -> (Timed, Value, Value) {
    let before = stats(&s.addr);
    let mut passes = Passes::new(args.seed);
    let mut client = PipelinedClient::connect(&s.addr).expect("client connection");
    let cpu0 = process_cpu_s();
    let mut clock = BlockClock::start(s.hot.len());
    let t0 = clock.t0();
    let deadline = t0 + args.seconds;
    let mut timed = Timed {
        keep: FASTER_HALF,
        ..Timed::default()
    };
    while Instant::now() < deadline {
        let entry = &s.hot[passes.next(s.hot.len())];
        let start = Instant::now();
        let result = client
            .send_extract(&entry.req)
            .and_then(|_| client.recv_extract());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.complete();
        timed.mark(&format!("size.{}", entry.class()));
        match result
            .ok()
            .and_then(|(_, reply)| check(&reply, &entry.expected))
        {
            Some((bytes, cached)) => {
                timed.op(Some(ms), bytes);
                if cached {
                    timed.hit_ms.push(ms);
                    timed.mark("store_hit");
                } else {
                    timed.miss_ms.push(ms);
                }
            }
            None => timed.op(None, 0),
        }
    }
    let end = Mark::take(t0);
    timed.wall_s = end.at_s;
    timed.cpu_s = process_cpu_s() - cpu0;
    timed.peak_rss_mb = peak_rss_mb();
    timed.blocks = blocks(clock.marks(), s.hot.len());
    timed.steal_share = steal_share(clock.marks()[0].jiffies, end.jiffies);
    drop(client);
    (timed, before, stats(&s.addr))
}

/// Entry point.
pub fn run(args: &Args, dir: &Path) -> Option<Outcome> {
    if args.trace {
        return Some(traced(args, dir));
    }
    let mut round = 0;
    let (serve, setup_s, setups) = set_up(
        args,
        || {
            round += 1;
            setup(args.seed, dir, round)
        },
        teardown,
    );
    let rss_after_setup = peak_rss_mb();
    let (timed, before, after) = measure(args, &serve);
    teardown(serve);
    let mut out = Outcome::default();
    let complete = end_to_end(&mut out, &timed, setup_s);
    out.correct = timed.failed == 0;
    out.note("setup_s_samples", format!("{setups:?}"));
    out.note("peak_rss_mb_after_setup", json_number(rss_after_setup));
    note_store(&mut out, &before, &after);
    complete.then_some(out)
}

fn note_store(out: &mut Outcome, before: &Value, after: &Value) {
    let hits = counter(after, &["hits"]) - counter(before, &["hits"]);
    let misses = counter(after, &["misses"]) - counter(before, &["misses"]);
    out.note(
        "daemon_store_hit_ratio",
        with_base(ratio(hits as f64, (hits + misses) as f64), hits + misses),
    );
}

/// A raw connection for the traced run: the benchmark encodes, frames and
/// parses itself, so each step gets its own span.
pub struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// What one traced round trip observed.
pub struct RawReply {
    /// The decoded reply, or why there is none.
    pub reply: Result<ExtractReply, String>,
    /// The request line as sent.
    pub request_line: String,
    /// Reply line length, bytes.
    pub reply_bytes: usize,
    /// The round trip, milliseconds.
    pub rtt_ms: f64,
}

impl RawConn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("traced connection");
        stream.set_nodelay(true).expect("nodelay");
        RawConn {
            reader: BufReader::new(stream.try_clone().expect("socket clone")),
            writer: stream,
            next_id: 1,
        }
    }

    fn next_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId::Num(self.next_id - 1)
    }

    /// Writes one request line and reads one reply line.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let mut reply = String::new();
        self.writer
            .write_all(&framed)
            .and_then(|()| self.reader.read_line(&mut reply))
            .map_err(|e| e.to_string())?;
        Ok(reply)
    }

    /// One extract round trip under a `service.rtt` span, with the
    /// request encode and reply parse as child spans.
    pub fn round_trip(&mut self, t: &mut Tracer, req: &ExtractRequest) -> RawReply {
        let id = self.next_id();
        let started = Instant::now();
        let rtt = t.enter("service.rtt");
        let line = t.span("service.request_encode", || req.encode_with_id(&id));
        let exchanged = self.exchange(&line);
        let reply_bytes = exchanged.as_ref().map_or(0, String::len);
        let reply = t.span("service.reply_parse", || {
            let (_, reply) = parse_reply_line(exchanged?.trim_end())?;
            decode_extract_reply(reply)
        });
        t.exit(rtt);
        RawReply {
            reply,
            request_line: line,
            reply_bytes,
            rtt_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// One extract round trip with no spans of its own.
    pub fn round_trip_quiet(&mut self, req: &ExtractRequest) -> Result<ExtractReply, String> {
        let id = self.next_id();
        let reply = self.exchange(&req.encode_with_id(&id))?;
        let (_, reply) = parse_reply_line(reply.trim_end())?;
        decode_extract_reply(reply)
    }
}

/// Replays, on this thread, each public call the daemon's hit path makes
/// for `request_line`, in the daemon's order, against `store` (which
/// holds the same entry). The daemon's fast path in
/// `dexlego_service::server` computes the job key, asks the store whether
/// it holds the key, computes the key again and reads the entry; both
/// key computations count as `harness.job_key` and the lookup and the
/// read as `store.get`.
fn replay_hit_path(t: &mut Tracer, request_line: &str, store: &Store) -> bool {
    let (_, parsed) = t.span("service.request_parse", || parse_request_line(request_line));
    let Ok(Request::Extract(req)) = parsed else {
        return false;
    };
    let Ok(spec) = t.span("dex.read", || req.to_spec("replay")) else {
        return false;
    };
    let Some(key) = t.span("harness.job_key", || job_key(&spec)) else {
        return false;
    };
    if !t.span("store.get", || store.contains(&key)) {
        return false;
    }
    let Some(key) = t.span("harness.job_key", || job_key(&spec)) else {
        return false;
    };
    let Some(hit) = t.span("store.get", || store.get(&key)) else {
        return false;
    };
    let reply = t.span("service.reply_encode", || {
        let packer = spec.packer.map(|id| id.profile().name);
        let report = from_cached(&spec.name, packer, &hit);
        json::object(&[
            ("status", json::string("ok")),
            ("cached", report.cached.to_string()),
            ("dex", json::string(&to_hex(&hit.dex_bytes))),
            ("report", report.to_json()),
        ])
    });
    !reply.is_empty()
}

fn traced(args: &Args, dir: &Path) -> Outcome {
    let (serve, _, _) = set_up(args, || setup(args.seed, dir, 1), teardown);
    let (untraced, _, _) = measure(args, &serve);
    teardown(serve);

    let (serve, _, _) = set_up(args, || setup(args.seed, dir, 2), teardown);
    // The replay store holds the same entries the daemon's store does.
    let replay_dir = dir.join("replay-store");
    let replay = Store::open(StoreConfig::new(&replay_dir)).expect("replay store");
    for entry in &serve.hot {
        let spec = entry
            .req
            .to_spec("replay")
            .expect("generated requests convert");
        let key = job_key(&spec).expect("hot jobs are cacheable");
        replay
            .put(&key, &to_cached(&entry.report, &entry.expected))
            .expect("replay store put");
    }
    let before = stats(&serve.addr);
    let mut t = Tracer::new(Instant::now());
    let mut conn = RawConn::connect(&serve.addr);
    let mut passes = Passes::new(args.seed);
    let (mut ops, mut failed, mut request_bytes, mut reply_bytes) = (0u64, 0u64, 0u64, 0u64);
    let cpu0 = process_cpu_s();
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline {
        let entry = &serve.hot[passes.next(serve.hot.len())];
        t.set_op(ops);
        let raw = conn.round_trip(&mut t, &entry.req);
        let ok = raw
            .reply
            .as_ref()
            .is_ok_and(|reply| check(reply, &entry.expected).is_some());
        let replayed = replay_hit_path(&mut t, &raw.request_line, &replay);
        if !(ok && replayed) {
            failed += 1;
        }
        request_bytes += raw.request_line.len() as u64 + 1;
        reply_bytes += raw.reply_bytes as u64;
        ops += 1;
    }
    let cpu_s = process_cpu_s() - cpu0;
    let after = stats(&serve.addr);
    drop(conn);
    teardown(serve);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let _ = t.write_jsonl(&trace_path(args));

    let mut layers = Layers::default();
    let parts = [
        ("service.request_encode_ms_per_op", "service.request_encode"),
        ("service.request_parse_ms_per_op", "service.request_parse"),
        ("dex.read_ms_per_op", "dex.read"),
        ("harness.job_key_ms_per_op", "harness.job_key"),
        ("store.get_ms_per_op", "store.get"),
        ("service.reply_encode_ms_per_op", "service.reply_encode"),
        ("service.reply_parse_ms_per_op", "service.reply_parse"),
    ];
    let mut attributed_ms = 0.0;
    for (name, span) in parts {
        attributed_ms += t.total_ms(span);
        layers.per(name, t.total_ms(span), ops);
    }
    let rtt_ms = t.total_ms("service.rtt");
    layers.per("service.rtt_ms_per_op", rtt_ms, ops);
    layers.per(
        "service.unattributed_ms_per_op",
        rtt_ms - attributed_ms,
        ops,
    );
    layers.per(
        "service.request_kb_per_op",
        request_bytes as f64 / 1024.0,
        ops,
    );
    layers.per("service.reply_kb_per_op", reply_bytes as f64 / 1024.0, ops);
    let hits = counter(&after, &["hits"]) - counter(&before, &["hits"]);
    let misses = counter(&after, &["misses"]) - counter(&before, &["misses"]);
    layers.set(
        "store.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        hits + misses,
    );
    layers.set("trace.coverage_ratio", ratio(attributed_ms, rtt_ms), ops);
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
    layers.emit(&mut out, "serve_hits", &t);
    out.correct = failed == 0 && untraced.failed == 0;
    out.note(
        "untraced_cpu_ms_per_op",
        json_number(untraced.cpu_ms_per_op()),
    );
    out.note("trace_file", format!("\"{}\"", trace_path(args).display()));
    out
}
