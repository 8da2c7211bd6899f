//! The `dexlegod` wire protocol: newline-delimited JSON over TCP, with
//! optional request ids for pipelining.
//!
//! Every request is one JSON object on one line with an `"op"` member;
//! every reply is one JSON object on one line with a `"status"` member.
//! DEX payloads travel as lowercase hex strings — bulky but dependency-free
//! and trivially debuggable with `nc`.
//!
//! ```text
//! → {"op": "ping"}
//! ← {"status": "ok"}
//! → {"id": 7, "op": "extract", "dex": "6465…", "entry": "Lapp/Main;", "packer": "360"}
//! → {"id": 8, "op": "extract", "dex": "6465…", "entry": "Lapp/Other;"}
//! ← {"id": 8, "status": "ok", "cached": true, "dex": "6465…", "report": {…}}
//! ← {"id": 7, "status": "ok", "cached": false, "dex": "6465…", "report": {…}}
//! → {"op": "stats"}
//! ← {"status": "ok", "stats": {…}}
//! → {"op": "shutdown"}
//! ← {"status": "ok"}        (then the daemon drains and exits)
//! ```
//!
//! **Pipelining.** A request may carry an `"id"` (a string or a
//! non-negative integer). The reply to an id-carrying request echoes the
//! id and may arrive *out of order* — a connection can have many
//! extractions in flight at once. Requests *without* an id keep the
//! original one-in-flight contract: their replies come back in request
//! order, so the old blocking client keeps working unchanged.
//!
//! **Deadlines.** An `extract` may carry `"deadline_ms"`: the maximum
//! milliseconds the request may wait before execution starts. Work that
//! cannot start in time is shed with `{"status": "deadline_exceeded"}`
//! instead of occupying a worker.
//!
//! A saturated daemon answers `{"status": "overloaded", "in_flight": N}`
//! instead of queueing unboundedly; malformed input answers
//! `{"status": "error", "reason": "…"}` without closing the connection
//! (echoing the id whenever one could be recovered from the line).

use dexlego_dex::reader::read_dex;
use dexlego_harness::json::{self, Value};
use dexlego_harness::{input_key, JobSpec, DEFAULT_FUEL};
use dexlego_packer::PackerId;
use dexlego_store::entry::decode as decode_entry;
use dexlego_store::hex::{from_hex, is_hex, to_hex};
use dexlego_store::{CachedResult, Key};

/// A request id: a client-chosen correlation token echoed verbatim on the
/// reply, enabling out-of-order responses on one connection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A non-negative integer id.
    Num(u64),
    /// A string id.
    Str(String),
}

impl RequestId {
    /// The id as a JSON token (numbers bare, strings quoted/escaped).
    pub fn encode(&self) -> String {
        match self {
            RequestId::Num(n) => n.to_string(),
            RequestId::Str(s) => json::string(s),
        }
    }

    /// Extracts the `"id"` member of a parsed request or reply object.
    /// `Ok(None)` when absent; `Err` when present but neither a string nor
    /// a non-negative integer.
    pub fn from_value(value: &Value) -> Result<Option<RequestId>, String> {
        match value.get("id") {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(RequestId::Str(s.clone()))),
            Some(v @ Value::Num(_)) => v
                .as_u64()
                .map(|n| Some(RequestId::Num(n)))
                .ok_or_else(|| "\"id\" must be a string or a non-negative integer".to_owned()),
            Some(_) => Err("\"id\" must be a string or a non-negative integer".to_owned()),
        }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestId::Num(n) => write!(f, "{n}"),
            RequestId::Str(s) => f.write_str(s),
        }
    }
}

/// One extraction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractRequest {
    /// Job name for reports (a server-side sequence number if omitted).
    pub name: Option<String>,
    /// The original application DEX.
    pub dex: Vec<u8>,
    /// Entry activity descriptor.
    pub entry: String,
    /// Packer profile display name (`None` = plain app).
    pub packer: Option<String>,
    /// Fuzzing seeds; each drives one input session.
    pub seeds: Vec<u64>,
    /// Callback events per session.
    pub events: usize,
    /// Instruction budget.
    pub fuel: u64,
    /// Differentially check extracted behaviour.
    pub conformance: bool,
    /// Maximum milliseconds the request may wait before execution starts;
    /// past it the daemon sheds the request with `deadline_exceeded`
    /// instead of running it. `None` = wait indefinitely. Not part of the
    /// cache key — it shapes scheduling, not the result.
    pub deadline_ms: Option<u64>,
}

impl ExtractRequest {
    /// A request for `dex`/`entry` with the harness's default driving
    /// parameters.
    pub fn new(dex: Vec<u8>, entry: &str) -> ExtractRequest {
        ExtractRequest {
            name: None,
            dex,
            entry: entry.to_owned(),
            packer: None,
            seeds: vec![1],
            events: 2,
            fuel: DEFAULT_FUEL,
            conformance: false,
            deadline_ms: None,
        }
    }

    /// The store key of the request ([`input_key`]): its DEX bytes as
    /// received and its driving parameters, with no parse of the DEX. A
    /// daemon serves a hit and a router places a request by it.
    ///
    /// # Errors
    ///
    /// Unknown packer names.
    pub fn key(&self) -> Result<Key, String> {
        Ok(input_key(
            &self.dex,
            &self.entry,
            self.packer_id()?,
            &self.seeds,
            self.events,
            self.fuel,
            self.conformance,
        ))
    }

    fn packer_id(&self) -> Result<Option<PackerId>, String> {
        self.packer
            .as_deref()
            .map(|name| PackerId::by_name(name).ok_or_else(|| format!("unknown packer: {name}")))
            .transpose()
    }

    /// Converts the request into a harness job.
    ///
    /// # Errors
    ///
    /// Unparseable DEX payloads and unknown packer names.
    pub fn to_spec(&self, fallback_name: &str) -> Result<JobSpec, String> {
        let dex = read_dex(&self.dex).map_err(|e| format!("bad dex payload: {e}"))?;
        let packer = self.packer_id()?;
        let mut spec = JobSpec::new(
            self.name.as_deref().unwrap_or(fallback_name),
            dex,
            &self.entry,
        );
        spec.packer = packer;
        spec.seeds = self.seeds.clone();
        spec.events = self.events;
        spec.fuel = self.fuel;
        spec.check_conformance = self.conformance;
        Ok(spec)
    }

    /// The request as one wire line (no trailing newline), without an id —
    /// the original one-in-flight mode.
    pub fn encode(&self) -> String {
        self.encode_inner(None)
    }

    /// The request as one wire line carrying `id`, for pipelined mode.
    pub fn encode_with_id(&self, id: &RequestId) -> String {
        self.encode_inner(Some(id))
    }

    fn encode_inner(&self, id: Option<&RequestId>) -> String {
        let mut line = String::with_capacity(self.dex.len() * 2 + 256);
        let mut obj = json::ObjectWriter::new(&mut line);
        if let Some(id) = id {
            obj.raw("id", &id.encode());
        }
        obj.string("op", "extract");
        if let Some(name) = &self.name {
            obj.string("name", name);
        }
        obj.hex("dex", &self.dex);
        obj.string("entry", &self.entry);
        match &self.packer {
            Some(packer) => obj.string("packer", packer),
            None => obj.raw("packer", "null"),
        }
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        obj.raw("seeds", &json::array(&seeds));
        obj.raw("events", &self.events.to_string());
        obj.raw("fuel", &self.fuel.to_string());
        obj.raw("conformance", &self.conformance.to_string());
        if let Some(deadline) = self.deadline_ms {
            obj.raw("deadline_ms", &deadline.to_string());
        }
        obj.finish();
        line
    }
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Service counters.
    Stats,
    /// Graceful drain-and-exit.
    Shutdown,
    /// One extraction.
    Extract(Box<ExtractRequest>),
    /// Best-effort cancellation of a still-pending tagged request on the
    /// same connection (`"target"` is its id). A request already handed to
    /// a worker keeps running; the reply reports which case applied. The
    /// router uses this to revoke the losing half of a hedged pair so
    /// wasted hedges do not occupy backend queue slots.
    Cancel(RequestId),
    /// Injects an already-extracted result into the daemon's store without
    /// running the pipeline: `"key"` is the 40-hex content address,
    /// `"entry"` the hex-encoded store payload. Write-if-absent — a local
    /// fill always beats a backfill. This is the replication/read-repair
    /// write path of the routing tier.
    Backfill {
        /// Content address the entry claims to answer.
        key: Key,
        /// The decoded entry payload.
        entry: Box<CachedResult>,
    },
    /// Reads the store entry for `"key"` without running anything: the
    /// reply is `{"found": bool}` plus the hex `"entry"` payload when
    /// present. This is the replication/read-repair *read* path — the
    /// routing tier pulls the entry off the hot path instead of asking
    /// every extract reply to carry it.
    Fetch(Key),
}

impl Request {
    /// The request as one wire line, for ops without a payload.
    pub fn encode_simple(op: &str) -> String {
        json::object(&[("op", json::string(op))])
    }

    /// A `cancel` line (optionally tagged with its own `id`) revoking the
    /// pending request whose id is `target`.
    pub fn encode_cancel(id: Option<&RequestId>, target: &RequestId) -> String {
        let mut members = Vec::new();
        if let Some(id) = id {
            members.push(("id", id.encode()));
        }
        members.push(("op", json::string("cancel")));
        members.push(("target", target.encode()));
        json::object(&members)
    }

    /// A `backfill` line (optionally tagged) carrying `entry_payload` — the
    /// output of `dexlego_store::entry::encode` — for `key`.
    pub fn encode_backfill(id: Option<&RequestId>, key: &Key, entry_payload: &[u8]) -> String {
        Request::encode_backfill_hex(id, key, &to_hex(entry_payload)).expect("to_hex writes hex")
    }

    /// [`Request::encode_backfill`] for an entry payload that is already
    /// hex, as a `fetch` reply carries it: the digits are spliced in as
    /// they are, so a relay forwards an entry without decoding it. `None`
    /// when `entry_hex` is not hex. The receiver decodes and checks the
    /// entry as it would any other.
    pub fn encode_backfill_hex(
        id: Option<&RequestId>,
        key: &Key,
        entry_hex: &str,
    ) -> Option<String> {
        if !is_hex(entry_hex) {
            return None;
        }
        let mut line = String::with_capacity(entry_hex.len() + 128);
        let mut obj = json::ObjectWriter::new(&mut line);
        if let Some(id) = id {
            obj.raw("id", &id.encode());
        }
        obj.string("op", "backfill");
        obj.string("key", &key.to_hex());
        // Hex needs no escape, so the digits go in as they are.
        obj.string("entry", entry_hex);
        obj.finish();
        Some(line)
    }

    /// A `fetch` line (optionally tagged) asking for the stored entry
    /// under `key`.
    pub fn encode_fetch(id: Option<&RequestId>, key: &Key) -> String {
        let mut members = Vec::new();
        if let Some(id) = id {
            members.push(("id", id.encode()));
        }
        members.push(("op", json::string("fetch")));
        members.push(("key", json::string(&key.to_hex())));
        json::object(&members)
    }
}

/// Parses one request line, discarding any id.
///
/// # Errors
///
/// Malformed JSON, missing/unknown `op`, or invalid `extract` fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_line(line).1
}

/// Parses one request line into its id (if any) and request.
///
/// The id comes back even when the request itself is in error, as long as
/// the line was valid JSON with a well-formed `"id"` member — the server
/// echoes it on the error reply so a pipelining client can correlate the
/// failure. A malformed id is itself a request error (with no id echoed:
/// echoing a token the client did not send would corrupt correlation).
pub fn parse_request_line(line: &str) -> (Option<RequestId>, Result<Request, String>) {
    let value = match json::parse(line) {
        Ok(value) => value,
        Err(e) => return (None, Err(e)),
    };
    let id = match RequestId::from_value(&value) {
        Ok(id) => id,
        Err(e) => return (None, Err(e)),
    };
    (id, request_from_value(&value))
}

fn request_from_value(value: &Value) -> Result<Request, String> {
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"op\"".to_owned())?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => {
            let target = value
                .get("target")
                .ok_or_else(|| "cancel: missing \"target\"".to_owned())?;
            let target = match target {
                Value::Str(s) => RequestId::Str(s.clone()),
                v @ Value::Num(_) => RequestId::Num(v.as_u64().ok_or_else(|| {
                    "cancel: \"target\" must be a string or non-negative integer".to_owned()
                })?),
                _ => {
                    return Err(
                        "cancel: \"target\" must be a string or non-negative integer".to_owned(),
                    )
                }
            };
            Ok(Request::Cancel(target))
        }
        "backfill" => {
            let key = value
                .get("key")
                .and_then(Value::as_str)
                .and_then(Key::from_hex)
                .ok_or_else(|| "backfill: \"key\" must be 40 hex characters".to_owned())?;
            let payload = value
                .get("entry")
                .and_then(Value::as_str)
                .and_then(from_hex)
                .ok_or_else(|| "backfill: \"entry\" must be a hex string".to_owned())?;
            let entry = decode_entry(&payload).map_err(|e| format!("backfill: bad entry: {e}"))?;
            Ok(Request::Backfill {
                key,
                entry: Box::new(entry),
            })
        }
        "fetch" => {
            let key = value
                .get("key")
                .and_then(Value::as_str)
                .and_then(Key::from_hex)
                .ok_or_else(|| "fetch: \"key\" must be 40 hex characters".to_owned())?;
            Ok(Request::Fetch(key))
        }
        "extract" => {
            let dex_hex = value
                .get("dex")
                .and_then(Value::as_str)
                .ok_or_else(|| "extract: missing \"dex\"".to_owned())?;
            let dex =
                from_hex(dex_hex).ok_or_else(|| "extract: \"dex\" is not valid hex".to_owned())?;
            let entry = value
                .get("entry")
                .and_then(Value::as_str)
                .ok_or_else(|| "extract: missing \"entry\"".to_owned())?
                .to_owned();
            let packer = match value.get("packer") {
                None => None,
                Some(v) if v.is_null() => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| "extract: \"packer\" must be a string or null".to_owned())?
                        .to_owned(),
                ),
            };
            let seeds = match value.get("seeds") {
                None => vec![1],
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| "extract: \"seeds\" must be an array".to_owned())?
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .ok_or_else(|| "extract: seeds must be u64".to_owned())
                    })
                    .collect::<Result<Vec<u64>, String>>()?,
            };
            let u64_field = |key: &str, default: u64| -> Result<u64, String> {
                match value.get(key) {
                    None => Ok(default),
                    Some(v) => v
                        .as_u64()
                        .ok_or_else(|| format!("extract: \"{key}\" must be a u64")),
                }
            };
            let events = u64_field("events", 2)? as usize;
            let fuel = u64_field("fuel", DEFAULT_FUEL)?;
            let deadline_ms = match value.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| "extract: \"deadline_ms\" must be a u64".to_owned())?,
                ),
            };
            let conformance = match value.get("conformance") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| "extract: \"conformance\" must be a boolean".to_owned())?,
            };
            let name = match value.get("name") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| "extract: \"name\" must be a string".to_owned())?
                        .to_owned(),
                ),
            };
            Ok(Request::Extract(Box::new(ExtractRequest {
                name,
                dex,
                entry,
                packer,
                seeds,
                events,
                fuel,
                conformance,
                deadline_ms,
            })))
        }
        other => Err(format!("unknown op: {other}")),
    }
}

/// Appends one reply line, newline included, to `out`: `reply` with
/// `"id": …` injected as its first member when the request carried an
/// id. Every reply is built as a JSON object with a `status` member, so
/// it starts with `{` and is never `{}`. The daemon and the router frame
/// every reply through here, as one contiguous append: payload and
/// newline never go out as separate small writes (Nagle + delayed-ACK
/// stalls). The router frames each request it forwards the same way,
/// encoded once and given each backend's own id.
pub fn push_reply_line(out: &mut Vec<u8>, id: Option<&RequestId>, reply: &str) {
    match id {
        Some(id) => {
            debug_assert!(reply.starts_with('{') && !reply.starts_with("{}"));
            let id = id.encode();
            out.reserve(reply.len() + id.len() + 9);
            out.extend_from_slice(b"{\"id\": ");
            out.extend_from_slice(id.as_bytes());
            out.extend_from_slice(b", ");
            out.extend_from_slice(&reply.as_bytes()[1..]);
        }
        None => {
            out.reserve(reply.len() + 1);
            out.extend_from_slice(reply.as_bytes());
        }
    }
    out.push(b'\n');
}

/// A reply line as a daemon framed it, turned back into a reply body for
/// [`push_reply_line`]: the leading `"id"` member it carries for `id` is
/// cut out in place and every other byte stays as received. A relay
/// frames the body under its own client's id, so the id is swapped,
/// inserted or dropped without re-encoding the reply.
pub fn reply_body(mut line: String, id: Option<&RequestId>) -> String {
    if let Some(id) = id {
        let member = format!("\"id\": {}, ", id.encode());
        if line.starts_with('{') && line[1..].starts_with(&member) {
            line.replace_range(1..=member.len(), "");
        }
    }
    line
}

/// The body of an `error` reply.
pub fn error_reply(reason: &str) -> String {
    json::object(&[
        ("status", json::string("error")),
        ("reason", json::string(reason)),
    ])
}

/// A decoded reply line, from the client's point of view.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `{"status": "ok"}` with whatever extra members the op defines.
    Ok(Value),
    /// The job ran but did not succeed (timeout, verifier rejection, …).
    Failed {
        /// The job's terminal status label.
        job_status: String,
        /// Failure detail, if any.
        detail: Option<String>,
        /// The full job report.
        report: Value,
    },
    /// The daemon shed the request; retry later.
    Overloaded {
        /// Jobs admitted but not yet completed at rejection time.
        in_flight: u64,
    },
    /// The request's deadline passed before execution could start.
    DeadlineExceeded {
        /// How long the request actually waited, milliseconds.
        waited_ms: u64,
    },
    /// Protocol-level error (malformed request, bad payload).
    Error(String),
}

/// Parses one reply line, discarding any id.
///
/// # Errors
///
/// Malformed JSON or a missing/unknown `status` member.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    parse_reply_line(line).map(|(_, reply)| reply)
}

/// Parses one reply line into its echoed id (if any) and reply — the
/// pipelined client's receive path.
///
/// # Errors
///
/// Malformed JSON, a malformed id, or a missing/unknown `status` member.
pub fn parse_reply_line(line: &str) -> Result<(Option<RequestId>, Reply), String> {
    let value = json::parse(line)?;
    let id = RequestId::from_value(&value)?;
    let reply = reply_from_value(value)?;
    Ok((id, reply))
}

fn reply_from_value(value: Value) -> Result<Reply, String> {
    let status = value
        .get("status")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"status\"".to_owned())?;
    match status {
        "ok" => Ok(Reply::Ok(value)),
        "failed" => {
            let job_status = value
                .get("job_status")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned();
            let detail = value
                .get("detail")
                .and_then(Value::as_str)
                .map(str::to_owned);
            let report = value.get("report").cloned().unwrap_or(Value::Null);
            Ok(Reply::Failed {
                job_status,
                detail,
                report,
            })
        }
        "overloaded" => Ok(Reply::Overloaded {
            in_flight: value.get("in_flight").and_then(Value::as_u64).unwrap_or(0),
        }),
        "deadline_exceeded" => Ok(Reply::DeadlineExceeded {
            waited_ms: value.get("waited_ms").and_then(Value::as_u64).unwrap_or(0),
        }),
        "error" => Ok(Reply::Error(
            value
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("unspecified")
                .to_owned(),
        )),
        other => Err(format!("unknown status: {other}")),
    }
}

/// Golden wire lines: fixtures shared by the encoder tests, and the
/// check against the lines checked in under `tests/golden/`. perfbench's
/// raw line client and `dexlegod-smoke` speak these exact bytes.
#[cfg(test)]
pub(crate) mod golden {
    use std::path::Path;

    /// A small fixed DEX. The encoders treat the payload as opaque
    /// bytes, so a magic-prefixed stand-in that uses every hex digit in
    /// both nibbles pins the payload encoding.
    pub const DEX: &[u8] =
        b"dex\n035\0\x00\x01\x23\x45\x67\x89\xab\xcd\xef\xfe\xdc\xba\x98\x76\x54\x32\x10\xff";

    /// Asserts `line` equals the golden file `name` byte for byte.
    pub fn assert_golden(name: &str, line: &[u8]) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            line == want.as_slice(),
            "{name}: wire bytes changed\n got: {}\nwant: {}",
            String::from_utf8_lossy(line),
            String::from_utf8_lossy(&want)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExtractRequest {
        ExtractRequest {
            name: Some("job-1".to_owned()),
            dex: vec![0x64, 0x65, 0x78, 0x00, 0xff],
            entry: "Lapp/Main;".to_owned(),
            packer: Some("360".to_owned()),
            seeds: vec![1, u64::MAX],
            events: 3,
            fuel: 5_000_000,
            conformance: true,
            deadline_ms: Some(250),
        }
    }

    #[test]
    fn extract_request_line_is_golden() {
        let req = ExtractRequest {
            dex: golden::DEX.to_vec(),
            ..sample()
        };
        let line = req.encode_with_id(&RequestId::Num(7));
        golden::assert_golden("extract_request.line", line.as_bytes());
    }

    #[test]
    fn extract_roundtrips_through_the_wire() {
        let req = sample();
        let line = req.encode();
        let (id, parsed) = parse_request_line(&line);
        assert_eq!(id, None);
        match parsed.unwrap() {
            Request::Extract(parsed) => assert_eq!(*parsed, req),
            other => panic!("parsed as {other:?}"),
        }
    }

    /// A line from a client that still sends the retired `want_entry`
    /// member is the same request: unknown members are ignored.
    #[test]
    fn retired_want_entry_member_is_ignored() {
        let req = sample();
        let line = req.encode();
        let old = format!("{}, \"want_entry\": true}}", &line[..line.len() - 1]);
        match parse_request(&old).unwrap() {
            Request::Extract(parsed) => assert_eq!(*parsed, req),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn ids_roundtrip_in_both_directions() {
        let req = sample();
        for id in [RequestId::Num(42), RequestId::Str("job/7 \"q\"".to_owned())] {
            let line = req.encode_with_id(&id);
            let (parsed_id, parsed) = parse_request_line(&line);
            assert_eq!(parsed_id.as_ref(), Some(&id));
            match parsed.unwrap() {
                Request::Extract(parsed) => assert_eq!(*parsed, req),
                other => panic!("parsed as {other:?}"),
            }
            let reply = format!("{{\"id\": {}, \"status\": \"ok\"}}", id.encode());
            let (echoed, reply) = parse_reply_line(&reply).unwrap();
            assert_eq!(echoed, Some(id));
            assert!(matches!(reply, Reply::Ok(_)));
        }
    }

    #[test]
    fn bad_ids_are_request_errors_that_still_parse_the_rest() {
        for bad in [
            r#"{"id": -3, "op": "ping"}"#,
            r#"{"id": 1.5, "op": "ping"}"#,
            r#"{"id": [1], "op": "ping"}"#,
            r#"{"id": null, "op": "ping"}"#,
        ] {
            let (id, parsed) = parse_request_line(bad);
            assert_eq!(id, None, "{bad}");
            assert!(parsed.is_err(), "{bad} accepted");
        }
        // An id on a bad op still comes back for the error reply.
        let (id, parsed) = parse_request_line(r#"{"id": 9, "op": "warp"}"#);
        assert_eq!(id, Some(RequestId::Num(9)));
        assert!(parsed.is_err());
    }

    #[test]
    fn extract_defaults_apply() {
        let line = r#"{"op": "extract", "dex": "", "entry": "LMain;"}"#;
        match parse_request(line).unwrap() {
            Request::Extract(req) => {
                assert_eq!(req.seeds, vec![1]);
                assert_eq!(req.events, 2);
                assert_eq!(req.fuel, DEFAULT_FUEL);
                assert!(!req.conformance);
                assert_eq!(req.packer, None);
                assert_eq!(req.name, None);
                assert_eq!(req.deadline_ms, None);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn cancel_roundtrips_and_validates() {
        let line = Request::encode_cancel(Some(&RequestId::Num(3)), &RequestId::Num(7));
        let (id, parsed) = parse_request_line(&line);
        assert_eq!(id, Some(RequestId::Num(3)));
        assert_eq!(parsed.unwrap(), Request::Cancel(RequestId::Num(7)));
        let line = Request::encode_cancel(None, &RequestId::Str("j/1".to_owned()));
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Cancel(RequestId::Str("j/1".to_owned()))
        );
        for bad in [
            r#"{"op": "cancel"}"#,
            r#"{"op": "cancel", "target": -1}"#,
            r#"{"op": "cancel", "target": [7]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn backfill_roundtrips_and_validates() {
        let entry = CachedResult {
            dex_bytes: vec![1, 2, 3],
            counters: vec![("insns".to_owned(), 7)],
            ..CachedResult::default()
        };
        let key = Key::new([0xab; 20]);
        let payload = dexlego_store::entry::encode(&entry);
        let line = Request::encode_backfill(None, &key, &payload);
        match parse_request(&line).unwrap() {
            Request::Backfill {
                key: parsed_key,
                entry: parsed_entry,
            } => {
                assert_eq!(parsed_key, key);
                assert_eq!(*parsed_entry, entry);
            }
            other => panic!("parsed as {other:?}"),
        }
        for bad in [
            r#"{"op": "backfill"}"#,
            r#"{"op": "backfill", "key": "ab", "entry": ""}"#,
            r#"{"op": "backfill", "key": "abababababababababababababababababababab", "entry": "zz"}"#,
            // Well-formed hex that is not a valid entry payload.
            r#"{"op": "backfill", "key": "abababababababababababababababababababab", "entry": "00"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn fetch_roundtrips_and_validates() {
        let key = Key::new([0xcd; 20]);
        let line = Request::encode_fetch(Some(&RequestId::Num(9)), &key);
        let (id, parsed) = parse_request_line(&line);
        assert_eq!(id, Some(RequestId::Num(9)));
        assert_eq!(parsed.unwrap(), Request::Fetch(key));
        for bad in [
            r#"{"op": "fetch"}"#,
            r#"{"op": "fetch", "key": "ab"}"#,
            r#"{"op": "fetch", "key": 7}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(
            parse_request(&Request::encode_simple("ping")).unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request(&Request::encode_simple("stats")).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(&Request::encode_simple("shutdown")).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{}",
            r#"{"op": "warp"}"#,
            r#"{"op": "extract"}"#,
            r#"{"op": "extract", "dex": "zz", "entry": "L;"}"#,
            r#"{"op": "extract", "dex": "", "entry": "L;", "seeds": [1.5]}"#,
            r#"{"op": "extract", "dex": "", "entry": "L;", "fuel": "lots"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn to_spec_validates_payload_and_packer() {
        let mut req = sample();
        assert!(req.to_spec("fallback").is_err(), "garbage dex rejected");
        req.packer = Some("nonesuch".to_owned());
        assert!(req.to_spec("fallback").is_err());
    }

    /// A key reads no DEX, so garbage bytes get one of their own; only an
    /// unknown packer is refused.
    #[test]
    fn key_reads_no_dex_and_validates_the_packer() {
        let mut req = sample();
        let key = req.key().expect("garbage bytes still key");
        req.dex.push(0);
        assert_ne!(req.key().expect("keys"), key);
        req.packer = Some("nonesuch".to_owned());
        assert!(req.key().is_err());
    }

    /// The store keys of writer-made requests, one generated app under
    /// every packer configuration, as `job_key` of the parsed job gave
    /// them before keys covered the bytes as received. A change here
    /// strands every persistent store's entries.
    #[test]
    fn writer_made_requests_keep_their_store_keys() {
        const PINNED: [&str; 7] = [
            "59744c3aae544278e20620d4831efaf6265ea807",
            "6b8da0a83da10976daeddf715afb9912d965b847",
            "3a0316e52e564e8611cf121263281e09967a4e4e",
            "aa2cf174effc9c2aa61c9360874966d316fc5c40",
            "916deb0e4a7c5ff2f7d96d4fb536e6631b802897",
            "fb44f5026cadcfdb861ecbf5b3b1188e25e1e9b3",
            "510419eb65e518099f5785e5d68b57795902bc36",
        ];
        let (_, app) = dexlego_droidbench::appgen::corpus_apps(1, 60).remove(0);
        let dex = dexlego_dex::writer::write_dex(&app.dex).expect("the app writes");
        let packers = dexlego_harness::all_packers();
        assert_eq!(packers.len(), PINNED.len());
        for (packer, pinned) in packers.into_iter().zip(PINNED) {
            let mut req = ExtractRequest::new(dex.clone(), &app.entry);
            req.packer = packer.map(|id| id.profile().name.to_owned());
            let spec = req.to_spec("pin").expect("the request converts");
            let job_key = dexlego_harness::job_key(&spec).expect("cacheable");
            assert_eq!(req.key().map(Key::to_hex).as_deref(), Ok(pinned));
            assert_eq!(job_key.to_hex(), pinned, "{:?}", req.packer);
            // Packer names match in any case; the key uses the profile's.
            req.packer = req.packer.map(|name| name.to_ascii_uppercase());
            assert_eq!(req.key().map(Key::to_hex).as_deref(), Ok(pinned));
        }
    }

    /// A relay forwards a fetched entry as the hex a daemon's `fetch`
    /// reply carried, and the `backfill` line it makes is byte for byte
    /// the one re-encoding the decoded entry would make.
    #[test]
    fn a_fetched_entry_is_forwarded_as_received() {
        let entry = CachedResult {
            dex_bytes: (0..=255).collect(),
            counters: vec![("insns".to_owned(), 7)],
            ..CachedResult::default()
        };
        let (key, payload) = (Key::new([0x3c; 20]), dexlego_store::entry::encode(&entry));
        let mut fetched = String::new();
        let mut obj = json::ObjectWriter::new(&mut fetched);
        obj.string("status", "ok");
        obj.raw("found", "true");
        obj.hex("entry", &payload);
        obj.finish();
        let Ok(Reply::Ok(value)) = parse_reply(&fetched) else {
            panic!("the fetch reply parses: {fetched}");
        };
        let hex = value
            .get("entry")
            .and_then(Value::as_str)
            .expect("hex entry");
        assert_eq!(
            Request::encode_backfill_hex(None, &key, hex),
            Some(Request::encode_backfill(None, &key, &payload))
        );
        for bad in ["0", "zz", "0g"] {
            assert_eq!(Request::encode_backfill_hex(None, &key, bad), None);
        }
    }

    #[test]
    fn replies_parse() {
        assert!(matches!(
            parse_reply(r#"{"status": "ok", "cached": true}"#).unwrap(),
            Reply::Ok(_)
        ));
        match parse_reply(r#"{"status": "failed", "job_status": "timeout"}"#).unwrap() {
            Reply::Failed { job_status, .. } => assert_eq!(job_status, "timeout"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_reply(r#"{"status": "overloaded", "in_flight": 7}"#).unwrap(),
            Reply::Overloaded { in_flight: 7 }
        );
        assert_eq!(
            parse_reply(r#"{"status": "deadline_exceeded", "waited_ms": 31}"#).unwrap(),
            Reply::DeadlineExceeded { waited_ms: 31 }
        );
        assert_eq!(
            parse_reply(r#"{"status": "error", "reason": "nope"}"#).unwrap(),
            Reply::Error("nope".to_owned())
        );
        assert!(parse_reply(r#"{"status": "odd"}"#).is_err());
    }
}
