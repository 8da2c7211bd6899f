//! Protocol robustness properties for the multiplexed server.
//!
//! Two layers:
//!
//! 1. the [`Framer`] alone, against a reference line splitter, under
//!    adversarial chunking (byte-at-a-time, torn UTF-8 sequences, torn
//!    JSON escapes, U+2028/U+2029 inside payloads);
//! 2. a live daemon over TCP, fed a random interleaving of valid,
//!    invalid, oversized, and id-tagged frames in random write chunks.
//!    The server must never die, every request line must get exactly one
//!    reply, tagged replies must echo their ids, and id-less replies must
//!    arrive in request order with the right statuses.
//!
//! Failing cases persist their RNG state in
//! `framing_prop.proptest-regressions` (checked in) and are replayed
//! before fresh cases on every run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use dexlego_harness::json;
use dexlego_harness::{JobReport, JobSpec, PoolExecutor};
use dexlego_service::{
    parse_reply_line, Daemon, FrameError, Framer, Reply, RequestId, ServiceConfig,
};
use dexlego_store::{Store, StoreConfig, TempDir};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// One request frame the wire test can emit, with its expected outcome.
#[derive(Debug, Clone)]
enum Op {
    /// A valid op (`ping`/`stats`), optionally tagged.
    Valid {
        op: &'static str,
        id: Option<RequestId>,
    },
    /// Valid JSON with an unknown op: an `error` reply that still echoes
    /// a well-formed id.
    Unknown { id: Option<RequestId> },
    /// Not JSON at all; always id-less (no id can be recovered).
    NotJson,
    /// A line past the server's frame cap: one `error` reply, connection
    /// survives.
    Oversized,
}

impl Op {
    fn line(&self) -> String {
        match self {
            Op::Valid { op, id } => match id {
                Some(id) => json::object(&[("op", json::string(op)), ("id", id.encode())]),
                None => json::object(&[("op", json::string(op))]),
            },
            Op::Unknown { id } => match id {
                Some(id) => json::object(&[("op", json::string("zorp")), ("id", id.encode())]),
                None => json::object(&[("op", json::string("zorp"))]),
            },
            Op::NotJson => "this is definitely } not json".to_owned(),
            Op::Oversized => "x".repeat(OVERSIZED_LEN),
        }
    }

    fn id(&self) -> Option<&RequestId> {
        match self {
            Op::Valid { id, .. } | Op::Unknown { id } => id.as_ref(),
            Op::NotJson | Op::Oversized => None,
        }
    }

    /// The reply status this frame must produce.
    fn expect_ok(&self) -> bool {
        matches!(self, Op::Valid { .. })
    }
}

const MAX_LINE: usize = 512;
const OVERSIZED_LEN: usize = MAX_LINE + 100;

fn id_strategy() -> BoxedStrategy<Option<RequestId>> {
    prop_oneof![
        Just(None),
        (0u64..1000).prop_map(|n| Some(RequestId::Num(n))),
        // String ids with the JS-hostile separators and non-ASCII torn
        // across chunk boundaries by the random chunking below.
        vec(
            select(vec!['a', 'é', '\u{2028}', '\u{2029}', '"', '\\', '漢']),
            1..8
        )
        .prop_map(|chars| Some(RequestId::Str(chars.into_iter().collect()))),
    ]
    .boxed()
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (id_strategy(), select(vec!["ping", "stats"])).prop_map(|(id, op)| Op::Valid { op, id }),
        id_strategy().prop_map(|id| Op::Unknown { id }),
        Just(Op::NotJson),
        Just(Op::Oversized),
    ]
    .boxed()
}

fn reply_status(reply: &Reply) -> &'static str {
    match reply {
        Reply::Ok(_) => "ok",
        Reply::Error(_) => "error",
        Reply::Failed { .. } => "failed",
        Reply::Overloaded { .. } => "overloaded",
        Reply::DeadlineExceeded { .. } => "deadline_exceeded",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The framer yields exactly the lines a straightforward whole-buffer
    /// split would, no matter how the bytes are chunked.
    #[test]
    fn framer_matches_reference_split(
        lines in vec(vec(any::<char>(), 0..40), 0..16),
        chunks in vec(1usize..17, 1..64),
    ) {
        let lines: Vec<String> = lines
            .into_iter()
            .map(|chars| chars.into_iter().collect())
            .collect();
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.push(b'\n');
        }
        let expected: Vec<&String> =
            lines.iter().filter(|l| !l.trim().is_empty()).collect();

        let mut framer = Framer::new(4096);
        let mut got: Vec<String> = Vec::new();
        let mut offset = 0;
        let mut chunk = chunks.iter().cycle();
        while offset < stream.len() {
            let take = (*chunk.next().unwrap()).min(stream.len() - offset);
            framer.push(&stream[offset..offset + take]);
            offset += take;
            while let Some(frame) = framer.pop() {
                match frame {
                    Ok(line) => got.push(line),
                    Err(e) => prop_assert!(false, "unexpected frame error: {e:?}"),
                }
            }
        }
        prop_assert!(!framer.has_partial(), "stream ended mid-frame");
        prop_assert_eq!(got.len(), expected.len());
        for (got, want) in got.iter().zip(expected) {
            prop_assert_eq!(got, want);
        }
    }

    /// An oversized line is reported exactly once however it is chunked,
    /// and the framer recovers cleanly on the next line.
    #[test]
    fn oversized_reports_once_under_any_chunking(
        flood_len in 64usize..2048,
        chunks in vec(1usize..33, 1..32),
    ) {
        let mut stream = Vec::new();
        stream.extend_from_slice(&vec![b'y'; flood_len]);
        stream.push(b'\n');
        stream.extend_from_slice(b"after\n");

        let mut framer = Framer::new(32);
        let mut errors = 0usize;
        let mut ok: Vec<String> = Vec::new();
        let mut offset = 0;
        let mut chunk = chunks.iter().cycle();
        while offset < stream.len() {
            let take = (*chunk.next().unwrap()).min(stream.len() - offset);
            framer.push(&stream[offset..offset + take]);
            offset += take;
            while let Some(frame) = framer.pop() {
                match frame {
                    Ok(line) => ok.push(line),
                    Err(FrameError::Oversized { .. }) => errors += 1,
                    Err(e) => prop_assert!(false, "unexpected error: {e:?}"),
                }
            }
            // The framer never buffers more than the cap plus one chunk.
            prop_assert!(framer.buffered() <= 32 + 33);
        }
        prop_assert_eq!(errors, 1, "one flood, one report");
        prop_assert_eq!(ok, vec!["after".to_owned()]);
    }

    /// Live server: a random interleaving of frames in random write
    /// chunks gets exactly one reply per request line — tagged replies
    /// bearing their ids in any order, id-less replies in request order.
    #[test]
    fn every_frame_gets_exactly_one_reply(
        ops in vec(op_strategy(), 1..14),
        chunks in vec(1usize..48, 1..48),
    ) {
        let dir = TempDir::new("service-framing-prop").unwrap();
        let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
        let exec: PoolExecutor = Arc::new(|spec: JobSpec| {
            (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
        });
        let mut config = ServiceConfig::new(dir.path());
        config.workers = 1;
        config.max_line_bytes = MAX_LINE;
        let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");

        let mut stream = Vec::new();
        for op in &ops {
            stream.extend_from_slice(op.line().as_bytes());
            stream.push(b'\n');
        }

        let sock = TcpStream::connect(daemon.addr()).expect("connect");
        sock.set_nodelay(true).unwrap();
        let mut writer = sock.try_clone().unwrap();
        let mut reader = BufReader::new(sock);

        let mut offset = 0;
        let mut chunk = chunks.iter().cycle();
        while offset < stream.len() {
            let take = (*chunk.next().unwrap()).min(stream.len() - offset);
            writer.write_all(&stream[offset..offset + take]).expect("write chunk");
            offset += take;
        }
        writer.flush().unwrap();

        // Exactly one reply per frame, in any order across tags.
        let mut tagged: Vec<(RequestId, &'static str)> = Vec::new();
        let mut ordered: Vec<&'static str> = Vec::new();
        for _ in 0..ops.len() {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("reply read");
            prop_assert!(n > 0, "server closed before all replies arrived");
            let (id, reply) =
                parse_reply_line(line.trim_end()).expect("reply parses");
            match id {
                Some(id) => tagged.push((id, reply_status(&reply))),
                None => ordered.push(reply_status(&reply)),
            }
        }

        // No extra replies are in flight: the connection goes quiet.
        let mut expected_tagged: Vec<(RequestId, &'static str)> = Vec::new();
        let mut expected_ordered: Vec<&'static str> = Vec::new();
        for op in &ops {
            let status = if op.expect_ok() { "ok" } else { "error" };
            match op.id() {
                Some(id) => expected_tagged.push((id.clone(), status)),
                None => expected_ordered.push(status),
            }
        }
        // Tagged replies: same multiset of (id, status); order is free.
        let sort_key = |(id, status): &(RequestId, &'static str)| {
            (format!("{id:?}"), *status)
        };
        tagged.sort_by_key(sort_key);
        expected_tagged.sort_by_key(sort_key);
        prop_assert_eq!(tagged, expected_tagged);
        // Id-less replies: exact statuses, strictly in request order.
        prop_assert_eq!(ordered, expected_ordered);

        daemon.trigger_shutdown();
        drop(reader);
        drop(writer);
        daemon.wait();
    }
}
