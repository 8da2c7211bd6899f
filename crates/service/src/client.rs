//! Clients for the `dexlegod` wire protocol.
//!
//! [`Client`] is the original strictly-serial blocking client — one
//! request, one reply, in order. It sends no request ids, which the
//! server recognises as the compatibility contract: replies to id-less
//! requests always come back in request order, so this client keeps
//! working unchanged against the multiplexed server. It reports plain
//! [`io::Error`]s, as it always has.
//!
//! [`PipelinedClient`] speaks the pipelined dialect: every request
//! carries an id, many may be in flight on one connection, and replies
//! arrive in whatever order the work finishes. It reports typed
//! [`ClientError`]s so callers can tell a dead connection (reconnect
//! and resend) from a protocol violation (give up). The load harness,
//! perfbench and the multiplexing tests are built on it.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

use dexlego_harness::json::Value;
use dexlego_store::hex::from_hex;
use dexlego_store::Key;

use crate::protocol::{parse_reply, parse_reply_line, ExtractRequest, Reply, Request, RequestId};

/// Why a [`PipelinedClient`] call failed, split by what the caller can
/// do about it.
#[derive(Debug)]
pub enum ClientError {
    /// No connection could be established. Retrying later may help;
    /// resending is safe because nothing was ever accepted.
    Connect {
        /// The address dialled.
        addr: String,
        /// Why the dial failed.
        last: io::Error,
    },
    /// An established connection died mid-conversation. In-flight
    /// requests are in an unknown state; reconnect and resend anything
    /// idempotent.
    Lost(io::Error),
    /// The peer sent bytes that do not parse as the protocol. The
    /// connection is not trustworthy; do not resend on it.
    Protocol(String),
    /// A well-formed reply of the wrong shape for the call that was
    /// made (e.g. `overloaded` where only `ok` makes sense).
    Unexpected(String),
    /// Any other I/O failure (local resource limits, etc.).
    Io(io::Error),
}

impl ClientError {
    /// Classifies an [`io::Error`] from an established connection:
    /// peer-gone kinds become [`ClientError::Lost`], everything else
    /// stays [`ClientError::Io`].
    fn from_io(e: io::Error) -> ClientError {
        match e.kind() {
            io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof => ClientError::Lost(e),
            _ => ClientError::Io(e),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect { addr, last } => write!(f, "connect to {addr} failed: {last}"),
            ClientError::Lost(e) => write!(f, "connection lost: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Unexpected(msg) => write!(f, "unexpected reply: {msg}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> io::Error {
        match e {
            ClientError::Connect { last, .. } => last,
            ClientError::Lost(inner) | ClientError::Io(inner) => inner,
            ClientError::Protocol(msg) | ClientError::Unexpected(msg) => {
                io::Error::new(io::ErrorKind::InvalidData, msg)
            }
        }
    }
}

/// Shorthand for pipelined-client results.
pub type ClientResult<T> = Result<T, ClientError>;

/// The outcome of one `extract` round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractReply {
    /// The job succeeded; `dex` is the revealed, reassembled DEX.
    Done {
        /// Whether the result was served from the store.
        cached: bool,
        /// The revealed DEX bytes.
        dex: Vec<u8>,
        /// The full job report.
        report: Value,
    },
    /// The job ran but did not succeed.
    Failed {
        /// Terminal status label.
        job_status: String,
        /// Failure detail, if any.
        detail: Option<String>,
    },
    /// The daemon shed the request.
    Overloaded,
    /// The request's deadline passed before execution could start.
    DeadlineExceeded {
        /// How long the request waited before being shed, milliseconds.
        waited_ms: u64,
    },
}

/// Decodes an extract-shaped reply into an [`ExtractReply`].
///
/// # Errors
///
/// A malformed `ok` reply or a protocol-level `error` reply.
pub fn decode_extract_reply(reply: Reply) -> Result<ExtractReply, String> {
    match reply {
        Reply::Ok(value) => {
            let cached = value
                .get("cached")
                .and_then(Value::as_bool)
                .ok_or_else(|| "ok reply without \"cached\"".to_owned())?;
            let dex_hex = value
                .get("dex")
                .and_then(Value::as_str)
                .ok_or_else(|| "ok reply without \"dex\"".to_owned())?;
            let dex =
                from_hex(dex_hex).ok_or_else(|| "ok reply with non-hex \"dex\"".to_owned())?;
            let report = value.get("report").cloned().unwrap_or(Value::Null);
            Ok(ExtractReply::Done {
                cached,
                dex,
                report,
            })
        }
        Reply::Failed {
            job_status, detail, ..
        } => Ok(ExtractReply::Failed { job_status, detail }),
        Reply::Overloaded { .. } => Ok(ExtractReply::Overloaded),
        Reply::DeadlineExceeded { waited_ms } => Ok(ExtractReply::DeadlineExceeded { waited_ms }),
        Reply::Error(reason) => Err(reason),
    }
}

/// One connection to a `dexlegod` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply lines are written whole; never wait on Nagle.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line without waiting for the reply. Pairing
    /// with [`Client::recv`] lets tests pipeline several requests to
    /// saturate the daemon's admission queue.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        // One write per line: interleaving payload and newline as separate
        // small writes stalls on Nagle + delayed-ACK.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    /// Reads and decodes one reply line.
    ///
    /// # Errors
    ///
    /// Read failures, a closed connection, or an undecodable reply.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        parse_reply(line.trim_end()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn round_trip(&mut self, line: &str) -> io::Result<Reply> {
        self.send_line(line)?;
        self.recv()
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`ok` reply.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::encode_simple("ping"))? {
            Reply::Ok(_) => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits one extraction and waits for the result.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol errors, or a malformed `ok` reply.
    pub fn extract(&mut self, req: &ExtractRequest) -> io::Result<ExtractReply> {
        let reply = self.round_trip(&req.encode())?;
        decode_extract_reply(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Fetches the service counters (the `"stats"` member of the reply).
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`ok` reply.
    pub fn stats(&mut self) -> io::Result<Value> {
        match self.round_trip(&Request::encode_simple("stats"))? {
            Reply::Ok(value) => Ok(value.get("stats").cloned().unwrap_or(Value::Null)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`ok` reply.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::encode_simple("shutdown"))? {
            Reply::Ok(_) => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply: {reply:?}"),
    )
}

/// A blocking client that keeps many tagged requests in flight on one
/// connection and collects replies in completion order.
///
/// The caller owns the windowing policy: it decides how many sends to
/// issue before each receive. Ids are assigned by the client
/// ([`RequestId::Num`], monotonically increasing) and returned from
/// [`PipelinedClient::send_extract`] so callers can correlate.
///
/// Sends are buffered: a burst of [`PipelinedClient::send_extract`]
/// calls goes out as one write when the client turns around to read (or
/// on [`PipelinedClient::flush`]), so a window of requests costs one
/// syscall, not one per request.
pub struct PipelinedClient {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl PipelinedClient {
    /// Connects to `addr` with a single dial attempt.
    ///
    /// # Errors
    ///
    /// Connection failures ([`ClientError::Connect`]).
    pub fn connect(addr: &str) -> ClientResult<PipelinedClient> {
        let stream = TcpStream::connect(addr).map_err(|last| ClientError::Connect {
            addr: addr.to_owned(),
            last,
        })?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        let writer = BufWriter::new(stream.try_clone().map_err(ClientError::Io)?);
        Ok(PipelinedClient {
            writer,
            reader: BufReader::new(stream),
            next_id: 0,
        })
    }

    /// Buffers `line` under a fresh id and returns the id.
    fn send_line(&mut self, line: impl FnOnce(&RequestId) -> String) -> ClientResult<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let line = line(&RequestId::Num(id));
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(ClientError::from_io)?;
        Ok(id)
    }

    /// Sends one extract request tagged with a fresh id, without waiting
    /// for any reply (buffered until the next receive or
    /// [`PipelinedClient::flush`]). Returns the id assigned.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_extract(&mut self, req: &ExtractRequest) -> ClientResult<u64> {
        self.send_line(|id| req.encode_with_id(id))
    }

    /// Sends a simple tagged op (`ping`, `stats`, `shutdown`). Returns
    /// the id assigned.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_op(&mut self, op: &str) -> ClientResult<u64> {
        self.send_line(|id| format!("{{\"op\": {op:?}, \"id\": {id}}}"))
    }

    /// Sends a cancel for the not-yet-dispatched request `target`.
    /// Returns the id of the cancel request itself.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_cancel(&mut self, target: u64) -> ClientResult<u64> {
        self.send_line(|id| Request::encode_cancel(Some(id), &RequestId::Num(target)))
    }

    /// Offers the server a finished result for `key`; kept only if
    /// absent. Returns the id assigned.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_backfill(&mut self, key: &Key, entry_payload: &[u8]) -> ClientResult<u64> {
        self.send_line(|id| Request::encode_backfill(Some(id), key, entry_payload))
    }

    /// Asks the server for the stored entry under `key`. Returns the id
    /// assigned.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_fetch(&mut self, key: &Key) -> ClientResult<u64> {
        self.send_line(|id| Request::encode_fetch(Some(id), key))
    }

    /// Pushes any buffered requests onto the wire without reading.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn flush(&mut self) -> ClientResult<()> {
        self.writer.flush().map_err(ClientError::from_io)
    }

    /// Reads the next reply line, whichever request it answers. Returns
    /// the echoed id (if the request carried one) and the decoded reply.
    ///
    /// # Errors
    ///
    /// Read failures, a closed connection, or an undecodable reply.
    pub fn recv_any(&mut self) -> ClientResult<(Option<RequestId>, Reply)> {
        // Turnaround: nothing more will be sent before this read, so any
        // buffered requests must go out now or the reply never comes.
        self.flush()?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(ClientError::Lost(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))),
            Ok(_) => parse_reply_line(line.trim_end()).map_err(ClientError::Protocol),
            Err(e) => Err(ClientError::from_io(e)),
        }
    }

    /// Like [`PipelinedClient::recv_any`], but decodes the reply as an
    /// extract outcome and requires a numeric id.
    ///
    /// # Errors
    ///
    /// Transport failures, an id-less or non-numeric-id reply, or a
    /// protocol `error` reply.
    pub fn recv_extract(&mut self) -> ClientResult<(u64, ExtractReply)> {
        let (id, reply) = self.recv_any()?;
        let Some(RequestId::Num(id)) = id else {
            return Err(ClientError::Unexpected(
                "reply without the numeric id this client sent".to_owned(),
            ));
        };
        let decoded = decode_extract_reply(reply).map_err(ClientError::Unexpected)?;
        Ok((id, decoded))
    }

    /// Asks the daemon to drain and exit (tagged, so it composes with
    /// in-flight extracts; the ok reply is awaited by id).
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`ok` reply.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        let id = self.send_op("shutdown")?;
        loop {
            let (got, reply) = self.recv_any()?;
            if got == Some(RequestId::Num(id)) {
                return match reply {
                    Reply::Ok(_) => Ok(()),
                    other => Err(ClientError::Unexpected(format!("{other:?}"))),
                };
            }
            // Replies to still-in-flight extracts may land first; skip.
        }
    }
}
