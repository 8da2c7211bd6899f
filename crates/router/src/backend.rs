//! A managed connection to one `dexlegod` backend: multiplexed sends,
//! a reader thread that routes replies to parked waiters, and a health
//! gate that ejects a repeatedly-failing backend for a growing
//! probation window instead of hammering it.
//!
//! The failure contract is all a caller needs: every send either
//! returns an id (the reply or a [`Event::Lost`] for it will reach the
//! waiter eventually) or `None` (nothing went out — route elsewhere).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dexlego_service::protocol::reply_body;
use dexlego_service::{
    ClientError, ExtractRequest, PipelinedClient, PipelinedSender, Reply, RequestId,
};
use dexlego_store::Key;

/// What a routing thread hears about its forwarded requests.
#[derive(Debug)]
pub enum Event {
    /// Backend `idx` answered the request the waiter registered: the
    /// parsed reply, and the reply line as received with its `id` member
    /// cut out (see [`reply_body`]), ready to relay.
    Reply(usize, Reply, String),
    /// Backend `idx`'s connection died with the request outstanding;
    /// its reply is never coming.
    Lost(usize),
}

/// A mailbox one routing thread parks on while backends work. Reader
/// threads deliver [`Event`]s; the router drains them as they land.
pub struct Waiter {
    events: Mutex<Vec<Event>>,
    cv: Condvar,
}

impl Waiter {
    /// A fresh, empty mailbox.
    #[must_use]
    pub fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            events: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        })
    }

    /// Drops an event in and wakes the parked router.
    pub fn deliver(&self, event: Event) {
        self.events.lock().expect("waiter lock").push(event);
        self.cv.notify_one();
    }

    /// Blocks until at least one event is present or `deadline` passes;
    /// drains and returns whatever is there (empty = timed out).
    pub fn wait_until(&self, deadline: Instant) -> Vec<Event> {
        let mut events = self.events.lock().expect("waiter lock");
        loop {
            if !events.is_empty() {
                return std::mem::take(&mut *events);
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let (guard, _) = self
                .cv
                .wait_timeout(events, deadline - now)
                .expect("waiter lock");
            events = guard;
        }
    }
}

/// Consecutive failures before a backend is ejected.
const EJECT_AFTER: u32 = 2;
/// First probation window; each further failure doubles it.
const PROBATION_BASE: Duration = Duration::from_millis(200);
/// Longest probation window.
const PROBATION_CAP: Duration = Duration::from_secs(5);

#[derive(Debug, Default)]
struct Health {
    consecutive_failures: u32,
    ejected_until: Option<Instant>,
}

type PendingMap = Mutex<HashMap<u64, Arc<Waiter>>>;

struct Conn {
    tx: PipelinedSender,
    pending: Arc<PendingMap>,
}

/// One backend: its address, at most one live connection, and its
/// health record.
pub struct Backend {
    index: usize,
    addr: String,
    conn: Mutex<Option<Conn>>,
    health: Mutex<Health>,
    /// Requests successfully written to this backend.
    pub sent: AtomicU64,
    /// Requests whose connection died before a reply.
    pub lost: AtomicU64,
    /// Backfill offers shipped to this backend.
    pub backfills_sent: AtomicU64,
}

impl Backend {
    /// A backend at `addr`, position `index` in the fleet.
    #[must_use]
    pub fn new(index: usize, addr: &str) -> Arc<Backend> {
        Arc::new(Backend {
            index,
            addr: addr.to_owned(),
            conn: Mutex::new(None),
            health: Mutex::new(Health::default()),
            sent: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            backfills_sent: AtomicU64::new(0),
        })
    }

    /// The backend's position in the fleet (its [`Event`] identity).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The backend's address (its ring identity).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the health gate admits traffic right now. An ejected
    /// backend becomes available again when its probation expires —
    /// the next send is the half-open probe, and its outcome decides
    /// whether the ejection ends or doubles.
    #[must_use]
    pub fn available(&self) -> bool {
        let health = self.health.lock().expect("health lock");
        match health.ejected_until {
            Some(until) => Instant::now() >= until,
            None => true,
        }
    }

    /// Consecutive failures currently on record.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.health
            .lock()
            .expect("health lock")
            .consecutive_failures
    }

    fn record_success(&self) {
        let mut health = self.health.lock().expect("health lock");
        health.consecutive_failures = 0;
        health.ejected_until = None;
    }

    fn record_failure(&self) {
        let mut health = self.health.lock().expect("health lock");
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        if health.consecutive_failures >= EJECT_AFTER {
            let exponent = health.consecutive_failures - EJECT_AFTER;
            let window = PROBATION_BASE
                .saturating_mul(1 << exponent.min(16))
                .min(PROBATION_CAP);
            health.ejected_until = Some(Instant::now() + window);
        }
    }

    /// Delivers [`Event::Lost`] to everything parked on `pending`.
    fn fail_pending(&self, pending: &PendingMap) {
        let drained: Vec<Arc<Waiter>> = pending
            .lock()
            .expect("pending lock")
            .drain()
            .map(|(_, w)| w)
            .collect();
        self.lost.fetch_add(drained.len() as u64, Ordering::Relaxed);
        for waiter in drained {
            waiter.deliver(Event::Lost(self.index));
        }
    }

    /// Dials the backend once and spawns the reader thread that routes
    /// its replies. The reader owns the connection's pending map; when
    /// the connection dies it clears the slot (if still current), records
    /// the failure, and fails every parked waiter.
    fn dial(self: &Arc<Self>) -> Result<Conn, ClientError> {
        let client = PipelinedClient::connect(&self.addr)?;
        let (tx, mut rx) = client.split();
        let pending: Arc<PendingMap> = Arc::new(Mutex::new(HashMap::new()));
        let reader_pending = Arc::clone(&pending);
        let this = Arc::clone(self);
        std::thread::spawn(move || {
            loop {
                match rx.recv_line() {
                    Ok((Some(tag @ RequestId::Num(id)), reply, line)) => {
                        let waiter = reader_pending.lock().expect("pending lock").remove(&id);
                        // No waiter: a cancelled loser's straggling
                        // reply, or a fire-and-forget ack. Drop it.
                        if let Some(waiter) = waiter {
                            let body = reply_body(line, Some(&tag));
                            waiter.deliver(Event::Reply(this.index, reply, body));
                        }
                    }
                    // Replies this client never asks for (id-less or
                    // string-tagged); ignore rather than die.
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            let mut slot = this.conn.lock().expect("conn lock");
            let current = slot
                .as_ref()
                .is_some_and(|c| Arc::ptr_eq(&c.pending, &reader_pending));
            if current {
                *slot = None;
            }
            drop(slot);
            this.record_failure();
            this.fail_pending(&reader_pending);
        });
        Ok(Conn { tx, pending })
    }

    /// The shared send path: ensures a connection, encodes via `enc`,
    /// registers the waiter (if any) under the new id, and flushes.
    /// `None` means nothing went out; the connection (if any) has been
    /// torn down and the failure recorded.
    fn send_with(
        self: &Arc<Self>,
        waiter: Option<&Arc<Waiter>>,
        enc: impl FnOnce(&mut PipelinedSender) -> Result<u64, ClientError>,
    ) -> Option<u64> {
        let mut slot = self.conn.lock().expect("conn lock");
        if slot.is_none() {
            if !self.available() {
                return None;
            }
            match self.dial() {
                Ok(conn) => *slot = Some(conn),
                Err(_) => {
                    self.record_failure();
                    return None;
                }
            }
        }
        let conn = slot.as_mut().expect("connection just ensured");
        let pending = Arc::clone(&conn.pending);
        let outcome = enc(&mut conn.tx).and_then(|id| {
            if let Some(waiter) = waiter {
                pending
                    .lock()
                    .expect("pending lock")
                    .insert(id, Arc::clone(waiter));
            }
            conn.tx.flush().map(|()| id)
        });
        match outcome {
            Ok(id) => {
                self.record_success();
                self.sent.fetch_add(1, Ordering::Relaxed);
                Some(id)
            }
            Err(_) => {
                // Flush may have died after the waiter was registered:
                // pull our own id back out so the caller's `None` and a
                // delivered Lost can't both describe this request, then
                // fail whatever else was in flight.
                let dead = slot.take();
                drop(slot);
                if let Some(dead) = dead {
                    dead.pending
                        .lock()
                        .expect("pending lock")
                        .retain(|_, w| waiter.is_none_or(|ours| !Arc::ptr_eq(w, ours)));
                    self.fail_pending(&dead.pending);
                }
                self.record_failure();
                None
            }
        }
    }

    /// Forwards an extract; the reply lands in `waiter`.
    pub fn send_extract(
        self: &Arc<Self>,
        req: &ExtractRequest,
        waiter: &Arc<Waiter>,
    ) -> Option<u64> {
        self.send_with(Some(waiter), |tx| tx.send_extract(req))
    }

    /// Forwards a simple op (`ping`, `stats`); the reply lands in
    /// `waiter`.
    pub fn send_op(self: &Arc<Self>, op: &str, waiter: &Arc<Waiter>) -> Option<u64> {
        self.send_with(Some(waiter), |tx| tx.send_op(op))
    }

    /// Offers the stored entry payload under `key`. The ack lands in
    /// `waiter` if one is given (the front-side backfill op reports
    /// whether any replica stored the entry) and is discarded otherwise
    /// (replication and read-repair offers).
    pub fn send_backfill(
        self: &Arc<Self>,
        key: &Key,
        entry_payload: &[u8],
        waiter: Option<&Arc<Waiter>>,
    ) -> Option<u64> {
        let id = self.send_with(waiter, |tx| tx.send_backfill(key, entry_payload));
        if id.is_some() {
            self.backfills_sent.fetch_add(1, Ordering::Relaxed);
        }
        id
    }

    /// Sends a `fetch` for the stored entry under `key`, delivering the
    /// reply to `waiter`. This is how the repair thread pulls entry
    /// payloads — extract replies stay thin and the transfer happens
    /// off the request hot path.
    pub fn send_fetch(self: &Arc<Self>, key: &Key, waiter: &Arc<Waiter>) -> Option<u64> {
        self.send_with(Some(waiter), |tx| tx.send_fetch(key))
    }

    /// Revokes a hedged loser: forgets its waiter registration (a
    /// straggling reply is dropped by the reader) and asks the backend
    /// to drop the request if it has not been dispatched yet.
    pub fn cancel(self: &Arc<Self>, id: u64) {
        {
            let slot = self.conn.lock().expect("conn lock");
            if let Some(conn) = slot.as_ref() {
                conn.pending.lock().expect("pending lock").remove(&id);
            } else {
                return; // connection already gone; nothing to revoke
            }
        }
        let _ = self.send_with(None, |tx| tx.send_cancel(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejection_opens_after_threshold_and_expires() {
        let backend = Backend::new(0, "127.0.0.1:1");
        assert!(backend.available());
        backend.record_failure();
        assert!(backend.available(), "one failure is not ejection");
        backend.record_failure();
        assert!(!backend.available(), "threshold reached: ejected");
        std::thread::sleep(PROBATION_BASE + Duration::from_millis(10));
        assert!(backend.available(), "probation expired: half-open probe");
        backend.record_success();
        assert_eq!(backend.consecutive_failures(), 0);
        assert!(backend.available());
    }

    #[test]
    fn waiter_times_out_empty_and_drains_delivered_events() {
        let waiter = Waiter::new();
        let empty = waiter.wait_until(Instant::now() + Duration::from_millis(10));
        assert!(empty.is_empty());
        waiter.deliver(Event::Lost(3));
        let events = waiter.wait_until(Instant::now() + Duration::from_millis(10));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Lost(3)));
    }
}
