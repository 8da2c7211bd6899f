//! One `dexlegod` backend as the router's loop sees it: its address, at
//! most one live connection with the requests waiting on it, a health
//! gate that ejects a repeatedly-failing backend for a growing probation
//! window instead of hammering it, and its send counters.
//!
//! The failure contract is all a caller needs: every send either returns
//! the request's id on the backend (its reply, or the loss of the
//! connection, reaches the router through the loop) or `None` (nothing
//! went out — route elsewhere).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dexlego_harness::counters;
use dexlego_service::core::{Io, Peer};
use dexlego_service::{Request, RequestId};

/// Consecutive failures before a backend is ejected.
const EJECT_AFTER: u32 = 2;
/// First probation window; each further failure doubles it.
const PROBATION_BASE: Duration = Duration::from_millis(200);
/// Longest probation window.
const PROBATION_CAP: Duration = Duration::from_secs(5);

counters! {
    /// One backend's send counters, each named once, as a field: the
    /// backend's entry in a `stats` reply's `fleet` member walks them in
    /// field order.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct BackendStats {
        /// Lines written to this backend.
        sent,
        /// Requests whose connection died before their reply.
        lost,
        /// Backfill offers written to this backend.
        backfills_sent,
    }
}

/// The live connection: the loop's peer, the next request id, and the
/// router task each outstanding request answers to.
struct Link {
    peer: Peer,
    next_id: u64,
    waiting: HashMap<u64, u64>,
}

/// One backend: its address, at most one live connection, its health
/// record and its counters.
pub struct Backend {
    addr: String,
    link: Option<Link>,
    /// The health record: failures since the last success, and the end
    /// of the probation they earned.
    failures: u32,
    ejected_until: Option<Instant>,
    /// What was sent to this backend, and lost on it.
    pub stats: BackendStats,
}

impl Backend {
    /// A backend at `addr`, not yet dialled.
    #[must_use]
    pub fn new(addr: &str) -> Backend {
        Backend {
            addr: addr.to_owned(),
            link: None,
            failures: 0,
            ejected_until: None,
            stats: BackendStats::default(),
        }
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
        self.ejected_until
            .is_none_or(|until| Instant::now() >= until)
    }

    /// Consecutive failures currently on record.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.failures
    }

    fn record_success(&mut self) {
        (self.failures, self.ejected_until) = (0, None);
    }

    fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        if self.failures >= EJECT_AFTER {
            let exponent = self.failures - EJECT_AFTER;
            let window = PROBATION_BASE
                .saturating_mul(1 << exponent.min(16))
                .min(PROBATION_CAP);
            self.ejected_until = Some(Instant::now() + window);
        }
    }

    /// Writes `body` to the backend under a fresh id, dialling first if
    /// no connection is up; `task`, if any, is what its reply answers
    /// to. `None` means nothing went out.
    pub fn send(&mut self, io: &mut Io, body: &str, task: Option<u64>) -> Option<u64> {
        if self.link.is_none() {
            if !self.available() {
                return None;
            }
            match io.dial(&self.addr) {
                Ok(peer) => {
                    self.link = Some(Link {
                        peer,
                        next_id: 0,
                        waiting: HashMap::new(),
                    });
                }
                Err(_) => {
                    self.record_failure();
                    return None;
                }
            }
        }
        let link = self.link.as_mut()?;
        let id = link.next_id;
        link.next_id += 1;
        // A failed write kills the connection; the loop reports that as
        // its loss, which fails whatever else was waiting on it.
        if !io.send(link.peer, &RequestId::Num(id), body) {
            return None;
        }
        if let Some(task) = task {
            link.waiting.insert(id, task);
        }
        self.record_success();
        self.stats.sent += 1;
        Some(id)
    }

    /// Whether `peer` is this backend's connection.
    #[must_use]
    pub fn is_on(&self, peer: Peer) -> bool {
        self.link.as_ref().is_some_and(|link| link.peer == peer)
    }

    /// The task that waited for the reply to request `id`, which waits no
    /// longer. `None` for a revoked loser's straggling reply or an ack
    /// nothing waits for.
    pub fn take(&mut self, id: u64) -> Option<u64> {
        self.link.as_mut()?.waiting.remove(&id)
    }

    /// The connection died: forgets it, records the failure, and returns
    /// the tasks whose requests it lost.
    pub fn lost(&mut self) -> Vec<u64> {
        let Some(link) = self.link.take() else {
            return Vec::new();
        };
        self.record_failure();
        self.stats.lost += link.waiting.len() as u64;
        link.waiting.into_values().collect()
    }

    /// Revokes a hedged loser: forgets its task (a straggling reply is
    /// dropped) and asks the backend to drop the request if it has not
    /// started it.
    pub fn cancel(&mut self, io: &mut Io, id: u64) {
        if self.take(id).is_some() {
            let line = Request::encode_cancel(None, &RequestId::Num(id));
            let _ = self.send(io, &line, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejection_opens_after_threshold_and_expires() {
        let mut backend = Backend::new("127.0.0.1:1");
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
}
