//! Readiness polling for the event-loop server over `poll(2)`, built
//! in-crate (the build environment has no registry, so `mio` is not an
//! option).
//!
//! The abstraction is deliberately small — level-triggered readiness over
//! raw file descriptors, one `usize` token per registration:
//!
//! ```no_run
//! # use dexlego_service::poll::{Interest, Poller};
//! let mut poller = Poller::new();
//! // poller.register(fd, token, Interest::READ);
//! let mut events = Vec::new();
//! poller.wait(&mut events, None).unwrap();
//! for ev in &events {
//!     // ev.token, ev.readable, ev.writable
//! }
//! ```
//!
//! The registration table lives in user space as a flat `pollfd` array, so
//! registering cannot fail and each wait is O(n) in the registered fds —
//! fine for the connection counts one daemon serves. Error and hang-up
//! conditions (`POLLERR`/`POLLHUP`/`POLLNVAL`) are folded into
//! readability/writability: the owner discovers them through the
//! `read`/`write` calls it was about to make anyway.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or closed/errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read-and-write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable, has hung up, or is in error.
    pub readable: bool,
    /// The fd is writable, or is in error.
    pub writable: bool,
}

/// A level-triggered readiness poller over raw fds.
#[derive(Default)]
pub struct Poller {
    fds: Vec<sys::PollFd>,
    tokens: Vec<usize>,
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Registers `fd` under `token` with `interest`, replacing any earlier
    /// registration of `fd`. `token` values need not be distinct across
    /// fds, but routing is by token, so distinct is what you want.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) {
        let mut events = 0;
        if interest.readable {
            events |= sys::POLLIN;
        }
        if interest.writable {
            events |= sys::POLLOUT;
        }
        if let Some(i) = self.fds.iter().position(|p| p.fd == fd) {
            self.fds[i].events = events;
            self.tokens[i] = token;
        } else {
            self.fds.push(sys::PollFd {
                fd,
                events,
                revents: 0,
            });
            self.tokens.push(token);
        }
    }

    /// Removes `fd` from the poller. Deregistering an unknown fd is a
    /// no-op.
    pub fn deregister(&mut self, fd: RawFd) {
        if let Some(i) = self.fds.iter().position(|p| p.fd == fd) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever), filling `events` with what became
    /// ready. `EINTR` retries internally. An empty `events` after return
    /// means the timeout fired.
    ///
    /// # Errors
    ///
    /// `poll` failures other than `EINTR`, and a wait with no fds and no
    /// timeout (it could never return).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs deadline does not busy-spin at 0ms.
            Some(d) => i32::try_from(d.as_millis().saturating_add(1)).unwrap_or(i32::MAX),
            None => -1,
        };
        if self.fds.is_empty() {
            // The server always has at least the wake pipe registered, so
            // an empty set is a bug guard rather than a supported mode.
            if timeout_ms >= 0 {
                std::thread::sleep(Duration::from_millis(timeout_ms as u64));
                return Ok(());
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "wait on an empty poll set with no timeout",
            ));
        }
        loop {
            match sys::poll_fds(&mut self.fds, timeout_ms) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
                Ok(()) => break,
            }
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            if p.revents == 0 {
                continue;
            }
            let err = p.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            events.push(Event {
                token,
                readable: p.revents & sys::POLLIN != 0 || err,
                writable: p.revents & sys::POLLOUT != 0 || err,
            });
        }
        Ok(())
    }
}

mod sys {
    //! The `poll(2)` binding, declared directly (`extern "C"` against the
    //! libc that std already links) because the `libc` crate is
    //! unavailable. This is the crate's only unsafe code.
    #![allow(unsafe_code)]

    use std::io;
    use std::os::raw::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    /// `struct pollfd`, identical across Unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Polls `fds`, filling each `revents`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
        // SAFETY: the slice is live for the call and nfds matches its
        // length; the kernel only writes `revents` within bounds.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_roundtrip() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new();
        poller.register(b.as_raw_fd(), 7, Interest::READ);

        // Nothing to read yet: a short wait times out empty.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "spurious readiness");

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let n = (&b).read(&mut buf).unwrap();
        assert_eq!(n, 1);

        // Write interest on an idle socket is immediately ready.
        poller.register(b.as_raw_fd(), 7, Interest::READ_WRITE);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Peer hang-up surfaces as readability (read returns 0).
        drop(a);
        poller.register(b.as_raw_fd(), 7, Interest::READ);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        assert_eq!((&b).read(&mut buf).unwrap(), 0, "clean EOF after hup");

        poller.deregister(b.as_raw_fd());
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd woke");
    }
}
