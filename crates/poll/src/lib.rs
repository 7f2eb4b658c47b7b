//! `poll`: a tiny mio-style readiness poller over raw epoll, std-only.
//!
//! The workspace's networking layer (`waves-net`) multiplexes thousands
//! of non-blocking connections on one event-loop thread. The usual
//! crates for that (mio, polling) live on the registry this build
//! environment cannot reach, so — like `rand` and `proptest` here —
//! the needed subset is vendored: a [`Poller`] you register file
//! descriptors with, an [`Events`] buffer to drain, and a [`Waker`] for
//! cross-thread wakeups, all over the kernel's `epoll` calls ([`sys`]
//! reaches them through the libc symbols std already links).
//!
//! Semantics are deliberately plain:
//!
//! * **Level-triggered.** An fd that stays readable keeps showing up —
//!   no starvation bookkeeping, and a registration that re-enables
//!   reads after backpressure sees buffered data immediately.
//! * **One token per fd.** [`Token`] is a bare `usize` the caller maps
//!   back to its own connection table; the poller stores it in the
//!   kernel's `epoll_data` and hands it back verbatim.
//! * **Waker = eventfd.** [`Waker::wake`] is async-signal-safe-ish
//!   (one 8-byte write), cheap to call from any thread, and collapses
//!   concurrent wakes into one readiness event. [`Waker::ack`] drains
//!   it (required under level triggering).
//!
//! ```no_run
//! use poll::{Events, Interest, Poller, Token};
//! use std::net::TcpListener;
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! listener.set_nonblocking(true).unwrap();
//! let poller = Poller::new().unwrap();
//! poller.register(&listener, Token(0), Interest::READ).unwrap();
//! let mut events = Events::with_capacity(64);
//! poller.wait(&mut events, None).unwrap();
//! for ev in events.iter() {
//!     assert_eq!(ev.token, Token(0));
//!     assert!(ev.readable);
//! }
//! ```

pub mod sys;

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Caller-chosen identifier attached to a registration and handed back
/// with every readiness event for that fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn epoll_bits(self) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
    /// `EPOLLERR`: the fd is in an error state; reads/writes will
    /// surface the specific `io::Error`.
    pub error: bool,
    /// `EPOLLHUP` / `EPOLLRDHUP`: the peer closed (fully or its write
    /// half). Reads drain any buffered bytes and then return 0.
    pub hangup: bool,
}

/// Reusable buffer of kernel events. Sized once; a full buffer simply
/// means the next [`Poller::wait`] returns the remainder (level
/// triggering re-reports unconsumed readiness).
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    pub fn with_capacity(cap: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent::default(); cap.max(1)],
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the (possibly packed) kernel struct before
            // touching the fields.
            let events = raw.events;
            let data = raw.data;
            Event {
                token: Token(data as usize),
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                error: events & sys::EPOLLERR != 0,
                hangup: events & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            }
        })
    }
}

/// The epoll instance. `register`/`reregister`/`deregister` take
/// anything [`AsRawFd`]; the caller keeps ownership of the fd and must
/// deregister (or just close) it before reuse.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let fd = sys::epoll_create()?;
        // SAFETY: epoll_create1 returned a fresh fd we own.
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    pub fn register(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), token, interest)
    }

    /// Replace an existing registration's interest/token.
    pub fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd.as_raw_fd(), token, interest)
    }

    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd.as_raw_fd(),
            sys::EPOLL_CTL_DEL,
            fd.as_raw_fd(),
            0,
            0,
        )
    }

    fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd.as_raw_fd(),
            op,
            fd,
            interest.epoll_bits(),
            token.0 as u64,
        )
    }

    /// Block until at least one registered fd is ready, the timeout
    /// elapses (`Ok` with zero events), or a signal interrupts the wait
    /// (also surfaced as zero events — callers loop anyway). `None`
    /// blocks indefinitely.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => {
                // Round sub-millisecond timeouts up to 1ms instead of
                // busy-spinning at 0.
                let ms = d.as_millis();
                let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        events.len = 0;
        match sys::epoll_wait(self.epfd.as_raw_fd(), &mut events.buf, timeout_ms) {
            Ok(n) => {
                events.len = n;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl AsRawFd for Poller {
    fn as_raw_fd(&self) -> RawFd {
        self.epfd.as_raw_fd()
    }
}

/// Cross-thread wakeup for a [`Poller`] parked in [`Poller::wait`]:
/// an eventfd registered like any other fd. Clone the `Arc` into
/// producer threads; [`Waker::wake`] from any of them makes the
/// poller report the waker's token readable until [`Waker::ack`] runs.
pub struct Waker {
    /// The eventfd, behind a `File` so `&Waker` can read/write it
    /// without extra syscall plumbing.
    fd: std::fs::File,
}

impl Waker {
    /// Create an eventfd and register it with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Arc<Waker>> {
        let raw = sys::eventfd()?;
        // SAFETY: eventfd2 returned a fresh fd we own.
        let fd = std::fs::File::from(unsafe { OwnedFd::from_raw_fd(raw) });
        let waker = Arc::new(Waker { fd });
        poller.register(&waker.fd, token, Interest::READ)?;
        Ok(waker)
    }

    /// Make the poller's next (or current) wait return with this
    /// waker's token readable. Cheap; concurrent wakes coalesce.
    pub fn wake(&self) {
        // An eventfd write only fails if the counter would overflow —
        // which still leaves the fd readable, so the wake landed.
        let one = 1u64.to_ne_bytes();
        let _ = io::Write::write(&mut (&self.fd), &one);
    }

    /// Drain the eventfd so it stops reporting readable (call when the
    /// waker's token comes out of [`Poller::wait`]; required under
    /// level triggering).
    pub fn ack(&self) {
        let mut buf = [0u8; 8];
        let _ = io::Read::read(&mut (&self.fd), &mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn timeout_returns_zero_events() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(8);
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn readable_after_peer_writes() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(&b, Token(7), Interest::READ).unwrap();
        let mut events = Events::with_capacity(8);
        // Nothing to read yet.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
        a.write_all(b"hello").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, Token(7));
        assert!(ev.readable && !ev.writable);
    }

    #[test]
    fn writable_is_level_triggered_and_interest_can_change() {
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(&a, Token(1), Interest::BOTH).unwrap();
        let mut events = Events::with_capacity(8);
        // A fresh socket with empty send buffer is writable, and stays
        // so on a second wait (level-triggered).
        for _ in 0..2 {
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1);
            assert!(events.iter().next().unwrap().writable);
        }
        // Dropping write interest silences it.
        poller.reregister(&a, Token(1), Interest::READ).unwrap();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn hangup_reports_on_peer_close() {
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(&b, Token(3), Interest::READ).unwrap();
        drop(a);
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.hangup);
        assert!(ev.readable, "hangup counts as readable: read returns 0");
        let mut buf = [0u8; 8];
        assert_eq!((&b).read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn deregistered_fd_goes_silent() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(&b, Token(4), Interest::READ).unwrap();
        a.write_all(&[1]).unwrap();
        let mut events = Events::with_capacity(8);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap(),
            1
        );
        poller.deregister(&b).unwrap();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn waker_crosses_threads_and_acks() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, Token(usize::MAX)).unwrap();
        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces with the first
        });
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, Token(usize::MAX));
        waker.ack();
        // Drained: no further event without a new wake.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0
        );
        handle.join().unwrap();
    }

    #[test]
    fn many_registrations_round_trip_tokens() {
        let poller = Poller::new().unwrap();
        let mut streams = Vec::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for i in 0..50usize {
            let a = TcpStream::connect(addr).unwrap();
            let (b, _) = listener.accept().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(&b, Token(i), Interest::READ).unwrap();
            streams.push((a, b));
        }
        for (a, _) in streams.iter_mut() {
            a.write_all(&[9]).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut events = Events::with_capacity(16); // smaller than ready set
        let t0 = Instant::now();
        while seen.len() < 50 && t0.elapsed() < Duration::from_secs(10) {
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            for ev in events.iter() {
                // Consume so level triggering stops re-reporting.
                let mut buf = [0u8; 1];
                let _ = (&streams[ev.token.0].1).read(&mut buf);
                seen.insert(ev.token.0);
            }
        }
        assert_eq!(seen.len(), 50, "every token reported");
    }
}
