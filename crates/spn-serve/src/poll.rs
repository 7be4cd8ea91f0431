//! Minimal readiness-polling wrapper over `poll(2)`.
//!
//! The readiness-driven TCP front-end ([`crate::tcp`]) multiplexes every
//! connection plus the listener on one thread; this module supplies the one
//! primitive that needs: given a set of file descriptors and the events each
//! is interested in, sleep until at least one is ready (or a timeout
//! elapses).  `poll(2)` is the right level for a std-only crate — it needs
//! no persistent kernel object, its cost is linear in the descriptor count
//! per call (fine for the thousands of connections the front-end targets),
//! and the symbol is always available wherever `std::net` works on Unix.
//!
//! A `Waker` lets other threads interrupt that sleep: it is a connected
//! `UnixStream` pair whose read end sits in the poll set, so the batcher's
//! workers can announce a finished response and the loop never has to poll
//! on a timer to find it.
//!
//! This is the single place in the workspace that uses `unsafe`: one
//! foreign call with a pointer/length pair taken from a live slice.  The
//! crate root pins that containment with `#![deny(unsafe_code)]` and this
//! module's narrowly scoped `allow`.
//!
//! On non-Unix hosts a degraded fallback reports every descriptor as
//! readable and writable after a short sleep; combined with the front-end's
//! non-blocking sockets this preserves correctness (spurious readiness just
//! costs a `WouldBlock` round) at the price of busy-polling.

#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Interest/readiness flag: data can be read (or a peer hung up with data
/// pending).
pub const POLLIN: i16 = 0x001;
/// Interest/readiness flag: the socket's send buffer has room.
pub const POLLOUT: i16 = 0x004;
/// Readiness flag (output only): error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// Readiness flag (output only): the peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Readiness flag (output only): the descriptor is invalid.
pub const POLLNVAL: i16 = 0x020;

/// One polled descriptor: layout-compatible with the C `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry for `fd` interested in `events` (a bitwise-or of [`POLLIN`]
    /// and [`POLLOUT`]).
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The descriptor became readable (or hung up / errored, which a read
    /// also observes and must handle anyway).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// The descriptor became writable.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Blocks until at least one entry of `fds` is ready or `timeout` elapses
/// (`None` waits indefinitely), filling in each entry's readiness; returns
/// the number of ready entries (zero on timeout).
///
/// An interrupted wait (`EINTR`) is reported as zero ready entries rather
/// than an error — callers run in a loop and simply poll again.
///
/// # Errors
///
/// Returns the OS error when the poll itself fails.
#[cfg(unix)]
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    #[allow(unsafe_code)]
    mod sys {
        use super::PollFd;

        // `nfds_t` is `c_ulong` on every Unix libc that std links against.
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
        }

        /// Safety contract: the pointer/length pair comes from one live
        /// mutable slice, and `poll` writes only within the given entries.
        pub fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
            // SAFETY: `fds` is a valid, exclusively borrowed slice for the
            // whole call; `poll` reads/writes only `fds.len()` entries.
            unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) }
        }
    }

    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let timeout_ms = timeout.map_or(-1, |t| i32::try_from(t.as_millis()).unwrap_or(i32::MAX));
    let ready = sys::poll_raw(fds, timeout_ms);
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(ready as usize)
}

/// Degraded non-Unix fallback: sleep briefly, then report everything ready.
/// Non-blocking sockets turn the spurious readiness into `WouldBlock`, so
/// behaviour stays correct at the cost of busy-polling.
#[cfg(not(unix))]
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let cap = Duration::from_millis(5);
    std::thread::sleep(timeout.map_or(cap, |t| t.min(cap)));
    for fd in fds.iter_mut() {
        fd.revents = fd.events | POLLIN | POLLOUT;
    }
    Ok(fds.len())
}

/// Interrupts a thread blocked in [`wait`] from any other thread.
///
/// The sleeper polls [`Waker::fd`] for [`POLLIN`] and calls
/// [`Waker::reset`] once it reports readable; any thread calls
/// [`Waker::wake`].  A flag makes a burst of wakes between two resets cost
/// one byte and one syscall: only the wake that raises it writes.
///
/// On non-Unix hosts [`wait`] never sleeps longer than its fallback cap, so
/// the waker has no descriptor and waking is just the flag.
#[derive(Debug)]
pub(crate) struct Waker {
    /// A byte has been written since the last [`Waker::reset`].
    raised: AtomicBool,
    /// The polled end.
    #[cfg(unix)]
    rx: UnixStream,
    /// The end wakes write to.
    #[cfg(unix)]
    tx: UnixStream,
}

impl Waker {
    /// A fresh waker (one non-blocking socket pair on Unix).
    ///
    /// # Errors
    ///
    /// Returns the OS error when the socket pair cannot be created.
    pub(crate) fn new() -> std::io::Result<Waker> {
        #[cfg(unix)]
        let (rx, tx) = UnixStream::pair()?;
        #[cfg(unix)]
        {
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
        }
        Ok(Waker {
            raised: AtomicBool::new(false),
            #[cfg(unix)]
            rx,
            #[cfg(unix)]
            tx,
        })
    }

    /// The descriptor to poll for [`POLLIN`] (`-1`, which `poll(2)` skips,
    /// on non-Unix hosts).
    pub(crate) fn fd(&self) -> i32 {
        #[cfg(unix)]
        {
            std::os::unix::io::AsRawFd::as_raw_fd(&self.rx)
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }

    /// Makes the sleeper's next (or current) [`wait`] return.  Everything
    /// this thread did before the call is visible to the sleeper after its
    /// next [`Waker::reset`].
    pub(crate) fn wake(&self) {
        if !self.raised.swap(true, Ordering::AcqRel) {
            #[cfg(unix)]
            {
                use std::io::Write;
                // At most one byte is ever unread, so the write cannot block.
                let _ = (&self.tx).write(&[1]);
            }
        }
    }

    /// Consumes pending wakes.  Call it before looking for the work the
    /// wakes announced: a wake that lands after the reset writes a fresh
    /// byte, so it is never lost.
    pub(crate) fn reset(&self) {
        // Drain before lowering the flag: lowering it first would let a wake
        // raise it again and have its byte eaten here, leaving the flag up
        // with nothing to read, and every later wake would stay silent.
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 8];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        // A swap rather than a store: reading the flag acquires what every
        // waker that found it already raised published before waking.
        self.raised.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[cfg(unix)]
    fn raw_fd(socket: &impl std::os::unix::io::AsRawFd) -> i32 {
        socket.as_raw_fd()
    }

    #[cfg(unix)]
    #[test]
    fn times_out_when_nothing_is_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(raw_fd(&listener), POLLIN)];
        let start = Instant::now();
        let ready = wait(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(ready, 0);
        assert!(!fds[0].readable());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[cfg(unix)]
    #[test]
    fn reports_a_pending_connection_and_pending_data_as_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(raw_fd(&listener), POLLIN)];
        let ready = wait(&mut fds, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].readable());

        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"hello\n").unwrap();
        let mut fds = [
            PollFd::new(raw_fd(&server_side), POLLIN | POLLOUT),
            PollFd::new(raw_fd(&listener), POLLIN),
        ];
        let ready = wait(&mut fds, Some(Duration::from_millis(1000))).unwrap();
        assert!(ready >= 1);
        assert!(fds[0].readable(), "pending data must mark POLLIN");
        assert!(fds[0].writable(), "an idle socket's send buffer has room");
        assert!(!fds[1].readable(), "no second connection is pending");
    }

    #[cfg(unix)]
    #[test]
    fn a_burst_of_wakes_is_one_readiness_until_reset() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);

        for _ in 0..100 {
            waker.wake();
        }
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].readable());

        waker.reset();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        waker.wake();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
    }
}
