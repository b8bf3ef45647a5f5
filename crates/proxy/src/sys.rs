//! Thin raw-syscall shim over Linux `epoll(7)`, `eventfd(2)` and one
//! nonblocking `recv(2)` peek.
//!
//! The workspace takes no external crates and `std` exposes no readiness
//! API, so the reactor (DESIGN.md §13) declares the handful of libc
//! symbols it needs directly — `std` already links libc on every supported
//! target, so the symbols are present without adding a dependency. Only
//! the two kernel objects the reactor needs are wrapped: an epoll instance
//! and an eventfd used as a cross-thread wakeup; the upstream pool
//! (`upstream.rs`) adds [`is_idle`], the liveness peek `std` has no
//! nonblocking form of on a blocking socket. Everything else (nonblocking
//! sockets, vectored writes) goes through `std::net`.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

// Constants from the Linux UAPI headers (a stable kernel ABI).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const MSG_PEEK: c_int = 0x02;
const MSG_DONTWAIT: c_int = 0x40;

/// Readable readiness (`EPOLLIN`).
pub(crate) const EV_READ: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub(crate) const EV_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub(crate) const EV_ERROR: u32 = 0x008;
/// Peer hung up (`EPOLLHUP`) — always reported, never requested.
pub(crate) const EV_HUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub(crate) const EV_RDHUP: u32 = 0x2000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

/// Mirror of the kernel's `struct epoll_event`. The x86-64 kernel ABI
/// declares it `__attribute__((packed))`; other architectures use natural
/// alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    /// Ready-event bitmask (`EV_*`).
    pub(crate) events: u32,
    /// Caller-chosen token, passed back verbatim with each ready event.
    pub(crate) data: u64,
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance: a kernel-side interest list plus a ready queue.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a new close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall; the returned fd is owned exclusively here.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a freshly created, valid descriptor we own.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest mask; ready events carry
    /// `token` back.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest mask of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the interest list. (Closing the fd removes it
    /// implicitly; an explicit delete keeps the bookkeeping obvious.)
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event even for DEL; passing
        // one keeps the shim trivially portable.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` waits forever). Fills `events` and returns how many
    /// entries are valid. A zero-fd wait with a timeout still sleeps.
    pub(crate) fn wait(
        &self,
        events: &mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a sub-millisecond timer sleeps ~1ms instead
                // of spinning on a 0ms timeout.
                let ms = d.as_millis();
                let ms = if Duration::from_millis(ms as u64) < d {
                    ms + 1
                } else {
                    ms
                };
                ms.min(c_int::MAX as u128) as c_int
            }
        };
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: `events` is a valid, writable buffer of `max` entries.
        let n =
            cvt(unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) })?;
        Ok(n as usize)
    }
}

/// A nonblocking eventfd used to wake an event loop from another thread
/// (the accept loop handing over a connection, a miss worker delivering a
/// completion).
pub(crate) struct WakeFd {
    fd: OwnedFd,
}

impl WakeFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter zero.
    pub(crate) fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall; the returned fd is owned exclusively here.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `fd` is a freshly created, valid descriptor we own.
        Ok(WakeFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The raw fd, for registering with an [`Epoll`].
    pub(crate) fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Makes the eventfd readable, waking any loop blocked in
    /// [`Epoll::wait`] on it. Best-effort: a saturated counter (`EAGAIN`)
    /// already guarantees the loop will wake.
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a live stack value to an fd we own.
        unsafe {
            let _ = write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast::<c_void>(),
                std::mem::size_of::<u64>(),
            );
        }
    }

    /// Resets the counter so the next [`Self::wake`] is observable again.
    pub(crate) fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reading 8 bytes into a live stack value from an fd we own.
        unsafe {
            let _ = read(
                self.fd.as_raw_fd(),
                (&mut buf as *mut u64).cast::<c_void>(),
                std::mem::size_of::<u64>(),
            );
        }
    }
}

/// Whether a kept-alive socket is open with nothing to read: the only
/// state in which the next request may be written to it. One nonblocking
/// peek, consuming nothing: `EAGAIN` means idle and open; EOF (the other
/// side closed while the connection sat idle), any other error, and
/// *pending unread bytes* (a desynchronised stream) all answer `false`.
pub(crate) fn is_idle(sock: &impl AsRawFd) -> bool {
    let mut byte = 0u8;
    // SAFETY: peeks at most one byte into a live stack value; the borrow
    // of `sock` keeps its fd open for the duration of the call.
    let n = unsafe {
        recv(
            sock.as_raw_fd(),
            (&mut byte as *mut u8).cast::<c_void>(),
            1,
            MSG_PEEK | MSG_DONTWAIT,
        )
    };
    n < 0 && io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_readable_socket_with_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 42, EV_READ).unwrap();

        let mut events = [EpollEvent::default(); 8];
        // Nothing to read yet: a short wait times out empty.
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let (bits, token) = (events[0].events, events[0].data);
        assert_eq!(token, 42);
        assert_ne!(bits & EV_READ, 0);

        ep.delete(server.as_raw_fd()).unwrap();
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "deleted fd no longer reports");
    }

    #[test]
    fn wakefd_wakes_and_drains() {
        let wake = WakeFd::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(wake.raw(), 7, EV_READ).unwrap();

        let mut events = [EpollEvent::default(); 4];
        wake.wake();
        wake.wake(); // coalesces into one readable counter
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);

        wake.drain();
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained eventfd is quiet again");
    }

    /// The upstream pool's liveness peek: only an open socket with nothing
    /// to read may carry the next request.
    #[test]
    fn is_idle_only_for_open_and_quiet_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        // A read timeout must not turn the peek into a wait.
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        assert!(is_idle(&client), "open and quiet");

        // Unread bytes pending: a reply nobody asked for means the stream
        // is desynchronised. The peek consumes nothing, so it stays so.
        server.write_all(b"x").unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(client.as_raw_fd(), 1, EV_READ).unwrap();
        let mut events = [EpollEvent::default(); 1];
        assert_eq!(
            ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap(),
            1
        );
        assert!(!is_idle(&client), "pending bytes");
        assert!(!is_idle(&client), "the peek consumed nothing");

        // The other side closed while the connection sat idle.
        let quiet = TcpStream::connect(addr).unwrap();
        let (closer, _) = listener.accept().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(quiet.as_raw_fd(), 2, EV_READ | EV_RDHUP).unwrap();
        drop(closer);
        assert_eq!(
            ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap(),
            1
        );
        assert!(!is_idle(&quiet), "peer closed");
    }

    #[test]
    fn epoll_modify_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // Idle socket registered for write: reports writable immediately.
        ep.add(server.as_raw_fd(), 1, EV_WRITE).unwrap();
        let mut events = [EpollEvent::default(); 4];
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let bits = events[0].events;
        assert_ne!(bits & EV_WRITE, 0);

        // Switch to read interest: quiet until the peer sends.
        ep.modify(server.as_raw_fd(), 1, EV_READ).unwrap();
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        client.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let bits = events[0].events;
        assert_ne!(bits & EV_READ, 0);
    }
}
