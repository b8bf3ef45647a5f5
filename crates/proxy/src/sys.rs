//! Thin raw-syscall shim over Linux `epoll(7)`, `eventfd(2)`, a
//! nonblocking `connect(2)` and `preadv2(2)`, plus glibc's `mallopt(3)`.
//!
//! The workspace takes no external crates and `std` exposes no readiness
//! API, so the reactor (DESIGN.md §13) declares the handful of libc
//! symbols it needs directly — `std` already links libc on every supported
//! target, so the symbols are present without adding a dependency. Only
//! the two kernel objects the reactor needs are wrapped: an epoll instance
//! and an eventfd used as a cross-thread wakeup; the loop-owned upstream
//! connections add [`connect_nonblocking`], the one socket call `std` has
//! no nonblocking form of, and the disk tier's reads add [`read_two_at`],
//! the one file read that can decline to wait for the disk;
//! [`set_memory_policy`] keeps freed body pages in the heap (DESIGN.md
//! §6b). Everything else (nonblocking reads, vectored writes, `SO_ERROR`,
//! positional file writes) goes through `std`.

use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpStream};
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
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;
/// `preadv2` flag: fail with `EAGAIN` rather than wait for the disk.
const RWF_NOWAIT: c_int = 0x8;
// `mallopt` parameters from glibc's `malloc.h`.
#[cfg(target_env = "gnu")]
const M_TRIM_THRESHOLD: c_int = -1;
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: c_int = -3;
/// Largest block the allocator serves from its heap rather than a mapping
/// of its own: the ceiling glibc's adaptive threshold climbs to on 64-bit.
#[cfg(target_env = "gnu")]
const MMAP_THRESHOLD: c_int = 32 << 20;

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
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
    // `off_t` is 64 bits on every 64-bit Linux target.
    fn preadv2(fd: c_int, iov: *const IoVec, iovcnt: c_int, offset: i64, flags: c_int) -> isize;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: c_int, value: c_int) -> c_int;
    #[cfg(test)]
    fn posix_fadvise(fd: c_int, offset: i64, len: i64, advice: c_int) -> c_int;
}

/// Mirror of `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
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

/// Takes ownership of a descriptor a syscall just returned.
fn own(fd: c_int) -> OwnedFd {
    // SAFETY: every caller passes the fresh, valid result of a successful
    // `epoll_create1`, `eventfd` or `socket`, which nothing else owns.
    unsafe { OwnedFd::from_raw_fd(fd) }
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
        Ok(Epoll { fd: own(fd) })
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
/// (the accept loop handing over a connection, an executor thread
/// delivering a request's next step, a leader waking its followers).
pub(crate) struct WakeFd {
    fd: OwnedFd,
}

impl WakeFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter zero.
    pub(crate) fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall; the returned fd is owned exclusively here.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd { fd: own(fd) })
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

/// Starts a TCP connection to `addr` without waiting for it: the returned
/// stream is nonblocking and either connected already or still connecting.
/// Register it for `EV_WRITE`; once writable, `TcpStream::take_error` says
/// whether the connection was established.
pub(crate) fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    // `sockaddr_in` / `sockaddr_in6` as the kernel reads them: the family
    // in host order, the port and the address in network order.
    let mut sa = [0u8; 28];
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            sa[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    sa[0..2].copy_from_slice(&family.to_ne_bytes());
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    // SAFETY: plain syscall; the returned fd is owned exclusively here.
    let fd = cvt(unsafe {
        socket(
            c_int::from(family),
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    })?;
    let stream = TcpStream::from(own(fd));
    // SAFETY: `sa` is a live buffer holding `len` (≤ 28) initialised bytes
    // laid out as the socket address of `family`; the kernel copies it.
    // `stream` keeps `fd` open across the call.
    let ret = unsafe { connect(fd, sa.as_ptr().cast::<c_void>(), len) };
    if ret < 0 {
        let err = io::Error::last_os_error();
        // Otherwise the handshake continues in the background.
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// Sets the process's allocator policy for bodies, once (every server
/// calls it as it starts). glibc serves a block above its mmap threshold
/// from a mapping of its own and unmaps it on free, and returns a heap's
/// free top to the kernel above its trim threshold; both start at
/// 128 KiB and chase each larger body freed. Either way the next body of
/// that size faults its pages back in, ≈ 2 µs per 4 KiB page. Fixed at
/// 32 MiB (glibc's own ceiling for the adaptive threshold) and 64 MiB
/// (twice it, glibc's own rule), a freed body's pages stay in the heap
/// for the next one. Other C libraries keep their defaults.
pub(crate) fn set_memory_policy() {
    #[cfg(target_env = "gnu")]
    {
        static POLICY: std::sync::Once = std::sync::Once::new();
        POLICY.call_once(|| {
            // SAFETY: `mallopt` only sets two of glibc's allocator
            // parameters, under the main arena's lock, and touches no
            // memory of ours; other threads read them unlocked, as they
            // do when glibc's own `free` moves them. A refused value
            // keeps the default.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
                mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD);
            }
        });
    }
}

/// One positional vectored read of `file` at `offset`: fills `first`, then
/// `second`, and returns how many bytes it read — fewer than both hold at
/// the end of the file, or when only part of the range could be had. With
/// `nowait` the call never waits for the disk: bytes not in the page cache
/// are `EAGAIN`, and a file system that cannot promise that (tmpfs) answers
/// `EOPNOTSUPP`.
pub(crate) fn read_two_at(
    file: &File,
    first: &mut [u8],
    second: &mut [u8],
    offset: u64,
    nowait: bool,
) -> io::Result<usize> {
    let offset = i64::try_from(offset).map_err(|_| io::ErrorKind::InvalidInput)?;
    let iov = [first, second].map(|buf| IoVec {
        base: buf.as_mut_ptr().cast::<c_void>(),
        len: buf.len(),
    });
    let flags = if nowait { RWF_NOWAIT } else { 0 };
    // SAFETY: each iovec names a live, exclusively borrowed buffer of
    // exactly `len` writable bytes that outlives the call; `file` keeps
    // the descriptor open across it.
    let n = unsafe { preadv2(file.as_raw_fd(), iov.as_ptr(), 2, offset, flags) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// Asks the kernel to drop `file`'s clean pages from the page cache, so a
/// test can see a cold read. Advice only: some file systems keep them.
#[cfg(test)]
pub(crate) fn drop_page_cache(file: &File) {
    const POSIX_FADV_DONTNEED: c_int = 4;
    // SAFETY: plain syscall on a descriptor `file` keeps open.
    unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;

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

    /// A nonblocking connect reports success as writability with no
    /// pending socket error, and a refused one as an error — at the call
    /// or through `take_error` once the socket signals.
    #[test]
    fn connect_nonblocking_reports_through_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut stream = connect_nonblocking(addr).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(stream.as_raw_fd(), 1, EV_WRITE).unwrap();
        let mut events = [EpollEvent::default(); 1];
        assert_eq!(
            ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap(),
            1
        );
        assert!(stream.take_error().unwrap().is_none());
        assert_eq!(stream.peer_addr().unwrap(), addr);
        let (mut server, _) = listener.accept().unwrap();
        stream.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        std::io::Read::read_exact(&mut server, &mut got).unwrap();
        assert_eq!(&got, b"ping");

        // Nobody listens there any more.
        drop((listener, server));
        let refused = connect_nonblocking(addr).and_then(|stream| {
            let ep = Epoll::new()?;
            ep.add(stream.as_raw_fd(), 2, EV_WRITE)?;
            ep.wait(&mut events, Some(Duration::from_secs(5)))?;
            match stream.take_error()? {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        assert_eq!(
            refused.unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
    }

    /// Both buffers fill from one call at an offset; the end of the file
    /// shortens the count; a `nowait` read returns the same bytes or
    /// declines, and never anything else.
    #[test]
    fn read_two_at_fills_both_buffers_from_an_offset() {
        let path = std::env::temp_dir().join(format!("baps-sys-pread-{}", std::process::id()));
        std::fs::write(&path, b"0123456789abcdef").unwrap();
        let file = File::open(&path).unwrap();
        let (mut a, mut b) = ([0u8; 4], [0u8; 6]);
        assert_eq!(read_two_at(&file, &mut a, &mut b, 2, false).unwrap(), 10);
        assert_eq!((&a, &b), (b"2345", b"6789ab"));
        assert_eq!(read_two_at(&file, &mut a, &mut b, 12, false).unwrap(), 4);
        assert_eq!(&a, b"cdef");
        let (mut a, mut b) = ([0u8; 4], [0u8; 6]);
        match read_two_at(&file, &mut a, &mut b, 2, true) {
            Ok(10) => assert_eq!((&a, &b), (b"2345", b"6789ab")),
            Ok(n) => assert!(n < 10),
            // `EAGAIN` (cold pages), `EOPNOTSUPP` (tmpfs), `ENOSYS`.
            Err(_) => {}
        }
        let _ = std::fs::remove_file(&path);
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
