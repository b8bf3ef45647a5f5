//! The proxy's one upstream connection pool (DESIGN.md §6a).
//!
//! Every exchange the proxy *initiates* — a `PEERGET` probe, a
//! direct-forward `PUSH` order, an origin `GET` / `If-Digest` — is one
//! [`UpstreamPool::exchange`]: check a kept-alive connection out (or dial),
//! write one request, read one reply, check the connection back in. The
//! rules that keep a reused byte stream trustworthy live here and nowhere
//! else:
//!
//! * **Peek before write.** A checked-out connection is asked
//!   [`sys::is_idle`] *before* the request is written. One that its other
//!   end closed while it sat idle, or that holds bytes nobody asked for, is
//!   discarded and replaced by a dial — so a stale connection never costs
//!   the request, and every attempt still sends exactly one request.
//! * **Check in only in sync.** A connection returns to the pool only
//!   after a fully framed reply (an error status is still a frame) with
//!   nothing buffered behind it. A transport error, an EOF, a truncated
//!   frame or an expired deadline drops it: a desynchronised stream is
//!   never reused.
//! * **Bounded idle sets.** Every upstream serves connections from event
//!   loops, so an idle one costs its far end an fd and no thread; what
//!   bounds the set is this side: at most one per miss-executor thread is
//!   ever in use for an address at once, so that many are kept per address,
//!   peer or origin alike. Idle connections older than [`IDLE_LIMIT`] are
//!   closed by [`UpstreamPool::reap`] (the proxy's 1 Hz sampler tick) —
//!   that is what gives both ends their descriptors back.
//!
//! Retry policy stays with the callers (`peer_retries`, `origin_retries`),
//! with one exception kept from the origin-only pool this replaces: an
//! origin exchange that fails on a *reused* connection redials once.

use crate::protocol::{read_message, write_message, Message};
use crate::sys;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a connection may sit idle before [`UpstreamPool::reap`] closes
/// it.
pub(crate) const IDLE_LIMIT: Duration = Duration::from_secs(5);

/// Dials `addr` with `deadline` as the connect timeout and installs it as
/// the read/write timeout on the resulting stream, so no later blocking
/// operation on this socket can outlive it. `Duration::ZERO` disables the
/// deadline entirely (plain blocking connect, no socket timeouts).
pub fn dial_with_deadline(addr: SocketAddr, deadline: Duration) -> io::Result<TcpStream> {
    let stream = if deadline.is_zero() {
        TcpStream::connect(addr)?
    } else {
        TcpStream::connect_timeout(&addr, deadline)?
    };
    stream.set_nodelay(true)?;
    if !deadline.is_zero() {
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
    }
    Ok(stream)
}

/// Which kind of server an address belongs to: the label of the
/// per-upstream counters and the index into them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Upstream {
    Peer = 0,
    Origin = 1,
}

/// `upstream` label values, indexed like [`UpstreamSnapshot::dials`].
pub(crate) const UPSTREAM_LABELS: [&str; 2] = ["peer", "origin"];

/// One parked connection. Writes go through `BufReader::get_mut`, so a
/// connection is one fd.
struct IdleConn {
    conn: BufReader<TcpStream>,
    since: Instant,
}

/// Kept-alive connections to every upstream the proxy talks to, keyed by
/// address. The lock guards only the map: dials, peeks, exchanges and
/// closes all happen outside it.
pub(crate) struct UpstreamPool {
    origin: SocketAddr,
    /// Idle connections kept per address (the miss-executor width: every
    /// worker may hold one connection to an address between exchanges).
    idle_cap: usize,
    /// Per address, oldest first: check-in pushes, check-out pops.
    idle: Mutex<HashMap<SocketAddr, Vec<IdleConn>>>,
    dials: [AtomicU64; 2],
    reuses: [AtomicU64; 2],
    stale: AtomicU64,
}

/// A point-in-time copy of the pool's counters (`METRICS` renders it).
pub(crate) struct UpstreamSnapshot {
    /// Connections established, by [`UPSTREAM_LABELS`] index.
    pub(crate) dials: [u64; 2],
    /// Exchanges that rode a kept-alive connection, by the same index.
    pub(crate) reuses: [u64; 2],
    /// Checked-out connections the liveness peek rejected.
    pub(crate) stale: u64,
    /// Connections idle in the pool right now.
    pub(crate) idle: u64,
}

/// One request, one reply, on a connection believed to be in sync.
fn round_trip(conn: &mut BufReader<TcpStream>, msg: &Message) -> io::Result<Message> {
    write_message(conn.get_mut(), msg)?;
    read_message(conn)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "upstream hung up"))
}

impl UpstreamPool {
    pub(crate) fn new(origin: SocketAddr, idle_cap: usize) -> UpstreamPool {
        UpstreamPool {
            origin,
            idle_cap,
            idle: Mutex::new(HashMap::new()),
            dials: Default::default(),
            reuses: Default::default(),
            stale: AtomicU64::new(0),
        }
    }

    fn kind(&self, addr: SocketAddr) -> Upstream {
        if addr == self.origin {
            Upstream::Origin
        } else {
            Upstream::Peer
        }
    }

    /// Sends `msg` to `addr` and returns its fully framed reply, over a
    /// kept-alive connection when a live one is idle. `deadline` bounds
    /// the dial and every later read and write on the connection
    /// (`Duration::ZERO` disables it).
    pub(crate) fn exchange(
        &self,
        addr: SocketAddr,
        deadline: Duration,
        msg: &Message,
    ) -> io::Result<Message> {
        let (mut conn, reused) = match self.check_out(addr) {
            Some(conn) => (conn, true),
            None => (self.dial(addr, deadline)?, false),
        };
        let reply = match round_trip(&mut conn, msg) {
            // Not counted against `origin_retries`: the connection died
            // between the peek and the reply, the origin itself was never
            // heard to fail. Peers get no such redial — their fault draws
            // are per PEERGET/PUSH, and `peer_retries` already covers it.
            Err(_) if reused && self.kind(addr) == Upstream::Origin => {
                conn = self.dial(addr, deadline)?;
                round_trip(&mut conn, msg)?
            }
            other => other?,
        };
        self.check_in(addr, conn);
        Ok(reply)
    }

    /// Pops idle connections to `addr` until one passes the liveness peek.
    fn check_out(&self, addr: SocketAddr) -> Option<BufReader<TcpStream>> {
        loop {
            let parked = self.idle.lock().get_mut(&addr).and_then(Vec::pop)?;
            if sys::is_idle(parked.conn.get_ref()) {
                self.reuses[self.kind(addr) as usize].fetch_add(1, Ordering::Relaxed);
                return Some(parked.conn);
            }
            self.stale.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn dial(&self, addr: SocketAddr, deadline: Duration) -> io::Result<BufReader<TcpStream>> {
        match dial_with_deadline(addr, deadline) {
            Ok(stream) => {
                self.dials[self.kind(addr) as usize].fetch_add(1, Ordering::Relaxed);
                Ok(BufReader::new(stream))
            }
            Err(e) => {
                // Nobody is listening there any more: whatever is parked
                // for the address is dead weight.
                self.forget(addr);
                Err(e)
            }
        }
    }

    fn check_in(&self, addr: SocketAddr, conn: BufReader<TcpStream>) {
        if !conn.buffer().is_empty() {
            // Bytes behind the reply's frame: out of sync, not reusable.
            return;
        }
        let surplus = {
            let mut idle = self.idle.lock();
            let parked = idle.entry(addr).or_default();
            if parked.len() < self.idle_cap {
                parked.push(IdleConn {
                    conn,
                    since: Instant::now(),
                });
                None
            } else {
                Some(conn)
            }
        };
        drop(surplus);
    }

    /// Closes every idle connection parked longer than [`IDLE_LIMIT`] as of
    /// `now`, and forgets addresses left with none.
    pub(crate) fn reap(&self, now: Instant) {
        let mut expired = Vec::new();
        self.idle.lock().retain(|_, parked| {
            let fresh =
                parked.partition_point(|c| now.saturating_duration_since(c.since) >= IDLE_LIMIT);
            expired.extend(parked.drain(..fresh));
            !parked.is_empty()
        });
        drop(expired);
    }

    /// Closes the idle connections to `addr` (its REGISTER moved, or a
    /// dial to it failed).
    pub(crate) fn forget(&self, addr: SocketAddr) {
        let dropped = self.idle.lock().remove(&addr);
        drop(dropped);
    }

    /// Closes every idle connection.
    pub(crate) fn clear(&self) {
        let dropped = std::mem::take(&mut *self.idle.lock());
        drop(dropped);
    }

    pub(crate) fn snapshot(&self) -> UpstreamSnapshot {
        let load = |pair: &[AtomicU64; 2]| pair.each_ref().map(|n| n.load(Ordering::Relaxed));
        UpstreamSnapshot {
            dials: load(&self.dials),
            reuses: load(&self.reuses),
            stale: self.stale.load(Ordering::Relaxed),
            idle: self.idle.lock().values().map(|p| p.len() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{response, response_code, status};
    use std::io::Write as _;
    use std::net::TcpListener;
    use std::sync::Arc;

    const DEADLINE: Duration = Duration::from_secs(5);

    /// What the test server does with the `n`-th request (counted across
    /// all its connections, from 0).
    #[derive(Clone, Copy)]
    enum Act {
        /// Reply `200` with the request's start line as the body.
        Echo,
        /// Reply `410 Gone` (a framed refusal).
        Gone,
        /// Reply honestly, then close the connection.
        EchoThenClose,
        /// Close the connection without replying.
        Drop,
        /// Write half a reply frame, then close.
        Truncate,
        /// Reply honestly, then push bytes nobody asked for.
        Babble,
    }

    /// A threaded keep-alive server: each connection loops over
    /// `read_message`; `script(n)` picks the reaction to request `n`.
    struct Server {
        addr: SocketAddr,
        accepted: Arc<AtomicU64>,
    }

    fn server(script: impl Fn(u64) -> Act + Send + Sync + 'static) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let requests = Arc::new(AtomicU64::new(0));
        let script = Arc::new(script);
        {
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let requests = Arc::clone(&requests);
                    let script = Arc::clone(&script);
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(stream);
                        while let Ok(Some(msg)) = read_message(&mut reader) {
                            let n = requests.fetch_add(1, Ordering::SeqCst);
                            let echo = response(status::OK, "OK").with_body(msg.start.into_bytes());
                            let out = reader.get_mut();
                            match script(n) {
                                Act::Echo => write_message(out, &echo).unwrap(),
                                Act::Gone => {
                                    write_message(out, &response(status::GONE, "Gone")).unwrap()
                                }
                                Act::EchoThenClose => {
                                    write_message(out, &echo).unwrap();
                                    return;
                                }
                                Act::Drop => return,
                                Act::Truncate => {
                                    let frame = crate::protocol::encode_message(&echo).unwrap();
                                    out.write_all(&frame[..frame.len() / 2]).unwrap();
                                    return;
                                }
                                Act::Babble => {
                                    write_message(out, &echo).unwrap();
                                    std::thread::sleep(Duration::from_millis(20));
                                    out.write_all(b"BAPS/1.0 200 stray\r\n\r\n").unwrap();
                                }
                            }
                        }
                    });
                }
            });
        }
        Server { addr, accepted }
    }

    impl Server {
        fn accepted(&self) -> u64 {
            self.accepted.load(Ordering::SeqCst)
        }
    }

    /// A pool whose origin is somewhere else, so `server` addresses are
    /// peers.
    fn peer_pool() -> UpstreamPool {
        UpstreamPool::new("127.0.0.1:1".parse().unwrap(), 8)
    }

    fn ask(pool: &UpstreamPool, addr: SocketAddr, what: &str) -> io::Result<Message> {
        pool.exchange(
            addr,
            DEADLINE,
            &Message::new(format!("PEERGET {what} BAPS/1.0")),
        )
    }

    fn idle_at(pool: &UpstreamPool, addr: SocketAddr) -> usize {
        pool.idle.lock().get(&addr).map_or(0, Vec::len)
    }

    /// Waits until the peek would see what the other side did to the
    /// parked connection (its FIN or stray bytes are in flight on
    /// loopback, not yet necessarily delivered).
    fn until_not_idle(pool: &UpstreamPool, addr: SocketAddr) {
        let t0 = Instant::now();
        loop {
            let quiet = {
                let idle = pool.idle.lock();
                sys::is_idle(idle[&addr].last().unwrap().conn.get_ref())
            };
            if !quiet {
                return;
            }
            assert!(t0.elapsed() < DEADLINE, "parked connection stayed idle");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_exchanges_share_one_connection() {
        let srv = server(|_| Act::Echo);
        let pool = peer_pool();
        for i in 0..50 {
            let reply = ask(&pool, srv.addr, &format!("/doc/{i}")).unwrap();
            assert_eq!(
                &reply.body[..],
                format!("PEERGET /doc/{i} BAPS/1.0").as_bytes()
            );
        }
        let s = pool.snapshot();
        assert_eq!(
            (s.dials, s.reuses, s.stale, s.idle),
            ([1, 0], [49, 0], 0, 1)
        );
        assert_eq!(srv.accepted(), 1);
    }

    /// A framed refusal leaves the stream in sync: the connection is
    /// reused for the next request.
    #[test]
    fn framed_error_reply_keeps_the_connection() {
        let srv = server(|n| if n == 0 { Act::Gone } else { Act::Echo });
        let pool = peer_pool();
        let gone = ask(&pool, srv.addr, "/a").unwrap();
        assert_eq!(response_code(&gone), Some(status::GONE));
        assert_eq!(
            response_code(&ask(&pool, srv.addr, "/b").unwrap()),
            Some(status::OK)
        );
        assert_eq!(pool.snapshot().dials, [1, 0]);
    }

    /// A drop or a truncated frame on a reused connection: the error
    /// surfaces (peers get no silent redial), the connection is gone for
    /// good, and the next reply — on a fresh one — is intact.
    #[test]
    fn transport_failure_never_returns_the_connection() {
        for bad in [Act::Drop, Act::Truncate] {
            let srv = server(move |n| if n == 1 { bad } else { Act::Echo });
            let pool = peer_pool();
            ask(&pool, srv.addr, "/warm").unwrap();
            assert!(ask(&pool, srv.addr, "/faulted").is_err());
            assert_eq!(pool.snapshot().idle, 0, "failed connection was parked");
            let reply = ask(&pool, srv.addr, "/after").unwrap();
            assert_eq!(&reply.body[..], b"PEERGET /after BAPS/1.0");
            let s = pool.snapshot();
            assert_eq!((s.dials, s.reuses, s.stale), ([2, 0], [1, 0], 0));
        }
    }

    /// The other side closed the parked connection: the peek sees it
    /// before anything is written, so the request is sent once, on a
    /// fresh dial, and succeeds.
    #[test]
    fn closed_idle_connection_is_replaced_before_writing() {
        let srv = server(|n| {
            if n == 0 {
                Act::EchoThenClose
            } else {
                Act::Echo
            }
        });
        let pool = peer_pool();
        ask(&pool, srv.addr, "/warm").unwrap();
        until_not_idle(&pool, srv.addr);
        let reply = ask(&pool, srv.addr, "/next").unwrap();
        assert_eq!(&reply.body[..], b"PEERGET /next BAPS/1.0");
        let s = pool.snapshot();
        assert_eq!((s.dials, s.reuses, s.stale, s.idle), ([2, 0], [0, 0], 1, 1));
    }

    /// Unread bytes behind a reply mean the stream is out of step with
    /// its requests; such a connection is never handed out again.
    #[test]
    fn pending_bytes_disqualify_a_connection() {
        let srv = server(|n| if n == 0 { Act::Babble } else { Act::Echo });
        let pool = peer_pool();
        ask(&pool, srv.addr, "/warm").unwrap();
        if idle_at(&pool, srv.addr) == 1 {
            // The stray bytes arrived after check-in: the peek catches them.
            until_not_idle(&pool, srv.addr);
        }
        let reply = ask(&pool, srv.addr, "/next").unwrap();
        assert_eq!(&reply.body[..], b"PEERGET /next BAPS/1.0");
        assert_eq!(pool.snapshot().dials, [2, 0]);
    }

    /// One cap for every address, peer or origin.
    #[test]
    fn idle_set_is_capped_per_address() {
        const CAP: usize = 3;
        let srv = server(|_| Act::Echo);
        for origin in [srv.addr, "127.0.0.1:1".parse().unwrap()] {
            let pool = UpstreamPool::new(origin, CAP);
            // More connections in use at once than the cap (callers beyond
            // the miss executor, say).
            let held: Vec<_> = (0..CAP + 2)
                .map(|_| pool.dial(srv.addr, DEADLINE).unwrap())
                .collect();
            for conn in held {
                pool.check_in(srv.addr, conn);
            }
            assert_eq!(idle_at(&pool, srv.addr), CAP);
        }
    }

    /// The reaper closes exactly the entries parked for `IDLE_LIMIT` or
    /// longer as of the instant it is given.
    #[test]
    fn reap_closes_exactly_the_expired() {
        let old = server(|_| Act::Echo);
        let young = server(|_| Act::Echo);
        let pool = peer_pool();
        ask(&pool, old.addr, "/a").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let between = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        ask(&pool, young.addr, "/b").unwrap();

        pool.reap(between + IDLE_LIMIT - Duration::from_millis(10));
        assert_eq!(pool.snapshot().idle, 2, "nothing is past the limit yet");
        pool.reap(between + IDLE_LIMIT);
        assert_eq!(
            (idle_at(&pool, old.addr), idle_at(&pool, young.addr)),
            (0, 1)
        );
        assert!(
            !pool.idle.lock().contains_key(&old.addr),
            "emptied address is forgotten"
        );
        pool.reap(between + IDLE_LIMIT + Duration::from_secs(1));
        assert_eq!(pool.snapshot().idle, 0);
        // Reaped, not broken: the next exchange simply dials.
        ask(&pool, old.addr, "/c").unwrap();
        assert_eq!(pool.snapshot().dials, [3, 0]);
    }

    #[test]
    fn failed_dial_and_forget_drop_the_idle_set() {
        let srv = server(|_| Act::Echo);
        let pool = peer_pool();
        ask(&pool, srv.addr, "/a").unwrap();
        pool.forget(srv.addr);
        assert_eq!(pool.snapshot().idle, 0);

        // Park a connection under an address nobody listens on (bind, note
        // the port, close), then fail a dial to it.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let conn = pool.dial(srv.addr, DEADLINE).unwrap();
        pool.check_in(dead, conn);
        assert_eq!(idle_at(&pool, dead), 1);
        assert!(pool.dial(dead, DEADLINE).is_err());
        assert_eq!(idle_at(&pool, dead), 0);
    }

    /// The origin keeps the rule of the pool this one replaced: a failure
    /// on a reused connection redials once, invisibly; on a fresh one it
    /// surfaces.
    #[test]
    fn origin_redials_once_only_when_reused() {
        let srv = server(|n| {
            if n == 1 || n == 3 {
                Act::Drop
            } else {
                Act::Echo
            }
        });
        let pool = UpstreamPool::new(srv.addr, 8);
        ask(&pool, srv.addr, "/0").unwrap();
        // Request 1 dies on the reused connection; request 2 is its replay.
        let reply = ask(&pool, srv.addr, "/1").unwrap();
        assert_eq!(&reply.body[..], b"PEERGET /1 BAPS/1.0");
        let s = pool.snapshot();
        assert_eq!((s.dials, s.reuses), ([0, 2], [0, 1]));
        // Request 3 dies on a fresh connection: no replay.
        pool.clear();
        assert!(ask(&pool, srv.addr, "/3").is_err());
        assert_eq!(pool.snapshot().dials, [0, 3]);
    }
}
