//! Bounded connection-serving infrastructure shared by the origin and
//! client peer servers (the proxy serves connections from event loops, see
//! `reactor.rs`; it reuses [`PoolTelemetry`] for its miss executor).
//!
//! The seed runtime spawned one detached `std::thread` per accepted TCP
//! connection: under a connection flood that exhausts OS threads, and the
//! detached handlers made clean shutdown impossible once connections became
//! persistent. This module replaces that with:
//!
//! * [`WorkerPool`] — a fixed set of named worker threads pulling accepted
//!   connections from a **bounded** queue. When the queue is full the new
//!   connection is dropped (its peer sees EOF and may retry), so a flood
//!   degrades gracefully instead of taking the process down.
//! * [`ConnRegistry`] — the set of currently open connections. Keep-alive
//!   handlers block in `read_message` between requests, so the connect-once
//!   "wake the acceptor" trick can no longer terminate them; shutdown now
//!   calls [`TcpStream::shutdown`] on every registered socket, which makes
//!   each handler's blocking read return and its loop exit.

use baps_obs::{AtomicHistogram, LatencyHistogram};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default worker threads per server.
pub const DEFAULT_WORKERS: usize = 8;
/// Default bounded backlog of accepted-but-unclaimed connections.
pub const DEFAULT_BACKLOG: usize = 64;

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

/// Tracks open connections so shutdown can unblock their handlers.
#[derive(Default)]
pub struct ConnRegistry {
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
    closing: AtomicBool,
}

impl ConnRegistry {
    /// Creates an empty registry.
    pub fn new() -> ConnRegistry {
        ConnRegistry::default()
    }

    /// Registers a connection; returns a token for [`Self::deregister`],
    /// or `None` when the registry is already shutting down (the caller
    /// should drop the connection instead of serving it).
    pub fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = self.conns.lock();
            if self.closing.load(Ordering::Acquire) {
                return None;
            }
            conns.insert(id, clone);
        }
        Some(id)
    }

    /// Removes a finished connection.
    pub fn deregister(&self, id: u64) {
        self.conns.lock().remove(&id);
    }

    /// Number of currently open connections.
    pub fn open_connections(&self) -> usize {
        self.conns.lock().len()
    }

    /// Shuts down both directions of every registered socket, forcing any
    /// handler blocked in a read to observe EOF and exit its serve loop.
    /// Later connections are served as usual.
    pub fn sever_all(&self) {
        let conns = std::mem::take(&mut *self.conns.lock());
        for stream in conns.into_values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// [`Self::sever_all`], and further registrations are refused.
    pub fn close_all(&self) {
        self.closing.store(true, Ordering::Release);
        self.sever_all();
    }
}

/// Runtime-saturation telemetry for a queue feeding a fixed set of worker
/// threads: how deep the queue runs, how long items sit in it before a
/// worker picks them up, and how many workers are busy. The proxy's miss
/// executor reports through it (one item per offloaded request); so does
/// each [`WorkerPool`] (one item per accepted connection).
///
/// All fields are plain atomics recorded unconditionally: saturation data
/// must exist even when the overhead benchmark turns event recording off,
/// and a handful of relaxed atomic ops per queued item is far below the
/// always-on budget.
#[derive(Debug, Default)]
pub struct PoolTelemetry {
    workers: AtomicU64,
    queued: AtomicU64,
    queued_peak: AtomicU64,
    busy: AtomicU64,
    busy_peak: AtomicU64,
    rejected: AtomicU64,
    queue_wait: AtomicHistogram,
}

/// A point-in-time copy of a [`PoolTelemetry`].
#[derive(Debug, Clone)]
pub struct SaturationSnapshot {
    /// Configured worker threads.
    pub workers: u64,
    /// Items currently queued, waiting for a worker.
    pub queue_depth: u64,
    /// Deepest the queue has been since start.
    pub queue_depth_peak: u64,
    /// Workers currently running an item.
    pub busy_workers: u64,
    /// Most workers simultaneously busy since start.
    pub busy_workers_peak: u64,
    /// Items refused because the queue was full or closed.
    pub rejected: u64,
    /// Time items spent queued before a worker claimed them.
    pub queue_wait: LatencyHistogram,
}

impl PoolTelemetry {
    /// Creates zeroed telemetry.
    pub fn new() -> PoolTelemetry {
        PoolTelemetry::default()
    }

    fn raise_peak(peak: &AtomicU64, value: u64) {
        // Same cheap discipline as `AtomicHistogram::record_ms`: skip the
        // CAS loop unless this is actually a new peak.
        if value > peak.load(Ordering::Relaxed) {
            peak.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records the configured worker count.
    pub(crate) fn set_workers(&self, n: u64) {
        self.workers.store(n, Ordering::Relaxed);
    }

    pub(crate) fn enqueued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        Self::raise_peak(&self.queued_peak, depth);
    }

    pub(crate) fn enqueue_failed(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn dequeued(&self, wait: Duration) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record(wait);
    }

    pub(crate) fn task_started(&self) {
        let busy = self.busy.fetch_add(1, Ordering::Relaxed) + 1;
        Self::raise_peak(&self.busy_peak, busy);
    }

    pub(crate) fn task_finished(&self) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every gauge, peak, and the wait histogram.
    pub fn snapshot(&self) -> SaturationSnapshot {
        SaturationSnapshot {
            workers: self.workers.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Relaxed),
            queue_depth_peak: self.queued_peak.load(Ordering::Relaxed),
            busy_workers: self.busy.load(Ordering::Relaxed),
            busy_workers_peak: self.busy_peak.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
        }
    }
}

/// A fixed-size pool of worker threads serving accepted connections from a
/// bounded queue.
pub struct WorkerPool {
    tx: SyncSender<(TcpStream, Instant)>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<ConnRegistry>,
    telemetry: Arc<PoolTelemetry>,
}

impl WorkerPool {
    /// Spawns `workers` threads named `{name}-N`. Each accepted connection
    /// handed to [`Self::dispatch`] is registered, served by `handler`
    /// (which typically loops over `read_message`), then deregistered.
    pub fn start<F>(
        name: &str,
        workers: usize,
        backlog: usize,
        handler: F,
    ) -> io::Result<WorkerPool>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let telemetry = Arc::new(PoolTelemetry::new());
        telemetry.set_workers(workers as u64);
        let (tx, rx) = std::sync::mpsc::sync_channel::<(TcpStream, Instant)>(backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let registry = Arc::new(ConnRegistry::new());
        let handler = Arc::new(handler);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let registry = Arc::clone(&registry);
            let handler = Arc::clone(&handler);
            let telemetry = Arc::clone(&telemetry);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&rx, &registry, &telemetry, &*handler))?,
            );
        }
        Ok(WorkerPool {
            tx,
            workers: handles,
            registry,
            telemetry,
        })
    }

    /// Queues an accepted connection for a worker. Returns `false` (and
    /// drops the connection) when the backlog is full or the pool stopped.
    pub fn dispatch(&self, stream: TcpStream) -> bool {
        // Count the connection *before* handing it over: a worker may
        // claim it (and decrement the gauge) the instant `try_send`
        // lands, so incrementing afterwards would race the gauge below
        // zero. A failed send undoes the increment.
        self.telemetry.enqueued();
        match self.tx.try_send((stream, Instant::now())) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.telemetry.enqueue_failed();
                false
            }
        }
    }

    /// Connections dropped because the backlog was full.
    pub fn rejected(&self) -> u64 {
        self.telemetry.rejected.load(Ordering::Relaxed)
    }

    /// The pool's connection registry (for shutdown and diagnostics).
    pub fn registry(&self) -> &Arc<ConnRegistry> {
        &self.registry
    }

    /// The pool's saturation telemetry.
    pub fn telemetry(&self) -> &Arc<PoolTelemetry> {
        &self.telemetry
    }

    /// Stops accepting new work, unblocks in-flight handlers by closing
    /// their sockets, and joins every worker thread.
    pub fn shutdown(mut self) {
        // Workers exit when the channel disconnects *and* their current
        // connection's serve loop ends; closing the sockets guarantees the
        // latter.
        drop(self.tx);
        self.registry.close_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<F: Fn(TcpStream) + ?Sized>(
    rx: &Mutex<Receiver<(TcpStream, Instant)>>,
    registry: &ConnRegistry,
    telemetry: &PoolTelemetry,
    handler: &F,
) {
    loop {
        // Hold the lock only while waiting for the next connection, so
        // idle workers queue up on the receiver fairly.
        let received = {
            let rx = rx.lock();
            rx.recv()
        };
        let Ok((stream, enqueued_at)) = received else {
            break;
        };
        telemetry.dequeued(enqueued_at.elapsed());
        // Request/response protocol: never trade latency for batching.
        let _ = stream.set_nodelay(true);
        let Some(token) = registry.register(&stream) else {
            continue; // shutting down: drop the connection
        };
        telemetry.task_started();
        handler(stream);
        telemetry.task_finished();
        registry.deregister(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::time::Duration;

    #[test]
    fn pool_serves_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = WorkerPool::start("test-pool", 2, 4, |mut s: TcpStream| {
            let mut buf = [0u8; 4];
            if s.read_exact(&mut buf).is_ok() {
                let _ = s.write_all(&buf);
            }
        })
        .unwrap();
        let acceptor = std::thread::spawn({
            move || {
                for _ in 0..4 {
                    let (conn, _) = listener.accept().unwrap();
                    assert!(pool.dispatch(conn));
                }
                pool
            }
        });
        for _ in 0..4 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
        }
        let pool = acceptor.join().unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_unblocks_stuck_handler() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Handler blocks reading until the socket dies.
        let pool = WorkerPool::start("stuck-pool", 1, 1, |mut s: TcpStream| {
            let mut buf = [0u8; 1];
            while let Ok(n) = s.read(&mut buf) {
                if n == 0 {
                    break;
                }
            }
        })
        .unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        assert!(pool.dispatch(conn));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.registry().open_connections(), 1);
        // Without close_all this would hang forever on join.
        pool.shutdown();
        drop(client);
    }

    #[test]
    fn telemetry_tracks_queue_busy_and_waits() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = WorkerPool::start("telemetry-pool", 2, 4, |mut s: TcpStream| {
            let mut buf = [0u8; 4];
            if s.read_exact(&mut buf).is_ok() {
                let _ = s.write_all(&buf);
            }
        })
        .unwrap();
        let telemetry = Arc::clone(pool.telemetry());
        let acceptor = std::thread::spawn(move || {
            for _ in 0..4 {
                let (conn, _) = listener.accept().unwrap();
                assert!(pool.dispatch(conn));
            }
            pool
        });
        for _ in 0..4 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).unwrap();
        }
        let pool = acceptor.join().unwrap();
        let snap = pool.telemetry().snapshot();
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.queue_wait.count(), 4, "every dispatch waits once");
        assert!(snap.busy_workers_peak >= 1);
        assert!(snap.queue_depth_peak >= 1);
        pool.shutdown();
        // After shutdown nothing is queued or busy.
        assert_eq!(telemetry.snapshot().queue_depth, 0);
        assert_eq!(telemetry.snapshot().busy_workers, 0);
    }

    #[test]
    fn full_backlog_rejects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One worker that blocks forever on its first connection, backlog 1.
        let pool = WorkerPool::start("flood-pool", 1, 1, |mut s: TcpStream| {
            let mut buf = [0u8; 1];
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
        })
        .unwrap();
        let mut clients = Vec::new();
        let mut rejected = 0;
        for _ in 0..8 {
            clients.push(TcpStream::connect(addr).unwrap());
            let (conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(10));
            if !pool.dispatch(conn) {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "flood should overflow a backlog of 1");
        assert_eq!(pool.rejected(), rejected);
        pool.shutdown();
    }
}
