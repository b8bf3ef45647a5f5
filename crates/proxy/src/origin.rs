//! The origin Web server: serves the document corpus over the wire
//! protocol (`GET <url> ORIGIN/1.0`).
//!
//! The origin is where a document's digest is born: the store hashes each
//! version once ([`baps_crypto::document_digest`]), when it is authored,
//! and every `200` carries it as `Digest: <hex>` — the digest the proxy
//! signs for the §6.1 watermark without hashing the body again (DESIGN.md
//! §5).
//!
//! A `GET` may carry an `If-Digest: <hex>` header (the proxy's
//! disk-tier revalidation): when the named digest is still the stored
//! version's, the origin answers `304 Not Modified` with no body, so a
//! stale disk entry is refreshed for the cost of a header exchange instead
//! of a full document transfer — and of no hash on either side.

use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{response, response_code, status, trace_of, Body, Message};
use crate::reactor::{loops_per_core, Event, FrameCtx, FrameService, Seat, Server, Step};
use crate::store::{self, DocumentStore};
use baps_crypto::Digest;
use baps_obs::{span, EventKind, FlightRecorder};
use std::convert::Infallible;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A running origin server.
pub struct OriginServer {
    server: Server<Infallible>,
    state: Arc<OriginState>,
}

/// What the origin's event loops serve from: every request is answered
/// by its first step (a read lock and a refcount bump), so the origin runs
/// no executor and an open connection costs it no thread.
struct OriginState {
    store: RwLock<DocumentStore>,
    hits: AtomicU64,
    revalidations: AtomicU64,
    faults: Option<Arc<FaultPlan>>,
    recorder: Arc<FlightRecorder>,
}

impl OriginServer {
    /// Starts an honest server on an ephemeral loopback port.
    pub fn start(store: DocumentStore) -> io::Result<OriginServer> {
        OriginServer::start_with(store, None, None)
    }

    /// Starts the server with a fault plan — each served `GET` draws one
    /// origin-site fault decision (500s, mid-reply stalls, dropped
    /// connections), so a proxy's origin-retry path can be exercised
    /// deterministically — and a recorder for its `origin-serve` spans
    /// (the test bed passes the deployment-shared ring).
    pub fn start_with(
        store: DocumentStore,
        faults: Option<Arc<FaultPlan>>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> io::Result<OriginServer> {
        let state = Arc::new(OriginState {
            store: RwLock::new(store),
            hits: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
            faults,
            recorder: recorder.unwrap_or_default(),
        });
        let server = Server::bind("baps-origin", Arc::clone(&state), loops_per_core())?;
        Ok(OriginServer { server, state })
    }

    /// The address clients/proxies should dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Number of successful document fetches served (full bodies; `304
    /// Not Modified` answers are counted separately).
    pub fn hits(&self) -> u64 {
        self.state.hits.load(Ordering::Relaxed)
    }

    /// Number of conditional GETs answered `304 Not Modified` (the
    /// requester's `If-Digest` still matched, so no body was sent).
    pub fn revalidations(&self) -> u64 {
        self.state.revalidations.load(Ordering::Relaxed)
    }

    /// Mutates a stored document (models a changed Web page). The new
    /// version is hashed before the write lock is taken, so serving never
    /// waits on a digest.
    pub fn mutate(&self, url: &str, body: Vec<u8>) -> bool {
        let version = store::authored(body);
        self.state.store.write().unwrap().replace(url, version)
    }

    /// Stops accepting, closes every connection and joins the server's
    /// threads (dropping the server does the same).
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

impl FrameService for OriginState {
    type Cont = Infallible;

    fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// One fault decision per served GET; other verbs stay honest so the
    /// draw sequence tracks document requests exactly.
    fn fault(&self, plan: &FaultPlan, msg: &Message) -> Option<FaultKind> {
        match msg.tokens().first() {
            Some(&"GET") => plan.origin_fault(),
            _ => None,
        }
    }

    fn handle(
        &self,
        msg: &Message,
        fault: Option<FaultKind>,
        _ctx: &mut FrameCtx<'_>,
    ) -> Step<Infallible> {
        if fault == Some(FaultKind::OriginError) {
            // Pretend the backend failed; the document is NOT counted as
            // served.
            return Step::Reply(Some(response(
                status::SERVER_ERROR,
                "Internal Server Error",
            )));
        }
        let t_serve = std::time::Instant::now();
        let reply = handle_request(msg, &self.store, &self.hits, &self.revalidations);
        if let ["GET", url, "ORIGIN/1.0"] = msg.tokens().as_slice() {
            // On sampled traces the proxy forwards its origin-fetch span in
            // `Span-Id`; our serve span attaches under it.
            let (trace, parent) = trace_of(msg);
            self.recorder.record_hop(
                trace,
                span::child(parent),
                parent,
                EventKind::OriginServe,
                t_serve.elapsed(),
                |out: &mut String| {
                    let outcome = match response_code(&reply) {
                        Some(status::OK) => "ok",
                        Some(status::NOT_MODIFIED) => "not-modified",
                        _ => "miss",
                    };
                    for part in ["url=", url, " outcome=", outcome] {
                        out.push_str(part);
                    }
                },
            );
        }
        Step::Reply(Some(reply))
    }

    fn resume(&self, cont: Infallible, _: Event, _: &Seat<'_>) -> Step<Infallible> {
        match cont {}
    }
}

fn handle_request(
    msg: &Message,
    store: &RwLock<DocumentStore>,
    hits: &AtomicU64,
    revalidations: &AtomicU64,
) -> Message {
    let tokens = msg.tokens();
    match tokens.as_slice() {
        // `get_shared` hands out the stored allocation and the digest
        // minted with it: serving a document is a refcount bump under the
        // read lock, not a copy and not a hash.
        ["GET", url, "ORIGIN/1.0"] => match store.read().unwrap().get_shared(url) {
            Some((body, digest)) => {
                // Conditional GET: the requester names the digest of its
                // stale copy; if unchanged, refresh it without the body.
                if msg.get("If-Digest").and_then(Digest::from_hex) == Some(digest) {
                    revalidations.fetch_add(1, Ordering::Relaxed);
                    return response(status::NOT_MODIFIED, "Not Modified");
                }
                hits.fetch_add(1, Ordering::Relaxed);
                document_response(body, &digest)
            }
            None => response(status::NOT_FOUND, "Not Found"),
        },
        _ => response(status::BAD_REQUEST, "Bad Request"),
    }
}

/// A document the origin serves, with the digest minted when that version
/// was stored.
pub(crate) fn document_response(body: Body, digest: &Digest) -> Message {
    response(status::OK, "OK")
        .header_hex("Digest", &digest.0)
        .with_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_message, write_message};
    use std::io::BufReader;
    use std::net::TcpStream;

    fn fetch(addr: SocketAddr, url: &str) -> Message {
        exchange(addr, Message::new(format!("GET {url} ORIGIN/1.0")))
    }

    fn exchange(addr: SocketAddr, msg: Message) -> Message {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(&mut writer, &msg).unwrap();
        read_message(&mut reader).unwrap().unwrap()
    }

    #[test]
    fn serves_documents() {
        let store = DocumentStore::synthetic(3, 50, 100, 1);
        let expect = store.get("http://origin/doc/1").unwrap().to_vec();
        let server = OriginServer::start(store).unwrap();
        let reply = fetch(server.addr(), "http://origin/doc/1");
        assert_eq!(response_code(&reply), Some(200));
        assert_eq!(&reply.body[..], &expect[..]);
        assert_eq!(server.hits(), 1);
        server.shutdown();
    }

    /// Every `200` declares the digest of the body it carries — first
    /// versions and mutated ones alike.
    #[test]
    fn every_200_carries_the_body_digest() {
        let store = DocumentStore::synthetic(4, 1, 4000, 6);
        let urls: Vec<String> = store.urls().map(str::to_owned).collect();
        let server = OriginServer::start(store).unwrap();
        assert!(server.mutate(&urls[0], b"a later version".to_vec()));
        for url in &urls {
            let reply = fetch(server.addr(), url);
            assert_eq!(response_code(&reply), Some(status::OK));
            let declared = reply.get("Digest").and_then(Digest::from_hex);
            let want = baps_crypto::document_digest(&reply.body);
            assert_eq!(declared, Some(want), "{url}");
        }
        let reply = fetch(server.addr(), &urls[0]);
        assert_eq!(&reply.body[..], b"a later version");
        server.shutdown();
    }

    #[test]
    fn unknown_document_404s() {
        let server = OriginServer::start(DocumentStore::synthetic(1, 10, 20, 2)).unwrap();
        let reply = fetch(server.addr(), "http://nowhere/x");
        assert_eq!(response_code(&reply), Some(404));
        assert_eq!(server.hits(), 0);
    }

    #[test]
    fn bad_request_400s() {
        let server = OriginServer::start(DocumentStore::new()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(&mut writer, &Message::new("FROB x ORIGIN/1.0")).unwrap();
        let reply = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&reply), Some(400));
    }

    #[test]
    fn conditional_get_revalidates_without_body() {
        let store = DocumentStore::synthetic(1, 50, 100, 9);
        let url = "http://origin/doc/0";
        let body = store.get(url).unwrap().to_vec();
        let digest = baps_crypto::document_digest(&body).to_hex();
        let server = OriginServer::start(store).unwrap();
        // Matching digest: 304, empty body, not counted as a served hit.
        let reply = exchange(
            server.addr(),
            Message::new(format!("GET {url} ORIGIN/1.0")).header("If-Digest", digest),
        );
        assert_eq!(response_code(&reply), Some(status::NOT_MODIFIED));
        assert!(reply.body.is_empty());
        assert_eq!(server.hits(), 0);
        assert_eq!(server.revalidations(), 1);
        // Stale digest: a full 200 with the current body.
        let reply = exchange(
            server.addr(),
            Message::new(format!("GET {url} ORIGIN/1.0")).header(
                "If-Digest",
                baps_crypto::document_digest(b"stale copy").to_hex(),
            ),
        );
        assert_eq!(response_code(&reply), Some(status::OK));
        assert_eq!(&reply.body[..], &body[..]);
        assert_eq!(server.hits(), 1);
        assert_eq!(server.revalidations(), 1);
    }

    #[test]
    fn mutate_changes_served_body() {
        let server = OriginServer::start(DocumentStore::synthetic(1, 10, 20, 3)).unwrap();
        assert!(server.mutate("http://origin/doc/0", b"new body".to_vec()));
        let reply = fetch(server.addr(), "http://origin/doc/0");
        assert_eq!(&reply.body[..], b"new body");
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let server = OriginServer::start(DocumentStore::new()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // Connecting after shutdown either fails or is never served.
        match TcpStream::connect(addr) {
            Ok(_) | Err(_) => {}
        }
    }

    #[test]
    fn concurrent_fetches() {
        let store = DocumentStore::synthetic(8, 100, 200, 4);
        let server = OriginServer::start(store).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let reply = fetch(addr, &format!("http://origin/doc/{i}"));
                    assert_eq!(response_code(&reply), Some(200));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.hits(), 8);
    }
}
