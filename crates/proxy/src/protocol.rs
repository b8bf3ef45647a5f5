//! Wire protocol of the live browsers-aware proxy.
//!
//! A minimal HTTP/1.0-flavoured text protocol: a start line, colon-separated
//! headers, a blank line, then an optional body of `Content-Length` bytes.
//! Methods:
//!
//! * `GET <url> BAPS/1.0` — client → proxy document fetch
//!   (header `Client: <id>`; optional `Bypass-Peers: 1` after a failed
//!   integrity check; optional `Evicted: <url> <url> …` carrying
//!   piggybacked eviction notices, processed before the GET — evictions
//!   don't spend a round trip each, see `INVALIDATE`);
//! * `PEERGET <url> BAPS/1.0` — proxy → peer browser-cache fetch, the
//!   one way a document leaves a browser: the proxy relays the verified
//!   reply (deliberately **no requester identity**, §6.2);
//! * `INVALIDATE <url> BAPS/1.0` — client → proxy eviction notice
//!   (header `Client: <id>`);
//! * `REGISTER <peer-port> BAPS/1.0` — client → proxy enrolment
//!   (header `Client: <id>`);
//! * `METRICS BAPS/1.0` — operator → proxy metrics scrape; the reply body
//!   is a Prometheus text exposition (counters, per-shard gauges,
//!   per-tier/per-verb latency histograms — see DESIGN.md §9 — and the
//!   SLO engine's rolling windows and rule verdicts, §14), with
//!   `Content-Type: text/plain; version=0.0.4`. The proxy's one report:
//!   the one verb that carries counters, gauges and verdicts;
//! * `TRACE BAPS/1.0` — operator → proxy trace export; the reply body is
//!   JSONL, one span per line, drained from the proxy's flight recorder
//!   (`Content-Type: application/jsonl`, plus `Sample-One-In` naming the
//!   head-sampling rate). `trace_report` assembles the lines into causal
//!   span trees — see DESIGN.md §12;
//! * `GET <url> ORIGIN/1.0` — proxy → origin server fetch.
//!
//! Requests initiated on behalf of a client fetch additionally carry a
//! `Trace-Id: <16 hex digits>` header (minted by the requesting client,
//! forwarded by the proxy on `PEERGET` and on the origin `GET`), so
//! one request can be followed through every component's flight-recorder
//! events.
//!
//! Head-sampled traces (a deterministic 1-in-N of trace ids, see
//! `baps_obs::span::sampled`) additionally carry a `Span-Id: <16 hex
//! digits>` header naming the **sender's hop span**: the client's root
//! span on `GET`, the proxy's probe/fetch hop spans on `PEERGET`/origin
//! `GET`. The receiver records its own spans with that id as the parent,
//! so span trees stitch across processes without any coordination beyond
//! the header.
//!
//! Responses: `BAPS/1.0 <code> <reason>` with `Content-Length`, `X-Source`
//! (`proxy` | `peer` | `origin`) and `X-Watermark` (hex, §6.1) headers. An
//! origin's `200` also carries `Digest: <hex>`, the body's
//! `baps_crypto::document_digest` (sixteen interleaved MD5 lanes under one
//! MD5 root), minted when it stored that version: the digest the proxy
//! signs, without hashing the body.
//!
//! # Connection lifecycle (keep-alive)
//!
//! Every connection is **persistent**: both sides loop
//! `read_message` → handle → `write_message` until the peer closes, so one
//! TCP connection carries any number of request/response rounds. Framing
//! relies entirely on `Content-Length`, which is why [`write_message`]
//! refuses mismatched or duplicated lengths — one bad frame would
//! desynchronise every later message on the connection. [`read_message`]
//! returns `Ok(None)` on a clean close between messages, which handlers
//! treat as the end of the session. Clients hold one lazily-dialed
//! connection to the proxy and transparently redial (replaying the
//! in-flight request once) when the proxy drops it; the proxy keeps its
//! own outbound connections — to peers and to the origin — alive on its
//! event loops (`upstream.rs`). Every server multiplexes the connections
//! it accepts on event loops too (`reactor.rs`), so an idle one costs a
//! registered fd and no thread.

use std::io::{self, BufRead, IoSlice, Read, Write};
use std::sync::Arc;

/// Maximum accepted header count (straightforward DoS hygiene).
pub(crate) const MAX_HEADERS: usize = 64;
/// Maximum accepted body size.
pub const MAX_BODY: usize = 64 << 20;
/// Maximum accepted head size (start line + headers), far above any
/// legitimate head: a peer that dribbles bytes without ever ending a line
/// gets a bounded allowance instead of unbounded memory.
pub(crate) const MAX_HEAD_BYTES: usize = 1 << 20;

/// A document body as shared immutable bytes. Cloning a `Body` is a
/// refcount bump, so a cached document travels cache → response frame →
/// peer → browser cache without ever being copied: the bytes are written
/// once, by `read_body`, off the socket or the disk into the allocation
/// every later holder shares.
pub type Body = Arc<[u8]>;

/// An empty [`Body`].
pub fn empty_body() -> Body {
    Arc::from(&[][..])
}

/// A parsed protocol message (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The start line, e.g. `GET /doc BAPS/1.0` or `BAPS/1.0 200 OK`.
    pub start: String,
    /// Header name/value pairs in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was present).
    pub body: Body,
}

impl Message {
    /// Creates a message with no headers and no body.
    pub fn new(start: impl Into<String>) -> Message {
        Message {
            start: start.into(),
            headers: Vec::new(),
            body: empty_body(),
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Message {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Attaches a body (the `Content-Length` header is added on write).
    /// Accepts a `Vec<u8>` (converted once) or an existing [`Body`]
    /// (shared, no copy).
    pub fn with_body(mut self, body: impl Into<Body>) -> Message {
        self.body = body.into();
        self
    }

    /// First value of a header (case-insensitive name match).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Splits the start line into whitespace-separated tokens.
    pub fn tokens(&self) -> Vec<&str> {
        self.start.split_ascii_whitespace().collect()
    }
}

/// Writes a message, framing the body with exactly one `Content-Length`.
///
/// If the caller already set a `Content-Length` header it is kept (never
/// duplicated) and must match the actual body length — a mismatch returns
/// `InvalidInput` instead of emitting a frame the receiver would misread.
/// Duplicated or wrong lengths are fatal under keep-alive: the reader
/// honours the first header it sees, desynchronising every later message
/// on the connection.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    // One write per frame. Writing head and body separately triggers the
    // Nagle/delayed-ACK interaction on keep-alive connections: the kernel
    // holds the second small write until the peer ACKs the first, and the
    // peer delays that ACK up to ~40 ms waiting to piggyback it. A
    // vectored write keeps that single-syscall framing without copying the
    // body into a contiguous frame first (bodies are shared `Arc<[u8]>`).
    let head = encode_head(msg)?;
    let body = &msg.body[..];
    let total = head.len() + body.len();
    let mut written = 0;
    while written < total {
        let n = if written < head.len() {
            let bufs = [
                IoSlice::new(&head.as_bytes()[written..]),
                IoSlice::new(body),
            ];
            w.write_vectored(&bufs)?
        } else {
            w.write(&body[written - head.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        written += n;
    }
    w.flush()
}

/// Serialises a message into one contiguous frame (what [`write_message`]
/// puts on the wire), applying the same `Content-Length` validation. The
/// fault injector uses this to truncate or stall frames mid-byte-stream;
/// the hot path uses [`write_message`], which never builds this copy.
pub fn encode_message(msg: &Message) -> io::Result<Vec<u8>> {
    let head = encode_head(msg)?;
    let mut frame = Vec::with_capacity(head.len() + msg.body.len());
    frame.extend_from_slice(head.as_bytes());
    frame.extend_from_slice(&msg.body);
    Ok(frame)
}

/// Serialises the start line and headers (through the terminating blank
/// line), validating any caller-supplied `Content-Length`.
pub(crate) fn encode_head(msg: &Message) -> io::Result<String> {
    if let Some(declared) = msg.get("Content-Length") {
        let declared: usize = declared.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unparsable Content-Length {declared:?}: {e}"),
            )
        })?;
        if declared != msg.body.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "Content-Length {} does not match body length {}",
                    declared,
                    msg.body.len()
                ),
            ));
        }
    }
    let mut head = String::with_capacity(64 + msg.headers.len() * 32);
    head.push_str(&msg.start);
    head.push_str("\r\n");
    for (name, value) in &msg.headers {
        debug_assert!(!name.contains(':') || name.eq_ignore_ascii_case("host"));
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if msg.get("Content-Length").is_none() {
        use std::fmt::Write as _;
        let _ = write!(head, "Content-Length: {}\r\n", msg.body.len());
    }
    head.push_str("\r\n");
    Ok(head)
}

fn invalid(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// The frame head grammar and its limits, defined once: start line,
/// `name: value` headers, the blank line that ends the head, and the body
/// length the head declares. It is fed one `\n`-terminated line at a time,
/// so the blocking transport ([`read_message`], lines from `read_line`) and
/// the event loops (`reactor::FrameParser`, lines cut from a socket buffer)
/// accept and refuse exactly the same bytes. Acquiring the body stays with
/// the transport.
#[derive(Default)]
pub(crate) struct HeadParser {
    /// Empty until the start line has arrived.
    start: String,
    headers: Vec<(String, String)>,
    /// Head bytes consumed so far in this frame.
    head_bytes: usize,
}

impl HeadParser {
    /// Whether a frame has begun (EOF now would be mid-head, not clean).
    pub(crate) fn in_head(&self) -> bool {
        !self.start.is_empty()
    }

    /// Head bytes this frame may still spend before [`MAX_HEAD_BYTES`].
    pub(crate) fn allowance(&self) -> usize {
        MAX_HEAD_BYTES - self.head_bytes
    }

    /// Refuses a head that would pass [`MAX_HEAD_BYTES`] once `pending`
    /// more bytes (a line, or an unterminated tail still buffering) count.
    pub(crate) fn fits(&self, pending: usize) -> io::Result<()> {
        if pending > self.allowance() {
            return Err(invalid("frame head too large"));
        }
        Ok(())
    }

    /// Consumes one head line, terminator included. The blank
    /// line completes the head: the message so far (body still empty) and
    /// its declared body length come back and the parser is ready for the
    /// next frame.
    pub(crate) fn line(&mut self, line: &str) -> io::Result<Option<(Message, usize)>> {
        self.fits(line.len())?;
        self.head_bytes += line.len();
        let line = line.trim_end();
        if self.start.is_empty() {
            if line.is_empty() {
                return Err(invalid("empty start line"));
            }
            self.start = line.to_owned();
            return Ok(None);
        }
        if !line.is_empty() {
            if self.headers.len() >= MAX_HEADERS {
                return Err(invalid("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("bad header: {line}")))?;
            self.headers
                .push((name.trim().to_owned(), value.trim().to_owned()));
            return Ok(None);
        }
        let head = std::mem::take(self);
        let msg = Message {
            start: head.start,
            headers: head.headers,
            body: empty_body(),
        };
        let len = match msg.get("Content-Length") {
            None => 0,
            Some(len) => len
                .parse()
                .map_err(|e| invalid(format!("bad length: {e}")))?,
        };
        if len > MAX_BODY {
            return Err(invalid("body too large"));
        }
        Ok(Some((msg, len)))
    }
}

/// Reads one message; returns `None` on a cleanly closed connection.
pub fn read_message<R: BufRead>(r: &mut R) -> io::Result<Option<Message>> {
    let mut head = HeadParser::default();
    let mut line = String::new();
    let (mut msg, len) = loop {
        line.clear();
        // Read at most one byte past the head allowance: a sender that
        // never sends `\n` is refused by the parser instead of growing
        // `line` without limit.
        let mut capped = Read::take(&mut *r, head.allowance() as u64 + 1);
        if capped.read_line(&mut line)? == 0 {
            if head.in_head() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside headers",
                ));
            }
            return Ok(None);
        }
        if let Some(done) = head.line(&line)? {
            break done;
        }
    };
    if len > 0 {
        msg.body = read_body(r, len)?;
    }
    Ok(Some(msg))
}

/// Reads exactly `len` bytes from `r` into a fresh [`Body`]. The reader
/// fills the `Arc`'s own allocation (zeroed, then borrowed mutably while
/// this function is still its only holder), so the bytes are never held
/// in a `Vec` first — `Arc<[u8]>::from(Vec<u8>)` would allocate again and
/// copy them all. Callers bound `len` before calling.
pub(crate) fn read_body<R: Read + ?Sized>(r: &mut R, len: usize) -> io::Result<Body> {
    let mut body = zeroed_body(len);
    let bytes = Arc::get_mut(&mut body).expect("a freshly built Arc has one holder");
    r.read_exact(bytes)?;
    Ok(body)
}

/// A [`Body`] of `len` zero bytes with one holder: the allocation a reader
/// fills in place (an event loop does so a chunk at a time).
pub(crate) fn zeroed_body(len: usize) -> Body {
    std::iter::repeat_n(0u8, len).collect()
}

/// Response codes used by the protocol.
pub mod status {
    /// Success.
    pub const OK: u16 = 200;
    /// Conditional GET: the requester's copy (named by `If-Digest`) still
    /// matches the origin's, so no body is sent.
    pub const NOT_MODIFIED: u16 = 304;
    /// Document not found anywhere.
    pub const NOT_FOUND: u16 = 404;
    /// Peer no longer holds the document.
    pub const GONE: u16 = 410;
    /// Malformed request.
    pub const BAD_REQUEST: u16 = 400;
    /// The server failed internally (fault-injected origin errors).
    pub const SERVER_ERROR: u16 = 500;
    /// The document exists but no backend could serve it right now
    /// (origin unreachable after retries); clients may retry.
    pub const UNAVAILABLE: u16 = 503;
}

/// Builds a response message with the given status code.
pub fn response(code: u16, reason: &str) -> Message {
    Message::new(format!("BAPS/1.0 {code} {reason}"))
}

/// Parses the status code out of a response start line.
pub fn response_code(msg: &Message) -> Option<u16> {
    let tokens = msg.tokens();
    if tokens.len() < 2 || !tokens[0].starts_with("BAPS/") {
        return None;
    }
    tokens[1].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        read_message(&mut BufReader::new(Cursor::new(buf)))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let msg = Message::new("GET http://x/doc BAPS/1.0")
            .header("Client", "3")
            .header("Bypass-Peers", "1");
        let back = roundtrip(&msg);
        assert_eq!(back.start, msg.start);
        assert_eq!(back.get("Client"), Some("3"));
        assert_eq!(back.get("bypass-peers"), Some("1"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn response_with_body_roundtrip() {
        let body = b"<html>doc body</html>".to_vec();
        let msg = response(status::OK, "OK")
            .header("X-Source", "peer")
            .with_body(body.clone());
        let back = roundtrip(&msg);
        assert_eq!(response_code(&back), Some(200));
        assert_eq!(back.get("X-Source"), Some("peer"));
        assert_eq!(&back.body[..], &body[..]);
        assert_eq!(back.get("Content-Length"), Some("21"));
    }

    #[test]
    fn bodies_of_any_size_arrive_whole_and_unshared() {
        for len in [0usize, 1, 1 << 20] {
            let body: Vec<u8> = (0..len).map(|i| (i * 31 + i / 251) as u8).collect();
            let back = roundtrip(&response(status::OK, "OK").with_body(body.clone()));
            assert_eq!(&back.body[..], &body[..], "len {len}");
            // The reader is the body's only holder: nothing kept a second
            // reference to (or a staging copy of) the allocation.
            assert_eq!(Arc::strong_count(&back.body), 1, "len {len}");
        }
    }

    #[test]
    fn empty_body_has_zero_length_header() {
        let back = roundtrip(&response(status::GONE, "Gone"));
        assert_eq!(back.get("Content-Length"), Some("0"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn closed_stream_yields_none() {
        let mut r = BufReader::new(Cursor::new(Vec::<u8>::new()));
        assert!(read_message(&mut r).unwrap().is_none());
    }

    #[test]
    fn bad_header_rejected() {
        let raw = b"GET x BAPS/1.0\r\nnocolonhere\r\n\r\n".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_rejected() {
        let raw = b"BAPS/1.0 200 OK\r\nContent-Length: 10\r\n\r\nabc".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn eof_inside_headers_rejected() {
        let raw = b"GET x BAPS/1.0\r\nClient: 1\r\n".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn response_code_parsing() {
        assert_eq!(response_code(&response(410, "Gone")), Some(410));
        assert_eq!(response_code(&Message::new("GET x BAPS/1.0")), None);
        assert_eq!(response_code(&Message::new("BAPS/1.0")), None);
    }

    #[test]
    fn tokens_split() {
        let m = Message::new("PEERGET http://a/b BAPS/1.0");
        assert_eq!(m.tokens(), vec!["PEERGET", "http://a/b", "BAPS/1.0"]);
    }

    /// Regression: a sender that never ends a line is refused once the
    /// head passes `MAX_HEAD_BYTES` — in the start line or in a header —
    /// instead of growing the line buffer without limit.
    #[test]
    fn unterminated_head_is_capped() {
        /// Yields `prefix`, then `a` bytes forever, counting what it served.
        struct Endless {
            prefix: &'static [u8],
            served: usize,
        }
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = if self.served < self.prefix.len() {
                    let rest = &self.prefix[self.served..];
                    let n = rest.len().min(buf.len());
                    buf[..n].copy_from_slice(&rest[..n]);
                    n
                } else {
                    buf.fill(b'a');
                    buf.len()
                };
                self.served += n;
                Ok(n)
            }
        }
        for prefix in [&b""[..], b"GET x BAPS/1.0\r\nClient: 1\r\nX-Pad: "] {
            let mut r = BufReader::new(Endless { prefix, served: 0 });
            let buffer = r.capacity();
            let err = read_message(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                r.get_ref().served <= MAX_HEAD_BYTES + buffer,
                "read {} bytes before refusing",
                r.get_ref().served
            );
        }
    }

    /// Regression: a caller-supplied `Content-Length` must not be emitted
    /// twice. The duplicate used to desynchronise keep-alive connections
    /// (the reader honours the first header, here the caller's copy, while
    /// the writer appended a second computed one).
    #[test]
    fn caller_content_length_not_duplicated() {
        let body = b"payload".to_vec();
        let msg = Message::new("BAPS/1.0 200 OK")
            .header("Content-Length", body.len().to_string())
            .with_body(body.clone());
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(
            text.matches("Content-Length").count(),
            1,
            "exactly one Content-Length header:\n{text}"
        );
        let back = read_message(&mut BufReader::new(Cursor::new(buf)))
            .unwrap()
            .unwrap();
        assert_eq!(&back.body[..], &body[..]);
    }

    /// Regression: a mismatched caller-supplied `Content-Length` is an
    /// error, not a silently corrupt frame.
    #[test]
    fn mismatched_content_length_rejected() {
        let msg = Message::new("BAPS/1.0 200 OK")
            .header("Content-Length", "3")
            .with_body(b"longer than three".to_vec());
        let err = write_message(&mut Vec::new(), &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let msg = Message::new("BAPS/1.0 200 OK").header("Content-Length", "not-a-number");
        let err = write_message(&mut Vec::new(), &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Pipelining with caller-set lengths: back-to-back frames stay in sync
    /// (the keep-alive invariant).
    #[test]
    fn pipelined_with_explicit_lengths() {
        let mut buf = Vec::new();
        let a = Message::new("BAPS/1.0 200 OK")
            .header("Content-Length", "2")
            .with_body(b"ab".to_vec());
        let b = Message::new("BAPS/1.0 200 OK").with_body(b"xyz".to_vec());
        write_message(&mut buf, &a).unwrap();
        write_message(&mut buf, &b).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        assert_eq!(&read_message(&mut r).unwrap().unwrap().body[..], b"ab");
        assert_eq!(&read_message(&mut r).unwrap().unwrap().body[..], b"xyz");
        assert!(read_message(&mut r).unwrap().is_none());
    }

    /// Attaching an existing `Body` shares it — no copy on the response
    /// build path.
    #[test]
    fn with_body_shares_allocation() {
        let body: Body = Arc::from(&b"shared bytes"[..]);
        let msg = response(status::OK, "OK").with_body(Arc::clone(&body));
        assert!(Arc::ptr_eq(&msg.body, &body));
        let clone = msg.clone();
        assert!(Arc::ptr_eq(&clone.body, &body), "clone is a refcount bump");
    }

    #[test]
    fn pipelined_messages() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::new("GET a BAPS/1.0")).unwrap();
        write_message(&mut buf, &Message::new("GET b BAPS/1.0")).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        assert_eq!(read_message(&mut r).unwrap().unwrap().tokens()[1], "a");
        assert_eq!(read_message(&mut r).unwrap().unwrap().tokens()[1], "b");
        assert!(read_message(&mut r).unwrap().is_none());
    }
}
