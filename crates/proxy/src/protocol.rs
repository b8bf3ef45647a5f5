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
//!   per-tier/per-verb latency histograms — see DESIGN.md §9), with
//!   `Content-Type: text/plain; version=0.0.4`. The proxy's one report:
//!   the one verb that carries counters and gauges;
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
//! Responses: `BAPS/1.0 <code> <reason>` with `Content-Length`. The proxy's
//! `200` to a GET adds `X-Watermark` (hex, §6.1) and `X-Source`, the label
//! of the tier that served it (`proxy` / `disk` / `peer` / `origin`, a
//! `baps_core::Served` label); the proxy is its one writer and the browser
//! its one reader. A peer's `200` is the body alone (the proxy checks it).
//! An origin's `200` carries `Digest: <hex>`, the body's
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

use baps_obs::{decimal, SpanId, TraceId};
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
/// Bytes a head buffer starts with: any hop's start line and headers, and
/// the length line a writer appends, fit without growing it.
const HEAD_CAPACITY: usize = 256;
/// Start-line tokens [`Message::tokens`] keeps.
const MAX_TOKENS: usize = 4;
/// Header lines whose end a [`Message`] notes as it writes them, so a
/// lookup compares names without scanning for line ends; lines past these
/// (no hop sends that many) are found by scanning.
const INDEXED_LINES: usize = 8;

/// A document body as shared immutable bytes. Cloning a `Body` is a
/// refcount bump, so a cached document travels cache → response frame →
/// peer → browser cache without ever being copied: the bytes are written
/// once, by `read_body`, off the socket or the disk into the allocation
/// every later holder shares.
pub type Body = Arc<[u8]>;

/// An empty [`Body`]: the one empty allocation `std` shares, so a message
/// without a body allocates nothing for it.
pub fn empty_body() -> Body {
    Body::default()
}

/// A protocol message (request or response): its head in one buffer,
/// exactly as it goes on the wire, and the shared body.
///
/// Builders write the start line and each header line straight into the
/// buffer — numbers and hex from their values, no intermediate `String` —
/// and the parser validates each received line into it, so reading a
/// header is a walk over one buffer's lines and writing a frame is that
/// buffer, the length line and the body in one vectored write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The start line, then each header line as `Name: value`, every one
    /// ending in CRLF.
    head: String,
    /// Bytes of `head` the start line spans, its CRLF excluded.
    start_len: usize,
    /// Where each of the first [`INDEXED_LINES`] header lines ends in
    /// `head` (at its CR).
    line_ends: [usize; INDEXED_LINES],
    /// Header lines in `head`.
    headers: usize,
    /// A header line names `Content-Length`: the writer checks it against
    /// the body instead of adding one.
    declares_length: bool,
    /// The body (empty when no `Content-Length` was present).
    pub body: Body,
}

impl Message {
    /// Creates a message with no headers and no body.
    pub fn new(start: impl AsRef<str>) -> Message {
        Message::with_start(&[start.as_ref()])
    }

    /// Creates the request `VERB target PROTOCOL` (`GET <url> BAPS/1.0`),
    /// written into the head without formatting it first.
    pub fn request(verb: &str, target: &str, protocol: &str) -> Message {
        Message::with_start(&[verb, " ", target, " ", protocol])
    }

    fn with_start(parts: &[&str]) -> Message {
        let start_len = parts.iter().map(|part| part.len()).sum();
        let mut head = String::with_capacity(HEAD_CAPACITY.max(start_len + 2));
        for part in parts {
            head.push_str(part);
        }
        head.push_str("\r\n");
        Message {
            head,
            start_len,
            line_ends: [0; INDEXED_LINES],
            headers: 0,
            declares_length: false,
            body: empty_body(),
        }
    }

    /// Appends a header.
    pub fn header(self, name: impl AsRef<str>, value: impl AsRef<str>) -> Message {
        self.header_with(name.as_ref(), |head| head.push_str(value.as_ref()))
    }

    /// Appends a header whose value is `value` in decimal.
    pub fn header_num(self, name: &str, value: u64) -> Message {
        self.header_with(name, |head| head.push_str(decimal(value, &mut [0; 20])))
    }

    /// Appends a header whose value is `bytes` in lowercase hex, two
    /// digits a byte (a watermark, a digest, a trace or span id).
    pub fn header_hex(self, name: &str, bytes: &[u8]) -> Message {
        self.header_with(name, |head| push_hex(head, bytes))
    }

    /// Appends a header whose value is `words` joined by single spaces
    /// (the `Evicted` notices).
    pub fn header_words<'w>(self, name: &str, words: impl IntoIterator<Item = &'w str>) -> Message {
        self.header_with(name, |head| {
            for (i, word) in words.into_iter().enumerate() {
                if i > 0 {
                    head.push(' ');
                }
                head.push_str(word);
            }
        })
    }

    fn header_with(mut self, name: &str, value: impl FnOnce(&mut String)) -> Message {
        debug_assert!(!name.contains(':') || name.eq_ignore_ascii_case("host"));
        self.push_header(name, value);
        self
    }

    /// Appends the line `name: value`, `value` writing the value, and
    /// notes where it ends; returns where the value sits in the head.
    fn push_header(&mut self, name: &str, value: impl FnOnce(&mut String)) -> (usize, usize) {
        self.declares_length |= name.eq_ignore_ascii_case("Content-Length");
        self.head.push_str(name);
        self.head.push_str(": ");
        let from = self.head.len();
        value(&mut self.head);
        let to = self.head.len();
        if let Some(end) = self.line_ends.get_mut(self.headers) {
            *end = to;
        }
        self.headers += 1;
        self.head.push_str("\r\n");
        (from, to)
    }

    /// Stamps the message with the trace it belongs to (`Trace-Id`) and,
    /// on a head-sampled trace, the sender's hop span (`Span-Id`).
    pub(crate) fn traced(self, trace: TraceId, span: SpanId) -> Message {
        let msg = self.header_hex("Trace-Id", &trace.0.to_be_bytes());
        if span.is_none() {
            msg
        } else {
            msg.header_hex("Span-Id", &span.0.to_be_bytes())
        }
    }

    /// Attaches a body (the `Content-Length` header is added on write).
    /// Accepts a `Vec<u8>` (converted once) or an existing [`Body`]
    /// (shared, no copy).
    pub fn with_body(mut self, body: impl Into<Body>) -> Message {
        self.body = body.into();
        self
    }

    /// The start line, e.g. `GET /doc BAPS/1.0` or `BAPS/1.0 200 OK`.
    pub fn start(&self) -> &str {
        &self.head[..self.start_len]
    }

    /// Header name/value pairs in order of appearance.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.header_lines().map(|line| {
            let (name, value) = line.split_once(':').unwrap_or((line, ""));
            (name, value.strip_prefix(' ').unwrap_or(value))
        })
    }

    /// First value of a header (case-insensitive name match).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.header_lines().find_map(|line| {
            let value = line.get(name.len()..)?.strip_prefix(':')?;
            let named = line[..name.len()].eq_ignore_ascii_case(name);
            named.then(|| value.strip_prefix(' ').unwrap_or(value))
        })
    }

    /// The header lines, each `name: value` without its CRLF.
    fn header_lines(&self) -> impl Iterator<Item = &str> {
        let mut start = self.start_len + 2;
        (0..self.headers).map(move |i| {
            let end = match self.line_ends.get(i) {
                Some(&end) => end,
                None => {
                    let rest = &self.head[start..];
                    start + rest.find("\r\n").expect("every head line ends in CRLF")
                }
            };
            let line = &self.head[start..end];
            start = end + 2;
            line
        })
    }

    /// The start line's whitespace-separated tokens.
    pub fn tokens(&self) -> Tokens<'_> {
        let mut tokens = Tokens {
            words: [""; MAX_TOKENS],
            len: 0,
            more: false,
        };
        for word in self.start().split_ascii_whitespace() {
            if tokens.len == MAX_TOKENS {
                tokens.more = true;
                break;
            }
            tokens.words[tokens.len] = word;
            tokens.len += 1;
        }
        tokens
    }

    /// What ends the head on the wire: a `Content-Length` line for the
    /// body unless the head declares one — which must then match the body
    /// (a mismatch is `InvalidInput`) — and the blank line.
    fn head_end(&self) -> io::Result<HeadEnd> {
        let mut end = HeadEnd {
            bytes: [0; HeadEnd::CAPACITY],
            len: 0,
        };
        let declared = if self.declares_length {
            self.get("Content-Length")
        } else {
            None
        };
        match declared {
            Some(declared) => {
                let declared: usize = declared.parse().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("unparsable Content-Length {declared:?}: {e}"),
                    )
                })?;
                if declared != self.body.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "Content-Length {} does not match body length {}",
                            declared,
                            self.body.len()
                        ),
                    ));
                }
            }
            None => {
                end.push("Content-Length: ");
                end.push(decimal(self.body.len() as u64, &mut [0; 20]));
                end.push("\r\n");
            }
        }
        end.push("\r\n");
        Ok(end)
    }

    /// The whole head (start line through the blank line) in the message's
    /// own buffer, and the body: what an event loop queues for a reply it
    /// now owns, without copying either.
    pub(crate) fn into_frame(self) -> io::Result<(Vec<u8>, Body)> {
        let end = self.head_end()?;
        let mut head = self.head.into_bytes();
        head.extend_from_slice(end.as_bytes());
        Ok((head, self.body))
    }

    /// The frame as the three slices a vectored write takes: the head
    /// buffer, the length line and blank line, the body.
    pub(crate) fn write_parts(&self) -> io::Result<FrameParts<'_>> {
        Ok(FrameParts {
            head: self.head.as_bytes(),
            end: self.head_end()?,
            body: &self.body,
        })
    }
}

/// Lowercase hex of `bytes`, two digits a byte, appended to `out`.
fn push_hex(out: &mut String, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 64];
    for chunk in bytes.chunks(digits.len() / 2) {
        for (pair, b) in digits.chunks_exact_mut(2).zip(chunk) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        let hex = &digits[..chunk.len() * 2];
        out.push_str(std::str::from_utf8(hex).expect("hex digits are ASCII"));
    }
}

/// A start line's tokens, as [`Message::tokens`] splits them, without a
/// `Vec`: at most the first four. A longer line shows those four, which
/// no pattern of a verb and fewer arguments matches.
#[derive(Debug)]
pub struct Tokens<'a> {
    words: [&'a str; MAX_TOKENS],
    len: usize,
    /// The line had more tokens than `words` holds.
    more: bool,
}

impl<'a> Tokens<'a> {
    /// The tokens as a slice, for matching against a pattern.
    pub fn as_slice(&self) -> &[&'a str] {
        &self.words[..self.len]
    }
}

impl<'a> std::ops::Deref for Tokens<'a> {
    type Target = [&'a str];

    fn deref(&self) -> &[&'a str] {
        self.as_slice()
    }
}

impl PartialEq<Vec<&str>> for Tokens<'_> {
    fn eq(&self, other: &Vec<&str>) -> bool {
        !self.more && self.as_slice() == other.as_slice()
    }
}

/// The bytes between a head buffer and the body: at most a length line and
/// the blank line, on the stack.
pub(crate) struct HeadEnd {
    bytes: [u8; HeadEnd::CAPACITY],
    len: usize,
}

impl HeadEnd {
    /// `Content-Length: ` + 20 digits + two CRLFs.
    const CAPACITY: usize = 40;

    fn push(&mut self, text: &str) {
        self.bytes[self.len..self.len + text.len()].copy_from_slice(text.as_bytes());
        self.len += text.len();
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// A frame as a vectored write sends it (see [`Message::write_parts`]).
pub(crate) struct FrameParts<'a> {
    pub(crate) head: &'a [u8],
    pub(crate) end: HeadEnd,
    pub(crate) body: &'a Body,
}

impl FrameParts<'_> {
    pub(crate) fn slices(&self) -> [IoSlice<'_>; 3] {
        [
            IoSlice::new(self.head),
            IoSlice::new(self.end.as_bytes()),
            IoSlice::new(self.body),
        ]
    }
}

/// The trace `msg` belongs to and the sender's hop span, from its
/// `Trace-Id` and `Span-Id` headers; a missing or unparsable header reads
/// as [`TraceId::NONE`] / [`SpanId::NONE`] (administrative verbs carry
/// neither, unsampled traces no `Span-Id`).
pub(crate) fn trace_of(msg: &Message) -> (TraceId, SpanId) {
    let trace = msg.get("Trace-Id").and_then(|h| h.parse().ok());
    let span = msg.get("Span-Id").and_then(|h| h.parse().ok());
    (trace.unwrap_or(TraceId::NONE), span.unwrap_or(SpanId::NONE))
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
    // vectored write of the head buffer, the length line and the body
    // keeps that single-syscall framing without copying any of them into
    // a contiguous frame first (bodies are shared `Arc<[u8]>`).
    let parts = msg.write_parts()?;
    let mut slices = parts.slices();
    let mut bufs = &mut slices[..];
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        let n = w.write_vectored(bufs)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        IoSlice::advance_slices(&mut bufs, n);
    }
    w.flush()
}

/// Serialises a message into one contiguous frame (what [`write_message`]
/// puts on the wire), applying the same `Content-Length` validation. The
/// fault injector uses this to truncate or stall frames mid-byte-stream;
/// the hot path uses [`write_message`], which never builds this copy.
pub fn encode_message(msg: &Message) -> io::Result<Vec<u8>> {
    let parts = msg.write_parts()?;
    let mut frame = Vec::with_capacity(parts.head.len() + parts.end.len + parts.body.len());
    for slice in parts.slices() {
        frame.extend_from_slice(&slice);
    }
    Ok(frame)
}

fn invalid(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// The frame head grammar and its limits, defined once: start line,
/// `name: value` headers, the blank line that ends the head, and the body
/// length the head declares. It is fed one `\n`-terminated line at a time,
/// so the blocking transport ([`read_message`], lines cut from a reader's
/// buffer) and the event loops (`reactor::FrameParser`, lines cut from a
/// socket buffer) accept and refuse exactly the same bytes. Each accepted
/// line is written into the head buffer the finished [`Message`] keeps —
/// the start line trimmed at its end, a header as its trimmed name and
/// value — so the head allocates once. Acquiring the body stays with the
/// transport.
#[derive(Default)]
pub(crate) struct HeadParser {
    /// The head so far; `None` until the start line has arrived.
    msg: Option<Message>,
    /// Where the first `Content-Length` value sits in the head.
    length: Option<(usize, usize)>,
    /// Head bytes consumed so far in this frame.
    head_bytes: usize,
}

impl HeadParser {
    /// Whether a frame has begun (EOF now would be mid-head, not clean).
    pub(crate) fn in_head(&self) -> bool {
        self.msg.is_some()
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
        let Some(msg) = &mut self.msg else {
            if line.is_empty() {
                return Err(invalid("empty start line"));
            }
            self.msg = Some(Message::with_start(&[line]));
            return Ok(None);
        };
        if !line.is_empty() {
            if msg.headers >= MAX_HEADERS {
                return Err(invalid("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("bad header: {line}")))?;
            let (name, value) = (name.trim(), value.trim());
            let at = msg.push_header(name, |head| head.push_str(value));
            if self.length.is_none() && name.eq_ignore_ascii_case("Content-Length") {
                self.length = Some(at);
            }
            return Ok(None);
        }
        let done = std::mem::take(self);
        let msg = done.msg.expect("the start line arrived");
        let len = match done.length {
            None => 0,
            Some((from, to)) => msg.head[from..to]
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
///
/// Lines are handed to the head parser straight out of the reader's
/// buffer; only a line the buffer splits is gathered into a side copy.
pub fn read_message<R: BufRead>(r: &mut R) -> io::Result<Option<Message>> {
    let not_utf8 = || invalid("stream did not contain valid UTF-8");
    let mut head = HeadParser::default();
    // The start of a line the reader's buffer cut short.
    let mut split = Vec::new();
    let (mut msg, len) = loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // End of stream: an unterminated last line still counts as a
            // line, as `read_line` would return it.
            if !split.is_empty() {
                let line = std::str::from_utf8(&split).map_err(|_| not_utf8())?;
                let done = head.line(line)?;
                split.clear();
                match done {
                    Some(done) => break done,
                    None => continue,
                }
            }
            if head.in_head() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside headers",
                ));
            }
            return Ok(None);
        }
        let Some(i) = buf.iter().position(|&b| b == b'\n') else {
            // Refused once the unterminated tail passes the allowance: a
            // sender that never sends `\n` cannot grow `split` without
            // limit.
            head.fits(split.len() + buf.len())?;
            split.extend_from_slice(buf);
            let n = buf.len();
            r.consume(n);
            continue;
        };
        let done = if split.is_empty() {
            head.line(std::str::from_utf8(&buf[..=i]).map_err(|_| not_utf8())?)?
        } else {
            split.extend_from_slice(&buf[..=i]);
            let line = std::str::from_utf8(&split).map_err(|_| not_utf8())?;
            let done = head.line(line)?;
            split.clear();
            done
        };
        r.consume(i + 1);
        if let Some(done) = done {
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
    Message::with_start(&["BAPS/1.0 ", decimal(code.into(), &mut [0; 20]), " ", reason])
}

/// Parses the status code out of a response start line.
pub fn response_code(msg: &Message) -> Option<u16> {
    match msg.tokens().as_slice() {
        [version, code, ..] if version.starts_with("BAPS/") => code.parse().ok(),
        _ => None,
    }
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
        assert_eq!(back.start(), msg.start());
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
        for len in [1usize, 1 << 20] {
            let body: Vec<u8> = (0..len).map(|i| (i * 31 + i / 251) as u8).collect();
            let back = roundtrip(&response(status::OK, "OK").with_body(body.clone()));
            assert_eq!(&back.body[..], &body[..], "len {len}");
            // The reader is the body's only holder: nothing kept a second
            // reference to (or a staging copy of) the allocation.
            assert_eq!(Arc::strong_count(&back.body), 1, "len {len}");
        }
    }

    /// An empty body is framed with `Content-Length: 0`, and every one — a
    /// parsed head's, a built message's — is the one allocation `std`
    /// shares, not a fresh one per message.
    #[test]
    fn empty_body_has_zero_length_header() {
        let back = roundtrip(&response(status::GONE, "Gone"));
        assert_eq!(back.get("Content-Length"), Some("0"));
        assert!(back.body.is_empty());
        assert!(Arc::ptr_eq(
            &back.body,
            &Message::new("GET x BAPS/1.0").body
        ));
    }

    /// Every frame kind the runtime sends, built by the function that
    /// sends it, is byte for byte its golden frame — through
    /// `encode_message`, `write_message` and the event loops' `into_frame`
    /// alike — and reads back to the same message. The golden bytes are
    /// the protocol: a peer or origin built against them must keep
    /// understanding every hop.
    #[test]
    fn every_frame_kind_matches_its_golden_bytes() {
        use crate::client::{get_request, notice_request, register_request};
        use crate::origin::document_response;
        use crate::proxy::{ok_response, origin_request, peer_request};
        use crate::store::CachedDoc;
        use baps_core::Served;
        use baps_crypto::{Digest, Signature, Watermark};

        let url = "http://origin/doc/42";
        let trace = TraceId::mint(3, 7);
        let span = SpanId(0x0123_4567_89ab_cdef);
        let evicted = [
            "http://origin/doc/1".to_owned(),
            "http://origin/doc/2".to_owned(),
        ];
        let digest = Digest([0xab; 16]);
        let watermark = Watermark {
            signature: Signature([1, 0xffff_ffff_ffff, 0x1234_5678_9abc_def0, 42]),
        };
        let doc = CachedDoc {
            body: Body::from(&b"hello"[..]),
            watermark,
        };
        let refused = format!("Origin Unreachable ({})", io::ErrorKind::ConnectionRefused);
        let cases: [(&str, Message, &str); 18] = [
            (
                "get",
                get_request(3, url, trace, SpanId::NONE, &[], false),
                "GET http://origin/doc/42 BAPS/1.0\r\nClient: 3\r\nTrace-Id: 0000040000000007\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "get_full",
                get_request(3, url, trace, span, &evicted, true),
                "GET http://origin/doc/42 BAPS/1.0\r\nClient: 3\r\nTrace-Id: 0000040000000007\r\nSpan-Id: 0123456789abcdef\r\nEvicted: http://origin/doc/1 http://origin/doc/2\r\nBypass-Peers: 1\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "peerget",
                peer_request(url, trace, SpanId::NONE),
                "PEERGET http://origin/doc/42 BAPS/1.0\r\nTrace-Id: 0000040000000007\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "peerget_span",
                peer_request(url, trace, span),
                "PEERGET http://origin/doc/42 BAPS/1.0\r\nTrace-Id: 0000040000000007\r\nSpan-Id: 0123456789abcdef\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "origin_get",
                origin_request(url, trace, SpanId::NONE, None),
                "GET http://origin/doc/42 ORIGIN/1.0\r\nTrace-Id: 0000040000000007\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "origin_get_if",
                origin_request(url, trace, span, Some(digest)),
                "GET http://origin/doc/42 ORIGIN/1.0\r\nTrace-Id: 0000040000000007\r\nSpan-Id: 0123456789abcdef\r\nIf-Digest: abababababababababababababababab\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "invalidate",
                notice_request(3, url, false),
                "INVALIDATE http://origin/doc/42 BAPS/1.0\r\nClient: 3\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "invalidate_purge",
                notice_request(3, url, true),
                "INVALIDATE http://origin/doc/42 BAPS/1.0\r\nClient: 3\r\nPurge: 1\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "register",
                register_request(3, 40123),
                "REGISTER 40123 BAPS/1.0\r\nClient: 3\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "proxy_200",
                ok_response(Served::Peer, &doc),
                "BAPS/1.0 200 OK\r\nX-Source: peer\r\nX-Watermark: 0100000000000000ffffffffffff0000f0debc9a785634122a00000000000000\r\nContent-Length: 5\r\n\r\nhello",
            ),
            (
                "proxy_404",
                response(status::NOT_FOUND, "Not Found"),
                "BAPS/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "proxy_500",
                response(status::SERVER_ERROR, "Internal Server Error"),
                "BAPS/1.0 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "proxy_503",
                response(status::UNAVAILABLE, &refused),
                "BAPS/1.0 503 Origin Unreachable (connection refused)\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "origin_304",
                response(status::NOT_MODIFIED, "Not Modified"),
                "BAPS/1.0 304 Not Modified\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "peer_200",
                response(status::OK, "OK").with_body(b"hello".to_vec()),
                "BAPS/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello",
            ),
            (
                "peer_410",
                response(status::GONE, "Gone"),
                "BAPS/1.0 410 Gone\r\nContent-Length: 0\r\n\r\n",
            ),
            (
                "origin_200",
                document_response(Body::from(&b"hello"[..]), &digest),
                "BAPS/1.0 200 OK\r\nDigest: abababababababababababababababab\r\nContent-Length: 5\r\n\r\nhello",
            ),
            (
                "bad_request",
                response(status::BAD_REQUEST, "Bad Request"),
                "BAPS/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
            ),
        ];
        for (name, msg, golden) in cases {
            assert_eq!(
                String::from_utf8(encode_message(&msg).unwrap()).unwrap(),
                golden,
                "{name}"
            );
            let mut written = Vec::new();
            write_message(&mut written, &msg).unwrap();
            assert_eq!(written, golden.as_bytes(), "{name} written");
            let (mut queued, body) = msg.clone().into_frame().unwrap();
            queued.extend_from_slice(&body);
            assert_eq!(queued, golden.as_bytes(), "{name} queued");
            let back = read_message(&mut golden.as_bytes()).unwrap().unwrap();
            assert_eq!(back.start(), msg.start(), "{name}");
            assert!(msg.headers().all(|(n, v)| back.get(n) == Some(v)), "{name}");
            assert_eq!(back.body, msg.body, "{name}");
        }
    }

    /// A head with more header lines than `Message` notes the ends of is
    /// read the same, built or parsed: every header found by name, in order.
    #[test]
    fn headers_past_the_noted_lines_are_found() {
        let names: Vec<String> = (0..INDEXED_LINES + 4).map(|i| format!("X-{i}")).collect();
        let built = names
            .iter()
            .fold(Message::new("GET x BAPS/1.0"), |msg, name| {
                msg.header(name, format!("v {name}"))
            });
        let parsed = roundtrip(&built);
        for msg in [&built, &parsed] {
            for name in &names {
                assert_eq!(msg.get(name), Some(format!("v {name}").as_str()));
            }
            let got: Vec<&str> = msg.headers().map(|(name, _)| name).collect();
            assert_eq!(
                got[..names.len()],
                names.iter().map(String::as_str).collect::<Vec<_>>()[..]
            );
        }
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

    /// A body cut short is an error and no message, read from memory or
    /// off a blocking socket (the browser's read): with no body byte,
    /// inside the bytes the reader buffered behind the head, exactly at
    /// their end, one byte short. The whole 1 MiB body arrives
    /// byte-identical.
    #[test]
    fn truncated_body_rejected() {
        let raw = b"BAPS/1.0 200 OK\r\nContent-Length: 10\r\n\r\nabc".to_vec();
        let err = read_message(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let body: Vec<u8> = (0..1 << 20)
            .map(|i: usize| (i * 31 + i / 251) as u8)
            .collect();
        let frame = encode_message(&response(status::OK, "OK").with_body(body.clone())).unwrap();
        let head = frame.len() - body.len();
        // What a reader's first fill holds behind the head.
        let buffered = BufReader::new(io::empty()).capacity() - head;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for kept in [0, buffered / 2, buffered, body.len() - 1, body.len()] {
            let sent = frame[..head + kept].to_vec();
            let sender =
                std::thread::spawn(move || std::net::TcpStream::connect(addr)?.write_all(&sent));
            let mut conn = BufReader::new(listener.accept().unwrap().0);
            let off_socket = read_message(&mut conn);
            sender.join().unwrap().unwrap();
            let from_memory = read_message(&mut BufReader::new(&frame[..head + kept]));
            for got in [off_socket, from_memory] {
                if kept < body.len() {
                    assert_eq!(got.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
                } else {
                    assert_eq!(&got.unwrap().expect("a message").body[..], &body[..]);
                }
            }
        }
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
