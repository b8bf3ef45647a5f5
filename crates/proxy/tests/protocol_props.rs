//! Property-based tests of the wire protocol: round-trips, pipelining, and
//! robustness against arbitrary (malformed) byte streams.

use baps_proxy::protocol::MAX_BODY;
use baps_proxy::{encode_message, read_message, write_message, Message};
use proptest::prelude::*;
use std::io::BufReader;

/// Header names: token characters only (no colon / control bytes).
fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}"
}

/// Header values: printable, no CR/LF, trimmed equals itself.
fn header_value() -> impl Strategy<Value = String> {
    "[!-~][ -~]{0,40}"
        .prop_map(|s| s.trim().to_owned())
        .prop_filter("non-empty", |s| !s.is_empty())
}

fn message() -> impl Strategy<Value = Message> {
    (
        "[A-Z]{3,8} [!-~]{1,40} BAPS/1\\.0",
        proptest::collection::vec((header_name(), header_value()), 0..8),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(start, headers, body)| {
            let mut msg = Message::new(start);
            for (name, value) in headers {
                // Content-Length is managed by the writer.
                if !name.eq_ignore_ascii_case("content-length") {
                    msg = msg.header(name, value);
                }
            }
            msg.with_body(body)
        })
}

proptest! {
    /// Any well-formed message survives a write/read round-trip.
    #[test]
    fn message_roundtrip(msg in message()) {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let back = read_message(&mut BufReader::new(buf.as_slice()))
            .unwrap()
            .expect("one message");
        prop_assert_eq!(back.start(), msg.start());
        prop_assert_eq!(&back.body, &msg.body);
        for (name, value) in msg.headers() {
            prop_assert_eq!(back.get(name), Some(value), "header {}", name);
        }
    }

    /// Pipelined messages are read back in order, then EOF.
    #[test]
    fn pipelining(msgs in proptest::collection::vec(message(), 0..5)) {
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut reader = BufReader::new(buf.as_slice());
        for m in &msgs {
            let back = read_message(&mut reader).unwrap().expect("message");
            prop_assert_eq!(back.start(), m.start());
            prop_assert_eq!(&back.body, &m.body);
        }
        prop_assert!(read_message(&mut reader).unwrap().is_none());
    }

    /// Arbitrary garbage never panics the reader: it either parses or
    /// errors (no hangs either — the input is finite).
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut reader = BufReader::new(bytes.as_slice());
        // Drain up to a few messages; all outcomes are acceptable except a
        // panic.
        for _ in 0..4 {
            match read_message(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A truncated valid stream errors rather than fabricating a message:
    /// cut in the body's last 64 bytes, or where the reader's buffer
    /// matters — no body byte, some of those it buffered behind the head,
    /// exactly its worth, one byte short.
    #[test]
    fn truncation_detected(
        msg in message(),
        cut in 1usize..64,
        capacity in 64usize..4096,
        inside in 1usize..4096,
    ) {
        prop_assume!(!msg.body.is_empty());
        let frame = encode_message(&msg).unwrap();
        let len = msg.body.len();
        let head = frame.len() - len;
        let buffered = capacity.saturating_sub(head);
        for kept in [len - cut.min(len), 0, inside % (buffered + 1), buffered, len - 1] {
            if kept >= len {
                continue;
            }
            let mut reader = BufReader::with_capacity(capacity, &frame[..head + kept]);
            let result = read_message(&mut reader);
            prop_assert!(result.is_err(), "truncated body must error (kept {} of {})", kept, len);
        }
    }

    /// A stream that ends inside the header section (before the blank
    /// line) errors instead of fabricating a message or hanging.
    #[test]
    fn truncated_header_section_rejected(msg in message(), frac in 0.0f64..1.0) {
        prop_assume!(!msg.body.is_empty());
        let frame = encode_message(&msg).unwrap();
        let head_len = frame.len() - msg.body.len();
        // Keep at least the first byte, cut strictly before the final
        // CRLF of the blank line so the header section never completes.
        let cut = 1 + ((head_len - 2) as f64 * frac) as usize;
        let result = read_message(&mut BufReader::new(&frame[..cut.min(head_len - 1)]));
        prop_assert!(result.is_err(), "truncated headers must error");
    }

    /// A Content-Length above the frame cap is rejected up front — the
    /// reader must not allocate or wait for the declared bytes.
    #[test]
    fn oversized_content_length_rejected(extra in 1u64..1_000_000_000) {
        let declared = MAX_BODY as u64 + extra;
        let raw = format!("BAPS/1.0 200 OK\r\nContent-Length: {declared}\r\n\r\n");
        let result = read_message(&mut BufReader::new(raw.as_bytes()));
        prop_assert!(result.is_err(), "oversized length must error");
    }

    /// Negative, fractional, overflowing, or non-numeric Content-Length
    /// values are rejected as malformed.
    #[test]
    fn malformed_content_length_rejected(
        bad in "-[0-9]{1,9}|[0-9]{1,6}\\.[0-9]{1,3}|[A-Za-z]{1,8}|[0-9]{30,40}| |0x[0-9a-f]{1,8}",
    ) {
        let raw = format!("GET /x BAPS/1.0\r\nContent-Length: {bad}\r\n\r\n");
        let result = read_message(&mut BufReader::new(raw.as_bytes()));
        prop_assert!(result.is_err(), "malformed length {bad:?} must error");
    }

    /// A body shorter than its declared Content-Length errors; the reader
    /// never hands back fewer bytes than the frame promised.
    #[test]
    fn body_shorter_than_declared_rejected(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        delta in 1usize..4096,
    ) {
        let mut raw = format!(
            "BAPS/1.0 200 OK\r\nContent-Length: {}\r\n\r\n",
            body.len() + delta
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let result = read_message(&mut BufReader::new(raw.as_slice()));
        prop_assert!(result.is_err(), "short body must error");
    }
}
