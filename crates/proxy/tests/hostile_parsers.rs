//! The two text parsers every proxy reply body is read with — the tests'
//! and `baps_top`'s — [`prom::parse`] (METRICS) and [`span::parse_jsonl`]
//! (TRACE) — under hostile bytes: neither panics on an arbitrary byte
//! string decoded lossily, nor on a valid document with one byte flipped,
//! spliced in or cut off at, and each recovers exactly what its renderer
//! wrote. One file for both because they share the document generators'
//! mutation step and the property.
//!
//! The disk tier's log entry (88-byte header, URL, body, one after another
//! in a segment file) is the third parser here and takes the same
//! mutation step: an edited entry never serves bytes other than the stored
//! document — nor makes a neighbour serve any —, self-heals, and neither a
//! read nor the open-time scan allocates for a length it has not checked
//! against the file.
//!
//! The proptest shim does not shrink: a failing case prints its inputs,
//! and its seed is a function of the test's name (`PROPTEST_SEED`
//! overrides it, `PROPTEST_CASES` raises the 64-case budget).

use baps_crypto::ProxySigner;
use baps_obs::span::SpanRecord;
use baps_obs::{prom, span, LatencyHistogram, SpanId, TraceId};
use baps_proxy::disk::{scan, Scanned};
use baps_proxy::protocol::MAX_BODY;
use baps_proxy::{CachedDoc, DiskConfig, DiskTier};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Runs both parsers over `text`; the property is that this returns.
fn parse_all(text: &str) {
    let _ = prom::parse(text);
    let _ = prom::check_conformance(text);
    let _ = span::parse_jsonl(text);
}

/// Arbitrary bytes, half of them drawn from the punctuation the two
/// grammars branch on so a random string gets past a parser's first token.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    const SYNTAX: &[u8] = b"{}\"\\#=,: \n\r\t+-.0123456789eInfu_abcHELPTYPE";
    vec(
        prop_oneof![any::<u8>(), (0..SYNTAX.len()).prop_map(|i| SYNTAX[i]),],
        0..512,
    )
}

/// One byte-level edit: 0 flips bits of the byte at an offset, 1 splices a
/// byte in before it, 2 truncates there.
fn edits() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    vec((0u8..3, any::<u32>(), any::<u8>()), 1..48)
}

/// `doc` with `edit` applied.
fn edited(doc: &[u8], (kind, at, byte): (u8, u32, u8)) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    let at = at as usize % bytes.len();
    match kind {
        0 => bytes[at] ^= byte | 1,
        1 => bytes.insert(at, byte),
        _ => bytes.truncate(at),
    }
    bytes
}

/// `doc` with `edit` applied, decoded lossily (an edit may split a UTF-8
/// sequence).
fn mutated(doc: &str, edit: (u8, u32, u8)) -> String {
    String::from_utf8_lossy(&edited(doc.as_bytes(), edit)).into_owned()
}

/// Text as a peer could put it in a detail or a label: any bytes, lossily
/// decoded.
fn any_text(max: usize) -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..max).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn span_records() -> impl Strategy<Value = Vec<SpanRecord>> {
    let record = (
        any::<u64>(),
        1..=u64::MAX,
        any::<u64>(),
        any_text(24),
        any::<u64>(),
        any::<u64>(),
        any_text(96),
    )
        .prop_map(
            |(trace, span, parent, kind, start_us, dur_us, detail)| SpanRecord {
                trace: TraceId(trace),
                span: SpanId(span),
                parent: SpanId(parent),
                kind,
                start_us,
                dur_us,
                detail,
            },
        );
    vec(record, 1..12)
}

fn span_dump(records: &[SpanRecord]) -> String {
    records
        .iter()
        .map(|r| r.render_line() + "\n")
        .collect::<String>()
}

/// A plain sample of an exposition: family name, label pairs, value.
type PlainSample = (String, Vec<(String, String)>, f64);

/// Label values exercise every character the line grammar gives a meaning
/// to; the renderer's contract excludes only line breaks.
fn plain_samples() -> impl Strategy<Value = Vec<PlainSample>> {
    let value = prop_oneof![
        any::<u32>().prop_map(f64::from),
        -1e9f64..1e9,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ];
    let labels = vec(("[a-z_]{1,8}", "[ -~]{0,16}"), 0..4);
    vec(("[a-z_:][a-z0-9_:]{0,20}", labels, value), 1..10)
}

/// Renders `samples` (one family each), then one histogram family whose
/// occupied buckets all carry `exemplar` as their trace id.
fn exposition(samples: &[PlainSample], latencies_ms: &[f64], exemplar: u64) -> String {
    let mut out = prom::PromText::new();
    for (name, labels, value) in samples {
        out.header(name, "gauge", "a generated family");
        let labels: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        out.sample(name, &labels, *value);
    }
    let mut histo = LatencyHistogram::new();
    for ms in latencies_ms {
        histo.record(*ms);
    }
    out.header("fuzz_latency_ms", "histogram", "a generated histogram");
    let exemplars = [exemplar; baps_obs::hist::NBUCKETS];
    out.histogram_with_exemplars("fuzz_latency_ms", &[("tier", "proxy")], &histo, &exemplars);
    out.finish()
}

/// The system allocator, noting the largest single request each thread
/// makes, so a test can say "this call did not allocate a hostile length".
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is passed straight to `System`.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Runs `f` (which must stay on this thread) and reports the largest
/// allocation it asked for.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The disk entry layout: magic, stored_at, crc32c, url_len, body_len,
/// ttl_secs, digest, watermark — then the URL and the body. A read checks all
/// of it but `stored_at`, which it takes from the in-memory index: the
/// CRC32C covers every byte from `url_len` on.
const DISK_HEADER_LEN: usize = 88;
const DISK_FIELD_STARTS: [usize; 8] = [0, 8, 16, 20, 24, 32, 40, 56];
const DISK_STORED_AT: std::ops::Range<usize> = 8..16;
const DISK_URL_LEN: std::ops::Range<usize> = 20..24;
const DISK_BODY_LEN: std::ops::Range<usize> = 24..32;
/// No test document comes near this; a length a hostile header claims
/// (`url_len` to 4 GiB, `body_len` to [`MAX_BODY`]) is far beyond it.
const HONEST_ALLOCATION: usize = 64 << 10;

fn signer() -> &'static ProxySigner {
    static SIGNER: OnceLock<ProxySigner> = OnceLock::new();
    SIGNER.get_or_init(|| ProxySigner::generate(&mut StdRng::seed_from_u64(0xd15c)))
}

fn signed(body: &[u8]) -> CachedDoc {
    CachedDoc {
        body: body.into(),
        watermark: signer().watermark(body),
    }
}

/// A fresh root, unique per call (tests here run side by side).
fn disk_root(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("baps-hostile-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn open_tier(root: &std::path::Path, capacity: u64) -> DiskTier {
    let config = DiskConfig {
        root: root.to_path_buf(),
        capacity,
        default_ttl: Duration::from_secs(3600),
    };
    DiskTier::open(config, signer().public_key()).expect("the root is writable")
}

/// The live entry the open pass finds for `url`.
fn located(root: &std::path::Path, url: &str) -> Option<Scanned> {
    scan(root).unwrap().into_iter().find(|e| e.url == url)
}

/// Replaces `entry`'s bytes in its segment with their image under `edit`,
/// as an editor would: what follows moves with a spliced-in or cut byte
/// (a cut takes the rest of the file). Returns the valid image.
fn edit_in_segment(entry: &Scanned, edit: (u8, u32, u8)) -> Vec<u8> {
    let segment = fs::read(&entry.path).unwrap();
    let (start, end) = (entry.offset as usize, (entry.offset + entry.len) as usize);
    let valid = segment[start..end].to_vec();
    let mut image = segment[..start].to_vec();
    image.extend_from_slice(&edited(&valid, edit));
    if edit.0 < 2 {
        image.extend_from_slice(&segment[end..]);
    }
    fs::write(&entry.path, image).unwrap();
    valid
}

/// Stores `doc` under `url` between two neighbours in one segment,
/// replaces its entry with the valid image under `edit`, and reads all
/// three back: the read serves the stored document or nothing, and serves
/// nothing unless the edit only touched `stored_at`; serving nothing
/// means one heal, no entry and no live copy in the log. The neighbour
/// before it is untouched; the one behind it serves its own bytes or — the
/// edit moved it — nothing.
fn load_after_edit(url: &str, doc: &CachedDoc, edit: (u8, u32, u8)) -> Result<(), TestCaseError> {
    let root = disk_root("edit");
    let tier = open_tier(&root, 1 << 20);
    let (before, behind) = (signed(b"the entry before"), signed(b"the entry behind"));
    tier.store("before", &before);
    tier.store(url, doc);
    tier.store("behind", &behind);
    let entry = located(tier.root(), url).expect("the entry was just stored");
    let valid = edit_in_segment(&entry, edit);
    prop_assert_eq!(valid.len(), DISK_HEADER_LEN + url.len() + doc.body.len());
    let (hit, largest) = largest_request_during(|| tier.load(url));
    prop_assert!(
        largest <= HONEST_ALLOCATION,
        "{:?} allocated {}",
        edit,
        largest
    );
    let (kind, at, _) = edit;
    let harmless = kind == 0 && DISK_STORED_AT.contains(&(at as usize % valid.len()));
    match hit {
        Some(hit) => {
            prop_assert!(harmless, "{:?} was served", edit);
            prop_assert_eq!(&hit.doc, doc);
            prop_assert_eq!(tier.stats().heals, 0);
            prop_assert!(tier.remove(url));
        }
        None => {
            prop_assert!(!harmless, "{:?} was refused", edit);
            prop_assert_eq!(tier.stats().heals, 1);
        }
    }
    prop_assert!(located(tier.root(), url).is_none());
    prop_assert_eq!(tier.load("before").map(|hit| hit.doc), Some(before));
    let moved = tier.load("behind").map(|hit| hit.doc);
    prop_assert!(moved.is_none() && kind != 0 || moved == Some(behind));
    prop_assert_eq!(tier.entries(), 1 + tier.load("behind").is_some() as u64);
    let _ = fs::remove_dir_all(&root);
    Ok(())
}

/// Every header, URL and body byte flipped in turn, and a cut and a
/// spliced-in byte at each boundary of the layout.
#[test]
fn a_disk_entry_edited_at_every_field_and_boundary_never_serves_wrong_bytes() {
    let (url, doc) = ("http://origin/doc/7", signed(b"the body the proxy signed"));
    let body_at = DISK_HEADER_LEN + url.len();
    let boundaries = DISK_FIELD_STARTS.into_iter().chain([
        DISK_HEADER_LEN,
        body_at,
        body_at + doc.body.len() - 1,
    ]);
    let edits = (0..body_at + doc.body.len())
        .map(|at| (0u8, at, 0x80u8))
        .chain(boundaries.flat_map(|at| [(1, at, 0), (1, at, 0xff), (2, at, 0)]));
    for (kind, at, byte) in edits {
        load_after_edit(url, &doc, (kind, at as u32, byte)).unwrap();
    }
}

/// A segment of entries in the layout before the CRC32C (magic
/// `BAPSDK01`, an 84-byte header: url_len, body_len, stored_at, ttl_secs,
/// digest, watermark), as a pre-upgrade proxy left its root: the first header
/// ends the scan, so the tier opens cold, with the segment unlinked and one
/// heal, and writes behind it as usual.
#[test]
fn a_segment_of_pre_crc_entries_opens_with_zero_entries() {
    let root = disk_root("v01");
    fs::create_dir_all(&root).unwrap();
    let mut segment = Vec::new();
    for (i, body) in [&b"an old entry"[..], b"", b"another old entry"]
        .iter()
        .enumerate()
    {
        let (url, doc) = (format!("http://origin/doc/{i}"), signed(body));
        segment.extend_from_slice(b"BAPSDK01");
        segment.extend_from_slice(&(url.len() as u32).to_le_bytes());
        segment.extend_from_slice(&(body.len() as u64).to_le_bytes());
        segment.extend_from_slice(&[0; 8]);
        segment.extend_from_slice(&3600u64.to_le_bytes());
        segment.extend_from_slice(&baps_crypto::document_digest(body).0);
        segment.extend_from_slice(&doc.watermark.to_bytes());
        segment.extend_from_slice(url.as_bytes());
        segment.extend_from_slice(body);
    }
    fs::write(root.join("00000001.seg"), &segment).unwrap();
    let tier = open_tier(&root, 1 << 20);
    let s = tier.stats();
    assert_eq!((s.entries, s.bytes, s.heals), (0, 0, 1));
    assert!(!root.join("00000001.seg").exists());
    assert!(tier.load("http://origin/doc/0").is_none());
    let fresh = signed(b"written after the upgrade");
    tier.store("http://origin/doc/0", &fresh);
    assert_eq!(
        tier.load("http://origin/doc/0").map(|hit| hit.doc),
        Some(fresh)
    );
    let _ = fs::remove_dir_all(&root);
}

proptest! {
    #[test]
    fn no_parser_panics_on_arbitrary_bytes(bytes in hostile_bytes()) {
        parse_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn no_parser_panics_on_a_valid_document_with_one_byte_edited(
        records in span_records(),
        samples in plain_samples(),
        latencies_ms in vec(1e-3f64..1e4, 0..40),
        edits in edits(),
    ) {
        let docs = [
            span_dump(&records),
            exposition(&samples, &latencies_ms, 0xfeed),
        ];
        for doc in &docs {
            for edit in &edits {
                parse_all(&mutated(doc, *edit));
            }
        }
    }

    #[test]
    fn a_span_dump_round_trips(records in span_records()) {
        prop_assert_eq!(span::parse_jsonl(&span_dump(&records)), Ok(records));
    }

    #[test]
    fn an_exposition_round_trips(
        samples in plain_samples(),
        latencies_ms in vec(1e-3f64..1e4, 1..40),
        exemplar in 1..=u64::MAX,
    ) {
        let text = exposition(&samples, &latencies_ms, exemplar);
        let parsed = prom::parse(&text).map_err(TestCaseError::fail)?;
        for (sample, (name, labels, value)) in parsed.iter().zip(&samples) {
            prop_assert_eq!(&sample.name, name);
            prop_assert_eq!(&sample.labels, labels);
            prop_assert_eq!(sample.value, *value);
        }
        let histogram = &parsed[samples.len()..];
        prop_assert_eq!(
            prom::find(histogram, "fuzz_latency_ms_count", &[("tier", "proxy")]),
            Some(latencies_ms.len() as f64)
        );
        let trace_id = format!("{exemplar:016x}");
        // (The closing `+Inf` line carries only the overflow bucket's.)
        for bucket in histogram.iter().filter(|s| s.label("le").is_some_and(|le| le != "+Inf")) {
            let carried = bucket.exemplar.as_ref().and_then(|e| e.trace_id());
            prop_assert_eq!(carried, Some(trace_id.as_str()));
        }
    }

    #[test]
    fn a_disk_entry_with_one_byte_edited_never_serves_wrong_bytes(
        url in "[!-~]{1,40}",
        body in vec(any::<u8>(), 0..600),
        edits in edits(),
    ) {
        prop_assume!(url != "before" && url != "behind");
        let doc = signed(&body);
        for edit in edits {
            load_after_edit(&url, &doc, edit)?;
        }
    }

    /// The open-time scan over a log where every entry is one edit from
    /// valid, beside two segments whose first headers claim the largest
    /// lengths the fields can carry: it returns, within the (possibly
    /// shrunk) budget, having allocated for no length it had not checked,
    /// and what it kept still reads back as the stored document or heals.
    #[test]
    fn the_open_scan_survives_a_log_of_edited_entries(
        bodies in vec(vec(any::<u8>(), 0..600), 1..8),
        edits in edits(),
        capacity in 0u64..3000,
    ) {
        let root = disk_root("scan");
        let docs: Vec<(String, CachedDoc)> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| (format!("http://origin/doc/{i}"), signed(body)))
            .collect();
        {
            let tier = open_tier(&root, 1 << 20);
            for (url, doc) in &docs {
                tier.store(url, doc);
            }
        }
        // Last entry first, so an edit that moves what follows it moves
        // nothing still to be edited.
        let entries = scan(&root).unwrap();
        prop_assert_eq!(entries.len(), docs.len());
        let mut claims_the_most = Vec::new();
        for (entry, edit) in entries.iter().rev().zip(edits.iter().cycle()) {
            claims_the_most = edit_in_segment(entry, *edit);
        }
        claims_the_most[DISK_URL_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(root.join("00000098.seg"), &claims_the_most).unwrap();
        claims_the_most[DISK_URL_LEN].copy_from_slice(&1u32.to_le_bytes());
        claims_the_most[DISK_BODY_LEN].copy_from_slice(&(MAX_BODY as u64).to_le_bytes());
        fs::write(root.join("00000099.seg"), &claims_the_most).unwrap();

        let (tier, largest) = largest_request_during(|| open_tier(&root, capacity));
        prop_assert!(largest <= HONEST_ALLOCATION, "the scan allocated {}", largest);
        prop_assert!(tier.bytes() <= capacity);
        prop_assert!(!root.join("00000098.seg").exists() && !root.join("00000099.seg").exists());
        for (url, doc) in &docs {
            let (hit, largest) = largest_request_during(|| tier.load(url));
            prop_assert!(largest <= HONEST_ALLOCATION, "a read allocated {}", largest);
            prop_assert!(hit.is_none_or(|hit| hit.doc == *doc));
            prop_assert!(tier.bytes() <= capacity);
        }
        let _ = fs::remove_dir_all(&root);
    }
}
