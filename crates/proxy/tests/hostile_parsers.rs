//! The three text parsers the CI smokes and `baps_top` read a proxy's
//! replies with — [`prom::parse`] (METRICS), [`span::parse_jsonl`] (TRACE)
//! and [`HealthReport::parse`] (HEALTH) — under hostile bytes: none of
//! them panics on an arbitrary byte string decoded lossily, nor on a valid
//! document with one byte flipped, spliced in or cut off at, and each
//! recovers exactly what its renderer wrote. One file for all three (the
//! `baps-obs` parsers included) because they share the document
//! generators' mutation step and the property.
//!
//! The proptest shim does not shrink: a failing case prints its inputs,
//! and its seed is a function of the test's name (`PROPTEST_SEED`
//! overrides it, `PROPTEST_CASES` raises the 64-case budget).

use baps_obs::span::SpanRecord;
use baps_obs::{prom, span, LatencyHistogram, SpanId, TraceId};
use baps_proxy::{HealthReport, RuleVerdict, SloSignal, Verdict, WindowRates};
use proptest::collection::vec;
use proptest::prelude::*;

/// Runs all three parsers over `text`; the property is that this returns.
fn parse_all(text: &str) {
    let _ = prom::parse(text);
    let _ = prom::check_conformance(text);
    let _ = span::parse_jsonl(text);
    let _ = HealthReport::parse(text);
}

/// Arbitrary bytes, half of them drawn from the punctuation the three
/// grammars branch on so a random string gets past a parser's first token.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    const SYNTAX: &[u8] = b"{}\"\\#=,: \n\r\t+-.0123456789eInfu_abcrulewindowHELPTYPE";
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

/// `doc` with `edit` applied, decoded lossily (an edit may split a UTF-8
/// sequence).
fn mutated(doc: &str, (kind, at, byte): (u8, u32, u8)) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = at as usize % bytes.len();
    match kind {
        0 => bytes[at] ^= byte | 1,
        1 => bytes.insert(at, byte),
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
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

fn health_report() -> impl Strategy<Value = HealthReport> {
    // Counts stay below 2^40 and rates below 10^6: the parser reads every
    // number as an f64, exact for any count a proxy can reach, and the
    // renderer keeps three (rules: six) decimals.
    let count = || 0u64..1 << 40;
    let rate = || 0.0f64..1e6;
    let verdict = || {
        prop_oneof![
            Just(Verdict::Ok),
            Just(Verdict::Warn),
            Just(Verdict::Critical)
        ]
    };
    let window = (
        (
            count(),
            count(),
            count(),
            count(),
            count(),
            count(),
            count(),
        ),
        (rate(), rate(), rate(), rate()),
    )
        .prop_map(|(counts, rates)| WindowRates {
            window_secs: counts.0,
            span_secs: counts.1,
            requests: counts.2,
            errors: counts.3,
            origin_fetches: counts.4,
            coalesced: counts.5,
            rejected: counts.6,
            req_per_s: rates.0,
            err_per_s: rates.1,
            p99_ms: rates.2,
            p999_ms: rates.3,
        });
    let signal = prop_oneof![
        Just(SloSignal::ErrorRate),
        Just(SloSignal::OriginFallbackRate),
        Just(SloSignal::RequestP999Ms),
        Just(SloSignal::QueueWaitP99Ms),
        Just(SloSignal::RecorderShedPerSec),
        Just(SloSignal::ReactorReadyDepth),
    ];
    let rule = (
        "[a-z_]{1,16}",
        signal,
        (count(), count()),
        (rate(), rate(), rate()),
        verdict(),
        vec(any::<u64>(), 0..4),
    )
        .prop_map(
            |(name, signal, spans, values, verdict, exemplars)| RuleVerdict {
                name,
                signal,
                window_secs: spans.0,
                span_secs: spans.1,
                value: values.0,
                warn: values.1,
                critical: values.2,
                verdict,
                exemplars,
            },
        );
    (verdict(), count(), vec(window, 0..4), vec(rule, 0..8)).prop_map(
        |(verdict, uptime_secs, windows, rules)| HealthReport {
            verdict,
            uptime_secs,
            windows,
            rules,
        },
    )
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
        report in health_report(),
        edits in edits(),
    ) {
        let docs = [
            span_dump(&records),
            exposition(&samples, &latencies_ms, 0xfeed),
            report.render(),
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
    fn a_health_report_round_trips(report in health_report()) {
        let text = report.render();
        let parsed = HealthReport::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed.render(), text);
    }
}
