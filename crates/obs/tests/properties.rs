//! Property-based tests of the histogram invariants the METRICS pipeline
//! leans on: merging distributed recordings is lossless, and quantile
//! estimates stay monotone and inside the documented bucket error bound.
//! Plus the span-tree assembly invariants the `TRACE` pipeline leans on:
//! no record is ever orphaned (even when the bounded ring dropped
//! arbitrary spans), parent links are honoured, and assembly is
//! deterministic and independent of input order.
//!
//! The recording-switch test lives here too (not in `hist.rs` unit tests)
//! because it flips process-global state: this file's proptests only use
//! the ungated `LatencyHistogram`, so the switch can't race them.

use baps_obs::hist::{LatencyHistogram, BUCKETS_PER_DECADE};
use baps_obs::span::{assemble, SpanRecord};
use baps_obs::{
    EventKind, FlightRecorder, LabeledHistograms, SpanId, TraceId, WindowRing, WindowSchema,
};
use proptest::prelude::*;
use std::time::Duration;

/// Latency samples in ms, kept inside the histogram's exact range (above
/// the underflow clamp, below the overflow bucket) so the error bound is
/// the per-bucket one, not a clamp artifact.
fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-3f64..1e4, 1..400)
}

/// One bucket spans this factor; a quantile estimate (the lower edge of
/// the rank's bucket) is below the true sample by at most this ratio.
fn bucket_width() -> f64 {
    10f64.powf(1.0 / BUCKETS_PER_DECADE)
}

proptest! {
    /// Recording shards separately and merging is indistinguishable from
    /// recording everything into one histogram — the property that lets
    /// the load drivers merge per-worker histograms and the proxy merge
    /// per-shard cache stats without skewing the tails.
    #[test]
    fn merge_equals_single_recording(samples in samples_strategy(), split in 0usize..400) {
        let split = split.min(samples.len());
        let mut whole = LatencyHistogram::new();
        let (mut left, mut right) = (LatencyHistogram::new(), LatencyHistogram::new());
        for (i, &ms) in samples.iter().enumerate() {
            whole.record(ms);
            if i < split { &mut left } else { &mut right }.record(ms);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.max_ms(), whole.max_ms());
        prop_assert!((left.sum_ms() - whole.sum_ms()).abs() < 1e-6 * whole.sum_ms().max(1.0));
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(left.quantile_ms(q), whole.quantile_ms(q));
        }
        let a: Vec<(f64, u64)> = left.buckets().collect();
        let b: Vec<(f64, u64)> = whole.buckets().collect();
        prop_assert_eq!(a, b);
    }

    /// Quantiles never decrease as `q` grows, and each estimate brackets
    /// the true order statistic: at most the sample itself, at least the
    /// sample divided by one bucket width (~13.7% relative error).
    #[test]
    fn quantiles_monotone_and_within_bucket_error(samples in samples_strategy()) {
        let mut h = LatencyHistogram::new();
        for &ms in &samples {
            h.record(ms);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let width = bucket_width();
        let mut prev = 0.0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let est = h.quantile_ms(q);
            prop_assert!(est >= prev, "quantile_ms({q}) regressed: {est} < {prev}");
            prev = est;
            let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
            let truth = sorted[rank - 1];
            prop_assert!(est <= truth * (1.0 + 1e-9),
                "q{q}: estimate {est} above true sample {truth}");
            prop_assert!(est * width >= truth * (1.0 - 1e-9),
                "q{q}: estimate {est} more than one bucket below {truth}");
        }
    }
}

/// Random span forests: each span's parent is one of the earlier spans
/// (or none), spread over up to three traces, so the result is a mix of
/// roots, chains, and bushy trees. `(parent_seed, trace, start, dur)`
/// per span; span ids are 1-based positions.
fn forest_strategy() -> impl Strategy<Value = Vec<SpanRecord>> {
    proptest::collection::vec((any::<u64>(), 0u64..3, 0u64..100_000, 0u64..10_000), 1..48).prop_map(
        |raw| {
            let kinds = [
                "fetch",
                "dial",
                "verify",
                "queue-wait",
                "origin-fetch",
                "peer-probe",
            ];
            // Trace of span i: fixed per root, inherited from the parent
            // otherwise (a real trace never crosses parents).
            let mut traces: Vec<TraceId> = Vec::with_capacity(raw.len());
            raw.iter()
                .enumerate()
                .map(|(i, &(parent_seed, trace, start, dur))| {
                    // parent_seed % (i+1): 0 = root, j>0 = span j.
                    let pick = (parent_seed % (i as u64 + 1)) as usize;
                    let (parent, trace) = if pick == 0 {
                        (SpanId::NONE, TraceId(trace + 1))
                    } else {
                        (SpanId(pick as u64), traces[pick - 1])
                    };
                    traces.push(trace);
                    SpanRecord {
                        trace,
                        span: SpanId(i as u64 + 1),
                        parent,
                        kind: kinds[i % kinds.len()].to_owned(),
                        start_us: start,
                        dur_us: dur,
                        detail: format!("i={i}"),
                    }
                })
                .collect()
        },
    )
}

/// Flattens assembled trees into `(trace, span, parent-or-root, depth)`
/// rows — a canonical form two assemblies can be compared by.
fn shape(trees: &[baps_obs::SpanTree]) -> Vec<(TraceId, SpanId, SpanId, usize)> {
    let mut rows = Vec::new();
    for tree in trees {
        tree.root.walk(&mut |node, depth| {
            rows.push((
                node.record.trace,
                node.record.span,
                node.record.parent,
                depth,
            ));
        });
    }
    rows
}

proptest! {
    /// Every record survives assembly exactly once — even after dropping
    /// an arbitrary subset first (the bounded ring evicting spans), which
    /// turns interior spans' children into promoted roots rather than
    /// orphans. Wire round-trip (render → parse) is included so the
    /// property covers the whole TRACE export path.
    #[test]
    fn assembly_orphans_nothing_under_drops(
        records in forest_strategy(),
        drop_bits in any::<u64>(),
    ) {
        let kept: Vec<SpanRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| drop_bits >> (i % 64) & 1 == 0)
            .map(|(_, r)| r.clone())
            .collect();
        let jsonl: String = kept.iter().map(|r| r.render_line() + "\n").collect();
        let parsed = baps_obs::span::parse_jsonl(&jsonl).expect("round-trip parses");
        prop_assert_eq!(&parsed, &kept);

        let trees = assemble(&parsed);
        let mut seen: Vec<(TraceId, SpanId)> =
            shape(&trees).iter().map(|&(t, s, _, _)| (t, s)).collect();
        seen.sort();
        let mut expect: Vec<(TraceId, SpanId)> =
            kept.iter().map(|r| (r.trace, r.span)).collect();
        expect.sort();
        prop_assert_eq!(seen, expect, "assembly must keep every record exactly once");
    }

    /// Structural nesting: a node sits under its recorded parent whenever
    /// that parent survived, and becomes a root otherwise; children never
    /// cross traces.
    #[test]
    fn assembly_honours_parent_links(records in forest_strategy()) {
        let trees = assemble(&records);
        for tree in &trees {
            prop_assert_eq!(
                tree.root.record.parent, SpanId::NONE,
                "no span was dropped, so every root must be a true root"
            );
            let mut ok = true;
            tree.root.walk(&mut |node, _| {
                for child in &node.children {
                    ok &= child.record.parent == node.record.span
                        && child.record.trace == node.record.trace;
                }
            });
            prop_assert!(ok, "child under a node it does not name as parent");
        }
    }

    /// Determinism and order independence: reversing or rotating the
    /// input yields an identical assembly, and assembling twice yields
    /// identical trees.
    #[test]
    fn assembly_is_deterministic_and_order_independent(
        records in forest_strategy(),
        rot in 0usize..48,
    ) {
        let baseline = shape(&assemble(&records));
        prop_assert_eq!(&baseline, &shape(&assemble(&records)));

        let mut reversed = records.clone();
        reversed.reverse();
        prop_assert_eq!(&baseline, &shape(&assemble(&reversed)));

        let mut rotated = records.clone();
        rotated.rotate_left(rot % records.len().max(1));
        prop_assert_eq!(&baseline, &shape(&assemble(&rotated)));
    }
}

/// An arbitrary sampler history for the window ring: per capture, a clock
/// advance in seconds (0 = a re-capture within the same second) and the
/// counter/latency activity since the previous capture (the bool gates
/// whether a latency sample landed — the shim has no `Option` strategy).
fn window_history() -> impl Strategy<Value = Vec<(u64, u64, bool, f64)>> {
    proptest::collection::vec((0u64..40, 0u64..1000, any::<bool>(), 1e-3f64..1e4), 2..120)
}

proptest! {
    /// Bucket rotation under arbitrary clock advances: whatever the
    /// advance pattern (steady ticks, stalls, jumps past the whole ring),
    /// every window the ring answers is the exact difference of two
    /// cumulative captures — equal to the sum of the per-capture deltas
    /// attributed to seconds inside `(start_sec, end_sec]`. This is the
    /// telescoping identity "windowed count ≡ sum of cumulative deltas".
    #[test]
    fn window_equals_sum_of_deltas_under_arbitrary_advances(
        history in window_history(),
        want in 1u64..70,
    ) {
        let schema = WindowSchema { counters: 1, hists: 1 };
        let ring = WindowRing::new(schema, 16);
        let mut sec = 0u64;
        let mut hist = LatencyHistogram::new();
        let mut total = 0u64;
        // Ground truth, kept independently of the ring: the per-second
        // activity deltas (same-second re-captures merge into one entry).
        let mut deltas: Vec<(u64, u64, u64)> = Vec::new(); // (sec, counter, hist count)
        for &(advance, inc, has_ms, ms) in &history {
            sec += advance;
            total += inc;
            let hist_inc = u64::from(has_ms);
            if has_ms {
                hist.record(ms);
            }
            match deltas.last_mut() {
                Some(last) if last.0 == sec => { last.1 += inc; last.2 += hist_inc; }
                _ => deltas.push((sec, inc, hist_inc)),
            }
            let mut capture = vec![total];
            baps_obs::window::push_hist(&mut capture, &hist);
            ring.ingest(sec, &capture);
        }
        let Some(w) = ring.window(want) else {
            // Only a degenerate history (every capture in second 0's
            // slot) leaves nothing to difference.
            let distinct: std::collections::HashSet<u64> =
                deltas.iter().map(|d| d.0 % 16).collect();
            prop_assert_eq!(distinct.len(), 1);
            return Ok(());
        };
        prop_assert_eq!(w.end_sec, sec, "end capture is the newest ingested");
        prop_assert!(w.start_sec < w.end_sec);
        let expect_counter: u64 = deltas
            .iter()
            .filter(|d| d.0 > w.start_sec && d.0 <= w.end_sec)
            .map(|d| d.1)
            .sum();
        let expect_hist: u64 = deltas
            .iter()
            .filter(|d| d.0 > w.start_sec && d.0 <= w.end_sec)
            .map(|d| d.2)
            .sum();
        prop_assert_eq!(w.counter(0), expect_counter);
        prop_assert_eq!(w.hist(0).count(), expect_hist);
        // The start capture is legitimate: either the newest capture at
        // or before the cutoff (a capture gap can make it older than
        // asked — the span is reported honestly), or — when rotation or
        // youth left nothing that old — the oldest capture the ring still
        // retains (modelled independently: a capture survives iff no
        // later capture landed in its slot).
        let cutoff = w.end_sec.saturating_sub(want);
        if w.start_sec > cutoff {
            let oldest_retained = deltas
                .iter()
                .map(|d| d.0)
                .filter(|&s| !deltas.iter().any(|d| d.0 > s && d.0 % 16 == s % 16))
                .min()
                .unwrap();
            prop_assert_eq!(w.start_sec, oldest_retained,
                "start past the cutoff must be the oldest retained capture");
        }
    }

    /// Windows are monotone in their length and never exceed the
    /// lifetime totals: a longer ask can only widen the covered range,
    /// and no delta can double-count past what actually happened —
    /// the "snapshot never double-counts or goes negative" invariant
    /// (going negative is a u64 panic/wrap, caught by the equality
    /// checks above; this adds the upper bound).
    #[test]
    fn windows_are_monotone_and_bounded(history in window_history()) {
        let schema = WindowSchema { counters: 1, hists: 0 };
        let ring = WindowRing::new(schema, 16);
        let mut sec = 0u64;
        let mut total = 0u64;
        for &(advance, inc, _, _) in &history {
            sec += advance;
            total += inc;
            ring.ingest(sec, &[total]);
        }
        let mut prev = 0u64;
        for want in [1u64, 5, 10, 30, 60, 600] {
            let Some(w) = ring.window(want) else { continue };
            prop_assert!(w.counter(0) >= prev, "longer window lost events");
            prop_assert!(w.counter(0) <= total, "window exceeds lifetime total");
            prop_assert_eq!(w.rate(0), w.counter(0) as f64 / w.span_secs() as f64);
            prev = w.counter(0);
        }
    }

    /// Merge semantics: merging two windows adds their deltas and takes
    /// the union of their ranges, and merge with an all-zero window of
    /// the same schema is the identity.
    #[test]
    fn window_merge_adds_and_widens(history in window_history()) {
        let schema = WindowSchema { counters: 1, hists: 1 };
        let ring = WindowRing::new(schema, 32);
        let mut sec = 0u64;
        let mut hist = LatencyHistogram::new();
        let mut total = 0u64;
        for &(advance, inc, has_ms, ms) in &history {
            sec += advance;
            total += inc;
            if has_ms {
                hist.record(ms);
            }
            let mut capture = vec![total];
            baps_obs::window::push_hist(&mut capture, &hist);
            ring.ingest(sec, &capture);
        }
        let Some(short) = ring.window(1) else { return Ok(()) };
        let long = ring.window(600).unwrap();
        let mut merged = short.clone();
        merged.merge(&long);
        prop_assert_eq!(merged.counter(0), short.counter(0) + long.counter(0));
        prop_assert_eq!(merged.hist(0).count(), short.hist(0).count() + long.hist(0).count());
        prop_assert_eq!(merged.start_sec, short.start_sec.min(long.start_sec));
        prop_assert_eq!(merged.end_sec, short.end_sec.max(long.end_sec));
    }
}

/// Flipping the global switch silences the gated recorders (histograms
/// and flight-recorder events) and re-enabling restores them — the
/// mechanism the `recording` bench's overhead A/B differences.
#[test]
fn recording_switch_gates_histograms_and_recorder() {
    static LABELS: [&str; 1] = ["only"];
    let hists = LabeledHistograms::new(&LABELS);
    let ring = FlightRecorder::new(16);

    baps_obs::set_recording(false);
    hists.record(0, Duration::from_millis(5));
    ring.record(TraceId::mint(1, 1), EventKind::Fetch, Duration::ZERO, "off");
    assert!(!baps_obs::recording());
    assert_eq!(hists.snapshot(0).count(), 0);
    assert_eq!(ring.len(), 0);

    baps_obs::set_recording(true);
    hists.record(0, Duration::from_millis(5));
    ring.record(TraceId::mint(1, 2), EventKind::Fetch, Duration::ZERO, "on");
    assert!(baps_obs::recording());
    assert_eq!(hists.snapshot(0).count(), 1);
    assert_eq!(ring.len(), 1);
}
