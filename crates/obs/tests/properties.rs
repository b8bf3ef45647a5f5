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
use baps_obs::{EventKind, FlightRecorder, LabeledHistograms, SpanId, TraceId};
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
                "disk-read",
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
