//! Critical-path attribution over assembled span trees.
//!
//! The aggregation behind the `trace_report` binary: given the span trees
//! reconstructed from a `TRACE BAPS/1.0` dump, aggregate per-kind
//! latency distributions two ways — **total** (the span's own duration)
//! and **self** (duration minus the children's, i.e. the time this step
//! contributes to the critical path rather than delegating downstream).

use baps_obs::span::{SpanNode, SpanTree};
use baps_obs::LatencyHistogram;

/// Aggregated latency for one span kind across a set of trees.
#[derive(Debug, Clone)]
pub struct KindStats {
    /// The span kind name (e.g. `"origin-fetch"`, `"queue-wait"`).
    pub kind: String,
    /// Spans of this kind seen.
    pub count: u64,
    /// Distribution of whole-span durations.
    pub total: LatencyHistogram,
    /// Distribution of self time (duration minus children) — the
    /// critical-path share attributable to this step itself.
    pub self_time: LatencyHistogram,
}

/// Computes per-kind attribution over `trees`, sorted by descending
/// total p99 so the dominant step leads the table.
pub fn attribution(trees: &[SpanTree]) -> Vec<KindStats> {
    use std::collections::BTreeMap;
    let mut by_kind: BTreeMap<String, KindStats> = BTreeMap::new();
    for tree in trees {
        tree.root.walk(&mut |node: &SpanNode, _| {
            let entry = by_kind
                .entry(node.record.kind.clone())
                .or_insert_with(|| KindStats {
                    kind: node.record.kind.clone(),
                    count: 0,
                    total: LatencyHistogram::new(),
                    self_time: LatencyHistogram::new(),
                });
            entry.count += 1;
            entry.total.record(node.record.dur_us as f64 / 1_000.0);
            entry.self_time.record(node.self_us() as f64 / 1_000.0);
        });
    }
    let mut stats: Vec<KindStats> = by_kind.into_values().collect();
    stats.sort_by(|a, b| {
        b.total
            .quantile_ms(0.99)
            .total_cmp(&a.total.quantile_ms(0.99))
            .then_with(|| a.kind.cmp(&b.kind))
    });
    stats
}

/// Renders the attribution as an aligned ASCII table.
pub fn render_table(stats: &[KindStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
        "kind", "spans", "p50 ms", "p99 ms", "self p50", "self p99"
    ));
    for s in stats {
        out.push_str(&format!(
            "{:<16} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
            s.kind,
            s.count,
            s.total.quantile_ms(0.50),
            s.total.quantile_ms(0.99),
            s.self_time.quantile_ms(0.50),
            s.self_time.quantile_ms(0.99),
        ));
    }
    out
}

/// Renders one tree as an indented outline, one span per line.
pub fn render_tree(tree: &SpanTree) -> String {
    let mut out = format!("trace {}\n", tree.trace);
    tree.root.walk(&mut |node: &SpanNode, depth| {
        out.push_str(&format!(
            "{}{} {:.3} ms  [{}]\n",
            "  ".repeat(depth + 1),
            node.record.kind,
            node.record.dur_us as f64 / 1_000.0,
            node.record.detail,
        ));
    });
    out
}

/// Whether `tree` demonstrates a complete multi-process request: a
/// client-side `fetch` root, at least one proxy-side hop under it, and a
/// span recorded by a *third* process (the origin's serve span, or a
/// peer's serve span).
pub fn is_multihop(tree: &SpanTree) -> bool {
    const PROXY_KINDS: &[&str] = &[
        "queue-wait",
        "wait-for-shard",
        "disk-read",
        "peer-probe",
        "origin-fetch",
        "coalesced",
    ];
    const FAR_KINDS: &[&str] = &["origin-serve", "peer-serve"];
    tree.root.record.kind == "fetch"
        && PROXY_KINDS.iter().any(|k| tree.root.contains_kind(k))
        && FAR_KINDS.iter().any(|k| tree.root.contains_kind(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_obs::span::{assemble, SpanRecord};
    use baps_obs::{SpanId, TraceId};

    fn rec(span: u64, parent: u64, kind: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(7),
            span: SpanId(span),
            parent: SpanId(parent),
            kind: kind.to_owned(),
            start_us: start,
            dur_us: dur,
            detail: String::new(),
        }
    }

    #[test]
    fn attribution_separates_self_from_total() {
        let trees = assemble(&[
            rec(1, 0, "fetch", 0, 10_000),
            rec(2, 1, "origin-fetch", 2_000, 6_000),
            rec(3, 2, "origin-serve", 3_000, 1_000),
        ]);
        let stats = attribution(&trees);
        let fetch = stats.iter().find(|s| s.kind == "fetch").unwrap();
        assert_eq!(fetch.count, 1);
        // total 10 ms, self 10 - 6 = 4 ms.
        assert!(fetch.total.quantile_ms(0.5) >= 4.0);
        assert!(fetch.self_time.quantile_ms(0.5) <= fetch.total.quantile_ms(0.5));
    }

    #[test]
    fn multihop_requires_three_processes() {
        let full = assemble(&[
            rec(1, 0, "fetch", 0, 10_000),
            rec(2, 1, "origin-fetch", 2_000, 6_000),
            rec(3, 2, "origin-serve", 3_000, 1_000),
        ]);
        assert!(is_multihop(&full[0]));

        // Client + proxy only: not multihop.
        let two = assemble(&[
            rec(1, 0, "fetch", 0, 10_000),
            rec(2, 1, "origin-fetch", 2_000, 6_000),
        ]);
        assert!(!is_multihop(&two[0]));

        // Proxy-rooted fragment (client root dropped): not multihop.
        let frag = assemble(&[
            rec(2, 1, "origin-fetch", 2_000, 6_000),
            rec(3, 2, "origin-serve", 3_000, 1_000),
        ]);
        assert!(!is_multihop(&frag[0]));
    }
}
