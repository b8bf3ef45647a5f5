//! Causal spans: ids, head sampling, the JSONL export format, and
//! span-tree assembly.
//!
//! A span is one timed step of a request — the client's whole fetch, the
//! proxy's shard wait, one peer probe, the origin's serve — tied into a
//! tree by `(trace_id, span_id, parent_span_id)`. The requesting client
//! mints the root span next to the [`TraceId`]; every wire hop forwards
//! the current span id in a `Span-Id` header, and the receiving component
//! records its own work as children of it. Reassembling the recorded
//! spans (here, [`assemble`]) reconstructs the request's causal path
//! client→proxy→(disk|peer|origin) across processes.
//!
//! # Head sampling
//!
//! Recording every span of every request would blow the always-on ≤3%
//! overhead budget, so tracing is **head-sampled**: the decision to trace
//! is a pure function of the trace id ([`sampled`]), made identically by
//! every component with no coordination and no extra wire state. One in
//! [`SAMPLE_ONE_IN`] traces is recorded; the rest fall back to the old
//! selective slow/multi-hop flight-recorder events. Because
//! [`TraceId::mint`] is deterministic in `(client, seq)`, sampling is
//! reproducible run-to-run — the same requests of a seeded workload are
//! traced every time.
//!
//! # Export format
//!
//! The `TRACE BAPS/1.0` verb dumps the ring's sampled spans as JSON
//! Lines, one object per span:
//!
//! ```text
//! {"trace":"0000010000000002","span":"000000000000000b","parent":"0000000000000000",
//!  "kind":"fetch","start_us":1234,"dur_us":567,"detail":"client=0 url=..."}
//! ```
//!
//! `parent` is all-zero for root spans. [`parse_jsonl`] reads the format
//! back; [`assemble`] groups records by trace and attaches each span to
//! its parent, promoting spans whose parent was dropped from the bounded
//! ring to roots — a dangling orphan is impossible by construction.

use crate::trace::TraceId;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// A span id: unique per recorded span, minted from a process-global
/// counter. `SpanId(0)` is the reserved "no span" value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" placeholder (events recorded outside any sampled
    /// trace, and the parent of a root span).
    pub const NONE: SpanId = SpanId(0);

    /// Mints a fresh, process-unique span id.
    pub fn mint() -> SpanId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether this is the [`SpanId::NONE`] placeholder.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for SpanId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<SpanId, Self::Err> {
        u64::from_str_radix(s, 16).map(SpanId)
    }
}

/// One in this many traces is head-sampled for span recording. The rate
/// errs cheap on purpose: a sampled fast-path request pays ~3 ring
/// appends with detail allocations (fetch root, shard wait, verify), and
/// the noise floor of the `recording` bench's overhead estimator on a 1-CPU
/// host (§9) is too high to resolve that cost — at 1-in-8 vs 1-in-32 the
/// A/B readings were indistinguishable from the untouched baseline's. So
/// the budget is protected by construction, not by a reading: 1-in-32
/// keeps sampled work an epsilon of the request stream while a few
/// seconds of load still dumps hundreds of complete trees.
pub const SAMPLE_ONE_IN: u64 = 32;

/// Deterministic head-sampling decision for a trace: a pure hash of the
/// trace id, so the client, proxy, peers and origin all agree with no
/// coordination. [`TraceId::NONE`] is never sampled.
pub fn sampled(trace: TraceId) -> bool {
    if trace.is_none() {
        return false;
    }
    // Fibonacci multiplicative hash; the top bits are well mixed even
    // though minted ids differ only in low seq bits and a small client
    // field. Sampled iff the top log2(SAMPLE_ONE_IN) bits are zero.
    let h = trace.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h >> (64 - SAMPLE_ONE_IN.trailing_zeros()) == 0
}

/// Mints a span id for one hop of a head-sampled trace ([`SpanId::NONE`]
/// otherwise). Minted *before* the hop runs so an outbound wire message
/// can carry the id in its `Span-Id` header — the downstream process's
/// spans then attach under it.
pub fn hop(trace: TraceId) -> SpanId {
    if sampled(trace) {
        SpanId::mint()
    } else {
        SpanId::NONE
    }
}

/// Mints a span id for a hop under `parent`, the span a message arrived
/// with: [`SpanId::NONE`] when `parent` is (the trace is unsampled).
pub fn child(parent: SpanId) -> SpanId {
    if parent.is_none() {
        SpanId::NONE
    } else {
        SpanId::mint()
    }
}

/// One span as exported/parsed on the `TRACE` wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// This span's id (never [`SpanId::NONE`] in a valid record).
    pub span: SpanId,
    /// The parent span, [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// The span kind name (an [`EventKind::name`](crate::EventKind::name)).
    pub kind: String,
    /// Start time, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form context carried over from the event.
    pub detail: String,
}

impl SpanRecord {
    /// End time, microseconds since the recorder's epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Renders the record as one JSONL line (no trailing newline).
    pub fn render_line(&self) -> String {
        format!(
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"kind\":\"{}\",\
             \"start_us\":{},\"dur_us\":{},\"detail\":\"{}\"}}",
            self.trace,
            self.span,
            self.parent,
            escape(&self.kind),
            self.start_us,
            self.dur_us,
            escape(&self.detail),
        )
    }

    /// Parses one JSONL line produced by [`render_line`](Self::render_line)
    /// (or any flat JSON object with the same fields).
    pub fn parse_line(line: &str) -> Result<SpanRecord, String> {
        let fields = parse_flat_object(line)?;
        let text = |name: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("span record missing {name:?}: {line}"))
        };
        let num = |name: &str| -> Result<u64, String> {
            text(name)?
                .parse()
                .map_err(|e| format!("bad {name} in span record: {e}"))
        };
        let hex = |name: &str| -> Result<u64, String> {
            u64::from_str_radix(text(name)?, 16)
                .map_err(|e| format!("bad {name} in span record: {e}"))
        };
        let record = SpanRecord {
            trace: TraceId(hex("trace")?),
            span: SpanId(hex("span")?),
            parent: SpanId(hex("parent")?),
            kind: text("kind")?.to_owned(),
            start_us: num("start_us")?,
            dur_us: num("dur_us")?,
            detail: text("detail")?.to_owned(),
        };
        if record.span.is_none() {
            return Err(format!("span record with a zero span id: {line}"));
        }
        Ok(record)
    }
}

/// Parses a whole JSONL dump (blank lines skipped).
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(SpanRecord::parse_line)
        .collect()
}

/// JSON string escaping for the hand-rendered export (the workspace has no
/// serialization crate, so every JSON writer in-tree renders by hand).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses one flat JSON object (`{"k":"v","n":12,...}`) into key/value
/// pairs; numbers come back as their decimal text. Only what the span
/// format needs: string and unsigned-integer values, no nesting.
fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let bytes: Vec<char> = line.trim().chars().collect();
    let mut i = 0usize;
    let err = |msg: &str, at: usize| format!("{msg} at char {at}: {line}");
    let expect = |chars: &mut usize, want: char| -> Result<(), String> {
        if bytes.get(*chars) == Some(&want) {
            *chars += 1;
            Ok(())
        } else {
            Err(err(&format!("expected {want:?}"), *chars))
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&'"') {
            return Err(err("expected string", *i));
        }
        *i += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*i) {
                None => return Err(err("unterminated string", *i)),
                Some('"') => {
                    *i += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    *i += 1;
                    match bytes.get(*i) {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let hex: String = bytes
                                .get(*i + 1..*i + 5)
                                .unwrap_or_default()
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|e| err(&format!("bad \\u escape: {e}"), *i))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err(err("bad escape", *i)),
                    }
                    *i += 1;
                }
                Some(&c) => {
                    out.push(c);
                    *i += 1;
                }
            }
        }
    };
    let mut fields = Vec::new();
    expect(&mut i, '{')?;
    if bytes.get(i) == Some(&'}') {
        return Ok(fields);
    }
    loop {
        let key = parse_string(&mut i)?;
        expect(&mut i, ':')?;
        let value = match bytes.get(i) {
            Some('"') => parse_string(&mut i)?,
            Some(c) if c.is_ascii_digit() => {
                let start = i;
                while bytes.get(i).is_some_and(|c| c.is_ascii_digit()) {
                    i += 1;
                }
                bytes[start..i].iter().collect()
            }
            _ => return Err(err("expected string or number value", i)),
        };
        fields.push((key, value));
        match bytes.get(i) {
            Some(',') => i += 1,
            Some('}') => {
                i += 1;
                break;
            }
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
    if i != bytes.len() {
        return Err(err("trailing garbage", i));
    }
    Ok(fields)
}

/// One span with its assembled children.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, ordered by `(start_us, span id)`.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Visits this node and every descendant depth-first, with depth 0 at
    /// this node.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode, usize)) {
        fn inner<'a>(node: &'a SpanNode, depth: usize, f: &mut impl FnMut(&'a SpanNode, usize)) {
            f(node, depth);
            for child in &node.children {
                inner(child, depth + 1, f);
            }
        }
        inner(self, 0, f);
    }

    /// All records in the subtree, depth-first.
    pub fn records(&self) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        self.walk(&mut |n, _| out.push(&n.record));
        out
    }

    /// Whether any span in the subtree has this kind name.
    pub fn contains_kind(&self, kind: &str) -> bool {
        let mut found = false;
        self.walk(&mut |n, _| found |= n.record.kind == kind);
        found
    }

    /// Deepest level in the subtree (0 for a leaf root).
    pub fn max_depth(&self) -> usize {
        let mut max = 0;
        self.walk(&mut |_, d| max = max.max(d));
        max
    }

    /// This span's duration minus its children's — the time attributable
    /// to this step itself on the critical path.
    pub fn self_us(&self) -> u64 {
        let child_sum: u64 = self.children.iter().map(|c| c.record.dur_us).sum();
        self.record.dur_us.saturating_sub(child_sum)
    }
}

/// One assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The trace every span in the tree shares.
    pub trace: TraceId,
    /// The root span (a true root, or a span whose parent was dropped
    /// from the bounded ring and was promoted).
    pub root: SpanNode,
}

/// Assembles span records into trees.
///
/// Records are grouped by trace and each span is attached to its parent
/// when that parent is present in the input; a span whose parent is
/// missing (head of the request, or the parent fell off the bounded ring)
/// becomes a tree root. Every input record lands in exactly one tree —
/// orphans are impossible. Assembly is deterministic and independent of
/// input order: trees are sorted by `(trace, root start, root span id)`
/// and children by `(start_us, span id)`; duplicate span ids keep the
/// first record seen in that order.
pub fn assemble(records: &[SpanRecord]) -> Vec<SpanTree> {
    use std::collections::{HashMap, HashSet};

    let mut sorted: Vec<&SpanRecord> = records.iter().filter(|r| !r.span.is_none()).collect();
    sorted.sort_by_key(|r| (r.trace, r.start_us, r.span));
    sorted.dedup_by_key(|r| (r.trace, r.span));

    let present: HashSet<(TraceId, SpanId)> = sorted.iter().map(|r| (r.trace, r.span)).collect();
    // Child lists keyed by the parent; a record is a root when its parent
    // is absent, NONE, or itself (defensive against malformed input).
    let mut children: HashMap<(TraceId, SpanId), Vec<&SpanRecord>> = HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in &sorted {
        if r.parent.is_none() || r.parent == r.span || !present.contains(&(r.trace, r.parent)) {
            roots.push(r);
        } else {
            children.entry((r.trace, r.parent)).or_default().push(r);
        }
    }

    // Build each tree iteratively, tracking what was reached so that a
    // parent cycle in malformed input (a→b→a) still surfaces every record
    // rather than silently vanishing.
    let mut reached: HashSet<(TraceId, SpanId)> = HashSet::new();
    fn build(
        record: &SpanRecord,
        children: &std::collections::HashMap<(TraceId, SpanId), Vec<&SpanRecord>>,
        reached: &mut std::collections::HashSet<(TraceId, SpanId)>,
    ) -> SpanNode {
        reached.insert((record.trace, record.span));
        let mut kids = Vec::new();
        if let Some(list) = children.get(&(record.trace, record.span)) {
            for c in list {
                if !reached.contains(&(c.trace, c.span)) {
                    kids.push(build(c, children, reached));
                }
            }
        }
        SpanNode {
            record: record.clone(),
            children: kids,
        }
    }
    let mut trees: Vec<SpanTree> = roots
        .iter()
        .map(|r| SpanTree {
            trace: r.trace,
            root: build(r, &children, &mut reached),
        })
        .collect();
    // Cycle members reachable from no root: promote in sorted order.
    for r in &sorted {
        if !reached.contains(&(r.trace, r.span)) {
            trees.push(SpanTree {
                trace: r.trace,
                root: build(r, &children, &mut reached),
            });
        }
    }
    trees.sort_by_key(|t| (t.trace, t.root.record.start_us, t.root.record.span));
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, span: u64, parent: u64, kind: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: SpanId(parent),
            kind: kind.to_owned(),
            start_us: start,
            dur_us: dur,
            detail: format!("kind={kind}"),
        }
    }

    #[test]
    fn mint_is_unique_across_threads() {
        let ids: Vec<SpanId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..100).map(|_| SpanId::mint()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert!(!set.contains(&SpanId::NONE));
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_n() {
        assert!(!sampled(TraceId::NONE));
        let mut hits = 0u64;
        let total = 8_000u64;
        for client in 0..4u32 {
            for seq in 0..total / 4 {
                let t = TraceId::mint(client, seq);
                assert_eq!(sampled(t), sampled(t), "pure function");
                if sampled(t) {
                    hits += 1;
                }
            }
        }
        let expect = total / SAMPLE_ONE_IN;
        assert!(
            hits > expect / 2 && hits < expect * 2,
            "sampled {hits} of {total}, expected ~{expect}"
        );
    }

    #[test]
    fn jsonl_roundtrip_with_escapes() {
        let original = SpanRecord {
            trace: TraceId::mint(2, 7),
            span: SpanId(0x2a),
            parent: SpanId::NONE,
            kind: "fetch".to_owned(),
            start_us: 1234,
            dur_us: 567,
            detail: "url=\"http://a/b\" note=tab\there\nnewline \\slash".to_owned(),
        };
        let line = original.render_line();
        let back = SpanRecord::parse_line(&line).unwrap();
        assert_eq!(back, original);
        let many = format!("{line}\n\n{line}\n");
        assert_eq!(parse_jsonl(&many).unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "not json",
            "{\"trace\":\"xyz\",\"span\":\"1\",\"parent\":\"0\",\"kind\":\"f\",\
             \"start_us\":1,\"dur_us\":1,\"detail\":\"\"}",
            "{\"span\":\"1\"}",
            "{\"trace\":\"1\",\"span\":\"0\",\"parent\":\"0\",\"kind\":\"f\",\
             \"start_us\":1,\"dur_us\":1,\"detail\":\"\"}",
            "{\"trace\":\"1\",\"span\":\"1\",\"parent\":\"0\",\"kind\":\"f\",\
             \"start_us\":1,\"dur_us\":1,\"detail\":\"\"} extra",
        ] {
            assert!(SpanRecord::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn assembles_nested_tree() {
        let records = vec![
            rec(9, 1, 0, "fetch", 0, 100),
            rec(9, 2, 1, "dial", 5, 10),
            rec(9, 3, 1, "origin-fetch", 20, 50),
            rec(9, 4, 3, "origin-serve", 25, 30),
        ];
        let trees = assemble(&records);
        assert_eq!(trees.len(), 1);
        let root = &trees[0].root;
        assert_eq!(root.record.kind, "fetch");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].record.kind, "dial");
        assert_eq!(root.children[1].record.kind, "origin-fetch");
        assert_eq!(root.children[1].children[0].record.kind, "origin-serve");
        assert_eq!(root.max_depth(), 2);
        assert!(root.contains_kind("origin-serve"));
        assert_eq!(root.self_us(), 100 - 10 - 50);
    }

    #[test]
    fn dropped_parent_promotes_children_to_roots() {
        // The root (span 1) fell off the ring: both children must still
        // appear, each as its own tree — never silently dropped.
        let records = vec![rec(9, 2, 1, "dial", 5, 10), rec(9, 3, 1, "verify", 20, 5)];
        let trees = assemble(&records);
        assert_eq!(trees.len(), 2);
        let total: usize = trees.iter().map(|t| t.root.records().len()).sum();
        assert_eq!(total, records.len());
    }

    #[test]
    fn assembly_is_order_independent() {
        let mut records = vec![
            rec(9, 1, 0, "fetch", 0, 100),
            rec(9, 2, 1, "dial", 5, 10),
            rec(9, 3, 1, "peer-probe", 20, 50),
            rec(7, 4, 0, "fetch", 3, 9),
        ];
        let a = assemble(&records);
        records.reverse();
        let b = assemble(&records);
        let flat = |trees: &[SpanTree]| -> Vec<(u64, u64, String)> {
            trees
                .iter()
                .flat_map(|t| {
                    let mut out = Vec::new();
                    t.root.walk(&mut |n, d| {
                        out.push((n.record.span.0, d as u64, n.record.kind.clone()))
                    });
                    out
                })
                .collect()
        };
        assert_eq!(flat(&a), flat(&b));
    }

    #[test]
    fn malformed_cycles_still_surface_every_record() {
        let records = vec![
            rec(9, 1, 2, "a", 0, 10),
            rec(9, 2, 1, "b", 1, 5),
            rec(9, 5, 5, "self-parent", 7, 1),
        ];
        let trees = assemble(&records);
        let total: usize = trees.iter().map(|t| t.root.records().len()).sum();
        assert_eq!(total, 3, "no record may vanish: {trees:#?}");
    }
}
