//! The flight recorder: a bounded ring of structured span events.
//!
//! Every component of a deployment (proxy, origin, each client agent)
//! records the spans of the requests it touches — dial, wait-for-shard,
//! peer round trip, origin fetch, watermark verify — into one shared ring.
//! The ring is bounded: when full, the oldest events are dropped (and
//! counted), so a soak run can record forever while the last
//! [`FlightRecorder::DEFAULT_CAPACITY`] events before an invariant
//! violation are always available. `chaos_soak` dumps the ring next to its
//! reproduction command; tests dump it on assertion failures.
//!
//! An event is small but not free (one mutex acquisition and one short
//! `String`), so the ring earns its always-on budget three ways: recording
//! sits behind the global [`recording`](crate::recording) switch like the
//! histograms do; callers record hot-path spans *selectively* (multi-hop
//! fetches, errors, and slow operations always; routine fast cache hits
//! never — the histograms account for those); and the ring is **striped**:
//! threads append to per-stripe sub-rings (one shared mutex here measured
//! ~10% off proxy throughput; striping takes the lock off the cross-thread
//! hot path). A push never *blocks* either: stripe locks are only ever
//! `try_lock`ed and an event whose every stripe is momentarily held is
//! shed (and counted) rather than parking the calling worker — a context
//! switch costs microseconds, the push itself well under one. `dump`
//! merges the stripes back into one sequence ordered by the global event
//! counter.

use crate::span::{SpanId, SpanRecord};
use crate::trace::TraceId;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a flight-recorder event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Client: one whole `fetch` call, any tier.
    Fetch,
    /// A TCP dial (client→proxy reconnects; rare under keep-alive).
    Dial,
    /// Proxy: time spent waiting for + holding the cache shard lock on
    /// the first-tier lookup.
    WaitForShard,
    /// Proxy: one mediated PEERGET round trip to a candidate holder.
    PeerProbe,
    /// A client served a PEERGET from its browser cache.
    PeerServe,
    /// Proxy: one origin fetch (all retries included).
    OriginFetch,
    /// The origin served a GET.
    OriginServe,
    /// Client: watermark verification of a received document.
    Verify,
    /// Proxy: an INVALIDATE was applied (cache purge + index drop).
    Invalidate,
    /// Proxy: a disk-tier read (verify included; outcome in the detail).
    DiskRead,
    /// Proxy: a disk-tier write (write-through after an origin fetch).
    DiskWrite,
    /// Proxy: a miss coalesced onto another request's in-flight fetch
    /// (the span is the time its continuation spent parked on the flight).
    Coalesced,
    /// Proxy: time an accepted connection waited for its event loop to
    /// register it (attributed to the connection's first sampled request).
    QueueWait,
    /// An invariant violation (chaos soak, live test); always recorded.
    Violation,
}

impl EventKind {
    /// Stable lowercase name used in dumps and metrics.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fetch => "fetch",
            EventKind::Dial => "dial",
            EventKind::WaitForShard => "wait-for-shard",
            EventKind::PeerProbe => "peer-probe",
            EventKind::PeerServe => "peer-serve",
            EventKind::OriginFetch => "origin-fetch",
            EventKind::OriginServe => "origin-serve",
            EventKind::Verify => "verify",
            EventKind::Invalidate => "invalidate",
            EventKind::DiskRead => "disk-read",
            EventKind::DiskWrite => "disk-write",
            EventKind::Coalesced => "coalesced",
            EventKind::QueueWait => "queue-wait",
            EventKind::Violation => "VIOLATION",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (gaps mean the ring dropped events).
    pub seq: u64,
    /// Microseconds since the recorder was created, at record time.
    pub at_micros: u64,
    /// The request this span belongs to ([`TraceId::NONE`] if unknown).
    pub trace: TraceId,
    /// Span kind.
    pub kind: EventKind,
    /// Span duration in microseconds (0 for instantaneous events).
    pub dur_micros: u64,
    /// This event's span id under causal tracing ([`SpanId::NONE`] for
    /// events of unsampled traces — the legacy slow/multi-hop samples).
    pub span: SpanId,
    /// The parent span ([`SpanId::NONE`] for roots and non-span events).
    pub parent: SpanId,
    /// Free-form context (`client=3 url=… outcome=hit`).
    pub detail: String,
}

impl Event {
    /// The event as a causal-trace span record, when it carries one.
    /// `start_us` is derived from the record-time timestamp minus the
    /// duration (events are recorded when the span *ends*).
    pub fn span_record(&self) -> Option<SpanRecord> {
        if self.span.is_none() {
            return None;
        }
        Some(SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            kind: self.kind.name().to_owned(),
            start_us: self.at_micros.saturating_sub(self.dur_micros),
            dur_us: self.dur_micros,
            detail: self.detail.clone(),
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.3}ms] #{:<8} {} {:<14} {:>9.3}ms  {}",
            self.at_micros as f64 / 1e3,
            self.seq,
            self.trace,
            self.kind.name(),
            self.dur_micros as f64 / 1e3,
            self.detail,
        )?;
        if !self.span.is_none() {
            write!(f, "  span={}<-{}", self.span, self.parent)?;
        }
        Ok(())
    }
}

struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

/// Hands out a stable per-thread stripe preference, round-robin across
/// threads so concurrent recorders land on different locks.
fn thread_stripe(n: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
        }
        v % n
    })
}

/// A bounded, shared ring of [`Event`]s.
///
/// Internally striped (for capacities that warrant it) so that proxy
/// workers, client agents, and the origin never contend on one mutex:
/// each thread appends to its own sub-ring, each bounded at an equal
/// share of the capacity. A global atomic sequence number orders events
/// across stripes; [`dump`](FlightRecorder::dump) merges on it.
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    seq: AtomicU64,
    stripes: Vec<Mutex<Ring>>,
    /// Events shed because every stripe lock was momentarily held (see
    /// [`push`](Self::push) — the recorder never blocks the hot path).
    shed: AtomicU64,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring capacity. The hot path records spans selectively
    /// (multi-hop fetches, errors, slow operations — see DESIGN.md §9),
    /// so 2048 events cover thousands of recent requests while bounding
    /// the ring's resident set (events + detail strings) to a few hundred
    /// KB. Sizing matters for more than memory: an 8192-event ring cycled
    /// ~1 MB of cold allocations through the cache and alone cost ~5%
    /// throughput on a small host.
    pub const DEFAULT_CAPACITY: usize = 2048;

    /// Per-stripe capacity below which striping stops paying: tiny rings
    /// (unit tests, tight dumps) get a single stripe and exact global
    /// FIFO eviction; production-sized rings get up to 8 stripes.
    const MIN_STRIPE_CAPACITY: usize = 1024;

    /// Creates a recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let n_stripes = (cap / Self::MIN_STRIPE_CAPACITY).clamp(1, 8);
        let stripe_cap = cap.div_ceil(n_stripes);
        FlightRecorder {
            epoch: Instant::now(),
            cap,
            seq: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            stripes: (0..n_stripes)
                .map(|_| {
                    Mutex::new(Ring {
                        events: VecDeque::with_capacity(stripe_cap.min(65_536)),
                        dropped: 0,
                    })
                })
                .collect(),
        }
    }

    /// Events one stripe may hold (total capacity split evenly).
    fn stripe_cap(&self) -> usize {
        self.cap.div_ceil(self.stripes.len())
    }

    /// Records one span. A no-op while [`recording`](crate::recording) is
    /// off (the `recording` bench's baseline).
    pub fn record(
        &self,
        trace: TraceId,
        kind: EventKind,
        dur: Duration,
        detail: impl Into<String>,
    ) {
        if !crate::recording() {
            return;
        }
        self.push(trace, SpanId::NONE, SpanId::NONE, kind, dur, detail.into());
    }

    /// Records one span of a head-sampled trace, carrying its causal ids.
    /// Like [`record`](Self::record), a no-op while recording is off.
    pub fn record_span(
        &self,
        trace: TraceId,
        span: SpanId,
        parent: SpanId,
        kind: EventKind,
        dur: Duration,
        detail: impl Into<String>,
    ) {
        if !crate::recording() {
            return;
        }
        self.push(trace, span, parent, kind, dur, detail.into());
    }

    /// Records one hop either way: as a causal span under `parent` when
    /// `span` was minted (see [`crate::span::hop`]), or as a plain event
    /// when the trace is unsampled (`span` is [`SpanId::NONE`]).
    pub fn record_hop(
        &self,
        trace: TraceId,
        span: SpanId,
        parent: SpanId,
        kind: EventKind,
        dur: Duration,
        detail: impl Into<String>,
    ) {
        if span.is_none() {
            self.record(trace, kind, dur, detail);
        } else {
            self.record_span(trace, span, parent, kind, dur, detail);
        }
    }

    /// Records an instantaneous event **unconditionally** — used for
    /// invariant violations, which must land in the dump even if a
    /// benchmark turned recording off.
    pub fn note(&self, trace: TraceId, kind: EventKind, detail: impl Into<String>) {
        self.push(
            trace,
            SpanId::NONE,
            SpanId::NONE,
            kind,
            Duration::ZERO,
            detail.into(),
        );
    }

    fn push(
        &self,
        trace: TraceId,
        span: SpanId,
        parent: SpanId,
        kind: EventKind,
        dur: Duration,
        detail: String,
    ) {
        let at_micros = self.epoch.elapsed().as_micros() as u64;
        let dur_micros = dur.as_micros() as u64;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let stripe_cap = self.stripe_cap();
        let event = Event {
            seq,
            at_micros,
            trace,
            kind,
            dur_micros,
            span,
            parent,
            detail,
        };
        // Never block the hot path for bookkeeping: try the thread's
        // preferred stripe, fall through to the others, and shed the
        // event if every lock is momentarily held. Parking here costs a
        // context switch — microseconds, ~50x the push itself — and on an
        // oversubscribed host a scheduler hiccup turns one preempted
        // holder into a convoy of parked workers; losing an event under
        // that kind of pressure is the correct trade for a diagnostics
        // ring.
        let n = self.stripes.len();
        let first = thread_stripe(n);
        let Some(mut ring) = (0..n).find_map(|i| self.stripes[(first + i) % n].try_lock()) else {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Evict into a local so the displaced event's detail string is
        // freed after the lock is released, not inside the critical
        // section.
        let evicted = if ring.events.len() >= stripe_cap {
            ring.dropped += 1;
            ring.events.pop_front()
        } else {
            None
        };
        ring.events.push_back(event);
        drop(ring);
        drop(evicted);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().events.len()).sum()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events dropped: displaced because the ring was full, plus events
    /// shed because every stripe lock was held at push time.
    pub fn dropped(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().dropped).sum::<u64>()
            + self.shed.load(Ordering::Relaxed)
    }

    /// A copy of the ring, oldest event first (merged across stripes by
    /// the global sequence number).
    pub fn dump(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .stripes
            .iter()
            .flat_map(|s| s.lock().events.iter().cloned().collect::<Vec<_>>())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The ring's causal-trace spans as JSONL, one [`SpanRecord`] per
    /// line, oldest first — the body of a `TRACE BAPS/1.0` reply. Events
    /// without a span id (legacy slow/multi-hop samples, violations) are
    /// skipped.
    pub fn dump_spans(&self) -> String {
        let mut out = String::new();
        for event in self.dump() {
            if let Some(record) = event.span_record() {
                out.push_str(&record.render_line());
                out.push('\n');
            }
        }
        out
    }

    /// The ring rendered as text, one event per line, for humans and for
    /// the chaos-soak violation report.
    pub fn render(&self) -> String {
        let events = self.dump();
        let mut out = format!(
            "flight recorder: {} events (capacity {}, {} dropped)\n",
            events.len(),
            self.cap,
            self.dropped()
        );
        for event in &events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(
                TraceId::mint(0, i),
                EventKind::Fetch,
                Duration::from_micros(i),
                format!("n={i}"),
            );
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let dump = rec.dump();
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "keeps the newest events in order");
        assert_eq!(dump[3].detail, "n=9");
    }

    // The recording-switch behaviour is covered in tests/properties.rs:
    // it flips a process-global flag, which must not race the other unit
    // tests in this binary.

    #[test]
    fn span_events_export_as_jsonl() {
        let rec = FlightRecorder::new(8);
        let trace = TraceId::mint(1, 3);
        let root = SpanId::mint();
        let child = SpanId::mint();
        rec.record_span(
            trace,
            root,
            SpanId::NONE,
            EventKind::Fetch,
            Duration::from_micros(500),
            "client=1",
        );
        rec.record_span(
            trace,
            child,
            root,
            EventKind::OriginFetch,
            Duration::from_micros(200),
            "url=u",
        );
        // A non-span event must not leak into the JSONL dump.
        rec.record(trace, EventKind::Verify, Duration::from_micros(9), "x");

        let jsonl = rec.dump_spans();
        let records = crate::span::parse_jsonl(&jsonl).unwrap();
        assert_eq!(records.len(), 2);
        let trees = crate::span::assemble(&records);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].trace, trace);
        assert_eq!(trees[0].root.record.span, root);
        assert_eq!(trees[0].root.children.len(), 1);
        assert_eq!(trees[0].root.children[0].record.kind, "origin-fetch");
        // start_us is derived from the end-time stamp minus the duration.
        let r = &trees[0].root.record;
        assert_eq!(r.dur_us, 500);
        assert!(r.end_us() >= 500);
    }

    #[test]
    fn render_includes_trace_ids() {
        let rec = FlightRecorder::new(8);
        let trace = TraceId::mint(2, 5);
        rec.record(
            trace,
            EventKind::PeerProbe,
            Duration::from_millis(3),
            "url=u",
        );
        let text = rec.render();
        assert!(text.contains(&trace.to_string()), "{text}");
        assert!(text.contains("peer-probe"), "{text}");
    }
}
