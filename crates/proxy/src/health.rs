//! The SLO health engine whose windows and verdicts the `METRICS
//! BAPS/1.0` exposition carries (DESIGN.md §14).
//!
//! Once a second a timer on the proxy's first event loop captures the
//! cumulative counters and latency histograms into one mutex-guarded
//! deque of typed captures; every `METRICS` request forces one more
//! capture (so a scrape always sees data no older than the request
//! itself) and then evaluates the declarative rule table on
//! [`ProxyConfig`](crate::ProxyConfig) against rolling windows differenced
//! out of the deque. The report holds, per rule, the observed value, the
//! thresholds, an `ok|warn|critical` verdict, and — for request-facing
//! rules that fired, in process only — the tail-latency exemplar trace ids
//! currently held by the tier histograms, which the exposition's
//! `baps_request_latency_ms` buckets carry and `TRACE BAPS/1.0` resolves
//! to span trees.
//!
//! A window is the difference of its two endpoint captures, so the
//! per-second deltas telescope away and a rate can never go negative; the
//! only freshness caveat is that a window's span is reported honestly and
//! may exceed the asked-for width when captures are sparse.

use crate::proxy::{ProxyState, ProxyStats};
use baps_obs::LatencyHistogram;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The rolling windows every report (and so every `METRICS` scrape)
/// carries.
pub const REPORT_WINDOWS: [u64; 3] = [1, 10, 60];

/// Most exemplar trace ids attached to one offending rule.
const MAX_RULE_EXEMPLARS: usize = 8;

/// How long a capture is kept, in seconds of capture time: two minutes
/// of slack over the longest (60 s) report window, so a 60 s window's
/// start capture is still there.
const RETAIN_SECS: u64 = 128;

/// One cumulative capture of everything the SLO rules consume.
struct Capture {
    /// The request counters, restart baseline included.
    stats: ProxyStats,
    /// Flight-recorder events shed under stripe-lock contention.
    recorder_shed: u64,
    /// Client-facing GET latency, every tier merged.
    request: LatencyHistogram,
    /// The blocking executor's queue wait.
    queue_wait: LatencyHistogram,
}

impl Capture {
    fn take(state: &ProxyState) -> Capture {
        let mut request = LatencyHistogram::new();
        for (_, h) in state.obs.tiers.iter() {
            request.merge(&h);
        }
        Capture {
            stats: state.stats(),
            recorder_shed: state.obs.recorder.shed(),
            request,
            queue_wait: state.reactor.snapshot().queue_wait,
        }
    }

    /// What happened between `earlier` and this capture. The counters go
    /// field by field, so `requests` is again the sum of the outcomes.
    fn since(&self, earlier: &Capture) -> Capture {
        let (now, then) = (self.stats.values(), earlier.stats.values());
        Capture {
            stats: ProxyStats::from_values(std::array::from_fn(|i| now[i].saturating_sub(then[i])))
                .unwrap_or_default(),
            recorder_shed: self.recorder_shed.saturating_sub(earlier.recorder_shed),
            request: self.request.since(&earlier.request),
            queue_wait: self.queue_wait.since(&earlier.queue_wait),
        }
    }
}

/// What happened in `(start_sec, end_sec]`: the difference of the
/// captures taken at those two seconds.
struct Window {
    start_sec: u64,
    end_sec: u64,
    delta: Capture,
}

impl Window {
    /// Seconds the window covers (shorter than asked for on a young
    /// proxy, longer when captures were missed).
    fn span_secs(&self) -> u64 {
        self.end_sec - self.start_sec
    }
}

/// Per-second captures, oldest first, at most one per second.
#[derive(Default)]
struct Captures(VecDeque<(u64, Capture)>);

impl Captures {
    fn newest_sec(&self) -> Option<u64> {
        self.0.back().map(|(sec, _)| *sec)
    }

    /// Appends the capture taken at second `sec`, newer than every one
    /// held, and drops those `RETAIN_SECS` or more older than it.
    fn push(&mut self, sec: u64, capture: Capture) {
        debug_assert!(self.newest_sec().is_none_or(|newest| newest < sec));
        self.0.push_back((sec, capture));
        while self
            .0
            .front()
            .is_some_and(|(front, _)| front + RETAIN_SECS <= sec)
        {
            self.0.pop_front();
        }
    }

    /// The trailing `want` seconds: the newest capture minus the newest
    /// one at or before `want` seconds earlier, else the oldest held.
    /// `None` until two captures exist.
    fn window(&self, want: u64) -> Option<Window> {
        let n = self.0.len();
        if n < 2 {
            return None;
        }
        let (end_sec, end) = &self.0[n - 1];
        let cutoff = end_sec.saturating_sub(want);
        let (start_sec, start) = self
            .0
            .range(..n - 1)
            .rev()
            .find(|(sec, _)| *sec <= cutoff)
            .unwrap_or(&self.0[0]);
        Some(Window {
            start_sec: *start_sec,
            end_sec: *end_sec,
            delta: end.since(start),
        })
    }
}

/// The second a capture taken at uptime second `sec` lands in, after the
/// newest at `newest`: `None` for an unforced capture within a second
/// that already has one; a forced capture lands one second past the
/// newest when the clock has not moved, which is what lets deterministic
/// tests bracket a burst with two captures and difference them.
fn capture_sec(newest: Option<u64>, sec: u64, forced: bool) -> Option<u64> {
    match newest {
        Some(t) if t >= sec => forced.then_some(t + 1),
        _ => Some(sec),
    }
}

/// The proxy's rolling windows: its captures, and the clock they are
/// taken by.
///
/// Captures come from loop 0's once-a-second timer
/// ([`maybe_capture`](Self::maybe_capture)) and from forced captures on
/// every `METRICS` request (plus the
/// [`sample_windows_now`](crate::ProxyServer::sample_windows_now) test
/// hook); the one mutex orders them, and a reader only ever sees whole
/// captures.
pub(crate) struct ProxyWindows {
    started: Instant,
    captures: Mutex<Captures>,
}

impl ProxyWindows {
    pub(crate) fn new() -> ProxyWindows {
        ProxyWindows {
            started: Instant::now(),
            captures: Mutex::default(),
        }
    }

    /// Seconds since this proxy incarnation started.
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Time until the next whole second of uptime.
    pub(crate) fn until_next_sec(&self) -> Duration {
        let up = self.started.elapsed();
        Duration::from_secs(up.as_secs() + 1) - up
    }

    /// The timer's capture: lands only when a new second of uptime has
    /// arrived, so the deque holds at most one capture per second.
    pub(crate) fn maybe_capture(&self, state: &ProxyState) {
        self.capture(state, false);
    }

    /// Forced capture (`METRICS` request or test hook): always lands,
    /// advancing past the wall clock if necessary.
    pub(crate) fn force_capture(&self, state: &ProxyState) {
        self.capture(state, true);
    }

    fn capture(&self, state: &ProxyState, forced: bool) {
        let mut captures = self.captures.lock();
        if let Some(sec) = capture_sec(captures.newest_sec(), self.uptime_secs(), forced) {
            captures.push(sec, Capture::take(state));
        }
    }

    /// The trailing `want` seconds (see `Captures::window`).
    fn window(&self, want: u64) -> Option<Window> {
        self.captures.lock().window(want)
    }
}

/// What a rule measures over its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSignal {
    /// Errors per request (0 when the window saw no requests).
    ErrorRate,
    /// Peer→origin fallbacks per request: how often the peer path failed
    /// and the request degraded to an origin fetch.
    OriginFallbackRate,
    /// p999 of client-facing GET latency, milliseconds (all tiers merged).
    RequestP999Ms,
    /// p99 of the blocking executor's queue wait, milliseconds.
    QueueWaitP99Ms,
    /// Flight-recorder events shed per second under stripe-lock
    /// contention (a full ring displacing its oldest event is not shed).
    RecorderShedPerSec,
    /// Instantaneous gauge: deepest `epoll_wait` ready batch since start.
    ReactorReadyDepth,
}

impl SloSignal {
    /// Stable name: the `signal` label of the exposition's rule families.
    pub fn name(self) -> &'static str {
        match self {
            SloSignal::ErrorRate => "error_rate",
            SloSignal::OriginFallbackRate => "origin_fallback_rate",
            SloSignal::RequestP999Ms => "request_p999_ms",
            SloSignal::QueueWaitP99Ms => "queue_wait_p99_ms",
            SloSignal::RecorderShedPerSec => "recorder_shed_per_s",
            SloSignal::ReactorReadyDepth => "reactor_ready_depth",
        }
    }

    /// Whether offending-exemplar trace ids (from the GET tier
    /// histograms' tail buckets) are attached when this rule fires.
    /// Queue wait, recorder shed and reactor depth are not traced per
    /// request, so they have no exemplars to offer.
    fn request_facing(self) -> bool {
        matches!(
            self,
            SloSignal::ErrorRate | SloSignal::OriginFallbackRate | SloSignal::RequestP999Ms
        )
    }
}

/// One declarative SLO rule: a signal, the window it is evaluated over,
/// and the two thresholds. `value >= critical` is critical, `value >=
/// warn` is warn, below is ok (thresholds are inclusive ceilings).
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Operator-facing rule name (one token, no spaces).
    pub name: String,
    /// What the rule measures.
    pub signal: SloSignal,
    /// Window width in seconds ([`SloSignal::ReactorReadyDepth`] is an
    /// instantaneous gauge and ignores this).
    pub window_secs: u64,
    /// At or above this, the verdict is at least `warn`.
    pub warn: f64,
    /// At or above this, the verdict is `critical`.
    pub critical: f64,
}

impl SloRule {
    /// Convenience constructor.
    pub fn new(name: &str, signal: SloSignal, window_secs: u64, warn: f64, critical: f64) -> Self {
        SloRule {
            name: name.to_string(),
            signal,
            window_secs,
            warn,
            critical,
        }
    }

    fn judge(&self, value: f64) -> Verdict {
        if value >= self.critical {
            Verdict::Critical
        } else if value >= self.warn {
            Verdict::Warn
        } else {
            Verdict::Ok
        }
    }
}

/// The rule table evaluated by every `METRICS` request; lives on
/// [`ProxyConfig`](crate::ProxyConfig).
#[derive(Debug, Clone)]
pub struct SloTable {
    /// Rules, evaluated in order; the document verdict is the worst rule
    /// verdict.
    pub rules: Vec<SloRule>,
}

impl Default for SloTable {
    /// Deliberately generous defaults: they flag a proxy that is broken
    /// (sustained error burn, multi-second tails, all requests falling
    /// through peers to origin), not one that is merely busy. Deployments
    /// with real objectives replace the table wholesale.
    fn default() -> SloTable {
        SloTable {
            rules: vec![
                SloRule::new("error_burn", SloSignal::ErrorRate, 10, 0.05, 0.25),
                SloRule::new("p999_ceiling", SloSignal::RequestP999Ms, 60, 500.0, 5000.0),
                SloRule::new(
                    "origin_fallback",
                    SloSignal::OriginFallbackRate,
                    10,
                    0.25,
                    0.75,
                ),
                SloRule::new("queue_wait", SloSignal::QueueWaitP99Ms, 10, 100.0, 1000.0),
                SloRule::new(
                    "recorder_shed",
                    SloSignal::RecorderShedPerSec,
                    10,
                    1_000.0,
                    100_000.0,
                ),
                SloRule::new(
                    "reactor_ready_depth",
                    SloSignal::ReactorReadyDepth,
                    1,
                    1024.0,
                    8192.0,
                ),
            ],
        }
    }
}

/// Per-rule or whole-document health verdict. Ordered: `Ok < Warn <
/// Critical`, so `max` combines verdicts; the discriminant is the value
/// the exposition's verdict gauges carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within objectives.
    Ok = 0,
    /// At or above the warn threshold.
    Warn = 1,
    /// At or above the critical threshold.
    Critical = 2,
}

impl Verdict {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Critical => "critical",
        }
    }
}

/// What one report window saw: counts over its span, for a reader to
/// divide into rates.
#[derive(Debug, Clone, Default)]
pub struct WindowRates {
    /// Asked-for window width, seconds.
    pub window_secs: u64,
    /// Actual span between the window's endpoint captures (0 = no data).
    pub span_secs: u64,
    /// Requests answered in the window.
    pub requests: u64,
    /// Errors in the window.
    pub errors: u64,
    /// Origin fetches in the window.
    pub origin_fetches: u64,
    /// Coalesced (herd-shared) fetches in the window.
    pub coalesced: u64,
    /// Windowed GET latency p99, milliseconds.
    pub p99_ms: f64,
    /// Windowed GET latency p999, milliseconds.
    pub p999_ms: f64,
}

/// One evaluated rule in a health report.
#[derive(Debug, Clone)]
pub struct RuleVerdict {
    /// Rule name from the table.
    pub name: String,
    /// The measured signal.
    pub signal: SloSignal,
    /// Asked-for window, seconds.
    pub window_secs: u64,
    /// Actual span of the evaluated window (0 = no data; gauges too).
    pub span_secs: u64,
    /// Observed value in the signal's unit.
    pub value: f64,
    /// Warn threshold.
    pub warn: f64,
    /// Critical threshold.
    pub critical: f64,
    /// This rule's verdict.
    pub verdict: Verdict,
    /// Tail-latency exemplar trace ids attached when a request-facing
    /// rule fires (each resolvable via `TRACE BAPS/1.0`). In process only:
    /// the exposition's `baps_request_latency_ms` buckets carry them.
    pub exemplars: Vec<u64>,
}

/// One evaluation of the rule table: what [`ProxyServer::health`]
/// returns and what the `METRICS` exposition renders as its `baps_slo_*`
/// and `baps_window_*` families.
///
/// [`ProxyServer::health`]: crate::ProxyServer::health
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst rule verdict (`ok` when every rule passes).
    pub verdict: Verdict,
    /// What each of [`REPORT_WINDOWS`] saw.
    pub windows: Vec<WindowRates>,
    /// Every rule in table order.
    pub rules: Vec<RuleVerdict>,
}

impl HealthReport {
    /// Rules that did not come back `ok`.
    pub fn offending(&self) -> impl Iterator<Item = &RuleVerdict> {
        self.rules.iter().filter(|r| r.verdict != Verdict::Ok)
    }

    /// Finds a rule by name.
    pub fn rule(&self, name: &str) -> Option<&RuleVerdict> {
        self.rules.iter().find(|r| r.name == name)
    }
}

/// Evaluates the configured rule table over the current windows. The
/// caller (the `METRICS` rendering, or the
/// [`health`](crate::ProxyServer::health) hook) forces a capture first,
/// so every evaluation sees data at least as fresh as the request.
pub(crate) fn evaluate(state: &ProxyState) -> HealthReport {
    let windows = REPORT_WINDOWS
        .iter()
        .map(|&want| window_rates(state.windows.window(want), want))
        .collect();
    // Tail exemplars are read once per evaluation, not per rule: every
    // request-facing rule that fires shares the same "these are the slow
    // traces right now" evidence.
    let mut tail_exemplars: Vec<u64> = Vec::new();
    for (_, _, exemplars) in state.obs.tiers.iter_with_exemplars() {
        for t in exemplars {
            if t != 0 && !tail_exemplars.contains(&t) {
                tail_exemplars.push(t);
            }
        }
    }
    tail_exemplars.truncate(MAX_RULE_EXEMPLARS);
    let mut rules = Vec::with_capacity(state.config.slo.rules.len());
    let mut worst = Verdict::Ok;
    for rule in &state.config.slo.rules {
        let (value, span_secs) = measure(state, rule);
        let verdict = rule.judge(value);
        worst = worst.max(verdict);
        let exemplars = if verdict != Verdict::Ok && rule.signal.request_facing() {
            tail_exemplars.clone()
        } else {
            Vec::new()
        };
        rules.push(RuleVerdict {
            name: rule.name.clone(),
            signal: rule.signal,
            window_secs: rule.window_secs,
            span_secs,
            value,
            warn: rule.warn,
            critical: rule.critical,
            verdict,
            exemplars,
        });
    }
    HealthReport {
        verdict: worst,
        windows,
        rules,
    }
}

/// Measures one rule's signal: `(value, span_secs)`. A missing window
/// (fewer than two captures retained) measures as 0 over a 0-second
/// span — "no data" is not an alert.
fn measure(state: &ProxyState, rule: &SloRule) -> (f64, u64) {
    if rule.signal == SloSignal::ReactorReadyDepth {
        return (state.reactor.snapshot().ready_batch_peak as f64, 0);
    }
    let Some(w) = state.windows.window(rule.window_secs) else {
        return (0.0, 0);
    };
    let (span, d) = (w.span_secs(), &w.delta);
    let value = match rule.signal {
        SloSignal::ErrorRate => ratio(d.stats.errors, d.stats.requests),
        SloSignal::OriginFallbackRate => ratio(d.stats.peer_fallbacks, d.stats.requests),
        SloSignal::RequestP999Ms => d.request.quantile_ms(0.999),
        SloSignal::QueueWaitP99Ms => d.queue_wait.quantile_ms(0.99),
        SloSignal::RecorderShedPerSec => ratio(d.recorder_shed, span),
        SloSignal::ReactorReadyDepth => unreachable!("handled above"),
    };
    (value, span)
}

/// `count / per`; 0 when `per` is 0 (a window without requests).
fn ratio(count: u64, per: u64) -> f64 {
    if per == 0 {
        0.0
    } else {
        count as f64 / per as f64
    }
}

fn window_rates(w: Option<Window>, want: u64) -> WindowRates {
    let Some(w) = w else {
        return WindowRates {
            window_secs: want,
            ..WindowRates::default()
        };
    };
    let (stats, hist) = (&w.delta.stats, &w.delta.request);
    WindowRates {
        window_secs: want,
        span_secs: w.span_secs(),
        requests: stats.requests,
        errors: stats.errors,
        origin_fetches: stats.origin_fetches,
        coalesced: stats.coalesced_fetches,
        p99_ms: hist.quantile_ms(0.99),
        p999_ms: hist.quantile_ms(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A capture whose one moving counter is `errors` (so `requests`, an
    /// outcome sum, moves with it).
    fn capture(errors: u64, shed: u64, request: &LatencyHistogram) -> Capture {
        Capture {
            stats: ProxyStats {
                requests: errors,
                errors,
                ..ProxyStats::default()
            },
            recorder_shed: shed,
            request: request.clone(),
            queue_wait: LatencyHistogram::new(),
        }
    }

    fn log(entries: impl IntoIterator<Item = (u64, Capture)>) -> Captures {
        let mut log = Captures::default();
        for (sec, c) in entries {
            log.push(sec, c);
        }
        log
    }

    #[test]
    fn no_window_from_zero_or_one_capture() {
        let h = LatencyHistogram::new();
        assert!(Captures::default().window(10).is_none());
        assert!(log([(0, capture(0, 0, &h))]).window(10).is_none());
    }

    #[test]
    fn a_window_differences_its_endpoint_captures() {
        let mut h = LatencyHistogram::new();
        let first = capture(0, 0, &h);
        h.record(5.0);
        let second = capture(10, 4, &h);
        h.record(50.0);
        h.record(50.0);
        let log = log([(0, first), (1, second), (2, capture(25, 4, &h))]);
        // Trailing 1 s: second 2 only.
        let w = log.window(1).unwrap();
        assert_eq!((w.start_sec, w.end_sec), (1, 2));
        assert_eq!((w.delta.stats.errors, w.delta.stats.requests), (15, 15));
        assert_eq!(w.delta.recorder_shed, 0);
        assert_eq!(w.delta.request.count(), 2);
        assert!(
            w.delta.request.quantile_ms(0.5) > 5.0,
            "the 5 ms sample belongs to the older second"
        );
        // Trailing 10 s of a 2 s old log: everything.
        let w = log.window(10).unwrap();
        assert_eq!((w.start_sec, w.end_sec, w.span_secs()), (0, 2, 2));
        assert_eq!(w.delta.stats.errors, 25);
        assert_eq!(ratio(w.delta.recorder_shed, w.span_secs()), 2.0);
        assert_eq!(w.delta.request.count(), 3);
        assert!((w.delta.request.sum_ms() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn captures_are_retained_by_age() {
        let h = LatencyHistogram::new();
        let log = log((0..300).map(|sec| (sec, capture(sec * 10, 0, &h))));
        // Seconds 172..=299 survive: each less than RETAIN_SECS older
        // than the newest. A 600 s ask degrades to the oldest of them.
        assert_eq!(log.0.len(), RETAIN_SECS as usize);
        let w = log.window(600).unwrap();
        assert_eq!((w.start_sec, w.end_sec), (172, 299));
        assert_eq!(w.delta.stats.errors, (299 - 172) * 10);
        // A gap of RETAIN_SECS or more leaves only the newest capture.
        let gap = self::log([(0, capture(0, 0, &h)), (RETAIN_SECS, capture(1, 0, &h))]);
        assert!(gap.window(600).is_none());
    }

    #[test]
    fn histogram_deltas_are_bucket_by_bucket() {
        let mut h = LatencyHistogram::new();
        for ms in [0.5, 3.0, 9000.0] {
            h.record(ms);
        }
        let earlier = h.clone();
        for ms in [42.0, 42.0, 42.0] {
            h.record(ms);
        }
        let delta = h.since(&earlier);
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.quantile_ms(0.0), delta.quantile_ms(1.0), "one bucket");
        assert!(delta.quantile_ms(0.5) <= 42.0 && delta.max_ms() >= 42.0);
        assert!((delta.sum_ms() - 126.0).abs() < 1e-9);
        assert_eq!(h.since(&h).count(), 0);
    }

    #[test]
    fn the_tick_rule() {
        // The first capture lands in its own second.
        assert_eq!(capture_sec(None, 3, false), Some(3));
        // The timer captures once per new second of uptime.
        assert_eq!(capture_sec(Some(3), 3, false), None);
        assert_eq!(capture_sec(Some(3), 5, false), Some(5));
        // A forced capture always lands, past the newest if need be.
        assert_eq!(capture_sec(Some(3), 3, true), Some(4));
        assert_eq!(capture_sec(Some(7), 3, true), Some(8));
        assert_eq!(capture_sec(Some(3), 5, true), Some(5));
    }

    /// An arbitrary capture history: per capture, a clock advance in
    /// seconds (at least one, as the tick rule guarantees) and the
    /// counter/latency activity since the previous capture (the bool
    /// gates whether a latency sample landed).
    fn history() -> impl Strategy<Value = Vec<(u64, u64, bool, f64)>> {
        proptest::collection::vec((1u64..40, 0u64..1000, any::<bool>(), 1e-3f64..1e4), 2..120)
    }

    proptest! {
        /// Whatever the advance pattern (steady ticks, stalls, jumps past
        /// the whole retention), every window is the exact difference of
        /// two cumulative captures: equal to the sum of the per-capture
        /// deltas of the seconds in `(start_sec, end_sec]`.
        #[test]
        fn window_equals_sum_of_deltas_under_arbitrary_advances(
            history in history(),
            want in 1u64..70,
        ) {
            let mut log = Captures::default();
            let (mut sec, mut total) = (0u64, 0u64);
            let mut hist = LatencyHistogram::new();
            // Ground truth, kept apart from the log: (sec, errors, samples).
            let mut deltas: Vec<(u64, u64, u64)> = Vec::new();
            for &(advance, inc, has_ms, ms) in &history {
                sec += advance;
                total += inc;
                if has_ms {
                    hist.record(ms);
                }
                deltas.push((sec, inc, u64::from(has_ms)));
                log.push(sec, capture(total, total, &hist));
            }
            let Some(w) = log.window(want) else {
                // Only a gap of the whole retention leaves nothing to
                // difference.
                prop_assert_eq!(log.0.len(), 1);
                return Ok(());
            };
            prop_assert_eq!(w.end_sec, sec, "the end capture is the newest");
            prop_assert!(w.start_sec < w.end_sec);
            let inside = || deltas.iter().filter(|d| d.0 > w.start_sec && d.0 <= w.end_sec);
            prop_assert_eq!(w.delta.stats.errors, inside().map(|d| d.1).sum::<u64>());
            prop_assert_eq!(w.delta.stats.requests, w.delta.stats.errors);
            prop_assert_eq!(w.delta.recorder_shed, w.delta.stats.errors);
            prop_assert_eq!(w.delta.request.count(), inside().map(|d| d.2).sum::<u64>());
            // The start capture is the newest at or before the cutoff (a
            // gap can make it older than asked: the span says so), or,
            // when nothing that old is held, the oldest capture less than
            // RETAIN_SECS older than the newest.
            let cutoff = w.end_sec.saturating_sub(want);
            let oldest_retained = deltas
                .iter()
                .map(|d| d.0)
                .find(|&s| s + RETAIN_SECS > sec)
                .unwrap();
            if w.start_sec > cutoff {
                prop_assert_eq!(w.start_sec, oldest_retained,
                    "a start past the cutoff must be the oldest retained capture");
            } else {
                prop_assert!(w.start_sec >= oldest_retained);
                prop_assert!(
                    !deltas.iter().any(|d| d.0 > w.start_sec && d.0 <= cutoff),
                    "a newer capture at or before the cutoff was passed over"
                );
            }
        }

        /// Windows are monotone in their length and never exceed the
        /// lifetime totals: a longer ask can only widen the covered range,
        /// and no delta counts past what actually happened.
        #[test]
        fn windows_are_monotone_and_bounded(history in history()) {
            let mut log = Captures::default();
            let (mut sec, mut total) = (0u64, 0u64);
            let h = LatencyHistogram::new();
            for &(advance, inc, _, _) in &history {
                sec += advance;
                total += inc;
                log.push(sec, capture(total, total, &h));
            }
            let mut prev = 0u64;
            for want in [1u64, 5, 10, 30, 60, 600] {
                let Some(w) = log.window(want) else { continue };
                let errors = w.delta.stats.errors;
                prop_assert!(errors >= prev, "a longer window lost events");
                prop_assert!(errors <= total, "a window exceeds the lifetime total");
                prop_assert_eq!(
                    ratio(w.delta.recorder_shed, w.span_secs()),
                    errors as f64 / w.span_secs() as f64
                );
                prev = errors;
            }
        }
    }

    #[test]
    fn thresholds_are_inclusive_ceilings() {
        let rule = SloRule::new("r", SloSignal::ErrorRate, 10, 0.1, 0.5);
        assert_eq!(rule.judge(0.099), Verdict::Ok);
        assert_eq!(rule.judge(0.1), Verdict::Warn);
        assert_eq!(rule.judge(0.499), Verdict::Warn);
        assert_eq!(rule.judge(0.5), Verdict::Critical);
        assert_eq!(rule.judge(f64::INFINITY), Verdict::Critical);
    }

    #[test]
    fn verdicts_combine_by_max() {
        assert_eq!(Verdict::Ok.max(Verdict::Warn), Verdict::Warn);
        assert_eq!(Verdict::Critical.max(Verdict::Warn), Verdict::Critical);
        assert!(Verdict::Ok < Verdict::Warn && Verdict::Warn < Verdict::Critical);
        let gauge = [Verdict::Ok, Verdict::Warn, Verdict::Critical].map(|v| v as u8);
        assert_eq!(gauge, [0, 1, 2], "the exposition's verdict encoding");
    }

    #[test]
    fn default_table_names_are_unique_and_thresholds_ordered() {
        let table = SloTable::default();
        let mut names: Vec<&str> = table.rules.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.rules.len(), "duplicate rule names");
        for rule in &table.rules {
            assert!(rule.warn <= rule.critical);
        }
    }
}
