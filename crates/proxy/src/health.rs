//! The SLO health engine whose windows and verdicts the `METRICS
//! BAPS/1.0` exposition carries (DESIGN.md §14).
//!
//! A background sampler captures the proxy's cumulative counters and
//! latency histograms into a [`WindowRing`] once per second; every
//! `METRICS` request forces one more capture (so a scrape always sees
//! data no older than the request itself) and then evaluates the
//! declarative rule table on [`ProxyConfig`](crate::ProxyConfig) against
//! rolling windows differenced out of the ring. The report holds, per
//! rule, the observed value, the thresholds, an `ok|warn|critical`
//! verdict, and — for request-facing rules that fired, in process only —
//! the tail-latency exemplar trace ids currently held by the tier
//! histograms, which the exposition's `baps_request_latency_ms` buckets
//! carry and `TRACE BAPS/1.0` resolves to span trees.
//!
//! Windows are *differences of cumulative captures* (see
//! [`baps_obs::window`]), so a rate can never go negative and a torn
//! read is impossible by construction; the only freshness caveat is that
//! a window's span is reported honestly and may exceed the asked-for
//! width when captures are sparse.

use crate::counters::COUNTERS;
use crate::proxy::{ProxyState, ProxyStats};
use baps_obs::window::{push_hist, WindowRing, WindowSchema, WindowSnapshot, DEFAULT_CAPACITY};
use baps_obs::LatencyHistogram;
use parking_lot::Mutex;
use std::time::Instant;

/// Capture layout: every request counter in table order
/// ([`ProxyStats::values`], read back by [`window_stats`]), then this one.
const WIN_RECORDER_SHED: usize = COUNTERS.len();
const WIN_COUNTERS: usize = COUNTERS.len() + 1;

/// Capture layout: histogram slots (after the counters).
const WIN_HIST_REQUEST: usize = 0;
const WIN_HIST_QUEUE_WAIT: usize = 1;
const WIN_HISTS: usize = 2;

/// The schema every proxy window capture follows.
fn schema() -> WindowSchema {
    WindowSchema {
        counters: WIN_COUNTERS,
        hists: WIN_HISTS,
    }
}

/// The rolling windows every report (and so every `METRICS` scrape)
/// carries.
pub const REPORT_WINDOWS: [u64; 3] = [1, 10, 60];

/// Most exemplar trace ids attached to one offending rule.
const MAX_RULE_EXEMPLARS: usize = 8;

/// The proxy's window ring plus the capture clock that feeds it.
///
/// Captures come from two places — the 1 Hz sampler thread and forced
/// captures on every `METRICS` request (plus the
/// [`sample_windows_now`](crate::ProxyServer::sample_windows_now) test
/// hook) — so the tick counter is a mutex, serializing writers as the
/// ring's seqlock slots require. A forced capture always advances the
/// tick by at least one second even when the wall clock has not moved,
/// which is what lets deterministic tests bracket a burst with two
/// captures and difference them.
pub(crate) struct ProxyWindows {
    ring: WindowRing,
    started: Instant,
    /// Last capture tick, `None` before the first capture.
    tick: Mutex<Option<u64>>,
}

impl ProxyWindows {
    pub(crate) fn new() -> ProxyWindows {
        ProxyWindows {
            ring: WindowRing::new(schema(), DEFAULT_CAPACITY),
            started: Instant::now(),
            tick: Mutex::new(None),
        }
    }

    /// Seconds since this proxy incarnation started.
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    pub(crate) fn ring(&self) -> &WindowRing {
        &self.ring
    }

    /// Sampler path: captures only when a new wall second has arrived,
    /// so the ring holds at most one capture per second of uptime.
    /// Returns whether this call was such a tick.
    pub(crate) fn maybe_capture(&self, state: &ProxyState) -> bool {
        let sec = self.started.elapsed().as_secs();
        let mut tick = self.tick.lock();
        if tick.is_some_and(|t| t >= sec) {
            return false;
        }
        *tick = Some(sec);
        self.ring.ingest(sec, &capture_values(state));
        true
    }

    /// Forced capture (`METRICS` request or test hook): always lands,
    /// advancing the tick past the wall clock if necessary.
    pub(crate) fn force_capture(&self, state: &ProxyState) {
        let sec = self.started.elapsed().as_secs();
        let mut tick = self.tick.lock();
        let next = match *tick {
            Some(t) => sec.max(t + 1),
            None => sec,
        };
        *tick = Some(next);
        self.ring.ingest(next, &capture_values(state));
    }
}

/// One cumulative capture of everything the SLO rules consume.
fn capture_values(state: &ProxyState) -> Vec<u64> {
    let s = state.stats();
    let mut v = Vec::with_capacity(schema().width());
    v.extend(s.values());
    v.push(state.obs.recorder.dropped());
    let mut request = LatencyHistogram::new();
    for (_, h) in state.obs.tiers.iter() {
        request.merge(&h);
    }
    push_hist(&mut v, &request);
    push_hist(&mut v, &state.reactor.snapshot().queue_wait);
    v
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
    /// Flight-recorder events shed per second (ring contention).
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
    let ring = state.windows.ring();
    let windows = REPORT_WINDOWS
        .iter()
        .map(|&want| window_rates(ring.window(want), want))
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
    let Some(w) = state.windows.ring().window(rule.window_secs) else {
        return (0.0, 0);
    };
    let span = w.span_secs();
    let stats = window_stats(&w);
    let value = match rule.signal {
        SloSignal::ErrorRate => ratio(stats.errors, stats.requests),
        SloSignal::OriginFallbackRate => ratio(stats.peer_fallbacks, stats.requests),
        SloSignal::RequestP999Ms => w.hist(WIN_HIST_REQUEST).quantile_ms(0.999),
        SloSignal::QueueWaitP99Ms => w.hist(WIN_HIST_QUEUE_WAIT).quantile_ms(0.99),
        SloSignal::RecorderShedPerSec => w.rate(WIN_RECORDER_SHED),
        SloSignal::ReactorReadyDepth => unreachable!("handled above"),
    };
    (value, span)
}

/// The request counters' deltas over `w`, as the snapshot type they were
/// captured from (so `requests` is again the sum of the outcomes).
fn window_stats(w: &WindowSnapshot) -> ProxyStats {
    ProxyStats::from_values(std::array::from_fn(|slot| w.counter(slot))).unwrap_or_default()
}

/// `count / per`; 0 when `per` is 0 (a window without requests).
fn ratio(count: u64, per: u64) -> f64 {
    if per == 0 {
        0.0
    } else {
        count as f64 / per as f64
    }
}

fn window_rates(w: Option<WindowSnapshot>, want: u64) -> WindowRates {
    let Some(w) = w else {
        return WindowRates {
            window_secs: want,
            ..WindowRates::default()
        };
    };
    let hist = w.hist(WIN_HIST_REQUEST);
    let stats = window_stats(&w);
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
