//! SLO verdicts and rolling windows, worked out from two `METRICS`
//! scrapes (DESIGN.md §14).
//!
//! The proxy exports cumulative counters, cumulative histograms and gauges
//! of the moment, and judges nothing. A reader keeps scrapes and
//! differences them: a [`Window`] is what happened between two scrapes,
//! and [`evaluate`] judges a [`SloTable`] over one. A difference of two
//! cumulative snapshots telescopes, so a rate can never go negative, and
//! a windowed quantile is exactly the one the proxy's own histogram would
//! give over the same interval ([`Buckets::quantile_ms`] reports a
//! bucket's lower edge, as `LatencyHistogram::quantile_ms` does).
//!
//! `baps_top` and `chaos_soak` are the readers; the tests drive them
//! against live beds.

use baps_obs::hist::{bucket_upper_ms, BUCKETS_PER_DECADE, MIN_MS, NBUCKETS};
use baps_obs::prom::{self, Sample};
use baps_proxy::ProxyServer;

/// Most exemplar trace ids attached to one offending rule.
const MAX_RULE_EXEMPLARS: usize = 8;

/// One exposition of `proxy`, parsed: what a `METRICS BAPS/1.0` scrape
/// returns, without the connection.
pub fn scrape(proxy: &ProxyServer) -> Vec<Sample> {
    prom::parse(&proxy.metrics_text()).expect("the proxy's exposition parses")
}

/// A histogram family of one scrape, every series merged, as per-bucket
/// counts over the proxy's bucket layout (`baps_obs::hist`).
#[derive(Debug, Clone)]
pub struct Buckets(Vec<u64>);

impl Buckets {
    /// Rebuilds `family` (e.g. `baps_request_latency_ms`) from its
    /// cumulative `_bucket{le=…}` lines, summing its series. The
    /// exposition skips empty buckets and ends each series with
    /// `le="+Inf"`, whose count beyond the last finite edge is the
    /// overflow bucket's.
    pub fn of(samples: &[Sample], family: &str) -> Buckets {
        let bucket = format!("{family}_bucket");
        let mut counts = vec![0u64; NBUCKETS];
        // Cumulative count of the current series up to its previous line.
        let mut below = 0u64;
        for s in samples.iter().filter(|s| s.name == bucket) {
            let cumulative = s.value as u64;
            let idx = match s.label("le") {
                Some("+Inf") => NBUCKETS - 1,
                Some(le) => match le.parse().ok().and_then(edge_index) {
                    Some(idx) => idx,
                    None => continue,
                },
                None => continue,
            };
            counts[idx] += cumulative.saturating_sub(below);
            below = if idx == NBUCKETS - 1 { 0 } else { cumulative };
        }
        Buckets(counts)
    }

    /// What was recorded between `earlier` and this later rebuild of the
    /// same cumulative family, bucket by bucket.
    pub fn since(&self, earlier: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .zip(&earlier.0)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        )
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The lower edge of the bucket holding rank `ceil(count × q)`, ms (0
    /// when empty): `LatencyHistogram::quantile_ms`'s rule.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let rank = ((self.count() as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if idx == 0 {
                    MIN_MS
                } else {
                    bucket_upper_ms(idx - 1)
                };
            }
        }
        0.0
    }
}

/// The bucket whose upper edge an `le` label names: the exposition prints
/// each edge's shortest round-trip digits, so the parsed value is that
/// edge exactly.
fn edge_index(le: f64) -> Option<usize> {
    let idx = ((le / MIN_MS).log10() * BUCKETS_PER_DECADE).round();
    (0.0..(NBUCKETS - 1) as f64)
        .contains(&idx)
        .then_some(idx as usize)
        .filter(|&idx| bucket_upper_ms(idx) == le)
}

/// What happened between two scrapes of one proxy.
#[derive(Debug, Clone)]
pub struct Window {
    /// Whole seconds of proxy uptime between the scrapes: 0 within one
    /// second, and short across a restart, which resets the uptime.
    pub span_secs: u64,
    /// GET requests completed.
    pub requests: u64,
    /// GET requests that failed.
    pub errors: u64,
    /// Peer→origin fallbacks.
    pub peer_fallbacks: u64,
    /// Flight-recorder events shed under stripe-lock contention.
    pub recorder_shed: u64,
    /// Client-facing GET latency, every tier merged.
    pub request: Buckets,
    /// The executor's queue wait.
    pub queue_wait: Buckets,
}

impl Window {
    /// Differences the cumulative families of `later` against `earlier`.
    pub fn between(earlier: &[Sample], later: &[Sample]) -> Window {
        let delta = |name: &str| {
            let at = |samples| prom::find(samples, name, &[]).unwrap_or(0.0) as u64;
            at(later).saturating_sub(at(earlier))
        };
        let since = |family: &str| Buckets::of(later, family).since(&Buckets::of(earlier, family));
        Window {
            span_secs: delta("baps_uptime_seconds"),
            requests: delta("baps_requests_total"),
            errors: delta("baps_errors_total"),
            peer_fallbacks: delta("baps_peer_fallbacks_total"),
            recorder_shed: delta("baps_flight_recorder_shed_total"),
            request: since("baps_request_latency_ms"),
            queue_wait: since("baps_queue_wait_ms"),
        }
    }
}

/// What a rule measures.
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
    /// The later scrape's gauge: deepest `epoll_wait` ready batch since
    /// start.
    ReactorReadyDepth,
}

impl SloSignal {
    /// Stable name.
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

    /// This signal's value over `w`, the `later` scrape closing it.
    fn measure(self, w: &Window, later: &[Sample]) -> f64 {
        match self {
            SloSignal::ErrorRate => ratio(w.errors, w.requests),
            SloSignal::OriginFallbackRate => ratio(w.peer_fallbacks, w.requests),
            SloSignal::RequestP999Ms => w.request.quantile_ms(0.999),
            SloSignal::QueueWaitP99Ms => w.queue_wait.quantile_ms(0.99),
            // Uptime is whole seconds: two scrapes inside one are charged
            // a second, which understates the rate rather than hiding it.
            SloSignal::RecorderShedPerSec => ratio(w.recorder_shed, w.span_secs.max(1)),
            SloSignal::ReactorReadyDepth => {
                prom::find(later, "baps_reactor_ready_batch_peak", &[]).unwrap_or(0.0)
            }
        }
    }
}

/// One declarative SLO rule: a signal and two thresholds. `value >=
/// critical` is critical, `value >= warn` is warn, below is ok
/// (thresholds are inclusive ceilings). The window is the pair of scrapes
/// the reader evaluates over.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Operator-facing rule name (one token, no spaces).
    pub name: String,
    /// What the rule measures.
    pub signal: SloSignal,
    /// At or above this, the verdict is at least `warn`.
    pub warn: f64,
    /// At or above this, the verdict is `critical`.
    pub critical: f64,
}

impl SloRule {
    /// Convenience constructor.
    pub fn new(name: &str, signal: SloSignal, warn: f64, critical: f64) -> Self {
        SloRule {
            name: name.to_string(),
            signal,
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

/// The rule table [`evaluate`] judges.
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
                SloRule::new("error_burn", SloSignal::ErrorRate, 0.05, 0.25),
                SloRule::new("p999_ceiling", SloSignal::RequestP999Ms, 500.0, 5000.0),
                SloRule::new("origin_fallback", SloSignal::OriginFallbackRate, 0.25, 0.75),
                SloRule::new("queue_wait", SloSignal::QueueWaitP99Ms, 100.0, 1000.0),
                SloRule::new(
                    "recorder_shed",
                    SloSignal::RecorderShedPerSec,
                    1_000.0,
                    100_000.0,
                ),
                SloRule::new(
                    "reactor_ready_depth",
                    SloSignal::ReactorReadyDepth,
                    1024.0,
                    8192.0,
                ),
            ],
        }
    }
}

/// Per-rule or whole-document health verdict. Ordered: `Ok < Warn <
/// Critical`, so `max` combines verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within objectives.
    Ok,
    /// At or above the warn threshold.
    Warn,
    /// At or above the critical threshold.
    Critical,
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

/// One evaluated rule in a health report.
#[derive(Debug, Clone)]
pub struct RuleVerdict {
    /// Rule name from the table.
    pub name: String,
    /// The measured signal.
    pub signal: SloSignal,
    /// Observed value in the signal's unit.
    pub value: f64,
    /// Warn threshold.
    pub warn: f64,
    /// Critical threshold.
    pub critical: f64,
    /// This rule's verdict.
    pub verdict: Verdict,
    /// Tail-latency exemplar trace ids the later scrape's
    /// `baps_request_latency_ms` buckets carry, attached when a
    /// request-facing rule fires (each resolvable via `TRACE BAPS/1.0`).
    pub exemplars: Vec<u64>,
}

/// One evaluation of a rule table over two scrapes.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst rule verdict (`ok` when every rule passes).
    pub verdict: Verdict,
    /// The window's [`span_secs`](Window::span_secs).
    pub span_secs: u64,
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

/// Judges `table` over what happened between the `earlier` and `later`
/// scrapes of one proxy. An empty window measures 0: no data is not an
/// alert.
pub fn evaluate(earlier: &[Sample], later: &[Sample], table: &SloTable) -> HealthReport {
    let window = Window::between(earlier, later);
    // Every request-facing rule that fires shares the same "these are the
    // slow traces right now" evidence.
    let mut tail_exemplars: Vec<u64> = Vec::new();
    let traces = later
        .iter()
        .filter(|s| s.name == "baps_request_latency_ms_bucket")
        .filter_map(|s| u64::from_str_radix(s.exemplar.as_ref()?.trace_id()?, 16).ok());
    for t in traces {
        if t != 0 && !tail_exemplars.contains(&t) {
            tail_exemplars.push(t);
        }
    }
    tail_exemplars.truncate(MAX_RULE_EXEMPLARS);
    let rules: Vec<RuleVerdict> = table
        .rules
        .iter()
        .map(|rule| {
            let value = rule.signal.measure(&window, later);
            let verdict = rule.judge(value);
            let fired = verdict != Verdict::Ok && rule.signal.request_facing();
            RuleVerdict {
                name: rule.name.clone(),
                signal: rule.signal,
                value,
                warn: rule.warn,
                critical: rule.critical,
                verdict,
                exemplars: if fired {
                    tail_exemplars.clone()
                } else {
                    Vec::new()
                },
            }
        })
        .collect();
    HealthReport {
        verdict: rules.iter().map(|r| r.verdict).max().unwrap_or(Verdict::Ok),
        span_secs: window.span_secs,
        rules,
    }
}

/// `count / per`; 0 when `per` is 0 (a window without requests).
fn ratio(count: u64, per: u64) -> f64 {
    if per == 0 {
        0.0
    } else {
        count as f64 / per as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_obs::prom::PromText;
    use baps_obs::LatencyHistogram;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A scrape carrying the families a [`Window`] reads: the uptime,
    /// `errors` failed GETs (so `requests` moves with them), `shed` shed
    /// events, and `request` as one tier's series beside an empty one.
    fn fixture(uptime: u64, errors: u64, shed: u64, request: &LatencyHistogram) -> Vec<Sample> {
        let mut out = PromText::new();
        out.gauge("baps_uptime_seconds", "h", uptime as f64);
        out.counter("baps_requests_total", "h", errors);
        out.counter("baps_errors_total", "h", errors);
        out.counter("baps_flight_recorder_shed_total", "h", shed);
        out.header("baps_request_latency_ms", "histogram", "h");
        out.histogram("baps_request_latency_ms", &[("tier", "proxy")], request);
        out.histogram(
            "baps_request_latency_ms",
            &[("tier", "origin")],
            &LatencyHistogram::new(),
        );
        prom::parse(&out.finish()).unwrap()
    }

    #[test]
    fn a_window_differences_its_endpoint_scrapes() {
        let mut h = LatencyHistogram::new();
        let first = fixture(0, 0, 0, &h);
        h.record(5.0);
        let second = fixture(1, 10, 4, &h);
        h.record(50.0);
        h.record(50.0);
        let third = fixture(2, 25, 4, &h);
        // The last second only.
        let w = Window::between(&second, &third);
        assert_eq!(w.span_secs, 1);
        assert_eq!((w.errors, w.requests), (15, 15));
        assert_eq!(w.recorder_shed, 0);
        assert_eq!(w.request.count(), 2);
        assert!(
            w.request.quantile_ms(0.5) > 5.0,
            "the 5 ms sample belongs to the older second"
        );
        // Both seconds.
        let w = Window::between(&first, &third);
        assert_eq!(w.span_secs, 2);
        assert_eq!(w.errors, 25);
        assert_eq!(ratio(w.recorder_shed, w.span_secs), 2.0);
        assert_eq!(w.request.count(), 3);
        // Nothing happened between a scrape and itself.
        let w = Window::between(&third, &third);
        assert_eq!((w.span_secs, w.errors, w.request.count()), (0, 0, 0));
        assert_eq!(w.request.quantile_ms(0.99), 0.0);
    }

    /// Windows over a run of scrapes telescope: each is the sum of the
    /// per-scrape deltas inside it, a longer window never holds less,
    /// and none exceeds the lifetime totals.
    #[test]
    fn windows_are_sums_of_deltas_and_monotone() {
        let mut rng = StdRng::seed_from_u64(0x5c4a9e);
        for _ in 0..64 {
            let (mut uptime, mut total) = (0u64, 0u64);
            let mut hist = LatencyHistogram::new();
            // (uptime, errors so far, samples so far) per scrape.
            let mut truth = vec![(0u64, 0u64, 0u64)];
            let mut scrapes = vec![fixture(0, 0, 0, &hist)];
            for _ in 0..rng.gen_range(1..40) {
                uptime += rng.gen_range(1..40u64);
                total += rng.gen_range(0..1000u64);
                if rng.gen_bool(0.5) {
                    hist.record(rng.gen_range(1e-3..1e4));
                }
                truth.push((uptime, total, hist.count()));
                scrapes.push(fixture(uptime, total, total, &hist));
            }
            let last = scrapes.len() - 1;
            let mut prev = 0;
            for start in (0..last).rev() {
                let w = Window::between(&scrapes[start], &scrapes[last]);
                assert_eq!(w.span_secs, truth[last].0 - truth[start].0);
                assert_eq!(w.errors, truth[last].1 - truth[start].1);
                assert_eq!((w.requests, w.recorder_shed), (w.errors, w.errors));
                assert_eq!(w.request.count(), truth[last].2 - truth[start].2);
                assert!(w.errors >= prev, "a longer window lost events");
                assert!(w.errors <= total);
                prev = w.errors;
            }
        }
    }

    /// Windows computed by the reader lose nothing: two cumulative
    /// snapshots of seeded random histograms, rendered the way the proxy
    /// renders them, parsed and differenced, give the count, p99 and p999
    /// the histogram itself gives over the same interval, samples past
    /// the last finite edge (the overflow bucket) included.
    #[test]
    fn reader_windows_equal_the_histograms_own() {
        fn random(h: &mut LatencyHistogram, n: usize, rng: &mut StdRng) {
            for _ in 0..n {
                let ms = match rng.gen_range(0..10) {
                    0 => rng.gen_range(1e5..1e7),
                    1 => rng.gen_range(0.0..2e-4),
                    _ => 10f64.powf(rng.gen_range(-4.0..5.0)),
                };
                h.record(ms);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xb1c4e7);
        let render = |h: &LatencyHistogram| {
            let mut out = PromText::new();
            out.header("baps_request_latency_ms", "histogram", "h");
            out.histogram_with_exemplars("baps_request_latency_ms", &[("tier", "peer")], h, &[]);
            prom::parse(&out.finish()).unwrap()
        };
        for round in 0..200 {
            let mut h = LatencyHistogram::new();
            random(&mut h, rng.gen_range(0..300), &mut rng);
            let earlier = h.clone();
            random(&mut h, rng.gen_range(0..300), &mut rng);
            let (a, b) = (render(&earlier), render(&h));
            let window = Buckets::of(&b, "baps_request_latency_ms")
                .since(&Buckets::of(&a, "baps_request_latency_ms"));
            let truth = h.since(&earlier);
            assert_eq!(window.count(), truth.count(), "round {round}");
            for q in [0.5, 0.99, 0.999, 1.0] {
                assert_eq!(
                    window.quantile_ms(q),
                    truth.quantile_ms(q),
                    "round {round} q {q}"
                );
            }
        }
    }

    #[test]
    fn exemplars_name_only_request_facing_rules_that_fire() {
        let mut h = LatencyHistogram::new();
        h.record(20.0);
        h.record(200_000.0);
        let mut exemplars = vec![0u64; NBUCKETS];
        exemplars[NBUCKETS - 1] = 0xabc;
        let mut out = PromText::new();
        out.counter("baps_requests_total", "h", 4);
        out.counter("baps_errors_total", "h", 4);
        out.header("baps_request_latency_ms", "histogram", "h");
        out.histogram_with_exemplars(
            "baps_request_latency_ms",
            &[("tier", "peer")],
            &h,
            &exemplars,
        );
        let later = prom::parse(&out.finish()).unwrap();
        let report = evaluate(&[], &later, &SloTable::default());
        let burn = report.rule("error_burn").unwrap();
        assert_eq!((burn.value, burn.verdict), (1.0, Verdict::Critical));
        assert_eq!(burn.exemplars, [0xabc]);
        let p999 = report.rule("p999_ceiling").unwrap();
        assert_eq!(p999.verdict, Verdict::Critical, "{}", p999.value);
        assert_eq!(p999.exemplars, [0xabc]);
        let queue = report.rule("queue_wait").unwrap();
        assert!(queue.exemplars.is_empty() && queue.verdict == Verdict::Ok);
        assert_eq!(report.verdict, Verdict::Critical);
        assert_eq!(report.offending().count(), 2);
    }

    #[test]
    fn thresholds_are_inclusive_ceilings() {
        let rule = SloRule::new("r", SloSignal::ErrorRate, 0.1, 0.5);
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
