//! Log-scaled latency histograms for per-request service times.
//!
//! The paper's §5 argues about *aggregate* service time; a distributional
//! view (p50/p90/p99/p999 per serve tier) shows where the browsers-aware
//! design helps and what the 0.1 s peer-connection setup costs. Buckets
//! are log-spaced (18 per decade) so microsecond memory hits and
//! multi-second WAN fetches fit in one compact structure with bounded
//! relative error: one bucket spans a factor of 10^(1/18) ≈ 1.137, so a
//! quantile estimate (the lower edge of the bucket holding the rank) is
//! never more than ~13.7% below the true sample and never above it.
//!
//! Two variants share the bucket layout: [`LatencyHistogram`] for
//! single-threaded recording, merging and quantile extraction, and
//! [`AtomicHistogram`] for lock-free always-on recording inside servers
//! (snapshot into a `LatencyHistogram` to read it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Buckets per decade (relative resolution ≈ 10^(1/18) − 1 ≈ 13.6%).
pub const BUCKETS_PER_DECADE: f64 = 18.0;
/// Smallest representable latency, ms (everything below lands in bucket 0).
pub const MIN_MS: f64 = 1e-4;
/// Number of buckets: spans 1e-4 .. 1e5 ms (9 decades) plus an underflow
/// bucket and an overflow bucket.
pub const NBUCKETS: usize = (9.0 * BUCKETS_PER_DECADE) as usize + 2;

/// Bucket index for a latency in milliseconds.
fn bucket_of(ms: f64) -> usize {
    if ms <= MIN_MS {
        return 0;
    }
    // `* (1.0 / MIN_MS)` const-folds to a multiply; a division here is a
    // real `fdiv` on the per-request hot path.
    let idx = ((ms * (1.0 / MIN_MS)).log10() * BUCKETS_PER_DECADE).floor() as usize + 1;
    idx.min(NBUCKETS - 1)
}

/// Lower bucket boundaries in integer nanoseconds: `boundaries[k]` is the
/// smallest duration landing in bucket `k + 1`. Each entry is calibrated
/// against the f64 path (float estimate, then a +-1 ns local search), so
/// [`bucket_of_ns`] agrees with `bucket_of` on every nanosecond value —
/// including the boundary values where independent float math would
/// disagree by one ulp and shift a bucket.
fn ns_boundaries() -> &'static [u64; NBUCKETS - 1] {
    static BOUNDARIES: OnceLock<[u64; NBUCKETS - 1]> = OnceLock::new();
    BOUNDARIES.get_or_init(|| {
        let via_f64 = |ns: u64| bucket_of(Duration::from_nanos(ns).as_secs_f64() * 1e3);
        let mut t = [0u64; NBUCKETS - 1];
        for (k, slot) in t.iter_mut().enumerate() {
            let i = k + 1;
            // MIN_MS = 1e-4 ms = 100 ns, so bucket i opens near
            // 100 * 10^((i-1)/18) ns.
            let mut est =
                (100.0 * 10f64.powf((i as f64 - 1.0) / BUCKETS_PER_DECADE)).round() as u64;
            while est > 0 && via_f64(est - 1) >= i {
                est -= 1;
            }
            while via_f64(est) < i {
                est += 1;
            }
            *slot = est;
        }
        t
    })
}

/// Bucket index for an integer nanosecond latency — the server hot path.
/// A binary search over precomputed u64 boundaries (8 L1-resident
/// compares) replaces the `log10` libm call the f64 path pays; at a few
/// histogram records per proxied request the difference is measurable in
/// the recording-overhead A/B.
/// One row of the octave-indexed bucket lookup: the bucket a value at
/// the octave's floor (`2^o` ns) falls in, plus the boundaries interior
/// to the octave. 18 buckets per decade puts at most
/// `ceil(log10(2) * 18) = 6` boundaries inside any one octave; short
/// rows are padded with `u64::MAX`, which no (clamped) input reaches.
struct Octave {
    base: u16,
    bounds: [u64; 6],
}

/// The 64 octave rows, derived from [`ns_boundaries`] on first use.
fn octaves() -> &'static [Octave; 64] {
    static OCTAVES: OnceLock<[Octave; 64]> = OnceLock::new();
    OCTAVES.get_or_init(|| {
        let b = ns_boundaries();
        std::array::from_fn(|o| {
            let lo = 1u64 << o;
            let hi = if o == 63 { u64::MAX - 1 } else { (lo << 1) - 1 };
            let mut bounds = [u64::MAX; 6];
            let mut in_row = b.iter().filter(|&&t| t > lo && t <= hi);
            for slot in bounds.iter_mut() {
                match in_row.next() {
                    Some(&t) => *slot = t,
                    None => break,
                }
            }
            debug_assert!(in_row.next().is_none(), "octave overflows its 6 slots");
            Octave {
                base: b.partition_point(|&t| t <= lo) as u16,
                bounds,
            }
        })
    })
}

/// Bucket index for a duration in integer nanoseconds. A binary search
/// over the 163 boundaries costs ~8 dependent, mispredicting probes per
/// record; indexing by the value's octave (`leading_zeros`, one branch-
/// free instruction) leaves at most 6 in-row comparisons with no data-
/// dependent branches — this sits on every request's hot path four
/// times, and the difference is measurable in the §9 overhead A/B.
#[inline]
fn bucket_of_ns(ns: u64) -> usize {
    let ns = ns.min(u64::MAX - 1);
    let row = &octaves()[63 - (ns | 1).leading_zeros() as usize];
    row.base as usize
        + row
            .bounds
            .iter()
            .map(|&t| usize::from(t <= ns))
            .sum::<usize>()
}

/// Lower edge of a bucket, ms (quantiles report this value).
fn bucket_lower_ms(idx: usize) -> f64 {
    if idx == 0 {
        return MIN_MS;
    }
    MIN_MS * 10f64.powf((idx - 1) as f64 / BUCKETS_PER_DECADE)
}

/// The largest finite bucket edge (the overflow bucket's lower edge) —
/// what an exemplar on the `+Inf` bucket reports as its value, since
/// OpenMetrics exemplar values must stay finite.
pub(crate) const MAX_FINITE_EDGE_MS: f64 = 1e5;

/// Upper edge of a bucket, ms — the Prometheus `le` bound. The overflow
/// bucket's edge is `+Inf`.
pub fn bucket_upper_ms(idx: usize) -> f64 {
    if idx >= NBUCKETS - 1 {
        return f64::INFINITY;
    }
    MIN_MS * 10f64.powf(idx as f64 / BUCKETS_PER_DECADE)
}

/// A fixed-size log-scaled histogram of millisecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NBUCKETS],
            total: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, ms: f64) {
        debug_assert!(ms.is_finite() && ms >= 0.0);
        self.counts[bucket_of(ms)] += 1;
        self.total += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations, ms.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Mean latency, ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ms / self.total as f64
        }
    }

    /// Maximum observed latency, ms.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Approximate quantile (`q` in [0, 1]), ms. Returns 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_ms(idx);
            }
        }
        self.max_ms
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ms += other.sum_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }

    /// Non-empty buckets as `(upper_edge_ms, count)` pairs, in increasing
    /// edge order — the series a Prometheus `_bucket{le=…}` rendering
    /// needs (counts here are per-bucket, not yet cumulative).
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_upper_ms(idx), c))
    }

    /// The raw per-bucket counts, all [`NBUCKETS`] of them (zeros
    /// included).
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// What was recorded between `earlier` and this later snapshot of the
    /// same cumulative histogram, bucket by bucket: quantiles over it
    /// describe only that interval. The maximum is the highest occupied
    /// bucket's edge, since the exact sample is not recoverable from
    /// bucket deltas.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let counts = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        LatencyHistogram::from_bucket_counts(counts, (self.sum_ms - earlier.sum_ms).max(0.0))
    }

    /// Rebuilds a histogram from raw bucket counts. The count is derived
    /// from the bucket sum; the maximum is approximated by the highest
    /// occupied bucket's edge.
    pub(crate) fn from_bucket_counts(counts: Vec<u64>, sum_ms: f64) -> LatencyHistogram {
        assert_eq!(counts.len(), NBUCKETS);
        let total = counts.iter().sum();
        let max_ms = counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|idx| {
                if idx < NBUCKETS - 1 {
                    bucket_upper_ms(idx)
                } else {
                    bucket_lower_ms(idx)
                }
            })
            .unwrap_or(0.0);
        LatencyHistogram {
            counts,
            total,
            sum_ms,
            max_ms,
        }
    }
}

/// The index of the first *tail* bucket: exemplars are retained for this
/// bucket and above. 10 ms and up — in this system's latency regime
/// (sub-millisecond cache hits, single-digit-millisecond disk reads) the
/// p99 region of every tier sits at or above this edge, while the buckets
/// below it turn over far too fast for a retained trace id to still be
/// in the flight-recorder ring by the time anyone scrapes it.
pub const TAIL_BUCKET_FLOOR: usize = first_bucket_at_or_above_10ms();

/// `bucket_of(10.0)` as a const: 10 ms = 1e5 × MIN_MS, so it opens decade
/// 5 of 9 — bucket 1 + 5 × 18.
const fn first_bucket_at_or_above_10ms() -> usize {
    1 + 5 * (BUCKETS_PER_DECADE as usize)
}

/// The same bucket layout with lock-free buckets, for always-on recording
/// on server hot paths: `record` is a handful of `Relaxed` atomic adds, no
/// lock, no allocation. Readers take a [`snapshot`](AtomicHistogram::snapshot).
///
/// The observation count is derived from the bucket sum at snapshot time
/// (not tracked separately), so a snapshot's `count()` always equals the
/// sum of its buckets even when taken mid-load — the same no-torn-reads
/// discipline as `ProxyCounters::snapshot`.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    /// Total observed time in nanoseconds (u64 wraps after ~584 years).
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Most recent head-sampled `TraceId` observed per tail bucket
    /// (index `TAIL_BUCKET_FLOOR..`), 0 = none yet. A tail latency in the
    /// exposition thereby links to a `TRACE`-fetchable span tree. Only
    /// sampled traces are stored, so every retained exemplar has a span
    /// tree to resolve to; the store is a single `Relaxed` write on at
    /// most 1-in-[`crate::span::SAMPLE_ONE_IN`] requests.
    exemplars: Vec<AtomicU64>,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            exemplars: (TAIL_BUCKET_FLOOR..NBUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Records one latency observation.
    pub fn record_ms(&self, ms: f64) {
        debug_assert!(ms.is_finite() && ms >= 0.0);
        self.counts[bucket_of(ms)].fetch_add(1, Ordering::Relaxed);
        let ns = (ms * 1e6) as u64;
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // fetch_max is a CAS loop; a plain load skips it on the common
        // not-a-new-max path (a racing writer only ever raises the value,
        // so the stale-read worst case is a skipped redundant update).
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Records one latency observation from a [`Duration`]. Stays on
    /// integer nanoseconds end to end (calibrated bucket table, no float
    /// conversion, no `log10`) — this is the always-on per-request path.
    #[inline]
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of_ns(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Records one observation and, when `trace` is head-sampled and the
    /// latency lands in a tail bucket, retains it as that bucket's
    /// exemplar. This is the always-on request path: the sampling check
    /// is one multiply-and-shift, and the exemplar store fires on at most
    /// 1-in-32 requests.
    #[inline]
    pub fn record_traced(&self, d: Duration, trace: crate::TraceId) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let bucket = bucket_of_ns(ns);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        if bucket >= TAIL_BUCKET_FLOOR && crate::span::sampled(trace) {
            self.exemplars[bucket - TAIL_BUCKET_FLOOR].store(trace.0, Ordering::Relaxed);
        }
    }

    /// Exemplar traces per bucket: `traces[i]` is the most recent sampled
    /// trace id observed in bucket `i` (0 below [`TAIL_BUCKET_FLOOR`] and
    /// in tail buckets that have seen no sampled observation yet).
    pub fn exemplar_traces(&self) -> Vec<u64> {
        let mut traces = vec![0u64; NBUCKETS];
        for (slot, t) in self.exemplars.iter().zip(&mut traces[TAIL_BUCKET_FLOOR..]) {
            *t = slot.load(Ordering::Relaxed);
        }
        traces
    }

    /// A point-in-time copy, readable with the full [`LatencyHistogram`]
    /// API (quantiles, merge, bucket iteration).
    pub fn snapshot(&self) -> LatencyHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total = counts.iter().sum();
        LatencyHistogram {
            counts,
            total,
            sum_ms: self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6,
            max_ms: self.max_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// A fixed family of [`AtomicHistogram`]s keyed by a small static label
/// set — one histogram per serve tier, or per protocol verb. Recording is
/// gated on the global [`recording`](crate::recording) switch so
/// the `recording` bench can difference it away.
#[derive(Debug)]
pub struct LabeledHistograms {
    labels: &'static [&'static str],
    hists: Vec<AtomicHistogram>,
}

impl LabeledHistograms {
    /// One histogram per label.
    pub fn new(labels: &'static [&'static str]) -> Self {
        LabeledHistograms {
            labels,
            hists: labels.iter().map(|_| AtomicHistogram::new()).collect(),
        }
    }

    /// The label set.
    pub fn labels(&self) -> &'static [&'static str] {
        self.labels
    }

    /// Records into the histogram at `idx` (panics if out of range).
    #[inline]
    pub fn record(&self, idx: usize, d: Duration) {
        if crate::recording() {
            self.hists[idx].record(d);
        }
    }

    /// Records into the histogram at `idx`, retaining `trace` as the tail
    /// bucket's exemplar when it is head-sampled (see
    /// [`AtomicHistogram::record_traced`]).
    #[inline]
    pub fn record_traced(&self, idx: usize, d: Duration, trace: crate::TraceId) {
        if crate::recording() {
            self.hists[idx].record_traced(d, trace);
        }
    }

    /// Snapshot of the histogram at `idx`.
    pub fn snapshot(&self, idx: usize) -> LatencyHistogram {
        self.hists[idx].snapshot()
    }

    /// Snapshots every series as `(label, histogram)`.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, LatencyHistogram)> + '_ {
        self.labels
            .iter()
            .zip(&self.hists)
            .map(|(&l, h)| (l, h.snapshot()))
    }

    /// Snapshots every series along with its per-bucket exemplar traces
    /// (see [`AtomicHistogram::exemplar_traces`]) — the exposition path.
    pub fn iter_with_exemplars(
        &self,
    ) -> impl Iterator<Item = (&'static str, LatencyHistogram, Vec<u64>)> + '_ {
        self.labels
            .iter()
            .zip(&self.hists)
            .map(|(&l, h)| (l, h.snapshot(), h.exemplar_traces()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
    }

    #[test]
    fn mean_and_max_exact() {
        let mut h = LatencyHistogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert!((h.mean_ms() - 2.0).abs() < 1e-12);
        assert_eq!(h.max_ms(), 3.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 ms uniform.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile_ms(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.15, "q{q}: got {got}, expect {expect}");
        }
    }

    #[test]
    fn spans_nine_decades() {
        let mut h = LatencyHistogram::new();
        h.record(0.0002); // memory hit territory
        h.record(15_000.0); // slow WAN fetch
        assert!(h.quantile_ms(0.01) < 0.001);
        assert!(h.quantile_ms(1.0) >= 10_000.0);
    }

    #[test]
    fn below_min_clamps_to_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(1e-9);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(1.0) <= MIN_MS * 2.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10.0);
        b.record(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_ms() == 1000.0);
        assert!(a.quantile_ms(0.25) < 20.0);
        assert!(a.quantile_ms(1.0) > 500.0);
    }

    #[test]
    fn monotone_quantiles() {
        let mut h = LatencyHistogram::new();
        for i in 0..5000 {
            h.record((i % 97) as f64 + 0.1);
        }
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile_ms(q);
            assert!(v >= prev, "quantiles must be monotone");
            prev = v;
        }
    }

    #[test]
    fn bucket_edges_are_consistent() {
        // Every recordable value's bucket has edges that bracket it.
        for &ms in &[0.0, 1e-5, 1e-4, 0.003, 0.99, 1.0, 17.3, 4200.0, 9e4, 5e6] {
            let idx = bucket_of(ms);
            assert!(ms <= bucket_upper_ms(idx), "{ms} above its upper edge");
            if idx > 0 && idx < NBUCKETS - 1 {
                assert!(ms >= bucket_lower_ms(idx), "{ms} below its lower edge");
            }
        }
        // Edges increase strictly, ending at +Inf.
        for i in 1..NBUCKETS {
            assert!(bucket_upper_ms(i) > bucket_upper_ms(i - 1));
        }
        assert!(bucket_upper_ms(NBUCKETS - 1).is_infinite());
    }

    #[test]
    fn atomic_snapshot_matches_plain_recording() {
        let atomic = AtomicHistogram::new();
        let mut plain = LatencyHistogram::new();
        for i in 0..1000 {
            let ms = (i % 113) as f64 * 0.37 + 0.005;
            atomic.record_ms(ms);
            plain.record(ms);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), plain.count());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(snap.quantile_ms(q), plain.quantile_ms(q));
        }
        // Sums differ only by nanosecond truncation.
        assert!((snap.sum_ms() - plain.sum_ms()).abs() < 1e-3 * plain.count() as f64);
    }

    #[test]
    fn integer_bucket_path_matches_f64_path_everywhere() {
        let via_f64 = |ns: u64| bucket_of(Duration::from_nanos(ns).as_secs_f64() * 1e3);
        // Every boundary, one below, one above — where a one-ulp float
        // disagreement would shift a bucket.
        for &b in ns_boundaries().iter() {
            for ns in [b.saturating_sub(1), b, b + 1] {
                assert_eq!(bucket_of_ns(ns), via_f64(ns), "ns = {ns}");
            }
        }
        // A log-spaced sample across the whole span, plus the extremes.
        let mut ns = 1u64;
        while ns < 200_000_000_000 {
            assert_eq!(bucket_of_ns(ns), via_f64(ns), "ns = {ns}");
            ns = ns * 11 / 7 + 1;
        }
        assert_eq!(bucket_of_ns(0), via_f64(0));
        assert_eq!(bucket_of_ns(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn atomic_records_concurrently() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        h.record_ms((t * 500 + i) as f64 * 0.01 + 0.001);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 2000);
    }

    #[test]
    fn tail_bucket_floor_is_10ms() {
        assert_eq!(TAIL_BUCKET_FLOOR, bucket_of(10.0));
        assert!(bucket_upper_ms(TAIL_BUCKET_FLOOR) >= 10.0);
        assert!(bucket_lower_ms(TAIL_BUCKET_FLOOR) <= 10.0 + 1e-9);
    }

    #[test]
    fn exemplars_retained_only_for_sampled_tail_observations() {
        use crate::TraceId;
        // A trace id the head-sampling rule accepts, found by search so
        // the test does not depend on which ids happen to hash to zero.
        let sampled_trace = (1..10_000u64)
            .map(|s| TraceId::mint(0, s))
            .find(|&t| crate::span::sampled(t))
            .expect("some trace in 10k is sampled at 1-in-32");
        let unsampled_trace = (1..10_000u64)
            .map(|s| TraceId::mint(0, s))
            .find(|&t| !crate::span::sampled(t))
            .unwrap();
        let h = AtomicHistogram::new();
        // Fast observation: never an exemplar, sampled or not.
        h.record_traced(Duration::from_micros(50), sampled_trace);
        assert!(h.exemplar_traces().iter().all(|&t| t == 0));
        // Tail observation with an unsampled trace: counted, no exemplar.
        h.record_traced(Duration::from_millis(80), unsampled_trace);
        assert!(h.exemplar_traces().iter().all(|&t| t == 0));
        // Tail observation with a sampled trace: retained in its bucket.
        h.record_traced(Duration::from_millis(80), sampled_trace);
        let traces = h.exemplar_traces();
        let bucket = bucket_of(80.0);
        assert_eq!(traces[bucket], sampled_trace.0);
        assert_eq!(traces.iter().filter(|&&t| t != 0).count(), 1);
        assert!(bucket >= TAIL_BUCKET_FLOOR);
        // The most recent sampled trace wins.
        let newer = (1..10_000u64)
            .map(|s| TraceId::mint(7, s))
            .find(|&t| crate::span::sampled(t))
            .unwrap();
        h.record_traced(Duration::from_millis(80), newer);
        assert_eq!(h.exemplar_traces()[bucket], newer.0);
        // Counts are unaffected by exemplar bookkeeping.
        assert_eq!(h.snapshot().count(), 4);
    }

    #[test]
    fn windowed_reconstruction_roundtrips() {
        let mut h = LatencyHistogram::new();
        for v in [0.5, 3.0, 42.0, 42.0, 9000.0] {
            h.record(v);
        }
        let rebuilt = LatencyHistogram::from_bucket_counts(h.bucket_counts().to_vec(), h.sum_ms());
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.sum_ms(), h.sum_ms());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(rebuilt.quantile_ms(q), h.quantile_ms(q));
        }
        // Max is approximated by the occupied bucket's edge: at or above
        // the true max, within one bucket's relative error.
        assert!(rebuilt.max_ms() >= h.max_ms());
        assert!(rebuilt.max_ms() <= h.max_ms() * 1.14);
    }

    #[test]
    fn labeled_histograms_route_by_index() {
        const LABELS: [&str; 5] = ["local", "proxy", "disk", "peer", "origin"];
        let lh = LabeledHistograms::new(&LABELS);
        lh.record(1, Duration::from_millis(3));
        lh.record(2, Duration::from_millis(9));
        lh.record(4, Duration::from_millis(40));
        lh.record(4, Duration::from_millis(50));
        assert_eq!(lh.snapshot(1).count(), 1);
        assert_eq!(lh.snapshot(2).count(), 1);
        assert_eq!(lh.snapshot(4).count(), 2);
        assert_eq!(lh.snapshot(0).count(), 0);
        let by_label: Vec<_> = lh.iter().map(|(l, h)| (l, h.count())).collect();
        assert_eq!(
            by_label,
            vec![
                ("local", 0),
                ("proxy", 1),
                ("disk", 1),
                ("peer", 0),
                ("origin", 2)
            ]
        );
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
}
