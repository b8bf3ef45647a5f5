//! Driver-side spans. A span is recorded from the benchmark's own code,
//! around a call into a layer; nothing is recorded inside the program.
//! Spans stay in memory during the traced pass and are written as JSONL
//! when it is over. A span's self time is its duration minus the part its
//! children cover.

use crate::metrics::TIERS;
use crate::stats::quantile_sorted;
use std::io::{self, Write};

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `tier` of a span that is not a fetch.
pub const NO_TIER: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Position in its driver's recorder; `parent` refers to it.
    pub id: u32,
    pub parent: u32,
    pub driver: u8,
    /// Schedule position of the driver op this span belongs to; spans of
    /// one op share it.
    pub op: u32,
    pub name: &'static str,
    /// Index into [`TIERS`] for a fetch, else [`NO_TIER`].
    pub tier: u8,
    /// Nanoseconds since the pass started.
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One driver's span buffer, allocated before the pass starts.
pub struct Recorder {
    driver: u8,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(driver: usize, capacity: usize) -> Recorder {
        Recorder {
            driver: driver as u8,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a span and returns its id (for children to point at).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        tier: u8,
        start_ns: u64,
        end_ns: u64,
        bytes: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            driver: self.driver,
            op,
            name,
            tier,
            start_ns,
            end_ns,
            bytes,
        });
        id
    }
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl<W: Write>(
    mut w: W,
    workload: &str,
    round: usize,
    spans: &[Span],
) -> io::Result<()> {
    for s in spans {
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"round\":{round},\"driver\":{},\"op\":{},\"id\":{},\"parent\":",
            s.driver, s.op, s.id
        )?;
        match s.parent {
            NO_PARENT => w.write_all(b"null")?,
            p => write!(w, "{p}")?,
        }
        write!(w, ",\"name\":\"{}\",\"tier\":", s.name)?;
        match TIERS.get(s.tier as usize) {
            Some(t) => write!(w, "\"{t}\"")?,
            None => w.write_all(b"null")?,
        }
        writeln!(
            w,
            ",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.start_ns, s.end_ns, s.bytes
        )?;
    }
    w.flush()
}

/// Self time of every span of one recorder: duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What the traced pass reports per serving tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierTimes {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// This tier's share of the summed fetch time: which tier blocks.
    pub time_share: f64,
}

/// Per-tier fetch times over `client.fetch` spans (all drivers pooled).
pub fn tier_times(spans: &[Span]) -> [TierTimes; TIERS.len()] {
    let mut by_tier: [Vec<f64>; TIERS.len()] = Default::default();
    for s in spans.iter().filter(|s| (s.tier as usize) < TIERS.len()) {
        by_tier[s.tier as usize].push(s.dur_ns() as f64 / 1e3);
    }
    let total: f64 = by_tier.iter().flatten().sum();
    let mut out = [TierTimes::default(); TIERS.len()];
    for (t, durs) in by_tier.iter_mut().enumerate() {
        if durs.is_empty() {
            continue;
        }
        durs.sort_by(f64::total_cmp);
        out[t] = TierTimes {
            count: durs.len(),
            p50_us: quantile_sorted(durs, 0.5),
            p99_us: quantile_sorted(durs, 0.99),
            time_share: durs.iter().sum::<f64>() / total,
        };
    }
    out
}

/// Median duration, µs, of the spans called `name` (0 when there are none).
pub fn p50_us_of(spans: &[Span], name: &str) -> f64 {
    let mut durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.sort_by(f64::total_cmp);
    quantile_sorted(&durs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(0, 8);
        let root = r.push("invalidate", 7, NO_PARENT, NO_TIER, 0, 1000, 0);
        r.push("origin.mutate", 7, root, NO_TIER, 100, 300, 64);
        r.push("client.discard", 7, root, NO_TIER, 300, 350, 0);
        r.push("client.fetch", 8, NO_PARENT, 1, 1000, 1500, 64);
        assert_eq!(self_times_ns(&r.spans), vec![750, 200, 50, 500]);
        assert_eq!(p50_us_of(&r.spans, "invalidate"), 1.0);
        assert_eq!(p50_us_of(&r.spans, "absent"), 0.0);
    }

    #[test]
    fn tier_times_split_by_tier() {
        let mut r = Recorder::new(0, 8);
        for i in 0..3u64 {
            r.push(
                "client.fetch",
                i as u32,
                NO_PARENT,
                1,
                0,
                1000 * (i + 1),
                10,
            );
        }
        r.push("client.fetch", 3, NO_PARENT, 4, 0, 4000, 10);
        r.push("invalidate", 4, NO_PARENT, NO_TIER, 0, 9_000_000, 0);
        let t = tier_times(&r.spans);
        assert_eq!(t[1].count, 3);
        assert_eq!(t[1].p50_us, 2.0);
        assert_eq!(t[4].p99_us, 4.0);
        assert!((t[1].time_share - 0.6).abs() < 1e-12);
        assert_eq!(t[0], TierTimes::default());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut r = Recorder::new(1, 2);
        let root = r.push("invalidate", 5, NO_PARENT, NO_TIER, 1, 9, 0);
        r.push("client.fetch", 5, root, 3, 2, 8, 77);
        let mut out = Vec::new();
        write_jsonl(&mut out, "peer-share", 2, &r.spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).unwrap();
        assert_eq!(v.get("tier").unwrap().str(), Some("peer"));
        assert_eq!(v.need_num("parent").unwrap(), 0.0);
        assert_eq!(v.need_num("bytes").unwrap(), 77.0);
        assert_eq!(
            crate::json::parse(lines[0]).unwrap().get("parent"),
            Some(&crate::json::Value::Null)
        );
    }
}
