//! Request-level metrics: hit ratios, byte hit ratios, breakdowns.

use baps_core::Served;

/// Count/byte pair for one hit class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounter {
    /// Number of requests in this class.
    pub count: u64,
    /// Bytes served in this class.
    pub bytes: u64,
}

/// Aggregated metrics over a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Requests and bytes per serving tier, by [`Served::index`].
    by_tier: [ClassCounter; Served::ALL.len()],
    /// Bytes served from memory tiers (across local/proxy/remote hits).
    pub mem_hit_bytes: u64,
    /// Hits served from memory tiers.
    pub mem_hits: u64,
    /// Misses forced by an observed document-size change.
    pub size_change_misses: u64,
    /// Remote probes that failed verification (stale index / Bloom FP).
    pub wasted_probes: u64,
    /// Cached copies served only after a TTL revalidation round-trip.
    pub revalidations: u64,
}

impl Metrics {
    /// Records one request outcome.
    pub fn record(&mut self, served: Served, size: u64) {
        let slot = &mut self.by_tier[served.index()];
        slot.count += 1;
        slot.bytes += size;
    }

    /// Requests and bytes served by any of `tiers` (pass [`PROXY_TIERS`]
    /// for the paper's single proxy class).
    ///
    /// [`PROXY_TIERS`]: baps_core::PROXY_TIERS
    pub fn served(&self, tiers: &[Served]) -> ClassCounter {
        tiers.iter().fold(ClassCounter::default(), |sum, s| {
            let c = self.by_tier[s.index()];
            ClassCounter {
                count: sum.count + c.count,
                bytes: sum.bytes + c.bytes,
            }
        })
    }

    /// Total requests.
    pub fn requests(&self) -> u64 {
        self.served(&Served::ALL).count
    }

    /// Total bytes requested.
    pub fn total_bytes(&self) -> u64 {
        self.served(&Served::ALL).bytes
    }

    /// Hit ratio in percent (paper's definition: hits in browser caches or
    /// the proxy cache — remote-browser hits count as browser-cache hits).
    pub fn hit_ratio(&self) -> f64 {
        percent(self.hits().count, self.requests())
    }

    /// Byte hit ratio in percent.
    pub fn byte_hit_ratio(&self) -> f64 {
        percent(self.hits().bytes, self.total_bytes())
    }

    fn hits(&self) -> ClassCounter {
        self.served(&[
            Served::LocalBrowser,
            Served::Proxy,
            Served::ProxyDisk,
            Served::Peer,
        ])
    }

    /// Fraction of all requests served by any of `tiers`, percent (the
    /// Fig. 3 breakdown).
    pub fn class_ratio(&self, tiers: &[Served]) -> f64 {
        percent(self.served(tiers).count, self.requests())
    }

    /// Fraction of all requested bytes served by any of `tiers`, percent.
    pub fn class_byte_ratio(&self, tiers: &[Served]) -> f64 {
        percent(self.served(tiers).bytes, self.total_bytes())
    }

    /// Memory byte hit ratio in percent (paper §4.2): bytes served from RAM
    /// tiers over all requested bytes.
    pub fn mem_byte_hit_ratio(&self) -> f64 {
        percent(self.mem_hit_bytes, self.total_bytes())
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_add_up() {
        let mut m = Metrics::default();
        m.record(Served::LocalBrowser, 100);
        m.record(Served::Proxy, 120);
        m.record(Served::ProxyDisk, 80);
        m.record(Served::Peer, 300);
        m.record(Served::Origin, 400);
        assert_eq!(m.requests(), 5);
        assert_eq!(m.total_bytes(), 1000);
        assert!((m.hit_ratio() - 80.0).abs() < 1e-9);
        assert!((m.byte_hit_ratio() - 60.0).abs() < 1e-9);
        assert_eq!(m.served(baps_core::PROXY_TIERS).bytes, 200);
        let sum: f64 = Served::ALL.iter().map(|&s| m.class_ratio(&[s])).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_zero_ratios() {
        let m = Metrics::default();
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.byte_hit_ratio(), 0.0);
        assert_eq!(m.mem_byte_hit_ratio(), 0.0);
    }

    #[test]
    fn mem_byte_hit_ratio() {
        let mut m = Metrics::default();
        m.record(Served::Proxy, 100);
        m.record(Served::Origin, 100);
        m.mem_hit_bytes = 50;
        assert!((m.mem_byte_hit_ratio() - 25.0).abs() < 1e-9);
    }
}
