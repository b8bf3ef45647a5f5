//! Service-time accounting and the shared-LAN contention model (paper §5).

use baps_core::LatencyParams;

/// Accumulated service-time components over a run, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyTotals {
    /// Memory-tier access time.
    pub mem_ms: f64,
    /// Disk-tier access time.
    pub disk_ms: f64,
    /// LAN wire time for proxy↔client transfers (proxy hits).
    pub proxy_lan_ms: f64,
    /// Remote-browser communication: connection setup + wire time
    /// (the *additional* overhead the paper's §5 quantifies).
    pub remote_comm_ms: f64,
    /// Time spent waiting for the shared LAN bus (contention).
    pub contention_ms: f64,
    /// WAN time for misses (connection + transfer).
    pub wan_ms: f64,
    /// Connection-setup cost of remote probes that failed verification.
    pub wasted_probe_ms: f64,
    /// WAN round-trips spent revalidating expired cached copies.
    pub revalidation_ms: f64,
}

impl LatencyTotals {
    /// Total service time across all components.
    pub fn total_ms(&self) -> f64 {
        self.mem_ms
            + self.disk_ms
            + self.proxy_lan_ms
            + self.remote_comm_ms
            + self.contention_ms
            + self.wan_ms
            + self.wasted_probe_ms
            + self.revalidation_ms
    }

    /// Remote-browser communication (+ contention + wasted probes) as a
    /// percentage of total service time — the paper reports this is < 1.2%.
    pub fn remote_overhead_pct(&self) -> f64 {
        let total = self.total_ms();
        if total == 0.0 {
            0.0
        } else {
            100.0 * (self.remote_comm_ms + self.contention_ms + self.wasted_probe_ms) / total
        }
    }

    /// Contention as a percentage of remote communication time — the paper
    /// reports this is ≤ 0.12% (no bursty remote-hit trains).
    pub fn contention_pct_of_comm(&self) -> f64 {
        if self.remote_comm_ms == 0.0 {
            0.0
        } else {
            100.0 * self.contention_ms / self.remote_comm_ms
        }
    }

    /// Merges another run's totals (for parallel shards).
    pub fn merge(&mut self, other: &LatencyTotals) {
        self.mem_ms += other.mem_ms;
        self.disk_ms += other.disk_ms;
        self.proxy_lan_ms += other.proxy_lan_ms;
        self.remote_comm_ms += other.remote_comm_ms;
        self.contention_ms += other.contention_ms;
        self.wan_ms += other.wan_ms;
        self.wasted_probe_ms += other.wasted_probe_ms;
        self.revalidation_ms += other.revalidation_ms;
    }
}

/// Shared-bus contention: transfers serialise on the LAN segment.
///
/// Each remote-browser transfer at trace time `t` with duration `d` must
/// wait until the bus is free; the wait is the contention. The paper uses
/// the same busy-period argument to show remote hits are not bursty.
#[derive(Debug, Clone, Copy, Default)]
pub struct LanBus {
    busy_until_ms: f64,
}

impl LanBus {
    /// Creates an idle bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts a transfer starting at trace time `now_ms` lasting
    /// `duration_ms`; returns the contention wait in ms.
    pub fn transfer(&mut self, now_ms: f64, duration_ms: f64) -> f64 {
        let start = now_ms.max(self.busy_until_ms);
        let wait = start - now_ms;
        self.busy_until_ms = start + duration_ms;
        wait
    }
}

/// Convenience wrapper bundling parameters, totals and the bus.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Model parameters.
    pub params: LatencyParams,
    /// Accumulated totals.
    pub totals: LatencyTotals,
    bus: LanBus,
}

impl LatencyModel {
    /// Creates a model with the given parameters.
    pub fn new(params: LatencyParams) -> Self {
        LatencyModel {
            params,
            totals: LatencyTotals::default(),
            bus: LanBus::new(),
        }
    }

    /// Accounts a memory-tier hit.
    pub fn mem_hit(&mut self, size: u64) {
        self.totals.mem_ms += self.params.mem_ms(size);
    }

    /// Accounts a disk-tier hit.
    pub fn disk_hit(&mut self, size: u64) {
        self.totals.disk_ms += self.params.disk_ms(size);
    }

    /// Accounts the LAN leg of a proxy hit (persistent connection assumed).
    pub fn proxy_transfer(&mut self, size: u64) {
        self.totals.proxy_lan_ms += self.params.lan_transfer_ms(size);
    }

    /// Accounts a remote-browser transfer at trace time `now_ms`, including
    /// connection setup and bus contention.
    pub fn remote_transfer(&mut self, now_ms: u64, size: u64) {
        let duration = self.params.lan_ms(size);
        let wait = self.bus.transfer(now_ms as f64, duration);
        self.totals.remote_comm_ms += duration;
        self.totals.contention_ms += wait;
    }

    /// Accounts a wasted remote probe (stale index entry / Bloom FP): one
    /// connection setup with no payload.
    pub fn wasted_probe(&mut self) {
        self.totals.wasted_probe_ms += self.params.lan_conn_ms;
    }

    /// Accounts a miss (WAN fetch).
    pub fn miss(&mut self, size: u64) {
        self.totals.wan_ms += self.params.wan_ms(size);
    }

    /// Accounts a TTL revalidation: one WAN round-trip, no body transfer
    /// (the If-Modified-Since / 304 path).
    pub fn revalidation(&mut self) {
        self.totals.revalidation_ms += self.params.wan_conn_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_contention_when_overlapping() {
        let mut bus = LanBus::new();
        assert_eq!(bus.transfer(0.0, 100.0), 0.0);
        // Second transfer arrives mid-flight: waits 50 ms.
        assert_eq!(bus.transfer(50.0, 100.0), 50.0);
        // Third arrives after the bus is idle again.
        assert_eq!(bus.transfer(500.0, 10.0), 0.0);
    }

    #[test]
    fn bus_back_to_back() {
        let mut bus = LanBus::new();
        bus.transfer(0.0, 10.0);
        assert_eq!(bus.transfer(10.0, 10.0), 0.0);
        assert_eq!(bus.transfer(10.0, 10.0), 10.0);
    }

    #[test]
    fn totals_accumulate() {
        let mut m = LatencyModel::new(LatencyParams::paper());
        m.mem_hit(16);
        m.disk_hit(4096);
        m.proxy_transfer(8192);
        m.remote_transfer(0, 8192);
        m.miss(8192);
        m.wasted_probe();
        let t = m.totals;
        assert!(t.mem_ms > 0.0);
        assert!(t.disk_ms >= 10.0);
        assert!(t.proxy_lan_ms > 0.0);
        assert!(t.remote_comm_ms > 100.0);
        assert!(t.wan_ms > 1000.0);
        assert!((t.wasted_probe_ms - 100.0).abs() < 1e-9);
        assert!(t.total_ms() > t.wan_ms);
    }

    #[test]
    fn overhead_percentages() {
        let t = LatencyTotals {
            remote_comm_ms: 10.0,
            contention_ms: 0.01,
            wan_ms: 990.0,
            ..Default::default()
        };
        assert!((t.remote_overhead_pct() - 1.001).abs() < 1e-3);
        assert!((t.contention_pct_of_comm() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_totals_zero_percentages() {
        let t = LatencyTotals::default();
        assert_eq!(t.remote_overhead_pct(), 0.0);
        assert_eq!(t.contention_pct_of_comm(), 0.0);
    }
}
