//! Latency-model parameters (paper §4.2 and §5).
//!
//! The paper's simulator estimates service time analytically:
//!
//! * memory access: 2 µs per 16-byte cache block;
//! * disk access: 10 ms per 4 KB page;
//! * remote-browser transfer: 100 Mbps Ethernet with a 0.1 s connection
//!   setup, plus shared-bus contention;
//! * misses pay a WAN fetch (upper-level proxy / origin server), which we
//!   parameterise at early-2000s WAN rates.
//!
//! All times are in milliseconds.

/// Analytic latency parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyParams {
    /// Microseconds per memory block access.
    pub mem_us_per_block: f64,
    /// Memory block size in bytes.
    pub mem_block_bytes: u64,
    /// Milliseconds per disk page access.
    pub disk_ms_per_page: f64,
    /// Disk page size in bytes.
    pub disk_page_bytes: u64,
    /// LAN bandwidth in megabits per second.
    pub lan_mbps: f64,
    /// LAN connection setup time in milliseconds.
    pub lan_conn_ms: f64,
    /// WAN bandwidth in megabits per second (miss path).
    pub wan_mbps: f64,
    /// WAN connection + server latency in milliseconds (miss path).
    pub wan_conn_ms: f64,
}

impl Default for LatencyParams {
    fn default() -> Self {
        LatencyParams::paper()
    }
}

impl LatencyParams {
    /// The paper's parameters: 2 µs / 16 B memory block, 10 ms / 4 KB disk
    /// page, 100 Mbps LAN with 0.1 s connection setup; the WAN side
    /// (unspecified in the paper) is set to a T1-class 1.5 Mbps with 1 s of
    /// connection + server time, typical of 2001 measurements.
    pub fn paper() -> Self {
        LatencyParams {
            mem_us_per_block: 2.0,
            mem_block_bytes: 16,
            disk_ms_per_page: 10.0,
            disk_page_bytes: 4096,
            lan_mbps: 100.0,
            lan_conn_ms: 100.0,
            wan_mbps: 1.5,
            wan_conn_ms: 1000.0,
        }
    }

    /// Time to read `size` bytes from memory, ms.
    pub fn mem_ms(&self, size: u64) -> f64 {
        let blocks = size.div_ceil(self.mem_block_bytes.max(1));
        blocks as f64 * self.mem_us_per_block / 1000.0
    }

    /// Time to read `size` bytes from disk, ms.
    pub fn disk_ms(&self, size: u64) -> f64 {
        let pages = size.div_ceil(self.disk_page_bytes.max(1)).max(1);
        pages as f64 * self.disk_ms_per_page
    }

    /// Pure LAN wire time for `size` bytes (no connection setup), ms.
    pub fn lan_transfer_ms(&self, size: u64) -> f64 {
        (size as f64 * 8.0) / (self.lan_mbps * 1000.0)
    }

    /// Full remote-browser transfer: connection + wire time, ms.
    pub fn lan_ms(&self, size: u64) -> f64 {
        self.lan_conn_ms + self.lan_transfer_ms(size)
    }

    /// Full miss path: WAN connection + wire time, ms.
    pub fn wan_ms(&self, size: u64) -> f64 {
        self.wan_conn_ms + (size as f64 * 8.0) / (self.wan_mbps * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_block_math() {
        let p = LatencyParams::paper();
        // 16 bytes = 1 block = 2 µs = 0.002 ms.
        assert!((p.mem_ms(16) - 0.002).abs() < 1e-12);
        // 17 bytes round up to 2 blocks.
        assert!((p.mem_ms(17) - 0.004).abs() < 1e-12);
        // 8 KB = 512 blocks = 1.024 ms.
        assert!((p.mem_ms(8192) - 1.024).abs() < 1e-9);
    }

    #[test]
    fn disk_page_math() {
        let p = LatencyParams::paper();
        assert!((p.disk_ms(4096) - 10.0).abs() < 1e-12);
        assert!((p.disk_ms(4097) - 20.0).abs() < 1e-12);
        // Even a 1-byte read pays a full page.
        assert!((p.disk_ms(1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn lan_math() {
        let p = LatencyParams::paper();
        // 8 KB over 100 Mbps = 65536 bits / 100_000 bits-per-ms = 0.655 ms.
        assert!((p.lan_transfer_ms(8192) - 0.65536).abs() < 1e-9);
        assert!((p.lan_ms(8192) - 100.65536).abs() < 1e-9);
    }

    #[test]
    fn wan_dominates_lan() {
        let p = LatencyParams::paper();
        for size in [1_000u64, 10_000, 100_000] {
            assert!(p.wan_ms(size) > p.lan_ms(size) * 3.0);
        }
    }

    #[test]
    fn memory_beats_disk_beats_lan() {
        let p = LatencyParams::paper();
        let size = 8192;
        assert!(p.mem_ms(size) < p.disk_ms(size));
        assert!(p.disk_ms(size) < p.lan_ms(size));
    }
}
