//! Classification of how each request was served.

/// Which storage tier of a cache served a hit (the §4.2 memory byte hit
/// ratio splits hits this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// RAM-resident segment.
    Memory,
    /// Disk-resident segment.
    Disk,
}

/// Where a request was served, in probe order: the paper's Fig. 3
/// breakdown (local browser, proxy, remote browser, miss) with the proxy
/// split by the tier that held the copy. The simulator classifies its
/// requests with it, the live proxy names its outcome counters and tier
/// histograms after it, and a browser reads it off the `X-Source` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Served {
    /// The requester's own browser cache.
    LocalBrowser,
    /// The proxy cache's memory tier.
    Proxy,
    /// The proxy cache's disk tier.
    ProxyDisk,
    /// Another client's browser cache, found through the browser index.
    Peer,
    /// The origin server (a miss).
    Origin,
}

/// The paper's single "proxy" class: a report that prints one proxy
/// column sums these.
pub const PROXY_TIERS: &[Served] = &[Served::Proxy, Served::ProxyDisk];

impl Served {
    /// Every variant, in probe order (= [`index`](Self::index) order).
    pub const ALL: [Served; 5] = [
        Served::LocalBrowser,
        Served::Proxy,
        Served::ProxyDisk,
        Served::Peer,
        Served::Origin,
    ];

    /// Wire (`X-Source`) and metric (`tier=`) labels, by [`index`](Self::index).
    pub const LABELS: [&'static str; 5] = ["local", "proxy", "disk", "peer", "origin"];

    /// Position in [`ALL`](Self::ALL) / [`LABELS`](Self::LABELS), and the
    /// slot of a per-tier table.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The wire and metric label (`local` / `proxy` / `disk` / `peer` /
    /// `origin`).
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }

    /// Inverse of [`label`](Self::label); `None` for any other string.
    pub fn from_label(label: &str) -> Option<Served> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        // The `X-Source` values and `tier=` label values on the wire.
        assert_eq!(Served::LABELS, ["local", "proxy", "disk", "peer", "origin"]);
        assert_eq!(Served::ProxyDisk.label(), "disk");
    }

    #[test]
    fn labels_round_trip_and_nothing_else_parses() {
        for (i, s) in Served::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Served::from_label(s.label()), Some(s));
        }
        for other in [
            "",
            "Proxy",
            "miss",
            "remote-browsers",
            "local-browser",
            "origin ",
        ] {
            assert_eq!(Served::from_label(other), None, "{other:?}");
        }
    }
}
