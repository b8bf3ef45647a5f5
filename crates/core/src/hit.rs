//! Classification of how each request was served.

use crate::ids::ClientId;
use serde::{Deserialize, Serialize};

/// Which storage tier of a cache served a hit (the §4.2 memory byte hit
/// ratio splits hits this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// RAM-resident segment.
    Memory,
    /// Disk-resident segment.
    Disk,
}

/// Where a request was satisfied (paper Fig. 3's breakdown categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitClass {
    /// Served by the requester's own browser cache.
    LocalBrowser,
    /// Served by the proxy cache.
    Proxy,
    /// Served by another client's browser cache via the browser index.
    RemoteBrowser,
    /// Fetched from the origin server (or upper-level proxy).
    Miss,
}

impl HitClass {
    /// Whether the request counts as a hit for the paper's hit-ratio metric
    /// ("requests that hit in browser caches or in the proxy cache").
    pub fn is_hit(self) -> bool {
        !matches!(self, HitClass::Miss)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HitClass::LocalBrowser => "local-browser",
            HitClass::Proxy => "proxy",
            HitClass::RemoteBrowser => "remote-browsers",
            HitClass::Miss => "miss",
        }
    }
}

/// Everything the simulator records about one processed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Where the request was served.
    pub class: HitClass,
    /// The storage tier that served a hit (memory vs disk), if applicable.
    pub tier: Option<Tier>,
    /// The peer that served a remote-browser hit.
    pub remote_peer: Option<ClientId>,
    /// Bytes served.
    pub size: u64,
    /// Number of index candidates probed that did *not* actually hold the
    /// document (stale index entries or Bloom false positives).
    pub wasted_probes: u32,
    /// Whether this request observed a changed document size (forced miss).
    pub size_change: bool,
}

impl Outcome {
    /// A plain miss outcome.
    pub fn miss(size: u64) -> Outcome {
        Outcome {
            class: HitClass::Miss,
            tier: None,
            remote_peer: None,
            size,
            wasted_probes: 0,
            size_change: false,
        }
    }

    /// A hit outcome of the given class.
    pub fn hit(class: HitClass, tier: Option<Tier>, size: u64) -> Outcome {
        debug_assert!(class.is_hit());
        Outcome {
            class,
            tier,
            remote_peer: None,
            size,
            wasted_probes: 0,
            size_change: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_classification() {
        assert!(HitClass::LocalBrowser.is_hit());
        assert!(HitClass::Proxy.is_hit());
        assert!(HitClass::RemoteBrowser.is_hit());
        assert!(!HitClass::Miss.is_hit());
    }

    #[test]
    fn constructors() {
        let m = Outcome::miss(100);
        assert_eq!(m.class, HitClass::Miss);
        assert_eq!(m.size, 100);
        let h = Outcome::hit(HitClass::Proxy, Some(Tier::Memory), 50);
        assert_eq!(h.class, HitClass::Proxy);
        assert_eq!(h.tier, Some(Tier::Memory));
    }

    #[test]
    fn labels() {
        assert_eq!(HitClass::RemoteBrowser.label(), "remote-browsers");
    }
}
