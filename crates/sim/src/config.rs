//! System configuration: cache sizing rules and request-routing options.

use crate::org::Organization;

/// Replacement policies available to the simulator (the live proxy and
/// browsers run LRU alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Least-recently-used (the paper's policy).
    Lru,
    /// Least-frequently-used, ties broken oldest-first.
    Lfu,
    /// GreedyDual-Size with Frequency: priority `L + freq / size`.
    Gdsf,
    /// Evict the largest document first.
    Size,
    /// First-in first-out.
    Fifo,
}

impl Policy {
    /// All policies, LRU first.
    pub fn all() -> [Policy; 5] {
        [
            Policy::Lru,
            Policy::Lfu,
            Policy::Gdsf,
            Policy::Size,
            Policy::Fifo,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "LRU",
            Policy::Lfu => "LFU",
            Policy::Gdsf => "GDSF",
            Policy::Size => "SIZE",
            Policy::Fifo => "FIFO",
        }
    }
}

/// How each client's browser cache is sized (paper §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BrowserSizing {
    /// The paper's *minimum*: `proxy_capacity / n_clients`.
    Minimum,
    /// A fixed byte size per browser.
    Fixed(u64),
    /// A fraction of the mean per-client infinite cache size (used by
    /// Figs. 4–6, which scale browser caches as a percentage of the average
    /// infinite browser cache).
    FractionOfClientInfinite(f64),
}

impl BrowserSizing {
    /// Resolves the rule to a concrete byte size.
    ///
    /// * `proxy_capacity` — the proxy cache size in bytes;
    /// * `n_clients` — number of clients;
    /// * `mean_client_infinite` — average per-client infinite cache bytes
    ///   (from `baps_trace::TraceStats`).
    pub fn resolve(&self, proxy_capacity: u64, n_clients: u32, mean_client_infinite: f64) -> u64 {
        let n = n_clients.max(1) as u64;
        match *self {
            BrowserSizing::Minimum => (proxy_capacity / n).max(1),
            BrowserSizing::Fixed(bytes) => bytes,
            BrowserSizing::FractionOfClientInfinite(frac) => {
                ((mean_client_infinite * frac).round() as u64).max(1)
            }
        }
    }
}

/// What happens to a document served from a *remote* browser cache.
///
/// The paper (§3.2, global-browsers description) does not re-cache documents
/// fetched from another browser; that is the simulator's default here and a
/// knob for the ablation bench. The live runtime has no such knob: it runs
/// `CacheAtRequester` — the browser caches every body it receives, and the
/// proxy relays a peer's body without keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteHitCaching {
    /// Neither the requester nor the proxy stores the forwarded copy.
    NoCaching,
    /// The requesting browser stores the copy (as if user-fetched).
    CacheAtRequester,
    /// The proxy absorbs the copy (fetch-and-forward implementation).
    CacheAtProxy,
    /// Both requester and proxy store it.
    CacheBoth,
}

impl RemoteHitCaching {
    /// Whether the requester stores remote-hit documents.
    pub fn at_requester(self) -> bool {
        matches!(
            self,
            RemoteHitCaching::CacheAtRequester | RemoteHitCaching::CacheBoth
        )
    }

    /// Whether the proxy stores remote-hit documents.
    pub fn at_proxy(self) -> bool {
        matches!(
            self,
            RemoteHitCaching::CacheAtProxy | RemoteHitCaching::CacheBoth
        )
    }
}

/// Declarative choice of browser-index model, the only index configuration.
/// The live proxy runs only the exact directory; the other three are §5's
/// cheaper indexes, which `baps_sim::index::BatchedIndex` models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexModel {
    /// Exact invalidation-driven directory.
    Exact,
    /// Batched updates flushed past a pending-fraction threshold.
    Delayed {
        /// Flush threshold as a fraction of cached documents (e.g. 0.1).
        threshold: f64,
    },
    /// Per-client Bloom summaries.
    Bloom {
        /// Bits per cached document.
        bits_per_item: u64,
        /// Rebuild threshold as a fraction of cached documents.
        threshold: f64,
    },
    /// Per-client counting-Bloom filters patched by delta messages.
    CountingBloom {
        /// Counters per client filter.
        slots: u64,
        /// Flush threshold as a fraction of cached documents.
        threshold: f64,
    },
}

impl IndexModel {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            IndexModel::Exact => "exact".to_owned(),
            IndexModel::Delayed { threshold } => format!("delayed({:.0}%)", threshold * 100.0),
            IndexModel::Bloom {
                bits_per_item,
                threshold,
            } => {
                format!("bloom({bits_per_item}b,{:.0}%)", threshold * 100.0)
            }
            IndexModel::CountingBloom { slots, threshold } => {
                format!("cbloom({slots},{:.0}%)", threshold * 100.0)
            }
        }
    }
}

/// Full configuration of a simulated caching system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Which caching organization to run.
    pub organization: Organization,
    /// Proxy cache capacity in bytes (ignored by organizations without a
    /// proxy cache).
    pub proxy_capacity: u64,
    /// Browser cache sizing rule (ignored by proxy-only).
    pub browser_sizing: BrowserSizing,
    /// Memory-tier fraction of each cache (the paper uses 1/10).
    pub mem_fraction: f64,
    /// Memory-tier fraction of *browser* caches, when different from
    /// `mem_fraction`. The paper argues browsers increasingly run their
    /// entire cache from a RAM drive ("browser cache in memory", §1); set
    /// this to `Some(1.0)` to model that. `None` uses `mem_fraction`.
    pub browser_mem_fraction: Option<f64>,
    /// Browser-index model (browsers-aware / global-browsers only).
    pub index_model: IndexModel,
    /// Remote-hit caching behaviour.
    pub remote_hit_caching: RemoteHitCaching,
    /// Whether serving a peer request counts as an access in the serving
    /// browser's cache (promotes the document toward its memory tier). An
    /// LRU cache promotes on every access, so this defaults to `true`; the
    /// ablation bench flips it.
    pub peer_serve_promotes: bool,
    /// Replacement policy (the paper uses LRU everywhere).
    pub policy: Policy,
    /// Document time-to-live in simulated milliseconds. Cached copies older
    /// than this are revalidated against the origin before being served
    /// (the paper's index entries carry "a time stamp of the file or the
    /// TTL provided by the data source"); `None` disables expiry.
    pub ttl_ms: Option<u64>,
}

impl SystemConfig {
    /// The paper's baseline configuration for a given organization and
    /// proxy size: minimum browser caches, 1/10 memory, exact index, LRU,
    /// no re-caching of remote hits.
    pub fn paper_default(organization: Organization, proxy_capacity: u64) -> SystemConfig {
        SystemConfig {
            organization,
            proxy_capacity,
            browser_sizing: BrowserSizing::Minimum,
            mem_fraction: 0.1,
            browser_mem_fraction: None,
            index_model: IndexModel::Exact,
            remote_hit_caching: RemoteHitCaching::NoCaching,
            peer_serve_promotes: true,
            policy: Policy::Lru,
            ttl_ms: None,
        }
    }

    /// Validates invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.mem_fraction) {
            return Err(format!("mem_fraction {} outside [0,1]", self.mem_fraction));
        }
        if let Some(f) = self.browser_mem_fraction {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("browser_mem_fraction {f} outside [0,1]"));
            }
        }

        if self.organization.has_proxy_cache() && self.proxy_capacity == 0 {
            return Err("proxy organizations need proxy_capacity > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_sizing_divides_proxy() {
        let s = BrowserSizing::Minimum.resolve(1000, 10, 0.0);
        assert_eq!(s, 100);
    }

    #[test]
    fn fraction_of_infinite_sizing() {
        let s = BrowserSizing::FractionOfClientInfinite(0.1).resolve(0, 10, 50_000.0);
        assert_eq!(s, 5_000);
    }

    #[test]
    fn sizing_never_zero() {
        assert!(BrowserSizing::Minimum.resolve(5, 10, 0.0) >= 1);
        assert!(BrowserSizing::FractionOfClientInfinite(0.0001).resolve(0, 1, 1.0) >= 1);
    }

    #[test]
    fn remote_hit_caching_matrix() {
        assert!(!RemoteHitCaching::NoCaching.at_requester());
        assert!(!RemoteHitCaching::NoCaching.at_proxy());
        assert!(RemoteHitCaching::CacheAtRequester.at_requester());
        assert!(RemoteHitCaching::CacheAtProxy.at_proxy());
        assert!(RemoteHitCaching::CacheBoth.at_requester());
        assert!(RemoteHitCaching::CacheBoth.at_proxy());
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::Lru.name(), "LRU");
        assert_eq!(Policy::Gdsf.name(), "GDSF");
    }

    #[test]
    fn model_labels() {
        assert_eq!(IndexModel::Exact.label(), "exact");
        assert_eq!(
            IndexModel::Delayed { threshold: 0.1 }.label(),
            "delayed(10%)"
        );
        assert!(IndexModel::Bloom {
            bits_per_item: 10,
            threshold: 0.05
        }
        .label()
        .starts_with("bloom"));
    }

    #[test]
    fn paper_default_validates() {
        for org in Organization::all() {
            let cfg = SystemConfig::paper_default(org, 1 << 20);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = SystemConfig::paper_default(Organization::BrowsersAware, 100);
        cfg.mem_fraction = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_default(Organization::ProxyOnly, 0);
        assert!(cfg.validate().is_err());
        cfg.proxy_capacity = 1;
        assert!(cfg.validate().is_ok());
    }
}
