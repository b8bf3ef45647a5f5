//! The simulated caching system: browser caches, proxy cache, browser index
//! and the request-routing logic of each of the five organizations.

use crate::index::BatchedIndex;
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::policy::{AnyCache, DocCache};
use crate::tiered::TieredLru;
use crate::{Policy, SystemConfig};
use baps_core::{LatencyParams, Served, Tier};
use baps_trace::{ClientId, DocId, Request};
use std::collections::HashMap;

/// Maximum remote candidates probed before giving up and going to the
/// server (only a stale or inexact index produces failing probes).
const MAX_PROBES: usize = 4;

/// A cache that is either a two-tier LRU (memory attribution) or a ranked
/// policy cache (no memory tier modelled).
#[derive(Debug, Clone)]
enum SimCache {
    Tiered(TieredLru<DocId>),
    Ranked(AnyCache<DocId>),
}

impl SimCache {
    fn new(policy: Policy, capacity: u64, mem_fraction: f64) -> SimCache {
        match policy {
            Policy::Lru => SimCache::Tiered(TieredLru::with_mem_fraction(capacity, mem_fraction)),
            other => SimCache::Ranked(AnyCache::new(other, capacity)),
        }
    }

    fn size_of(&self, doc: DocId) -> Option<u64> {
        match self {
            SimCache::Tiered(c) => c.size_of(&doc),
            SimCache::Ranked(c) => c.size_of(&doc),
        }
    }

    /// Which tier currently holds `doc` (no promotion). Ranked caches do
    /// not model a memory tier and always report disk.
    fn tier_of(&self, doc: DocId) -> Option<Tier> {
        match self {
            SimCache::Tiered(c) => c.tier_of(&doc),
            SimCache::Ranked(c) => c.contains(&doc).then_some(Tier::Disk),
        }
    }

    fn touch(&mut self, doc: DocId) -> Option<(u64, Tier)> {
        match self {
            SimCache::Tiered(c) => c.touch(&doc),
            SimCache::Ranked(c) => c.touch(&doc).map(|s| (s, Tier::Disk)),
        }
    }

    /// Returns (admitted, evicted).
    fn insert(&mut self, doc: DocId, size: u64) -> (bool, Vec<(DocId, u64)>) {
        match self {
            SimCache::Tiered(c) => {
                let out = c.insert(doc, size);
                (out.admitted, out.evicted)
            }
            SimCache::Ranked(c) => {
                let out = c.insert(doc, size);
                (out.admitted, out.evicted)
            }
        }
    }

    fn remove(&mut self, doc: DocId) -> Option<u64> {
        match self {
            SimCache::Tiered(c) => c.remove(doc),
            SimCache::Ranked(c) => c.remove(&doc),
        }
    }

    fn used(&self) -> u64 {
        match self {
            SimCache::Tiered(c) => c.used(),
            SimCache::Ranked(c) => c.used(),
        }
    }
}

/// A fully assembled simulated system processing one request at a time.
#[derive(Debug)]
pub struct SimSystem {
    cfg: SystemConfig,
    proxy: Option<SimCache>,
    browsers: Vec<SimCache>,
    index: Option<BatchedIndex>,
    /// Store timestamps for TTL accounting (only maintained when
    /// `cfg.ttl_ms` is set). Browser slots first, proxy last.
    stored_at: Vec<HashMap<DocId, u64>>,
    /// Accumulated request metrics.
    pub metrics: Metrics,
    /// Accumulated latency accounting.
    pub latency: LatencyModel,
    browser_capacity: u64,
}

impl SimSystem {
    /// Builds the system for `n_clients` clients.
    ///
    /// `mean_client_infinite` feeds the browser sizing rule (see
    /// [`crate::BrowserSizing`]).
    pub fn new(
        cfg: SystemConfig,
        n_clients: u32,
        mean_client_infinite: f64,
        latency: LatencyParams,
    ) -> SimSystem {
        cfg.validate().expect("invalid SystemConfig");
        let browser_capacity =
            cfg.browser_sizing
                .resolve(cfg.proxy_capacity, n_clients, mean_client_infinite);
        let proxy = cfg
            .organization
            .has_proxy_cache()
            .then(|| SimCache::new(cfg.policy, cfg.proxy_capacity, cfg.mem_fraction));
        let browser_mem = cfg.browser_mem_fraction.unwrap_or(cfg.mem_fraction);
        let browsers = if cfg.organization.has_browser_caches() {
            (0..n_clients)
                .map(|_| SimCache::new(cfg.policy, browser_capacity, browser_mem))
                .collect()
        } else {
            Vec::new()
        };
        let index = cfg
            .organization
            .shares_browsers()
            .then(|| BatchedIndex::new(cfg.index_model, n_clients));
        let stored_at = if cfg.ttl_ms.is_some() {
            vec![HashMap::new(); n_clients as usize + 1]
        } else {
            Vec::new()
        };
        SimSystem {
            cfg,
            proxy,
            browsers,
            index,
            stored_at,
            metrics: Metrics::default(),
            latency: LatencyModel::new(latency),
            browser_capacity,
        }
    }

    /// Timestamp slot for a browser (or the proxy with `None`).
    fn ttl_slot(&self, client: Option<ClientId>) -> usize {
        match client {
            Some(c) => c.index(),
            None => self.stored_at.len() - 1,
        }
    }

    /// Records a store time when TTL accounting is on.
    fn note_store(&mut self, client: Option<ClientId>, doc: DocId, now: u64) {
        if self.cfg.ttl_ms.is_some() {
            let slot = self.ttl_slot(client);
            self.stored_at[slot].insert(doc, now);
        }
    }

    /// Whether a cached copy is fresh; an expired copy is revalidated
    /// (one WAN round-trip, no body) and refreshed, returning `true` —
    /// document-change misses are handled separately by the size check.
    /// Pass `charge = false` to only test freshness (remote candidates).
    fn fresh_or_revalidate(
        &mut self,
        client: Option<ClientId>,
        doc: DocId,
        now: u64,
        charge: bool,
    ) -> bool {
        let Some(ttl) = self.cfg.ttl_ms else {
            return true;
        };
        let slot = self.ttl_slot(client);
        let stored = self.stored_at[slot].get(&doc).copied().unwrap_or(0);
        if now.saturating_sub(stored) <= ttl {
            return true;
        }
        if charge {
            self.latency.revalidation();
            self.metrics.revalidations += 1;
            self.stored_at[slot].insert(doc, now);
            true
        } else {
            false
        }
    }

    /// The resolved per-browser capacity in bytes.
    pub fn browser_capacity(&self) -> u64 {
        self.browser_capacity
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Bytes currently held by the proxy cache (0 if none).
    pub fn proxy_used(&self) -> u64 {
        self.proxy.as_ref().map_or(0, SimCache::used)
    }

    /// Combined bytes held by all browser caches.
    pub fn browsers_used(&self) -> u64 {
        self.browsers.iter().map(SimCache::used).sum()
    }

    /// The browser index, if this organization maintains one.
    pub fn index(&self) -> Option<&BatchedIndex> {
        self.index.as_ref()
    }

    /// Processes one trace request, returning how it was served.
    pub fn process(&mut self, req: &Request) -> Served {
        let Request {
            time_ms,
            client,
            doc,
            size,
        } = *req;
        let size = size as u64;
        let mut saw_stale_copy = false;

        // 1. Local browser cache.
        if self.cfg.organization.has_browser_caches() {
            match self.browsers[client.index()].size_of(doc) {
                Some(cached) if cached == size => {
                    self.fresh_or_revalidate(Some(client), doc, time_ms, true);
                    let (_, tier) = self.browsers[client.index()]
                        .touch(doc)
                        .expect("size_of implied presence");
                    self.account_tier(tier, size);
                    self.metrics.record(Served::LocalBrowser, size);
                    return Served::LocalBrowser;
                }
                Some(_) => {
                    // Stale copy: the document changed; purge and continue.
                    self.evict_browser_copy(client, doc);
                    saw_stale_copy = true;
                }
                None => {}
            }
        }

        // The request reaches the proxy, carrying the evictions that ride it.
        if let Some(idx) = self.index.as_mut() {
            idx.on_request(client);
        }

        // 2. Proxy cache.
        if self.proxy.is_some() {
            match self.proxy.as_ref().expect("checked").size_of(doc) {
                Some(cached) if cached == size => {
                    self.fresh_or_revalidate(None, doc, time_ms, true);
                    let (_, tier) = self
                        .proxy
                        .as_mut()
                        .expect("checked")
                        .touch(doc)
                        .expect("size_of implied presence");
                    self.account_tier(tier, size);
                    self.latency.proxy_transfer(size);
                    // The browser caches what it receives from the proxy.
                    self.store_browser(client, doc, size);
                    self.note_store(Some(client), doc, time_ms);
                    let served = match tier {
                        Tier::Memory => Served::Proxy,
                        Tier::Disk => Served::ProxyDisk,
                    };
                    self.metrics.record(served, size);
                    return served;
                }
                Some(_) => {
                    self.proxy.as_mut().expect("checked").remove(doc);
                    saw_stale_copy = true;
                }
                None => {}
            }
        }

        // 3. Remote browser caches via the browser index.
        if self.cfg.organization.shares_browsers() && self.probe_remote(time_ms, client, doc, size)
        {
            self.metrics.record(Served::Peer, size);
            // Optional re-caching of the forwarded copy.
            if self.cfg.remote_hit_caching.at_requester() {
                self.store_browser(client, doc, size);
                self.note_store(Some(client), doc, time_ms);
            }
            if self.cfg.remote_hit_caching.at_proxy() {
                if let Some(proxy) = self.proxy.as_mut() {
                    proxy.insert(doc, size);
                }
                if self.proxy.is_some() {
                    self.note_store(None, doc, time_ms);
                }
            }
            return Served::Peer;
        }

        // 4. Miss: fetch from the server, populate caches on the way back.
        if saw_stale_copy {
            self.metrics.size_change_misses += 1;
        }
        self.latency.miss(size);
        self.metrics.record(Served::Origin, size);
        if let Some(proxy) = self.proxy.as_mut() {
            proxy.insert(doc, size);
        }
        if self.proxy.is_some() {
            self.note_store(None, doc, time_ms);
        }
        if self.cfg.organization.has_browser_caches() {
            self.store_browser(client, doc, size);
            self.note_store(Some(client), doc, time_ms);
        }
        Served::Origin
    }

    /// Probes index candidates; returns whether a peer served the document.
    fn probe_remote(&mut self, time_ms: u64, client: ClientId, doc: DocId, size: u64) -> bool {
        let candidates = self
            .index
            .as_mut()
            .map(|idx| idx.lookup_all(doc, client))
            .unwrap_or_default();
        for peer in candidates.into_iter().take(MAX_PROBES) {
            match self.browsers[peer.index()].size_of(doc) {
                Some(cached)
                    if cached == size
                        && !self.fresh_or_revalidate(Some(peer), doc, time_ms, false) =>
                {
                    // Expired peer copy: not servable without the owner
                    // revalidating; treat as a wasted probe.
                    self.metrics.wasted_probes += 1;
                    self.latency.wasted_probe();
                }
                Some(cached) if cached == size => {
                    // The tier that serves the bytes is wherever the copy
                    // currently resides; whether serving *promotes* it in
                    // the peer's LRU is configurable.
                    let tier = if self.cfg.peer_serve_promotes {
                        self.browsers[peer.index()]
                            .touch(doc)
                            .expect("size_of implied presence")
                            .1
                    } else {
                        self.browsers[peer.index()]
                            .tier_of(doc)
                            .expect("size_of implied presence")
                    };
                    self.account_tier(tier, size);
                    self.latency.remote_transfer(time_ms, size);
                    return true;
                }
                _ => {
                    // Stale index entry, Bloom false positive, or a peer
                    // copy with a changed size: wasted probe, after which
                    // a directory drops the holder.
                    self.metrics.wasted_probes += 1;
                    self.latency.wasted_probe();
                    if let Some(idx) = self.index.as_mut() {
                        idx.on_wasted_probe(peer, doc);
                    }
                }
            }
        }
        false
    }

    /// Stores a document into a browser cache, keeping the index in sync.
    fn store_browser(&mut self, client: ClientId, doc: DocId, size: u64) {
        if !self.cfg.organization.has_browser_caches() {
            return;
        }
        let had = self.browsers[client.index()].size_of(doc).is_some();
        let (admitted, evicted) = self.browsers[client.index()].insert(doc, size);
        if let Some(idx) = self.index.as_mut() {
            for (victim, _) in &evicted {
                idx.on_evict(client, *victim);
            }
            if admitted {
                idx.on_store(client, doc);
            } else if had {
                // An oversize update purged the old copy without admission.
                idx.on_evict(client, doc);
            }
        }
    }

    /// Purges a stale browser copy, keeping the index in sync.
    fn evict_browser_copy(&mut self, client: ClientId, doc: DocId) {
        if self.browsers[client.index()].remove(doc).is_some() {
            if let Some(idx) = self.index.as_mut() {
                idx.on_evict(client, doc);
            }
        }
    }

    fn account_tier(&mut self, tier: Tier, size: u64) {
        match tier {
            Tier::Memory => {
                self.latency.mem_hit(size);
                self.metrics.mem_hits += 1;
                self.metrics.mem_hit_bytes += size;
            }
            Tier::Disk => self.latency.disk_hit(size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BrowserSizing, IndexModel, Organization, RemoteHitCaching};

    fn req(t: u64, c: u32, d: u32, s: u32) -> Request {
        Request {
            time_ms: t,
            client: ClientId(c),
            doc: DocId(d),
            size: s,
        }
    }

    fn system(org: Organization) -> SimSystem {
        let cfg = SystemConfig {
            browser_sizing: BrowserSizing::Fixed(10_000),
            ..SystemConfig::paper_default(org, 100_000)
        };
        SimSystem::new(cfg, 4, 0.0, LatencyParams::paper())
    }

    #[test]
    fn proxy_only_routes_through_proxy() {
        let mut s = system(Organization::ProxyOnly);
        assert_eq!(s.process(&req(0, 0, 1, 500)), Served::Origin);
        // A different client hits the shared proxy cache.
        assert_eq!(s.process(&req(1, 1, 1, 500)), Served::Proxy);
        // No browser caches exist, so the same client also hits the proxy.
        assert_eq!(s.process(&req(2, 1, 1, 500)), Served::Proxy);
    }

    #[test]
    fn local_browser_only_private_caches() {
        let mut s = system(Organization::LocalBrowserOnly);
        assert_eq!(s.process(&req(0, 0, 1, 500)), Served::Origin);
        assert_eq!(s.process(&req(1, 0, 1, 500)), Served::LocalBrowser);
        // Other clients cannot see client 0's cache.
        assert_eq!(s.process(&req(2, 1, 1, 500)), Served::Origin);
    }

    #[test]
    fn global_browsers_share_without_proxy() {
        let mut s = system(Organization::GlobalBrowsersOnly);
        assert_eq!(s.process(&req(0, 0, 1, 500)), Served::Origin);
        assert_eq!(s.process(&req(1, 1, 1, 500)), Served::Peer);
        // Default policy: the requester did not cache the remote copy.
        assert_eq!(s.process(&req(2, 1, 1, 500)), Served::Peer);
    }

    #[test]
    fn proxy_and_local_browser_no_sharing() {
        let mut s = system(Organization::ProxyAndLocalBrowser);
        assert_eq!(s.process(&req(0, 0, 1, 500)), Served::Origin);
        assert_eq!(s.process(&req(1, 0, 1, 500)), Served::LocalBrowser);
        assert_eq!(s.process(&req(2, 1, 1, 500)), Served::Proxy);
        // Client 1's browser now has a copy from the proxy hit.
        assert_eq!(s.process(&req(3, 1, 1, 500)), Served::LocalBrowser);
    }

    #[test]
    fn browsers_aware_finds_docs_evicted_from_proxy() {
        let mut s = system(Organization::BrowsersAware);
        assert_eq!(s.process(&req(0, 0, 1, 500)), Served::Origin);
        // Push doc 1 out of the proxy cache (capacity 100_000).
        for i in 0..300 {
            s.process(&req(1 + i, 2, 100 + i as u32, 50_000));
        }
        // Doc 1 is gone from the proxy but alive in client 0's browser.
        assert_eq!(s.process(&req(1000, 1, 1, 500)), Served::Peer);
    }

    #[test]
    fn size_change_invalidates_caches() {
        let mut s = system(Organization::BrowsersAware);
        s.process(&req(0, 0, 1, 500));
        assert_eq!(s.process(&req(1, 0, 1, 500)), Served::LocalBrowser);
        // The document changes size: every cached copy is stale.
        assert_eq!(s.process(&req(2, 0, 1, 600)), Served::Origin);
        assert_eq!(s.metrics.size_change_misses, 1);
        // The fresh copy is served locally afterwards.
        assert_eq!(s.process(&req(3, 0, 1, 600)), Served::LocalBrowser);
    }

    #[test]
    fn remote_hit_caching_at_requester() {
        let mut cfg = SystemConfig {
            browser_sizing: BrowserSizing::Fixed(10_000),
            ..SystemConfig::paper_default(Organization::BrowsersAware, 1_000)
        };
        cfg.remote_hit_caching = RemoteHitCaching::CacheAtRequester;
        let mut s = SimSystem::new(cfg, 4, 0.0, LatencyParams::paper());
        s.process(&req(0, 0, 1, 900)); // miss; proxy cap 1000
        s.process(&req(1, 2, 2, 900)); // evicts doc 1 from proxy
        assert_eq!(s.process(&req(2, 1, 1, 900)), Served::Peer);
        // Requester cached the forwarded copy: next access is local.
        assert_eq!(s.process(&req(3, 1, 1, 900)), Served::LocalBrowser);
    }

    #[test]
    fn stale_peer_copy_is_wasted_probe() {
        let mut s = system(Organization::BrowsersAware);
        s.process(&req(0, 0, 1, 500));
        // Push doc 1 out of the proxy so only client 0's browser has it.
        for i in 0..300 {
            s.process(&req(1 + i, 2, 100 + i as u32, 50_000));
        }
        // Doc 1 changed size: the peer's copy cannot be used.
        assert_eq!(s.process(&req(1000, 1, 1, 700)), Served::Origin);
        assert!(s.metrics.wasted_probes >= 1);
    }

    #[test]
    fn metrics_and_capacity_accounting() {
        let mut s = system(Organization::BrowsersAware);
        for i in 0..50 {
            s.process(&req(i, (i % 4) as u32, (i % 10) as u32, 1_000));
        }
        assert_eq!(s.metrics.requests(), 50);
        assert!(s.proxy_used() <= 100_000);
        assert!(s.browsers_used() <= 4 * s.browser_capacity());
        assert!(s.latency.totals.total_ms() > 0.0);
    }

    #[test]
    fn ttl_revalidates_expired_local_copies() {
        let mut cfg = SystemConfig {
            browser_sizing: BrowserSizing::Fixed(10_000),
            ..SystemConfig::paper_default(Organization::BrowsersAware, 100_000)
        };
        cfg.ttl_ms = Some(1_000);
        let mut s = SimSystem::new(cfg, 2, 0.0, LatencyParams::paper());
        s.process(&req(0, 0, 1, 500));
        // Within TTL: plain local hit, no revalidation.
        assert_eq!(s.process(&req(500, 0, 1, 500)), Served::LocalBrowser);
        assert_eq!(s.metrics.revalidations, 0);
        // Past TTL: still a local hit, but a revalidation round-trip is paid.
        assert_eq!(s.process(&req(5_000, 0, 1, 500)), Served::LocalBrowser);
        assert_eq!(s.metrics.revalidations, 1);
        assert!(s.latency.totals.revalidation_ms > 0.0);
        // The revalidation refreshed the copy: an immediate re-access is free.
        assert_eq!(s.process(&req(5_100, 0, 1, 500)), Served::LocalBrowser);
        assert_eq!(s.metrics.revalidations, 1);
    }

    #[test]
    fn ttl_expired_peer_copies_not_served() {
        let mut cfg = SystemConfig {
            browser_sizing: BrowserSizing::Fixed(10_000),
            ..SystemConfig::paper_default(Organization::BrowsersAware, 1_000)
        };
        cfg.ttl_ms = Some(1_000);
        let mut s = SimSystem::new(cfg, 4, 0.0, LatencyParams::paper());
        s.process(&req(0, 0, 1, 900));
        s.process(&req(1, 2, 2, 900)); // evict doc 1 from the tiny proxy
                                       // Within TTL a peer hit works.
        assert_eq!(s.process(&req(500, 1, 1, 900)), Served::Peer);
        // Far beyond the TTL the peer copy is expired: fall through to miss.
        assert_eq!(s.process(&req(60_000, 3, 1, 900)), Served::Origin);
        assert!(s.metrics.wasted_probes >= 1);
    }

    #[test]
    fn no_ttl_never_revalidates() {
        let mut s = system(Organization::BrowsersAware);
        s.process(&req(0, 0, 1, 500));
        s.process(&req(1_000_000_000, 0, 1, 500));
        assert_eq!(s.metrics.revalidations, 0);
        assert_eq!(s.latency.totals.revalidation_ms, 0.0);
    }

    #[test]
    fn delayed_index_produces_wasted_probes_or_misses() {
        let mut cfg = SystemConfig {
            browser_sizing: BrowserSizing::Fixed(10_000),
            ..SystemConfig::paper_default(Organization::BrowsersAware, 1_000)
        };
        cfg.index_model = IndexModel::Delayed { threshold: 0.5 };
        let mut s = SimSystem::new(cfg, 4, 0.0, LatencyParams::paper());
        // Client 0 fetches a doc; with a lazy index the store may not be
        // published yet, so client 1 may miss even though the copy exists.
        s.process(&req(0, 0, 1, 900));
        s.process(&req(1, 2, 2, 900)); // evict doc 1 from tiny proxy
        let class = s.process(&req(2, 1, 1, 900));
        assert!(
            class == Served::Origin || class == Served::Peer,
            "unexpected class {class:?}"
        );
    }
}
