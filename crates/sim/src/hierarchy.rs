//! Two-level proxy hierarchies with browsers-aware groups.
//!
//! The paper routes proxy misses to "an upper level proxy, or the web
//! server"; its follow-up work (Xiao, Zhang, Xu, TKDE 2004) develops this
//! into a *hybrid* P2P caching system: clients are partitioned into groups,
//! each group has a first-level proxy, the groups share a parent proxy, and
//! browsers-awareness can be deployed per group or across all groups. This
//! module implements that extension on top of the same cache/index
//! substrates, with the request path
//!
//! ```text
//! browser → L1 proxy (group) → browser index → L2 parent proxy → origin
//! ```

use crate::latency::LatencyModel;
use crate::tiered::TieredLru;
use baps_core::{ExactIndex, LatencyParams, Tier};
use baps_trace::{ClientId, DocId, Request, Trace, TraceStats};

/// Where the browser index lives (and how far sharing reaches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// Plain hierarchy: no browser sharing at all.
    NoSharing,
    /// One browsers-aware index per group: peers within the same first-level
    /// proxy's client population can serve each other.
    GroupBrowsersAware,
    /// A global index spanning all groups (served via the parent proxy's
    /// control plane; transfers still cross the inter-group network).
    GlobalBrowsersAware,
}

impl SharingMode {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SharingMode::NoSharing => "hierarchy-only",
            SharingMode::GroupBrowsersAware => "group-browsers-aware",
            SharingMode::GlobalBrowsersAware => "global-browsers-aware",
        }
    }
}

/// Configuration of the hierarchical system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Number of client groups / first-level proxies.
    pub n_groups: u32,
    /// Capacity of each first-level proxy, bytes.
    pub l1_capacity: u64,
    /// Capacity of the shared parent proxy, bytes.
    pub l2_capacity: u64,
    /// Per-browser capacity, bytes.
    pub browser_capacity: u64,
    /// Sharing mode.
    pub mode: SharingMode,
    /// Memory-tier fraction of every cache.
    pub mem_fraction: f64,
}

impl HierarchyConfig {
    /// A paper-flavoured default: capacities derived from the trace's
    /// infinite cache size (L1s split 10% among groups, L2 another 10%,
    /// browsers at the per-group minimum).
    pub fn from_stats(stats: &TraceStats, n_groups: u32, mode: SharingMode) -> HierarchyConfig {
        let tenth = (stats.infinite_cache_bytes / 10).max(1);
        let clients_per_group = (stats.clients as u32 / n_groups.max(1)).max(1);
        HierarchyConfig {
            n_groups: n_groups.max(1),
            l1_capacity: (tenth / n_groups.max(1) as u64).max(1),
            l2_capacity: tenth,
            browser_capacity: (tenth / n_groups.max(1) as u64 / clients_per_group as u64).max(1),
            mode,
            mem_fraction: 0.1,
        }
    }
}

/// Where a hierarchical request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierHit {
    /// The requester's own browser.
    LocalBrowser,
    /// The group's first-level proxy.
    L1Proxy,
    /// A peer browser (within the group or global, per mode).
    RemoteBrowser,
    /// The shared parent proxy.
    L2Proxy,
    /// Fetched from the origin.
    Miss,
}

/// Counters per hierarchical hit class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierMetrics {
    counts: [u64; 5],
    bytes: [u64; 5],
}

impl HierMetrics {
    fn slot(class: HierHit) -> usize {
        match class {
            HierHit::LocalBrowser => 0,
            HierHit::L1Proxy => 1,
            HierHit::RemoteBrowser => 2,
            HierHit::L2Proxy => 3,
            HierHit::Miss => 4,
        }
    }

    fn record(&mut self, class: HierHit, size: u64) {
        self.counts[Self::slot(class)] += 1;
        self.bytes[Self::slot(class)] += size;
    }

    /// Requests in a class.
    pub fn count(&self, class: HierHit) -> u64 {
        self.counts[Self::slot(class)]
    }

    /// Total requests.
    pub fn requests(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Hit ratio percent (everything but misses).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.requests() - self.count(HierHit::Miss);
        percent(hits, self.requests())
    }

    /// Byte hit ratio percent.
    pub fn byte_hit_ratio(&self) -> f64 {
        let hit_bytes = self.total_bytes() - self.bytes[Self::slot(HierHit::Miss)];
        percent(hit_bytes, self.total_bytes())
    }

    /// Class share of all requests, percent.
    pub fn class_ratio(&self, class: HierHit) -> f64 {
        percent(self.count(class), self.requests())
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// The hierarchical simulated system.
#[derive(Debug)]
pub struct HierSystem {
    cfg: HierarchyConfig,
    browsers: Vec<TieredLru<DocId>>,
    group_of: Vec<u32>,
    l1: Vec<TieredLru<DocId>>,
    l2: TieredLru<DocId>,
    /// One index per group, or a single global one at slot 0. Each applies
    /// a change at once: this design has no live runtime whose piggybacked
    /// notices it would have to match.
    indexes: Vec<ExactIndex>,
    /// Accumulated metrics.
    pub metrics: HierMetrics,
    /// Latency accounting (remote transfers + misses only; intra-hierarchy
    /// wire time is charged as proxy transfers).
    pub latency: LatencyModel,
}

impl HierSystem {
    /// Builds the system for `n_clients` clients assigned to groups
    /// round-robin.
    pub fn new(cfg: HierarchyConfig, n_clients: u32, latency: LatencyParams) -> HierSystem {
        assert!(cfg.n_groups >= 1);
        assert!((0.0..=1.0).contains(&cfg.mem_fraction));
        let indexes = match cfg.mode {
            SharingMode::NoSharing => Vec::new(),
            SharingMode::GroupBrowsersAware => {
                (0..cfg.n_groups).map(|_| ExactIndex::new()).collect()
            }
            SharingMode::GlobalBrowsersAware => vec![ExactIndex::new()],
        };
        HierSystem {
            browsers: (0..n_clients)
                .map(|_| TieredLru::with_mem_fraction(cfg.browser_capacity, cfg.mem_fraction))
                .collect(),
            group_of: (0..n_clients).map(|c| c % cfg.n_groups).collect(),
            l1: (0..cfg.n_groups)
                .map(|_| TieredLru::with_mem_fraction(cfg.l1_capacity, cfg.mem_fraction))
                .collect(),
            l2: TieredLru::with_mem_fraction(cfg.l2_capacity, cfg.mem_fraction),
            indexes,
            metrics: HierMetrics::default(),
            latency: LatencyModel::new(latency),
            cfg,
        }
    }

    /// The group a client belongs to.
    pub fn group_of(&self, client: ClientId) -> u32 {
        self.group_of[client.index()]
    }

    fn index_slot(&self, group: u32) -> Option<usize> {
        match self.cfg.mode {
            SharingMode::NoSharing => None,
            SharingMode::GroupBrowsersAware => Some(group as usize),
            SharingMode::GlobalBrowsersAware => Some(0),
        }
    }

    fn index_store(&mut self, client: ClientId, doc: DocId) {
        if let Some(slot) = self.index_slot(self.group_of(client)) {
            self.indexes[slot].on_store(client, doc);
        }
    }

    fn index_evict(&mut self, client: ClientId, doc: DocId) {
        if let Some(slot) = self.index_slot(self.group_of(client)) {
            self.indexes[slot].on_evict(client, doc);
        }
    }

    fn store_browser(&mut self, client: ClientId, doc: DocId, size: u64) {
        let had = self.browsers[client.index()].size_of(&doc).is_some();
        let out = self.browsers[client.index()].insert(doc, size);
        for (victim, _) in &out.evicted {
            self.index_evict(client, *victim);
        }
        if out.admitted {
            self.index_store(client, doc);
        } else if had {
            self.index_evict(client, doc);
        }
    }

    fn account_tier(&mut self, tier: Tier, size: u64) {
        match tier {
            Tier::Memory => self.latency.mem_hit(size),
            Tier::Disk => self.latency.disk_hit(size),
        }
    }

    /// Processes one request.
    pub fn process(&mut self, req: &Request) -> HierHit {
        let Request {
            time_ms,
            client,
            doc,
            size,
        } = *req;
        let size = size as u64;
        let group = self.group_of(client) as usize;

        // 1. Local browser.
        match self.browsers[client.index()].size_of(&doc) {
            Some(cached) if cached == size => {
                let (_, tier) = self.browsers[client.index()].touch(&doc).expect("present");
                self.account_tier(tier, size);
                self.metrics.record(HierHit::LocalBrowser, size);
                return HierHit::LocalBrowser;
            }
            Some(_) => {
                self.browsers[client.index()].remove(doc);
                self.index_evict(client, doc);
            }
            None => {}
        }

        // 2. First-level (group) proxy.
        match self.l1[group].size_of(&doc) {
            Some(cached) if cached == size => {
                let (_, tier) = self.l1[group].touch(&doc).expect("present");
                self.account_tier(tier, size);
                self.latency.proxy_transfer(size);
                self.store_browser(client, doc, size);
                self.metrics.record(HierHit::L1Proxy, size);
                return HierHit::L1Proxy;
            }
            Some(_) => {
                self.l1[group].remove(doc);
            }
            None => {}
        }

        // 3. Browser index (group or global).
        if let Some(slot) = self.index_slot(group as u32) {
            let candidates = self.indexes[slot].lookup_all(doc, client);
            for peer in candidates.into_iter().take(4) {
                match self.browsers[peer.index()].size_of(&doc) {
                    Some(cached) if cached == size => {
                        let tier = self.browsers[peer.index()].tier_of(&doc).expect("present");
                        self.account_tier(tier, size);
                        self.latency.remote_transfer(time_ms, size);
                        self.metrics.record(HierHit::RemoteBrowser, size);
                        return HierHit::RemoteBrowser;
                    }
                    _ => self.latency.wasted_probe(),
                }
            }
        }

        // 4. Parent proxy.
        match self.l2.size_of(&doc) {
            Some(cached) if cached == size => {
                let (_, tier) = self.l2.touch(&doc).expect("present");
                self.account_tier(tier, size);
                self.latency.proxy_transfer(size);
                self.l1[group].insert(doc, size);
                self.store_browser(client, doc, size);
                self.metrics.record(HierHit::L2Proxy, size);
                return HierHit::L2Proxy;
            }
            Some(_) => {
                self.l2.remove(doc);
            }
            None => {}
        }

        // 5. Origin.
        self.latency.miss(size);
        self.l2.insert(doc, size);
        self.l1[group].insert(doc, size);
        self.store_browser(client, doc, size);
        self.metrics.record(HierHit::Miss, size);
        HierHit::Miss
    }
}

/// Replays a trace through a hierarchical system.
pub fn run_hierarchy(trace: &Trace, cfg: &HierarchyConfig, latency: &LatencyParams) -> HierSystem {
    let mut system = HierSystem::new(*cfg, trace.n_clients, *latency);
    for req in trace.iter() {
        system.process(req);
    }
    system
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_trace::SynthConfig;

    fn req(t: u64, c: u32, d: u32, s: u32) -> Request {
        Request {
            time_ms: t,
            client: ClientId(c),
            doc: DocId(d),
            size: s,
        }
    }

    fn cfg(mode: SharingMode) -> HierarchyConfig {
        HierarchyConfig {
            n_groups: 2,
            l1_capacity: 1_000,
            l2_capacity: 100_000,
            browser_capacity: 10_000,
            mode,
            mem_fraction: 0.1,
        }
    }

    #[test]
    fn groups_assigned_round_robin() {
        let s = HierSystem::new(cfg(SharingMode::NoSharing), 5, LatencyParams::paper());
        assert_eq!(s.group_of(ClientId(0)), 0);
        assert_eq!(s.group_of(ClientId(1)), 1);
        assert_eq!(s.group_of(ClientId(2)), 0);
    }

    #[test]
    fn l2_serves_cross_group_misses() {
        let mut s = HierSystem::new(cfg(SharingMode::NoSharing), 4, LatencyParams::paper());
        // Client 0 (group 0) pulls the doc through both proxy levels.
        assert_eq!(s.process(&req(0, 0, 1, 500)), HierHit::Miss);
        // Client 1 is in group 1: its L1 misses, the parent hits.
        assert_eq!(s.process(&req(1, 1, 1, 500)), HierHit::L2Proxy);
        // Client 3 shares group 1: L1 now has it.
        assert_eq!(s.process(&req(2, 3, 1, 500)), HierHit::L1Proxy);
        // Client 1 again: local browser.
        assert_eq!(s.process(&req(3, 1, 1, 500)), HierHit::LocalBrowser);
    }

    #[test]
    fn group_sharing_stays_in_group() {
        let mut s = HierSystem::new(
            cfg(SharingMode::GroupBrowsersAware),
            4,
            LatencyParams::paper(),
        );
        s.process(&req(0, 0, 1, 900)); // group 0 browser holds doc 1
                                       // Evict from both proxy levels by churning bigger docs.
        for i in 0..200u32 {
            s.process(&req(1 + i as u64, 2, 100 + i, 900));
        }
        assert!(s.l2.size_of(&DocId(1)).is_none() || s.l1[0].size_of(&DocId(1)).is_none());
        // Same-group client 2 can hit client 0's browser...
        let class_same_group = s.process(&req(500, 2, 1, 900));
        // ...but only if both proxies already lost it.
        if s.l1[0].size_of(&DocId(1)).is_none() && s.l2.size_of(&DocId(1)).is_none() {
            assert_eq!(class_same_group, HierHit::RemoteBrowser);
        }
        // A different-group client can never be served by group 0's index.
        let mut s2 = HierSystem::new(
            cfg(SharingMode::GroupBrowsersAware),
            4,
            LatencyParams::paper(),
        );
        s2.process(&req(0, 0, 1, 900));
        for i in 0..200u32 {
            s2.process(&req(1 + i as u64, 2, 100 + i, 900));
            s2.process(&req(1 + i as u64, 3, 300_000 + i, 900));
        }
        let class_cross = s2.process(&req(900, 1, 1, 900));
        assert_ne!(class_cross, HierHit::RemoteBrowser);
    }

    #[test]
    fn global_sharing_crosses_groups() {
        let mut s = HierSystem::new(
            cfg(SharingMode::GlobalBrowsersAware),
            4,
            LatencyParams::paper(),
        );
        s.process(&req(0, 0, 1, 900));
        // Churn both proxy levels out of doc 1.
        for i in 0..200u32 {
            s.process(&req(1 + i as u64, 2, 100 + i, 900));
            s.process(&req(1 + i as u64, 3, 300_000 + i, 900));
        }
        assert!(s.l2.size_of(&DocId(1)).is_none());
        // Client 1 is in the *other* group but still finds the peer copy.
        assert_eq!(s.process(&req(900, 1, 1, 900)), HierHit::RemoteBrowser);
    }

    #[test]
    fn metrics_account_every_request() {
        let trace = SynthConfig::small().scaled(0.2).generate(12);
        let stats = TraceStats::compute(&trace);
        for mode in [
            SharingMode::NoSharing,
            SharingMode::GroupBrowsersAware,
            SharingMode::GlobalBrowsersAware,
        ] {
            let cfg = HierarchyConfig::from_stats(&stats, 4, mode);
            let s = run_hierarchy(&trace, &cfg, &LatencyParams::paper());
            assert_eq!(s.metrics.requests(), trace.len() as u64, "{}", mode.label());
            assert_eq!(s.metrics.total_bytes(), trace.total_bytes());
            assert!(s.metrics.hit_ratio() <= stats.max_hit_ratio + 1e-9);
            let class_sum: f64 = [
                HierHit::LocalBrowser,
                HierHit::L1Proxy,
                HierHit::RemoteBrowser,
                HierHit::L2Proxy,
                HierHit::Miss,
            ]
            .iter()
            .map(|&c| s.metrics.class_ratio(c))
            .sum();
            assert!((class_sum - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sharing_never_hurts_hit_ratio() {
        let trace = SynthConfig::small().scaled(0.2).generate(13);
        let stats = TraceStats::compute(&trace);
        let base = run_hierarchy(
            &trace,
            &HierarchyConfig::from_stats(&stats, 4, SharingMode::NoSharing),
            &LatencyParams::paper(),
        );
        let group = run_hierarchy(
            &trace,
            &HierarchyConfig::from_stats(&stats, 4, SharingMode::GroupBrowsersAware),
            &LatencyParams::paper(),
        );
        let global = run_hierarchy(
            &trace,
            &HierarchyConfig::from_stats(&stats, 4, SharingMode::GlobalBrowsersAware),
            &LatencyParams::paper(),
        );
        assert!(group.metrics.hit_ratio() >= base.metrics.hit_ratio());
        assert!(global.metrics.hit_ratio() >= group.metrics.hit_ratio());
        assert!(
            global.metrics.count(HierHit::RemoteBrowser)
                >= group.metrics.count(HierHit::RemoteBrowser)
        );
    }

    #[test]
    fn no_sharing_has_no_remote_hits() {
        let trace = SynthConfig::small().scaled(0.1).generate(14);
        let stats = TraceStats::compute(&trace);
        let s = run_hierarchy(
            &trace,
            &HierarchyConfig::from_stats(&stats, 2, SharingMode::NoSharing),
            &LatencyParams::paper(),
        );
        assert_eq!(s.metrics.count(HierHit::RemoteBrowser), 0);
    }
}
