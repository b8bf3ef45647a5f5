//! Test-bed harness: origin + proxy + N client agents on loopback.

use crate::client::{ClientAgent, ClientConfig};
use crate::disk::DiskConfig;
use crate::error::ProxyError;
use crate::fault::FaultPlan;
use crate::origin::OriginServer;
use crate::proxy::{ProxyConfig, ProxyServer};
use crate::store::DocumentStore;
use baps_obs::FlightRecorder;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a full loopback deployment.
#[derive(Debug, Clone)]
pub struct TestBedConfig {
    /// Number of client agents.
    pub n_clients: u32,
    /// Proxy cache capacity, bytes.
    pub proxy_capacity: u64,
    /// Per-client browser cache capacity, bytes.
    pub browser_capacity: u64,
    /// Client-side deadline on the proxy connection.
    pub client_timeout: Duration,
    /// Extra client fetch attempts for retryable failures.
    pub client_retries: u32,
    /// Proxy-side deadline for peer probes.
    pub peer_timeout: Duration,
    /// Extra proxy attempts per failed peer probe.
    pub peer_retries: u32,
    /// Proxy-side deadline for origin fetches.
    pub origin_timeout: Duration,
    /// Extra proxy attempts per failed origin fetch.
    pub origin_retries: u32,
    /// Shared fault plan wired into the origin, proxy, and every client's
    /// peer port (chaos testing). `None` runs everything honest.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Root directory for the proxy's persistent disk tier. `None` (the
    /// default) runs the proxy memory-only.
    pub disk_root: Option<PathBuf>,
    /// Disk-tier capacity in body bytes (used when `disk_root` is set).
    pub disk_capacity: u64,
    /// Disk-tier freshness TTL (used when `disk_root` is set). Entries
    /// older than this revalidate against the origin before being served.
    pub disk_ttl: Duration,
}

impl Default for TestBedConfig {
    fn default() -> Self {
        TestBedConfig {
            n_clients: 4,
            proxy_capacity: 64 << 10,
            browser_capacity: 32 << 10,
            client_timeout: Duration::from_secs(5),
            client_retries: 2,
            peer_timeout: Duration::from_secs(2),
            peer_retries: 1,
            origin_timeout: Duration::from_secs(5),
            origin_retries: 1,
            fault_plan: None,
            disk_root: None,
            disk_capacity: 1 << 20,
            disk_ttl: Duration::from_secs(3600),
        }
    }
}

/// A fully wired origin + proxy + clients deployment.
pub struct TestBed {
    /// The origin server.
    pub origin: OriginServer,
    /// The browsers-aware proxy.
    pub proxy: ProxyServer,
    /// The client agents.
    pub clients: Vec<ClientAgent>,
    /// The deployment-wide flight recorder (also reachable through
    /// `proxy.recorder()` / any client's `recorder()`).
    pub recorder: Arc<FlightRecorder>,
}

impl TestBed {
    /// Starts everything on ephemeral loopback ports.
    pub fn start(store: DocumentStore, config: TestBedConfig) -> Result<TestBed, ProxyError> {
        // One ring, shared by the origin, the proxy and every client, so a
        // dump interleaves all sides of each traced request.
        let recorder = Arc::new(FlightRecorder::default());
        let origin = OriginServer::start_with(
            store,
            config.fault_plan.clone(),
            Some(Arc::clone(&recorder)),
        )?;
        let proxy = ProxyServer::start(ProxyConfig {
            cache_capacity: config.proxy_capacity,
            origin_addr: origin.addr(),
            peer_timeout: config.peer_timeout,
            peer_retries: config.peer_retries,
            origin_timeout: config.origin_timeout,
            origin_retries: config.origin_retries,
            disk: config.disk_root.clone().map(|root| DiskConfig {
                root,
                capacity: config.disk_capacity,
                default_ttl: config.disk_ttl,
            }),
            faults: config.fault_plan.clone(),
            recorder: Some(Arc::clone(&recorder)),
        })?;
        let key = proxy.public_key();
        let clients = (0..config.n_clients)
            .map(|id| {
                ClientAgent::start_with(
                    id,
                    proxy.addr(),
                    key,
                    ClientConfig {
                        browser_capacity: config.browser_capacity,
                        proxy_deadline: config.client_timeout,
                        retries: config.client_retries,
                        faults: config.fault_plan.clone(),
                        recorder: Some(Arc::clone(&recorder)),
                    },
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TestBed {
            origin,
            proxy,
            clients,
            recorder,
        })
    }

    /// Restarts the proxy in place: stops it (persisting the disk tier's
    /// counter baseline), then brings it back on the *same* listening
    /// socket with the same configuration. With a disk tier configured the
    /// restarted proxy re-opens its store and comes back warm; clients'
    /// keep-alive connections die and transparently reconnect (replaying
    /// their REGISTER) on their next request.
    pub fn restart_proxy(&mut self) -> Result<(), ProxyError> {
        self.proxy.restart()?;
        Ok(())
    }

    /// Shuts every component down (clients first).
    pub fn shutdown(self) {
        for client in self.clients {
            client.shutdown();
        }
        self.proxy.shutdown();
        self.origin.shutdown();
    }
}
