//! Deterministic, seedable fault injection for the live runtime.
//!
//! The paper's reliability claim (§6) is that a browsers-aware proxy keeps
//! serving *correct* bytes while browser peers churn, stall, lie, and the
//! origin misbehaves. This module makes those failure modes reproducible: a
//! [`FaultPlan`] is seeded once and then consulted at each injection point
//! — a client's peer port, the origin, and the proxy's client port, each
//! once per covered frame as the server's event loop hands it over — where
//! it deterministically decides whether the next reply is served honestly
//! or sabotaged.
//!
//! # Determinism contract
//!
//! Each injection *site* (peer, origin, proxy, schedule) owns its own
//! seeded [`StdRng`] stream and draws **exactly one** sample per decision.
//! As long as the workload drives requests sequentially (the `chaos_soak`
//! harness does), the sequence of arrivals at every site — and therefore
//! the exact faults injected — is a pure function of the seed. Two runs
//! with the same seed and schedule inject identical per-kind fault counts,
//! which `chaos_soak` asserts. Stall durations are chosen to *decisively*
//! exceed the victim's read deadline so that timing jitter cannot flip an
//! outcome.
//!
//! # Adding a new fault kind
//!
//! 1. Add a variant to [`FaultKind`], extend [`FaultKind::ALL`] /
//!    [`FaultKind::name`], and give it a probability knob in
//!    [`FaultConfig`] (plus a line in [`FaultConfig::chaos`]).
//! 2. Add it to the relevant site's cumulative table in
//!    [`FaultPlan::peer_fault`] / [`FaultPlan::origin_fault`] /
//!    [`FaultPlan::proxy_fault`] so it is drawn (and counted) there.
//! 3. Implement its effect: a wire-level effect in [`WireFault`], applied
//!    for every server by the event loop's one reply writer (`reactor.rs`:
//!    corruption, truncation, stalls), a severed connection
//!    ([`FaultKind::drops`], also the loop's), or a control-flow effect in
//!    the site's own handler (refusals, error replies, restarts).
//! 4. Extend the `chaos_soak` invariants if the new fault changes what
//!    "correct degradation" means.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One kind of injected misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A peer claims it no longer caches the document (`410 Gone`) even
    /// though it does — exercises the stale-index fallback path.
    PeerRefuse,
    /// A peer closes the connection without replying.
    PeerDrop,
    /// A peer stalls mid-frame (slow-loris) past the prober's deadline.
    PeerStall,
    /// A peer sends a truncated frame, then closes.
    PeerTruncate,
    /// A peer serves a corrupted body — the §6.1 watermark must catch it.
    PeerCorrupt,
    /// The origin replies `500 Internal Server Error`.
    OriginError,
    /// The origin stalls mid-reply past the proxy's deadline.
    OriginStall,
    /// The origin closes the connection without replying.
    OriginDrop,
    /// The proxy stalls mid-reply to a client past the client's deadline.
    ProxyStall,
    /// The proxy severs the client connection before replying.
    ProxyDrop,
    /// Every open connection is severed at once (a proxy restart), via
    /// [`crate::proxy::ProxyServer::drop_connections`].
    ProxyRestart,
}

impl FaultKind {
    /// Every kind, in reporting order.
    pub const ALL: [FaultKind; 11] = [
        FaultKind::PeerRefuse,
        FaultKind::PeerDrop,
        FaultKind::PeerStall,
        FaultKind::PeerTruncate,
        FaultKind::PeerCorrupt,
        FaultKind::OriginError,
        FaultKind::OriginStall,
        FaultKind::OriginDrop,
        FaultKind::ProxyStall,
        FaultKind::ProxyDrop,
        FaultKind::ProxyRestart,
    ];

    /// Stable kebab-case name (report lines, reproduction commands).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PeerRefuse => "peer-refuse",
            FaultKind::PeerDrop => "peer-drop",
            FaultKind::PeerStall => "peer-stall",
            FaultKind::PeerTruncate => "peer-truncate",
            FaultKind::PeerCorrupt => "peer-corrupt",
            FaultKind::OriginError => "origin-error",
            FaultKind::OriginStall => "origin-stall",
            FaultKind::OriginDrop => "origin-drop",
            FaultKind::ProxyStall => "proxy-stall",
            FaultKind::ProxyDrop => "proxy-drop",
            FaultKind::ProxyRestart => "proxy-restart",
        }
    }

    fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind listed in ALL")
    }

    /// Whether this kind severs the connection instead of answering: the
    /// serving loop closes before the frame is handled.
    pub fn drops(self) -> bool {
        matches!(
            self,
            FaultKind::PeerDrop | FaultKind::OriginDrop | FaultKind::ProxyDrop
        )
    }

    /// The wire-level effect of this kind, if it has one. Kinds without a
    /// wire effect (refusals, drops, restarts) are handled by the site's
    /// control flow instead.
    pub fn wire(self) -> Option<WireFault> {
        match self {
            FaultKind::PeerCorrupt => Some(WireFault::Corrupt),
            FaultKind::PeerTruncate => Some(WireFault::Truncate),
            FaultKind::PeerStall | FaultKind::OriginStall | FaultKind::ProxyStall => {
                Some(WireFault::Stall)
            }
            _ => None,
        }
    }
}

/// How a reply frame is sabotaged on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Flip a body byte; the frame stays well-formed but the bytes are
    /// wrong (watermark verification must reject them).
    Corrupt,
    /// Send only the first half of the frame, then close the connection.
    Truncate,
    /// Send half the frame, wait past the reader's deadline, then finish.
    Stall,
}

/// Per-kind injection probabilities plus the stall duration.
///
/// Probabilities are evaluated independently per *site* arrival: each
/// arrival draws one uniform sample and walks that site's kinds in
/// [`FaultKind::ALL`] order, so the per-site sum must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// P(peer replies Gone despite caching the document).
    pub p_peer_refuse: f64,
    /// P(peer closes without replying).
    pub p_peer_drop: f64,
    /// P(peer stalls mid-frame).
    pub p_peer_stall: f64,
    /// P(peer truncates the reply frame).
    pub p_peer_truncate: f64,
    /// P(peer corrupts the body).
    pub p_peer_corrupt: f64,
    /// P(origin replies 500).
    pub p_origin_error: f64,
    /// P(origin stalls mid-reply).
    pub p_origin_stall: f64,
    /// P(origin closes without replying).
    pub p_origin_drop: f64,
    /// P(proxy stalls a client reply).
    pub p_proxy_stall: f64,
    /// P(proxy severs the client connection before replying).
    pub p_proxy_drop: f64,
    /// P(schedule tick triggers a proxy restart).
    pub p_restart: f64,
    /// How long a stall lasts. Must decisively exceed every read deadline
    /// in the deployment or outcomes become timing-dependent.
    pub stall: Duration,
}

impl Default for FaultConfig {
    /// All probabilities zero: a plan that never injects anything.
    fn default() -> Self {
        FaultConfig {
            p_peer_refuse: 0.0,
            p_peer_drop: 0.0,
            p_peer_stall: 0.0,
            p_peer_truncate: 0.0,
            p_peer_corrupt: 0.0,
            p_origin_error: 0.0,
            p_origin_stall: 0.0,
            p_origin_drop: 0.0,
            p_proxy_stall: 0.0,
            p_proxy_drop: 0.0,
            p_restart: 0.0,
            stall: Duration::from_millis(500),
        }
    }
}

impl FaultConfig {
    /// A balanced chaos mix, scaled by `intensity` (1.0 ≈ a few percent of
    /// arrivals faulted per site). The stall duration here assumes read
    /// deadlines of at most ~900 ms; deployments with longer deadlines
    /// should raise it.
    pub fn chaos(intensity: f64) -> FaultConfig {
        let s = intensity;
        FaultConfig {
            p_peer_refuse: 0.012 * s,
            p_peer_drop: 0.010 * s,
            p_peer_stall: 0.006 * s,
            p_peer_truncate: 0.010 * s,
            p_peer_corrupt: 0.012 * s,
            p_origin_error: 0.012 * s,
            p_origin_stall: 0.005 * s,
            p_origin_drop: 0.010 * s,
            p_proxy_stall: 0.004 * s,
            p_proxy_drop: 0.008 * s,
            p_restart: 0.002 * s,
            stall: Duration::from_millis(1_300),
        }
    }
}

/// Per-kind counts of faults actually injected by a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    counts: [u64; FaultKind::ALL.len()],
}

impl FaultCounts {
    /// Injected count for one kind.
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for kind in FaultKind::ALL {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{}={}", kind.name(), self.get(kind))?;
        }
        Ok(())
    }
}

/// A seeded fault schedule shared by every component of a deployment.
///
/// Each injection site (peer serving, origin serving, proxy serving, and
/// the harness's restart schedule) draws from its own RNG stream derived
/// from the plan seed, so sites do not perturb each other's sequences.
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    peer_rng: Mutex<StdRng>,
    origin_rng: Mutex<StdRng>,
    proxy_rng: Mutex<StdRng>,
    schedule_rng: Mutex<StdRng>,
    counts: [AtomicU64; FaultKind::ALL.len()],
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("config", &self.config)
            .field("counts", &self.counts())
            .finish()
    }
}

impl FaultPlan {
    /// Creates a plan for `seed` with the given fault mix.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            seed,
            config,
            peer_rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x7065_6572)),
            origin_rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x6f72_6967_696e)),
            proxy_rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x0070_726f_7879)),
            schedule_rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x0073_6368_6564)),
            counts: Default::default(),
        }
    }

    /// The seed this plan was built from (for reproduction lines).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured fault mix.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// How long injected stalls last.
    pub fn stall(&self) -> Duration {
        self.config.stall
    }

    /// Faults injected so far, by kind.
    pub fn counts(&self) -> FaultCounts {
        let mut out = FaultCounts::default();
        for (slot, count) in out.counts.iter_mut().zip(&self.counts) {
            *slot = count.load(Ordering::Relaxed);
        }
        out
    }

    /// Draws the fault decision for one `PEERGET` served by a peer.
    pub fn peer_fault(&self) -> Option<FaultKind> {
        let c = &self.config;
        self.draw(
            &self.peer_rng,
            &[
                (FaultKind::PeerRefuse, c.p_peer_refuse),
                (FaultKind::PeerDrop, c.p_peer_drop),
                (FaultKind::PeerStall, c.p_peer_stall),
                (FaultKind::PeerTruncate, c.p_peer_truncate),
                (FaultKind::PeerCorrupt, c.p_peer_corrupt),
            ],
        )
    }

    /// Draws the fault decision for one `GET` served by the origin.
    pub fn origin_fault(&self) -> Option<FaultKind> {
        let c = &self.config;
        self.draw(
            &self.origin_rng,
            &[
                (FaultKind::OriginError, c.p_origin_error),
                (FaultKind::OriginStall, c.p_origin_stall),
                (FaultKind::OriginDrop, c.p_origin_drop),
            ],
        )
    }

    /// Draws the fault decision for one `GET` served by the proxy.
    pub fn proxy_fault(&self) -> Option<FaultKind> {
        let c = &self.config;
        self.draw(
            &self.proxy_rng,
            &[
                (FaultKind::ProxyStall, c.p_proxy_stall),
                (FaultKind::ProxyDrop, c.p_proxy_drop),
            ],
        )
    }

    /// Draws the restart decision for one schedule tick (the harness calls
    /// this once per request and, on `true`, severs every open connection).
    pub fn restart_due(&self) -> bool {
        self.draw(
            &self.schedule_rng,
            &[(FaultKind::ProxyRestart, self.config.p_restart)],
        )
        .is_some()
    }

    /// One uniform sample walked through a cumulative table. Exactly one
    /// RNG draw per call, so the site's stream advances identically whether
    /// or not a fault fires — the heart of the determinism contract.
    fn draw(&self, rng: &Mutex<StdRng>, table: &[(FaultKind, f64)]) -> Option<FaultKind> {
        let x: f64 = rng.lock().gen();
        let mut acc = 0.0;
        for &(kind, p) in table {
            acc += p;
            if x < acc {
                self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
                return Some(kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturated() -> FaultConfig {
        FaultConfig {
            p_peer_refuse: 0.2,
            p_peer_drop: 0.2,
            p_peer_stall: 0.2,
            p_peer_truncate: 0.2,
            p_peer_corrupt: 0.2,
            p_origin_error: 0.5,
            p_origin_stall: 0.25,
            p_origin_drop: 0.25,
            p_proxy_stall: 0.5,
            p_proxy_drop: 0.5,
            p_restart: 1.0,
            stall: Duration::from_millis(1),
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let a = FaultPlan::new(7, FaultConfig::chaos(10.0));
        let b = FaultPlan::new(7, FaultConfig::chaos(10.0));
        for _ in 0..500 {
            assert_eq!(a.peer_fault(), b.peer_fault());
            assert_eq!(a.origin_fault(), b.origin_fault());
            assert_eq!(a.proxy_fault(), b.proxy_fault());
            assert_eq!(a.restart_due(), b.restart_due());
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "chaos(10.0) must inject something");
    }

    #[test]
    fn sites_have_independent_streams() {
        // Draining one site must not change another site's sequence.
        let a = FaultPlan::new(9, saturated());
        let b = FaultPlan::new(9, saturated());
        for _ in 0..100 {
            let _ = a.peer_fault();
        }
        for _ in 0..20 {
            assert_eq!(a.origin_fault(), b.origin_fault());
        }
    }

    #[test]
    fn zero_config_injects_nothing() {
        let plan = FaultPlan::new(1, FaultConfig::default());
        for _ in 0..200 {
            assert_eq!(plan.peer_fault(), None);
            assert_eq!(plan.origin_fault(), None);
            assert_eq!(plan.proxy_fault(), None);
            assert!(!plan.restart_due());
        }
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn counts_track_draws() {
        let plan = FaultPlan::new(3, saturated());
        for _ in 0..100 {
            let _ = plan.origin_fault();
        }
        let counts = plan.counts();
        // Saturated origin table: every draw lands on some origin kind.
        let origin_total = counts.get(FaultKind::OriginError)
            + counts.get(FaultKind::OriginStall)
            + counts.get(FaultKind::OriginDrop);
        assert_eq!(origin_total, 100);
        assert!(counts.to_string().contains("origin-error="));
    }
}
