//! The proxy's request counters, defined once (DESIGN.md §9).
//!
//! The `counters!` invocation below is the one table. A row names a
//! counter, documents it, says whether it is one of the *outcome* counters
//! whose sum **is** `requests`, and where the `METRICS` exposition shows
//! it. The live atomics ([`ProxyCounters`]), the public snapshot
//! ([`ProxyStats`]), the restart baseline file, the counter families of
//! the exposition and the `HEALTH` window capture are all generated from
//! that table or iterate it, so a new counter costs one row plus its bump
//! site.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a counter appears in the `METRICS` exposition.
pub(crate) enum Family {
    /// One `tier=` sample of the labelled `baps_served_total` family.
    Served(&'static str),
    /// An unlabelled family (name, help) among the request counters.
    Plain(&'static str, &'static str),
    /// An unlabelled family (name, help) in the disk-tier section, which
    /// is emitted only when a disk tier is configured.
    Disk(&'static str, &'static str),
}

/// One row of the counter table.
pub(crate) struct CounterDef {
    /// Field name in [`ProxyStats`]; also the key in the baseline file.
    pub(crate) name: &'static str,
    /// Whether each GET bumps exactly one of these as its fate is decided
    /// (`requests` is their sum).
    pub(crate) outcome: bool,
    pub(crate) family: Family,
}

/// Row flag: one of the outcome counters that sum to `requests`.
const OUTCOME: bool = true;
/// Row flag: counts something other than a request's fate (a subset of
/// an outcome, or an event beside the request path).
const EVENT: bool = false;

macro_rules! counters {
    ($(
        $(#[$doc:meta])*
        $field:ident: $outcome:ident, $family:expr;
    )*) => {
        /// The live counters, bumped with relaxed atomics while the proxy
        /// runs.
        ///
        /// There is deliberately no `requests` cell: a request total
        /// incremented separately from the outcome counters could be read
        /// mid-request, producing snapshots where the balance identity is
        /// broken. [`ProxyCounters::snapshot`] *derives* the total
        /// instead.
        #[derive(Debug, Default)]
        pub(crate) struct ProxyCounters {
            $($(#[$doc])* pub(crate) $field: AtomicU64,)*
        }

        /// Counter snapshot ([`ProxyServer::stats`](crate::ProxyServer::stats)).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ProxyStats {
            /// GET requests completed (derived: the sum of the five
            /// outcome counters, so the balance identity holds in every
            /// snapshot).
            pub requests: u64,
            $($(#[$doc])* pub $field: u64,)*
        }

        /// The table, in row order.
        pub(crate) const COUNTERS: &[CounterDef] = &[$(CounterDef {
            name: stringify!($field),
            outcome: $outcome,
            family: { use Family::*; $family },
        },)*];

        impl ProxyCounters {
            /// Every cell, in row order.
            pub(crate) fn cells(&self) -> [&AtomicU64; N] {
                [$(&self.$field,)*]
            }
        }

        impl ProxyStats {
            /// Every counter (not the derived `requests`), in row order.
            pub(crate) fn values(&self) -> [u64; N] {
                [$(self.$field,)*]
            }

            /// Inverse of [`values`](Self::values), deriving `requests`;
            /// `None` when the outcome counters do not sum within `u64`.
            pub(crate) fn from_values(values: [u64; N]) -> Option<ProxyStats> {
                let [$($field,)*] = values;
                let mut requests = 0u64;
                for (def, value) in COUNTERS.iter().zip(values) {
                    if def.outcome {
                        requests = requests.checked_add(value)?;
                    }
                }
                Some(ProxyStats { requests, $($field,)* })
            }
        }
    };
}

counters! {
    /// Served from the proxy's in-memory cache.
    proxy_hits: OUTCOME, Served("proxy");
    /// Served from the proxy's disk tier (fresh or revalidated).
    disk_hits: OUTCOME, Served("disk");
    /// Served from a peer browser cache.
    peer_hits: OUTCOME, Served("peer");
    /// Fetched from the origin.
    origin_fetches: OUTCOME, Served("origin");
    /// GET requests answered with an error (404 or 5xx) instead of a
    /// document.
    errors: OUTCOME, Plain(
        "baps_errors_total",
        "GET requests answered with an error (404/5xx).",
    );
    /// Eviction notices applied to the browser index. Counted only when
    /// the notice actually removed an entry, so a notice replayed by a
    /// reconnecting client (delivered, but the reply was lost) counts
    /// exactly once.
    invalidations: EVENT, Plain(
        "baps_invalidations_total",
        "INVALIDATE messages processed (incl. piggybacked evictions).",
    );
    /// Peer probes that failed (connection refused / GONE / bad reply).
    peer_failures: EVENT, Plain(
        "baps_peer_failures_total",
        "Peer probes that failed (refused, GONE, bad reply).",
    );
    /// Requests where the browser index offered candidates but every
    /// probe failed, so the request degraded to the origin path.
    peer_fallbacks: EVENT, Plain(
        "baps_peer_fallbacks_total",
        "Requests that degraded from the peer path to the origin.",
    );
    /// Concurrent misses for the same document that were coalesced onto
    /// another request's in-flight fetch instead of fetching themselves
    /// (the thundering-herd guard). Followers are counted under
    /// `proxy_hits` (success) or `errors` (broadcast failure); this is
    /// the diagnostic overlay saying how many of those were coalesced,
    /// outside the balance identity.
    coalesced_fetches: EVENT, Plain(
        "baps_coalesced_fetches_total",
        "Misses coalesced onto another request's in-flight fetch.",
    );
    /// Disk-tier serves that required a `304 Not Modified` revalidation
    /// round trip first (a subset of `disk_hits`).
    disk_revalidations: EVENT, Disk(
        "baps_disk_revalidations_total",
        "Stale disk entries revalidated via 304 Not Modified.",
    );
}

/// Rows in the table.
const N: usize = COUNTERS.len();

impl ProxyCounters {
    /// A consistent snapshot: each counter is read exactly once and the
    /// request total is derived from the outcome counters, so `requests
    /// == proxy_hits + disk_hits + peer_hits + origin_fetches + errors`
    /// holds in the result even while workers are mid-flight.
    pub(crate) fn snapshot(&self) -> ProxyStats {
        ProxyStats::from_values(self.cells().map(|c| c.load(Ordering::Relaxed)))
            .expect("live counters start at zero and move by one")
    }
}

impl ProxyStats {
    /// Every counter with its table row, in row order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> {
        COUNTERS.iter().zip(self.values())
    }

    /// Field-wise sum with a persisted pre-restart baseline. Both addends
    /// satisfy the balance identity (each derives `requests` from its own
    /// outcome counters), so the sum does too — restart-surviving totals
    /// stay monotonic *and* balanced. A baseline so large that a sum
    /// leaves `u64` (only a corrupt file can hold one) is ignored.
    pub fn offset_by(self, base: &ProxyStats) -> ProxyStats {
        let mut sum = self.values();
        for (total, add) in sum.iter_mut().zip(base.values()) {
            let Some(folded) = total.checked_add(add) else {
                return self;
            };
            *total = folded;
        }
        ProxyStats::from_values(sum).unwrap_or(self)
    }
}

/// File beside the disk tier holding the cumulative counter totals of
/// previous proxy incarnations (plain `key=value` lines).
const BASELINE_FILE: &str = "counters.baseline";

/// Writes the cumulative counters as `key=value` lines. `requests` is not
/// written — it is derived on load, preserving the balance identity.
pub(crate) fn persist_baseline(root: &Path, s: &ProxyStats) {
    let text: String = s
        .counters()
        .map(|(def, value)| format!("{}={value}\n", def.name))
        .collect();
    let _ = std::fs::write(root.join(BASELINE_FILE), text);
}

/// Loads the persisted counter baseline; unknown keys are skipped and a
/// missing or garbled file yields zeros — as does one whose outcome
/// counters overflow their sum — so a corrupt baseline degrades to a
/// counter reset, never a failed start.
pub(crate) fn load_baseline(root: &Path) -> ProxyStats {
    let mut values = [0u64; N];
    if let Ok(text) = std::fs::read_to_string(root.join(BASELINE_FILE)) {
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let Ok(value) = value.trim().parse::<u64>() else {
                continue;
            };
            if let Some(i) = COUNTERS.iter().position(|def| def.name == key.trim()) {
                values[i] = value;
            }
        }
    }
    ProxyStats::from_values(values).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("baps-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        root
    }

    /// The snapshot derives `requests` from the outcome counters, so the
    /// balance identity can never be observed broken.
    #[test]
    fn snapshot_balances_by_construction() {
        let c = ProxyCounters::default();
        c.proxy_hits.fetch_add(3, Ordering::Relaxed);
        c.disk_hits.fetch_add(4, Ordering::Relaxed);
        c.peer_hits.fetch_add(2, Ordering::Relaxed);
        c.origin_fetches.fetch_add(5, Ordering::Relaxed);
        c.errors.fetch_add(1, Ordering::Relaxed);
        c.coalesced_fetches.fetch_add(9, Ordering::Relaxed);
        assert_eq!(c.snapshot().requests, 15);
    }

    /// The persisted baseline round-trips through the key=value file and
    /// folds into snapshots without breaking the balance identity.
    #[test]
    fn baseline_roundtrip_preserves_balance() {
        let root = temp_root("baseline");
        let before = ProxyStats {
            requests: 10,
            proxy_hits: 4,
            disk_hits: 2,
            disk_revalidations: 1,
            peer_hits: 1,
            origin_fetches: 3,
            invalidations: 7,
            peer_failures: 2,
            peer_fallbacks: 1,
            errors: 0,
            coalesced_fetches: 6,
        };
        persist_baseline(&root, &before);
        // A baseline written before a counter was retired still names it:
        // the unknown key is skipped, the rest loads.
        let file = root.join(BASELINE_FILE);
        let text = std::fs::read_to_string(&file).unwrap() + "direct_pushes=1\n";
        std::fs::write(&file, text).unwrap();
        let loaded = load_baseline(&root);
        assert_eq!(loaded, before);
        let c = ProxyCounters::default();
        c.proxy_hits.fetch_add(5, Ordering::Relaxed);
        c.errors.fetch_add(1, Ordering::Relaxed);
        let total = c.snapshot().offset_by(&loaded);
        assert_eq!(total.requests, 16);
        assert_eq!(
            total.requests,
            total.proxy_hits
                + total.disk_hits
                + total.peer_hits
                + total.origin_fetches
                + total.errors
        );
        // A missing file is a zero baseline, not an error.
        let empty = load_baseline(&root.join("nope"));
        assert_eq!(empty, ProxyStats::default());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A baseline whose values are each a valid `u64` but whose sums are
    /// not (the file is never fsynced, so garbage is possible) loads as
    /// zeros and folds as zeros: no panic at start, no wrapped totals.
    #[test]
    fn overflowing_baseline_degrades_to_zeros() {
        let root = temp_root("baseline-overflow");
        let half = u64::MAX / 2;
        std::fs::write(
            root.join(BASELINE_FILE),
            format!("proxy_hits={half}\ndisk_hits={half}\npeer_hits={half}\n"),
        )
        .unwrap();
        assert_eq!(load_baseline(&root), ProxyStats::default());
        let _ = std::fs::remove_dir_all(&root);

        // Loadable, but no live count can be added to it.
        let base = ProxyStats {
            invalidations: u64::MAX,
            ..ProxyStats::default()
        };
        let live = ProxyCounters::default();
        live.invalidations.fetch_add(1, Ordering::Relaxed);
        live.proxy_hits.fetch_add(2, Ordering::Relaxed);
        assert_eq!(live.snapshot().offset_by(&base), live.snapshot());
    }
}
