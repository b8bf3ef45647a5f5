//! Prometheus rendering for the `METRICS BAPS/1.0` verb.
//!
//! One scrape covers the whole proxy: request counters (one consistent
//! snapshot, its families taken from the table in `counters.rs`, so
//! `baps_requests_total` always equals the sum of `baps_served_total` +
//! `baps_errors_total`), cache, disk-tier, and
//! index occupancy with per-shard gauges, the per-tier and per-verb
//! latency histograms, and the flight recorder's fill level. Every series
//! is cumulative or a gauge of the moment: the proxy keeps no windows and
//! judges nothing. A reader differences two scrapes into rates,
//! windowed quantiles and SLO verdicts (`baps_bench::health`). The
//! exposition format and bucket layout are documented in DESIGN.md §9,
//! the reader-side contract in §14.
//!
//! The request counters (the families of `counters.rs`'s table) are
//! **restart-surviving**: the snapshot folds in the counter baseline
//! persisted beside the disk tier, so a scraper sees them monotonic
//! across a proxy restart instead of a reset to zero (DESIGN.md §10).
//! Every other counter and every histogram starts again at zero with the
//! new incarnation.

use crate::counters::Family;
use crate::proxy::ProxyState;
use crate::upstream::UPSTREAM_LABELS;
use baps_obs::prom::PromText;

/// Minor page faults this process has taken: field 10 of
/// `/proc/self/stat`, 0 where the file cannot be read.
pub(crate) fn process_minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2, the command name, is parenthesised and may hold spaces;
    // field 3 starts after its closing parenthesis.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0)
}

/// Renders the full exposition for `state`, after reading the process's
/// minor faults, so they are as of the scrape.
pub(crate) fn render(state: &ProxyState) -> String {
    state.note_minor_faults();
    let mut out = PromText::new();

    // Who is answering: the crate version, the document-digest kernel
    // every body byte goes through (`md5_kernel`: its lanes are MD5 chains)
    // and the CRC32C kernel every disk read is checked by, as
    // an info-style gauge (constant 1), plus seconds since this incarnation
    // started — the standard pair scrapers use to detect restarts and
    // correlate a deploy with a metric shift.
    out.header(
        "baps_build_info",
        "gauge",
        "Build/runtime identity of the serving proxy (value is always 1).",
    );
    out.sample(
        "baps_build_info",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("md5_kernel", baps_crypto::md5::kernel()),
            ("crc32c_kernel", baps_crypto::crc32c::kernel()),
        ],
        1.0,
    );
    out.gauge(
        "baps_uptime_seconds",
        "Seconds since this proxy incarnation started.",
        state.started.elapsed().as_secs() as f64,
    );

    // Request counters: one consistent snapshot (baseline included), so
    // the balance identity (requests = served tiers + errors) holds
    // inside every scrape.
    let s = state.stats();
    out.counter(
        "baps_requests_total",
        "GET requests completed (sum of served tiers plus errors).",
        s.requests,
    );
    out.header(
        "baps_served_total",
        "counter",
        "GET requests served, by serve tier.",
    );
    for (def, value) in s.counters() {
        if let Family::Served(tier) = def.family {
            out.sample("baps_served_total", &[("tier", tier.label())], value as f64);
        }
    }
    for (def, value) in s.counters() {
        if let Family::Plain(name, help) = def.family {
            out.counter(name, help, value);
        }
    }

    // Proxy cache: occupancy plus hit/eviction counters from the body cache
    // itself, then its lock's tallies (one series: the tier is one LRU).
    let cache = state.cache.stats();
    out.gauge(
        "baps_cache_bytes",
        "Body bytes held by the proxy cache.",
        state.cache.used() as f64,
    );
    out.gauge(
        "baps_cache_entries",
        "Documents held by the proxy cache.",
        state.cache.entries() as f64,
    );
    out.counter(
        "baps_cache_hits_total",
        "Proxy cache lookups that hit.",
        cache.hits,
    );
    out.counter(
        "baps_cache_misses_total",
        "Proxy cache lookups that missed.",
        cache.misses,
    );
    out.counter(
        "baps_cache_inserts_total",
        "Documents inserted into the proxy cache.",
        cache.inserts,
    );
    out.counter(
        "baps_cache_evictions_total",
        "Documents evicted to make room.",
        cache.evictions,
    );
    out.counter(
        "baps_cache_evicted_bytes_total",
        "Body bytes evicted to make room.",
        cache.evicted_bytes,
    );
    shard_series(
        &mut out,
        "baps_cache_shard",
        &state.cache.shard_stats(),
        true,
    );

    // Persistent disk tier (series present only when configured, like a
    // real exporter omitting an absent subsystem).
    if let Some(disk) = &state.disk {
        let d = disk.stats();
        out.gauge(
            "baps_disk_bytes",
            "Body bytes held by the disk tier.",
            d.bytes as f64,
        );
        out.gauge(
            "baps_disk_entries",
            "Documents held by the disk tier.",
            d.entries as f64,
        );
        out.gauge(
            "baps_disk_file_bytes",
            "Bytes of the disk tier's segment files (live entries plus dead space not yet cleaned).",
            d.file_bytes as f64,
        );
        out.gauge(
            "baps_disk_segments",
            "Segment files the disk tier holds open, the head included.",
            d.segments as f64,
        );
        out.counter(
            "baps_disk_reads_fresh_total",
            "Disk reads that returned a verified, fresh document.",
            d.hits,
        );
        out.counter(
            "baps_disk_reads_stale_total",
            "Disk reads that returned a verified but TTL-expired document.",
            d.stale,
        );
        out.counter(
            "baps_disk_reads_offloaded_total",
            "Disk reads an event loop left to the executor (cold, oversized, unsupported or failing a check).",
            d.reads_offloaded,
        );
        for (def, value) in s.counters() {
            if let Family::Disk(name, help) = def.family {
                out.counter(name, help, value);
            }
        }
        out.counter(
            "baps_disk_writes_total",
            "Documents written through to the disk tier.",
            d.writes,
        );
        out.counter(
            "baps_disk_written_bytes_total",
            "Body bytes written through to the disk tier.",
            d.write_bytes,
        );
        out.counter(
            "baps_disk_cleaned_bytes_total",
            "Entry bytes the cleaner re-appended to free a segment.",
            d.cleaned_bytes,
        );
        out.counter(
            "baps_disk_heals_total",
            "Torn/corrupt disk entries detected by verification and tombstoned.",
            d.heals,
        );
        out.counter(
            "baps_disk_evictions_total",
            "Disk-tier entries evicted by the byte budget.",
            d.evictions,
        );
        out.counter(
            "baps_disk_io_errors_total",
            "Disk-tier filesystem operations that failed (best-effort).",
            d.io_errors,
        );
    }

    // Upstream connections: when reuse works, dials stay far below the
    // exchanges made (dials{upstream="peer"} ≈ peer hits means every
    // probe is paying a connection set-up again).
    let up = state.reactor.upstream();
    let by_kind = |out: &mut PromText, family: &str, kind: &str, help: &str, values: [u64; 2]| {
        out.header(family, kind, help);
        for (label, value) in UPSTREAM_LABELS.iter().zip(values) {
            out.sample(family, &[("upstream", label)], value as f64);
        }
    };
    by_kind(
        &mut out,
        "baps_upstream_dials_total",
        "counter",
        "Upstream connections established, by kind of upstream.",
        up.dials,
    );
    by_kind(
        &mut out,
        "baps_upstream_reuses_total",
        "counter",
        "Upstream exchanges sent on a kept-alive connection, by kind of upstream.",
        up.reuses,
    );
    out.counter(
        "baps_upstream_stale_total",
        "Idle kept-alive upstream connections an event loop saw closed or out of sync.",
        up.stale,
    );
    by_kind(
        &mut out,
        "baps_upstream_idle_connections",
        "gauge",
        "Upstream connections idle on the event loops right now, by kind of upstream.",
        up.idle,
    );

    // Browser index.
    let idx = state.index.stats();
    out.gauge(
        "baps_index_entries",
        "(client, doc) entries in the browser index.",
        state.index.entries() as f64,
    );
    out.counter(
        "baps_index_lookups_total",
        "Browser-index lookups performed.",
        idx.lookups,
    );
    out.counter(
        "baps_index_hits_total",
        "Lookups that returned at least one candidate holder.",
        idx.index_hits,
    );
    out.counter(
        "baps_index_updates_total",
        "Index updates applied (stores + evictions).",
        idx.updates,
    );
    out.gauge(
        "baps_index_hit_ratio",
        "Fraction of lookups that found a candidate holder.",
        idx.hit_ratio(),
    );
    shard_series(
        &mut out,
        "baps_index_shard",
        &state.index.shard_stats(),
        false,
    );

    // Flight recorder fill level.
    out.gauge(
        "baps_flight_recorder_events",
        "Events currently held by the flight-recorder ring.",
        state.obs.recorder.len() as f64,
    );
    out.counter(
        "baps_flight_recorder_dropped_total",
        "Events dropped: displaced because the ring was full, or shed under stripe-lock contention.",
        state.obs.recorder.dropped(),
    );
    out.counter(
        "baps_flight_recorder_shed_total",
        "Events shed under stripe-lock contention (a full ring displacing its oldest event is not shed).",
        state.obs.recorder.shed(),
    );

    // Executor saturation: a job queues only while no executor thread is
    // free, so a depth above 0 and the wait's tail say how saturated.
    let r = state.reactor.snapshot();
    out.gauge(
        "baps_queue_depth",
        "Jobs currently queued for the executor (disk-tier writes, deferred reads, purges).",
        r.queue_depth as f64,
    );
    out.gauge(
        "baps_queue_depth_peak",
        "Deepest the executor queue has been since start.",
        r.queue_depth_peak as f64,
    );
    out.counter(
        "baps_queue_rejected_total",
        "Jobs no executor thread could take (shutting down, or none could be spawned).",
        r.rejected,
    );
    out.gauge(
        "baps_flight_registry_occupancy",
        "In-flight coalescing entries open right now.",
        state.inflight_occupancy() as f64,
    );
    out.header(
        "baps_queue_wait_ms",
        "histogram",
        "Time jobs spent queued for the executor, milliseconds.",
    );
    out.histogram("baps_queue_wait_ms", &[], &r.queue_wait);

    // Event-loop saturation: registered connections, ready-batch depth,
    // loop busy-fraction, inline vs offloaded dispatches.
    out.gauge(
        "baps_reactor_event_loops",
        "Event loops serving client connections.",
        r.loops as f64,
    );
    out.gauge(
        "baps_reactor_registered_fds",
        "Connections currently registered with the event loops.",
        r.registered_fds as f64,
    );
    out.gauge(
        "baps_reactor_registered_fds_peak",
        "Most connections simultaneously registered since start.",
        r.registered_fds_peak as f64,
    );
    out.gauge(
        "baps_reactor_ready_batch_peak",
        "Most ready events one epoll_wait returned at once.",
        r.ready_batch_peak as f64,
    );
    out.counter(
        "baps_reactor_ready_events_total",
        "Readiness events delivered to the event loops.",
        r.ready_events,
    );
    out.counter(
        "baps_reactor_wakeups_total",
        "Eventfd wakeups (new connections, executor completions, follower wake-ups).",
        r.wakeups,
    );
    out.counter(
        "baps_reactor_inline_dispatch_total",
        "Requests answered inline on an event loop.",
        r.inline_served,
    );
    out.counter(
        "baps_reactor_offloaded_dispatch_total",
        "Requests handed to the blocking executor (disk tier only).",
        r.offloaded,
    );
    out.gauge(
        "baps_reactor_upstream_exchanges",
        "Upstream exchanges in flight on the event loops right now.",
        r.exchanges_in_flight as f64,
    );
    out.gauge(
        "baps_reactor_parked_requests",
        "Requests parked on the event loops (coalesced followers, retry back-offs).",
        r.parked_requests as f64,
    );
    out.gauge(
        "baps_reactor_busy_fraction",
        "Fraction of wall time the loops spent processing events.",
        r.busy_fraction,
    );

    // Latency histograms: answered GETs by serve tier (tail buckets
    // annotated with OpenMetrics-style exemplar trace ids, resolvable
    // via `TRACE BAPS/1.0`), and every dispatched message by verb.
    out.header(
        "baps_request_latency_ms",
        "histogram",
        "GET serve latency by tier, milliseconds.",
    );
    for (label, h, exemplars) in state.obs.tiers.iter_with_exemplars() {
        out.histogram_with_exemplars(
            "baps_request_latency_ms",
            &[("tier", label)],
            &h,
            &exemplars,
        );
    }
    out.header(
        "baps_verb_latency_ms",
        "histogram",
        "Dispatch latency by protocol verb, milliseconds.",
    );
    for (label, h) in state.obs.verbs.iter() {
        out.histogram("baps_verb_latency_ms", &[("verb", label)], &h);
    }
    out.finish()
}

/// Per-shard gauge/counter series under `prefix` (`…_entries`, `…_bytes`
/// for caches, `…_lock_acquires_total`, `…_lock_wait_micros_total`).
fn shard_series(
    out: &mut PromText,
    prefix: &str,
    shards: &[crate::shard::ShardStats],
    with_bytes: bool,
) {
    let entries = format!("{prefix}_entries");
    out.header(&entries, "gauge", "Entries held, by shard.");
    for (i, st) in shards.iter().enumerate() {
        let shard = i.to_string();
        out.sample(&entries, &[("shard", &shard)], st.entries as f64);
    }
    if with_bytes {
        let bytes = format!("{prefix}_bytes");
        out.header(&bytes, "gauge", "Body bytes held, by shard.");
        for (i, st) in shards.iter().enumerate() {
            let shard = i.to_string();
            out.sample(&bytes, &[("shard", &shard)], st.bytes as f64);
        }
    }
    let acquires = format!("{prefix}_lock_acquires_total");
    out.header(&acquires, "counter", "Shard lock acquisitions.");
    for (i, st) in shards.iter().enumerate() {
        let shard = i.to_string();
        out.sample(&acquires, &[("shard", &shard)], st.lock_acquires as f64);
    }
    let wait = format!("{prefix}_lock_wait_micros_total");
    out.header(
        &wait,
        "counter",
        "Cumulative microseconds spent waiting for the shard lock.",
    );
    for (i, st) in shards.iter().enumerate() {
        let shard = i.to_string();
        out.sample(&wait, &[("shard", &shard)], st.lock_wait_micros as f64);
    }
}
