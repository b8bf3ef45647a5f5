//! Trace characterisation: the quantities reported in the paper's Table 1.
//!
//! *Infinite cache size* is the total size needed to store every unique
//! requested document (using each document's latest observed size). The
//! *maximum hit ratio* (resp. *maximum byte hit ratio*) is the hit ratio an
//! infinitely large shared cache would achieve: a request hits iff its
//! document was requested before **and** its size has not changed since the
//! previous request (the paper counts size-changed documents as misses).

use crate::types::{ClientId, Trace};
use std::collections::HashMap;

/// Summary statistics of a trace (the columns of the paper's Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Total number of requests.
    pub requests: u64,
    /// Total bytes transferred over all requests.
    pub total_bytes: u64,
    /// Number of unique documents requested.
    pub unique_docs: u64,
    /// Infinite cache size in bytes (sum of latest sizes of unique docs).
    pub infinite_cache_bytes: u64,
    /// Number of clients that issued at least one request.
    pub clients: u64,
    /// Hit ratio of an infinite shared cache (percent).
    pub max_hit_ratio: f64,
    /// Byte hit ratio of an infinite shared cache (percent).
    pub max_byte_hit_ratio: f64,
    /// Number of requests that observed a changed document size.
    pub size_changes: u64,
    /// Mean document size in bytes (over unique documents, latest size).
    pub mean_doc_size: f64,
    /// Mean per-client infinite browser-cache size in bytes: the average over
    /// clients of the bytes needed to hold every unique document that client
    /// requested. Used to size "average" browser caches (paper §4.2).
    pub mean_client_infinite_bytes: f64,
}

impl TraceStats {
    /// Computes the statistics of `trace` in a single pass.
    pub fn compute(trace: &Trace) -> TraceStats {
        let mut last_size: HashMap<u32, u32> = HashMap::new();
        let mut per_client_seen: HashMap<(ClientId, u32), ()> = HashMap::new();
        let mut per_client_bytes: HashMap<ClientId, u64> = HashMap::new();
        let mut client_active: HashMap<ClientId, ()> = HashMap::new();

        let mut hits = 0u64;
        let mut hit_bytes = 0u64;
        let mut total_bytes = 0u64;
        let mut size_changes = 0u64;

        for r in trace.iter() {
            total_bytes += r.size as u64;
            client_active.entry(r.client).or_insert(());
            match last_size.get(&r.doc.0).copied() {
                Some(prev) if prev == r.size => {
                    hits += 1;
                    hit_bytes += r.size as u64;
                }
                Some(_) => {
                    size_changes += 1;
                    last_size.insert(r.doc.0, r.size);
                }
                None => {
                    last_size.insert(r.doc.0, r.size);
                }
            }
            // Per-client unique footprint: count each (client, doc) pair once,
            // at its first observed size. (An approximation: size churn is
            // rare enough that it does not meaningfully move the mean.)
            if per_client_seen.insert((r.client, r.doc.0), ()).is_none() {
                *per_client_bytes.entry(r.client).or_insert(0) += r.size as u64;
            }
        }

        let requests = trace.len() as u64;
        let unique_docs = last_size.len() as u64;
        let infinite_cache_bytes: u64 = last_size.values().map(|&s| s as u64).sum();
        let clients = client_active.len() as u64;
        let mean_client_infinite_bytes = if clients == 0 {
            0.0
        } else {
            per_client_bytes.values().sum::<u64>() as f64 / clients as f64
        };

        TraceStats {
            name: trace.name.clone(),
            requests,
            total_bytes,
            unique_docs,
            infinite_cache_bytes,
            clients,
            max_hit_ratio: percent(hits, requests),
            max_byte_hit_ratio: percent(hit_bytes, total_bytes),
            size_changes,
            mean_doc_size: if unique_docs == 0 {
                0.0
            } else {
                infinite_cache_bytes as f64 / unique_docs as f64
            },
            mean_client_infinite_bytes,
        }
    }

    /// Total trace volume in gigabytes (10^9 bytes, as the paper reports).
    pub fn total_gb(&self) -> f64 {
        self.total_bytes as f64 / 1e9
    }

    /// Infinite cache size in gigabytes.
    pub fn infinite_gb(&self) -> f64 {
        self.infinite_cache_bytes as f64 / 1e9
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientId, DocId, Request};

    fn req(t: u64, c: u32, d: u32, s: u32) -> Request {
        Request {
            time_ms: t,
            client: ClientId(c),
            doc: DocId(d),
            size: s,
        }
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::compute(&Trace::new("e"));
        assert_eq!(s.requests, 0);
        assert_eq!(s.max_hit_ratio, 0.0);
        assert_eq!(s.mean_doc_size, 0.0);
    }

    #[test]
    fn repeats_are_infinite_hits() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 100));
        t.push(req(1, 1, 0, 100));
        t.push(req(2, 0, 1, 300));
        let s = TraceStats::compute(&t);
        assert_eq!(s.requests, 3);
        assert_eq!(s.unique_docs, 2);
        assert_eq!(s.infinite_cache_bytes, 400);
        // 1 hit of 3 requests.
        assert!((s.max_hit_ratio - 33.333).abs() < 0.01);
        // 100 hit bytes of 500 total.
        assert!((s.max_byte_hit_ratio - 20.0).abs() < 0.01);
        assert_eq!(s.size_changes, 0);
        assert_eq!(s.clients, 2);
    }

    #[test]
    fn size_change_is_a_miss_and_updates_footprint() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 100));
        t.push(req(1, 0, 0, 200)); // changed: miss
        t.push(req(2, 0, 0, 200)); // unchanged: hit
        let s = TraceStats::compute(&t);
        assert_eq!(s.size_changes, 1);
        assert_eq!(s.infinite_cache_bytes, 200); // latest size
        assert!((s.max_hit_ratio - 33.333).abs() < 0.01);
    }

    #[test]
    fn per_client_infinite_bytes_average() {
        let mut t = Trace::new("t");
        // Client 0 touches docs {0 (100), 1 (300)} -> 400 bytes.
        // Client 1 touches doc {0 (100)} -> 100 bytes.
        t.push(req(0, 0, 0, 100));
        t.push(req(1, 0, 1, 300));
        t.push(req(2, 1, 0, 100));
        t.push(req(3, 0, 0, 100)); // repeat, no footprint growth
        let s = TraceStats::compute(&t);
        assert!((s.mean_client_infinite_bytes - 250.0).abs() < 1e-9);
    }

    #[test]
    fn gb_helpers() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 1_000_000_000));
        let s = TraceStats::compute(&t);
        assert!((s.total_gb() - 1.0).abs() < 1e-9);
        assert!((s.infinite_gb() - 1.0).abs() < 1e-9);
    }
}
