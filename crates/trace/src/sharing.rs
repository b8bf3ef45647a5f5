//! Sharable-locality analysis: the paper's headline question is "how much
//! browser cache data is sharable?" — these statistics answer it directly
//! from the trace, independent of any cache configuration.
//!
//! A document is *shared* when more than one client requests it; a request
//! is a *cross-client re-reference* when its document was previously
//! requested by a different client (an upper bound on what any
//! peer-sharing scheme — proxy or browsers-aware — can serve from another
//! client's history). The browsers-aware design specifically harvests
//! cross-client re-references whose previous requester still holds the
//! document after the proxy lost it.

use crate::types::Trace;
use std::collections::HashMap;

/// Sharing statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingStats {
    /// Number of distinct documents requested by exactly one client.
    pub private_docs: u64,
    /// Number of distinct documents requested by 2..=5 clients.
    pub group_docs: u64,
    /// Number of distinct documents requested by more than 5 clients.
    pub popular_docs: u64,
    /// Requests whose document had previously been requested by a
    /// *different* client.
    pub cross_client_rerefs: u64,
    /// Bytes of those cross-client re-references.
    pub cross_client_bytes: u64,
    /// Requests whose document had previously been requested by the *same*
    /// client (self re-references; local browser-cache territory).
    pub self_rerefs: u64,
    /// Total requests.
    pub requests: u64,
    /// Total bytes.
    pub total_bytes: u64,
    /// Mean number of distinct clients per shared (2+ client) document.
    pub mean_sharers: f64,
}

impl SharingStats {
    /// Computes sharing statistics in one pass.
    pub fn compute(trace: &Trace) -> SharingStats {
        // Per-doc: set of clients seen so far (small vecs; most docs are
        // touched by few clients).
        let mut seen: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut cross_client_rerefs = 0u64;
        let mut cross_client_bytes = 0u64;
        let mut self_rerefs = 0u64;
        let mut total_bytes = 0u64;

        for r in trace.iter() {
            total_bytes += r.size as u64;
            let clients = seen.entry(r.doc.0).or_default();
            if !clients.is_empty() {
                if clients.contains(&r.client.0) {
                    if clients.len() == 1 {
                        self_rerefs += 1;
                    } else {
                        // Doc known to this client *and* others: count as a
                        // cross-client re-reference opportunity.
                        cross_client_rerefs += 1;
                        cross_client_bytes += r.size as u64;
                    }
                } else {
                    cross_client_rerefs += 1;
                    cross_client_bytes += r.size as u64;
                }
            }
            if !clients.contains(&r.client.0) {
                clients.push(r.client.0);
            }
        }

        let mut private_docs = 0u64;
        let mut group_docs = 0u64;
        let mut popular_docs = 0u64;
        let mut sharer_sum = 0u64;
        let mut shared_count = 0u64;
        for clients in seen.values() {
            match clients.len() {
                1 => private_docs += 1,
                2..=5 => {
                    group_docs += 1;
                    sharer_sum += clients.len() as u64;
                    shared_count += 1;
                }
                _ => {
                    popular_docs += 1;
                    sharer_sum += clients.len() as u64;
                    shared_count += 1;
                }
            }
        }

        SharingStats {
            private_docs,
            group_docs,
            popular_docs,
            cross_client_rerefs,
            cross_client_bytes,
            self_rerefs,
            requests: trace.len() as u64,
            total_bytes,
            mean_sharers: if shared_count == 0 {
                0.0
            } else {
                sharer_sum as f64 / shared_count as f64
            },
        }
    }

    /// Distinct documents.
    pub fn unique_docs(&self) -> u64 {
        self.private_docs + self.group_docs + self.popular_docs
    }

    /// Cross-client re-references as a percentage of all requests: the
    /// upper bound on any peer-sharing hit ratio.
    pub fn sharable_request_pct(&self) -> f64 {
        pct(self.cross_client_rerefs, self.requests)
    }

    /// Cross-client re-referenced bytes as a percentage of all bytes.
    pub fn sharable_byte_pct(&self) -> f64 {
        pct(self.cross_client_bytes, self.total_bytes)
    }

    /// Shared (2+ client) documents as a percentage of distinct documents.
    pub fn shared_doc_pct(&self) -> f64 {
        pct(self.group_docs + self.popular_docs, self.unique_docs())
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;
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
    fn classification_counts() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 100)); // doc 0: first sight
        t.push(req(1, 1, 0, 100)); // cross-client reref
        t.push(req(2, 0, 1, 50)); // doc 1: private to client 0
        t.push(req(3, 0, 1, 50)); // self reref
        t.push(req(4, 0, 0, 100)); // doc 0 shared by {0,1}: cross-client
        let s = SharingStats::compute(&t);
        assert_eq!(s.requests, 5);
        assert_eq!(s.cross_client_rerefs, 2);
        assert_eq!(s.self_rerefs, 1);
        assert_eq!(s.private_docs, 1);
        assert_eq!(s.group_docs, 1);
        assert_eq!(s.popular_docs, 0);
        assert!((s.mean_sharers - 2.0).abs() < 1e-9);
        assert!((s.sharable_request_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn popular_docs_bucket() {
        let mut t = Trace::new("t");
        for c in 0..7 {
            t.push(req(c as u64, c, 0, 10));
        }
        let s = SharingStats::compute(&t);
        assert_eq!(s.popular_docs, 1);
        assert_eq!(s.group_docs, 0);
        assert_eq!(s.cross_client_rerefs, 6);
        assert!((s.mean_sharers - 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let s = SharingStats::compute(&Trace::new("e"));
        assert_eq!(s.requests, 0);
        assert_eq!(s.sharable_request_pct(), 0.0);
        assert_eq!(s.shared_doc_pct(), 0.0);
    }

    #[test]
    fn private_pool_docs_never_shared() {
        // The generator's private pools must show up as private docs only.
        let cfg = SynthConfig::small().scaled(0.2);
        let t = cfg.generate(21);
        let private_total = ((cfg.n_docs as f64) * cfg.private_frac) as u32;
        let private_base = cfg.n_docs - private_total;
        let mut seen: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in t.iter() {
            if r.doc.0 >= private_base {
                let v = seen.entry(r.doc.0).or_default();
                if !v.contains(&r.client.0) {
                    v.push(r.client.0);
                }
            }
        }
        assert!(seen.values().all(|v| v.len() == 1));
    }

    #[test]
    fn synthetic_trace_has_sharable_locality() {
        let t = SynthConfig::small().scaled(0.3).generate(22);
        let s = SharingStats::compute(&t);
        assert!(
            s.sharable_request_pct() > 10.0,
            "{}",
            s.sharable_request_pct()
        );
        assert!(s.shared_doc_pct() > 1.0);
        assert!(s.unique_docs() > 0);
    }
}
