//! Core trace data model: requests and traces.
//!
//! A [`Trace`] is a time-ordered sequence of [`Request`]s issued by a set of
//! clients against a universe of documents. Documents are identified by a
//! dense [`DocId`] obtained by interning URLs; clients by a dense
//! [`ClientId`]; both, and the [`Interner`], are `baps-core`'s, re-exported
//! here. Every request carries the size of the document *as observed by that
//! request*, so document-change events (the paper counts a request whose
//! size differs from the cached copy as a miss) are representable.

use std::collections::HashMap;

pub use baps_core::{ClientId, DocId, Interner};

/// A single Web request record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Milliseconds since the start of the trace.
    pub time_ms: u64,
    /// The client that issued the request.
    pub client: ClientId,
    /// The requested document.
    pub doc: DocId,
    /// Size in bytes of the document as returned to this request.
    pub size: u32,
}

/// A complete, time-ordered request trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Human-readable trace name (e.g. `"NLANR-uc"`).
    pub name: String,
    /// Requests sorted by `time_ms` (ties keep input order).
    pub requests: Vec<Request>,
    /// Number of distinct clients; all `ClientId`s are `< n_clients`.
    pub n_clients: u32,
    /// Number of distinct documents; all `DocId`s are `< n_docs`.
    pub n_docs: u32,
}

impl Trace {
    /// Creates an empty trace with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            requests: Vec::new(),
            n_clients: 0,
            n_docs: 0,
        }
    }

    /// Number of requests in the trace.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace contains no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests in time order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> + '_ {
        self.requests.iter()
    }

    /// Appends a request, growing the client/document universe as needed.
    pub fn push(&mut self, req: Request) {
        self.n_clients = self.n_clients.max(req.client.0 + 1);
        self.n_docs = self.n_docs.max(req.doc.0 + 1);
        self.requests.push(req);
    }

    /// Sorts requests by timestamp (stable: ties keep insertion order).
    pub fn sort_by_time(&mut self) {
        self.requests.sort_by_key(|r| r.time_ms);
    }

    /// Total bytes requested across all requests.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.size as u64).sum()
    }

    /// Returns a copy of the trace restricted to the given clients,
    /// with client ids renumbered densely in ascending order of the old ids.
    ///
    /// Used by the client-scaling experiment (paper Fig. 8): the document
    /// universe is left untouched so document ids remain comparable.
    pub fn restrict_clients(&self, keep: &[ClientId]) -> Trace {
        let mut renumber: HashMap<ClientId, ClientId> = HashMap::with_capacity(keep.len());
        let mut sorted = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (new, old) in sorted.iter().enumerate() {
            renumber.insert(*old, ClientId(new as u32));
        }
        let requests: Vec<Request> = self
            .requests
            .iter()
            .filter_map(|r| {
                renumber.get(&r.client).map(|&c| Request {
                    time_ms: r.time_ms,
                    client: c,
                    doc: r.doc,
                    size: r.size,
                })
            })
            .collect();
        Trace {
            name: format!("{}[{}c]", self.name, sorted.len()),
            requests,
            n_clients: sorted.len() as u32,
            n_docs: self.n_docs,
        }
    }

    /// The set of distinct clients that actually issued at least one request.
    pub fn active_clients(&self) -> Vec<ClientId> {
        let mut seen = vec![false; self.n_clients as usize];
        for r in &self.requests {
            seen[r.client.index()] = true;
        }
        (0..self.n_clients)
            .filter(|&i| seen[i as usize])
            .map(ClientId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, c: u32, d: u32, s: u32) -> Request {
        Request {
            time_ms: t,
            client: ClientId(c),
            doc: DocId(d),
            size: s,
        }
    }

    #[test]
    fn push_grows_universe() {
        let mut t = Trace::new("t");
        t.push(req(0, 3, 7, 100));
        assert_eq!(t.n_clients, 4);
        assert_eq!(t.n_docs, 8);
        t.push(req(1, 1, 9, 50));
        assert_eq!(t.n_clients, 4);
        assert_eq!(t.n_docs, 10);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn total_bytes_sums_sizes() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 100));
        t.push(req(1, 0, 1, 250));
        assert_eq!(t.total_bytes(), 350);
    }

    #[test]
    fn restrict_clients_renumbers_densely() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 10));
        t.push(req(1, 2, 1, 20));
        t.push(req(2, 4, 0, 10));
        let r = t.restrict_clients(&[ClientId(4), ClientId(2)]);
        assert_eq!(r.n_clients, 2);
        assert_eq!(r.len(), 2);
        // ClientId(2) -> 0, ClientId(4) -> 1 (ascending renumber).
        assert_eq!(r.requests[0].client, ClientId(0));
        assert_eq!(r.requests[1].client, ClientId(1));
        // Document universe untouched.
        assert_eq!(r.n_docs, t.n_docs);
    }

    #[test]
    fn restrict_clients_dedups_keep_list() {
        let mut t = Trace::new("t");
        t.push(req(0, 1, 0, 10));
        let r = t.restrict_clients(&[ClientId(1), ClientId(1)]);
        assert_eq!(r.n_clients, 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn active_clients_skips_silent_ids() {
        let mut t = Trace::new("t");
        t.push(req(0, 0, 0, 10));
        t.push(req(1, 5, 0, 10));
        assert_eq!(t.active_clients(), vec![ClientId(0), ClientId(5)]);
    }

    #[test]
    fn sort_by_time_is_stable() {
        let mut t = Trace::new("t");
        t.push(req(5, 0, 0, 1));
        t.push(req(1, 1, 1, 2));
        t.push(req(5, 2, 2, 3));
        t.sort_by_time();
        assert_eq!(t.requests[0].client, ClientId(1));
        assert_eq!(t.requests[1].client, ClientId(0));
        assert_eq!(t.requests[2].client, ClientId(2));
    }
}
