//! Per-request trace ids.
//!
//! A [`TraceId`] is minted by the requesting `ClientAgent` (one per
//! `fetch`, shared by its retries) and travels in the `Trace-Id` header of
//! every hop the request takes — GET to the proxy, PEERGET to a holder,
//! GET to the origin — so one request can be followed through the
//! flight-recorder events of every component it touched.

use std::fmt;
use std::str::FromStr;

/// Bits of a [`TraceId`] carrying the per-client sequence number.
const SEQ_BITS: u32 = 40;

/// A request trace id: the minting client in the high 24 bits, a
/// per-client sequence below, rendered as 16 hex digits on the wire.
/// `TraceId(0)` is the reserved "no trace" value for events recorded
/// outside any request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no trace" placeholder.
    pub const NONE: TraceId = TraceId(0);

    /// Mints the id for `client`'s `seq`-th request. The `client + 1`
    /// offset keeps even client 0's first request distinct from
    /// [`TraceId::NONE`].
    pub fn mint(client: u32, seq: u64) -> TraceId {
        TraceId(((client as u64 + 1) << SEQ_BITS) | (seq & ((1 << SEQ_BITS) - 1)))
    }

    /// Whether this is the [`TraceId::NONE`] placeholder.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The client that minted this id (`None` for [`TraceId::NONE`]).
    pub fn client(self) -> Option<u32> {
        ((self.0 >> SEQ_BITS) as u32).checked_sub(1)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for TraceId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<TraceId, Self::Err> {
        u64::from_str_radix(s, 16).map(TraceId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_injective_across_clients_and_seqs() {
        let mut seen = std::collections::HashSet::new();
        for client in [0, 1, 5, 1000] {
            for seq in [0, 1, 2, 999, (1u64 << SEQ_BITS) - 1] {
                assert!(seen.insert(TraceId::mint(client, seq)));
            }
        }
        assert!(!seen.contains(&TraceId::NONE));
    }

    #[test]
    fn display_parse_roundtrip() {
        for t in [TraceId::NONE, TraceId::mint(0, 0), TraceId::mint(7, 42)] {
            let s = t.to_string();
            assert_eq!(s.len(), 16);
            assert_eq!(s.parse::<TraceId>().unwrap(), t);
        }
        assert!("not-hex".parse::<TraceId>().is_err());
    }

    #[test]
    fn client_recovered_from_id() {
        assert_eq!(TraceId::mint(3, 77).client(), Some(3));
        assert_eq!(TraceId::NONE.client(), None);
    }
}
