//! Error type of the live proxy components.

use baps_crypto::CryptoError;
use std::fmt;
use std::io;

/// Failures surfaced by the live proxy, clients and origin.
#[derive(Debug)]
pub enum ProxyError {
    /// Transport failure.
    Io(io::Error),
    /// The peer spoke the protocol incorrectly.
    Protocol(String),
    /// The document was not found at the origin.
    NotFound(String),
    /// Integrity verification failed even after bypassing peers.
    Integrity(CryptoError),
    /// A socket read/write deadline expired (stalled peer). Retryable.
    Timeout,
    /// The proxy answered 5xx (origin unreachable after its own retries).
    /// Retryable; carries the status code.
    Unavailable(u16),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Io(e) => write!(f, "io error: {e}"),
            ProxyError::Protocol(m) => write!(f, "protocol error: {m}"),
            ProxyError::NotFound(url) => write!(f, "document not found: {url}"),
            ProxyError::Integrity(e) => write!(f, "integrity failure: {e}"),
            ProxyError::Timeout => write!(f, "socket deadline expired"),
            ProxyError::Unavailable(code) => write!(f, "service unavailable ({code})"),
        }
    }
}

impl std::error::Error for ProxyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProxyError::Io(e) => Some(e),
            ProxyError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl ProxyError {
    /// Whether retrying the same request later could plausibly succeed
    /// (transient transport or backend failures, not protocol/content
    /// errors). [`crate::client::ClientAgent::fetch`] backs off and
    /// retries exactly these.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ProxyError::Io(_) | ProxyError::Timeout | ProxyError::Unavailable(_)
        )
    }
}

impl From<io::Error> for ProxyError {
    fn from(e: io::Error) -> Self {
        // `set_read_timeout` expiry surfaces as WouldBlock on Unix and
        // TimedOut on Windows; both mean "deadline expired".
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ProxyError::Timeout,
            _ => ProxyError::Io(e),
        }
    }
}

impl From<CryptoError> for ProxyError {
    fn from(e: CryptoError) -> Self {
        ProxyError::Integrity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ProxyError::NotFound("u".into()).to_string().contains("u"));
        assert!(ProxyError::Protocol("bad".into())
            .to_string()
            .contains("bad"));
        let io_err: ProxyError = io::Error::other("boom").into();
        assert!(io_err.to_string().contains("boom"));
    }

    #[test]
    fn io_deadline_kinds_map_to_timeout() {
        let e: ProxyError = io::Error::new(io::ErrorKind::WouldBlock, "deadline").into();
        assert!(matches!(e, ProxyError::Timeout));
        let e: ProxyError = io::Error::new(io::ErrorKind::TimedOut, "deadline").into();
        assert!(matches!(e, ProxyError::Timeout));
        let e: ProxyError = io::Error::other("hard").into();
        assert!(matches!(e, ProxyError::Io(_)));
    }

    #[test]
    fn retryability_classification() {
        assert!(ProxyError::Timeout.is_retryable());
        assert!(ProxyError::Unavailable(503).is_retryable());
        assert!(ProxyError::Io(io::Error::other("x")).is_retryable());
        assert!(!ProxyError::NotFound("u".into()).is_retryable());
        assert!(!ProxyError::Protocol("p".into()).is_retryable());
    }
}
