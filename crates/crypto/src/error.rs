//! Error type of the signature and watermark checks.

use std::fmt;

/// Failures raised by the crypto layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature blob had the wrong length.
    MalformedSignature,
    /// A digital watermark failed verification: the document was modified
    /// or the watermark was not produced by the expected proxy.
    WatermarkMismatch,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CryptoError::MalformedSignature => "malformed signature",
            CryptoError::WatermarkMismatch => "digital watermark verification failed",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CryptoError::WatermarkMismatch
            .to_string()
            .contains("watermark"));
    }
}
