//! Client and document identifiers, shared by traces, indexes, the
//! simulator and the live proxy.
//!
//! Documents are identified by a dense [`DocId`] obtained by interning URLs
//! through an [`Interner`]; clients by a dense [`ClientId`].

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of a client machine (a browser).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u32);

/// Dense identifier of a unique document (an interned URL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(pub u32);

impl ClientId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DocId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Interns URL strings to dense [`DocId`]s (and client keys to [`ClientId`]s).
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `key`, allocating a fresh one on first sight.
    pub fn intern(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.map.get(key) {
            return id;
        }
        let id = self.names.len() as u32;
        self.map.insert(key.to_owned(), id);
        self.names.push(key.to_owned());
        id
    }

    /// Looks up an id without allocating.
    pub fn get(&self, key: &str) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// Reverse lookup: the original string for `id`.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no keys have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_roundtrip() {
        let mut i = Interner::new();
        let a = i.intern("http://a/");
        let b = i.intern("http://b/");
        assert_ne!(a, b);
        assert_eq!(i.intern("http://a/"), a);
        assert_eq!(i.name(a), Some("http://a/"));
        assert_eq!(i.get("http://b/"), Some(b));
        assert_eq!(i.get("http://c/"), None);
        assert_eq!(i.len(), 2);
    }
}
