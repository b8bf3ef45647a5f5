//! The five Web-caching organizations compared in the paper (§3.2).

/// A caching organization: which caches exist and how a request routes
/// through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// No browser caches; every request goes straight to the proxy cache.
    ProxyOnly,
    /// Private browser caches only; misses go straight to the server.
    LocalBrowserOnly,
    /// Browser caches globally shared via an index at every client, but no
    /// proxy cache. Documents fetched from another browser are *not*
    /// re-cached by the requester (paper §3.2).
    GlobalBrowsersOnly,
    /// The conventional hierarchy: private browser cache, then proxy cache,
    /// then server.
    ProxyAndLocalBrowser,
    /// The paper's contribution: browser cache, then proxy cache, then the
    /// *browser index* (peer browser caches), then server.
    BrowsersAware,
}

impl Organization {
    /// All five organizations in the paper's order.
    pub fn all() -> [Organization; 5] {
        [
            Organization::ProxyOnly,
            Organization::LocalBrowserOnly,
            Organization::GlobalBrowsersOnly,
            Organization::ProxyAndLocalBrowser,
            Organization::BrowsersAware,
        ]
    }

    /// The paper's name for the organization.
    pub fn name(self) -> &'static str {
        match self {
            Organization::ProxyOnly => "proxy-cache-only",
            Organization::LocalBrowserOnly => "local-browser-cache-only",
            Organization::GlobalBrowsersOnly => "global-browsers-cache-only",
            Organization::ProxyAndLocalBrowser => "proxy-and-local-browser",
            Organization::BrowsersAware => "browsers-aware-proxy-server",
        }
    }

    /// A short label for table columns.
    pub fn short(self) -> &'static str {
        match self {
            Organization::ProxyOnly => "P-only",
            Organization::LocalBrowserOnly => "B-only",
            Organization::GlobalBrowsersOnly => "GB-only",
            Organization::ProxyAndLocalBrowser => "P+LB",
            Organization::BrowsersAware => "BAPS",
        }
    }

    /// Whether this organization deploys per-client browser caches.
    pub fn has_browser_caches(self) -> bool {
        !matches!(self, Organization::ProxyOnly)
    }

    /// Whether this organization deploys a proxy cache.
    pub fn has_proxy_cache(self) -> bool {
        !matches!(
            self,
            Organization::LocalBrowserOnly | Organization::GlobalBrowsersOnly
        )
    }

    /// Whether this organization consults peer browser caches.
    pub fn shares_browsers(self) -> bool {
        matches!(
            self,
            Organization::GlobalBrowsersOnly | Organization::BrowsersAware
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(
            Organization::BrowsersAware.name(),
            "browsers-aware-proxy-server"
        );
        assert_eq!(
            Organization::ProxyAndLocalBrowser.name(),
            "proxy-and-local-browser"
        );
    }

    #[test]
    fn capability_matrix() {
        use Organization::*;
        assert!(!ProxyOnly.has_browser_caches());
        assert!(ProxyOnly.has_proxy_cache());
        assert!(LocalBrowserOnly.has_browser_caches());
        assert!(!LocalBrowserOnly.has_proxy_cache());
        assert!(GlobalBrowsersOnly.shares_browsers());
        assert!(!GlobalBrowsersOnly.has_proxy_cache());
        assert!(ProxyAndLocalBrowser.has_proxy_cache());
        assert!(!ProxyAndLocalBrowser.shares_browsers());
        assert!(BrowsersAware.has_proxy_cache());
        assert!(BrowsersAware.shares_browsers());
        assert!(BrowsersAware.has_browser_caches());
    }

    #[test]
    fn all_lists_five() {
        assert_eq!(Organization::all().len(), 5);
        let shorts: Vec<&str> = Organization::all().iter().map(|o| o.short()).collect();
        assert!(shorts.contains(&"BAPS"));
    }
}
