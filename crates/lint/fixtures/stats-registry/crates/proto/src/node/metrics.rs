//! Fixture: a `NodeStats` field whose metric name is never registered
//! as a string literal (must be flagged), alongside a scenario dump that
//! hand-copies fields instead of iterating the registry.

/// Per-node counters, a typed view over the obs registry snapshot.
pub struct NodeStats {
    /// Total requests served.
    pub requests: u64,
    /// Hits from the local store.
    pub local_hits: u64,
    /// Service-path failures — never registered below.
    pub service_errors: u64,
}

/// Declares the metrics backing the view above.
pub fn register(r: &mut Vec<(&'static str, u64)>) {
    r.push(("requests", 0));
    r.push(("local_hits", 0));
}
