//! Fixture: the scenario dump hand-copies stats fields instead of
//! iterating the registry via `metric_snapshots`.

pub struct Report {
    pub requests: u64,
    pub local_hits: u64,
}

pub fn dump(requests: u64, local_hits: u64) -> Report {
    Report {
        requests,
        local_hits,
    }
}
