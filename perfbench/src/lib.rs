//! The repository benchmark: open-loop workloads against a live hint mesh
//! (`hot-hit`, `shared-miss`) and a simulator workload (`sim-dec`), each
//! reporting end-to-end metrics from an untraced run and per-layer
//! metrics from a traced run. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.

pub mod host;
pub mod json;
pub mod live;
pub mod loadgen;
pub mod mesh;
pub mod probes;
pub mod report;
pub mod sim;
pub mod stats;
