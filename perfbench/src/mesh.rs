//! The system under test for the live workloads: one zero-delay origin and
//! one cache node per entry connection, spawned in-process, neighbors of
//! each other, running `NodeConfig` defaults except where a workload
//! overrides a field.

use bh_proto::client::Connection;
use bh_proto::{CacheNode, NodeConfig, OriginServer};
use bh_simcore::units::ByteSize;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// The few `NodeConfig` fields a workload may override.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    /// Data-cache capacity.
    pub data_capacity: Option<ByteSize>,
    /// Upper bound of the randomized hint-flush period.
    pub flush_max: Option<Duration>,
}

/// A running origin plus its cache nodes.
pub struct Mesh {
    /// The origin server.
    pub origin: OriginServer,
    /// The cache nodes; node `i` is entry node `i`.
    pub nodes: Vec<CacheNode>,
}

impl Mesh {
    /// Spawns the origin and `entries` nodes, each the neighbor of every
    /// other.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(entries: usize, overrides: Overrides) -> io::Result<Mesh> {
        let origin = OriginServer::spawn("127.0.0.1:0")?;
        let nodes = (0..entries)
            .map(|_| {
                let mut config = NodeConfig::new("127.0.0.1:0", origin.addr());
                if let Some(c) = overrides.data_capacity {
                    config = config.with_data_capacity(c);
                }
                if let Some(f) = overrides.flush_max {
                    config = config.with_flush_max(f);
                }
                CacheNode::spawn(config)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let addrs: Vec<SocketAddr> = nodes.iter().map(CacheNode::addr).collect();
        for node in &nodes {
            node.set_neighbors(
                addrs
                    .iter()
                    .copied()
                    .filter(|a| *a != node.addr())
                    .collect(),
            );
        }
        Ok(Mesh { origin, nodes })
    }

    /// Entry-node addresses, one per generator connection.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(CacheNode::addr).collect()
    }

    /// Flushes every node's pending hint updates now.
    pub fn flush_hints(&self) {
        for n in &self.nodes {
            n.flush_updates_now();
        }
    }

    /// Every node's metrics, read over the `mesh/nodes/<id>/metrics`
    /// namespace, summed across nodes by metric name.
    ///
    /// # Errors
    ///
    /// Fails on connect or protocol errors.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let mut sum: HashMap<String, u64> = HashMap::new();
        for addr in self.addrs() {
            for e in Connection::open(addr)?.meta_get("mesh/nodes/self/metrics")? {
                let name = e
                    .path
                    .split_once("/metrics/")
                    .map_or(e.path.as_str(), |(_, n)| n)
                    .to_string();
                if let Ok(v) = e.value.parse::<u64>() {
                    *sum.entry(name).or_default() += v;
                }
            }
        }
        Ok(Scrape(sum))
    }

    /// Shuts every node, then the origin, down and joins their threads.
    pub fn shutdown(self) {
        for n in self.nodes {
            n.shutdown();
        }
        self.origin.shutdown();
    }
}

/// Metric values summed over the mesh, by registry name.
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub HashMap<String, u64>);

impl Scrape {
    /// One metric (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `self - earlier` for a counter.
    pub fn delta(&self, earlier: &Scrape, name: &str) -> u64 {
        self.get(name).saturating_sub(earlier.get(name))
    }

    /// The bucket bounds and per-bucket counts of histogram `name`
    /// accumulated since `earlier` (overflow bucket last).
    pub fn histogram_delta(&self, earlier: &Scrape, name: &str) -> (Vec<u64>, Vec<u64>) {
        let prefix = format!("{name}.le.");
        let mut finite: Vec<(u64, u64)> = self
            .0
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter_map(|b| b.parse::<u64>().ok())
            .map(|b| (b, self.delta(earlier, &format!("{prefix}{b}"))))
            .collect();
        finite.sort_unstable();
        let bounds = finite.iter().map(|(b, _)| *b).collect();
        let mut counts: Vec<u64> = finite.iter().map(|(_, c)| *c).collect();
        counts.push(self.delta(earlier, &format!("{prefix}inf")));
        (bounds, counts)
    }
}
