//! The cache-node daemon: a Squid-like proxy with the paper's hint module.
//!
//! Each node serves `Get` requests from clients: local cache first, then a
//! **local** hint lookup naming the nearest peer copy, then a direct
//! peer-to-peer transfer, and finally the origin server (misses never take
//! extra hops — a failed hint costs exactly one wasted probe). Nodes
//! advertise copy arrivals/departures as 20-byte hint updates, batched and
//! flushed to their neighbor set on a randomized period (§3.2's
//! Floyd–Jacobson desynchronization).
//!
//! Connections are served by one engine (`engine`): a bounded set of
//! epoll shard threads owns all client and peer sockets, answering
//! hint-module frames inline and handing `Get` misses to a bounded worker
//! pool. Outbound traffic (peer probes, origin fetches, hint flushes) goes
//! through a warm [`crate::pool::ConnectionPool`], and flushes coalesce
//! into authenticated [`Message::HintBatch`] frames. The engine needs
//! Linux epoll: elsewhere [`CacheNode::spawn`] fails with
//! [`io::ErrorKind::Unsupported`].

mod engine;
mod meta;
mod metrics;

pub use metrics::{NodeStats, NODE_TRACE_CAPACITY};

use crate::liveness::{LivenessConfig, LivenessTracker, PeerHealth, Transition};
use crate::pool::{ConnectionPool, PoolConfig, RequestOptions};
use crate::wire::{
    coalesce, hint_batch_tag, HintAction, HintUpdate, MachineId, Message, ServedBy, Status,
};
use bh_cache::{HintCache, LruCache};
use bh_hintlog::{HintLog, LogRecord};
use bh_obs::{span, MetricEntry, MetricInfo, TraceEvent, TraceRing};
use bh_plaxton::{NodeSpec, PlaxtonTree};
use bh_simcore::ByteSize;
use bytes::Bytes;
use metrics::NodeMetrics;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a [`CacheNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address to bind (port 0 for ephemeral).
    pub bind: String,
    /// The origin server to fall back to.
    pub origin: SocketAddr,
    /// Neighbor caches that receive this node's hint-update batches
    /// (flat/mesh propagation).
    pub neighbors: Vec<SocketAddr>,
    /// Metadata parent (§3.1.2): updates that change this node's knowledge
    /// climb to the parent, *filtered* — an Add is forwarded only when it
    /// is the first copy this subtree has heard of, a Remove only when no
    /// alternative location remains.
    pub parent: Option<SocketAddr>,
    /// Metadata children: state-changing updates learned from above (or
    /// from one child) propagate down so every subtree eventually knows its
    /// nearest copy.
    pub children: Vec<SocketAddr>,
    /// Data-cache capacity.
    pub data_capacity: ByteSize,
    /// Hint-store capacity (16-byte records, 4-way sets).
    pub hint_capacity: ByteSize,
    /// Upper bound of the randomized update-flush period. The paper uses
    /// 60 s; tests use milliseconds.
    pub flush_max: Duration,
    /// I/O timeout for peer and origin connections.
    pub io_timeout: Duration,
    /// Epoll shard threads (min 1).
    pub shards: usize,
    /// Worker threads servicing `Get` misses (min 1).
    pub workers: usize,
    /// Digest-partitioned hint-store shards (min 1; `HINT_SHARDS` by
    /// default). Lookups and batch applies lock only the owning shard;
    /// full iteration (purge, scrape, log compaction) walks shards in
    /// index order so artifacts stay deterministic.
    pub hint_shards: usize,
    /// High-water mark for admission control: the most `Get`s a node has
    /// at its worker pool (queued or being served) before it redirects
    /// further misses to the origin. `None` sizes it from the worker
    /// count (`workers * 64`, at least 256); `Some(0)` rejects every `Get`
    /// that would reach the pool (useful in tests).
    pub admission_high_water: Option<usize>,
    /// Global cap on idle pooled connections across all remotes. `None`
    /// keeps the pool default (256). Wide meshes run many nodes per
    /// process in the harness, so the per-process fd budget is roughly
    /// `nodes × pool_idle_cap × fds-per-connection` — the mesh sweep
    /// shrinks this cap as the node count grows.
    pub pool_idle_cap: Option<usize>,
    /// Interval between liveness heartbeats to each neighbor.
    pub heartbeat_interval: Duration,
    /// Consecutive failed heartbeats before a neighbor becomes suspect.
    pub suspicion_threshold: u32,
    /// How long a neighbor must stay suspect (measured from the first
    /// failure of the streak) before it is confirmed dead and standing
    /// state — stale hints, Plaxton table entries — is repaired.
    pub confirm_death_after: Duration,
    /// Upper bound on how long `shutdown`/drop waits for node threads to
    /// unwind before detaching the stragglers.
    pub shutdown_deadline: Duration,
    /// When set, hint-store mutations are mirrored to a crash-safe
    /// append-only log in this directory ([`bh_hintlog::HintLog`]) and a
    /// warm restart replays it at spawn — recovering the hint table
    /// without a network-wide [`CacheNode::resync`]. `None` (the
    /// default) keeps the hint store purely in-memory.
    pub durability_dir: Option<PathBuf>,
}

impl NodeConfig {
    /// A config with the paper's defaults, ephemeral port, no neighbors.
    pub fn new(bind: impl Into<String>, origin: SocketAddr) -> Self {
        NodeConfig {
            bind: bind.into(),
            origin,
            // bh-lint: allow(no-hot-alloc, reason = "config construction runs once per node, not per request")
            neighbors: Vec::new(),
            parent: None,
            // bh-lint: allow(no-hot-alloc, reason = "config construction runs once per node, not per request")
            children: Vec::new(),
            data_capacity: ByteSize::from_mb(64),
            hint_capacity: ByteSize::from_mb(4),
            flush_max: Duration::from_secs(60),
            io_timeout: Duration::from_secs(5),
            shards: 2,
            workers: 8,
            hint_shards: HINT_SHARDS,
            admission_high_water: None,
            pool_idle_cap: None,
            heartbeat_interval: Duration::from_secs(1),
            suspicion_threshold: 3,
            confirm_death_after: Duration::from_secs(30),
            shutdown_deadline: Duration::from_secs(5),
            durability_dir: None,
        }
    }

    /// Sets the neighbor list.
    pub fn with_neighbors(mut self, neighbors: Vec<SocketAddr>) -> Self {
        self.neighbors = neighbors;
        self
    }

    /// Sets the metadata parent (hierarchical propagation, §3.1.2).
    pub fn with_parent(mut self, parent: SocketAddr) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Sets the metadata children.
    pub fn with_children(mut self, children: Vec<SocketAddr>) -> Self {
        self.children = children;
        self
    }

    /// Sets the flush period bound.
    pub fn with_flush_max(mut self, d: Duration) -> Self {
        self.flush_max = d;
        self
    }

    /// Sets the data capacity.
    pub fn with_data_capacity(mut self, c: ByteSize) -> Self {
        self.data_capacity = c;
        self
    }

    /// Sets the epoll shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the `Get` worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission-control high-water mark (`0` rejects every
    /// queued `Get`).
    pub fn with_admission_high_water(mut self, mark: usize) -> Self {
        self.admission_high_water = Some(mark);
        self
    }

    /// Caps idle pooled connections across all remotes (min 1).
    pub fn with_pool_idle_cap(mut self, cap: usize) -> Self {
        self.pool_idle_cap = Some(cap.max(1));
        self
    }

    /// Sets the liveness heartbeat interval.
    pub fn with_heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the suspicion threshold (consecutive failed heartbeats).
    pub fn with_suspicion_threshold(mut self, n: u32) -> Self {
        self.suspicion_threshold = n.max(1);
        self
    }

    /// Sets the death-confirmation window.
    pub fn with_confirm_death_after(mut self, d: Duration) -> Self {
        self.confirm_death_after = d;
        self
    }

    /// Sets the shutdown join deadline.
    pub fn with_shutdown_deadline(mut self, d: Duration) -> Self {
        self.shutdown_deadline = d;
        self
    }

    /// Enables the durable hint log in `dir` (created if missing).
    pub fn with_durability_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }
}

#[derive(Debug)]
struct Store {
    /// Metadata LRU (sizes/versions) driving eviction.
    meta: LruCache,
    /// Object bodies, keyed like `meta`.
    bodies: HashMap<u64, Bytes>,
}

/// Hint-store shards per node.
const HINT_SHARDS: usize = 8;

/// The hint store partitioned into digest-indexed shards, each behind its
/// own lock, so worker-thread lookups and batch applies stop contending
/// on the data-store lock (and on each other). A key lives in shard
/// `(key >> 32) % N`: a shard's `HintCache` picks the set from the low
/// bits (`key % sets`), so a shard index taken from those bits too would
/// leave each shard only the sets congruent to it. Every full-store
/// operation (`purge_location`, `entries`) walks the shards in index
/// order, which keeps derived artifacts deterministic for a given store
/// state.
#[derive(Debug)]
struct HintShards {
    shards: Vec<Mutex<HintCache>>,
}

impl HintShards {
    /// Splits `total` capacity evenly across `n` shards (min 1).
    /// `HintCache::with_capacity` floors each shard at one way-set, so a
    /// tiny capacity still yields usable shards.
    fn with_capacity(total: ByteSize, n: usize) -> HintShards {
        let n = n.max(1);
        let per = ByteSize::from_bytes(total.as_bytes() / n as u64);
        HintShards {
            shards: (0..n)
                .map(|_| Mutex::new(HintCache::with_capacity(per)))
                .collect(),
        }
    }

    /// Unbounded shards, for equivalence tests against a single-store
    /// witness (no capacity-eviction noise).
    #[cfg(test)]
    fn unbounded(n: usize) -> HintShards {
        HintShards {
            shards: (0..n.max(1))
                .map(|_| Mutex::new(HintCache::unbounded()))
                .collect(),
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: u64) -> usize {
        ((key >> 32) % self.shards.len() as u64) as usize
    }

    fn lock_shard(&self, index: usize) -> parking_lot::MutexGuard<'_, HintCache> {
        self.shards[index].lock()
    }

    /// Promoting lookup on the owning shard only.
    fn lookup(&self, key: u64) -> Option<u64> {
        self.shards[self.shard_index(key)].lock().lookup(key)
    }

    fn remove(&self, key: u64) {
        self.shards[self.shard_index(key)].lock().remove(key);
    }

    /// Drops every record naming `location`, walking shards in index
    /// order. Returns the total purged.
    fn purge_location(&self, location: u64) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().purge_location(location))
            .sum()
    }

    /// Every `(object, location)` pair, shard 0 first.
    fn entries(&self) -> Vec<(u64, u64)> {
        // bh-lint: allow(no-hot-alloc, reason = "operator scrape / log compaction path, size unknown until shards are locked")
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().entries());
        }
        out
    }
}

/// The live Plaxton metadata hierarchy this node repairs on churn: the
/// tree the mesh agreed on plus the index/position bookkeeping needed to
/// remove a confirmed-dead member and re-add a revived one at its
/// original coordinates. Every mesh member builds the tree from the same
/// ordered list ([`mesh_tree_for`]), so the repairs stay deterministic
/// and comparable against an analytic replay of the same churn.
#[derive(Debug)]
struct MeshState {
    tree: PlaxtonTree,
    index: HashMap<SocketAddr, usize>,
    position: HashMap<SocketAddr, (f64, f64)>,
}

#[derive(Debug)]
struct Inner {
    config: NodeConfig,
    machine: MachineId,
    store: Mutex<Store>,
    /// Digest-partitioned hint store, locked per shard (never under the
    /// store lock).
    hints: HintShards,
    /// Coalescing buffer for outbound hint updates, bounded at
    /// [`PENDING_CAP`] with drop-oldest overflow.
    pending: Mutex<VecDeque<HintUpdate>>,
    neighbors: Mutex<Vec<SocketAddr>>,
    /// Runtime metadata parent (initialized from the config; chaos meshes
    /// re-point it when a parent dies — see [`on_peer_died`]).
    parent: Mutex<Option<SocketAddr>>,
    /// Runtime metadata children (initialized from the config).
    children: Mutex<Vec<SocketAddr>>,
    /// Parents to adopt, in preference order, should the current parent be
    /// confirmed dead. Empty means "stay orphaned" (the flat-mesh default).
    fallback_parents: Mutex<Vec<SocketAddr>>,
    /// When set, the heartbeat loop probes these peers instead of the
    /// neighbor set — hierarchical meshes monitor the whole membership
    /// while hint flushes still follow the tree.
    liveness_peers: Mutex<Option<Vec<SocketAddr>>>,
    metrics: NodeMetrics,
    /// Structured request/propagation trace ring; timestamps are micros
    /// since `started` (the ring itself never reads a clock).
    trace: Mutex<TraceRing>,
    started: Instant,
    shutdown: AtomicBool,
    /// Warm outbound connections: peer probes, origin fetches, hint
    /// flushes, heartbeats and resyncs all go through it.
    pool: ConnectionPool,
    /// Peer failure detector fed by the heartbeat loop.
    liveness: Mutex<LivenessTracker>,
    /// Live Plaxton tree repaired on confirmed churn (`None` until
    /// [`CacheNode::set_mesh`]).
    mesh: Mutex<Option<MeshState>>,
    /// Durable hint log (`None` unless [`NodeConfig::durability_dir`] is
    /// set). Locked only by the flush thread; request paths stage
    /// records in `log_pending` instead.
    hintlog: Option<Mutex<HintLog>>,
    /// Hint-store mutations awaiting their fsync-batched append — the
    /// durable mirror of the in-memory insert/remove stream.
    log_pending: Mutex<Vec<LogRecord>>,
    /// Set by bulk hint drops (dead-peer purge, byzantine quarantine):
    /// the next flush rewrites the snapshot from live state instead of
    /// logging every purged key.
    log_compact_due: AtomicBool,
    /// Consecutive hint-batch authentication failures per sender
    /// (keyed by `MachineId.0`); crossing
    /// [`HINT_AUTH_QUARANTINE_AFTER`] quarantines the sender.
    hint_auth: Mutex<HashMap<u64, u32>>,
    /// Drain switch (mesh API `Set .../control/drain`): while set, every
    /// client `Get` is turned away with a `Redirect` so the node can be
    /// taken out of rotation without killing in-flight hint traffic.
    drained: AtomicBool,
    /// Completed namespace-triggered resyncs (`Set .../control/resync`
    /// is asynchronous; callers poll `.../control/resync/runs` to see
    /// the run land).
    resync_runs: AtomicU64,
    /// Total hint records learned across those resyncs.
    resync_learned: AtomicU64,
}

impl Inner {
    /// Whether the drain switch is set (checked on every `Get` fast
    /// path; one relaxed load).
    fn drained(&self) -> bool {
        self.drained.load(Ordering::Relaxed)
    }
}

/// Handle to a running cache node; dropping it shuts the node down.
#[derive(Debug)]
pub struct CacheNode {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Wakers for the shard threads; used to break them out of
    /// `epoll_wait` at shutdown.
    wakers: Vec<bh_netpoll::Waker>,
}

impl CacheNode {
    /// Binds, spawns the connection engine, the update flusher and the
    /// heartbeat loop.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; fails for IPv6 binds (machine IDs are the
    /// paper's 8-byte IPv4+port records), and with
    /// [`io::ErrorKind::Unsupported`] off Linux, where the engine's epoll
    /// poller does not exist.
    pub fn spawn(config: NodeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let machine = MachineId::from_addr(addr)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "IPv4 bind required"))?;
        let pool = ConnectionPool::new(PoolConfig {
            connect_timeout: config.io_timeout,
            io_timeout: config.io_timeout,
            quarantine: config.io_timeout * 4,
            // Every worker may hold a connection to the same remote at
            // once; a smaller cap would drop and re-dial the excess.
            max_idle_per_peer: config.workers.max(4),
            max_idle_total: config
                .pool_idle_cap
                .unwrap_or(PoolConfig::default().max_idle_total),
            // Per-node jitter stream: distinct nodes must not retry or
            // re-probe in lockstep.
            jitter_seed: machine.0,
            ..PoolConfig::default()
        });
        let metrics = NodeMetrics::register();
        let hints = HintShards::with_capacity(config.hint_capacity, config.hint_shards);
        let mut hintlog = None;
        if let Some(dir) = &config.durability_dir {
            // Warm restart: open the durable log and replay snapshot +
            // tail into the hint store before serving a single request.
            // A failed-open falls back to a cold store rather than
            // failing the spawn — durability is best-effort by design.
            let t0 = Instant::now();
            if let Ok(recovered) = HintLog::open(dir) {
                for r in &recovered.records {
                    let mut shard = hints.lock_shard(hints.shard_index(r.key));
                    if r.is_remove() {
                        shard.remove(r.key);
                    } else {
                        shard.insert(r.key, r.machine());
                    }
                }
                metrics
                    .hint_log_replay_micros
                    .add(t0.elapsed().as_micros() as u64);
                metrics
                    .hints_recovered_from_log
                    .add(hints.entries().len() as u64);
                hintlog = Some(Mutex::new(recovered.log));
            }
        }
        let inner = Arc::new(Inner {
            machine,
            store: Mutex::new(Store {
                meta: LruCache::new(config.data_capacity),
                bodies: HashMap::new(),
            }),
            hints,
            pending: Mutex::new(VecDeque::new()),
            neighbors: Mutex::new(config.neighbors.clone()),
            parent: Mutex::new(config.parent),
            children: Mutex::new(config.children.clone()),
            // bh-lint: allow(no-hot-alloc, reason = "node spawn runs once, not per request")
            fallback_parents: Mutex::new(Vec::new()),
            liveness_peers: Mutex::new(None),
            metrics,
            trace: Mutex::new(TraceRing::new(NODE_TRACE_CAPACITY)),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            pool,
            liveness: Mutex::new(LivenessTracker::new(LivenessConfig {
                suspicion_threshold: config.suspicion_threshold,
                confirm_death_after: config.confirm_death_after,
            })),
            mesh: Mutex::new(None),
            hintlog,
            // bh-lint: allow(no-hot-alloc, reason = "node spawn runs once, not per request")
            log_pending: Mutex::new(Vec::new()),
            log_compact_due: AtomicBool::new(false),
            hint_auth: Mutex::new(HashMap::new()),
            drained: AtomicBool::new(false),
            resync_runs: AtomicU64::new(0),
            resync_learned: AtomicU64::new(0),
            config,
        });

        let engine::Engine {
            mut threads,
            wakers,
        } = engine::spawn(listener, Arc::clone(&inner))?;
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cache-flush-{addr}"))
                    .spawn(move || flush_loop(inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cache-heartbeat-{addr}"))
                    .spawn(move || heartbeat_loop(inner))?,
            );
        }
        Ok(CacheNode {
            addr,
            inner,
            threads,
            wakers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's 8-byte machine identifier.
    pub fn machine_id(&self) -> MachineId {
        self.inner.machine
    }

    /// Counter snapshot as the typed view ([`NodeStats`]), derived from
    /// the registry — the same flat list [`CacheNode::metrics_snapshot`]
    /// returns and `Get mesh/nodes/<id>/metrics` answers.
    pub fn stats(&self) -> NodeStats {
        NodeStats::from_snapshot(&self.metrics_snapshot())
    }

    /// Every registered metric as a sorted `(name, value)` list,
    /// including the pool gauges (refreshed now) and the latency
    /// histogram buckets.
    pub fn metrics_snapshot(&self) -> Vec<MetricEntry> {
        self.inner.metrics.snapshot_with_pool(&self.inner.pool)
    }

    /// The metric catalog (name, unit, help, determinism class).
    pub fn metrics_catalog(&self) -> Vec<MetricInfo> {
        self.inner.metrics.catalog()
    }

    /// Retained trace records, oldest first.
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.inner.trace.lock().snapshot()
    }

    /// Number of objects currently cached.
    pub fn cached_objects(&self) -> usize {
        self.inner.store.lock().meta.len()
    }

    /// The hint module's **find nearest** command: the location of the
    /// nearest known copy of the object with `key`, if any.
    pub fn find_nearest(&self, key: u64) -> Option<MachineId> {
        self.inner.hints.lookup(key).map(MachineId)
    }

    /// The hint module's **invalidate** command: drops the local copy of
    /// `url` and advertises the non-presence.
    pub fn invalidate(&self, url: &str) {
        let key = bh_md5::url_key(url);
        let mut store = self.inner.store.lock();
        if store.meta.remove(key).is_some() {
            store.bodies.remove(&key);
            drop(store);
            queue_update(&self.inner, HintAction::Remove, key);
        }
    }

    /// Replaces the neighbor set at runtime (nodes joining or leaving the
    /// collective — the paper's self-configuring hierarchy reassigns
    /// neighbors the same way).
    pub fn set_neighbors(&self, neighbors: Vec<SocketAddr>) {
        *self.inner.neighbors.lock() = neighbors;
    }

    /// Re-points the metadata parent at runtime (self-configuration:
    /// hierarchies built over ephemeral ports wire parents after spawn,
    /// and re-homing re-points orphans after a parent death).
    pub fn set_parent(&self, parent: Option<SocketAddr>) {
        *self.inner.parent.lock() = parent;
    }

    /// The current metadata parent, if any.
    pub fn parent(&self) -> Option<SocketAddr> {
        *self.inner.parent.lock()
    }

    /// Replaces the metadata children at runtime.
    pub fn set_children(&self, children: Vec<SocketAddr>) {
        *self.inner.children.lock() = children;
    }

    /// The current metadata children.
    pub fn children(&self) -> Vec<SocketAddr> {
        self.inner.children.lock().clone()
    }

    /// Installs the ordered list of parents to adopt if the current one is
    /// confirmed dead. On re-homing, the node picks the first entry that
    /// is not the dead parent, counts it in
    /// [`NodeStats::parent_rehomes`], and re-advertises its cached
    /// objects upward so hint propagation resumes through the new parent.
    pub fn set_fallback_parents(&self, parents: Vec<SocketAddr>) {
        *self.inner.fallback_parents.lock() = parents;
    }

    /// Overrides the set of peers the heartbeat loop monitors (pass
    /// `None` to fall back to the neighbor set). Hierarchical meshes
    /// monitor the full membership so every survivor repairs the shared
    /// Plaxton tree, while hint flushes still follow the tree edges.
    pub fn set_liveness_peers(&self, peers: Option<Vec<SocketAddr>>) {
        *self.inner.liveness_peers.lock() = peers;
    }

    /// Flushes pending hint updates to all neighbors immediately (tests use
    /// this instead of waiting out the randomized timer).
    pub fn flush_updates_now(&self) {
        flush_once(&self.inner);
    }

    /// The outbound connection pool — fault switch, partition block list,
    /// quarantine state. The chaos driver steers faults through this.
    pub fn pool(&self) -> &ConnectionPool {
        &self.inner.pool
    }

    /// The hint store's current contents as `(object, location)` pairs,
    /// sorted by object key.
    pub fn hint_entries(&self) -> Vec<(u64, u64)> {
        let mut entries = self.inner.hints.entries();
        entries.sort_unstable();
        entries
    }

    /// The failure detector's current judgment of `addr`.
    pub fn peer_health(&self, addr: SocketAddr) -> PeerHealth {
        self.inner.liveness.lock().health(addr)
    }

    /// Installs the mesh membership this node repairs on churn: builds the
    /// shared Plaxton metadata tree over `members` (every member must pass
    /// the same ordered list so the trees agree). A confirmed death
    /// removes the member and counts the rewritten routing-table entries
    /// in [`NodeStats::plaxton_repair_entries`]; a revival re-adds it at
    /// its original coordinates.
    pub fn set_mesh(&self, members: &[SocketAddr]) {
        let tree = mesh_tree_for(members);
        let index = members.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let position = members
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, (i as f64, 0.0)))
            .collect();
        *self.inner.mesh.lock() = Some(MeshState {
            tree,
            index,
            position,
        });
    }

    /// Runs one round of heartbeats against the current neighbor set
    /// immediately (tests use this instead of waiting out the interval).
    pub fn heartbeat_now(&self) {
        heartbeat_round(&self.inner);
    }

    /// Anti-entropy pull: asks every neighbor for the objects it holds and
    /// applies the answers to the hint store. A warm-restarted node calls
    /// this to rebuild the hint table it lost in the crash instead of
    /// waiting for organic update traffic. Returns the number of hint
    /// records received.
    pub fn resync(&self) -> usize {
        resync_now(&self.inner)
    }

    /// Stops the node gracefully and joins its threads (bounded by
    /// [`NodeConfig::shutdown_deadline`]). Staged durable-log records
    /// reach the disk first — only a crash ([`CacheNode::kill`]) loses
    /// them.
    pub fn shutdown(mut self) {
        persist_hint_log(&self.inner);
        self.stop();
    }

    /// Crash-stop: tears the node down immediately, discarding pending
    /// hint updates instead of flushing them — the failure mode the chaos
    /// harness injects. The rest of the mesh sees an unannounced
    /// disappearance and recovers via quarantine, suspicion, and resync.
    pub fn kill(mut self) {
        self.inner.pending.lock().clear();
        // A crash loses everything not yet fsynced: staged log records
        // die with the process, exactly like the pending hint updates.
        self.inner.log_pending.lock().clear();
        self.stop();
    }

    fn stop(&mut self) {
        // Idempotent: the first call drains `threads`, so an explicit
        // `shutdown` followed by the Drop-driven call finds nothing to do.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Fail outbound I/O fast so workers blocked behind pool requests
        // unwind instead of riding out connect timeouts.
        self.inner.pool.poison();
        for waker in &self.wakers {
            waker.wake();
        }
        let _ = TcpStream::connect(self.addr);
        let deadline = Instant::now() + self.inner.config.shutdown_deadline;
        let mut pending: Vec<std::thread::JoinHandle<()>> = self.threads.drain(..).collect();
        loop {
            let mut still_running = Vec::with_capacity(pending.len());
            for t in pending {
                if t.is_finished() {
                    let _ = t.join();
                } else {
                    still_running.push(t);
                }
            }
            pending = still_running;
            if pending.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                // Deadline reached: detach the stragglers rather than
                // wedging the caller on a stuck worker. They observe the
                // shutdown flag and the poisoned pool on their own.
                break;
            }
            // Re-nudge the accept loop in case the first connect raced the
            // shutdown flag.
            let _ = TcpStream::connect(self.addr);
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for CacheNode {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Records one span into the node's trace ring. The timestamp is micros
/// since node start, computed here and passed in — the ring itself is
/// clock-free.
fn trace_event(inner: &Inner, kind: u16, a: u64, b: u64) {
    let ts = inner.started.elapsed().as_micros() as u64;
    inner.trace.lock().record(TraceEvent {
        ts_micros: ts,
        kind,
        a,
        b,
    });
}

/// Cap on the pending hint-update coalescing buffer. A slow or dead
/// neighbor cannot grow the queue past this: overflow drops the oldest
/// records — they are hints, so the next flush, push, or anti-entropy
/// resync re-advertises the state — and counts `hint_batch_overflow`.
const PENDING_CAP: usize = 4096;

/// Pushes one update into `pending`, evicting the oldest record when the
/// buffer is at `cap`. Returns how many records were dropped (0 or 1).
fn push_bounded(pending: &mut VecDeque<HintUpdate>, update: HintUpdate, cap: usize) -> u64 {
    let mut dropped = 0;
    while pending.len() >= cap {
        pending.pop_front();
        dropped += 1;
    }
    pending.push_back(update);
    dropped
}

fn queue_pending<I: IntoIterator<Item = HintUpdate>>(inner: &Inner, updates: I) {
    let mut pending = inner.pending.lock();
    let mut dropped = 0;
    for u in updates {
        dropped += push_bounded(&mut pending, u, PENDING_CAP);
    }
    drop(pending);
    if dropped > 0 {
        inner.metrics.hint_batch_overflow.add(dropped);
    }
}

fn queue_update(inner: &Inner, action: HintAction, key: u64) {
    queue_pending(
        inner,
        std::iter::once(HintUpdate {
            action,
            object: key,
            machine: inner.machine,
        }),
    );
}

/// Stores a body locally (inform), returning the hint updates implied by
/// any evictions plus the arrival itself.
fn store_body(inner: &Inner, key: u64, version: u32, body: Bytes) {
    let mut store = inner.store.lock();
    let size = ByteSize::from_bytes(body.len() as u64);
    let evicted = store.meta.insert(key, size, version);
    let mut departed = Vec::with_capacity(evicted.len());
    for e in evicted {
        store.bodies.remove(&e.key);
        departed.push(e.key);
    }
    let stored = store.meta.peek(key).is_some();
    if stored {
        store.bodies.insert(key, body);
    }
    drop(store);
    for gone in departed {
        queue_update(inner, HintAction::Remove, gone);
    }
    if stored {
        queue_update(inner, HintAction::Add, key);
    }
}

fn flush_loop(inner: Arc<Inner>) {
    // Randomized period: uniform in [0, flush_max), re-drawn every round
    // (Floyd–Jacobson desynchronization). Sleep in short slices so shutdown
    // joins promptly even with long periods.
    let mut seed = inner.machine.0 | 1;
    'outer: while !inner.shutdown.load(Ordering::SeqCst) {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let max_ms = inner.config.flush_max.as_millis().max(1) as u64;
        let mut remaining = seed % max_ms;
        while remaining > 0 {
            let slice = remaining.min(20);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
            if inner.shutdown.load(Ordering::SeqCst) {
                break 'outer;
            }
        }
        flush_once(&inner);
    }
}

/// Consecutive hint-batch authentication failures a sender is allowed
/// before it is quarantined (pool-blocked, hints purged like a dead
/// peer's). The first valid batch afterwards heals it.
const HINT_AUTH_QUARANTINE_AFTER: u32 = 3;

/// Log bytes past which the flush thread compacts the durable log into
/// a fresh snapshot even without a bulk-purge trigger.
const LOG_COMPACT_BYTES: u64 = 1 << 20;

/// Stages one hint-store mutation for the durable log (no-op when the
/// node runs without durability). The actual write and fsync happen on
/// the flush thread ([`persist_hint_log`]), never on a request path.
fn log_mutation(inner: &Inner, record: LogRecord) {
    if inner.hintlog.is_some() {
        inner.log_pending.lock().push(record);
    }
}

/// Drains staged log records into one CRC-framed, fsynced append, and
/// compacts the log into a snapshot when a bulk purge flagged it or the
/// tail has grown past [`LOG_COMPACT_BYTES`]. Write errors are dropped:
/// the in-memory store stays authoritative and the §3.2 invariant makes
/// a lost hint cost at most one wasted probe after the next restart.
fn persist_hint_log(inner: &Inner) {
    let Some(hintlog) = &inner.hintlog else {
        return;
    };
    let staged: Vec<LogRecord> = std::mem::take(&mut *inner.log_pending.lock());
    let compact_due = inner.log_compact_due.swap(false, Ordering::Relaxed);
    // bh-lint: allow(lock-order, reason = "group commit: only flush ticks take the hintlog lock, request threads stage into log_pending and never touch it")
    let mut log = hintlog.lock();
    if !staged.is_empty() {
        let _ = log.append(&staged).and_then(|()| log.sync());
    }
    if compact_due || log.log_bytes() > LOG_COMPACT_BYTES {
        let _ = log.compact(&inner.hints.entries());
    }
}

/// Builds this node's authenticated outbound [`Message::HintBatch`].
/// When the chaos harness arms `corrupt_hint_tags` on the fault switch,
/// the tag's first byte is flipped — the frame still parses everywhere,
/// but verification fails at every honest receiver (the byzantine-sender
/// fault).
fn outbound_hint_batch(inner: &Inner, updates: Vec<HintUpdate>) -> Message {
    let mut msg = Message::hint_batch(inner.machine, updates);
    if inner.pool.fault_switch().corrupt_hint_tags() {
        if let Message::HintBatch { tag, .. } = &mut msg {
            tag[0] ^= 0xFF;
        }
    }
    msg
}

/// Checks a received batch's authenticator against the tag this node
/// computes for `(sender, updates)`. A mismatch counts
/// `hint_auth_failures` and advances the sender's failure streak;
/// crossing [`HINT_AUTH_QUARANTINE_AFTER`] quarantines the sender —
/// outbound path blocked, every hint it planted purged (the same repair
/// a confirmed death gets). A valid batch from a quarantined sender
/// heals it: streak cleared, block lifted.
fn verify_hint_batch(
    inner: &Inner,
    sender: MachineId,
    updates: &[HintUpdate],
    tag: &[u8; 16],
) -> bool {
    if hint_batch_tag(sender, updates) == *tag {
        let was_quarantined = inner
            .hint_auth
            .lock()
            .remove(&sender.0)
            .is_some_and(|streak| streak >= HINT_AUTH_QUARANTINE_AFTER);
        if was_quarantined {
            let addr = sender.to_addr();
            inner.pool.unblock(addr);
            inner.pool.forgive(addr);
        }
        return true;
    }
    inner.metrics.hint_auth_failures.inc();
    let streak = {
        let mut auth = inner.hint_auth.lock();
        let streak = auth.entry(sender.0).or_insert(0);
        *streak += 1;
        *streak
    };
    if streak == HINT_AUTH_QUARANTINE_AFTER {
        inner.pool.block(sender.to_addr());
        let purged = inner.hints.purge_location(sender.0);
        inner.metrics.stale_hints_gc.add(purged as u64);
        inner.log_compact_due.store(true, Ordering::Relaxed);
    }
    false
}

fn flush_once(inner: &Inner) {
    persist_hint_log(inner);
    let batch: Vec<HintUpdate> = std::mem::take(&mut *inner.pending.lock()).into();
    if batch.is_empty() {
        return;
    }
    let mut targets: Vec<SocketAddr> = inner.neighbors.lock().clone();
    if let Some(p) = *inner.parent.lock() {
        targets.push(p);
    }
    targets.extend(inner.children.lock().iter().copied());
    // Coalesce first (an Add shadowed by a Remove never hits the wire),
    // then one versioned HintBatch per target over a warm pooled
    // connection. A dead target fails at most one fast probe and is
    // quarantined; the flush never wedges on it.
    let batch = coalesce(batch);
    let targets_n = targets.len() as u64;
    let msg = outbound_hint_batch(inner, batch.clone());
    for neighbor in targets {
        if let Ok(Message::Ack) = inner
            .pool
            .request(neighbor, RequestOptions::peer_probe(), &msg)
        {
            inner.metrics.updates_sent.add(batch.len() as u64);
        }
    }
    trace_event(inner, span::FLUSH_BATCH, batch.len() as u64, targets_n);
}

/// Builds the canonical Plaxton metadata tree over an ordered member
/// list: member `i` sits at coordinates `(i, 0)`. Public so integration
/// tests and the chaos driver can replay the same churn against an
/// analytic copy of the tree a live mesh starts from.
pub fn mesh_tree_for(members: &[SocketAddr]) -> PlaxtonTree {
    let specs: Vec<NodeSpec> = members
        .iter()
        .enumerate()
        .map(|(i, a)| NodeSpec::from_address(&a.to_string(), (i as f64, 0.0)))
        .collect();
    // bh-lint: allow(no-panic-hot-path, reason = "setup-time precondition on mesh construction, not a request path")
    PlaxtonTree::build(specs, 1).expect("mesh members form a valid Plaxton tree")
}

/// Ticks [`heartbeat_round`] on the configured interval, sleeping in
/// short slices so shutdown joins promptly.
fn heartbeat_loop(inner: Arc<Inner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        let mut remaining = inner.config.heartbeat_interval.as_millis().max(1) as u64;
        while remaining > 0 {
            let slice = remaining.min(20);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
        heartbeat_round(&inner);
    }
}

/// Pings every current neighbor once and feeds the outcomes into the
/// failure detector, repairing standing state on confirmed transitions.
fn heartbeat_round(inner: &Inner) {
    let peers: Vec<SocketAddr> = inner
        .liveness_peers
        .lock()
        .clone()
        .unwrap_or_else(|| inner.neighbors.lock().clone());
    for addr in peers {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // One attempt, feeds the quarantine, but never blocked by it: the
        // detector must keep probing a quarantined peer to notice both
        // durable death and revival.
        let opts = RequestOptions {
            max_attempts: 1,
            quarantine_on_failure: true,
            respect_quarantine: false,
        };
        match inner.pool.request(addr, opts, &Message::Ping) {
            Ok(Message::Ack) => {
                inner.metrics.heartbeats_ok.inc();
                inner.pool.forgive(addr);
                if inner.liveness.lock().record_ok(addr) == Transition::Revived {
                    on_peer_revived(inner, addr);
                }
            }
            Ok(_) | Err(_) => {
                inner.metrics.heartbeats_failed.inc();
                let transition = inner.liveness.lock().record_failure(addr, Instant::now());
                if transition == Transition::Died {
                    on_peer_died(inner, addr);
                }
            }
        }
    }
}

/// Confirmed death: GC every hint naming the dead peer — restoring the
/// §3.2 invariant that a dead peer costs at most one wasted probe per
/// object, and zero once the detector has confirmed it — then repair the
/// live Plaxton tree.
fn on_peer_died(inner: &Inner, addr: SocketAddr) {
    inner.metrics.peers_confirmed_dead.inc();
    if let Some(machine) = MachineId::from_addr(addr) {
        let purged = inner.hints.purge_location(machine.0);
        inner.metrics.stale_hints_gc.add(purged as u64);
        if purged > 0 {
            // Bulk drop: the next flush rewrites the durable snapshot
            // from live state instead of logging each purged key.
            inner.log_compact_due.store(true, Ordering::Relaxed);
        }
    }
    if let Some(mesh) = inner.mesh.lock().as_mut() {
        if let Some(&idx) = mesh.index.get(&addr) {
            if let Ok(changed) = mesh.tree.remove_node(idx) {
                inner.metrics.plaxton_repair_entries.add(changed as u64);
            }
        }
    }
    rehome_if_orphaned(inner, addr);
}

/// Re-homing (the paper's self-configuring hierarchy): when the
/// confirmed-dead peer is this node's metadata parent, adopt the first
/// fallback parent that is not the dead one, then re-advertise every
/// locally cached object so hint propagation resumes upward through the
/// new parent — the subtree under the adopter may never have heard of
/// these copies.
fn rehome_if_orphaned(inner: &Inner, dead: SocketAddr) {
    {
        let mut parent = inner.parent.lock();
        if *parent != Some(dead) {
            return;
        }
        let next = inner
            .fallback_parents
            .lock()
            .iter()
            .copied()
            .find(|p| *p != dead);
        *parent = next;
        if next.is_none() {
            return;
        }
    }
    inner.metrics.parent_rehomes.inc();
    // Sorted so the re-advertisement batch is deterministic for a given
    // store state (mirrors the Resync reply).
    let mut keys: Vec<u64> = inner.store.lock().bodies.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        queue_update(inner, HintAction::Add, key);
    }
}

/// Revival after a confirmed death: wire the member back into the tree at
/// its original coordinates. Its hint records rebuild through the peer's
/// own resync plus the normal update flow, not here.
fn on_peer_revived(inner: &Inner, addr: SocketAddr) {
    if let Some(mesh) = inner.mesh.lock().as_mut() {
        let (Some(&idx), Some(&pos)) = (mesh.index.get(&addr), mesh.position.get(&addr)) else {
            return;
        };
        if mesh.tree.is_alive(idx) {
            return;
        }
        let spec = NodeSpec::from_address(&addr.to_string(), pos);
        if let Ok((new_idx, changed)) = mesh.tree.add_node(spec) {
            mesh.index.insert(addr, new_idx);
            inner.metrics.plaxton_repair_entries.add(changed as u64);
        }
    }
}

/// Anti-entropy pull ([`CacheNode::resync`] and the mesh API's
/// `Set .../control/resync`): asks every flush target for the objects it
/// holds and applies the authenticated answers to the hint store.
/// Returns the number of hint records learned and advances the
/// namespace-visible `resync_runs`/`resync_learned` counters.
fn resync_now(inner: &Inner) -> usize {
    // Pull from the same peers a flush would reach: neighbors plus
    // the tree edges, so a restarted leaf recovers through its
    // parent even with an empty neighbor set.
    let mut peers: Vec<SocketAddr> = inner.neighbors.lock().clone();
    if let Some(p) = *inner.parent.lock() {
        peers.push(p);
    }
    peers.extend(inner.children.lock().iter().copied());
    let mut learned = 0;
    for addr in peers {
        // Two attempts, no quarantine interaction either way: resync
        // runs right after restart, when this node has no basis for
        // judging its peers yet.
        let opts = RequestOptions {
            max_attempts: 2,
            quarantine_on_failure: false,
            respect_quarantine: false,
        };
        if let Ok(Message::HintBatch {
            sender,
            updates,
            tag,
        }) = inner.pool.request(addr, opts, &Message::Resync)
        {
            // Resync replies are authenticated like any other batch:
            // a byzantine peer cannot seed a restarting node's hint
            // table with forged locations.
            if verify_hint_batch(inner, sender, &updates, &tag) {
                learned += updates.len();
                apply_updates(inner, updates);
            }
        }
    }
    inner
        .resync_learned
        .fetch_add(learned as u64, Ordering::Relaxed);
    // Release pairs with the Acquire read in the meta namespace: a poller
    // that observes the run count also observes its learned total.
    inner.resync_runs.fetch_add(1, Ordering::Release);
    learned
}

/// One outbound `Get`-shaped request/reply through the connection pool.
fn fetch_from(
    inner: &Inner,
    addr: SocketAddr,
    opts: RequestOptions,
    msg: &Message,
) -> io::Result<(Status, u32, Bytes)> {
    match inner.pool.request(addr, opts, msg)? {
        Message::GetReply {
            status,
            version,
            body,
            ..
        } => Ok((status, version, body)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply {other:?}"),
        )),
    }
}

/// Step 1 of a `Get`: the local data cache. Purely in-memory (a mutex and
/// two map lookups), so the engine answers hits inline on the shard
/// thread instead of paying the worker-pool round trip.
fn local_hit(inner: &Inner, url: &str) -> Option<Message> {
    let key = bh_md5::url_key(url);
    let mut store = inner.store.lock();
    if store.meta.get(key, 0).is_some() {
        if let Some(body) = store.bodies.get(&key).cloned() {
            let version = store.meta.peek(key).map(|(_, v)| v).unwrap_or(0);
            inner.metrics.local_hits.inc();
            drop(store);
            trace_event(inner, span::LOCAL_HIT, key, 0);
            return Some(Message::GetReply {
                status: Status::Ok,
                version,
                served_by: ServedBy::Local,
                body,
            });
        }
    }
    None
}

/// Stable served-by code for trace records: 0 local, 1 peer, 2 origin.
fn served_by_code(reply: &Message) -> u64 {
    match reply {
        Message::GetReply { served_by, .. } => match served_by {
            ServedBy::Local => 0,
            ServedBy::Peer(_) => 1,
            ServedBy::Origin => 2,
        },
        _ => 2,
    }
}

/// The full miss-service path, wrapped in the request-service span
/// (recv → hint-lookup → probe/origin-fetch → reply) and timed into the
/// `request_service_micros` histogram.
fn handle_get(inner: &Inner, url: &str) -> Message {
    if inner.drained() {
        // Drained (mesh API): turn the client away exactly like admission
        // control does, so existing clients already know to fall back to
        // the origin. Hint traffic keeps flowing; only `Get`s drain.
        inner.metrics.admission_rejects.inc();
        trace_event(inner, span::ADMISSION_REJECT, bh_md5::url_key(url), 0);
        return Message::GetReply {
            status: Status::Redirect,
            version: 0,
            served_by: ServedBy::Origin,
            body: Bytes::new(),
        };
    }
    let t0 = Instant::now();
    let key = bh_md5::url_key(url);
    trace_event(inner, span::RECV, key, 0);
    let reply = service_get(inner, url, key);
    trace_event(inner, span::REPLY, key, served_by_code(&reply));
    inner
        .metrics
        .request_service_micros
        .observe(t0.elapsed().as_micros() as u64);
    reply
}

fn service_get(inner: &Inner, url: &str, key: u64) -> Message {
    // 1. Local cache.
    if let Some(reply) = local_hit(inner, url) {
        return reply;
    }

    // 2. Local hint store → direct peer fetch. Only the owning hint
    // shard is locked; the data-store lock is never touched here.
    let hint = inner.hints.lookup(key).map(MachineId);
    trace_event(inner, span::HINT_LOOKUP, key, u64::from(hint.is_some()));
    if let Some(peer) = hint {
        if peer != inner.machine {
            match fetch_from(
                inner,
                peer.to_addr(),
                RequestOptions::peer_probe(),
                &Message::PeerGet {
                    url: url.to_string(),
                },
            ) {
                Ok((Status::Ok, version, body)) => {
                    inner.metrics.peer_hits.inc();
                    trace_event(inner, span::PEER_PROBE, key, 0);
                    store_body(inner, key, version, body.clone());
                    return Message::GetReply {
                        status: Status::Ok,
                        version,
                        served_by: ServedBy::Peer(peer),
                        body,
                    };
                }
                Ok((Status::NotFound, ..))
                | Ok((Status::Error, ..))
                | Ok((Status::Redirect, ..)) => {
                    // False positive: drop the hint, go to the origin. No
                    // second hint lookup (§3.1.1).
                    inner.metrics.false_positives.inc();
                    trace_event(inner, span::PEER_PROBE, key, 1);
                    inner.hints.remove(key);
                    log_mutation(inner, LogRecord::remove(key));
                }
                Err(_) => {
                    // Dead or unreachable peer: same one-wasted-probe
                    // accounting, plus the degradation counter the chaos
                    // harness watches — the request still completes via
                    // the origin.
                    inner.metrics.false_positives.inc();
                    inner.metrics.degraded_to_origin.inc();
                    trace_event(inner, span::PEER_PROBE, key, 2);
                    inner.hints.remove(key);
                    log_mutation(inner, LogRecord::remove(key));
                }
            }
        }
    }

    // 3. Origin server.
    match fetch_from(
        inner,
        inner.config.origin,
        RequestOptions::origin(),
        &Message::Get {
            url: url.to_string(),
        },
    ) {
        Ok((Status::Ok, version, body)) => {
            inner.metrics.origin_fetches.inc();
            trace_event(inner, span::ORIGIN_FETCH, key, 0);
            store_body(inner, key, version, body.clone());
            Message::GetReply {
                status: Status::Ok,
                version,
                served_by: ServedBy::Origin,
                body,
            }
        }
        _ => {
            trace_event(inner, span::ORIGIN_FETCH, key, 1);
            Message::GetReply {
                status: Status::Error,
                version: 0,
                served_by: ServedBy::Origin,
                body: Bytes::new(),
            }
        }
    }
}

/// Applies a received update batch to the hint store with the §3.1.2
/// filtering, queueing the state-changing subset for hierarchical
/// re-propagation. Shared by authenticated `HintBatch` frames and
/// authenticated `Resync` replies.
fn apply_updates(inner: &Inner, updates: Vec<HintUpdate>) {
    let hierarchical = inner.parent.lock().is_some() || !inner.children.lock().is_empty();
    // Each hint shard is locked once per batch: pass `s` sweeps the
    // updates owned by shard `s`, recording per-update outcomes in
    // `keep`, and the propagate subset is reassembled in original batch
    // order afterwards — so the §3.1.2 filtering result (and every
    // artifact derived from re-propagation) is identical to what a
    // single-store walk would produce.
    let mut keep = vec![false; updates.len()];
    for s in 0..inner.hints.shard_count() {
        let mut shard = None;
        for (i, u) in updates.iter().enumerate() {
            if u.machine == inner.machine || inner.hints.shard_index(u.object) != s {
                continue;
            }
            let hints = shard.get_or_insert_with(|| inner.hints.lock_shard(s));
            match u.action {
                HintAction::Add => {
                    // §3.1.2 filtering: forward only the first
                    // copy this subtree learns of.
                    let first = hints.peek(u.object).is_none();
                    hints.insert(u.object, u.machine.0);
                    log_mutation(inner, LogRecord::add(u.object, u.machine.0));
                    if first {
                        keep[i] = true;
                    } else {
                        inner.metrics.updates_filtered.inc();
                    }
                }
                HintAction::Remove => {
                    // Only drop (and advertise) if the hint
                    // named the departing machine.
                    if hints.peek(u.object) == Some(u.machine.0) {
                        hints.remove(u.object);
                        log_mutation(inner, LogRecord::remove(u.object));
                        keep[i] = true;
                    } else {
                        inner.metrics.updates_filtered.inc();
                    }
                }
            }
        }
    }
    inner.metrics.updates_received.add(updates.len() as u64);
    if hierarchical && keep.iter().any(|&k| k) {
        // Knowledge changed: climb/descend the metadata tree.
        // Loop-safe because re-applying the same update is a
        // no-op (filtered) everywhere it has already landed.
        let propagate = updates
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(u, _)| *u);
        queue_pending(inner, propagate);
    }
}

/// Answers every frame that can be served from purely local state — the
/// hint-module commands, pushes, and the meta namespace. `Get` is *not*
/// local (it may probe a peer or the origin) and is answered with an
/// error here; the engine routes it to [`handle_get`] before calling
/// this. Takes the `Arc` (not `&Inner`) because meta control writes that
/// imply outbound I/O (`control/resync`, `control/flush`) must detach
/// onto their own thread — shard threads never perform outbound I/O.
fn local_response(inner: &Arc<Inner>, msg: Message) -> Message {
    match msg {
        Message::MetaRequest { op, path, value } => meta::handle(inner, op, &path, &value),
        Message::PeerGet { url } => {
            // Serve only from the local cache; never forward.
            let key = bh_md5::url_key(&url);
            let mut store = inner.store.lock();
            if store.meta.get(key, 0).is_some() {
                let version = store.meta.peek(key).map(|(_, v)| v).unwrap_or(0);
                match store.bodies.get(&key).cloned() {
                    Some(body) => Message::GetReply {
                        status: Status::Ok,
                        version,
                        served_by: ServedBy::Local,
                        body,
                    },
                    None => Message::GetReply {
                        status: Status::NotFound,
                        version: 0,
                        served_by: ServedBy::Local,
                        body: Bytes::new(),
                    },
                }
            } else {
                Message::GetReply {
                    status: Status::NotFound,
                    version: 0,
                    served_by: ServedBy::Local,
                    body: Bytes::new(),
                }
            }
        }
        Message::HintBatch {
            sender,
            updates,
            tag,
        } => {
            // Authenticated batch: a bad tag is dropped (and counted
            // toward the sender's quarantine streak) but still Acked —
            // hints are advisory, so a byzantine sender learns nothing
            // from the reply and an honest one never sees an error.
            if verify_hint_batch(inner, sender, &updates, &tag) {
                apply_updates(inner, updates);
            }
            Message::Ack
        }
        Message::Push { url, version, body } => {
            let key = bh_md5::url_key(&url);
            inner.metrics.pushes_received.inc();
            store_body(inner, key, version, body);
            // Aging (§4.1.2): pushed copies start at the cold end.
            inner.store.lock().meta.demote(key);
            Message::Ack
        }
        Message::FindNearest { key } => {
            let location = inner.hints.lookup(key).map(MachineId);
            Message::FindNearestReply { location }
        }
        Message::Ping => Message::Ack,
        Message::Resync => {
            // Anti-entropy pull from a restarting peer: re-advertise every
            // object this node currently holds, as plain Adds. Sorted so
            // the reply is deterministic for a given store state.
            let mut keys: Vec<u64> = {
                let store = inner.store.lock();
                store.bodies.keys().copied().collect()
            };
            keys.sort_unstable();
            let updates = keys
                .into_iter()
                .map(|object| HintUpdate {
                    action: HintAction::Add,
                    object,
                    machine: inner.machine,
                })
                .collect();
            inner.metrics.resyncs_served.inc();
            outbound_hint_batch(inner, updates)
        }
        _ => Message::GetReply {
            status: Status::Error,
            version: 0,
            served_by: ServedBy::Local,
            body: Bytes::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginServer;

    fn cluster(n: usize) -> (OriginServer, Vec<CacheNode>) {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let nodes: Vec<CacheNode> = (0..n)
            .map(|_| {
                CacheNode::spawn(
                    NodeConfig::new("127.0.0.1:0", origin.addr())
                        .with_flush_max(Duration::from_secs(3600)),
                )
                .expect("node")
            })
            .collect();
        // Wire the full mesh now that every address is known.
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
        for (i, node) in nodes.iter().enumerate() {
            node.set_neighbors(
                addrs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, a)| *a)
                    .collect(),
            );
        }
        (origin, nodes)
    }

    #[test]
    fn local_cache_serves_second_request() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        let (s1, b1) = crate::client::fetch(node.addr(), "http://t.test/x").expect("fetch");
        let (s2, b2) = crate::client::fetch(node.addr(), "http://t.test/x").expect("fetch");
        assert_eq!(s1, crate::client::Source::Origin);
        assert_eq!(s2, crate::client::Source::Local);
        assert_eq!(b1, b2);
        assert_eq!(node.stats().local_hits, 1);
        assert_eq!(node.stats().origin_fetches, 1);
        assert_eq!(origin.request_count(), 1);
    }

    #[test]
    fn find_nearest_reflects_updates() {
        let (_origin, nodes) = cluster(2);
        let url = "http://t.test/shared";
        let key = bh_md5::url_key(url);
        crate::client::fetch(nodes[0].addr(), url).expect("fetch");
        nodes[0].flush_updates_now();
        // Node 1's hint store should now name node 0.
        let loc = nodes[1].find_nearest(key).expect("hint should arrive");
        assert_eq!(loc, nodes[0].machine_id());
    }

    #[test]
    fn invalidate_advertises_non_presence() {
        let (_origin, nodes) = cluster(2);
        let url = "http://t.test/gone";
        let key = bh_md5::url_key(url);
        crate::client::fetch(nodes[0].addr(), url).expect("fetch");
        nodes[0].flush_updates_now();
        assert!(nodes[1].find_nearest(key).is_some());
        nodes[0].invalidate(url);
        nodes[0].flush_updates_now();
        assert_eq!(nodes[1].find_nearest(key), None);
        assert_eq!(nodes[0].cached_objects(), 0);
    }

    /// Satellite: the digest-partitioned hint store must be
    /// operation-for-operation equivalent to a single-store witness —
    /// lookup results, purge counts, and the full entry set — across
    /// seeds and shard counts.
    #[test]
    fn hint_shards_match_single_store_witness() {
        for seed in [7u64, 42, 1999] {
            for shard_count in [1usize, 2, 4, 8] {
                let shards = HintShards::unbounded(shard_count);
                let mut witness = HintCache::unbounded();
                let mut rng = seed | 1;
                let mut step = move || {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    rng
                };
                for _ in 0..2000 {
                    let op = step() % 100;
                    // A small key space forces collisions; the odd
                    // multiplier spreads it across shards.
                    let key = (step() % 257 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let loc = step() % 5 + 1;
                    if op < 50 {
                        shards.shards[shards.shard_index(key)]
                            .lock()
                            .insert(key, loc);
                        witness.insert(key, loc);
                    } else if op < 70 {
                        assert_eq!(
                            shards.lookup(key),
                            witness.lookup(key),
                            "lookup diverged at seed {seed}, {shard_count} shards"
                        );
                    } else if op < 85 {
                        shards.remove(key);
                        witness.remove(key);
                    } else {
                        let purged = shards.purge_location(loc);
                        assert_eq!(
                            purged,
                            witness.purge_location(loc),
                            "purge diverged at seed {seed}, {shard_count} shards"
                        );
                    }
                }
                let mut got = shards.entries();
                let mut want = witness.entries();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "entry sets diverged at seed {seed}");
            }
        }
    }

    /// A node's bounded shards reach every set of their configured
    /// capacity: 32,768 random keys, an eighth of the default 262,144
    /// records, nearly all survive. A shard index drawn from the set-index
    /// bits would confine each shard to an eighth of its sets, leaving
    /// about 80% of the keys.
    #[test]
    fn bounded_hint_shards_use_their_whole_capacity() {
        let origin: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let config = NodeConfig::new("127.0.0.1:0", origin);
        let shards = HintShards::with_capacity(config.hint_capacity, config.hint_shards);
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let keys: Vec<u64> = (0..32_768)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            })
            .collect();
        for &key in &keys {
            shards.lock_shard(shards.shard_index(key)).insert(key, 1);
        }
        let present = keys
            .iter()
            .filter(|&&key| {
                shards
                    .lock_shard(shards.shard_index(key))
                    .peek(key)
                    .is_some()
            })
            .count();
        assert!(
            present * 100 >= keys.len() * 99,
            "only {present} of {} keys survived",
            keys.len()
        );
    }

    /// Satellite: the pending coalescing buffer is bounded — overflow
    /// drops the oldest records and reports how many.
    #[test]
    fn pending_buffer_drops_oldest_at_cap() {
        let mut pending: VecDeque<HintUpdate> = VecDeque::new();
        let update = |object: u64| HintUpdate {
            action: HintAction::Add,
            object,
            machine: MachineId(9),
        };
        let mut dropped = 0;
        for i in 0..PENDING_CAP as u64 + 10 {
            dropped += push_bounded(&mut pending, update(i), PENDING_CAP);
        }
        assert_eq!(pending.len(), PENDING_CAP);
        assert_eq!(dropped, 10);
        // Oldest went first: the front is now record 10.
        assert_eq!(pending.front().map(|u| u.object), Some(10));
        assert_eq!(
            pending.back().map(|u| u.object),
            Some(PENDING_CAP as u64 + 9)
        );
    }
}
