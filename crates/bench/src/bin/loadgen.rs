//! Trace-replay load generator for the live hint-protocol prototype.
//!
//! Spawns an origin plus an N-node full-mesh cache cluster on loopback and
//! replays a synthetic `bh-trace` workload through it from M concurrent
//! closed-loop clients (`bh_proto::replay::replay_concurrent`). Reports
//! aggregate throughput, hit/probe/false-positive counts, and p50/p95/p99
//! request latency, and writes the same JSON-artifact format as the other
//! experiment binaries to `<out>/loadgen.json`.
//!
//! ```text
//! loadgen [--nodes n] [--clients m] [--requests r]
//!         [--scenario <name|file.json>] [--obs] [--seed n] [--out dir]
//! ```
//!
//! `--obs` scrapes every node's obs registry through the mesh API
//! (`Get mesh/nodes/self/metrics`) after the replay, prints a per-node
//! summary, and writes the full snapshots to `<out>/loadgen_obs.json`.
//!
//! `--scenario` runs a named or file-loaded [`bh_bench::scenario`]
//! bundle — a workload (the plain trace, a flash crowd, or diurnal
//! churn), a mesh topology (a flat mesh or the two-level hint
//! hierarchy), and a fault plan (crash/restart, partition, one-way
//! partition, latency, drop, or the role-targeted `CrashParent`),
//! replayed segment by segment with hit rate, false-probe rate, and
//! latency percentiles reported before/during/after every fault window.
//! `chaos-smoke` is the flat 4-node crash + partition drill. The
//! deterministic schedule, plan and request counts land in
//! `scenario_<name>_events.log` + `scenario_<name>.json` (byte-identical
//! across runs of the same seed); measured metrics land in
//! `scenario_<name>_metrics.json`. The process exits nonzero unless
//! every window recovered, every orphaned child re-homed, and live
//! Plaxton repair matched the analytic churn count.
//!
//! `--mesh-sweep n1,n2,...` runs the mesh-scaling experiment as a weak
//! scaling sweep: each point spawns a fresh sharded mesh of that many
//! nodes — control plane wired as a ring lattice with n-scaled flush
//! and heartbeat periods ([`mesh_control_plane`]) — and drives
//! `max(1, clients/nodes)` client threads *per node* through
//! `--requests` trace records *per node*, so the offered load grows
//! with the mesh. The regime is the paper's: a capacity-limited cache
//! tier (`--data-cap-mb` per node — one node cannot hold the working
//! set, aggregate capacity is what scales) in front of a distant origin
//! (`--origin-delay-ms` per fetch, the WAN round trip). Client errors
//! fail the process. Two artifacts land in
//! `<out>`: `BENCH_mesh_plan.json` (the deterministic sweep schedule —
//! byte-identical across runs of the same seed) and `BENCH_mesh.json`
//! (measured req/s, latency percentiles, and the per-node
//! admission/writev/wakeup counters).
//!
//! `--recovery` runs the warm-restart comparison
//! ([`bh_bench::recovery`]): the same seeded warm-up, crash, and
//! restart executed twice — once with the durable hint log
//! (`BENCH_recovery_plan.json` / `BENCH_recovery.json`) and once with
//! the resync baseline — and exits nonzero unless the log replay
//! recovered hints without a network resync.

use bh_bench::meshapi::{metric_values_from_meta, pick, MeshClient};
use bh_bench::recovery::{run_recovery, RecoveryOptions};
use bh_bench::report::MetricValue;
use bh_bench::scenario::{run_scenario, Scenario};
use bh_bench::Args;
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::replay::{replay_concurrent, ReplayConfig};
use bh_trace::{TraceGenerator, TraceRecord, WorkloadSpec};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed loadgen CLI (a superset of the shared harness flags).
struct LoadgenArgs {
    nodes: usize,
    clients: usize,
    requests: u64,
    shards: usize,
    workers: usize,
    p_new: f64,
    seed: u64,
    scenario: Option<String>,
    mesh_sweep: Option<Vec<usize>>,
    recovery: bool,
    data_cap_mb: u64,
    origin_delay_ms: u64,
    obs: bool,
    out: PathBuf,
}

impl LoadgenArgs {
    fn parse() -> LoadgenArgs {
        let mut args = LoadgenArgs {
            nodes: 4,
            clients: 16,
            requests: 50_000,
            shards: 1,
            workers: 16,
            p_new: 0.35,
            seed: 42,
            scenario: None,
            mesh_sweep: None,
            recovery: false,
            data_cap_mb: 8,
            origin_delay_ms: 2,
            obs: false,
            out: PathBuf::from("target/experiments"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a {what} argument"))
            };
            match flag.as_str() {
                "--nodes" => {
                    args.nodes = value("count").parse().expect("--nodes takes an integer");
                    assert!(args.nodes >= 1, "--nodes must be at least 1");
                }
                "--clients" => {
                    args.clients = value("count").parse().expect("--clients takes an integer");
                    assert!(args.clients >= 1, "--clients must be at least 1");
                }
                "--requests" => {
                    args.requests = value("count").parse().expect("--requests takes an integer");
                }
                "--shards" => {
                    args.shards = value("count").parse().expect("--shards takes an integer");
                }
                "--workers" => {
                    args.workers = value("count").parse().expect("--workers takes an integer");
                }
                "--p-new" => {
                    args.p_new = value("probability").parse().expect("--p-new takes a float");
                    assert!(
                        (0.0..=1.0).contains(&args.p_new),
                        "--p-new must be in [0,1]"
                    );
                }
                "--seed" => args.seed = value("number").parse().expect("--seed takes an integer"),
                "--scenario" => args.scenario = Some(value("scenario")),
                "--mesh-sweep" => {
                    let points: Vec<usize> = value("node-count list")
                        .split(',')
                        .map(|p| p.trim().parse().expect("--mesh-sweep takes node counts"))
                        .collect();
                    assert!(
                        !points.is_empty() && points.iter().all(|&n| n >= 1),
                        "--mesh-sweep needs at least one node count >= 1"
                    );
                    args.mesh_sweep = Some(points);
                }
                "--recovery" => args.recovery = true,
                "--data-cap-mb" => {
                    args.data_cap_mb = value("megabytes")
                        .parse()
                        .expect("--data-cap-mb takes an integer");
                    assert!(args.data_cap_mb >= 1, "--data-cap-mb must be at least 1");
                }
                "--origin-delay-ms" => {
                    args.origin_delay_ms = value("milliseconds")
                        .parse()
                        .expect("--origin-delay-ms takes an integer");
                }
                "--obs" => args.obs = true,
                "--out" => args.out = PathBuf::from(value("path")),
                "--help" | "-h" => {
                    println!(
                        "usage: loadgen [--nodes n] [--clients m] [--requests r] \
                         [--scenario flash-crowd|diurnal-churn|chaos-smoke|<scenario.json>] \
                         [--mesh-sweep n1,n2,...] [--recovery] [--data-cap-mb mb] \
                         [--origin-delay-ms ms] \
                         [--shards s] [--workers w] [--obs] \
                         [--p-new f] [--seed n] [--out dir]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        args
    }

    /// The shared-harness view of these args, for `write_json`.
    fn harness(&self) -> Args {
        Args {
            scale: 1.0,
            seed: self.seed,
            trace: "custom".to_string(),
            out: self.out.clone(),
            jobs: 1,
        }
    }
}

/// One measured replay run, serialized as the JSON artifact.
#[derive(Debug, Serialize)]
struct LoadgenRun {
    nodes: usize,
    client_threads: usize,
    requests: u64,
    errors: u64,
    local_hits: u64,
    peer_hits: u64,
    origin_fetches: u64,
    false_positives: u64,
    hit_ratio: f64,
    bytes: u64,
    wall_seconds: f64,
    requests_per_second: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// One node's end-of-run registry snapshot, scraped through the mesh
/// API (the `--obs` artifact).
#[derive(Debug, Serialize)]
struct ObsNode {
    addr: String,
    metrics: Vec<MetricValue>,
}

/// Scrapes every node through the mesh API namespace
/// (`Get mesh/nodes/self/metrics` per node — the same operator path
/// `obs get` uses) and prints a per-node summary.
fn scrape_nodes(nodes: &[CacheNode]) -> Vec<ObsNode> {
    let mesh = MeshClient::new(nodes.iter().map(CacheNode::addr).collect());
    mesh.get_all("mesh/nodes/self/metrics")
        .expect("scrape node metrics")
        .into_iter()
        .map(|reply| {
            let metrics = metric_values_from_meta(&reply.entries);
            println!(
                "obs {:>21}  local {:>6}  peer {:>5}  origin {:>6}  fp {:>4}  \
                 served {:>7}  live-conns {:>3}",
                reply.addr,
                pick(&metrics, "local_hits"),
                pick(&metrics, "peer_hits"),
                pick(&metrics, "origin_fetches"),
                pick(&metrics, "false_positives"),
                pick(&metrics, "request_service_micros.count"),
                pick(&metrics, "pool_live_connections"),
            );
            ObsNode {
                addr: reply.addr.to_string(),
                metrics,
            }
        })
        .collect()
}

/// One planned sweep point: everything here is derived from the CLI and
/// the seed, so the plan artifact is byte-identical across runs.
#[derive(Debug, Serialize)]
struct MeshPointPlan {
    nodes: usize,
    client_threads: usize,
    requests: u64,
    trace_records: usize,
    ring_neighbors: usize,
    flush_max_ms: u64,
    heartbeat_ms: u64,
    pool_idle_cap: usize,
}

/// Control-plane knobs for one sweep point, derived purely from the node
/// count so the plan artifact and the live nodes cannot disagree.
///
/// A full mesh is the non-scalable strawman: flushing hints to `n - 1`
/// neighbors every 100 ms and heartbeating all of them every second is
/// O(n²) round trips per interval — at 64 nodes that demands ~44k
/// connection round trips per second of the control plane alone, which
/// thrashes the fd table (§3.1.2 is precisely about not flooding hint
/// updates). The sweep instead wires a deterministic ring lattice (each
/// node flushes and heartbeats its `min(n - 1, 8)` ring successors;
/// hints reach the rest by gossip hops) and stretches the flush and
/// heartbeat periods linearly with the mesh so control traffic stays
/// O(n) per second. Request-path probes are unaffected: they follow
/// hints to any machine, neighbor or not.
fn mesh_control_plane(n: usize) -> MeshControlPlane {
    MeshControlPlane {
        ring_neighbors: n.saturating_sub(1).min(8),
        flush_max_ms: (25 * n as u64).max(100),
        heartbeat_ms: 1000 + 125 * n as u64,
        // All n nodes share one process and one fd rlimit (20k on the
        // bench box). At ~5 fds per pooled connection (client stream +
        // reader clone, server stream + registry + reader clones),
        // 1024/n warm connections per node keeps even a 100-node point
        // near 5k fds instead of walking into EMFILE.
        pool_idle_cap: (1024 / n).clamp(4, 256),
    }
}

struct MeshControlPlane {
    ring_neighbors: usize,
    flush_max_ms: u64,
    heartbeat_ms: u64,
    pool_idle_cap: usize,
}

/// The deterministic half of the sweep (`BENCH_mesh_plan.json`).
#[derive(Debug, Serialize)]
struct MeshSweepPlan {
    seed: u64,
    p_new: f64,
    data_cap_mb: u64,
    origin_delay_ms: u64,
    clients_per_node: usize,
    points: Vec<MeshPointPlan>,
}

/// One measured sweep point (`BENCH_mesh.json`): replay outcome plus the
/// data-path counters scraped from every node's obs registry.
#[derive(Debug, Serialize)]
struct MeshPoint {
    nodes: usize,
    client_threads: usize,
    requests: u64,
    errors: u64,
    redirects: u64,
    local_hits: u64,
    peer_hits: u64,
    origin_fetches: u64,
    hit_ratio: f64,
    requests_per_second: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    admission_rejects: u64,
    queue_saturation_events: u64,
    hint_batch_overflow: u64,
    wakeups_coalesced: u64,
    writev_batches: u64,
}

/// The measured half of the sweep.
#[derive(Debug, Serialize)]
struct MeshSweepResult {
    seed: u64,
    data_cap_mb: u64,
    origin_delay_ms: u64,
    clients_per_node: usize,
    points: Vec<MeshPoint>,
}

/// Spawns a fresh `n`-node mesh (ring-lattice control plane,
/// see [`mesh_control_plane`]) in the capacity-limited regime and
/// replays `records` through it.
fn run_mesh_point(
    args: &LoadgenArgs,
    n: usize,
    clients: usize,
    records: &[TraceRecord],
) -> MeshPoint {
    let origin =
        OriginServer::spawn_with_delay("127.0.0.1:0", Duration::from_millis(args.origin_delay_ms))
            .expect("spawn origin");
    let cp = mesh_control_plane(n);
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let config = NodeConfig::new("127.0.0.1:0", origin.addr())
            .with_shards(args.shards)
            .with_workers(args.workers)
            .with_data_capacity(bh_simcore::ByteSize::from_mb(args.data_cap_mb))
            .with_flush_max(Duration::from_millis(cp.flush_max_ms))
            .with_heartbeat_interval(Duration::from_millis(cp.heartbeat_ms))
            .with_pool_idle_cap(cp.pool_idle_cap);
        nodes.push(CacheNode::spawn(config).expect("spawn cache node"));
    }
    let addrs: Vec<_> = nodes.iter().map(CacheNode::addr).collect();
    for (i, node) in nodes.iter().enumerate() {
        // Ring lattice: node i flushes hints to (and heartbeats) its
        // ring_neighbors successors; see mesh_control_plane.
        node.set_neighbors(
            (1..=cp.ring_neighbors)
                .map(|d| addrs[(i + d) % n])
                .collect(),
        );
    }

    let config = ReplayConfig::flat_out(addrs).with_origin(origin.addr());
    let outcome = replay_concurrent(&config, records, clients).expect("concurrent replay");

    let stats: Vec<_> = nodes.iter().map(|node| node.stats()).collect();
    let sum = |f: fn(&bh_proto::node::NodeStats) -> u64| stats.iter().map(f).sum::<u64>();
    let point = MeshPoint {
        nodes: n,
        client_threads: clients,
        requests: outcome.report.requests,
        errors: outcome.report.errors,
        redirects: outcome.report.redirects,
        local_hits: outcome.report.local_hits,
        peer_hits: outcome.report.peer_hits,
        origin_fetches: outcome.report.origin_fetches,
        hit_ratio: outcome.report.hit_ratio(),
        requests_per_second: outcome.requests_per_second(),
        p50_ms: outcome.latency.p50().unwrap_or(0.0) * 1e3,
        p95_ms: outcome.latency.p95().unwrap_or(0.0) * 1e3,
        p99_ms: outcome.latency.p99().unwrap_or(0.0) * 1e3,
        admission_rejects: sum(|s| s.admission_rejects),
        queue_saturation_events: sum(|s| s.queue_saturation_events),
        hint_batch_overflow: sum(|s| s.hint_batch_overflow),
        wakeups_coalesced: sum(|s| s.wakeups_coalesced),
        writev_batches: sum(|s| s.writev_batches),
    };
    for node in nodes {
        node.shutdown();
    }
    origin.shutdown();
    point
}

/// Drives the full sweep and writes both artifact halves. Returns false
/// if any point saw client errors.
fn run_mesh_sweep(harness: &Args, args: &LoadgenArgs, points: &[usize]) -> bool {
    let clients_per_node = (args.clients / args.nodes).max(1);
    println!(
        "mesh sweep over {points:?} nodes (weak scaling), {clients_per_node} clients/node, \
         {} requests/node, {} MB data capacity/node, {} ms origin delay, seed {}",
        args.requests, args.data_cap_mb, args.origin_delay_ms, args.seed
    );

    let mut plan = MeshSweepPlan {
        seed: args.seed,
        p_new: args.p_new,
        data_cap_mb: args.data_cap_mb,
        origin_delay_ms: args.origin_delay_ms,
        clients_per_node,
        points: Vec::with_capacity(points.len()),
    };
    let mut result = MeshSweepResult {
        seed: args.seed,
        data_cap_mb: args.data_cap_mb,
        origin_delay_ms: args.origin_delay_ms,
        clients_per_node,
        points: Vec::with_capacity(points.len()),
    };
    for &n in points {
        let clients = clients_per_node * n;
        let requests = args.requests * n as u64;
        let spec = WorkloadSpec::small()
            .with_requests((requests as f64 / 0.9).ceil() as u64)
            .with_clients(n as u32 * 256)
            .with_p_new(args.p_new);
        let records: Vec<TraceRecord> = TraceGenerator::new(&spec, args.seed).collect();
        let cp = mesh_control_plane(n);
        plan.points.push(MeshPointPlan {
            nodes: n,
            client_threads: clients,
            requests,
            trace_records: records.len(),
            ring_neighbors: cp.ring_neighbors,
            flush_max_ms: cp.flush_max_ms,
            heartbeat_ms: cp.heartbeat_ms,
            pool_idle_cap: cp.pool_idle_cap,
        });
        let point = run_mesh_point(args, n, clients, &records);
        println!(
            "{:>4} nodes  {:>9.0} req/s  hit {:>5.1}%  {:>6} local  {:>6} peer  \
             {:>6} origin  {:>4} redir  {:>3} err  p50 {:>6.2} ms  p99 {:>6.2} ms  \
             writev {:>6}  coalesced {:>6}",
            point.nodes,
            point.requests_per_second,
            point.hit_ratio * 100.0,
            point.local_hits,
            point.peer_hits,
            point.origin_fetches,
            point.redirects,
            point.errors,
            point.p50_ms,
            point.p99_ms,
            point.writev_batches,
            point.wakeups_coalesced,
        );
        result.points.push(point);
    }

    let clean = result.points.iter().all(|p| p.errors == 0);
    if !clean {
        eprintln!("mesh sweep saw client errors; failing the run");
    }
    harness.write_json("BENCH_mesh_plan", &plan);
    harness.write_json("BENCH_mesh", &result);
    clean
}

fn run_replay(
    args: &LoadgenArgs,
    records: &[TraceRecord],
    spec: &WorkloadSpec,
) -> (LoadgenRun, Vec<ObsNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn origin");

    let mut nodes = Vec::with_capacity(args.nodes);
    for _ in 0..args.nodes {
        let config = NodeConfig::new("127.0.0.1:0", origin.addr())
            .with_shards(args.shards)
            .with_workers(args.workers)
            .with_flush_max(Duration::from_millis(25));
        nodes.push(CacheNode::spawn(config).expect("spawn cache node"));
    }
    let addrs: Vec<_> = nodes.iter().map(CacheNode::addr).collect();
    for node in &nodes {
        node.set_neighbors(
            addrs
                .iter()
                .copied()
                .filter(|a| *a != node.addr())
                .collect(),
        );
    }

    let mut config = ReplayConfig::flat_out(addrs);
    config.clients_per_l1 = spec.clients_per_l1;
    config.dynamic_client_ids = spec.dynamic_client_ids;
    let outcome = replay_concurrent(&config, records, args.clients).expect("concurrent replay");

    let false_positives: u64 = nodes.iter().map(|n| n.stats().false_positives).sum();
    let [p50, p95, p99] = [
        outcome.latency.p50().unwrap_or(0.0),
        outcome.latency.p95().unwrap_or(0.0),
        outcome.latency.p99().unwrap_or(0.0),
    ];
    let run = LoadgenRun {
        nodes: args.nodes,
        client_threads: args.clients,
        requests: outcome.report.requests,
        errors: outcome.report.errors,
        local_hits: outcome.report.local_hits,
        peer_hits: outcome.report.peer_hits,
        origin_fetches: outcome.report.origin_fetches,
        false_positives,
        hit_ratio: outcome.report.hit_ratio(),
        bytes: outcome.report.bytes,
        wall_seconds: outcome.wall_seconds,
        requests_per_second: outcome.requests_per_second(),
        p50_ms: p50 * 1e3,
        p95_ms: p95 * 1e3,
        p99_ms: p99 * 1e3,
    };

    let scrapes = if args.obs {
        scrape_nodes(&nodes)
    } else {
        Vec::new()
    };

    for node in nodes {
        node.shutdown();
    }
    origin.shutdown();
    (run, scrapes)
}

fn print_run(run: &LoadgenRun) {
    println!(
        "{:>9.0} req/s  {:>7} req  {:>6} local  {:>6} peer  {:>6} origin  \
         {:>4} fp  {:>3} err  p50 {:>6.2} ms  p95 {:>6.2} ms  p99 {:>6.2} ms",
        run.requests_per_second,
        run.requests,
        run.local_hits,
        run.peer_hits,
        run.origin_fetches,
        run.false_positives,
        run.errors,
        run.p50_ms,
        run.p95_ms,
        run.p99_ms,
    );
}

fn main() {
    let args = LoadgenArgs::parse();
    let harness = args.harness();
    bh_bench::banner(
        "loadgen",
        "prototype under load: trace replay against a live loopback mesh",
        &harness,
    );

    if let Some(scenario_arg) = args.scenario.clone() {
        assert!(
            args.mesh_sweep.is_none() && !args.recovery,
            "--scenario is mutually exclusive with --mesh-sweep and --recovery"
        );
        let scenario = match Scenario::named(&scenario_arg, args.seed) {
            Some(s) => s,
            None => Scenario::load(std::path::Path::new(&scenario_arg))
                .unwrap_or_else(|e| panic!("{e}")),
        };
        let ok = run_scenario(&harness, &scenario);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if let Some(points) = args.mesh_sweep.clone() {
        let ok = run_mesh_sweep(&harness, &args, &points);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.recovery {
        let opts = RecoveryOptions {
            nodes: args.nodes.max(2),
            requests: args.requests.min(5_000),
            crash_node: 1,
            clients: args.clients,
        };
        let ok = run_recovery(&harness, &opts);
        std::process::exit(if ok { 0 } else { 1 });
    }
    println!(
        "{} nodes (full mesh), {} client threads, {} trace records, seed {}",
        args.nodes, args.clients, args.requests, args.seed
    );

    // A compact, miss-heavy workload: enough first references to exercise the
    // origin path and enough sharing to drive peer probes and hint batches.
    // Uncachable/error records are skipped by the replayer, so oversample the
    // trace to land at least `--requests` issued requests.
    let spec = WorkloadSpec::small()
        .with_requests((args.requests as f64 / 0.9).ceil() as u64)
        .with_clients(args.nodes as u32 * 256)
        .with_p_new(args.p_new);
    let records: Vec<TraceRecord> = TraceGenerator::new(&spec, args.seed).collect();

    let (run, scrapes) = run_replay(&args, &records, &spec);
    print_run(&run);
    harness.write_json("loadgen", &run);
    if args.obs {
        harness.write_json("loadgen_obs", &scrapes);
    }
}
