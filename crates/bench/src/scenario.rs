//! Scenario harness: named workload + topology + fault-plan bundles
//! replayed segment by segment against a live mesh — the one fault-plan
//! runner.
//!
//! A [`Scenario`] binds three deterministic ingredients:
//!
//! * a **workload** — the plain synthetic trace or one of the
//!   `bh-trace` scenario generators (flash crowd or diurnal churn; those
//!   are materialized through the [`bh_trace::MaterializedTrace`] arena
//!   so replay is byte-identical to fresh generation);
//! * a **topology** — the mesh shape ([`Topology`]): a flat full mesh,
//!   or the two-level metadata hierarchy whose interior nodes a fault
//!   plan can target;
//! * a **fault plan** — request-count-positioned windows (crash/restart,
//!   partition, one-way partition, latency, drop, corrupt hints, and the
//!   role-targeted [`FaultKind::CrashParent`]).
//!
//! `loadgen --scenario <name|file.json>` runs one; `chaos-smoke` is the
//! flat-mesh crash + partition drill. Artifacts are split into a
//! deterministic half (CI runs every scenario twice and `cmp`s it) and a
//! measured half:
//!
//! * `scenario_<name>.json` — deterministic: the scenario config, each
//!   segment's planned request count, and the recovery verdict.
//! * `scenario_<name>_metrics.json` — measured: per-segment hit/probe/
//!   latency summaries, resynced hint and re-homed child counts, and
//!   each node's full obs-registry snapshot (the `stats-registry` lint
//!   pins the registry iteration here).
//! * `scenario_<name>_events.log` — the plan's schedule, byte-identical
//!   across runs by construction.
//! * `obs_dump.json` — the deterministic obs-registry dump.
//!
//! A window recovers when its post segment has no client errors and no
//! hit-rate collapse against its pre segment. A crash window also checks
//! the Plaxton invariants live: every survivor's `plaxton_repair_entries`
//! delta must equal the analytic churn count ([`analytic_churn_for`]),
//! and every orphaned child must re-home to a fallback parent (vacuous
//! on a flat mesh, which has no children).

use crate::report::{metric_values, write_obs_dump, MetricValue};
use crate::Args;
use bh_obs::{Determinism, Registry, Unit};
use bh_proto::chaos::{analytic_churn_for, ChaosMesh, FaultKind, FaultPlan, FaultWindow, Topology};
use bh_proto::liveness::PeerHealth;
use bh_proto::node::NodeStats;
use bh_proto::replay::{replay_concurrent, ConcurrentReplayReport, ReplayConfig};
use bh_trace::scenario::{ChurnKind, DiurnalChurnSpec, FlashCrowdSpec};
use bh_trace::{TraceGenerator, TraceRecord, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// The workload a scenario replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioWorkload {
    /// The plain synthetic trace, streamed from [`TraceGenerator`].
    Plain {
        /// The workload spec.
        spec: WorkloadSpec,
    },
    /// A flash crowd over background traffic.
    FlashCrowd {
        /// The crowd's spec (base workload + ramp schedule).
        spec: FlashCrowdSpec,
    },
    /// A diurnal swing with mesh join/leave churn.
    DiurnalChurn {
        /// The churn spec (base workload + churn rate).
        spec: DiurnalChurnSpec,
    },
}

impl ScenarioWorkload {
    /// The background workload spec (replay wiring reads client shape
    /// from it).
    pub fn base(&self) -> &WorkloadSpec {
        match self {
            ScenarioWorkload::Plain { spec } => spec,
            ScenarioWorkload::FlashCrowd { spec } => &spec.base,
            ScenarioWorkload::DiurnalChurn { spec } => &spec.base,
        }
    }

    /// Stable kind label for artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioWorkload::Plain { .. } => "plain",
            ScenarioWorkload::FlashCrowd { .. } => "flash-crowd",
            ScenarioWorkload::DiurnalChurn { .. } => "diurnal-churn",
        }
    }

    /// The workload fingerprint (spec identity, not the seed).
    pub fn fingerprint(&self) -> u64 {
        match self {
            ScenarioWorkload::Plain { spec } => spec.fingerprint(),
            ScenarioWorkload::FlashCrowd { spec } => spec.fingerprint(),
            ScenarioWorkload::DiurnalChurn { spec } => spec.fingerprint(),
        }
    }

    /// Validates the underlying spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScenarioWorkload::Plain { spec } => spec.validate(),
            ScenarioWorkload::FlashCrowd { spec } => spec.validate(),
            ScenarioWorkload::DiurnalChurn { spec } => spec.validate(),
        }
    }

    /// The workload's record list for `seed`. Scenario generators are
    /// materialized and replayed out of the arena — byte-identical to
    /// fresh generation.
    pub fn records(&self, seed: u64) -> Vec<TraceRecord> {
        match self {
            ScenarioWorkload::Plain { spec } => TraceGenerator::new(spec, seed).collect(),
            ScenarioWorkload::FlashCrowd { spec } => spec.materialize(seed).iter().collect(),
            ScenarioWorkload::DiurnalChurn { spec } => spec.materialize(seed).iter().collect(),
        }
    }
}

/// A named, self-contained scenario: workload, mesh shape, fault plan,
/// and client pressure. Serializable so a run is reproducible from one
/// JSON file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name; artifacts are `scenario_<name with - as _>`.
    pub name: String,
    /// Mesh shape the plan runs against.
    pub topology: Topology,
    /// The request stream.
    pub workload: ScenarioWorkload,
    /// Fault windows, validated against `topology`.
    pub plan: FaultPlan,
    /// Closed-loop client threads.
    pub clients: usize,
}

impl Scenario {
    /// Names [`Scenario::named`] resolves.
    pub const NAMES: [&'static str; 3] = ["flash-crowd", "diurnal-churn", "chaos-smoke"];

    /// The built-in scenario with `name`, seeded with `seed`.
    pub fn named(name: &str, seed: u64) -> Option<Scenario> {
        match name {
            "flash-crowd" => Some(Scenario::flash_crowd(seed)),
            "diurnal-churn" => Some(Scenario::diurnal_churn(seed)),
            "chaos-smoke" => Some(Scenario::chaos_smoke(seed)),
            _ => None,
        }
    }

    /// The flash-crowd preset: a 2-parent / 2-child hierarchy, the hot
    /// object's ramp covering the crash window of the level-0 parent —
    /// so hint propagation for a *viral* object must survive re-homing.
    pub fn flash_crowd(seed: u64) -> Scenario {
        let topology = Topology::TwoLevel {
            parents: 2,
            children_per_parent: 1,
        };
        let plan = FaultPlan {
            seed,
            windows: vec![FaultWindow {
                fault: FaultKind::CrashParent { level: 0 },
                pre: 600,
                hold: 600,
                post: 600,
            }],
        };
        let requests = plan.total_requests();
        let base = WorkloadSpec::small()
            .with_requests(requests)
            .with_clients(topology.size() as u32 * 256)
            .with_p_new(0.35);
        Scenario {
            name: "flash-crowd".into(),
            topology,
            workload: ScenarioWorkload::FlashCrowd {
                spec: FlashCrowdSpec {
                    // The ramp starts late in the healthy segment and
                    // peaks while the parent is down.
                    ramp_start: 450,
                    ramp_len: 600,
                    peak_share: 0.4,
                    base,
                },
            },
            plan,
            clients: 8,
        }
    }

    /// The diurnal-churn preset: the same hierarchy under an amplified
    /// diurnal swing, with the seeded churn schedule converted into
    /// crash/restart windows at ~10× the paper-era churn baseline.
    pub fn diurnal_churn(seed: u64) -> Scenario {
        let topology = Topology::TwoLevel {
            parents: 2,
            children_per_parent: 1,
        };
        let mut base = WorkloadSpec::small()
            .with_requests(2_400)
            .with_clients(topology.size() as u32 * 256)
            .with_p_new(0.35);
        // A short simulated span keeps the churn-pair count (nodes ×
        // days/7 × multiplier) at a handful of windows for smoke runs.
        base.duration_days = 0.5;
        let spec = DiurnalChurnSpec {
            base,
            nodes: topology.size() as u32,
            churn_multiplier: 10.0,
        };
        let plan = churn_plan(&spec, seed);
        Scenario {
            name: "diurnal-churn".into(),
            topology,
            workload: ScenarioWorkload::DiurnalChurn { spec },
            plan,
            clients: 8,
        }
    }

    /// The chaos-smoke preset: [`FaultPlan::smoke`] (one crash window,
    /// one partition window) over a flat 4-node mesh, replaying the plain
    /// synthetic trace from 16 client threads.
    pub fn chaos_smoke(seed: u64) -> Scenario {
        let topology = Topology::Flat { nodes: 4 };
        let plan = FaultPlan::smoke(seed);
        let spec = WorkloadSpec::small()
            .with_requests(plan.total_requests())
            .with_clients(topology.size() as u32 * 256)
            .with_p_new(0.35);
        Scenario {
            name: "chaos-smoke".into(),
            topology,
            workload: ScenarioWorkload::Plain { spec },
            plan,
            clients: 16,
        }
    }

    /// Loads a scenario from a JSON file.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON, or a scenario that
    /// fails [`Scenario::validate`].
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {}: {e}", path.display()))?;
        let scenario: Scenario = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse scenario {}: {e}", path.display()))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Checks the scenario is internally consistent: the workload and
    /// plan validate, the plan fits the topology, and the plan replays
    /// exactly the workload's request count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".into());
        }
        if self.clients == 0 {
            return Err("scenario needs at least 1 client thread".into());
        }
        self.workload.validate()?;
        self.plan.validate_for(&self.topology)?;
        let planned = self.plan.total_requests();
        let available = self.workload.base().requests;
        if planned != available {
            return Err(format!(
                "plan replays {planned} requests but the workload generates {available}"
            ));
        }
        Ok(())
    }

    /// Artifact stem: `scenario_<name>` with dashes flattened, so the
    /// file names need no shell quoting.
    pub fn artifact_stem(&self) -> String {
        format!("scenario_{}", self.name.replace('-', "_"))
    }
}

/// Converts a seeded churn schedule into a back-to-back fault plan:
/// each leave/join pair becomes one crash window whose hold spans the
/// pair's gap. Pairs that would overlap an earlier window are dropped
/// (segments replay sequentially), and the final window's post segment
/// absorbs the trace tail so the whole trace is replayed. A pure
/// function of `(spec, seed)`.
pub fn churn_plan(spec: &DiurnalChurnSpec, seed: u64) -> FaultPlan {
    let requests = spec.base.requests;
    let schedule = spec.churn_schedule(seed);
    let mut windows: Vec<FaultWindow> = Vec::new();
    let mut cursor = 0u64;
    for (i, e) in schedule.iter().enumerate() {
        if e.kind != ChurnKind::Leave || e.at_request < cursor {
            continue;
        }
        let Some(join) = schedule[i..].iter().find(|j| {
            j.kind == ChurnKind::Join && j.node == e.node && j.at_request >= e.at_request
        }) else {
            continue;
        };
        let pre = e.at_request - cursor;
        let hold = (join.at_request - e.at_request).max(1);
        // Half a hold of recovery traffic before the next pair.
        let post = hold / 2 + 1;
        if cursor + pre + hold + post > requests {
            break;
        }
        windows.push(FaultWindow {
            fault: FaultKind::Crash {
                node: e.node as usize,
            },
            pre,
            hold,
            post,
        });
        cursor += pre + hold + post;
    }
    if windows.is_empty() {
        // Degenerate schedule (every pair clipped): fall back to one
        // mid-trace crash of node 0 so the plan still exercises churn.
        let third = (requests / 3).max(1);
        windows.push(FaultWindow {
            fault: FaultKind::Crash { node: 0 },
            pre: third,
            hold: third,
            post: 0,
        });
        cursor = third * 2;
    }
    if let Some(last) = windows.last_mut() {
        last.post += requests.saturating_sub(cursor);
    }
    FaultPlan { seed, windows }
}

/// One segment of the deterministic artifact: everything here is a pure
/// function of the plan and the seeded trace.
#[derive(Debug, Serialize)]
pub struct PlannedSegment {
    /// Window index in the plan.
    pub window: usize,
    /// `pre` (healthy baseline), `hold` (fault active), or `post`
    /// (recovery) — the before/during/after triple per window.
    pub phase: String,
    /// Stable fault description ([`FaultKind::describe`]).
    pub fault: String,
    /// Requests the segment issues: the cacheable records in its trace
    /// slice, fixed by the seed.
    pub requests: u64,
}

/// Hit-rate / false-probe / latency summary of one replay segment
/// (measured artifact).
#[derive(Debug, Serialize)]
pub struct MeasuredSegment {
    /// Window index in the plan.
    pub window: usize,
    /// `pre`, `hold`, or `post`.
    pub phase: String,
    /// Stable fault description.
    pub fault: String,
    /// Requests issued in this segment.
    pub requests: u64,
    /// Client-visible errors.
    pub errors: u64,
    /// Served from the contacted node's cache.
    pub local_hits: u64,
    /// Served by a peer via direct transfer.
    pub peer_hits: u64,
    /// Served by the origin.
    pub origin_fetches: u64,
    /// Request hit ratio (local + peer).
    pub hit_ratio: f64,
    /// Mesh-wide false-positive probes during this segment.
    pub false_positives: u64,
    /// Mesh-wide transport-failed probes that degraded to the origin.
    pub degraded_to_origin: u64,
    /// (false positives + degradations) per issued request.
    pub false_probe_rate: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// End-of-run counters for one node: the node's **entire** obs-registry
/// snapshot, iterated rather than hand-copied, so a newly registered
/// metric reaches the dump with zero plumbing.
#[derive(Debug, Serialize)]
pub struct NodeReport {
    /// The node's bound address.
    pub addr: String,
    /// Every registry metric (counters, pool gauges, expanded service
    /// histogram), sorted by name.
    pub metrics: Vec<MetricValue>,
}

/// The deterministic `scenario_<name>.json` payload; two runs of the
/// same scenario must serialize byte-identically.
#[derive(Debug, Serialize)]
pub struct ScenarioResult {
    /// The executed scenario (config, not measurements).
    pub scenario: Scenario,
    /// Workload kind label.
    pub workload: String,
    /// Workload spec fingerprint (seed-independent identity).
    pub workload_fingerprint: u64,
    /// Per-segment issued-request counts (pure function of the seed).
    pub segments: Vec<PlannedSegment>,
    /// True when every window met the recovery + hierarchy criteria.
    pub recovered: bool,
}

/// The measured `scenario_<name>_metrics.json` payload.
#[derive(Debug, Serialize)]
pub struct ScenarioMetrics {
    /// Per-segment measured summaries.
    pub segments: Vec<MeasuredSegment>,
    /// Hint records rebuilt by resync after each crash window.
    pub recovered_hints: Vec<usize>,
    /// Children that adopted a fallback parent, per crash window.
    pub rehomed_children: Vec<usize>,
    /// Full per-node registry dump.
    pub node_reports: Vec<NodeReport>,
}

/// Replays `count` records starting at `cursor` against the mesh from
/// `clients` closed-loop threads, returning the measured outcome and the
/// slice's cacheable-record count (the deterministic issued-request
/// number). While `crashed` names a down node, its client groups are
/// rerouted to a live survivor — the clients reconnect, they don't stall.
pub(crate) fn replay_segment(
    mesh: &ChaosMesh,
    clients: usize,
    spec: &WorkloadSpec,
    records: &[TraceRecord],
    cursor: &mut usize,
    count: u64,
    crashed: Option<usize>,
) -> (ConcurrentReplayReport, u64) {
    let end = (*cursor + count as usize).min(records.len());
    let slice = &records[*cursor..end];
    *cursor = end;
    let planned = slice.iter().filter(|r| r.is_cacheable()).count() as u64;
    let mut addrs: Vec<SocketAddr> = mesh.addrs().to_vec();
    if let Some(dead) = crashed {
        let survivor = mesh
            .live_node(dead)
            .expect("mesh has at least one live node");
        addrs[dead] = mesh.addrs()[survivor];
    }
    let mut config = ReplayConfig::flat_out(addrs);
    config.clients_per_l1 = spec.clients_per_l1;
    config.dynamic_client_ids = spec.dynamic_client_ids;
    let out = replay_concurrent(&config, slice, clients).expect("replay segment");
    (out, planned)
}

/// Sums the `(false_positives, degraded_to_origin)` deltas across nodes
/// between two stats snapshots. A node that crashed mid-interval
/// contributes nothing; a node that restarted counts from zero.
fn probe_deltas(prev: &[Option<NodeStats>], cur: &[Option<NodeStats>]) -> (u64, u64) {
    let mut fp = 0u64;
    let mut degraded = 0u64;
    for (p, c) in prev.iter().zip(cur.iter()) {
        let Some(c) = c else { continue };
        let base = p
            .as_ref()
            .map(|p| (p.false_positives, p.degraded_to_origin));
        let (fp0, dg0) = base.unwrap_or((0, 0));
        fp += c.false_positives.saturating_sub(fp0);
        degraded += c.degraded_to_origin.saturating_sub(dg0);
    }
    (fp, degraded)
}

/// Summarizes one replayed segment against the mesh-wide probe counters
/// since `snapshot`, advances `snapshot` to now, and prints the row.
fn measure_segment(
    mesh: &ChaosMesh,
    snapshot: &mut Vec<Option<NodeStats>>,
    window: usize,
    phase: &str,
    fault: &FaultKind,
    out: &ConcurrentReplayReport,
) -> MeasuredSegment {
    let cur = mesh.stats();
    let (false_positives, degraded_to_origin) = probe_deltas(snapshot, &cur);
    *snapshot = cur;
    let requests = out.report.requests;
    let seg = MeasuredSegment {
        window,
        phase: phase.to_string(),
        fault: fault.describe(),
        requests,
        errors: out.report.errors,
        local_hits: out.report.local_hits,
        peer_hits: out.report.peer_hits,
        origin_fetches: out.report.origin_fetches,
        hit_ratio: out.report.hit_ratio(),
        false_positives,
        degraded_to_origin,
        false_probe_rate: if requests > 0 {
            (false_positives + degraded_to_origin) as f64 / requests as f64
        } else {
            0.0
        },
        p50_ms: out.latency.p50().unwrap_or(0.0) * 1e3,
        p95_ms: out.latency.p95().unwrap_or(0.0) * 1e3,
        p99_ms: out.latency.p99().unwrap_or(0.0) * 1e3,
    };
    println!(
        "window {} {:>4}  [{}]  {:>5} req  hit {:>5.1}%  fp {:>3}  degraded {:>3}  \
         {:>3} err  p50 {:>6.2} ms  p99 {:>6.2} ms",
        seg.window,
        seg.phase,
        seg.fault,
        seg.requests,
        seg.hit_ratio * 100.0,
        seg.false_positives,
        seg.degraded_to_origin,
        seg.errors,
        seg.p50_ms,
        seg.p99_ms,
    );
    seg
}

/// Drives heartbeats until every survivor has confirmed `dead` dead (so
/// stale-hint GC and Plaxton repair have fired), bounded by a wall-clock
/// deadline. Returns whether confirmation was reached.
fn await_confirmed_death(mesh: &ChaosMesh, dead: usize) -> bool {
    let addr = mesh.addrs()[dead];
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; failure detection is inherently wall-clock here")
    let deadline = Instant::now() + Duration::from_secs(10);
    // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
    while Instant::now() < deadline {
        mesh.heartbeat_all();
        let confirmed = (0..mesh.addrs().len())
            .filter(|&i| i != dead)
            .filter_map(|i| mesh.node(i))
            .all(|n| n.peer_health(addr) == PeerHealth::Dead);
        if confirmed {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// Checks the hierarchy invariants after `dead`'s death is confirmed:
/// every survivor's `plaxton_repair_entries` delta since `baseline`
/// equals the analytic churn count, and every orphaned child of `dead`
/// has adopted a live fallback parent. Returns
/// `(all held, re-homed child count)`.
///
/// Confirmed death and standing-state repair are decoupled: a
/// survivor's detector can report `Dead` a beat before its own churn
/// repair and the orphans' re-homing land, so the check polls to a
/// deadline instead of reading one racy snapshot; diagnostics are only
/// printed for the final attempt.
fn check_hierarchy_recovery(
    mesh: &ChaosMesh,
    dead: usize,
    baseline: &[Option<NodeStats>],
) -> (bool, usize) {
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; repair lands on the heartbeat thread")
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (ok, rehomed) = hierarchy_recovery_once(mesh, dead, baseline, false);
        if ok {
            return (true, rehomed);
        }
        // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
        if Instant::now() >= deadline {
            return hierarchy_recovery_once(mesh, dead, baseline, true);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One snapshot of the hierarchy-recovery invariants; `loud` controls
/// whether violations are printed.
fn hierarchy_recovery_once(
    mesh: &ChaosMesh,
    dead: usize,
    baseline: &[Option<NodeStats>],
    loud: bool,
) -> (bool, usize) {
    let mut ok = true;
    let analytic = analytic_churn_for(mesh.addrs(), dead) as u64;
    for (i, (before, after)) in baseline.iter().zip(mesh.stats()).enumerate() {
        if i == dead {
            continue;
        }
        let Some(after) = after else { continue };
        let base = before.as_ref().map_or(0, |s| s.plaxton_repair_entries);
        let delta = after.plaxton_repair_entries.saturating_sub(base);
        if delta != analytic {
            if loud {
                eprintln!(
                    "node {i}: live plaxton repair {delta} != analytic churn {analytic} \
                     for death of node {dead}"
                );
            }
            ok = false;
        }
    }
    let dead_addr = mesh.addrs()[dead];
    let mut rehomed = 0usize;
    for child in mesh.topology().children_of(dead) {
        let adopted = mesh
            .node(child)
            .and_then(|n| n.parent())
            .filter(|p| *p != dead_addr);
        match adopted {
            Some(_) => rehomed += 1,
            None => {
                if loud {
                    eprintln!("child {child} did not re-home after parent {dead} died");
                }
                ok = false;
            }
        }
    }
    (ok, rehomed)
}

/// Runs the scenario end to end, writing all artifacts into `args.out`;
/// returns `false` if any window failed its recovery or hierarchy
/// checks.
///
/// # Panics
///
/// Panics on an invalid scenario, mesh spawn failure, or artifact I/O
/// failure (harness semantics: loud failures).
pub fn run_scenario(args: &Args, scenario: &Scenario) -> bool {
    if let Err(msg) = scenario.validate() {
        panic!("invalid scenario {}: {msg}", scenario.name);
    }
    let plan = &scenario.plan;
    let stem = scenario.artifact_stem();
    println!(
        "scenario {}: {} workload, {:?}, {} windows, {} requests",
        scenario.name,
        scenario.workload.label(),
        scenario.topology,
        plan.windows.len(),
        plan.total_requests()
    );

    // The schedule is a pure function of the plan: write it out before
    // anything runs, so two runs of the same seed can be byte-diffed.
    let event_log = plan.event_log();
    std::fs::create_dir_all(&args.out).expect("create output dir");
    let log_path = args.out.join(format!("{stem}_events.log"));
    std::fs::write(&log_path, &event_log).expect("write scenario event log");
    print!("{event_log}");

    let records = scenario.workload.records(plan.seed);
    let base = scenario.workload.base();

    // One epoll shard and 16 workers per node, with fast failure-detector
    // settings: crash windows must reach confirmed death (suspicion +
    // confirmation window) inside the run.
    let mut mesh = ChaosMesh::spawn_topology(scenario.topology, |c| {
        c.with_shards(1)
            .with_workers(16)
            .with_flush_max(Duration::from_millis(25))
            .with_heartbeat_interval(Duration::from_millis(40))
            .with_suspicion_threshold(2)
            .with_confirm_death_after(Duration::from_millis(150))
            .with_shutdown_deadline(Duration::from_secs(2))
    })
    .expect("spawn scenario mesh");

    let mut cursor = 0usize;
    let mut planned: Vec<PlannedSegment> = Vec::new();
    // Replays one segment and records its deterministic half.
    let mut replay = |mesh: &ChaosMesh,
                      window: usize,
                      phase: &str,
                      fault: &FaultKind,
                      count: u64,
                      crashed: Option<usize>| {
        let (out, issued) = replay_segment(
            mesh,
            scenario.clients,
            base,
            &records,
            &mut cursor,
            count,
            crashed,
        );
        planned.push(PlannedSegment {
            window,
            phase: phase.into(),
            fault: fault.describe(),
            requests: issued,
        });
        out
    };
    let mut segments: Vec<MeasuredSegment> = Vec::new();
    let mut recovered_hints: Vec<usize> = Vec::new();
    let mut rehomed_children: Vec<usize> = Vec::new();
    let mut recovered = true;

    for (i, w) in plan.windows.iter().enumerate() {
        let window_baseline = mesh.stats();
        let mut snapshot = window_baseline.clone();

        let out = replay(&mesh, i, "pre", &w.fault, w.pre, None);
        let pre = measure_segment(&mesh, &mut snapshot, i, "pre", &w.fault, &out);

        mesh.inject(w.fault).expect("inject fault");
        let crashed = match mesh.resolve(w.fault) {
            FaultKind::Crash { node } => Some(node),
            _ => None,
        };
        let out = replay(&mesh, i, "hold", &w.fault, w.hold, crashed);
        if let Some(dead) = crashed {
            if await_confirmed_death(&mesh, dead) {
                // Analytic churn parity on every survivor, plus re-homed
                // orphans.
                let (ok, rehomed) = check_hierarchy_recovery(&mesh, dead, &window_baseline);
                rehomed_children.push(rehomed);
                if !ok {
                    recovered = false;
                }
                if rehomed > 0 {
                    println!("window {i}: {rehomed} orphaned children re-homed");
                }
            } else {
                eprintln!("window {i}: survivors never confirmed node {dead} dead");
                rehomed_children.push(0);
                recovered = false;
            }
        }
        let hold = measure_segment(&mesh, &mut snapshot, i, "hold", &w.fault, &out);

        // Lift: crash windows restart the node on its old port and rebuild
        // its hint table by anti-entropy; the extra heartbeat/flush round
        // lets survivors mark the revival and re-advertise before the
        // recovery segment is measured.
        match crashed {
            Some(node) => {
                let rebuilt = mesh.restart(node).expect("restart crashed node");
                recovered_hints.push(rebuilt);
                println!("window {i}: node {node} restarted, {rebuilt} hint records resynced");
                mesh.heartbeat_all();
                mesh.flush_all();
            }
            None => mesh.lift(w.fault).expect("lift fault"),
        }
        let out = replay(&mesh, i, "post", &w.fault, w.post, None);
        let post = measure_segment(&mesh, &mut snapshot, i, "post", &w.fault, &out);

        // Recovery criteria: the mesh must serve everything again (no
        // client-visible errors) without a hit-rate collapse relative to
        // the pre-window baseline.
        if post.errors > 0 {
            eprintln!(
                "window {i}: {} errors after the fault was lifted",
                post.errors
            );
            recovered = false;
        }
        if post.hit_ratio + 0.25 < pre.hit_ratio {
            eprintln!(
                "window {i}: hit ratio collapsed {:.3} -> {:.3} after recovery",
                pre.hit_ratio, post.hit_ratio
            );
            recovered = false;
        }
        segments.push(pre);
        segments.push(hold);
        segments.push(post);
    }

    // Iterate each node's full registry snapshot into the dump — no
    // field-by-field plumbing, so new metrics can't silently fall out.
    let node_reports: Vec<NodeReport> = mesh
        .addrs()
        .iter()
        .zip(mesh.metric_snapshots())
        .map(|(addr, snapshot)| NodeReport {
            addr: addr.to_string(),
            metrics: metric_values(&snapshot.unwrap_or_default()),
        })
        .collect();

    // Deterministic obs dump: plan/scenario-derived values only, so two
    // runs of the same seed write byte-identical files.
    let obs = Registry::new();
    let windows_m = obs.counter(
        "scenario.windows",
        Unit::Count,
        "fault windows executed",
        Determinism::Deterministic,
    );
    let segments_m = obs.counter(
        "scenario.segments",
        Unit::Count,
        "replay segments planned",
        Determinism::Deterministic,
    );
    let requests_m = obs.counter(
        "scenario.requests_planned",
        Unit::Count,
        "requests issued across all planned segments",
        Determinism::Deterministic,
    );
    windows_m.add(plan.windows.len() as u64);
    segments_m.add(planned.len() as u64);
    requests_m.add(planned.iter().map(|s| s.requests).sum());
    write_obs_dump(args, &obs);

    args.write_json(
        &stem,
        &ScenarioResult {
            scenario: scenario.clone(),
            workload: scenario.workload.label().to_string(),
            workload_fingerprint: scenario.workload.fingerprint(),
            segments: planned,
            recovered,
        },
    );
    args.write_json(
        &format!("{stem}_metrics"),
        &ScenarioMetrics {
            segments,
            recovered_hints,
            rehomed_children,
            node_reports,
        },
    );
    println!(
        "scenario event log: {} ({} bytes)",
        log_path.display(),
        event_log.len()
    );
    println!("recovered: {recovered}");
    mesh.shutdown();
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_presets_validate() {
        for name in Scenario::NAMES {
            let s = Scenario::named(name, 7).expect("preset exists");
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(s.name, name);
        }
        assert!(Scenario::named("nope", 7).is_none());
    }

    #[test]
    fn flash_crowd_preset_targets_the_hierarchy() {
        let s = Scenario::flash_crowd(42);
        assert!(matches!(
            s.plan.windows[0].fault,
            FaultKind::CrashParent { level: 0 }
        ));
        assert!(matches!(s.topology, Topology::TwoLevel { .. }));
        assert_eq!(s.plan.total_requests(), s.workload.base().requests);
    }

    #[test]
    fn chaos_smoke_preset_is_the_smoke_plan_over_a_flat_mesh() {
        let s = Scenario::named("chaos-smoke", 42).expect("preset exists");
        s.validate().expect("chaos-smoke validates");
        assert_eq!(s.plan, FaultPlan::smoke(42));
        assert_eq!(s.topology, Topology::Flat { nodes: 4 });
        assert_eq!(s.clients, 16);
        let want = WorkloadSpec::small()
            .with_requests(s.plan.total_requests())
            .with_clients(4 * 256)
            .with_p_new(0.35);
        assert_eq!(s.workload, ScenarioWorkload::Plain { spec: want.clone() });
        assert_eq!(s.workload.label(), "plain");
        assert_eq!(s.workload.fingerprint(), want.fingerprint());
        let streamed: Vec<TraceRecord> = TraceGenerator::new(&want, 42).collect();
        assert_eq!(s.workload.records(42), streamed);
    }

    #[test]
    fn churn_plan_is_deterministic_and_covers_the_trace() {
        let spec = match Scenario::diurnal_churn(9).workload {
            ScenarioWorkload::DiurnalChurn { spec } => spec,
            other => panic!("unexpected workload {other:?}"),
        };
        let a = churn_plan(&spec, 9);
        let b = churn_plan(&spec, 9);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, churn_plan(&spec, 10), "seed must matter");
        assert_eq!(a.total_requests(), spec.base.requests);
        a.validate_for(&Topology::TwoLevel {
            parents: 2,
            children_per_parent: 1,
        })
        .expect("churn plan is valid for the preset topology");
        for w in &a.windows {
            assert!(matches!(w.fault, FaultKind::Crash { .. }));
        }
    }

    #[test]
    fn scenarios_round_trip_through_serde() {
        for name in Scenario::NAMES {
            let s = Scenario::named(name, 3).expect("preset");
            let json = serde_json::to_string(&s).expect("serialize");
            let back: Scenario = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(s, back);
        }
    }

    #[test]
    fn validate_rejects_mismatched_request_counts() {
        let mut s = Scenario::flash_crowd(1);
        s.plan.windows[0].post += 1;
        assert!(s.validate().is_err(), "plan/workload length mismatch");
    }

    #[test]
    fn artifact_stems_flatten_dashes() {
        assert_eq!(
            Scenario::flash_crowd(1).artifact_stem(),
            "scenario_flash_crowd"
        );
        assert_eq!(
            Scenario::diurnal_churn(1).artifact_stem(),
            "scenario_diurnal_churn"
        );
    }
}
