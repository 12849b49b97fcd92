//! The live workloads, `hot-hit` and `shared-miss`: set up a mesh, warm
//! it, drive it open-loop at a fixed low rate, a fixed high rate and up a
//! ladder of offered rates to the knee, and check every reply.

use crate::host;
use crate::json::Json;
use crate::loadgen::{poisson, Generator, Outcome, Planned, RunOptions, Served, StepResult};
use crate::mesh::{Mesh, Overrides, Scrape};
use crate::probes::{self, Spans};
use crate::report::Report;
use crate::stats::{histogram_quantile, median, quantile};
use bh_proto::origin::synthetic_body;
use bh_simcore::rng::Xoshiro256;
use bh_simcore::units::ByteSize;
use bh_trace::{TraceGenerator, WorkloadSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Where a live workload's requests come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A hot set installed at the origin, drawn uniformly.
    HotSet,
    /// A `bh-trace` request stream.
    Trace,
}

/// The parameters that define a live workload. They are printed into
/// every run record.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Workload name.
    pub name: &'static str,
    /// Where the requests come from.
    pub source: Source,
    /// The fixed low offered rate, req/s.
    pub low_rps: f64,
    /// The fixed high offered rate, req/s (below the knee).
    pub high_rps: f64,
    /// The p99 latency limit a ladder rung must meet, ms.
    pub p99_limit_ms: f64,
    /// `NodeConfig` fields this workload overrides.
    pub overrides: Overrides,
}

/// Hot set size and body size of `hot-hit`.
const HOT_OBJECTS: usize = 1024;
const HOT_BODY_BYTES: usize = 512;

/// `hot-hit`: a small pre-warmed hot set answered from every node's data
/// cache.
pub const HOT_HIT: LiveSpec = LiveSpec {
    name: "hot-hit",
    source: Source::HotSet,
    low_rps: 5_000.0,
    high_rps: 40_000.0,
    p99_limit_ms: 50.0,
    overrides: Overrides {
        data_capacity: None,
        flush_max: None,
    },
};

/// `shared-miss`: a `bh-trace` workload whose working set is far larger
/// than each node's data cache, with hints flushed during the run.
pub const SHARED_MISS: LiveSpec = LiveSpec {
    name: "shared-miss",
    source: Source::Trace,
    low_rps: 1_000.0,
    high_rps: 2_000.0,
    p99_limit_ms: 50.0,
    overrides: Overrides {
        data_capacity: Some(ByteSize::from_mb(2)),
        flush_max: Some(Duration::from_millis(200)),
    },
};

/// Entry nodes, and so generator connections: one per CPU, at least one,
/// at most two (one per L1 group of the trace).
pub fn entry_nodes() -> usize {
    host::nproc().clamp(1, 2)
}

/// Requests replayed untimed before `shared-miss` measures anything.
const WARMUP_REQUESTS: usize = 4_000;

/// Warm-up requests sent at once.
const WARMUP_BURST: usize = 64;

/// A 64-bit digest of a body, for checking replies without keeping every
/// body in memory.
pub fn body_digest(body: &[u8]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64 ^ body.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h ^ (h >> 31)
}

/// The requests a workload sends and the bodies the origin serves.
struct Requests {
    /// URL table.
    pub urls: Vec<String>,
    /// `(length, digest)` of the origin's body per URL.
    pub expected: Vec<(u32, u64)>,
    /// The trace's `(connection, url)` sequence, or empty for a uniform
    /// draw over the URL table on every connection.
    sequence: Vec<(usize, u32)>,
    cursor: usize,
    conns: usize,
}

impl Requests {
    /// Is `body` the origin's body for `url`?
    fn check(&self, url: u32, body: &[u8]) -> bool {
        let (len, digest) = self.expected[url as usize];
        body.len() == len as usize && body_digest(body) == digest
    }

    fn next(&mut self, rng: &mut Xoshiro256) -> (usize, u32) {
        if self.sequence.is_empty() {
            let conn = rng.below(self.conns as u64) as usize;
            (conn, rng.below(self.urls.len() as u64) as u32)
        } else {
            let r = self.sequence[self.cursor % self.sequence.len()];
            self.cursor += 1;
            r
        }
    }

    /// Poisson arrivals at `rate` for `secs`.
    fn plan(&mut self, rng: &mut Xoshiro256, rate: f64, secs: f64) -> Vec<Planned> {
        poisson(rng, rate, Duration::from_secs_f64(secs), |r| self.next(r))
    }

    /// The next `n` requests, all due at once.
    fn burst(&mut self, rng: &mut Xoshiro256, n: usize) -> Vec<Planned> {
        (0..n)
            .map(|_| {
                let (conn, url) = self.next(rng);
                Planned {
                    conn,
                    due_ns: 0,
                    url,
                }
            })
            .collect()
    }
}

/// The `shared-miss` trace shape: `WorkloadSpec::small()` with one L1
/// group per entry node.
fn shared_miss_spec(entries: usize, requests: u64) -> WorkloadSpec {
    let small = WorkloadSpec::small();
    let clients = small.clients_per_l1 * entries as u32;
    small.with_clients(clients).with_requests(requests)
}

/// A workload set up and warmed.
struct Live {
    /// The running mesh.
    pub mesh: Mesh,
    /// The request source.
    pub requests: Requests,
    /// The pipelined generator.
    pub gen: Generator,
    /// Origin requests made by the warm-up.
    pub warm_origin_requests: u64,
    /// The trace spec (`shared-miss`) or `None`.
    pub trace_spec: Option<WorkloadSpec>,
    rng: Xoshiro256,
}

/// Builds the requests, spawns the mesh and warms it. Everything here is
/// `setup_s`.
fn setup(spec: &LiveSpec, seed: u64, requests_needed: usize) -> std::io::Result<Live> {
    let entries = entry_nodes();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x005e_ed0f_b3c4);
    let (mut requests, trace_spec, bodies) = if spec.source == Source::HotSet {
        let urls: Vec<String> = (0..HOT_OBJECTS)
            .map(|i| format!("http://hot.bench.example/s{seed}/obj/{i}"))
            .collect();
        let bodies: Vec<Vec<u8>> = (0..HOT_OBJECTS)
            .map(|_| (0..HOT_BODY_BYTES).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let expected = bodies
            .iter()
            .map(|b| (b.len() as u32, body_digest(b)))
            .collect();
        (
            Requests {
                urls,
                expected,
                sequence: Vec::new(),
                cursor: 0,
                conns: entries,
            },
            None,
            Some(bodies),
        )
    } else {
        let tspec = shared_miss_spec(entries, (WARMUP_REQUESTS + requests_needed) as u64);
        let mut index: HashMap<u64, u32> = HashMap::new();
        let mut urls = Vec::new();
        let mut sequence = Vec::with_capacity(tspec.requests as usize);
        for rec in TraceGenerator::new(&tspec, seed) {
            let url = *index.entry(rec.object.0).or_insert_with(|| {
                urls.push(rec.object.synthetic_url());
                (urls.len() - 1) as u32
            });
            let conn = tspec.l1_group_of(rec.client) as usize % entries;
            sequence.push((conn, url));
        }
        let expected = urls
            .iter()
            .map(|u| {
                let b = synthetic_body(u);
                (b.len() as u32, body_digest(&b))
            })
            .collect();
        (
            Requests {
                urls,
                expected,
                sequence,
                cursor: 0,
                conns: entries,
            },
            Some(tspec),
            None,
        )
    };

    let mesh = Mesh::spawn(entries, spec.overrides)?;
    if let Some(bodies) = bodies {
        for (u, b) in requests.urls.iter().zip(bodies) {
            mesh.origin.put(u, 1, b);
        }
    }
    // Warm-up, untimed: every hot object through every entry node, or the
    // trace's warm-up prefix.
    let warm: Vec<Planned> = if trace_spec.is_none() {
        (0..entries)
            .flat_map(|conn| {
                (0..HOT_OBJECTS as u32).map(move |url| Planned {
                    conn,
                    due_ns: 0,
                    url,
                })
            })
            .collect()
    } else {
        requests.burst(&mut rng, WARMUP_REQUESTS)
    };
    let mut gen = Generator::connect(&mesh.addrs())?;
    let check = |u: u32, b: &[u8]| requests.check(u, b);
    // In bursts of `WARMUP_BURST`, so replies never pile up in memory.
    for burst in warm.chunks(WARMUP_BURST) {
        let res = gen.run(
            &requests.urls,
            burst,
            &check,
            RunOptions {
                trace: false,
                drain: Duration::from_secs(10),
            },
        )?;
        if res.failed() > 0 {
            return Err(std::io::Error::other(format!(
                "{} warm-up requests failed",
                res.failed()
            )));
        }
    }
    mesh.flush_hints();
    Ok(Live {
        warm_origin_requests: mesh.origin.request_count(),
        mesh,
        requests,
        gen,
        trace_spec,
        rng,
    })
}

/// Latency percentiles are taken per window of this many seconds (by due
/// time) and the step reports their median, so a rare scheduling stall
/// on a shared host moves one window, not the step.
const WINDOW_SECS: f64 = 0.1;

/// The offered-rate ladder: rung `k` offers `low_rps * LADDER_RATIO^k`.
pub const LADDER_RATIO: f64 = 1.1;

/// The knee search first climbs the ladder this many rungs at a time, with
/// short steps, until a rung fails; then it climbs one rung at a time from
/// the last passing coarse rung until a rung fails again.
pub const COARSE_STRIDE: i32 = 6;
const COARSE_SECS: f64 = 0.5;
const FINE_SECS: f64 = 1.0;

/// Figures for one fixed-rate or ladder step.
#[derive(Debug, Clone, Default)]
struct StepStats {
    /// Offered rate, req/s.
    pub offered: f64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (error, redirect, timeout, wrong body).
    pub failed: u64,
    /// Replies with a wrong body.
    pub wrong_body: u64,
    /// Replies by who served them.
    pub local: u64,
    /// Peer-served replies.
    pub peer: u64,
    /// Origin-served replies.
    pub origin: u64,
    /// p50 / p99 latency over the whole step, ms.
    pub p50_ms: f64,
    /// See `p50_ms`.
    pub p99_ms: f64,
    /// Median over `WINDOW_SECS` windows of the window p50 / p99, ms.
    pub window_p50_ms: f64,
    /// See `window_p50_ms`.
    pub window_p99_ms: f64,
    /// Windows the medians are over.
    pub windows: usize,
    /// Achieved / offered rate (see `StepResult::achieved_ratio`).
    pub achieved_ratio: f64,
    /// p99 of how late the generator sent, µs.
    pub late_p99_us: f64,
}

impl StepStats {
    fn from(offered: f64, secs: f64, res: &StepResult) -> StepStats {
        let o = &res.outcomes;
        let count = |s: Served| o.iter().filter(|x| x.served == s).count() as u64;
        let lat: Vec<f64> = o
            .iter()
            .filter(|x| x.served.ok())
            .map(Outcome::latency_ms)
            .collect();
        let late: Vec<f64> = o
            .iter()
            .filter(|x| x.sent_ns > 0)
            .map(Outcome::late_us)
            .collect();
        let window_ns = (WINDOW_SECS * 1e9) as u64;
        let nwin = ((secs / WINDOW_SECS).floor() as usize).max(1);
        let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); nwin];
        for x in o.iter().filter(|x| x.served.ok()) {
            let w = ((x.due_ns / window_ns) as usize).min(nwin - 1);
            per_window[w].push(x.latency_ms());
        }
        let per_window: Vec<&Vec<f64>> = per_window.iter().filter(|w| !w.is_empty()).collect();
        let wp50: Vec<f64> = per_window.iter().map(|w| quantile(w, 0.5)).collect();
        let wp99: Vec<f64> = per_window.iter().map(|w| quantile(w, 0.99)).collect();
        StepStats {
            offered,
            attempted: o.len() as u64,
            failed: res.failed() as u64,
            wrong_body: count(Served::Failed(crate::loadgen::Failure::WrongBody)),
            local: count(Served::Local),
            peer: count(Served::Peer),
            origin: count(Served::Origin),
            p50_ms: quantile(&lat, 0.5),
            p99_ms: quantile(&lat, 0.99),
            window_p50_ms: median(&wp50),
            window_p99_ms: median(&wp99),
            windows: per_window.len(),
            achieved_ratio: res.achieved_ratio(),
            late_p99_us: quantile(&late, 0.99),
        }
    }

    /// A ladder rung passes when p99 is within the limit, the achieved
    /// rate keeps up with the offered rate, and nothing failed.
    fn passes(&self, limit_ms: f64) -> bool {
        self.window_p99_ms <= limit_ms && self.achieved_ratio >= 0.95 && self.failed == 0
    }

    fn json(&self) -> Json {
        Json::obj()
            .with("offered_rps", self.offered)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("local", self.local)
            .with("peer", self.peer)
            .with("origin", self.origin)
            .with("p50_ms", self.p50_ms)
            .with("p99_ms", self.p99_ms)
            .with("window_p50_ms", self.window_p50_ms)
            .with("window_p99_ms", self.window_p99_ms)
            .with("windows", self.windows)
            .with("achieved_ratio", self.achieved_ratio)
            .with("late_p99_us", self.late_p99_us)
    }
}

impl Live {
    /// Runs one open-loop step at `rate` for `secs`.
    fn step(
        &mut self,
        rate: f64,
        secs: f64,
        trace: bool,
    ) -> std::io::Result<(StepStats, StepResult)> {
        let plan = self.requests.plan(&mut self.rng, rate, secs);
        let requests = &self.requests;
        let check = |u: u32, b: &[u8]| requests.check(u, b);
        let res = self.gen.run(
            &requests.urls,
            &plan,
            &check,
            RunOptions {
                trace,
                drain: Duration::from_secs(2),
            },
        )?;
        Ok((StepStats::from(rate, secs, &res), res))
    }

    /// Searches the ladder for the knee: the highest rung where the p99 is
    /// within the workload's limit, the achieved rate keeps up with the
    /// offered rate and no request failed.
    fn knee(&mut self, spec: &LiveSpec) -> std::io::Result<(f64, Vec<StepStats>)> {
        let rate = |k: i32| spec.low_rps * LADDER_RATIO.powi(k);
        let mut rungs = Vec::new();
        let mut rung = |live: &mut Live, k: i32, secs: f64| -> std::io::Result<bool> {
            let (s, _) = live.step(rate(k), secs, false)?;
            let pass = s.passes(spec.p99_limit_ms);
            rungs.push(s);
            Ok(pass)
        };
        let mut passed = 0;
        while passed < MAX_RUNG && rung(self, passed + COARSE_STRIDE, COARSE_SECS)? {
            passed += COARSE_STRIDE;
        }
        while passed < MAX_RUNG && rung(self, passed + 1, FINE_SECS)? {
            passed += 1;
        }
        Ok((rate(passed), rungs))
    }
}

/// The ladder's top rung (`low_rps` × 1.1^80 ≈ 2000 × `low_rps`).
const MAX_RUNG: i32 = 80;

/// Requests the run will draw from the trace, at most.
fn requests_needed(spec: &LiveSpec, secs: f64) -> usize {
    ((spec.low_rps + spec.high_rps) * secs * FIXED_SHARE) as usize + TRACE_LADDER_REQUESTS
}

/// Share of `--seconds` each fixed-rate step gets; the knee search takes
/// about the rest.
const FIXED_SHARE: f64 = 0.35;

/// Trace requests set aside for the ladder; past them the trace repeats.
const TRACE_LADDER_REQUESTS: usize = 60_000;

/// Checks common to both run modes: conservation and the workload's
/// purpose.
fn check_purpose(
    report: &mut Report,
    spec: &LiveSpec,
    live: &Live,
    fixed: &[&StepStats],
    before: &Scrape,
    after: &Scrape,
) {
    let sum = |f: fn(&StepStats) -> u64| fixed.iter().map(|s| f(s)).sum::<u64>();
    let (local, peer, origin, failed, attempted) = (
        sum(|s| s.local),
        sum(|s| s.peer),
        sum(|s| s.origin),
        sum(|s| s.failed),
        sum(|s| s.attempted),
    );
    report.check(local + peer + origin + failed == attempted, || {
        format!("conservation: local {local} + peer {peer} + origin {origin} + failed {failed} != attempted {attempted}")
    });
    let completed = (local + peer + origin).max(1);
    if spec.source == Source::HotSet {
        report.check(local as f64 >= 0.99 * completed as f64, || {
            format!("hot-hit purpose: only {local} of {completed} replies were Local")
        });
        let origin_now = live.mesh.origin.request_count();
        report.check(origin_now == live.warm_origin_requests, || {
            format!(
                "hot-hit purpose: origin served {} requests after the warm-up",
                origin_now - live.warm_origin_requests
            )
        });
    } else {
        report.check((peer + origin) * 2 > completed, || {
            format!(
                "shared-miss purpose: only {} of {completed} replies took the worker path",
                peer + origin
            )
        });
        report.check(after.delta(before, "peer_hits") > 0, || {
            "shared-miss purpose: no peer hits".to_string()
        });
        report.check(after.delta(before, "updates_received") > 0, || {
            "shared-miss purpose: no hint updates received".to_string()
        });
        let evictions = evictions(live, after);
        report.check(evictions > 0, || {
            "shared-miss purpose: no data-cache evictions".to_string()
        });
    }
}

/// Data-store evictions so far: every peer or origin fetch inserts one
/// object, so inserts minus objects still cached were evicted.
fn evictions(live: &Live, now: &Scrape) -> u64 {
    let cached: u64 = live
        .mesh
        .nodes
        .iter()
        .map(|n| n.cached_objects() as u64)
        .sum();
    (now.get("peer_hits") + now.get("origin_fetches")).saturating_sub(cached)
}

/// Every node-side counter the client can see must match what the client
/// saw, when no request was lost.
fn check_counters(report: &mut Report, steps: &[&StepStats], before: &Scrape, after: &Scrape) {
    if steps.iter().any(|s| s.failed > 0) {
        return;
    }
    for (counter, seen) in [
        ("local_hits", steps.iter().map(|s| s.local).sum::<u64>()),
        ("peer_hits", steps.iter().map(|s| s.peer).sum()),
        ("origin_fetches", steps.iter().map(|s| s.origin).sum()),
    ] {
        let node = after.delta(before, counter);
        report.check(node == seen, || {
            format!("conservation: nodes counted {node} {counter}, client saw {seen}")
        });
    }
}

fn check_bodies(report: &mut Report, steps: &[&StepStats]) {
    let wrong: u64 = steps.iter().map(|s| s.wrong_body).sum();
    report.check(wrong == 0, || {
        format!("{wrong} replies carried a body that is not the origin's")
    });
}

/// The traced step's requests as probe inputs: URLs in request order and
/// `(key, body bytes)` per request.
fn workload_stream(live: &Live, res: &StepResult) -> (Vec<String>, Vec<(u64, u64)>) {
    let urls: Vec<String> = res
        .outcomes
        .iter()
        .map(|o| live.requests.urls[o.url as usize].clone())
        .collect();
    let stream = urls
        .iter()
        .zip(&res.outcomes)
        .map(|(u, o)| {
            (
                bh_md5::url_key(u),
                u64::from(live.requests.expected[o.url as usize].0),
            )
        })
        .collect();
    (urls, stream)
}

/// How many times the untimed set-up is repeated for `setup_s`.
const SETUPS: usize = 5;

/// The untraced run: end-to-end metrics.
pub fn run(spec: &LiveSpec, seed: u64, secs: f64, report: &mut Report) -> std::io::Result<()> {
    let needed = requests_needed(spec, secs);
    let mut setup_times = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            old.mesh.shutdown();
        }
        let t = Instant::now();
        live = Some(setup(spec, seed, needed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("set up");
    report.set("setup_s", median(&setup_times));
    report.note("setup_s_samples", setup_times.clone());

    let before = live.mesh.scrape()?;
    let low_secs = (secs * FIXED_SHARE).max(1.0);
    let high_secs = (secs * FIXED_SHARE).max(1.0);
    let (low, _) = live.step(spec.low_rps, low_secs, false)?;
    let (high, _) = live.step(spec.high_rps, high_secs, false)?;
    let after_fixed = live.mesh.scrape()?;
    // Peak memory through the fixed-rate steps; the knee search's
    // backlogs would make it depend on where the knee fell.
    report.set("peak_rss_mb", host::peak_rss_mb());

    let (knee, rungs) = live.knee(spec)?;
    let after = live.mesh.scrape()?;

    let fixed = [&low, &high];
    check_purpose(report, spec, &live, &fixed, &before, &after_fixed);
    let all: Vec<&StepStats> = fixed.iter().copied().chain(rungs.iter()).collect();
    check_counters(report, &all, &before, &after);
    check_bodies(report, &all);

    report.attempted = low.attempted + high.attempted;
    report.failed = low.failed + high.failed;
    report.set("knee_rps", knee);
    report.set("p50_ms.low", low.window_p50_ms);
    report.set("p99_ms.low", low.window_p99_ms);
    report.set("p50_ms.high", high.window_p50_ms);
    report.set("p99_ms.high", high.window_p99_ms);
    let completed = (low.local + low.peer + low.origin).max(1);
    report.set(
        "hit_ratio",
        (low.local + low.peer) as f64 / completed as f64,
    );
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.note("low", low.json());
    report.note("high", high.json());
    report.note(
        "ladder",
        Json::Arr(rungs.iter().map(StepStats::json).collect()),
    );
    live.mesh.shutdown();
    Ok(())
}

/// The traced run: an untraced and a traced step at the low rate, then
/// the probe phase against the warm mesh; per-layer metrics.
pub fn run_traced(
    spec: &LiveSpec,
    seed: u64,
    secs: f64,
    report: &mut Report,
    spans: &mut Spans,
) -> std::io::Result<()> {
    let needed = requests_needed(spec, secs);
    let mut live = setup(spec, seed, needed)?;
    let before = live.mesh.scrape()?;
    let (plain, _) = live.step(spec.low_rps, (secs * 0.25).max(1.0), false)?;
    let (traced, res) = live.step(spec.low_rps, (secs * 0.5).max(1.0), true)?;
    let step_start = spans.ns_at(res.started);
    let after = live.mesh.scrape()?;

    let fixed = [&plain, &traced];
    check_purpose(report, spec, &live, &fixed, &before, &after);
    check_counters(report, &fixed, &before, &after);
    check_bodies(report, &fixed);
    report.attempted = plain.attempted + traced.attempted;
    report.failed = plain.failed + traced.failed;

    // One span per request, with the client encode and decode as children.
    for (i, o) in res.outcomes.iter().enumerate() {
        let attrs = Json::obj()
            .with("request", i)
            .with("due_ns", o.due_ns)
            .with("sent_ns", o.sent_ns)
            .with("decoded_ns", o.done_ns)
            .with("served_by", o.served.label());
        let id = spans.add(
            "request",
            None,
            step_start + o.due_ns,
            o.done_ns.saturating_sub(o.due_ns),
            attrs,
        );
        let enc_start = step_start + o.sent_ns.saturating_sub(u64::from(o.encode_ns));
        spans.add(
            "client.encode",
            Some(id),
            enc_start,
            u64::from(o.encode_ns),
            Json::obj(),
        );
        let dec_start = step_start + o.done_ns.saturating_sub(u64::from(o.decode_ns));
        spans.add(
            "client.decode",
            Some(id),
            dec_start,
            u64::from(o.decode_ns),
            Json::obj(),
        );
    }

    let ok: Vec<&Outcome> = res.outcomes.iter().filter(|o| o.served.ok()).collect();
    let us_of = |s: Served| -> Vec<f64> {
        ok.iter()
            .filter(|o| o.served == s)
            .map(|o| o.latency_ms() * 1e3)
            .collect()
    };
    let local_us = us_of(Served::Local);
    report.set("loadgen.late_us.p99", traced.late_p99_us);
    report.set("loadgen.achieved_ratio", traced.achieved_ratio);
    report.set(
        "wire.get_encode_ns",
        median(
            &ok.iter()
                .map(|o| f64::from(o.encode_ns))
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "wire.reply_decode_ns",
        median(
            &ok.iter()
                .map(|o| f64::from(o.decode_ns))
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "wire.reply_bytes",
        median(
            &ok.iter()
                .map(|o| f64::from(o.reply_bytes))
                .collect::<Vec<_>>(),
        ),
    );
    report.set("node.local_us.p50", quantile(&local_us, 0.5));
    report.set("node.local_us.p99", quantile(&local_us, 0.99));
    report.set("node.peer_us.p50", quantile(&us_of(Served::Peer), 0.5));
    report.set("node.origin_us.p50", quantile(&us_of(Served::Origin), 0.5));
    report.set("trace_overhead", traced.p50_ms / plain.p50_ms);

    let (bounds, counts) = after.histogram_delta(&before, "request_service_micros");
    report.set(
        "node.service_us.p50",
        histogram_quantile(&bounds, &counts, 0.5),
    );
    report.set(
        "node.service_us.p99",
        histogram_quantile(&bounds, &counts, 0.99),
    );
    let d = |name: &str| after.delta(&before, name);
    let gets = d("local_hits") + d("peer_hits") + d("origin_fetches") + d("admission_rejects");
    report.set(
        "node.redirect_ratio",
        d("admission_rejects") as f64 / gets.max(1) as f64,
    );
    report.set("node.admission_rejects", d("admission_rejects") as f64);
    report.set("node.service_errors", d("service_errors") as f64);
    report.set("node.hint_updates_sent", d("updates_sent") as f64);
    report.set("node.hint_updates_received", d("updates_received") as f64);
    report.set("node.hint_updates_filtered", d("updates_filtered") as f64);
    report.set("node.hint_batch_overflow", d("hint_batch_overflow") as f64);
    report.set("node.false_positives", d("false_positives") as f64);
    let probes_sent = d("peer_hits") + d("false_positives");
    report.set(
        "node.probe_useful_ratio",
        d("peer_hits") as f64 / probes_sent.max(1) as f64,
    );
    report.set("node.evictions", evictions(&live, &after) as f64);
    report.set("netpoll.writev_batches", d("writev_batches") as f64);
    report.set("netpoll.wakeups_coalesced", d("wakeups_coalesced") as f64);
    report.set(
        "netpoll.writev_per_reply",
        d("writev_batches") as f64 / gets.max(1) as f64,
    );
    report.set(
        "pool.live_connections",
        after.get("pool_live_connections") as f64,
    );
    report.set(
        "pool.reconnect_attempts",
        d("pool_reconnect_attempts") as f64,
    );
    report.set("origin.requests", live.mesh.origin.request_count() as f64);

    // The probe phase, against the warm mesh.
    let batch_sizes: Vec<f64> = live
        .mesh
        .nodes
        .iter()
        .flat_map(|n| n.trace_snapshot())
        .filter(|e| e.kind == bh_obs::span::FLUSH_BATCH)
        .map(|e| e.a as f64)
        .collect();
    let batch_size = median(&batch_sizes).round().max(1.0) as usize;
    let defaults = bh_proto::NodeConfig::new("127.0.0.1:0", live.mesh.origin.addr());
    let data_capacity = spec
        .overrides
        .data_capacity
        .unwrap_or(defaults.data_capacity);
    let hint_shard_capacity = ByteSize::from_bytes(
        defaults.hint_capacity.as_bytes() / defaults.hint_shards.max(1) as u64,
    );
    let (urls_sample, keys_stream) = workload_stream(&live, &res);
    let inputs = probes::Inputs {
        urls: &urls_sample,
        stream: keys_stream,
        data_capacity,
        hint_shard_capacity,
        batch_size,
        trace_spec: live
            .trace_spec
            .clone()
            .unwrap_or_else(|| shared_miss_spec(entry_nodes(), 20_000)),
        seed,
    };
    probes::socket_free(report, spans, &inputs);
    let keys: Vec<u64> = inputs.stream.iter().map(|(k, _)| *k).collect();
    // URLs entry node 0 fetched last, so most are still in its cache.
    let mut warm_urls: Vec<String> = res
        .outcomes
        .iter()
        .rev()
        .filter(|o| o.conn == 0)
        .map(|o| live.requests.urls[o.url as usize].clone())
        .take(200)
        .collect();
    warm_urls.dedup();
    probes::mesh(
        report,
        spans,
        &live.mesh.nodes[0],
        live.mesh.origin.addr(),
        &warm_urls,
        &keys,
    );

    // What the probed per-request costs on the local path leave unexplained.
    let probed_ns = [
        "wire.get_encode_ns",
        "wire.reply_decode_ns",
        "md5.url_key_ns",
        "cache.lru_get_ns",
        "obs.trace_record_ns",
    ]
    .iter()
    .map(|n| report.values.get(*n).copied().unwrap_or(0.0))
    .sum::<f64>();
    let local_ns = report
        .values
        .get("node.local_us.p50")
        .copied()
        .unwrap_or(0.0)
        * 1e3;
    if local_ns > 0.0 {
        report.set("unattributed_share", 1.0 - probed_ns / local_ns);
    }
    report.note("plain_low", plain.json());
    report.note("traced_low", traced.json());
    report.note("hint_batch_size", batch_size);
    live.mesh.shutdown();
    Ok(())
}
