//! The simulator workload, `sim-dec`: a DEC-calibrated trace replayed
//! through the data hierarchy, the central directory and the hint
//! hierarchy with `Simulator::run_trace`, under the space-constrained
//! configuration and the Testbed cost model. It opens no socket.
//!
//! A simulator "request" here is one round: a pass of each of the three
//! strategies over the whole trace, the answer to "how do the designs
//! compare on this trace". The low load runs one round at a time, the
//! high load one round per CPU at once.

use crate::host;
use crate::json::Json;
use crate::probes::{self, Spans, STRATEGIES};
use crate::report::Report;
use crate::stats::{median, quantile};
use bh_core::sim::{SimConfig, SimReport, Simulator};
use bh_core::strategies::StrategyKind;
use bh_netmodel::{CostModel, TestbedModel};
use bh_trace::{MaterializedTrace, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

/// Scale of the DEC trace (22.1 M requests at full size).
pub const DEC_SCALE: f64 = 0.002;

/// Times the trace is materialized for `setup_s`.
const SETUPS: usize = 5;

/// The workload's trace spec.
pub fn spec() -> WorkloadSpec {
    WorkloadSpec::dec().scaled(DEC_SCALE)
}

/// One timed strategy pass.
struct Pass {
    strategy: usize,
    ms: f64,
    report: SimReport,
}

fn pass(sim: &Simulator, arena: &MaterializedTrace, strategy: usize) -> Pass {
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let kind: StrategyKind = STRATEGIES[strategy].1;
    let t = Instant::now();
    let report = sim.run_trace(arena, kind, &models);
    Pass {
        strategy,
        ms: t.elapsed().as_secs_f64() * 1e3,
        report,
    }
}

/// One timed round: a pass of every strategy.
struct Round {
    ms: f64,
    passes: Vec<Pass>,
}

/// Runs `rounds` rounds. Every thread of a high-load phase calls this with
/// the same `barrier`, so all of them run the same strategy at the same
/// time and the phase's peak memory does not depend on scheduling.
fn run_rounds(
    sim: &Simulator,
    arena: &MaterializedTrace,
    rounds: usize,
    barrier: &Barrier,
) -> Vec<Round> {
    (0..rounds)
        .map(|_| {
            let r = Instant::now();
            let passes = (0..STRATEGIES.len())
                .map(|i| {
                    barrier.wait();
                    pass(sim, arena, i)
                })
                .collect();
            Round {
                ms: r.elapsed().as_secs_f64() * 1e3,
                passes,
            }
        })
        .collect()
}

/// Conservation and determinism: every pass of a strategy produces the
/// same report, and each report accounts for every trace record.
fn check_reports<'a>(
    report: &mut Report,
    arena: &MaterializedTrace,
    passes: impl IntoIterator<Item = &'a Pass>,
) {
    let mut first: HashMap<usize, String> = HashMap::new();
    for p in passes {
        let name = STRATEGIES[p.strategy].0;
        let m = &p.report.metrics;
        report.check(m.warmup_skipped + m.requests == arena.len() as u64, || {
            format!(
                "sim-dec {name}: {} warm-up + {} measured != {} trace records",
                m.warmup_skipped,
                m.requests,
                arena.len()
            )
        });
        report.check(m.requests == m.cacheable + m.uncachable + m.errors, || {
            format!("sim-dec {name}: requests do not split into cacheable/uncachable/errors")
        });
        report.check(m.cacheable == m.hits() + m.server_fetches, || {
            format!(
                "sim-dec {name}: {} hits + {} server fetches != {} cacheable",
                m.hits(),
                m.server_fetches,
                m.cacheable
            )
        });
        let text = format!("{:?}", p.report);
        let seen = first.entry(p.strategy).or_insert_with(|| text.clone());
        report.check(*seen == text, || {
            format!("sim-dec {name}: repeated passes disagree")
        });
    }
}

/// Fails the run if a socket appeared since `before`.
fn check_no_sockets(report: &mut Report, before: &[String]) {
    let now = host::open_sockets();
    report.check(now.iter().all(|s| before.contains(s)), || {
        format!("sim-dec purpose: sockets opened during the run: {now:?}")
    });
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, secs: f64, report: &mut Report) {
    let spec = spec();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut arena = None;
    for _ in 0..SETUPS {
        drop(arena.take());
        let t = Instant::now();
        arena = Some(MaterializedTrace::generate(&spec, seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let arena = arena.expect("materialized");
    let sim = Simulator::new(SimConfig::constrained(&spec));
    report.set("setup_s", median(&setup_times));
    report.note("setup_s_samples", setup_times.clone());
    let sockets = host::open_sockets();

    // Size both phases from the first round so the run lasts `secs`.
    let first = run_rounds(&sim, &arena, 1, &Barrier::new(1));
    let threads = host::nproc().max(1);
    let per_round = first[0].ms / 1e3;
    let low_rounds = ((secs * 0.5 / per_round) as usize).max(1);
    let high_rounds = ((secs * 0.5 / per_round / threads as f64) as usize).max(1);
    let mut low = first;
    low.extend(run_rounds(
        &sim,
        &arena,
        low_rounds.saturating_sub(1),
        &Barrier::new(1),
    ));
    check_no_sockets(report, &sockets);
    let barrier = Barrier::new(threads);
    let high: Vec<Round> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (sim, arena, barrier) = (&sim, &arena, &barrier);
                s.spawn(move || run_rounds(sim, arena, high_rounds, barrier))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("round thread"))
            .collect()
    });
    check_no_sockets(report, &sockets);
    check_reports(
        report,
        &arena,
        low.iter().chain(&high).flat_map(|r| &r.passes),
    );

    let ms = |rs: &[Round]| rs.iter().map(|r| r.ms).collect::<Vec<f64>>();
    let simulated = (low.len() * STRATEGIES.len() * arena.len()) as f64;
    let low_secs: f64 = low.iter().map(|r| r.ms).sum::<f64>() / 1e3;
    let sim_rps = simulated / low_secs;
    report.set("sim_rps", sim_rps);
    report.set("p50_ms.low", median(&ms(&low)));
    report.set("p99_ms.low", quantile(&ms(&low), 0.99));
    report.set("p50_ms.high", median(&ms(&high)));
    report.set("p99_ms.high", quantile(&ms(&high), 0.99));
    let hints = STRATEGIES
        .iter()
        .position(|(name, _)| *name == "hints")
        .expect("hints strategy");
    report.set("hit_ratio", low[0].passes[hints].report.metrics.hit_ratio());
    report.attempted = (low.len() + high.len()) as u64;
    report.note("trace_records", arena.len());
    report.note("rounds_low", low.len());
    report.note("rounds_high", high.len());
    report.note("high_threads", threads);
    for (i, (name, _)) in STRATEGIES.iter().enumerate() {
        let of = |rs: &[Round]| rs.iter().map(|r| r.passes[i].ms).collect::<Vec<f64>>();
        report.note(&format!("pass_ms.low.{name}"), of(&low));
        report.note(&format!("pass_ms.high.{name}"), of(&high));
    }
}

/// The traced run: one span per pass and per probe; per-layer metrics.
pub fn run_traced(seed: u64, report: &mut Report, spans: &mut Spans) {
    let spec = spec();
    let sockets = host::open_sockets();
    let start = spans.now_ns();
    let arena = MaterializedTrace::generate(&spec, seed);
    spans.add(
        "setup.materialize",
        None,
        start,
        spans.now_ns() - start,
        Json::obj(),
    );
    let sim = Simulator::new(SimConfig::constrained(&spec));
    let mut passes = Vec::new();
    for (i, (name, _)) in STRATEGIES.iter().enumerate() {
        let start = spans.now_ns();
        let p = pass(&sim, &arena, i);
        let attrs = Json::obj().with("requests", arena.len());
        spans.add(
            &format!("sim.pass.{name}"),
            None,
            start,
            (p.ms * 1e6) as u64,
            attrs,
        );
        passes.push(p);
    }
    check_reports(report, &arena, &passes);
    report.attempted = passes.len() as u64;

    let records: Vec<_> = arena.iter().take(50_000).collect();
    let urls: Vec<String> = records
        .iter()
        .take(5_000)
        .map(|r| r.object.synthetic_url())
        .collect();
    let space = SimConfig::constrained(&spec).space;
    let inputs = probes::Inputs {
        urls: &urls,
        stream: records
            .iter()
            .map(|r| (r.object.key(), r.size.as_bytes().max(1)))
            .collect(),
        data_capacity: space.hint_node_capacity,
        hint_shard_capacity: space.hint_store_capacity,
        batch_size: 1,
        trace_spec: spec.clone(),
        seed,
    };
    probes::socket_free(report, spans, &inputs);
    check_no_sockets(report, &sockets);
}
