//! Per-layer probes: timed calls into each layer's public functions, made
//! from outside on the workload's own inputs, plus the span log they and
//! the traced requests are written to.

use crate::json::Json;
use crate::report::Report;
use crate::stats::median;
use bh_cache::{HintCache, LruCache};
use bh_core::sim::{SimConfig, Simulator};
use bh_core::strategies::StrategyKind;
use bh_netmodel::{CostModel, TestbedModel};
use bh_obs::{span, TraceEvent, TraceRing};
use bh_proto::node::NODE_TRACE_CAPACITY;
use bh_proto::pool::{ConnectionPool, PoolConfig, RequestOptions};
use bh_proto::wire::{HintAction, HintUpdate, MachineId, Message};
use bh_proto::CacheNode;
use bh_simcore::units::ByteSize;
use bh_trace::{MaterializedTrace, TraceGenerator, WorkloadSpec};
use bytes::BytesMut;
use parking_lot::Mutex;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// In-memory span log, written out once the run ends.
pub struct Spans {
    t0: Instant,
    lines: Vec<Json>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            lines: Vec::new(),
        }
    }
}

impl Spans {
    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the log's creation to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Appends a span and returns its id.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
        attrs: Json,
    ) -> u64 {
        let id = self.lines.len() as u64 + 1;
        let mut line = Json::obj()
            .with("id", id)
            .with("name", name)
            .with("start_ns", start_ns)
            .with("dur_ns", dur_ns);
        if let Some(p) = parent {
            line.push("parent", p);
        }
        line.push("attrs", attrs);
        self.lines.push(line);
        id
    }

    /// Writes one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut text = String::new();
        for l in &self.lines {
            let _ = writeln!(text, "{l}");
        }
        std::fs::write(path, text)
    }
}

/// Times `f` over every input, `rounds` times, and returns the median
/// nanoseconds per call; records one span for the whole probe.
fn per_call_ns<T>(
    spans: &mut Spans,
    name: &str,
    inputs: &[T],
    rounds: usize,
    mut f: impl FnMut(&T),
) -> f64 {
    let start = spans.now_ns();
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        for x in inputs {
            f(x);
        }
        per_round.push(t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64);
    }
    let ns = median(&per_round);
    let end = spans.now_ns();
    spans.add(
        name,
        None,
        start,
        end - start,
        Json::obj()
            .with("calls", inputs.len() * rounds)
            .with("ns_per_call", ns),
    );
    ns
}

/// Inputs for the socket-free probes, drawn from the workload.
pub struct Inputs<'a> {
    /// The workload's URLs.
    pub urls: &'a [String],
    /// The workload's key stream (request order) with body sizes.
    pub stream: Vec<(u64, u64)>,
    /// The node data capacity.
    pub data_capacity: ByteSize,
    /// The capacity of one node hint shard.
    pub hint_shard_capacity: ByteSize,
    /// Hint-batch size to encode (the run's median flush size).
    pub batch_size: usize,
    /// The trace the `trace` and `core` probes use, and its seed.
    pub trace_spec: WorkloadSpec,
    /// Seed for the trace probes.
    pub seed: u64,
}

/// Probes that open no socket: wire, md5, obs, cache, origin body
/// generation, trace and core.
pub fn socket_free(report: &mut Report, spans: &mut Spans, inp: &Inputs<'_>) {
    let keys: Vec<u64> = inp.stream.iter().map(|(k, _)| *k).collect();
    report.set(
        "md5.url_key_ns",
        per_call_ns(spans, "md5.url_key", inp.urls, 5, |u| {
            black_box(bh_md5::url_key(u));
        }),
    );

    let ring = Mutex::new(TraceRing::new(NODE_TRACE_CAPACITY));
    report.set(
        "obs.trace_record_ns",
        per_call_ns(spans, "obs.trace_record", &keys, 5, |&k| {
            ring.lock().record(TraceEvent {
                ts_micros: k >> 40,
                kind: span::LOCAL_HIT,
                a: k,
                b: 0,
            });
        }),
    );

    let mut lru = LruCache::new(inp.data_capacity);
    report.set(
        "cache.lru_insert_ns",
        per_call_ns(spans, "cache.lru_insert", &inp.stream, 3, |&(k, size)| {
            black_box(lru.insert(k, ByteSize::from_bytes(size), 0));
        }),
    );
    report.set(
        "cache.lru_get_ns",
        per_call_ns(spans, "cache.lru_get", &keys, 5, |&k| {
            black_box(lru.get(k, 0));
        }),
    );

    let mut hints = HintCache::with_capacity(inp.hint_shard_capacity);
    report.set(
        "cache.hint_insert_ns",
        per_call_ns(spans, "cache.hint_insert", &keys, 3, |&k| {
            hints.insert(k, k.rotate_left(17) | 1);
        }),
    );
    report.set(
        "cache.hint_lookup_ns",
        per_call_ns(spans, "cache.hint_lookup", &keys, 5, |&k| {
            black_box(hints.lookup(k));
        }),
    );

    let sender = MachineId(0x7f00_0001_0000_1f90);
    let updates: Vec<HintUpdate> = keys
        .iter()
        .take(inp.batch_size.max(1))
        .map(|&object| HintUpdate {
            action: HintAction::Add,
            object,
            machine: sender,
        })
        .collect();
    let mut scratch = BytesMut::new();
    report.set(
        "wire.hint_batch_encode_ns",
        per_call_ns(spans, "wire.hint_batch_encode", &[(); 200], 5, |_| {
            Message::hint_batch(sender, updates.clone()).encode(&mut scratch);
            black_box(scratch.len());
        }),
    );

    let some_urls = &inp.urls[..inp.urls.len().min(500)];
    report.set(
        "origin.body_gen_us",
        per_call_ns(spans, "origin.synthetic_body", some_urls, 3, |u| {
            black_box(bh_proto::origin::synthetic_body(u));
        }) / 1e3,
    );

    trace_and_core(report, spans, &inp.trace_spec, inp.seed);
}

/// The `trace` and `core` probes: generation, materialization and replay
/// rates of `spec`, and `Simulator::run_trace` per strategy on it.
fn trace_and_core(report: &mut Report, spans: &mut Spans, spec: &WorkloadSpec, seed: u64) {
    let n = spec.requests as f64;
    let timed = |spans: &mut Spans, name: &str, f: &mut dyn FnMut()| {
        let start = spans.now_ns();
        let t = Instant::now();
        f();
        let secs = t.elapsed().as_secs_f64();
        spans.add(
            name,
            None,
            start,
            (secs * 1e9) as u64,
            Json::obj().with("requests", spec.requests),
        );
        secs
    };
    let gen = timed(spans, "trace.generate", &mut || {
        black_box(TraceGenerator::new(spec, seed).count());
    });
    report.set("trace.generate_rps", n / gen);
    let mut arena = None;
    let mat = timed(spans, "trace.materialize", &mut || {
        arena = Some(MaterializedTrace::generate(spec, seed));
    });
    report.set("trace.materialize_s", mat);
    let arena = arena.expect("materialized");
    let replay = timed(spans, "trace.replay", &mut || {
        black_box(arena.iter().count());
    });
    report.set("trace.replay_rps", n / replay);
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let sim = Simulator::new(SimConfig::constrained(spec));
    for (name, kind) in STRATEGIES {
        let secs = timed(spans, &format!("core.run_trace.{name}"), &mut || {
            black_box(sim.run_trace(&arena, kind, &models));
        });
        report.set(&format!("core.rps.{name}"), n / secs);
    }
}

/// The three strategies the simulator workload compares.
pub const STRATEGIES: [(&str, StrategyKind); 3] = [
    ("hierarchy", StrategyKind::DataHierarchy),
    ("directory", StrategyKind::CentralDirectory),
    ("hints", StrategyKind::HintHierarchy),
];

/// Probes against the warm live mesh: `find_nearest` on a node, and the
/// benchmark's own pooled `PeerGet` and origin `Get` round trips.
pub fn mesh(
    report: &mut Report,
    spans: &mut Spans,
    node: &CacheNode,
    origin: SocketAddr,
    urls: &[String],
    keys: &[u64],
) {
    report.set(
        "node.find_nearest_ns",
        per_call_ns(spans, "node.find_nearest", keys, 5, |&k| {
            black_box(node.find_nearest(k));
        }),
    );
    let pool = ConnectionPool::new(PoolConfig::default());
    let round_trip = |spans: &mut Spans,
                      name: &str,
                      addr: SocketAddr,
                      opts: RequestOptions,
                      make: &dyn Fn(&str) -> Message| {
        let mut us = Vec::with_capacity(urls.len());
        for u in urls {
            let start = spans.now_ns();
            let t = Instant::now();
            let ok = pool.request(addr, opts, &make(u)).is_ok();
            let dur = t.elapsed();
            spans.add(
                name,
                None,
                start,
                dur.as_nanos() as u64,
                Json::obj().with("ok", ok),
            );
            us.push(dur.as_secs_f64() * 1e6);
        }
        median(&us)
    };
    let peer = round_trip(
        spans,
        "pool.peer_get",
        node.addr(),
        RequestOptions::peer_probe(),
        &|u| Message::PeerGet { url: u.to_string() },
    );
    report.set("pool.peer_get_us.p50", peer);
    let orig = round_trip(
        spans,
        "pool.origin_get",
        origin,
        RequestOptions::origin(),
        &|u| Message::Get { url: u.to_string() },
    );
    report.set("pool.origin_get_us.p50", orig);
}
