//! Command-line entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-hit|shared-miss|sim-dec> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the full run
//! record (and, for traced runs, the span log) is written under
//! `.bench_out/`.

use bh_perfbench::json::Json;
use bh_perfbench::live::{self, LiveSpec, HOT_HIT, SHARED_MISS};
use bh_perfbench::probes::Spans;
use bh_perfbench::report::{Report, END_TO_END, PER_LAYER, UNBOUNDED};
use bh_perfbench::{host, sim};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <hot-hit|shared-miss|sim-dec> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn live_params(spec: &LiveSpec) -> Json {
    Json::obj()
        .with("low_rps", spec.low_rps)
        .with("high_rps", spec.high_rps)
        .with(
            "ladder",
            Json::obj()
                .with("from_rps", spec.low_rps)
                .with("ratio", live::LADDER_RATIO)
                .with("coarse_stride", live::COARSE_STRIDE as u64),
        )
        .with("p99_limit_ms", spec.p99_limit_ms)
        .with("entry_nodes", live::entry_nodes())
        .with(
            "data_capacity_bytes",
            spec.overrides
                .data_capacity
                .map_or(Json::Null, |c| Json::Int(c.as_bytes())),
        )
        .with(
            "flush_max_ms",
            spec.overrides
                .flush_max
                .map_or(Json::Null, |d| Json::Int(d.as_millis() as u64)),
        )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut spans = Spans::default();
    let (params, outcome) = match (args.workload.as_str(), args.trace) {
        ("hot-hit" | "shared-miss", trace) => {
            let spec = if args.workload == "hot-hit" {
                HOT_HIT
            } else {
                SHARED_MISS
            };
            let outcome = if trace {
                live::run_traced(&spec, args.seed, args.seconds, &mut report, &mut spans)
            } else {
                live::run(&spec, args.seed, args.seconds, &mut report)
            };
            (live_params(&spec), outcome)
        }
        ("sim-dec", trace) => {
            if trace {
                sim::run_traced(args.seed, &mut report, &mut spans);
            } else {
                sim::run(args.seed, args.seconds, &mut report);
            }
            let params = Json::obj()
                .with("dec_scale", sim::DEC_SCALE)
                .with("trace_records", sim::spec().requests)
                .with("strategies", vec!["hierarchy", "directory", "hints"])
                .with("space", "SimConfig::constrained")
                .with("cost_model", "Testbed");
            (params, Ok(()))
        }
        (other, _) => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("{} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if !report.values.contains_key("peak_rss_mb") {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = report.metrics(catalogue);
    let result = Json::obj()
        .with("correct", report.correct())
        .with("attempted", report.attempted.max(1))
        .with("failed", report.failed)
        .with("metrics", metrics.clone());

    let record = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("host", host::record())
        .with("params", params)
        .with("result", result.clone())
        .with(
            "values",
            Json::Obj(
                report
                    .values
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        )
        .with("problems", report.problems.clone())
        .with("detail", Json::Obj(report.detail.clone()));
    let out = Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), format!("{record}\n")))
        .and_then(|()| {
            if args.trace {
                spans.write(&out.join(format!("spans-{stem}.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("could not write the run record: {e}");
    }

    println!(
        "# {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("# record {record}");
    for (name, unit) in catalogue {
        println!(
            "# {name} = {} {unit}",
            report.values.get(*name).copied().unwrap_or(0.0)
        );
    }
    if !args.trace {
        for (name, unit) in UNBOUNDED {
            if let Some(v) = report.values.get(*name) {
                println!("# {name} = {v} {unit} (no bound)");
            }
        }
    }
    for p in &report.problems {
        println!("# FAILED CHECK: {p}");
    }
    println!("{result}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
