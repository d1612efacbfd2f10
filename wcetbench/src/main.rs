//! `wcetbench` — the repository benchmark.
//!
//! ```text
//! wcetbench --workload <cold_corpus|edit_loop|serve_stream> --seed <n>
//!           --seconds <s> --trace <0|1> --wcet <path to wcet>
//!           [--build-dir <dir>]
//! ```
//!
//! Runs one workload for `--seconds` seconds of measured closed-loop
//! load, checks every operation's output outside the timed region, and
//! prints one JSON object as its last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `<build-dir>/wcetbench-traces/<workload>-seed<n>.json`. See
//! `README.md` next to this package for the workloads and metrics.

mod cold;
mod edit;
mod gen;
mod harness;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{median, RunResult};
use trace::layer_totals;

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_per_s", "1/s"),
    ("wcet_overestimate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in output order. Layers a
/// workload does not exercise read 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("isa.decode_ms", "ms"),
    ("cfg.reconstruct_ms", "ms"),
    ("analysis.value_ms", "ms"),
    ("micro.cache_pipeline_ms", "ms"),
    ("path.ipet_ms", "ms"),
    ("ilp.pivots", "count"),
    ("ilp.refactorizations", "count"),
    ("core.parallel.work_over_wall", "ratio"),
    ("core.depth0.op_ms", "ms"),
    ("core.depth1.op_ms", "ms"),
    ("isa.assemble_ms", "ms"),
    ("render.ms", "ms"),
    ("core.incr.open_ms", "ms"),
    ("guidelines.check_ms", "ms"),
    ("core.incr.key_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.unattributed_share", "share"),
    ("core.incr.fn_hit_ratio", "ratio"),
    ("core.incr.ipet_hit_ratio", "ratio"),
    ("core.incr.dirty", "count"),
    ("core.incr.ipet_solves", "count"),
    ("core.incr.cache_bytes", "bytes"),
    ("core.incr.gc_runs", "count"),
    ("core.serve.roundtrip_ms", "ms"),
    ("core.serve.handler_ms", "ms"),
    ("core.serve.unattributed_ms", "ms"),
    ("core.serve.dedup_hits", "count"),
    ("shape.functions", "count"),
    ("shape.instructions", "count"),
    ("shape.blocks", "count"),
    ("shape.loops", "count"),
    ("trace.overhead_share", "share"),
    ("failed_ops_share", "share"),
    ("op.wall_ms", "ms"),
    ("op.self_ms", "ms"),
];

/// Tail percentiles a workload may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wcet: PathBuf,
    build_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        wcet: PathBuf::new(),
        build_dir: PathBuf::from(".bench_build"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--wcet" => args.wcet = PathBuf::from(&value),
            "--build-dir" => args.build_dir = PathBuf::from(&value),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// `path` relative to the working directory when it lies below it, so
/// the daemon's socket path stays short.
fn relative_to_cwd(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `target`, or the highest lower ladder percentile with at least ten
/// samples beyond it when there are too few samples for `target`.
fn tail(sorted: &[f64], target: f64) -> (f64, f64) {
    let n = sorted.len() as f64;
    let p = TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= target)
        .find(|p| n - ((p / 100.0) * n).ceil() >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

fn end_to_end(r: &RunResult) -> BTreeMap<&'static str, f64> {
    let mut sorted = r.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let (p, tail_ms) = tail(&sorted, r.tail_percentile);
    eprintln!(
        "wcetbench: latency_tail_ms is p{p} of {} samples",
        sorted.len()
    );
    eprintln!("wcetbench: set-up walls (s): {:?}", r.setup_walls);
    BTreeMap::from([
        ("latency_p50_ms", median(&r.latencies_ms)),
        ("latency_tail_ms", tail_ms),
        (
            "throughput_ops_per_s",
            r.latencies_ms.len() as f64 / r.phase_s,
        ),
        ("wcet_overestimate", r.overestimate),
        ("peak_rss_mb", r.peak_rss_mb),
        ("setup_s", median(&r.setup_walls)),
    ])
}

/// Traced over untraced op time, minus one, compared input by input: the
/// sum over inputs seen in both phases of each phase's median latency on
/// that input.
fn overhead_share(r: &RunResult) -> f64 {
    let group = |keys: &[usize], latencies: &[f64]| {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&k, &l) in keys.iter().zip(latencies) {
            by_key.entry(k).or_default().push(l);
        }
        by_key
    };
    let untraced = group(&r.keys, &r.latencies_ms);
    let traced = group(&r.traced_keys, &r.traced_latencies_ms);
    let (mut t, mut u) = (0.0, 0.0);
    for (k, lat) in &traced {
        if let Some(base) = untraced.get(k) {
            t += median(lat);
            u += median(base);
        }
    }
    if u > 0.0 {
        t / u - 1.0
    } else {
        0.0
    }
}

fn per_layer(r: &RunResult) -> BTreeMap<&'static str, f64> {
    let totals = layer_totals(&r.spans);
    let ops = r.traced_ops.max(1) as f64;
    let ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total.as_secs_f64() * 1e3 / ops)
    };
    let self_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_time.as_secs_f64() * 1e3 / ops)
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("isa.decode_ms", "isa.decode"),
        ("cfg.reconstruct_ms", "cfg.reconstruct"),
        ("analysis.value_ms", "analysis.value"),
        ("micro.cache_pipeline_ms", "micro.cache_pipeline"),
        ("path.ipet_ms", "path.ipet"),
        ("isa.assemble_ms", "isa.assemble"),
        ("render.ms", "render"),
        ("core.incr.open_ms", "core.incr.open"),
        ("guidelines.check_ms", "guidelines.check"),
        ("core.incr.key_ms", "core.incr.key"),
        ("core.serve.roundtrip_ms", "core.serve.roundtrip"),
        ("core.serve.handler_ms", "core.serve.handler"),
    ] {
        m.insert(metric, ms(span));
    }
    m.insert("core.unattributed_ms", self_ms("core.analyze"));
    let analyze = ms("core.analyze");
    m.insert(
        "core.unattributed_share",
        if analyze > 0.0 {
            self_ms("core.analyze") / analyze
        } else {
            0.0
        },
    );
    if ms("core.serve.handler") > 0.0 {
        m.insert(
            "core.serve.unattributed_ms",
            ms("core.serve.roundtrip") - ms("core.serve.handler"),
        );
    }
    // The op's root span: `op` in-process, the round trip for serve.
    let root = if totals.contains_key("op") {
        "op"
    } else {
        "core.serve.roundtrip"
    };
    m.insert("op.wall_ms", ms(root));
    m.insert("op.self_ms", self_ms(root));
    m.insert("trace.overhead_share", overhead_share(r));
    m.insert(
        "failed_ops_share",
        r.failed as f64 / r.attempted.max(1) as f64,
    );
    m.insert("shape.functions", r.shapes.functions as f64);
    m.insert("shape.instructions", r.shapes.instructions as f64);
    m.insert("shape.blocks", r.shapes.blocks as f64);
    m.insert("shape.loops", r.shapes.loops as f64);
    m.extend(r.layers.iter().map(|(&k, &v)| (k, v)));
    m
}

fn result_line(r: &RunResult, metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0 && r.problems.is_empty(),
        r.attempted,
        r.failed
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "cold_corpus" => Ok(cold::run(args.seed, args.seconds, args.trace)),
        "edit_loop" => Ok(edit::run(args.seed, args.seconds, args.trace, work)),
        "serve_stream" => {
            let wcet = args
                .wcet
                .canonicalize()
                .map_err(|e| format!("wcet binary `{}`: {e}", args.wcet.display()))?;
            serve::run(args.seed, args.seconds, args.trace, work, &wcet)
        }
        other => Err(format!(
            "unknown workload `{other}` (expected cold_corpus, edit_loop, or serve_stream)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wcetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let build_dir = relative_to_cwd(&args.build_dir);
    let work =
        build_dir
            .join("wcetbench-work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("wcetbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("wcetbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &result.problems {
        eprintln!("wcetbench: check failed: {problem}");
    }
    let line = if args.trace {
        let traces = build_dir.join("wcetbench-traces");
        let path = traces.join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&traces).and_then(|()| {
            std::fs::write(
                &path,
                trace::to_json(&args.workload, args.seed, &result.spans),
            )
        });
        match written {
            Ok(()) => eprintln!("wcetbench: spans written to {}", path.display()),
            Err(e) => eprintln!("wcetbench: cannot write {}: {e}", path.display()),
        }
        result_line(&result, &PER_LAYER, &per_layer(&result))
    } else {
        result_line(&result, &END_TO_END, &end_to_end(&result))
    };
    println!("{line}");
    ExitCode::SUCCESS
}
