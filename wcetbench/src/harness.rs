//! Pieces every workload shares: analyzer configurations, the traced
//! call into the analyzer, report rendering, the interpreter envelope
//! check, and the result record the metrics are computed from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzeError, WcetAnalyzer};
use wcet_predictability::core::fuzz::OracleCase;
use wcet_predictability::core::incr::{ArtifactCache, IncrStats};
use wcet_predictability::core::phases::PhaseTrace;
use wcet_predictability::core::AnalyzerConfig;
use wcet_predictability::guidelines::annot::AnnotationSet;
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::{Image, IsaKind, Reg};
use wcet_predictability::render;

use crate::gen::INPUT_REGS;
use crate::trace::{Span, Tracer};

/// Span names of the five `PhaseTrace` phases, in pipeline order.
pub const PHASE_SPANS: [&str; 5] = [
    "isa.decode",
    "cfg.reconstruct",
    "analysis.value",
    "micro.cache_pipeline",
    "path.ipet",
];

/// Interpreter fuel: far above what any generated program runs.
const FUEL: u64 = 50_000_000;

/// Analysis worker threads: the machine's cores, at most two, so every
/// workload offers the same load on any host.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The analyzer configuration and the matching concrete machine for one
/// oracle case — the same pairing `wcet` builds from its flags.
pub fn configure(
    isa: IsaKind,
    case: OracleCase,
    annotations: AnnotationSet,
) -> (AnalyzerConfig, MachineConfig) {
    let mut machine = if case.caches {
        MachineConfig::with_caches_for(isa)
    } else {
        MachineConfig::simple_for(isa)
    };
    machine.pipeline = case.pipeline;
    let config = AnalyzerConfig {
        machine: machine.clone(),
        annotations,
        unrolling: case.unrolling,
        parallelism: Some(threads()),
        context_depth: case.context_depth,
        persistence: case.persistence,
        pipeline: case.pipeline,
        isa,
        ..AnalyzerConfig::new()
    };
    (config, machine)
}

/// Runs the analyzer inside a `core.analyze` span whose children are the
/// report's five phase times; the span's self time is the analyze call's
/// unattributed time.
pub fn analyze(
    tr: &mut Tracer,
    analyzer: &WcetAnalyzer,
    image: &Image,
    cache: Option<&mut ArtifactCache>,
) -> Result<AnalysisReport, AnalyzeError> {
    let span = tr.begin("core.analyze");
    let report = match cache {
        Some(cache) => analyzer.analyze_incremental(image, cache),
        None => analyzer.analyze(image),
    };
    tr.end(span);
    if let Ok(report) = &report {
        let parts: Vec<(&'static str, Duration)> = PHASE_SPANS
            .iter()
            .zip(report.trace.phase_times)
            .map(|(&name, time)| (name, time))
            .collect();
        tr.synthetic_children(span, &parts);
    }
    report
}

/// Renders a report exactly as single-shot `wcet` prints it: guideline
/// findings, a blank separator, then the analysis section.
pub fn render_report(tr: &mut Tracer, image: &Image, report: &AnalysisReport) -> String {
    let span = tr.begin("render");
    let mut out = render::render_guidelines(report);
    if report.guidelines.is_some() {
        out.push('\n');
    }
    out.push_str(&render::render_analysis(image, report));
    tr.end(span);
    out
}

/// Drops the phase lines that carry wall clocks, as the serve tests do.
pub fn strip_timings(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("Phase") && !l.contains("Graph") && !l.contains("Analysis:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Observed cycles of `image` on `machine` over every input vector:
/// `(fewest, most)`.
pub fn observe(
    image: &Image,
    machine: &MachineConfig,
    inputs: &[[u32; 3]],
) -> Result<(u64, u64), String> {
    let mut range = (u64::MAX, 0);
    for input in inputs {
        let mut interp = Interpreter::with_config(image, machine.clone());
        for (&r, &v) in INPUT_REGS.iter().zip(input) {
            interp.set_reg(Reg::new(r), v);
        }
        let cycles = interp
            .run(FUEL)
            .map_err(|e| format!("execution: {e}"))?
            .cycles;
        range = (range.0.min(cycles), range.1.max(cycles));
    }
    Ok(range)
}

/// `Ok(wcet / most observed)` when every observation lies in
/// `[bcet, wcet]`, otherwise the violation.
pub fn envelope(wcet: u64, bcet: u64, observed: (u64, u64)) -> Result<f64, String> {
    let (low, high) = observed;
    if low < bcet || high > wcet {
        return Err(format!("observed [{low}, {high}] outside [{bcet}, {wcet}]"));
    }
    Ok(wcet as f64 / high.max(1) as f64)
}

/// Geometric mean (1.0 for an empty set).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set of process `pid` (`None` = this process) in MiB,
/// from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Set-ups per run, and slices of the untraced measured phase. The first
/// set-up builds the run's state; each later one is a side set-up, timed
/// and thrown away before the next slice. `setup_s` is their median.
/// Host speed on a shared machine shifts for seconds at a time, so
/// set-ups timed back to back all sample one moment, while set-ups spread
/// over the run sample the same mix of moments the measured phase does.
pub const SETUPS: usize = 6;

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Program shape totals, which must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shapes {
    pub functions: u64,
    pub instructions: u64,
    pub blocks: u64,
    pub loops: u64,
}

impl Shapes {
    pub fn add(&mut self, trace: &PhaseTrace) {
        self.functions += trace.functions as u64;
        self.instructions += trace.decoded_insts as u64;
        self.blocks += trace.blocks as u64;
        self.loops += trace.loops as u64;
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Untimed operations before the measured phase; op `warmup_ops` is
    /// the first measured one.
    pub warmup_ops: u64,
    /// Per-operation latencies of the untraced measured phase, in ms.
    pub latencies_ms: Vec<f64>,
    /// Which input each of those operations ran on.
    pub keys: Vec<usize>,
    /// Wall time of the untraced measured phase.
    pub phase_s: f64,
    /// The percentile `latency_tail_ms` reports: the highest one with at
    /// least ten samples beyond it at the workload's usual op count. Fixed
    /// per workload, so the metric does not jump between percentiles as
    /// the op count drifts; it falls back lower only when a run is short.
    pub tail_percentile: f64,
    /// Per-operation latencies of the traced phase (traced runs only).
    pub traced_latencies_ms: Vec<f64>,
    pub traced_keys: Vec<usize>,
    /// Operations of the traced phase.
    pub traced_ops: u64,
    pub overestimate: f64,
    pub peak_rss_mb: f64,
    /// Wall time of each set-up, in seconds, in the order they ran.
    pub setup_walls: Vec<f64>,
    pub shapes: Shapes,
    /// Per-layer values the workload computes itself (counts, ratios);
    /// span-derived layers are added from `spans`.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Why the run is not correct, beyond failed operations.
    pub problems: Vec<String>,
}

/// Runs `op` back to back until `seconds` of wall time have passed and
/// returns the per-op latencies in ms plus the phase's wall time. `op`
/// gets its index and returns its own latency, so work it does outside
/// the timed region does not count.
fn closed_loop(
    seconds: f64,
    first_op: u64,
    mut op: impl FnMut(u64) -> Duration,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut i = first_op;
    while start.elapsed().as_secs_f64() < seconds {
        latencies.push(op(i).as_secs_f64() * 1e3);
        i += 1;
    }
    (latencies, start.elapsed().as_secs_f64())
}

/// The measured phases of an in-process workload: `warmup_ops` untimed
/// ops, then `seconds` untraced, or, for a traced run, half untraced and
/// half traced. The untraced phase runs in [`SETUPS`] slices with a
/// `side_setup` (which returns its wall time) before each slice but the
/// first; `first_setup_s` is the wall time of the set-up that built the
/// run's state. Op indices run on from the warm-up into every phase; fills
/// the latency, op-count, set-up, peak-RSS, and span fields of `result`.
/// Warm-up ops are checked like the others, so they count as attempted.
#[allow(clippy::too_many_arguments)]
pub fn run_phases(
    result: &mut RunResult,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    first_setup_s: f64,
    warmup_ops: u64,
    mut side_setup: impl FnMut() -> f64,
    mut op: impl FnMut(&mut Tracer, u64) -> Duration,
) {
    let untraced = if trace { seconds / 2.0 } else { seconds };
    let mut off = Tracer::new(false, epoch);
    for i in 0..warmup_ops {
        op(&mut off, i);
    }
    let mut setups = vec![first_setup_s];
    let mut latencies = Vec::new();
    let mut phase_s = 0.0;
    for slice in 0..SETUPS {
        if slice > 0 {
            setups.push(side_setup());
        }
        let (slice_latencies, wall) = closed_loop(
            untraced / SETUPS as f64,
            warmup_ops + latencies.len() as u64,
            |i| op(&mut off, i),
        );
        latencies.extend(slice_latencies);
        phase_s += wall;
    }
    result.setup_walls = setups;
    result.peak_rss_mb = peak_rss_mb(None);
    if trace {
        let mut on = Tracer::new(true, epoch);
        let (traced, _) = closed_loop(seconds / 2.0, warmup_ops + latencies.len() as u64, |i| {
            op(&mut on, i)
        });
        result.traced_ops = traced.len() as u64;
        result.traced_latencies_ms = traced;
        result.spans = on.into_spans();
    }
    result.warmup_ops = warmup_ops;
    result.attempted =
        warmup_ops + (latencies.len() + result.traced_latencies_ms.len()) as u64;
    result.latencies_ms = latencies;
    result.phase_s = phase_s;
}

/// The incremental-cache layer metrics over `ops` analyses.
pub fn incr_layers(stats: &IncrStats, ops: usize) -> [(&'static str, f64); 4] {
    let ops = ops.max(1) as f64;
    let ipet = (stats.ipet_hits + stats.ipet_solves).max(1) as f64;
    [
        (
            "core.incr.fn_hit_ratio",
            stats.fn_hits as f64 / stats.functions.max(1) as f64,
        ),
        ("core.incr.ipet_hit_ratio", stats.ipet_hits as f64 / ipet),
        ("core.incr.dirty", stats.dirty as f64 / ops),
        ("core.incr.ipet_solves", stats.ipet_solves as f64 / ops),
    ]
}
