//! `cold_corpus`: one in-process client analyzes a seeded corpus of
//! generated programs cold, each under its own oracle-matrix config, and
//! renders the report. No artifact cache is involved.

use std::time::{Duration, Instant};

use wcet_predictability::analysis::analyze_function;
use wcet_predictability::cfg::callgraph::CallGraph;
use wcet_predictability::core::analyzer::WcetAnalyzer;
use wcet_predictability::core::fuzz::{report_digest, MATRIX};
use wcet_predictability::core::AnalysisReport;
use wcet_predictability::guidelines::annot::AnnotationSet;
use wcet_predictability::guidelines::rules::{check_function, check_image_level};
use wcet_predictability::isa::interp::MachineConfig;
use wcet_predictability::isa::{Image, IsaKind};

use crate::gen::{self, Rng, Shape};
use crate::harness::{self, RunResult, Shapes};
use crate::trace::Tracer;

/// Programs per ISA; sizes are log-spaced over `MIN..=MAX` functions and
/// each of the eight matrix cases gets six of them. A corpus this size
/// keeps any one program's text from setting the median or the pass time.
const PER_ISA: usize = 48;
const MIN_FUNCTIONS: f64 = 4.0;
const MAX_FUNCTIONS: f64 = 128.0;

/// `latency_tail_ms` percentile. At ~1500 ops per 32 s, p99 would leave
/// ~15 ops beyond it, but they would all be ops on the one heaviest
/// program, so the tail would follow that program's seeded text; the 5%
/// beyond p95 span the five heaviest.
const TAIL_PERCENTILE: f64 = 95.0;

struct Entry {
    image: Image,
    analyzer: WcetAnalyzer,
    machine: MachineConfig,
    /// Call-string context depth of the entry's config (0 or 1).
    depth: usize,
}

/// What the first analysis of an entry established; later analyses of
/// the same entry must reproduce its digest.
struct Seen {
    digest: String,
    wcet: u64,
    bcet: u64,
}

/// The corpus design is fixed — slot `i` of each ISA always has the same
/// size, code placement, and oracle case, so every seed carries the same
/// mix of work — and the seed decides the program text.
fn build_corpus(seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed);
    let mut corpus = Vec::with_capacity(2 * PER_ISA);
    for (k, isa) in [IsaKind::House, IsaKind::Rv32i].into_iter().enumerate() {
        for i in 0..PER_ISA {
            let t = i as f64 / (PER_ISA - 1) as f64;
            let functions = (MIN_FUNCTIONS * (MAX_FUNCTIONS / MIN_FUNCTIONS).powf(t)).round();
            let shape = Shape {
                isa,
                functions: functions as usize,
                flash: i % 3 != 1,
            };
            let program = gen::generate(shape, rng.next_u64());
            let image = gen::assemble(&program);
            let annotations = AnnotationSet::parse(&program.annotations(&image))
                .expect("generated annotations parse");
            let case = MATRIX[(i + 4 * k) % MATRIX.len()];
            let (config, machine) = harness::configure(isa, case, annotations);
            corpus.push(Entry {
                image,
                analyzer: WcetAnalyzer::with_config(config),
                machine,
                depth: case.context_depth,
            });
        }
    }
    corpus
}

/// Replays the guideline checker on the op's inputs: `check_function`
/// per function plus `check_image_level`, timed without the value
/// analyses and call graph they consume.
fn replay_guidelines(tr: &mut Tracer, image: &Image, report: &AnalysisReport) {
    let root = tr.begin("replay.guidelines");
    let mut spent = Duration::ZERO;
    let first = Instant::now();
    for &f in report.program.functions.keys() {
        let fa = analyze_function(&report.program, f, image);
        let t = Instant::now();
        std::hint::black_box(check_function(&fa));
        spent += t.elapsed();
    }
    let callgraph = CallGraph::build(&report.program);
    let t = Instant::now();
    std::hint::black_box(check_image_level(image, &report.program, &callgraph));
    spent += t.elapsed();
    tr.record("guidelines.check", first, spent);
    tr.end(root);
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let (corpus, setup_s) = harness::timed(|| build_corpus(seed));
    let epoch = Instant::now();
    let mut seen: Vec<Option<Seen>> = (0..corpus.len()).map(|_| None).collect();
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut pivots = 0u64;
    let mut refactorizations = 0u64;
    let mut shapes = Shapes::default();
    let mut work = Duration::ZERO;
    let mut wall = Duration::ZERO;
    // Traced op time and op count per context depth.
    let mut by_depth = [(Duration::ZERO, 0u32); 2];

    let mut one_op = |tr: &mut Tracer, i: u64| -> Duration {
        let idx = i as usize % corpus.len();
        let entry = &corpus[idx];
        tr.set_op(i);
        let start = Instant::now();
        let span = tr.begin("op");
        let report = harness::analyze(tr, &entry.analyzer, &entry.image, None);
        let text = report
            .as_ref()
            .ok()
            .map(|r| harness::render_report(tr, &entry.image, r));
        tr.end(span);
        let latency = start.elapsed();
        std::hint::black_box(text);
        let Ok(report) = report else {
            failed += 1;
            return latency;
        };
        if tr.enabled() {
            replay_guidelines(tr, &entry.image, &report);
            work += report.trace.total_work_time();
            wall += report.trace.total_time();
            let d = &mut by_depth[entry.depth.min(1)];
            d.0 += latency;
            d.1 += 1;
        }
        let digest = report_digest(&report);
        match &seen[idx] {
            Some(first) if first.digest != digest => failed += 1,
            Some(_) => {}
            None => {
                pivots += report.trace.lp_pivots;
                refactorizations += report.trace.lp_refactorizations;
                shapes.add(&report.trace);
                seen[idx] = Some(Seen {
                    digest,
                    wcet: report.wcet_cycles,
                    bcet: report.bcet_cycles,
                });
            }
        }
        latency
    };

    let mut result = RunResult {
        tail_percentile: TAIL_PERCENTILE,
        ..RunResult::default()
    };
    let side_setup = || harness::timed(|| build_corpus(seed)).1;
    // One untimed pass over the corpus first: every program's first
    // analysis, and the allocator's growth to its working size, happen
    // before the clock starts.
    harness::run_phases(
        &mut result,
        seconds,
        trace,
        epoch,
        setup_s,
        corpus.len() as u64,
        side_setup,
        &mut one_op,
    );
    let measured = result.warmup_ops + result.latencies_ms.len() as u64;
    let attempted = result.attempted;
    result.keys = (result.warmup_ops..measured)
        .map(|i| i as usize % corpus.len())
        .collect();
    result.traced_keys = (measured..attempted)
        .map(|i| i as usize % corpus.len())
        .collect();
    // Envelope: per op, outside the timed region (bounds and observed
    // cycles are per program, so each program is run once).
    let inputs = gen::input_vectors(seed);
    let mut ratios = Vec::with_capacity(corpus.len());
    let mut bad = vec![false; corpus.len()];
    for (idx, entry) in corpus.iter().enumerate() {
        let Some(s) = &seen[idx] else {
            problems.push(format!("corpus program {idx} never analyzed"));
            continue;
        };
        match harness::observe(&entry.image, &entry.machine, &inputs)
            .and_then(|obs| harness::envelope(s.wcet, s.bcet, obs))
        {
            Ok(ratio) => ratios.push(ratio),
            Err(e) => {
                bad[idx] = true;
                problems.push(format!("corpus program {idx}: {e}"));
            }
        }
    }
    // Every op on a program outside its envelope failed.
    failed += (0..attempted)
        .filter(|&i| bad[i as usize % corpus.len()])
        .count() as u64;

    result.failed = failed;
    result.overestimate = harness::geomean(&ratios);
    result.shapes = shapes;
    result.layers.insert("ilp.pivots", pivots as f64);
    result
        .layers
        .insert("ilp.refactorizations", refactorizations as f64);
    for (name, (time, count)) in ["core.depth0.op_ms", "core.depth1.op_ms"]
        .into_iter()
        .zip(by_depth)
    {
        if count > 0 {
            result
                .layers
                .insert(name, time.as_secs_f64() * 1e3 / f64::from(count));
        }
    }
    if wall > Duration::ZERO {
        result.layers.insert(
            "core.parallel.work_over_wall",
            work.as_secs_f64() / wall.as_secs_f64(),
        );
    }
    result.problems = problems;
    result
}
