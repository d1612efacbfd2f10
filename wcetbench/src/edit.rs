//! `edit_loop`: one in-process client keeps editing one function of a
//! large flash-resident program and re-analyzes it against a persistent
//! artifact cache, the way `wcet --cache-dir` serves a developer's
//! edit-analyze loop.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wcet_predictability::analysis::valueanalysis::compute_summaries;
use wcet_predictability::core::analyzer::{AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::fuzz::{report_digest, OracleCase};
use wcet_predictability::core::incr::{ArtifactCache, IncrStats, KeyContext};
use wcet_predictability::core::AnalysisReport;
use wcet_predictability::guidelines::annot::AnnotationSet;
use wcet_predictability::isa::asm::assemble_for;
use wcet_predictability::isa::interp::MachineConfig;
use wcet_predictability::isa::{Image, IsaKind};

use crate::gen::{self, Program, Rng, Shape};
use crate::harness::{self, RunResult, Shapes};
use crate::trace::Tracer;

/// Functions in the edited program: `main`, 9 mid-level functions, and
/// 67 leaves, so an edited leaf dirties a cone of exactly 3 functions.
const FUNCTIONS: usize = 77;
/// The full stack: caches, one level of call-string context,
/// persistence, and the pipeline model.
const CASE: OracleCase = OracleCase {
    caches: true,
    context_depth: 1,
    persistence: true,
    unrolling: false,
    pipeline: true,
};
/// The edited program is the same for every seed; the seed drives the
/// edit sequence and the input vectors. Runs with different seeds then
/// measure one program's edit loop, not the spread between programs,
/// which `cold_corpus` covers.
const PROGRAM_SEED: u64 = 1;
/// Every `COLD_CHECK_EVERY`-th op is re-analyzed cold to compare digests
/// (a dozen or more per run).
const COLD_CHECK_EVERY: usize = 32;
/// Untimed edits before the measured phase.
const WARMUP_OPS: u64 = 8;
/// `wcet_overestimate` covers the first this-many edit states.
const OVERESTIMATE_OPS: usize = 16;

/// `latency_tail_ms` percentile (~400 ops per 32 s, so ~20 beyond it).
const TAIL_PERCENTILE: f64 = 95.0;

struct Setup {
    program: Program,
    config: AnalyzerConfig,
    machine: MachineConfig,
    cache_dir: PathBuf,
    shapes: Shapes,
}

fn setup(cache_dir: &Path) -> Setup {
    let _ = std::fs::remove_dir_all(cache_dir);
    let shape = Shape {
        isa: IsaKind::House,
        functions: FUNCTIONS,
        flash: true,
    };
    let program = gen::generate(shape, PROGRAM_SEED);
    let image = gen::assemble(&program);
    let annotations =
        AnnotationSet::parse(&program.annotations(&image)).expect("generated annotations parse");
    let (config, machine) = harness::configure(shape.isa, CASE, annotations);
    let mut cache = ArtifactCache::open(cache_dir).expect("open the artifact cache");
    let report = WcetAnalyzer::with_config(config.clone())
        .analyze_incremental(&image, &mut cache)
        .expect("the base program analyzes");
    let mut shapes = Shapes::default();
    shapes.add(&report.trace);
    Setup {
        program,
        config,
        machine,
        cache_dir: cache_dir.to_path_buf(),
        shapes,
    }
}

/// What one op's report asserted, kept for the checks after the measured
/// phase. The op's image is rebuilt then from the seeded edit sequence, so
/// memory stays flat however many ops run.
struct Done {
    digest: u64,
    wcet: u64,
    bcet: u64,
}

fn digest(report: &AnalysisReport) -> u64 {
    let mut h = DefaultHasher::new();
    report_digest(report).hash(&mut h);
    h.finish()
}

/// The seeded edit sequence: each call rewrites one `addi` immediate in a
/// random leaf that has one, and returns the edited source.
struct Editor {
    program: Program,
    /// Edit sites per leaf, for the leaves that have any.
    targets: Vec<Vec<usize>>,
    rng: Rng,
}

impl Editor {
    fn new(program: Program, seed: u64) -> Editor {
        let targets = program
            .leaves()
            .into_iter()
            .map(|f| {
                (0..program.edit_sites.len())
                    .filter(|&s| program.edit_sites[s].function == f)
                    .collect::<Vec<_>>()
            })
            .filter(|sites| !sites.is_empty())
            .collect();
        Editor {
            program,
            targets,
            rng: Rng::new(seed ^ 0xed17),
        }
    }

    fn next(&mut self) -> String {
        let sites = &self.targets[self.rng.below(self.targets.len() as u64) as usize];
        let site = sites[self.rng.below(sites.len() as u64) as usize];
        self.program.edit(site, &mut self.rng);
        self.program.source()
    }
}

/// Replays the cache keying on the op's inputs: `KeyContext::new` plus
/// `function_key` over every function, timed without the callee
/// summaries it consumes.
fn replay_keys(tr: &mut Tracer, image: &Image, config: &AnalyzerConfig, report: &AnalysisReport) {
    let root = tr.begin("replay.key");
    let summaries = compute_summaries(&report.program);
    let start = Instant::now();
    let ctx = KeyContext::new(image, config);
    for cfg in report.program.functions.values() {
        std::hint::black_box(ctx.function_key(cfg, &summaries));
    }
    tr.record("core.incr.key", start, start.elapsed());
    tr.end(root);
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> RunResult {
    let cache_dir = work.join("edit-cache");
    let (state, setup_s) = harness::timed(|| setup(&cache_dir));
    let Setup {
        program,
        config,
        machine,
        cache_dir,
        shapes,
    } = state;
    let analyzer = WcetAnalyzer::with_config(config.clone());
    let isa = program.isa;
    let mut editor = Editor::new(program.clone(), seed);
    let epoch = Instant::now();
    let mut done: Vec<Option<Done>> = Vec::new();
    let mut stats = IncrStats::default();
    let mut failed = 0u64;

    let mut one_op = |tr: &mut Tracer, i: u64| -> Duration {
        tr.set_op(i);
        let start = Instant::now();
        let span = tr.begin("op");
        let edit = tr.begin("edit.apply");
        let source = editor.next();
        tr.end(edit);
        let asm = tr.begin("isa.assemble");
        let image = assemble_for(isa, &source).expect("edits keep the program valid");
        tr.end(asm);
        let open = tr.begin("core.incr.open");
        let cache = ArtifactCache::open(&cache_dir);
        tr.end(open);
        let report = cache.map_err(|e| e.to_string()).and_then(|mut cache| {
            harness::analyze(tr, &analyzer, &image, Some(&mut cache)).map_err(|e| e.to_string())
        });
        let text = report
            .as_ref()
            .ok()
            .map(|r| harness::render_report(tr, &image, r));
        tr.end(span);
        let latency = start.elapsed();
        std::hint::black_box(text);
        match report {
            Ok(report) => {
                if tr.enabled() {
                    replay_keys(tr, &image, &config, &report);
                }
                let s = report.incr.clone().unwrap_or_default();
                stats.functions += s.functions;
                stats.fn_hits += s.fn_hits;
                stats.dirty += s.dirty;
                stats.ipet_hits += s.ipet_hits;
                stats.ipet_solves += s.ipet_solves;
                done.push(Some(Done {
                    digest: digest(&report),
                    wcet: report.wcet_cycles,
                    bcet: report.bcet_cycles,
                }));
            }
            Err(_) => {
                failed += 1;
                done.push(None);
            }
        }
        latency
    };

    let mut result = RunResult {
        shapes,
        tail_percentile: TAIL_PERCENTILE,
        ..RunResult::default()
    };
    // Side set-ups prime a cache of their own, removed untimed, so each
    // starts from an empty directory as the first one did.
    let side = work.join("edit-cache-side");
    let side_setup = || {
        let wall = harness::timed(|| setup(&side)).1;
        let _ = std::fs::remove_dir_all(&side);
        wall
    };
    harness::run_phases(
        &mut result,
        seconds,
        trace,
        epoch,
        setup_s,
        WARMUP_OPS,
        side_setup,
        &mut one_op,
    );
    result.keys = vec![0; result.latencies_ms.len()];
    result.traced_keys = vec![0; result.traced_latencies_ms.len()];

    // Checks, outside the timed region: every op's envelope, and a
    // sample of ops against a cold analysis of the same image.
    let inputs = gen::input_vectors(seed);
    let mut ratios = Vec::new();
    let mut replay = Editor::new(program, seed);
    for (i, d) in done.iter().enumerate() {
        let image = assemble_for(isa, &replay.next()).expect("edits keep the program valid");
        let Some(d) = d else { continue };
        let mut ok = match harness::observe(&image, &machine, &inputs)
            .and_then(|obs| harness::envelope(d.wcet, d.bcet, obs))
        {
            Ok(ratio) => {
                if i < OVERESTIMATE_OPS {
                    ratios.push(ratio);
                }
                true
            }
            Err(e) => {
                result.problems.push(format!("edit op {i}: {e}"));
                false
            }
        };
        if ok && i % COLD_CHECK_EVERY == 0 {
            let cold = WcetAnalyzer::with_config(config.clone()).analyze(&image);
            ok = cold.is_ok_and(|r| digest(&r) == d.digest);
            if !ok {
                result
                    .problems
                    .push(format!("edit op {i}: warm report differs from cold"));
            }
        }
        if !ok {
            failed += 1;
        }
    }
    if ratios.len() < OVERESTIMATE_OPS {
        result.problems.push(format!(
            "only {} edit states measured, {OVERESTIMATE_OPS} needed",
            ratios.len()
        ));
    }

    result
        .layers
        .extend(harness::incr_layers(&stats, done.iter().flatten().count()));
    if let Ok(bytes) = ArtifactCache::open(&cache_dir).and_then(|c| c.disk_bytes()) {
        result.layers.insert("core.incr.cache_bytes", bytes as f64);
    }
    result.failed = failed;
    result.overestimate = harness::geomean(&ratios);
    result
}
