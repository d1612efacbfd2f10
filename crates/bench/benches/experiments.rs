//! The experiment bench harness: regenerates every paper table/figure
//! (printed once at startup), then benchmarks each pipeline phase and
//! arithmetic routine under Criterion.
//!
//! Bench ids match the DESIGN.md experiment index:
//! `table1_ldivmod` (E1), `fig1_pipeline` (E2), `rule_13_4_float_loop`
//! (E3), …, `cache_predictability` (E16), plus phase micro-benches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use wcet_analysis::analyze_function;
use wcet_arith::histogram::sample_input;
use wcet_arith::ldivmod::ldivmod;
use wcet_arith::restoring::restoring_div;
use wcet_cfg::graph::{reconstruct, TargetResolver};
use wcet_core::analyzer::{AnalyzerConfig, WcetAnalyzer};
use wcet_core::{experiments, workload};
use wcet_isa::interp::{Interpreter, MachineConfig};
use wcet_micro::blocktime::BlockTimes;
use wcet_path::ipet;

/// Regenerate and print every table/figure once, then benchmark the
/// drivers that are cheap enough to repeat.
fn experiment_tables(c: &mut Criterion) {
    // Print the full reproduction (E1 with 10^6 samples here; the table1
    // example accepts the paper's 10^8).
    let all = experiments::run_all(1_000_000);
    wcet_bench::print_all(&all);

    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("table1_ldivmod_1e5", |b| {
        b.iter(|| experiments::e1_table1(black_box(100_000)));
    });
    group.bench_function("fig1_pipeline", |b| b.iter(experiments::e2_pipeline));
    group.bench_function("rule_13_4_float_loop", |b| {
        b.iter(experiments::e3_rule_13_4);
    });
    group.bench_function("rule_13_6_counter_mod", |b| {
        b.iter(experiments::e4_rule_13_6);
    });
    group.bench_function("rule_14_1_unreachable", |b| {
        b.iter(experiments::e5_rule_14_1);
    });
    group.bench_function("rule_14_4_goto_irreducible", |b| {
        b.iter(experiments::e6_rule_14_4);
    });
    group.bench_function("rule_16_2_recursion", |b| b.iter(experiments::e7_rule_16_2));
    group.bench_function("rule_20_4_dynamic_alloc", |b| {
        b.iter(experiments::e8_rule_20_4);
    });
    group.bench_function("modes_flight_control", |b| b.iter(experiments::e9_modes));
    group.bench_function("data_dependent_messages", |b| {
        b.iter(experiments::e10_messages);
    });
    group.bench_function("imprecise_memory", |b| b.iter(experiments::e11_memory));
    group.bench_function("error_handling", |b| {
        b.iter(|| experiments::e12_errors(black_box(6), black_box(1)));
    });
    group.bench_function("single_path_transform", |b| {
        b.iter(experiments::e13_single_path);
    });
    group.bench_function("software_arithmetic", |b| {
        b.iter(experiments::e14_arithmetic);
    });
    group.bench_function("function_pointers", |b| {
        b.iter(experiments::e15_function_pointers);
    });
    group.bench_function("cache_predictability", |b| {
        b.iter(experiments::e16_cache_layout);
    });
    group.finish();
}

/// Phase-level micro-benches of the analyzer on a representative task.
fn pipeline_phases(c: &mut Criterion) {
    let w = workload::message_handler(16);
    let machine = MachineConfig::with_caches();

    let mut group = c.benchmark_group("phases");
    group.bench_function("decode", |b| {
        b.iter(|| black_box(&w.image).decode_code().expect("decodes"));
    });
    group.bench_function("cfg_reconstruction", |b| {
        b.iter(|| reconstruct(black_box(&w.image), &TargetResolver::empty()).expect("builds"));
    });
    let program = reconstruct(&w.image, &TargetResolver::empty()).expect("builds");
    group.bench_function("value_analysis", |b| {
        b.iter(|| analyze_function(black_box(&program), program.entry, &w.image));
    });
    let fa = analyze_function(&program, program.entry, &w.image);
    group.bench_function("cache_pipeline_analysis", |b| {
        b.iter(|| BlockTimes::compute(black_box(&fa), &machine));
    });
    let times = BlockTimes::compute(&fa, &machine);
    let mut bounds = fa.loop_bounds();
    w.annotations
        .apply_loop_bounds(fa.cfg(), fa.forest(), &mut bounds, None);
    let facts = w.annotations.flow_facts(fa.cfg(), None);
    group.bench_function("path_analysis_ilp", |b| {
        b.iter(|| {
            ipet::wcet(
                black_box(fa.cfg()),
                fa.forest(),
                &times,
                &bounds,
                &facts,
                &Default::default(),
            )
            .expect("solves")
        });
    });
    group.bench_function("full_analyzer", |b| {
        let config = AnalyzerConfig {
            machine: machine.clone(),
            annotations: w.annotations.clone(),
            ..AnalyzerConfig::new()
        };
        let analyzer = WcetAnalyzer::with_config(config);
        b.iter(|| analyzer.analyze(black_box(&w.image)).expect("analyzes"));
    });
    group.finish();
}

/// The wavefront scheduler: the full analyzer at one worker vs one per
/// core, on a single-function task (`flight_control`, where parallelism
/// can only break even) and on a wide call graph (`call_fanout`, where
/// one level fans 32 function analyses out).
fn scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(20);
    for (w, tag) in [
        (workload::flight_control(), "flight_control"),
        (workload::call_fanout(32), "call_fanout_32"),
    ] {
        for (threads, label) in [(Some(1), "1_thread"), (None, "n_threads")] {
            let config = AnalyzerConfig {
                annotations: w.annotations.clone(),
                parallelism: threads,
                ..AnalyzerConfig::new()
            };
            let analyzer = WcetAnalyzer::with_config(config);
            group.bench_function(format!("{tag}/{label}"), |b| {
                b.iter(|| analyzer.analyze(black_box(&w.image)).expect("analyzes"));
            });
        }
    }
    group.finish();
}

/// Context expansion: the full analyzer on the context workloads at
/// depth 0 (merged) vs depth 1 (per call-string unit) — the cost of the
/// precision the `context` tests pin.
fn context_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("context");
    group.sample_size(20);
    for (w, tag) in [
        (workload::context_killer(), "context_killer"),
        (workload::call_tree_heavy(4, 4, &[]), "call_tree_4x4"),
    ] {
        for depth in [0usize, 1] {
            let config = AnalyzerConfig {
                annotations: w.annotations.clone(),
                context_depth: depth,
                ..AnalyzerConfig::new()
            };
            let analyzer = WcetAnalyzer::with_config(config);
            group.bench_function(format!("{tag}/depth_{depth}"), |b| {
                b.iter(|| analyzer.analyze(black_box(&w.image)).expect("analyzes"));
            });
        }
    }
    group.finish();
}

/// Cache persistence: the context-depth-1 analyzer on the cached machine
/// with the clobbering call transfer (PR-4 behavior) vs footprint
/// summaries + first-miss classification — the cost of the precision the
/// `persistence` tests pin.
fn persistence(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistence");
    group.sample_size(20);
    for (w, tag) in [
        (workload::persistence_killer(), "persistence_killer"),
        (workload::call_tree_heavy(2, 3, &[]), "call_tree_2x3"),
    ] {
        for (persistence, label) in [(false, "clobber"), (true, "persist")] {
            let config = AnalyzerConfig {
                machine: MachineConfig::with_caches(),
                annotations: w.annotations.clone(),
                context_depth: 1,
                persistence,
                ..AnalyzerConfig::new()
            };
            let analyzer = WcetAnalyzer::with_config(config);
            group.bench_function(format!("{tag}/{label}"), |b| {
                b.iter(|| analyzer.analyze(black_box(&w.image)).expect("analyzes"));
            });
        }
    }
    group.finish();
}

/// The abstract pipeline: the full analyzer on the pipeline workloads
/// with flat block times vs the residual-vector fixpoint + BTFNT edge
/// penalties — the cost of the precision the `cpu_pipeline` tests pin.
fn cpu_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    for (w, tag) in [
        (workload::pipeline_killer(), "pipeline_killer"),
        (workload::branch_heavy(), "branch_heavy"),
    ] {
        for (pipeline, label) in [(false, "flat"), (true, "pipelined")] {
            let mut machine = MachineConfig::simple();
            machine.pipeline = pipeline;
            let config = AnalyzerConfig {
                machine,
                annotations: w.annotations.clone(),
                pipeline,
                ..AnalyzerConfig::new()
            };
            let analyzer = WcetAnalyzer::with_config(config);
            group.bench_function(format!("{tag}/{label}"), |b| {
                b.iter(|| analyzer.analyze(black_box(&w.image)).expect("analyzes"));
            });
        }
    }
    group.finish();
}

/// The incremental re-analysis engine: cold full analysis vs warm-cache
/// re-analysis of a one-function mutation on the largest workload
/// (`call_tree_heavy(8, 8)`: 73 functions, 146 IPET systems). The headline
/// speedup prints once before the Criterion groups; the acceptance bar is
/// warm ≥ 3× faster than cold, with byte-identical reports (the report
/// equality itself is pinned by `tests/incremental.rs`). The `ctx1` ids
/// run the same mutation and steady state at context depth 1 on the
/// cached machine with persistence and the pipeline model, where unit
/// artifacts replay every unchanged *(function, context)* unit.
fn incremental(c: &mut Criterion) {
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;
    use wcet_core::incr::ArtifactCache;

    let base = workload::call_tree_heavy(8, 8, &[]);
    let mutated = workload::call_tree_heavy(8, 8, &[(13, 31)]);
    let analyzer = WcetAnalyzer::new();
    let ctx_analyzer = WcetAnalyzer::with_config(AnalyzerConfig {
        machine: MachineConfig::with_caches(),
        context_depth: 1,
        persistence: true,
        pipeline: true,
        ..AnalyzerConfig::new()
    });

    // Prime one cache per configuration with the unmutated image.
    let root = std::env::temp_dir().join(format!("wcet-bench-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let primed = root.join("primed");
    let primed_ctx = root.join("primed-ctx1");
    for (dir, analyzer) in [(&primed, &analyzer), (&primed_ctx, &ctx_analyzer)] {
        let mut cache = ArtifactCache::open(dir).expect("cache opens");
        analyzer
            .analyze_incremental(&base.image, &mut cache)
            .expect("base analyzes");
    }

    // Each warm measurement gets a pristine copy of a primed cache — every
    // artifact directory — so it really measures the one-mutation case,
    // not the all-hit steady state its own first run would create.
    static COPY: AtomicUsize = AtomicUsize::new(0);
    let fresh_copy = |primed: &Path| {
        let dst = root.join(format!("copy-{}", COPY.fetch_add(1, Ordering::Relaxed)));
        for sub in std::fs::read_dir(primed).expect("primed dir") {
            let sub = sub.expect("entry").path();
            let into = dst.join(sub.file_name().expect("named"));
            std::fs::create_dir_all(&into).expect("copy dir");
            for entry in std::fs::read_dir(&sub).expect("artifact dir") {
                let entry = entry.expect("entry");
                std::fs::copy(entry.path(), into.join(entry.file_name())).expect("copy artifact");
            }
        }
        ArtifactCache::open(&dst).expect("copy opens")
    };

    // Headline: minimum of a few runs each (the number the acceptance
    // criterion is stated over).
    let cold_time = (0..5)
        .map(|_| {
            let t = Instant::now();
            analyzer
                .analyze(black_box(&mutated.image))
                .expect("cold analyzes");
            t.elapsed()
        })
        .min()
        .expect("nonempty");
    let warm_time = (0..5)
        .map(|_| {
            let mut cache = fresh_copy(&primed);
            let t = Instant::now();
            let report = analyzer
                .analyze_incremental(black_box(&mutated.image), &mut cache)
                .expect("warm analyzes");
            let elapsed = t.elapsed();
            let stats = report.incr.expect("stats present");
            assert_eq!(stats.fn_misses, 1, "exactly the mutated leaf recomputes");
            elapsed
        })
        .min()
        .expect("nonempty");
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    println!(
        "incremental: one-function mutation on call_tree_heavy(8, 8): \
         cold {cold_time:?} vs warm {warm_time:?} → {speedup:.1}x speedup"
    );

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("cold_full_analysis_tree8x8", |b| {
        b.iter(|| {
            analyzer
                .analyze(black_box(&mutated.image))
                .expect("analyzes")
        });
    });
    for (id, analyzer, primed) in [
        ("tree8x8", &analyzer, &primed),
        ("ctx1_tree8x8", &ctx_analyzer, &primed_ctx),
    ] {
        group.bench_function(format!("warm_one_mutation_{id}"), |b| {
            b.iter_batched(
                || fresh_copy(primed),
                |mut cache| {
                    analyzer
                        .analyze_incremental(black_box(&mutated.image), &mut cache)
                        .expect("analyzes")
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("warm_steady_state_{id}"), |b| {
            // The batch-service case: the request was seen before; every
            // artifact and IPET solution replays.
            let mut cache = fresh_copy(primed);
            analyzer
                .analyze_incremental(&mutated.image, &mut cache)
                .expect("warms up");
            b.iter(|| {
                analyzer
                    .analyze_incremental(black_box(&mutated.image), &mut cache)
                    .expect("analyzes")
            });
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// The serve daemon's engine on a synthetic 100-request stream: one
/// [`AnalysisService`] fed a hundred distinct `call_tree_heavy` variants
/// through [`serve_connection`], cold (empty artifact cache) vs warm
/// (every request replays from the store the cold pass left behind).
/// The headline speedup prints before the Criterion group; the
/// acceptance bar is warm ≥ 3.5x cold.
///
/// [`AnalysisService`]: wcet_core::serve::AnalysisService
/// [`serve_connection`]: wcet_core::serve::serve_connection
fn serve_stream(c: &mut Criterion) {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    use wcet_core::incr::ArtifactCache;
    use wcet_core::parallel::WorkerPool;
    use wcet_core::serve::{serve_connection, AnalysisService};
    use wcet_isa::asm::assemble;

    let root = std::env::temp_dir().join(format!("wcet-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // One request program per variant: a two-group call tree whose six
    // leaves each run several sequential loop nests with a data-dependent
    // branch in the body. Every loop bound varies per variant, so no two
    // requests share a single function artifact — the cold pass really
    // computes 100 analyses, and the warm pass replays all 100 from the
    // store. The many-block leaves are deliberate: value/cache/IPET cost
    // grows with the CFG while the stored summary does not, which is the
    // asymmetry a warm daemon exploits.
    let stream_program = |variant: u32| -> String {
        const LEAVES: u32 = 6;
        const SEGMENTS: u32 = 12;
        let mut src = String::from("        .org 0x1000\nmain:\n");
        for g in 0..2 {
            src.push_str(&format!("            call g{g}\n"));
        }
        src.push_str("            halt\n");
        for g in 0..2u32 {
            src.push_str(&format!(
                "g{g}:\n\
                 \x20            subi sp, sp, 4\n\
                 \x20            sw   lr, 0(sp)\n"
            ));
            for l in 0..LEAVES / 2 {
                src.push_str(&format!("            call f{}\n", g * (LEAVES / 2) + l));
            }
            src.push_str(
                "            lw   lr, 0(sp)\n\
                 \x20            addi sp, sp, 4\n\
                 \x20            ret\n",
            );
        }
        for i in 0..LEAVES {
            src.push_str(&format!("f{i}:\n"));
            for k in 0..SEGMENTS {
                let bound = 2 + (variant * 7 + i * 11 + k * 5) % 29;
                let scratch = 0x8000 + 64 * i + 8 * k;
                src.push_str(&format!(
                    "f{i}_s{k}:\n\
                     \x20            li   r1, {bound}\n\
                     f{i}_s{k}_outer:\n\
                     \x20            li   r2, 4\n\
                     f{i}_s{k}_inner:\n\
                     \x20            mul  r3, r2, r2\n\
                     \x20            add  r4, r4, r3\n\
                     \x20            li   r7, {scratch:#x}\n\
                     \x20            sw   r4, 0(r7)\n\
                     \x20            lw   r5, 0(r7)\n\
                     \x20            xor  r4, r4, r5\n\
                     \x20            beq  r5, r0, f{i}_s{k}_skip\n\
                     \x20            addi r8, r8, 3\n\
                     \x20            j    f{i}_s{k}_join\n\
                     f{i}_s{k}_skip:\n\
                     \x20            shri r8, r8, 1\n\
                     f{i}_s{k}_join:\n\
                     \x20            subi r2, r2, 1\n\
                     \x20            bne  r2, r0, f{i}_s{k}_inner\n\
                     \x20            subi r1, r1, 1\n\
                     \x20            bne  r1, r0, f{i}_s{k}_outer\n"
                ));
            }
            src.push_str("            ret\n");
        }
        src
    };
    let mut requests = String::new();
    for i in 0..100u32 {
        let path = root.join(format!("req{i}.s"));
        std::fs::create_dir_all(&root).expect("bench dir");
        std::fs::write(&path, stream_program(i)).expect("write request program");
        requests.push_str(&format!("{}\n", path.display()));
    }

    // The daemon's handler, minus the CLI rendering: assemble the
    // requested file and run the incremental analyzer against the shared
    // store — the same per-request cache-open discipline `wcet serve`
    // uses.
    let make_service = |cache_dir: PathBuf| -> AnalysisService {
        let pool = Arc::new(WorkerPool::new(1));
        AnalysisService::new(
            0,
            Box::new(move |program: &Path, _, _| {
                let source = std::fs::read_to_string(program).map_err(|e| e.to_string())?;
                let image = assemble(&source).map_err(|e| e.to_string())?;
                let mut cache = ArtifactCache::open(&cache_dir).map_err(|e| e.to_string())?;
                // Cached-machine configuration: must-analysis dominates
                // the per-unit work and every phase of it replays from
                // the artifact store on a warm hit — exactly the shape
                // the daemon amortizes across the stream. (The deeper
                // context/persistence modes recompute their interference
                // pass even on warm hits, which measures the analyzer,
                // not the store.)
                let config = AnalyzerConfig {
                    machine: MachineConfig::with_caches(),
                    ..AnalyzerConfig::new()
                };
                let analyzer = WcetAnalyzer::with_config(config).with_pool(Arc::clone(&pool));
                let report = analyzer
                    .analyze_incremental(&image, &mut cache)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "wcet {} bcet {}\n",
                    report.wcet_cycles, report.bcet_cycles
                ))
            }),
        )
    };
    static STREAM: AtomicUsize = AtomicUsize::new(0);
    let fresh_dir = || root.join(format!("cache-{}", STREAM.fetch_add(1, Ordering::Relaxed)));
    let run_stream = |service: &AnalysisService| {
        let mut sink = Vec::new();
        let stats =
            serve_connection(service, black_box(requests.as_bytes()), &mut sink).expect("stream");
        assert_eq!(stats.requests, 100, "every request answered");
        assert_eq!(stats.failures, 0, "no failures in the synthetic stream");
        sink
    };

    // Headline: best-of-2 each (the acceptance criterion's number).
    let cold_time = (0..2)
        .map(|_| {
            let service = make_service(fresh_dir());
            let t = Instant::now();
            run_stream(&service);
            t.elapsed()
        })
        .min()
        .expect("nonempty");
    let warm_dir = fresh_dir();
    let primed = make_service(warm_dir.clone());
    let cold_frames = run_stream(&primed);
    let warm_time = (0..2)
        .map(|_| {
            let t = Instant::now();
            let warm_frames = run_stream(&primed);
            assert_eq!(warm_frames, cold_frames, "warm stream is byte-identical");
            t.elapsed()
        })
        .min()
        .expect("nonempty");
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    println!(
        "serve: 100-request stream: cold {cold_time:?} vs warm {warm_time:?} \
         → {speedup:.1}x throughput"
    );

    let mut group = c.benchmark_group("serve");
    group.sample_size(3);
    group.bench_function("cold_stream_100", |b| {
        b.iter_batched(
            || make_service(fresh_dir()),
            |service| run_stream(&service),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("warm_stream_100", |b| b.iter(|| run_stream(&primed)));
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// The ILP backends head to head on an IPET-shaped LP: a chain of `k`
/// blocks with flow conservation, a loop bound, and upper-bounded
/// variables (which the dense solver materializes as rows and the sparse
/// solver keeps implicit in the ratio test).
fn ilp_solvers(c: &mut Criterion) {
    use wcet_ilp::{Model, Sense};

    fn flow_chain(k: usize) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let entry = m.add_var("entry", 1.0, Some(1.0));
        let blocks: Vec<_> = (0..k)
            .map(|i| m.add_var(&format!("b{i}"), 0.0, Some(64.0)))
            .collect();
        let edges: Vec<_> = (0..k.saturating_sub(1))
            .map(|i| m.add_var(&format!("e{i}"), 0.0, Some(64.0)))
            .collect();
        // Flow conservation down the chain; the head is fed by `entry`.
        m.add_eq(&[(blocks[0], -1.0), (entry, 1.0)], 0.0);
        for i in 1..k {
            m.add_eq(&[(blocks[i], -1.0), (edges[i - 1], 1.0)], 0.0);
            m.add_le(&[(edges[i - 1], 1.0), (blocks[i - 1], -1.0)], 0.0);
        }
        // A loop-bound-style coupling constraint on the tail.
        m.add_le(&[(blocks[k - 1], 1.0), (entry, -32.0)], 0.0);
        let objective: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, 3.0 + (i % 5) as f64))
            .collect();
        m.set_objective(&objective);
        m
    }

    let model = flow_chain(64);
    // Both backends must agree before we time them.
    let dense = wcet_ilp::simplex::solve_lp_dense(&model).expect("dense solves");
    let sparse = wcet_ilp::sparse::solve_lp(&model).expect("sparse solves");
    assert!(
        (dense.objective - sparse.objective).abs() < 1e-6,
        "solver mismatch: {} vs {}",
        dense.objective,
        sparse.objective
    );

    let mut group = c.benchmark_group("ilp");
    group.sample_size(30);
    group.bench_function("dense_chain_64", |b| {
        b.iter(|| wcet_ilp::simplex::solve_lp_dense(black_box(&model)).expect("solves"));
    });
    group.bench_function("sparse_chain_64", |b| {
        b.iter(|| wcet_ilp::sparse::solve_lp(black_box(&model)).expect("solves"));
    });
    group.finish();
}

/// The LP engine end to end on IPET-shaped systems at three sizes:
/// cold factorize-and-solve, warm re-solve from a recorded basis (the
/// incremental-replay path — factorize once, no Gauss–Jordan), and
/// branch-and-bound with a fractionality-forcing flow fact. The warm
/// case at the largest size carries the tentpole acceptance bar
/// (warm ≥ 3x over the pre-LU dense-inverse baseline); the headline
/// ratio of this build's own cold/warm prints before the group.
fn ipet_lp(c: &mut Criterion) {
    use wcet_ilp::{Model, Sense, VarId};

    // A chain of `segments` loop segments in the shape ipet.rs emits:
    // per segment a taken/fallthrough split of the incoming flow, a
    // rejoin, and a loop-bound row `body ≤ bound · taken`; the entry is
    // pinned to one execution. Every row has 2-3 nonzeros — the
    // sparsity the LU factorization exploits and a dense inverse
    // squanders.
    fn ipet_model(segments: usize, integer: bool) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let entry = if integer {
            m.add_int_var("entry", 1, Some(1))
        } else {
            m.add_var("entry", 1.0, Some(1.0))
        };
        let mut prev = entry;
        let mut objective: Vec<(VarId, f64)> = Vec::new();
        for i in 0..segments {
            let mut var = |name: String| {
                if integer {
                    m.add_int_var(&name, 0, None)
                } else {
                    m.add_var(&name, 0.0, None)
                }
            };
            let t = var(format!("t{i}"));
            let e = var(format!("f{i}"));
            let b = var(format!("b{i}"));
            let j = var(format!("j{i}"));
            let bound = 4.0 + (i % 7) as f64;
            m.add_eq(&[(t, 1.0), (e, 1.0), (prev, -1.0)], 0.0);
            m.add_eq(&[(j, 1.0), (t, -1.0), (e, -1.0)], 0.0);
            m.add_le(&[(b, 1.0), (t, -bound)], 0.0);
            if integer && i % 8 == 0 {
                // A flow-fact-style capacity row binding at a half-
                // integral body count: the relaxation lands on
                // `b = bound - 0.5`, so branch-and-bound really
                // branches instead of accepting the root relaxation.
                m.add_le(&[(b, 2.0)], 2.0 * bound - 1.0);
            }
            objective.push((t, 5.0 + (i % 3) as f64));
            objective.push((e, 2.0));
            objective.push((b, 7.0 + (i % 5) as f64));
            objective.push((j, 1.0));
            prev = j;
        }
        m.set_objective(&objective);
        m
    }

    // Sizes land at m = 66/129/258 constraint rows (~the issue's
    // 64/128/256 ladder).
    let sizes = [(22usize, "m66"), (43, "m129"), (86, "m258")];

    // The dense simplex is the oracle: both backends must agree on
    // every size before anything is timed.
    for (segments, tag) in sizes {
        let model = ipet_model(segments, false);
        let dense = wcet_ilp::simplex::solve_lp_dense(&model).expect("dense solves");
        let sparse = wcet_ilp::sparse::solve_lp(&model).expect("sparse solves");
        assert!(
            (dense.objective - sparse.objective).abs() < 1e-6,
            "{tag}: solver mismatch: {} vs {}",
            dense.objective,
            sparse.objective
        );
    }

    let mut group = c.benchmark_group("ipet");
    group.sample_size(20);
    for (segments, tag) in sizes {
        let model = ipet_model(segments, false);
        group.bench_function(format!("cold/{tag}"), |b| {
            b.iter(|| wcet_ilp::sparse::solve_lp_from(black_box(&model), None).expect("solves"));
        });
        let (cold_sol, snap) = wcet_ilp::sparse::solve_lp_from(&model, None).expect("cold solves");
        group.bench_function(format!("warm/{tag}"), |b| {
            b.iter(|| {
                let (sol, _) = wcet_ilp::sparse::solve_lp_from(black_box(&model), Some(&snap))
                    .expect("warm solves");
                assert!((sol.objective - cold_sol.objective).abs() < 1e-6);
                sol
            });
        });
        let ilp = ipet_model(segments, true);
        group.bench_function(format!("bnb/{tag}"), |b| {
            b.iter(|| ilp.solve().expect("branches and bounds"));
        });
    }
    group.finish();
}

/// Software-arithmetic throughput: the average-case-optimized routine vs
/// the constant-time one (the paper's trade-off, measured).
fn arithmetic(c: &mut Criterion) {
    use rand::SeedableRng;
    let mut group = c.benchmark_group("arith");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    group.bench_function("ldivmod_random", |b| {
        b.iter_batched(
            || sample_input(&mut rng),
            |(n, d)| ldivmod(black_box(n), black_box(d)).expect("nonzero"),
            BatchSize::SmallInput,
        );
    });
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(8);
    group.bench_function("restoring_random", |b| {
        b.iter_batched(
            || sample_input(&mut rng2),
            |(n, d)| restoring_div(black_box(n), black_box(d)).expect("nonzero"),
            BatchSize::SmallInput,
        );
    });
    // The pathological input: worst observed vs typical.
    group.bench_function("ldivmod_pathological", |b| {
        b.iter(|| ldivmod(black_box(0xffff_ffff), black_box(0x0010_0001)));
    });
    group.finish();
}

/// Interpreter throughput (the measurement substrate itself).
fn interpreter(c: &mut Criterion) {
    let w = workload::matrix_kernel(8);
    let mut group = c.benchmark_group("interp");
    group.bench_function("matrix_kernel_8x8", |b| {
        b.iter_batched(
            || Interpreter::with_config(&w.image, MachineConfig::simple()),
            |mut i| i.run(10_000_000).expect("halts"),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    experiment_tables,
    pipeline_phases,
    scaling,
    context_depth,
    persistence,
    cpu_pipeline,
    incremental,
    serve_stream,
    ilp_solvers,
    ipet_lp,
    arithmetic,
    interpreter
);
criterion_main!(benches);
