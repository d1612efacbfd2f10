//! Acceptance tests for the abstract in-order pipeline and static
//! branch-prediction timing analysis (`AnalyzerConfig::pipeline` /
//! `wcet --pipeline`): the pipeline bound must tighten `pipeline_killer`
//! by at least 10% on both ISAs, the soundness oracle must hold across
//! both corpora with the feature on and off (against the cycle-exact
//! pipelined interpreter), reports must be thread-invariant, warm
//! incremental replays must stay byte-identical to cold at any thread
//! count, and the flag must fork the artifact-cache key space.

use std::path::PathBuf;

use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::incr::ArtifactCache;
use wcet_predictability::core::workload::{self, Workload};
use wcet_predictability::isa::asm::assemble_for;
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::IsaKind;

struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "wcet-pipe-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache { dir }
    }

    fn open(&self) -> ArtifactCache {
        ArtifactCache::open(&self.dir).expect("cache directory opens")
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The analyzer + machine pair one CLI invocation would build: the
/// analysis flag and the simulated machine always move together.
fn config(
    w: &Workload,
    isa: IsaKind,
    caches: bool,
    pipeline: bool,
    parallelism: Option<usize>,
) -> AnalyzerConfig {
    let mut machine = if caches {
        MachineConfig::with_caches_for(isa)
    } else {
        MachineConfig::simple_for(isa)
    };
    machine.pipeline = pipeline;
    AnalyzerConfig {
        machine,
        annotations: w.annotations.clone(),
        pipeline,
        parallelism,
        isa,
        ..AnalyzerConfig::new()
    }
}

fn canonical(mut report: AnalysisReport) -> String {
    report.trace.phase_times = Default::default();
    report.trace.phase_work_times = Default::default();
    report.incr = None;
    format!("{report:#?}")
}

fn observed_cycles(w: &Workload, config: &AnalyzerConfig) -> u64 {
    let mut interp = Interpreter::with_config(&w.image, config.machine.clone());
    interp
        .run(100_000_000)
        .unwrap_or_else(|e| panic!("workload {} halts: {e}", w.name))
        .cycles
}

/// The headline acceptance claim: `--pipeline` tightens the WCET bound
/// of `pipeline_killer` by at least 10% on both ISAs, the tightening
/// comes from the branch-prediction/pipeline machinery (the trace counts
/// predicted edges), and the observed pipelined execution stays inside
/// both envelopes.
#[test]
fn pipeline_tightens_the_pipeline_killer_past_ten_percent() {
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        let w = workload::pipeline_killer_for(isa);
        let flat_cfg = config(&w, isa, false, false, None);
        let pipe_cfg = config(&w, isa, false, true, None);
        let flat = WcetAnalyzer::with_config(flat_cfg.clone())
            .analyze(&w.image)
            .unwrap();
        let piped = WcetAnalyzer::with_config(pipe_cfg.clone())
            .analyze(&w.image)
            .unwrap();
        assert!(
            piped.wcet_cycles * 10 <= flat.wcet_cycles * 9,
            "{}: pipeline bound {} must be >= 10% below the flat bound {}",
            isa.name(),
            piped.wcet_cycles,
            flat.wcet_cycles
        );
        assert!(
            piped.trace.pipeline_edges > 0,
            "{}: the pipeline run must price its branch edges",
            isa.name()
        );
        assert_eq!(
            flat.trace.pipeline_edges,
            0,
            "{}: the flat run must not",
            isa.name()
        );
        for (cfg, r) in [(&flat_cfg, &flat), (&pipe_cfg, &piped)] {
            let observed = observed_cycles(&w, cfg);
            assert!(
                r.bcet_cycles <= observed && observed <= r.wcet_cycles,
                "{}: observed {} !in [{}, {}]",
                isa.name(),
                observed,
                r.bcet_cycles,
                r.wcet_cycles
            );
        }
    }
}

/// The soundness oracle across both full corpora, pipeline on and off,
/// on the simple and the cached machine: the cycle-exact (pipelined)
/// interpreter's observation falls inside [BCET, WCET] every time.
#[test]
fn workload_soundness_oracle_pipeline() {
    let corpora = [
        (IsaKind::House, workload::corpus()),
        (IsaKind::Rv32i, workload::rv32i_corpus()),
    ];
    for (isa, corpus) in corpora {
        for w in corpus {
            for caches in [false, true] {
                for pipeline in [false, true] {
                    let cfg = config(&w, isa, caches, pipeline, None);
                    let report = WcetAnalyzer::with_config(cfg.clone())
                        .analyze(&w.image)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{} {} (caches {caches} pipeline {pipeline}): {e}",
                                isa.name(),
                                w.name
                            )
                        });
                    let observed = observed_cycles(&w, &cfg);
                    assert!(
                        report.bcet_cycles <= observed && observed <= report.wcet_cycles,
                        "{} {} (caches {caches} pipeline {pipeline}): \
                         observed {} !in [{}, {}]",
                        isa.name(),
                        w.name,
                        observed,
                        report.bcet_cycles,
                        report.wcet_cycles
                    );
                }
            }
        }
    }
}

/// A conditional branch whose target is its own fall-through reaches the
/// next block taken or not, predicted or mispredicted — and the
/// interpreter drains the pipe on a mispredict whatever the target — so
/// the single merged edge must carry all of those pipe states. Both
/// reproducers, the bare branch and a ten-iteration loop around one, stay
/// inside the envelope on both ISAs.
#[test]
fn degenerate_branch_to_next_is_sound() {
    let programs = [
        "main:\n    beq  r0, r0, next\nnext:\n    halt\n",
        "main:\n    li   r1, 10\nloop:\n    beq  r0, r0, next\nnext:\n    \
         subi r1, r1, 1\n    bne  r1, r0, loop\n    halt\n",
    ];
    for isa in [IsaKind::House, IsaKind::Rv32i] {
        for src in programs {
            let image = assemble_for(isa, src).unwrap();
            let mut machine = MachineConfig::simple_for(isa);
            machine.pipeline = true;
            let config = AnalyzerConfig {
                machine,
                pipeline: true,
                isa,
                ..AnalyzerConfig::new()
            };
            let report = WcetAnalyzer::with_config(config.clone())
                .analyze(&image)
                .unwrap();
            let observed = Interpreter::with_config(&image, config.machine)
                .run(100_000)
                .unwrap()
                .cycles;
            assert!(
                report.bcet_cycles <= observed && observed <= report.wcet_cycles,
                "{}: observed {} !in [{}, {}] for\n{src}",
                isa.name(),
                observed,
                report.bcet_cycles,
                report.wcet_cycles
            );
        }
    }
}

/// Pipeline-enabled reports are byte-identical at every thread count.
#[test]
fn pipeline_reports_are_thread_invariant() {
    for w in [workload::pipeline_killer(), workload::branch_heavy()] {
        let reference = canonical(
            WcetAnalyzer::with_config(config(&w, IsaKind::House, true, true, Some(1)))
                .analyze(&w.image)
                .unwrap(),
        );
        for threads in [Some(4), None] {
            let report = WcetAnalyzer::with_config(config(&w, IsaKind::House, true, true, threads))
                .analyze(&w.image)
                .unwrap();
            assert_eq!(
                canonical(report),
                reference,
                "{} threads {threads:?} changed the pipeline report",
                w.name
            );
        }
    }
}

/// Warm incremental replays with the pipeline on: byte-identical to cold
/// at any thread count, every function artifact hit, zero IPET re-solves.
#[test]
fn pipeline_warm_replay_is_byte_identical_at_any_thread_count() {
    for w in [workload::pipeline_killer(), workload::branch_heavy()] {
        let tmp = TempCache::new(w.name);
        let mut cache = tmp.open();
        let analyzer = WcetAnalyzer::with_config(config(&w, IsaKind::House, true, true, None));
        let plain = canonical(analyzer.analyze(&w.image).unwrap());
        let cold = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
        assert_eq!(canonical(cold), plain, "{}: cold cached run", w.name);

        for threads in [Some(1), Some(4), None] {
            let analyzer =
                WcetAnalyzer::with_config(config(&w, IsaKind::House, true, true, threads));
            let warm = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
            let stats = warm.incr.clone().expect("stats present");
            assert_eq!(
                stats.fn_hits, stats.functions,
                "{} threads {threads:?}: all artifacts replay: {stats:?}",
                w.name
            );
            assert_eq!(
                stats.ipet_solves, 0,
                "{} threads {threads:?}: no IPET re-solves: {stats:?}",
                w.name
            );
            assert_eq!(
                canonical(warm),
                plain,
                "{} threads {threads:?}: warm replay diverged",
                w.name
            );
        }
    }
}

/// Turning the pipeline on and off against one shared cache directory
/// must never cross-contaminate: the fingerprints fork the key space.
#[test]
fn pipeline_flag_forks_the_cache_space() {
    let w = workload::pipeline_killer();
    let tmp = TempCache::new("fork");
    let mut cache = tmp.open();
    let on = WcetAnalyzer::with_config(config(&w, IsaKind::House, false, true, None));
    let off = WcetAnalyzer::with_config(config(&w, IsaKind::House, false, false, None));
    let plain_on = canonical(on.analyze(&w.image).unwrap());
    let plain_off = canonical(off.analyze(&w.image).unwrap());
    assert_ne!(plain_on, plain_off, "the feature must change the report");

    let cold_on = canonical(on.analyze_incremental(&w.image, &mut cache).unwrap());
    let cold_off = canonical(off.analyze_incremental(&w.image, &mut cache).unwrap());
    let warm_on = canonical(on.analyze_incremental(&w.image, &mut cache).unwrap());
    let warm_off = canonical(off.analyze_incremental(&w.image, &mut cache).unwrap());
    assert_eq!(cold_on, plain_on);
    assert_eq!(cold_off, plain_off);
    assert_eq!(warm_on, plain_on, "warm pipeline-on run contaminated");
    assert_eq!(warm_off, plain_off, "warm pipeline-off run contaminated");
}
