//! Acceptance tests for VIVU-style context sensitivity (`context_depth`):
//! strict tightening on the context workloads, byte-identical warm
//! incremental replays at depth 1 at any thread count, unit artifacts
//! that replay every unchanged *(function, context)* unit, and depth-0
//! equivalence with the classic pipeline (the golden snapshots pin the
//! depth-0 bytes themselves).

use std::path::PathBuf;

use wcet_predictability::cfg::callgraph::CallGraph;
use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::incr::ArtifactCache;
use wcet_predictability::core::workload;
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::Addr;

struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "wcet-ctx-{tag}-{}-{:?}",
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

fn canonical(mut report: AnalysisReport) -> String {
    report.trace.phase_times = Default::default();
    report.trace.phase_work_times = Default::default();
    report.incr = None;
    format!("{report:#?}")
}

fn config(depth: usize, parallelism: Option<usize>) -> AnalyzerConfig {
    AnalyzerConfig {
        context_depth: depth,
        parallelism,
        ..AnalyzerConfig::new()
    }
}

/// The headline acceptance claim: on `context_killer` and on the
/// call-tree workload, depth 1 strictly tightens the WCET bound while
/// the observed execution stays inside both envelopes.
#[test]
fn context_depth_one_strictly_tightens_the_context_workloads() {
    for w in [
        workload::context_killer(),
        workload::call_tree_heavy(2, 3, &[]),
    ] {
        let merged = WcetAnalyzer::with_config(config(0, None))
            .analyze(&w.image)
            .unwrap();
        let ctx = WcetAnalyzer::with_config(config(1, None))
            .analyze(&w.image)
            .unwrap();
        assert!(
            ctx.wcet_cycles < merged.wcet_cycles,
            "{}: depth 1 bound {} must be strictly below depth 0 bound {}",
            w.name,
            ctx.wcet_cycles,
            merged.wcet_cycles
        );
        let mut interp = Interpreter::with_config(&w.image, MachineConfig::simple());
        let observed = interp.run(100_000_000).unwrap().cycles;
        for (depth, r) in [(0, &merged), (1, &ctx)] {
            assert!(r.wcet_cycles >= observed, "{} depth {depth}: WCET", w.name);
            assert!(r.bcet_cycles <= observed, "{} depth {depth}: BCET", w.name);
        }
    }
}

/// Depth-1 reports are byte-identical at every thread count, cached or
/// not: the context scheduler's merges are deterministic.
#[test]
fn context_reports_are_thread_invariant() {
    let w = workload::call_tree_heavy(2, 3, &[]);
    let reference = canonical(
        WcetAnalyzer::with_config(config(1, Some(1)))
            .analyze(&w.image)
            .unwrap(),
    );
    for threads in [Some(2), Some(8), None] {
        let report = WcetAnalyzer::with_config(config(1, threads))
            .analyze(&w.image)
            .unwrap();
        assert_eq!(
            canonical(report),
            reference,
            "threads {threads:?} changed the depth-1 report"
        );
    }
}

/// Warm incremental runs replay byte-identically at depths 0, 1, and 2
/// — at any thread count — with every function artifact hit and zero
/// IPET re-solves (unit artifacts and their solutions are keyed on the
/// function key, the context's entry-state digest, and the callee
/// footprints).
#[test]
fn context_warm_replay_is_byte_identical_at_any_thread_count() {
    for depth in [0usize, 1, 2] {
        let w = workload::context_killer();
        let tmp = TempCache::new(&format!("replay-{depth}"));
        let mut cache = tmp.open();
        let analyzer = WcetAnalyzer::with_config(config(depth, None));
        let plain = canonical(analyzer.analyze(&w.image).unwrap());
        let cold = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
        assert_eq!(canonical(cold), plain, "depth {depth}: cold cached run");

        for threads in [Some(1), Some(4), None] {
            let analyzer = WcetAnalyzer::with_config(config(depth, threads));
            let warm = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
            let stats = warm.incr.clone().expect("stats present");
            assert_eq!(
                stats.fn_hits, stats.functions,
                "depth {depth} threads {threads:?}: all artifacts replay: {stats:?}"
            );
            assert_eq!(
                stats.ipet_solves, 0,
                "depth {depth} threads {threads:?}: no IPET re-solves: {stats:?}"
            );
            assert_eq!(
                canonical(warm),
                plain,
                "depth {depth} threads {threads:?}: warm replay diverged"
            );
        }
    }
}

/// A one-leaf mutation of the call tree under depth 1: the warm report
/// matches from-scratch byte for byte, only the mutated function's
/// artifact misses, and exactly the mutated leaf's contexts are
/// re-analyzed — every other unit replays from its artifact.
#[test]
fn context_incremental_mutation_replays_exactly() {
    let base = workload::call_tree_heavy(2, 3, &[]);
    // Leaf 4's default iteration count is 11 (`3 + (4 % 5) * 2`); 12 is
    // a genuine byte-level mutation.
    let mutated = workload::call_tree_heavy(2, 3, &[(4, 12)]);
    let tmp = TempCache::new("mutation");
    let mut cache = tmp.open();
    let analyzer = WcetAnalyzer::with_config(config(1, None));
    let cold = analyzer
        .analyze_incremental(&base.image, &mut cache)
        .unwrap();

    let warm = analyzer
        .analyze_incremental(&mutated.image, &mut cache)
        .unwrap();
    let stats = warm.incr.clone().expect("stats present");
    assert_eq!(
        stats.fn_misses, 1,
        "only the mutated leaf re-analyzes: {stats:?}"
    );
    assert_eq!(stats.dirty, 3, "leaf + its dispatcher + main: {stats:?}");

    // The mutated leaf is the one function whose reconstruction changed.
    let changed: Vec<Addr> = warm
        .program
        .functions
        .iter()
        .filter(|(f, cfg)| cold.program.functions.get(f) != Some(cfg))
        .map(|(&f, _)| f)
        .collect();
    assert_eq!(changed.len(), 1, "one leaf was edited: {changed:?}");
    let contexts = CallGraph::build(&warm.program).enumerate_contexts(
        warm.program.functions.keys(),
        warm.program.entry,
        1,
    );
    let leaf_contexts = contexts.ctxs_of(changed[0]).len();
    assert_eq!(
        stats.units_analyzed, leaf_contexts,
        "exactly the mutated leaf's contexts miss: {stats:?}"
    );
    assert_eq!(
        stats.units_analyzed + stats.units_replayed,
        contexts.len(),
        "every other unit replays: {stats:?}"
    );
    let fresh = analyzer.analyze(&mutated.image).unwrap();
    assert_eq!(
        canonical(warm),
        canonical(fresh),
        "warm diverged from fresh"
    );
}

/// A steady-state rerun on the cached machine replays every
/// *(function, context)* unit from its artifact and solves no IPET
/// system — with virtual unrolling too, where replayed units re-derive
/// their peeled CFGs — and still renders byte-identically.
#[test]
fn context_steady_state_replays_every_unit() {
    let w = workload::call_tree_heavy(2, 3, &[]);
    for unrolling in [false, true] {
        let analyzer = WcetAnalyzer::with_config(AnalyzerConfig {
            machine: MachineConfig::with_caches(),
            unrolling,
            ..config(1, None)
        });
        let tmp = TempCache::new(&format!("steady-{unrolling}"));
        let plain = analyzer.analyze(&w.image).unwrap();
        if unrolling {
            assert!(
                !plain.analyzed_cfgs.is_empty(),
                "the workload must exercise peeled units"
            );
        }
        let plain = canonical(plain);
        let cold = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .unwrap();
        let cold_stats = cold.incr.clone().expect("stats present");
        assert_eq!(cold_stats.units_replayed, 0, "{cold_stats:?}");
        assert!(cold_stats.units_analyzed > 0, "{cold_stats:?}");
        assert_eq!(canonical(cold), plain, "unrolling {unrolling}: cold run");

        let warm = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .unwrap();
        let stats = warm.incr.clone().expect("stats present");
        assert_eq!(stats.units_analyzed, 0, "unrolling {unrolling}: {stats:?}");
        assert_eq!(
            stats.units_replayed, cold_stats.units_analyzed,
            "unrolling {unrolling}: every unit hits: {stats:?}"
        );
        assert_eq!(stats.ipet_solves, 0, "unrolling {unrolling}: {stats:?}");
        assert_eq!(
            canonical(warm),
            plain,
            "unrolling {unrolling}: warm replay diverged"
        );
    }
}

/// Context sensitivity composes with the cached machine model and
/// virtual unrolling: bounds stay sound, and the depth-1 bound does not
/// exceed the merged one.
#[test]
fn context_depth_composes_with_caches_and_unrolling() {
    let w = workload::context_killer();
    let analyze = |depth: usize| {
        let cfg = AnalyzerConfig {
            machine: MachineConfig::with_caches(),
            unrolling: true,
            context_depth: depth,
            ..AnalyzerConfig::new()
        };
        WcetAnalyzer::with_config(cfg).analyze(&w.image).unwrap()
    };
    let merged = analyze(0);
    let ctx = analyze(1);
    assert!(ctx.wcet_cycles <= merged.wcet_cycles);
    let mut interp = Interpreter::with_config(&w.image, MachineConfig::with_caches());
    let observed = interp.run(100_000_000).unwrap().cycles;
    assert!(ctx.wcet_cycles >= observed);
    assert!(ctx.bcet_cycles <= observed);
    assert!(merged.wcet_cycles >= observed);
}
