//! Acceptance tests for the per-context cache persistence analysis
//! (`AnalyzerConfig::persistence` / `wcet --persistence`): with caches at
//! context depth 1, footprint-summarized calls plus first-miss
//! classification must *strictly* tighten the WCET bound on the
//! persistence workloads over the clobbering (PR-4) analysis, the
//! soundness oracle must hold across the whole corpus with the feature
//! on and off (at depths 0 and 1), and warm incremental replays must stay
//! byte-identical to cold at any thread count.

use std::path::PathBuf;

use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::incr::ArtifactCache;
use wcet_predictability::core::workload::{self, Workload};
use wcet_predictability::isa::asm::assemble;
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::Image;

struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "wcet-persist-{tag}-{}-{:?}",
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

fn config(w: &Workload, persistence: bool, parallelism: Option<usize>) -> AnalyzerConfig {
    AnalyzerConfig {
        machine: MachineConfig::with_caches(),
        annotations: w.annotations.clone(),
        context_depth: 1,
        persistence,
        parallelism,
        ..AnalyzerConfig::new()
    }
}

fn canonical(mut report: AnalysisReport) -> String {
    report.trace.phase_times = Default::default();
    report.trace.phase_work_times = Default::default();
    report.incr = None;
    format!("{report:#?}")
}

/// The headline acceptance claim: `--persistence` at depth 1 strictly
/// tightens the WCET bound on `persistence_killer` and
/// `call_tree_heavy`, and the observed cached execution stays inside
/// both envelopes.
#[test]
fn persistence_strictly_tightens_the_persistence_workloads() {
    for w in [
        workload::persistence_killer(),
        workload::call_tree_heavy(2, 3, &[]),
    ] {
        let clobbered = WcetAnalyzer::with_config(config(&w, false, None))
            .analyze(&w.image)
            .unwrap();
        let persistent = WcetAnalyzer::with_config(config(&w, true, None))
            .analyze(&w.image)
            .unwrap();
        assert!(
            persistent.wcet_cycles < clobbered.wcet_cycles,
            "{}: persistence bound {} must be strictly below the clobbering bound {}",
            w.name,
            persistent.wcet_cycles,
            clobbered.wcet_cycles
        );
        let mut interp = Interpreter::with_config(&w.image, MachineConfig::with_caches());
        let observed = interp.run(100_000_000).unwrap().cycles;
        for (label, r) in [("clobbered", &clobbered), ("persistent", &persistent)] {
            assert!(
                r.wcet_cycles >= observed,
                "{} {label}: observed {observed} > WCET {}",
                w.name,
                r.wcet_cycles
            );
            assert!(
                r.bcet_cycles <= observed,
                "{} {label}: observed {observed} < BCET {}",
                w.name,
                r.bcet_cycles
            );
        }
        assert!(
            persistent.trace.cache_first_miss > 0,
            "{}: the tightening must come from first-miss classifications",
            w.name
        );
    }
}

/// The soundness oracle across the whole corpus, persistence on and off,
/// on the cached machine at depths 0 and 1: observed ∈ [BCET, WCET], and
/// the persistence bound never exceeds the clobbering bound (footprints
/// and first-miss only ever refine).
#[test]
fn workload_soundness_oracle_persistence() {
    for w in workload::corpus() {
        let machine = MachineConfig::with_caches();
        let mut interp = Interpreter::with_config(&w.image, machine);
        let observed = interp
            .run(100_000_000)
            .unwrap_or_else(|e| panic!("workload {} halts: {e}", w.name))
            .cycles;
        for depth in [0, 1] {
            let mut bounds = Vec::new();
            for persistence in [false, true] {
                let config = AnalyzerConfig {
                    context_depth: depth,
                    ..config(&w, persistence, None)
                };
                let report = WcetAnalyzer::with_config(config)
                    .analyze(&w.image)
                    .unwrap_or_else(|e| {
                        panic!(
                            "workload {} (depth {depth}, persistence {persistence}): {e}",
                            w.name
                        )
                    });
                assert!(
                    report.wcet_cycles >= observed,
                    "{} (depth {depth}, persistence {persistence}): observed {observed} > WCET {}",
                    w.name,
                    report.wcet_cycles
                );
                assert!(
                    report.bcet_cycles <= observed,
                    "{} (depth {depth}, persistence {persistence}): observed {observed} < BCET {}",
                    w.name,
                    report.bcet_cycles
                );
                bounds.push(report.wcet_cycles);
            }
            assert!(
                bounds[1] <= bounds[0],
                "{} (depth {depth}): persistence must only refine ({} vs {})",
                w.name,
                bounds[1],
                bounds[0]
            );
        }
    }
}

/// Persistence-enabled reports are byte-identical at every thread count.
#[test]
fn persistence_reports_are_thread_invariant() {
    let w = workload::persistence_killer();
    let reference = canonical(
        WcetAnalyzer::with_config(config(&w, true, Some(1)))
            .analyze(&w.image)
            .unwrap(),
    );
    for threads in [Some(4), None] {
        let report = WcetAnalyzer::with_config(config(&w, true, threads))
            .analyze(&w.image)
            .unwrap();
        assert_eq!(
            canonical(report),
            reference,
            "threads {threads:?} changed the persistence report"
        );
    }
}

/// Warm incremental replays with persistence on, at depths 0 and 1:
/// byte-identical to cold at any thread count, every function artifact
/// (and footprint) hit, zero IPET re-solves.
#[test]
fn persistence_warm_replay_is_byte_identical_at_any_thread_count() {
    for depth in [0, 1] {
        for w in [
            workload::persistence_killer(),
            workload::call_tree_heavy(2, 3, &[]),
        ] {
            let config = |threads| AnalyzerConfig {
                context_depth: depth,
                ..config(&w, true, threads)
            };
            let tmp = TempCache::new(&format!("{}-{depth}", w.name));
            let mut cache = tmp.open();
            let analyzer = WcetAnalyzer::with_config(config(None));
            let plain = canonical(analyzer.analyze(&w.image).unwrap());
            let cold = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
            assert_eq!(
                canonical(cold),
                plain,
                "{} depth {depth}: cold cached run",
                w.name
            );

            for threads in [Some(1), Some(4), None] {
                let analyzer = WcetAnalyzer::with_config(config(threads));
                let warm = analyzer.analyze_incremental(&w.image, &mut cache).unwrap();
                let stats = warm.incr.clone().expect("stats present");
                let at = format!("{} depth {depth} threads {threads:?}", w.name);
                assert_eq!(
                    stats.fn_hits, stats.functions,
                    "{at}: all artifacts replay: {stats:?}"
                );
                assert_eq!(stats.ipet_solves, 0, "{at}: no IPET re-solves: {stats:?}");
                assert_eq!(canonical(warm), plain, "{at}: warm replay diverged");
            }
        }
    }
}

/// `main` loads a heap word, calls `f`, then reloads the word ten times.
/// `f` loads the two heap words `f_loads` names; `f` costs the same for
/// any two addresses, so only its dcache footprint depends on them.
fn footprint_program(f_loads: [u32; 2]) -> Image {
    let [x, y] = f_loads;
    assemble(&format!(
        "        .org 0x1000
main:
    li   r2, 0x20000000
    lw   r3, 0(r2)
    call f
    li   r2, 0x20000000
    li   r10, 10
loop:
    lw   r3, 0(r2)
    subi r10, r10, 1
    bne  r10, r0, loop
    halt
f:
    li   r5, {x:#x}
    lw   r6, 0(r5)
    li   r5, {y:#x}
    lw   r6, 0(r5)
    ret
"
    ))
    .expect("assembles")
}

/// A warm bound must follow the callee footprints its caller was priced
/// with. In program A, `f` loads two lines of the 2-way dcache set that
/// holds `main`'s word, evicting it; in program B, two lines of the next
/// set. `main` has the same function key, entry state, and site costs in
/// both — only the footprint differs. Analyzing A, then B, then A again
/// against one cache directory must reproduce A's cold bound on the
/// third run (an IPET cache keyed without the footprint served B's),
/// with the observed execution inside the envelope.
#[test]
fn warm_bounds_follow_callee_footprints() {
    let a = footprint_program([0x2000_0080, 0x2000_0100]);
    let b = footprint_program([0x2000_0090, 0x2000_0110]);
    let config = AnalyzerConfig {
        machine: MachineConfig::with_caches(),
        context_depth: 1,
        persistence: true,
        ..AnalyzerConfig::new()
    };
    let analyzer = WcetAnalyzer::with_config(config.clone());
    let cold_a = analyzer.analyze(&a).unwrap();
    let cold_b = analyzer.analyze(&b).unwrap();
    assert!(
        cold_b.wcet_cycles < cold_a.wcet_cycles,
        "the footprint must matter: A {} vs B {}",
        cold_a.wcet_cycles,
        cold_b.wcet_cycles
    );

    let tmp = TempCache::new("footprint-aba");
    for image in [&a, &b] {
        analyzer
            .analyze_incremental(image, &mut tmp.open())
            .unwrap();
    }
    let again = analyzer.analyze_incremental(&a, &mut tmp.open()).unwrap();
    let observed = Interpreter::with_config(&a, config.machine.clone())
        .run(100_000)
        .unwrap()
        .cycles;
    assert!(
        again.bcet_cycles <= observed && observed <= again.wcet_cycles,
        "observed {observed} !in [{}, {}]",
        again.bcet_cycles,
        again.wcet_cycles
    );
    assert_eq!(canonical(again), canonical(cold_a), "A after B");
}

/// Turning persistence on and off against one shared cache directory
/// must never cross-contaminate: the fingerprints fork the key space.
#[test]
fn persistence_flag_forks_the_cache_space() {
    let w = workload::persistence_killer();
    let tmp = TempCache::new("fork");
    let mut cache = tmp.open();
    let on = WcetAnalyzer::with_config(config(&w, true, None));
    let off = WcetAnalyzer::with_config(config(&w, false, None));
    let plain_on = canonical(on.analyze(&w.image).unwrap());
    let plain_off = canonical(off.analyze(&w.image).unwrap());
    assert_ne!(plain_on, plain_off, "the feature must change the report");

    let cold_on = canonical(on.analyze_incremental(&w.image, &mut cache).unwrap());
    let cold_off = canonical(off.analyze_incremental(&w.image, &mut cache).unwrap());
    let warm_on = canonical(on.analyze_incremental(&w.image, &mut cache).unwrap());
    let warm_off = canonical(off.analyze_incremental(&w.image, &mut cache).unwrap());
    assert_eq!(cold_on, plain_on);
    assert_eq!(cold_off, plain_off);
    assert_eq!(warm_on, plain_on, "warm persistence-on run contaminated");
    assert_eq!(warm_off, plain_off, "warm persistence-off run contaminated");
}
