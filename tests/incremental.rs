//! Incremental-vs-fresh equivalence: for random single-function
//! mutations over workload images, the incrementally recomputed report
//! must be **byte-identical** to a from-scratch analysis, untouched leaf
//! functions must be genuine artifact-cache hits, and only the mutated
//! function plus its transitive callers may re-solve.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use wcet_predictability::analysis::valueanalysis::compute_summaries;
use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::incr::{ArtifactCache, FunctionArtifact, KeyContext, UnitArtifact};
use wcet_predictability::core::workload;
use wcet_predictability::isa::asm::assemble;
use wcet_predictability::isa::cache::CacheConfig;
use wcet_predictability::isa::interp::MachineConfig;
use wcet_predictability::micro::CacheStates;

/// A fresh per-test cache directory (cleaned up by the guard).
struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> TempCache {
        let dir = std::env::temp_dir().join(format!(
            "wcet-incr-{tag}-{}-{:?}",
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

/// The canonical comparison form: real clocks zeroed, cache statistics
/// dropped (they legitimately differ between cached and fresh runs),
/// everything else byte-compared — per-function results, worst paths,
/// guideline findings, phase counters, the lot.
fn canonical(mut report: AnalysisReport) -> String {
    report.trace.phase_times = Default::default();
    report.trace.phase_work_times = Default::default();
    report.incr = None;
    format!("{report:#?}")
}

fn config(machine: MachineConfig, unrolling: bool, parallelism: Option<usize>) -> AnalyzerConfig {
    AnalyzerConfig {
        machine,
        unrolling,
        parallelism,
        ..AnalyzerConfig::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mutate one random leaf of a fan-out workload: the warm incremental
    /// run must reproduce the from-scratch report byte for byte, hit the
    /// artifact cache for every untouched function, and re-solve IPET
    /// only for the mutated leaf and its (sole) caller.
    #[test]
    fn prop_single_function_mutation_replays_exactly(
        n in 3u32..10,
        victim_raw in 0u32..10,
        new_iters in 1u32..40,
        threads in prop_oneof![Just(None), Just(Some(1)), Just(Some(4))],
    ) {
        let victim = victim_raw % n;
        let base = workload::call_fanout_with(n, &[]);
        let mutated = workload::call_fanout_with(n, &[(victim, new_iters)]);
        let tmp = TempCache::new("prop");
        let mut cache = tmp.open();

        let analyzer = WcetAnalyzer::with_config(config(MachineConfig::simple(), false, threads));
        analyzer
            .analyze_incremental(&base.image, &mut cache)
            .expect("base analyzes");

        let warm = analyzer
            .analyze_incremental(&mutated.image, &mut cache)
            .expect("mutated analyzes incrementally");
        let stats = warm.incr.clone().expect("cached run carries stats");
        let fresh = analyzer.analyze(&mutated.image).expect("mutated analyzes fresh");
        prop_assert_eq!(
            canonical(warm),
            canonical(fresh),
            "incremental and from-scratch reports diverged (n {}, victim {})",
            n, victim
        );

        let total = (n + 1) as usize; // main + n leaves
        prop_assert_eq!(stats.functions, total);
        if new_iters == 4 + (victim % 7) * 3 {
            // The "mutation" reproduced the original body: nothing changed.
            prop_assert_eq!(stats.fn_hits, total);
            prop_assert_eq!(stats.dirty, 0);
        } else {
            prop_assert_eq!(stats.fn_misses, 1, "only the victim re-analyzes");
            prop_assert_eq!(stats.fn_hits, total - 1, "untouched functions are genuine hits");
            prop_assert_eq!(stats.dirty, 2, "victim + its caller (main)");
            prop_assert_eq!(stats.ipet_solves, 2, "victim + main re-solve");
            prop_assert_eq!(stats.ipet_hits, total - 2, "clean functions replay IPET");
        }
    }

    /// Thread count must not change a warm replay: the same mutated image
    /// against the same primed cache renders identically at every
    /// parallelism setting, and matches the cacheless run.
    #[test]
    fn prop_warm_replay_thread_invariant(
        n in 3u32..8,
        victim_raw in 0u32..8,
        new_iters in 1u32..30,
    ) {
        let victim = victim_raw % n;
        let base = workload::call_fanout_with(n, &[]);
        let mutated = workload::call_fanout_with(n, &[(victim, new_iters)]);
        let tmp = TempCache::new("threads");
        let mut cache = tmp.open();
        WcetAnalyzer::with_config(config(MachineConfig::simple(), false, None))
            .analyze_incremental(&base.image, &mut cache)
            .expect("base analyzes");

        let reference = canonical(
            WcetAnalyzer::with_config(config(MachineConfig::simple(), false, None))
                .analyze(&mutated.image)
                .expect("fresh"),
        );
        for threads in [Some(1), Some(2), Some(8), None] {
            let warm = WcetAnalyzer::with_config(config(MachineConfig::simple(), false, threads))
                .analyze_incremental(&mutated.image, &mut cache)
                .expect("warm");
            prop_assert_eq!(
                canonical(warm),
                reference.clone(),
                "threads {:?} changed the warm report", threads
            );
        }
    }
}

/// The same replay guarantee under the cached machine model with virtual
/// unrolling: peeled CFGs are re-derived from artifacts, and the reports
/// still match from-scratch byte for byte.
#[test]
fn unrolled_cached_machine_replays_exactly() {
    let base = workload::call_fanout_with(6, &[]);
    let mutated = workload::call_fanout_with(6, &[(2, 17)]);
    let tmp = TempCache::new("unroll");
    let mut cache = tmp.open();
    let analyzer = WcetAnalyzer::with_config(config(MachineConfig::with_caches(), true, None));
    analyzer
        .analyze_incremental(&base.image, &mut cache)
        .expect("base analyzes");
    let warm = analyzer
        .analyze_incremental(&mutated.image, &mut cache)
        .expect("warm analyzes");
    let stats = warm.incr.clone().expect("stats present");
    assert_eq!(stats.fn_misses, 1, "one leaf changed: {stats:?}");
    let fresh = analyzer.analyze(&mutated.image).expect("fresh analyzes");
    assert_eq!(canonical(warm), canonical(fresh));
}

/// Every corpus workload replays byte-identically from a
/// warm cache, with zero IPET re-solves on the second run.
#[test]
fn all_workloads_replay_from_warm_cache() {
    for w in workload::corpus() {
        let tmp = TempCache::new(&format!("wl-{}", w.name));
        let mut cache = tmp.open();
        let analyzer = WcetAnalyzer::with_config(AnalyzerConfig {
            annotations: w.annotations.clone(),
            ..AnalyzerConfig::new()
        });
        let cold = analyzer
            .analyze_incremental(&w.image, &mut cache)
            .unwrap_or_else(|e| panic!("{} analyzes cold: {e}", w.name));
        let warm = analyzer
            .analyze_incremental(&w.image, &mut cache)
            .unwrap_or_else(|e| panic!("{} analyzes warm: {e}", w.name));
        let stats = warm.incr.clone().expect("stats present");
        assert_eq!(
            stats.fn_hits, stats.functions,
            "{}: every function replays: {stats:?}",
            w.name
        );
        assert_eq!(
            stats.ipet_solves, 0,
            "{}: nothing re-solves: {stats:?}",
            w.name
        );
        assert_eq!(stats.dirty, 0, "{}: nothing is dirty: {stats:?}", w.name);
        assert_eq!(
            canonical(cold),
            canonical(warm),
            "{}: warm replay diverged",
            w.name
        );
    }
}

/// A corrupted artifact file must degrade to a miss (fresh recompute),
/// never to a wrong report.
#[test]
fn corrupted_cache_degrades_to_miss() {
    let w = workload::call_fanout_with(4, &[]);
    let tmp = TempCache::new("corrupt");
    let analyzer = WcetAnalyzer::new();
    let reference = canonical(analyzer.analyze(&w.image).expect("fresh"));
    {
        let mut cache = tmp.open();
        analyzer
            .analyze_incremental(&w.image, &mut cache)
            .expect("cold run");
    }
    // Corrupt every stored function file (units and solutions included)
    // on disk: alternately by truncation (caught by length/digest checks)
    // and by flipping a payload byte (caught by the digest alone — the
    // bytes still parse).
    for (i, entry) in std::fs::read_dir(tmp.dir.join("fn"))
        .expect("cache dir exists")
        .enumerate()
    {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("readable");
        if i % 2 == 0 {
            bytes.truncate(bytes.len() / 2);
        } else {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
        }
        std::fs::write(&path, &bytes).expect("writable");
    }
    let mut cache = tmp.open();
    let report = analyzer
        .analyze_incremental(&w.image, &mut cache)
        .expect("analyzes despite corruption");
    let stats = report.incr.clone().expect("stats present");
    assert_eq!(
        stats.fn_hits, 0,
        "corrupted artifacts read as misses: {stats:?}"
    );
    assert_eq!(canonical(report), reference, "report is still exact");

    // The recompute must have *replaced* the bad bytes: a further run is
    // a clean all-hit replay.
    drop(cache);
    let mut cache = tmp.open();
    let healed = analyzer
        .analyze_incremental(&w.image, &mut cache)
        .expect("analyzes from the healed cache");
    let stats = healed.incr.clone().expect("stats present");
    assert_eq!(
        stats.fn_hits, stats.functions,
        "bad files were overwritten, not skipped: {stats:?}"
    );
    assert_eq!(canonical(healed), reference);
}

/// How [`bad_unit_artifacts_degrade_to_misses_and_are_overwritten`]
/// damages a stored function file.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Flip one payload byte (caught by the file digest).
    Corrupt,
    /// Cut the file in half.
    Truncate,
    /// Re-store it, validly sealed, with every unit's call-site cache
    /// states recorded under a different cache geometry.
    Geometry,
}

/// Every stored function file under `root`: key → front matter and
/// decoded units.
fn stored_files(
    root: &Path,
    machine: &MachineConfig,
) -> BTreeMap<u64, (FunctionArtifact, BTreeMap<u64, UnitArtifact>)> {
    let cache = ArtifactCache::open(root).expect("cache opens");
    std::fs::read_dir(root.join("fn"))
        .expect("fn dir exists")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("hex stem");
            let key = u64::from_str_radix(stem, 16).expect("hex key");
            let file = cache.lookup_fn(key).expect("valid file");
            let units = file
                .units
                .keys()
                .map(|k| (k, file.units.get(k, machine).expect("valid unit")))
                .collect();
            (key, (file.art, units))
        })
        .collect()
}

/// Re-stores one function file, validly sealed.
fn restore(root: &Path, key: u64, art: &FunctionArtifact, units: &BTreeMap<u64, UnitArtifact>) {
    let units = units.iter().map(|(&k, u)| (k, u)).collect();
    ArtifactCache::open(root)
        .expect("cache opens")
        .store_fn(key, art, &units);
}

/// Applies `damage` to the function files under `root`; returns how many
/// units it damaged (every unit of a corrupted or truncated file).
fn damage_units(root: &Path, damage: Damage, machine: &MachineConfig) -> usize {
    let other = CacheConfig::new(4, 2, 16, 1);
    let mut damaged = 0;
    for (key, (art, mut units)) in stored_files(root, machine) {
        let path = root.join("fn").join(format!("{key:016x}.art"));
        let mut bytes = std::fs::read(&path).expect("readable");
        match damage {
            Damage::Corrupt => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x20;
            }
            Damage::Truncate => bytes.truncate(bytes.len() / 2),
            Damage::Geometry => {
                for unit in units.values_mut() {
                    let Some(calls) = unit.icache_calls.as_mut().filter(|c| !c.is_empty()) else {
                        continue;
                    };
                    for states in calls.values_mut() {
                        *states = CacheStates::cold(&other);
                    }
                    damaged += 1;
                }
                restore(root, key, &art, &units);
                continue;
            }
        }
        std::fs::write(&path, &bytes).expect("writable");
        damaged += units.len();
    }
    damaged
}

/// Corrupt and truncated function files, and units of the wrong cache
/// geometry, each degrade to a miss: the damaged units are recomputed
/// (the report stays exact) and the bad file is overwritten, so the next
/// run replays every unit again.
#[test]
fn bad_unit_artifacts_degrade_to_misses_and_are_overwritten() {
    let w = workload::call_tree_heavy(2, 3, &[]);
    let config = AnalyzerConfig {
        machine: MachineConfig::with_caches(),
        context_depth: 1,
        persistence: true,
        pipeline: true,
        ..AnalyzerConfig::new()
    };
    let analyzer = WcetAnalyzer::with_config(config.clone());
    let reference = canonical(analyzer.analyze(&w.image).expect("fresh"));
    for damage in [Damage::Corrupt, Damage::Truncate, Damage::Geometry] {
        let tmp = TempCache::new(&format!("unit-{damage:?}"));
        let cold = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("cold run");
        let units = cold.incr.expect("stats present").units_analyzed;
        let damaged = damage_units(&tmp.dir, damage, &config.machine);
        assert!(damaged > 0, "{damage:?}: something to damage");

        let report = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("analyzes despite damage");
        let stats = report.incr.clone().expect("stats present");
        assert!(
            stats.units_analyzed >= damaged,
            "{damage:?}: every damaged unit misses: {stats:?}"
        );
        assert_eq!(stats.units_analyzed + stats.units_replayed, units);
        assert_eq!(canonical(report), reference, "{damage:?}: report is exact");

        let healed = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("analyzes from the healed cache");
        let stats = healed.incr.clone().expect("stats present");
        assert_eq!(
            (stats.units_analyzed, stats.units_replayed),
            (0, units),
            "{damage:?}: bad files were overwritten: {stats:?}"
        );
        assert_eq!(canonical(healed), reference);
    }
}

/// The artifact files under a store root: subdirectory name → file names.
fn store_layout(root: &std::path::Path) -> std::collections::BTreeMap<String, Vec<String>> {
    let name = |entry: std::io::Result<std::fs::DirEntry>| {
        entry
            .expect("dir entry")
            .file_name()
            .into_string()
            .expect("utf-8 name")
    };
    std::fs::read_dir(root)
        .expect("store root")
        .map(name)
        .map(|sub| {
            let files = std::fs::read_dir(root.join(&sub))
                .expect("artifact subdirectory")
                .map(name)
                .collect();
            (sub, files)
        })
        .collect()
}

/// A cold run with a cache writes one file per function — each holding
/// the function's units, each unit carrying its own IPET solutions — and
/// nothing else, at depths 0, 1, and 2.
#[test]
fn cold_run_writes_one_file_per_function() {
    let w = workload::call_fanout_with(4, &[]);
    for depth in [0, 1, 2] {
        let tmp = TempCache::new(&format!("layout-{depth}"));
        let config = AnalyzerConfig {
            context_depth: depth,
            ..AnalyzerConfig::new()
        };
        let cold = WcetAnalyzer::with_config(config.clone())
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("cold run");
        let stats = cold.incr.expect("stats present");
        // `main` calls every leaf once: one context, with its own key,
        // per function at any depth.
        assert_eq!(stats.units_analyzed, stats.functions, "depth {depth}");
        let layout = store_layout(&tmp.dir);
        assert_eq!(
            layout.keys().collect::<Vec<_>>(),
            ["fn"],
            "depth {depth}: no other artifact kind"
        );
        assert_eq!(layout["fn"].len(), stats.functions, "depth {depth}");
        assert!(layout["fn"].iter().all(|f| f.ends_with(".art")));
        let stored: usize = stored_files(&tmp.dir, &config.machine)
            .values()
            .map(|(_, units)| units.len())
            .sum();
        assert_eq!(stored, stats.units_analyzed, "depth {depth}");
    }
}

/// A unit whose stored IPET solution is damaged — a full key that no
/// longer matches, or a worst path through a block the CFG lacks — but
/// whose analysis part is intact replays the analysis and re-solves just
/// the IPET system: the warm report equals the cold one, and the repaired
/// solution is written back.
#[test]
fn damaged_unit_solutions_re_solve_and_heal() {
    let w = workload::call_tree_heavy(2, 3, &[]);
    for depth in [0, 1] {
        let config = AnalyzerConfig {
            annotations: w.annotations.clone(),
            context_depth: depth,
            ..AnalyzerConfig::new()
        };
        let analyzer = WcetAnalyzer::with_config(config.clone());
        let tmp = TempCache::new(&format!("solutions-{depth}"));
        let cold = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("cold run");
        let cold_stats = cold.incr.clone().expect("stats present");
        let reference = canonical(cold);

        let mut damaged = 0;
        for (key, (art, mut units)) in stored_files(&tmp.dir, &config.machine) {
            for solution in units.values_mut().flat_map(|u| u.solutions.values_mut()) {
                if damaged % 2 == 0 {
                    solution.full_key ^= 1;
                } else {
                    solution
                        .wcet
                        .worst_path
                        .push(wcet_predictability::cfg::BlockId(usize::MAX));
                }
                damaged += 1;
            }
            restore(&tmp.dir, key, &art, &units);
        }
        assert!(damaged > 1, "depth {depth}: both kinds of damage applied");

        let warm = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("warm run");
        let stats = warm.incr.clone().expect("stats present");
        assert_eq!(stats.units_analyzed, 0, "depth {depth}: {stats:?}");
        assert_eq!(stats.units_replayed, cold_stats.units_analyzed);
        assert_eq!(stats.ipet_hits, 0, "depth {depth}: {stats:?}");
        assert_eq!(stats.ipet_solves, cold_stats.ipet_solves);
        assert_eq!(canonical(warm), reference, "depth {depth}: warm = cold");

        let healed = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("healed run");
        let stats = healed.incr.clone().expect("stats present");
        assert_eq!(stats.ipet_solves, 0, "depth {depth}: healed: {stats:?}");
        assert_eq!(canonical(healed), reference);
    }
}

/// A stored function artifact whose footprints do not fit the run — here
/// none at all, on a persistence run over a cached machine — is a miss:
/// the function is analyzed afresh, the report equals the cold one, and
/// the store ends up holding the artifact with its footprints again.
#[test]
fn function_artifact_without_footprints_misses_and_heals() {
    let w = workload::call_fanout_with(4, &[]);
    let config = AnalyzerConfig {
        machine: MachineConfig::with_caches(),
        persistence: true,
        ..AnalyzerConfig::new()
    };
    let analyzer = WcetAnalyzer::with_config(config.clone());
    let tmp = TempCache::new("fn-footprints");
    let cold = analyzer
        .analyze_incremental(&w.image, &mut tmp.open())
        .expect("cold run");
    let n = cold.incr.as_ref().expect("stats present").functions;
    let victim = *cold.program.functions.keys().last().expect("a function");
    let key = KeyContext::new(&w.image, &config).function_key(
        cold.program.cfg(victim).expect("reconstructed"),
        &compute_summaries(&cold.program),
    );
    let reference = canonical(cold);

    let (mut artifact, units) = stored_files(&tmp.dir, &config.machine)
        .remove(&key)
        .expect("the cold run stored it");
    assert!(
        artifact.footprints.is_some(),
        "persistence runs record them"
    );
    artifact.footprints = None;
    restore(&tmp.dir, key, &artifact, &units);

    let warm = analyzer
        .analyze_incremental(&w.image, &mut tmp.open())
        .expect("warm run");
    let stats = warm.incr.clone().expect("stats present");
    assert_eq!((stats.fn_hits, stats.functions), (n - 1, n), "{stats:?}");
    assert_eq!(canonical(warm), reference, "warm = cold");

    let healed = tmp.open().lookup_fn(key).expect("re-stored");
    assert!(
        healed.art.footprints.is_some(),
        "the store holds the footprints"
    );
}

/// A function's file holds the units of the last run that wrote it. At
/// depth 1, editing the immediate `main` passes to `f` re-keys `f`'s one
/// context: `f`'s function artifact still hits, the unit is analyzed
/// afresh, and `f`'s file is rewritten to hold exactly that unit. Undoing
/// the edit then re-analyzes `f`'s unit once (`main`'s old file still
/// replays), and every report equals a fresh one.
#[test]
fn function_file_holds_the_last_runs_units() {
    let image = |imm: u32| {
        assemble(&format!(
            r#"
            main: li   r1, {imm}
                  call f
                  halt
            f:    andi r1, r1, 63
                  beq  r1, r0, done
            loop: subi r1, r1, 1
                  bne  r1, r0, loop
            done: ret
            "#
        ))
        .expect("assembles")
    };
    let config = AnalyzerConfig {
        context_depth: 1,
        ..AnalyzerConfig::new()
    };
    let analyzer = WcetAnalyzer::with_config(config.clone());
    let tmp = TempCache::new("last-run");
    let run = |image: &wcet_predictability::isa::Image| {
        let report = analyzer
            .analyze_incremental(image, &mut tmp.open())
            .expect("cached run");
        let f = image.symbol("f").expect("f");
        let f_key = KeyContext::new(image, &config).function_key(
            report.program.cfg(f).expect("reconstructed"),
            &compute_summaries(&report.program),
        );
        let units: Vec<u64> = tmp
            .open()
            .lookup_fn(f_key)
            .expect("f's file")
            .units
            .keys()
            .collect();
        let stats = report.incr.clone().expect("stats present");
        let fresh = analyzer.analyze(image).expect("fresh run");
        assert_eq!(canonical(report), canonical(fresh), "cached = fresh");
        (stats, units)
    };

    let (cold, cold_units) = run(&image(5));
    assert_eq!((cold.units_analyzed, cold.units_replayed), (2, 0));
    assert_eq!(cold_units.len(), 1);

    let (edited, edited_units) = run(&image(9));
    assert_eq!(
        (edited.fn_hits, edited.functions),
        (1, 2),
        "f hits: {edited:?}"
    );
    assert_eq!((edited.units_analyzed, edited.units_replayed), (2, 0));
    assert_eq!(edited_units.len(), 1, "only this run's unit key is kept");
    assert_ne!(edited_units, cold_units, "f's context was re-keyed");

    let (undone, undone_units) = run(&image(5));
    assert_eq!((undone.fn_hits, undone.functions), (2, 2), "{undone:?}");
    assert_eq!(
        (undone.units_analyzed, undone.units_replayed),
        (1, 1),
        "main replays; f's cold unit was replaced, so it re-analyzes: {undone:?}"
    );
    assert_eq!(undone_units, cold_units);
}
