//! Incremental-vs-fresh equivalence: for random single-function
//! mutations over workload images, the incrementally recomputed report
//! must be **byte-identical** to a from-scratch analysis, untouched leaf
//! functions must be genuine artifact-cache hits, and only the mutated
//! function plus its transitive callers may re-solve.

use std::path::PathBuf;

use proptest::prelude::*;

use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::incr::ArtifactCache;
use wcet_predictability::core::workload;
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
    // Corrupt every stored function and unit artifact (solutions
    // included) on disk: alternately by truncation (caught by
    // length/digest checks) and by flipping a payload byte (caught by the
    // digest alone — the bytes still parse).
    for sub in ["fn", "unit"] {
        for (i, entry) in std::fs::read_dir(tmp.dir.join(sub))
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
/// damages a stored unit artifact.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Flip one payload byte (caught by the payload digest).
    Corrupt,
    /// Cut the file in half.
    Truncate,
    /// Re-store it, validly sealed, with every call-site cache state
    /// recorded under a different cache geometry.
    Geometry,
}

/// Applies `damage` to the unit artifacts under `root`; returns how many
/// files it changed.
fn damage_units(root: &std::path::Path, damage: Damage, machine: &MachineConfig) -> usize {
    let cache = ArtifactCache::open(root).expect("cache opens");
    let other = CacheConfig::new(4, 2, 16, 1);
    let mut damaged = 0;
    for entry in std::fs::read_dir(root.join("unit")).expect("unit dir exists") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("readable");
        match damage {
            Damage::Corrupt => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x20;
            }
            Damage::Truncate => bytes.truncate(bytes.len() / 2),
            Damage::Geometry => {
                let stem = path.file_stem().and_then(|s| s.to_str()).expect("hex stem");
                let key = u64::from_str_radix(stem, 16).expect("hex key");
                let mut artifact = cache.lookup_unit(key, machine).expect("valid artifact");
                let Some(calls) = artifact.icache_calls.as_mut().filter(|c| !c.is_empty()) else {
                    continue;
                };
                for states in calls.values_mut() {
                    *states = CacheStates::cold(&other);
                }
                cache.store_unit(key, &artifact);
                damaged += 1;
                continue;
            }
        }
        std::fs::write(&path, &bytes).expect("writable");
        damaged += 1;
    }
    damaged
}

/// Corrupt, truncated, and wrong-geometry unit artifacts each degrade to
/// a miss: the unit is recomputed (the report stays exact) and the bad
/// file is overwritten, so the next run replays every unit again.
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

/// A cold run with a cache writes one function artifact per function and
/// one unit artifact per distinct unit key — each unit carrying its own
/// IPET solutions — and nothing else, at depth 0 and at depth 1.
#[test]
fn cold_run_writes_one_file_per_function_and_per_unit() {
    let w = workload::call_fanout_with(4, &[]);
    for depth in [0, 1] {
        let tmp = TempCache::new(&format!("layout-{depth}"));
        let analyzer = WcetAnalyzer::with_config(AnalyzerConfig {
            context_depth: depth,
            ..AnalyzerConfig::new()
        });
        let cold = analyzer
            .analyze_incremental(&w.image, &mut tmp.open())
            .expect("cold run");
        let stats = cold.incr.expect("stats present");
        // `main` calls every leaf once: one context, with its own key,
        // per function at either depth.
        assert_eq!(stats.units_analyzed, stats.functions, "depth {depth}");
        let layout = store_layout(&tmp.dir);
        assert_eq!(
            layout.keys().collect::<Vec<_>>(),
            ["fn", "unit"],
            "depth {depth}: no other artifact kind"
        );
        assert_eq!(layout["fn"].len(), stats.functions, "depth {depth}");
        assert_eq!(layout["unit"].len(), stats.units_analyzed, "depth {depth}");
        assert!(layout["fn"].iter().all(|f| f.ends_with(".art")));
        assert!(layout["unit"].iter().all(|f| f.ends_with(".unt")));
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

        let cache = tmp.open();
        let mut damaged = 0;
        for file in &store_layout(&tmp.dir)["unit"] {
            let stem = file.strip_suffix(".unt").expect("unit file");
            let key = u64::from_str_radix(stem, 16).expect("hex key");
            let mut unit = cache.lookup_unit(key, &config.machine).expect("valid unit");
            for solution in unit.solutions.values_mut() {
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
            cache.store_unit(key, &unit);
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
