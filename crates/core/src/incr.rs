//! Incremental re-analysis: a persistent, content-addressed artifact
//! cache.
//!
//! A production analysis service sees mostly *deltas*: a rebuilt image in
//! which one or two functions changed. Re-running value analysis, block
//! timing, and IPET over every unchanged function is the dominant waste.
//! This module caches, per function, everything the pipeline derives from
//! the function's content:
//!
//! * **Function artifacts** (`fn/<key>.art`) — resolver hints, guideline
//!   findings, loop statistics, and (persistence runs) the function's own
//!   cache footprints: everything the context-oblivious front end reads.
//!   Keyed by [`function_key`]: a stable hash of the function's
//!   reconstructed CFG (raw instruction words *and* resolved
//!   terminators), the image's initialized data, the callees'
//!   may-write-memory summaries, and the [`config_fingerprint`].
//!   Everything the value analysis reads is in the key, so a hit replays
//!   the exact artifact a fresh run would compute.
//! * **Unit artifacts** (`unit/<key>.unt`) — one per *(function,
//!   context)* unit at every context depth (depth 0 has one unit per
//!   function): loop bounds, block times, the cache summary, the
//!   per-call-site states the unit hands its callees (depth ≥ 1 only),
//!   and the unit's IPET solutions per mode. Keyed by [`unit_key`]: the
//!   function key, the context's entry-state digest, and the callee
//!   footprints its call sites are priced with — every input of the
//!   unit's value, cache, and pipeline analyses. Each stored solution
//!   carries its full key ([`ipet_site_full_key`] over
//!   [`ipet_ctx_struct_key`]), which adds the per-site callee costs: a
//!   callee whose bound changed misses on the full key and re-solves, so
//!   dirtiness propagates caller-ward through content addressing and no
//!   dirtiness gate is needed.
//!
//! Soundness stance: a cache hit must be byte-identical to a fresh run.
//! That holds because every input of the cached computation is hashed
//! into the key and the pipeline itself is deterministic (fixed worklist
//! orders, Bland's rule in the simplex, address-ordered merges). Entries
//! that fail structural validation (wrong block/loop counts, truncated
//! bytes, version mismatch) are treated as misses. Recursive SCCs' IPET
//! solutions are never cached — their costs are computed jointly per run.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use wcet_analysis::loopbound::{BoundResult, BoundSource, LoopBounds, UnboundedReason};
use wcet_analysis::state::AbstractState;
use wcet_analysis::valueanalysis::FunctionSummary;
use wcet_cfg::block::BlockId;
use wcet_cfg::graph::Cfg;
use wcet_cfg::loops::LoopId;
use wcet_guidelines::rules::{Finding, RuleId};
use wcet_isa::cache::CacheConfig;
use wcet_isa::codec::{Reader, Writer};
use wcet_isa::hash::StableHasher;
use wcet_isa::interp::MachineConfig;
use wcet_isa::{Addr, Image};
use wcet_micro::blocktime::BlockTimes;
use wcet_micro::cacheanalysis::CacheStates;
use wcet_micro::pipeline::PipelineStates;
use wcet_path::ipet::{LpStats, WcetResult};

use crate::analyzer::AnalyzerConfig;

/// Bumped whenever the artifact layout or any hashed semantic changes;
/// part of every key, so stale caches read as cold, never as wrong.
/// Version 2: cache analysis clobbers the ACS at call sites (soundness
/// fix), and the context-sensitive pipeline keys IPET solutions on
/// per-context entry-state digests.
/// Version 3: per-context persistence analysis — footprint artifacts
/// (`fp/`), the persistence flag in the config fingerprint, per-set may
/// poisoning and the persistence instance in the entry-ACS digests.
/// Version 4: multi-ISA — the config fingerprint carries the ISA tag, so
/// the whole key space forks per backend and an artifact produced under
/// one encoding can never satisfy a lookup under another.
/// Version 6: IPET entries carry the LP solver statistics (pivots,
/// refactorizations, presolve eliminations) so a warm replay restores the
/// exact trace counters the fresh solve produced.
/// Version 7: the abstract pipeline — the pipeline flag joins the config
/// fingerprint and function artifacts record the pipeline-state entry
/// digest their block times were derived against.
/// Version 8: unit artifacts (`unit/`) cache each *(function, context)*
/// unit's analysis results, and per-context IPET solutions are keyed on
/// the unit key — which also covers the callee footprints — instead of
/// `(function key, entry digest)`. Own footprints move into the function
/// artifact (the `fp/` kind is retired), so a cold run creates no more
/// files than before and a warm one reads fewer.
/// Version 9: one analysis pipeline — depth 0 runs through the unit
/// pipeline too, so every depth stores unit artifacts. Each unit artifact
/// carries its own per-mode IPET solutions (the `ipet/` kind is retired),
/// function artifacts shrink to the front matter and own footprints, and
/// a unit's first-miss column is stored only when it is nonzero.
pub(crate) const CACHE_VERSION: u32 = 9;

/// Magic prefix of every artifact file.
const MAGIC: &[u8; 4] = b"WCAC";

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// Fingerprint of everything in the [`AnalyzerConfig`] that can influence
/// per-function results: the machine model, the annotation set, and the
/// pipeline switches. `parallelism` is deliberately excluded — the report
/// is identical at any worker count, so one cache serves every `--threads`
/// setting (and the tests hold it to that).
#[must_use]
pub fn config_fingerprint(config: &AnalyzerConfig) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(CACHE_VERSION);
    // `Debug` renderings are stable for a given build of this crate, and
    // the cache version gates across builds; this avoids hand-maintaining
    // a field-by-field serialization that silently rots when a config
    // field is added.
    h.write_str(&format!("{:?}", config.machine));
    h.write_str(&format!("{:?}", config.annotations));
    h.write_u64(config.max_resolve_rounds as u64);
    h.write_u64(u64::from(config.check_guidelines));
    h.write_u64(u64::from(config.unrolling));
    h.write_u64(config.context_depth as u64);
    // The persistence fingerprint: first-miss classification changes
    // block times and IPET systems, so cached solutions must not cross
    // the flag. Function keys embed this fingerprint, and every IPET key
    // embeds a function key — the whole cache space forks on the flag.
    h.write_u64(u64::from(config.persistence));
    // The pipeline fingerprint: the abstract-pipe timing model changes
    // every block time and IPET objective, so cached solutions must not
    // cross the flag either.
    h.write_u64(u64::from(config.pipeline));
    // The ISA tag: instruction words mean different things per backend
    // (and `function_key` falls back to `Debug` for shapes the house
    // encoder rejects), so the key space must fork on the ISA outright.
    h.write_str(config.isa.name());
    h.finish()
}

/// Content key of one function: CFG structure (instruction words, block
/// boundaries, resolved terminators, unresolved sites), the image's data
/// hash, the callee write summaries, and the configuration fingerprint.
#[must_use]
pub fn function_key(
    cfg: &Cfg,
    data_hash: u64,
    config_fp: u64,
    summaries: &HashMap<Addr, FunctionSummary>,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(CACHE_VERSION);
    h.write_u64(config_fp);
    h.write_u64(data_hash);
    h.write_usize(cfg.block_count());
    for (_, block) in cfg.iter() {
        h.write_u32(block.start.0);
        h.write_usize(block.insts.len());
        for (addr, inst) in &block.insts {
            h.write_u32(addr.0);
            // The raw word where the instruction round-trips (the normal
            // case), the debug rendering otherwise — both stable.
            match wcet_isa::encode::encode(inst, *addr) {
                Ok(word) => h.write_u32(word),
                Err(_) => h.write_str(&format!("{inst:?}")),
            }
        }
        // The terminator carries the *resolved* control flow, which can
        // differ between resolution rounds over identical bytes. Hashed
        // structurally (discriminant + every embedded address/condition)
        // rather than through `Debug` — this runs once per block per
        // round, so no allocation.
        hash_terminator(&mut h, &block.term);
    }
    h.write_usize(cfg.unresolved.len());
    for site in &cfg.unresolved {
        h.write_u32(site.0);
    }
    // The value analysis consults callees only through their
    // may-write-memory summaries; hash exactly that.
    for (site, callees) in cfg.call_sites() {
        h.write_u32(site.0);
        for callee in callees {
            h.write_u32(callee.0);
            let writes = summaries.get(&callee).is_none_or(|s| s.writes_mem);
            h.write_u64(u64::from(writes));
        }
    }
    h.finish()
}

/// Absorbs a terminator's full resolved structure into the hasher.
fn hash_terminator(h: &mut StableHasher, term: &wcet_cfg::block::Terminator) {
    use wcet_cfg::block::Terminator;
    match term {
        Terminator::CondBranch {
            cond,
            taken,
            fallthrough,
            float,
        } => {
            h.write_u32(0);
            h.write_u32(match cond {
                None => 0,
                Some(wcet_isa::Cond::Eq) => 1,
                Some(wcet_isa::Cond::Ne) => 2,
                Some(wcet_isa::Cond::Lt) => 3,
                Some(wcet_isa::Cond::Ge) => 4,
                Some(wcet_isa::Cond::Ltu) => 5,
                Some(wcet_isa::Cond::Geu) => 6,
            });
            h.write_u32(taken.0);
            h.write_u32(fallthrough.0);
            h.write_u64(u64::from(*float));
        }
        Terminator::Jump { target } => {
            h.write_u32(1);
            h.write_u32(target.0);
        }
        Terminator::Call { callee, ret_to } => {
            h.write_u32(2);
            h.write_u32(callee.0);
            h.write_u32(ret_to.0);
        }
        Terminator::CallInd { callees, ret_to } => {
            h.write_u32(3);
            h.write_usize(callees.len());
            for c in callees {
                h.write_u32(c.0);
            }
            h.write_u32(ret_to.0);
        }
        Terminator::JumpInd { targets } => {
            h.write_u32(4);
            h.write_usize(targets.len());
            for t in targets {
                h.write_u32(t.0);
            }
        }
        Terminator::Ret => h.write_u32(5),
        Terminator::Halt => h.write_u32(6),
        Terminator::Fallthrough { next } => {
            h.write_u32(7);
            h.write_u32(next.0);
        }
    }
}

/// Key of one *(function, context)* unit of the context-sensitive
/// pipeline: the function's content key, the digest of the context's
/// entry state (register/memory intervals and, where configured, the
/// entry ACS pairs and pipe), and the digest of the callee footprints
/// its call sites are priced with (persistence runs; a constant
/// otherwise). Those are every input of the unit's value, cache, and
/// pipeline analyses, so two contexts with equal keys legitimately share
/// one artifact.
#[must_use]
pub fn unit_key(fn_key: u64, entry_digest: u64, footprint_digest: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("ctx-unit");
    h.write_u64(fn_key);
    h.write_u64(entry_digest);
    h.write_u64(footprint_digest);
    h.finish()
}

/// Structure key of one *(function, context, mode)* IPET system in the
/// context-sensitive pipeline: the [`unit_key`] (which fixes the CFG,
/// loop bounds, and block times) plus the mode.
#[must_use]
pub fn ipet_ctx_struct_key(unit_key: u64, mode: Option<&str>) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("ctx-ipet");
    h.write_u64(unit_key);
    match mode {
        Some(m) => h.write_str(m),
        None => h.write_str("\u{0}global"),
    }
    h.finish()
}

/// Full key of one per-context IPET solve: the structure key plus the
/// per-call-site `(site, WCET, BCET)` cost vector (already merged over
/// each site's callee contexts) the system was priced with.
#[must_use]
pub fn ipet_site_full_key(struct_key: u64, costs: &[(Addr, u64, u64)]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("ctx-sites");
    h.write_u64(struct_key);
    h.write_usize(costs.len());
    for &(site, wcet, bcet) in costs {
        h.write_u32(site.0);
        h.write_u64(wcet);
        h.write_u64(bcet);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

/// The context-oblivious results of one function's value analysis,
/// recorded for replay: what the front end (resolution rounds, guideline
/// report, loop statistics) and the footprint pass read. Everything
/// per-context — loop bounds, block times, IPET solutions — lives in
/// [`UnitArtifact`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionArtifact {
    /// Indirect-call target hints the value analysis recovered.
    pub hint_calls: BTreeMap<Addr, Vec<Addr>>,
    /// Indirect-jump target hints.
    pub hint_jumps: BTreeMap<Addr, Vec<Addr>>,
    /// Per-function guideline findings (empty when checking was off).
    pub findings: Vec<Finding>,
    /// Loops found in the (un-peeled) function.
    pub loops_total: usize,
    /// Loops bounded automatically.
    pub loops_auto: usize,
    /// The function's own cache footprints (persistence runs): the unit
    /// pipeline prices every call with its callees' footprints, but a
    /// warm run only has fresh value analyses for *changed* functions.
    pub footprints: Option<FootprintArtifact>,
}

/// One function's *own* (non-transitive) cache footprints — the lines
/// its body can touch in the instruction and data caches, mirroring the
/// machine configuration's cache presence. Recorded in the function's
/// artifact ([`FunctionArtifact::footprints`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FootprintArtifact {
    /// Instruction-cache footprint (when an icache is configured).
    pub icache: Option<wcet_micro::footprint::CacheFootprint>,
    /// Data-cache footprint (when a dcache is configured).
    pub dcache: Option<wcet_micro::footprint::CacheFootprint>,
}

/// Everything one *(function, context)* unit's value, cache, pipeline,
/// and path analyses produce that later phases (or runs) read, stored as
/// `unit/<key>.unt` under its [`unit_key`]. At context depth ≥ 1 it
/// carries the outgoing per-call-site states, so a replayed caller feeds
/// its callees' entry states exactly as a fresh one would; at depth 0
/// nothing propagates and those maps stay empty. Bounds, times, site
/// keys, and solutions refer to the *analyzed* CFG (the peeled copy when
/// `peeled` is set); the analyzer re-derives that CFG and validates the
/// artifact against it before trusting anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitArtifact {
    /// Whether virtual unrolling changed the CFG.
    pub peeled: bool,
    /// Automatic loop bounds over the analyzed CFG's forest.
    pub bounds: LoopBounds,
    /// Per-block WCET/BCET cycles and first-miss penalties.
    pub times: BlockTimes,
    /// Instruction-cache classification counts, as `(hit, miss,
    /// first_miss, not_classified)`, when an icache is configured.
    pub cache_summary: Option<(usize, usize, usize, usize)>,
    /// Abstract value state before each call site (the callees' entry).
    pub pre_call: BTreeMap<Addr, AbstractState>,
    /// Instruction-cache states before each call site (icache runs).
    pub icache_calls: Option<BTreeMap<Addr, CacheStates>>,
    /// Data-cache states before each call site (dcache runs).
    pub dcache_calls: Option<BTreeMap<Addr, CacheStates>>,
    /// Abstract pipe entering each callee (pipeline runs).
    pub pipeline_calls: Option<BTreeMap<Addr, PipelineStates>>,
    /// The unit's IPET solutions per operating mode (`None` = global),
    /// each valid for the site costs its [`IpetEntry::full_key`] covers.
    pub solutions: BTreeMap<Option<String>, IpetEntry>,
}

/// One stored IPET solution of a unit for one mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpetEntry {
    /// The full key ([`ipet_site_full_key`]: unit, mode, and per-site
    /// callee costs) this solution is valid for.
    pub full_key: u64,
    /// The WCET solve.
    pub wcet: WcetResult,
    /// The BCET solve.
    pub bcet: WcetResult,
    /// Solver effort of the two solves, replayed into the phase trace on
    /// a hit so warm and cold runs render identical statistics.
    pub lp: LpStats,
}

/// Per-run incremental statistics, attached to the report when a cache
/// was in use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Functions in the final reconstruction.
    pub functions: usize,
    /// Function artifacts served from the cache in the final round.
    pub fn_hits: usize,
    /// Function artifacts computed fresh (and stored).
    pub fn_misses: usize,
    /// Changed functions plus their transitive callers — the cone whose
    /// IPET solutions may differ from the cache. A statistic only: the
    /// keys themselves decide every hit.
    pub dirty: usize,
    /// `(unit, mode)` IPET solutions served from unit artifacts.
    pub ipet_hits: usize,
    /// IPET systems solved this run.
    pub ipet_solves: usize,
    /// *(function, context)* units analyzed fresh.
    pub units_analyzed: usize,
    /// Units replayed from unit artifacts.
    pub units_replayed: usize,
}

impl fmt::Display for IncrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {}/{} function artifact(s) hit, {} dirty, \
             {} IPET hit(s), {} IPET solve(s)",
            self.fn_hits, self.functions, self.dirty, self.ipet_hits, self.ipet_solves
        )?;
        // Every cached run has at least the task's root unit; the
        // benchmark harness parses the four leading numbers by position,
        // so the unit counts only ever append.
        if self.units_analyzed + self.units_replayed > 0 {
            write!(
                f,
                ", {} unit(s) analyzed, {} unit(s) replayed",
                self.units_analyzed, self.units_replayed
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// A persistent artifact cache rooted at a directory, shared by every
/// analysis run (and every `wcet batch` request) pointed at it.
#[derive(Debug)]
pub struct ArtifactCache {
    root: PathBuf,
    mem_fn: HashMap<u64, FunctionArtifact>,
    /// Unit artifacts seen by this instance, as their encoded bytes: a
    /// repeat lookup (`wcet batch`, a reused cache) decodes from memory
    /// instead of disk, while the compact encoding keeps the run's peak
    /// memory near that of holding no copy at all. Behind a lock because
    /// the analyzer's workers look units up concurrently.
    mem_unit: Mutex<HashMap<u64, Arc<[u8]>>>,
}

impl ArtifactCache {
    /// Opens (creating if necessary) a cache directory, sweeping any
    /// stale temp files a crashed or killed writer left behind (see
    /// [`ArtifactCache::sweep_stale_tmp`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the artifact subdirectories.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactCache> {
        let root = root.into();
        for kind in Self::KINDS {
            fs::create_dir_all(root.join(kind))?;
        }
        let cache = ArtifactCache {
            root,
            mem_fn: HashMap::new(),
            mem_unit: Mutex::default(),
        };
        // Sweep each store at most once per process: the serve daemon
        // opens the cache once per request, and re-listing a large
        // store's directories every time would dwarf the analysis it
        // fronts. `gc` sweeps unconditionally. Best-effort: an
        // unreadable subdirectory degrades to no sweep, exactly like
        // an unwritable store degrades to in-memory.
        static SWEPT_ROOTS: std::sync::OnceLock<
            std::sync::Mutex<std::collections::HashSet<PathBuf>>,
        > = std::sync::OnceLock::new();
        let first_open = SWEPT_ROOTS
            .get_or_init(Default::default)
            .lock()
            .map_or(true, |mut roots| roots.insert(cache.root.clone()));
        if first_open {
            let _ = cache.sweep_stale_tmp();
        }
        Ok(cache)
    }

    /// The cache directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn fn_path(&self, key: u64) -> PathBuf {
        self.root.join("fn").join(format!("{key:016x}.art"))
    }

    /// Looks up a function artifact by content key.
    pub fn lookup_fn(&mut self, key: u64) -> Option<FunctionArtifact> {
        if let Some(a) = self.mem_fn.get(&key) {
            return Some(a.clone());
        }
        let path = self.fn_path(key);
        let bytes = fs::read(&path).ok()?;
        let artifact = decode_fn_artifact(&bytes)?;
        touch_for_lru(&path);
        self.mem_fn.insert(key, artifact.clone());
        Some(artifact)
    }

    /// Stores a function artifact (idempotent; best-effort on disk — an
    /// unwritable cache degrades to in-memory for this process).
    pub fn store_fn(&mut self, key: u64, artifact: &FunctionArtifact) {
        // Overwrite-on-difference, not skip-on-presence: after a
        // corrupted artifact was looked up (and rejected downstream), the
        // recomputed artifact must replace the bad bytes on disk.
        if self.mem_fn.get(&key) == Some(artifact) {
            return;
        }
        let _ = write_atomically(&self.fn_path(key), &encode_fn_artifact(artifact));
        self.mem_fn.insert(key, artifact.clone());
    }

    fn unit_path(&self, key: u64) -> PathBuf {
        self.root.join("unit").join(format!("{key:016x}.unt"))
    }

    /// The in-memory unit layer. A poisoned lock only means a worker
    /// panicked mid-lookup; the map itself is always consistent.
    fn mem_units(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<[u8]>>> {
        self.mem_unit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a unit artifact by [`unit_key`]. Decoding checks that
    /// every recorded cache state has exactly the geometry `machine`
    /// configures; anything else is a miss. The caller must still
    /// validate the artifact against the unit's analyzed CFG.
    #[must_use]
    pub fn lookup_unit(&self, key: u64, machine: &MachineConfig) -> Option<UnitArtifact> {
        let held = self.mem_units().get(&key).cloned();
        if let Some(bytes) = held {
            // Held bytes were sealed here or verified on their way in.
            return decode_unit_payload(dec_verified(&bytes, b'U')?, machine);
        }
        let path = self.unit_path(key);
        let bytes = fs::read(&path).ok()?;
        let artifact = decode_unit_artifact(&bytes, machine)?;
        touch_for_lru(&path);
        self.mem_units().insert(key, bytes.into());
        Some(artifact)
    }

    /// Stores (or overwrites) a unit artifact; best-effort on disk, like
    /// [`ArtifactCache::store_fn`], and skipped when this instance
    /// already holds the identical bytes.
    pub fn store_unit(&self, key: u64, artifact: &UnitArtifact) {
        let bytes: Arc<[u8]> = encode_unit_artifact(artifact).into();
        if self.mem_units().get(&key) == Some(&bytes) {
            return;
        }
        let _ = write_atomically(&self.unit_path(key), &bytes);
        self.mem_units().insert(key, bytes);
    }
}

// ---------------------------------------------------------------------
// Garbage collection and eviction
// ---------------------------------------------------------------------

/// What one [`ArtifactCache::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Artifact files found across every artifact subdirectory.
    pub scanned: usize,
    /// Their total size before eviction.
    pub bytes_before: u64,
    /// Total size after eviction.
    pub bytes_after: u64,
    /// Artifact files evicted (least recently used first).
    pub evicted: usize,
    /// Stale temp files swept.
    pub tmp_swept: usize,
}

impl fmt::Display for GcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: {} artifact(s) scanned ({} bytes), {} evicted ({} bytes kept), \
             {} stale temp file(s) swept",
            self.scanned, self.bytes_before, self.evicted, self.bytes_after, self.tmp_swept
        )
    }
}

impl ArtifactCache {
    /// The artifact subdirectories, in deterministic order.
    const KINDS: [&'static str; 2] = ["fn", "unit"];
    /// The artifact file extension of each of [`Self::KINDS`].
    const EXTENSIONS: [&'static str; 2] = ["art", "unt"];

    /// Removes temp files left behind by crashed or killed writers.
    ///
    /// A live writer's temp file exists only for the instant between
    /// `write` and `rename`; anything that lingers belongs to a process
    /// that died mid-store and would otherwise shadow the cache
    /// directory forever. A temp file is *stale* — and removed — when
    /// the pid embedded in its name is provably not running (Linux:
    /// no `/proc/<pid>`), or, where pid liveness cannot be checked, when
    /// it is over an hour old. Our own pid is always live, so two
    /// threads of this process racing a store never sweep each other.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; per-file removal errors
    /// (a concurrent sweep won the race) are ignored.
    pub fn sweep_stale_tmp(&self) -> io::Result<usize> {
        let mut swept = 0;
        for kind in Self::KINDS {
            let dir = self.root.join(kind);
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(suffix) = name.split_once(".tmp.").map(|(_, s)| s) else {
                    continue;
                };
                // `<pid>` (legacy) or `<pid>.<seq>`.
                let pid = suffix.split('.').next().and_then(|p| p.parse::<u32>().ok());
                let stale = match pid {
                    Some(pid) if pid == std::process::id() => false,
                    Some(pid) => match pid_is_live(pid) {
                        Some(live) => !live,
                        None => older_than_an_hour(&entry),
                    },
                    // Unparseable suffix: not ours, not anyone's.
                    None => true,
                };
                if stale && fs::remove_file(entry.path()).is_ok() {
                    swept += 1;
                }
            }
        }
        Ok(swept)
    }

    /// Evicts least-recently-used artifacts until the store fits under
    /// `max_bytes`, sweeping stale temp files first.
    ///
    /// The LRU stamp is the file's modification time: stores write it,
    /// and disk lookups bump it (see `touch_for_lru`), so `mtime` is a
    /// portable access clock that survives `relatime` mounts. When the
    /// store exceeds `max_bytes` (the high watermark), eviction deletes
    /// oldest-first down to the **low watermark** of ¾ · `max_bytes`, so
    /// a daemon hovering at the limit does not re-trigger on every
    /// store.
    ///
    /// Safe against concurrent writers by construction: artifacts are
    /// only ever created whole via temp-file-then-rename, so deleting a
    /// file can never expose a torn artifact — a racing writer either
    /// re-creates the entry afterwards (its rename wins) or its freshly
    /// renamed file is evicted like any other cold entry; a racing
    /// reader that already opened the file keeps its data (POSIX), and
    /// one that lost the race sees a plain miss and recomputes.
    ///
    /// In-memory copies of evicted entries are dropped too, so a
    /// long-lived process's memory footprint tracks the disk watermark.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; per-file stat/removal
    /// errors are skipped (the file raced away — which is the goal).
    pub fn gc(&mut self, max_bytes: u64) -> io::Result<GcStats> {
        let mut stats = GcStats {
            tmp_swept: self.sweep_stale_tmp().unwrap_or(0),
            ..GcStats::default()
        };
        // (mtime, path, size, kind, key) — path is the deterministic
        // tiebreak for identical stamps.
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64, usize, Option<u64>)> = Vec::new();
        for (ki, kind) in Self::KINDS.iter().enumerate() {
            let dir = self.root.join(kind);
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let expected_ext = Self::EXTENSIONS[ki];
                let Some(stem) = name.strip_suffix(&format!(".{expected_ext}")) else {
                    continue;
                };
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let stamp = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                let key = u64::from_str_radix(stem, 16).ok();
                files.push((stamp, entry.path(), meta.len(), ki, key));
            }
        }
        stats.scanned = files.len();
        stats.bytes_before = files.iter().map(|f| f.2).sum();
        stats.bytes_after = stats.bytes_before;
        if stats.bytes_before <= max_bytes {
            return Ok(stats);
        }
        let low_watermark = max_bytes / 4 * 3;
        files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, path, size, kind, key) in files {
            if stats.bytes_after <= low_watermark {
                break;
            }
            if fs::remove_file(&path).is_err() {
                continue;
            }
            stats.bytes_after = stats.bytes_after.saturating_sub(size);
            stats.evicted += 1;
            if let Some(key) = key {
                match Self::KINDS[kind] {
                    "fn" => {
                        self.mem_fn.remove(&key);
                    }
                    _ => {
                        self.mem_units().remove(&key);
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Total artifact bytes currently on disk — the serve daemon's cheap
    /// watermark probe.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for kind in Self::KINDS {
            for entry in fs::read_dir(self.root.join(kind))? {
                let entry = entry?;
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        total += meta.len();
                    }
                }
            }
        }
        Ok(total)
    }
}

/// Is `pid` a running process? `None` when the platform offers no way
/// to tell (no procfs).
fn pid_is_live(pid: u32) -> Option<bool> {
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return None;
    }
    Some(proc_root.join(pid.to_string()).is_dir())
}

/// Age fallback for platforms without pid liveness: anything older than
/// an hour has long outlived the microseconds a live temp file exists.
fn older_than_an_hour(entry: &fs::DirEntry) -> bool {
    entry
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age > std::time::Duration::from_secs(3600))
}

/// Best-effort LRU stamp bump on a disk hit: re-stamps `mtime` so the
/// GC's oldest-first eviction spares what is actually being used.
/// Failures (read-only store, concurrent eviction) are ignored — the
/// entry just looks colder than it is.
fn touch_for_lru(path: &Path) {
    // Relatime-style: rewriting the stamp costs a write-open per hit,
    // which a busy daemon pays thousands of times a second, while GC
    // only needs minute-granular recency. Skip the write when the
    // stamp is already fresh.
    let now = std::time::SystemTime::now();
    if let Ok(meta) = fs::metadata(path) {
        if let Ok(mtime) = meta.modified() {
            let fresh = now
                .duration_since(mtime)
                .map_or(true, |age| age.as_secs() < 60);
            if fresh {
                return;
            }
        }
    }
    let _ = fs::File::options()
        .write(true)
        .open(path)
        .and_then(|f| f.set_modified(now));
}

/// Process-global temp-file sequence: the pid alone is not collision
/// proof — two threads of one process storing the same key would write
/// one temp file from both ends.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The temp path a store of `path` writes before its rename: unique per
/// (process, store) so concurrent writers — threads or processes —
/// never collide.
fn tmp_sibling(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// Temp-file-then-rename, so a reader never observes a half-written
/// artifact even when two batch processes share the directory. A failed
/// write or rename removes its own temp file — only a *crashed* writer
/// leaves droppings, and those are swept on the next cache open.
fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let outcome = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if outcome.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    outcome
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// Starts an artifact of one kind: magic, cache version, kind byte.
fn enc(kind: u8) -> Writer {
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.u32(CACHE_VERSION);
    w.u8(kind);
    w
}

/// Appends the payload digest and yields the final bytes. Structural
/// validation alone cannot catch a bit flip that leaves lengths and
/// invariants intact but changes a cycle count — the checksum turns
/// *any* corruption into a decode failure, i.e. a cache miss.
fn seal(w: Writer) -> Vec<u8> {
    let mut buf = w.into_bytes();
    let digest = wcet_isa::hash::hash_bytes(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    buf
}

/// Opens a sealed artifact of `kind` for decoding: `None` unless the
/// payload digest, magic, version, and kind byte all check out.
fn dec(bytes: &[u8], kind: u8) -> Option<Reader<'_>> {
    // Verify the trailing payload digest first: flipped bits anywhere
    // in the body must read as a miss, never as data.
    let tail = bytes.len().checked_sub(8)?;
    let digest = u64::from_le_bytes(bytes[tail..].try_into().ok()?);
    if wcet_isa::hash::hash_bytes(&bytes[..tail]) != digest {
        return None;
    }
    dec_verified(bytes, kind)
}

/// [`dec`] for bytes whose digest was already verified (or that this
/// process sealed itself): checks only the header.
fn dec_verified(bytes: &[u8], kind: u8) -> Option<Reader<'_>> {
    let mut d = Reader::new(&bytes[..bytes.len().checked_sub(8)?]);
    if d.take(4)? != MAGIC.as_slice() || d.u32()? != CACHE_VERSION || d.u8()? != kind {
        return None;
    }
    Some(d)
}

fn encode_addr_map(e: &mut Writer, map: &BTreeMap<Addr, Vec<Addr>>) {
    e.usize(map.len());
    for (at, targets) in map {
        e.u32(at.0);
        e.usize(targets.len());
        for t in targets {
            e.u32(t.0);
        }
    }
}

fn decode_addr_map(d: &mut Reader<'_>) -> Option<BTreeMap<Addr, Vec<Addr>>> {
    let n = d.length()?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let at = Addr(d.u32()?);
        let k = d.length()?;
        let mut targets = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            targets.push(Addr(d.u32()?));
        }
        map.insert(at, targets);
    }
    Some(map)
}

fn rule_to_u8(rule: RuleId) -> u8 {
    RuleId::ALL
        .iter()
        .position(|r| *r == rule)
        .expect("every rule is in ALL") as u8
}

fn rule_from_u8(v: u8) -> Option<RuleId> {
    RuleId::ALL.get(v as usize).copied()
}

fn bound_to_bytes(e: &mut Writer, result: &BoundResult) {
    match result {
        BoundResult::Bounded {
            max_iterations,
            source,
        } => {
            e.u8(0);
            e.u64(*max_iterations);
            e.u8(match source {
                BoundSource::Auto => 0,
                BoundSource::Annotation => 1,
            });
        }
        BoundResult::Unbounded { reason } => {
            e.u8(1);
            e.u8(match reason {
                UnboundedReason::FloatControlled => 0,
                UnboundedReason::ComplexCounterUpdate => 1,
                UnboundedReason::Irreducible => 2,
                UnboundedReason::DataDependent => 3,
                UnboundedReason::NoExit => 4,
                UnboundedReason::NoPattern => 5,
            });
        }
    }
}

fn bound_from_bytes(d: &mut Reader<'_>) -> Option<BoundResult> {
    match d.u8()? {
        0 => {
            let max_iterations = d.u64()?;
            let source = match d.u8()? {
                0 => BoundSource::Auto,
                1 => BoundSource::Annotation,
                _ => return None,
            };
            Some(BoundResult::Bounded {
                max_iterations,
                source,
            })
        }
        1 => {
            let reason = match d.u8()? {
                0 => UnboundedReason::FloatControlled,
                1 => UnboundedReason::ComplexCounterUpdate,
                2 => UnboundedReason::Irreducible,
                3 => UnboundedReason::DataDependent,
                4 => UnboundedReason::NoExit,
                5 => UnboundedReason::NoPattern,
                _ => return None,
            };
            Some(BoundResult::Unbounded { reason })
        }
        _ => None,
    }
}

fn encode_fn_artifact(a: &FunctionArtifact) -> Vec<u8> {
    let mut e = enc(b'F');
    encode_addr_map(&mut e, &a.hint_calls);
    encode_addr_map(&mut e, &a.hint_jumps);
    e.usize(a.findings.len());
    for f in &a.findings {
        e.u8(rule_to_u8(f.rule));
        e.u32(f.addr.0);
        match f.function {
            Some(fun) => {
                e.u8(1);
                e.u32(fun.0);
            }
            None => e.u8(0),
        }
        e.str(&f.message);
    }
    e.usize(a.loops_total);
    e.usize(a.loops_auto);
    match &a.footprints {
        Some(fps) => {
            e.u8(1);
            for fp in [&fps.icache, &fps.dcache] {
                match fp {
                    Some(fp) => {
                        e.u8(1);
                        encode_cache_footprint(&mut e, fp);
                    }
                    None => e.u8(0),
                }
            }
        }
        None => e.u8(0),
    }
    seal(e)
}

fn decode_fn_artifact(bytes: &[u8]) -> Option<FunctionArtifact> {
    let mut d = dec(bytes, b'F')?;
    let hint_calls = decode_addr_map(&mut d)?;
    let hint_jumps = decode_addr_map(&mut d)?;
    let n_findings = d.length()?;
    let mut findings = Vec::with_capacity(n_findings.min(1024));
    for _ in 0..n_findings {
        let rule = rule_from_u8(d.u8()?)?;
        let addr = Addr(d.u32()?);
        let function = match d.u8()? {
            0 => None,
            1 => Some(Addr(d.u32()?)),
            _ => return None,
        };
        let message = d.str()?;
        findings.push(Finding {
            rule,
            addr,
            function,
            message,
        });
    }
    let loops_total = d.usize()?;
    let loops_auto = d.usize()?;
    let footprints = match d.u8()? {
        0 => None,
        1 => {
            let mut fps = [None, None];
            for fp in &mut fps {
                *fp = match d.u8()? {
                    0 => None,
                    1 => Some(decode_cache_footprint(&mut d)?),
                    _ => return None,
                };
            }
            let [icache, dcache] = fps;
            Some(FootprintArtifact { icache, dcache })
        }
        _ => return None,
    };
    d.done().then_some(FunctionArtifact {
        hint_calls,
        hint_jumps,
        findings,
        loops_total,
        loops_auto,
        footprints,
    })
}

fn encode_cache_footprint(e: &mut Writer, fp: &wcet_micro::footprint::CacheFootprint) {
    use wcet_micro::footprint::SetFootprint;
    let config = fp.config();
    e.usize(config.sets);
    e.usize(config.assoc);
    e.u32(config.line_bytes);
    e.u32(config.hit_latency);
    for set in fp.sets() {
        match set {
            SetFootprint::Any => e.u8(1),
            SetFootprint::Lines(lines) => {
                e.u8(0);
                e.usize(lines.len());
                for &l in lines {
                    e.u32(l);
                }
            }
        }
    }
}

fn decode_cache_footprint(d: &mut Reader<'_>) -> Option<wcet_micro::footprint::CacheFootprint> {
    use std::collections::BTreeSet;
    use wcet_micro::footprint::{CacheFootprint, SetFootprint};
    let sets = d.usize()?;
    let assoc = d.usize()?;
    let line_bytes = d.u32()?;
    let hit_latency = d.u32()?;
    // `CacheConfig::new` panics on bad geometry; a corrupted artifact
    // must read as a miss instead.
    if sets == 0 || !sets.is_power_of_two() || sets > 1 << 20 {
        return None;
    }
    if assoc == 0 || assoc > 1 << 10 {
        return None;
    }
    if line_bytes == 0 || !line_bytes.is_power_of_two() {
        return None;
    }
    let config = CacheConfig::new(sets, assoc, line_bytes, hit_latency);
    let mut parts = Vec::with_capacity(sets);
    for _ in 0..sets {
        parts.push(match d.u8()? {
            1 => SetFootprint::Any,
            0 => {
                let n = d.length()?;
                let mut lines = BTreeSet::new();
                for _ in 0..n {
                    lines.insert(d.u32()?);
                }
                SetFootprint::Lines(lines)
            }
            _ => return None,
        });
    }
    CacheFootprint::from_parts(config, parts)
}

/// Block ids and counts are small while worst paths run to hundreds of
/// blocks, so they are written as varints.
fn encode_wcet_result(e: &mut Writer, r: &WcetResult) {
    e.u64(r.wcet_cycles);
    e.usize(r.block_counts.len());
    for (b, c) in &r.block_counts {
        e.varint(b.0 as u64);
        e.varint(*c);
    }
    e.usize(r.worst_path.len());
    for b in &r.worst_path {
        e.varint(b.0 as u64);
    }
}

fn decode_block_id(d: &mut Reader<'_>) -> Option<BlockId> {
    usize::try_from(d.varint()?).ok().map(BlockId)
}

fn decode_wcet_result(d: &mut Reader<'_>) -> Option<WcetResult> {
    let wcet_cycles = d.u64()?;
    let n_counts = d.length()?;
    let mut block_counts = BTreeMap::new();
    for _ in 0..n_counts {
        let b = decode_block_id(d)?;
        block_counts.insert(b, d.varint()?);
    }
    let n_path = d.length()?;
    let mut worst_path = Vec::with_capacity(n_path.min(1 << 16));
    for _ in 0..n_path {
        worst_path.push(decode_block_id(d)?);
    }
    Some(WcetResult {
        wcet_cycles,
        block_counts,
        worst_path,
    })
}

fn encode_solutions(e: &mut Writer, solutions: &BTreeMap<Option<String>, IpetEntry>) {
    e.usize(solutions.len());
    for (mode, entry) in solutions {
        match mode {
            Some(m) => {
                e.u8(1);
                e.str(m);
            }
            None => e.u8(0),
        }
        e.u64(entry.full_key);
        encode_wcet_result(e, &entry.wcet);
        encode_wcet_result(e, &entry.bcet);
        e.u64(entry.lp.pivots);
        e.u64(entry.lp.refactorizations);
        e.u64(entry.lp.presolve_removed);
    }
}

fn decode_solutions(d: &mut Reader<'_>) -> Option<BTreeMap<Option<String>, IpetEntry>> {
    let n = d.length()?;
    let mut solutions = BTreeMap::new();
    for _ in 0..n {
        let mode = match d.u8()? {
            0 => None,
            1 => Some(d.str()?),
            _ => return None,
        };
        let entry = IpetEntry {
            full_key: d.u64()?,
            wcet: decode_wcet_result(d)?,
            bcet: decode_wcet_result(d)?,
            lp: LpStats {
                pivots: d.u64()?,
                refactorizations: d.u64()?,
                presolve_removed: d.u64()?,
            },
        };
        if solutions.insert(mode, entry).is_some() {
            return None;
        }
    }
    Some(solutions)
}

fn encode_site_map<T>(e: &mut Writer, map: &BTreeMap<Addr, T>, item: impl Fn(&T, &mut Writer)) {
    e.usize(map.len());
    for (site, value) in map {
        e.u32(site.0);
        item(value, e);
    }
}

fn decode_site_map<T>(
    d: &mut Reader<'_>,
    item: impl Fn(&mut Reader<'_>) -> Option<T>,
) -> Option<BTreeMap<Addr, T>> {
    let n = d.length()?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let site = Addr(d.u32()?);
        if map.insert(site, item(d)?).is_some() {
            return None;
        }
    }
    Some(map)
}

fn encode_cache_calls(e: &mut Writer, calls: Option<&BTreeMap<Addr, CacheStates>>) {
    match calls {
        Some(map) => {
            e.u8(1);
            encode_site_map(e, map, CacheStates::encode_into);
        }
        None => e.u8(0),
    }
}

/// Per-site cache states, present exactly when the machine configures
/// the cache (`config`), each of that cache's geometry.
fn decode_cache_calls(
    d: &mut Reader<'_>,
    config: Option<&CacheConfig>,
) -> Option<Option<BTreeMap<Addr, CacheStates>>> {
    match (d.u8()?, config) {
        (0, None) => Some(None),
        (1, Some(cc)) => Some(Some(decode_site_map(d, |d| {
            CacheStates::decode_from(d, cc)
        })?)),
        _ => None,
    }
}

fn encode_unit_artifact(a: &UnitArtifact) -> Vec<u8> {
    let mut e = enc(b'U');
    e.bool(a.peeled);
    e.usize(a.bounds.results().len());
    for (id, result) in a.bounds.results() {
        e.usize(id.0);
        bound_to_bytes(&mut e, result);
    }
    // The first-miss column is all zero without persistence: stored
    // only when something in it is not.
    let blocks = (0..a.times.len()).map(BlockId);
    let first_miss = blocks.clone().any(|b| a.times.first_miss(b) > 0);
    e.usize(a.times.len());
    e.bool(first_miss);
    for b in blocks {
        e.u64(a.times.wcet(b));
        e.u64(a.times.bcet(b));
        if first_miss {
            e.u64(a.times.first_miss(b));
        }
    }
    match a.cache_summary {
        Some((h, m, fm, nc)) => {
            e.u8(1);
            for n in [h, m, fm, nc] {
                e.usize(n);
            }
        }
        None => e.u8(0),
    }
    encode_site_map(&mut e, &a.pre_call, AbstractState::encode_into);
    encode_cache_calls(&mut e, a.icache_calls.as_ref());
    encode_cache_calls(&mut e, a.dcache_calls.as_ref());
    match &a.pipeline_calls {
        Some(map) => {
            e.u8(1);
            encode_site_map(&mut e, map, PipelineStates::encode_into);
        }
        None => e.u8(0),
    }
    encode_solutions(&mut e, &a.solutions);
    seal(e)
}

fn decode_unit_artifact(bytes: &[u8], machine: &MachineConfig) -> Option<UnitArtifact> {
    decode_unit_payload(dec(bytes, b'U')?, machine)
}

fn decode_unit_payload(mut d: Reader<'_>, machine: &MachineConfig) -> Option<UnitArtifact> {
    let peeled = d.bool()?;
    let n_bounds = d.length()?;
    let mut bounds = Vec::with_capacity(n_bounds.min(1024));
    for _ in 0..n_bounds {
        let id = LoopId(d.usize()?);
        bounds.push((id, bound_from_bytes(&mut d)?));
    }
    let n_blocks = d.length()?;
    let has_first_miss = d.bool()?;
    let (mut wcet, mut bcet, mut first_miss) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n_blocks {
        wcet.push(d.u64()?);
        bcet.push(d.u64()?);
        first_miss.push(if has_first_miss { d.u64()? } else { 0 });
    }
    let times = BlockTimes::from_raw_with_first_miss(wcet, bcet, first_miss)?;
    let cache_summary = match d.u8()? {
        0 => None,
        1 => Some((d.usize()?, d.usize()?, d.usize()?, d.usize()?)),
        _ => return None,
    };
    let pre_call = decode_site_map(&mut d, AbstractState::decode_from)?;
    let icache_calls = decode_cache_calls(&mut d, machine.icache.as_ref())?;
    let dcache_calls = decode_cache_calls(&mut d, machine.dcache.as_ref())?;
    let pipeline_calls = match d.u8()? {
        0 => None,
        1 => Some(decode_site_map(&mut d, PipelineStates::decode_from)?),
        _ => return None,
    };
    let solutions = decode_solutions(&mut d)?;
    d.done().then_some(UnitArtifact {
        peeled,
        bounds: LoopBounds::from_results(bounds),
        times,
        cache_summary,
        pre_call,
        icache_calls,
        dcache_calls,
        pipeline_calls,
        solutions,
    })
}

// ---------------------------------------------------------------------
// Key helpers used by the analyzer
// ---------------------------------------------------------------------

/// The per-image inputs of [`function_key`] that are shared by every
/// function: computed once per reconstruction round.
#[derive(Debug, Clone, Copy)]
pub struct KeyContext {
    /// [`Image::data_hash`] of the analyzed image.
    pub data_hash: u64,
    /// [`config_fingerprint`] of the analyzer configuration.
    pub config_fp: u64,
}

impl KeyContext {
    /// Builds the shared key context for one run.
    #[must_use]
    pub fn new(image: &Image, config: &AnalyzerConfig) -> KeyContext {
        KeyContext {
            data_hash: image.data_hash(),
            config_fp: config_fingerprint(config),
        }
    }

    /// [`function_key`] with this context.
    #[must_use]
    pub fn function_key(&self, cfg: &Cfg, summaries: &HashMap<Addr, FunctionSummary>) -> u64 {
        function_key(cfg, self.data_hash, self.config_fp, summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> FunctionArtifact {
        FunctionArtifact {
            hint_calls: BTreeMap::from([(Addr(0x1010), vec![Addr(0x2000), Addr(0x2040)])]),
            hint_jumps: BTreeMap::from([(Addr(0x1020), vec![Addr(0x1100)])]),
            findings: vec![Finding {
                rule: RuleId::Misra20_4,
                addr: Addr(0x1004),
                function: Some(Addr(0x1000)),
                message: "dynamic heap allocation".to_owned(),
            }],
            loops_total: 2,
            loops_auto: 1,
            footprints: None,
        }
    }

    /// A unit artifact with a global and a mode solution, over a
    /// cache-less machine (no per-site cache states to encode).
    fn sample_unit(first_miss: Vec<u64>) -> UnitArtifact {
        let entry = |cycles: u64| IpetEntry {
            full_key: 0xdead_beef_0bad_cafe ^ cycles,
            wcet: WcetResult {
                wcet_cycles: cycles,
                block_counts: BTreeMap::from([(BlockId(0), 1), (BlockId(2), 16)]),
                worst_path: vec![BlockId(0), BlockId(2), BlockId(2)],
            },
            bcet: WcetResult {
                wcet_cycles: 17,
                block_counts: BTreeMap::from([(BlockId(0), 1)]),
                worst_path: vec![BlockId(0)],
            },
            lp: LpStats {
                pivots: 41,
                refactorizations: 2,
                presolve_removed: 13,
            },
        };
        UnitArtifact {
            peeled: true,
            bounds: LoopBounds::from_results(vec![
                (
                    LoopId(0),
                    BoundResult::Bounded {
                        max_iterations: 16,
                        source: BoundSource::Auto,
                    },
                ),
                (
                    LoopId(1),
                    BoundResult::Unbounded {
                        reason: UnboundedReason::DataDependent,
                    },
                ),
            ]),
            times: BlockTimes::from_raw_with_first_miss(
                vec![10, 42, 7],
                vec![4, 40, 7],
                first_miss,
            )
            .expect("valid times"),
            cache_summary: None,
            pre_call: BTreeMap::new(),
            icache_calls: None,
            dcache_calls: None,
            pipeline_calls: None,
            solutions: BTreeMap::from([
                (None, entry(420)),
                (Some("ground".to_owned()), entry(300)),
            ]),
        }
    }

    #[test]
    fn fn_artifact_round_trip() {
        let a = sample_artifact();
        let bytes = encode_fn_artifact(&a);
        assert_eq!(decode_fn_artifact(&bytes), Some(a));
    }

    #[test]
    fn truncated_or_garbled_artifacts_are_misses() {
        let bytes = encode_fn_artifact(&sample_artifact());
        for cut in [0, 4, 8, 9, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(decode_fn_artifact(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert_eq!(decode_fn_artifact(&wrong_magic), None);
        let mut wrong_version = bytes.clone();
        wrong_version[4] ^= 0xff;
        assert_eq!(decode_fn_artifact(&wrong_version), None);
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            decode_fn_artifact(&trailing),
            None,
            "trailing bytes rejected"
        );
    }

    #[test]
    fn any_flipped_bit_fails_the_checksum() {
        // Structural validation alone would accept flips that keep
        // lengths/invariants intact but change a cycle count; the payload
        // digest must reject *every* single-byte corruption.
        let bytes = encode_fn_artifact(&sample_artifact());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                decode_fn_artifact(&bad),
                None,
                "flip at byte {i} must read as a miss"
            );
        }
        let unit_bytes = encode_unit_artifact(&sample_unit(vec![0, 3, 0]));
        let machine = MachineConfig::simple();
        for i in 0..unit_bytes.len() {
            let mut bad = unit_bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                decode_unit_artifact(&bad, &machine),
                None,
                "flip at byte {i}"
            );
        }
    }

    /// IPET solutions round-trip inside their unit artifact, with and
    /// without a first-miss column.
    #[test]
    fn ipet_entry_round_trip() {
        let machine = MachineConfig::simple();
        for first_miss in [vec![0, 0, 0], vec![0, 3, 0]] {
            let unit = sample_unit(first_miss);
            let bytes = encode_unit_artifact(&unit);
            assert_eq!(decode_unit_artifact(&bytes, &machine), Some(unit));
            assert_eq!(decode_fn_artifact(&bytes), None, "kind bytes are checked");
        }
        // An all-zero first-miss column is not written.
        assert!(
            encode_unit_artifact(&sample_unit(vec![0, 0, 0])).len()
                < encode_unit_artifact(&sample_unit(vec![0, 3, 0])).len()
        );
    }

    #[test]
    fn repeat_unit_lookups_are_served_from_memory() {
        let dir = std::env::temp_dir().join(format!("wcet-incr-unit-mem-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let machine = MachineConfig::simple();
        let unit = sample_unit(vec![0, 0, 0]);
        ArtifactCache::open(&dir).unwrap().store_unit(5, &unit);
        let cache = ArtifactCache::open(&dir).unwrap();
        assert_eq!(cache.lookup_unit(5, &machine), Some(unit.clone()));
        fs::remove_file(cache.unit_path(5)).unwrap();
        assert_eq!(
            cache.lookup_unit(5, &machine),
            Some(unit),
            "the second lookup never went back to disk"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fp_artifact_round_trip_and_corruption() {
        // Own footprints ride in the function artifact: they round-trip
        // with it, persist across instances, and any flipped bit in their
        // bytes reads as a miss.
        use wcet_isa::cache::CacheConfig;
        use wcet_micro::footprint::CacheFootprint;
        let mut icache_fp = CacheFootprint::empty(&CacheConfig::small_icache());
        icache_fp.absorb_addr(Addr(0x0010_0040));
        icache_fp.absorb_addr(Addr(0x0010_0200));
        let mut dcache_fp = CacheFootprint::empty(&CacheConfig::small_dcache());
        dcache_fp.absorb_range(Addr(0x8000), Addr(0x8fff));
        let artifact = FunctionArtifact {
            footprints: Some(FootprintArtifact {
                icache: Some(icache_fp),
                dcache: Some(dcache_fp),
            }),
            ..sample_artifact()
        };
        let bytes = encode_fn_artifact(&artifact);
        assert_eq!(decode_fn_artifact(&bytes), Some(artifact.clone()));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert_eq!(decode_fn_artifact(&bad), None, "flip at {i}");
        }
        // The cache-less variant round-trips too.
        let none = FunctionArtifact {
            footprints: Some(FootprintArtifact::default()),
            ..sample_artifact()
        };
        assert_eq!(
            decode_fn_artifact(&encode_fn_artifact(&none)),
            Some(none.clone())
        );
        assert_ne!(
            encode_fn_artifact(&none),
            encode_fn_artifact(&sample_artifact())
        );

        // And the store/lookup path persists across instances.
        let dir = std::env::temp_dir().join(format!("wcet-incr-fp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut cache = ArtifactCache::open(&dir).unwrap();
            assert_eq!(cache.lookup_fn(11), None);
            cache.store_fn(11, &artifact);
        }
        let mut cache = ArtifactCache::open(&dir).unwrap();
        assert_eq!(cache.lookup_fn(11), Some(artifact));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_fingerprint_tracks_persistence() {
        let base = AnalyzerConfig::new();
        let mut persist = base.clone();
        persist.persistence = true;
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&persist),
            "persistence forks the cache space"
        );
    }

    #[test]
    fn config_fingerprint_tracks_pipeline() {
        let base = AnalyzerConfig::new();
        let mut piped = base.clone();
        piped.pipeline = true;
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&piped),
            "the pipeline model forks the cache space"
        );
    }

    #[test]
    fn cache_persists_across_instances() {
        let dir = std::env::temp_dir().join(format!("wcet-incr-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample_artifact();
        {
            let mut cache = ArtifactCache::open(&dir).unwrap();
            assert_eq!(cache.lookup_fn(7), None);
            cache.store_fn(7, &a);
            assert_eq!(cache.lookup_fn(7), Some(a.clone()));
        }
        {
            let mut cache = ArtifactCache::open(&dir).unwrap();
            assert_eq!(cache.lookup_fn(7), Some(a), "artifact survived the process");
            assert_eq!(cache.lookup_fn(8), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_mode_and_costs() {
        let k = ipet_ctx_struct_key(1, None);
        assert_ne!(k, ipet_ctx_struct_key(1, Some("ground")));
        assert_ne!(k, ipet_ctx_struct_key(2, None));
        let costs = [(Addr(0x2000), 10, 5)];
        assert_ne!(ipet_site_full_key(k, &costs), ipet_site_full_key(k, &[]));
        assert_ne!(
            ipet_site_full_key(k, &costs),
            ipet_site_full_key(k, &[(Addr(0x2000), 11, 5)])
        );
        assert_ne!(
            ipet_site_full_key(k, &costs),
            ipet_site_full_key(k, &[(Addr(0x2004), 10, 5)]),
            "the site, not just the cost, is keyed"
        );
        assert_eq!(ipet_site_full_key(k, &costs), ipet_site_full_key(k, &costs));
    }

    #[test]
    fn config_fingerprint_tracks_semantic_fields_not_parallelism() {
        let base = AnalyzerConfig::new();
        let fp = config_fingerprint(&base);
        let mut threads = base.clone();
        threads.parallelism = Some(3);
        assert_eq!(
            fp,
            config_fingerprint(&threads),
            "one cache for all thread counts"
        );
        let mut unroll = base.clone();
        unroll.unrolling = true;
        assert_ne!(fp, config_fingerprint(&unroll));
        let mut machine = base;
        machine.machine = wcet_isa::interp::MachineConfig::with_caches();
        assert_ne!(fp, config_fingerprint(&machine));
    }

    #[test]
    fn tmp_siblings_never_collide() {
        let base = Path::new("/store/fn/00ff.art");
        let a = tmp_sibling(base);
        let b = tmp_sibling(base);
        assert_ne!(a, b, "two stores of one key need two temp files");
        for p in [&a, &b] {
            let name = p.file_name().unwrap().to_str().unwrap();
            let suffix = name.split_once(".tmp.").unwrap().1;
            let mut parts = suffix.split('.');
            assert_eq!(
                parts.next().unwrap().parse::<u32>().unwrap(),
                std::process::id()
            );
            parts.next().unwrap().parse::<u64>().unwrap();
            assert_eq!(parts.next(), None);
        }
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open_but_live_ones_survive() {
        let dir = std::env::temp_dir().join(format!("wcet-incr-sweep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Plant the leftovers before the first open: the open-time
        // sweep runs once per store root per process.
        for sub in ArtifactCache::KINDS {
            fs::create_dir_all(dir.join(sub)).unwrap();
        }
        // A pid far above any kernel pid_max: provably dead.
        let dead_pid = 4_000_000_000u32;
        let legacy = dir.join("fn").join(format!("aa.art.tmp.{dead_pid}"));
        let seqed = dir.join("unit").join(format!("bb.unt.tmp.{dead_pid}.17"));
        let garbled = dir.join("unit").join("cc.unt.tmp.notapid");
        let ours = dir
            .join("fn")
            .join(format!("dd.art.tmp.{}.3", std::process::id()));
        for p in [&legacy, &seqed, &garbled, &ours] {
            fs::write(p, b"half-written").unwrap();
        }
        let real = dir.join("fn").join("00ff.art");
        fs::write(&real, b"not a tmp file").unwrap();

        let cache = ArtifactCache::open(&dir).unwrap();
        assert!(!legacy.exists(), "dead-pid legacy tmp swept");
        assert!(!seqed.exists(), "dead-pid seq tmp swept");
        assert!(!garbled.exists(), "unparseable tmp swept");
        assert!(ours.exists(), "own-pid tmp is a live writer, kept");
        assert!(real.exists(), "artifacts are never touched by the sweep");
        // Re-sweeping is idempotent (only `ours` and `real` remain).
        assert_eq!(cache.sweep_stale_tmp().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_down_to_the_low_watermark() {
        let dir = std::env::temp_dir().join(format!("wcet-incr-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut cache = ArtifactCache::open(&dir).unwrap();
        let artifact = sample_artifact();
        for key in 1..=8u64 {
            cache.store_fn(key, &artifact);
        }
        let per_file = fs::metadata(cache.fn_path(1)).unwrap().len();
        // Backdate keys 1..=4 so they are the LRU tail; 1 is coldest.
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        for key in 1..=4u64 {
            let age = std::time::Duration::from_secs(1_000_000 + key);
            fs::File::options()
                .write(true)
                .open(cache.fn_path(key))
                .unwrap()
                .set_modified(epoch + age)
                .unwrap();
        }

        // Under the watermark: nothing happens.
        let idle = cache.gc(per_file * 100).unwrap();
        assert_eq!(idle.evicted, 0);
        assert_eq!(idle.scanned, 8);
        assert_eq!(idle.bytes_before, idle.bytes_after);

        // Over it: evict oldest-first until ≤ ¾·max. max = 6 files, low
        // watermark = 4.5 files, so exactly the 4 backdated ones go.
        let stats = cache.gc(per_file * 6).unwrap();
        assert_eq!(stats.evicted, 4, "{stats}");
        assert_eq!(stats.bytes_after, per_file * 4);
        assert!(stats.bytes_after <= per_file * 6 / 4 * 3);
        for key in 1..=4u64 {
            assert!(!cache.fn_path(key).exists(), "cold key {key} evicted");
            assert_eq!(cache.lookup_fn(key), None, "mem copy evicted too");
        }
        for key in 5..=8u64 {
            assert_eq!(
                cache.lookup_fn(key),
                Some(artifact.clone()),
                "warm key {key} survives"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_bump_the_lru_stamp() {
        let dir = std::env::temp_dir().join(format!("wcet-incr-lru-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let artifact = sample_artifact();
        {
            let mut cache = ArtifactCache::open(&dir).unwrap();
            cache.store_fn(42, &artifact);
        }
        let path = {
            let cache = ArtifactCache::open(&dir).unwrap();
            cache.fn_path(42)
        };
        let backdated = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1);
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(backdated)
            .unwrap();
        let mut cache = ArtifactCache::open(&dir).unwrap();
        assert_eq!(cache.lookup_fn(42), Some(artifact));
        let stamped = fs::metadata(&path).unwrap().modified().unwrap();
        assert!(
            stamped > backdated + std::time::Duration::from_secs(3600),
            "disk hit re-stamps mtime so GC sees the entry as hot"
        );
        // Relatime discipline: a hit on an already-fresh entry leaves
        // the stamp alone (no write-open per lookup in a busy daemon).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut reopened = ArtifactCache::open(&dir).unwrap();
        assert_eq!(reopened.lookup_fn(42), Some(sample_artifact()));
        let restamped = fs::metadata(&path).unwrap().modified().unwrap();
        assert_eq!(restamped, stamped, "fresh stamps are not rewritten");
        let _ = fs::remove_dir_all(&dir);
    }
}
