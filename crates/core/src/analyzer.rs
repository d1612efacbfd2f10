//! The complete aiT-style analyzer (Figure 1 end to end).

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wcet_analysis::loopbound::{BoundResult, BoundSource};
use wcet_analysis::state::AbstractState;
use wcet_analysis::valueanalysis::{self, AnalysisConfig};
use wcet_analysis::FunctionAnalysis;
use wcet_cfg::block::Terminator;
use wcet_cfg::callgraph::{CallGraph, ContextTable, CtxId};
use wcet_cfg::dom::Dominators;
use wcet_cfg::graph::{reconstruct, Cfg, Program};
use wcet_cfg::loops::LoopForest;
use wcet_cfg::CfgError;
use wcet_guidelines::annot::AnnotationSet;
use wcet_guidelines::report::PredictabilityReport;
use wcet_guidelines::rules::{check_function, check_image_level, sort_findings, Finding};
use wcet_isa::hash::StableHasher;
use wcet_isa::interp::MachineConfig;
use wcet_isa::{Addr, Image, IsaKind};
use wcet_micro::blocktime::{AccessOverrides, BlockTimes};
use wcet_micro::cacheanalysis::{CacheAnalysis, CacheCtx, CacheStates};
use wcet_micro::footprint::{self, CacheFootprint};
use wcet_micro::pipeline::{self, BranchPenalties, PipelineStates};
use wcet_path::ipet::{self, CallCosts, LpStats, PathError, WcetResult};

use crate::incr::{
    ipet_ctx_struct_key, ipet_site_full_key, unit_key, ArtifactCache, FootprintArtifact,
    FunctionArtifact, FunctionFile, IncrStats, IpetEntry, KeyContext, StoredUnits, UnitArtifact,
};
use crate::parallel::{self, WorkerPool};
use crate::phases::PhaseTrace;

/// Configuration of a [`WcetAnalyzer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// The hardware model (memory map, base timing, caches).
    pub machine: MachineConfig,
    /// Design-level annotations (Section 4.3).
    pub annotations: AnnotationSet,
    /// Also run the guideline checker and attach its report.
    pub check_guidelines: bool,
    /// Virtually unroll (peel the first iteration of) every reducible
    /// loop before the cache/pipeline and path analyses — aiT's
    /// precision-enhancing context expansion (reference \[13\] of the
    /// paper). Irreducible loops cannot be peeled; they are analyzed
    /// as-is (or rejected by the loop-bound analysis).
    pub unrolling: bool,
    /// Worker threads for the per-function phases (the wavefront
    /// scheduler): `None` = one per available core, `Some(1)` =
    /// sequential, `Some(n)` = exactly `n` workers. The report is
    /// identical for every setting — the schedule is deterministic and
    /// results merge in function-address order.
    pub parallelism: Option<usize>,
    /// Call-string context depth `k` for VIVU-style context expansion
    /// (reference \[13\]). Every depth runs the same unit pipeline; the
    /// depth only decides the units. `0` (the default) analyzes one
    /// merged unit per function, entered at the ⊤ image state with an
    /// unknown cache and pipe (the task entry alone starts cold and
    /// drained) — the classic pipeline. `k ≥ 1` analyzes one
    /// *(function, call-string)* unit per distinct suffix of up to `k`
    /// call sites, propagating the caller's register intervals, abstract
    /// cache state, and pipe into each callee context instead of ⊤.
    /// Recursive SCCs are always truncated to one merged context.
    pub context_depth: usize,
    /// Per-context cache **persistence analysis** (first-miss
    /// classification) with callee **footprint summaries**: calls age the
    /// caller's abstract cache by what the callee can actually touch
    /// instead of clobbering it, and accesses whose line provably never
    /// ages out are charged one miss per activation instead of one per
    /// iteration. Takes effect at every context depth on machines with
    /// caches (without one there is nothing to classify). Off by
    /// default, so the default reports keep the classic classifications.
    pub persistence: bool,
    /// Abstract in-order **pipeline timing** with static BTFNT branch
    /// prediction: block costs become retirement deltas computed from an
    /// abstract pipeline state carried block-to-block (and, at
    /// `context_depth ≥ 1`, into callees per context), and conditional
    /// branches pay [`wcet_isa::timing::TimingModel::mispredict_penalty`]
    /// on their statically mispredicted CFG edge. This flag only changes
    /// the *analysis*; pair it with [`MachineConfig::pipeline`] when
    /// simulating the concrete machine. Off by default; flag-off reports
    /// are byte-identical to previous versions.
    pub pipeline: bool,
    /// Which instruction-set backend the analyzed images use. The decode
    /// pipeline itself dispatches on [`Image::isa`], so this field exists
    /// for the *cache key space*: it is hashed into
    /// [`crate::incr::config_fingerprint`] so artifacts produced under one
    /// ISA can never be replayed under another. Keep it equal to the tag
    /// of the images this config analyzes (use [`AnalyzerConfig::for_isa`]).
    pub isa: IsaKind,
}

impl AnalyzerConfig {
    /// Defaults: simple machine, no annotations, guideline checking on,
    /// one worker per core.
    #[must_use]
    pub fn new() -> AnalyzerConfig {
        AnalyzerConfig {
            machine: MachineConfig::simple(),
            annotations: AnnotationSet::new(),
            check_guidelines: true,
            unrolling: false,
            parallelism: None,
            context_depth: 0,
            persistence: false,
            pipeline: false,
            isa: IsaKind::House,
        }
    }

    /// Defaults retargeted at `isa`: the machine model becomes that ISA's
    /// simple machine (its base timing over the shared embedded memory
    /// map) and the config's ISA tag is set so the artifact-cache key
    /// space forks accordingly.
    #[must_use]
    pub fn for_isa(isa: IsaKind) -> AnalyzerConfig {
        AnalyzerConfig {
            machine: MachineConfig::simple_for(isa),
            isa,
            ..AnalyzerConfig::new()
        }
    }
}

/// `Default` delegates to [`AnalyzerConfig::new`]. It was once derived,
/// which silently produced `check_guidelines = false` — every
/// `..Default::default()` call site skipped guideline checking while the
/// documented defaults claimed otherwise.
impl Default for AnalyzerConfig {
    fn default() -> AnalyzerConfig {
        AnalyzerConfig::new()
    }
}

/// Rounds of value-analysis-driven indirect-target resolution and CFG
/// re-reconstruction.
const MAX_RESOLVE_ROUNDS: usize = 3;

/// Why a full analysis failed.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Control-flow reconstruction failed.
    Cfg(CfgError),
    /// The call graph is cyclic (MISRA rule 16.2): bottom-up WCET
    /// composition is impossible without recursion-depth annotations.
    Recursion {
        /// The functions participating in cycles.
        functions: Vec<Addr>,
    },
    /// Path analysis failed for a function.
    Path {
        /// The function whose analysis failed.
        function: Addr,
        /// The underlying error (unbounded loops carry their reasons).
        error: PathError,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Cfg(e) => write!(f, "control-flow reconstruction: {e}"),
            AnalyzeError::Recursion { functions } => {
                write!(f, "recursive functions (rule 16.2): {functions:?}")
            }
            AnalyzeError::Path { function, error } => {
                write!(f, "path analysis of {function}: {error}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<CfgError> for AnalyzeError {
    fn from(e: CfgError) -> Self {
        AnalyzeError::Cfg(e)
    }
}

/// Per-function results within a report.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// WCET bound in cycles (includes callees).
    pub wcet: WcetResult,
    /// BCET bound in cycles (includes callees).
    pub bcet: WcetResult,
}

/// The complete output of one analyzer run.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The reconstructed program (after target resolution).
    pub program: Program,
    /// WCET bound of the task (the entry function), in cycles, in the
    /// global (mode-oblivious) analysis.
    pub wcet_cycles: u64,
    /// BCET bound of the task, in cycles.
    pub bcet_cycles: u64,
    /// The worst-case path through the entry function. Block ids refer to
    /// [`Self::analyzed_entry_cfg`], not necessarily `program.entry_cfg()`:
    /// virtual unrolling analyzes a peeled copy with extra blocks.
    pub worst_path: Vec<wcet_cfg::BlockId>,
    /// Per-function CFGs as the timing/path phases analyzed them, for the
    /// functions where that differs from `program`'s reconstruction —
    /// i.e. the peeled copies produced by virtual unrolling. Block ids in
    /// any `worst_path` refer to these.
    pub analyzed_cfgs: BTreeMap<Addr, wcet_cfg::Cfg>,
    /// Per-function results (global mode).
    pub functions: BTreeMap<Addr, FunctionReport>,
    /// Per-operating-mode task WCET bounds (`None` key = global).
    pub mode_wcet: BTreeMap<Option<String>, u64>,
    /// Guideline findings, when checking was enabled.
    pub guidelines: Option<PredictabilityReport>,
    /// The Figure 1 phase trace.
    pub trace: PhaseTrace,
    /// Incremental-cache statistics, when the run used an
    /// [`ArtifactCache`]. Never part of the rendered analysis text — a
    /// warm report must be byte-identical to a cold one.
    pub incr: Option<IncrStats>,
}

impl AnalysisReport {
    /// The CFG of `f` as the timing/path phases analyzed it: the peeled
    /// copy when virtual unrolling expanded it, otherwise the
    /// reconstruction in [`Self::program`]. Block ids in `worst_path`
    /// fields are valid for this CFG.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a reconstructed function of the program.
    #[must_use]
    pub fn analyzed_cfg(&self, f: Addr) -> &wcet_cfg::Cfg {
        self.analyzed_cfgs
            .get(&f)
            .or_else(|| self.program.cfg(f))
            .expect("function was reconstructed")
    }

    /// The entry function's CFG as analyzed (see [`Self::analyzed_cfg`]).
    #[must_use]
    pub fn analyzed_entry_cfg(&self) -> &wcet_cfg::Cfg {
        self.analyzed_cfg(self.program.entry)
    }
}

/// The analyzer.
#[derive(Debug, Clone, Default)]
pub struct WcetAnalyzer {
    config: AnalyzerConfig,
    /// A shared persistent [`WorkerPool`]. `None` (the default) builds a
    /// private pool per run, sized by `config.parallelism`; the serve
    /// daemon passes one pool so every request reuses the same threads.
    pool: Option<std::sync::Arc<WorkerPool>>,
}

impl WcetAnalyzer {
    /// An analyzer with default configuration.
    #[must_use]
    pub fn new() -> WcetAnalyzer {
        WcetAnalyzer {
            config: AnalyzerConfig::new(),
            pool: None,
        }
    }

    /// An analyzer with explicit configuration.
    #[must_use]
    pub fn with_config(config: AnalyzerConfig) -> WcetAnalyzer {
        WcetAnalyzer { config, pool: None }
    }

    /// Runs every fan-out on `pool` instead of a run-private pool. The
    /// report stays byte-identical at any pool size; `config.parallelism`
    /// is ignored while a shared pool is attached.
    #[must_use]
    pub fn with_pool(mut self, pool: std::sync::Arc<WorkerPool>) -> WcetAnalyzer {
        self.pool = Some(pool);
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Runs the full pipeline on a binary image.
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`]; unbounded loops and unresolved indirections
    /// surface as [`AnalyzeError::Path`] with the tier-one diagnosis
    /// attached.
    pub fn analyze(&self, image: &Image) -> Result<AnalysisReport, AnalyzeError> {
        self.analyze_impl(image, None)
    }

    /// [`Self::analyze`] against a persistent [`ArtifactCache`].
    ///
    /// Functions whose content key (bytes, resolved control flow, image
    /// data, callee summaries, configuration) matches a cached artifact
    /// skip value analysis and guideline checking; *(function, context)*
    /// units whose key (function key, entry states, callee footprints)
    /// matches skip cache/pipeline analysis too, and — when the per-site
    /// callee costs are unchanged — the IPET solve. Everything else
    /// recomputes and is stored for the next run. The report is
    /// **byte-identical** to [`Self::analyze`] on the same image and
    /// configuration, at any thread count; [`AnalysisReport::incr`]
    /// carries the hit statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::analyze`].
    pub fn analyze_incremental(
        &self,
        image: &Image,
        cache: &mut ArtifactCache,
    ) -> Result<AnalysisReport, AnalyzeError> {
        self.analyze_impl(image, Some(cache))
    }

    /// The front end — decoding, reconstruction with value-analysis-driven
    /// resolution rounds, one [`FunctionArtifact`] per function, guideline
    /// findings — followed by the unit pipeline of
    /// [`Self::analyze_contexts`] at every depth.
    fn analyze_impl(
        &self,
        image: &Image,
        cache: Option<&ArtifactCache>,
    ) -> Result<AnalysisReport, AnalyzeError> {
        let mut trace = PhaseTrace::default();
        let owned_pool;
        let pool: &WorkerPool = match &self.pool {
            Some(shared) => shared.as_ref(),
            None => {
                owned_pool = WorkerPool::new(parallel::worker_count(self.config.parallelism));
                &owned_pool
            }
        };
        let key_ctx = cache.as_ref().map(|_| KeyContext::new(image, &self.config));

        // --- Phase 1: decoding --------------------------------------
        let t0 = Instant::now();
        let decoded = image.decode_code().map_err(CfgError::Decode)?;
        trace.decoded_insts = decoded.len();
        trace.phase_times[0] = t0.elapsed();
        trace.phase_work_times[0] = trace.phase_times[0];

        // --- Phase 2: CFG reconstruction (+ resolution rounds) -------
        let t1 = Instant::now();
        let mut resolver = self.config.annotations.to_resolver();
        let mut program = reconstruct(image, &resolver)?;
        trace.unresolved_initial = program.unresolved_sites().len();
        let mut fns: BTreeMap<Addr, FnResult> = BTreeMap::new();
        let mut summaries: Arc<Summaries> = Arc::default();
        let mut value_time = Duration::ZERO;
        let mut value_work = Duration::ZERO;
        // The load-time state every function's merged analysis enters at:
        // ⊤ registers over the image's initialized data.
        let tv = Instant::now();
        let base_entry = valueanalysis::entry_state_from_image(image);
        value_time += tv.elapsed();
        for round in 0..MAX_RESOLVE_ROUNDS {
            // Phase 3 runs inside the loop: value analysis may resolve
            // indirect targets, requiring re-reconstruction. Functions
            // are analyzed independently, so every round fans out flat:
            // each worker keys its function, then serves the stored file
            // or runs the value analysis. The whole-program input (callee
            // write summaries, read by the value analysis and the
            // function keys) is built once per round.
            let tv = Instant::now();
            summaries = Arc::new(valueanalysis::compute_summaries(&program));
            let functions: Vec<(Addr, &Cfg)> =
                program.functions.iter().map(|(&f, cfg)| (f, cfg)).collect();
            let (results, work) = pool.map_in_order(&functions, |&(f, cfg)| {
                let key = key_ctx.map(|ctx| ctx.function_key(cfg, &summaries));
                let stored = key
                    .zip(cache)
                    .and_then(|(key, store)| store.lookup_fn(key))
                    .filter(|file| self.footprints_fit(file.art.footprints.as_ref()));
                if let Some(FunctionFile { art, units }) = stored {
                    return FnResult {
                        key,
                        art,
                        units,
                        fresh: None,
                    };
                }
                let fa = valueanalysis::analyze_cfg(
                    cfg.clone(),
                    f,
                    base_entry.clone(),
                    AnalysisConfig::default(),
                    summaries.clone(),
                );
                FnResult {
                    key,
                    art: self.function_artifact(&fa),
                    units: StoredUnits::default(),
                    fresh: Some(fa),
                }
            });
            fns = functions.iter().map(|&(f, _)| f).zip(results).collect();
            value_time += tv.elapsed();
            value_work += work;
            trace.resolve_rounds = round + 1;

            if program.unresolved_sites().is_empty() {
                break;
            }
            let mut grew = false;
            for art in fns.values().map(|r| &r.art) {
                for (&at, targets) in &art.hint_calls {
                    if resolver.call_targets.get(&at) != Some(targets) {
                        resolver.add_call_targets(at, targets.iter().copied());
                        grew = true;
                    }
                }
                for (&at, targets) in &art.hint_jumps {
                    if resolver.jump_targets.get(&at) != Some(targets) {
                        resolver.add_jump_targets(at, targets.iter().copied());
                        grew = true;
                    }
                }
            }
            // Never reconstruct on the final round: every phase below
            // reads the per-function results, which must stay in sync
            // with `program` (a new reconstruction could contain newly
            // reachable functions that were never analyzed).
            if !grew || round + 1 == MAX_RESOLVE_ROUNDS {
                break;
            }
            program = reconstruct(image, &resolver)?;
        }
        trace.unresolved_final = program.unresolved_sites().len();
        trace.functions = program.functions.len();
        trace.blocks = program.total_blocks();
        trace.edges = program.functions.values().map(|c| c.edges().len()).sum();
        trace.phase_times[1] = t1.elapsed().checked_sub(value_time).unwrap_or_default();
        trace.phase_work_times[1] = trace.phase_times[1];
        trace.phase_times[2] = value_time;
        trace.phase_work_times[2] = value_work;
        for r in fns.values() {
            trace.loops += r.art.loops_total;
            trace.loops_bounded_auto += r.art.loops_auto;
        }

        let callgraph = CallGraph::build(&program);

        // --- Guideline checking (report only) -------------------------
        // Per-function findings come from the function artifacts; the
        // image-level rules are recomputed every run. The composition and
        // sort match `check_program` exactly.
        let guideline_report = self.config.check_guidelines.then(|| {
            let mut findings: Vec<Finding> = fns
                .values()
                .flat_map(|r| r.art.findings.iter().cloned())
                .collect();
            findings.extend(check_image_level(image, &program, &callgraph));
            sort_findings(&mut findings);
            PredictabilityReport::new(findings)
        });

        // --- Recursion check ------------------------------------------
        // Recursive functions need a `recursion … depth N` annotation —
        // the design-level knowledge the paper says recursion requires
        // (Section 3.2). Without it the analysis must refuse.
        let unannotated: Vec<Addr> = callgraph
            .recursive_functions()
            .into_iter()
            .filter(|&f| self.config.annotations.recursion_depth(f).is_none())
            .collect();
        if !unannotated.is_empty() {
            return Err(AnalyzeError::Recursion {
                functions: unannotated,
            });
        }

        self.analyze_contexts(CtxPipeline {
            program,
            callgraph,
            fns,
            summaries,
            base_entry,
            guideline_report,
            trace,
            cache,
            key_ctx,
            pool,
        })
    }
}

// ---------------------------------------------------------------------
// The unit pipeline: one unit per (function, context)
// ---------------------------------------------------------------------

/// The callee may-write summaries of one reconstruction round.
type Summaries = std::collections::HashMap<Addr, valueanalysis::FunctionSummary>;

/// Everything the front end hands to the unit back end: the
/// reconstructed program with one [`FnResult`] per function and the
/// inputs they were analyzed under, the context-oblivious guideline
/// report, and the incremental-cache plumbing.
struct CtxPipeline<'a> {
    program: Program,
    callgraph: CallGraph,
    fns: BTreeMap<Addr, FnResult>,
    /// The final round's callee summaries, shared with every unit.
    summaries: Arc<Summaries>,
    /// The image's ⊤ entry state (see `entry_state_from_image`).
    base_entry: AbstractState,
    guideline_report: Option<PredictabilityReport>,
    trace: PhaseTrace,
    cache: Option<&'a ArtifactCache>,
    key_ctx: Option<KeyContext>,
    pool: &'a WorkerPool,
}

/// The run-wide inputs every unit analysis reads.
struct UnitEnv<'a> {
    program: &'a Program,
    summaries: &'a Arc<Summaries>,
    base_entry: &'a AbstractState,
    overrides: &'a AccessOverrides,
    /// Per-site callee footprints (persistence runs on a cached machine).
    footprints: Option<&'a BTreeMap<Addr, SiteFootprints>>,
    /// Whether units hand per-call-site states to their callees: at
    /// depth 0 nothing propagates, so nothing reads them.
    propagate: bool,
}

/// The entry inputs of one *(function, context)* unit: the joined entry
/// states from the producing call edges.
struct CtxInput {
    /// The joined value state; `None` is the image's ⊤ entry state — no
    /// producer state to join, which is every context at depth 0.
    entry_state: Option<AbstractState>,
    icache_entry: Option<CacheStates>,
    dcache_entry: Option<CacheStates>,
    /// The abstract entry pipe (pipeline runs only): joined from the
    /// producing callers' post-call-transfer snapshots.
    pipeline_entry: Option<PipelineStates>,
}

impl CtxInput {
    /// A stable digest of every entry state — the context component of
    /// the [`unit_key`]. `top_digest` is the digest of the ⊤ entry state.
    fn digest(&self, top_digest: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("ctx-entry");
        h.write_u64(
            self.entry_state
                .as_ref()
                .map_or(top_digest, AbstractState::digest),
        );
        for entry in [&self.icache_entry, &self.dcache_entry] {
            match entry {
                Some(pair) => {
                    h.write_u32(1);
                    h.write_u64(pair.digest());
                }
                None => h.write_u32(0),
            }
        }
        match &self.pipeline_entry {
            Some(p) => {
                h.write_u32(1);
                h.write_u64(p.digest());
            }
            None => h.write_u32(0),
        }
        h.finish()
    }
}

/// One *(function, context)* unit ready for the path phase: the analyzed
/// CFG and loop forest plus everything the unit's value, cache, and
/// pipeline analyses produced (loop bounds, block times, and the
/// caller-side propagation hooks per call site) — computed fresh, or
/// replayed from its unit artifact together with its IPET solutions.
struct CtxUnit {
    cfg: Cfg,
    forest: LoopForest,
    /// The [`unit_key`] (cache runs only): addresses the unit artifact.
    key: Option<u64>,
    /// The artifact must be written after the path phase: the unit was
    /// analyzed this run, or gained an IPET solution.
    unsaved: bool,
    out: UnitArtifact,
}

/// One schedulable path-analysis item of the context pipeline.
enum CtxGroup {
    /// A single non-recursive context.
    Single(CtxId),
    /// A recursive SCC, processed jointly (each member has exactly one,
    /// merged, context).
    Scc(Vec<Addr>),
}

/// What one context group's path analysis produced.
struct CtxOutcome {
    reports: Vec<(CtxId, FunctionReport)>,
    /// LP solver effort over the group's solves (replayed from the cache
    /// on a hit, so warm and cold traces match).
    lp: LpStats,
    /// Served from the unit artifact's stored solution, not solved.
    hit: bool,
    /// A solution solved this run for the unit artifact to record (single
    /// contexts of cache runs).
    new_entry: Option<IpetEntry>,
}

/// One function's call sites priced with the joined transitive
/// footprints of their possible callees, per configured cache. Keys are
/// call-instruction addresses (virtual unrolling duplicates sites with
/// identical addresses, so peeled copies resolve too). Every resolved
/// site is present; an unresolvable one carries the all-`Any` footprint,
/// which the cache analysis treats exactly like the opaque clobber.
#[derive(Default)]
struct SiteFootprints {
    icache: BTreeMap<Addr, CacheFootprint>,
    dcache: BTreeMap<Addr, CacheFootprint>,
}

impl SiteFootprints {
    /// A stable digest of every site's footprints — the callee component
    /// of the [`unit_key`].
    fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        for sites in [&self.icache, &self.dcache] {
            h.write_usize(sites.len());
            for (site, fp) in sites {
                h.write_u32(site.0);
                fp.digest_into(&mut h);
            }
        }
        h.finish()
    }
}

/// Unions `other` into `acc`, per configured cache.
fn union_footprint_artifacts(acc: &mut FootprintArtifact, other: &FootprintArtifact) {
    if let (Some(a), Some(b)) = (&mut acc.icache, &other.icache) {
        a.union(b);
    }
    if let (Some(a), Some(b)) = (&mut acc.dcache, &other.dcache) {
        a.union(b);
    }
}

impl WcetAnalyzer {
    /// The unit pipeline behind [`Self::analyze`]: enumerates call-string
    /// contexts (one per function at depth 0), runs the value and
    /// cache/pipeline analyses per *(function, context)* unit top-down
    /// (callers first, so entry states are ready), and solves one IPET
    /// system per unit bottom-up with per-call-site callee costs. Reports
    /// merge per function by max (WCET) / min (BCET); the task headline
    /// numbers come from the entry function's root context.
    fn analyze_contexts(&self, p: CtxPipeline<'_>) -> Result<AnalysisReport, AnalyzeError> {
        let CtxPipeline {
            program,
            callgraph,
            mut fns,
            summaries,
            base_entry,
            guideline_report,
            mut trace,
            cache,
            key_ctx,
            pool,
        } = p;
        let mut stats = IncrStats::default();
        let contexts = callgraph.enumerate_contexts(
            program.functions.keys(),
            program.entry,
            self.config.context_depth,
        );
        let overrides = self.config.annotations.access_overrides();
        let levels = callgraph.bottom_up_levels();

        // --- Footprint summaries (persistence runs only) ---------------
        // Bottom-up over the call graph, *before* the top-down cache
        // wavefront: every call site is priced with the joined transitive
        // footprint of its possible callees, so the per-context cache
        // analysis ages the caller's ACS instead of clobbering it.
        let t3 = Instant::now();
        let footprints = self
            .tracks_footprints()
            .then(|| self.compute_footprints(&program, &fns, &levels));

        // The callee component of every unit key (cache runs only): the
        // footprints each function's call sites are priced with.
        let footprint_digests: BTreeMap<Addr, u64> = match (&key_ctx, &footprints) {
            (Some(_), Some(fps)) => fps.iter().map(|(&f, s)| (f, s.digest())).collect(),
            _ => BTreeMap::new(),
        };
        // The value component of every unit key whose context enters at
        // the ⊤ state (cache runs only).
        let top_digest = key_ctx.map(|_| base_entry.digest());
        let env = UnitEnv {
            program: &program,
            summaries: &summaries,
            base_entry: &base_entry,
            overrides: &overrides,
            footprints: footprints.as_ref(),
            propagate: contexts.depth() > 0,
        };

        // --- Phases 3–4 per unit: the top-down wavefront ---------------
        // Reversing the bottom-up levels puts every caller context in an
        // earlier wave than the contexts it produces, so entry states
        // join over already-analyzed (or replayed) units; at depth 0
        // nothing propagates and every unit joins one wave. Units within
        // a wave fan out in parallel: each worker joins its context's
        // entry states from earlier waves, keys the unit, and replays it
        // from its function's stored units when they hold its key or
        // analyzes it otherwise — no store I/O. Merges land in ctx-id
        // order, so the report is thread-count independent.
        let mut ctx_work = Duration::ZERO;
        let mut units: BTreeMap<CtxId, CtxUnit> = BTreeMap::new();
        let mut analyzed_cfgs: BTreeMap<Addr, Cfg> = BTreeMap::new();
        let waves: Vec<Vec<CtxId>> = if env.propagate {
            levels
                .iter()
                .rev()
                .map(|level| {
                    level
                        .iter()
                        .flatten()
                        .flat_map(|&f| contexts.ctxs_of(f).iter().copied())
                        .collect()
                })
                .collect()
        } else {
            vec![contexts.iter().map(|(id, _)| id).collect()]
        };
        for wave in &waves {
            let (results, work) = pool.map_in_order(wave, |&id| {
                let input = ctx_entry_input(
                    id,
                    &contexts,
                    &callgraph,
                    &units,
                    &self.config.machine,
                    program.entry,
                    self.config.pipeline,
                );
                let f = contexts.info(id).function;
                let fn_result = &fns[&f];
                let key = fn_result.key.zip(top_digest).map(|(fn_key, top)| {
                    let footprint = footprint_digests.get(&f).copied().unwrap_or(0);
                    unit_key(fn_key, input.digest(top), footprint)
                });
                let replayed = key.and_then(|key| {
                    let artifact = fn_result.units.get(key, &self.config.machine)?;
                    self.replay_ctx_unit(key, artifact, program.cfg(f).expect("reconstructed"))
                });
                if let Some(unit) = replayed {
                    return (unit, true);
                }
                // A context entered at the ⊤ state runs exactly the
                // phase-3 fixpoint (same CFG, entry state, summaries):
                // reuse it rather than recompute it.
                let phase3 = fn_result
                    .fresh
                    .as_ref()
                    .filter(|_| input.entry_state.is_none());
                (self.analyze_ctx_unit(&input, key, f, phase3, &env), false)
            });
            ctx_work += work;
            for (&id, (unit, replayed)) in wave.iter().zip(results) {
                if replayed {
                    stats.units_replayed += 1;
                } else {
                    stats.units_analyzed += 1;
                }
                let f = contexts.info(id).function;
                let reconstructed = program.cfg(f).expect("reconstructed");
                if unit.cfg.block_count() != reconstructed.block_count()
                    && !analyzed_cfgs.contains_key(&f)
                {
                    // Peeling is pure CFG surgery: every context of `f`
                    // derives the same expanded CFG.
                    analyzed_cfgs.insert(f, unit.cfg.clone());
                }
                units.insert(id, unit);
            }
        }
        for unit in units.values() {
            if let Some((h, m, fm, nc)) = unit.out.cache_summary {
                trace.cache_always_hit += h;
                trace.cache_always_miss += m;
                trace.cache_first_miss += fm;
                trace.cache_not_classified += nc;
            }
        }
        if self.config.pipeline {
            for unit in units.values() {
                trace.pipeline_edges += pipeline::predicted_edge_count(&unit.cfg);
            }
        }
        trace.phase_times[3] = t3.elapsed();
        trace.phase_work_times[3] = ctx_work;
        // The phase-3 analyses, per-block states included, are dead from
        // here on; the fresh functions' artifacts are stored after phase 5.
        let changed: BTreeSet<Addr> = fns
            .iter_mut()
            .filter_map(|(&f, r)| r.fresh.take().map(|_| f))
            .collect();

        // --- Dirtiness (a statistic) -----------------------------------
        // Unit keys and IPET full keys cover every input of what they
        // address, so nothing here gates a cache lookup; the count only
        // reports the cone a change can reach.
        if key_ctx.is_some() {
            stats.functions = fns.len();
            stats.fn_hits = fns.len() - changed.len();
            stats.fn_misses = changed.len();
            stats.dirty = callgraph.transitive_callers(&changed).len();
        }

        // Annotation-sourced bound statistic: per function (not per
        // context — the count describes the code), over the first
        // context's analyzed forest.
        for &f in program.functions.keys() {
            let unit = &units[&contexts.ctxs_of(f)[0]];
            let mut bounds = unit.out.bounds.clone();
            self.config
                .annotations
                .apply_loop_bounds(&unit.cfg, &unit.forest, &mut bounds, None);
            trace.loops_bounded_annot += bounds
                .results()
                .iter()
                .filter(|(_, r)| {
                    matches!(
                        r,
                        BoundResult::Bounded {
                            source: BoundSource::Annotation,
                            ..
                        }
                    )
                })
                .count();
        }

        // --- Phase 5: per-context path analysis, bottom-up -------------
        let t4 = Instant::now();
        let mut path_work = Duration::ZERO;
        let mut mode_wcet: BTreeMap<Option<String>, u64> = BTreeMap::new();
        let mut global_functions: BTreeMap<Addr, FunctionReport> = BTreeMap::new();
        let mut root_report: Option<FunctionReport> = None;
        // The entry function's *root* context (empty call string — id
        // order puts it first): the task activation the headline bounds
        // describe.
        let root_ctx = contexts.ctxs_of(program.entry)[0];

        let mut modes: Vec<Option<String>> = vec![None];
        modes.extend(
            self.config
                .annotations
                .modes()
                .iter()
                .map(|m| Some(m.clone())),
        );

        for mode in &modes {
            let mut wcet_costs: BTreeMap<CtxId, u64> = BTreeMap::new();
            let mut bcet_costs: BTreeMap<CtxId, u64> = BTreeMap::new();
            let mut per_ctx: BTreeMap<CtxId, FunctionReport> = BTreeMap::new();
            for level in &levels {
                let mut groups: Vec<CtxGroup> = Vec::new();
                for group in level {
                    if group.len() == 1 && !callgraph.is_recursive(group[0]) {
                        groups.extend(
                            contexts
                                .ctxs_of(group[0])
                                .iter()
                                .map(|&c| CtxGroup::Single(c)),
                        );
                    } else {
                        groups.push(CtxGroup::Scc(group.clone()));
                    }
                }
                // Each group serves its unit's stored solution or solves;
                // the coordinator only records new solutions and merges.
                let (outcomes, work) = pool.map_in_order(&groups, |group| {
                    self.solve_ctx_group(
                        group,
                        mode,
                        &units,
                        &contexts,
                        &callgraph,
                        &wcet_costs,
                        &bcet_costs,
                    )
                });
                path_work += work;
                for (group, outcome) in groups.iter().zip(outcomes) {
                    let outcome = outcome?;
                    if outcome.hit {
                        stats.ipet_hits += 1;
                    } else {
                        stats.ipet_solves += 1;
                    }
                    if let (Some(entry), CtxGroup::Single(ctx)) = (outcome.new_entry, group) {
                        let unit = units.get_mut(ctx).expect("every context has a unit");
                        unit.out.solutions.insert(mode.clone(), entry);
                        unit.unsaved = true;
                    }
                    trace.lp_pivots += outcome.lp.pivots;
                    trace.lp_refactorizations += outcome.lp.refactorizations;
                    trace.lp_presolve_removed += outcome.lp.presolve_removed;
                    for (ctx, report) in outcome.reports {
                        wcet_costs.insert(ctx, report.wcet.wcet_cycles);
                        bcet_costs.insert(ctx, report.bcet.wcet_cycles);
                        per_ctx.insert(ctx, report);
                    }
                }
            }
            mode_wcet.insert(mode.clone(), per_ctx[&root_ctx].wcet.wcet_cycles);
            if mode.is_none() {
                // Per-function reports merge over contexts: WCET by max,
                // BCET by min — a bound for *any* invocation.
                for &f in program.functions.keys() {
                    let mut merged: Option<FunctionReport> = None;
                    for &ctx in contexts.ctxs_of(f) {
                        let r = &per_ctx[&ctx];
                        merged = Some(match merged {
                            None => r.clone(),
                            Some(mut m) => {
                                if r.wcet.wcet_cycles > m.wcet.wcet_cycles {
                                    m.wcet = r.wcet.clone();
                                }
                                if r.bcet.wcet_cycles < m.bcet.wcet_cycles {
                                    m.bcet = r.bcet.clone();
                                }
                                m
                            }
                        });
                    }
                    global_functions.insert(f, merged.expect("every function has a context"));
                }
                root_report = Some(per_ctx[&root_ctx].clone());
            }
        }

        // --- Store: one file per changed function ----------------------
        // A function's file holds its front matter and this run's units
        // under their distinct keys. Contexts with equal keys share one
        // unit; the first of them (in id order) speaks for it, so a warm
        // run rewrites a file only when its function was analyzed or a
        // speaking unit was analyzed or gained a solution.
        if let Some(store) = cache {
            for (f, r) in &fns {
                let mut rewrite = changed.contains(f);
                let mut stored: BTreeMap<u64, &UnitArtifact> = BTreeMap::new();
                for ctx in contexts.ctxs_of(*f) {
                    let unit = &units[ctx];
                    let key = unit.key.expect("units are keyed under a cache");
                    if let Entry::Vacant(slot) = stored.entry(key) {
                        slot.insert(&unit.out);
                        rewrite |= unit.unsaved;
                    }
                }
                if rewrite {
                    let fn_key = r
                        .key
                        .expect("keys are computed for every function under a cache");
                    store.store_fn(fn_key, &r.art, &stored);
                }
            }
        }
        trace.phase_times[4] = t4.elapsed();
        trace.phase_work_times[4] = path_work;

        let entry_cfg = &units[&root_ctx].cfg;
        trace.ilp_vars = entry_cfg.edges().len() + entry_cfg.block_count() + 1;
        trace.ilp_constraints = entry_cfg.block_count() * 2;

        let root_report = root_report.expect("global mode ran");
        Ok(AnalysisReport {
            wcet_cycles: root_report.wcet.wcet_cycles,
            bcet_cycles: root_report.bcet.wcet_cycles,
            worst_path: root_report.wcet.worst_path.clone(),
            analyzed_cfgs,
            functions: global_functions,
            mode_wcet,
            guidelines: guideline_report,
            trace,
            program,
            incr: key_ctx.map(|_| stats),
        })
    }

    /// One function's artifact, built by the worker that ran its phase-3
    /// value analysis `fa` (over the un-peeled CFG): resolver hints,
    /// guideline findings (when checking), loop statistics, and own
    /// footprints (when [`Self::tracks_footprints`]).
    fn function_artifact(&self, fa: &FunctionAnalysis) -> FunctionArtifact {
        let hints = fa.resolver_hints();
        let loops_auto = fa
            .loop_bounds()
            .results()
            .iter()
            .filter(|(_, r)| {
                matches!(
                    r,
                    BoundResult::Bounded {
                        source: BoundSource::Auto,
                        ..
                    }
                )
            })
            .count();
        FunctionArtifact {
            hint_calls: hints.call_targets.into_iter().collect(),
            hint_jumps: hints.jump_targets.into_iter().collect(),
            findings: if self.config.check_guidelines {
                check_function(fa)
            } else {
                Vec::new()
            },
            loops_total: fa.forest().len(),
            loops_auto,
            footprints: self.tracks_footprints().then(|| self.own_footprints(fa)),
        }
    }

    /// Whether calls are priced with callee footprints: persistence runs
    /// on a machine with a cache.
    fn tracks_footprints(&self) -> bool {
        let machine = &self.config.machine;
        self.config.persistence && (machine.icache.is_some() || machine.dcache.is_some())
    }

    /// A function's *own* cache footprints, from its CFG and abstract
    /// data addresses, for each cache the machine configures.
    fn own_footprints(&self, fa: &FunctionAnalysis) -> FootprintArtifact {
        let machine = &self.config.machine;
        FootprintArtifact {
            icache: machine
                .icache
                .as_ref()
                .map(|cc| footprint::instruction_footprint(fa.cfg(), cc, &machine.memmap)),
            dcache: machine.dcache.as_ref().map(|cc| {
                footprint::data_footprint(fa.cfg(), cc, &machine.memmap, &fa.access_values())
            }),
        }
    }

    /// The all-`Any` artifact: a callee about which nothing is known.
    fn unknown_footprints(&self) -> FootprintArtifact {
        let machine = &self.config.machine;
        FootprintArtifact {
            icache: machine.icache.as_ref().map(CacheFootprint::unknown),
            dcache: machine.dcache.as_ref().map(CacheFootprint::unknown),
        }
    }

    /// Does a (possibly replayed) artifact's footprint record fit this
    /// run? Runs that track footprints need one describing exactly the
    /// configured caches; every other run records none. A misfit reads
    /// as a cache miss.
    fn footprints_fit(&self, art: Option<&FootprintArtifact>) -> bool {
        let machine = &self.config.machine;
        let fits =
            |fp: &Option<CacheFootprint>, cc: &Option<wcet_isa::cache::CacheConfig>| match (fp, cc)
            {
                (Some(fp), Some(cc)) => fp.config() == cc,
                (None, None) => true,
                _ => false,
            };
        match art {
            Some(art) => {
                self.tracks_footprints()
                    && fits(&art.icache, &machine.icache)
                    && fits(&art.dcache, &machine.dcache)
            }
            None => !self.tracks_footprints(),
        }
    }

    /// Computes the per-caller, per-call-site callee footprints the
    /// persistence analysis prices calls with, from every function's own
    /// footprints (recorded in its artifact):
    ///
    /// 1. **transitive closure** bottom-up over the call graph's `levels`
    ///    (a recursive SCC unions all of its members); functions with
    ///    unresolved call sites degrade to the all-`Any` footprint;
    /// 2. **per-site joins** over each site's possible callees.
    fn compute_footprints(
        &self,
        program: &Program,
        fns: &BTreeMap<Addr, FnResult>,
        levels: &[Vec<Vec<Addr>>],
    ) -> BTreeMap<Addr, SiteFootprints> {
        let own = |f: Addr| {
            fns[&f]
                .art
                .footprints
                .as_ref()
                .expect("footprint-tracking runs record own footprints")
        };
        // Step 1: transitive closure, bottom-up (callees before callers;
        // groups within a level share no call edges).
        let mut trans: BTreeMap<Addr, FootprintArtifact> = BTreeMap::new();
        for level in levels {
            for group in level {
                let mut acc = own(group[0]).clone();
                for &f in group.iter().skip(1) {
                    union_footprint_artifacts(&mut acc, own(f));
                }
                for &f in group {
                    let cfg = program.cfg(f).expect("reconstructed");
                    if !cfg.unresolved.is_empty() {
                        union_footprint_artifacts(&mut acc, &self.unknown_footprints());
                    }
                    for (_, targets) in cfg.call_sites() {
                        for callee in targets {
                            if group.contains(&callee) {
                                continue; // intra-SCC: already unioned
                            }
                            match trans.get(&callee) {
                                Some(t) => union_footprint_artifacts(&mut acc, t),
                                // A call into something the reconstruction
                                // did not produce: treat as opaque.
                                None => {
                                    union_footprint_artifacts(&mut acc, &self.unknown_footprints());
                                }
                            }
                        }
                    }
                }
                for &f in group {
                    trans.insert(f, acc.clone());
                }
            }
        }

        // Step 2: per-site joins.
        let mut result: BTreeMap<Addr, SiteFootprints> = BTreeMap::new();
        for &f in program.functions.keys() {
            let cfg = program.cfg(f).expect("reconstructed");
            let mut sites = SiteFootprints::default();
            for (site, targets) in cfg.call_sites() {
                let mut acc: Option<FootprintArtifact> = None;
                let mut complete = !targets.is_empty();
                for callee in targets {
                    match trans.get(&callee) {
                        Some(t) => match &mut acc {
                            Some(a) => union_footprint_artifacts(a, t),
                            None => acc = Some(t.clone()),
                        },
                        None => complete = false,
                    }
                }
                let joined = match (complete, acc) {
                    (true, Some(a)) => a,
                    _ => self.unknown_footprints(),
                };
                if let Some(fp) = joined.icache {
                    sites.icache.insert(site, fp);
                }
                if let Some(fp) = joined.dcache {
                    sites.dcache.insert(site, fp);
                }
            }
            result.insert(f, sites);
        }
        result
    }

    /// Analyzes one *(function, context)* unit of `f`: value analysis
    /// from the context's entry state (or `phase3`, the function's
    /// phase-3 analysis, when the context enters at ⊤ — the same
    /// fixpoint), optional virtual unrolling (re-analyzed under the same
    /// entry state), cache fixpoints seeded with the entry ACS pair, and
    /// block times.
    fn analyze_ctx_unit(
        &self,
        input: &CtxInput,
        key: Option<u64>,
        f: Addr,
        phase3: Option<&FunctionAnalysis>,
        env: &UnitEnv<'_>,
    ) -> CtxUnit {
        let machine = &self.config.machine;
        let site_fps = env.footprints.and_then(|m| m.get(&f));
        // Footprints exist exactly when the persistence analysis is on
        // (and a cache is configured).
        let persistence = env.footprints.is_some();
        let value_analysis = |cfg: Cfg| {
            valueanalysis::analyze_cfg(
                cfg,
                f,
                input
                    .entry_state
                    .clone()
                    .unwrap_or_else(|| env.base_entry.clone()),
                AnalysisConfig::default(),
                env.summaries.clone(),
            )
        };
        let mut fa = match phase3 {
            Some(fa) => Cow::Borrowed(fa),
            None => Cow::Owned(value_analysis(
                env.program.cfg(f).expect("reconstructed").clone(),
            )),
        };
        if let Some(peeled) = self.peeled(fa.cfg(), fa.forest()) {
            fa = Cow::Owned(value_analysis(peeled));
        }
        let accesses = fa.access_values();
        let (icache, icache_calls) = match &machine.icache {
            Some(cc) => {
                let r = CacheAnalysis::instruction_with(
                    fa.cfg(),
                    cc,
                    &machine.memmap,
                    &CacheCtx {
                        entry: input.icache_entry.as_ref(),
                        call_footprints: site_fps.map(|s| &s.icache),
                        persistence,
                    },
                );
                (Some(r.analysis), Some(propagated(env, r.call_states)))
            }
            None => (None, None),
        };
        let (dcache, dcache_calls) = match &machine.dcache {
            Some(cc) => {
                let r = CacheAnalysis::data_with(
                    fa.cfg(),
                    cc,
                    &machine.memmap,
                    &accesses,
                    &CacheCtx {
                        entry: input.dcache_entry.as_ref(),
                        call_footprints: site_fps.map(|s| &s.dcache),
                        persistence,
                    },
                );
                (Some(r.analysis), Some(propagated(env, r.call_states)))
            }
            None => (None, None),
        };
        let (times, pipeline_calls) = if self.config.pipeline {
            let r = pipeline::analyze(
                &fa,
                machine,
                env.overrides,
                icache.as_ref(),
                dcache.as_ref(),
                input.pipeline_entry.as_ref(),
            );
            (r.times, Some(propagated(env, r.call_states)))
        } else {
            let times = BlockTimes::compute_from_parts(
                &fa,
                machine,
                env.overrides,
                icache.as_ref(),
                dcache.as_ref(),
            );
            (times, None)
        };
        let out = UnitArtifact {
            bounds: fa.loop_bounds(),
            times,
            cache_summary: icache.as_ref().map(CacheAnalysis::summary4),
            pre_call: if env.propagate {
                fa.pre_call_states()
            } else {
                BTreeMap::new()
            },
            icache_calls,
            dcache_calls,
            pipeline_calls,
            solutions: BTreeMap::new(),
        };
        // The per-block abstract states are dead from here on; only the
        // CFG and forest travel to the path phase.
        let (cfg, forest) = match fa {
            Cow::Owned(fa) => fa.into_cfg_and_forest(),
            Cow::Borrowed(fa) => (fa.cfg().clone(), fa.forest().clone()),
        };
        CtxUnit {
            cfg,
            forest,
            key,
            unsaved: true,
            out,
        }
    }

    /// The CFG virtual unrolling analyzes in place of `cfg`: its peeled
    /// copy, when unrolling is on and peeling adds blocks. A pure function
    /// of the CFG, so a replay re-derives exactly what the analysis used.
    fn peeled(&self, cfg: &Cfg, forest: &LoopForest) -> Option<Cfg> {
        if !self.config.unrolling {
            return None;
        }
        let (peeled, _skipped) = wcet_cfg::unroll::peel_all(cfg, forest);
        (peeled.block_count() != cfg.block_count()).then_some(peeled)
    }

    /// Rebuilds a unit from its artifact against the re-derived CFG and
    /// loop forest (peeled as [`Self::peeled`] decides). `None`, a miss,
    /// when the artifact does not fit: a block or loop count that
    /// differs, a call-site state for a site the CFG lacks, or a state
    /// family this configuration does not track. The caller then analyzes
    /// the unit and overwrites the file. Stored IPET solutions are checked
    /// when used (`entry_fits`); a bad one only costs its re-solve.
    fn replay_ctx_unit(&self, key: u64, out: UnitArtifact, orig: &Cfg) -> Option<CtxUnit> {
        let machine = &self.config.machine;
        let forest_of = |cfg: &Cfg| LoopForest::compute(cfg, &Dominators::compute(cfg));
        let orig_forest = forest_of(orig);
        let (cfg, forest) = match self.peeled(orig, &orig_forest) {
            Some(peeled) => {
                let forest = forest_of(&peeled);
                (peeled, forest)
            }
            None => (orig.clone(), orig_forest),
        };
        let results = out.bounds.results();
        let bounds_fit =
            results.len() == forest.len() && results.iter().all(|(id, _)| id.0 < forest.len());
        let families_fit = out.cache_summary.is_some() == machine.icache.is_some()
            && out.pipeline_calls.is_some() == self.config.pipeline;
        let call_sites: BTreeSet<Addr> = cfg
            .iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Call { .. } | Terminator::CallInd { .. }))
            .map(|(_, b)| b.site_addr())
            .collect();
        let sites_fit = out.pre_call.keys().all(|s| call_sites.contains(s))
            && [&out.icache_calls, &out.dcache_calls]
                .into_iter()
                .flatten()
                .all(|m| m.keys().all(|s| call_sites.contains(s)))
            && out
                .pipeline_calls
                .iter()
                .all(|m| m.keys().all(|s| call_sites.contains(s)));
        let fits = out.times.len() == cfg.block_count() && bounds_fit && families_fit && sites_fit;
        fits.then_some(CtxUnit {
            cfg,
            forest,
            key: Some(key),
            unsaved: false,
            out,
        })
    }

    /// Path-analyzes one context group for `mode`: a single context, or
    /// a recursive SCC processed jointly (its members need each other's
    /// per-activation body costs). Callee costs from every earlier level
    /// are complete in `wcet_costs`/`bcet_costs`; same-level groups share
    /// no call edges, so nothing else is needed. A single context serves
    /// the solution its unit artifact stores for exactly these inputs,
    /// and otherwise solves and hands back the new entry.
    #[allow(clippy::too_many_arguments)] // phase state, plumbed not stored
    fn solve_ctx_group(
        &self,
        group: &CtxGroup,
        mode: &Option<String>,
        units: &BTreeMap<CtxId, CtxUnit>,
        contexts: &ContextTable,
        callgraph: &CallGraph,
        wcet_costs: &BTreeMap<CtxId, u64>,
        bcet_costs: &BTreeMap<CtxId, u64>,
    ) -> Result<CtxOutcome, AnalyzeError> {
        // Sites left unpriced (a missing callee bound) make the solver
        // surface `PathError::MissingCallee`.
        let solve_one = |ctx: CtxId,
                         costs: &[(Addr, u64, u64)],
                         lp: &mut LpStats|
         -> Result<FunctionReport, AnalyzeError> {
            let f = contexts.info(ctx).function;
            let unit = &units[&ctx];
            let (cfg, forest) = (&unit.cfg, &unit.forest);
            let mut bounds = unit.out.bounds.clone();
            self.config
                .annotations
                .apply_loop_bounds(cfg, forest, &mut bounds, mode.as_deref());
            let facts = self.config.annotations.flow_facts(cfg, mode.as_deref());
            let (mut w_costs, mut b_costs) = (CallCosts::new(), CallCosts::new());
            for &(site, sw, sb) in costs {
                w_costs.insert_site(site, sw);
                b_costs.insert_site(site, sb);
            }
            let penalties = if self.config.pipeline {
                pipeline::branch_penalties(cfg, &self.config.machine.timing)
            } else {
                BranchPenalties::default()
            };
            let wcet = ipet::wcet_full(
                cfg,
                forest,
                &unit.out.times,
                &bounds,
                &facts,
                &w_costs,
                &penalties.wcet,
                lp,
            )
            .map_err(|error| AnalyzeError::Path { function: f, error })?;
            let bcet = ipet::bcet_full(
                cfg,
                forest,
                &unit.out.times,
                &bounds,
                &facts,
                &b_costs,
                &penalties.bcet,
                lp,
            )
            .map_err(|error| AnalyzeError::Path { function: f, error })?;
            Ok(FunctionReport { wcet, bcet })
        };

        let mut lp = LpStats::default();
        match group {
            CtxGroup::Single(ctx) => {
                let unit = &units[ctx];
                let (costs, all_priced) =
                    site_costs(unit, *ctx, contexts, wcet_costs, bcet_costs, &[]);
                // The unit key fixes the CFG, bounds, and block times; the
                // full key adds the mode and the site costs. Together they
                // cover every input of the solve, so any hit is exact.
                let full_key = unit.key.filter(|_| all_priced).map(|key| {
                    ipet_site_full_key(ipet_ctx_struct_key(key, mode.as_deref()), &costs)
                });
                let stored = unit.out.solutions.get(mode);
                if let Some(entry) =
                    stored.filter(|e| Some(e.full_key) == full_key && entry_fits(e, &unit.cfg))
                {
                    let report = FunctionReport {
                        wcet: entry.wcet.clone(),
                        bcet: entry.bcet.clone(),
                    };
                    return Ok(CtxOutcome {
                        reports: vec![(*ctx, report)],
                        lp: entry.lp,
                        hit: true,
                        new_entry: None,
                    });
                }
                let report = solve_one(*ctx, &costs, &mut lp)?;
                let new_entry = full_key.map(|full_key| IpetEntry {
                    full_key,
                    wcet: report.wcet.clone(),
                    bcet: report.bcet.clone(),
                    lp,
                });
                Ok(CtxOutcome {
                    reports: vec![(*ctx, report)],
                    lp,
                    hit: false,
                    new_entry,
                })
            }
            CtxGroup::Scc(members) => {
                // Recursive cycles: per-activation body costs with the
                // cycle's internal calls priced at zero, then scaled by
                // the annotated depth. Each activation runs at most once
                // per depth level, so depth × Σ(body costs over the
                // cycle) bounds the whole recursion (members have one
                // merged context each).
                let mut reports: Vec<(CtxId, FunctionReport)> = Vec::with_capacity(members.len());
                for &f in members {
                    let ctx = contexts.ctxs_of(f)[0];
                    let (costs, _) =
                        site_costs(&units[&ctx], ctx, contexts, wcet_costs, bcet_costs, members);
                    let report = solve_one(ctx, &costs, &mut lp)?;
                    reports.push((ctx, report));
                }
                // Scale from a snapshot of the *raw* per-activation
                // costs: mutating `reports` while reading siblings from
                // it would compound the depth factor order-dependently,
                // and substituting a member's own cost for siblings not
                // yet solved would undercut asymmetric cycles.
                let raw: BTreeMap<Addr, u64> = reports
                    .iter()
                    .map(|(c, r)| (contexts.info(*c).function, r.wcet.wcet_cycles))
                    .collect();
                for (ctx, report) in &mut reports {
                    let f = contexts.info(*ctx).function;
                    let depth = self
                        .config
                        .annotations
                        .recursion_depth(f)
                        .expect("recursion checked by the front end");
                    let body_sum: u64 = callgraph.scc_members(f).iter().map(|m| raw[m]).sum();
                    report.wcet.wcet_cycles = depth.saturating_mul(body_sum);
                    // One activation stays the sound lower bound.
                }
                Ok(CtxOutcome {
                    reports,
                    lp,
                    hit: false,
                    new_entry: None,
                })
            }
        }
    }
}

/// Computes the entry inputs of one context from the units of earlier
/// waves: at depth ≥ 1, the join of the producing callers' pre-call
/// value states, ACS pairs, and pipes. Recursive functions, functions
/// without resolved producers, and every context at depth 0 (where
/// nothing propagates) enter at the ⊤ image entry state — sound for any
/// call path. Their cache entries fall back to [`CacheStates::unknown`],
/// not cold: only the task activation genuinely starts on a cold
/// machine, and a cold fallback would classify entry fetches always-miss
/// — an unsound BCET when a real caller already warmed the lines.
fn ctx_entry_input(
    id: CtxId,
    contexts: &ContextTable,
    callgraph: &CallGraph,
    units: &BTreeMap<CtxId, CtxUnit>,
    machine: &MachineConfig,
    task_entry: Addr,
    pipeline_on: bool,
) -> CtxInput {
    let info = contexts.info(id);
    let propagate = contexts.depth() > 0;
    let mut state: Option<AbstractState> = None;
    let mut icache_entry: Option<CacheStates> = None;
    let mut dcache_entry: Option<CacheStates> = None;
    let mut pipe: Option<PipelineStates> = None;
    if propagate && !callgraph.is_recursive(info.function) {
        // `preds` is sorted, so the joins fold in a fixed order:
        // deterministic at any thread count.
        for &(caller, site) in &info.preds {
            let Some(caller_unit) = units.get(&caller) else {
                continue;
            };
            if let Some(s) = caller_unit.out.pre_call.get(&site) {
                state = Some(match state {
                    Some(cur) => cur.join(s),
                    None => s.clone(),
                });
            }
            for (pair, entry) in [
                (&caller_unit.out.icache_calls, &mut icache_entry),
                (&caller_unit.out.dcache_calls, &mut dcache_entry),
            ] {
                if let Some(p) = pair.as_ref().and_then(|m| m.get(&site)) {
                    *entry = Some(match entry.take() {
                        Some(cur) => cur.join(p),
                        None => p.clone(),
                    });
                }
            }
            if let Some(p) = caller_unit
                .out
                .pipeline_calls
                .as_ref()
                .and_then(|m| m.get(&site))
            {
                pipe = Some(match pipe.take() {
                    Some(cur) => cur.join(p),
                    None => p.clone(),
                });
            }
        }
    }
    // The task activation: at depth 0 the entry function's one merged
    // context, at depth ≥ 1 its root context (no producing call edge).
    let genuinely_cold = info.function == task_entry && (!propagate || info.preds.is_empty());
    if !genuinely_cold {
        if icache_entry.is_none() {
            icache_entry = machine.icache.as_ref().map(CacheStates::unknown);
        }
        if dcache_entry.is_none() {
            dcache_entry = machine.dcache.as_ref().map(CacheStates::unknown);
        }
    }
    // The abstract pipe mirrors the ACS rule: drained is *exact* for the
    // task activation; every other context without tracked producers
    // (depth 0, recursion, unresolved callers) falls back to the unknown
    // pipe.
    let pipeline_entry = pipeline_on.then(|| {
        pipe.unwrap_or_else(|| {
            if genuinely_cold {
                PipelineStates::drained()
            } else {
                PipelineStates::unknown(machine)
            }
        })
    });
    CtxInput {
        entry_state: state,
        icache_entry,
        dcache_entry,
        pipeline_entry,
    }
}

/// `states` when units hand per-call-site states to their callees;
/// nothing at depth 0, where no callee reads them.
fn propagated<T>(env: &UnitEnv<'_>, states: BTreeMap<Addr, T>) -> BTreeMap<Addr, T> {
    if env.propagate {
        states
    } else {
        BTreeMap::new()
    }
}

/// The priced call sites of one context, in site order: `(site, WCET,
/// BCET)`, every resolved site priced with the *(callee, context)* bounds
/// it targets (merged max/min over an indirect site's callee set).
/// `zero_members` are SCC members priced at zero for the recursion rule.
/// Sites whose callee contexts lack a bound are omitted; the flag says
/// whether every resolved site was priced.
fn site_costs(
    unit: &CtxUnit,
    ctx: CtxId,
    contexts: &ContextTable,
    wcet_costs: &BTreeMap<CtxId, u64>,
    bcet_costs: &BTreeMap<CtxId, u64>,
    zero_members: &[Addr],
) -> (Vec<(Addr, u64, u64)>, bool) {
    let mut out: BTreeMap<Addr, (u64, u64)> = BTreeMap::new();
    let mut all_priced = true;
    for (site, targets) in unit.cfg.call_sites() {
        let price = targets
            .iter()
            .try_fold(None, |acc: Option<(u64, u64)>, &callee| {
                let (cw, cb) = if zero_members.contains(&callee) {
                    (0, 0)
                } else {
                    let cctx = contexts.callee_ctx(ctx, site, callee)?;
                    (*wcet_costs.get(&cctx)?, *bcet_costs.get(&cctx)?)
                };
                Some(Some(acc.map_or((cw, cb), |(w, b)| (w.max(cw), b.min(cb)))))
            });
        match price {
            // Peeled copies repeat a site with identical targets; the
            // map keeps one deterministic entry.
            Some(Some(price)) => {
                out.insert(site, price);
            }
            Some(None) => {} // unresolved: no callee to price
            None => all_priced = false,
        }
    }
    let priced = out.into_iter().map(|(s, (w, b))| (s, w, b)).collect();
    (priced, all_priced)
}

/// One function after the resolution rounds: its artifact, replayed from
/// the store or built by the worker that ran its value analysis. Every
/// later consumer reads the artifact alone.
struct FnResult {
    /// Content key under the final reconstruction (cache runs only).
    key: Option<u64>,
    art: FunctionArtifact,
    /// The units its stored file holds (none when the file missed): each
    /// is decoded by the phase-4 worker of a context whose key it carries.
    units: StoredUnits,
    /// The phase-3 value analysis, when the function was analyzed this
    /// run: units entered at ⊤ reuse it. Dropped after the unit wavefront.
    fresh: Option<FunctionAnalysis>,
}

/// Cheap structural validation of a cached IPET solution against the CFG
/// it claims to describe.
fn entry_fits(entry: &IpetEntry, cfg: &Cfg) -> bool {
    let n = cfg.block_count();
    let fits = |r: &WcetResult| {
        r.block_counts.keys().all(|b| b.0 < n) && r.worst_path.iter().all(|b| b.0 < n)
    };
    fits(&entry.wcet) && fits(&entry.bcet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_isa::asm::assemble;
    use wcet_isa::interp::Interpreter;

    fn analyze_src(src: &str) -> AnalysisReport {
        WcetAnalyzer::new()
            .analyze(&assemble(src).unwrap())
            .unwrap()
    }

    #[test]
    fn default_config_equals_new() {
        // Regression: `#[derive(Default)]` produced `check_guidelines =
        // false`, so `..Default::default()` call sites silently skipped
        // guideline checking. Field-by-field, then wholesale.
        let derived = AnalyzerConfig::default();
        let documented = AnalyzerConfig::new();
        assert_eq!(derived.machine, documented.machine);
        assert_eq!(derived.annotations, documented.annotations);
        assert_eq!(derived.check_guidelines, documented.check_guidelines);
        assert_eq!(derived.unrolling, documented.unrolling);
        assert_eq!(derived.parallelism, documented.parallelism);
        assert_eq!(derived.context_depth, documented.context_depth);
        assert_eq!(derived.persistence, documented.persistence);
        assert_eq!(derived.pipeline, documented.pipeline);
        assert_eq!(derived, documented);
        // The documented defaults really are in force.
        assert!(derived.check_guidelines);
        assert_eq!(
            derived.context_depth, 0,
            "depth 0 is the golden-compatible default"
        );
        assert!(
            !derived.persistence,
            "persistence is opt-in (goldens pin the classic classifications)"
        );
        assert!(
            !derived.pipeline,
            "pipeline timing is opt-in (goldens pin the flat block times)"
        );
        // And the derived-Default analyzer is the documented analyzer.
        assert_eq!(
            WcetAnalyzer::default().config(),
            WcetAnalyzer::new().config()
        );
    }

    #[test]
    fn default_config_resolves_and_checks_guidelines() {
        // The observable symptom of the old divergence: a config built
        // with struct-update syntax must still resolve function pointers
        // and attach a guideline report.
        let src = r#"
            main: li  r1, 0x5000
                  lw  r2, 0(r1)
                  callr r2
                  halt
            h1:   li r3, 1
                  ret
        "#;
        let mut image = assemble(src).unwrap();
        let h1 = image.symbol("h1").unwrap();
        image
            .data
            .push(wcet_isa::image::Segment::from_words(Addr(0x5000), &[h1.0]));
        let config = AnalyzerConfig {
            unrolling: false,
            ..Default::default()
        };
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        assert_eq!(report.trace.unresolved_final, 0, "resolution rounds ran");
        assert!(report.guidelines.is_some(), "guideline checking ran");
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        // One recursive SCC + an independent helper + modes: exercises
        // every scheduler path. The rendered report must be identical for
        // any parallelism (timings excluded — they are real clocks).
        let image = assemble(
            r#"
            main: li r1, 3
                  call down
                  call leaf
                  halt
            down: beq r1, r0, base
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  subi r1, r1, 1
                  call down
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            base: ret
            leaf: li r2, 5
            ll:   subi r2, r2, 1
                  bne r2, r0, ll
                  ret
            "#,
        )
        .unwrap();
        let down = image.symbol("down").unwrap();
        let render = |parallelism: Option<usize>| {
            let mut config = AnalyzerConfig {
                parallelism,
                ..AnalyzerConfig::new()
            };
            config.annotations =
                AnnotationSet::parse(&format!("recursion {down} depth 4;")).unwrap();
            let mut report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
            report.trace.phase_times = Default::default();
            report.trace.phase_work_times = Default::default();
            format!("{report:#?}")
        };
        let sequential = render(Some(1));
        assert_eq!(sequential, render(Some(2)));
        assert_eq!(sequential, render(Some(8)));
        assert_eq!(sequential, render(None));
    }

    #[test]
    fn incremental_run_is_byte_identical_and_hits_warm() {
        // Cold run populates the cache; the warm run must reproduce the
        // report byte for byte while serving every function and IPET
        // solution from the cache.
        let dir = std::env::temp_dir().join(format!(
            "wcet-analyzer-incr-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let image = assemble(
            "main: call f\n call g\n halt\nf: li r1, 6\nfl: subi r1, r1, 1\n bne r1, r0, fl\n ret\ng: ret",
        )
        .unwrap();
        let canonical = |mut report: AnalysisReport| {
            report.trace.phase_times = Default::default();
            report.trace.phase_work_times = Default::default();
            report.incr = None;
            format!("{report:#?}")
        };
        let plain = canonical(WcetAnalyzer::new().analyze(&image).unwrap());

        let mut cache = crate::incr::ArtifactCache::open(&dir).unwrap();
        let cold = WcetAnalyzer::new()
            .analyze_incremental(&image, &mut cache)
            .unwrap();
        let cold_stats = cold.incr.clone().unwrap();
        assert_eq!(cold_stats.fn_hits, 0);
        assert_eq!(cold_stats.fn_misses, 3);
        assert_eq!(cold_stats.dirty, 3, "everything is dirty on a cold cache");
        assert_eq!(
            canonical(cold),
            plain,
            "cold cached run matches cacheless run"
        );

        let warm = WcetAnalyzer::new()
            .analyze_incremental(&image, &mut cache)
            .unwrap();
        let warm_stats = warm.incr.clone().unwrap();
        assert_eq!(warm_stats.fn_hits, 3, "all functions replay from cache");
        assert_eq!(warm_stats.dirty, 0);
        assert_eq!(warm_stats.ipet_solves, 0, "no IPET system re-solved");
        assert_eq!(warm_stats.ipet_hits, 3);
        assert_eq!(canonical(warm), plain, "warm run is byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A caller with two sites passing different work sizes to a clamped
    /// callee: the canonical context-sensitivity shape.
    fn two_site_src() -> &'static str {
        r#"
        main: li   r1, 3
              call compute
              li   r1, 40
              call compute
              halt
        compute:
              andi r1, r1, 63
              beq  r1, r0, cdone
        cloop:
              mul  r3, r1, r1
              subi r1, r1, 1
              bne  r1, r0, cloop
        cdone:
              ret
        "#
    }

    fn analyze_depth(image: &wcet_isa::Image, depth: usize) -> AnalysisReport {
        let config = AnalyzerConfig {
            context_depth: depth,
            ..AnalyzerConfig::new()
        };
        WcetAnalyzer::with_config(config).analyze(image).unwrap()
    }

    #[test]
    fn context_depth_one_tightens_and_stays_sound() {
        let image = assemble(two_site_src()).unwrap();
        let merged = analyze_depth(&image, 0);
        let ctx = analyze_depth(&image, 1);
        // Depth 0 prices both sites at the clamp bound (64 iterations);
        // depth 1 prices the cheap site at its actual 3.
        assert!(
            ctx.wcet_cycles < merged.wcet_cycles,
            "context expansion must tighten: {} vs {}",
            ctx.wcet_cycles,
            merged.wcet_cycles
        );
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let observed = interp.run(1_000_000).unwrap().cycles;
        for (label, r) in [("merged", &merged), ("ctx", &ctx)] {
            assert!(r.wcet_cycles >= observed, "{label} WCET covers observed");
            assert!(r.bcet_cycles <= observed, "{label} BCET under observed");
        }
        // The per-function report of `compute` merges its contexts by
        // max — still at most (here: strictly below) the merged ⊤
        // analysis, because every context entry is tighter than ⊤.
        let compute = image.symbol("compute").unwrap();
        assert!(
            ctx.functions[&compute].wcet.wcet_cycles <= merged.functions[&compute].wcet.wcet_cycles
        );
        assert!(
            ctx.functions[&compute].bcet.wcet_cycles >= merged.functions[&compute].bcet.wcet_cycles
        );
        // Depths beyond the call-graph height change nothing more.
        let deep = analyze_depth(&image, 4);
        assert_eq!(deep.wcet_cycles, ctx.wcet_cycles);
    }

    #[test]
    fn context_pipeline_thread_invariant() {
        let image = assemble(two_site_src()).unwrap();
        let render = |parallelism: Option<usize>| {
            let config = AnalyzerConfig {
                parallelism,
                context_depth: 1,
                ..AnalyzerConfig::new()
            };
            let mut report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
            report.trace.phase_times = Default::default();
            report.trace.phase_work_times = Default::default();
            format!("{report:#?}")
        };
        let sequential = render(Some(1));
        assert_eq!(sequential, render(Some(4)));
        assert_eq!(sequential, render(None));
    }

    #[test]
    fn context_pipeline_handles_modes_unrolling_and_recursion() {
        // Modes + annotation-bounded loop at depth 1.
        let src = "main: li r1, 100\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt";
        let image = assemble(src).unwrap();
        let header = image.symbol("loop").unwrap();
        let mut config = AnalyzerConfig {
            context_depth: 1,
            ..AnalyzerConfig::new()
        };
        config.annotations = AnnotationSet::parse(&format!(
            "mode ground, air;\nloop {header} bound 10 in mode ground;"
        ))
        .unwrap();
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        assert!(report.mode_wcet[&Some("ground".to_owned())] < report.mode_wcet[&None]);

        // Annotated recursion still analyzes (merged contexts inside the
        // SCC), at depth 2 with unrolling on.
        let image = assemble(
            r#"
            main: li r1, 3
                  call down
                  halt
            down: beq r1, r0, base
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  subi r1, r1, 1
                  call down
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            base: ret
            "#,
        )
        .unwrap();
        let down = image.symbol("down").unwrap();
        let mut config = AnalyzerConfig {
            context_depth: 2,
            unrolling: true,
            ..AnalyzerConfig::new()
        };
        config.annotations = AnnotationSet::parse(&format!("recursion {down} depth 4;")).unwrap();
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(report.wcet_cycles >= observed);
        assert!(report.bcet_cycles <= observed);
    }

    #[test]
    fn context_incremental_warm_run_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!(
            "wcet-analyzer-ctx-incr-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let image = assemble(two_site_src()).unwrap();
        let config = AnalyzerConfig {
            context_depth: 1,
            ..AnalyzerConfig::new()
        };
        let analyzer = WcetAnalyzer::with_config(config);
        let canonical = |mut report: AnalysisReport| {
            report.trace.phase_times = Default::default();
            report.trace.phase_work_times = Default::default();
            report.incr = None;
            format!("{report:#?}")
        };
        let plain = canonical(analyzer.analyze(&image).unwrap());

        let mut cache = crate::incr::ArtifactCache::open(&dir).unwrap();
        let cold = analyzer.analyze_incremental(&image, &mut cache).unwrap();
        let cold_stats = cold.incr.clone().unwrap();
        assert_eq!(cold_stats.fn_hits, 0);
        assert_eq!(canonical(cold), plain, "cold cached run matches cacheless");

        let warm = analyzer.analyze_incremental(&image, &mut cache).unwrap();
        let warm_stats = warm.incr.clone().unwrap();
        assert_eq!(warm_stats.fn_hits, 2, "both function artifacts hit");
        assert_eq!(warm_stats.dirty, 0);
        assert_eq!(
            warm_stats.ipet_solves, 0,
            "per-context IPET solutions replay: {warm_stats:?}"
        );
        assert!(warm_stats.ipet_hits >= 3, "main + two compute contexts");
        assert_eq!(canonical(warm), plain, "warm run is byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_counter_loop() {
        let image =
            assemble("main: li r1, 16\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt").unwrap();
        let report = WcetAnalyzer::new().analyze(&image).unwrap();
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(report.wcet_cycles >= observed);
        assert!(report.bcet_cycles <= observed);
        assert!(report.guidelines.as_ref().unwrap().is_clean());
        assert_eq!(report.trace.loops, 1);
        assert_eq!(report.trace.loops_bounded_auto, 1);
    }

    #[test]
    fn interprocedural_composition() {
        let report = analyze_src(
            r#"
            main: call helper
                  call helper
                  halt
            helper:
                  li r1, 4
            hl:   subi r1, r1, 1
                  bne r1, r0, hl
                  ret
            "#,
        );
        assert_eq!(report.functions.len(), 2);
        let helper = report
            .functions
            .iter()
            .find(|(&f, _)| f != report.program.entry)
            .unwrap()
            .1;
        // Task WCET ≥ 2 × helper WCET.
        assert!(report.wcet_cycles >= 2 * helper.wcet.wcet_cycles);
    }

    #[test]
    fn recursion_rejected() {
        let image = assemble("main: call f\n halt\nf: call f\n ret").unwrap();
        let err = WcetAnalyzer::new().analyze(&image).unwrap_err();
        assert!(matches!(err, AnalyzeError::Recursion { .. }));
    }

    #[test]
    fn recursion_depth_annotation_unblocks_and_is_sound() {
        // `down` recurses r1 times (r1 = 6 → 7 activations).
        let image = assemble(
            r#"
            main: li r1, 6
                  call down
                  halt
            down: beq r1, r0, base
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  addi r2, r2, 3
                  subi r1, r1, 1
                  call down
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            base: ret
            "#,
        )
        .unwrap();
        let down = image.symbol("down").unwrap();
        let mut config = AnalyzerConfig::new();
        config.annotations = AnnotationSet::parse(&format!("recursion {down} depth 7;")).unwrap();
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(
            report.wcet_cycles >= observed,
            "bound {} < observed {observed}",
            report.wcet_cycles
        );
        assert!(report.bcet_cycles <= observed);
    }

    #[test]
    fn mutual_recursion_with_depths_analyzes_conservatively() {
        let image = assemble(
            r#"
            main: li r1, 4
                  call f
                  halt
            f:    beq r1, r0, fo
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  subi r1, r1, 1
                  call g
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            fo:   ret
            g:    beq r1, r0, go
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  subi r1, r1, 1
                  call f
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            go:   ret
            "#,
        )
        .unwrap();
        let f = image.symbol("f").unwrap();
        let g = image.symbol("g").unwrap();
        let mut config = AnalyzerConfig::new();
        config.annotations =
            AnnotationSet::parse(&format!("recursion {f} depth 5;\nrecursion {g} depth 5;"))
                .unwrap();
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(report.wcet_cycles >= observed);
    }

    #[test]
    fn asymmetric_mutual_recursion_scales_from_raw_body_costs() {
        // Regression: the SCC scaling pass used to (a) substitute a
        // member's own body cost for siblings not yet solved — the
        // first member of an asymmetric cycle undercut its bound — and
        // (b) read already-scaled siblings, compounding the depth factor
        // order-dependently. With equal depth annotations both members
        // must end at exactly depth × Σ(raw body costs): equal bounds.
        let image = assemble(
            r#"
            main: li r1, 4
                  call f
                  halt
            f:    beq r1, r0, fo
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  li   r3, 40
            fw:   mul  r4, r3, r3
                  subi r3, r3, 1
                  bne  r3, r0, fw
                  subi r1, r1, 1
                  call g
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            fo:   ret
            g:    beq r1, r0, go
                  subi sp, sp, 4
                  sw   lr, 0(sp)
                  subi r1, r1, 1
                  call f
                  lw   lr, 0(sp)
                  addi sp, sp, 4
            go:   ret
            "#,
        )
        .unwrap();
        let f = image.symbol("f").unwrap();
        let g = image.symbol("g").unwrap();
        for depth in [0usize, 1] {
            let mut config = AnalyzerConfig {
                context_depth: depth,
                ..AnalyzerConfig::new()
            };
            config.annotations =
                AnnotationSet::parse(&format!("recursion {f} depth 5;\nrecursion {g} depth 5;"))
                    .unwrap();
            let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
            let (wf, wg) = (
                report.functions[&f].wcet.wcet_cycles,
                report.functions[&g].wcet.wcet_cycles,
            );
            assert_eq!(
                wf, wg,
                "ctx depth {depth}: equal depths over one cycle must scale identically"
            );
            let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
            let observed = interp.run(1_000_000).unwrap().cycles;
            assert!(report.wcet_cycles >= observed, "ctx depth {depth}");
            // The cheap member's published bound covers a real activation
            // (a `g` activation runs the whole remaining cycle): it must
            // not undercut the expensive member's body.
            assert!(
                wg >= observed - 50,
                "ctx depth {depth}: wg {wg} vs observed {observed}"
            );
        }
    }

    #[test]
    fn unbounded_loop_rejected_with_diagnosis() {
        let image =
            assemble("main: mov r1, r4\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt").unwrap();
        let err = WcetAnalyzer::new().analyze(&image).unwrap_err();
        match err {
            AnalyzeError::Path {
                error: PathError::UnboundedLoop { .. },
                ..
            } => {}
            other => panic!("expected unbounded-loop path error, got {other}"),
        }
    }

    #[test]
    fn annotation_fixes_unbounded_loop() {
        let image =
            assemble("main: mov r1, r4\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt").unwrap();
        let header = image.symbol("loop").unwrap();
        let mut config = AnalyzerConfig::new();
        config.annotations = AnnotationSet::parse(&format!("loop {header} bound 32;")).unwrap();
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        assert!(report.wcet_cycles > 0);
        assert_eq!(report.trace.loops_bounded_annot, 1);

        // Soundness against a concrete run at the annotated maximum.
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        interp.set_reg(wcet_isa::Reg::new(4), 32);
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(report.wcet_cycles >= observed);
    }

    #[test]
    fn function_pointer_resolution_round_trip() {
        // The jump-table program from the addr-analysis tests, end to end:
        // round 1 fails to see targets, value analysis resolves them, the
        // final program has no unresolved sites and a WCET.
        let src = r#"
            main: li  r1, 0x5000
                  beq r4, r0, second
                  lw  r2, 0(r1)
                  j   go
            second:
                  lw  r2, 4(r1)
            go:   callr r2
                  halt
            h1:   li r3, 1
                  ret
            h2:   li r3, 2
                  li r3, 3
                  ret
        "#;
        let mut image = assemble(src).unwrap();
        let h1 = image.symbol("h1").unwrap();
        let h2 = image.symbol("h2").unwrap();
        image.data.push(wcet_isa::image::Segment::from_words(
            Addr(0x5000),
            &[h1.0, h2.0],
        ));
        let report = WcetAnalyzer::new().analyze(&image).unwrap();
        assert_eq!(report.trace.unresolved_initial, 1);
        assert_eq!(report.trace.unresolved_final, 0);
        assert!(report.trace.resolve_rounds >= 2);
        assert_eq!(report.functions.len(), 3);
        assert!(report.wcet_cycles > 0);
    }

    #[test]
    fn mode_specific_bounds_tighten() {
        let src = "main: li r1, 100\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt";
        let image = assemble(src).unwrap();
        let header = image.symbol("loop").unwrap();
        let mut config = AnalyzerConfig::new();
        config.annotations = AnnotationSet::parse(&format!(
            "mode ground, air;\nloop {header} bound 10 in mode ground;"
        ))
        .unwrap();
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        let global = report.mode_wcet[&None];
        let ground = report.mode_wcet[&Some("ground".to_owned())];
        let air = report.mode_wcet[&Some("air".to_owned())];
        assert!(ground < global, "ground {ground} < global {global}");
        assert_eq!(air, global, "air falls back to the automatic bound");
    }

    #[test]
    fn unrolling_tightens_cached_loops_and_stays_sound() {
        // Loop body in its own flash cache line: without unrolling the
        // header fetch joins cold and warm paths (not-classified, charged
        // a miss every iteration); peeling confines the miss to the
        // first iteration.
        let src = ".org 0x100000\nmain: li r1, 30\n nop\n nop\n nop\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt";
        let image = assemble(src).unwrap();
        let machine = MachineConfig::with_caches();

        let plain_cfg = AnalyzerConfig {
            machine: machine.clone(),
            ..AnalyzerConfig::new()
        };
        let plain = WcetAnalyzer::with_config(plain_cfg)
            .analyze(&image)
            .unwrap();

        let unroll_cfg = AnalyzerConfig {
            machine: machine.clone(),
            unrolling: true,
            ..AnalyzerConfig::new()
        };
        let unrolled = WcetAnalyzer::with_config(unroll_cfg)
            .analyze(&image)
            .unwrap();

        assert!(
            unrolled.wcet_cycles < plain.wcet_cycles,
            "unrolling should tighten: {} vs {}",
            unrolled.wcet_cycles,
            plain.wcet_cycles
        );
        let mut interp = Interpreter::with_config(&image, machine);
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(unrolled.wcet_cycles >= observed);
        assert!(unrolled.bcet_cycles <= observed);
    }

    #[test]
    fn unrolling_handles_interprocedural_programs() {
        let src =
            "main: call f\n call f\n halt\nf: li r1, 5\nfl: subi r1, r1, 1\n bne r1, r0, fl\n ret";
        let image = assemble(src).unwrap();
        let config = AnalyzerConfig {
            unrolling: true,
            ..AnalyzerConfig::new()
        };
        let report = WcetAnalyzer::with_config(config).analyze(&image).unwrap();
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(report.wcet_cycles >= observed);
    }

    #[test]
    fn trace_is_populated() {
        let image = assemble("main: li r1, 2\nl: subi r1, r1, 1\n bne r1, r0, l\n halt").unwrap();
        let report = WcetAnalyzer::new().analyze(&image).unwrap();
        let t = &report.trace;
        assert_eq!(t.decoded_insts, 4);
        assert_eq!(t.functions, 1);
        assert!(t.blocks >= 3);
        assert!(t.ilp_vars > 0);
        let rendered = t.to_string();
        assert!(rendered.contains("Path Analysis"));
    }
}
