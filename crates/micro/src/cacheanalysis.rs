//! Cache analysis fixpoints over a function CFG.
//!
//! Runs the must/may abstract caches of [`crate::acs`] to a fixpoint and
//! records a [`Classification`] for every instruction fetch (instruction
//! cache) or data access (data cache). Data-access addresses come from the
//! value analysis; unknown addresses empty the must cache and poison the
//! may cache — mechanically reproducing the paper's Section 4.3.

use std::collections::{BTreeMap, VecDeque};

use wcet_analysis::Value;
use wcet_cfg::block::{BlockId, Terminator};
use wcet_cfg::graph::Cfg;
use wcet_isa::cache::CacheConfig;
use wcet_isa::memmap::MemoryMap;
use wcet_isa::{Addr, Inst};

use crate::acs::{classify_with_persist, AbstractCache, Classification, Polarity};
use crate::footprint::CacheFootprint;

/// Which cache an analysis instance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// The instruction cache (accessed by every fetch).
    Instruction,
    /// The data cache (accessed by loads and stores).
    Data,
}

/// Results of one cache analysis: a classification per instruction.
///
/// `None` means the access bypasses this cache (uncacheable region, or an
/// instruction that does not access it).
#[derive(Debug, Clone)]
pub struct CacheAnalysis {
    kind: CacheKind,
    /// Per block, per instruction index.
    class: Vec<Vec<Option<Classification>>>,
}

/// A must/may abstract-cache pair: the state the fixpoint flows along
/// edges, and — publicly — the unit of VIVU-style *entry-state
/// propagation*: the caller's pair at a call site becomes the callee's
/// per-context entry pair, replacing the cold (nothing-guaranteed)
/// default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStates {
    must: AbstractCache,
    may: AbstractCache,
    /// The persistence instance, present only when the analysis runs
    /// with first-miss classification enabled (its ages feed the
    /// context-entry digests, so it must not exist when the feature is
    /// off — depth-insensitive runs stay byte-identical).
    persist: Option<AbstractCache>,
}

impl CacheStates {
    /// The cold pair: no must guarantees, an empty (machine-start) may
    /// cache. Sound only where the machine really starts cold (the task
    /// entry); for a function with untracked callers use
    /// [`CacheStates::unknown`] — cold's empty may cache proves absence,
    /// which understates nothing but *overstates the BCET*.
    #[must_use]
    pub fn cold(config: &CacheConfig) -> CacheStates {
        CacheStates {
            must: AbstractCache::new(config.clone(), Polarity::Must),
            may: AbstractCache::new(config.clone(), Polarity::May),
            persist: None,
        }
    }

    /// The cold triple with an (empty) persistence instance attached —
    /// the entry state of a persistence-enabled analysis.
    #[must_use]
    pub fn cold_persistent(config: &CacheConfig) -> CacheStates {
        let mut s = CacheStates::cold(config);
        s.persist = Some(AbstractCache::new(config.clone(), Polarity::Persist));
        s
    }

    /// The unknown pair: no hit guarantees *and* no absence guarantees
    /// (the may cache is poisoned in every set). This is the sound entry
    /// state for a function whose callers are not tracked: the cold pair
    /// claims every line *guaranteed absent*, classifying entry fetches
    /// always-miss — which overstates the **BCET** whenever the caller
    /// already warmed the lines (the call-site fetch alone warms the
    /// callee's first line when they share one). Worst cases are
    /// unaffected: not-classified and always-miss charge the same upper
    /// latency. Only the task entry genuinely starts on a cold machine.
    #[must_use]
    pub fn unknown(config: &CacheConfig) -> CacheStates {
        let mut s = CacheStates::cold(config);
        s.may.access_unknown();
        s
    }

    /// Attaches or strips the persistence instance so the state matches
    /// what the current analysis tracks. A freshly attached instance is
    /// empty — sound for any entry (nothing is claimed loaded yet).
    fn normalize_persistence(&mut self, on: bool, config: &CacheConfig) {
        match (on, &self.persist) {
            (true, None) => {
                self.persist = Some(AbstractCache::new(config.clone(), Polarity::Persist));
            }
            (false, Some(_)) => self.persist = None,
            _ => {}
        }
    }

    /// Control-flow (and call-edge) merge.
    #[must_use]
    pub fn join(&self, other: &CacheStates) -> CacheStates {
        CacheStates {
            must: self.must.join(&other.must),
            may: self.may.join(&other.may),
            persist: match (&self.persist, &other.persist) {
                (Some(a), Some(b)) => Some(a.join(b)),
                _ => None,
            },
        }
    }

    /// A stable content digest (for incremental context-entry keys).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = wcet_isa::hash::StableHasher::new();
        self.must.digest_into(&mut h);
        self.may.digest_into(&mut h);
        match &self.persist {
            Some(p) => {
                h.write_u32(1);
                p.digest_into(&mut h);
            }
            None => h.write_u32(0),
        }
        h.finish()
    }

    /// Serializes the state for the incremental engine's unit artifacts
    /// (a replayed caller's per-call-site ACS) — the byte-level twin of
    /// [`CacheStates::digest`].
    pub fn encode_into(&self, w: &mut wcet_isa::codec::Writer) {
        self.must.encode_into(w);
        self.may.encode_into(w);
        match &self.persist {
            Some(p) => {
                w.u8(1);
                p.encode_into(w);
            }
            None => w.u8(0),
        }
    }

    /// Inverse of [`CacheStates::encode_into`]: `None` when the bytes are
    /// malformed, an instance has the wrong polarity, or the encoded
    /// geometry differs from `config`.
    pub fn decode_from(
        r: &mut wcet_isa::codec::Reader<'_>,
        config: &CacheConfig,
    ) -> Option<CacheStates> {
        let must = AbstractCache::decode_from(r, config)?;
        let may = AbstractCache::decode_from(r, config)?;
        let persist = match r.u8()? {
            0 => None,
            1 => Some(AbstractCache::decode_from(r, config)?),
            _ => return None,
        };
        CacheStates::from_parts(must, may, persist)
    }

    /// Assembles a state from its instances. `None` unless they are a
    /// must, a may, and optionally a persistence instance, all of one
    /// geometry.
    #[must_use]
    pub fn from_parts(
        must: AbstractCache,
        may: AbstractCache,
        persist: Option<AbstractCache>,
    ) -> Option<CacheStates> {
        let polarities = (
            must.polarity(),
            may.polarity(),
            persist.as_ref().map(AbstractCache::polarity),
        );
        let shaped = matches!(
            polarities,
            (
                Polarity::Must,
                Polarity::May,
                None | Some(Polarity::Persist)
            )
        );
        let one_geometry = must.config() == may.config()
            && persist.as_ref().is_none_or(|p| p.config() == must.config());
        (shaped && one_geometry).then_some(CacheStates { must, may, persist })
    }

    fn is_subsumed_by(&self, other: &CacheStates) -> bool {
        let persist_ok = match (&self.persist, &other.persist) {
            (Some(a), Some(b)) => a.is_subsumed_by(b),
            (None, None) => true,
            _ => false,
        };
        persist_ok && self.must.is_subsumed_by(&other.must) && self.may.is_subsumed_by(&other.may)
    }

    /// The effect of an opaque callee on the caller's view of the cache:
    /// the callee may touch arbitrarily many lines, so nothing stays
    /// *guaranteed* cached (must empties), nothing stays guaranteed
    /// absent (may poisons), and nothing stays persistent. Before this
    /// existed, a caller's post-call fetches kept their pre-call hit
    /// guarantees even though the callee could have evicted every line —
    /// unsound with the interpreter's real cache.
    fn clobber_call(&mut self) {
        self.must.access_unknown();
        self.may.access_unknown();
        if let Some(p) = &mut self.persist {
            p.access_unknown();
        }
    }

    /// The effect of a callee with a known [`CacheFootprint`]: age the
    /// must and persistence instances by the callee's per-set conflict
    /// counts (keeping guarantees for untouched lines), and admit the
    /// callee's possible lines into the may cache without poisoning it.
    /// `None` — no summary available — falls back to the opaque clobber.
    fn apply_callee(&mut self, footprint: Option<&CacheFootprint>) {
        match footprint {
            Some(fp) => {
                self.must.apply_footprint(fp);
                self.may.apply_footprint(fp);
                if let Some(p) = &mut self.persist {
                    p.apply_footprint(fp);
                }
            }
            None => self.clobber_call(),
        }
    }
}

type Acs = CacheStates;

/// Context inputs of one cache fixpoint beyond the CFG itself: the entry
/// ACS from the callers, per-call-site callee footprints, and whether to
/// run the persistence (first-miss) instance.
#[derive(Default)]
pub struct CacheCtx<'a> {
    /// The entry ACS (the join of the caller states at this function's
    /// producing call sites under one context); `None` = the cold state.
    pub entry: Option<&'a CacheStates>,
    /// Per call site (keyed by the call instruction's address): the
    /// joined transitive footprint of the site's possible callees, for
    /// *this* cache. A site absent from the map — or the whole map absent
    /// — is treated as an opaque call (full clobber).
    pub call_footprints: Option<&'a BTreeMap<Addr, CacheFootprint>>,
    /// Track the persistence instance and classify
    /// [`Classification::FirstMiss`].
    pub persistence: bool,
}

/// A cache analysis together with the context-propagation hooks: the
/// must/may pair immediately before every call terminator, keyed by call
/// site. The per-context pipeline joins these across a callee's
/// producing call edges to form the callee's entry pair.
#[derive(Debug, Clone)]
pub struct CtxCacheAnalysis {
    /// The classifications.
    pub analysis: CacheAnalysis,
    /// ACS pair before each call terminator (virtual unrolling can
    /// duplicate a site; duplicates are joined).
    pub call_states: BTreeMap<Addr, CacheStates>,
}

impl CacheAnalysis {
    /// Instruction-cache analysis: classifies every fetch in `cfg`.
    #[must_use]
    pub fn instruction(cfg: &Cfg, config: &CacheConfig, memmap: &MemoryMap) -> CacheAnalysis {
        CacheAnalysis::instruction_with(cfg, config, memmap, &CacheCtx::default()).analysis
    }

    /// [`CacheAnalysis::instruction`] with the context inputs (the entry
    /// ACS pair, per-site callee footprints, and the persistence
    /// instance). Also returns the per-call-site ACS pairs for
    /// propagation into callees.
    #[must_use]
    pub fn instruction_with(
        cfg: &Cfg,
        config: &CacheConfig,
        memmap: &MemoryMap,
        ctx: &CacheCtx<'_>,
    ) -> CtxCacheAnalysis {
        run(
            cfg,
            config,
            CacheKind::Instruction,
            |_, addr, _| Access::Fetch(addr),
            memmap,
            ctx,
        )
    }

    /// Data-cache analysis: classifies every load/store using the value
    /// analysis' abstract addresses (`accesses`, keyed by instruction
    /// address).
    #[must_use]
    pub fn data(
        cfg: &Cfg,
        config: &CacheConfig,
        memmap: &MemoryMap,
        accesses: &BTreeMap<Addr, Value>,
    ) -> CacheAnalysis {
        CacheAnalysis::data_with(cfg, config, memmap, accesses, &CacheCtx::default()).analysis
    }

    /// [`CacheAnalysis::data`] with the context inputs; see
    /// [`CacheAnalysis::instruction_with`].
    #[must_use]
    pub fn data_with(
        cfg: &Cfg,
        config: &CacheConfig,
        memmap: &MemoryMap,
        accesses: &BTreeMap<Addr, Value>,
        ctx: &CacheCtx<'_>,
    ) -> CtxCacheAnalysis {
        run(
            cfg,
            config,
            CacheKind::Data,
            |inst, addr, mm| data_access(inst, addr, accesses, mm),
            memmap,
            ctx,
        )
    }

    /// Which cache this analysis modeled.
    #[must_use]
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// Classification for instruction `idx` of block `b` (`None` =
    /// bypasses this cache).
    #[must_use]
    pub fn classification(&self, b: BlockId, idx: usize) -> Option<Classification> {
        self.class
            .get(b.0)
            .and_then(|v| v.get(idx))
            .copied()
            .flatten()
    }

    /// Counts classifications across the whole function, as
    /// `(always_hit, always_miss, not_classified)`. First-miss accesses
    /// (persistence runs only) count as not-classified here; use
    /// [`CacheAnalysis::summary4`] when the split matters.
    #[must_use]
    pub fn summary(&self) -> (usize, usize, usize) {
        let (hit, miss, fm, nc) = self.summary4();
        (hit, miss, fm + nc)
    }

    /// Counts classifications across the whole function, as
    /// `(always_hit, always_miss, first_miss, not_classified)`.
    #[must_use]
    pub fn summary4(&self) -> (usize, usize, usize, usize) {
        let mut hit = 0;
        let mut miss = 0;
        let mut fm = 0;
        let mut nc = 0;
        for block in &self.class {
            for c in block.iter().flatten() {
                match c {
                    Classification::AlwaysHit => hit += 1,
                    Classification::AlwaysMiss => miss += 1,
                    Classification::FirstMiss => fm += 1,
                    Classification::NotClassified => nc += 1,
                }
            }
        }
        (hit, miss, fm, nc)
    }
}

/// What one instruction does to the cache being analyzed.
enum Access {
    /// No interaction.
    None,
    /// Definite access to one address.
    Fetch(Addr),
    /// Access to one of a small set of addresses.
    OneOf(Vec<Addr>),
    /// Access to a statically unknown address.
    Unknown,
    /// Access that bypasses the cache (uncacheable region).
    Bypass,
}

fn data_access(
    inst: &Inst,
    inst_addr: Addr,
    accesses: &BTreeMap<Addr, Value>,
    memmap: &MemoryMap,
) -> Access {
    if !inst.is_memory_access() {
        return Access::None;
    }
    let Some(value) = accesses.get(&inst_addr) else {
        return Access::Unknown;
    };
    if let Some(set) = value.as_set() {
        let addrs: Vec<Addr> = set.iter().map(|&a| Addr(a)).collect();
        let cacheable = |a: &Addr| memmap.region_at(*a).is_some_and(|r| r.cacheable);
        if addrs.iter().all(|a| !cacheable(a)) {
            return Access::Bypass;
        }
        if !addrs.iter().all(cacheable) {
            // Mixed cacheability: treat as unknown for the cache.
            return Access::Unknown;
        }
        if addrs.len() == 1 {
            return Access::Fetch(addrs[0]);
        }
        return Access::OneOf(addrs);
    }
    // Interval or top: too wide to enumerate.
    Access::Unknown
}

fn run(
    cfg: &Cfg,
    config: &CacheConfig,
    kind: CacheKind,
    classify_inst: impl Fn(&Inst, Addr, &MemoryMap) -> Access,
    memmap: &MemoryMap,
    ctx: &CacheCtx<'_>,
) -> CtxCacheAnalysis {
    let n = cfg.block_count();
    let mut in_states: Vec<Option<Acs>> = vec![None; n];
    let entry = cfg.entry_block();
    let mut entry_acs = match ctx.entry {
        Some(s) => s.clone(),
        None => Acs::cold(config),
    };
    entry_acs.normalize_persistence(ctx.persistence, config);
    in_states[entry.0] = Some(entry_acs);

    // The per-instruction transfer of one block, *excluding* the call
    // clobber (the classification pass and the pre-call snapshots need
    // the state right before the terminator).
    let transfer = |acs: &mut Acs, block: BlockId| {
        for (inst_addr, inst) in &cfg.block(block).insts {
            let access = match kind {
                CacheKind::Instruction => {
                    // Fetch of the instruction itself.
                    if memmap.region_at(*inst_addr).is_some_and(|r| r.cacheable) {
                        Access::Fetch(*inst_addr)
                    } else {
                        Access::Bypass
                    }
                }
                CacheKind::Data => classify_inst(inst, *inst_addr, memmap),
            };
            apply(acs, &access);
        }
    };
    let is_call = |b: BlockId| {
        matches!(
            cfg.block(b).term,
            Terminator::Call { .. } | Terminator::CallInd { .. }
        )
    };
    // The call transfer: a summarized callee ages the ACS by its
    // footprint; an unsummarized one clobbers it.
    let apply_call = |acs: &mut Acs, b: BlockId| {
        let block = cfg.block(b);
        let site = block.site_addr();
        acs.apply_callee(ctx.call_footprints.and_then(|m| m.get(&site)));
    };

    // Worklist fixpoint.
    let mut work: VecDeque<BlockId> = VecDeque::from([entry]);
    while let Some(b) = work.pop_front() {
        let Some(in_acs) = in_states[b.0].clone() else {
            continue;
        };
        let mut out = in_acs;
        transfer(&mut out, b);
        if is_call(b) {
            apply_call(&mut out, b);
        }
        for &succ in &cfg.succs[b.0] {
            let new_in = match &in_states[succ.0] {
                Some(old) => old.join(&out),
                None => out.clone(),
            };
            let changed = match &in_states[succ.0] {
                Some(old) => !new_in.is_subsumed_by(old),
                None => true,
            };
            if changed {
                in_states[succ.0] = Some(new_in);
                work.push_back(succ);
            }
        }
    }

    // Classification pass (and pre-call ACS snapshots for context
    // propagation).
    let mut call_states: BTreeMap<Addr, CacheStates> = BTreeMap::new();
    let mut class: Vec<Vec<Option<Classification>>> = Vec::with_capacity(n);
    for (id, block) in cfg.iter() {
        let mut row = Vec::with_capacity(block.insts.len());
        match in_states[id.0].clone() {
            Some(mut acs) => {
                for (inst_addr, inst) in &block.insts {
                    let access = match kind {
                        CacheKind::Instruction => {
                            if memmap.region_at(*inst_addr).is_some_and(|r| r.cacheable) {
                                Access::Fetch(*inst_addr)
                            } else {
                                Access::Bypass
                            }
                        }
                        CacheKind::Data => classify_inst(inst, *inst_addr, memmap),
                    };
                    let c = match &access {
                        Access::None | Access::Bypass => None,
                        Access::Fetch(a) => Some(classify_with_persist(
                            &acs.must,
                            &acs.may,
                            acs.persist.as_ref(),
                            *a,
                        )),
                        Access::OneOf(_) | Access::Unknown => Some(Classification::NotClassified),
                    };
                    row.push(c);
                    apply(&mut acs, &access);
                }
                if is_call(id) {
                    // `acs` now holds the state right before the call.
                    let site = block.site_addr();
                    match call_states.remove(&site) {
                        Some(prev) => {
                            call_states.insert(site, prev.join(&acs));
                        }
                        None => {
                            call_states.insert(site, acs);
                        }
                    }
                }
            }
            None => {
                // Unreachable block: every access unclassified (it never
                // executes, so the choice is irrelevant but must be sound).
                for (_, inst) in &block.insts {
                    let relevant = match kind {
                        CacheKind::Instruction => true,
                        CacheKind::Data => inst.is_memory_access(),
                    };
                    row.push(relevant.then_some(Classification::NotClassified));
                }
            }
        }
        class.push(row);
    }

    CtxCacheAnalysis {
        analysis: CacheAnalysis { kind, class },
        call_states,
    }
}

fn apply(acs: &mut Acs, access: &Access) {
    match access {
        Access::None | Access::Bypass => {}
        Access::Fetch(a) => {
            acs.must.access(*a);
            acs.may.access(*a);
            if let Some(p) = &mut acs.persist {
                p.access(*a);
            }
        }
        Access::OneOf(addrs) => {
            acs.must.access_one_of(addrs);
            acs.may.access_one_of(addrs);
            if let Some(p) = &mut acs.persist {
                p.access_one_of(addrs);
            }
        }
        Access::Unknown => {
            acs.must.access_unknown();
            acs.may.access_unknown();
            if let Some(p) = &mut acs.persist {
                p.access_unknown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_analysis::analyze_function;
    use wcet_cfg::graph::{reconstruct, TargetResolver};
    use wcet_isa::asm::assemble;
    use wcet_isa::cache::CacheConfig;

    fn icache_of(src: &str) -> (wcet_cfg::graph::Program, CacheAnalysis) {
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let a = CacheAnalysis::instruction(
            p.entry_cfg(),
            &CacheConfig::small_icache(),
            &MemoryMap::default_embedded(),
        );
        (p, a)
    }

    #[test]
    fn straight_line_first_miss_then_hits() {
        // Four instructions share one 16-byte line: fetch 1 misses (cold),
        // fetches 2–4 hit.
        let (p, a) = icache_of(".org 0x100000\nmain: nop\n nop\n nop\n halt");
        let b = p.entry_cfg().entry_block();
        assert_eq!(a.classification(b, 0), Some(Classification::AlwaysMiss));
        for i in 1..4 {
            assert_eq!(a.classification(b, i), Some(Classification::AlwaysHit));
        }
    }

    #[test]
    fn loop_body_hits_in_steady_state_after_join() {
        // A loop body that fits in the cache: after the first pass the
        // line is cached on the back edge but not on the entry edge → the
        // join classifies the header fetch NotClassified (peeling would
        // recover precision; see the unroll experiments).
        let (p, a) = icache_of(
            // Pad so the loop body sits in its own 16-byte cache line.
            ".org 0x100000\nmain: li r1, 4\n nop\n nop\n nop\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt",
        );
        let cfg = p.entry_cfg();
        let loop_block = cfg.block_at(wcet_isa::Addr(0x0010_0010)).unwrap();
        let c = a.classification(loop_block, 0);
        assert_eq!(c, Some(Classification::NotClassified));
        let (hit, _, _) = a.summary();
        assert!(hit > 0, "within-line fetches still hit");
    }

    #[test]
    fn call_clobbers_must_guarantees() {
        // Two call instructions in one icache line: before the clobber
        // fix the second fetch was an AlwaysHit even though the first
        // callee can evict the line. It must be NotClassified now (the
        // callee's footprint is unknown), never AlwaysMiss (poisoned may).
        let (p, a) = icache_of(".org 0x100000\nmain: call f\n call f\n halt\nf: ret");
        let cfg = p.entry_cfg();
        let second_call = cfg.block_at(wcet_isa::Addr(0x0010_0004)).unwrap();
        assert_eq!(
            a.classification(second_call, 0),
            Some(Classification::NotClassified),
            "post-call fetches lose their guarantees"
        );
    }

    #[test]
    fn entry_acs_propagation_turns_cold_misses_into_hits() {
        // A leaf fetched under a caller context whose ACS already holds
        // the leaf's line: the entry fetch classifies AlwaysHit instead
        // of the cold AlwaysMiss — the VIVU payoff in miniature.
        let config = CacheConfig::small_icache();
        let memmap = MemoryMap::default_embedded();
        // Analyze a caller whose call sites expose its ACS, then feed the
        // pre-call pair into the callee's analysis.
        let caller_src = ".org 0x100000\nmain: nop\n call f\n halt\nf: ret";
        let caller_image = assemble(caller_src).unwrap();
        let cp = reconstruct(&caller_image, &TargetResolver::empty()).unwrap();
        let caller =
            CacheAnalysis::instruction_with(cp.entry_cfg(), &config, &memmap, &CacheCtx::default());
        let (&site, pre_call) = caller.call_states.iter().next().unwrap();
        assert_eq!(site, caller_image.entry.offset(4));

        // f sits at 0x10000c — the same 16-byte line as main's code:
        // under the propagated entry the leaf's first fetch hits.
        let f = caller_image.symbol("f").unwrap();
        let f_cfg = cp.cfg(f).unwrap();
        let leaf_cold =
            CacheAnalysis::instruction_with(f_cfg, &config, &memmap, &CacheCtx::default());
        let leaf_warm = CacheAnalysis::instruction_with(
            f_cfg,
            &config,
            &memmap,
            &CacheCtx {
                entry: Some(pre_call),
                ..CacheCtx::default()
            },
        );
        let fb = f_cfg.entry_block();
        assert_eq!(
            leaf_cold.analysis.classification(fb, 0),
            Some(Classification::AlwaysMiss)
        );
        assert_eq!(
            leaf_warm.analysis.classification(fb, 0),
            Some(Classification::AlwaysHit),
            "caller's ACS pair warms the callee entry"
        );
        assert_ne!(pre_call.digest(), CacheStates::cold(&config).digest());
    }

    #[test]
    fn footprint_call_transfer_keeps_disjoint_guarantees() {
        // Two calls to a one-line callee: with the callee's footprint
        // known, the caller's own line (a different set) keeps its must
        // guarantee across the calls, so the second call-block fetch is
        // an AlwaysHit instead of the clobbered NotClassified.
        let config = CacheConfig::small_icache();
        let memmap = MemoryMap::default_embedded();
        // 13 padding nops push `f` to 0x100040 — a different cache set
        // (set 4) than main's code (set 0).
        let pad = " nop\n".repeat(13);
        let src = format!(".org 0x100000\nmain: call f\n call f\n halt\n{pad}f: ret");
        let src = src.as_str();
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let cfg = p.entry_cfg();

        // f's footprint: the single line at 0x100040 (set 4).
        let mut fp = crate::footprint::CacheFootprint::empty(&config);
        fp.absorb_addr(wcet_isa::Addr(0x0010_0040));
        let mut footprints = BTreeMap::new();
        for (site, _) in cfg.call_sites() {
            footprints.insert(site, fp.clone());
        }

        let clobbered =
            CacheAnalysis::instruction_with(cfg, &config, &memmap, &CacheCtx::default());
        let summarized = CacheAnalysis::instruction_with(
            cfg,
            &config,
            &memmap,
            &CacheCtx {
                call_footprints: Some(&footprints),
                ..CacheCtx::default()
            },
        );
        let second_call = cfg.block_at(wcet_isa::Addr(0x0010_0004)).unwrap();
        assert_eq!(
            clobbered.analysis.classification(second_call, 0),
            Some(Classification::NotClassified),
            "opaque call wipes the caller's line"
        );
        assert_eq!(
            summarized.analysis.classification(second_call, 0),
            Some(Classification::AlwaysHit),
            "summarized call keeps the disjoint-set guarantee"
        );
    }

    #[test]
    fn persistence_classifies_loop_header_first_miss() {
        // The steady-state loop case the must/may pair cannot classify:
        // the entry-edge/back-edge join loses the must guarantee, but the
        // line is persistent — it classifies FirstMiss instead of
        // NotClassified.
        let config = CacheConfig::small_icache();
        let memmap = MemoryMap::default_embedded();
        let src = ".org 0x100000\nmain: li r1, 4\n nop\n nop\n nop\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt";
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let cfg = p.entry_cfg();
        let plain = CacheAnalysis::instruction_with(cfg, &config, &memmap, &CacheCtx::default());
        let persistent = CacheAnalysis::instruction_with(
            cfg,
            &config,
            &memmap,
            &CacheCtx {
                persistence: true,
                ..CacheCtx::default()
            },
        );
        let loop_block = cfg.block_at(wcet_isa::Addr(0x0010_0010)).unwrap();
        assert_eq!(
            plain.analysis.classification(loop_block, 0),
            Some(Classification::NotClassified)
        );
        assert_eq!(
            persistent.analysis.classification(loop_block, 0),
            Some(Classification::FirstMiss),
            "the loop line persists across iterations"
        );
        // Guaranteed hits stay guaranteed hits under persistence.
        let (hit_plain, _, _) = plain.analysis.summary();
        let (hit_persist, _, _, _) = persistent.analysis.summary4();
        assert_eq!(hit_plain, hit_persist);
    }

    #[test]
    fn persistence_entry_state_digests_differ() {
        // The persistence instance is part of the propagated entry state
        // and therefore of the context digests the incremental cache
        // keys on.
        let config = CacheConfig::small_icache();
        let cold = CacheStates::cold(&config);
        let cold_p = CacheStates::cold_persistent(&config);
        assert_ne!(cold.digest(), cold_p.digest());
        assert_eq!(cold.join(&cold).digest(), cold.digest());
        assert_eq!(cold_p.join(&cold_p).digest(), cold_p.digest());
    }

    #[test]
    fn uncacheable_region_bypasses() {
        // Code in SRAM is cacheable by default; simulate uncacheable code
        // by building a map where nothing is cacheable.
        let image = assemble("main: nop\n halt").unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let mut regions = MemoryMap::default_embedded().regions().to_vec();
        for r in &mut regions {
            r.cacheable = false;
        }
        let map = MemoryMap::new(regions);
        let a = CacheAnalysis::instruction(p.entry_cfg(), &CacheConfig::small_icache(), &map);
        let b = p.entry_cfg().entry_block();
        assert_eq!(a.classification(b, 0), None);
    }

    #[test]
    fn dcache_known_addresses_classify() {
        let src = "main: li r1, 0x100\n lw r2, 0(r1)\n lw r3, 0(r1)\n halt";
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        let a = CacheAnalysis::data(
            fa.cfg(),
            &CacheConfig::small_dcache(),
            &MemoryMap::default_embedded(),
            &fa.access_values(),
        );
        let b = fa.cfg().entry_block();
        // Instruction indices: 0 = li, 1 = first lw, 2 = second lw.
        assert_eq!(a.classification(b, 1), Some(Classification::AlwaysMiss));
        assert_eq!(a.classification(b, 2), Some(Classification::AlwaysHit));
    }

    #[test]
    fn dcache_unknown_address_destroys_guarantees() {
        // Load a known address (cached), then store through an unknown
        // pointer, then reload: the reload is no longer a guaranteed hit.
        let src = "main: li r1, 0x100\n lw r2, 0(r1)\n sw r2, 0(r4)\n lw r3, 0(r1)\n halt";
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        let a = CacheAnalysis::data(
            fa.cfg(),
            &CacheConfig::small_dcache(),
            &MemoryMap::default_embedded(),
            &fa.access_values(),
        );
        let b = fa.cfg().entry_block();
        assert_eq!(a.classification(b, 1), Some(Classification::AlwaysMiss));
        assert_eq!(
            a.classification(b, 3),
            Some(Classification::NotClassified),
            "unknown store voided the guarantee"
        );
    }

    #[test]
    fn dcache_mmio_bypasses() {
        let src = "main: li r1, 0xf0000000\n lw r2, 0(r1)\n halt";
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        let a = CacheAnalysis::data(
            fa.cfg(),
            &CacheConfig::small_dcache(),
            &MemoryMap::default_embedded(),
            &fa.access_values(),
        );
        let b = fa.cfg().entry_block();
        // Index 0 is the `lui` (li of a 16-bit-aligned constant), 1 the lw.
        assert_eq!(a.classification(b, 1), None, "MMIO bypasses the dcache");
    }
}
