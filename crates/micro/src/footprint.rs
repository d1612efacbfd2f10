//! Cache **footprint summaries**: which lines of which cache sets a
//! callee (including its transitive callees) can possibly touch.
//!
//! PR 4's soundness fix made every call wipe the caller's must cache and
//! permanently poison its may cache — sound, but it discards *all*
//! warm-cache knowledge across calls, so repeated calls in loops are
//! charged cold-cache misses forever. A footprint summary bounds the
//! damage instead: a callee that provably touches only lines `S_i` of set
//! `i` can age a caller-cached line in that set by at most `|S_i|`
//! positions, leaves every other set untouched, and cannot make any line
//! outside its footprint "possibly cached" — so the caller keeps its
//! must-cache guarantees for untouched lines and its may-cache stays
//! un-poisoned when the footprint is fully known.
//!
//! Footprints are computed per function from the CFG (instruction
//! fetches) and the value analysis' abstract data addresses, then closed
//! transitively over the call graph (bottom-up) by the analyzer. A set
//! the callee may touch through a statically unknown address degrades to
//! [`SetFootprint::Any`]; an address about which *nothing* is known
//! degrades every set.

use std::collections::{BTreeMap, BTreeSet};

use wcet_analysis::Value;
use wcet_cfg::graph::Cfg;
use wcet_isa::cache::CacheConfig;
use wcet_isa::memmap::MemoryMap;
use wcet_isa::Addr;

/// What a callee can do to one cache set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetFootprint {
    /// Only these line tags can be loaded into the set (possibly none).
    Lines(BTreeSet<u32>),
    /// Any line of the set may be loaded: the caller must assume full
    /// eviction (must) and possible presence of anything (may poison).
    Any,
}

impl SetFootprint {
    /// Number of distinct lines that can conflict with `line` in this
    /// set, or `None` for [`SetFootprint::Any`].
    #[must_use]
    pub fn conflicts_with(&self, line: u32) -> Option<usize> {
        match self {
            SetFootprint::Lines(ls) => Some(ls.len() - usize::from(ls.contains(&line))),
            SetFootprint::Any => None,
        }
    }
}

/// A per-set summary of the lines one callee subtree can touch in a
/// cache of a fixed geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheFootprint {
    config: CacheConfig,
    sets: Vec<SetFootprint>,
}

impl CacheFootprint {
    /// The empty footprint (touches nothing) for a cache geometry.
    #[must_use]
    pub fn empty(config: &CacheConfig) -> CacheFootprint {
        CacheFootprint {
            sets: vec![SetFootprint::Lines(BTreeSet::new()); config.sets],
            config: config.clone(),
        }
    }

    /// The unknown footprint (may touch anything).
    #[must_use]
    pub fn unknown(config: &CacheConfig) -> CacheFootprint {
        let mut fp = CacheFootprint::empty(config);
        fp.absorb_unknown();
        fp
    }

    /// Rebuilds a footprint from decoded parts (the incremental cache's
    /// replay path). `None` when the set vector does not fit the
    /// geometry.
    #[must_use]
    pub fn from_parts(config: CacheConfig, sets: Vec<SetFootprint>) -> Option<CacheFootprint> {
        (sets.len() == config.sets).then_some(CacheFootprint { config, sets })
    }

    /// The cache geometry this footprint describes.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The per-set summaries, in set order.
    #[must_use]
    pub fn sets(&self) -> &[SetFootprint] {
        &self.sets
    }

    /// True if no set can be touched at all.
    #[must_use]
    pub fn touches_nothing(&self) -> bool {
        self.sets
            .iter()
            .all(|s| matches!(s, SetFootprint::Lines(ls) if ls.is_empty()))
    }

    /// Absorbs the footprint into a stable hasher: the incremental
    /// engine keys a caller's unit artifacts on the footprints its call
    /// sites are priced with.
    pub fn digest_into(&self, h: &mut wcet_isa::hash::StableHasher) {
        h.write_usize(self.config.sets);
        h.write_usize(self.config.assoc);
        h.write_u32(self.config.line_bytes);
        h.write_u32(self.config.hit_latency);
        for set in &self.sets {
            match set {
                SetFootprint::Any => h.write_u32(u32::MAX),
                SetFootprint::Lines(ls) => {
                    h.write_usize(ls.len());
                    for &l in ls {
                        h.write_u32(l);
                    }
                }
            }
        }
    }

    /// True if some set degraded to [`SetFootprint::Any`].
    #[must_use]
    pub fn has_unknown_set(&self) -> bool {
        self.sets.iter().any(|s| matches!(s, SetFootprint::Any))
    }

    /// Records a definite touch of `addr`'s line.
    pub fn absorb_addr(&mut self, addr: Addr) {
        let line = self.config.line_of(addr);
        let set = (line as usize) % self.config.sets;
        if let SetFootprint::Lines(ls) = &mut self.sets[set] {
            ls.insert(line);
        }
    }

    /// Records a touch somewhere in `[lo, hi]`. Ranges spanning at most
    /// the cache's line capacity enumerate their lines; wider ranges
    /// degrade to the unknown footprint (more lines than the cache holds
    /// necessarily cover every set — `capacity ≥ sets` — and could evict
    /// everything anyway).
    pub fn absorb_range(&mut self, lo: Addr, hi: Addr) {
        if hi < lo {
            return;
        }
        let line_lo = self.config.line_of(lo);
        let line_hi = self.config.line_of(hi);
        let count = u64::from(line_hi) - u64::from(line_lo) + 1;
        let capacity = (self.config.sets * self.config.assoc) as u64;
        if count > capacity {
            self.absorb_unknown();
            return;
        }
        for l in line_lo..=line_hi {
            let set = (l as usize) % self.config.sets;
            if let SetFootprint::Lines(ls) = &mut self.sets[set] {
                ls.insert(l);
            }
        }
    }

    /// Records a touch at a completely unknown address.
    pub fn absorb_unknown(&mut self) {
        for s in &mut self.sets {
            *s = SetFootprint::Any;
        }
    }

    /// Unions another footprint of the same geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics when the geometries differ.
    pub fn union(&mut self, other: &CacheFootprint) {
        assert_eq!(
            self.config, other.config,
            "uniting footprints of different caches"
        );
        for (mine, theirs) in self.sets.iter_mut().zip(&other.sets) {
            match (&mut *mine, theirs) {
                (SetFootprint::Any, _) => {}
                (_, SetFootprint::Any) => *mine = SetFootprint::Any,
                (SetFootprint::Lines(a), SetFootprint::Lines(b)) => {
                    a.extend(b.iter().copied());
                }
            }
        }
    }
}

/// The instruction-cache footprint of one function body: every cacheable
/// instruction address it can fetch. Always fully known — fetch
/// addresses are static.
#[must_use]
pub fn instruction_footprint(
    cfg: &Cfg,
    config: &CacheConfig,
    memmap: &MemoryMap,
) -> CacheFootprint {
    let mut fp = CacheFootprint::empty(config);
    for (_, block) in cfg.iter() {
        for (addr, _) in &block.insts {
            if memmap.region_at(*addr).is_some_and(|r| r.cacheable) {
                fp.absorb_addr(*addr);
            }
        }
    }
    fp
}

/// The data-cache footprint of one function body, from the value
/// analysis' abstract access addresses (keyed by instruction address).
/// Precise address sets contribute their lines; bounded intervals
/// contribute ranges; unbounded or missing values degrade to unknown.
#[must_use]
pub fn data_footprint(
    cfg: &Cfg,
    config: &CacheConfig,
    memmap: &MemoryMap,
    accesses: &BTreeMap<Addr, Value>,
) -> CacheFootprint {
    let mut fp = CacheFootprint::empty(config);
    for (_, block) in cfg.iter() {
        for (inst_addr, inst) in &block.insts {
            if !inst.is_memory_access() {
                continue;
            }
            absorb_access(&mut fp, accesses.get(inst_addr), memmap);
        }
    }
    fp
}

fn absorb_access(fp: &mut CacheFootprint, value: Option<&Value>, memmap: &MemoryMap) {
    let Some(value) = value else {
        fp.absorb_unknown();
        return;
    };
    if let Some(set) = value.as_set() {
        for &a in set {
            let addr = Addr(a);
            if memmap.region_at(addr).is_some_and(|r| r.cacheable) {
                fp.absorb_addr(addr);
            }
        }
        return;
    }
    let iv = value.to_interval();
    match (iv.lo(), iv.hi()) {
        // A bounded interval: everything it spans might be loaded.
        // Uncacheable sub-ranges contribute lines that can never be in
        // the cache — harmless over-approximation.
        (Some(lo), Some(hi)) => fp.absorb_range(Addr(lo), Addr(hi)),
        _ => fp.absorb_unknown(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> CacheConfig {
        // 4 sets × 2 ways × 16-byte lines.
        CacheConfig::new(4, 2, 16, 1)
    }

    #[test]
    fn absorb_addr_collects_lines_per_set() {
        let mut fp = CacheFootprint::empty(&cfg4());
        assert!(fp.touches_nothing());
        fp.absorb_addr(Addr(0x100)); // line 16 → set 0
        fp.absorb_addr(Addr(0x104)); // same line
        fp.absorb_addr(Addr(0x110)); // line 17 → set 1
        assert!(!fp.touches_nothing());
        assert_eq!(fp.sets()[0], SetFootprint::Lines(BTreeSet::from([16])));
        assert_eq!(fp.sets()[1], SetFootprint::Lines(BTreeSet::from([17])));
        assert_eq!(fp.sets()[2], SetFootprint::Lines(BTreeSet::new()));
    }

    #[test]
    fn small_range_enumerates_wide_range_degrades() {
        let mut small = CacheFootprint::empty(&cfg4());
        small.absorb_range(Addr(0x100), Addr(0x12f)); // 3 lines
        assert_eq!(small.sets()[0], SetFootprint::Lines(BTreeSet::from([16])));
        assert!(!small.has_unknown_set());

        let mut wide = CacheFootprint::empty(&cfg4());
        wide.absorb_range(Addr(0x0), Addr(0xfff)); // 256 lines ≫ capacity 8
        assert!(wide.has_unknown_set());
        assert!(wide.sets().iter().all(|s| matches!(s, SetFootprint::Any)));
    }

    #[test]
    fn union_takes_the_weaker_summary() {
        let mut a = CacheFootprint::empty(&cfg4());
        a.absorb_addr(Addr(0x100));
        let mut b = CacheFootprint::empty(&cfg4());
        b.absorb_addr(Addr(0x140)); // line 20 → set 0
        b.sets[1] = SetFootprint::Any;
        a.union(&b);
        assert_eq!(a.sets()[0], SetFootprint::Lines(BTreeSet::from([16, 20])));
        assert_eq!(a.sets()[1], SetFootprint::Any);
    }

    #[test]
    fn conflicts_exclude_the_line_itself() {
        let lines = SetFootprint::Lines(BTreeSet::from([16, 20]));
        assert_eq!(lines.conflicts_with(16), Some(1));
        assert_eq!(lines.conflicts_with(99), Some(2));
        assert_eq!(SetFootprint::Any.conflicts_with(16), None);
    }

    #[test]
    fn from_parts_validates_geometry() {
        let cfg = cfg4();
        assert!(CacheFootprint::from_parts(cfg.clone(), vec![SetFootprint::Any; 4]).is_some());
        assert!(CacheFootprint::from_parts(cfg, vec![SetFootprint::Any; 3]).is_none());
    }
}
