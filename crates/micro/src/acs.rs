//! Abstract cache states for LRU must/may/persistence analysis
//! (Ferdinand's domains).
//!
//! For a set-associative LRU cache, the **must** analysis tracks an upper
//! bound on each line's age (a line is *guaranteed* cached if its maximal
//! age is below the associativity), and the **may** analysis a lower bound
//! (a line is *guaranteed absent* if it appears in no may state). The
//! **persistence** analysis tracks, per line, an upper bound on the number
//! of conflicting accesses since the line's last possible load, with a
//! virtual *evicted-line* top element at `age == assoc`: a line that never
//! reaches the top after first being loaded is never evicted again, so all
//! accesses to it within the scope (one function/context activation) miss
//! **at most once**. Their combination classifies each access:
//!
//! | in must | in may | persistent | classification |
//! |---|---|---|---|
//! | yes | — | — | always hit |
//! | no | no | — | always miss |
//! | no | yes | yes | first miss (≤ 1 miss per activation) |
//! | no | yes | no | not classified (must assume the worst) |

use std::collections::BTreeMap;

use wcet_isa::cache::CacheConfig;
use wcet_isa::Addr;

use crate::footprint::{CacheFootprint, SetFootprint};

/// Classification of one memory access against the abstract caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// The line is provably cached: charge the hit latency.
    AlwaysHit,
    /// The line is provably absent: charge the full miss latency (useful
    /// for BCET, where a guaranteed miss *raises* the lower bound).
    AlwaysMiss,
    /// The line is persistent: at most one of the access's executions per
    /// activation misses. WCET charges the hit latency per execution plus
    /// one miss penalty per activation (an extra ILP variable); BCET
    /// charges a hit (zero misses are possible with a warm entry cache).
    FirstMiss,
    /// Unknown: WCET charges a miss, BCET charges a hit.
    NotClassified,
}

/// One abstract cache (the must, may, or persistence instance — update
/// and join rules differ by [`Polarity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractCache {
    config: CacheConfig,
    polarity: Polarity,
    /// Per set: line tag → abstract age (0 = MRU). Must/may store only
    /// ages `< assoc`; the persistence instance additionally keeps lines
    /// at `age == assoc` — the virtual evicted-line top element.
    sets: Vec<BTreeMap<u32, u8>>,
    /// Per set: true once an unknown-address access (or an opaque callee)
    /// may have touched the set on some path; voids always-miss
    /// conclusions from the may cache *for that set only*. Poisoning used
    /// to be one sticky global flag, so a single opaque call voided
    /// always-miss (BCET) classifications for every line of the whole
    /// rest of the function — even lines in sets the callee provably
    /// never touches.
    poison: Vec<bool>,
}

/// Which bound the cache instance tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Upper bounds on age: intersection-join, pessimistic aging.
    Must,
    /// Lower bounds on age: union-join, optimistic aging.
    May,
    /// Upper bounds on age since last possible load, clamped at the
    /// virtual evicted-line element (`assoc`): union-join with maximal
    /// age, conservative aging (every conflicting access ages every
    /// other line of the set).
    Persist,
}

impl AbstractCache {
    /// An empty (cold) abstract cache.
    #[must_use]
    pub fn new(config: CacheConfig, polarity: Polarity) -> AbstractCache {
        let sets = vec![BTreeMap::new(); config.sets];
        let poison = vec![false; config.sets];
        AbstractCache {
            config,
            polarity,
            sets,
            poison,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Which bound this instance tracks.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    fn set_of(&self, line: u32) -> usize {
        (line as usize) % self.config.sets
    }

    /// Is the line of `addr` guaranteed present (must) / possibly present
    /// (may)? For the persistence instance: has the line possibly been
    /// loaded in this scope (at any age, including the evicted top)?
    #[must_use]
    pub fn contains_line(&self, addr: Addr) -> bool {
        let line = self.config.line_of(addr);
        self.sets[self.set_of(line)].contains_key(&line)
    }

    /// Persistence query: the line of `addr` is tracked *below* the
    /// virtual evicted-line element, i.e. fewer than `assoc` conflicting
    /// accesses happened since its last possible load. Once such an
    /// access loads the line, every later execution of the same access
    /// within the activation hits — the access misses at most once.
    #[must_use]
    pub fn persistent_line(&self, addr: Addr) -> bool {
        debug_assert_eq!(self.polarity, Polarity::Persist);
        let line = self.config.line_of(addr);
        let assoc = self.config.assoc as u8;
        self.sets[self.set_of(line)]
            .get(&line)
            .is_some_and(|&age| age < assoc)
    }

    /// Records a definite access to `addr`'s line (LRU update).
    pub fn access(&mut self, addr: Addr) {
        let line = self.config.line_of(addr);
        let assoc = self.config.assoc as u8;
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        match self.polarity {
            Polarity::Must | Polarity::May => {
                let old_age = set.get(&line).copied();
                let mut evicted = Vec::new();
                for (&l, age) in set.iter_mut() {
                    if l == line {
                        continue;
                    }
                    // Lines younger than the accessed line's old age grow
                    // older; with the line previously absent, everyone ages.
                    let ages = match old_age {
                        Some(o) => *age < o,
                        None => true,
                    };
                    if ages {
                        *age += 1;
                        if *age >= assoc {
                            evicted.push(l);
                        }
                    }
                }
                for l in evicted {
                    set.remove(&l);
                }
                set.insert(line, 0);
            }
            Polarity::Persist => {
                // Conservative aging (Cullmann's fix to Ferdinand's
                // original persistence): *every* access to a different
                // line of the set ages every other line, regardless of
                // relative ages — over-ages repeated hits, which only
                // loses precision, never soundness. Lines clamp at the
                // virtual evicted element instead of leaving the state.
                for (&l, age) in set.iter_mut() {
                    if l != line && *age < assoc {
                        *age += 1;
                    }
                }
                set.insert(line, 0);
            }
        }
    }

    /// Records an access that touches *one of* `addrs` (a precise-set
    /// address from the value analysis): the must cache ages
    /// conservatively, the may cache unions all possibilities, the
    /// persistence cache takes the maximal ages.
    pub fn access_one_of(&mut self, addrs: &[Addr]) {
        // Join of the per-candidate updates; the polarity-aware join does
        // the right thing for every instance.
        let mut acc: Option<AbstractCache> = None;
        for &a in addrs {
            let mut c = self.clone();
            c.access(a);
            acc = Some(match acc {
                Some(prev) => prev.join(&c),
                None => c,
            });
        }
        if let Some(out) = acc {
            *self = out;
        }
    }

    /// Records an access whose address is completely unknown.
    ///
    /// For the must cache this is catastrophic — any line might have been
    /// evicted, so *nothing* is guaranteed cached any more. This is the
    /// paper's "an imprecise memory access invalidates large parts of the
    /// abstract cache (or even the whole cache)". The may cache instead
    /// ages everything optimistically (nothing new can be *guaranteed*
    /// present either) and poisons every set. The persistence cache
    /// clamps every tracked line to the evicted top — any of them may
    /// have been pushed out.
    pub fn access_unknown(&mut self) {
        match self.polarity {
            Polarity::Must => {
                for set in &mut self.sets {
                    set.clear();
                }
            }
            Polarity::May => {
                // Any line may now additionally be present; absent lines
                // stay possibly-absent. Conservatively age nothing (ages
                // are lower bounds; an unknown access can only make lines
                // younger, i.e. lower the bound — but we cannot know
                // which, so the sound choice is to keep ages and accept
                // that unknown lines are "possibly present" implicitly).
                // Classification of *future* accesses must treat absence
                // from may as no longer proving a miss; the analysis
                // records this via per-set poisoning — an unknown address
                // can map anywhere, so every set poisons.
                for p in &mut self.poison {
                    *p = true;
                }
            }
            Polarity::Persist => {
                let assoc = self.config.assoc as u8;
                for set in &mut self.sets {
                    for age in set.values_mut() {
                        *age = assoc;
                    }
                }
            }
        }
    }

    /// Applies a callee's cache [`CacheFootprint`] — the transfer of a
    /// call whose possible cache traffic is summarized per set:
    ///
    /// * **must**: lines age by the number of distinct conflicting lines
    ///   the callee may load into their set; an [`SetFootprint::Any`] set
    ///   clears. Untouched sets keep every guarantee.
    /// * **may**: the callee's possible lines become possibly present
    ///   (age 0); an `Any` set poisons *that set only*. No global
    ///   poisoning — the footprint proves the callee cannot touch the
    ///   other sets.
    /// * **persistence**: like must, but clamping at the evicted top
    ///   instead of evicting; the callee's possible lines additionally
    ///   enter the state (they may have been loaded), at their maximal
    ///   in-callee age.
    ///
    /// # Panics
    ///
    /// Panics when the footprint's geometry differs from the cache's.
    pub fn apply_footprint(&mut self, fp: &CacheFootprint) {
        assert_eq!(
            fp.config(),
            &self.config,
            "footprint geometry must match the abstract cache"
        );
        let assoc = self.config.assoc as u8;
        for (i, sfp) in fp.sets().iter().enumerate() {
            match (self.polarity, sfp) {
                (Polarity::Must, SetFootprint::Any) => self.sets[i].clear(),
                (Polarity::Must, SetFootprint::Lines(_)) => {
                    let mut evicted = Vec::new();
                    for (&l, age) in self.sets[i].iter_mut() {
                        let k = sfp.conflicts_with(l).expect("Lines arm") as u64;
                        *age = age.saturating_add(k.min(255) as u8);
                        if *age >= assoc {
                            evicted.push(l);
                        }
                    }
                    for l in evicted {
                        self.sets[i].remove(&l);
                    }
                }
                (Polarity::May, SetFootprint::Any) => self.poison[i] = true,
                (Polarity::May, SetFootprint::Lines(ls)) => {
                    // Possibly loaded, possibly most recently: the sound
                    // lower bound on their age is 0. Existing lines keep
                    // their bounds (callee traffic only ages them).
                    for &l in ls {
                        self.sets[i].insert(l, 0);
                    }
                }
                (Polarity::Persist, SetFootprint::Any) => {
                    for age in self.sets[i].values_mut() {
                        *age = assoc;
                    }
                }
                (Polarity::Persist, SetFootprint::Lines(ls)) => {
                    for (&l, age) in self.sets[i].iter_mut() {
                        let k = sfp.conflicts_with(l).expect("Lines arm") as u64;
                        *age = age.saturating_add(k.min(255) as u8).min(assoc);
                    }
                    // A footprint line the caller never loaded may have
                    // been loaded by the callee, with at most
                    // |lines \ {l}| conflicts after its last in-callee
                    // load. Tracked lines keep their (larger) aged bound.
                    for &l in ls {
                        let k = ls.len() - 1;
                        if (k as u64) < u64::from(assoc) {
                            self.sets[i].entry(l).or_insert(k as u8);
                        }
                    }
                }
            }
        }
    }

    /// Joins two abstract caches (control-flow merge).
    #[must_use]
    pub fn join(&self, other: &AbstractCache) -> AbstractCache {
        assert_eq!(self.config, other.config, "joining incompatible caches");
        assert_eq!(self.polarity, other.polarity, "joining across polarities");
        let mut out = AbstractCache::new(self.config.clone(), self.polarity);
        for (i, p) in out.poison.iter_mut().enumerate() {
            *p = self.poison[i] || other.poison[i];
        }
        for (i, set) in out.sets.iter_mut().enumerate() {
            match self.polarity {
                Polarity::Must => {
                    // Intersection with maximal age.
                    for (l, &a) in &self.sets[i] {
                        if let Some(&b) = other.sets[i].get(l) {
                            set.insert(*l, a.max(b));
                        }
                    }
                }
                Polarity::May => {
                    // Union with minimal age.
                    for (l, &a) in &self.sets[i] {
                        set.insert(*l, a);
                    }
                    for (l, &b) in &other.sets[i] {
                        set.entry(*l).and_modify(|a| *a = (*a).min(b)).or_insert(b);
                    }
                }
                Polarity::Persist => {
                    // Union with maximal age: a line is "possibly loaded"
                    // if either path loaded it, and the conflict bound
                    // must cover both paths.
                    for (l, &a) in &self.sets[i] {
                        set.insert(*l, a);
                    }
                    for (l, &b) in &other.sets[i] {
                        set.entry(*l).and_modify(|a| *a = (*a).max(b)).or_insert(b);
                    }
                }
            }
        }
        out
    }

    /// Domain order: `self ⊑ other` (self at least as precise).
    #[must_use]
    pub fn is_subsumed_by(&self, other: &AbstractCache) -> bool {
        // A set poisoned in self but clean in other: self is strictly
        // less precise there.
        if self
            .poison
            .iter()
            .zip(&other.poison)
            .any(|(s, o)| *s && !*o)
        {
            return false;
        }
        match self.polarity {
            Polarity::Must => {
                // Other's guarantees must all follow from self's.
                other.sets.iter().enumerate().all(|(i, oset)| {
                    oset.iter()
                        .all(|(l, &ob)| self.sets[i].get(l).is_some_and(|&a| a <= ob))
                })
            }
            Polarity::May => {
                // Self's possibilities must all be admitted by other.
                self.sets.iter().enumerate().all(|(i, sset)| {
                    sset.iter()
                        .all(|(l, &a)| other.sets[i].get(l).is_some_and(|&ob| ob <= a))
                })
            }
            Polarity::Persist => {
                // Self's possibly-loaded lines must be admitted by other
                // at an age at least as large (larger age = weaker claim).
                self.sets.iter().enumerate().all(|(i, sset)| {
                    sset.iter()
                        .all(|(l, &a)| other.sets[i].get(l).is_some_and(|&ob| ob >= a))
                })
            }
        }
    }

    /// Absorbs the abstract cache into a stable hasher (for the
    /// incremental engine's context-entry digests).
    pub fn digest_into(&self, h: &mut wcet_isa::hash::StableHasher) {
        h.write_u32(match self.polarity {
            Polarity::Must => 0,
            Polarity::May => 1,
            Polarity::Persist => 2,
        });
        for &p in &self.poison {
            h.write_u32(u32::from(p));
        }
        h.write_usize(self.config.sets);
        h.write_usize(self.config.assoc);
        h.write_usize(self.sets.len());
        for set in &self.sets {
            h.write_usize(set.len());
            for (&line, &age) in set {
                h.write_u32(line);
                h.write_u32(u32::from(age));
            }
        }
    }

    /// Serializes the abstract cache for the incremental engine's unit
    /// artifacts — the byte-level twin of [`AbstractCache::digest_into`].
    pub fn encode_into(&self, w: &mut wcet_isa::codec::Writer) {
        w.u8(match self.polarity {
            Polarity::Must => 0,
            Polarity::May => 1,
            Polarity::Persist => 2,
        });
        w.usize(self.config.sets);
        w.usize(self.config.assoc);
        w.u32(self.config.line_bytes);
        w.u32(self.config.hit_latency);
        for (set, &poisoned) in self.sets.iter().zip(&self.poison) {
            w.bool(poisoned);
            w.usize(set.len());
            for (&line, &age) in set {
                w.u32(line);
                w.u8(age);
            }
        }
    }

    /// Inverse of [`AbstractCache::encode_into`]. `None` unless the
    /// encoded geometry equals `config` and every line sits in its own
    /// set at an age the polarity admits (below `assoc`; the persistence
    /// instance also at the evicted top) — a malformed state must read as
    /// a cache miss, never index out of bounds later.
    pub fn decode_from(
        r: &mut wcet_isa::codec::Reader<'_>,
        config: &CacheConfig,
    ) -> Option<AbstractCache> {
        let polarity = match r.u8()? {
            0 => Polarity::Must,
            1 => Polarity::May,
            2 => Polarity::Persist,
            _ => return None,
        };
        let geometry = (r.usize()?, r.usize()?, r.u32()?, r.u32()?);
        if geometry
            != (
                config.sets,
                config.assoc,
                config.line_bytes,
                config.hit_latency,
            )
        {
            return None;
        }
        let max_age = match polarity {
            Polarity::Persist => config.assoc,
            Polarity::Must | Polarity::May => config.assoc.saturating_sub(1),
        };
        let mut cache = AbstractCache::new(config.clone(), polarity);
        for i in 0..config.sets {
            cache.poison[i] = r.bool()?;
            let n = r.length()?;
            for _ in 0..n {
                let (line, age) = (r.u32()?, r.u8()?);
                if cache.set_of(line) != i || usize::from(age) > max_age {
                    return None;
                }
                if cache.sets[i].insert(line, age).is_some() {
                    return None;
                }
            }
        }
        Some(cache)
    }

    /// True if an unknown-address access has been seen on some path, which
    /// voids "guaranteed absent" conclusions somewhere.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poison.iter().any(|&p| p)
    }

    /// True if `addr`'s *set* is poisoned — the per-set scope that
    /// actually voids an always-miss claim for this address.
    #[must_use]
    pub fn is_poisoned_at(&self, addr: Addr) -> bool {
        let line = self.config.line_of(addr);
        self.poison[self.set_of(line)]
    }

    /// Number of lines currently tracked.
    #[must_use]
    pub fn tracked_lines(&self) -> usize {
        self.sets.iter().map(BTreeMap::len).sum()
    }
}

/// Classifies an access given the must and may states *before* it.
#[must_use]
pub fn classify(must: &AbstractCache, may: &AbstractCache, addr: Addr) -> Classification {
    classify_with_persist(must, may, None, addr)
}

/// [`classify`] with an optional persistence state: an access that is
/// neither a guaranteed hit nor a guaranteed miss, but whose line is
/// persistent, classifies [`Classification::FirstMiss`].
#[must_use]
pub fn classify_with_persist(
    must: &AbstractCache,
    may: &AbstractCache,
    persist: Option<&AbstractCache>,
    addr: Addr,
) -> Classification {
    if must.contains_line(addr) {
        Classification::AlwaysHit
    } else if !may.contains_line(addr) && !may.is_poisoned_at(addr) {
        Classification::AlwaysMiss
    } else if persist.is_some_and(|p| p.persistent_line(addr)) {
        Classification::FirstMiss
    } else {
        Classification::NotClassified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cfg2way() -> CacheConfig {
        CacheConfig::new(2, 2, 16, 1)
    }

    fn must() -> AbstractCache {
        AbstractCache::new(cfg2way(), Polarity::Must)
    }

    fn may() -> AbstractCache {
        AbstractCache::new(cfg2way(), Polarity::May)
    }

    fn persist() -> AbstractCache {
        AbstractCache::new(cfg2way(), Polarity::Persist)
    }

    #[test]
    fn must_guarantees_after_access() {
        let mut m = must();
        assert!(!m.contains_line(Addr(0x100)));
        m.access(Addr(0x100));
        assert!(m.contains_line(Addr(0x100)));
        // Same line, different word.
        assert!(m.contains_line(Addr(0x104)));
    }

    #[test]
    fn must_eviction_by_aging() {
        let mut m = must();
        // Three lines in the same set of a 2-way cache: first is evicted.
        // Set index = line % 2; lines 0x100/16=16, 0x120/16=18, 0x140/16=20
        // are all even → set 0.
        m.access(Addr(0x100));
        m.access(Addr(0x120));
        m.access(Addr(0x140));
        assert!(!m.contains_line(Addr(0x100)), "aged out of 2 ways");
        assert!(m.contains_line(Addr(0x120)));
        assert!(m.contains_line(Addr(0x140)));
    }

    #[test]
    fn must_join_is_intersection_max_age() {
        let mut a = must();
        a.access(Addr(0x100));
        a.access(Addr(0x120)); // 0x100 now age 1
        let mut b = must();
        b.access(Addr(0x100)); // 0x100 age 0
        let j = a.join(&b);
        assert!(j.contains_line(Addr(0x100)));
        assert!(!j.contains_line(Addr(0x120)), "only in one branch");
        // Age must be the max (1): one more conflicting access evicts.
        let mut j2 = j.clone();
        j2.access(Addr(0x140));
        assert!(!j2.contains_line(Addr(0x100)));
    }

    #[test]
    fn may_join_is_union_min_age() {
        let mut a = may();
        a.access(Addr(0x100));
        let mut b = may();
        b.access(Addr(0x120));
        let j = a.join(&b);
        assert!(j.contains_line(Addr(0x100)));
        assert!(j.contains_line(Addr(0x120)));
    }

    #[test]
    fn classification_matrix() {
        let mut must_c = must();
        let mut may_c = may();
        // 0x100 accessed on all paths → always hit.
        must_c.access(Addr(0x100));
        may_c.access(Addr(0x100));
        assert_eq!(
            classify(&must_c, &may_c, Addr(0x100)),
            Classification::AlwaysHit
        );
        // 0x200 never accessed → always miss.
        assert_eq!(
            classify(&must_c, &may_c, Addr(0x200)),
            Classification::AlwaysMiss
        );
        // 0x120 accessed on some path only.
        may_c.access(Addr(0x120));
        let mut must_without = must();
        must_without.access(Addr(0x100));
        assert_eq!(
            classify(&must_without, &may_c, Addr(0x120)),
            Classification::NotClassified
        );
    }

    #[test]
    fn unknown_access_empties_must_cache() {
        let mut m = must();
        m.access(Addr(0x100));
        m.access(Addr(0x250));
        assert!(m.tracked_lines() > 0);
        m.access_unknown();
        assert_eq!(m.tracked_lines(), 0, "the paper's total invalidation");
    }

    #[test]
    fn unknown_access_poisons_may_cache() {
        let mut m = may();
        m.access(Addr(0x100));
        m.access_unknown();
        assert!(m.is_poisoned());
        assert!(m.is_poisoned_at(Addr(0x999)), "unknown poisons every set");
        // No more always-miss classifications afterwards.
        let must_c = must();
        assert_eq!(
            classify(&must_c, &m, Addr(0x999)),
            Classification::NotClassified
        );
    }

    #[test]
    fn set_access_weakens_must() {
        let mut m = must();
        m.access(Addr(0x100));
        // The access goes to 0x200 or 0x300: neither ends up guaranteed.
        m.access_one_of(&[Addr(0x200), Addr(0x300)]);
        assert!(!m.contains_line(Addr(0x200)));
        assert!(!m.contains_line(Addr(0x300)));
    }

    #[test]
    fn set_access_widens_may() {
        let mut m = may();
        m.access_one_of(&[Addr(0x200), Addr(0x300)]);
        assert!(m.contains_line(Addr(0x200)));
        assert!(m.contains_line(Addr(0x300)));
    }

    #[test]
    fn subsumption_order() {
        let empty = must();
        let mut one = must();
        one.access(Addr(0x100));
        // `one` has more guarantees → more precise → subsumed by empty.
        assert!(one.is_subsumed_by(&empty));
        assert!(!empty.is_subsumed_by(&one));
    }

    // --- persistence domain ------------------------------------------

    #[test]
    fn persistence_survives_within_associativity() {
        let mut p = persist();
        p.access(Addr(0x100)); // line 16, set 0
        p.access(Addr(0x120)); // line 18, set 0: ages 0x100 to 1
        assert!(p.persistent_line(Addr(0x100)), "one conflict in 2 ways");
        p.access(Addr(0x140)); // ages 0x100 to the evicted top
        assert!(!p.persistent_line(Addr(0x100)), "aged out of 2 ways");
        assert!(
            p.contains_line(Addr(0x100)),
            "the top element stays tracked"
        );
        // Re-loading restores persistence (age since last load resets).
        p.access(Addr(0x100));
        assert!(p.persistent_line(Addr(0x100)));
    }

    #[test]
    fn persist_join_is_union_max_age() {
        let mut a = persist();
        a.access(Addr(0x100));
        a.access(Addr(0x120)); // 0x100 at age 1
        let mut b = persist();
        b.access(Addr(0x100)); // 0x100 at age 0
        let j = a.join(&b);
        assert!(j.persistent_line(Addr(0x100)), "joined age is max = 1");
        let mut j2 = j.clone();
        j2.access(Addr(0x140)); // max age 1 + 1 = top
        assert!(!j2.persistent_line(Addr(0x100)));
        // Untracked-on-one-path lines stay tracked (union).
        assert!(j.contains_line(Addr(0x120)));
    }

    #[test]
    fn persist_unknown_access_clamps_to_top() {
        let mut p = persist();
        p.access(Addr(0x100));
        p.access_unknown();
        assert!(!p.persistent_line(Addr(0x100)));
        assert!(p.contains_line(Addr(0x100)));
        // A fresh load after the unknown access is persistent again.
        p.access(Addr(0x100));
        assert!(p.persistent_line(Addr(0x100)));
    }

    #[test]
    fn first_miss_classification_requires_persistence() {
        let must_c = must();
        let mut may_c = may();
        may_c.access(Addr(0x100));
        let mut p = persist();
        p.access(Addr(0x100));
        assert_eq!(
            classify_with_persist(&must_c, &may_c, Some(&p), Addr(0x100)),
            Classification::FirstMiss
        );
        // Aged to the top: back to not-classified.
        p.access(Addr(0x120));
        p.access(Addr(0x140));
        assert_eq!(
            classify_with_persist(&must_c, &may_c, Some(&p), Addr(0x100)),
            Classification::NotClassified
        );
        // Guaranteed absence still wins over persistence (it is exact for
        // WCET and strictly better for BCET).
        let fresh_may = may();
        let mut p2 = persist();
        p2.access(Addr(0x200));
        assert_eq!(
            classify_with_persist(&must_c, &fresh_may, Some(&p2), Addr(0x200)),
            Classification::AlwaysMiss
        );
    }

    // --- per-set poisoning and footprints ----------------------------

    #[test]
    fn footprint_poisons_only_its_any_sets() {
        // Regression for the sticky-poison bug: an opaque-per-set callee
        // voids always-miss only where it can actually touch.
        let mut m = may();
        m.access(Addr(0x100)); // set 0
                               // The callee may touch anything in set 1, nothing in set 0.
        let fp = CacheFootprint::from_parts(
            cfg2way(),
            vec![SetFootprint::Lines(BTreeSet::new()), SetFootprint::Any],
        )
        .unwrap();
        assert!(fp.has_unknown_set());
        m.apply_footprint(&fp);
        assert!(m.is_poisoned_at(Addr(0x110)), "touched set poisons");
        assert!(
            !m.is_poisoned_at(Addr(0x200)),
            "untouched set keeps always-miss power"
        );
        let must_c = must();
        assert_eq!(
            classify(&must_c, &m, Addr(0x200)),
            Classification::AlwaysMiss,
            "set-0 absence still proves a miss"
        );
        assert_eq!(
            classify(&must_c, &m, Addr(0x210)),
            Classification::NotClassified
        );
    }

    #[test]
    fn footprint_ages_must_by_conflicting_lines() {
        let mut m = must();
        m.access(Addr(0x100)); // line 16, set 0, age 0
        m.access(Addr(0x110)); // line 17, set 1, age 0
        let mut fp = CacheFootprint::empty(&cfg2way());
        fp.absorb_addr(Addr(0x120)); // line 18, set 0: one conflict
        m.apply_footprint(&fp);
        assert!(
            m.contains_line(Addr(0x100)),
            "one conflict in 2 ways survives"
        );
        assert!(m.contains_line(Addr(0x110)), "untouched set unaffected");
        // A second application evicts (age 2 ≥ assoc).
        m.apply_footprint(&fp);
        assert!(!m.contains_line(Addr(0x100)));
        assert!(m.contains_line(Addr(0x110)));
    }

    #[test]
    fn footprint_enters_may_without_poisoning() {
        let mut m = may();
        let mut fp = CacheFootprint::empty(&cfg2way());
        fp.absorb_addr(Addr(0x120));
        m.apply_footprint(&fp);
        assert!(m.contains_line(Addr(0x120)), "callee line possibly present");
        assert!(!m.is_poisoned(), "known footprint never poisons");
        let must_c = must();
        assert_eq!(
            classify(&must_c, &m, Addr(0x200)),
            Classification::AlwaysMiss,
            "absence outside the footprint still proves a miss"
        );
    }

    #[test]
    fn footprint_tracks_callee_lines_in_persist() {
        let mut p = persist();
        let mut fp = CacheFootprint::empty(&cfg2way());
        fp.absorb_addr(Addr(0x120)); // single line: 0 conflicts
        p.apply_footprint(&fp);
        assert!(
            p.persistent_line(Addr(0x120)),
            "a single-line callee leaves its line persistent"
        );
        // A caller line in the same set ages by one per application.
        p.access(Addr(0x100));
        p.apply_footprint(&fp);
        p.apply_footprint(&fp);
        assert!(!p.persistent_line(Addr(0x100)), "two conflicts in 2 ways");
    }

    #[test]
    fn join_ors_poison_per_set() {
        let mut a = may();
        let fp = CacheFootprint::from_parts(
            cfg2way(),
            vec![SetFootprint::Any, SetFootprint::Lines(BTreeSet::new())],
        )
        .unwrap();
        a.apply_footprint(&fp);
        let b = may();
        let j = a.join(&b);
        assert!(j.is_poisoned_at(Addr(0x100)));
        assert!(!j.is_poisoned_at(Addr(0x110)));
        // Subsumption: the poisoned state is not more precise than the
        // clean one.
        assert!(!a.is_subsumed_by(&b));
        assert!(b.is_subsumed_by(&a));
        // Digests separate the poison masks.
        let digest = |c: &AbstractCache| {
            let mut h = wcet_isa::hash::StableHasher::new();
            c.digest_into(&mut h);
            h.finish()
        };
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn full_footprint_equals_clobber() {
        // An all-Any footprint must behave exactly like the opaque-call
        // clobber, for every polarity.
        for polarity in [Polarity::Must, Polarity::May, Polarity::Persist] {
            let mut via_fp = AbstractCache::new(cfg2way(), polarity);
            via_fp.access(Addr(0x100));
            via_fp.access(Addr(0x110));
            let mut via_unknown = via_fp.clone();
            let mut fp = CacheFootprint::empty(&cfg2way());
            fp.absorb_unknown();
            via_fp.apply_footprint(&fp);
            via_unknown.access_unknown();
            assert_eq!(via_fp, via_unknown, "{polarity:?}");
        }
    }

    #[test]
    fn empty_footprint_is_identity() {
        for polarity in [Polarity::Must, Polarity::May, Polarity::Persist] {
            let mut c = AbstractCache::new(cfg2way(), polarity);
            c.access(Addr(0x100));
            let before = c.clone();
            c.apply_footprint(&CacheFootprint::empty(&cfg2way()));
            assert_eq!(c, before, "{polarity:?}");
        }
    }

    #[test]
    fn footprint_line_set_helper() {
        // Cross-check the Lines constructor used by the tests above.
        let mut fp = CacheFootprint::empty(&cfg2way());
        fp.absorb_addr(Addr(0x100));
        assert_eq!(
            fp.sets()[0],
            SetFootprint::Lines(BTreeSet::from([16])),
            "line 16 lands in set 0"
        );
    }
}
