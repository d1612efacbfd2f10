//! Property tests of the abstract-cache domain algebra itself: joins can
//! only *weaken* classifications (a merge never invents an always-hit,
//! always-miss, or first-miss claim that one of the incoming paths did
//! not support), `digest_into` / `is_subsumed_by` agree about the
//! per-set poison state — including the persistence domain — and the
//! unit-artifact codec round-trips every state exactly.

use proptest::prelude::*;

use wcet_isa::cache::CacheConfig;
use wcet_isa::codec::{Reader, Writer};
use wcet_isa::hash::StableHasher;
use wcet_isa::Addr;
use wcet_micro::acs::{classify_with_persist, AbstractCache, Classification, Polarity};
use wcet_micro::cacheanalysis::CacheStates;
use wcet_micro::footprint::CacheFootprint;

fn geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..3, 1usize..4).prop_map(|(sets_log, assoc)| CacheConfig::new(1 << sets_log, assoc, 16, 1))
}

/// One abstract step of the analysis, as the fixpoint would apply it.
#[derive(Debug, Clone)]
enum Op {
    Access(u32),
    OneOf(Vec<u32>),
    Unknown,
    /// A summarized call touching the lines (and, with `any_set`, one
    /// fully unknown set).
    Footprint(Vec<u32>, bool),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..64).prop_map(Op::Access),
            (0u32..64).prop_map(Op::Access),
            (0u32..64).prop_map(Op::Access),
            proptest::collection::vec(0u32..64, 1..4).prop_map(Op::OneOf),
            Just(Op::Unknown),
            (proptest::collection::vec(0u32..64, 0..4), any::<bool>())
                .prop_map(|(ls, any_set)| Op::Footprint(ls, any_set)),
        ],
        0..20,
    )
}

/// Runs one path through a must/may/persist triple.
fn run_path(config: &CacheConfig, path: &[Op]) -> [AbstractCache; 3] {
    let mut states = [
        AbstractCache::new(config.clone(), Polarity::Must),
        AbstractCache::new(config.clone(), Polarity::May),
        AbstractCache::new(config.clone(), Polarity::Persist),
    ];
    for op in path {
        for s in &mut states {
            match op {
                Op::Access(raw) => s.access(Addr(raw * 4)),
                Op::OneOf(raws) => {
                    let addrs: Vec<Addr> = raws.iter().map(|&r| Addr(r * 4)).collect();
                    s.access_one_of(&addrs);
                }
                Op::Unknown => s.access_unknown(),
                Op::Footprint(lines, any_set) => {
                    let mut fp = CacheFootprint::empty(config);
                    for &l in lines {
                        fp.absorb_addr(Addr(l * 4));
                    }
                    if *any_set {
                        // Degrade one whole set: a bounded-but-wide
                        // callee range.
                        let span = config.sets as u32 * config.line_bytes;
                        fp.absorb_range(Addr(0), Addr(span.saturating_mul(2)));
                    }
                    s.apply_footprint(&fp);
                }
            }
        }
    }
    states
}

fn digest(c: &AbstractCache) -> u64 {
    let mut h = StableHasher::new();
    c.digest_into(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Joining two paths can only *weaken* a classification: if the join
    /// claims always-hit, always-miss, or first-miss at an address, both
    /// incoming paths must already support that claim (or a strictly
    /// stronger one). A join that invents a guarantee would let a merge
    /// point manufacture soundness out of thin air.
    #[test]
    fn prop_join_only_weakens_classifications(
        config in geometry(),
        path_a in ops(),
        path_b in ops(),
        probes in proptest::collection::vec(0u32..64, 1..10),
    ) {
        let [must_a, may_a, per_a] = run_path(&config, &path_a);
        let [must_b, may_b, per_b] = run_path(&config, &path_b);
        let must_j = must_a.join(&must_b);
        let may_j = may_a.join(&may_b);
        let per_j = per_a.join(&per_b);

        for &raw in &probes {
            let addr = Addr(raw * 4);
            let a = classify_with_persist(&must_a, &may_a, Some(&per_a), addr);
            let b = classify_with_persist(&must_b, &may_b, Some(&per_b), addr);
            let j = classify_with_persist(&must_j, &may_j, Some(&per_j), addr);
            match j {
                Classification::AlwaysHit => {
                    prop_assert_eq!(a, Classification::AlwaysHit, "join invented AH at {}", addr);
                    prop_assert_eq!(b, Classification::AlwaysHit, "join invented AH at {}", addr);
                }
                Classification::AlwaysMiss => {
                    prop_assert_eq!(a, Classification::AlwaysMiss, "join invented AM at {}", addr);
                    prop_assert_eq!(b, Classification::AlwaysMiss, "join invented AM at {}", addr);
                }
                Classification::FirstMiss => {
                    // First-miss is compatible with any branch claim
                    // except invention from nothing: the union join can
                    // only track a line one of the paths possibly
                    // loaded (an untracked line means "definitely not
                    // loaded in scope", and untracked ∪ untracked must
                    // stay untracked).
                    prop_assert!(
                        per_a.contains_line(addr) || per_b.contains_line(addr),
                        "join tracked {} though neither path loaded it (A {:?}, B {:?})",
                        addr, a, b
                    );
                }
                Classification::NotClassified => {}
            }
        }
    }

    /// The join is an upper bound in the domain order, and the order is
    /// consistent with itself: both inputs are subsumed by the join.
    #[test]
    fn prop_join_is_an_upper_bound(
        config in geometry(),
        path_a in ops(),
        path_b in ops(),
    ) {
        let states_a = run_path(&config, &path_a);
        let states_b = run_path(&config, &path_b);
        for (a, b) in states_a.iter().zip(&states_b) {
            let j = a.join(b);
            prop_assert!(a.is_subsumed_by(&j), "A not below A ⊔ B");
            prop_assert!(b.is_subsumed_by(&j), "B not below A ⊔ B");
            prop_assert!(j.is_subsumed_by(&j), "order not reflexive");
        }
    }

    /// `digest_into` and `is_subsumed_by` agree on the poison state:
    /// poisoning a set always changes the digest, always makes the state
    /// strictly less precise, and never affects the *other* polarity
    /// instances' behavior through the order.
    #[test]
    fn prop_digest_and_order_agree_on_poison(
        config in geometry(),
        path in ops(),
    ) {
        let states = run_path(&config, &path);
        for s in &states {
            let mut poisoned = s.clone();
            poisoned.access_unknown();
            // Join with the weakened twin reproduces the twin's poison
            // bits (join ORs them), so digests agree with the order on
            // both sides.
            let j = s.join(&poisoned);
            prop_assert_eq!(j.is_poisoned(), poisoned.is_poisoned());
            prop_assert!(s.is_subsumed_by(&poisoned), "weakening is monotone");
            if poisoned == *s {
                // The unknown access changed nothing (an empty state, or
                // an already fully-poisoned may state): the order and
                // the digest must both see equality.
                prop_assert!(poisoned.is_subsumed_by(s));
                prop_assert_eq!(digest(s), digest(&poisoned));
            } else {
                // Strictly weakened (guarantees dropped, ages clamped,
                // or poison bits newly set): the twin must not count as
                // at-least-as-precise, and the digest must separate the
                // states exactly where the order does.
                prop_assert!(!poisoned.is_subsumed_by(s));
                prop_assert_ne!(digest(s), digest(&poisoned));
            }
        }
    }

    /// The unit-artifact codec is exact: every instance of all three
    /// polarities — poisoned sets included — and the must/may(/persist)
    /// states assembled from them decode to the value that was encoded,
    /// with an identical digest, and only under the geometry they were
    /// encoded with.
    #[test]
    fn prop_encode_decode_round_trips(
        config in geometry(),
        path in ops(),
        with_persist in any::<bool>(),
    ) {
        let [must, may, persist] = run_path(&config, &path);
        for cache in [&must, &may, &persist] {
            let mut w = Writer::new();
            cache.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = AbstractCache::decode_from(&mut r, &config);
            prop_assert!(r.done(), "decoding consumes every byte");
            prop_assert_eq!(back.as_ref(), Some(cache));
            prop_assert_eq!(back.map(|c| digest(&c)), Some(digest(cache)));
        }

        let states = CacheStates::from_parts(must, may, with_persist.then_some(persist))
            .expect("one geometry, one instance per polarity");
        let mut w = Writer::new();
        states.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = CacheStates::decode_from(&mut r, &config);
        prop_assert!(r.done());
        prop_assert_eq!(back.as_ref().map(CacheStates::digest), Some(states.digest()));
        prop_assert_eq!(back, Some(states));

        let other = CacheConfig::new(config.sets * 2, config.assoc, 16, 1);
        prop_assert!(
            CacheStates::decode_from(&mut Reader::new(&bytes), &other).is_none(),
            "a different geometry reads as a miss"
        );
    }
}
