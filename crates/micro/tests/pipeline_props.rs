//! Property tests of the abstract-pipeline domain algebra itself
//! (mirroring `acs_props.rs` for the cache domain): the join is an upper
//! bound and monotone, normalization only ever *covers* what it prunes
//! (a widened state still accounts for every input vector), the widening
//! cap actually bounds the width, and `digest` / `is_subsumed_by` agree
//! about state identity.

use proptest::prelude::*;

use wcet_isa::codec::{Reader, Writer};
use wcet_isa::interp::MachineConfig;
use wcet_isa::IsaKind;
use wcet_micro::pipeline::{PipelineStates, WIDENING_CAP};

/// An arbitrary residual vector. The analysis only ever produces
/// nonincreasing triples (an instruction enters execute no later than
/// memory, memory no later than writeback), so the generator sorts the
/// raw coordinates descending.
fn resid() -> impl Strategy<Value = [u64; 3]> {
    (0u64..12, 0u64..12, 0u64..12).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort_unstable_by(|x, y| y.cmp(x));
        v
    })
}

fn vectors() -> impl Strategy<Value = Vec<[u64; 3]>> {
    proptest::collection::vec(resid(), 0..2 * WIDENING_CAP)
}

/// An arbitrary normalized abstract state.
fn state() -> impl Strategy<Value = PipelineStates> {
    (vectors(), vectors()).prop_map(|(w, b)| PipelineStates::from_vectors(w, b))
}

/// A singleton state carrying exactly one residual vector in both
/// polarities — the shape a concrete machine observation takes.
fn singleton(v: [u64; 3]) -> PipelineStates {
    PipelineStates::from_vectors(vec![v], vec![v])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The join is an upper bound in the domain order, and the order is
    /// consistent with itself: both inputs are subsumed by the join, and
    /// subsumption is reflexive.
    #[test]
    fn prop_join_is_an_upper_bound(a in state(), b in state()) {
        let j = a.join(&b);
        prop_assert!(a.is_subsumed_by(&j), "A not below A ⊔ B");
        prop_assert!(b.is_subsumed_by(&j), "B not below A ⊔ B");
        prop_assert!(j.is_subsumed_by(&j), "order not reflexive");
    }

    /// Joining is commutative and idempotent on normalized states — the
    /// fixpoint's convergence check depends on both.
    #[test]
    fn prop_join_commutes_and_is_idempotent(a in state(), b in state()) {
        let ab = a.join(&b);
        let ba = b.join(&a);
        prop_assert_eq!(ab.digest(), ba.digest(), "join not commutative");
        prop_assert_eq!(
            a.join(&a).digest(), a.digest(),
            "join not idempotent"
        );
        prop_assert_eq!(
            ab.join(&ab).digest(), ab.digest(),
            "join of a join not a fixpoint"
        );
    }

    /// The join is monotone: growing one argument can only grow the
    /// result. Without this the worklist fixpoint could oscillate.
    #[test]
    fn prop_join_is_monotone(a in state(), b in state(), c in state()) {
        let bigger = a.join(&b); // a ⊑ bigger by the upper-bound property
        prop_assert!(
            a.join(&c).is_subsumed_by(&bigger.join(&c)),
            "join not monotone in its first argument"
        );
    }

    /// Normalization (pruning + the widening cap) only ever *covers*:
    /// every raw input vector is still accounted for by the normalized
    /// state, no matter how hard the cap collapsed it. This is the
    /// soundness side of widening — a pruned state must never claim less
    /// reachable warmth (worst) or more (best) than its inputs did.
    #[test]
    fn prop_normalization_covers_every_input_vector(
        raw in proptest::collection::vec(resid(), 1..4 * WIDENING_CAP),
    ) {
        let normalized = PipelineStates::from_vectors(raw.clone(), raw.clone());
        for v in raw {
            prop_assert!(
                singleton(v).is_subsumed_by(&normalized),
                "normalization dropped {v:?} without covering it"
            );
        }
    }

    /// The widening cap bounds the width: no join chain can grow a state
    /// past `WIDENING_CAP` vectors per polarity.
    #[test]
    fn prop_widening_cap_bounds_the_width(states in proptest::collection::vec(state(), 1..8)) {
        let mut acc = PipelineStates::drained();
        for s in &states {
            acc = acc.join(s);
            prop_assert!(
                acc.width() <= 2 * WIDENING_CAP,
                "width {} escaped the cap", acc.width()
            );
        }
    }

    /// `digest` and the order agree on identity: mutual subsumption is
    /// exactly digest equality on normalized states. The incremental
    /// cache keys context entries by the digest, so two states the
    /// analysis would treat identically must never key differently.
    #[test]
    fn prop_digest_and_order_agree(a in state(), b in state()) {
        let equal = a.is_subsumed_by(&b) && b.is_subsumed_by(&a);
        prop_assert_eq!(
            equal,
            a.digest() == b.digest(),
            "digest and order disagree: {:?} vs {:?}", a, b
        );
    }

    /// `drained` is the bottom of the reachable order: it is subsumed by
    /// `unknown` on every machine (the unknown pipe covers the drained
    /// one), and joining anything with `drained` changes nothing about
    /// coverage of that thing.
    #[test]
    fn prop_drained_below_unknown(s in state()) {
        for isa in [IsaKind::House, IsaKind::Rv32i] {
            for machine in [
                MachineConfig::simple_for(isa),
                MachineConfig::with_caches_for(isa),
            ] {
                prop_assert!(
                    PipelineStates::drained().is_subsumed_by(&PipelineStates::unknown(&machine)),
                    "drained not below unknown on {}", isa.name()
                );
            }
        }
        prop_assert!(s.is_subsumed_by(&s.join(&PipelineStates::drained())));
    }

    /// The unit-artifact codec is exact: `decode(encode(s)) == s` with an
    /// identical digest, for every normalized state and for the two
    /// anchors.
    #[test]
    fn prop_encode_decode_round_trips(s in state()) {
        let machine = MachineConfig::simple_for(IsaKind::House);
        for s in [s, PipelineStates::drained(), PipelineStates::unknown(&machine)] {
            let mut w = Writer::new();
            s.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = PipelineStates::decode_from(&mut r);
            prop_assert!(r.done(), "decoding consumes every byte");
            prop_assert_eq!(back.as_ref().map(PipelineStates::digest), Some(s.digest()));
            prop_assert_eq!(back, Some(s));
        }
    }
}
