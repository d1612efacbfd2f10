//! The value domain: a reduced product of small constant sets and
//! intervals.
//!
//! Small finite sets keep jump-table targets and mode discriminators
//! *exact* — which is what lets the analysis resolve function pointers
//! (tier-one challenge) — while intervals cover counters and address
//! ranges. Once a set outgrows [`SET_LIMIT`] it degrades to its interval
//! hull.

use std::collections::BTreeSet;
use std::fmt;

use crate::interval::Interval;

/// Maximum cardinality tracked exactly before degrading to an interval.
pub const SET_LIMIT: usize = 8;

/// An abstract 32-bit machine word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unreachable (no concrete value).
    Bot,
    /// Exactly one of these values (at most [`SET_LIMIT`] of them,
    /// non-empty).
    Set(BTreeSet<u32>),
    /// Any value in the interval (kept non-singleton and non-bottom;
    /// singletons normalize to `Set`).
    Range(Interval),
}

impl Value {
    /// The unknown value (full range).
    #[must_use]
    pub fn top() -> Value {
        Value::Range(Interval::TOP)
    }

    /// A known constant.
    #[must_use]
    pub fn constant(v: u32) -> Value {
        Value::Set(BTreeSet::from([v]))
    }

    /// A set of possible constants.
    ///
    /// Degrades to the interval hull if more than [`SET_LIMIT`] values
    /// are supplied; normalizes the empty set to bottom.
    #[must_use]
    pub fn from_set(set: BTreeSet<u32>) -> Value {
        if set.is_empty() {
            Value::Bot
        } else if set.len() > SET_LIMIT {
            let lo = *set.iter().next().expect("nonempty");
            let hi = *set.iter().next_back().expect("nonempty");
            Value::Range(Interval::new(lo, hi))
        } else {
            Value::Set(set)
        }
    }

    /// A value known only by its interval. Narrow intervals (width at
    /// most [`SET_LIMIT`]) are enumerated into exact sets — this is what
    /// lets a bounded jump-table index `[0, n)` flow through address
    /// arithmetic and a table load into a *finite set of code addresses*,
    /// resolving the function pointer.
    #[must_use]
    pub fn from_interval(iv: Interval) -> Value {
        if iv.is_bottom() {
            Value::Bot
        } else if let Some(c) = iv.as_constant() {
            Value::constant(c)
        } else if iv.width() <= SET_LIMIT as u64 {
            let lo = iv.lo().expect("non-bottom");
            let hi = iv.hi().expect("non-bottom");
            Value::Set((lo..=hi).collect())
        } else {
            Value::Range(iv)
        }
    }

    /// Returns true if no concrete value is possible.
    #[must_use]
    pub fn is_bot(&self) -> bool {
        matches!(self, Value::Bot)
    }

    /// Returns true if the value is completely unknown.
    #[must_use]
    pub fn is_top(&self) -> bool {
        matches!(self, Value::Range(iv) if iv.is_top())
    }

    /// The single possible value, if exactly one.
    #[must_use]
    pub fn as_constant(&self) -> Option<u32> {
        match self {
            Value::Set(s) if s.len() == 1 => s.iter().next().copied(),
            _ => None,
        }
    }

    /// The exact finite set of possible values, if tracked.
    #[must_use]
    pub fn as_set(&self) -> Option<&BTreeSet<u32>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// The interval hull of the value.
    #[must_use]
    pub fn to_interval(&self) -> Interval {
        match self {
            Value::Bot => Interval::BOTTOM,
            Value::Set(s) => {
                let lo = *s.iter().next().expect("invariant: nonempty");
                let hi = *s.iter().next_back().expect("invariant: nonempty");
                Interval::new(lo, hi)
            }
            Value::Range(iv) => *iv,
        }
    }

    /// Returns true if `v` may be the concrete value.
    #[must_use]
    pub fn may_be(&self, v: u32) -> bool {
        match self {
            Value::Bot => false,
            Value::Set(s) => s.contains(&v),
            Value::Range(iv) => iv.contains(v),
        }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Bot, v) | (v, Value::Bot) => v.clone(),
            (Value::Set(a), Value::Set(b)) => {
                let union: BTreeSet<u32> = a.union(b).copied().collect();
                Value::from_set(union)
            }
            _ => Value::from_interval(self.to_interval().join(other.to_interval())),
        }
    }

    /// Widening: sets that keep growing degrade to intervals, intervals
    /// widen to the domain bounds.
    #[must_use]
    pub fn widen(&self, next: &Value) -> Value {
        match (self, next) {
            (Value::Bot, v) => v.clone(),
            (v, Value::Bot) => v.clone(),
            (Value::Set(a), Value::Set(b)) if b.is_subset(a) => self.clone(),
            _ => Value::from_interval(self.to_interval().widen(next.to_interval())),
        }
    }

    /// Returns true if every concrete value of `self` is allowed by
    /// `other` (the domain partial order).
    #[must_use]
    pub fn is_subsumed_by(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bot, _) => true,
            (_, Value::Bot) => false,
            (Value::Set(a), Value::Set(b)) => a.is_subset(b),
            (Value::Set(a), Value::Range(iv)) => a.iter().all(|&v| iv.contains(v)),
            (Value::Range(_), Value::Set(_)) => false,
            (Value::Range(a), Value::Range(b)) => a.is_subset(b),
        }
    }

    /// Applies a binary 32-bit operation pointwise where exact sets allow,
    /// falling back to the supplied interval transformer.
    #[must_use]
    pub fn lift_binop(
        &self,
        other: &Value,
        exact: impl Fn(u32, u32) -> u32,
        approx: impl Fn(Interval, Interval) -> Interval,
    ) -> Value {
        match (self, other) {
            (Value::Bot, _) | (_, Value::Bot) => Value::Bot,
            (Value::Set(a), Value::Set(b)) if a.len() * b.len() <= SET_LIMIT * SET_LIMIT => {
                let mut out = BTreeSet::new();
                for &x in a {
                    for &y in b {
                        out.insert(exact(x, y));
                    }
                }
                Value::from_set(out)
            }
            _ => Value::from_interval(approx(self.to_interval(), other.to_interval())),
        }
    }
}

impl Value {
    /// Absorbs the value into a stable hasher (the incremental engine's
    /// context-entry digests; `std::hash` makes no cross-process
    /// promise).
    pub fn digest_into(&self, h: &mut wcet_isa::hash::StableHasher) {
        match self {
            Value::Bot => h.write_u32(0),
            Value::Set(s) => {
                h.write_u32(1);
                h.write_usize(s.len());
                for &v in s {
                    h.write_u32(v);
                }
            }
            Value::Range(iv) => {
                h.write_u32(2);
                h.write_u32(iv.lo().unwrap_or(1));
                h.write_u32(iv.hi().unwrap_or(0));
            }
        }
    }

    /// Serializes the value for the incremental engine's unit artifacts
    /// — the byte-level twin of [`Value::digest_into`].
    pub fn encode_into(&self, w: &mut wcet_isa::codec::Writer) {
        match self {
            Value::Bot => w.u8(0),
            Value::Set(s) => {
                w.u8(1);
                w.usize(s.len());
                for &v in s {
                    w.u32(v);
                }
            }
            Value::Range(iv) => {
                w.u8(2);
                w.u32(iv.lo().unwrap_or(1));
                w.u32(iv.hi().unwrap_or(0));
            }
        }
    }

    /// Inverse of [`Value::encode_into`]. `None` for bytes no encoding
    /// produces (an empty set, an inverted range, an unknown tag).
    pub fn decode_from(r: &mut wcet_isa::codec::Reader<'_>) -> Option<Value> {
        match r.u8()? {
            0 => Some(Value::Bot),
            1 => {
                let n = r.length()?;
                let mut set = BTreeSet::new();
                for _ in 0..n {
                    set.insert(r.u32()?);
                }
                (set.len() == n && n > 0).then_some(Value::Set(set))
            }
            2 => {
                let (lo, hi) = (r.u32()?, r.u32()?);
                (lo <= hi).then(|| Value::Range(Interval::new(lo, hi)))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bot => f.write_str("⊥"),
            Value::Set(s) => {
                let items: Vec<String> = s.iter().map(|v| format!("0x{v:x}")).collect();
                write!(f, "{{{}}}", items.join(", "))
            }
            Value::Range(iv) => write!(f, "{iv}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert!(Value::from_set(BTreeSet::new()).is_bot());
        let big: BTreeSet<u32> = (0..20).collect();
        assert!(matches!(Value::from_set(big), Value::Range(_)));
        assert_eq!(
            Value::from_interval(Interval::constant(3)),
            Value::constant(3)
        );
    }

    #[test]
    fn join_of_sets_stays_exact_when_small() {
        let a = Value::from_set(BTreeSet::from([1, 2]));
        let b = Value::from_set(BTreeSet::from([5]));
        let j = a.join(&b);
        assert_eq!(j.as_set().unwrap().len(), 3);
        assert!(j.may_be(5));
        assert!(!j.may_be(3));
    }

    #[test]
    fn join_degrades_gracefully() {
        let a = Value::from_set((0..SET_LIMIT as u32).collect());
        let b = Value::constant(100);
        let j = a.join(&b);
        // 9 elements exceeds the limit → interval hull.
        assert!(matches!(j, Value::Range(_)));
        assert!(j.may_be(50), "hull includes intermediate values");
    }

    #[test]
    fn exact_binop_on_sets() {
        let a = Value::from_set(BTreeSet::from([1, 2]));
        let b = Value::from_set(BTreeSet::from([10, 20]));
        let sum = a.lift_binop(&b, |x, y| x + y, super::super::interval::Interval::add);
        assert_eq!(sum.as_set().unwrap(), &BTreeSet::from([11, 12, 21, 22]));
    }

    #[test]
    fn partial_order_sanity() {
        let small = Value::constant(5);
        let range = Value::from_interval(Interval::new(0, 10));
        assert!(small.is_subsumed_by(&range));
        assert!(!range.is_subsumed_by(&small));
        assert!(Value::Bot.is_subsumed_by(&small));
    }

    proptest! {
        /// Join is an upper bound for both operands.
        #[test]
        fn prop_join_upper_bound(a in 0u32..1000, b in 0u32..1000, c in 0u32..1000) {
            let x = Value::from_set(BTreeSet::from([a, b]));
            let y = Value::constant(c);
            let j = x.join(&y);
            prop_assert!(x.is_subsumed_by(&j));
            prop_assert!(y.is_subsumed_by(&j));
        }

        /// Widening subsumes join (it only ever loses precision).
        #[test]
        fn prop_widen_subsumes_join(a in 0u32..1000, b in 0u32..1000) {
            let x = Value::constant(a);
            let y = Value::constant(b);
            let j = x.join(&y);
            let w = x.widen(&y);
            prop_assert!(j.is_subsumed_by(&w));
        }

        /// Exact binop soundness: every concrete pair's result is contained.
        #[test]
        fn prop_binop_sound(a in 0u32..500, b in 0u32..500) {
            let x = Value::constant(a);
            let y = Value::constant(b);
            let sum = x.lift_binop(&y, u32::wrapping_add, super::super::interval::Interval::add);
            prop_assert!(sum.may_be(a.wrapping_add(b)));
        }

        /// may_be is consistent with the interval hull.
        #[test]
        fn prop_hull_contains_set(vals in proptest::collection::btree_set(0u32..10_000, 1..6)) {
            let v = Value::from_set(vals.clone());
            let hull = v.to_interval();
            for x in vals {
                prop_assert!(hull.contains(x));
            }
        }
    }
}
