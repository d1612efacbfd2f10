//! Abstract machine states: registers plus a word-granular memory map.
//!
//! Memory is tracked per word address; an *absent* entry means "unknown"
//! (top). A store through an unknown pointer therefore erases the whole
//! map — the behaviour the paper describes verbatim: "any write access to
//! an unknown memory location destroys all known information about memory
//! during the value analysis phase".

use std::collections::BTreeMap;
use std::fmt;

use wcet_isa::Reg;

use crate::value::Value;

/// An abstract state over the sixteen integer registers and known memory
/// words. Floating-point registers are deliberately *not* tracked: the
/// value analysis works on integers only (which is why rule 13.4 loops
/// cannot be bounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractState {
    regs: [Value; Reg::COUNT],
    /// Word-aligned address → known value. Absent ⇒ unknown.
    mem: BTreeMap<u32, Value>,
}

impl AbstractState {
    /// The state in which every register and memory word is unknown.
    #[must_use]
    pub fn all_unknown() -> AbstractState {
        AbstractState {
            regs: std::array::from_fn(|_| Value::top()),
            mem: BTreeMap::new(),
        }
    }

    /// Reads a register (`r0` is always the constant 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> Value {
        if r == Reg::ZERO {
            Value::constant(0)
        } else {
            self.regs[r.index()].clone()
        }
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: Value) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Reads the known value of the word at `addr` (top if untracked or
    /// misaligned).
    #[must_use]
    pub fn mem_word(&self, addr: u32) -> Value {
        if !addr.is_multiple_of(4) {
            return Value::top();
        }
        self.mem.get(&addr).cloned().unwrap_or_else(Value::top)
    }

    /// Strong update of the word at `addr`.
    pub fn set_mem_word(&mut self, addr: u32, v: Value) {
        if !addr.is_multiple_of(4) {
            return;
        }
        if v.is_top() {
            self.mem.remove(&addr);
        } else {
            self.mem.insert(addr, v);
        }
    }

    /// Weak update: the word at `addr` *may* have been overwritten with
    /// `v`.
    pub fn weak_set_mem_word(&mut self, addr: u32, v: &Value) {
        let joined = self.mem_word(addr).join(v);
        self.set_mem_word(addr, joined);
    }

    /// Forgets everything known about memory (a write through an unknown
    /// pointer).
    pub fn havoc_mem(&mut self) {
        self.mem.clear();
    }

    /// Forgets all caller-saved registers and the link register — the
    /// effect of an opaque call under the calling convention
    /// (`r1`–`r9` caller-saved, `r10`–`r13` callee-saved, `r14` = sp
    /// preserved, `r15` = link clobbered).
    pub fn clobber_call(&mut self) {
        for idx in 1..=9 {
            self.regs[idx] = Value::top();
        }
        self.regs[Reg::LINK.index()] = Value::top();
    }

    /// Number of memory words with known values.
    #[must_use]
    pub fn known_mem_words(&self) -> usize {
        self.mem.len()
    }

    /// Pointwise join.
    #[must_use]
    pub fn join(&self, other: &AbstractState) -> AbstractState {
        let regs = std::array::from_fn(|i| self.regs[i].join(&other.regs[i]));
        // Keys absent on either side are top there, so only the
        // intersection survives.
        let mem = self
            .mem
            .iter()
            .filter_map(|(addr, v)| other.mem.get(addr).map(|w| (*addr, v.join(w))))
            .collect();
        AbstractState { regs, mem }
    }

    /// Pointwise widening.
    #[must_use]
    pub fn widen(&self, next: &AbstractState) -> AbstractState {
        let regs = std::array::from_fn(|i| self.regs[i].widen(&next.regs[i]));
        let mem = self
            .mem
            .iter()
            .filter_map(|(addr, v)| next.mem.get(addr).map(|w| (*addr, v.widen(w))))
            .filter(|(_, v)| !v.is_top())
            .collect();
        AbstractState { regs, mem }
    }

    /// A stable content digest of the state (FNV-1a via
    /// [`wcet_isa::hash`]): the incremental engine keys per-context unit
    /// artifacts on the digest of the context's entry state, so two runs
    /// (and two processes) must agree on it byte for byte.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = wcet_isa::hash::StableHasher::new();
        for v in &self.regs {
            v.digest_into(&mut h);
        }
        h.write_usize(self.mem.len());
        for (addr, v) in &self.mem {
            h.write_u32(*addr);
            v.digest_into(&mut h);
        }
        h.finish()
    }

    /// Serializes the state for the incremental engine's unit artifacts
    /// (the per-call-site pre-call states a replayed caller hands its
    /// callees) — the byte-level twin of [`AbstractState::digest`].
    pub fn encode_into(&self, w: &mut wcet_isa::codec::Writer) {
        for v in &self.regs {
            v.encode_into(w);
        }
        w.usize(self.mem.len());
        for (addr, v) in &self.mem {
            w.u32(*addr);
            v.encode_into(w);
        }
    }

    /// Inverse of [`AbstractState::encode_into`]; `None` on malformed
    /// bytes (including memory words out of address order).
    pub fn decode_from(r: &mut wcet_isa::codec::Reader<'_>) -> Option<AbstractState> {
        let mut regs: [Value; Reg::COUNT] = std::array::from_fn(|_| Value::Bot);
        for reg in &mut regs {
            *reg = Value::decode_from(r)?;
        }
        let n = r.length()?;
        let mut mem = BTreeMap::new();
        for _ in 0..n {
            let addr = r.u32()?;
            if mem.last_key_value().is_some_and(|(&last, _)| last >= addr) {
                return None;
            }
            mem.insert(addr, Value::decode_from(r)?);
        }
        Some(AbstractState { regs, mem })
    }

    /// The domain partial order: true if `self` is at least as precise as
    /// it needs to be, i.e. every behaviour of `self` is covered by
    /// `other`.
    #[must_use]
    pub fn is_subsumed_by(&self, other: &AbstractState) -> bool {
        for i in 0..Reg::COUNT {
            if !self.regs[i].is_subsumed_by(&other.regs[i]) {
                return false;
            }
        }
        // Every memory fact claimed by `other` must be implied by `self`.
        other
            .mem
            .iter()
            .all(|(addr, w)| self.mem.get(addr).is_some_and(|v| v.is_subsumed_by(w)))
    }
}

impl Default for AbstractState {
    fn default() -> Self {
        AbstractState::all_unknown()
    }
}

impl fmt::Display for AbstractState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.regs.iter().enumerate() {
            if !v.is_top() {
                writeln!(f, "  r{i} = {v}")?;
            }
        }
        for (addr, v) in &self.mem {
            writeln!(f, "  [0x{addr:x}] = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use proptest::prelude::*;

    #[test]
    fn r0_is_constant_zero() {
        let mut s = AbstractState::all_unknown();
        assert_eq!(s.reg(Reg::ZERO).as_constant(), Some(0));
        s.set_reg(Reg::ZERO, Value::constant(7));
        assert_eq!(s.reg(Reg::ZERO).as_constant(), Some(0));
    }

    #[test]
    fn memory_join_keeps_intersection() {
        let mut a = AbstractState::all_unknown();
        a.set_mem_word(0x100, Value::constant(1));
        a.set_mem_word(0x104, Value::constant(2));
        let mut b = AbstractState::all_unknown();
        b.set_mem_word(0x100, Value::constant(5));
        let j = a.join(&b);
        assert!(j.mem_word(0x100).may_be(1));
        assert!(j.mem_word(0x100).may_be(5));
        assert!(
            j.mem_word(0x104).is_top(),
            "0x104 unknown in b → unknown in join"
        );
    }

    #[test]
    fn havoc_destroys_all_memory_knowledge() {
        let mut s = AbstractState::all_unknown();
        s.set_mem_word(0x100, Value::constant(1));
        s.set_mem_word(0x200, Value::constant(2));
        assert_eq!(s.known_mem_words(), 2);
        s.havoc_mem();
        assert_eq!(s.known_mem_words(), 0);
        assert!(s.mem_word(0x100).is_top());
    }

    #[test]
    fn call_clobbers_caller_saved_only() {
        let mut s = AbstractState::all_unknown();
        s.set_reg(Reg::new(1), Value::constant(1));
        s.set_reg(Reg::new(10), Value::constant(10));
        s.clobber_call();
        assert!(s.reg(Reg::new(1)).is_top());
        assert_eq!(s.reg(Reg::new(10)).as_constant(), Some(10));
    }

    #[test]
    fn weak_update_joins() {
        let mut s = AbstractState::all_unknown();
        s.set_mem_word(0x40, Value::constant(1));
        s.weak_set_mem_word(0x40, &Value::constant(9));
        let v = s.mem_word(0x40);
        assert!(v.may_be(1) && v.may_be(9));
    }

    #[test]
    fn misaligned_memory_is_untracked() {
        let mut s = AbstractState::all_unknown();
        s.set_mem_word(0x41, Value::constant(1));
        assert!(s.mem_word(0x41).is_top());
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Bot),
            proptest::collection::btree_set(any::<u32>(), 1..=crate::value::SET_LIMIT)
                .prop_map(Value::Set),
            (any::<u32>(), any::<u32>())
                .prop_map(|(a, b)| Value::Range(Interval::new(a.min(b), a.max(b)))),
            Just(Value::top()),
        ]
    }

    fn state() -> impl Strategy<Value = AbstractState> {
        (
            proptest::collection::vec(value(), Reg::COUNT),
            proptest::collection::vec((0u32..64, value()), 0..12),
        )
            .prop_map(|(regs, mem)| AbstractState {
                regs: regs.try_into().expect("one value per register"),
                mem: mem.into_iter().map(|(w, v)| (w * 4, v)).collect(),
            })
    }

    proptest! {
        /// The unit-artifact codec is exact: `decode(encode(s)) == s`,
        /// consuming every byte, with an identical digest.
        #[test]
        fn prop_encode_decode_round_trips(s in state()) {
            let mut w = wcet_isa::codec::Writer::new();
            s.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = wcet_isa::codec::Reader::new(&bytes);
            let back = AbstractState::decode_from(&mut r);
            prop_assert!(r.done(), "decoding consumes every byte");
            prop_assert_eq!(back.as_ref().map(AbstractState::digest), Some(s.digest()));
            prop_assert_eq!(back, Some(s));
        }
    }

    #[test]
    fn subsumption() {
        let mut precise = AbstractState::all_unknown();
        precise.set_reg(Reg::new(1), Value::constant(4));
        precise.set_mem_word(0x10, Value::constant(1));
        let coarse = AbstractState::all_unknown();
        assert!(precise.is_subsumed_by(&coarse));
        assert!(!coarse.is_subsumed_by(&precise));
        assert!(precise.is_subsumed_by(&precise));
    }
}
