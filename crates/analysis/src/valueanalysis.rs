//! The abstract-interpretation value analysis (fixpoint engine).
//!
//! Per function, a worklist fixpoint over the CFG computes an
//! [`AbstractState`] at every block boundary, with widening at loop
//! headers (delayed by [`AnalysisConfig::widen_delay`] iterations) and a
//! decreasing narrowing pass afterwards. Branch conditions refine the
//! states along their out-edges, which is what turns counter tests into
//! loop bounds downstream.
//!
//! Calls are handled through per-function *summaries* (does the callee
//! write memory?) and the calling convention (`r1`–`r9` caller-saved) —
//! precise enough for the paper's experiments while staying sound.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use wcet_cfg::block::{BlockId, Terminator};
use wcet_cfg::dom::Dominators;
use wcet_cfg::graph::{Cfg, Program};
use wcet_cfg::loops::LoopForest;
use wcet_isa::{Addr, AluOp, Cond, Image, Inst, Reg, Width};

use crate::interval::Interval;
use crate::state::AbstractState;
use crate::value::Value;

/// Tuning knobs for the fixpoint engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Widening kicks in after this many visits of a loop header.
    pub widen_delay: usize,
    /// Number of decreasing (narrowing) passes after stabilization.
    pub narrow_passes: usize,
    /// Address range `[lo, hi)` returned by `alloc` (the heap region), if
    /// known. `None` means allocation results are completely unknown.
    pub heap_range: Option<(u32, u32)>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            widen_delay: 3,
            narrow_passes: 2,
            heap_range: Some((0x2000_0000, 0x2010_0000)),
        }
    }
}

/// What a call to a function may do to the caller's memory knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FunctionSummary {
    /// True if the function (transitively) may write data memory.
    pub writes_mem: bool,
}

/// Results of analyzing one function.
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// The analyzed function's entry address.
    pub entry: Addr,
    cfg: Cfg,
    dom: Dominators,
    forest: LoopForest,
    block_in: Vec<Option<AbstractState>>,
    block_out: Vec<Option<AbstractState>>,
    config: AnalysisConfig,
    summaries: Arc<HashMap<Addr, FunctionSummary>>,
}

/// Analyzes the function entered at `entry` with an all-unknown register
/// state and the image's data segments as initial memory.
///
/// # Panics
///
/// Panics if `entry` is not a function of `program`.
#[must_use]
pub fn analyze_function(program: &Program, entry: Addr, image: &Image) -> FunctionAnalysis {
    analyze_function_with(program, entry, image, &AnalysisConfig::default())
}

/// [`analyze_function`] with explicit configuration.
///
/// # Panics
///
/// Panics if `entry` is not a function of `program`.
#[must_use]
pub fn analyze_function_with(
    program: &Program,
    entry: Addr,
    image: &Image,
    config: &AnalysisConfig,
) -> FunctionAnalysis {
    let cfg = program
        .cfg(entry)
        .unwrap_or_else(|| panic!("function {entry} not reconstructed"))
        .clone();
    let summaries = Arc::new(compute_summaries(program));

    // Load-time memory: the image's initialized data.
    let entry_state = entry_state_from_image(image);
    analyze_cfg(cfg, entry, entry_state, config.clone(), summaries)
}

/// The load-time abstract memory: every initialized data word of the
/// image becomes a known memory fact.
#[must_use]
pub fn entry_state_from_image(image: &Image) -> AbstractState {
    let mut entry_state = AbstractState::all_unknown();
    for seg in &image.data {
        let mut addr = seg.base;
        while addr.0 + 4 <= seg.end().0 {
            if let Some(w) = seg.word_at(addr) {
                entry_state.set_mem_word(addr.0, Value::constant(w));
            }
            addr = addr.next();
        }
    }
    entry_state
}

/// Runs the fixpoint on an explicit CFG and entry state. Used by the
/// virtual-unrolling pipeline, which analyzes peeled CFGs.
#[must_use]
pub fn analyze_cfg(
    cfg: Cfg,
    entry: Addr,
    entry_state: AbstractState,
    config: AnalysisConfig,
    summaries: Arc<HashMap<Addr, FunctionSummary>>,
) -> FunctionAnalysis {
    let dom = Dominators::compute(&cfg);
    let forest = LoopForest::compute(&cfg, &dom);
    let n = cfg.block_count();

    let mut analysis = FunctionAnalysis {
        entry,
        cfg,
        dom,
        forest,
        block_in: vec![None; n],
        block_out: vec![None; n],
        config,
        summaries,
    };
    analysis.run_fixpoint(entry_state);
    analysis
}

impl FunctionAnalysis {
    /// The CFG the analysis ran on.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The dominator tree.
    #[must_use]
    pub fn dominators(&self) -> &Dominators {
        &self.dom
    }

    /// The loop forest.
    #[must_use]
    pub fn forest(&self) -> &LoopForest {
        &self.forest
    }

    /// Consumes the analysis, keeping only the CFG and loop forest — all
    /// the path analysis reads once block times are derived, without
    /// the per-block abstract states.
    #[must_use]
    pub fn into_cfg_and_forest(self) -> (Cfg, LoopForest) {
        (self.cfg, self.forest)
    }

    /// The abstract state at a block's entry (`None` if unreachable).
    #[must_use]
    pub fn block_in(&self, b: BlockId) -> Option<&AbstractState> {
        self.block_in[b.0].as_ref()
    }

    /// The abstract state at a block's exit (`None` if unreachable).
    #[must_use]
    pub fn block_out(&self, b: BlockId) -> Option<&AbstractState> {
        self.block_out[b.0].as_ref()
    }

    /// The abstract state flowing along the edge `from → to`, i.e.
    /// `from`'s exit state refined by the branch condition selecting
    /// `to`. `None` if `from` is unreachable.
    #[must_use]
    pub fn edge_state(&self, from: BlockId, to: BlockId) -> Option<AbstractState> {
        let out = self.block_out[from.0].clone()?;
        Some(self.refine_edge(out, from, to))
    }

    /// The abstract state immediately before the instruction at `addr`.
    #[must_use]
    pub fn state_before(&self, addr: Addr) -> Option<AbstractState> {
        let block = self.cfg.block_containing(addr)?;
        let mut state = self.block_in[block.0].clone()?;
        for (ia, inst) in &self.cfg.block(block).insts {
            if *ia == addr {
                return Some(state);
            }
            self.transfer_inst(&mut state, *inst);
        }
        None
    }

    /// The abstract state immediately *before* each call terminator,
    /// keyed by call-site address: the registers and memory the callee
    /// observes at entry — the caller side of VIVU-style context
    /// propagation. Virtual unrolling can duplicate a call site into
    /// several peeled blocks; their states are joined (the callee may be
    /// entered from any copy). Unreachable call blocks contribute
    /// nothing.
    #[must_use]
    pub fn pre_call_states(&self) -> BTreeMap<Addr, AbstractState> {
        let mut out: BTreeMap<Addr, AbstractState> = BTreeMap::new();
        for (id, block) in self.cfg.iter() {
            let (Terminator::Call { ret_to, .. } | Terminator::CallInd { ret_to, .. }) = block.term
            else {
                continue;
            };
            let site = block.site_addr();
            let Some(mut state) = self.block_in[id.0].clone() else {
                continue;
            };
            // The call instruction itself has no data effect
            // (`transfer_inst` ignores control transfers); the call's
            // clobber happens in the *caller's* post-call state only.
            for (_, inst) in &block.insts {
                self.transfer_inst(&mut state, *inst);
            }
            // The hardware writes the return address into the link
            // register *before* the callee runs: the callee must see
            // that, not whatever the caller last held in `lr` — a stale
            // pinned value there could refine the callee against a fact
            // that is concretely false at entry (unsound).
            state.set_reg(Reg::LINK, Value::constant(ret_to.0));
            match out.remove(&site) {
                Some(prev) => {
                    out.insert(site, prev.join(&state));
                }
                None => {
                    out.insert(site, state);
                }
            }
        }
        out
    }

    /// Loop-bound analysis over this function (see [`crate::loopbound`]).
    #[must_use]
    pub fn loop_bounds(&self) -> crate::loopbound::LoopBounds {
        crate::loopbound::compute(self)
    }

    /// Address values for every memory access (see [`crate::addr`]).
    #[must_use]
    pub fn access_values(&self) -> BTreeMap<Addr, Value> {
        crate::addr::access_values(self)
    }

    /// Indirect-target hints recovered by the analysis
    /// (see [`crate::addr`]).
    #[must_use]
    pub fn resolver_hints(&self) -> wcet_cfg::TargetResolver {
        crate::addr::resolver_hints(self)
    }

    // ----- fixpoint -----------------------------------------------------

    fn run_fixpoint(&mut self, entry_state: AbstractState) {
        let n = self.cfg.block_count();
        let entry_block = self.cfg.entry_block();
        let rpo = self.cfg.reverse_postorder();
        let rpo_pos: HashMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();

        self.block_in[entry_block.0] = Some(entry_state);
        let mut visits = vec![0usize; n];
        let mut work: VecDeque<BlockId> = VecDeque::from([entry_block]);

        while let Some(b) = work.pop_front() {
            let Some(in_state) = self.block_in[b.0].clone() else {
                continue;
            };
            let out = self.transfer_block(b, in_state);
            let changed = match &self.block_out[b.0] {
                Some(old) => !out.is_subsumed_by(old),
                None => true,
            };
            if !changed {
                continue;
            }
            self.block_out[b.0] = Some(out);

            for &succ in self.cfg.succs[b.0].clone().iter() {
                let Some(out_state) = self.block_out[b.0].as_ref() else {
                    continue;
                };
                let edge_state = self.refine_edge(out_state.clone(), b, succ);
                let new_in = match &self.block_in[succ.0] {
                    Some(old) => {
                        let joined = old.join(&edge_state);
                        // Widen at loop headers once the delay is spent.
                        let is_header = self
                            .forest
                            .loops()
                            .iter()
                            .any(|l| l.entries.contains(&succ));
                        if is_header && visits[succ.0] >= self.config.widen_delay {
                            old.widen(&joined)
                        } else {
                            joined
                        }
                    }
                    None => edge_state,
                };
                let in_changed = match &self.block_in[succ.0] {
                    Some(old) => !new_in.is_subsumed_by(old),
                    None => true,
                };
                if in_changed {
                    visits[succ.0] += 1;
                    self.block_in[succ.0] = Some(new_in);
                    // Process in RPO-ish order for fast convergence.
                    let pos = rpo_pos.get(&succ).copied().unwrap_or(usize::MAX);
                    if work
                        .front()
                        .is_none_or(|&f| rpo_pos.get(&f).copied().unwrap_or(usize::MAX) > pos)
                    {
                        work.push_front(succ);
                    } else {
                        work.push_back(succ);
                    }
                }
            }
        }

        // Narrowing: recompute decreasing passes without widening.
        for _ in 0..self.config.narrow_passes {
            for &b in &rpo {
                if b != entry_block {
                    let mut acc: Option<AbstractState> = None;
                    for &p in &self.cfg.preds[b.0] {
                        if let Some(out) = self.block_out[p.0].clone() {
                            let refined = self.refine_edge(out, p, b);
                            acc = Some(match acc {
                                Some(cur) => cur.join(&refined),
                                None => refined,
                            });
                        }
                    }
                    if let Some(new_in) = acc {
                        self.block_in[b.0] = Some(new_in);
                    }
                }
                if let Some(in_state) = self.block_in[b.0].clone() {
                    self.block_out[b.0] = Some(self.transfer_block(b, in_state));
                }
            }
        }
    }

    fn transfer_block(&self, b: BlockId, mut state: AbstractState) -> AbstractState {
        let block = self.cfg.block(b);
        for (_, inst) in &block.insts {
            self.transfer_inst(&mut state, *inst);
        }
        // Call effects (the call instruction is the block terminator).
        match &block.term {
            Terminator::Call { callee, ret_to } => {
                self.apply_call_effect(&mut state, &[*callee], *ret_to);
            }
            Terminator::CallInd { callees, ret_to } => {
                if callees.is_empty() {
                    // Unknown callee: fully conservative.
                    state.clobber_call();
                    state.havoc_mem();
                } else {
                    self.apply_call_effect(&mut state, callees, *ret_to);
                }
            }
            _ => {}
        }
        state
    }

    fn apply_call_effect(&self, state: &mut AbstractState, callees: &[Addr], ret_to: Addr) {
        let writes_mem = callees
            .iter()
            .any(|c| self.summaries.get(c).is_none_or(|s| s.writes_mem));
        state.clobber_call();
        if writes_mem {
            state.havoc_mem();
        }
        state.set_reg(Reg::LINK, Value::constant(ret_to.0));
    }

    /// The per-instruction transfer function.
    pub(crate) fn transfer_inst(&self, state: &mut AbstractState, inst: Inst) {
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = alu_value(op, &state.reg(rs1), &state.reg(rs2));
                state.set_reg(rd, v);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = alu_value(op, &state.reg(rs1), &Value::constant(imm as u32));
                state.set_reg(rd, v);
            }
            Inst::Lui { rd, imm } => state.set_reg(rd, Value::constant(imm << 16)),
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let addr = address_value(state, base, offset);
                let loaded = match width {
                    Width::Word => match addr.as_set() {
                        Some(addrs) => {
                            let mut acc = Value::Bot;
                            for &a in addrs {
                                acc = acc.join(&state.mem_word(a));
                            }
                            acc
                        }
                        None => Value::top(),
                    },
                    // Sub-word loads zero-extend, so the result range is
                    // known even when the memory content is not.
                    Width::Byte => Value::from_interval(Interval::new(0, 0xff)),
                    Width::Half => Value::from_interval(Interval::new(0, 0xffff)),
                };
                state.set_reg(rd, loaded);
            }
            Inst::Store {
                width,
                rs,
                base,
                offset,
            } => {
                let addr = address_value(state, base, offset);
                let stored = state.reg(rs);
                match addr.as_set() {
                    Some(addrs) if addrs.len() == 1 && width == Width::Word => {
                        let a = *addrs.iter().next().expect("singleton");
                        state.set_mem_word(a, stored);
                    }
                    Some(addrs) => {
                        for &a in addrs {
                            if width == Width::Word {
                                state.weak_set_mem_word(a, &stored);
                            } else {
                                // Partial overwrite: the word becomes unknown.
                                state.set_mem_word(a & !3, Value::top());
                            }
                        }
                    }
                    None => {
                        // The paper's case: a write to an unknown location
                        // destroys all memory knowledge.
                        state.havoc_mem();
                    }
                }
            }
            Inst::Select { rd, rc, rt, rf } => {
                let c = state.reg(rc);
                let v = if c.as_constant() == Some(0) {
                    state.reg(rf)
                } else if !c.may_be(0) && !c.is_bot() {
                    state.reg(rt)
                } else {
                    state.reg(rt).join(&state.reg(rf))
                };
                state.set_reg(rd, v);
            }
            Inst::Alloc { rd, .. } => {
                let v = match self.config.heap_range {
                    Some((lo, hi)) if lo < hi => Value::from_interval(Interval::new(lo, hi - 1)),
                    _ => Value::top(),
                };
                state.set_reg(rd, v);
            }
            // Floating point is not tracked; moves into the FP bank have
            // no effect on the integer state.
            Inst::FAlu { .. } | Inst::FMov { .. } | Inst::FCvt { .. } => {}
            // Control transfers have no data effect here (call effects are
            // applied per block; the link register is set there).
            Inst::Branch { .. }
            | Inst::FBranch { .. }
            | Inst::Jump { .. }
            | Inst::Call { .. }
            | Inst::JumpInd { .. }
            | Inst::CallInd { .. }
            | Inst::Ret
            | Inst::Halt
            | Inst::Nop => {}
        }
    }

    /// Refines the state flowing along edge `from → to` using the branch
    /// condition of `from`.
    fn refine_edge(&self, mut state: AbstractState, from: BlockId, to: BlockId) -> AbstractState {
        let block = self.cfg.block(from);
        let Terminator::CondBranch {
            cond: Some(cond),
            taken,
            fallthrough,
            float: false,
        } = block.term
        else {
            return state;
        };
        if taken == fallthrough {
            return state;
        }
        let Some((_, Inst::Branch { rs1, rs2, .. })) = block.insts.last() else {
            return state;
        };
        let to_addr = self.cfg.block(to).start;
        let effective = if to_addr == taken {
            Some(cond)
        } else if to_addr == fallthrough {
            Some(cond.negate())
        } else {
            None
        };
        if let Some(c) = effective {
            let (v1, v2) = refine_pair(c, state.reg(*rs1), state.reg(*rs2));
            state.set_reg(*rs1, v1);
            state.set_reg(*rs2, v2);
        }
        state
    }
}

/// Computes may-write-memory summaries for every function (transitively
/// through the call graph, conservatively for unresolved calls).
#[must_use]
pub fn compute_summaries(program: &Program) -> HashMap<Addr, FunctionSummary> {
    let mut writes: HashMap<Addr, bool> = HashMap::new();
    for (&f, cfg) in &program.functions {
        let direct = cfg.blocks.iter().any(|b| {
            b.insts.iter().any(|(_, i)| matches!(i, Inst::Store { .. })) || b.term.is_unresolved()
        });
        writes.insert(f, direct);
    }
    // Propagate through calls until stable.
    let mut changed = true;
    while changed {
        changed = false;
        for (&f, cfg) in &program.functions {
            if writes[&f] {
                continue;
            }
            let from_callees = cfg
                .call_sites()
                .iter()
                .flat_map(|(_, callees)| callees.iter())
                .any(|c| writes.get(c).copied().unwrap_or(true));
            if from_callees {
                writes.insert(f, true);
                changed = true;
            }
        }
    }
    writes
        .into_iter()
        .map(|(f, w)| (f, FunctionSummary { writes_mem: w }))
        .collect()
}

fn address_value(state: &AbstractState, base: Reg, offset: i32) -> Value {
    state.reg(base).lift_binop(
        &Value::constant(offset as u32),
        u32::wrapping_add,
        Interval::add,
    )
}

fn alu_value(op: AluOp, a: &Value, b: &Value) -> Value {
    let approx = move |x: Interval, y: Interval| -> Interval {
        match op {
            AluOp::Add => x.add(y),
            AluOp::Sub => x.sub(y),
            AluOp::Mul => x.mul(y),
            AluOp::Mulhu => {
                // Monotone in both unsigned operands.
                match (x.lo(), x.hi(), y.lo(), y.hi()) {
                    (Some(xl), Some(xh), Some(yl), Some(yh)) => {
                        let lo = ((u64::from(xl) * u64::from(yl)) >> 32) as u32;
                        let hi = ((u64::from(xh) * u64::from(yh)) >> 32) as u32;
                        Interval::new(lo, hi)
                    }
                    _ => Interval::BOTTOM,
                }
            }
            AluOp::And => match (x.hi(), y.hi()) {
                (Some(xh), Some(yh)) => Interval::new(0, xh.min(yh)),
                _ => Interval::BOTTOM,
            },
            AluOp::Or | AluOp::Xor => match (x.hi(), y.hi()) {
                (Some(xh), Some(yh)) => {
                    // Result cannot exceed the next power of two above
                    // either operand's maximum, minus one.
                    let bits = 32 - (xh | yh).leading_zeros();
                    let hi = if bits >= 32 {
                        u32::MAX
                    } else {
                        (1u32 << bits) - 1
                    };
                    let lo = if op == AluOp::Or {
                        x.lo().unwrap_or(0).max(y.lo().unwrap_or(0))
                    } else {
                        0
                    };
                    Interval::new(lo.min(hi), hi)
                }
                _ => Interval::BOTTOM,
            },
            AluOp::Shl => match y.as_constant() {
                Some(c) => x.shl_const(c),
                None => Interval::TOP,
            },
            AluOp::Shr => match y.as_constant() {
                Some(c) => x.shr_const(c),
                None => Interval::TOP,
            },
            AluOp::Sra => Interval::TOP,
            AluOp::Slt => match (x.signed_bounds(), y.signed_bounds()) {
                (Some((xl, xh)), Some((yl, yh))) => {
                    if xh < yl {
                        Interval::constant(1)
                    } else if xl >= yh {
                        Interval::constant(0)
                    } else {
                        Interval::new(0, 1)
                    }
                }
                _ => Interval::new(0, 1),
            },
            AluOp::Sltu => match (x.lo(), x.hi(), y.lo(), y.hi()) {
                (Some(xl), Some(xh), Some(yl), Some(yh)) => {
                    if xh < yl {
                        Interval::constant(1)
                    } else if xl >= yh {
                        Interval::constant(0)
                    } else {
                        Interval::new(0, 1)
                    }
                }
                _ => Interval::new(0, 1),
            },
        }
    };
    a.lift_binop(b, |x, y| op.apply(x, y), approx)
}

/// Refines both operand values under the assumption that `cond(a, b)`
/// holds.
fn refine_pair(cond: Cond, a: Value, b: Value) -> (Value, Value) {
    match cond {
        Cond::Eq => {
            let met = Value::from_interval(a.to_interval().meet(b.to_interval()));
            let met = match (a.as_set(), b.as_set()) {
                (Some(sa), Some(sb)) => Value::from_set(sa.intersection(sb).copied().collect()),
                _ => met,
            };
            (met.clone(), met)
        }
        Cond::Ne => {
            let remove = |v: &Value, other: &Value| -> Value {
                match (v.as_set(), other.as_constant()) {
                    (Some(s), Some(c)) => {
                        let filtered: std::collections::BTreeSet<u32> =
                            s.iter().copied().filter(|&x| x != c).collect();
                        Value::from_set(filtered)
                    }
                    _ => {
                        // Shrink interval endpoints touching the excluded
                        // constant.
                        if let (Some(c), Some(lo), Some(hi)) = (
                            other.as_constant(),
                            v.to_interval().lo(),
                            v.to_interval().hi(),
                        ) {
                            if lo == c && lo < hi {
                                return Value::from_interval(Interval::new(lo + 1, hi));
                            }
                            if hi == c && lo < hi {
                                return Value::from_interval(Interval::new(lo, hi - 1));
                            }
                        }
                        v.clone()
                    }
                }
            };
            (remove(&a, &b), remove(&b, &a))
        }
        Cond::Ltu => {
            let ra = match (a.as_set(), b.to_interval().hi()) {
                // Keep exact sets exact: drop elements that cannot satisfy
                // a < b for any b.
                (Some(_), Some(bh)) => filter_set(
                    &a,
                    Value::from_interval(a.to_interval().refine_ltu(b.to_interval())),
                    |x| x < bh,
                ),
                _ => Value::from_interval(a.to_interval().refine_ltu(b.to_interval())),
            };
            (ra, b)
        }
        Cond::Geu => {
            let ra = Value::from_interval(a.to_interval().refine_geu(b.to_interval()));
            (ra, b)
        }
        Cond::Lt | Cond::Ge => {
            // Signed refinement only when both operands stay on one side
            // of the sign boundary, where the unsigned order agrees.
            match (
                a.to_interval().signed_bounds(),
                b.to_interval().signed_bounds(),
            ) {
                (Some((al, _)), Some((bl, _))) if al >= 0 && bl >= 0 => {
                    let unsigned = if cond == Cond::Lt {
                        Cond::Ltu
                    } else {
                        Cond::Geu
                    };
                    refine_pair(unsigned, a, b)
                }
                _ => (a, b),
            }
        }
    }
}

fn filter_set(original: &Value, fallback: Value, keep: impl Fn(u32) -> bool) -> Value {
    match original.as_set() {
        Some(s) => {
            let filtered: std::collections::BTreeSet<u32> =
                s.iter().copied().filter(|&x| keep(x)).collect();
            if filtered.is_empty() {
                fallback
            } else {
                Value::from_set(filtered)
            }
        }
        None => fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_cfg::graph::{reconstruct, TargetResolver};
    use wcet_isa::asm::assemble;

    fn analyze(src: &str) -> (Program, Image, FunctionAnalysis) {
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        (p, image, fa)
    }

    #[test]
    fn constants_propagate_through_blocks() {
        let (_, _, fa) = analyze("main: li r1, 7\n addi r2, r1, 3\n halt");
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        assert_eq!(exit.reg(Reg::new(2)).as_constant(), Some(10));
    }

    #[test]
    fn lui_ori_constant() {
        let (_, _, fa) = analyze("main: li r1, 0xdeadbeef\n halt");
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        assert_eq!(exit.reg(Reg::new(1)).as_constant(), Some(0xdead_beef));
    }

    #[test]
    fn loop_counter_interval_bounded_by_refinement() {
        // r1 counts 10 → 0; at loop exit the fallthrough refinement pins
        // r1 = 0.
        let (_, _, fa) =
            analyze("main: li r1, 10\nloop: subi r1, r1, 1\n bne r1, r0, loop\n done: halt");
        let done = fa.cfg().block_at(fa.entry.offset(12)).unwrap();
        let state = fa.block_in(done).unwrap();
        assert_eq!(state.reg(Reg::new(1)).as_constant(), Some(0));
    }

    #[test]
    fn memory_constant_round_trip() {
        let (_, _, fa) =
            analyze("main: li r1, 0x100\n li r2, 42\n sw r2, 0(r1)\n lw r3, 0(r1)\n halt");
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        assert_eq!(exit.reg(Reg::new(3)).as_constant(), Some(42));
    }

    #[test]
    fn unknown_store_havocs_memory() {
        // r4 is unknown (function argument); storing through it erases the
        // knowledge about 0x100.
        let (_, _, fa) = analyze(
            "main: li r1, 0x100\n li r2, 42\n sw r2, 0(r1)\n sw r2, 0(r4)\n lw r3, 0(r1)\n halt",
        );
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        assert!(exit.reg(Reg::new(3)).is_top());
    }

    #[test]
    fn data_segment_readable() {
        let (_, _, fa) = analyze(".data 0x5000 17, 99\nmain: li r1, 0x5004\n lw r2, 0(r1)\n halt");
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        assert_eq!(exit.reg(Reg::new(2)).as_constant(), Some(99));
    }

    #[test]
    fn call_clobbers_caller_saved_but_not_callee_saved() {
        let (_, _, fa) = analyze("main: li r1, 5\n li r10, 7\n call f\n halt\nf: ret");
        let halt_block = fa
            .cfg()
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Halt))
            .unwrap()
            .0;
        let state = fa.block_in(halt_block).unwrap();
        assert!(state.reg(Reg::new(1)).is_top(), "caller-saved clobbered");
        assert_eq!(state.reg(Reg::new(10)).as_constant(), Some(7));
    }

    #[test]
    fn pure_callee_preserves_memory() {
        // f writes nothing, so the caller's memory knowledge survives.
        let (_, _, fa) = analyze(
            "main: li r1, 0x100\n li r2, 9\n sw r2, 0(r1)\n call f\n li r3, 0x100\n lw r4, 0(r3)\n halt\nf: addi r5, r0, 1\n ret",
        );
        let halt_block = fa
            .cfg()
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Halt))
            .unwrap()
            .0;
        let state = fa.block_out(halt_block).unwrap();
        assert_eq!(state.reg(Reg::new(4)).as_constant(), Some(9));
    }

    #[test]
    fn writing_callee_havocs_memory() {
        let (_, _, fa) = analyze(
            "main: li r1, 0x100\n li r2, 9\n sw r2, 0(r1)\n call f\n li r3, 0x100\n lw r4, 0(r3)\n halt\nf: sw r0, 0(r6)\n ret",
        );
        let halt_block = fa
            .cfg()
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Halt))
            .unwrap()
            .0;
        let state = fa.block_out(halt_block).unwrap();
        assert!(state.reg(Reg::new(4)).is_top());
    }

    #[test]
    fn alloc_returns_heap_range() {
        let (_, _, fa) = analyze("main: li r1, 64\n alloc r2, r1\n halt");
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        let v = exit.reg(Reg::new(2));
        assert!(!v.is_top(), "heap range known");
        assert!(v.may_be(0x2000_0000));
        assert!(!v.may_be(0x100));
    }

    #[test]
    fn select_joins_both_arms() {
        let (_, _, fa) = analyze("main: li r2, 10\n li r3, 20\n sel r4, r5, r2, r3\n halt");
        let exit = fa.block_out(fa.cfg().entry_block()).unwrap();
        let v = exit.reg(Reg::new(4));
        assert!(v.may_be(10) && v.may_be(20));
        assert!(!v.may_be(15));
    }

    #[test]
    fn widening_terminates_on_unbounded_loop() {
        // r1 grows forever; the fixpoint must still terminate.
        let (_, _, fa) = analyze("main: li r1, 0\nloop: addi r1, r1, 1\n j loop");
        let header = fa.cfg().block_at(fa.entry.offset(4)).unwrap();
        let state = fa.block_in(header).unwrap();
        // Sound: r1 may be arbitrarily large.
        assert!(state.reg(Reg::new(1)).may_be(1_000_000));
    }

    #[test]
    fn pre_call_states_expose_argument_registers() {
        // r1 = 7 at the first site, r1 = 19 at the second: the callee's
        // per-context entry states must see exactly those values.
        let (p, _, fa) = analyze("main: li r1, 7\n call f\n li r1, 19\n call f\n halt\nf: ret");
        let sites = fa.pre_call_states();
        assert_eq!(sites.len(), 2);
        let values: Vec<Option<u32>> = p
            .entry_cfg()
            .call_sites()
            .iter()
            .map(|(site, _)| sites[site].reg(Reg::new(1)).as_constant())
            .collect();
        assert_eq!(values, vec![Some(7), Some(19)]);
    }

    #[test]
    fn pre_call_states_carry_the_return_address_in_lr() {
        // Regression: the snapshot used to keep the caller's *stale* lr.
        // The hardware writes the return address before callee entry, so
        // a caller that pins lr (here: mov lr, r0 → lr = 0) must not
        // leak that into the callee's entry state — a callee branching
        // on lr would be refined against a concretely false fact.
        let (p, _, fa) = analyze("main: mov lr, r0\n call f\n halt\nf: ret");
        let (site, _) = p.entry_cfg().call_sites()[0];
        let state = &fa.pre_call_states()[&site];
        let lr = state.reg(Reg::LINK);
        assert_eq!(
            lr.as_constant(),
            Some(site.next().0),
            "callee sees the return address, not the caller's stale lr: {lr}"
        );
    }

    #[test]
    fn state_digest_is_stable_and_discriminating() {
        let (_, _, fa) = analyze("main: li r1, 7\n call f\n halt\nf: ret");
        let state = fa.pre_call_states().into_values().next().unwrap();
        assert_eq!(state.digest(), state.digest(), "deterministic");
        let mut other = state.clone();
        other.set_reg(Reg::new(1), crate::value::Value::constant(8));
        assert_ne!(state.digest(), other.digest(), "value changes the digest");
        let mut mem = state.clone();
        mem.set_mem_word(0x100, crate::value::Value::constant(1));
        assert_ne!(state.digest(), mem.digest(), "memory changes the digest");
    }

    #[test]
    fn diamond_join_merges_constants() {
        let (_, _, fa) =
            analyze("main: beq r5, r0, other\n li r1, 1\n j join\nother: li r1, 2\njoin: halt");
        let join = fa
            .cfg()
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Halt))
            .unwrap()
            .0;
        let v = fa.block_in(join).unwrap().reg(Reg::new(1));
        assert!(v.may_be(1) && v.may_be(2) && !v.may_be(3));
    }
}
