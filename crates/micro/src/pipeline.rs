//! Abstract in-order pipeline analysis.
//!
//! The flat timing model ([`crate::blocktime`]) sums per-instruction
//! latencies, throwing away every inter-instruction overlap. This module
//! models the machine the interpreter's pipeline mode implements: a
//! latched 4-stage in-order pipe (fetch / execute / memory / writeback)
//! where each stage holds its instruction until the next stage accepts
//! it. Block cost becomes the *retirement delta* computed from an
//! abstract pipeline state carried block-to-block — exactly the way
//! [`crate::cacheanalysis::CacheStates`] is carried — so back-to-back
//! short instructions stop paying the full latency sum.
//!
//! # The abstract state
//!
//! A concrete pipeline state, observed at an instruction's retirement,
//! is the residual vector `(b1, b2, b3)`: how long before retirement the
//! instruction entered execute, memory, and writeback. Larger residuals
//! mean stages were vacated earlier, so the *next* instruction overlaps
//! more and retires sooner; `(0, 0, 0)` is a drained pipe (every stage
//! busy until retirement — the worst case). The latching bounds each
//! residual by combinations of per-stage maximum latencies, which keeps
//! the state space finite and the fixpoint terminating.
//!
//! [`PipelineStates`] keeps *two* bounded sets of residual vectors:
//!
//! * `worst`: a pointwise-minimal antichain under-approximating every
//!   reachable residual (some member is `≤` the concrete vector). The
//!   block WCET delta maximizes over it with worst-case stage latencies.
//! * `best`: a pointwise-maximal antichain over-approximating every
//!   reachable residual. The block BCET delta minimizes over it with
//!   best-case latencies.
//!
//! Join is set union pruned to the antichain; past [`WIDENING_CAP`]
//! vectors the set collapses to its single pointwise bound (the
//! pointwise minimum for `worst`, maximum for `best`) — sound, just
//! blunter.
//!
//! Soundness is a *cumulative* (per-path) argument, not per-block: in
//! absolute time the latch recurrence is monotone in both the entry
//! state and the stage latencies, so an abstract machine started no
//! warmer (worst) / no colder (best) than the concrete one retires every
//! later instruction no earlier / no later. Summing per-block deltas
//! along any path therefore brackets the concrete cycle count, which is
//! exactly what IPET consumes.
//!
//! # Branch prediction
//!
//! Conditional branches are priced per CFG *edge* under a static BTFNT
//! predictor ([`wcet_isa::timing::TimingModel::btfnt_predicts_taken`]):
//! the predicted edge carries the transferred state; the mispredicted
//! edge drains the pipe (exact — the interpreter does the same) and
//! [`branch_penalties`] hands IPET the refill penalty to charge on that
//! edge's flow variable.

use std::collections::{BTreeMap, VecDeque};

use wcet_analysis::{FunctionAnalysis, Value};
use wcet_cfg::block::{BlockId, Terminator};
use wcet_cfg::graph::Cfg;
use wcet_isa::interp::MachineConfig;
use wcet_isa::timing::TimingModel;
use wcet_isa::{Addr, Inst};

use crate::blocktime::{self, AccessOverrides, BlockTimes};
use crate::cacheanalysis::CacheAnalysis;

/// Maximum number of residual vectors per polarity before a join
/// collapses the set to its single pointwise bound.
pub const WIDENING_CAP: usize = 8;

/// A residual vector: cycles before the last instruction's retirement at
/// which it entered execute, memory, and writeback. Nonincreasing and
/// nonnegative by construction.
type Resid = [u64; 3];

/// The abstract pipeline state flowed along CFG (and call) edges; see
/// the module docs for the two polarities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStates {
    /// Pointwise-minimal antichain: some member lies `≤` every reachable
    /// concrete residual vector. Sorted for determinism.
    worst: Vec<Resid>,
    /// Pointwise-maximal antichain: some member lies `≥` every reachable
    /// concrete residual vector. Sorted for determinism.
    best: Vec<Resid>,
}

impl PipelineStates {
    /// The drained pipe — exact at the task entry (the machine really
    /// starts with empty stages) and after a mispredicted branch.
    #[must_use]
    pub fn drained() -> PipelineStates {
        PipelineStates {
            worst: vec![[0, 0, 0]],
            best: vec![[0, 0, 0]],
        }
    }

    /// The sound state for a function whose callers are not tracked (and
    /// for the caller's view after an opaque call): the pipe may be
    /// anything from drained to maximally warm. `worst` gets the global
    /// minimum; `best` gets the machine-derived residual ceiling.
    #[must_use]
    pub fn unknown(machine: &MachineConfig) -> PipelineStates {
        PipelineStates {
            worst: vec![[0, 0, 0]],
            best: vec![max_slack(machine)],
        }
    }

    /// A state from raw residual vectors, normalized (dominated members
    /// pruned, sorted, widening cap applied). The constructor the domain
    /// property tests build arbitrary states with; empty polarities fall
    /// back to the drained vector so the state stays well-formed.
    #[must_use]
    pub fn from_vectors(worst: Vec<[u64; 3]>, best: Vec<[u64; 3]>) -> PipelineStates {
        let fill = |v: Vec<Resid>| if v.is_empty() { vec![[0, 0, 0]] } else { v };
        PipelineStates {
            worst: fill(worst),
            best: fill(best),
        }
        .normalized()
    }

    /// Control-flow (and call-edge) merge: set union per polarity,
    /// pruned and capped.
    #[must_use]
    pub fn join(&self, other: &PipelineStates) -> PipelineStates {
        let mut worst = self.worst.clone();
        worst.extend_from_slice(&other.worst);
        let mut best = self.best.clone();
        best.extend_from_slice(&other.best);
        PipelineStates { worst, best }.normalized()
    }

    /// Prunes dominated vectors, sorts, and applies the widening cap.
    fn normalized(mut self) -> PipelineStates {
        self.worst = normalize(self.worst, Polarity::Worst);
        self.best = normalize(self.best, Polarity::Best);
        self
    }

    /// `self` adds nothing over `other`: every member is covered by one
    /// of `other`'s (below for `worst`, above for `best`), so flowing
    /// `other` already accounts for everything `self` describes.
    #[must_use]
    pub fn is_subsumed_by(&self, other: &PipelineStates) -> bool {
        self.worst
            .iter()
            .all(|v| other.worst.iter().any(|u| le(u, v)))
            && self
                .best
                .iter()
                .all(|v| other.best.iter().any(|u| le(v, u)))
    }

    /// A stable content digest (for incremental context-entry keys).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = wcet_isa::hash::StableHasher::new();
        for dir in [&self.worst, &self.best] {
            h.write_u32(u32::try_from(dir.len()).unwrap_or(u32::MAX));
            for v in dir {
                for &c in v {
                    h.write_u64(c);
                }
            }
        }
        h.finish()
    }

    /// Serializes the state for the incremental engine's unit artifacts
    /// (a replayed caller's per-call-site entry pipes) — the byte-level
    /// twin of [`PipelineStates::digest`].
    pub fn encode_into(&self, w: &mut wcet_isa::codec::Writer) {
        for dir in [&self.worst, &self.best] {
            w.usize(dir.len());
            for v in dir {
                for &c in v {
                    w.u64(c);
                }
            }
        }
    }

    /// Inverse of [`PipelineStates::encode_into`]; `None` on malformed
    /// bytes or an empty polarity (no analysis state has one).
    pub fn decode_from(r: &mut wcet_isa::codec::Reader<'_>) -> Option<PipelineStates> {
        let mut dirs: [Vec<Resid>; 2] = [Vec::new(), Vec::new()];
        for dir in &mut dirs {
            let n = r.length()?;
            if n == 0 {
                return None;
            }
            for _ in 0..n {
                dir.push([r.u64()?, r.u64()?, r.u64()?]);
            }
        }
        let [worst, best] = dirs;
        Some(PipelineStates { worst, best })
    }

    /// Number of vectors tracked (both polarities) — widening telemetry.
    #[must_use]
    pub fn width(&self) -> usize {
        self.worst.len() + self.best.len()
    }
}

/// Which bound a vector set serves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Polarity {
    Worst,
    Best,
}

fn le(a: &Resid, b: &Resid) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

fn normalize(mut set: Vec<Resid>, polarity: Polarity) -> Vec<Resid> {
    set.sort_unstable();
    set.dedup();
    // Keep v only when no *other* member covers it: for `worst` a
    // smaller vector yields the larger delta, so `v` dominated from
    // below is redundant; mirrored for `best`.
    let kept: Vec<Resid> = set
        .iter()
        .filter(|v| {
            !set.iter().any(|u| {
                u != *v
                    && match polarity {
                        Polarity::Worst => le(u, v),
                        Polarity::Best => le(v, u),
                    }
            })
        })
        .copied()
        .collect();
    if kept.len() <= WIDENING_CAP {
        return kept;
    }
    // Collapse to the single pointwise bound of the whole set.
    let mut bound = kept[0];
    for v in &kept[1..] {
        for k in 0..3 {
            bound[k] = match polarity {
                Polarity::Worst => bound[k].min(v[k]),
                Polarity::Best => bound[k].max(v[k]),
            };
        }
    }
    vec![bound]
}

/// The residual ceiling reachable on `machine`, derived from the latch
/// recurrence's inductive bounds: `b3 = W`, `b2 ≤ W + max(M, W)`,
/// `b1 ≤ b2 + max(E, b2)` where `W` is the writeback occupancy, `M` the
/// worst memory-stage latency, and `E` the worst execute cost. A
/// generous overestimate is sound — it only loosens the BCET.
fn max_slack(machine: &MachineConfig) -> Resid {
    let t = &machine.timing;
    let e = u64::from(
        [
            t.alu,
            t.mul,
            t.falu,
            t.fdiv,
            t.jump,
            t.call,
            t.indirect,
            t.mem_issue,
            t.alloc,
            t.select,
            t.nop,
        ]
        .into_iter()
        .max()
        .unwrap_or(1)
        .max(t.branch_taken)
        .max(t.branch_not_taken),
    );
    let mut m = u64::from(
        machine
            .memmap
            .worst_read_latency()
            .max(machine.memmap.worst_write_latency()),
    );
    if let Some(dc) = &machine.dcache {
        m += u64::from(dc.hit_latency);
    }
    let w = u64::from(t.writeback);
    let b3 = w;
    let b2 = w + m.max(w);
    let b1 = b2 + e.max(b2);
    [b1, b2, b3]
}

/// One step of the latch recurrence: retires an instruction with stage
/// latencies `(s1, s2, s3, s4)` against residual `r`, returning the
/// retirement delta and the successor residual. Mirrors the
/// interpreter's `charge_pipelined` exactly.
fn step(r: Resid, s1: u64, s2: u64, s3: u64, s4: u64) -> (u64, Resid) {
    let to_i = |x: u64| i64::try_from(x).expect("stage latency fits i64");
    let u1 = to_i(s1) - to_i(r[0]);
    let v2 = u1.max(-to_i(r[1]));
    let d2 = v2 + to_i(s2);
    let v3 = d2.max(-to_i(r[2]));
    let d3 = v3 + to_i(s3);
    let v4 = d3.max(0);
    let d4 = v4 + to_i(s4);
    (
        d4.unsigned_abs(),
        [
            (d4 - v2).unsigned_abs(),
            (d4 - v3).unsigned_abs(),
            (d4 - v4).unsigned_abs(),
        ],
    )
}

/// Per-instruction stage latencies, split by bound direction. The
/// execute entry of a conditional-branch terminator is the *not-taken*
/// cost in `exec_lo` and the *taken* cost in `exec_hi`; edge-directed
/// transfers override it with the edge's exact cost.
struct InstLat {
    fetch_hi: u64,
    fetch_lo: u64,
    exec_hi: u64,
    exec_lo: u64,
    mem_hi: u64,
    mem_lo: u64,
    /// First-miss penalty (persistence runs), charged additively
    /// once-per-activation by IPET — never overlapped.
    first_miss: u64,
}

/// The BTFNT penalty per CFG edge, split by bound sense. Normally both
/// maps carry the same entry (the mispredicted edge's penalty — exact,
/// since the predictor is deterministic). When a branch's taken target
/// *is* its fall-through the single merged edge may or may not
/// mispredict, so only the WCET map charges it.
#[derive(Debug, Clone, Default)]
pub struct BranchPenalties {
    /// Penalties the WCET (maximizing) objective adds per edge.
    pub wcet: BTreeMap<(BlockId, BlockId), u64>,
    /// Penalties the BCET (minimizing) objective adds per edge.
    pub bcet: BTreeMap<(BlockId, BlockId), u64>,
}

/// Static BTFNT branch-prediction penalties for every conditional-branch
/// edge of `cfg`.
#[must_use]
pub fn branch_penalties(cfg: &Cfg, timing: &TimingModel) -> BranchPenalties {
    let mut out = BranchPenalties::default();
    let penalty = u64::from(timing.mispredict_penalty);
    if penalty == 0 {
        return out;
    }
    for (id, block) in cfg.iter() {
        let Terminator::CondBranch {
            taken, fallthrough, ..
        } = block.term
        else {
            continue;
        };
        let pc = block.site_addr();
        let predicted_taken = TimingModel::btfnt_predicts_taken(pc, taken);
        if taken == fallthrough {
            // Degenerate branch-to-next: one merged edge that may or may
            // not mispredict. Charge only the upper bound.
            for &succ in &cfg.succs[id.0] {
                if cfg.block(succ).start == taken {
                    out.wcet.insert((id, succ), penalty);
                }
            }
            continue;
        }
        let mispredicted = if predicted_taken { fallthrough } else { taken };
        for &succ in &cfg.succs[id.0] {
            if cfg.block(succ).start == mispredicted {
                out.wcet.insert((id, succ), penalty);
                out.bcet.insert((id, succ), penalty);
            }
        }
    }
    out
}

/// Conditional-branch out-edges priced by the BTFNT model — the
/// phase-trace statistic. A pure function of the CFG, so a warm replay
/// recounts it without re-running the fixpoint.
#[must_use]
pub fn predicted_edge_count(cfg: &Cfg) -> usize {
    cfg.iter()
        .filter(|(_, b)| matches!(b.term, Terminator::CondBranch { .. }))
        .map(|(id, _)| cfg.succs[id.0].len())
        .sum()
}

/// A pipeline analysis together with the context-propagation hooks: the
/// abstract state immediately after every call terminator (= the
/// callee's entry pipe), keyed by call site, mirroring
/// [`crate::cacheanalysis::CtxCacheAnalysis`].
#[derive(Debug, Clone)]
pub struct CtxPipelineAnalysis {
    /// Pipeline-aware per-block time bounds (first-miss penalties are
    /// identical to the flat model's — they stay additive).
    pub times: BlockTimes,
    /// Abstract pipe state entering each callee, keyed by call site
    /// (virtual unrolling can duplicate a site; duplicates are joined).
    pub call_states: BTreeMap<Addr, PipelineStates>,
    /// Conditional-branch edges priced by the BTFNT model (the
    /// phase-trace counter).
    pub predicted_edges: usize,
}

/// Runs the abstract pipeline fixpoint over `fa`'s CFG and derives
/// pipeline-aware [`BlockTimes`].
///
/// `icache`/`dcache` are the (context-entry-aware) cache analyses whose
/// classifications feed the fetch and memory stage latencies — passing
/// the same instances used for classification keeps timing and
/// classification agreeing, exactly as
/// [`BlockTimes::compute_from_parts`] requires. `entry` is the abstract
/// pipe at function entry (`None` = drained; use
/// [`PipelineStates::unknown`] for untracked callers).
#[must_use]
pub fn analyze(
    fa: &FunctionAnalysis,
    machine: &MachineConfig,
    overrides: &AccessOverrides,
    icache: Option<&CacheAnalysis>,
    dcache: Option<&CacheAnalysis>,
    entry: Option<&PipelineStates>,
) -> CtxPipelineAnalysis {
    let cfg = fa.cfg();
    let accesses = fa.access_values();
    let writeback = u64::from(machine.timing.writeback);

    // Per-block, per-instruction stage latencies.
    let lats: Vec<Vec<InstLat>> = cfg
        .iter()
        .map(|(id, block)| {
            block
                .insts
                .iter()
                .enumerate()
                .map(|(idx, (inst_addr, inst))| {
                    let (f_hi, f_lo, f_fm) =
                        blocktime::fetch_cost(*inst_addr, icache, machine, id, idx);
                    let (mut m_hi, mut m_lo, mut m_fm) = (0u32, 0u32, 0u32);
                    if inst.is_memory_access() {
                        let value = accesses.get(inst_addr).cloned().unwrap_or_else(Value::top);
                        let value =
                            blocktime::apply_override(value, overrides.range_of(*inst_addr));
                        let is_read = matches!(inst, Inst::Load { .. });
                        (m_hi, m_lo, m_fm) =
                            blocktime::data_cost(&value, is_read, dcache, machine, id, idx);
                    }
                    InstLat {
                        fetch_hi: u64::from(f_hi),
                        fetch_lo: u64::from(f_lo),
                        exec_hi: u64::from(machine.timing.worst_base_cost(inst)),
                        exec_lo: u64::from(machine.timing.base_cost(inst)),
                        mem_hi: u64::from(m_hi),
                        mem_lo: u64::from(m_lo),
                        first_miss: u64::from(f_fm) + u64::from(m_fm),
                    }
                })
                .collect()
        })
        .collect();

    // Transfers one polarity's vector through the block's instructions
    // (optionally overriding the last instruction's execute cost for
    // edge-directed branch transfers), returning the summed delta.
    let run_vec = |v: Resid, block: BlockId, hi: bool, exec_last: Option<u64>| -> (u64, Resid) {
        let rows = &lats[block.0];
        let mut r = v;
        let mut total = 0u64;
        for (idx, l) in rows.iter().enumerate() {
            let (s1, mut s2, s3) = if hi {
                (l.fetch_hi, l.exec_hi, l.mem_hi)
            } else {
                (l.fetch_lo, l.exec_lo, l.mem_lo)
            };
            if idx + 1 == rows.len() {
                if let Some(e) = exec_last {
                    s2 = e;
                }
            }
            let (d, next) = step(r, s1, s2, s3, writeback);
            total += d;
            r = next;
        }
        (total, r)
    };
    let transfer = |s: &PipelineStates, block: BlockId, exec_last: Option<u64>| -> PipelineStates {
        PipelineStates {
            worst: s
                .worst
                .iter()
                .map(|&v| run_vec(v, block, true, exec_last).1)
                .collect(),
            best: s
                .best
                .iter()
                .map(|&v| run_vec(v, block, false, exec_last).1)
                .collect(),
        }
        .normalized()
    };

    // What flows along each outgoing edge of `block` given its in-state.
    // Conditional branches fork: the predicted edge carries the
    // transferred state with that edge's exact execute cost; the
    // mispredicted edge drains the pipe (the interpreter restarts
    // against empty stages after the refill).
    let out_edges = |block: BlockId, in_state: &PipelineStates| -> Vec<(BlockId, PipelineStates)> {
        let b = cfg.block(block);
        match b.term {
            Terminator::CondBranch {
                taken, fallthrough, ..
            } => {
                let pc = b.site_addr();
                let predicted_taken = TimingModel::btfnt_predicts_taken(pc, taken);
                let not_taken_cost = u64::from(machine.timing.branch_not_taken);
                let taken_cost = u64::from(machine.timing.branch_taken);
                if taken == fallthrough {
                    // A branch to its own fall-through: the one merged
                    // edge is reached taken or not taken, predicted or
                    // mispredicted (the interpreter drains on a
                    // mispredict whatever the target), so it carries the
                    // join of all three outcomes.
                    let merged = transfer(in_state, block, Some(taken_cost))
                        .join(&transfer(in_state, block, Some(not_taken_cost)))
                        .join(&PipelineStates::drained());
                    return cfg.succs[block.0]
                        .iter()
                        .map(|&succ| (succ, merged.clone()))
                        .collect();
                }
                cfg.succs[block.0]
                    .iter()
                    .map(|&succ| {
                        let start = cfg.block(succ).start;
                        let is_taken_edge = start == taken;
                        let predicted = is_taken_edge == predicted_taken;
                        let state = if predicted {
                            let exec = if is_taken_edge {
                                taken_cost
                            } else {
                                not_taken_cost
                            };
                            transfer(in_state, block, Some(exec))
                        } else {
                            PipelineStates::drained()
                        };
                        (succ, state)
                    })
                    .collect()
            }
            Terminator::Call { .. } | Terminator::CallInd { .. } => {
                // The transferred state is the callee's entry pipe; the
                // caller resumes with an unknown pipe (snapshots are
                // taken in the classification pass below).
                cfg.succs[block.0]
                    .iter()
                    .map(|&succ| (succ, PipelineStates::unknown(machine)))
                    .collect()
            }
            _ => cfg.succs[block.0]
                .iter()
                .map(|&succ| (succ, transfer(in_state, block, None)))
                .collect(),
        }
    };

    // Worklist fixpoint, mirroring the cache analysis.
    let n = cfg.block_count();
    let mut in_states: Vec<Option<PipelineStates>> = vec![None; n];
    let entry_block = cfg.entry_block();
    in_states[entry_block.0] = Some(entry.cloned().unwrap_or_else(PipelineStates::drained));
    let mut work: VecDeque<BlockId> = VecDeque::from([entry_block]);
    while let Some(b) = work.pop_front() {
        let Some(in_state) = in_states[b.0].clone() else {
            continue;
        };
        for (succ, out) in out_edges(b, &in_state) {
            let new_in = match &in_states[succ.0] {
                Some(old) => old.join(&out),
                None => out,
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

    // Charging pass: per-block deltas from the in-states, plus pre-call
    // snapshots for context propagation.
    let mut call_states: BTreeMap<Addr, PipelineStates> = BTreeMap::new();
    let mut wcet = Vec::with_capacity(n);
    let mut bcet = Vec::with_capacity(n);
    let mut first_miss = Vec::with_capacity(n);
    for (id, block) in cfg.iter() {
        // Unreachable blocks charge from a drained pipe — they never
        // execute, so any deterministic sound choice works.
        let in_state = in_states[id.0]
            .clone()
            .unwrap_or_else(PipelineStates::drained);
        let hi = in_state
            .worst
            .iter()
            .map(|&v| run_vec(v, id, true, None).0)
            .max()
            .unwrap_or(0);
        let lo = in_state
            .best
            .iter()
            .map(|&v| run_vec(v, id, false, None).0)
            .min()
            .unwrap_or(0);
        // The per-path (cumulative) soundness argument lets a block's
        // maximized delta undercut its minimized one in pathological
        // set shapes; clamping the lower bound down is always sound.
        wcet.push(hi);
        bcet.push(lo.min(hi));
        first_miss.push(lats[id.0].iter().map(|l| l.first_miss).sum());

        if matches!(
            block.term,
            Terminator::Call { .. } | Terminator::CallInd { .. }
        ) {
            // The post-terminator state — the call instruction has been
            // transferred — is the callee's entry pipe.
            let after = transfer(&in_state, id, None);
            let site = block.site_addr();
            let merged = match call_states.remove(&site) {
                Some(prev) => prev.join(&after),
                None => after,
            };
            call_states.insert(site, merged);
        }
    }

    CtxPipelineAnalysis {
        times: BlockTimes::from_pipeline(wcet, bcet, first_miss),
        call_states,
        predicted_edges: predicted_edge_count(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_analysis::analyze_function;
    use wcet_cfg::graph::{reconstruct, TargetResolver};
    use wcet_isa::asm::assemble;
    use wcet_isa::interp::Interpreter;

    fn analyze_src(src: &str) -> (wcet_isa::Image, FunctionAnalysis) {
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        (image, fa)
    }

    fn pipeline_times(fa: &FunctionAnalysis, machine: &MachineConfig) -> CtxPipelineAnalysis {
        analyze(fa, machine, &AccessOverrides::none(), None, None, None)
    }

    #[test]
    fn straight_line_matches_the_interpreter_exactly() {
        // One block, deterministic latencies (no caches): the abstract
        // drained-entry delta is the concrete pipelined cycle count.
        let src = "main: li r1, 3\n mul r2, r1, r1\n fdiv f1, f1, f1\n addi r2, r2, 1\n halt";
        let (image, fa) = analyze_src(src);
        let machine = MachineConfig {
            pipeline: true,
            ..MachineConfig::simple()
        };
        let t = pipeline_times(&fa, &machine);
        let mut interp = Interpreter::with_config(&image, machine);
        let observed = interp.run(1000).unwrap().cycles;
        let entry = fa.cfg().entry_block();
        assert_eq!(t.times.wcet(entry), observed);
        assert_eq!(t.times.bcet(entry), observed);
    }

    #[test]
    fn pipeline_tightens_flat_block_times() {
        let src = "main: fdiv f1, f1, f1\n fdiv f2, f2, f2\n fdiv f3, f3, f3\n halt";
        let (_, fa) = analyze_src(src);
        let machine = MachineConfig::simple();
        let flat = BlockTimes::compute(&fa, &machine);
        let piped = pipeline_times(&fa, &machine);
        let b = fa.cfg().entry_block();
        assert!(
            piped.times.wcet(b) < flat.wcet(b),
            "pipelined {} should beat flat {}",
            piped.times.wcet(b),
            flat.wcet(b)
        );
        assert!(piped.times.bcet(b) <= piped.times.wcet(b));
    }

    #[test]
    fn join_is_sound_and_subsumption_agrees() {
        let drained = PipelineStates::drained();
        let unknown = PipelineStates::unknown(&MachineConfig::simple());
        let joined = drained.join(&unknown);
        assert!(drained.is_subsumed_by(&joined));
        assert!(unknown.is_subsumed_by(&joined));
        assert_eq!(joined.join(&joined).digest(), joined.digest());
        assert_ne!(drained.digest(), unknown.digest());
    }

    #[test]
    fn widening_cap_collapses_to_pointwise_bound() {
        let mut acc = PipelineStates::drained();
        // Incomparable vectors: (k, CAP-k, 0) — an antichain wider than
        // the cap in the best direction.
        for k in 0..=(WIDENING_CAP as u64) {
            let v = [10 + k, (WIDENING_CAP as u64) - k, 0];
            let s = PipelineStates {
                worst: vec![[0, 0, 0]],
                best: vec![v],
            };
            acc = acc.join(&s);
        }
        assert!(
            acc.best.len() <= WIDENING_CAP,
            "cap respected, got {}",
            acc.best.len()
        );
    }

    #[test]
    fn branch_penalties_charge_the_mispredicted_edge() {
        // Backward loop branch: predicted taken → penalty on the exit
        // (fall-through) edge only.
        let (_, fa) = analyze_src("main: li r1, 4\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        let cfg = fa.cfg();
        let timing = TimingModel::new();
        let p = branch_penalties(cfg, &timing);
        assert_eq!(p.wcet.len(), 1);
        assert_eq!(p.wcet, p.bcet);
        let (&(from, to), &pen) = p.wcet.iter().next().unwrap();
        assert_eq!(pen, u64::from(timing.mispredict_penalty));
        // The penalized edge leads to the halt block, not back to the loop.
        assert!(cfg.succs[from.0].contains(&to));
        assert!(
            !matches!(cfg.block(to).term, Terminator::CondBranch { .. }),
            "exit edge is the mispredicted one"
        );
    }

    #[test]
    fn loop_fixpoint_terminates_and_covers_the_interpreter() {
        // A loop whose body mixes latencies: the fixpoint must terminate
        // and the summed block bounds (entry + n·body) must cover the
        // concrete run. Charges per block: wcet × executions.
        let src = "main: li r1, 6\nloop: mul r2, r1, r1\n fdiv f1, f1, f1\n subi r1, r1, 1\n bne r1, r0, loop\n halt";
        let (image, fa) = analyze_src(src);
        let machine = MachineConfig {
            pipeline: true,
            ..MachineConfig::simple()
        };
        let t = pipeline_times(&fa, &machine);
        let mut interp = Interpreter::with_config(&image, machine.clone());
        let observed = interp.run(10_000).unwrap().cycles;
        let cfg = fa.cfg();
        // Path: entry once, loop 6 times, halt once, one mispredict.
        let entry = cfg.entry_block();
        let loop_b = cfg
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::CondBranch { .. }))
            .map(|(id, _)| id)
            .unwrap();
        let halt_b = cfg
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Halt))
            .map(|(id, _)| id)
            .unwrap();
        let bound = t.times.wcet(entry)
            + 6 * t.times.wcet(loop_b)
            + t.times.wcet(halt_b)
            + u64::from(machine.timing.mispredict_penalty);
        assert!(bound >= observed, "bound {bound} < observed {observed}");
        let lower = t.times.bcet(entry)
            + 6 * t.times.bcet(loop_b)
            + t.times.bcet(halt_b)
            + u64::from(machine.timing.mispredict_penalty);
        assert!(lower <= observed, "lower {lower} > observed {observed}");
    }

    #[test]
    fn call_snapshot_feeds_callee_entry() {
        let (_, fa) = analyze_src("main: nop\n call f\n halt\nf: ret");
        let machine = MachineConfig::simple();
        let t = pipeline_times(&fa, &machine);
        assert_eq!(t.call_states.len(), 1, "one call site snapshotted");
        let state = t.call_states.values().next().unwrap();
        // A real transferred state, not the unknown fallback.
        assert_ne!(state.digest(), PipelineStates::unknown(&machine).digest());
    }
}
