//! The IPET encoding and WCET/BCET solves.
//!
//! Variables: one per CFG edge plus one virtual entry edge (count 1) and
//! one virtual exit edge per exit block; one count variable per block tied
//! to the sum of its in-edges. Constraints: flow conservation per block,
//! loop bounds (`count(header) ≤ bound · Σ entry-edge counts`), and the
//! user's flow facts. Objective: maximize (WCET) or minimize (BCET)
//! `Σ timeᵦ · countᵦ`.

#![allow(clippy::needless_range_loop)] // index-parallel arrays

use std::collections::BTreeMap;
use std::fmt;

use wcet_analysis::loopbound::{BoundResult, LoopBounds, UnboundedReason};
use wcet_cfg::block::{BlockId, Terminator};
use wcet_cfg::graph::Cfg;
use wcet_cfg::loops::LoopForest;
use wcet_ilp::{Model, Sense, SolveError, VarId};

pub use wcet_ilp::LpStats;
use wcet_isa::Addr;
use wcet_micro::blocktime::BlockTimes;

use crate::flowfacts::{FactOp, FlowFact};

/// Callee costs per call site, added to the blocks that call them
/// (bottom-up interprocedural composition).
///
/// Each cost belongs to one specific call instruction, so two calls to the
/// same function can carry different costs: the unit pipeline prices each
/// site with the bound of the *(callee, context)* pair it resolves to. A
/// call site without a cost fails the solve with
/// [`PathError::MissingCallee`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallCosts {
    by_site: BTreeMap<Addr, u64>,
}

impl CallCosts {
    /// An empty cost table.
    #[must_use]
    pub fn new() -> CallCosts {
        CallCosts::default()
    }

    /// Sets the cost charged at the call instruction `site`. For indirect
    /// calls the caller must pass the already-merged (max for WCET, min
    /// for BCET) cost over the site's possible callees.
    pub fn insert_site(&mut self, site: Addr, cost: u64) {
        self.by_site.insert(site, cost);
    }

    /// The cost at `site`, if set.
    #[must_use]
    pub fn site(&self, site: Addr) -> Option<u64> {
        self.by_site.get(&site).copied()
    }
}

/// Why path analysis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PathError {
    /// A loop lacks a bound: no WCET exists. Carries the loops and the
    /// reasons the loop-bound analysis reported — the paper's tier-one
    /// diagnosis.
    UnboundedLoop {
        /// `(header address, reason)` for every unbounded loop.
        loops: Vec<(Addr, UnboundedReason)>,
    },
    /// A call target is unknown (unresolved function pointer): the call
    /// graph is incomplete and no bound can be claimed.
    UnresolvedCall {
        /// The offending call sites.
        sites: Vec<Addr>,
    },
    /// A call site was not priced: no callee cost was supplied for it.
    MissingCallee {
        /// The entry address of (the first) callee the site targets.
        callee: Addr,
    },
    /// The ILP failed (infeasible flow facts, solver limits).
    Solver(SolveError),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::UnboundedLoop { loops } => {
                write!(f, "unbounded loops prevent WCET computation:")?;
                for (addr, reason) in loops {
                    write!(f, " [{addr}: {reason}]")?;
                }
                Ok(())
            }
            PathError::UnresolvedCall { sites } => {
                write!(f, "unresolved indirect calls at {sites:?}")
            }
            PathError::MissingCallee { callee } => {
                write!(f, "no WCET available for callee {callee}")
            }
            PathError::Solver(e) => write!(f, "ILP solver: {e}"),
        }
    }
}

impl std::error::Error for PathError {}

impl From<SolveError> for PathError {
    fn from(e: SolveError) -> Self {
        PathError::Solver(e)
    }
}

/// The result of a WCET (or BCET) path analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetResult {
    /// The computed bound in cycles.
    pub wcet_cycles: u64,
    /// Execution count of every block on the extremal path.
    pub block_counts: BTreeMap<BlockId, u64>,
    /// A concrete witness path (block sequence), reconstructed from the
    /// counts; truncated at [`crate::extract::MAX_PATH_LEN`] blocks.
    pub worst_path: Vec<BlockId>,
}

impl WcetResult {
    /// The execution count of `b` on the extremal path.
    #[must_use]
    pub fn count(&self, b: BlockId) -> u64 {
        self.block_counts.get(&b).copied().unwrap_or(0)
    }
}

/// Computes the WCET bound of the analyzed function.
///
/// Takes the CFG and loop forest the timing phase analyzed (for virtual
/// unrolling, the *peeled* pair) rather than a full `FunctionAnalysis`:
/// the path phase never needs abstract states, and the incremental engine
/// rebuilds exactly these two structures when replaying cached artifacts.
///
/// # Errors
///
/// See [`PathError`].
pub fn wcet(
    cfg: &Cfg,
    forest: &LoopForest,
    times: &BlockTimes,
    bounds: &LoopBounds,
    facts: &[FlowFact],
    call_costs: &CallCosts,
) -> Result<WcetResult, PathError> {
    wcet_full(
        cfg,
        forest,
        times,
        bounds,
        facts,
        call_costs,
        &BTreeMap::new(),
        &mut LpStats::default(),
    )
}

/// [`wcet`] with per-edge cycle penalties added to the objective (the
/// pipeline analysis' static branch-misprediction charges: traversing a
/// penalized edge costs its penalty times the edge's flow), accumulating
/// solver effort counters into `stats`.
///
/// # Errors
///
/// See [`PathError`].
#[allow(clippy::too_many_arguments)] // the stats sink rides along
pub fn wcet_full(
    cfg: &Cfg,
    forest: &LoopForest,
    times: &BlockTimes,
    bounds: &LoopBounds,
    facts: &[FlowFact],
    call_costs: &CallCosts,
    edge_penalties: &BTreeMap<(BlockId, BlockId), u64>,
    stats: &mut LpStats,
) -> Result<WcetResult, PathError> {
    solve(
        cfg,
        forest,
        times,
        bounds,
        facts,
        call_costs,
        edge_penalties,
        Sense::Maximize,
        stats,
    )
}

/// Computes the BCET bound of the analyzed function (same system,
/// minimized, with best-case block times).
///
/// # Errors
///
/// See [`PathError`].
pub fn bcet(
    cfg: &Cfg,
    forest: &LoopForest,
    times: &BlockTimes,
    bounds: &LoopBounds,
    facts: &[FlowFact],
    call_costs: &CallCosts,
) -> Result<WcetResult, PathError> {
    bcet_full(
        cfg,
        forest,
        times,
        bounds,
        facts,
        call_costs,
        &BTreeMap::new(),
        &mut LpStats::default(),
    )
}

/// [`bcet`] with per-edge cycle penalties; see [`wcet_full`].
/// The minimizing sense charges them too — the BTFNT predictor is
/// deterministic, so a mispredicted edge *always* pays its penalty and
/// the lower bound stays exact.
///
/// # Errors
///
/// See [`PathError`].
#[allow(clippy::too_many_arguments)] // the stats sink rides along
pub fn bcet_full(
    cfg: &Cfg,
    forest: &LoopForest,
    times: &BlockTimes,
    bounds: &LoopBounds,
    facts: &[FlowFact],
    call_costs: &CallCosts,
    edge_penalties: &BTreeMap<(BlockId, BlockId), u64>,
    stats: &mut LpStats,
) -> Result<WcetResult, PathError> {
    solve(
        cfg,
        forest,
        times,
        bounds,
        facts,
        call_costs,
        edge_penalties,
        Sense::Minimize,
        stats,
    )
}

#[allow(clippy::too_many_arguments)] // one IPET system, fully spelled out
fn solve(
    cfg: &Cfg,
    forest: &LoopForest,
    times: &BlockTimes,
    bounds: &LoopBounds,
    facts: &[FlowFact],
    call_costs: &CallCosts,
    edge_penalties: &BTreeMap<(BlockId, BlockId), u64>,
    sense: Sense,
    stats: &mut LpStats,
) -> Result<WcetResult, PathError> {
    // Precondition 1: no unresolved calls (unknown callees void any bound).
    if !cfg.unresolved.is_empty() {
        return Err(PathError::UnresolvedCall {
            sites: cfg.unresolved.clone(),
        });
    }

    // Precondition 2: every *reachable* loop is bounded.
    let mut unbounded = Vec::new();
    for (id, result) in bounds.results() {
        if let BoundResult::Unbounded { reason } = result {
            let header = forest.info(*id).header;
            unbounded.push((cfg.block(header).start, *reason));
        }
    }
    if !unbounded.is_empty() {
        return Err(PathError::UnboundedLoop { loops: unbounded });
    }

    let n = cfg.block_count();
    let mut model = Model::new(sense);

    // Edge variables.
    let edges = cfg.edges();
    let edge_vars: Vec<VarId> = edges
        .iter()
        .map(|(u, v)| model.add_int_var(&format!("e_{}_{}", u.0, v.0), 0, None))
        .collect();
    // Virtual entry (fixed to 1) and exits.
    let entry_var = model.add_int_var("entry", 1, Some(1));
    let exit_blocks = cfg.exit_blocks();
    let exit_vars: BTreeMap<BlockId, VarId> = exit_blocks
        .iter()
        .map(|&b| (b, model.add_int_var(&format!("exit_{}", b.0), 0, None)))
        .collect();

    // Block count variables.
    let block_vars: Vec<VarId> = (0..n)
        .map(|i| model.add_int_var(&format!("b_{i}"), 0, None))
        .collect();

    // count(b) = Σ in-edges (+ virtual entry).
    for b in 0..n {
        let mut terms: Vec<(VarId, f64)> = vec![(block_vars[b], -1.0)];
        for (k, (_, v)) in edges.iter().enumerate() {
            if v.0 == b {
                terms.push((edge_vars[k], 1.0));
            }
        }
        if BlockId(b) == cfg.entry_block() {
            terms.push((entry_var, 1.0));
        }
        model.add_eq(&terms, 0.0);
    }

    // count(b) = Σ out-edges (+ virtual exit).
    for b in 0..n {
        let mut terms: Vec<(VarId, f64)> = vec![(block_vars[b], -1.0)];
        for (k, (u, _)) in edges.iter().enumerate() {
            if u.0 == b {
                terms.push((edge_vars[k], 1.0));
            }
        }
        if let Some(&xv) = exit_vars.get(&BlockId(b)) {
            terms.push((xv, 1.0));
        }
        model.add_eq(&terms, 0.0);
    }

    // Loop bounds: count(header) ≤ bound · Σ entry-edges(from outside).
    for (id, result) in bounds.results() {
        let BoundResult::Bounded { max_iterations, .. } = result else {
            continue; // already rejected above
        };
        let info = forest.info(*id);
        let header = info.header;
        let mut terms: Vec<(VarId, f64)> = vec![(block_vars[header.0], 1.0)];
        let bound = *max_iterations as f64;
        for (k, (u, v)) in edges.iter().enumerate() {
            if *v == header && !info.blocks.contains(u) {
                terms.push((edge_vars[k], -bound));
            }
        }
        if header == cfg.entry_block() {
            terms.push((entry_var, -bound));
        }
        model.add_le(&terms, 0.0);
    }

    // Flow facts.
    for fact in facts {
        let terms: Vec<(VarId, f64)> = fact
            .terms
            .iter()
            .map(|(b, c)| (block_vars[b.0], *c))
            .collect();
        match fact.op {
            FactOp::Le => model.add_le(&terms, fact.rhs),
            FactOp::Ge => model.add_ge(&terms, fact.rhs),
            FactOp::Eq => model.add_eq(&terms, fact.rhs),
        }
    }

    // Objective: Σ time(b) · count(b), plus callee costs on call blocks.
    let mut objective: Vec<(VarId, f64)> = Vec::with_capacity(n);
    for b in 0..n {
        let base = match sense {
            Sense::Maximize => times.wcet(BlockId(b)),
            Sense::Minimize => times.bcet(BlockId(b)),
        };
        let block = cfg.block(BlockId(b));
        let call_site = block.site_addr();
        let call_cost: u64 = match &block.term {
            Terminator::Call { callee, .. } => call_costs
                .site(call_site)
                .ok_or(PathError::MissingCallee { callee: *callee })?,
            Terminator::CallInd { callees, .. } if !callees.is_empty() => call_costs
                .site(call_site)
                .ok_or(PathError::MissingCallee { callee: callees[0] })?,
            _ => 0,
        };
        objective.push((block_vars[b], (base + call_cost) as f64));
    }

    // Per-edge penalties (static branch-misprediction charges): each
    // traversal of a penalized edge costs its penalty, in both senses —
    // the BTFNT predictor is deterministic, so the charge is exact.
    if !edge_penalties.is_empty() {
        for (k, edge) in edges.iter().enumerate() {
            if let Some(&p) = edge_penalties.get(edge) {
                objective.push((edge_vars[k], p as f64));
            }
        }
    }

    // First-miss (persistence) penalties: an access classified FirstMiss
    // costs the hit latency per execution (already in the block time)
    // plus its miss penalty **at most once per activation**. Encoded as
    // one extra 0/1 variable per penalized block, bounded by the block's
    // execution count; maximization drives it to 1 exactly when the
    // block executes at all — one miss per activation instead of one per
    // iteration. Minimization would drive the variable to 0 (a warm
    // entry cache can serve every execution), so the BCET system skips
    // the variables entirely.
    if matches!(sense, Sense::Maximize) {
        for b in 0..n {
            let penalty = times.first_miss(BlockId(b));
            if penalty == 0 {
                continue;
            }
            let fm = model.add_int_var(&format!("fm_{b}"), 0, Some(1));
            model.add_le(&[(fm, 1.0), (block_vars[b], -1.0)], 0.0);
            objective.push((fm, penalty as f64));
        }
    }
    model.set_objective(&objective);

    let solution = model.solve_with_stats(stats)?;

    let block_counts: BTreeMap<BlockId, u64> = (0..n)
        .map(|b| (BlockId(b), solution.int_value(block_vars[b]).max(0) as u64))
        .collect();
    let edge_counts: BTreeMap<(BlockId, BlockId), u64> = edges
        .iter()
        .enumerate()
        .map(|(k, &(u, v))| ((u, v), solution.int_value(edge_vars[k]).max(0) as u64))
        .collect();
    let worst_path = crate::extract::extract_path(cfg, &edge_counts);

    Ok(WcetResult {
        wcet_cycles: solution.objective.round().max(0.0) as u64,
        block_counts,
        worst_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_analysis::analyze_function;
    use wcet_cfg::graph::{reconstruct, TargetResolver};
    use wcet_isa::asm::assemble;
    use wcet_isa::interp::{Interpreter, MachineConfig};

    fn setup(src: &str) -> (wcet_isa::Image, wcet_analysis::FunctionAnalysis, BlockTimes) {
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        let times = BlockTimes::compute(&fa, &MachineConfig::simple());
        (image, fa, times)
    }

    fn wcet_of(src: &str) -> (u64, u64) {
        // Returns (bound, observed).
        let (image, fa, times) = setup(src);
        let result = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        let outcome = interp.run(1_000_000).unwrap();
        (result.wcet_cycles, outcome.cycles)
    }

    #[test]
    fn edge_penalties_charge_per_traversal() {
        // A 4-iteration loop: the back edge is taken 3 times, the exit
        // edge once. Penalizing each adds penalty × flow to the bound.
        let src = "main: li r1, 4\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt";
        let (_, fa, times) = setup(src);
        let cfg = fa.cfg();
        let bounds = fa.loop_bounds();
        let plain = wcet(cfg, fa.forest(), &times, &bounds, &[], &CallCosts::new())
            .unwrap()
            .wcet_cycles;
        let branch_block = cfg
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::CondBranch { .. }))
            .map(|(id, _)| id)
            .unwrap();
        let back_edge = (branch_block, branch_block);
        let exit_edge = cfg
            .edges()
            .into_iter()
            .find(|&(u, v)| u == branch_block && v != branch_block)
            .unwrap();
        for (edge, traversals) in [(back_edge, 3), (exit_edge, 1)] {
            let penalties = BTreeMap::from([(edge, 10u64)]);
            let with = wcet_full(
                cfg,
                fa.forest(),
                &times,
                &bounds,
                &[],
                &CallCosts::new(),
                &penalties,
                &mut LpStats::default(),
            )
            .unwrap()
            .wcet_cycles;
            assert_eq!(with, plain + 10 * traversals, "edge {edge:?}");
        }
        // The minimizing sense charges the penalty too; the shortest
        // path exits after one header visit, traversing the exit edge
        // exactly once (and the back edge never — its penalty is free).
        let b_plain = bcet(cfg, fa.forest(), &times, &bounds, &[], &CallCosts::new())
            .unwrap()
            .wcet_cycles;
        for (edge, traversals) in [(back_edge, 0), (exit_edge, 1)] {
            let penalties = BTreeMap::from([(edge, 10u64)]);
            let b_with = bcet_full(
                cfg,
                fa.forest(),
                &times,
                &bounds,
                &[],
                &CallCosts::new(),
                &penalties,
                &mut LpStats::default(),
            )
            .unwrap()
            .wcet_cycles;
            assert_eq!(b_with, b_plain + 10 * traversals, "edge {edge:?}");
        }
    }

    #[test]
    fn straight_line_sound_and_tight() {
        let (bound, observed) = wcet_of("main: li r1, 1\n addi r1, r1, 2\n halt");
        assert!(bound >= observed, "soundness: {bound} >= {observed}");
        assert_eq!(bound, observed, "no over-approximation on straight line");
    }

    #[test]
    fn counter_loop_bound_covers_observed() {
        let (bound, observed) =
            wcet_of("main: li r1, 10\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        assert!(bound >= observed, "{bound} >= {observed}");
        // The bound should be within the loop-overhead slack (exit branch
        // charged as taken), not wildly above.
        assert!(bound <= observed + 10, "{bound} ≤ {observed} + slack");
    }

    #[test]
    fn branchy_program_takes_longer_arm() {
        // The worst path must include the expensive arm (the multiply).
        let (_, fa, times) = setup(
            r#"
            main: beq r4, r0, cheap
                  mul r1, r2, r3
                  mul r1, r2, r3
                  j done
            cheap: addi r1, r0, 1
            done: halt
            "#,
        );
        let result = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        let expensive = fa
            .cfg()
            .iter()
            .find(|(_, b)| {
                b.insts
                    .iter()
                    .filter(|(_, i)| matches!(i, wcet_isa::Inst::Alu { .. }))
                    .count()
                    == 2
            })
            .unwrap()
            .0;
        assert_eq!(result.count(expensive), 1, "worst path takes the mul arm");
    }

    #[test]
    fn unbounded_loop_is_an_error_with_reason() {
        let (_, fa, times) =
            setup("main: mov r1, r4\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        let err = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap_err();
        match err {
            PathError::UnboundedLoop { loops } => {
                assert_eq!(loops.len(), 1);
                assert_eq!(loops[0].1, UnboundedReason::DataDependent);
            }
            other => panic!("expected UnboundedLoop, got {other:?}"),
        }
    }

    #[test]
    fn annotation_unblocks_unbounded_loop() {
        let (image, fa, times) =
            setup("main: mov r1, r4\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        let mut bounds = fa.loop_bounds();
        let id = bounds.results()[0].0;
        bounds.apply_annotation(id, 20);
        let result = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &bounds,
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        // Observed with r4 = 20 must stay below the bound.
        let mut interp = Interpreter::with_config(&image, MachineConfig::simple());
        interp.set_reg(wcet_isa::Reg::new(4), 20);
        let observed = interp.run(100_000).unwrap().cycles;
        assert!(result.wcet_cycles >= observed);
    }

    #[test]
    fn exclusion_fact_tightens_bound() {
        let (_, fa, times) = setup(
            r#"
            main: beq r4, r0, cheap
                  mul r1, r2, r3
                  mul r1, r2, r3
                  mul r1, r2, r3
                  j done
            cheap: addi r1, r0, 1
            done: halt
            "#,
        );
        let plain = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        let expensive = fa.cfg().iter().find(|(_, b)| b.insts.len() == 4).unwrap().0;
        let fact = FlowFact::exclude(expensive, "mode: expensive arm infeasible");
        let constrained = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[fact],
            &CallCosts::new(),
        )
        .unwrap();
        assert!(constrained.wcet_cycles < plain.wcet_cycles);
    }

    #[test]
    fn unresolved_call_is_an_error() {
        let (_, fa, times) = setup("main: callr r4\n halt");
        let err = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap_err();
        assert!(matches!(err, PathError::UnresolvedCall { .. }));
    }

    #[test]
    fn call_costs_added() {
        let src = "main: call f\n halt\nf: ret";
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        let times = BlockTimes::compute(&fa, &MachineConfig::simple());
        let sites = fa.cfg().call_sites();
        assert_eq!(sites.len(), 1);

        let mut costs = CallCosts::new();
        costs.insert_site(sites[0].0, 0);
        let base = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &costs,
        )
        .unwrap();
        costs.insert_site(sites[0].0, 100);
        let with_callee = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &costs,
        )
        .unwrap();
        assert_eq!(with_callee.wcet_cycles, base.wcet_cycles + 100);

        // An unpriced call site is an error naming the callee.
        let missing = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        );
        assert_eq!(
            missing.unwrap_err(),
            PathError::MissingCallee {
                callee: image.symbol("f").unwrap()
            }
        );
    }

    #[test]
    fn site_costs_price_each_call_separately() {
        // Two calls to the same callee priced differently per site: the
        // WCET charges each site its own context cost, not twice the
        // merged worst case.
        let src = "main: call f\n call f\n halt\nf: ret";
        let image = assemble(src).unwrap();
        let p = reconstruct(&image, &TargetResolver::empty()).unwrap();
        let fa = analyze_function(&p, p.entry, &image);
        let times = BlockTimes::compute(&fa, &MachineConfig::simple());
        let sites = fa.cfg().call_sites();
        assert_eq!(sites.len(), 2);
        let solve =
            |costs: &CallCosts| wcet(fa.cfg(), fa.forest(), &times, &fa.loop_bounds(), &[], costs);

        let mut merged = CallCosts::new();
        merged.insert_site(sites[0].0, 100);
        merged.insert_site(sites[1].0, 100);
        let both_merged = solve(&merged).unwrap();

        let mut per_site = CallCosts::new();
        per_site.insert_site(sites[0].0, 10);
        per_site.insert_site(sites[1].0, 100);
        let contexted = solve(&per_site).unwrap();
        assert_eq!(
            both_merged.wcet_cycles - contexted.wcet_cycles,
            90,
            "the cheap site saves exactly its context delta"
        );
        assert_eq!(per_site.site(sites[0].0), Some(10));

        // Pricing only one of the two sites is not enough.
        let mut partial = CallCosts::new();
        partial.insert_site(sites[0].0, 10);
        assert!(matches!(
            solve(&partial),
            Err(PathError::MissingCallee { .. })
        ));
    }

    #[test]
    fn first_miss_penalty_charged_once_per_activation() {
        // A 10-iteration loop whose body carries a first-miss penalty of
        // 40 cycles: the WCET charges the penalty once — not per
        // iteration — and the BCET ignores it entirely.
        let (_, fa, times) =
            setup("main: li r1, 10\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        let cfg = fa.cfg();
        let loop_block = cfg.block_at(fa.entry.offset(4)).unwrap();
        let n = cfg.block_count();
        let raw_w: Vec<u64> = (0..n).map(|b| times.wcet(BlockId(b))).collect();
        let raw_b: Vec<u64> = (0..n).map(|b| times.bcet(BlockId(b))).collect();
        let mut fm = vec![0u64; n];
        fm[loop_block.0] = 40;
        let with_fm =
            BlockTimes::from_raw_with_first_miss(raw_w.clone(), raw_b.clone(), fm).unwrap();
        let plain = BlockTimes::from_raw(raw_w, raw_b).unwrap();

        let solve_w = |t: &BlockTimes| {
            wcet(
                cfg,
                fa.forest(),
                t,
                &fa.loop_bounds(),
                &[],
                &CallCosts::new(),
            )
            .unwrap()
            .wcet_cycles
        };
        let solve_b = |t: &BlockTimes| {
            bcet(
                cfg,
                fa.forest(),
                t,
                &fa.loop_bounds(),
                &[],
                &CallCosts::new(),
            )
            .unwrap()
            .wcet_cycles
        };
        assert_eq!(
            solve_w(&with_fm),
            solve_w(&plain) + 40,
            "exactly one activation-scoped penalty"
        );
        assert_eq!(solve_b(&with_fm), solve_b(&plain), "BCET never charges it");
    }

    #[test]
    fn first_miss_penalty_skipped_when_block_does_not_execute() {
        // The penalized block sits on the cheap arm the WCET path avoids
        // (the penalty is too small to make that arm worth taking): the
        // fm variable is capped by the block count (0), so the penalty
        // must not leak into the bound.
        let (_, fa, times) = setup(
            r#"
            main: beq r4, r0, cheap
                  mul r1, r2, r3
                  mul r1, r2, r3
                  mul r1, r2, r3
                  j done
            cheap: addi r1, r0, 1
            done: halt
            "#,
        );
        let cfg = fa.cfg();
        // The cheap arm starts at main+20 (beq, three muls, j precede it).
        let cheap = cfg.block_at(fa.entry.offset(20)).unwrap();
        let n = cfg.block_count();
        let raw_w: Vec<u64> = (0..n).map(|b| times.wcet(BlockId(b))).collect();
        let raw_b: Vec<u64> = (0..n).map(|b| times.bcet(BlockId(b))).collect();
        let mut fm = vec![0u64; n];
        fm[cheap.0] = 1;
        let with_fm = BlockTimes::from_raw_with_first_miss(raw_w, raw_b, fm).unwrap();
        let result = wcet(
            cfg,
            fa.forest(),
            &with_fm,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        assert_eq!(result.count(cheap), 0, "worst path avoids the cheap arm");
        let plain = wcet(
            cfg,
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        assert_eq!(
            result.wcet_cycles, plain.wcet_cycles,
            "an unexecuted block's first-miss penalty is not charged"
        );
    }

    #[test]
    fn bcet_below_wcet() {
        let (_, fa, times) =
            setup("main: beq r4, r0, cheap\n mul r1, r2, r3\n j done\ncheap: nop\ndone: halt");
        let hi = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        let lo = bcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        assert!(lo.wcet_cycles < hi.wcet_cycles);
    }

    #[test]
    fn ge_flow_fact_forces_minimum_visits() {
        // A Ge fact can force the BCET path through otherwise-skippable
        // work (e.g. "the calibration block runs at least twice").
        let (_, fa, times) =
            setup("main: li r1, 3\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        let loop_block = fa.cfg().block_at(fa.entry.offset(4)).unwrap();
        let fact = FlowFact::linear(
            vec![(loop_block, 1.0)],
            crate::flowfacts::FactOp::Ge,
            2.0,
            "calibration runs at least twice",
        );
        let lo_plain = bcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        let lo_forced = bcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[fact],
            &CallCosts::new(),
        )
        .unwrap();
        assert!(lo_forced.wcet_cycles >= lo_plain.wcet_cycles);
        assert!(lo_forced.count(loop_block) >= 2);
    }

    #[test]
    fn mutex_capacity_above_one() {
        // Two blocks inside a bounded loop share a per-activation budget
        // larger than one.
        let (_, fa, times) = setup(
            r#"
            main: li r1, 6
            head: beq r1, r0, done
                  beq r4, r0, b_arm
            a_arm: mul r2, r2, r2
                  j next
            b_arm: mul r3, r3, r3
                  mul r3, r3, r3
            next: subi r1, r1, 1
                  j head
            done: halt
            "#,
        );
        let a_arm = fa.cfg().block_at(fa.entry.offset(12)).unwrap();
        let b_arm = fa.cfg().block_at(fa.entry.offset(20)).unwrap();
        let plain = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        // Budget: the two arms together may run at most 3 of the 6 times…
        let fact = FlowFact::mutually_exclusive(a_arm, b_arm, 3, "arm budget");
        let tight = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[fact],
            &CallCosts::new(),
        )
        .unwrap();
        assert!(tight.wcet_cycles < plain.wcet_cycles);
        assert!(tight.count(a_arm) + tight.count(b_arm) <= 3);
    }

    #[test]
    fn infeasible_facts_reported_as_solver_error() {
        let (_, fa, times) = setup("main: li r1, 1\n halt");
        let entry = fa.cfg().entry_block();
        // The entry must execute exactly once, so forbidding it is
        // infeasible.
        let fact = FlowFact::exclude(entry, "contradiction");
        let err = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[fact],
            &CallCosts::new(),
        )
        .unwrap_err();
        assert!(matches!(err, PathError::Solver(_)));
    }

    #[test]
    fn worst_path_is_a_real_path() {
        let (_, fa, times) =
            setup("main: li r1, 3\nloop: subi r1, r1, 1\n bne r1, r0, loop\n halt");
        let result = wcet(
            fa.cfg(),
            fa.forest(),
            &times,
            &fa.loop_bounds(),
            &[],
            &CallCosts::new(),
        )
        .unwrap();
        assert_eq!(result.worst_path.first(), Some(&fa.cfg().entry_block()));
        // The path visits the loop block `bound` times.
        let loop_block = fa.cfg().block_at(fa.entry.offset(4)).unwrap();
        let visits = result
            .worst_path
            .iter()
            .filter(|&&b| b == loop_block)
            .count() as u64;
        assert_eq!(visits, result.count(loop_block));
    }
}
