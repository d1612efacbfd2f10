//! # wcet-path — IPET path analysis
//!
//! The final phase of the paper's Figure 1: given per-block execution-time
//! bounds (from `wcet-micro`) and loop bounds (from `wcet-analysis` or
//! annotations), computes the worst-case execution path and the WCET bound
//! by *implicit path enumeration* (IPET): execution counts of blocks and
//! edges become ILP variables, structural flow conservation and loop
//! bounds become constraints, and the WCET is the maximum of
//! `Σ timeᵦ · countᵦ`.
//!
//! Design-level knowledge (Section 4.3 of the paper) enters as
//! [`flowfacts::FlowFact`] linear constraints: operating-mode exclusions,
//! mutual exclusion of read/write paths in a message handler, maximum
//! error counts, infeasible-path pairs.
//!
//! # Example
//!
//! ```
//! use wcet_isa::asm::assemble;
//! use wcet_isa::interp::MachineConfig;
//! use wcet_cfg::graph::{reconstruct, TargetResolver};
//! use wcet_analysis::analyze_function;
//! use wcet_micro::blocktime::BlockTimes;
//! use wcet_path::ipet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble(
//!     "main: li r1, 10\nloop: subi r1, r1, 1\n bne r1, r0, loop\n call f\n halt\nf: ret",
//! )?;
//! let p = reconstruct(&image, &TargetResolver::empty())?;
//! let fa = analyze_function(&p, p.entry, &image);
//! let times = BlockTimes::compute(&fa, &MachineConfig::simple());
//! // Every call site is priced with its callee's bound (here: 7 cycles).
//! let mut costs = ipet::CallCosts::new();
//! for (site, _callees) in fa.cfg().call_sites() {
//!     costs.insert_site(site, 7);
//! }
//! let result = ipet::wcet(
//!     fa.cfg(),
//!     fa.forest(),
//!     &times,
//!     &fa.loop_bounds(),
//!     &[],
//!     &costs,
//! )?;
//! assert!(result.wcet_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod extract;
pub mod flowfacts;
pub mod ipet;

pub use flowfacts::FlowFact;
pub use ipet::{bcet, wcet, PathError, WcetResult};
