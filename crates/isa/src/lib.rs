//! # wcet-isa — binary program substrate for the WCET predictability study
//!
//! This crate defines a small 32-bit RISC instruction set together with
//! everything a *binary-level* static WCET analyzer needs to consume and a
//! cycle-accurate interpreter to validate analysis results against:
//!
//! * [`inst`] — the instruction set (semantic level),
//! * [`arch`] — the ISA boundary: the [`arch::IsaKind`] tag + the
//!   [`arch::IsaSpec`] trait behind which backends register their
//!   encoding, timing, and memory-map defaults,
//! * [`encode`]/[`decode`] — the in-house 32-bit binary encoding and its
//!   decoder (the "Decoding Phase" input of the paper's Figure 1),
//! * [`rv32`] — the RISC-V RV32I subset backend's encoding and decoder,
//! * [`asm`] — a two-pass text assembler,
//! * [`builder`] — a programmatic program builder with labels,
//! * [`image`] — linked binary images (code + data segments + entry point),
//! * [`memmap`] — memory maps with per-region access latencies
//!   (SRAM / flash / MMIO / heap), the substrate for the paper's
//!   "imprecise memory accesses" discussion,
//! * [`timing`] — the base instruction cost model shared by the
//!   interpreter and the static pipeline analysis,
//! * [`interp`] — a concrete interpreter that counts cycles, used to check
//!   the soundness invariant (observed cycles ≤ WCET bound),
//! * [`hash`] — stable (process-independent) content hashing, the key
//!   substrate of the incremental analysis artifact cache.
//!
//! The ISA is deliberately expressive enough to encode every software
//! structure the paper discusses: indirect jumps and calls (function
//! pointers, `setjmp`/`longjmp`-like control flow), raw unconditional
//! branches (`goto`, irreducible loops), predicated selects (single-path
//! code), floating-point compare-and-branch (MISRA rule 13.4), and a heap
//! allocation primitive modelling `malloc` (MISRA rule 20.4).
//!
//! # Example
//!
//! ```
//! use wcet_isa::asm::assemble;
//! use wcet_isa::interp::{Interpreter, StopReason};
//! use wcet_isa::memmap::MemoryMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = assemble(
//!     r#"
//!     .org 0x1000
//!     main:
//!         li   r1, 5
//!     loop:
//!         subi r1, r1, 1
//!         bne  r1, r0, loop
//!         halt
//!     "#,
//! )?;
//! let mut interp = Interpreter::new(&image, MemoryMap::default_embedded());
//! let outcome = interp.run(10_000)?;
//! assert_eq!(outcome.stop, StopReason::Halt);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod arch;
pub mod asm;
pub mod builder;
pub mod cache;
pub mod codec;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod hash;
pub mod image;
pub mod inst;
pub mod interp;
pub mod memmap;
pub mod rv32;
pub mod timing;

mod error;

pub use arch::{HouseIsa, IsaKind, IsaSpec, Rv32iIsa};
pub use error::IsaError;
pub use image::Image;
pub use inst::{Addr, AluOp, Cond, FAluOp, FCond, FReg, Inst, Reg, Width};
