//! Corpus-scale differential fuzzing of the analyzer (`wcet fuzz`).
//!
//! The soundness argument of an abstract-interpretation WCET analyzer is
//! only as strong as the programs it has been confronted with. This module
//! is the automated adversary: a deterministic random-program generator
//! over [`ProgramBuilder`], a differential oracle that checks
//! interpreter-observed cycles against the analyzer's `[BCET, WCET]`
//! interval across the whole configuration matrix (context depth, caches,
//! persistence, virtual unrolling, worker threads, warm/cold artifact
//! cache), and — because the vendored proptest stand-in has no shrinking —
//! a greedy structural shrinker that reduces every failure to a minimal
//! reproducer.
//!
//! Everything is reproducible from a single `u64` seed: generation,
//! input-vector selection, and the oracle schedule derive from it through
//! the vendored deterministic `StdRng`, so a CI failure line like
//! `seed 1, program 173, isa rv32i` replays locally with
//! `wcet fuzz --seed 1 --programs 174 --isa rv32i`.
//!
//! # Program shape
//!
//! Generated programs are specified in a small structural IR ([`ProgSpec`])
//! and lowered per-ISA, which keeps shrinking semantic (drop a function,
//! halve a loop bound, delete a statement) instead of textual:
//!
//! * an acyclic call tree up to depth 4 (`f0` = entry, calls only go to
//!   deeper levels); callees save/restore `lr` and the loop-counter
//!   registers on the stack,
//! * counted loops (nesting ≤ 2) in the exact `li/sub/bne` shape the
//!   automatic loop-bound analysis recognizes; loops whose body performs a
//!   call hide the counter from that analysis, so those always carry an
//!   auto-emitted `loop <header> bound N;` annotation matching the real
//!   trip count (others are annotated at random — both derivation paths
//!   stay under test),
//! * a 16-word SRAM data array with constant-slot and counter-indexed
//!   loads/stores,
//! * branches over the externally-set input registers `r10..r12`,
//! * straight-line ALU traffic drawn from the op set both backends encode
//!   (`AluImm` restricted to the RV32I immediate forms; `li` defers to the
//!   per-ISA constant synthesis).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wcet_guidelines::annot::AnnotationSet;
use wcet_isa::builder::ProgramBuilder;
use wcet_isa::interp::{Interpreter, MachineConfig};
use wcet_isa::{AluOp, Cond, Image, IsaKind, Reg};

use crate::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use crate::incr::ArtifactCache;

/// Base address of the shared data array (SRAM).
const DATA_BASE: u32 = 0x8000;
/// Number of words in the shared data array; indexed accesses mask to it.
const DATA_SLOTS: u32 = 16;
/// Maximum loop-nesting depth (one dedicated counter register per level).
const MAX_LOOP_DEPTH: u8 = 2;
/// Scratch registers the generator computes into (`r1..r6`).
const NUM_SCRATCH: u8 = 6;
/// Externally-set input registers (`r10..r12`, read-only to generated code).
const NUM_INPUTS: u8 = 3;

/// Loop-counter register for nesting level `depth` (`r8`/`r9`).
fn counter_reg(depth: u8) -> Reg {
    Reg::new(8 + depth.min(MAX_LOOP_DEPTH - 1))
}

/// Scratch register `i` of [`NUM_SCRATCH`].
fn scratch_reg(i: u8) -> Reg {
    Reg::new(1 + i % NUM_SCRATCH)
}

/// Input register `i` of [`NUM_INPUTS`].
fn input_reg(i: u8) -> Reg {
    Reg::new(10 + i % NUM_INPUTS)
}

/// Address-computation temporaries (never targets of random ALU traffic).
fn addr_tmp() -> Reg {
    Reg::new(7)
}
fn addr_tmp2() -> Reg {
    Reg::new(13)
}

// ---------------------------------------------------------------------------
// Structural IR
// ---------------------------------------------------------------------------

/// One statement of the structural IR. `u8` register fields are indices
/// into the scratch/input register files (see [`scratch_reg`] and the
/// `src` helper), not raw registers, so a spec can never name a reserved
/// register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `SCRATCH[rd] = src(rs1) op src(rs2)`.
    Alu { op: AluOp, rd: u8, rs1: u8, rs2: u8 },
    /// `SCRATCH[rd] = src(rs1) op imm` (RV32I-encodable forms only).
    AluImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    /// `SCRATCH[rd] = value` via the per-ISA constant synthesis.
    Li { rd: u8, value: u32 },
    /// `SCRATCH[rd] = data[slot]`.
    Load { rd: u8, slot: u8 },
    /// `data[slot] = src(rs)`.
    Store { rs: u8, slot: u8 },
    /// `SCRATCH[rd] = data[counter(depth) % DATA_SLOTS]` — a
    /// counter-indexed access; only valid inside a loop of at least
    /// `depth + 1` nesting levels.
    LoadIdx { rd: u8, depth: u8 },
    /// Two-armed branch on `src(rs1) cond src(rs2)`.
    Diamond {
        cond: Cond,
        rs1: u8,
        rs2: u8,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// Counted loop executing `body` exactly `bound` times. `annotate`
    /// requests a `loop <header> bound N;` annotation; lowering forces it
    /// on whenever the body (transitively) performs a call, which hides
    /// the counter from the automatic bound analysis.
    Loop {
        bound: u16,
        annotate: bool,
        body: Vec<Stmt>,
    },
    /// Call to function `callee` (an index into [`ProgSpec::funcs`];
    /// always a strictly deeper call-tree level, so the graph is acyclic).
    Call { callee: usize },
}

impl Stmt {
    fn contains_call(&self) -> bool {
        match self {
            Stmt::Call { .. } => true,
            Stmt::Diamond {
                then_body,
                else_body,
                ..
            } => body_contains_call(then_body) || body_contains_call(else_body),
            Stmt::Loop { body, .. } => body_contains_call(body),
            _ => false,
        }
    }
}

fn body_contains_call(body: &[Stmt]) -> bool {
    body.iter().any(Stmt::contains_call)
}

/// One generated function: a statement body. Function 0 is the entry
/// (ends in `halt`); every other function gets a `lr`/counter-saving
/// prologue and returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpec {
    /// Call-tree level: the entry is level 0; calls from level `d` only
    /// target functions at level `d + 1`.
    pub level: u8,
    pub body: Vec<Stmt>,
}

/// A complete generated program, pre-lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgSpec {
    pub isa: IsaKind,
    /// Base address of the code: SRAM or flash (flash makes the
    /// instruction cache load-bearing).
    pub code_base: u32,
    pub funcs: Vec<FuncSpec>,
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// ALU ops legal as three-register forms on both backends.
const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Mulhu,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
];

/// ALU ops legal as immediate forms on both backends (`sub` normalizes to
/// `addi -imm` on RV32I; `mul`/`mulhu` have no immediate encoding there).
const ALUI_OPS: [AluOp; 9] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sra,
    AluOp::Slt,
];

/// Constants worth multiplying/masking with: powers of two around the
/// 2³² boundary, saturating values, and a few primes.
const LI_PALETTE: [u32; 16] = [
    0,
    1,
    3,
    7,
    15,
    16,
    255,
    257,
    0x7fff,
    0x8000,
    0xffff,
    0x0001_0000,
    0x0010_0000,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
];

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

/// Derives the per-program generator seed from the campaign seed. The mix
/// is printed on failure, so one failing program replays without re-running
/// the programs before it.
#[must_use]
pub fn program_seed(campaign_seed: u64, index: u64, isa: IsaKind) -> u64 {
    let salt = match isa {
        IsaKind::House => 0x9e37_79b9_7f4a_7c15,
        IsaKind::Rv32i => 0xc2b2_ae3d_27d4_eb4f,
    };
    campaign_seed
        .wrapping_mul(0x0100_0000_01b3)
        .wrapping_add(index)
        .wrapping_mul(salt)
}

struct Gen {
    rng: StdRng,
    /// Remaining statement budget for the whole program, so deeply nested
    /// recursion cannot balloon one spec.
    budget: usize,
}

impl Gen {
    fn stmt(&mut self, loop_depth: u8, call_targets: &[usize]) -> Stmt {
        self.budget = self.budget.saturating_sub(1);
        let roll = self.rng.gen_range(0u32..100);
        match roll {
            // Straight-line ALU traffic dominates: it is where the value
            // domain (and the interval fix under test) lives.
            0..=29 => Stmt::Alu {
                op: ALU_OPS[self.rng.gen_range(0..ALU_OPS.len())],
                rd: self.rd(),
                rs1: self.rs(),
                rs2: self.rs(),
            },
            30..=44 => {
                let op = ALUI_OPS[self.rng.gen_range(0..ALUI_OPS.len())];
                let imm = match op {
                    AluOp::Shl | AluOp::Shr | AluOp::Sra => self.rng.gen_range(0..=31),
                    // House logical immediates are zero-extended; negative
                    // values have no encoding there.
                    AluOp::And | AluOp::Or | AluOp::Xor => self.rng.gen_range(0..=255),
                    _ => self.rng.gen_range(-128..=127),
                };
                Stmt::AluImm {
                    op,
                    rd: self.rd(),
                    rs1: self.rs(),
                    imm,
                }
            }
            45..=54 => Stmt::Li {
                rd: self.rd(),
                value: if self.rng.gen_bool(0.5) {
                    LI_PALETTE[self.rng.gen_range(0..LI_PALETTE.len())]
                } else {
                    self.rng.gen_range(0..=u32::MAX)
                },
            },
            55..=62 => Stmt::Load {
                rd: self.rd(),
                slot: self.rng.gen_range(0..DATA_SLOTS) as u8,
            },
            63..=70 => Stmt::Store {
                rs: self.rs(),
                slot: self.rng.gen_range(0..DATA_SLOTS) as u8,
            },
            71..=75 if loop_depth > 0 => Stmt::LoadIdx {
                rd: self.rd(),
                depth: self.rng.gen_range(0..loop_depth),
            },
            76..=85 if self.budget > 2 => {
                let then_body = self.body(1..=3, loop_depth, call_targets);
                let else_body = self.body(1..=3, loop_depth, call_targets);
                Stmt::Diamond {
                    cond: CONDS[self.rng.gen_range(0..CONDS.len())],
                    rs1: self.rs(),
                    rs2: self.rs(),
                    then_body,
                    else_body,
                }
            }
            86..=94 if loop_depth < MAX_LOOP_DEPTH && self.budget > 2 => Stmt::Loop {
                bound: self.rng.gen_range(1..=10),
                annotate: self.rng.gen_bool(0.4),
                body: self.body(1..=4, loop_depth + 1, call_targets),
            },
            _ if !call_targets.is_empty() => Stmt::Call {
                callee: call_targets[self.rng.gen_range(0..call_targets.len())],
            },
            // Fallback when the preferred construct is unavailable here.
            _ => Stmt::AluImm {
                op: AluOp::Add,
                rd: self.rd(),
                rs1: self.rs(),
                imm: self.rng.gen_range(-8..=8),
            },
        }
    }

    fn body(
        &mut self,
        count: std::ops::RangeInclusive<usize>,
        loop_depth: u8,
        call_targets: &[usize],
    ) -> Vec<Stmt> {
        let n = self.rng.gen_range(count).min(self.budget.max(1));
        (0..n)
            .map(|_| self.stmt(loop_depth, call_targets))
            .collect()
    }

    fn rd(&mut self) -> u8 {
        self.rng.gen_range(0..NUM_SCRATCH)
    }

    /// Source-operand index: 0..6 scratch, 6..9 inputs, 9 = r0.
    fn rs(&mut self) -> u8 {
        self.rng.gen_range(0..=NUM_SCRATCH + NUM_INPUTS)
    }
}

/// Generates the program spec for `seed`. Pure function of its arguments.
#[must_use]
pub fn generate(seed: u64, isa: IsaKind) -> ProgSpec {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        budget: 60,
    };
    let code_base = if g.rng.gen_bool(0.5) {
        0x1000
    } else {
        0x0010_0000
    };
    let nfuncs = g.rng.gen_range(1..=5usize);
    let mut levels = vec![0u8];
    for j in 1..nfuncs {
        levels.push(g.rng.gen_range(1..=(j.min(4)) as u8));
    }
    let mut funcs = Vec::with_capacity(nfuncs);
    for j in 0..nfuncs {
        let targets: Vec<usize> = (j + 1..nfuncs)
            .filter(|&k| levels[k] == levels[j] + 1)
            .collect();
        let body = g.body(2..=7, 0, &targets);
        funcs.push(FuncSpec {
            level: levels[j],
            body,
        });
    }
    ProgSpec {
        isa,
        code_base,
        funcs,
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// A lowered program: the linked image plus its auto-emitted annotations.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    pub spec: ProgSpec,
    pub image: Image,
    /// Annotation text (`loop <header> bound N;` lines).
    pub annotations: String,
}

struct Lowerer<'a> {
    b: &'a mut ProgramBuilder,
    /// `(header label, bound)` for every loop that must be annotated.
    annotated: Vec<(String, u16)>,
    next_label: u32,
}

impl Lowerer<'_> {
    fn fresh(&mut self, stem: &str) -> String {
        self.next_label += 1;
        format!("{stem}_{}", self.next_label)
    }

    fn src(&self, idx: u8) -> Reg {
        if idx < NUM_SCRATCH {
            scratch_reg(idx)
        } else if idx < NUM_SCRATCH + NUM_INPUTS {
            input_reg(idx - NUM_SCRATCH)
        } else {
            Reg::ZERO
        }
    }

    fn lower_body(&mut self, body: &[Stmt], loop_depth: u8) {
        for stmt in body {
            self.lower_stmt(stmt, loop_depth);
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt, loop_depth: u8) {
        match stmt {
            Stmt::Alu { op, rd, rs1, rs2 } => {
                let (rs1, rs2) = (self.src(*rs1), self.src(*rs2));
                self.b.alu(*op, scratch_reg(*rd), rs1, rs2);
            }
            Stmt::AluImm { op, rd, rs1, imm } => {
                let rs1 = self.src(*rs1);
                self.b.alui(*op, scratch_reg(*rd), rs1, *imm);
            }
            Stmt::Li { rd, value } => {
                self.b.li(scratch_reg(*rd), *value);
            }
            Stmt::Load { rd, slot } => {
                self.b.li(addr_tmp(), DATA_BASE + 4 * u32::from(*slot));
                self.b.lw(scratch_reg(*rd), addr_tmp(), 0);
            }
            Stmt::Store { rs, slot } => {
                let rs = self.src(*rs);
                self.b.li(addr_tmp(), DATA_BASE + 4 * u32::from(*slot));
                self.b.sw(rs, addr_tmp(), 0);
            }
            Stmt::LoadIdx { rd, depth } => {
                // data[counter % DATA_SLOTS]: mask, scale, add base.
                let counter = counter_reg((*depth).min(loop_depth.saturating_sub(1)));
                self.b
                    .alui(AluOp::And, addr_tmp(), counter, (DATA_SLOTS - 1) as i32);
                self.b.alui(AluOp::Shl, addr_tmp(), addr_tmp(), 2);
                self.b.li(addr_tmp2(), DATA_BASE);
                self.b.alu(AluOp::Add, addr_tmp(), addr_tmp(), addr_tmp2());
                self.b.lw(scratch_reg(*rd), addr_tmp(), 0);
            }
            Stmt::Diamond {
                cond,
                rs1,
                rs2,
                then_body,
                else_body,
            } => {
                let then_l = self.fresh("then");
                let end_l = self.fresh("end");
                let (rs1, rs2) = (self.src(*rs1), self.src(*rs2));
                self.b.branch(*cond, rs1, rs2, &then_l);
                self.lower_body(else_body, loop_depth);
                self.b.jump(&end_l);
                self.b.label(&then_l);
                self.lower_body(then_body, loop_depth);
                self.b.label(&end_l);
            }
            Stmt::Loop {
                bound,
                annotate,
                body,
            } => {
                let depth = loop_depth.min(MAX_LOOP_DEPTH - 1);
                let counter = counter_reg(depth);
                let head = self.fresh("head");
                // A call in the body clobbers the analyzer's view of the
                // counter (the callee restores it only concretely), so the
                // automatic bound analysis cannot see this loop: the
                // annotation becomes mandatory.
                if *annotate || body_contains_call(body) {
                    self.annotated.push((head.clone(), *bound));
                }
                self.b.li(counter, u32::from(*bound));
                self.b.label(&head);
                self.lower_body(body, depth + 1);
                self.b.alui(AluOp::Sub, counter, counter, 1);
                self.b.branch(Cond::Ne, counter, Reg::ZERO, &head);
            }
            Stmt::Call { callee } => {
                self.b.call(&func_label(*callee));
            }
        }
    }
}

fn func_label(idx: usize) -> String {
    if idx == 0 {
        "main".to_owned()
    } else {
        format!("f{idx}")
    }
}

/// Lowers a spec to a linked image plus its annotation text.
///
/// # Errors
///
/// Propagates [`wcet_isa::IsaError`] from encoding/linking — a spec whose
/// lowering cannot encode is a generator bug, surfaced loudly.
pub fn lower(spec: &ProgSpec) -> Result<GeneratedProgram, wcet_isa::IsaError> {
    let mut b = ProgramBuilder::new_for(spec.isa, spec.code_base);
    let mut low = Lowerer {
        b: &mut b,
        annotated: Vec::new(),
        next_label: 0,
    };
    for (j, func) in spec.funcs.iter().enumerate() {
        low.b.label(&func_label(j));
        if j == 0 {
            low.lower_body(&func.body, 0);
            low.b.halt();
        } else {
            // Callee prologue: save lr and both loop counters so loops in
            // callers survive calls concretely (the analyzer still treats
            // post-call registers as unknown — that asymmetry is exactly
            // what forces annotations on call-bearing loops).
            low.b.alui(AluOp::Sub, Reg::SP, Reg::SP, 12);
            low.b.sw(Reg::LINK, Reg::SP, 0);
            low.b.sw(counter_reg(0), Reg::SP, 4);
            low.b.sw(counter_reg(1), Reg::SP, 8);
            low.lower_body(&func.body, 0);
            low.b.lw(Reg::LINK, Reg::SP, 0);
            low.b.lw(counter_reg(0), Reg::SP, 4);
            low.b.lw(counter_reg(1), Reg::SP, 8);
            low.b.alui(AluOp::Add, Reg::SP, Reg::SP, 12);
            low.b.ret();
        }
    }
    let annotated = std::mem::take(&mut low.annotated);
    b.data_words(
        DATA_BASE,
        &(0..DATA_SLOTS)
            .map(|i| 0x0101_0101u32.wrapping_mul(i + 1))
            .collect::<Vec<_>>(),
    );
    let image = b.build("main")?;
    let mut annotations = String::new();
    for (label, bound) in annotated {
        let header = image.symbol(&label).expect("loop header label was bound");
        annotations.push_str(&format!("loop {header} bound {bound};\n"));
    }
    Ok(GeneratedProgram {
        spec: spec.clone(),
        image,
        annotations,
    })
}

// ---------------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------------

/// One analyzer configuration of the oracle matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleCase {
    pub caches: bool,
    pub context_depth: usize,
    pub persistence: bool,
    pub unrolling: bool,
    pub pipeline: bool,
}

impl fmt::Display for OracleCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "caches={} depth={}{}{}{}",
            self.caches,
            self.context_depth,
            if self.persistence { " persistence" } else { "" },
            if self.unrolling { " unroll" } else { "" },
            if self.pipeline { " pipeline" } else { "" },
        )
    }
}

/// The full matrix every program is checked against.
pub const MATRIX: [OracleCase; 8] = [
    OracleCase {
        caches: false,
        context_depth: 0,
        persistence: false,
        unrolling: false,
        pipeline: false,
    },
    OracleCase {
        caches: false,
        context_depth: 1,
        persistence: false,
        unrolling: false,
        pipeline: false,
    },
    OracleCase {
        caches: true,
        context_depth: 0,
        persistence: false,
        unrolling: false,
        pipeline: false,
    },
    OracleCase {
        caches: true,
        context_depth: 1,
        persistence: false,
        unrolling: false,
        pipeline: false,
    },
    OracleCase {
        caches: true,
        context_depth: 1,
        persistence: true,
        unrolling: false,
        pipeline: false,
    },
    OracleCase {
        caches: true,
        context_depth: 0,
        persistence: false,
        unrolling: true,
        pipeline: false,
    },
    OracleCase {
        caches: false,
        context_depth: 0,
        persistence: false,
        unrolling: false,
        pipeline: true,
    },
    OracleCase {
        caches: true,
        context_depth: 1,
        persistence: true,
        unrolling: false,
        pipeline: true,
    },
];

/// Test-only fault injection, used to prove the oracle + shrinker pipeline
/// actually catches unsoundness (see the shrinker's own test). Hidden from
/// normal use; the CLI always passes [`Sabotage::None`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    #[default]
    None,
    /// Analyze with the cache-less machine while the interpreter runs with
    /// caches — drops every cache-miss penalty from the bound, the classic
    /// "forgot the memory hierarchy" unsoundness.
    AnalyzeWithoutCaches,
}

/// What a failed check was checking, precisely enough to re-run just that
/// check during shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// `observed ∈ [BCET, WCET]` for `MATRIX[case]` (also covers analysis
    /// and execution errors under that case).
    Bounds { case: usize },
    /// Report digest identical for 1 and N analysis threads.
    ThreadDeterminism { case: usize },
    /// Report digest identical without a cache, with a cold cache, and
    /// with a warm cache.
    CacheDeterminism { case: usize },
}

/// An oracle violation: the check that failed and a human-readable detail.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: CheckKind,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CheckKind::Bounds { case } => write!(f, "[{}] {}", MATRIX[case], self.detail),
            CheckKind::ThreadDeterminism { case } => {
                write!(f, "[{} thread-determinism] {}", MATRIX[case], self.detail)
            }
            CheckKind::CacheDeterminism { case } => {
                write!(f, "[{} cache-determinism] {}", MATRIX[case], self.detail)
            }
        }
    }
}

fn analyzer_for(
    gp: &GeneratedProgram,
    case: OracleCase,
    sabotage: Sabotage,
    parallelism: usize,
) -> Result<AnalyzerConfig, String> {
    let isa = gp.spec.isa;
    let machine = match (case.caches, sabotage) {
        (true, Sabotage::None) => MachineConfig::with_caches_for(isa),
        (true, Sabotage::AnalyzeWithoutCaches) | (false, _) => MachineConfig::simple_for(isa),
    };
    let annotations =
        AnnotationSet::parse(&gp.annotations).map_err(|e| format!("annotation parse: {e}"))?;
    let mut machine = machine;
    machine.pipeline = case.pipeline;
    Ok(AnalyzerConfig {
        machine,
        annotations,
        check_guidelines: false,
        unrolling: case.unrolling,
        parallelism: Some(parallelism),
        context_depth: case.context_depth,
        persistence: case.persistence,
        pipeline: case.pipeline,
        isa,
    })
}

/// The machine the *interpreter* runs on for a case — always the real one;
/// sabotage only degrades the analyzer's model.
fn run_machine(isa: IsaKind, case: OracleCase) -> MachineConfig {
    let mut machine = if case.caches {
        MachineConfig::with_caches_for(isa)
    } else {
        MachineConfig::simple_for(isa)
    };
    machine.pipeline = case.pipeline;
    machine
}

/// A deterministic digest of everything an analysis report asserts
/// (bounds, per-function results, worst-path counts, mode table). Every
/// field formatted here is `BTreeMap`/`Vec`-backed, so two runs that
/// compare equal produce byte-identical digests; `incr` statistics are
/// deliberately excluded — a warm report must match a cold one.
#[must_use]
pub fn report_digest(report: &AnalysisReport) -> String {
    let mut out = format!(
        "wcet={} bcet={} modes={:?} path={:?}\n",
        report.wcet_cycles, report.bcet_cycles, report.mode_wcet, report.worst_path
    );
    for (addr, f) in &report.functions {
        out.push_str(&format!(
            "fn {addr}: wcet={} bcet={} counts={:?}\n",
            f.wcet.wcet_cycles, f.bcet.wcet_cycles, f.wcet.block_counts
        ));
    }
    out
}

/// Interpreter fuel: generous against the ≤ 100-iteration loop nests the
/// generator emits; exhausting it means the program (or machine) diverged.
const FUEL: u64 = 20_000_000;

/// Runs the bounds check of `MATRIX[case]` for every input vector.
/// `None` = sound.
fn check_bounds_case(
    gp: &GeneratedProgram,
    case_idx: usize,
    inputs: &[[u32; 3]],
    sabotage: Sabotage,
) -> Option<String> {
    let case = MATRIX[case_idx];
    let config = match analyzer_for(gp, case, sabotage, 1) {
        Ok(c) => c,
        Err(e) => return Some(e),
    };
    let report = match WcetAnalyzer::with_config(config).analyze(&gp.image) {
        Ok(r) => r,
        Err(e) => return Some(format!("analysis failed: {e}")),
    };
    if report.bcet_cycles > report.wcet_cycles {
        return Some(format!(
            "BCET {} exceeds WCET {}",
            report.bcet_cycles, report.wcet_cycles
        ));
    }
    let machine = run_machine(gp.spec.isa, case);
    for (i, input) in inputs.iter().enumerate() {
        let mut interp = Interpreter::with_config(&gp.image, machine.clone());
        for (r, &v) in input.iter().enumerate() {
            interp.set_reg(input_reg(r as u8), v);
        }
        let outcome = match interp.run(FUEL) {
            Ok(o) => o,
            Err(e) => return Some(format!("execution failed on input {input:?}: {e}")),
        };
        if outcome.cycles > report.wcet_cycles || outcome.cycles < report.bcet_cycles {
            return Some(format!(
                "input #{i} {input:?}: observed {} cycles outside [{}, {}]",
                outcome.cycles, report.bcet_cycles, report.wcet_cycles
            ));
        }
    }
    None
}

/// Same analysis at 1 and `threads` workers must digest identically.
fn check_thread_determinism(
    gp: &GeneratedProgram,
    case_idx: usize,
    threads: usize,
    sabotage: Sabotage,
) -> Option<String> {
    let case = MATRIX[case_idx];
    let mut digests = Vec::new();
    for parallelism in [1, threads] {
        let config = match analyzer_for(gp, case, sabotage, parallelism) {
            Ok(c) => c,
            Err(e) => return Some(e),
        };
        match WcetAnalyzer::with_config(config).analyze(&gp.image) {
            Ok(r) => digests.push(report_digest(&r)),
            Err(e) => return Some(format!("analysis failed at {parallelism} thread(s): {e}")),
        }
    }
    (digests[0] != digests[1]).then(|| {
        format!(
            "1-thread and {threads}-thread reports differ:\n{}",
            diff_hint(&digests[0], &digests[1])
        )
    })
}

/// Cache-less, cold-cache, and warm-cache analyses must digest identically.
fn check_cache_determinism(
    gp: &GeneratedProgram,
    case_idx: usize,
    sabotage: Sabotage,
) -> Option<String> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let case = MATRIX[case_idx];
    let config = match analyzer_for(gp, case, sabotage, 1) {
        Ok(c) => c,
        Err(e) => return Some(e),
    };
    let baseline = match WcetAnalyzer::with_config(config.clone()).analyze(&gp.image) {
        Ok(r) => report_digest(&r),
        Err(e) => return Some(format!("uncached analysis failed: {e}")),
    };
    let dir = std::env::temp_dir().join(format!(
        "wcet-fuzz-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut cache = match ArtifactCache::open(&dir) {
            Ok(c) => c,
            Err(e) => return Some(format!("cannot open scratch cache: {e}")),
        };
        for phase in ["cold", "warm"] {
            let analyzer = WcetAnalyzer::with_config(config.clone());
            let digest = match analyzer.analyze_incremental(&gp.image, &mut cache) {
                Ok(r) => report_digest(&r),
                Err(e) => return Some(format!("{phase}-cache analysis failed: {e}")),
            };
            if digest != baseline {
                return Some(format!(
                    "{phase}-cache report differs from the uncached one:\n{}",
                    diff_hint(&baseline, &digest)
                ));
            }
        }
        None
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn diff_hint(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("  {la}\n  vs\n  {lb}");
        }
    }
    format!(
        "  lengths differ: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

/// Re-runs exactly one check — the shrinker's predicate.
#[must_use]
pub fn recheck(
    gp: &GeneratedProgram,
    kind: CheckKind,
    inputs: &[[u32; 3]],
    sabotage: Sabotage,
) -> Option<Violation> {
    let detail = match kind {
        CheckKind::Bounds { case } => check_bounds_case(gp, case, inputs, sabotage),
        CheckKind::ThreadDeterminism { case } => check_thread_determinism(gp, case, 3, sabotage),
        CheckKind::CacheDeterminism { case } => check_cache_determinism(gp, case, sabotage),
    };
    detail.map(|detail| Violation { kind, detail })
}

/// Knobs of one oracle pass over a program.
#[derive(Debug, Clone, Copy)]
pub struct OracleOptions {
    pub sabotage: Sabotage,
    /// Also compare 1-thread vs N-thread report digests.
    pub check_threads: bool,
    /// Also compare uncached vs cold vs warm artifact-cache digests.
    pub check_cache_determinism: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            sabotage: Sabotage::None,
            check_threads: false,
            check_cache_determinism: false,
        }
    }
}

/// Checks one lowered program against the full matrix. `None` = sound.
#[must_use]
pub fn check_program(
    gp: &GeneratedProgram,
    inputs: &[[u32; 3]],
    opts: &OracleOptions,
) -> Option<Violation> {
    for case in 0..MATRIX.len() {
        if let Some(v) = recheck(gp, CheckKind::Bounds { case }, inputs, opts.sabotage) {
            return Some(v);
        }
    }
    // The most config-laden case carries the determinism checks: contexts
    // + caches + persistence + pipeline exercises the widest artifact set.
    let heavy = MATRIX.len() - 1; // caches, depth 1, persistence, pipeline
    if opts.check_threads {
        if let Some(v) = recheck(
            gp,
            CheckKind::ThreadDeterminism { case: heavy },
            inputs,
            opts.sabotage,
        ) {
            return Some(v);
        }
    }
    if opts.check_cache_determinism {
        if let Some(v) = recheck(
            gp,
            CheckKind::CacheDeterminism { case: heavy },
            inputs,
            opts.sabotage,
        ) {
            return Some(v);
        }
    }
    None
}

/// Derives the input vectors for one program: fixed adversarial corners
/// plus one random triple.
#[must_use]
pub fn input_vectors(seed: u64) -> Vec<[u32; 3]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5f35_6495);
    vec![
        [0, 0, 0],
        [1, 2, 3],
        [u32::MAX, 0x8000_0000, 17],
        [
            rng.gen_range(0..=u32::MAX),
            rng.gen_range(0..=u32::MAX),
            rng.gen_range(0..=u32::MAX),
        ],
    ]
}

// ---------------------------------------------------------------------------
// Greedy structural shrinker
// ---------------------------------------------------------------------------

/// Counts statements in pre-order over the whole program.
fn count_stmts(spec: &ProgSpec) -> usize {
    fn walk(body: &[Stmt]) -> usize {
        body.iter()
            .map(|s| match s {
                Stmt::Diamond {
                    then_body,
                    else_body,
                    ..
                } => 1 + walk(then_body) + walk(else_body),
                Stmt::Loop { body, .. } => 1 + walk(body),
                _ => 1,
            })
            .sum()
    }
    spec.funcs.iter().map(|f| walk(&f.body)).sum()
}

/// One structural edit applied at pre-order statement position `target`.
#[derive(Clone, Copy)]
enum Edit {
    /// Delete the statement (and its whole subtree).
    Delete,
    /// Loop: bound := max(1, bound / 2). Diamond/other: no-op.
    HalveBound,
    /// Loop: replace with its body (one unrolled iteration).
    /// Diamond: replace with the then-branch.
    Flatten,
}

/// Applies `edit` to the statement at pre-order position `target`;
/// `None` when the edit does not change the spec.
fn apply_edit(spec: &ProgSpec, target: usize, edit: Edit) -> Option<ProgSpec> {
    fn walk(body: &[Stmt], pos: &mut usize, target: usize, edit: Edit) -> Option<Vec<Stmt>> {
        let mut out = Vec::with_capacity(body.len());
        for stmt in body {
            let here = *pos;
            *pos += 1;
            if here == target {
                match (edit, stmt) {
                    (Edit::Delete, _) => continue,
                    (
                        Edit::HalveBound,
                        Stmt::Loop {
                            bound,
                            annotate,
                            body,
                        },
                    ) if *bound > 1 => {
                        out.push(Stmt::Loop {
                            bound: (*bound / 2).max(1),
                            annotate: *annotate,
                            body: body.clone(),
                        });
                        continue;
                    }
                    (Edit::Flatten, Stmt::Loop { body, .. }) => {
                        out.extend(body.iter().cloned());
                        continue;
                    }
                    (Edit::Flatten, Stmt::Diamond { then_body, .. }) => {
                        out.extend(then_body.iter().cloned());
                        continue;
                    }
                    _ => return None, // edit not applicable here
                }
            }
            // Recurse into compound statements (their children occupy the
            // pre-order positions following them).
            match stmt {
                Stmt::Diamond {
                    cond,
                    rs1,
                    rs2,
                    then_body,
                    else_body,
                } => {
                    let new_then = walk(then_body, pos, target, edit)?;
                    let new_else = walk(else_body, pos, target, edit)?;
                    out.push(Stmt::Diamond {
                        cond: *cond,
                        rs1: *rs1,
                        rs2: *rs2,
                        then_body: new_then,
                        else_body: new_else,
                    });
                }
                Stmt::Loop {
                    bound,
                    annotate,
                    body,
                } => {
                    let new_body = walk(body, pos, target, edit)?;
                    out.push(Stmt::Loop {
                        bound: *bound,
                        annotate: *annotate,
                        body: new_body,
                    });
                }
                other => out.push(other.clone()),
            }
        }
        Some(out)
    }

    let mut pos = 0usize;
    let mut funcs = Vec::with_capacity(spec.funcs.len());
    for f in &spec.funcs {
        let body = walk(&f.body, &mut pos, target, edit)?;
        funcs.push(FuncSpec {
            level: f.level,
            body,
        });
    }
    let candidate = ProgSpec {
        isa: spec.isa,
        code_base: spec.code_base,
        funcs,
    };
    (candidate != *spec).then_some(candidate)
}

/// Drops function `j` (never 0) and removes every call to it; calls to
/// later functions are re-indexed.
fn drop_function(spec: &ProgSpec, j: usize) -> ProgSpec {
    fn fix(body: &[Stmt], j: usize) -> Vec<Stmt> {
        body.iter()
            .filter_map(|stmt| match stmt {
                Stmt::Call { callee } if *callee == j => None,
                Stmt::Call { callee } if *callee > j => Some(Stmt::Call { callee: callee - 1 }),
                Stmt::Diamond {
                    cond,
                    rs1,
                    rs2,
                    then_body,
                    else_body,
                } => Some(Stmt::Diamond {
                    cond: *cond,
                    rs1: *rs1,
                    rs2: *rs2,
                    then_body: fix(then_body, j),
                    else_body: fix(else_body, j),
                }),
                Stmt::Loop {
                    bound,
                    annotate,
                    body,
                } => Some(Stmt::Loop {
                    bound: *bound,
                    annotate: *annotate,
                    body: fix(body, j),
                }),
                other => Some(other.clone()),
            })
            .collect()
    }
    let mut funcs = Vec::with_capacity(spec.funcs.len() - 1);
    for (idx, f) in spec.funcs.iter().enumerate() {
        if idx == j {
            continue;
        }
        funcs.push(FuncSpec {
            level: f.level,
            body: fix(&f.body, j),
        });
    }
    ProgSpec {
        isa: spec.isa,
        code_base: spec.code_base,
        funcs,
    }
}

/// Shrink statistics, reported alongside the minimized spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShrinkStats {
    /// Candidate specs whose oracle re-check was run.
    pub attempts: usize,
    /// Candidates accepted (each strictly simplified the spec).
    pub accepted: usize,
}

/// Greedily shrinks `spec` while `still_fails` holds: drop whole
/// functions, delete statements, halve loop bounds, flatten loops and
/// diamonds — first-improvement, restarting after every accepted cut.
/// The predicate receives the *lowered* candidate; candidates that fail
/// to lower are discarded without consulting it.
pub fn shrink(
    spec: &ProgSpec,
    mut still_fails: impl FnMut(&GeneratedProgram) -> bool,
) -> (ProgSpec, ShrinkStats) {
    let mut stats = ShrinkStats::default();
    let mut current = spec.clone();
    // Hard cap on oracle evaluations — shrinking is best-effort.
    let mut budget = 3000usize;
    'outer: loop {
        // Pass 1: drop functions, last first (leaves go before trunks).
        for j in (1..current.funcs.len()).rev() {
            if budget == 0 {
                break 'outer;
            }
            let candidate = drop_function(&current, j);
            budget -= 1;
            stats.attempts += 1;
            if let Ok(gp) = lower(&candidate) {
                if still_fails(&gp) {
                    stats.accepted += 1;
                    current = candidate;
                    continue 'outer;
                }
            }
        }
        // Pass 2: per-statement edits, deletions first.
        let n = count_stmts(&current);
        for edit in [Edit::Delete, Edit::Flatten, Edit::HalveBound] {
            for target in 0..n {
                if budget == 0 {
                    break 'outer;
                }
                let Some(candidate) = apply_edit(&current, target, edit) else {
                    continue;
                };
                budget -= 1;
                stats.attempts += 1;
                if let Ok(gp) = lower(&candidate) {
                    if still_fails(&gp) {
                        stats.accepted += 1;
                        current = candidate;
                        continue 'outer;
                    }
                }
            }
        }
        break;
    }
    (current, stats)
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Options of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of programs to generate per ISA.
    pub programs: u64,
    /// Campaign seed; every program seed derives from it.
    pub seed: u64,
    /// ISAs to fuzz (default: both).
    pub isas: Vec<IsaKind>,
    /// Run the thread-determinism check on every `n`-th program (0 = off).
    pub thread_check_every: u64,
    /// Run the warm/cold cache-determinism check on every `n`-th program
    /// (0 = off). Touches the filesystem, hence subsampled.
    pub cache_check_every: u64,
    /// Emit a progress line to stderr every `n` programs (0 = quiet).
    pub progress_every: u64,
    /// Fault injection (tests only).
    pub sabotage: Sabotage,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            programs: 100,
            seed: 1,
            isas: vec![IsaKind::House, IsaKind::Rv32i],
            thread_check_every: 16,
            cache_check_every: 64,
            progress_every: 0,
            sabotage: Sabotage::None,
        }
    }
}

/// A campaign failure: the first program the oracle rejected, minimized.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the failing program within the campaign.
    pub index: u64,
    /// Its derived generator seed (replays via [`generate`]).
    pub program_seed: u64,
    pub isa: IsaKind,
    /// The violation observed on the *original* program.
    pub violation: Violation,
    /// The violation observed on the minimized program.
    pub minimized_violation: Violation,
    /// The minimized reproducer.
    pub minimized: GeneratedProgram,
    pub shrink: ShrinkStats,
}

/// The result of a campaign: programs checked per ISA, and the first
/// failure (shrunk) if any.
#[derive(Debug)]
pub struct FuzzReport {
    pub programs_checked: u64,
    pub failure: Option<FuzzFailure>,
}

/// Runs a fuzzing campaign, stopping (and shrinking) at the first oracle
/// violation.
#[must_use]
pub fn run_campaign(opts: &FuzzOptions) -> FuzzReport {
    let mut checked = 0u64;
    for index in 0..opts.programs {
        for &isa in &opts.isas {
            let seed = program_seed(opts.seed, index, isa);
            let spec = generate(seed, isa);
            let gp = match lower(&spec) {
                Ok(gp) => gp,
                Err(e) => {
                    // A spec the lowerer cannot encode is a generator bug;
                    // report it as loudly as an unsoundness.
                    let violation = Violation {
                        kind: CheckKind::Bounds { case: 0 },
                        detail: format!("generated spec failed to lower: {e}"),
                    };
                    return FuzzReport {
                        programs_checked: checked,
                        failure: Some(FuzzFailure {
                            index,
                            program_seed: seed,
                            isa,
                            violation: violation.clone(),
                            minimized_violation: violation,
                            minimized: GeneratedProgram {
                                spec,
                                image: Image::default(),
                                annotations: String::new(),
                            },
                            shrink: ShrinkStats::default(),
                        }),
                    };
                }
            };
            let inputs = input_vectors(seed);
            let oracle = OracleOptions {
                sabotage: opts.sabotage,
                check_threads: opts.thread_check_every != 0 && index % opts.thread_check_every == 0,
                check_cache_determinism: opts.cache_check_every != 0
                    && index % opts.cache_check_every == 0,
            };
            if let Some(violation) = check_program(&gp, &inputs, &oracle) {
                let kind = violation.kind;
                let sabotage = opts.sabotage;
                let (min_spec, shrink_stats) = shrink(&spec, |cand| {
                    recheck(cand, kind, &inputs, sabotage).is_some()
                });
                let minimized = lower(&min_spec).expect("accepted shrink candidates lower");
                let minimized_violation = recheck(&minimized, kind, &inputs, sabotage)
                    .unwrap_or_else(|| violation.clone());
                return FuzzReport {
                    programs_checked: checked,
                    failure: Some(FuzzFailure {
                        index,
                        program_seed: seed,
                        isa,
                        violation,
                        minimized_violation,
                        minimized,
                        shrink: shrink_stats,
                    }),
                };
            }
            checked += 1;
        }
        if opts.progress_every != 0 && (index + 1) % opts.progress_every == 0 {
            eprintln!(
                "wcet fuzz: {}/{} programs checked ({} analyses)",
                index + 1,
                opts.programs,
                checked * MATRIX.len() as u64
            );
        }
    }
    FuzzReport {
        programs_checked: checked,
        failure: None,
    }
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle violation at program #{} (seed {}, isa {}):",
            self.index,
            self.program_seed,
            self.isa.name()
        )?;
        writeln!(f, "  {}", self.violation)?;
        writeln!(
            f,
            "minimized to {} instruction(s) after {} shrink attempt(s) ({} accepted):",
            self.minimized.image.code_len(),
            self.shrink.attempts,
            self.shrink.accepted
        )?;
        writeln!(f, "  {}", self.minimized_violation)?;
        match wcet_isa::disasm::disassemble(&self.minimized.image) {
            Ok(listing) => {
                for line in listing.lines() {
                    writeln!(f, "    {line}")?;
                }
            }
            Err(e) => writeln!(f, "    <disassembly unavailable: {e}>")?,
        }
        if !self.minimized.annotations.is_empty() {
            writeln!(f, "  annotations:")?;
            for line in self.minimized.annotations.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        write!(f, "  spec: {:?}", self.minimized.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, IsaKind::House);
        let b = generate(42, IsaKind::House);
        assert_eq!(a, b);
        // Different seeds give different programs (overwhelmingly likely).
        let c = generate(43, IsaKind::House);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_programs_lower_and_terminate_on_both_isas() {
        for isa in [IsaKind::House, IsaKind::Rv32i] {
            for seed in 0..40u64 {
                let spec = generate(program_seed(7, seed, isa), isa);
                let gp = lower(&spec).unwrap_or_else(|e| {
                    panic!("seed {seed} ({}) failed to lower: {e}", isa.name())
                });
                let mut interp =
                    Interpreter::with_config(&gp.image, MachineConfig::simple_for(isa));
                let outcome = interp
                    .run(FUEL)
                    .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", isa.name()));
                assert!(outcome.instructions > 0);
            }
        }
    }

    #[test]
    fn annotations_parse_and_match_trip_counts() {
        // A call-bearing loop must be annotated with its exact trip count.
        let spec = ProgSpec {
            isa: IsaKind::House,
            code_base: 0x1000,
            funcs: vec![
                FuncSpec {
                    level: 0,
                    body: vec![Stmt::Loop {
                        bound: 5,
                        annotate: false,
                        body: vec![Stmt::Call { callee: 1 }],
                    }],
                },
                FuncSpec {
                    level: 1,
                    body: vec![Stmt::AluImm {
                        op: AluOp::Add,
                        rd: 0,
                        rs1: 0,
                        imm: 1,
                    }],
                },
            ],
        };
        let gp = lower(&spec).unwrap();
        let annots = AnnotationSet::parse(&gp.annotations).expect("emitted annotations parse");
        assert_eq!(annots.loop_bound_annotations().len(), 1);
        assert_eq!(annots.loop_bound_annotations()[0].bound, 5);
        // And the oracle holds on it.
        assert!(check_program(&gp, &input_vectors(0), &OracleOptions::default()).is_none());
    }

    #[test]
    fn shrinker_edits_preserve_wellformedness() {
        let spec = generate(1234, IsaKind::House);
        let n = count_stmts(&spec);
        for target in 0..n {
            for edit in [Edit::Delete, Edit::Flatten, Edit::HalveBound] {
                if let Some(candidate) = apply_edit(&spec, target, edit) {
                    lower(&candidate).expect("edited specs still lower");
                }
            }
        }
        for j in 1..spec.funcs.len() {
            lower(&drop_function(&spec, j)).expect("function-dropped specs still lower");
        }
    }
}
