//! The benchmark's own seeded program generator.
//!
//! It emits assembly text (plus the loop annotations that text needs)
//! for either ISA, so the benchmark's inputs stay fixed however the
//! analyzer's own fuzz generator evolves. Programs are two-level call
//! trees: `main` calls a row of mid-level functions, each of which calls
//! its own leaves. Every function is called from exactly one site, so a
//! change to a leaf dirties exactly the leaf, its parent, and `main`.
//!
//! Only shapes the soundness oracle holds today are emitted: counted
//! loops in the `li`/`subi`/`bne` form the loop-bound analysis
//! recognizes, two-armed branches whose taken target is never their own
//! fall-through, calls down the tree, word loads and stores into one SRAM
//! array, and ALU traffic in the forms both backends encode.

use std::fmt::Write as _;

use wcet_predictability::isa::asm::assemble_for;
use wcet_predictability::isa::{Image, IsaKind};

/// Base of the shared SRAM data array.
const DATA_BASE: u32 = 0x8000;
/// Words in the data array; slot indices stay below it.
const DATA_SLOTS: u32 = 16;
/// Code base in SRAM (no fetch misses) and in flash (the i-cache matters).
const SRAM_BASE: u32 = 0x1000;
const FLASH_BASE: u32 = 0x0010_0000;
/// Registers the generated code computes into: `r1`..`r6`.
const SCRATCH: [&str; 6] = ["r1", "r2", "r3", "r4", "r5", "r6"];
/// Registers the interpreter seeds with inputs before a run.
pub const INPUT_REGS: [u8; 3] = [10, 11, 12];
/// Loop counters by nesting depth.
const COUNTERS: [&str; 2] = ["r8", "r9"];

/// SplitMix64: a tiny, fully specified PRNG, so inputs depend on the
/// seed alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// What to generate.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub isa: IsaKind,
    /// Total function count, `main` included (at least 2).
    pub functions: usize,
    /// Flash-resident code (instruction-cache misses are priced).
    pub flash: bool,
}

/// One `addi` whose immediate an edit may rewrite without moving any
/// instruction.
#[derive(Debug, Clone, Copy)]
pub struct EditSite {
    /// Index into [`Program::lines`].
    pub line: usize,
    /// The function the line belongs to.
    pub function: usize,
}

/// A generated program: its source lines, the loops that need an
/// annotation, and the editable immediates.
#[derive(Debug, Clone)]
pub struct Program {
    pub isa: IsaKind,
    pub lines: Vec<String>,
    /// `(header label, bound)` of every loop that must be annotated.
    pub annotated: Vec<(String, u32)>,
    pub edit_sites: Vec<EditSite>,
    /// Parent of each function (`None` for `main`).
    pub parents: Vec<Option<usize>>,
}

impl Program {
    pub fn source(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }

    /// Annotation text for an assembled image of this program: one
    /// `loop <header> bound N;` line per call-bearing loop.
    pub fn annotations(&self, image: &Image) -> String {
        let mut out = String::new();
        for (label, bound) in &self.annotated {
            let header = image.symbol(label).expect("loop header label is bound");
            let _ = writeln!(out, "loop {header} bound {bound};");
        }
        out
    }

    /// Functions with no callees.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.parents.len())
            .filter(|&f| !self.parents.contains(&Some(f)))
            .collect()
    }

    /// Rewrites the immediate of edit site `site` to a new value drawn
    /// from `rng` (always different from the current one). The line keeps
    /// its mnemonic and registers, so the layout is unchanged.
    pub fn edit(&mut self, site: usize, rng: &mut Rng) {
        let line = &mut self.lines[self.edit_sites[site].line];
        let (head, imm) = line.rsplit_once(", ").expect("addi has an immediate");
        let current: i64 = imm.parse().expect("decimal immediate");
        let mut next = current;
        while next == current {
            next = rng.range(-128, 127);
        }
        *line = format!("{head}, {next}");
    }
}

/// Assembles `program` for its ISA.
pub fn assemble(program: &Program) -> Image {
    assemble_for(program.isa, &program.source()).expect("generated programs assemble")
}

struct Emitter {
    rng: Rng,
    lines: Vec<String>,
    annotated: Vec<(String, u32)>,
    edit_sites: Vec<EditSite>,
    labels: usize,
    function: usize,
}

impl Emitter {
    fn emit(&mut self, line: String) {
        self.lines.push(format!("    {line}"));
    }

    fn label(&mut self, name: &str) {
        self.lines.push(format!("{name}:"));
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!("{stem}{}", self.labels)
    }

    fn scratch(&mut self) -> &'static str {
        SCRATCH[self.rng.below(SCRATCH.len() as u64) as usize]
    }

    /// A source operand: scratch, input, or `r0`.
    fn source(&mut self) -> String {
        match self.rng.below(10) {
            0..=5 => self.scratch().to_owned(),
            6..=8 => format!("r{}", self.rng.pick(&INPUT_REGS)),
            _ => "r0".to_owned(),
        }
    }

    /// One straight-line statement.
    fn simple(&mut self) {
        match self.rng.below(100) {
            0..=29 => {
                let op = *self.rng.pick(&[
                    "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sra", "slt", "sltu",
                ]);
                let rd = self.scratch();
                let (a, b) = (self.source(), self.source());
                self.emit(format!("{op} {rd}, {a}, {b}"));
            }
            30..=54 => {
                // The edit sites: `addi` immediates in the range both
                // backends encode in one instruction.
                let rd = self.scratch();
                let a = self.source();
                let imm = self.rng.range(-128, 127);
                self.emit(format!("addi {rd}, {a}, {imm}"));
                self.edit_sites.push(EditSite {
                    line: self.lines.len() - 1,
                    function: self.function,
                });
            }
            55..=64 => {
                let (op, imm) = match self.rng.below(3) {
                    0 => (
                        *self.rng.pick(&["shli", "shri", "srai"]),
                        self.rng.range(0, 31),
                    ),
                    _ => (
                        *self.rng.pick(&["andi", "ori", "xori"]),
                        self.rng.range(0, 255),
                    ),
                };
                let rd = self.scratch();
                let a = self.source();
                self.emit(format!("{op} {rd}, {a}, {imm}"));
            }
            65..=72 => {
                let rd = self.scratch();
                let value = self.rng.below(1 << 20);
                self.emit(format!("li {rd}, {value}"));
            }
            73..=86 => {
                let rd = self.scratch();
                let slot = self.rng.below(u64::from(DATA_SLOTS));
                self.emit(format!("li r7, {}", DATA_BASE + 4 * slot as u32));
                self.emit(format!("lw {rd}, 0(r7)"));
            }
            _ => {
                let rs = self.source();
                let slot = self.rng.below(u64::from(DATA_SLOTS));
                self.emit(format!("li r7, {}", DATA_BASE + 4 * slot as u32));
                self.emit(format!("sw {rs}, 0(r7)"));
            }
        }
    }

    fn simples(&mut self, lo: i64, hi: i64) {
        for _ in 0..self.rng.range(lo, hi) {
            self.simple();
        }
    }

    /// A two-armed branch; both arms are non-empty, so the taken target
    /// is never the branch's own fall-through.
    fn diamond(&mut self) {
        let cond = *self.rng.pick(&["beq", "bne", "blt", "bge", "bltu", "bgeu"]);
        let (then_l, end_l) = (self.fresh("then"), self.fresh("end"));
        let (a, b) = (self.source(), self.source());
        self.emit(format!("{cond} {a}, {b}, {then_l}"));
        self.simples(1, 2);
        self.emit(format!("j {end_l}"));
        self.label(&then_l);
        self.simples(1, 2);
        self.label(&end_l);
    }

    /// A counted loop at nesting `depth` whose body runs `calls` (callee
    /// labels) plus straight-line work; a call in the body hides the
    /// counter from the bound analysis, so such loops are annotated.
    fn counted_loop(&mut self, depth: usize, calls: &[String]) {
        let bound = self.rng.range(2, 6) as u32;
        let counter = COUNTERS[depth];
        let head = self.fresh("head");
        if !calls.is_empty() {
            self.annotated.push((head.clone(), bound));
        }
        self.emit(format!("li {counter}, {bound}"));
        self.label(&head);
        self.simples(1, 2);
        for callee in calls {
            self.emit(format!("call {callee}"));
        }
        if depth == 0 && calls.is_empty() && self.rng.chance(30) {
            self.counted_loop(1, &[]);
        } else if self.rng.chance(40) {
            self.diamond();
        }
        self.emit(format!("subi {counter}, {counter}, 1"));
        self.emit(format!("bne {counter}, r0, {head}"));
    }

    /// One function body: straight-line code, branches and loops, with
    /// each callee called once, some of them from inside a loop.
    fn body(&mut self, callees: &[String]) {
        let mut pending: Vec<String> = callees.to_vec();
        let blocks = self.rng.range(2, 4);
        for block in 0..blocks {
            self.simples(1, 3);
            // Spread the calls across the blocks; the last block takes
            // whatever is left.
            let take = if block + 1 == blocks {
                pending.len()
            } else {
                (self.rng.below(pending.len() as u64 + 1) as usize).min(pending.len())
            };
            let calls: Vec<String> = pending.drain(..take).collect();
            match self.rng.below(3) {
                0 => self.diamond(),
                1 if calls.len() <= 2 => {
                    self.counted_loop(0, &calls);
                    continue;
                }
                _ => self.counted_loop(0, &[]),
            }
            for callee in calls {
                self.emit(format!("call {callee}"));
            }
        }
    }
}

fn function_label(f: usize) -> String {
    if f == 0 {
        "main".to_owned()
    } else {
        format!("f{f}")
    }
}

/// Generates one program of `shape` from `seed`.
pub fn generate(shape: Shape, seed: u64) -> Program {
    let n = shape.functions.max(2);
    // Two levels: `mids` children of main, the rest spread over them.
    let mids = ((n - 1) as f64).sqrt().round().max(1.0) as usize;
    let parents: Vec<Option<usize>> = (0..n)
        .map(|f| match f {
            0 => None,
            f if f <= mids => Some(0),
            f => Some(1 + (f - mids - 1) % mids),
        })
        .collect();
    let mut e = Emitter {
        rng: Rng::new(seed),
        lines: Vec::new(),
        annotated: Vec::new(),
        edit_sites: Vec::new(),
        labels: 0,
        function: 0,
    };
    e.lines.push(format!(
        ".org {:#x}",
        if shape.flash { FLASH_BASE } else { SRAM_BASE }
    ));
    let words: Vec<String> = (0..DATA_SLOTS)
        .map(|i| (0x0101_0101u32.wrapping_mul(i + 1)).to_string())
        .collect();
    e.lines
        .push(format!(".data {DATA_BASE:#x} {}", words.join(", ")));
    for f in 0..n {
        e.function = f;
        let callees: Vec<String> = (0..n)
            .filter(|&c| parents[c] == Some(f))
            .map(function_label)
            .collect();
        e.label(&function_label(f));
        if f == 0 {
            e.body(&callees);
            e.emit("halt".to_owned());
        } else {
            // Save the link register and both loop counters, so loops in
            // callers survive the call concretely.
            e.emit("subi sp, sp, 12".to_owned());
            e.emit("sw lr, 0(sp)".to_owned());
            e.emit("sw r8, 4(sp)".to_owned());
            e.emit("sw r9, 8(sp)".to_owned());
            e.body(&callees);
            e.emit("lw lr, 0(sp)".to_owned());
            e.emit("lw r8, 4(sp)".to_owned());
            e.emit("lw r9, 8(sp)".to_owned());
            e.emit("addi sp, sp, 12".to_owned());
            e.emit("ret".to_owned());
        }
    }
    Program {
        isa: shape.isa,
        lines: e.lines,
        annotated: e.annotated,
        edit_sites: e.edit_sites,
        parents,
    }
}

/// The input vectors every program is run on: fixed corners plus two
/// seeded triples.
pub fn input_vectors(seed: u64) -> Vec<[u32; 3]> {
    let mut rng = Rng::new(seed ^ 0x5bd1_e995);
    let mut vectors = vec![[0, 0, 0], [1, 2, 3], [u32::MAX, 0x8000_0000, 17]];
    for _ in 0..2 {
        vectors.push([
            rng.next_u64() as u32,
            rng.next_u64() as u32,
            rng.next_u64() as u32,
        ]);
    }
    vectors
}
